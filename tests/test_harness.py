import ast
import importlib
import json
import math
import os
import re
import pkgutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import anicurve
from anicurve.cli import main, run_experiment
from anicurve.config import ConfigError, load_config, parse_config

GOOD_FLOW = """
# minimal normalized-flow run
experiment = flow
N = 32
k = 1
beta = 2
alpha = -2
mode = round_normalized
initial = translate 0.2
t_max = 0.05
tol_conv = 0
record_every = 10
"""


def test_parse_minimal():
    cfg = parse_config("k = 1\nbeta = 2\nalpha = -2\n")
    assert cfg.k == 1 and cfg.beta == 2.0 and cfg.alpha == -2.0
    from anicurve import FlowParams

    assert FlowParams(k=cfg.k, beta=cfg.beta, alpha=cfg.alpha).regime == "subcritical"


def test_parse_rejects_small_beta():
    with pytest.raises(ConfigError, match="beta must exceed 1/k"):
        parse_config("beta = 0.5\nk = 1\n")


def test_parse_rejects_derived_keys():
    with pytest.raises(ConfigError, match="gamma is derived"):
        parse_config("gamma = 3\n")


def test_parse_rejects_unknown_key_with_line_number():
    with pytest.raises(ConfigError, match="line 2: unknown key 'spam'"):
        parse_config("k = 1\nspam = 3\n")


def test_parse_rejects_malformed_line():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("just some words\n")


def test_parse_rejects_duplicate():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("k = 1\nk = 2\n")


def test_parse_rejects_nonpositive_dt_min():
    # a zero floor lets a step shrink without end instead of stopping the run
    for value in ("0", "-1e-3", "nan"):
        with pytest.raises(ConfigError, match="dt_min must be positive"):
            parse_config(f"dt_min = {value}\n")
    assert parse_config("dt_min = 1e-6\n").dt_min == 1e-6


def test_parse_rejects_infinite_dt_min():
    # an infinite floor passed, and the run stopped at once with step_underflow
    with pytest.raises(ConfigError, match="dt_min must be positive and finite"):
        parse_config("dt_min = inf\n")


def test_parse_rejects_bad_theta(tmp_path):
    # the cap exponent mu divides by k*beta*theta: theta = 0 crashed the CLI
    # with a ZeroDivisionError instead of a configuration error
    for value in ("0", "-1", "nan", "inf"):
        with pytest.raises(ConfigError, match="theta must be positive and finite"):
            parse_config(f"theta = {value}\n")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "experiment = counterexample\nk = 1\nbeta = 1.5\nalpha = 0.5\nN = 32\ntheta = 0\n"
    )
    assert main(["counterexample", "--config", str(cfg), "--out", str(tmp_path / "o")]) != 0


def test_parse_rejects_bad_samples_and_horizon(tmp_path):
    # samples = 1 or -3 parsed and failed only at run time ("need at least
    # two samples"); horizon = inf ran, exited 0 and echoed "horizon": null,
    # so summary.json could no longer reconstruct the run
    for value in ("1", "0", "-3"):
        with pytest.raises(ConfigError, match="samples must be at least 2"):
            parse_config(f"samples = {value}\n")
    for value in ("0", "-1", "nan", "inf"):
        with pytest.raises(ConfigError, match="horizon must be positive and finite"):
            parse_config(f"horizon = {value}\n")
    assert parse_config("samples = 2\nhorizon = 0.5\n").samples == 2
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "experiment = counterexample\nk = 1\nbeta = 1.5\nalpha = 0.5\nN = 32\nhorizon = inf\n"
    )
    assert main(["counterexample", "--config", str(cfg), "--out", str(tmp_path / "o")]) != 0


def test_parse_rejects_nan_stopping_values():
    # NaN passed the old `<= 0` / `< 0` tests
    for key in ("t_max", "tol_conv"):
        with pytest.raises(ConfigError, match="stopping configuration must be positive"):
            parse_config(f"{key} = nan\n")


def test_parse_rejects_infinite_tol_conv():
    # tol_conv = inf passed, and the flow it configures stopped as
    # "converged" before its first step
    with pytest.raises(ConfigError, match="stopping configuration must be positive"):
        parse_config("tol_conv = inf\n")


def test_parse_rejects_nan_exponents_and_blowup_ratio():
    # NaN failed none of the old tests (`beta * k <= 1`, the regime's
    # `q > 0` / `q <= 0`), and nothing checked R_blowup, whose stop can
    # never fire at NaN
    for value in ("nan", "0.5"):
        with pytest.raises(ConfigError, match="beta must exceed 1/k"):
            parse_config(f"beta = {value}\n")
    for line in ("alpha = nan", "alpha = inf", "alpha = -inf", "beta = inf"):
        with pytest.raises(ConfigError, match="beta and alpha must be finite"):
            parse_config(line + "\n")
    for value in ("nan", "1", "0.5"):
        with pytest.raises(ConfigError, match="R_blowup must exceed 1"):
            parse_config(f"R_blowup = {value}\n")
    assert parse_config("R_blowup = 40\n").R_blowup == 40.0


def test_parse_rejects_bad_soliton_constant(tmp_path):
    # c = nan and c = inf passed the old `c <= 0` test, and a soliton run then
    # failed with the unrelated "support values must be positive"
    for value in ("0", "-1", "nan", "inf"):
        with pytest.raises(ConfigError, match="speed constant c must be positive and finite"):
            parse_config(f"experiment = soliton\nc = {value}\n")
    cfg = tmp_path / "c.cfg"
    cfg.write_text("experiment = soliton\nN = 32\nk = 1\nbeta = 2\nalpha = -2\nc = nan\n")
    assert main(["soliton", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize(
    "name", sorted(m.name for m in pkgutil.iter_modules(anicurve.__path__) if m.name != "__main__")
)
def test_every_exported_name_is_defined(name):
    # a name left in __all__ after its definition is gone breaks
    # `from anicurve.<module> import *`
    module = importlib.import_module(f"anicurve.{name}")
    assert [n for n in module.__all__ if n not in vars(module)] == []


@pytest.mark.parametrize(
    "name", sorted(m.name for m in pkgutil.iter_modules(anicurve.__path__) if m.name != "__main__")
)
def test_package_exports_match_module_all(name):
    # `import anicurve` and `from anicurve.<module> import *` give the same
    # names of each module
    module = importlib.import_module(f"anicurve.{name}")
    tree = ast.parse(Path(anicurve.__file__).read_text(encoding="utf-8"))
    imported = [
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == name
        for alias in node.names
    ]
    assert sorted(imported) == sorted(module.__all__)


def test_python_m_anicurve_runs_without_warnings():
    # `python -m anicurve.cli` makes runpy warn, because the package imports
    # cli before running it as __main__; the package's own entry point does not
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "anicurve", "--help"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert "--config" in done.stdout


def test_parse_initial_and_f_specs():
    cfg = parse_config("initial = spheroid 1 2\nf = power-of-linear 0.2 5\n")
    assert cfg.initial == ("spheroid", 1.0, 2.0)
    assert cfg.f == ("power-of-linear", 0.2, 5.0)
    with pytest.raises(ConfigError, match="anisotropy kind"):
        parse_config("f = fourier 1 2\n")
    with pytest.raises(ConfigError, match="initial-body kind"):
        parse_config("initial = cube 1\n")


def test_parse_regime_consistency():
    with pytest.raises(ConfigError, match="alpha <= 1 - k\\*beta"):
        parse_config("experiment = soliton\nk = 1\nbeta = 2\nalpha = 0.5\n")
    with pytest.raises(ConfigError, match="alpha > 1 - k\\*beta"):
        parse_config("experiment = counterexample\nk = 1\nbeta = 1.5\nalpha = -2\n")
    with pytest.raises(ConfigError, match="requires f = constant 1"):
        parse_config("experiment = flow\nmode = round_normalized\nf = power-of-linear 0.2 5\n")
    # 1 - 1*2.2 rounds to -1.2000000000000002; the line itself is accepted
    parse_config("experiment = soliton\nk = 1\nbeta = 2.2\nalpha = -1.2\n")
    with pytest.raises(ConfigError, match="alpha > 1 - k\\*beta"):
        parse_config("experiment = counterexample\nk = 1\nbeta = 2.2\nalpha = -1.2\n")


def test_flow_experiment_outputs(tmp_path):
    cfg = parse_config(GOOD_FLOW)
    code = run_experiment(cfg, tmp_path / "run", seed=0)
    assert code == 0
    files = {p.name for p in (tmp_path / "run").iterdir()}
    assert "diagnostics.csv" in files
    assert "summary.json" in files
    assert any(name.startswith("snapshot_") for name in files)
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["stop_reason"] == "t_max"
    assert summary["echo"]["seed"] == 0
    assert summary["echo"]["derived"]["gamma"] == 4.0
    stats = summary["stats"]
    assert stats["accepted"] == stats["record_steps"][-1] > 0
    assert stats["rhs_evaluations"] > stats["jacobian_evaluations"] > 0
    header = (tmp_path / "run" / "diagnostics.csv").read_text().splitlines()[0]
    assert header.startswith("t,tau,R,eta,J,Z_")


def test_deterministic_replay(tmp_path):
    cfg = parse_config(GOOD_FLOW)
    run_experiment(cfg, tmp_path / "a", seed=7)
    run_experiment(cfg, tmp_path / "b", seed=7)
    for name in ("diagnostics.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_soliton_experiment(tmp_path):
    text = "experiment = soliton\nN = 48\nk = 1\nbeta = 2\nalpha = -2\nc = 1\ntrials = 2\n"
    cfg = parse_config(text)
    assert run_experiment(cfg, tmp_path, seed=0) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["residual_sup"] < 1e-10
    assert summary["uniqueness_spread"] < 1e-6
    # round case: u = 4
    assert summary["umin"] == pytest.approx(4.0, abs=1e-8)
    # Newton statistics
    assert len(summary["residual_history"]) == summary["iterations"] + 1
    assert summary["residual_history"][-1] == summary["residual_sup"]
    assert len(summary["damping"]) == summary["iterations"]
    # one residual for the start and one per line-search trial
    trials = sum(round(-math.log2(lam)) + 1 for lam in summary["damping"])
    assert 1 + summary["iterations"] <= summary["residual_evaluations"] == 1 + trials
    # N = 48 is below the coarse phase's threshold
    assert summary["coarse_iterations"] == summary["coarse_residual_evaluations"] == 0


def test_soliton_experiment_reports_its_noise_floor(tmp_path):
    # the exact spheroid soliton of f* at N = 1200 stalls above 1e-10 * c,
    # under the residual's rounding floor, and converges there
    from conftest import exact_spheroid_soliton

    grid = anicurve.make_grid(1200)
    star, f = exact_spheroid_soliton(grid, 1.0, 1.3, 1, 2.0, -2.0)
    np.savetxt(tmp_path / "f.csv", f, delimiter=",")
    cfg_path = tmp_path / "floor.cfg"
    cfg_path.write_text(
        "experiment = soliton\nN = 1200\nk = 1\nbeta = 2\nalpha = -2\n"
        f"f = table {tmp_path / 'f.csv'}\nc = 1\ntrials = 0\n"
    )
    assert main(["soliton", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert 1e-10 <= summary["residual_sup"] < summary["noise_floor"] < 1e-9
    u = np.loadtxt(tmp_path / "o" / "snapshot_0.csv", delimiter=",", skiprows=1)[:, -1]
    assert np.max(np.abs(u - star)) < 1e-11


@pytest.mark.parametrize(
    "alpha, extra, message",
    [
        ("-1", "initial = spheroid 1 1.5\n", "error: Newton stagnated at"),
        ("-1.001", "", "error: the round soliton's scale"),
    ],
    ids=["critical", "near-critical"],
)
def test_soliton_failure_ends_in_one_error_line(tmp_path, capsys, alpha, extra, message):
    # on the critical line c = 1 is not the eigenvalue, so Newton stalls (its
    # log trials would overflow on the way); just below it the round
    # soliton's scale overflows a double: exit 1, one error line, no warning
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(
        "experiment = soliton\nN = 200\nk = 1\nbeta = 2\n"
        f"alpha = {alpha}\nf = power-of-linear 0.2 5\nc = 1\n{extra}"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["soliton", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(message)


def test_soliton_experiment_on_critical_line(tmp_path):
    # no round radius is singled out at q = 0, so Newton starts from `initial`
    # (the unit sphere, an exact solution for c = 2^beta)
    cfg_path = tmp_path / "crit.cfg"
    cfg_path.write_text(
        "experiment = soliton\nN = 32\nk = 1\nbeta = 2.2\nalpha = -1.2\nc = 4.59479341998814\n"
    )
    code = main(["soliton", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["echo"]["derived"]["regime"] == "critical"
    assert summary["residual_sup"] < 1e-10 * 2**2.2
    assert "uniqueness_spread" not in summary


def test_counterexample_experiment_stats(tmp_path):
    text = (
        "experiment = counterexample\nN = 32\nk = 1\nbeta = 1.5\nalpha = 0.5\n"
        "initial = spheroid 1 2\nsamples = 50\nhorizon = 0.02\nrecord_every = 5\n"
    )
    assert run_experiment(parse_config(text), tmp_path, seed=0) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    for key in ("stats", "control_stats"):
        assert summary[key]["accepted"] == summary[key]["record_steps"][-1] > 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report == {k: v for k, v in summary.items() if k not in ("stats", "control_stats")}
    # the echo reconstructs the run, down to the counterexample keys
    echo = report["echo"]
    assert (echo["horizon"], echo["theta"], echo["samples"]) == (0.02, 2.0, 50)


def _strict_json(path):
    def reject(token):
        raise ValueError(f"{path.name}: {token} is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


def test_written_json_is_strict(tmp_path):
    # volume-normalized records carry t = nan; every JSON file the experiments
    # write must still parse without the NaN/Infinity extension
    flow = (
        "experiment = flow\nN = 32\nk = 1\nbeta = 2\nalpha = -2\n"
        "mode = volume_normalized\ninitial = spheroid 1 1.5\nt_max = 0.05\nrecord_every = 5\n"
    )
    counterexample = (
        "experiment = counterexample\nN = 32\nk = 1\nbeta = 1.5\nalpha = 0.5\n"
        "initial = spheroid 1 2\nsamples = 50\nhorizon = 0.02\nrecord_every = 5\n"
    )
    for name, text in (("flow", flow), ("counterexample", counterexample)):
        assert run_experiment(parse_config(text), tmp_path / name, seed=0) == 0
    written = sorted(tmp_path.rglob("*.json"))
    assert len(written) == 3
    for path in written:
        _strict_json(path)
    summary = _strict_json(tmp_path / "flow" / "summary.json")
    assert summary["final"]["t"] is None and summary["final"]["tau"] == 0.05


def test_barriers_experiment(tmp_path, capsys):
    text = (
        "experiment = barriers\nN = 32\nk = 1\nbeta = 2\nalpha = -2\n"
        "initial = round 0.5\nt_max = 1.0\nrecord_every = 50\n"
    )
    cfg = parse_config(text)
    assert run_experiment(cfg, tmp_path, seed=0) == 0
    rows = (tmp_path / "barrier_comparison.csv").read_text().splitlines()
    assert rows[0] == "tau,u_numeric,u_exact,abs_err"
    errs = [float(r.split(",")[3]) for r in rows[1:]]
    assert max(errs) < 1e-6


def test_barriers_reject_bodies_the_barriers_do_not_describe(tmp_path, capsys):
    # the exact barriers are the round solutions of the flow with f = 1; any
    # other initial body or anisotropy was echoed in summary.json but not run
    base = "experiment = barriers\nN = 32\nk = 1\nbeta = 2\nalpha = -2\n"
    with pytest.raises(ConfigError, match="initial = round <r>"):
        parse_config(base + "initial = spheroid 1 2\n")
    with pytest.raises(ConfigError, match="require f = constant 1"):
        parse_config(base + "f = power-of-linear 0.2 5\n")
    # they run round_normalized only; any other mode was echoed but not run
    with pytest.raises(ConfigError, match="run mode = round_normalized"):
        parse_config(base + "mode = raw\n")
    parse_config(base + "mode = round_normalized\n")
    # a config without an experiment key is checked as the command line's
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("N = 32\nk = 1\nbeta = 2\nalpha = -2\ninitial = spheroid 1 2\n")
    assert main(["barriers", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert "initial = round <r>" in capsys.readouterr().err


def test_barriers_run_with_the_config_stopping_rules(tmp_path, monkeypatch):
    from anicurve import cli

    stops = []
    original = cli.run

    def recording(u0, p, mode, stop):
        assert mode == "round_normalized"
        stops.append(stop)
        return original(u0, p, mode, stop)

    monkeypatch.setattr(cli, "run", recording)
    text = (
        "experiment = barriers\nN = 32\nk = 1\nbeta = 2\nalpha = -2\n"
        "initial = round 0.5\nt_max = 0.1\ndt_min = 1e-3\nR_blowup = 1.5\n"
    )
    assert run_experiment(parse_config(text), tmp_path, seed=0) == 0
    # only tol_conv is overridden: the comparison runs to t_max
    assert [(s.t_max, s.dt_min, s.R_blowup, s.tol_conv) for s in stops] == [(0.1, 1e-3, 1.5, 0.0)]
    # the echo names the mode that ran, not the config default
    echo = json.loads((tmp_path / "summary.json").read_text())["echo"]
    assert echo["mode"] == "round_normalized"


def test_validate_experiment(tmp_path, capsys):
    cfg = parse_config("experiment = validate\nN = 64\n")
    assert run_experiment(cfg, tmp_path, seed=0) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_flow_refuses_inadmissible_anisotropy(tmp_path, capsys):
    # a strongly oscillating anisotropy violates the convergence hypothesis
    text = (
        "experiment = flow\nN = 48\nk = 1\nbeta = 2\nalpha = -2\n"
        "mode = volume_normalized\nf = power-of-linear -0.9 12\nt_max = 0.1\n"
    )
    cfg = parse_config(text)
    code = run_experiment(cfg, tmp_path, seed=0)
    captured = capsys.readouterr()
    assert code == 1
    assert "admissibility condition" in captured.err


def test_cli_main(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(GOOD_FLOW)
    code = main(["flow", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--seed", "3"])
    assert code == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["echo"]["seed"] == 3

    code = main(["soliton", "--config", str(cfg_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "config declares experiment" in captured.err

    bad = tmp_path / "bad.cfg"
    bad.write_text("beta = 0.5\nk = 1\n")
    code = main(["flow", "--config", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert "beta must exceed 1/k" in captured.err


def test_flow_writes_final_profile(tmp_path):
    cfg = parse_config(GOOD_FLOW)
    run_experiment(cfg, tmp_path, seed=0)
    rows = (tmp_path / "profile_final.csv").read_text().splitlines()
    assert rows[0] == "rho,z"
    assert len(rows) == cfg.N + 1


def test_cli_sweep(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(GOOD_FLOW)
    code = main(
        [
            "flow",
            "--config",
            str(cfg_path),
            "--out",
            str(tmp_path / "s"),
            "--sweep",
            "alpha=-2,-1.5",
        ]
    )
    assert code == 0
    for i, alpha in enumerate((-2.0, -1.5)):
        summary = json.loads((tmp_path / "s" / f"sweep_{i}" / "summary.json").read_text())
        assert summary["echo"]["alpha"] == alpha

    code = main(
        ["flow", "--config", str(cfg_path), "--out", str(tmp_path / "x"), "--sweep", "bogus=1"]
    )
    assert code == 1



COUNTEREXAMPLE = (
    "experiment = counterexample\nN = 32\nk = 1\nbeta = 1.5\nalpha = 0.5\n"
    "initial = spheroid 1 2\nsamples = 50\nhorizon = 0.02\nrecord_every = 5\n"
)


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _sweep_flow_runs(tmp_path, monkeypatch, key, values):
    """Count the flow.run calls of a counterexample sweep over key, and
    require each variant's tree to be that of a standalone run."""
    from anicurve import counterexample

    calls = []
    original = counterexample.run

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(counterexample, "run", counting)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(COUNTEREXAMPLE)
    out = tmp_path / "sweep"
    argv = ["counterexample", "--config", str(cfg_path), "--out", str(out)]
    assert main(argv + ["--sweep", f"{key}={','.join(values)}"]) == 0
    count = len(calls)
    for i, value in enumerate(values):
        text, n = re.subn(rf"^{key} = .*$", f"{key} = {value}", COUNTEREXAMPLE, flags=re.M)
        assert n == 1
        alone = tmp_path / f"alone_{i}"
        assert run_experiment(parse_config(text), alone, seed=0) == 0
        assert _tree(out / f"sweep_{i}") == _tree(alone)
    return count


def test_alpha_sweep_shares_the_control(tmp_path, monkeypatch):
    # the control runs at alpha' = 1 - k*beta from the same body with the same
    # stopping rules whatever alpha is: one control serves both variants
    assert _sweep_flow_runs(tmp_path, monkeypatch, "alpha", ["0.5", "0.6"]) == 3


def test_samples_sweep_shares_both_runs(tmp_path, monkeypatch):
    # neither flow run reads samples: the supercritical run and the control
    # each serve both variants
    assert _sweep_flow_runs(tmp_path, monkeypatch, "samples", ["50", "60"]) == 2


def test_beta_sweep_runs_each_control(tmp_path, monkeypatch):
    # beta moves alpha' and the flow itself: each variant needs its own control
    assert _sweep_flow_runs(tmp_path, monkeypatch, "beta", ["1.5", "1.2"]) == 4
