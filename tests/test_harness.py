import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


def test_parse_rejects_nan_stopping_values():
    # NaN passed the old `<= 0` / `< 0` tests
    for key in ("t_max", "tol_conv"):
        with pytest.raises(ConfigError, match="stopping configuration must be positive"):
            parse_config(f"{key} = nan\n")


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
    assert summary["residual_evaluations"] >= 1 + 11 * summary["iterations"]


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
