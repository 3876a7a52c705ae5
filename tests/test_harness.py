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
from anicurve.cli import _DISPATCH, _write_csv, main, run_experiment
from anicurve.config import EXPERIMENTS, ConfigError, load_config, parse_config
from conftest import strict_json

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

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


def test_parse_rejects_dt_min():
    # the step floor is a constant of flow.run, not a setting
    with pytest.raises(ConfigError, match="unknown key 'dt_min'"):
        parse_config("dt_min = 1e-12\n")


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


def test_parse_rejects_bad_samples_and_t_max(tmp_path):
    # samples = 1 or -3 parsed and failed only at run time ("need at least
    # two samples"); t_max = inf ran and echoed "t_max": null, so
    # summary.json could no longer reconstruct the run
    for value in ("1", "0", "-3"):
        with pytest.raises(ConfigError, match="samples must be at least 2"):
            parse_config(f"samples = {value}\n")
    for value in ("0", "-1", "nan", "inf"):
        with pytest.raises(ConfigError, match="stopping configuration must be positive and finite"):
            parse_config(f"t_max = {value}\n")
    assert parse_config("samples = 2\nt_max = 0.5\n").samples == 2
    # every run ends at t_max: there is no second end time
    with pytest.raises(ConfigError, match="unknown key 'horizon'"):
        parse_config("horizon = 3.0\n")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "experiment = counterexample\nk = 1\nbeta = 1.5\nalpha = 0.5\nN = 32\nt_max = inf\n"
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
    # `import anicurve` gives every name of `from anicurve.<module> import *`
    module = importlib.import_module(f"anicurve.{name}")
    assert [n for n in module.__all__ if n not in vars(anicurve)] == []


def test_package_exports_only_module_all():
    # every public name of the package that is not a submodule comes from
    # some module's __all__
    modules = [m.name for m in pkgutil.iter_modules(anicurve.__path__) if m.name != "__main__"]
    exported = {n for m in modules for n in importlib.import_module(f"anicurve.{m}").__all__}
    public = [n for n in vars(anicurve) if not n.startswith("_") and n not in modules]
    assert [n for n in public if n not in exported] == []


def _src_env():
    """The environment of a child process that imports the package from src."""
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_python_m_anicurve_runs_without_warnings():
    # `python -m anicurve.cli` makes runpy warn, because the package imports
    # cli before running it as __main__; the package's own entry point does not
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "anicurve", "--help"],
        capture_output=True,
        text=True,
        env=_src_env(),
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert "--config" in done.stdout


_LAZY_LAPACK_SCRIPT = r"""
import sys
from pathlib import Path

import numpy as np

from anicurve import body, cli, flow, functionals, soliton, sphere

def loaded(step):
    print(step, "scipy.linalg" in sys.modules, body._lapack.cache_info().currsize)

loaded("import")
grid = sphere.make_grid(32)
u = body.translated_ball(grid, 0.2)
p = functionals.FlowParams(k=1, beta=1.5, alpha=-2.0)
stop = flow.StoppingConfig(t_max=1e-3, tol_conv=0.0, record_every=10, fixed_dt=1e-4)
flow.run(u, p, "raw", stop)
flow.run(body.polar_dual(u), p, "dual_radial", stop)
loaded("fixed_dt run")
functionals.diagnostics(u, p, 0.0, 0.0)
loaded("diagnostics")
body.normalize_body(u, 1)
loaded("normalize_body")
cfg = Path(sys.argv[1]) / "missing_table.cfg"
cfg.write_text("experiment = flow\nN = 32\nf = table " + str(Path(sys.argv[1]) / "f.csv") + "\n")
assert cli.main(["flow", "--config", str(cfg), "--out", str(Path(sys.argv[1]) / "o")]) == 1
loaded("failed cli run")
traj = flow.run(u, p, "raw", flow.StoppingConfig(t_max=1e-3, tol_conv=0.0, record_every=10))
assert traj.stop_reason == "t_max" and traj.stats.jacobian_evaluations > 0, traj.stop_reason
loaded("adaptive run")
f = functionals.tabulated_anisotropy(grid, 1.0 + 0.3 * grid.cos**2)
result = soliton.solve_soliton(soliton.SolitonProblem(functionals.FlowParams(1, 1.5, -2.0, f)), grid)
assert result.iterations > 0 and result.residual_sup < 1e-10, result.residual_sup
loaded("solve_soliton")

# scipy.linalg imported after the direct load registers the extension under
# its package, and its routines and band solve are the loader's, bit for bit
import scipy.linalg
from scipy.linalg.lapack import dgbsv, dgbtrs

dgbsv_, dgbtrs_ = body._lapack()
assert dgbsv_ is dgbsv is scipy.linalg._flapack.dgbsv and dgbtrs_ is dgbtrs
rng = np.random.default_rng(3)
ab = rng.uniform(-1.0, 1.0, (5, 40))
ab[2] += 4.0
b = rng.standard_normal(40)
c = rng.standard_normal((40, 3))
x, solve = body._band_solver(ab, b.copy())
assert np.array_equal(x, scipy.linalg.solve_banded((2, 2), ab, b))
assert np.array_equal(solve(np.asfortranarray(c)), scipy.linalg.solve_banded((2, 2), ab, c))
loaded("scipy.linalg")
"""


def test_lapack_loads_with_the_first_band_solve_without_scipy_linalg(tmp_path):
    # only the band solver needs scipy's LAPACK: a process loads it with its
    # first band solve (an adaptive flow step here), straight from the
    # extension file, and never imports scipy.linalg; a later import of
    # scipy.linalg shares the routines
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", _LAZY_LAPACK_SCRIPT, str(tmp_path)],
        capture_output=True,
        text=True,
        env=_src_env(),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "import False 0",
        "fixed_dt run False 0",
        "diagnostics False 0",
        "normalize_body False 0",
        "failed cli run False 0",
        "adaptive run False 1",
        "solve_soliton False 1",
        "scipy.linalg True 1",
    ]


def test_lapack_loader_names_the_missing_extension(tmp_path, monkeypatch):
    # a scipy without the compiled LAPACK wrapper is an ImportError naming
    # it, with no fallback; the uncached loader leaves the process cache be
    import scipy

    from anicurve import body

    (tmp_path / "scipy" / "linalg").mkdir(parents=True)
    cached = body._lapack.cache_info()
    monkeypatch.setattr(scipy, "__file__", str(tmp_path / "scipy" / "__init__.py"))
    with pytest.raises(ImportError, match=r"scipy\.linalg\._flapack") as exc:
        body._lapack.__wrapped__()
    assert exc.value.name == "scipy.linalg._flapack"
    assert body._lapack.cache_info() == cached


def test_parse_initial_and_f_specs():
    cfg = parse_config("initial = spheroid 1 2\nf = power-of-linear 0.2 5\n")
    assert cfg.initial == ("spheroid", 1.0, 2.0)
    assert cfg.f == ("power-of-linear", 0.2, 5.0)
    with pytest.raises(ConfigError, match="anisotropy kind"):
        parse_config("f = fourier 1 2\n")
    with pytest.raises(ConfigError, match="initial-body kind"):
        parse_config("initial = cube 1\n")
    # a spec takes exactly its kind's arguments: "round 1 2" ran as "round 1"
    full = {
        ("f", "anisotropy"): ["constant 2", "power-of-linear 0.2 5", "table f.csv"],
        ("initial", "initial-body"): ["round 1", "translate 0.2", "spheroid 1 2", "file u.csv"],
    }
    for (key, name), specs in full.items():
        for spec in specs:
            assert parse_config(f"{key} = {spec}\n")
            shorter = spec.rsplit(" ", 1)[0]
            for bad in ([] if spec == "constant 2" else [shorter]) + [spec + " 7"]:
                with pytest.raises(ConfigError, match=f"line 1: malformed {name} spec '{bad}'"):
                    parse_config(f"{key} = {bad}\n")
    # the constant's value may be left out, and then is 1
    assert parse_config("f = constant\n").f == ("constant", 1.0)


def test_parse_regime_consistency(tmp_path, capsys):
    with pytest.raises(ConfigError, match="alpha <= 1 - k\\*beta"):
        parse_config("experiment = soliton\nk = 1\nbeta = 2\nalpha = 0.5\n")
    with pytest.raises(ConfigError, match="alpha > 1 - k\\*beta"):
        parse_config("experiment = counterexample\nk = 1\nbeta = 1.5\nalpha = -2\n")
    # f = 1 is decided from the built anisotropy, before the output exists
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("experiment = flow\nN = 32\nmode = round_normalized\nf = power-of-linear 0.2 5\n")
    out = tmp_path / "o"
    assert main(["flow", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: round_normalized flow requires f = 1")
    assert not out.exists()
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


_SOLITON_BASE = (
    "experiment = soliton\nN = 200\nk = 1\nbeta = 2\nf = power-of-linear 0.2 5\nc = 1.0\n"
)

# Configs that cannot be run, each as (config text, experiment, extra argv,
# expected stderr).  {tmp} in a text or message is the test's directory, where
# missing.csv does not exist, one.csv holds one value, latin1.csv holds a
# byte that is not UTF-8 and abc.csv a cell that is not a number.  An expected stderr that ends in a newline is the
# whole of it; any other is its start.
FAILURES = {
    # on the soliton critical line c = 1 is not the eigenvalue, so Newton
    # stalls (its log trials would overflow on the way); just below the line
    # the round soliton's scale is not representable as a double
    "critical": (
        _SOLITON_BASE + "alpha = -1\ninitial = spheroid 1 1.5\n",
        "soliton",
        [],
        "error: Newton stagnated at",
    ),
    "near-critical": (
        _SOLITON_BASE + "alpha = -1.001\n",
        "soliton",
        [],
        "error: the round soliton's scale",
    ),
    # a k = 1 anisotropy that fails the admissibility condition is refused,
    # by the soliton solve after the output directory was made, which the
    # failed run removes, and by a volume-normalized flow before it is made
    "soliton-inadmissible": (
        "experiment = soliton\nN = 48\nk = 1\nbeta = 2\nc = 1\nalpha = -2\n"
        "f = power-of-linear -0.9 12\n",
        "soliton",
        [],
        "error: the anisotropy fails the admissibility condition for k < 2 (the "
        "curvature matrix of f^(1/(1+k*beta-alpha)) must be positive definite; its "
        "minimum entry is -6.313e-01)\n",
    ),
    "flow-inadmissible": (
        "experiment = flow\nN = 48\nk = 1\nbeta = 2\nalpha = -2\n"
        "mode = volume_normalized\nf = power-of-linear -0.9 12\n",
        "flow",
        [],
        "error: the anisotropy fails the admissibility condition for k < 2 (the "
        "curvature matrix of f^(1/(1+k*beta-alpha)) must be positive definite; its "
        "minimum entry is -6.313e-01)\n",
    ),
    # the exact barriers need alpha < 1 - k*beta
    "barriers-critical": (
        "experiment = barriers\nN = 32\nk = 1\nbeta = 2\nalpha = -1\ninitial = round 0.5\n",
        "barriers",
        [],
        "error: barriers experiments need alpha < 1 - k*beta",
    ),
    # the step floor is a constant, and every run ends at t_max
    "flow-dt-min": (
        "experiment = flow\nN = 32\ndt_min = 1e-12\n",
        "flow",
        [],
        "error: line 3: unknown key 'dt_min'\n",
    ),
    "counterexample-horizon": (
        "experiment = counterexample\nN = 32\nk = 1\nbeta = 1.5\nalpha = 0.5\nhorizon = 3.0\n",
        "counterexample",
        [],
        "error: line 6: unknown key 'horizon'\n",
    ),
    # a run to t_max = inf could not be replayed
    "flow-infinite-t-max": (
        "experiment = flow\nN = 32\nt_max = inf\n",
        "flow",
        [],
        "error: stopping configuration must be positive and finite\n",
    ),
    # both specs read a data file with the one reader, which fails in one
    # way for each: a missing file is an OSError, a file of one value, which
    # make_field would broadcast to a constant field, is refused for its
    # length; every input is read before the output directory is made
    "flow-missing-table": (
        "experiment = flow\nN = 32\nf = table {tmp}/missing.csv\n",
        "flow",
        [],
        "error: [Errno 2] No such file or directory: '{tmp}/missing.csv'\n",
    ),
    "flow-missing-file": (
        "experiment = flow\nN = 32\ninitial = file {tmp}/missing.csv\n",
        "flow",
        [],
        "error: [Errno 2] No such file or directory: '{tmp}/missing.csv'\n",
    ),
    "flow-one-value-table": (
        "experiment = flow\nN = 32\nf = table {tmp}/one.csv\n",
        "flow",
        [],
        "error: expected 32 values, got shape (1,)\n",
    ),
    "flow-one-value-file": (
        "experiment = flow\nN = 32\ninitial = file {tmp}/one.csv\n",
        "flow",
        [],
        "error: expected 32 values, got shape (1,)\n",
    ),
    # a data file that is not UTF-8 ended in the codec's message alone,
    # naming no file
    "flow-table-not-utf-8": (
        "experiment = flow\nN = 32\nf = table {tmp}/latin1.csv\n",
        "flow",
        [],
        "error: {tmp}/latin1.csv is not UTF-8 text: 'utf-8' codec can't decode byte 0xe9 "
        "in position 11: invalid continuation byte\n",
    ),
    "flow-file-not-utf-8": (
        "experiment = flow\nN = 32\ninitial = file {tmp}/latin1.csv\n",
        "flow",
        [],
        "error: {tmp}/latin1.csv is not UTF-8 text: 'utf-8' codec can't decode byte 0xe9 "
        "in position 11: invalid continuation byte\n",
    ),
    # a cell that is not a number ended in numpy's message alone, naming no file
    "flow-table-not-a-number": (
        "experiment = flow\nN = 32\nf = table {tmp}/abc.csv\n",
        "flow",
        [],
        "error: {tmp}/abc.csv is not a CSV of numbers: could not convert string 'abc' "
        "to float64 at row 1, column 1.\n",
    ),
    "flow-file-not-a-number": (
        "experiment = flow\nN = 32\ninitial = file {tmp}/abc.csv\n",
        "flow",
        [],
        "error: {tmp}/abc.csv is not a CSV of numbers: could not convert string 'abc' "
        "to float64 at row 1, column 1.\n",
    ),
    # the consistency battery lives in the test suite alone; a config that
    # still names it fails as an unknown experiment (run as a flow, since
    # validate is no command-line choice)
    "validate": (
        "experiment = validate\nN = 64\n",
        "flow",
        [],
        "error: line 1: unknown experiment 'validate' "
        "(one of flow, soliton, counterexample, barriers)\n",
    ),
    # a spec takes exactly its kind's arguments
    "flow-extra-word": (
        "experiment = flow\nN = 32\ninitial = round 1 2\n",
        "flow",
        [],
        "error: line 3: malformed initial-body spec 'round 1 2'\n",
    ),
    # a soliton run failed in uniqueness_spread, after it had written its
    # snapshot, and a flow run echoed "seed": -1
    "soliton-negative-seed": (
        (CONFIG_DIR / "soliton.cfg").read_text(),
        "soliton",
        ["--seed", "-1"],
        "error: --seed must be a non-negative integer, got -1\n",
    ),
    "flow-negative-seed": (
        GOOD_FLOW,
        "flow",
        ["--seed", "-1"],
        "error: --seed must be a non-negative integer, got -1\n",
    ),
    # a swept value is parsed as the config parses it: N = 2.5 ended in
    # "invalid literal for int() with base 10: '2.5'", naming neither
    "flow-sweep-fraction": (
        (CONFIG_DIR / "flow_soliton.cfg").read_text(),
        "flow",
        ["--sweep", "N=48,2.5"],
        "error: --sweep: cannot parse N value '2.5'\n",
    ),
    # a config that is not UTF-8 ended in a UnicodeDecodeError traceback
    "not-utf-8": (
        b"experiment = flow\nN = 32\n# caf\xe9\n",
        "flow",
        [],
        "error: {tmp}/run.cfg is not UTF-8 text: 'utf-8' codec can't decode byte 0xe9 "
        "in position 30: invalid continuation byte\n",
    ),
}


def _failure_argv(tmp_path, name):
    """(argv, expected stderr, out) of FAILURES[name], its files written."""
    text, experiment, extra, expected = FAILURES[name]
    (tmp_path / "one.csv").write_text("1.0\n")
    (tmp_path / "latin1.csv").write_bytes(b"1.0\n1.0\ncaf\xe9\n")
    (tmp_path / "abc.csv").write_text("1.0\nabc\n")
    cfg_path, out = tmp_path / "run.cfg", tmp_path / "o"
    cfg_path.write_bytes(text if isinstance(text, bytes) else text.format(tmp=tmp_path).encode())
    argv = [experiment, "--config", str(cfg_path), "--out", str(out), *extra]
    return argv, expected.format(tmp=tmp_path), out


@pytest.mark.parametrize("name", FAILURES)
def test_config_failure_ends_in_one_error_line(tmp_path, capsys, name):
    # exit status 1, no warning, one stderr line that starts with "error: ",
    # and no output directory left behind
    argv, expected, out = _failure_argv(tmp_path, name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and err.startswith(expected)
    assert not out.exists()


def test_failed_run_exits_1_without_a_traceback(tmp_path):
    # the process itself: Newton's stall on the soliton critical line,
    # with overflow, division by zero and invalid values raised as errors
    argv, expected, out = _failure_argv(tmp_path, "critical")
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "anicurve", *argv],
        capture_output=True,
        text=True,
        env=_src_env(),
        timeout=120,
    )
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr.count("\n") == 1 and done.stderr.startswith(expected)
    assert not out.exists()


def test_flow_restarts_from_its_own_snapshot(tmp_path):
    # snapshots open with a theta,u header, which a bare np.loadtxt could not
    # read back; the restarted run starts from the same bits, as does one
    # from a file of the node values alone
    text = (
        "experiment = flow\nN = 32\nmode = round_normalized\n"
        "initial = spheroid 1 1.3\nt_max = 0.05\nrecord_every = 5\n"
    )
    assert run_experiment(parse_config(text), tmp_path / "a") == 0
    snapshot = tmp_path / "a" / "snapshot_0.csv"
    assert snapshot.read_text().startswith("theta,u\n")
    restart = text.replace("initial = spheroid 1 1.3", f"initial = file {snapshot}")
    assert run_experiment(parse_config(restart), tmp_path / "b") == 0
    assert (tmp_path / "b" / "snapshot_0.csv").read_bytes() == snapshot.read_bytes()
    bare = tmp_path / "u.csv"
    np.savetxt(bare, np.loadtxt(snapshot, delimiter=",", skiprows=1)[:, 1], fmt="%.17g")
    restart = text.replace("initial = spheroid 1 1.3", f"initial = file {bare}")
    assert run_experiment(parse_config(restart), tmp_path / "c") == 0
    assert (tmp_path / "c" / "snapshot_0.csv").read_bytes() == snapshot.read_bytes()


def test_flow_that_stops_by_step_underflow_exits_2(tmp_path, monkeypatch):
    # a step floor above every step the run could take stops a
    # round_normalized flow, which is expected to converge, with
    # step_underflow: exit status 2, and summary.json is still written
    from anicurve import flow

    monkeypatch.setattr(flow, "_DT_MIN", 1.0)
    cfg_path = tmp_path / "u.cfg"
    cfg_path.write_text(
        "experiment = flow\nN = 32\nmode = round_normalized\ninitial = round 0.5\nt_max = 0.5\n"
    )
    assert main(["flow", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["stop_reason"] == "step_underflow"
    assert summary["stats"]["accepted"] == 0


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


def test_profile_csv(tmp_path):
    grid = anicurve.make_grid(200)
    path = tmp_path / "profile.csv"
    _write_csv(path, "rho,z", anicurve.profile_curve(anicurve.round_body(grid, 1.0)).tolist())
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "rho,z"
    assert len(lines) == grid.n + 1
    rho, z = map(float, lines[1].split(","))
    assert rho**2 + z**2 == pytest.approx(1.0, abs=1e-10)


def test_profile_csv_bytes(tmp_path):
    # the header, then rho and z at 17 significant digits, as formatting the
    # numpy values gives them
    grid = anicurve.make_grid(200)
    curve = anicurve.profile_curve(anicurve.spheroid_support(grid, 1.0, 2.0))
    path = tmp_path / "profile.csv"
    _write_csv(path, "rho,z", curve.tolist())
    want = "rho,z\n" + "".join(f"{rho:.17g},{z:.17g}\n" for rho, z in curve)
    assert path.read_bytes() == want.encode()


def test_diagnostics_csv_bytes(tmp_path):
    # one Z_<p> column per moment power in the field order of the record,
    # then one row per record at 17 significant digits; J is Z_-0.5's cell
    from anicurve.cli import _write_trajectory
    from anicurve.flow import Trajectory

    grid = anicurve.make_grid(200)
    p = anicurve.FlowParams(k=1, beta=2.0, alpha=-2.0)
    u = anicurve.translated_ball(grid, 0.3)
    rec = anicurve.diagnostics(u, p, t=0.5, tau=0.25)
    _write_trajectory(tmp_path, Trajectory(times=[0.25], snapshots=[u], diagnostics=[rec]), p)
    header, row = (tmp_path / "diagnostics.csv").read_text().splitlines()
    assert header == (
        "t,tau,R,eta,J,Z_-0.5,Z_0.5,Z_1,Z_2,umin,umax,gradmax,"
        "lambda_min,lambda_max,Q_min,Q_max"
    )
    cells = [rec.t, rec.tau, rec.R, rec.eta, rec.J, *rec.Z.values(), rec.umin, rec.umax]
    cells += [rec.gradmax, rec.lambda_min, rec.lambda_max, rec.Q_min, rec.Q_max]
    assert row == ",".join(f"{c:.17g}" for c in cells)
    assert row.split(",")[4] == row.split(",")[5]


def test_snapshot_bytes_and_read_back(tmp_path):
    # the header, then one line per node with theta and u at 17 significant
    # digits, as formatting the numpy values gives them; the file reads
    # back bit for bit
    from anicurve.cli import _read_body, _write_snapshot

    grid = anicurve.make_grid(96)
    u = anicurve.ScalarField(grid, np.random.default_rng(5).uniform(0.5, 2.0, grid.n))
    path = tmp_path / "snapshot.csv"
    _write_snapshot(path, u)
    want = "theta,u\n" + "".join(f"{th:.17g},{val:.17g}\n" for th, val in zip(grid.theta, u.values))
    assert path.read_bytes() == want.encode()
    assert np.array_equal(_read_body(grid, str(path)).values, u.values)


def test_summary_stats_bound_the_recorded_ratio(tmp_path):
    cfg = parse_config(GOOD_FLOW)
    assert run_experiment(cfg, tmp_path, seed=0) == 0
    stats = json.loads((tmp_path / "summary.json").read_text())["stats"]
    rows = (tmp_path / "diagnostics.csv").read_text().splitlines()
    column = rows[0].split(",").index("R")
    for row in rows[1:]:
        assert stats["R_min"] <= float(row.split(",")[column]) <= stats["R_max"]


def test_counterexample_experiment_stats(tmp_path):
    text = (
        "experiment = counterexample\nN = 32\nk = 1\nbeta = 1.5\nalpha = 0.5\n"
        "initial = spheroid 1 2\nsamples = 50\nt_max = 0.02\nrecord_every = 5\n"
    )
    assert run_experiment(parse_config(text), tmp_path, seed=0) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    for key in ("stats", "control_stats"):
        assert summary[key]["accepted"] == summary[key]["record_steps"][-1] > 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report == {k: v for k, v in summary.items() if k not in ("stats", "control_stats")}
    # the echo reconstructs the run, down to the counterexample keys
    echo = report["echo"]
    assert (echo["t_max"], echo["theta"], echo["samples"]) == (0.02, 2.0, 50)


def test_written_json_is_strict(tmp_path):
    # volume-normalized records carry t = nan; every JSON file the experiments
    # write must still parse without the NaN/Infinity extension
    flow = (
        "experiment = flow\nN = 32\nk = 1\nbeta = 2\nalpha = -2\n"
        "mode = volume_normalized\ninitial = spheroid 1 1.5\nt_max = 0.05\nrecord_every = 5\n"
    )
    counterexample = (
        "experiment = counterexample\nN = 32\nk = 1\nbeta = 1.5\nalpha = 0.5\n"
        "initial = spheroid 1 2\nsamples = 50\nt_max = 0.02\nrecord_every = 5\n"
    )
    for name, text in (("flow", flow), ("counterexample", counterexample)):
        assert run_experiment(parse_config(text), tmp_path / name, seed=0) == 0
    written = sorted(tmp_path.rglob("*.json"))
    assert len(written) == 3
    for path in written:
        strict_json(path.read_text())
    summary = strict_json((tmp_path / "flow" / "summary.json").read_text())
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
    # f = 1 is decided from the built anisotropy, before the output exists
    f_path = tmp_path / "f.cfg"
    f_path.write_text(base + "f = power-of-linear 0.2 5\n")
    out = tmp_path / "f"
    assert main(["barriers", "--config", str(f_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: barriers experiments require f = 1")
    assert not out.exists()
    # they run round_normalized only; any other mode was echoed but not run
    with pytest.raises(ConfigError, match="run mode = round_normalized"):
        parse_config(base + "mode = raw\n")
    parse_config(base + "mode = round_normalized\n")
    # a config without an experiment key is checked as the command line's
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("N = 32\nk = 1\nbeta = 2\nalpha = -2\ninitial = spheroid 1 2\n")
    assert main(["barriers", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert "initial = round <r>" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["round_normalized", "dual_radial"])
def test_anisotropy_of_ones_runs_as_f_equal_one(tmp_path, mode):
    # f = 1 was decided from the spec text, so these flows were refused with
    # a table of ones or with power-of-linear 0 5, both of which build f = 1
    ones = tmp_path / "ones.csv"
    ones.write_text("1\n" * 32)
    base = (
        "experiment = flow\nN = 32\nk = 1\nbeta = 2\nalpha = -2\nt_max = 0.01\n"
        f"initial = translate 0.2\nmode = {mode}\n"
    )
    trees = []
    for name, f in (("one", ""), ("table", f"f = table {ones}\n"), ("linear", "f = power-of-linear 0 5\n")):
        assert run_experiment(parse_config(base + f), tmp_path / name, seed=0) == 0
        tree = _tree(tmp_path / name)
        summary = strict_json(tree.pop("summary.json"))
        summary.pop("echo")
        trees.append((tree, summary))
    assert trees[1] == trees[0] and trees[2] == trees[0]


def test_barriers_need_the_subcritical_regime(tmp_path, capsys):
    # the exact barriers need q < 0; on the critical line the run printed a
    # message without the "error:" prefix, and a sweep over alpha = -2, -1 ran
    # its first variant to the end before the second failed
    base = "experiment = barriers\nN = 32\nk = 1\nbeta = 2\ninitial = round 0.5\n"
    for alpha in ("-1", "0.5"):
        with pytest.raises(ConfigError, match=r"barriers experiments need alpha < 1 - k\*beta"):
            parse_config(base + f"alpha = {alpha}\n")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(base + "alpha = -1\n")
    assert main(["barriers", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: barriers experiments need")
    cfg_path.write_text(base + "alpha = -2\nt_max = 0.1\n")
    out = tmp_path / "sweep"
    assert main(["barriers", "--config", str(cfg_path), "--out", str(out), "--sweep", "alpha=-2,-1"]) == 1
    assert capsys.readouterr().err.startswith("error: barriers experiments need")
    assert not out.exists()


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
        "initial = round 0.5\nt_max = 0.1\nR_blowup = 1.5\n"
    )
    assert run_experiment(parse_config(text), tmp_path, seed=0) == 0
    # only tol_conv is overridden: the comparison runs to t_max
    assert [(s.t_max, s.R_blowup, s.tol_conv) for s in stops] == [(0.1, 1.5, 0.0)]
    # the echo names the mode that ran, not the config default
    echo = json.loads((tmp_path / "summary.json").read_text())["echo"]
    assert echo["mode"] == "round_normalized"


def test_flow_refuses_inadmissible_anisotropy(tmp_path):
    # a strongly oscillating anisotropy violates the convergence hypothesis
    text = (
        "experiment = flow\nN = 48\nk = 1\nbeta = 2\nalpha = -2\n"
        "mode = volume_normalized\nf = power-of-linear -0.9 12\nt_max = 0.1\n"
    )
    with pytest.raises(ConfigError, match="admissibility condition"):
        run_experiment(parse_config(text), tmp_path / "o", seed=0)
    assert not (tmp_path / "o").exists()


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


def test_every_experiment_has_one_driver():
    assert set(_DISPATCH) == set(EXPERIMENTS)


def test_every_spec_kind_has_one_builder():
    from anicurve.cli import _BUILDERS
    from anicurve.config import _SPECS

    kinds = {key: sorted(table) for key, (_, table) in _SPECS.items()}
    assert kinds == {key: sorted(table) for key, table in _BUILDERS.items()}


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
    "initial = spheroid 1 2\nsamples = 50\nt_max = 0.02\nrecord_every = 5\n"
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
