from pathlib import Path

import pytest
from conftest import strict_json

from anicurve.cli import load_config, main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIGS = sorted(CONFIG_DIR.glob("*.cfg"))


def _run(name, out, *argv):
    """Run configs/<name>.cfg through the command line into out; every JSON
    file it writes must parse as strict JSON (no NaN or Infinity)."""
    path = CONFIG_DIR / f"{name}.cfg"
    experiment = load_config(path).experiment
    assert main([experiment, "--config", str(path), "--out", str(out), *argv]) == 0
    for written in out.rglob("*.json"):
        strict_json(written.read_text())
    return out


def _read(path):
    return strict_json(path.read_text())


def _no_blowup_with_decreasing_control(out):
    report = _read(out / "report.json")
    assert report["verdict"] == "no blowup"
    assert report["control_R_decreasing"] is True


def _converged(out):
    assert _read(out / "summary.json")["stop_reason"] == "converged"


def _tracks_the_round_barriers(out):
    summary = _read(out / "summary.json")
    assert summary["max_abs_error"] < 1e-7
    assert summary["echo"]["mode"] == "round_normalized"


# what each shipped config's run must show beyond exit status 0 and strict
# JSON: the normalized flow converges to the soliton, the supercritical run
# finds no blowup beside a contracting critical-line control, and the
# integrator tracks the exact round barriers in the mode they echo
CHECKS = {
    "barriers": _tracks_the_round_barriers,
    "counterexample": _no_blowup_with_decreasing_control,
    "flow_soliton": _converged,
}


def test_every_check_names_a_shipped_config():
    assert set(CHECKS) <= {path.stem for path in CONFIGS}


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.stem)
def test_shipped_config_runs(tmp_path, path):
    out = _run(path.stem, tmp_path / "out")
    if path.stem in CHECKS:
        CHECKS[path.stem](out)


@pytest.mark.parametrize(
    "sweep, shared",
    [
        ("alpha=0.5,0.6", ["control_diagnostics.csv"]),
        ("samples=1000,1200", ["diagnostics.csv", "control_diagnostics.csv"]),
        ("theta=2,3", ["diagnostics.csv", "control_diagnostics.csv"]),
    ],
    ids=["alpha", "samples", "theta"],
)
def test_counterexample_sweep_variants_share_their_runs(tmp_path, sweep, shared):
    # the control runs at alpha' = 1 - k*beta whatever alpha is, and neither
    # flow run reads samples or theta (the cap exponent only enters
    # verify_case_bounds, which the theta sweep runs at a second exponent):
    # the variants write the same bytes of each shared run's diagnostics
    out = _run("counterexample", tmp_path / "sweep", "--sweep", sweep)
    for variant in ("sweep_0", "sweep_1"):
        _no_blowup_with_decreasing_control(out / variant)
    for name in shared:
        assert (out / "sweep_0" / name).read_bytes() == (out / "sweep_1" / name).read_bytes()


def test_soliton_grid_sweep_converges_by_the_tolerance(tmp_path):
    # every grid converges with a small uniqueness spread and ends by the
    # tolerance, not under the noise floor; N = 400 and 800 start Newton
    # from a coarse-grid solve and then take one iteration on their own grid
    out = _run("soliton", tmp_path / "sweep", "--sweep", "N=200,400,800")
    for i, n in enumerate((200, 400, 800)):
        summary = _read(out / f"sweep_{i}" / "summary.json")
        assert summary["residual_sup"] < 1e-10
        assert summary["uniqueness_spread"] < 1e-6
        assert summary["noise_floor"] is None
        assert (summary["coarse_residual_evaluations"] > 0) == (n >= 400)
        if n >= 400:
            assert summary["iterations"] == 1
