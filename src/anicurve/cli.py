"""Command-line entry point and experiment drivers.

Usage:
    anicurve <experiment> --config <path> [--out <dir>] [--seed <u64>]
        [--sweep <key>=<v1>,<v2>,...]
    python -m anicurve <experiment> --config <path> [--out <dir>] [--seed <u64>]
        [--sweep <key>=<v1>,<v2>,...]

Every run writes a parameter echo into summary.json sufficient to
reconstruct it; numbers are serialized with 17 significant digits and a "."
decimal separator, so identical configs and seeds replay bit-identically.
"""

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .sphere import Grid, ScalarField, make_field, make_grid
from .body import (
    normalize_body,
    profile_curve,
    round_body,
    spheroid_support,
    translated_ball,
    write_profile_csv,
)
from .functionals import (
    Anisotropy,
    FlowParams,
    _require_admissible,
    anisotropy_condition_margin,
    constant_anisotropy,
    diagnostics_csv_header,
    diagnostics_csv_row,
    moment_powers,
    power_of_linear_anisotropy,
    tabulated_anisotropy,
)
from .flow import StoppingConfig, Trajectory, barrier, run
from .soliton import SolitonProblem, solve_soliton, uniqueness_spread
from .counterexample import SubsolutionParams, blowup_experiment, verify_case_bounds
from .config import (
    _SCALARS, _TYPES, EXPERIMENTS, ConfigError, ExperimentConfig, _parse_scalar, _utf8_text,
    _validate, load_config,
)

__all__ = ["main", "run_experiment"]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


_SNAPSHOT_HEADER = "theta,u"


def _read_table(grid: Grid, path: str) -> Anisotropy:
    with _utf8_text(path):
        values = np.loadtxt(path, delimiter=",", ndmin=1, encoding="utf-8")
    return tabulated_anisotropy(grid, values)


def _read_body(grid: Grid, path: str) -> ScalarField:
    """A body from a file of one column of node values or of the theta,u
    columns of a snapshot that _write_snapshot wrote."""
    with _utf8_text(path):
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    if lines[:1] == [_SNAPSHOT_HEADER]:
        lines = lines[1:]
    data = np.loadtxt(lines, delimiter=",", ndmin=1)
    return make_field(grid, data[:, 1] if data.ndim == 2 else data)


# the builder of each kind of config.parse_config's `f` and `initial` specs,
# called with the grid and the spec's arguments
_BUILDERS = {
    "f": {
        "constant": constant_anisotropy,
        "power-of-linear": power_of_linear_anisotropy,
        "table": _read_table,
    },
    "initial": {
        "round": round_body,
        "translate": translated_ball,
        "spheroid": spheroid_support,
        "file": _read_body,
    },
}


def _build(cfg: ExperimentConfig, key: str, grid: Grid):
    kind, *args = getattr(cfg, key)
    return _BUILDERS[key][kind](grid, *args)


def _stopping(cfg: ExperimentConfig) -> StoppingConfig:
    """The stopping rules the config sets."""
    return StoppingConfig(
        t_max=cfg.t_max,
        tol_conv=cfg.tol_conv,
        R_blowup=cfg.R_blowup,
        record_every=cfg.record_every,
    )


def _echo(cfg: ExperimentConfig, seed: int, p: FlowParams) -> dict:
    # every config key but the output directory
    echo = {key: getattr(cfg, key) for key in _TYPES if key != "out"}
    echo.update(seed=seed, derived={"gamma": p.gamma, "q": p.q, "regime": p.regime})
    return echo


def _json_safe(obj):
    """obj with every non-finite float replaced by None: JSON has no NaN or inf."""
    if isinstance(obj, float):
        return obj if np.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _json_safe(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(val) for val in obj]
    return obj


def _write_json(path: Path, payload: dict) -> None:
    """Strict JSON: a non-finite value is written as null."""
    text = json.dumps(_json_safe(payload), indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def _write_snapshot(path: Path, u: ScalarField) -> None:
    """The theta,u columns, each value as _fmt writes it, in one write."""
    rows = [f"{th:.17g},{val:.17g}\n" for th, val in zip(u.grid.theta.tolist(), u.values.tolist())]
    path.write_text(f"{_SNAPSHOT_HEADER}\n{''.join(rows)}", encoding="utf-8")


def _record_dict(rec) -> dict:
    d = asdict(rec)
    d["Z"] = {f"{pw:g}": val for pw, val in rec.Z.items()}
    return d


def _write_trajectory(out: Path, traj: Trajectory, p: FlowParams, prefix: str = "") -> None:
    powers = moment_powers(p.beta)
    with open(out / f"{prefix}diagnostics.csv", "w", encoding="utf-8") as fh:
        fh.write(diagnostics_csv_header(powers) + "\n")
        for rec in traj.diagnostics:
            fh.write(diagnostics_csv_row(rec) + "\n")
    # cap the snapshot files; the diagnostics carry the full time series
    n = len(traj.snapshots)
    take = sorted(set(np.linspace(0, n - 1, min(n, 33)).astype(int)))
    for idx_out, idx in enumerate(take):
        _write_snapshot(out / f"{prefix}snapshot_{idx_out}.csv", traj.snapshots[idx])


def _flow_experiment(
    cfg: ExperimentConfig, out: Path, seed: int, p: FlowParams, u0: ScalarField
) -> int:
    if cfg.mode == "volume_normalized":
        u0 = normalize_body(u0, cfg.k)
    traj = run(u0, p, cfg.mode, _stopping(cfg))
    _write_trajectory(out, traj, p)
    if cfg.mode != "dual_radial":
        write_profile_csv(out / "profile_final.csv", profile_curve(traj.final()))
    usigma = [v for v in traj.usigma if np.isfinite(v)]
    summary = {
        "stop_reason": traj.stop_reason,
        "final": _record_dict(traj.diagnostics[-1]),
        "records": len(traj.diagnostics),
        "usigma_initial": usigma[0] if usigma else None,
        "usigma_final": usigma[-1] if usigma else None,
        "usigma_max_drift": max(abs(v - usigma[0]) for v in usigma) if usigma else None,
        "stats": asdict(traj.stats),
        "echo": _echo(cfg, seed, p),
    }
    _write_json(out / "summary.json", summary)
    expected_to_converge = cfg.mode in ("round_normalized", "volume_normalized")
    if expected_to_converge and traj.stop_reason in ("convexity_lost", "step_underflow"):
        return 2
    return 0


def _soliton_experiment(
    cfg: ExperimentConfig, out: Path, seed: int, p: FlowParams, u0: ScalarField
) -> int:
    grid = u0.grid
    # on the critical line no round radius is singled out: start from `initial`
    prob = SolitonProblem(p, cfg.c, u0 if p.q == 0 else None)
    res = solve_soliton(prob, grid)
    _write_snapshot(out / "snapshot_0.csv", res.u)
    payload = {
        "c": cfg.c,
        "residual_sup": res.residual_sup,
        "iterations": res.iterations,
        "residual_history": res.residual_history,
        "damping": res.damping,
        "residual_evaluations": res.residual_evaluations,
        "coarse_iterations": res.coarse_iterations,
        "coarse_residual_evaluations": res.coarse_residual_evaluations,
        "noise_floor": res.noise_floor,
        "umin": float(res.u.values.min()),
        "umax": float(res.u.values.max()),
        "echo": _echo(cfg, seed, p),
    }
    if cfg.trials >= 2 and p.q < 0:
        payload["uniqueness_spread"] = uniqueness_spread(prob, grid, cfg.trials, seed)
    _write_json(out / "summary.json", payload)
    return 0


def _counterexample_experiment(
    cfg: ExperimentConfig,
    out: Path,
    seed: int,
    p: FlowParams,
    u0: ScalarField,
    runs: dict | None = None,
) -> int:
    sp = SubsolutionParams.from_exponents(cfg.alpha, cfg.k, cfg.beta, cfg.theta)
    bounds = verify_case_bounds(sp, p, samples=cfg.samples, seed=seed)
    rep = blowup_experiment(p, u0, _stopping(cfg), runs)
    _write_trajectory(out, rep.trajectory, p)
    _write_trajectory(out, rep.control_trajectory, p, prefix="control_")
    report = {
        "case_bounds": bounds,
        "verdict": rep.verdict,
        "R_initial": rep.r_initial,
        "R_final": rep.r_final,
        "R_increasing": rep.r_increasing,
        "stop_reason": rep.stop_reason,
        "control_R_decreasing": rep.control_r_decreasing,
        "echo": _echo(cfg, seed, p),
    }
    _write_json(out / "report.json", report)
    stats = asdict(rep.trajectory.stats)
    control_stats = asdict(rep.control_trajectory.stats)
    _write_json(out / "summary.json", {**report, "stats": stats, "control_stats": control_stats})
    return 0


def _barriers_experiment(
    cfg: ExperimentConfig, out: Path, seed: int, p: FlowParams, u0: ScalarField
) -> int:
    # config._validate admits only q < 0, `initial = round <r>` and this mode,
    # and run_experiment only f = 1
    cfg = replace(cfg, mode="round_normalized")
    a = cfg.initial[1]
    # the comparison runs to t_max, so convergence does not stop it
    traj = run(u0, p, cfg.mode, replace(_stopping(cfg), tol_conv=0.0))
    worst = 0.0
    with open(out / "barrier_comparison.csv", "w", encoding="utf-8") as fh:
        fh.write("tau,u_numeric,u_exact,abs_err\n")
        for tau, snap in zip(traj.times, traj.snapshots):
            exact = barrier(a, tau, p)
            err = float(np.max(np.abs(snap.values - exact)))
            worst = max(worst, err)
            fh.write(f"{_fmt(tau)},{_fmt(float(snap.values[0]))},{_fmt(exact)},{_fmt(err)}\n")
    _write_json(
        out / "summary.json",
        {"max_abs_error": worst, "records": len(traj.times), "echo": _echo(cfg, seed, p)},
    )
    print(f"barrier comparison: max |u - exact| = {worst:.3e}")
    return 0


_DISPATCH = {
    "flow": _flow_experiment,
    "soliton": _soliton_experiment,
    "counterexample": _counterexample_experiment,
    "barriers": _barriers_experiment,
}


def run_experiment(
    cfg: ExperimentConfig, out_dir=None, seed: int = 0, runs: dict | None = None
) -> int:
    """Run the experiment of a checked config; returns the exit status.

    The grid, the flow parameters and the initial body are built, every
    input file read, the anisotropy of a barriers run or of a
    round_normalized or dual_radial flow held to f = 1, and a
    volume-normalized k = 1 flow's anisotropy held to the admissibility
    condition (ConfigError otherwise), before the output directory is
    created, so a run that fails on its input leaves no directory behind;
    nor does a driver that raises before it writes a file, since the
    directories this call made are removed while they are empty.
    runs is the flow-run dict of counterexample.blowup_experiment, shared
    by the variants of one sweep; the other experiments ignore it.
    """
    grid = make_grid(cfg.N)
    p = FlowParams(k=cfg.k, beta=cfg.beta, alpha=cfg.alpha, f=_build(cfg, "f", grid))
    u0 = _build(cfg, "initial", grid)
    # decided from the built anisotropy, so a table of ones is f = 1 too
    if p.f is not None:
        if cfg.experiment == "barriers":
            raise ConfigError("barriers experiments require f = 1")
        if cfg.experiment == "flow" and cfg.mode in ("round_normalized", "dual_radial"):
            raise ConfigError(f"{cfg.mode} flow requires f = 1")
    volume_normalized = cfg.experiment == "flow" and cfg.mode == "volume_normalized"
    if volume_normalized and cfg.k == 1 and p.f is not None:
        _require_admissible(anisotropy_condition_margin(p.f, p), ConfigError)
    out = Path(out_dir if out_dir is not None else cfg.out)
    made = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
    out.mkdir(parents=True, exist_ok=True)
    try:
        if cfg.experiment == "counterexample":
            return _counterexample_experiment(cfg, out, seed, p, u0, runs)
        return _DISPATCH[cfg.experiment](cfg, out, seed, p, u0)
    except BaseException:
        for d in made:
            if any(d.iterdir()):
                break
            d.rmdir()
        raise


def _run_sweep(cfg: ExperimentConfig, sweep: str, out_dir, seed: int) -> int:
    """Run one variant per value of a swept scalar key, one subdirectory each.

    The variants run in sequence: the work holds the GIL, so threads only
    add overhead.  Counterexample variants share one dict of flow runs,
    which lives as long as this call: variants whose supercritical or
    control run has the same inputs run it once (both runs in a theta or
    samples sweep, the control in an alpha sweep), and each writes the files
    a standalone run would.
    """
    key, _, values = sweep.partition("=")
    key = key.strip()
    if key not in _SCALARS or not values:
        raise ConfigError(f"sweep needs '<scalar key>=v1,v2,...', got {sweep!r}")
    variants = []
    for raw_value in values.split(","):
        variant = replace(cfg, raw=dict(cfg.raw))
        setattr(variant, key, _parse_scalar(key, raw_value.strip(), "--sweep"))
        _validate(variant)
        variants.append(variant)
    base = Path(out_dir if out_dir is not None else cfg.out)
    runs = {}
    codes = [
        run_experiment(variant, base / f"sweep_{i}", seed, runs)
        for i, variant in enumerate(variants)
    ]
    return max(codes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="anicurve",
        description="Expanding curvature flows of convex bodies: simulate and verify",
    )
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    parser.add_argument("--config", required=True, help="key-value config file")
    parser.add_argument("--out", default=None, help="output directory (default: from config)")
    parser.add_argument("--seed", type=int, default=0, help="random seed recorded in the echo")
    parser.add_argument(
        "--sweep",
        default=None,
        metavar="KEY=V1,V2,...",
        help="run one independent variant per value, in out/sweep_<i>/",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        print(f"error: --seed must be a non-negative integer, got {args.seed}", file=sys.stderr)
        return 1

    try:
        cfg = load_config(args.config)
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if "experiment" in cfg.raw and cfg.experiment != args.experiment:
        print(
            f"error: config declares experiment {cfg.experiment!r}, "
            f"command line says {args.experiment!r}",
            file=sys.stderr,
        )
        return 1
    cfg.experiment = args.experiment
    try:
        # a config without an experiment key was checked as a flow
        _validate(cfg)
        if args.sweep:
            return _run_sweep(cfg, args.sweep, args.out, args.seed)
        return run_experiment(cfg, args.out, args.seed)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
