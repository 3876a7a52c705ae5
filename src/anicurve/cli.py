"""Command-line entry point and experiment drivers.

Usage:
    anicurve <experiment> --config <path> [--out <dir>] [--seed <u64>]
    python -m anicurve <experiment> --config <path> [--out <dir>] [--seed <u64>]

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

from .sphere import Grid, ScalarField, integrate, make_field, make_grid
from .body import (
    convexity_margin,
    curvature_matrix,
    mixed_volume,
    normalize_body,
    profile_curve,
    round_body,
    sigma_k,
    spheroid_support,
    translated_ball,
    write_profile_csv,
)
from .functionals import (
    Anisotropy,
    FlowParams,
    alexandrov_fenchel_margin,
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
from .config import _SCALARS, ConfigError, ExperimentConfig, _validate, load_config

__all__ = ["main", "run_experiment"]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _build_anisotropy(cfg: ExperimentConfig, grid: Grid) -> Anisotropy | None:
    kind = cfg.f[0]
    if kind == "constant":
        if cfg.f[1] == 1.0:
            return None
        return constant_anisotropy(grid, cfg.f[1])
    if kind == "power-of-linear":
        return power_of_linear_anisotropy(grid, cfg.f[1], cfg.f[2])
    values = np.loadtxt(cfg.f[1], delimiter=",")
    return tabulated_anisotropy(grid, values)


def _build_params(cfg: ExperimentConfig) -> tuple[Grid, FlowParams]:
    grid = make_grid(cfg.N)
    f = _build_anisotropy(cfg, grid)
    return grid, FlowParams(k=cfg.k, beta=cfg.beta, alpha=cfg.alpha, f=f)


def _build_initial(cfg: ExperimentConfig, grid: Grid) -> ScalarField:
    kind = cfg.initial[0]
    if kind == "round":
        return round_body(grid, cfg.initial[1])
    if kind == "translate":
        return translated_ball(grid, cfg.initial[1])
    if kind == "spheroid":
        return spheroid_support(grid, cfg.initial[1], cfg.initial[2])
    data = np.loadtxt(cfg.initial[1], delimiter=",")
    values = data[:, 1] if data.ndim == 2 else data
    return make_field(grid, values)


def _stopping(cfg: ExperimentConfig) -> StoppingConfig:
    """The stopping rules the config sets."""
    return StoppingConfig(
        t_max=cfg.t_max,
        tol_conv=cfg.tol_conv,
        R_blowup=cfg.R_blowup,
        dt_min=cfg.dt_min,
        record_every=cfg.record_every,
    )


def _echo(cfg: ExperimentConfig, seed: int, p: FlowParams | None) -> dict:
    echo = {key: getattr(cfg, key) for key in _SCALARS}
    echo.update(
        experiment=cfg.experiment,
        f=list(cfg.f),
        mode=cfg.mode,
        initial=list(cfg.initial),
        seed=seed,
    )
    if p is not None:
        echo["derived"] = {"gamma": p.gamma, "q": p.q, "regime": p.regime}
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("theta,u\n")
        for th, val in zip(u.grid.theta, u.values):
            fh.write(f"{_fmt(th)},{_fmt(val)}\n")


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


def _flow_experiment(cfg: ExperimentConfig, out: Path, seed: int) -> int:
    grid, p = _build_params(cfg)
    if cfg.mode == "volume_normalized" and p.f is not None and cfg.k == 1:
        margin = anisotropy_condition_margin(p.f, p)
        if margin <= 0:
            print(
                "refusing to run: the anisotropy fails the admissibility condition "
                "for k < 2 (the curvature matrix of f^(1/(1+k*beta-alpha)) must be "
                f"positive definite; its minimum entry is {margin:.3e})",
                file=sys.stderr,
            )
            return 1
    u0 = _build_initial(cfg, grid)
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


def _soliton_experiment(cfg: ExperimentConfig, out: Path, seed: int) -> int:
    grid, p = _build_params(cfg)
    # on the critical line no round radius is singled out: start from `initial`
    prob = SolitonProblem(p, cfg.c, _build_initial(cfg, grid) if p.q == 0 else None)
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
    cfg: ExperimentConfig, out: Path, seed: int, runs: dict | None = None
) -> int:
    grid, p = _build_params(cfg)
    sp = SubsolutionParams.from_exponents(cfg.alpha, cfg.k, cfg.beta, cfg.theta)
    bounds = verify_case_bounds(sp, p, samples=cfg.samples, seed=seed)
    u0 = _build_initial(cfg, grid)
    # blowup_experiment runs to tau = horizon in place of t_max
    rep = blowup_experiment(p, u0, cfg.horizon, _stopping(cfg), runs)
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


def _barriers_experiment(cfg: ExperimentConfig, out: Path, seed: int) -> int:
    grid = make_grid(cfg.N)
    p = FlowParams(k=cfg.k, beta=cfg.beta, alpha=cfg.alpha)
    if p.q >= 0:
        print("barriers need the subcritical regime (alpha + k*beta - 1 < 0)", file=sys.stderr)
        return 1
    # config._validate admits only `initial = round <r>`, f = 1 and this mode
    cfg = replace(cfg, mode="round_normalized")
    a = cfg.initial[1]
    u0 = round_body(grid, a)
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


def _validate_experiment(cfg: ExperimentConfig, out: Path, seed: int) -> int:
    grid = make_grid(cfg.N)
    rng = np.random.default_rng(seed)
    checks: list[tuple[str, bool, str]] = []

    def check(name, ok, detail=""):
        checks.append((name, bool(ok), detail))
        print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")

    area = integrate(make_field(grid, 1.0))
    check("sphere area", abs(area - 4 * np.pi) < 1e-7, f"err={area - 4 * np.pi:.2e}")

    W = curvature_matrix(translated_ball(grid, 0.3))
    err = max(np.max(np.abs(W.b11.values - 1)), np.max(np.abs(W.b22.values - 1)))
    check("translate curvature", err < 1e-6, f"err={err:.2e}")

    u = spheroid_support(grid, 1.0, 2.0)
    s2 = sigma_k(curvature_matrix(u), 2).values
    oracle = 4.0 / u.values**4
    rel = np.max(np.abs(s2 - oracle) / oracle)
    check("spheroid sigma_2", rel < 1e-4, f"rel={rel:.2e}")

    ok = True
    worst = 0.0
    for _ in range(20):
        vals = np.ones(grid.n)
        for m in range(1, 4):
            vals += rng.uniform(-0.05, 0.05) * np.cos(m * grid.theta)
        v = ScalarField(grid, vals)
        vals2 = np.ones(grid.n) * float(np.exp(rng.uniform(-0.3, 0.3)))
        for m in range(1, 4):
            vals2 += rng.uniform(-0.05, 0.05) * np.cos(m * grid.theta)
        w = ScalarField(grid, vals2)
        if convexity_margin(v) <= 0 or convexity_margin(w) <= 0:
            continue
        scale = max(vals.max(), vals2.max())
        for k in (1, 2):
            m_af = alexandrov_fenchel_margin(v, w, k)
            worst = min(worst, m_af / scale**4)
            ok = ok and m_af >= -1e-8 * scale**4
    check("mixed-volume inequality", ok, f"worst margin/scale^4={worst:.2e}")

    p = FlowParams(k=1, beta=2.0, alpha=-2.0)
    traj = run(
        round_body(grid, 0.5),
        p,
        "round_normalized",
        StoppingConfig(t_max=1.0, tol_conv=0.0, record_every=100),
    )
    err = max(
        float(np.max(np.abs(s.values - barrier(0.5, tau, p))))
        for tau, s in zip(traj.times, traj.snapshots)
    )
    check("round barrier", err < 1e-6, f"err={err:.2e}")

    nrm = normalize_body(spheroid_support(grid, 1.0, 1.4), 1)
    vol = mixed_volume(nrm, [nrm], 1)
    check("normalization", abs(vol - 4 * np.pi) < 1e-6, f"err={vol - 4 * np.pi:.2e}")

    _write_json(
        out / "summary.json",
        {
            "checks": [{"name": n, "pass": okk, "detail": d} for n, okk, d in checks],
            "echo": _echo(cfg, seed, None),
        },
    )
    return 0 if all(okk for _, okk, _ in checks) else 1


_DISPATCH = {
    "flow": _flow_experiment,
    "soliton": _soliton_experiment,
    "counterexample": _counterexample_experiment,
    "barriers": _barriers_experiment,
    "validate": _validate_experiment,
}


def run_experiment(
    cfg: ExperimentConfig, out_dir=None, seed: int = 0, runs: dict | None = None
) -> int:
    """Run the experiment of a validated config; returns the exit status.

    runs is the flow-run dict of counterexample.blowup_experiment, shared
    by the variants of one sweep; the other experiments ignore it.
    """
    out = Path(out_dir if out_dir is not None else cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.experiment == "counterexample":
        return _counterexample_experiment(cfg, out, seed, runs)
    return _DISPATCH[cfg.experiment](cfg, out, seed)


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
        setattr(variant, key, _SCALARS[key](raw_value.strip()))
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
    parser.add_argument("experiment", choices=sorted(_DISPATCH))
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
        # a config without an experiment key was validated as a flow
        _validate(cfg)
        if args.sweep:
            return _run_sweep(cfg, args.sweep, args.out, args.seed)
        return run_experiment(cfg, args.out, args.seed)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
