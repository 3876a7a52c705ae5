"""Acceptance battery.

One test per criterion; each prints a PASS/FAIL line with the measured
numbers before asserting, so a red criterion still reports its evidence.

Criteria 8 and 9 check the paper's closing existence claim for
alpha > 1 - k*beta:

  * criterion 8 runs the supercritical A/B ratio experiment from the
    paper's counterexample body, a convex body whose boundary passes near
    the origin through a sharp cap (capped_profile_body, built from the
    flow's own exponents), and asks for a growing ratio R = max u / min u
    while the critical control contracts it.
  * criterion 9 checks the cap profile's C0/C1 matching, a positive lower
    constant c0, and that the time derivative obeys
    |psi_t| <= C |t|^(theta-1) with the closed-form constant: the exact
    ratio is theta * (1 + (1 - mu)|t|^(theta*mu)) on the outer branch, so the
    sampled maximum lies between theta and that value at the largest |t|.
"""

import time

import numpy as np
import pytest

import anicurve as ac
from anicurve.soliton import SolitonProblem, solve_soliton, uniqueness_spread
from anicurve.counterexample import (
    SubsolutionParams,
    _branch_slopes,
    _branch_values,
    blowup_experiment,
    capped_profile_body,
    verify_case_bounds,
)
from conftest import random_convex_body


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nacceptance {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def _recenter(u: ac.ScalarField) -> np.ndarray:
    g = u.grid
    c1 = float(g.weights @ (u.values * g.cos)) / (4 * np.pi / 3)
    return u.values - c1 * g.cos


@pytest.fixture(scope="module")
def grid():
    return ac.make_grid(200)


@pytest.fixture(scope="module")
def nef2_runs(grid):
    """The two soliton-convergence runs shared by criteria 4 and 5."""
    cases = {}
    # case A: admissible power-of-linear anisotropy, k = 1
    f_a = ac.power_of_linear_anisotropy(grid, 0.2, 5.0)  # exponent 1+k*beta-alpha
    p_a = ac.FlowParams(k=1, beta=2.0, alpha=-2.0, f=f_a)
    # case B: arbitrary positive anisotropy, k = 2
    f_b = ac.tabulated_anisotropy(grid, np.maximum(1.0 + 0.3 * np.cos(2 * grid.theta), 1e-6))
    p_b = ac.FlowParams(k=2, beta=1.0, alpha=-2.0, f=f_b)
    for label, p in (("A", p_a), ("B", p_b)):
        u0 = ac.normalize_body(ac.spheroid_support(grid, 1.0, 1.5), p.k)
        start = time.perf_counter()
        traj = ac.run(
            u0,
            p,
            "volume_normalized",
            ac.StoppingConfig(t_max=30.0, tol_conv=1e-7, record_every=200),
        )
        cases[label] = (p, traj, time.perf_counter() - start)
    return cases


def test_criterion_01_curvature_exactness(grid):
    start = time.perf_counter()
    W = ac.curvature_matrix(ac.translated_ball(grid, 0.3))
    err11 = float(np.max(np.abs(W.b11.values - 1.0)))
    err22 = float(np.max(np.abs(W.b22.values - 1.0)))
    elapsed = time.perf_counter() - start
    ok = err11 < 1e-6 and err22 < 1e-6 and elapsed < 1.0
    _report(1, ok, f"max|b11-1|={err11:.2e} max|b22-1|={err22:.2e} {elapsed:.2f}s")
    assert err11 < 1e-6 and err22 < 1e-6
    assert elapsed < 1.0


def test_criterion_02_barrier_reproduction(grid):
    p = ac.FlowParams(k=1, beta=1.0, alpha=-2.0)
    start = time.perf_counter()
    traj = ac.run(
        ac.round_body(grid, 0.5),
        p,
        "round_normalized",
        ac.StoppingConfig(t_max=2.0, tol_conv=0.0, record_every=200),
    )
    worst = max(
        float(np.max(np.abs(s.values - ac.barrier(0.5, tau, p))))
        for tau, s in zip(traj.times, traj.snapshots)
    )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 30.0
    _report(2, ok, f"sup error={worst:.2e} over tau in [0,2], {elapsed:.1f}s")
    assert worst < 1e-6
    assert elapsed < 30.0


@pytest.mark.parametrize("k,beta", [(1, 2.0), (2, 1.0)])
@pytest.mark.parametrize("initial", ["translate", "spheroid"])
def test_criterion_03_round_convergence(grid, k, beta, initial):
    p = ac.FlowParams(k=k, beta=beta, alpha=-2.0)
    if initial == "translate":
        u0 = ac.translated_ball(grid, 0.3)
    else:
        u0 = ac.spheroid_support(grid, 1.0, 1.5)
    start = time.perf_counter()
    traj = ac.run(
        u0,
        p,
        "round_normalized",
        ac.StoppingConfig(t_max=60.0, tol_conv=1e-5, record_every=100),
    )
    elapsed = time.perf_counter() - start

    # the run reaches the target accuracy; the gradient-decay fit uses the
    # records up to that point, where the derivative is still resolved
    # (recentring is applied only to the final measurement: applied along the
    # trajectory it would null the initial translate exactly)
    devs_raw = [float(np.max(np.abs(s.values - 1.0))) for s in traj.snapshots]
    reached = [i for i, d in enumerate(devs_raw) if d < 1e-4]
    final_vals = _recenter(traj.final()) if initial == "translate" else traj.final().values
    final_dev = float(np.max(np.abs(final_vals - 1.0)))
    taus = np.array(traj.times)
    floor = np.finfo(float).eps / grid.h
    grads = np.maximum([r.gradmax for r in traj.diagnostics], floor)
    cut = max(reached[0] if reached else len(devs_raw) - 1, 4)
    half = (taus[: cut + 1]) >= taus[cut] / 2.0
    slope = float(np.polyfit(taus[: cut + 1][half], np.log(grads[: cut + 1][half]), 1)[0])

    ok = bool(reached) and final_dev < 1e-4 and slope < 0 and elapsed < 300.0
    _report(
        3,
        ok,
        f"(k,beta)=({k},{beta}) {initial}: |u-1|={final_dev:.2e} "
        f"grad slope={slope:.2f} {elapsed:.0f}s",
    )
    assert reached and final_dev < 1e-4
    assert slope < 0
    assert elapsed < 300.0


def test_criterion_04_monotone_functionals(nef2_runs):
    all_ok = True
    details = []
    for label, (p, traj, _) in nef2_runs.items():
        etas = np.array([r.eta for r in traj.diagnostics])
        Js = np.array([r.J for r in traj.diagnostics])
        slack = 1e-10 * 200  # per-step slack times steps per record
        eta_mono = bool(np.all(np.diff(etas) <= slack * np.abs(etas[:-1])))
        j_mono = bool(np.all(np.diff(Js) <= slack * np.abs(Js[:-1])))

        def relvar(snapshot):
            rho = ac.speed_factor(snapshot, p).values
            return float((rho.max() - rho.min()) / rho.mean())

        # stationarity of J happens exactly when the speed factor is constant
        early_moving = relvar(traj.snapshots[0]) > 1e-6 and (Js[0] - Js[1]) > slack * abs(Js[0])
        final_flat = relvar(traj.snapshots[-1]) < 1e-6 and abs(Js[-1] - Js[-2]) <= slack * abs(
            Js[-1]
        )
        ok = eta_mono and j_mono and early_moving and final_flat
        all_ok = all_ok and ok
        details.append(
            f"{label}: eta mono={eta_mono} J mono={j_mono} "
            f"moving={early_moving} stationary={final_flat}"
        )
    _report(4, all_ok, "; ".join(details))
    assert all_ok


def test_criterion_05_soliton_convergence(grid, nef2_runs):
    all_ok = True
    details = []
    for label, (p, traj, elapsed) in nef2_runs.items():
        converged = traj.stop_reason == "converged"
        rho = ac.speed_factor(traj.final(), p).values
        relvar = float((rho.max() - rho.min()) / rho.mean())
        sol = solve_soliton(SolitonProblem(p, 1.0), grid)
        dist = float(
            np.max(
                np.abs(
                    ac.normalize_body(traj.final(), p.k).values
                    - ac.normalize_body(sol.u, p.k).values
                )
            )
        )
        ok = converged and relvar < 1e-3 and dist < 1e-3 and elapsed < 600.0
        all_ok = all_ok and ok
        details.append(f"{label}: relvar={relvar:.1e} |flow-newton|={dist:.1e} {elapsed:.0f}s")
    _report(5, all_ok, "; ".join(details))
    assert all_ok


def test_criterion_06_uniqueness(grid):
    f = ac.power_of_linear_anisotropy(grid, 0.2, 5.0)
    p = ac.FlowParams(k=1, beta=2.0, alpha=-2.0, f=f)
    spread = uniqueness_spread(SolitonProblem(p, 1.0), grid, trials=3, seed=0)
    ok = spread < 1e-6
    _report(6, ok, f"pairwise sup distance over 3 starts = {spread:.2e}")
    assert ok


def test_criterion_07_mixed_volume_inequality(grid):
    rng = np.random.default_rng(2024)
    worst = np.inf
    ok = True
    for _ in range(100):
        v = random_convex_body(grid, rng)
        u = random_convex_body(grid, rng)
        scale = max(float(np.max(v.values)), float(np.max(u.values)))
        for k in (1, 2):
            margin = ac.alexandrov_fenchel_margin(v, u, k)
            worst = min(worst, margin / scale**4)
            ok = ok and margin >= -1e-8 * scale**4
    eq_ok = True
    for k in (1, 2):
        u = random_convex_body(grid, rng)
        scale = float(np.max(u.values))
        eq_ok = eq_ok and abs(ac.alexandrov_fenchel_margin(u, u, k)) < 1e-10 * scale**4
        v = ac.ScalarField(grid, 2.0 * u.values)
        eq_ok = eq_ok and abs(ac.alexandrov_fenchel_margin(v, u, k)) < 1e-10 * (2 * scale) ** 4
    _report(7, ok and eq_ok, f"worst margin/scale^4 = {worst:.2e}; equality cases ok={eq_ok}")
    assert ok and eq_ok


def test_criterion_08_blowup_ab(grid):
    """Supercritical A/B run from the paper's counterexample body.

    At alpha = 1 (k = 1, beta = 1.5, so the cap has mu = 2/3) R rises
    monotonically from about 30 and crosses the default R_blowup = 50 at
    tau ~ 0.35 on N = 100 and N = 200 alike; the critical control contracts
    R to 1.

    Open question, not asserted: from the same construction at
    alpha = 0.5 (mu = 1/2) R peaks near 41.7 at tau ~ 0.24 on N = 100 and
    200 and then falls (to 9.7 by tau = 0.6); deeper caps (t = -0.2,
    -0.15, -0.1) peak at 1.36x, 1.44x and 1.56x their initial R at N = 100
    and also round out.  Neither the paper's abstract nor this package states
    whether that body must blow up.  The prolate spheroid
    spheroid_support(grid, 1, 3), which this criterion once started from,
    rounds out at alpha = 0.5 (R 3.00 -> 1.00, stop "converged"): its
    equatorial speed factor exceeds the tip value by b^5 / (2^1.5 a^5).
    """
    alpha, k, beta = 1.0, 1, 1.5
    p = ac.FlowParams(k=k, beta=beta, alpha=alpha)
    u0 = capped_profile_body(
        grid, SubsolutionParams.from_exponents(alpha, k, beta, theta=2.0), t=-0.3
    )
    start = time.perf_counter()
    rep = blowup_experiment(
        p,
        u0,
        ac.StoppingConfig(t_max=3.0, record_every=200, tol_conv=1e-6),
    )
    elapsed = time.perf_counter() - start
    ok = rep.verdict == "supports blowup" and rep.control_r_decreasing and elapsed < 600.0
    _report(
        8,
        ok,
        f"verdict={rep.verdict!r} R {rep.r_initial:.2f}->{rep.r_final:.2f} "
        f"stop={rep.stop_reason} control decreasing={rep.control_r_decreasing} {elapsed:.0f}s",
    )
    assert rep.control_r_decreasing
    assert elapsed < 600.0
    assert rep.verdict == "supports blowup"


def test_criterion_09_subsolution_checks():
    rng = np.random.default_rng(77)
    match_ok = True
    count = 0
    while count < 20:
        alpha = rng.uniform(-2.0, 1.5)
        k = int(rng.integers(1, 3))
        beta = rng.uniform(0.5, 2.5)
        q = k * beta + alpha - 1.0
        if q <= 0:
            continue
        theta = rng.uniform(1.05 / q, 3.0 / q + 2.0)
        mu = (q * theta - 1.0) / (k * beta * theta)
        if not (0 < mu < 1):
            continue
        sp = SubsolutionParams.from_exponents(alpha, k, beta, theta)
        t = -float(rng.uniform(0.05, 0.9))
        split = (-t) ** theta
        inner, outer = _branch_values(split, -t, sp)
        slope_in, slope_out = _branch_slopes(split, -t, sp)
        match_ok = match_ok and abs(inner - outer) <= 1e-12 * max(1.0, abs(outer))
        match_ok = match_ok and abs(slope_in - slope_out) <= 1e-12 * max(1.0, abs(slope_out))
        count += 1

    sp = SubsolutionParams.from_exponents(alpha=1.0, k=1, beta=1.0, theta=2.0)
    p = ac.FlowParams(k=1, beta=1.0, alpha=1.0)
    rep = verify_case_bounds(sp, p, samples=1000, seed=0)
    c0_ok = rep["c0_empirical"] > 0
    # the exact ratio |psi_t| / |t|^(theta-1) is theta*(1+(1-mu)|t|^(theta*mu))
    # on the outer branch and lies between theta and that value on the inner
    # one; verify_case_bounds samples |t| in [1e-3, 0.5]
    t_upper = sp.theta * (1.0 + (1.0 - sp.mu) * 0.5 ** (sp.theta * sp.mu))
    t_ok = sp.theta <= rep["T_ratio_max"] <= t_upper
    _report(
        9,
        match_ok and c0_ok and t_ok,
        f"C0/C1 match={match_ok} c0={rep['c0_empirical']:.2e} "
        f"T_ratio_max={rep['T_ratio_max']:.6f} in [theta, {t_upper:.6f}], theta={sp.theta}",
    )
    assert match_ok
    assert c0_ok
    assert t_ok


def test_criterion_10_dual_flow_identity(grid):
    p = ac.FlowParams(k=1, beta=1.5, alpha=-2.0)
    s0 = ac.translated_ball(grid, 0.2)
    r0 = ac.polar_dual(s0)
    stop = ac.StoppingConfig(t_max=0.5, tol_conv=0.0, record_every=10)
    tr_s = ac.run(s0, p, "raw", stop)
    tr_r = ac.run(r0, p, "dual_radial", stop)
    # a record every 0.02, at the same times in both runs
    assert len(tr_s.times) == 26 and tr_r.times == tr_s.times
    worst = max(
        float(np.max(np.abs(r.values * s.values - 1.0)))
        for s, r in zip(tr_s.snapshots, tr_r.snapshots)
    )
    ok = worst < 1e-6
    _report(10, ok, f"max|r*s - 1| = {worst:.2e} over t in [0, 0.5]")
    assert ok
