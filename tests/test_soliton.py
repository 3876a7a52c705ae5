import numpy as np
import pytest

import anicurve as ac
from anicurve.body import _jacobian_band
from anicurve.functionals import _evaluate
from anicurve.soliton import (
    NewtonStagnationError,
    SolitonProblem,
    round_soliton_radius,
    solve_soliton,
    soliton_residual,
    uniqueness_spread,
)


def test_problem_validation(grid200):
    p = ac.FlowParams(k=1, beta=2.0, alpha=-2.0)
    for c in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="speed constant c must be positive and finite"):
            SolitonProblem(p, c=c)
    with pytest.raises(ValueError, match="alpha <= 1 - k\\*beta"):
        SolitonProblem(ac.FlowParams(k=1, beta=1.5, alpha=0.5))
    with pytest.raises(ValueError):
        solve_soliton(SolitonProblem(p))  # neither grid nor init


def test_problem_accepts_critical_line_given_in_decimals():
    # 1 - 1*2.2 rounds to -1.2000000000000002, just below alpha = -1.2
    p = ac.FlowParams(k=1, beta=2.2, alpha=-1.2)
    assert SolitonProblem(p).params.q == 0.0


def test_round_radius_rejects_critical_line(grid64):
    p = ac.FlowParams(k=1, beta=2.0, alpha=-1.0)
    with pytest.raises(ValueError, match="critical line"):
        round_soliton_radius(SolitonProblem(p, 1.0), grid64)


def test_residual_closed_forms(grid200):
    p = ac.FlowParams(k=1, beta=2.0, alpha=-2.0)
    r = soliton_residual(ac.round_body(grid200, 4.0), SolitonProblem(p, 1.0))
    assert np.max(np.abs(r.values)) < 1e-12

    p2 = ac.FlowParams(k=1, beta=1.5, alpha=-1.5)
    r = soliton_residual(ac.round_body(grid200, 1.0), SolitonProblem(p2, p2.gamma))
    assert np.max(np.abs(r.values)) < 1e-12
    r = soliton_residual(ac.round_body(grid200, 1.0), SolitonProblem(p2, 2 * p2.gamma))
    assert np.max(np.abs(r.values + p2.gamma)) < 1e-12


def test_round_initial_guess(grid200):
    p = ac.FlowParams(k=1, beta=2.0, alpha=-2.0)
    # c = 1: u = 4 solves exactly, and so does the predicted round radius
    assert round_soliton_radius(SolitonProblem(p, 1.0), grid200) == pytest.approx(4.0)


def test_solve_round(grid200):
    p = ac.FlowParams(k=1, beta=2.0, alpha=-2.0)
    res = solve_soliton(SolitonProblem(p, 1.0), grid200)
    assert np.max(np.abs(res.u.values - 4.0)) < 1e-9

    p2 = ac.FlowParams(k=2, beta=1.0, alpha=-2.0)
    res2 = solve_soliton(SolitonProblem(p2, 1.0), grid200)
    assert np.max(np.abs(res2.u.values - 1.0)) < 1e-9


def test_solve_from_perturbed_start(grid200):
    p = ac.FlowParams(k=1, beta=2.0, alpha=-2.0)
    u0 = ac.ScalarField(
        grid200, 4.0 * (1 + 0.1 * np.cos(grid200.theta) + 0.05 * np.cos(2 * grid200.theta))
    )
    res = solve_soliton(SolitonProblem(p, 1.0, u0))
    assert np.max(np.abs(res.u.values - 4.0)) < 1e-9
    assert res.iterations < 15


def test_solve_anisotropic(grid200):
    f = ac.power_of_linear_anisotropy(grid200, 0.2, 5.0)
    p = ac.FlowParams(k=1, beta=2.0, alpha=-2.0, f=f)
    res = solve_soliton(SolitonProblem(p, 1.0), grid200)
    assert res.residual_sup < 1e-10
    # genuinely non-round
    assert res.u.values.max() - res.u.values.min() > 1e-2


def test_solve_k2_arbitrary_f(grid200):
    vals = np.maximum(1.0 + 0.3 * np.cos(2 * grid200.theta), 1e-6)
    f = ac.tabulated_anisotropy(grid200, vals)
    p = ac.FlowParams(k=2, beta=1.0, alpha=-2.0, f=f)
    res = solve_soliton(SolitonProblem(p, 1.0), grid200)
    assert res.residual_sup < 1e-10


def test_solve_rejects_inadmissible_f_for_k1(grid200):
    expo = 1 + 2.0 + 2.0  # 1 + k*beta - alpha
    vals = (1.0 + 0.9 * np.cos(2 * grid200.theta)) ** expo
    f = ac.tabulated_anisotropy(grid200, vals)
    p = ac.FlowParams(k=1, beta=2.0, alpha=-2.0, f=f)
    with pytest.raises(ValueError, match="admissibility"):
        solve_soliton(SolitonProblem(p, 1.0), grid200)


def test_scaling_law(grid200):
    f = ac.power_of_linear_anisotropy(grid200, 0.2, 5.0)
    p = ac.FlowParams(k=1, beta=2.0, alpha=-2.0, f=f)
    base = solve_soliton(SolitonProblem(p, 1.0), grid200)
    s = 1.3
    c_scaled = s ** (p.alpha - 1.0 + p.k * p.beta)
    res = soliton_residual(
        ac.ScalarField(grid200, s * base.u.values), SolitonProblem(p, c_scaled)
    )
    assert np.max(np.abs(res.values)) < 1e-9 * c_scaled


def test_uniqueness_spread_round(grid200):
    p = ac.FlowParams(k=1, beta=2.0, alpha=-2.0)
    assert uniqueness_spread(SolitonProblem(p, 1.0), grid200, trials=3, seed=1) < 1e-10


def test_uniqueness_spread_anisotropic(grid200):
    f = ac.power_of_linear_anisotropy(grid200, 0.2, 5.0)
    p = ac.FlowParams(k=1, beta=2.0, alpha=-2.0, f=f)
    assert uniqueness_spread(SolitonProblem(p, 1.0), grid200, trials=3, seed=0) < 1e-6


def test_uniqueness_rejects_critical_line(grid200):
    p = ac.FlowParams(k=1, beta=2.0, alpha=-1.0)  # alpha = 1 - k*beta
    with pytest.raises(ValueError, match="alpha < 1 - k\\*beta"):
        uniqueness_spread(SolitonProblem(p, 1.0), grid200, trials=3)


def test_soliton_minimizes_lyapunov(grid64):
    # the functional evaluated at the self-similar body lies below its value
    # at any normalized flow iterate
    f = ac.power_of_linear_anisotropy(grid64, 0.2, 5.0)
    p = ac.FlowParams(k=1, beta=2.0, alpha=-2.0, f=f)
    u0 = ac.normalize_body(ac.translated_ball(grid64, 0.3), 1)
    traj = ac.run(
        u0, p, "volume_normalized", ac.StoppingConfig(t_max=0.5, tol_conv=0.0, record_every=100)
    )
    sol = solve_soliton(SolitonProblem(p, 1.0), grid64)
    J_sol = ac.lyapunov_functional(ac.normalize_body(sol.u, 1), p)
    for snap in traj.snapshots:
        J_it = ac.lyapunov_functional(ac.normalize_body(snap, 1), p)
        assert J_sol <= J_it + 1e-8 * abs(J_it)


def test_stagnation_reports_last_iterate(grid64):
    # an absurd tolerance cannot be met; the error carries the iterate
    p = ac.FlowParams(k=1, beta=2.0, alpha=-2.0)
    u0 = ac.ScalarField(grid64, 4.0 * (1 + 0.1 * np.cos(grid64.theta)))
    with pytest.raises(NewtonStagnationError) as exc:
        solve_soliton(SolitonProblem(p, 1.0, u0), tol_factor=1e-18)
    assert np.max(np.abs(exc.value.last_iterate.values - 4.0)) < 1e-6
    assert exc.value.residual_sup < 1e-8


def _problem(grid, k):
    """Criterion 6's cases: k=1 with power-of-linear f, k=2 with tabulated f."""
    if k == 1:
        f = ac.power_of_linear_anisotropy(grid, 0.2, 5.0)
        return SolitonProblem(ac.FlowParams(k=1, beta=2.0, alpha=-2.0, f=f), 1.0)
    f = ac.tabulated_anisotropy(grid, 1.0 + 0.3 * np.cos(2 * grid.theta))
    return SolitonProblem(ac.FlowParams(k=2, beta=1.0, alpha=-2.0, f=f), 1.0)


@pytest.mark.parametrize("n", [16, 17, 18, 20, 64])
@pytest.mark.parametrize("k", [1, 2])
def test_newton_jacobian_matches_dense_differences(n, k):
    # the analytic band of the Newton residual, assembled from the node values
    # of one evaluation, against column-by-column central differences; the
    # sizes cover every n mod 5, and so every clipped row at both poles
    grid = ac.make_grid(n)
    prob = _problem(grid, k)
    p = prob.params
    th = grid.theta
    vals = round_soliton_radius(prob, grid) * (
        1.07 + 0.05 * np.cos(th) - 0.03 * np.cos(2 * th) + 0.02 * np.cos(3 * th)
    )

    def residual(v):
        return soliton_residual(ac.ScalarField(grid, v), prob).values

    dense = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 6e-8 * max(1.0, abs(vals[j]))
        dense[:, j] = (residual(vals + e) - residual(vals - e)) / (2.0 * e[j])
    rows, cols = np.nonzero(dense)
    assert np.max(np.abs(rows - cols)) == 2

    rho, b11, b22, _, sig = _evaluate(vals, grid, p, p.alpha - 1.0)
    ab = _jacobian_band(vals, rho, b11, b22, sig, p.k, p.beta, p.alpha - 1.0)
    assert ab.shape == (5, n)
    assert not ab[0, :2].any() and not ab[1, 0] and not ab[3, -1] and not ab[4, -2:].any()
    band = np.zeros((n, n))
    for d in range(-2, 3):
        j = np.arange(max(0, -d), min(n, n - d))
        band[j + d, j] = ab[2 + d, j]
    assert np.max(np.abs(band - dense)) <= 1e-7 * np.max(np.abs(dense))


def test_residual_evaluations_independent_of_n():
    # one residual for the start, then one per line-search trial (the
    # Jacobian evaluates none); every full step is accepted from this start
    per_iteration = []
    for n in (64, 200):
        grid = ac.make_grid(n)
        th = grid.theta
        u0 = ac.ScalarField(grid, 4.0 * (1 + 0.1 * np.cos(th) + 0.05 * np.cos(2 * th)))
        res = solve_soliton(SolitonProblem(ac.FlowParams(k=1, beta=2.0, alpha=-2.0), 1.0, u0))
        assert res.iterations > 0
        assert res.damping == [1.0] * res.iterations
        per_iteration.append((res.residual_evaluations - 1) / res.iterations)
    assert per_iteration == [1.0, 1.0]


def test_newton_statistics(grid200):
    prob = _problem(grid200, 1)
    th = grid200.theta
    r0 = round_soliton_radius(prob, grid200)
    u0 = ac.ScalarField(grid200, 1.3 * r0 * (1 + 0.05 * np.cos(th)))
    res = solve_soliton(SolitonProblem(prob.params, prob.c, u0))
    hist = res.residual_history
    assert len(hist) == res.iterations + 1
    assert len(res.damping) == res.iterations
    assert hist[0] == pytest.approx(np.max(np.abs(soliton_residual(u0, prob).values)))
    assert hist[-1] == res.residual_sup
    assert all(b < a for a, b in zip(hist, hist[1:]))
    assert all(0.0 < lam <= 1.0 for lam in res.damping)
    assert min(res.damping) < 1.0  # this start needs damping
    # every trial costs one residual evaluation, one that loses convexity too
    trials = sum(round(-np.log2(lam)) + 1 for lam in res.damping)
    assert 1 + res.iterations <= res.residual_evaluations == 1 + trials
