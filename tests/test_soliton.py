import gc
import warnings
import weakref

import numpy as np
import pytest
from numpy.linalg import LinAlgError

import anicurve as ac
from anicurve import soliton
from anicurve.body import _jacobian_band
from anicurve.functionals import _evaluate
from anicurve.sphere import _prolongation, _restrict, _restriction
from anicurve.soliton import (
    NewtonStagnationError,
    SolitonProblem,
    round_soliton_radius,
    solve_soliton,
    soliton_residual,
    uniqueness_spread,
)
from conftest import exact_spheroid_soliton, observed_orders


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


def test_stagnation_reports_last_iterate(grid64, monkeypatch):
    # three iterations end far above the noise floor, short of the stop
    # rule; the error carries the iterate
    monkeypatch.setattr(soliton, "_MAX_ITER", 3)
    p = ac.FlowParams(k=1, beta=2.0, alpha=-2.0)
    u0 = ac.ScalarField(grid64, 4.0 * (1 + 0.1 * np.cos(grid64.theta)))
    with pytest.raises(NewtonStagnationError) as exc:
        solve_soliton(SolitonProblem(p, 1.0, u0))
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
    # a prolate start: a scale error alone is removed by the first log step
    prob = _problem(grid200, 1)
    r0 = round_soliton_radius(prob, grid200)
    u0 = ac.ScalarField(grid200, r0 * ac.spheroid_support(grid200, 1.0, 3.0).values)
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


def test_solve_rejects_grid_unlike_the_initial_guess():
    # the grid beside an initial guess was dropped: an init on 200 nodes
    # passed with a 400-node grid was solved on 200 nodes
    p = ac.FlowParams(k=1, beta=2.0, alpha=-2.0)
    u0 = ac.round_body(ac.make_grid(200), 4.0)
    with pytest.raises(ValueError, match="400 nodes but the initial guess has 200"):
        solve_soliton(SolitonProblem(p, 1.0, u0), ac.make_grid(400))
    res = solve_soliton(SolitonProblem(p, 1.0, u0), ac.make_grid(200))
    assert res.u.grid is u0.grid


def _random_start(prob, grid, rng):
    """Admissible start of the soliton_newton benchmark: a scaled round body
    plus low cosine modes."""
    r0 = round_soliton_radius(prob, grid)
    while True:
        vals = r0 * float(np.exp(rng.uniform(-0.4, 0.4))) * np.ones(grid.n)
        for m in range(1, 4):
            vals += r0 * rng.uniform(-0.05, 0.05) * np.cos(m * grid.theta)
        if vals.min() > 0 and ac.convexity_margin(ac.ScalarField(grid, vals)) > 0:
            return ac.ScalarField(grid, vals)


def _single_grid(prob):
    """solve_soliton's iteration on the problem's own grid alone, as
    uniqueness_spread runs it."""
    vals, grid = soliton._checked_start(prob, None)
    return soliton._newton(vals, grid, prob.params, prob.c, 1e-10 * prob.c)


def test_prolongation_reproduces_cosines():
    # the cosine series through the coarse nodes and both poles is exact for
    # every mode the coarse grid carries
    nc = soliton._COARSE_N
    th = np.pi / (nc + 1) * np.arange(nc + 2)  # the nodes and both poles
    fine = ac.make_grid(8 * nc + 5)
    matrix = _prolongation(nc, fine.n)
    assert matrix.shape == (fine.n, nc + 2) and not matrix.flags.writeable
    assert _prolongation(nc, fine.n) is matrix
    for m in range(nc + 1):
        got = matrix @ (0.7 + 0.3 * np.cos(m * th))
        assert np.max(np.abs(got - (0.7 + 0.3 * np.cos(m * fine.theta)))) < 1e-14


def test_restriction_is_fourth_order():
    # cubic Lagrange over the nodes, the ghosts and the even pole values
    # (measured: 1.3e-8 at N = 200, 8.1e-10 at N = 400, order 4.02)
    coarse = ac.make_grid(soliton._COARSE_N)
    exact = ac.spheroid_support(coarse, 1.0, 1.5).values
    errs = []
    for n in (200, 400):
        grid = ac.make_grid(n)
        u = ac.spheroid_support(grid, 1.0, 1.5).values
        errs.append((np.max(np.abs(_restrict(u, grid, coarse) - exact)), grid.h))
    assert errs[0][0] < 1e-7
    assert 3.8 < observed_orders(errs)[0] < 4.2
    index, weights = _restriction(400, coarse.n)
    assert index.shape == weights.shape == (coarse.n, 4)
    assert not index.flags.writeable and not weights.flags.writeable
    assert _restriction(400, coarse.n)[0] is index


@pytest.mark.parametrize("n", [400, 800])
@pytest.mark.parametrize("k", [1, 2])
def test_coarse_start_agrees_with_single_grid(n, k):
    grid = ac.make_grid(n)
    prob = _problem(grid, k)
    rng = np.random.default_rng(n + k)
    for _ in range(2):
        start = SolitonProblem(prob.params, prob.c, _random_start(prob, grid, rng))
        res = solve_soliton(start)
        alone = _single_grid(start)
        assert res.residual_sup < 1e-10 and alone.coarse_residual_evaluations == 0
        assert np.max(np.abs(res.u.values - alone.u.values)) < 1e-9
        assert 0 < res.iterations <= 2
        assert res.iterations < alone.iterations
        assert 0 < res.coarse_iterations < res.coarse_residual_evaluations


@pytest.mark.parametrize("n", [256, 400])
@pytest.mark.parametrize("k", [1, 2])
def test_coarse_start_leaves_one_fine_iteration(n, k):
    # the fourth-order restriction of f puts the prolonged start within one
    # iteration of the solution from the smallest size the coarse phase runs at
    grid = ac.make_grid(n)
    prob = _problem(grid, k)
    rng = np.random.default_rng(10 * n + k)
    for _ in range(4):
        res = solve_soliton(SolitonProblem(prob.params, prob.c, _random_start(prob, grid, rng)))
        assert res.coarse_iterations > 0
        assert res.iterations == 1 and res.residual_sup < 1e-10


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("k", [1, 2])
def test_log_band_matches_dense_differences(n, k):
    # diag(1/rho) B diag(u), the band of the log step, against central
    # differences of log rho(u * e^delta) in delta
    grid = ac.make_grid(n)
    prob = _problem(grid, k)
    p = prob.params
    th = grid.theta
    vals = round_soliton_radius(prob, grid) * (
        1.07 + 0.05 * np.cos(th) - 0.03 * np.cos(2 * th) + 0.02 * np.cos(3 * th)
    )

    def log_rho(delta):
        return np.log(_evaluate(vals * np.exp(delta), grid, p, p.alpha - 1.0)[0])

    dense = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 6e-8
        dense[:, j] = (log_rho(e) - log_rho(-e)) / (2.0 * e[j])

    rho, b11, b22, _, sig = _evaluate(vals, grid, p, p.alpha - 1.0)
    ab = _jacobian_band(vals, rho, b11, b22, sig, p.k, p.beta, p.alpha - 1.0)
    band = np.zeros((n, n))
    for d in range(-2, 3):
        j = np.arange(max(0, -d), min(n, n - d))
        band[j + d, j] = ab[2 + d, j]
    band = band * vals / rho[:, None]
    assert np.max(np.abs(band - dense)) <= 1e-7 * np.max(np.abs(dense))


@pytest.mark.parametrize("k", [1, 2])
def test_log_step_removes_a_scale_error(grid200, k):
    # rho is homogeneous in u, so a dilated solution is one full log step
    # from the solution
    prob = _problem(grid200, k)
    star = solve_soliton(prob, grid200).u.values
    for s in (0.5, 1.5):
        res = solve_soliton(
            SolitonProblem(prob.params, prob.c, ac.ScalarField(grid200, s * star))
        )
        assert res.iterations == 1 and res.damping == [1.0]
        assert res.residual_sup < 1e-10


def test_coarse_phase_stops_below_the_transfer_floor(monkeypatch):
    # the coarse history ends at its first value below _COARSE_STOP * c
    grid = ac.make_grid(800)
    prob = _problem(grid, 1)
    rng = np.random.default_rng(4)
    phases = []
    original = soliton._newton

    def recording(*args):
        phases.append(original(*args))
        return phases[-1]

    monkeypatch.setattr(soliton, "_newton", recording)
    for _ in range(4):
        res = solve_soliton(SolitonProblem(prob.params, prob.c, _random_start(prob, grid, rng)))
        assert res.residual_sup < 1e-10 * prob.c
    coarse = [r for r in phases if r.u.grid.n == soliton._COARSE_N]
    assert len(coarse) == 4 and len(phases) == 8
    floor = soliton._COARSE_STOP * prob.c
    for r in coarse:
        assert r.residual_history[-1] < floor <= r.residual_history[-2]


@pytest.mark.parametrize("a, b", [(1.0, 1.3), (1.3, 1.0)], ids=["prolate", "oblate"])
@pytest.mark.parametrize("k, beta", [(1, 2.0), (2, 1.0)])
def test_exact_spheroid_soliton_is_fourth_order(k, beta, a, b):
    # the anisotropy that makes a spheroid an exact soliton; N = 384 goes
    # through the coarse phase, on the restriction of the tabulated f
    # (measured: 1.5-3.0e-6 at N = 48 down to 4.0-8.9e-10 at N = 384,
    # orders 3.86-4.00 over the four cases)
    errs = []
    for n in (48, 96, 192, 384):
        grid = ac.make_grid(n)
        star, f = exact_spheroid_soliton(grid, a, b, k, beta, -2.0)
        p = ac.FlowParams(k=k, beta=beta, alpha=-2.0, f=ac.tabulated_anisotropy(grid, f))
        res = solve_soliton(SolitonProblem(p, 1.0), grid)
        assert res.residual_sup < 1e-10
        assert (res.coarse_iterations > 0) == (n >= 8 * soliton._COARSE_N)
        errs.append((np.max(np.abs(res.u.values - star)), grid.h))
    orders = observed_orders(errs)
    assert all(3.7 < order < 4.3 for order in orders), orders


@pytest.mark.parametrize(
    "k, beta, alpha, body",
    [
        (2, 1.0, 5.0, lambda grid: ac.spheroid_support(grid, 1.0, 1.5)),
        (1, 1.5, 1.0, lambda grid: ac.translated_ball(grid, 0.3)),
    ],
    ids=["spheroid", "translate"],
)
def test_exact_soliton_families_with_unit_f(k, beta, alpha, body):
    """With f = 1, every origin-centred spheroid solves the soliton equation
    at k = 2, alpha = 1 + 4 beta, and every translate of the unit ball at
    alpha = 1, so rho is constant up to the grid error.

    Measured relative variation (max - min) / mean at N = 48, 96, 192:
    spheroid (1, 1.5) 3.07e-5, 2.06e-6, 1.32e-7 (orders 3.90, 3.96);
    translated_ball(0.3) 3.51e-7, 2.30e-8, 1.47e-9 (orders 3.93, 3.97).
    """
    p = ac.FlowParams(k=k, beta=beta, alpha=alpha)
    errs = []
    for n in (48, 96, 192):
        grid = ac.make_grid(n)
        rho = ac.speed_factor(body(grid), p).values
        errs.append(((rho.max() - rho.min()) / rho.mean(), grid.h))
    orders = observed_orders(errs)
    assert all(3.7 < order < 4.3 for order in orders), orders


def test_fine_phase_newton_statistics(monkeypatch):
    # test_newton_statistics' invariants hold for the iteration on the
    # requested grid, which starts from the prolonged coarse solution
    grid = ac.make_grid(400)
    prob = _problem(grid, 1)
    th = grid.theta
    r0 = round_soliton_radius(prob, grid)
    u0 = ac.ScalarField(grid, 1.3 * r0 * (1 + 0.05 * np.cos(th)))
    starts = []
    original = soliton._prolong

    def recording(values, fine):
        starts.append(original(values, fine))
        return starts[-1]

    monkeypatch.setattr(soliton, "_prolong", recording)
    res = solve_soliton(SolitonProblem(prob.params, prob.c, u0))
    hist = res.residual_history
    assert len(starts) == 1
    assert len(hist) == res.iterations + 1
    assert len(res.damping) == res.iterations
    start = ac.ScalarField(grid, starts[0])
    assert hist[0] == pytest.approx(np.max(np.abs(soliton_residual(start, prob).values)))
    assert hist[-1] == res.residual_sup
    assert all(b < a for a, b in zip(hist, hist[1:]))
    assert all(0.0 < lam <= 1.0 for lam in res.damping)
    trials = sum(round(-np.log2(lam)) + 1 for lam in res.damping)
    assert 1 + res.iterations <= res.residual_evaluations == 1 + trials
    assert 1 + res.coarse_iterations <= res.coarse_residual_evaluations


def _raise(error):
    def wrap(original):
        def failing(*args):
            raise error

        return failing

    return wrap


def _raise_on_coarse_grid(error):
    def wrap(newton):
        def failing(vals, grid, *args):
            if grid.n == soliton._COARSE_N:
                raise error
            return newton(vals, grid, *args)

        return failing

    return wrap


def _negate(prolong):
    return lambda values, grid: -prolong(values, grid)  # no support function is negative


@pytest.mark.parametrize(
    "name, wrap",
    [
        ("_restrict", _raise(ValueError("restriction failed"))),
        ("_newton", _raise_on_coarse_grid(NewtonStagnationError("stagnated", None, 1.0))),
        ("_newton", _raise_on_coarse_grid(LinAlgError("singular matrix"))),
        ("_prolong", _negate),
    ],
    ids=["restriction", "stagnation", "singular", "prolonged-start"],
)
def test_failed_coarse_phase_leaves_single_grid_result(monkeypatch, name, wrap):
    # each way the coarse phase can fail falls back to the given start, and
    # the result is the single-grid one, bit for bit
    grid = ac.make_grid(400)
    prob = _problem(grid, 1)
    u0 = _random_start(prob, grid, np.random.default_rng(3))
    start = SolitonProblem(prob.params, prob.c, u0)
    alone = _single_grid(start)
    calls = []
    failing = wrap(getattr(soliton, name))

    def counting(*args):
        calls.append(args)
        return failing(*args)

    monkeypatch.setattr(soliton, name, counting)
    res = solve_soliton(start)
    assert calls and (name != "_newton" or calls[0][1].n == soliton._COARSE_N)
    assert res.u.values.tobytes() == alone.u.values.tobytes()
    assert (res.iterations, res.residual_sup, res.residual_history, res.damping) == (
        alone.iterations,
        alone.residual_sup,
        alone.residual_history,
        alone.damping,
    )
    assert res.residual_evaluations == alone.residual_evaluations
    assert res.coarse_iterations == res.coarse_residual_evaluations == 0


def test_no_coarse_phase_below_threshold_or_on_critical_line(monkeypatch):
    calls = []
    original = soliton._coarse_start

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(soliton, "_coarse_start", counting)
    grid = ac.make_grid(8 * soliton._COARSE_N - 1)
    res = solve_soliton(_problem(grid, 1), grid)
    assert res.iterations > 0
    # the unit sphere solves the dilation invariant critical equation for c = 2^beta
    crit = ac.FlowParams(k=1, beta=2.2, alpha=-1.2)
    u0 = ac.round_body(ac.make_grid(400), 1.0)
    res_crit = solve_soliton(SolitonProblem(crit, 2**2.2, u0))
    assert res_crit.residual_sup < 1e-10 * 2**2.2
    assert calls == []
    for r in (res, res_crit):
        assert r.coarse_iterations == r.coarse_residual_evaluations == 0


@pytest.mark.parametrize("a, b", [(1.0, 1.3), (1.3, 1.0)], ids=["prolate", "oblate"])
@pytest.mark.parametrize("k, beta", [(1, 2.0), (2, 1.0)])
def test_exact_spheroid_soliton_converges_at_its_noise_floor(k, beta, a, b):
    # from N = 1200 the residual stalls above 1e-10 * c, under its rounding
    # floor; the default stop ends there converged, and the iterate keeps
    # order 4 against u* (measured: orders 3.69-4.19 from N = 400 to 1200
    # and 1600, floors 2.1-2.8e-10 and 3.8-5.1e-10).  The floor is estimated
    # when the first full plain step fails, so these solves take 8 or 9
    # residual evaluations; estimated only after the halving ran out, they
    # took 34-70
    errs = []
    for n in (400, 1200, 1600):
        grid = ac.make_grid(n)
        star, f = exact_spheroid_soliton(grid, a, b, k, beta, -2.0)
        p = ac.FlowParams(k=k, beta=beta, alpha=-2.0, f=ac.tabulated_anisotropy(grid, f))
        res = solve_soliton(SolitonProblem(p, 1.0), grid)
        if n == 400:
            assert res.noise_floor is None and res.residual_sup < 1e-10
        else:
            assert 1e-10 <= res.residual_sup < res.noise_floor < 1e-9
            assert res.residual_evaluations <= 10
        errs.append((np.max(np.abs(res.u.values - star)), grid.h))
    orders = [observed_orders([errs[0], e])[0] for e in errs[1:]]
    assert all(3.5 < order < 4.5 for order in orders), orders


def _critical_line_problem(grid):
    """The critical line k = 1, beta = 2, alpha = -1 with f = (1 + 0.2 cos)^5,
    c = 1 and a prolate start: c is not the eigenvalue c*(f), so no soliton
    exists and Newton stalls far from one."""
    f = ac.power_of_linear_anisotropy(grid, 0.2, 5.0)
    p = ac.FlowParams(k=1, beta=2.0, alpha=-1.0, f=f)
    return SolitonProblem(p, 1.0, ac.spheroid_support(grid, 1.0, 1.5))


def test_stall_above_the_noise_floor_raises():
    # on the way the log trial u * exp(lam * delta) would overflow; it is
    # halved with no warning, and the stall, far above the residual's noise
    # floor, raises under the default stop rule
    grid = ac.make_grid(200)
    prob = _critical_line_problem(grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NewtonStagnationError, match="stagnated") as exc:
            solve_soliton(prob)
    last = exc.value.last_iterate.values
    res = soliton_residual(exc.value.last_iterate, prob).values
    floor = soliton._noise_floor(last, res, grid, prob.params, prob.c)
    assert exc.value.residual_sup == np.max(np.abs(res)) > 1e6 * floor > 0


def test_iteration_limit_above_the_noise_floor_raises(monkeypatch):
    # the other stall: the iteration limit, reached here before any step
    monkeypatch.setattr(soliton, "_MAX_ITER", 0)
    grid = ac.make_grid(200)
    with pytest.raises(NewtonStagnationError, match="no convergence in 0 iterations"):
        solve_soliton(_problem(grid, 1), grid)


@pytest.mark.parametrize("k, beta, q", [(1, 2.0, 1e-3), (2, 1.0, 1e-4)])
def test_round_radius_not_representable(k, beta, q):
    # just below the critical line (c / (mean f * gamma))^(1/q) leaves the
    # range of a double: a ValueError that says so, not an OverflowError
    grid = ac.make_grid(192)
    f = ac.power_of_linear_anisotropy(grid, 0.2, 5.0)
    prob = SolitonProblem(ac.FlowParams(k=k, beta=beta, alpha=1.0 - k * beta - q, f=f), 1.0)
    for call in (lambda: round_soliton_radius(prob, grid), lambda: solve_soliton(prob, grid)):
        with pytest.raises(ValueError, match="not representable as a double"):
            call()


def _counting(monkeypatch, name):
    calls = []
    original = getattr(soliton, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(soliton, name, counting)
    return calls


def test_per_problem_setup_runs_once(monkeypatch):
    # solves of one FlowParams from many starts evaluate its condition margin
    # and build its coarse anisotropy once, and give the bits of solves with
    # a fresh, equal FlowParams
    grid = ac.make_grid(400)
    prob = _problem(grid, 1)
    rng = np.random.default_rng(6)
    starts = [_random_start(prob, grid, rng) for _ in range(3)]
    margins = _counting(monkeypatch, "anisotropy_condition_margin")
    coarse = _counting(monkeypatch, "tabulated_anisotropy")
    shared = [solve_soliton(SolitonProblem(prob.params, prob.c, u0)) for u0 in starts]
    assert len(margins) == len(coarse) == 1
    assert all(r.coarse_iterations > 0 for r in shared)
    p = prob.params
    for u0, res in zip(starts, shared):
        fresh = ac.FlowParams(p.k, p.beta, p.alpha, p.f)
        alone = solve_soliton(SolitonProblem(fresh, prob.c, u0))
        assert res.u.values.tobytes() == alone.u.values.tobytes()
        assert (res.residual_history, res.damping, res.coarse_iterations) == (
            alone.residual_history,
            alone.damping,
            alone.coarse_iterations,
        )
    assert len(margins) == len(coarse) == 1 + len(starts)


def test_per_problem_setup_dies_with_its_params():
    # the set-up kept for a FlowParams holds no strong reference to it
    grid = ac.make_grid(400)
    prob = _problem(grid, 1)
    params = weakref.ref(prob.params)
    assert solve_soliton(prob, grid).coarse_iterations > 0
    del prob
    gc.collect()
    assert params() is None
