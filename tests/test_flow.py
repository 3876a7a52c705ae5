import numpy as np
import pytest

import anicurve as ac
from anicurve import FlowParams, StoppingConfig
from anicurve import flow, functionals
from anicurve.flow import _RECORD_DT, _Engine


def p_of(k, beta, alpha, f=None):
    return FlowParams(k=k, beta=beta, alpha=alpha, f=f)


def test_speed_examples(grid200):
    s = ac.speed(ac.round_body(grid200, 1.0), p_of(1, 1.0, 0.0))
    assert np.max(np.abs(s.values - 2.0)) < 1e-12

    p = p_of(1, 2.0, -2.0)
    r = 1.7
    s = ac.speed(ac.round_body(grid200, r), p)
    assert np.max(np.abs(s.values - p.gamma * r ** (p.alpha + p.k * p.beta))) < 1e-10

    s = ac.speed(ac.translated_ball(grid200, 0.3), p_of(1, 1.0, 0.0))
    assert np.max(np.abs(s.values - 2.0)) < 1e-6


def test_speed_rejects_nonconvex(grid200):
    u = ac.make_field(grid200, lambda t: 1.0 + 0.8 * np.cos(2 * t))
    with pytest.raises((ValueError, ac.ConvexityLostError)):
        ac.speed(u, p_of(2, 1.5, 0.0))


def test_adaptive_dt_examples(grid200):
    h2 = grid200.h**2
    dt = ac.adaptive_dt(ac.round_body(grid200, 1.0), p_of(1, 1.0, 0.0))
    assert dt == pytest.approx(0.4 * h2, rel=1e-12)

    # doubling the node count quarters the step
    g2 = ac.make_grid(401)
    dt2 = ac.adaptive_dt(ac.round_body(g2, 1.0), p_of(1, 1.0, 0.0))
    assert dt2 == pytest.approx(dt * (grid200.h / g2.h) ** -2, rel=1e-10)
    assert dt2 < 0.26 * dt

    dt3 = ac.adaptive_dt(ac.round_body(grid200, 2.0), p_of(2, 1.0, 0.0))
    assert dt3 == pytest.approx(0.2 * h2, rel=1e-10)


def test_step_matches_scalar_ode(grid200):
    # round bodies satisfy u' = gamma * u^(alpha+k*beta); integrate that with
    # a much finer RK4 as the oracle
    p = p_of(1, 1.0, 0.0)
    dt = 1e-3
    stepped = ac.step(ac.round_body(grid200, 1.3), p, "raw", dt)
    x, n = 1.3, 1000
    h = dt / n
    rhs = lambda y: p.gamma * y ** (p.alpha + p.k * p.beta)
    for _ in range(n):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * h * k1)
        k3 = rhs(x + 0.5 * h * k2)
        k4 = rhs(x + h * k3)
        x += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert np.max(np.abs(stepped.values - x)) < 1e-12


def test_step_fixed_point(grid200):
    p = p_of(1, 2.0, -2.0)
    one = ac.round_body(grid200, 1.0)
    out = ac.step(one, p, "round_normalized", 1e-4)
    assert np.max(np.abs(out.values - 1.0)) < 1e-14


def test_step_rejects_bad_dt(grid200):
    with pytest.raises(ValueError):
        ac.step(ac.round_body(grid200, 1.0), p_of(1, 1.0, 0.0), "raw", -1.0)
    with pytest.raises(ValueError):
        ac.step(ac.round_body(grid200, 1.0), p_of(1, 1.0, 0.0), "nope", 1e-4)


def test_round_normalized_needs_unit_f(grid200):
    f = ac.power_of_linear_anisotropy(grid200, 0.2, 1.0)
    with pytest.raises(ValueError, match="f = 1"):
        ac.step(ac.round_body(grid200, 1.0), p_of(1, 2.0, -2.0, f=f), "round_normalized", 1e-4)


def test_barrier_examples():
    p = p_of(1, 1.0, -2.0)
    assert ac.barrier(1.0, 0.37, p) == pytest.approx(1.0, abs=1e-15)
    assert ac.barrier(0.5, 1.0, p) == pytest.approx(np.sqrt(1 - 0.75 * np.exp(-4)), rel=1e-14)
    vals = [ac.barrier(0.5, t, p) for t in np.linspace(0, 4, 40)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1.0 and vals[-1] == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        ac.barrier(0.5, 1.0, p_of(1, 1.5, 0.5))  # q > 0


def test_scale_factor_and_time():
    pc = p_of(1, 1.0, 0.0)  # critical: alpha = 1 - k*beta
    assert pc.regime == "critical"
    assert ac.scale_factor(1.0, pc) == pytest.approx(np.exp(2.0), rel=1e-14)
    assert ac.normalized_time(5.0, pc) == 5.0

    # on the critical line given in decimals (q = 2.2e-16 before snapping)
    # the closed form is exp(gamma*t), not (1 + m*gamma*t)^(1/m)
    pd = p_of(1, 2.2, -1.2)
    assert ac.scale_factor(1.0, pd) == pytest.approx(np.exp(pd.gamma), rel=1e-14)
    assert ac.normalized_time(5.0, pd) == 5.0

    p = p_of(1, 1.0, -2.0)
    assert ac.scale_factor(0.0, p) == 1.0
    assert ac.scale_factor(2.0, p) == pytest.approx(3.0, rel=1e-14)
    assert ac.normalized_time(0.0, p) == 0.0
    assert ac.normalized_time(2.0, p) == pytest.approx(np.log(9) / 2, rel=1e-14)
    ts = np.linspace(0.0, 3.0, 30)
    taus = [ac.normalized_time(t, p) for t in ts]
    assert all(b > a for a, b in zip(taus, taus[1:]))


def test_round_exactness_small_grid():
    # round-normalized trajectories from constant data must follow the exact
    # round solution
    g = ac.make_grid(64)
    p = p_of(1, 1.0, -2.0)
    traj = ac.run(
        ac.round_body(g, 0.5),
        p,
        "round_normalized",
        StoppingConfig(t_max=2.0, tol_conv=0.0, record_every=100),
    )
    worst = max(
        np.max(np.abs(s.values - ac.barrier(0.5, tau, p)))
        for tau, s in zip(traj.times, traj.snapshots)
    )
    assert worst < 1e-6


def test_run_converges_translate(grid64):
    p = p_of(1, 2.0, -2.0)
    traj = ac.run(
        ac.translated_ball(grid64, 0.3),
        p,
        "round_normalized",
        StoppingConfig(t_max=30.0, tol_conv=1e-6, record_every=200),
    )
    assert traj.stop_reason == "converged"
    assert np.max(np.abs(traj.final().values - 1.0)) < 1e-4
    taus = traj.times
    assert all(b > a for a, b in zip(taus, taus[1:]))


def test_run_monotone_functionals_nef2(grid64):
    f = ac.power_of_linear_anisotropy(grid64, 0.2, 5.0)
    p = p_of(1, 2.0, -2.0, f=f)
    u0 = ac.normalize_body(ac.translated_ball(grid64, 0.3), 1)
    stop = StoppingConfig(t_max=2.0, tol_conv=1e-7, record_every=100)
    traj = ac.run(u0, p, "volume_normalized", stop)
    etas = np.array([r.eta for r in traj.diagnostics])
    Js = np.array([r.J for r in traj.diagnostics])
    slack = 1e-10 * stop.record_every
    assert np.all(np.diff(etas) <= slack * np.abs(etas[:-1]))
    assert np.all(np.diff(Js) <= slack * np.abs(Js[:-1]))
    # the conserved integral u*sigma_k stays at 4*pi without reprojection
    assert np.max(np.abs(np.array(traj.usigma) - 4 * np.pi)) < 1e-6


def test_run_a_priori_bands(grid64):
    # round-normalized flows keep min u above min(1, u_min(0)) and max u
    # below max(1, u_max(0))
    p = p_of(1, 2.0, -2.0)
    traj = ac.run(
        ac.spheroid_support(grid64, 1.0, 1.5),
        p,
        "round_normalized",
        StoppingConfig(t_max=30.0, tol_conv=1e-6, record_every=100),
    )
    umins = np.array([r.umin for r in traj.diagnostics])
    umaxs = np.array([r.umax for r in traj.diagnostics])
    lmins = np.array([r.lambda_min for r in traj.diagnostics])
    assert np.all(umins >= min(1.0, umins[0]) - 1e-6)
    assert np.all(umaxs <= max(1.0, umaxs[0]) + 1e-6)
    assert np.all(lmins > 0.05)
    qmins = np.array([r.Q_min for r in traj.diagnostics])
    qmaxs = np.array([r.Q_max for r in traj.diagnostics])
    assert qmins.min() > 0.1 * qmins[0]
    assert qmaxs.max() < 10.0 * qmaxs[0]


def test_raw_normalized_consistency(grid64):
    # evolving the raw flow and rescaling by the dilation factor matches the
    # round-normalized flow; the time remap carries a 1/gamma factor relative
    # to the closed-form normalized_time (see the round-solution ODE)
    p = p_of(1, 1.0, -2.0)
    u0 = ac.translated_ball(grid64, 0.2)
    t_end = 1.0
    raw = ac.run(
        u0, p, "raw", StoppingConfig(t_max=t_end, tol_conv=0.0, record_every=10**9, fixed_dt=1e-4)
    )
    tau_end = ac.normalized_time(t_end, p) / p.gamma
    nef = ac.run(
        u0,
        p,
        "round_normalized",
        StoppingConfig(t_max=tau_end, tol_conv=0.0, record_every=10**9, fixed_dt=tau_end / 10000),
    )
    phi = ac.scale_factor(t_end, p)
    assert np.max(np.abs(raw.final().values / phi - nef.final().values)) < 1e-4


def test_dual_flow_identity(grid200):
    p = p_of(1, 1.5, -2.0)
    s0 = ac.translated_ball(grid200, 0.2)
    r0 = ac.polar_dual(s0)
    stop = StoppingConfig(t_max=0.25, tol_conv=0.0, record_every=1000, fixed_dt=2e-5)
    tr_s = ac.run(s0, p, "raw", stop)
    tr_r = ac.run(r0, p, "dual_radial", stop)
    assert tr_s.stop_reason == tr_r.stop_reason == "t_max"
    for ts, tr in zip(tr_s.times, tr_r.times):
        assert abs(ts - tr) < 1e-12
    worst = max(
        np.max(np.abs(r.values * s.values - 1.0))
        for s, r in zip(tr_s.snapshots, tr_r.snapshots)
    )
    assert worst < 1e-6


def test_raw_supercritical_pinches_translate(grid64):
    # far enough from round, the supercritical raw flow genuinely loses
    # uniform convexity; the engine must stop cleanly, not crash
    p = p_of(1, 1.5, 0.5)
    traj = ac.run(
        ac.translated_ball(grid64, 0.35),
        p,
        "raw",
        StoppingConfig(t_max=5.0, tol_conv=0.0, record_every=100),
    )
    assert traj.stop_reason in ("convexity_lost", "ratio_blowup", "step_underflow")


def test_rosenbrock_agrees_with_explicit(grid64):
    p = p_of(1, 2.0, -2.0)
    eng = _Engine(grid64, p, "round_normalized")
    u = ac.translated_ball(grid64, 0.3).values.copy()
    v = u.copy()
    dt = 2e-5
    for _ in range(400):
        u = eng.rk4(u, dt)
        v, _ = eng.ros3(v, dt)
    assert np.max(np.abs(u - v)) < 1e-4


def test_rosenbrock_stable_beyond_cfl(grid64):
    # 100x the explicit CFL limit: still marches to the round fixed point
    p = p_of(1, 2.0, -2.0)
    eng = _Engine(grid64, p, "round_normalized")
    v = ac.translated_ball(grid64, 0.3).values.copy()
    for _ in range(600):
        v, _ = eng.ros3(v, 0.01)
    assert np.max(np.abs(v - 1.0)) < 1e-5


def test_implicit_fallback_engages(grid64):
    # an artificially high dt_min puts the step floor to work inside run()
    p = p_of(1, 2.0, -2.0)
    stop = StoppingConfig(t_max=6.0, tol_conv=1e-5, record_every=50, dt_min=1e-3)
    traj = ac.run(ac.translated_ball(grid64, 0.2), p, "round_normalized", stop)
    assert traj.stop_reason in ("converged", "t_max")
    assert np.max(np.abs(traj.final().values - 1.0)) < 1e-2


def test_trajectory_records(grid64):
    p = p_of(1, 2.0, -2.0)
    stop = StoppingConfig(t_max=0.01, tol_conv=0.0, record_every=7)
    traj = ac.run(ac.translated_ball(grid64, 0.1), p, "round_normalized", stop)
    assert traj.stop_reason == "t_max"
    assert len(traj.times) == len(traj.snapshots) == len(traj.diagnostics)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.01, abs=1e-12)
    # physical time is reconstructed alongside the normalized time
    for rec in traj.diagnostics:
        assert rec.t >= 0.0 and np.isfinite(rec.t)


def test_rosenbrock_order_against_barrier():
    # round bodies stay round, so the only error left is the time error
    g = ac.make_grid(16)
    p = p_of(1, 1.0, -2.0)
    exact = ac.barrier(0.5, 1.0, p)
    errs = []
    for n in (20, 40):
        eng = _Engine(g, p, "round_normalized")
        v = ac.round_body(g, 0.5).values.copy()
        for _ in range(n):
            v, _ = eng.ros3(v, 1.0 / n)
        errs.append(np.max(np.abs(v - exact)))
    assert np.log2(errs[0] / errs[1]) >= 2.8


def test_rk4_order_on_fixed_dt_path():
    g = ac.make_grid(16)
    p = p_of(1, 1.0, -2.0)
    errs = []
    for n in (160, 320):
        stop = StoppingConfig(t_max=1.0, tol_conv=0.0, record_every=10**9, fixed_dt=1.0 / n)
        traj = ac.run(ac.round_body(g, 0.5), p, "round_normalized", stop)
        assert traj.stats.accepted == n and traj.stats.rhs_evaluations == 4 * n + 1
        errs.append(np.max(np.abs(traj.final().values - ac.barrier(0.5, 1.0, p))))
    assert np.log2(errs[0] / errs[1]) >= 3.8


def test_conserved_integral_drift(grid64):
    """int u sigma_k dmu along the volume-normalized flow.

    The semi-discrete flow itself does not conserve the integral: by
    tau = 0.05 it has moved by about 3e-7 here, under fixed-step RK4 as under
    Ros3.  The integrator's own share is the difference between the two,
    and it must stay below 1e-8.  At a steady state eta * int u sigma_k =
    eta * |S^2|, so a run to convergence ends where it started.
    """
    f = ac.power_of_linear_anisotropy(grid64, 0.2, 5.0)
    p = p_of(1, 2.0, -2.0, f=f)
    u0 = ac.normalize_body(ac.spheroid_support(grid64, 1.0, 1.5), 1)
    ros = ac.run(u0, p, "volume_normalized", StoppingConfig(t_max=0.05, tol_conv=0.0))
    ref = ac.run(
        u0, p, "volume_normalized", StoppingConfig(t_max=0.05, tol_conv=0.0, fixed_dt=2.5e-5)
    )
    assert ros.stats.jacobian_evaluations == ros.stats.accepted > 0
    assert abs(ros.usigma[-1] - ref.usigma[-1]) <= 1e-8
    traj = ac.run(u0, p, "volume_normalized", StoppingConfig(t_max=30.0, tol_conv=1e-7))
    assert traj.stop_reason == "converged"
    assert abs(traj.usigma[-1] - traj.usigma[0]) <= 1e-8


def test_volume_normalized_records_no_physical_time(grid64):
    """The physical time of the volume-normalized flow is not a function of
    the normalized state: with a normalized start, t(tau) is the integral
    of exp(-q * int_0^s eta) ds over [0, tau], so it needs eta along the
    run.  A rate read off the normalized body, whose int u sigma_k is held
    at |S^2|, is 1 and only repeats tau; the records carry t = nan."""
    p = p_of(1, 2.0, -2.0)
    u0 = ac.normalize_body(ac.spheroid_support(grid64, 1.0, 1.5), 1)
    stop = StoppingConfig(t_max=0.1, tol_conv=0.0, record_every=10)
    traj = ac.run(u0, p, "volume_normalized", stop)
    assert len(traj.diagnostics) > 2
    assert all(np.isnan(rec.t) for rec in traj.diagnostics)
    assert [rec.tau for rec in traj.diagnostics] == traj.times


def test_run_stats(grid64):
    p = p_of(1, 2.0, -2.0)
    stop = StoppingConfig(t_max=0.05, tol_conv=0.0, record_every=7)
    traj = ac.run(ac.translated_ball(grid64, 0.1), p, "round_normalized", stop)
    st = traj.stats
    assert st.accepted > 0 and st.jacobian_evaluations == st.accepted
    # one right side at the start, and two per attempted step: stage 2 and
    # the result (no attempt here loses convexity)
    assert st.convexity_rejections == 0
    assert st.rhs_evaluations == 2 * (st.accepted + st.rejected) + 1
    assert 0 < st.step_min <= st.step_max
    # adaptive runs record at the time marks, not every record_every steps
    assert st.record_steps[0] == 0 and st.record_steps[-1] == st.accepted
    assert all(b > a for a, b in zip(st.record_steps, st.record_steps[1:]))
    assert len(st.record_steps) == len(traj.times)


def test_records_on_time_marks(grid64):
    p = p_of(1, 2.0, -2.0)
    u0 = ac.translated_ball(grid64, 0.1)
    stop = StoppingConfig(t_max=2.0, tol_conv=0.0, record_every=100)
    traj = ac.run(u0, p, "round_normalized", stop)
    span = stop.record_every * _RECORD_DT
    assert traj.stop_reason == "t_max"
    assert traj.times == [j * span for j in range(len(traj.times) - 1)] + [2.0]
    assert len(traj.times) == 11
    # no step cap: the controller's steps exceed the record spacing constant
    assert traj.stats.step_max > 0.002

    # t_max is the last mark: a 0.0005 gap below dt_min = 1e-3 is not a step
    # of its own, so the run neither underflows nor stops short of t_max; a
    # stretched step that fails error control must not be retried unchanged
    stop = StoppingConfig(t_max=0.3005, tol_conv=0.0, record_every=50, dt_min=1e-3)
    traj = ac.run(u0, p, "round_normalized", stop)
    span = stop.record_every * _RECORD_DT
    assert traj.stop_reason in ("t_max", "converged")
    assert traj.times == [0.0, span, 2 * span, 0.3005]
    assert traj.stats.step_min >= 1e-3


def test_adaptive_step_count_case_b():
    # criterion 5's case B at N = 32: with steps capped at 0.002 the run took
    # 1361 accepted steps; the error controller alone needs about 231
    g = ac.make_grid(32)
    f = ac.tabulated_anisotropy(g, 1.0 + 0.3 * np.cos(2 * g.theta))
    p = p_of(2, 1.0, -2.0, f=f)
    u0 = ac.normalize_body(ac.spheroid_support(g, 1.0, 1.5), 2)
    stop = StoppingConfig(t_max=30.0, tol_conv=1e-7, record_every=200)
    traj = ac.run(u0, p, "volume_normalized", stop)
    assert traj.stop_reason == "converged"
    assert traj.stats.accepted < 1361 // 2


@pytest.mark.parametrize(
    "bad",
    [dict(fixed_dt=0.0, dt_min=0.0), dict(fixed_dt=-1e-3), dict(dt_min=0.0), dict(dt_min=-1.0)],
)
def test_run_rejects_nonpositive_steps(grid64, bad):
    # a zero step and floor would spin to max_steps, a negative step would
    # stop at once with step_underflow: both are configuration errors
    stop = StoppingConfig(t_max=0.01, tol_conv=0.0, max_steps=1000, **bad)
    with pytest.raises(ValueError):
        ac.run(ac.translated_ball(grid64, 0.1), p_of(1, 2.0, -2.0), "round_normalized", stop)


@pytest.mark.parametrize("bad", [dict(t_max=float("nan")), dict(tol_conv=float("nan"))])
def test_run_rejects_nan_stopping_values(grid64, bad):
    # t_max = nan reached the band solver, which failed on a NaN step, and
    # tol_conv = nan switched the convergence stop off without a word
    stop = StoppingConfig(**{"t_max": 0.01, "tol_conv": 0.0, **bad})
    with pytest.raises(ValueError, match="invalid stopping configuration"):
        ac.run(ac.translated_ball(grid64, 0.1), p_of(1, 2.0, -2.0), "round_normalized", stop)


@pytest.mark.parametrize("R_blowup", [float("nan"), 1.0, 0.5])
def test_run_rejects_blowup_ratio_at_most_one(grid64, R_blowup):
    # max u / min u >= 1 always, so R_blowup <= 1 stops every run at once,
    # and NaN switched the ratio stop off without a word
    stop = StoppingConfig(t_max=0.01, tol_conv=0.0, R_blowup=R_blowup)
    with pytest.raises(ValueError, match="invalid stopping configuration"):
        ac.run(ac.translated_ball(grid64, 0.1), p_of(1, 2.0, -2.0), "round_normalized", stop)


@pytest.mark.parametrize("mode", ["raw", "round_normalized", "volume_normalized", "dual_radial"])
def test_local_on_a_stack_matches_rows(mode):
    # the Jacobian evaluates its 10 perturbed profiles as one (10, n) stack;
    # each row must carry the bits of a 1-D evaluation
    g = ac.make_grid(48)
    f = ac.tabulated_anisotropy(g, 1.0 + 0.3 * np.cos(2 * g.theta))
    p = p_of(2, 1.0, -2.0, f=f if mode in ("raw", "volume_normalized") else None)
    u = ac.normalize_body(ac.spheroid_support(g, 1.0, 1.4), 2).values
    if mode == "dual_radial":
        u = 1.0 / u
    stack = u * (1.0 + 1e-7 * np.random.default_rng(5).standard_normal((10, g.n)))
    eng = _Engine(g, p, mode)
    batched = eng._local(stack)
    assert batched.shape == stack.shape
    for r, row in enumerate(stack):
        assert np.array_equal(batched[r], eng._local(row))


def test_soliton_residual_on_a_stack_matches_rows():
    g = ac.make_grid(48)
    f = ac.power_of_linear_anisotropy(g, 0.2, 5.0)
    prob = ac.SolitonProblem(p_of(1, 2.0, -2.0, f=f), 1.0)
    u = 1.1 * ac.spheroid_support(g, 1.0, 1.2).values
    stack = u * (1.0 + 1e-7 * np.random.default_rng(6).standard_normal((10, g.n)))
    batched = ac.soliton_residual(ac.ScalarField(g, stack), prob).values
    for r, row in enumerate(stack):
        assert np.array_equal(batched[r], ac.soliton_residual(ac.ScalarField(g, row), prob).values)


@pytest.mark.parametrize("mode", ["raw", "round_normalized", "volume_normalized", "dual_radial"])
def test_jacobian_matches_dense_differences(mode):
    # B - eta*I - u (x) grad_eta against column-by-column central differences
    # of the full right side; eta couples every node in the volume mode
    g = ac.make_grid(16)
    f = ac.tabulated_anisotropy(g, 1.0 + 0.3 * np.cos(2 * g.theta))
    p = p_of(2, 1.0, -2.0, f=f if mode in ("raw", "volume_normalized") else None)
    u = ac.normalize_body(ac.spheroid_support(g, 1.0, 1.4), 2).values
    eng = _Engine(g, p, mode)
    band, eta, grad = eng.jacobian(u)
    jac = -eta * np.eye(g.n) - np.outer(u, grad)
    for d in range(-2, 3):
        j = np.arange(max(0, -d), min(g.n, g.n - d))
        jac[j + d, j] += band[2 + d, j]
    dense = np.empty((g.n, g.n))
    for j in range(g.n):
        e = np.zeros(g.n)
        e[j] = 6e-8 * max(1.0, u[j])
        dense[:, j] = (eng.rhs(u + e) - eng.rhs(u - e)) / (2.0 * e[j])
    assert np.max(np.abs(jac - dense)) <= 1e-9 * np.max(np.abs(dense))
    if mode != "volume_normalized":
        assert eta == 0.0 and not grad.any()


def _jacobians_equal(a, b):
    return np.array_equal(a[0], b[0]) and a[1] == b[1] and np.array_equal(a[2], b[2])


@pytest.mark.parametrize("mode", ["raw", "round_normalized", "volume_normalized", "dual_radial"])
def test_jacobian_reuses_no_stale_speed(mode):
    # the volume-normalized Jacobian takes the speed and sigma_k of the last
    # right side when that was evaluated at the same array; after a right
    # side elsewhere, or a step that lost convexity after some stages, it
    # must still equal the Jacobian of a fresh engine bit for bit
    g = ac.make_grid(32)
    f = ac.tabulated_anisotropy(g, 1.0 + 0.3 * np.cos(2 * g.theta))
    p = p_of(2, 1.0, -2.0, f=f if mode in ("raw", "volume_normalized") else None)
    u = ac.normalize_body(ac.spheroid_support(g, 1.0, 1.4), 2).values
    other = ac.normalize_body(ac.spheroid_support(g, 1.0, 1.2), 2).values
    if mode == "dual_radial":
        u, other = 1.0 / u, 1.0 / other
    fresh = _Engine(g, p, mode).jacobian(u)

    eng = _Engine(g, p, mode)
    eng.rhs(u)
    assert _jacobians_equal(eng.jacobian(u), fresh)
    eng.rhs(u)
    eng.rhs(other)
    assert _jacobians_equal(eng.jacobian(u), fresh)
    f0 = eng.rhs(u)
    before = eng.stats.rhs_evaluations
    with pytest.raises(ac.ConvexityLostError):
        eng.rk4(u, 0.2, k1=f0)
    assert eng.stats.rhs_evaluations - before >= 2  # a stage passed before the loss
    assert _jacobians_equal(eng.jacobian(u), fresh)


def test_one_kernel_evaluation_per_right_side_and_jacobian(grid64, monkeypatch):
    # every right side and every Jacobian (its 10 perturbed profiles in one
    # batch) evaluates the speed once, and each record once for its
    # diagnostics; the Jacobian reuses the speed of the step's own f0
    calls = []
    evaluate = functionals._evaluate

    def counted(*args):
        calls.append(1)
        return evaluate(*args)

    monkeypatch.setattr(functionals, "_evaluate", counted)
    monkeypatch.setattr(flow, "_evaluate", counted)
    f = ac.tabulated_anisotropy(grid64, 1.0 + 0.3 * np.cos(2 * grid64.theta))
    u0 = ac.normalize_body(ac.spheroid_support(grid64, 1.0, 1.5), 2)
    stop = StoppingConfig(t_max=0.05, tol_conv=0.0, record_every=5)
    traj = ac.run(u0, p_of(2, 1.0, -2.0, f=f), "volume_normalized", stop)
    st = traj.stats
    assert st.accepted > 0 and len(traj.diagnostics) > 2
    assert len(calls) == st.rhs_evaluations + st.jacobian_evaluations + len(traj.diagnostics)


@pytest.mark.parametrize("dt", [float("nan"), float("inf"), 0.0, -1e-3])
def test_step_rejects_non_finite_or_nonpositive_dt(grid64, dt):
    # nan and inf reached the kernel and came back as a ConvexityLostError
    # that blamed the body
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        ac.step(ac.translated_ball(grid64, 0.1), p_of(1, 2.0, -2.0), "raw", dt)


@pytest.mark.parametrize(
    "bad, message",
    [
        (dict(fixed_dt=float("inf")), "fixed_dt must be positive and finite"),
        (dict(dt_min=float("inf")), "invalid stopping configuration"),
    ],
)
def test_run_rejects_infinite_steps(grid64, bad, message):
    # fixed_dt = inf took one step of t_max and counted it as accepted;
    # dt_min = inf passed, and the run stopped at once with step_underflow
    stop = StoppingConfig(t_max=0.01, tol_conv=0.0, **bad)
    with pytest.raises(ValueError, match=message):
        ac.run(ac.translated_ball(grid64, 0.1), p_of(1, 2.0, -2.0), "raw", stop)


@pytest.mark.parametrize("mode", ["raw", "dual_radial"])
def test_fixed_dt_run_matches_written_out_rk4(grid64, mode):
    # every record of a fixed-step run equals a textbook RK4 loop bit for bit:
    # the in-place stage sums keep the order of the sums written out here
    p = p_of(1, 1.5, -2.0)
    u0 = ac.translated_ball(grid64, 0.2)
    if mode == "dual_radial":
        u0 = ac.polar_dual(u0)
    dt = 2.0**-14  # multiples of dt are exact, so the run takes 50 whole steps
    stop = StoppingConfig(t_max=50 * dt, tol_conv=0.0, record_every=1, fixed_dt=dt)
    traj = ac.run(u0, p, mode, stop)
    assert traj.stop_reason == "t_max" and traj.stats.accepted == 50

    rhs = _Engine(grid64, p, mode).rhs
    vals = u0.values.copy()
    expected = [vals]
    for _ in range(50):
        k1 = rhs(vals)
        k2 = rhs(vals + 0.5 * dt * k1)
        k3 = rhs(vals + 0.5 * dt * k2)
        k4 = rhs(vals + dt * k3)
        vals = vals + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        expected.append(vals)
    assert len(traj.snapshots) == len(expected)
    for snap, want in zip(traj.snapshots, expected):
        assert np.array_equal(snap.values, want)


def test_rk4_sums_keep_their_order(grid64):
    # at a parabolic dt the increment sits far below the state's last bit, so
    # a regrouped sum would rarely show in a flow; a right side whose
    # increments are as large as the state shows any regrouping at once
    rng = np.random.default_rng(9)
    eng = _Engine(grid64, p_of(1, 2.0, -2.0), "raw")
    eng.rhs = lambda y: np.cos(7.0 * y) * y
    rhs = eng.rhs
    for _ in range(20):
        vals, dt = rng.uniform(1.0, 2.0, grid64.n), rng.uniform(0.1, 1.0)
        k1 = rhs(vals)
        k2 = rhs(vals + 0.5 * dt * k1)
        k3 = rhs(vals + 0.5 * dt * k2)
        k4 = rhs(vals + dt * k3)
        want = vals + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert np.array_equal(eng.rk4(vals, dt), want)
        assert np.array_equal(eng.rk4(vals, dt, k1=k1), want)


def _layouts(values):
    """(array, arrays to watch): values as a contiguous profile, a strided
    view (watched with the array that owns its memory) and a (10, N) stack in
    C and in Fortran order."""
    rng = np.random.default_rng(5)
    stack = values * (1.0 + 1e-6 * rng.standard_normal((10, values.size)))
    wide = np.repeat(values, 2)
    fortran = np.asfortranarray(stack)
    return [(values.copy(), []), (wide[::2], [wide]), (stack, []), (fortran, [])]


def _unchanged(arrays, call):
    """Run call() and assert that every array keeps its bytes."""
    before = [a.tobytes(order="A") for a in arrays]
    result = call()
    assert [a.tobytes(order="A") for a in arrays] == before
    return result


@pytest.mark.parametrize("mode", ["raw", "round_normalized", "volume_normalized", "dual_radial"])
def test_no_function_changes_its_arguments(grid64, mode):
    # the kernel, the right sides and the steps read their inputs and write
    # only arrays of their own; rk4's in-place sums never touch vals or k1
    from anicurve.body import _radii
    from anicurve.sphere import _derivatives, _extend

    g = grid64
    u = ac.normalize_body(ac.spheroid_support(g, 1.0, 1.3), 1).values
    if mode == "dual_radial":
        u = 1.0 / u
    p = p_of(1, 2.0, -2.0)
    for vals, owners in _layouts(u):
        held = [vals, *owners]
        if mode == "raw":  # the kernel does not depend on the mode
            for parity in ("even", "odd"):
                _unchanged(held, lambda: _extend(vals, parity))
                _unchanged(held, lambda: _derivatives(vals, g.h, parity))
            _unchanged(held, lambda: _radii(vals, g, p.k))
        if vals.ndim > 1:
            continue
        eng = _Engine(g, p, mode)
        k1 = _unchanged(held, lambda: eng.rhs(vals))
        held.append(k1)
        for given in (None, k1):
            new = _unchanged(held, lambda: eng.rk4(vals, 1e-5, k1=given))
            assert not np.shares_memory(new, vals) and not np.shares_memory(new, k1)
        jac = _unchanged(held, lambda: eng.jacobian(vals))
        held.extend(a for a in jac if isinstance(a, np.ndarray))
        _unchanged(held, lambda: eng.ros3(vals, 1e-3))
        _unchanged(held, lambda: eng.ros3(vals, 1e-3, k1, jac))
        _unchanged(held, lambda: ac.step(ac.ScalarField(g, vals), p, mode, 1e-5))
