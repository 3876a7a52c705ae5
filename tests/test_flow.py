import math

import numpy as np
import pytest
from scipy.linalg.lapack import dgbtrf, dgbtrs

import anicurve as ac
from anicurve import FlowParams, StoppingConfig
from anicurve import flow, functionals
from anicurve.flow import _ATOL, _RECORD_DT, _RODAS_A, _RODAS_C, _RODAS_GAMMA, _RTOL, _Engine
from conftest import exact_spheroid_soliton, observed_orders


def p_of(k, beta, alpha, f=None):
    return FlowParams(k=k, beta=beta, alpha=alpha, f=f)


def _rodas4(eng, vals, dt):
    """One RODAS4 step from vals with the right side and Jacobian there."""
    f0, nodes = eng.rhs(vals)
    return eng.rodas4(vals, dt, f0, eng.jacobian(vals, nodes))


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


def test_anisotropy_of_ones_is_f_equal_one():
    # f = 1 has one representation: a raw run with a table of ones recorded
    # tau = nan, where the same run with f = None records the closed form
    grid = ac.make_grid(32)
    assert p_of(1, 2.0, -2.0, f=ac.constant_anisotropy(grid, 1.0)).f is None
    stop = StoppingConfig(t_max=0.01)
    ones = p_of(1, 2.0, -2.0, f=ac.tabulated_anisotropy(grid, np.ones(grid.n)))
    u0 = ac.translated_ball(grid, 0.2)
    with_table, plain = ac.run(u0, ones, "raw", stop), ac.run(u0, p_of(1, 2.0, -2.0), "raw", stop)
    assert with_table.diagnostics[-1].tau == plain.diagnostics[-1].tau
    assert all(a.values.tobytes() == b.values.tobytes()
               for a, b in zip(with_table.snapshots, plain.snapshots, strict=True))
    assert plain.diagnostics[-1].tau == ac.normalized_time(0.01, ones)


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
    assert ac.normalized_time(2.0, p) == pytest.approx(np.log(9) / 4, rel=1e-14)
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
    # round-normalized flow at tau = normalized_time(t)
    p = p_of(1, 1.0, -2.0)
    u0 = ac.translated_ball(grid64, 0.2)
    t_end = 1.0
    raw = ac.run(u0, p, "raw", StoppingConfig(t_max=t_end, tol_conv=0.0, record_every=10**9))
    tau_end = ac.normalized_time(t_end, p)
    nef = ac.run(
        u0, p, "round_normalized", StoppingConfig(t_max=tau_end, tol_conv=0.0, record_every=10**9)
    )
    phi = ac.scale_factor(t_end, p)
    assert np.max(np.abs(raw.final().values / phi - nef.final().values)) < 1e-4


def test_dual_flow_identity(grid200):
    p = p_of(1, 1.5, -2.0)
    s0 = ac.translated_ball(grid200, 0.2)
    r0 = ac.polar_dual(s0)
    stop = StoppingConfig(t_max=0.25, tol_conv=0.0, record_every=10)
    tr_s = ac.run(s0, p, "raw", stop)
    tr_r = ac.run(r0, p, "dual_radial", stop)
    assert tr_s.stop_reason == tr_r.stop_reason == "t_max"
    for ts, tr in zip(tr_s.times, tr_r.times):
        assert abs(ts - tr) < 1e-12
    # dual records describe w = 1/r, a body of the raw flow, and take its tau
    assert [r.tau for r in tr_r.diagnostics] == [r.tau for r in tr_s.diagnostics]
    t_end, tau_end = tr_s.times[-1], tr_s.diagnostics[-1].tau
    assert tau_end == ac.normalized_time(t_end, p) and tau_end < t_end
    worst = max(
        np.max(np.abs(r.values * s.values - 1.0))
        for s, r in zip(tr_s.snapshots, tr_r.snapshots)
    )
    assert worst < 1e-6


@pytest.mark.parametrize("k, beta", [(1, 2.0), (2, 1.0)], ids=["gamma=4", "gamma=1"])
def test_raw_and_round_normalized_records_share_one_clock(k, beta):
    # the raw round body of radius 0.5 at t, divided by scale_factor(t), is
    # the exact round-normalized solution (barrier) at the tau its record
    # carries; a round-normalized run to that tau records the raw run's t
    p = p_of(k, beta, -2.0)
    q, a = p.q, 0.5
    grid = ac.make_grid(32)
    raw = ac.run(ac.round_body(grid, a), p, "raw", StoppingConfig(t_max=0.3, tol_conv=0.0))
    rec = raw.diagnostics[-1]
    assert rec.t == 0.3
    v = raw.final().values / ac.scale_factor(rec.t, p)
    # barrier(a, tau) = v solved for tau
    taus = np.log((1.0 - v ** (-q)) / (1.0 - a ** (-q))) / (q * p.gamma)
    assert np.max(np.abs(taus - rec.tau)) < 1e-12
    nef = ac.run(
        ac.round_body(grid, a), p, "round_normalized", StoppingConfig(t_max=rec.tau, tol_conv=0.0)
    )
    assert nef.times[-1] == rec.tau
    assert abs(nef.diagnostics[-1].t - 0.3) < 1e-12


def test_time_map_is_continuous_across_the_critical_line():
    # the map moves by O(q) next to the line: scale_factor by 1.06e-8
    # relative at q = 1e-9, with no jump to tau = t and no cancellation in
    # 1 + m*gamma*t at q = 1e-13
    line = p_of(1, 2.2, -1.2)
    assert line.q == 0.0
    for offset in (1e-9, -1e-9, 1e-13):
        near = p_of(1, 2.2, -1.2 + offset)
        assert near.q != 0.0
        for clock in (ac.normalized_time, ac.scale_factor):
            assert clock(1.0, near) == pytest.approx(clock(1.0, line), rel=1e-7)


def test_round_normalized_record_time_past_the_double_range_is_inf():
    # t = expm1(m*gamma*tau) / (m*gamma) with m*gamma = 36 leaves the double
    # range before tau = 20: the record reads inf rather than raising
    p = p_of(1, 2.0, -10.0)
    stop = StoppingConfig(t_max=20.0, tol_conv=0.0, record_every=2000)
    traj = ac.run(ac.round_body(ac.make_grid(32), 0.9), p, "round_normalized", stop)
    assert traj.stop_reason == "t_max"
    *_, before, last = (rec.t for rec in traj.diagnostics)
    assert 1e200 < before < math.inf and last == math.inf


@pytest.mark.parametrize("losses, reason", [(3, "t_max"), (4, "convexity_lost")])
def test_convexity_loss_halves_the_step_three_times(grid64, monkeypatch, losses, reason):
    # the first `losses` attempts lose convexity at their first right side:
    # each is rejected and retried at half its size, so the third halving,
    # dt/8, is accepted, and a fourth loss stops the run
    rhs = _Engine.rhs
    calls = []

    def losing(self, vals):
        calls.append(None)
        if 2 <= len(calls) <= 1 + losses:  # call 1 is the run's start
            raise ac.ConvexityLostError("lost")
        return rhs(self, vals)

    monkeypatch.setattr(_Engine, "rhs", losing)
    dt = 1e-3
    stop = StoppingConfig(t_max=4 * dt, tol_conv=0.0, fixed_dt=dt)
    traj = ac.run(ac.round_body(grid64, 1.0), p_of(1, 2.0, -2.0), "raw", stop)
    stats = traj.stats
    assert traj.stop_reason == reason
    assert stats.convexity_rejections == stats.rejected == losses
    if reason == "t_max":
        assert stats.step_min == dt / 8 and stats.step_max == dt
        assert traj.times[-1] == pytest.approx(4 * dt, rel=1e-12)
    else:
        assert stats.accepted == 0 and traj.times == [0.0]


def test_raw_supercritical_translate_rounds_out_until_step_underflow(grid64):
    # the supercritical raw flow from a translated ball keeps every attempt
    # convex and rounds out (u_max/u_min from 2.08 to within 1e-3 of 1) as it
    # blows up: a round body of radius 1 reaches infinity at t = 2^(-3/2) =
    # 0.3536; the step controller then asks for less than the floor
    p = p_of(1, 1.5, 0.5)
    traj = ac.run(
        ac.translated_ball(grid64, 0.35),
        p,
        "raw",
        StoppingConfig(t_max=5.0, tol_conv=0.0, record_every=100),
    )
    assert traj.stop_reason == "step_underflow"
    assert traj.stats.convexity_rejections == 0
    assert traj.diagnostics[-1].R < 1.001
    assert 0.35 < traj.times[-1] < 0.36


def test_no_step_is_accepted_above_the_tolerance(grid64, monkeypatch):
    # on the pinching raw flow the controller asks for ever smaller steps;
    # 55 attempts at the floor, with scaled errors from 1.04 up to 9.9e7, were
    # accepted before the run stopped.  Every accepted attempt must now have
    # err <= 1, and the run still stops with step_underflow
    attempts = []  # (accepted steps before the attempt, h, err)
    original = _Engine.rodas4

    def recording(self, vals, dt, f0, jac):
        new, err = original(self, vals, dt, f0, jac)
        attempts.append((self.stats.accepted, dt, err))
        return new, err

    monkeypatch.setattr(_Engine, "rodas4", recording)
    stop = StoppingConfig(t_max=5.0, tol_conv=0.0, record_every=100)
    traj = ac.run(ac.translated_ball(grid64, 0.35), p_of(1, 1.5, 0.5), "raw", stop)
    assert traj.stop_reason == "step_underflow"
    counts = [a[0] for a in attempts] + [traj.stats.accepted]
    accepted = [a for a, after in zip(attempts, counts[1:]) if after > a[0]]
    assert len(accepted) == traj.stats.accepted > 0
    assert all(err <= 1.0 for _, _, err in accepted)
    assert traj.stats.step_min >= flow._DT_MIN


def test_rosenbrock_agrees_with_explicit(grid64):
    p = p_of(1, 2.0, -2.0)
    eng = _Engine(grid64, p, "round_normalized")
    u = ac.translated_ball(grid64, 0.3).values.copy()
    v = u.copy()
    dt = 2e-5
    for _ in range(400):
        u = eng.rk4(u, dt)
        v, _ = _rodas4(eng, v, dt)
    assert np.max(np.abs(u - v)) < 1e-4


def test_rosenbrock_stable_beyond_cfl(grid64):
    # 100x the explicit CFL limit: still marches to the round fixed point
    p = p_of(1, 2.0, -2.0)
    eng = _Engine(grid64, p, "round_normalized")
    v = ac.translated_ball(grid64, 0.3).values.copy()
    for _ in range(600):
        v, _ = _rodas4(eng, v, 0.01)
    assert np.max(np.abs(v - 1.0)) < 1e-5


def test_implicit_fallback_engages(grid64, monkeypatch):
    # an artificially high floor puts the step floor to work inside run()
    monkeypatch.setattr(flow, "_DT_MIN", 1e-3)
    p = p_of(1, 2.0, -2.0)
    stop = StoppingConfig(t_max=6.0, tol_conv=1e-5, record_every=50)
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
            v, _ = _rodas4(eng, v, 1.0 / n)
        errs.append(np.max(np.abs(v - exact)))
    assert np.log2(errs[0] / errs[1]) >= 2.8


def test_rodas4_order_against_barrier():
    # the step is of order 4 (measured 4.31 here); the embedded order-3
    # solution would show as 3
    g = ac.make_grid(16)
    p = p_of(1, 1.0, -2.0)
    exact = ac.barrier(0.5, 1.0, p)
    errs = []
    for n in (20, 40):
        eng = _Engine(g, p, "round_normalized")
        v = ac.round_body(g, 0.5).values.copy()
        for _ in range(n):
            v, _ = _rodas4(eng, v, 1.0 / n)
        errs.append(np.max(np.abs(v - exact)))
    assert np.log2(errs[0] / errs[1]) >= 3.8


def test_rodas4_order_with_rank_one_drift():
    # criterion 5's case B, volume-normalized from a spheroid: grad eta is
    # nonzero, so every solve takes a live Sherman-Morrison correction.
    # Against 2560 steps the errors at 10, 20 and 40 steps measured 8.00e-10,
    # 4.85e-11 and 2.98e-12 (orders 4.04 and 4.02)
    g = ac.make_grid(32)
    f = ac.tabulated_anisotropy(g, 1.0 + 0.3 * np.cos(2 * g.theta))
    p = p_of(2, 1.0, -2.0, f=f)
    u0 = ac.normalize_body(ac.spheroid_support(g, 1.0, 1.5), 2).values

    def final(n):
        eng = _Engine(g, p, "volume_normalized")
        v = u0
        for _ in range(n):
            v, _ = _rodas4(eng, v, 0.05 / n)
        return v

    eng = _Engine(g, p, "volume_normalized")
    assert eng.jacobian(u0, eng.rhs(u0)[1])[2].any()
    ref = final(2560)
    errs = [np.max(np.abs(final(n) - ref)) for n in (10, 20, 40)]
    assert min(np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])) >= 3.8


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
    # one right side at the start, and six per attempted step: stages 2 to 5,
    # the embedded solution and the result (no attempt here loses convexity)
    assert st.convexity_rejections == 0
    assert st.rhs_evaluations == 6 * (st.accepted + st.rejected) + 1
    assert 0 < st.step_min <= st.step_max
    # adaptive runs record at the time marks, not every record_every steps
    assert st.record_steps[0] == 0 and st.record_steps[-1] == st.accepted
    assert all(b > a for a, b in zip(st.record_steps, st.record_steps[1:]))
    assert len(st.record_steps) == len(traj.times)


def test_records_on_time_marks(grid64, monkeypatch):
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

    # t_max is the last mark: a 0.0005 gap below a floor of 1e-3 is not a
    # step of its own, so the run neither underflows nor stops short of t_max
    monkeypatch.setattr(flow, "_DT_MIN", 1e-3)
    stop = StoppingConfig(t_max=0.3005, tol_conv=0.0, record_every=50)
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


def test_adaptive_work_count_case_b():
    # criterion 5's case B at N = 200: the order-3 Ros3 steps it took before
    # numbered 237 at this tolerance, RODAS4 takes 73; one Jacobian per step
    g = ac.make_grid(200)
    f = ac.tabulated_anisotropy(g, 1.0 + 0.3 * np.cos(2 * g.theta))
    p = p_of(2, 1.0, -2.0, f=f)
    u0 = ac.normalize_body(ac.spheroid_support(g, 1.0, 1.5), 2)
    stop = StoppingConfig(t_max=30.0, tol_conv=1e-7, record_every=200)
    traj = ac.run(u0, p, "volume_normalized", stop)
    assert traj.stop_reason == "converged"
    assert traj.stats.accepted < 120
    assert traj.stats.jacobian_evaluations == traj.stats.accepted


@pytest.mark.parametrize("bad", [dict(fixed_dt=0.0), dict(fixed_dt=-1e-3)])
def test_run_rejects_nonpositive_steps(grid64, bad):
    # a zero or negative step would stop at once with step_underflow: both
    # are configuration errors
    stop = StoppingConfig(t_max=0.01, tol_conv=0.0, **bad)
    with pytest.raises(ValueError):
        ac.run(ac.translated_ball(grid64, 0.1), p_of(1, 2.0, -2.0), "round_normalized", stop)


def test_run_raises_past_its_step_budget(grid64, monkeypatch):
    # the run needs 100 steps to reach t_max; a budget of 3 ends it first
    monkeypatch.setattr(flow, "_MAX_STEPS", 3)
    stop = StoppingConfig(t_max=0.01, tol_conv=0.0, fixed_dt=1e-4)
    with pytest.raises(RuntimeError, match="step budget exceeded"):
        ac.run(ac.translated_ball(grid64, 0.1), p_of(1, 2.0, -2.0), "round_normalized", stop)


@pytest.mark.parametrize("bad", [dict(t_max=float("nan")), dict(tol_conv=float("nan"))])
def test_run_rejects_nan_stopping_values(grid64, bad):
    # t_max = nan reached the band solver, which failed on a NaN step, and
    # tol_conv = nan switched the convergence stop off without a word
    stop = StoppingConfig(**{"t_max": 0.01, "tol_conv": 0.0, **bad})
    with pytest.raises(ValueError, match="invalid stopping configuration"):
        ac.run(ac.translated_ball(grid64, 0.1), p_of(1, 2.0, -2.0), "round_normalized", stop)


def test_run_rejects_infinite_tol_conv():
    # every sup norm is below inf, so the run stopped as "converged" after 0
    # accepted steps
    stop = StoppingConfig(t_max=1.0, tol_conv=float("inf"))
    u0 = ac.translated_ball(ac.make_grid(32), 0.1)
    with pytest.raises(ValueError, match="invalid stopping configuration"):
        ac.run(u0, p_of(1, 2.0, -2.0), "volume_normalized", stop)


@pytest.mark.parametrize("R_blowup", [float("nan"), 1.0, 0.5])
def test_run_rejects_blowup_ratio_at_most_one(grid64, R_blowup):
    # max u / min u >= 1 always, so R_blowup <= 1 stops every run at once,
    # and NaN switched the ratio stop off without a word
    stop = StoppingConfig(t_max=0.01, tol_conv=0.0, R_blowup=R_blowup)
    with pytest.raises(ValueError, match="invalid stopping configuration"):
        ac.run(ac.translated_ball(grid64, 0.1), p_of(1, 2.0, -2.0), "round_normalized", stop)


@pytest.mark.parametrize("mode", ["raw", "round_normalized", "volume_normalized", "dual_radial"])
def test_jacobian_matches_dense_differences(mode):
    # B - eta*I - u (x) grad_eta against column-by-column central differences
    # of the full right side; eta couples every node in the volume mode.  The
    # differences at steps e and 2e are combined by Richardson extrapolation,
    # (4 D(e) - D(2e)) / 3, whose error at e = 1e-4 is about 1e-12 of the
    # largest entry; a single difference at step 6e-8 has an error of about
    # 1.5e-9 of its own, above the bound
    g = ac.make_grid(16)
    f = ac.tabulated_anisotropy(g, 1.0 + 0.3 * np.cos(2 * g.theta))
    p = p_of(2, 1.0, -2.0, f=f if mode in ("raw", "volume_normalized") else None)
    u = ac.normalize_body(ac.spheroid_support(g, 1.0, 1.4), 2).values
    eng = _Engine(g, p, mode)
    band, eta, grad = eng.jacobian(u, eng.rhs(u)[1])
    jac = -eta * np.eye(g.n) - np.outer(u, grad)
    for d in range(-2, 3):
        j = np.arange(max(0, -d), min(g.n, g.n - d))
        jac[j + d, j] += band[2 + d, j]

    def central(step):
        dense = np.empty((g.n, g.n))
        for j in range(g.n):
            e = np.zeros(g.n)
            e[j] = step * max(1.0, u[j])
            dense[:, j] = (eng.rhs(u + e)[0] - eng.rhs(u - e)[0]) / (2.0 * e[j])
        return dense

    dense = (4.0 * central(1e-4) - central(2e-4)) / 3.0
    assert np.max(np.abs(jac - dense)) <= 1e-9 * np.max(np.abs(dense))
    if mode != "volume_normalized":
        assert eta == 0.0 and not grad.any()


@pytest.mark.parametrize("mode", ["raw", "round_normalized", "volume_normalized", "dual_radial"])
@pytest.mark.parametrize("k", [1, 2])
def test_analytic_band_matches_dense_differences(k, mode):
    # the analytic band B of the node-local part (all of the right side but
    # the volume mode's -eta(u) * u) against column-by-column central
    # differences of that part; entries off the grid are exactly zero
    g = ac.make_grid(17)
    f = ac.tabulated_anisotropy(g, 1.0 + 0.3 * np.cos(2 * g.theta))
    beta = 2.0 if k == 1 else 1.0
    p = p_of(k, beta, -2.0, f=f if mode in ("raw", "volume_normalized") else None)
    u = ac.normalize_body(ac.spheroid_support(g, 1.0, 1.4), k).values
    if mode == "dual_radial":
        u = 1.0 / u
    eng = _Engine(g, p, mode)
    ab = eng.jacobian(u, eng.rhs(u)[1])[0]

    def local(y):
        f, (spd, *_) = eng.rhs(y)
        return spd if mode == "volume_normalized" else f

    assert not ab[0, :2].any() and not ab[1, 0] and not ab[3, -1] and not ab[4, -2:].any()
    band = np.zeros((g.n, g.n))
    for d in range(-2, 3):
        j = np.arange(max(0, -d), min(g.n, g.n - d))
        band[j + d, j] = ab[2 + d, j]
    dense = np.empty((g.n, g.n))
    for j in range(g.n):
        e = np.zeros(g.n)
        e[j] = 6e-8 * max(1.0, u[j])
        dense[:, j] = (local(u + e) - local(u - e)) / (2.0 * e[j])
    assert np.max(np.abs(band - dense)) <= 1e-7 * np.max(np.abs(dense))


@pytest.mark.parametrize("k, beta, alpha", [(1, 2.0, -2.0), (2, 1.0, -2.0), (1, 1.5, 0.5)])
def test_round_normalized_band_spectrum_at_the_sphere(k, beta, alpha):
    # at u = 1 with f = 1 the linearized round-normalized right side acts on
    # the Legendre mode P_l(cos theta) as lambda_l = gamma (q - k beta l(l+1)/2),
    # from d sigma_k = C(1, k-1) tr at the identity and Delta P_l = -l(l+1) P_l;
    # the l-th largest eigenvalue of the band is lambda_l.  The scale mode l = 0
    # holds to rounding (at most 9.3e-12 up to N = 192), and l = 1..5 converge
    # at order 3.88-3.97 over N = 48, 96, 192: for l = 1 at (1, 2, -2) the
    # error falls 2.97e-6, 1.95e-7, 1.25e-8
    p = p_of(k, beta, alpha)
    ls = np.arange(6)
    exact = p.gamma * (p.q - k * beta * ls * (ls + 1) / 2.0)
    errors = []
    for n in (48, 96, 192):
        g = ac.make_grid(n)
        eng = _Engine(g, p, "round_normalized")
        u = np.ones(n)
        ab = eng.jacobian(u, eng.rhs(u)[1])[0]
        band = np.zeros((n, n))
        for d in range(-2, 3):
            j = np.arange(max(0, -d), min(n, n - d))
            band[j + d, j] = ab[2 + d, j]
        eigenvalues = np.sort(np.linalg.eigvals(band).real)[::-1][: ls.size]
        errors.append(np.abs(eigenvalues - exact))
    errors = np.array(errors)
    assert np.all(errors[:, 0] < 1e-10)
    orders = np.log2(errors[:-1, 1:] / errors[1:, 1:])
    assert np.all((3.7 < orders) & (orders < 4.3))


@pytest.mark.parametrize("k, beta, alpha", [(1, 1.5, a) for a in (-2.0, 0.5, 0.9, 1.1)]
                         + [(2, 1.0, a) for a in (-2.0, 0.5, 0.9, 1.1)])
@pytest.mark.parametrize("l", [1, 2])
def test_round_normalized_mode_decays_at_its_linearized_rate(k, beta, alpha, l):
    """From 1 + 1e-4 P_l(cos theta) the round-normalized flow moves the P_l
    coefficient a_l = (w . ((u-1) P_l)) / (w . P_l^2) at the rate lambda_l =
    gamma (q - k beta l(l+1)/2) of the linearization at the sphere, sign
    included: at k = 1, beta = 1.5 the l = 1 mode decays at alpha = 0.9 and
    grows at 1.1 (rates -0.282843 and +0.282843).  The rate is the slope of
    log|a_l| over the records with tau >= 0.1 t_max, at N = 96.

    Measured relative error of the rate over the 16 cases: at most 1.7e-6
    for l = 1 and 2.2e-5 for l = 2 (the quadratic terms of the flow feed
    P_2 but not P_1).
    """
    g = ac.make_grid(96)
    legendre = g.cos if l == 1 else 1.5 * g.cos**2 - 0.5
    p = p_of(k, beta, alpha)
    lam = p.gamma * (p.q - k * beta * l * (l + 1) / 2.0)
    t_max = min(2.0, 3.0 / abs(lam))
    stop = StoppingConfig(t_max=t_max, tol_conv=0.0, record_every=10)
    traj = ac.run(ac.ScalarField(g, 1.0 + 1e-4 * legendre), p, "round_normalized", stop)
    assert traj.stop_reason == "t_max"
    tau = np.array(traj.times)
    coefficient = np.array([g.weights @ ((s.values - 1.0) * legendre) for s in traj.snapshots])
    coefficient /= g.weights @ legendre**2
    late = tau >= 0.1 * t_max
    rate = np.polyfit(tau[late], np.log(np.abs(coefficient[late])), 1)[0]
    assert abs(rate - lam) <= 1e-4 * abs(lam)


@pytest.mark.parametrize("a, b", [(1.0, 1.5), (1.3, 1.0)], ids=["prolate", "oblate"])
@pytest.mark.parametrize("k, beta", [(1, 2.0), (2, 1.0)])
def test_volume_normalized_flow_reaches_the_exact_spheroid_soliton(k, beta, a, b):
    """With the anisotropy f* that makes the spheroid u* an exact soliton at
    alpha = -2, the volume-normalized flow from a normalized translated ball
    converges, and its normalized limit meets normalize_body(u*) at fourth
    order: kernel, quadrature, normalization and RODAS4 against a closed
    form, with no Newton solve sharing the discretization's error.

    Measured sup errors at N = 48, 96, 192 (orders 3.81-3.99):
    k = 1 prolate 7.25e-7, 4.80e-8, 3.07e-9; oblate 9.51e-7, 6.98e-8,
    4.63e-9; k = 2 prolate 9.58e-7, 6.35e-8, 4.07e-9; oblate 1.23e-6,
    9.13e-8, 6.07e-9.  Each run takes 121-169 accepted steps.
    """
    errs = []
    for n in (48, 96, 192):
        g = ac.make_grid(n)
        star, f = exact_spheroid_soliton(g, a, b, k, beta, -2.0)
        p = p_of(k, beta, -2.0, f=ac.tabulated_anisotropy(g, f))
        u0 = ac.normalize_body(ac.translated_ball(g, 0.3), k)
        traj = ac.run(u0, p, "volume_normalized", StoppingConfig(t_max=1000.0, tol_conv=1e-11))
        assert traj.stop_reason == "converged"
        limit = ac.normalize_body(traj.final(), k).values
        exact = ac.normalize_body(ac.ScalarField(g, star), k).values
        errs.append((np.max(np.abs(limit - exact)), g.h))
    orders = observed_orders(errs)
    assert all(3.7 < order < 4.3 for order in orders), orders


def _jacobians_equal(a, b):
    return np.array_equal(a[0], b[0]) and a[1] == b[1] and np.array_equal(a[2], b[2])


@pytest.mark.parametrize("mode", ["raw", "round_normalized", "volume_normalized", "dual_radial"])
def test_jacobian_reuses_no_stale_speed(mode):
    # the engine keeps nothing between calls: after right sides elsewhere, or
    # a step that lost convexity after some stages, the right side at u and
    # the Jacobian from its node values equal a fresh engine's bit for bit
    g = ac.make_grid(32)
    f = ac.tabulated_anisotropy(g, 1.0 + 0.3 * np.cos(2 * g.theta))
    p = p_of(2, 1.0, -2.0, f=f if mode in ("raw", "volume_normalized") else None)
    u = ac.normalize_body(ac.spheroid_support(g, 1.0, 1.4), 2).values
    other = ac.normalize_body(ac.spheroid_support(g, 1.0, 1.2), 2).values
    if mode == "dual_radial":
        u, other = 1.0 / u, 1.0 / other
    engine = _Engine(g, p, mode)
    fresh_f, fresh_nodes = engine.rhs(u)
    fresh = engine.jacobian(u, fresh_nodes)

    def same_as_fresh(f, nodes):
        return (
            np.array_equal(f, fresh_f)
            and all(np.array_equal(a, b) for a, b in zip(nodes, fresh_nodes))
            and _jacobians_equal(eng.jacobian(u, nodes), fresh)
        )

    eng = _Engine(g, p, mode)
    f0, nodes = eng.rhs(u)
    assert same_as_fresh(f0, nodes)
    eng.rhs(u)
    eng.rhs(other)
    assert _jacobians_equal(eng.jacobian(u, nodes), fresh)
    assert same_as_fresh(*eng.rhs(u))
    before = eng.stats.rhs_evaluations
    with pytest.raises(ac.ConvexityLostError):
        eng.rk4(u, 0.2, k1=f0)
    assert eng.stats.rhs_evaluations - before >= 2  # a stage passed before the loss
    assert _jacobians_equal(eng.jacobian(u, nodes), fresh)
    assert same_as_fresh(*eng.rhs(u))


def test_one_kernel_evaluation_per_right_side_and_jacobian(grid64, monkeypatch):
    # every right side evaluates the speed once, and each record once for its
    # diagnostics; a Jacobian evaluates none, since it is passed the node
    # values that the right side returned with the step's f0
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
    assert st.jacobian_evaluations == st.accepted
    assert len(calls) == st.rhs_evaluations + len(traj.diagnostics)


@pytest.mark.parametrize("dt", [float("nan"), float("inf"), 0.0, -1e-3])
def test_step_rejects_non_finite_or_nonpositive_dt(grid64, dt):
    # nan and inf reached the kernel and came back as a ConvexityLostError
    # that blamed the body
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        ac.step(ac.translated_ball(grid64, 0.1), p_of(1, 2.0, -2.0), "raw", dt)


@pytest.mark.parametrize(
    "bad, message",
    [(dict(fixed_dt=float("inf")), "fixed_dt must be positive and finite")],
)
def test_run_rejects_infinite_steps(grid64, bad, message):
    # fixed_dt = inf took one step of t_max and counted it as accepted
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

    eng = _Engine(grid64, p, mode)

    def rhs(y):
        return eng.rhs(y)[0]

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

    def rhs(y):
        return np.cos(7.0 * y) * y

    eng.rhs = lambda y: (rhs(y), None)
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
    """(array, arrays to watch): values as a contiguous profile and as a
    strided view (watched with the array that owns its memory)."""
    wide = np.repeat(values, 2)
    return [(values.copy(), []), (wide[::2], [wide])]


def _unchanged(arrays, call):
    """Run call() and assert that every array keeps its bytes."""
    before = [a.tobytes(order="A") for a in arrays]
    result = call()
    assert [a.tobytes(order="A") for a in arrays] == before
    return result


@pytest.mark.parametrize("mode", ["raw", "round_normalized", "volume_normalized", "dual_radial"])
def test_no_function_changes_its_arguments(grid64, mode):
    # the kernel, the right sides, the Jacobian band and the steps read their
    # inputs and write only arrays of their own; rk4's in-place sums never
    # touch vals or k1, and nothing writes the node values rhs() returned.
    # The cached 0-d operands (the divisors of the differences, the
    # exponents, the 1 of the dual's 1/r, gamma) are read-only and keep
    # their values through every call
    from anicurve.body import _jacobian_band, _radii
    from anicurve.sphere import _derivatives, _divisors, _extend, _prolong, _restrict

    g = grid64
    u = ac.normalize_body(ac.spheroid_support(g, 1.0, 1.3), 1).values
    if mode == "dual_radial":
        u = 1.0 / u
    p = p_of(1, 2.0, -2.0)
    eng = _Engine(g, p, mode)
    constants = [
        *_divisors(g.h), p._rho_power, p._speed_power, p._beta,
        flow._ONE, eng.gamma, eng._dual_power,
    ]
    for a in constants:
        assert a.shape == () and a.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0
    for vals, owners in _layouts(u):
        held = [vals, *owners, *constants]
        if mode == "raw":  # the kernel does not depend on the mode
            for parity in ("even", "odd"):
                _unchanged(held, lambda: _extend(vals, parity))
                _unchanged(held, lambda: _derivatives(vals, g.h, parity))
            _unchanged(held, lambda: _radii(vals, g, p.k))
            _unchanged(held, lambda: _restrict(vals, g, ac.make_grid(32)))
            _unchanged(held, lambda: _prolong(vals, ac.make_grid(256)))
        if mode == "raw":
            pieces = functionals._evaluate(vals, g, p, p.alpha - 1.0)
            rho, b11, b22, _, sig = pieces
            scale = -1.0 / (vals * vals)
            for k in (1, 2):
                _unchanged(
                    [*held, *pieces, scale],
                    lambda: _jacobian_band(vals, rho, b11, b22, sig, k, p.beta, p.alpha, scale),
                )
        k1, nodes = _unchanged(held, lambda: eng.rhs(vals))
        held.append(k1)
        held.extend(a for a in nodes if isinstance(a, np.ndarray))
        for given in (None, k1):
            new = _unchanged(held, lambda: eng.rk4(vals, 1e-5, k1=given))
            assert not np.shares_memory(new, vals) and not np.shares_memory(new, k1)
        jac = _unchanged(held, lambda: eng.jacobian(vals, nodes))
        held.extend(a for a in jac if isinstance(a, np.ndarray))
        _unchanged(held, lambda: eng.rodas4(vals, 1e-3, k1, jac))
        _unchanged(held, lambda: ac.step(ac.ScalarField(g, vals), p, mode, 1e-5))
    assert [float(a) for a in constants] == [
        12.0 * g.h, 12.0 * g.h * g.h, p.alpha - 1.0, p.alpha, p.beta, 1.0, p.gamma, 2.0 - p.alpha,
    ]


def _written_out_rodas4(eng, vals, dt, rank_one=False, textbook=False):
    """The RODAS4 step with every temporary written out: a fresh -band shifted
    on its diagonal, each stage input the tableau row (1, a_i1, ..) of
    _RODAS_A times the freshly stacked (vals, k_1, ..), each right side F
    plus the row (c_i1, ..) / dt of _RODAS_C times the stacked (k_1, ..),
    and the error's sum of squares one dot product: the products the step
    takes.  With textbook, each sum is instead the expression written out
    term by term and the mean is np.mean.  With a nonzero gradient, or with
    rank_one, the Sherman-Morrison form: the two-column right side stacked
    in C order and a correction after every solve; otherwise plain solves."""
    f0, nodes = eng.rhs(vals)
    band, eta, g = eng.jacobian(vals, nodes)
    ab = -band
    ab[2] += 1.0 / (_RODAS_GAMMA * dt) + eta
    padded = np.zeros((7, vals.size), order="F")
    padded[2:] = ab
    lu, piv, info = dgbtrf(padded, 2, 2)
    assert info == 0

    def lu_solve(b):
        x, info = dgbtrs(lu, 2, 2, b, piv)
        assert info == 0
        return x

    if rank_one or g.any():
        k1, z = lu_solve(np.stack((f0, vals), axis=1)).T
        z = z / (1.0 + g @ z)
        k1 = k1 - z * (g @ k1)

        def solve(r):
            x = lu_solve(r)
            return x - z * (g @ x)

    else:
        k1 = lu_solve(f0)
        solve = lu_solve

    def rhs(y):
        return eng.rhs(y)[0]

    if textbook:
        (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54) = [
            _RODAS_A[i, 1 : i + 2] for i in range(4)
        ]
        (c21,), (c31, c32), (c41, c42, c43), (c51, c52, c53, c54), (c61, c62, c63, c64, c65) = [
            _RODAS_C[i, : i + 1] / dt for i in range(5)
        ]
        k2 = solve(rhs(vals + a21 * k1) + c21 * k1)
        k3 = solve(rhs(vals + a31 * k1 + a32 * k2) + c31 * k1 + c32 * k2)
        k4 = solve(rhs(vals + a41 * k1 + a42 * k2 + a43 * k3) + c41 * k1 + c42 * k2 + c43 * k3)
        y5 = vals + a51 * k1 + a52 * k2 + a53 * k3 + a54 * k4
        k5 = solve(rhs(y5) + c51 * k1 + c52 * k2 + c53 * k3 + c54 * k4)
        embedded = y5 + k5
        k6 = solve(rhs(embedded) + c61 * k1 + c62 * k2 + c63 * k3 + c64 * k4 + c65 * k5)
    else:
        stages = [vals, k1]
        c = _RODAS_C / dt
        for i in range(2, 7):
            embedded = _RODAS_A[i - 2, :i] @ np.stack(stages)
            stages.append(solve(rhs(embedded) + c[i - 2, : i - 1] @ np.stack(stages[1:])))
        k6 = stages[6]
    new = embedded + k6
    scale = _ATOL + _RTOL * np.maximum(np.abs(vals), np.abs(new))
    if textbook:
        return new, float(np.sqrt(np.mean((k6 / scale) ** 2)))
    q = k6 / scale
    return new, math.sqrt((q @ q) / q.size)


def test_rodas4_tableau():
    # stage 6's input is the embedded solution y_5 + k_5, and every row
    # weighs only the rows before its stage
    assert _RODAS_A.shape == (5, 6) and _RODAS_C.shape == (5, 5)
    assert np.array_equal(_RODAS_A[4], np.append(_RODAS_A[3, :5], 1.0))
    assert np.all(_RODAS_A[:, 0] == 1.0)
    assert not np.triu(_RODAS_A, 2).any() and not np.triu(_RODAS_C, 1).any()


@pytest.mark.parametrize("mode", ["raw", "round_normalized", "volume_normalized", "dual_radial"])
def test_rodas4_matches_written_out_step(mode):
    # the step forms its band, right sides and sums in buffers of its own;
    # (new, err) must carry the bits of the step written out above, on
    # freshly stacked stages, and a retry with the same f0 and Jacobian the
    # same bits again.  Without a gradient the step still takes the
    # Sherman-Morrison path, which must give the bits of plain solves.  The
    # textbook sums differ from the tableau-row products only in their
    # rounding: measured at most 2.0e-16 relative in the state and 2.4e-10 in
    # the error estimate (which reaches 14 here)
    for n in (17, 64):
        g = ac.make_grid(n)
        f = ac.tabulated_anisotropy(g, 1.0 + 0.3 * np.cos(2 * g.theta))
        p = p_of(2, 1.0, -2.0, f=f if mode in ("raw", "volume_normalized") else None)
        u = ac.normalize_body(ac.spheroid_support(g, 1.0, 1.4), 2).values
        if mode == "dual_radial":
            u = 1.0 / u
        for dt in (1e-4, 1e-2):
            want = _written_out_rodas4(_Engine(g, p, mode), u, dt)
            assert want[1] > 0
            if mode != "volume_normalized":
                full = _written_out_rodas4(_Engine(g, p, mode), u, dt, rank_one=True)
                assert np.array_equal(full[0], want[0]) and full[1] == want[1]
            book = _written_out_rodas4(_Engine(g, p, mode), u, dt, textbook=True)
            assert np.max(np.abs(want[0] - book[0])) <= 1e-15 * np.max(np.abs(want[0]))
            assert abs(want[1] - book[1]) <= 1e-9
            eng = _Engine(g, p, mode)
            f0, nodes = eng.rhs(u)
            jac = eng.jacobian(u, nodes)
            for _ in range(2):
                new, err = eng.rodas4(u, dt, f0, jac)
                assert np.array_equal(new, want[0]) and err == want[1]


def _written_out_radii(u, g):
    """(b11, b22) of u from the 5-point stencils written out, on the even
    ghost padding of sphere._extend."""
    from anicurve.sphere import _extend

    v = _extend(u, "even")
    d1 = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * g.h)
    d2 = (-v[:-4] + 16.0 * v[1:-3] - 30.0 * v[2:-2] + 16.0 * v[3:-1] - v[4:]) / (12.0 * g.h * g.h)
    return d2 + u, d1 * g.cot + u


@pytest.mark.parametrize("n", [64, 200])
@pytest.mark.parametrize(
    "mode", ["raw", "round_normalized", "volume_normalized", "dual_radial", "soliton"]
)
def test_right_sides_match_written_out_formulas(mode, n):
    # every right side, and the soliton residual, carries the bits of its
    # formula written with Python-float operands and **, whatever form the
    # kernel gives its fixed operands; the exponents alpha, alpha - 1, beta
    # and 2 - alpha cover 0, +-0.5, +-1 and 2, which ** with a Python float
    # takes by its own fast paths
    g = ac.make_grid(n)
    u = ac.spheroid_support(g, 1.0, 1.3).values
    f = 1.0 + 0.3 * np.cos(2 * g.theta)
    tabulated = mode in ("raw", "volume_normalized", "soliton")
    cases = ((1, 2.0, -2.0), (2, 1.0, 0.5), (1, 1.5, 1.0), (2, 0.5, -0.5), (1, 1.0, 0.0))
    for k, beta, alpha in cases:
        p = p_of(k, beta, alpha, f=ac.tabulated_anisotropy(g, f) if tabulated else None)
        vals = 1.0 / u if mode == "dual_radial" else u
        # the dual right side's curvature is that of w = 1/r
        b11, b22 = _written_out_radii(1.0 / vals if mode == "dual_radial" else u, g)
        sig = b11 + b22 if k == 1 else b11 * b22
        if mode == "soliton":
            if p.q > 0:
                continue
            c = 1.3
            got = ac.soliton_residual(ac.ScalarField(g, vals), ac.SolitonProblem(p, c)).values
            want = u ** (alpha - 1.0) * f * sig**beta - c
        else:
            got = _Engine(g, p, mode).rhs(vals)[0]
            if mode == "dual_radial":
                want = -(vals ** (2.0 - alpha) * sig**beta)
            else:
                spd = u**alpha * f * sig**beta if tabulated else u**alpha * sig**beta
                if mode == "round_normalized":
                    want = spd - p.gamma * u
                elif mode == "volume_normalized":
                    eta = (g.weights @ (spd * sig)) / ac.SPHERE_AREA
                    want = spd - eta * u
                else:
                    want = spd
        assert np.array_equal(got, want)
