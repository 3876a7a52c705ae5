import dataclasses

import numpy as np
import pytest

import anicurve as ac
from anicurve.counterexample import (
    BlowupReport,
    SubsolutionParams,
    _THETA_RIM,
    _branch_slopes,
    _branch_values,
    _cap_support,
    _profile,
    blowup_experiment,
    capped_profile_body,
    profile_radii,
    subsolution_profile,
    subsolution_profile_dt,
    verify_case_bounds,
)


def sp_1112():
    # theta = 2 with (alpha, k, beta) = (1, 1, 1): q = 1, mu = 1/2
    return SubsolutionParams.from_exponents(alpha=1.0, k=1, beta=1.0, theta=2.0)


def test_params_bookkeeping():
    sp = sp_1112()
    assert sp.alpha_hat == 1.0
    assert sp.q == 1.0
    assert sp.mu == 0.5
    with pytest.raises(ValueError, match="theta"):
        SubsolutionParams.from_exponents(alpha=1.0, k=1, beta=1.0, theta=0.5)
    with pytest.raises(ValueError, match="q ="):
        SubsolutionParams.from_exponents(alpha=-2.0, k=1, beta=1.0, theta=2.0)


def test_profile_pinned_values():
    sp = sp_1112()
    t = -0.25
    split = 0.25**2
    assert subsolution_profile(split, t, sp) == pytest.approx(-0.046875, abs=1e-15)
    assert subsolution_profile(0.0, t, sp) == pytest.approx(-0.0625, abs=1e-15)


def test_profile_continuity_and_slope_sweep():
    # C0 and C1 matching at the branch junction across a parameter sweep
    rng = np.random.default_rng(5)
    count = 0
    while count < 20:
        alpha = rng.uniform(-2.0, 1.5)
        k = int(rng.integers(1, 3))
        beta = rng.uniform(0.5, 2.5)
        alpha_hat = 2.0 - alpha
        q = k * beta + 1.0 - alpha_hat
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
        assert abs(inner - outer) < 1e-12 * max(1.0, abs(outer))
        slope_in, slope_out = _branch_slopes(split, -t, sp)
        assert slope_in == pytest.approx(slope_out, rel=1e-12)
        count += 1


def test_profile_convex_and_monotone_in_t():
    sp = sp_1112()
    rng = np.random.default_rng(11)
    for _ in range(200):
        t = -float(rng.uniform(0.01, 0.9))
        rho = float(rng.uniform(1e-6, 1.0))
        lam_r, lam_t = profile_radii(sp, rho, t)
        assert lam_r > 0 and lam_t > 0
        t2 = t * 0.5  # later time, smaller |t|
        assert subsolution_profile(rho, t2, sp) >= subsolution_profile(rho, t, sp)


def test_profile_dt_matches_difference_quotient():
    sp = sp_1112()
    for rho in (0.005, 0.05, 0.3, 0.9):
        for t in (-0.6, -0.25, -0.05):
            fd = (
                subsolution_profile(rho, t + 1e-6, sp)
                - subsolution_profile(rho, t - 1e-6, sp)
            ) / 2e-6
            assert subsolution_profile_dt(rho, t, sp) == pytest.approx(fd, rel=1e-5)


def test_profile_radii_closed_forms():
    sp = sp_1112()
    t = -0.25
    lam_r, _ = profile_radii(sp, 1e-9, t)
    # inner branch: psi'' = 2|t|^(theta(mu-1)), so lam_r -> |t|^(theta(1-mu))/2
    assert lam_r == pytest.approx(0.25 ** (2 * 0.5) / 2.0, rel=1e-9)
    _, lam_t = profile_radii(sp, 1.0, t)
    assert lam_t == pytest.approx(np.sqrt(5.0) / 2.0, rel=1e-12)
    with pytest.raises(ValueError):
        profile_radii(sp, 0.0, t)


def test_profile_domain_checks():
    sp = sp_1112()
    with pytest.raises(ValueError):
        subsolution_profile(0.5, 0.5, sp)
    with pytest.raises(ValueError):
        subsolution_profile(1.5, -0.5, sp)


def test_verify_case_bounds_report():
    sp = sp_1112()
    p = ac.FlowParams(k=1, beta=1.0, alpha=1.0)
    rep = verify_case_bounds(sp, p, samples=1000, seed=0)
    assert rep["samples"] == 1000
    assert rep["c0_empirical"] > 0
    # the exact ratio of the time derivative is
    # theta * (1 + (1-mu)|t|^(theta*mu)), so the sampled maximum sits between
    # theta and theta * (1 + (1-mu) * 0.5^(theta*mu))
    upper = sp.theta * (1.0 + (1.0 - sp.mu) * 0.5 ** (sp.theta * sp.mu))
    assert sp.theta < rep["T_ratio_max"] <= upper * (1 + 1e-9)
    assert set(rep["branch_stats"]) == {"inner", "outer"}
    # deterministic replay
    rep2 = verify_case_bounds(sp, p, samples=1000, seed=0)
    assert rep2["c0_empirical"] == rep["c0_empirical"]
    assert rep2["T_ratio_max"] == rep["T_ratio_max"]


def test_capped_profile_body(grid200):
    sp = SubsolutionParams.from_exponents(alpha=0.5, k=1, beta=1.5, theta=2.0)
    body = capped_profile_body(grid200, sp, t=-0.3)
    assert ac.convexity_margin(body) > 0
    # the lowest support value tends to the cap depth |t|^theta = 0.09: at
    # the node next to the pole, at angle pi - h, it lies
    # h^2 (|t|^(theta(1-mu))/4 - |t|^theta/2) above it to leading order
    # (measured 1.27e-6 at N = 200 and a quarter of that at N = 400)
    gap = body.values.min() - 0.09
    assert 0 < gap < 2e-6
    finer = capped_profile_body(ac.make_grid(400), sp, t=-0.3)
    assert 0 < finer.values.min() - 0.09 < 0.3 * gap
    assert body.values.max() > 2.5


def test_capped_body_ratio_growth_onset(grid200):
    # the frozen cap makes the ratio grow initially at the rate
    # rho(argmax u) - rho(argmin u); that is the blowup mechanism at onset
    sp = SubsolutionParams.from_exponents(alpha=0.5, k=1, beta=1.5, theta=2.0)
    p = ac.FlowParams(k=1, beta=1.5, alpha=0.5)
    u0 = ac.normalize_body(capped_profile_body(grid200, sp, t=-0.3), 1)
    rho = ac.speed_factor(u0, p).values
    expected = rho[np.argmax(u0.values)] - rho[np.argmin(u0.values)]
    assert expected > 0.5
    traj = ac.run(
        u0,
        p,
        "volume_normalized",
        ac.StoppingConfig(t_max=0.02, tol_conv=0.0, record_every=20),
    )
    rs = np.array([rec.R for rec in traj.diagnostics])
    taus = np.array(traj.times)
    assert np.all(np.diff(rs) > 0)
    measured = (np.log(rs[-1]) - np.log(rs[0])) / (taus[-1] - taus[0])
    assert measured == pytest.approx(expected, rel=0.1)


def test_blowup_experiment_precondition(grid64):
    p_sub = ac.FlowParams(k=1, beta=1.5, alpha=-0.5)  # critical
    with pytest.raises(ValueError, match="alpha > 1 - k\\*beta"):
        blowup_experiment(p_sub, ac.round_body(grid64, 1.0), ac.StoppingConfig(t_max=0.1))


def test_blowup_experiment_rejects_nan_t_max(grid64):
    p = ac.FlowParams(k=1, beta=1.5, alpha=0.5)
    with pytest.raises(ValueError, match="invalid stopping configuration"):
        blowup_experiment(p, ac.round_body(grid64, 1.0), ac.StoppingConfig(t_max=float("nan")))


def test_blowup_experiment_leaves_caller_stop_unchanged(grid64):
    p = ac.FlowParams(k=1, beta=1.5, alpha=0.5)
    stop = ac.StoppingConfig(t_max=0.01, tol_conv=0.0, record_every=5)
    before = dataclasses.replace(stop)
    rep = blowup_experiment(p, ac.round_body(grid64, 1.0), stop)
    assert stop == before
    assert rep.trajectory.times[-1] == pytest.approx(0.01)


def test_blowup_experiment_supports_blowup_on_capped_body(grid200):
    """A/B run from the paper's counterexample body at alpha = 1.

    The supercritical run drives R up through R_blowup = 40 and keeps going
    (with no threshold R reaches 3766 by tau = 3 at N = 100), so the
    ratio-blowup stop with R increasing is a real blowup; the critical
    control from the same body contracts the ratio.

    At alpha = 0.5 the same threshold sits inside a transient: from its own
    cap body at N = 200, R peaks at 41.73 (tau = 0.24) and the body then
    rounds out to R = 1.17 by tau = 3.  A ratio-blowup stop there would
    only show that R crossed 40 while rising.
    """
    alpha = 1.0
    sp = SubsolutionParams.from_exponents(alpha=alpha, k=1, beta=1.5, theta=2.0)
    p = ac.FlowParams(k=1, beta=1.5, alpha=alpha)
    body = capped_profile_body(grid200, sp, t=-0.3)
    rep = blowup_experiment(
        p,
        body,
        ac.StoppingConfig(t_max=2.0, record_every=25, R_blowup=40.0),
    )
    assert isinstance(rep, BlowupReport)
    assert rep.stop_reason == "ratio_blowup"
    assert rep.r_increasing
    assert rep.verdict == "supports blowup"
    assert rep.control_r_decreasing


def test_run_stats_track_the_ratio_between_records():
    # at alpha = 0.5 the capped body's R peaks near tau = 0.24 and falls
    # again by tau = 0.6; with record_every = 200 the records read R = 33.41,
    # 25.57 and 9.66 at N = 100 and miss the peak, which the run's stats
    # hold (41.65 at N = 100, 41.73 at N = 200)
    grid = ac.make_grid(100)
    sp = SubsolutionParams.from_exponents(alpha=0.5, k=1, beta=1.5, theta=2.0)
    p = ac.FlowParams(k=1, beta=1.5, alpha=0.5)
    u0 = ac.normalize_body(capped_profile_body(grid, sp, t=-0.3), 1)
    traj = ac.run(u0, p, "volume_normalized", ac.StoppingConfig(t_max=0.6, record_every=200))
    rs = [rec.R for rec in traj.diagnostics]
    assert max(rs) < 40 < traj.stats.R_max
    assert traj.stats.R_min <= min(rs) and max(rs) <= traj.stats.R_max


def _scalar_case_bounds(sp, p, samples, seed, lo=1e-3, hi=0.5):
    """verify_case_bounds written out as one scalar loop over the public
    functions: per sample (s, rho) from rng.uniform, inner branch on even i."""
    rng = np.random.default_rng(seed)
    rows = {"inner": [], "outer": []}
    for i in range(samples):
        s = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        split = s**sp.theta
        if i % 2 == 0:
            rho = float(np.exp(rng.uniform(np.log(1e-3 * split), np.log(split))))
            branch = "inner"
        else:
            rho = float(np.exp(rng.uniform(np.log(split), 0.0)))
            branch = "outer"
        rho = min(rho, 1.0)
        t = -s
        lam_r, lam_t = profile_radii(sp, rho, t)
        sig = lam_r + lam_t if p.k == 1 else lam_r * lam_t
        r = float(np.hypot(rho, subsolution_profile(rho, t, sp)))
        base = s ** (sp.theta - 1.0)
        rows[branch].append(
            (r**sp.alpha_hat * sig**p.beta / base, subsolution_profile_dt(rho, t, sp) / base)
        )
    return rows


@pytest.mark.parametrize("seed", [0, 7, 12345])
@pytest.mark.parametrize("k", [1, 2])
def test_case_bounds_match_scalar_loop(seed, k):
    # the sampler draws the scalar loop's stream in blocks; 2501 samples end
    # in a partial block.  Vectorized pow and hypot may round a last bit
    # differently from the scalar calls, nothing more
    sp = SubsolutionParams.from_exponents(alpha=1.0, k=k, beta=1.5 if k == 1 else 1.0, theta=2.0)
    p = ac.FlowParams(k=k, beta=1.5 if k == 1 else 1.0, alpha=1.0)
    samples = 2501
    rows = _scalar_case_bounds(sp, p, samples, seed)
    rep = verify_case_bounds(sp, p, samples=samples, seed=seed)
    assert rep["samples"] == samples
    assert list(rep["branch_stats"]) == ["inner", "outer"]
    for branch, pairs in rows.items():
        got = rep["branch_stats"][branch]
        assert got["count"] == len(pairs) == (samples + (branch == "inner")) // 2
        Ls, Ts = np.array(pairs).T
        for key, want in (
            ("L_ratio_min", Ls.min()),
            ("L_ratio_max", Ls.max()),
            ("T_ratio_min", Ts.min()),
            ("T_ratio_max", Ts.max()),
        ):
            assert got[key] == pytest.approx(want, rel=1e-14, abs=0.0), key
    every = np.array(rows["inner"] + rows["outer"])
    assert rep["c0_empirical"] == pytest.approx(every[:, 0].min(), rel=1e-14, abs=0.0)
    assert rep["T_ratio_max"] == pytest.approx(every[:, 1].max(), rel=1e-14, abs=0.0)


def test_case_bounds_reject_a_non_convex_point():
    # no admissible parameter set bends the profile the wrong way, so mu is
    # forced past the check; the sampler must raise as profile_radii does,
    # not report a bound
    sp = sp_1112()
    object.__setattr__(sp, "mu", -0.5)
    p = ac.FlowParams(k=1, beta=1.0, alpha=1.0)
    with pytest.raises(ValueError):
        profile_radii(sp, 0.5, -0.25)
    with pytest.raises(ValueError, match="not strictly convex"):
        verify_case_bounds(sp, p, samples=10, seed=0)


def test_case_bounds_reject_an_underflowing_inner_branch():
    # at theta = 200 the junction |t|^theta underflows for |t| near 1e-3: the
    # scalar loop died with an OverflowError from rng.uniform, and the arrays
    # would turn it into NaN radii
    sp = SubsolutionParams.from_exponents(alpha=0.5, k=1, beta=1.5, theta=200.0)
    p = ac.FlowParams(k=1, beta=1.5, alpha=0.5)
    with pytest.raises(ValueError, match="underflows"):
        verify_case_bounds(sp, p, samples=1000, seed=0)


def _scan_support(theta, t, sp, samples):
    """The support of the capped body taken as a maximum over meridian
    samples: samples log-spaced graph points from rho = 1e-6, the axis point,
    and samples points on the closing sphere.  That is the support of the
    samples' convex hull, which lies inside the body."""
    rho = np.concatenate(([0.0], np.geomspace(1e-6, 1.0, samples)))
    z = _profile(rho, -t, sp)
    radius, z_center = np.sqrt(5.0) / 2.0, z[-1] + 0.5
    arc = np.linspace(0.0, np.arctan2(1.0, z[-1] - z_center), samples)
    pr = np.concatenate([rho, radius * np.sin(arc)])
    pz = np.concatenate([z, z_center + radius * np.cos(arc)])
    return np.array([np.max(np.sin(a) * pr + np.cos(a) * pz) for a in theta])


# (alpha, k, beta, t) of the closed-form checks
_CAPS = [(1.0, 1, 1.5, -0.3), (0.5, 1, 1.5, -0.1), (1.0, 2, 1.0, -0.6)]


@pytest.mark.parametrize("alpha, k, beta, t", _CAPS)
def test_capped_body_bounds_the_meridian_scan(alpha, k, beta, t):
    # a scan of the meridian gives the support of the samples' hull, at or
    # below the exact support; ten times the samples shrink the gap about
    # a hundredfold (second order)
    grid = ac.make_grid(100)
    sp = SubsolutionParams.from_exponents(alpha, k, beta, theta=2.0)
    u = capped_profile_body(grid, sp, t).values
    gaps = []
    for samples in (12_000, 120_000):
        rel = (u - _scan_support(grid.theta, t, sp, samples)) / u
        assert rel.min() >= -1e-14
        gaps.append(rel.max())
    assert 0 < gaps[1] < gaps[0] / 50


@pytest.mark.parametrize("alpha, k, beta, t", _CAPS)
def test_capped_body_on_the_sphere(alpha, k, beta, t, grid200):
    # up to the rim normal the closing sphere, of radius sqrt(5)/2 centered
    # half a unit above the rim, supports the body
    sp = SubsolutionParams.from_exponents(alpha, k, beta, theta=2.0)
    u = capped_profile_body(grid200, sp, t).values
    cap = grid200.theta <= np.pi - np.arctan(2.0)
    assert 0 < cap.sum() < grid200.n
    rim = subsolution_profile(1.0, t, sp)
    want = (rim + 0.5) * grid200.cos[cap] + np.sqrt(5.0) / 2.0
    assert u[cap] == pytest.approx(want, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("alpha, k, beta, t", _CAPS)
def test_capped_body_support_is_continuous(alpha, k, beta, t):
    # across the rim normal (sphere to graph) and the branch junction, where
    # psi' = 2 |t|^(theta mu), a support function moves by at most the
    # largest |x| over the body (below 4 here) times the angle it turns
    sp = SubsolutionParams.from_exponents(alpha, k, beta, theta=2.0)
    s = -t
    junction = np.pi - np.arctan(2.0 * s ** (sp.theta * sp.mu))
    assert _THETA_RIM < junction < np.pi
    step = 1e-9
    for angle in (_THETA_RIM, junction):
        below, above = _cap_support(np.array([angle - step, angle + step]), s, sp)
        assert abs(above - below) <= 4.0 * 2.0 * step
