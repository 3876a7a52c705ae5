import numpy as np
import pytest

from anicurve import (
    ConvexityLostError,
    FlowParams,
    ScalarField,
    SPHERE_AREA,
    SolitonProblem,
    alexandrov_fenchel_margin,
    anisotropy_condition_margin,
    constant_anisotropy,
    convexity_margin,
    curvature_matrix,
    diagnostics,
    lyapunov_functional,
    make_field,
    make_grid,
    mean_speed_factor,
    moment_powers,
    power_of_linear_anisotropy,
    round_body,
    sigma_k,
    soliton_residual,
    speed,
    speed_factor,
    speed_moment,
    spheroid_support,
    tabulated_anisotropy,
    translated_ball,
)
from anicurve.functionals import critical_offset, diagnostics_csv_header, diagnostics_csv_row
from conftest import random_convex_body


def test_flow_params_validation(grid200):
    with pytest.raises(ValueError):
        FlowParams(k=3, beta=1.0, alpha=0.0)
    with pytest.raises(ValueError):
        FlowParams(k=1, beta=-1.0, alpha=0.0)
    p = FlowParams(k=1, beta=2.0, alpha=-2.0)
    assert p.gamma == 4.0
    assert p.q == -1.0
    assert p.regime == "subcritical"
    assert FlowParams(k=1, beta=1.5, alpha=-0.5).regime == "critical"
    assert FlowParams(k=1, beta=1.5, alpha=0.5).regime == "supercritical"
    assert FlowParams(k=2, beta=1.0, alpha=0.0).gamma == 1.0


@pytest.mark.parametrize(
    "beta, alpha",
    [
        (float("nan"), -2.0),
        (float("inf"), -2.0),
        (2.0, float("nan")),
        (2.0, float("inf")),
        (2.0, -float("inf")),
    ],
)
def test_flow_params_reject_nan_and_infinite_exponents(beta, alpha):
    # NaN passed `beta <= 0`, and a non-finite exponent makes gamma, every
    # regime test and every power of u meaningless
    with pytest.raises(ValueError, match="beta must be positive and finite|alpha must be finite"):
        FlowParams(k=1, beta=beta, alpha=alpha)


def test_regime_on_critical_line_given_in_decimals():
    # alpha + k*beta - 1 evaluates to 2.2e-16 here, not 0
    p = FlowParams(k=1, beta=2.2, alpha=-1.2)
    assert p.q == 0.0
    assert p.regime == "critical"
    assert critical_offset(1, 2.2, -1.2) == 0.0
    assert critical_offset(1, 2.2, -1.2 + 1e-12) > 0.0


def test_anisotropy_constructors(grid200):
    f = power_of_linear_anisotropy(grid200, 0.2, 5.0)
    assert np.max(np.abs(f.field.values - (1 + 0.2 * grid200.cos) ** 5)) < 1e-14
    with pytest.raises(ValueError):
        power_of_linear_anisotropy(grid200, -1.2, 1.0)
    with pytest.raises(ValueError):
        tabulated_anisotropy(grid200, -np.ones(grid200.n))
    assert constant_anisotropy(grid200, 2.0).field.values[0] == 2.0


def test_anisotropy_values_are_a_read_only_copy():
    # what is derived once per FlowParams cannot go stale: every constructor
    # leaves the caller's arrays (the grid's among them) writable and as they
    # were, and a write to the anisotropy's own values raises
    grid = make_grid(64)
    table = 1.0 + 0.3 * np.cos(2.0 * grid.theta)
    kept = [a.copy() for a in (table, grid.theta, grid.cos)]
    for f in (
        constant_anisotropy(grid, 2.0),
        power_of_linear_anisotropy(grid, 0.2, 5.0),
        tabulated_anisotropy(grid, table),
    ):
        assert not np.shares_memory(f.field.values, table)
        with pytest.raises(ValueError, match="read-only"):
            f.field.values[3] = 7.0
        for a, before in zip((table, grid.theta, grid.cos), kept):
            assert a.flags.writeable and np.array_equal(a, before)
    table[3] = 7.0  # the caller's array is the caller's
    assert f.field.values[3] != 7.0


def test_speed_factor_round(grid200):
    p = FlowParams(k=1, beta=1.0, alpha=-1.0)
    rho = speed_factor(round_body(grid200, 1.0), p)
    assert np.max(np.abs(rho.values - 2.0)) < 1e-10

    p = FlowParams(k=1, beta=2.0, alpha=-2.0)
    rho = speed_factor(round_body(grid200, 4.0), p)
    # 4^(-3) * 8^2 = 1
    assert np.max(np.abs(rho.values - 1.0)) < 1e-10

    p = FlowParams(k=2, beta=1.0, alpha=0.0)
    rho = speed_factor(round_body(grid200, 1.0), p)
    assert np.max(np.abs(rho.values - 1.0)) < 1e-10


def test_speed_factor_rejects_nonadmissible(grid200):
    u = make_field(grid200, lambda t: 1.0 + 0.8 * np.cos(2 * t))
    p = FlowParams(k=2, beta=1.5, alpha=0.0)
    with pytest.raises(ValueError):
        speed_factor(u, p)


def test_speed_moments_round(grid200):
    p = FlowParams(k=1, beta=1.0, alpha=-1.0)
    one = round_body(grid200, 1.0)
    assert speed_moment(one, p, 1.0) == pytest.approx(16 * np.pi, rel=1e-10)
    assert speed_moment(one, p, 2.0) == pytest.approx(32 * np.pi, rel=1e-10)
    assert mean_speed_factor(one, p) == pytest.approx(4.0, rel=1e-10)

    p2 = FlowParams(k=1, beta=2.0, alpha=-2.0)
    u4 = round_body(grid200, 4.0)
    assert mean_speed_factor(u4, p2) == pytest.approx(32.0, rel=1e-10)


def test_moment_normalized_round(grid200):
    # normalized round body for k=1 has integral u*sigma_1 equal to 4*pi
    from anicurve import normalize_body

    p = FlowParams(k=1, beta=2.0, alpha=-2.0)
    u = normalize_body(round_body(grid200, 1.7), 1)
    assert speed_moment(u, p, 0.0) == pytest.approx(SPHERE_AREA, rel=1e-10)


def test_moment_homogeneity(grid200):
    p = FlowParams(k=1, beta=2.0, alpha=-2.0)
    u = round_body(grid200, 1.3)
    c = 1.9
    cu = ScalarField(grid200, c * u.values)
    for pw in moment_powers(p.beta):
        degree = (p.k + 1) + pw * (p.alpha - 1.0 + p.k * p.beta)
        assert speed_moment(cu, p, pw) == pytest.approx(
            c**degree * speed_moment(u, p, pw), rel=1e-10
        )


def test_lyapunov_round(grid200):
    p = FlowParams(k=1, beta=2.0, alpha=-1.0)
    one = round_body(grid200, 1.0)
    # rho = 4, so the functional is 8*pi * 4^(-1/2) = 4*pi
    assert lyapunov_functional(one, p) == pytest.approx(4 * np.pi, rel=1e-10)


def test_lyapunov_homogeneity(grid200):
    p = FlowParams(k=1, beta=2.0, alpha=-2.0)
    u = round_body(grid200, 1.1)
    c = 1.45
    cu = ScalarField(grid200, c * u.values)
    degree = (p.k + 1) - (p.alpha - 1.0 + p.k * p.beta) / p.beta
    assert lyapunov_functional(cu, p) == pytest.approx(
        c**degree * lyapunov_functional(u, p), rel=1e-10
    )


def test_lyapunov_constant_speed_factor(grid200):
    # on a self-similar body the functional equals 4*pi * c^(-1/beta)
    p = FlowParams(k=1, beta=2.0, alpha=-2.0)
    u4 = round_body(grid200, 4.0)  # speed factor identically 1
    assert lyapunov_functional(u4, p) == pytest.approx(
        speed_moment(u4, p, 0.0) * 1.0, rel=1e-10
    )


def test_holder_moment_inequality(grid200):
    rng = np.random.default_rng(31)
    p = FlowParams(k=1, beta=2.0, alpha=-2.0)
    for _ in range(5):
        u = random_convex_body(grid200, rng)
        z1 = speed_moment(u, p, 1.0)
        z2 = speed_moment(u, p, 2.0)
        z0 = speed_moment(u, p, 0.0)
        assert z2 * z0 >= z1 * z1 * (1.0 - 1e-12)


def test_anisotropy_condition(grid200):
    p = FlowParams(k=1, beta=2.0, alpha=-2.0)
    one = constant_anisotropy(grid200)
    assert anisotropy_condition_margin(one, p) == pytest.approx(1.0, abs=1e-10)

    expo = 1 + p.k * p.beta - p.alpha  # 5
    f = power_of_linear_anisotropy(grid200, 0.2, expo)
    assert anisotropy_condition_margin(f, p) == pytest.approx(1.0, abs=1e-6)

    bad = tabulated_anisotropy(grid200, (1.0 + 0.9 * np.cos(2 * grid200.theta)) ** expo)
    assert anisotropy_condition_margin(bad, p) < 0

    with pytest.raises(ValueError):
        anisotropy_condition_margin(one, FlowParams(k=1, beta=1.0, alpha=3.0))


def test_af_margin_equality_cases(grid200):
    rng = np.random.default_rng(37)
    for k in (1, 2):
        u = random_convex_body(grid200, rng)
        scale = float(np.max(u.values))
        assert alexandrov_fenchel_margin(u, u, k) == pytest.approx(0.0, abs=1e-10 * scale**4)
        v = ScalarField(grid200, 2.0 * u.values)
        assert alexandrov_fenchel_margin(v, u, k) == pytest.approx(
            0.0, abs=1e-10 * (2 * scale) ** 4
        )


def test_af_margin_strict_case(grid200):
    ball = round_body(grid200, 1.0)
    sph = spheroid_support(grid200, 1.0, 2.0)
    assert alexandrov_fenchel_margin(ball, sph, 1) > 0.1


def test_diagnostics_record(grid200):
    p = FlowParams(k=1, beta=2.0, alpha=-2.0)
    u = translated_ball(grid200, 0.3)
    rec = diagnostics(u, p, t=0.5, tau=0.25)
    assert rec.t == 0.5 and rec.tau == 0.25
    assert rec.R == pytest.approx(1.3 / 0.7, rel=1e-3)
    assert rec.umin == pytest.approx(0.7, abs=1e-3)
    assert rec.umax == pytest.approx(1.3, abs=1e-3)
    assert rec.lambda_min == pytest.approx(1.0, abs=1e-6)
    assert rec.lambda_max == pytest.approx(1.0, abs=1e-6)
    # |grad u| / u = 0.3 sin / (1 + 0.3 cos) peaks where cos = -0.3
    expected = 0.3 * np.sqrt(1 - 0.09) / (1 - 0.09)
    assert rec.gradmax == pytest.approx(expected, rel=1e-4)
    assert rec.Q_min <= rec.Q_max
    assert rec.eta == pytest.approx(rec.Z[1.0] / SPHERE_AREA, rel=1e-14)

    header = diagnostics_csv_header(moment_powers(p.beta))
    row = diagnostics_csv_row(rec)
    assert header.startswith("t,tau,R,eta,J,Z_-0.5")
    assert len(header.split(",")) == len(row.split(","))


def test_one_admissibility_rule():
    # sigma_1 > 0 everywhere, yet one principal radius is negative near the
    # poles: every evaluator must reject the body with the same error
    grid = make_grid(200)
    u = make_field(grid, lambda t: 1.0 + 0.44 * np.cos(2 * t) - 0.05 * np.cos(4 * t))
    assert sigma_k(curvature_matrix(u), 1).values.min() > 0
    assert convexity_margin(u) < 0
    # a non-finite state, such as a blown-up step result, fails the rule too
    nan_vals = np.ones(grid.n)
    nan_vals[5] = np.nan
    p = FlowParams(k=1, beta=2.0, alpha=-2.0)
    for body in (u, ScalarField(grid, nan_vals)):
        calls = (
            lambda: speed_factor(body, p),
            lambda: speed_moment(body, p, 1.0),
            lambda: diagnostics(body, p, 0.0, 0.0),
            lambda: soliton_residual(body, SolitonProblem(p, 1.0)),
            lambda: speed(body, p),
        )
        for call in calls:
            with pytest.raises(ConvexityLostError):
                call()
    assert issubclass(ConvexityLostError, ValueError)
