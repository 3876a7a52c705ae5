import numpy as np
import pytest
from scipy.linalg import solve_banded

from anicurve import (
    ScalarField,
    body_geometry,
    convexity_margin,
    curvature_matrix,
    integrate,
    make_field,
    make_grid,
    mixed_volume,
    normalize_body,
    polar_dual,
    profile_curve,
    radial_from_support,
    round_body,
    sigma_k,
    spheroid_support,
    support_from_radial,
    translated_ball,
    write_profile_csv,
)
from anicurve.body import ConvexityLostError, _band_solver, _radii
from conftest import observed_orders, random_convex_body


def test_unit_ball_curvature(grid200):
    W = curvature_matrix(round_body(grid200, 1.0))
    assert np.max(np.abs(W.b11.values - 1.0)) < 1e-11
    assert np.max(np.abs(W.b22.values - 1.0)) < 1e-11


def test_translate_curvature(grid200):
    # translate of the unit ball: the Hessian of a linear restriction
    # cancels, so W stays the identity
    W = curvature_matrix(translated_ball(grid200, 0.3))
    assert np.max(np.abs(W.b11.values - 1.0)) < 1e-6
    assert np.max(np.abs(W.b22.values - 1.0)) < 1e-6


def _spheroid_sigma2_oracle(u_values, a, b):
    # for an ellipsoid with semiaxes (a, a, b): sigma_2 = (a*a*b)^2 / u^4
    return (a * a * b) ** 2 / u_values**4


def test_spheroid_sigma2(grid200):
    u = spheroid_support(grid200, 1.0, 2.0)
    geom = body_geometry(u)
    oracle = _spheroid_sigma2_oracle(u.values, 1.0, 2.0)
    assert np.max(np.abs(geom.sigma2.values - oracle) / oracle) < 1e-5
    # pole limit: both radii tend to a^2/b, so sigma_2 -> 0.25
    assert geom.sigma2.values[0] == pytest.approx(0.25, abs=2e-3)


def test_curvature_matrix_order_spheroid():
    # radii of the spheroid with semiaxes (a, a, b): meridian a^2 b^2 / u^3,
    # parallel a^2 / u; the 4th-order stencil and the pole ghosts must keep
    # 4th order (measured 3.95, 3.99, 4.00)
    a, b = 1.0, 1.5
    errs = []
    for n in (50, 100, 200, 400):
        g = make_grid(n)
        u = spheroid_support(g, a, b)
        W = curvature_matrix(u)
        err = max(
            np.max(np.abs(W.b11.values - a * a * b * b / u.values**3)),
            np.max(np.abs(W.b22.values - a * a / u.values)),
        )
        errs.append((err, g.h))
    assert min(observed_orders(errs)) >= 3.8


def test_sigma_k_round(grid200):
    for r in (0.5, 2.0):
        W = curvature_matrix(round_body(grid200, r))
        assert np.max(np.abs(sigma_k(W, 1).values - 2 * r)) < 1e-10
        assert np.max(np.abs(sigma_k(W, 2).values - r * r)) < 1e-10


def test_sigma_k_translate(grid200):
    W = curvature_matrix(translated_ball(grid200, 0.3))
    assert np.max(np.abs(sigma_k(W, 1).values - 2.0)) < 1e-6
    assert np.max(np.abs(sigma_k(W, 2).values - 1.0)) < 1e-6


def test_convexity_margin_values(grid200):
    assert convexity_margin(round_body(grid200, 1.0)) == pytest.approx(1.0, abs=1e-10)
    assert convexity_margin(translated_ball(grid200, 0.3)) == pytest.approx(1.0, abs=1e-6)


def test_convexity_margin_sign_change(grid200):
    # u = 1 + A*cos(2 theta) has margin 1 - 3A at the poles
    for amp, expect in ((0.1, 0.7), (0.8, -1.4)):
        u = make_field(grid200, lambda t: 1.0 + amp * np.cos(2 * t))
        m = convexity_margin(u)
        assert m == pytest.approx(expect, abs=1e-3)
        assert (m > 0) == (expect > 0)


def test_lambda_identities(grid200):
    rng = np.random.default_rng(7)
    u = random_convex_body(grid200, rng)
    geom = body_geometry(u)
    assert np.max(np.abs(geom.lambda1.values * geom.lambda2.values - geom.sigma2.values)) < 1e-9
    assert np.max(np.abs(geom.lambda1.values + geom.lambda2.values - geom.sigma1.values)) < 1e-9


def test_mixed_volume_unit_ball(grid200):
    one = round_body(grid200, 1.0)
    assert mixed_volume(one, [one], 1) == pytest.approx(8 * np.pi, abs=1e-8)
    assert mixed_volume(one, [one, one], 2) == pytest.approx(4 * np.pi, abs=1e-8)


def test_mixed_volume_arity(grid200):
    one = round_body(grid200, 1.0)
    with pytest.raises(ValueError):
        mixed_volume(one, [one, one], 1)
    with pytest.raises(ValueError):
        mixed_volume(one, [one], 2)
    # k outside {1, 2} is rejected before the arity check
    sph = spheroid_support(make_grid(64), 1.0, 1.5)
    with pytest.raises(ValueError, match="k must be 1 or 2"):
        mixed_volume(sph, [sph, sph, sph], 3)
    with pytest.raises(ValueError, match="k must be 1 or 2"):
        mixed_volume(sph, [], 0)


def test_mixed_volume_symmetry(grid200):
    rng = np.random.default_rng(11)
    for _ in range(5):
        v = random_convex_body(grid200, rng)
        u = random_convex_body(grid200, rng)
        scale = max(np.max(v.values), np.max(u.values)) ** 2
        a = mixed_volume(v, [u], 1)
        b = mixed_volume(u, [v], 1)
        assert abs(a - b) < 1e-6 * scale


def test_mixed_volume_multilinearity(grid200):
    rng = np.random.default_rng(13)
    v = random_convex_body(grid200, rng)
    u = random_convex_body(grid200, rng)
    c = 1.7
    cu = ScalarField(grid200, c * u.values)
    assert mixed_volume(v, [cu], 1) == pytest.approx(c * mixed_volume(v, [u], 1), rel=1e-13)
    assert mixed_volume(v, [cu, u], 2) == pytest.approx(c * mixed_volume(v, [u, u], 2), rel=1e-13)


def test_sigma_scaling_homogeneity(grid200):
    rng = np.random.default_rng(17)
    u = random_convex_body(grid200, rng)
    c = 2.5
    cu = ScalarField(grid200, c * u.values)
    s1 = sigma_k(curvature_matrix(u), 1).values
    s1c = sigma_k(curvature_matrix(cu), 1).values
    s2 = sigma_k(curvature_matrix(u), 2).values
    s2c = sigma_k(curvature_matrix(cu), 2).values
    assert np.max(np.abs(s1c - c * s1)) < 1e-12 * np.max(s1c)
    assert np.max(np.abs(s2c - c * c * s2)) < 1e-12 * np.max(s2c)


def test_translation_invariance(grid200):
    rng = np.random.default_rng(19)
    u = random_convex_body(grid200, rng)
    eps = 0.2 * float(u.values.min())
    shifted = ScalarField(grid200, u.values + eps * grid200.cos)
    for k in (1, 2):
        s = sigma_k(curvature_matrix(u), k).values
        ss = sigma_k(curvature_matrix(shifted), k).values
        assert np.max(np.abs(s - ss)) < 1e-6 * np.max(np.abs(s))


def test_newton_maclaurin(grid200):
    rng = np.random.default_rng(23)
    for _ in range(5):
        u = random_convex_body(grid200, rng)
        geom = body_geometry(u)
        s1, s2 = geom.sigma1.values, geom.sigma2.values
        assert np.all(s1**2 - 4 * s2 > -1e-11 * np.max(s1) ** 2)
    # equality exactly at umbilic points: the round body
    geom = body_geometry(round_body(grid200, 1.3))
    assert np.max(np.abs(geom.sigma1.values**2 - 4 * geom.sigma2.values)) < 1e-9


def test_normalize_body_round(grid200):
    for r in (0.5, 3.0):
        u = round_body(grid200, r)
        n1 = normalize_body(u, 1)
        assert np.max(np.abs(n1.values - 1 / np.sqrt(2))) < 1e-9
        n2 = normalize_body(u, 2)
        assert np.max(np.abs(n2.values - 1.0)) < 1e-9


def test_normalize_body_defining_property(grid200):
    rng = np.random.default_rng(29)
    for k in (1, 2):
        u = random_convex_body(grid200, rng)
        n = normalize_body(u, k)
        w = curvature_matrix(n)
        val = integrate(ScalarField(grid200, n.values * sigma_k(w, k).values))
        assert val == pytest.approx(4 * np.pi, abs=1e-6)


def test_normalize_body_rejects_nonconvex(grid200):
    u = make_field(grid200, lambda t: 1.0 + 0.8 * np.cos(2 * t))
    with pytest.raises(ValueError):
        normalize_body(u, 1)


def test_radial_from_support_round(grid200):
    r = radial_from_support(round_body(grid200, 1.0))
    assert np.max(np.abs(r.values - 1.0)) < 1e-10


def test_radial_from_support_translate(grid200):
    # ball of radius 1 centered at (0,0,0.3):
    # r(theta) = 0.3 cos(theta) + sqrt(1 - 0.09 sin^2(theta))
    u = translated_ball(grid200, 0.3)
    r = radial_from_support(u)
    oracle = 0.3 * grid200.cos + np.sqrt(1.0 - 0.09 * grid200.sin**2)
    assert np.max(np.abs(r.values - oracle)) < 1e-3
    assert r.values[0] == pytest.approx(1.3, abs=1e-3)
    assert r.values[-1] == pytest.approx(0.7, abs=1e-3)


def test_radial_from_support_spheroid():
    g = make_grid(400)
    u = spheroid_support(g, 1.0, 2.0)
    r = radial_from_support(u)
    oracle = 1.0 / np.sqrt(g.sin**2 + g.cos**2 / 4.0)
    assert np.max(np.abs(r.values - oracle)) < 1e-4


def test_support_from_radial_round(grid200):
    u = support_from_radial(make_field(grid200, 3.0))
    assert np.max(np.abs(u.values - 3.0)) < 1e-10


def test_round_trip_spheroid():
    g = make_grid(400)
    u = spheroid_support(g, 1.0, 2.0)
    back = support_from_radial(radial_from_support(u))
    assert np.max(np.abs(back.values - u.values)) < 5e-3


def test_round_trip_translate():
    g = make_grid(400)
    oracle = 0.3 * g.cos + np.sqrt(1.0 - 0.09 * g.sin**2)
    u = support_from_radial(make_field(g, oracle))
    assert np.max(np.abs(u.values - (1.0 + 0.3 * g.cos))) < 5e-3


def test_polar_dual(grid200):
    u = make_field(grid200, lambda t: 2.0 + 0 * t)
    assert np.max(np.abs(polar_dual(u).values - 0.5)) < 1e-15
    v = translated_ball(grid200, 0.3)
    assert np.max(np.abs(polar_dual(v).values - 1.0 / v.values)) == 0.0
    # dual of dual recovers the unit ball exactly
    one = round_body(grid200, 1.0)
    twice = polar_dual(support_from_radial(polar_dual(one)))
    assert np.max(np.abs(twice.values - 1.0)) < 1e-10


def test_profile_unit_ball(grid200):
    prof = profile_curve(round_body(grid200, 1.0))
    radii = np.hypot(prof[:, 0], prof[:, 1])
    assert np.max(np.abs(radii - 1.0)) < 1e-10


def test_profile_translate(grid200):
    prof = profile_curve(translated_ball(grid200, 0.3))
    radii = np.hypot(prof[:, 0], prof[:, 1] - 0.3)
    assert np.max(np.abs(radii - 1.0)) < 1e-6


def test_profile_spheroid(grid200):
    prof = profile_curve(spheroid_support(grid200, 1.0, 2.0))
    resid = prof[:, 0] ** 2 + (prof[:, 1] / 2.0) ** 2 - 1.0
    assert np.max(np.abs(resid)) < 1e-6


def test_profile_csv(tmp_path, grid200):
    path = tmp_path / "profile.csv"
    write_profile_csv(path, profile_curve(round_body(grid200, 1.0)))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "rho,z"
    assert len(lines) == grid200.n + 1
    rho, z = map(float, lines[1].split(","))
    assert rho**2 + z**2 == pytest.approx(1.0, abs=1e-10)


def _stack(grid, rows=10, seed=3):
    """rows profiles near one random convex body, as a (rows, n) stack."""
    rng = np.random.default_rng(seed)
    u = random_convex_body(grid, rng).values
    return u * (1.0 + 1e-6 * rng.standard_normal((rows, grid.n)))


def _layout(grid, layout):
    """A stack of profiles in one of the shapes and memory layouts the kernel
    must treat row by row."""
    stack = _stack(grid)
    if layout == "unrelated":
        # distinct random bodies whose sizes span six orders of magnitude
        rng = np.random.default_rng(8)
        return np.stack([random_convex_body(grid, rng, scale=10.0**e).values for e in range(-3, 4)])
    if layout == "3-D":
        return stack.reshape(2, 5, grid.n)
    if layout == "Fortran":
        return np.asfortranarray(stack)
    if layout == "strided":
        return np.repeat(stack, 2, axis=-1)[:, ::2]  # every row non-contiguous
    return stack


@pytest.mark.parametrize(
    "k, layout",
    [
        pytest.param(1, "near", id="1"),
        pytest.param(2, "near", id="2"),
        pytest.param(2, "unrelated", id="2-unrelated"),
        pytest.param(1, "3-D", id="1-3-D"),
        pytest.param(2, "Fortran", id="2-Fortran"),
        pytest.param(1, "strided", id="1-strided"),
    ],
)
def test_radii_of_a_stack_match_rows(grid64, k, layout):
    # one ghost padding and one stencil pass for the whole stack give, row by
    # row, the bits of the 1-D kernel, whatever the stack's shape or layout
    stack = _layout(grid64, layout)
    batched = _radii(stack, grid64, k)
    for r in np.ndindex(stack.shape[:-1]):
        for whole, single in zip(batched, _radii(np.ascontiguousarray(stack[r]), grid64, k)):
            assert whole.shape == stack.shape
            assert np.array_equal(whole[r], single)


@pytest.mark.parametrize("bad", ["negative value", "negative radius", "nan"])
def test_stack_with_one_inadmissible_row_raises(grid64, bad):
    stack = _stack(grid64)
    row = stack[7]
    if bad == "negative value":
        row[3] = -row[3]
    elif bad == "negative radius":
        row += 0.9 * row.mean() * np.cos(2 * grid64.theta)  # b11 < 0 at the poles
    else:
        row[30] = np.nan
    with pytest.raises(ConvexityLostError):
        _radii(row, grid64, 2)
    with pytest.raises(ConvexityLostError):
        _radii(stack, grid64, 2)
    _radii(np.delete(stack, 7, axis=0), grid64, 2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("shape", ["profile", "stack"])
@pytest.mark.parametrize(
    "bad, cause",
    [
        ("negative value", "support values must be positive"),
        ("zero value", "support values must be positive"),
        ("nan", "support values must be positive"),
        ("negative radius", "uniform convexity lost"),
    ],
)
def test_admissibility_names_its_cause(grid64, shape, bad, cause):
    # one reduction decides admissibility; the failure path alone names the
    # cause, and neither NaN nor a non-positive value warns on the way
    stack = _stack(grid64)
    row = stack[7]
    if bad == "negative value":
        row[3] = -row[3]
    elif bad == "zero value":
        row[0] = 0.0
    elif bad == "nan":
        row[30] = np.nan
    else:
        row += 0.9 * row.mean() * np.cos(2 * grid64.theta)  # b11 < 0 at the poles
        assert row.min() > 0
    with pytest.raises(ConvexityLostError, match=cause):
        _radii(row.copy() if shape == "profile" else stack, grid64, 2)


@pytest.mark.parametrize("n", [96, 200, 800])
def test_band_solver_matches_solve_banded(n):
    # one dgbtrf, then one dgbtrs per right side, is what solve_banded does
    # in one call: the bits agree for one and for two right sides
    rng = np.random.default_rng(n)
    for _ in range(5):
        ab = rng.standard_normal((5, n))
        ab[2] += rng.uniform(-2.0, 6.0)
        solve = _band_solver(ab)
        for b in (rng.standard_normal(n), rng.standard_normal((n, 2))):
            x = solve(b)
            assert x.shape == b.shape
            assert np.array_equal(x, solve_banded((2, 2), ab, b))


def test_band_solver_checks():
    n = 32
    ab = np.zeros((5, n))
    ab[2] = 4.0
    ab[[1, 3]] = -1.0
    solve = _band_solver(ab)
    bad = np.ones(n)
    bad[5] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        solve(bad)
    with pytest.raises(ValueError, match="infs or NaNs"):
        _band_solver(np.where(np.arange(n) == 9, np.inf, ab))
    singular = ab.copy()
    singular[:, 4] = 0.0  # a zero column
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        _band_solver(singular)
