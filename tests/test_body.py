import warnings

import numpy as np
import pytest
from scipy.linalg import solve_banded

from anicurve import (
    ScalarField,
    convexity_margin,
    curvature_matrix,
    integrate,
    make_field,
    make_grid,
    mixed_volume,
    normalize_body,
    polar_dual,
    profile_curve,
    round_body,
    sigma_k,
    spheroid_support,
    translated_ball,
)
from anicurve.body import (
    ConvexityLostError,
    _all_finite,
    _band_solver,
    _entry_bands,
    _largest,
    _radii,
    _smallest,
)
from anicurve.sphere import _derivatives
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
    sigma2 = sigma_k(curvature_matrix(u), 2).values
    oracle = _spheroid_sigma2_oracle(u.values, 1.0, 2.0)
    assert np.max(np.abs(sigma2 - oracle) / oracle) < 1e-5
    # pole limit: both radii tend to a^2/b, so sigma_2 -> 0.25
    assert sigma2[0] == pytest.approx(0.25, abs=2e-3)


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
    W = curvature_matrix(u)
    lam1 = np.minimum(W.b11.values, W.b22.values)
    lam2 = np.maximum(W.b11.values, W.b22.values)
    assert np.max(np.abs(lam1 * lam2 - sigma_k(W, 2).values)) < 1e-9
    assert np.max(np.abs(lam1 + lam2 - sigma_k(W, 1).values)) < 1e-9


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
        W = curvature_matrix(u)
        s1, s2 = sigma_k(W, 1).values, sigma_k(W, 2).values
        assert np.all(s1**2 - 4 * s2 > -1e-11 * np.max(s1) ** 2)
    # equality exactly at umbilic points: the round body
    W = curvature_matrix(round_body(grid200, 1.3))
    assert np.max(np.abs(sigma_k(W, 1).values ** 2 - 4 * sigma_k(W, 2).values)) < 1e-9


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
    # one NaN or infinite node makes the margin NaN, which is refused with
    # no warning (a NaN margin used to pass the guard: the body came back
    # all NaN)
    for bad in (np.nan, np.inf):
        vals = spheroid_support(grid200, 1.0, 1.3).values
        vals[40] = bad
        assert np.isnan(convexity_margin(ScalarField(grid200, vals)))
        with pytest.raises(ValueError, match="not uniformly convex"):
            normalize_body(ScalarField(grid200, vals), 1)


def test_polar_dual(grid200):
    u = make_field(grid200, lambda t: 2.0 + 0 * t)
    assert np.max(np.abs(polar_dual(u).values - 0.5)) < 1e-15
    v = translated_ball(grid200, 0.3)
    assert np.max(np.abs(polar_dual(v).values - 1.0 / v.values)) == 0.0
    for bad in (np.nan, np.inf, 0.0):
        vals = v.values.copy()
        vals[17] = bad
        with pytest.raises(ValueError, match="positive and finite"):
            polar_dual(ScalarField(grid200, vals))


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


def _stack(grid, rows=10, seed=3):
    """rows profiles near one random convex body, as a (rows, n) stack."""
    rng = np.random.default_rng(seed)
    u = random_convex_body(grid, rng).values
    return u * (1.0 + 1e-6 * rng.standard_normal((rows, grid.n)))


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
    # cause, and neither NaN nor a non-positive value warns on the way, for a
    # contiguous profile and for a row read as a strided view out of a
    # Fortran-ordered stack
    stack = np.asfortranarray(_stack(grid64))
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
    if shape == "profile":
        row = row.copy()
    else:
        assert not row.flags.c_contiguous
    with pytest.raises(ConvexityLostError, match=cause):
        _radii(row, grid64, 2)
    _radii(np.ascontiguousarray(stack[6]), grid64, 2)


@pytest.mark.parametrize("n", [96, 200, 800])
def test_band_solver_matches_solve_banded(n):
    # one dgbsv (dgbtrf, then dgbtrs) for the first right side, then one
    # dgbtrs per later right side, is what solve_banded does in one call: the
    # bits agree for one and for two right sides, for the band and for
    # shift*I - band written into LAPACK's band directly, and whether the
    # solve is done in b itself (1-D or Fortran order) or in LAPACK's copy
    rng = np.random.default_rng(n)
    for _ in range(5):
        ab = rng.standard_normal((5, n))
        ab[2] += rng.uniform(-2.0, 6.0)
        shift = rng.uniform(8.0, 12.0)
        shifted = -ab
        shifted[2] += shift
        for given, matrix in ((None, ab), (shift, shifted)):
            for b in (rng.standard_normal(n), rng.standard_normal((n, 2))):
                want = solve_banded((2, 2), matrix, b)
                # every solve may write into its right side: each gets a copy
                first, solve = _band_solver(ab, b.copy(), given)
                x = solve(b.copy())
                for got in (first, x):
                    assert got.shape == b.shape
                    assert np.array_equal(got, want)
                own = np.array(b, order="F")
                assert np.array_equal(_band_solver(ab, own, given)[0], want)
                assert np.array_equal(solve(np.array(b, order="F")), want)


def test_band_solver_checks():
    n = 32
    ab = np.zeros((5, n))
    ab[2] = 4.0
    ab[[1, 3]] = -1.0
    good = np.ones(n)
    _, solve = _band_solver(ab, good)
    bad = np.ones(n)
    bad[5] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        solve(bad)
    with pytest.raises(ValueError, match="infs or NaNs"):
        _band_solver(ab, bad)
    with pytest.raises(ValueError, match="infs or NaNs"):
        _band_solver(np.where(np.arange(n) == 9, np.inf, ab), good)
    with pytest.raises(ValueError, match="infs or NaNs"):
        _band_solver(ab, good, np.nan)
    singular = ab.copy()
    singular[:, 4] = 0.0  # a zero column
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        _band_solver(singular, good)


def _band_times(ab, x):
    """The (2, 2) band ab in solve_banded storage applied to x."""
    n = x.size
    y = np.zeros(n)
    for d in range(-2, 3):
        j = np.arange(max(0, -d), min(n, n - d))
        y[j + d] += ab[2 + d, j] * x[j]
    return y


@pytest.mark.parametrize("n", [16, 17, 18, 20, 64])
def test_entry_bands_apply_the_kernel_differences(n):
    # the cached bands of u -> b11 = D2 u + u and u -> b22 = cot D1 u + u,
    # applied to a random profile, give the differences of _derivatives with
    # their even pole ghosts; the sizes cover every n mod 5
    g = make_grid(n)
    x = np.random.default_rng(n).standard_normal(n)
    d1, d2 = _derivatives(x, g.h, "even")
    db11, db22 = _entry_bands(n)
    assert db11.shape == db22.shape == (5, n)
    assert np.allclose(_band_times(db11, x), d2 + x, rtol=0.0, atol=1e-12 * np.max(np.abs(d2)))
    assert np.allclose(_band_times(db22, x), d1 * g.cot + x, rtol=0.0, atol=1e-12 * np.max(np.abs(d1 * g.cot)))
    for ab in (db11, db22):
        assert not ab[0, :2].any() and not ab[1, 0] and not ab[3, -1] and not ab[4, -2:].any()
        assert not ab.flags.writeable
    assert _entry_bands(n) is _entry_bands(n)  # built once per n


def _reduction_inputs(grid):
    """Arrays for the reduction helpers: random profiles, strided rows of a
    Fortran-ordered stack, and (5, n) bands in C and in Fortran order, each
    as drawn, with a NaN, +-inf or a signed zero first, in the middle or
    last (in C order), and all zeros of alternating sign."""
    rng = np.random.default_rng(5)
    stack = np.asfortranarray(_stack(grid))
    band = rng.standard_normal((5, grid.n))
    profiles = [rng.uniform(-2.0, 3.0, grid.n) for _ in range(3)]
    makers = [lambda x=x: x.copy() for x in profiles]
    makers += [
        lambda: np.array(stack, order="F")[7],
        lambda: band.copy(),
        lambda: np.array(band, order="F"),
    ]
    for make in makers:
        size = make().size
        yield make()
        for bad in (np.nan, np.inf, -np.inf, 0.0, -0.0):
            for i in (0, size // 2, size - 1):
                a = make()
                a[np.unravel_index(i, a.shape)] = bad
                yield a
        a = make()
        a.flat[::2] = 0.0
        a.flat[1::2] = -0.0
        yield a
        yield -a


def test_reduction_helpers_match_the_ufunc_reductions(grid64):
    # _smallest, _largest and _all_finite take argmin/argmax and one item in
    # place of a ufunc reduction: the same value (NaN for NaN; a zero may
    # differ in sign only), the same verdict, and no warning, for contiguous
    # profiles, strided rows of a Fortran-ordered stack and 2-D bands in
    # either order
    seen = set()
    for a in _reduction_inputs(grid64):
        seen.add((a.ndim, a.flags.c_contiguous, a.flags.f_contiguous))
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            got = _smallest(a), _largest(a), _all_finite(a)
        want = (
            float(np.minimum.reduce(a, axis=None)),
            float(np.maximum.reduce(a, axis=None)),
            bool(np.isfinite(a).all()),
        )
        assert type(got[0]) is type(got[1]) is float and type(got[2]) is bool
        assert np.array_equal(got[:2], want[:2], equal_nan=True) and got[2] is want[2]
    # contiguous and strided profiles, C- and Fortran-ordered bands
    assert {(1, True, True), (1, False, False), (2, True, False), (2, False, True)} <= seen
