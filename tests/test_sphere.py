import numpy as np
import pytest

from anicurve import differentiate, integrate, make_field, make_grid
from anicurve.sphere import _derivatives, _extend
from conftest import observed_orders


def test_make_grid_basic():
    g = make_grid(16)
    assert g.n == 16
    assert g.h == pytest.approx(np.pi / 17, abs=0)
    assert g.theta[0] == pytest.approx(np.pi / 17, abs=1e-15)
    assert abs(g.h * 17 - np.pi) < 1e-15


def test_make_grid_200():
    g = make_grid(200)
    assert len(g.theta) == 200
    assert g.theta[-1] == pytest.approx(200 * np.pi / 201, abs=1e-12)
    assert np.all(np.diff(g.theta) > 0)
    assert g.theta[0] > 0 and g.theta[-1] < np.pi


def test_make_grid_too_small():
    with pytest.raises(ValueError):
        make_grid(8)


def test_make_field_rejects_bad_input():
    g = make_grid(16)
    for data in (np.ones(5), lambda t: np.ones(5)):
        with pytest.raises(ValueError, match="expected 16 values, got shape \\(5,\\)"):
            make_field(g, data)
    for data in (np.full(16, np.nan), lambda t: np.inf):
        with pytest.raises(ValueError, match="field values must be finite"):
            make_field(g, data)


def test_make_field_takes_arrays_scalars_and_callables():
    g = make_grid(16)
    for data in (2.0, np.float64(2.0), np.full(16, 2.0), [2.0] * 16, lambda t: 2.0, lambda t: 2.0 + 0 * t):
        assert np.array_equal(make_field(g, data).values, np.full(16, 2.0))


def test_derivative_of_constant(grid200):
    u = make_field(grid200, 3.0)
    assert np.max(np.abs(differentiate(u, 1, "even").values)) < 1e-12
    assert np.max(np.abs(differentiate(u, 2, "even").values)) < 1e-12


def test_derivative_cos_first_order(grid200):
    u = make_field(grid200, np.cos)
    d1 = differentiate(u, 1, "even")
    assert np.max(np.abs(d1.values + grid200.sin)) < 1e-8


def test_derivative_cos_second_order(grid200):
    u = make_field(grid200, np.cos)
    d2 = differentiate(u, 2, "even")
    assert np.max(np.abs(d2.values + grid200.cos)) < 1e-8


def test_derivative_odd_parity(grid200):
    u = make_field(grid200, np.sin)
    d1 = differentiate(u, 1, "odd")
    assert np.max(np.abs(d1.values - grid200.cos)) < 1e-8


def test_derivative_rejects_bad_args(grid200):
    u = make_field(grid200, np.cos)
    with pytest.raises(ValueError):
        differentiate(u, 3, "even")
    with pytest.raises(ValueError):
        differentiate(u, 1, "mixed")


def test_pole_ghosts_are_the_sequential_sum():
    # 1.5*u0 + (-0.6)*u1 + 0.1*u2, summed left to right, at both poles of
    # every profile, contiguous or strided: no BLAS dot product whose
    # rounding depends on the build; the odd ghosts mirror with a sign flip
    # and vanish at the poles
    rng = np.random.default_rng(12)
    u = rng.uniform(0.5, 2.0, (500, 20)) * 10.0 ** rng.integers(-3, 4, (500, 1))
    near = 1.5 * u[:, 0] + -0.6 * u[:, 1] + 0.1 * u[:, 2]
    far = 1.5 * u[:, -1] + -0.6 * u[:, -2] + 0.1 * u[:, -3]
    for rows in (u, np.asfortranarray(u)):
        for values, pole0, pole1 in zip(rows, near, far):
            v = _extend(values, "even")
            assert v[1] == pole0 and v[-2] == pole1
            assert v[0] == values[0] and v[-1] == values[-1]
            assert np.array_equal(v[2:-2], values)
            v = _extend(values, "odd")
            assert [v[0], v[1], v[-2], v[-1]] == [-values[0], 0.0, 0.0, -values[-1]]
            assert np.array_equal(v[2:-2], values)


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("shape", [(16,), (200,)], ids=str)
def test_derivatives_match_written_out_stencils(parity, shape):
    # the "valid" correlation rounds as the 5-term sums written out
    rng = np.random.default_rng(len(shape) * 1000 + shape[-1])
    values = rng.uniform(0.5, 2.0, shape) * 10.0 ** rng.integers(-3, 4)
    h = np.pi / (shape[-1] + 1)
    v = _extend(values, parity)
    d1 = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * h)
    d2 = (-v[:-4] + 16.0 * v[1:-3] - 30.0 * v[2:-2] + 16.0 * v[3:-1] - v[4:]) / (12.0 * h * h)
    got1, got2 = _derivatives(values, h, parity)
    assert np.array_equal(got1, d1)
    assert np.array_equal(got2, d2)


def test_differentiate_is_linear(grid200):
    g = grid200
    u = make_field(g, np.cos)
    v = make_field(g, lambda t: 1.0 / (2.0 + np.cos(t)))
    a, b = 2.25, -0.75
    lhs = differentiate(make_field(g, a * u.values + b * v.values), 2, "even").values
    rhs = a * differentiate(u, 2, "even").values + b * differentiate(v, 2, "even").values
    # roundoff is amplified by the stencil scale, about 30/(12 h^2)
    scale = abs(a) * np.max(np.abs(u.values)) + abs(b) * np.max(np.abs(v.values))
    tol = 4.0 * (np.finfo(float).eps / g.h**2) * scale
    assert np.max(np.abs(lhs - rhs)) < tol


@pytest.mark.parametrize("n", [100, 200])
def test_second_derivative_composition(n):
    # two first-derivative applications lose one order near the poles
    g = make_grid(n)
    u = make_field(g, lambda t: np.cos(2 * t))
    direct = differentiate(u, 2, "even").values
    composed = differentiate(differentiate(u, 1, "even"), 1, "odd").values
    err = np.max(np.abs(direct - composed))
    assert err < 40.0 * g.h**3


def test_composition_error_decays_third_order():
    errs = []
    for n in (100, 200):
        g = make_grid(n)
        u = make_field(g, lambda t: np.cos(2 * t))
        direct = differentiate(u, 2, "even").values
        composed = differentiate(differentiate(u, 1, "even"), 1, "odd").values
        errs.append(np.max(np.abs(direct - composed)))
    assert errs[1] < 0.3 * errs[0]


def test_integrate_constant(grid200):
    assert integrate(make_field(grid200, 1.0)) == pytest.approx(4 * np.pi, abs=1e-8)


def test_integrate_odd_moment(grid200):
    assert abs(integrate(make_field(grid200, np.cos))) < 1e-10


def test_integrate_cos_squared(grid200):
    # oracle: 2*pi * int_0^pi cos^2 sin dtheta = 2*pi * [-cos^3/3] = 4*pi/3
    got = integrate(make_field(grid200, lambda t: np.cos(t) ** 2))
    assert got == pytest.approx(4 * np.pi / 3, abs=1e-8)


def test_integrate_fourth_order_refinement():
    errs = []
    for n in (23, 47, 95):
        g = make_grid(n)
        errs.append(abs(integrate(make_field(g, lambda t: np.cos(t) ** 2)) - 4 * np.pi / 3))
    # halving h must shrink the error by at least 2^4
    assert errs[1] < errs[0] / 16.0
    assert errs[2] < errs[1] / 16.0


@pytest.mark.parametrize("sizes", [(50, 100, 200, 400), (49, 99, 199, 399)])
def test_integrate_sixth_order_refinement(sizes):
    # n + 1 intervals: odd counts take the 3/8 block, even counts pure
    # Simpson; the end-corrected rule is better than 5th order on both
    # (measured 5.93-6.00)
    exact = 4 * np.pi * np.sinh(1.0)
    errs = []
    for n in sizes:
        g = make_grid(n)
        errs.append((abs(integrate(make_field(g, lambda t: np.exp(np.cos(t)))) - exact), g.h))
    assert min(observed_orders(errs)) >= 5.5

