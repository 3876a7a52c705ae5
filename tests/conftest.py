import numpy as np
import pytest

from anicurve import ScalarField, convexity_margin, make_grid


@pytest.fixture(scope="session")
def grid200():
    return make_grid(200)


@pytest.fixture(scope="session")
def grid64():
    return make_grid(64)


def random_convex_body(grid, rng, scale=1.0, modes=4):
    """Seeded random uniformly convex axisymmetric body.

    Perturbs a round body with low cos(m*theta) modes and rejects draws whose
    convexity margin is not comfortably positive.
    """
    for _ in range(100):
        r0 = scale * float(np.exp(rng.uniform(-0.5, 0.5)))
        vals = np.full(grid.n, r0)
        for m in range(1, modes + 1):
            vals += r0 * rng.uniform(-0.06, 0.06) * np.cos(m * grid.theta)
        u = ScalarField(grid, vals)
        if vals.min() > 0 and convexity_margin(u) > 0.05 * r0:
            return u
    raise RuntimeError("failed to draw a convex body")


def observed_orders(errs_and_h):
    """Observed orders of accuracy log(e0/e1) / log(h0/h1) between successive
    (error, h) pairs of a grid refinement."""
    return [
        np.log(e0 / e1) / np.log(h0 / h1)
        for (e0, h0), (e1, h1) in zip(errs_and_h, errs_and_h[1:])
    ]


def exact_spheroid_soliton(grid, a, b, k, beta, alpha, c=1.0):
    """(u*, f*) node values: the support function of the spheroid with
    semiaxes (a, a, b) and the anisotropy for which it solves
    f u^(alpha-1) sigma_k^beta = c exactly.

    The spheroid's principal radii are closed forms of its support function
    u: a^2 b^2 / u^3 along the meridian and a^2 / u along the parallel.
    """
    u = np.sqrt(a * a * grid.sin**2 + b * b * grid.cos**2)
    r1, r2 = (a * b) ** 2 / u**3, a * a / u
    sig = r1 + r2 if k == 1 else r1 * r2
    return u, c / (u ** (alpha - 1.0) * sig**beta)
