"""Support-function geometry of axisymmetric convex bodies.

A convex body is represented by its support function u(theta) > 0.  In the
axisymmetric orthonormal frame the curvature matrix W_u = Hess(u) + u*I is
diagonal with entries

    b11 = u'' + u,        b22 = u' * cot(theta) + u,

whose values are the principal curvature radii of the boundary.
"""

import functools
import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .sphere import Grid, ScalarField, make_field, _derivatives, _extend

__all__ = [
    "ConvexityLostError",
    "CurvatureMatrix",
    "BodyGeometry",
    "round_body",
    "translated_ball",
    "spheroid_support",
    "curvature_matrix",
    "sigma_k",
    "convexity_margin",
    "body_geometry",
    "mixed_volume",
    "normalize_body",
    "radial_from_support",
    "support_from_radial",
    "polar_dual",
    "profile_curve",
    "write_profile_csv",
]

SPHERE_AREA = 4.0 * np.pi

_log = logging.getLogger(__name__)


class ConvexityLostError(ValueError):
    """Raised for a body outside the admissible class: u > 0 and both
    principal radii b11, b22 > 0 at every node."""


@dataclass(eq=False)
class CurvatureMatrix:
    """Diagonal entries of W_u in the axisymmetric frame."""

    b11: ScalarField
    b22: ScalarField


@dataclass(eq=False)
class BodyGeometry:
    """Per-node curvature data plus the global convexity margin."""

    W: CurvatureMatrix
    lambda1: ScalarField  # smaller principal radius
    lambda2: ScalarField  # larger principal radius
    sigma1: ScalarField
    sigma2: ScalarField
    convexity_margin: float


def round_body(grid: Grid, radius: float) -> ScalarField:
    if radius <= 0:
        raise ValueError("radius must be positive")
    return make_field(grid, radius)


def translated_ball(grid: Grid, offset: float, radius: float = 1.0) -> ScalarField:
    """Unit-type ball of given radius translated by `offset` along the axis."""
    if abs(offset) >= radius:
        raise ValueError("offset must keep the origin inside the ball")
    return make_field(grid, radius + offset * grid.cos)


def spheroid_support(grid: Grid, a: float, b: float) -> ScalarField:
    """Support function of the spheroid with semiaxes (a, a, b)."""
    if a <= 0 or b <= 0:
        raise ValueError("semiaxes must be positive")
    return make_field(grid, np.sqrt(a * a * grid.sin**2 + b * b * grid.cos**2))


def _curvature_entries(values: np.ndarray, grid: Grid):
    """(b11, b22, d1) of one profile or of a stack of them along the last axis."""
    d1, d2 = _derivatives(values, grid.h, "even")
    return d2 + values, d1 * grid.cot + values, d1


def _sigma_values(b11: np.ndarray, b22: np.ndarray, k: int) -> np.ndarray:
    if k == 1:
        return b11 + b22
    if k == 2:
        return b11 * b22
    raise ValueError(f"k must be 1 or 2, got {k}")


def _radii(values: np.ndarray, grid: Grid, k: int):
    """(b11, b22, d1, sigma_k) of an admissible body.

    The one admissibility rule of every speed, rho, diagnostic, flow step
    and Newton trial: u > 0 and b11, b22 > 0 at every node, else
    ConvexityLostError.  One reduction decides, over the node-wise minimum of
    u, b11 and b22 (np.minimum and the test propagate NaN, so NaN fails);
    only a failure looks again to name its cause.
    """
    b11, b22, d1 = _curvature_entries(values, grid)
    if not np.minimum(np.minimum(values, b11), b22).min() > 0:
        if not values.min() > 0:
            raise ConvexityLostError("support values must be positive")
        raise ConvexityLostError("uniform convexity lost")
    return b11, b22, d1, _sigma_values(b11, b22, k)


def _margin(values: np.ndarray, grid: Grid) -> float:
    """Smallest principal radius over the grid."""
    b11, b22, _ = _curvature_entries(values, grid)
    return float(min(b11.min(), b22.min()))


# Central-difference step relative to max(1, |u_j|).  Forward differences
# leave enough Jacobian error near the poles to degrade Newton to a damped
# linear crawl.
_FD_STEP = 6.0e-8
# Half-bandwidth of the Jacobian of a node-wise function of u, b11 and b22:
# the 5-point stencil and the even pole ghosts (weights on nodes 0..2).
_BAND = 2


@functools.cache
def _band_plan(n: int):
    """(cols, colour, rows, outside): the index plan of an n-node band, built
    once per n and read-only.

    Column j has colour j mod 5; rows[2 + d, j] = j + d clipped to 0..n-1,
    and outside marks the entries whose row j + d lies off the grid.
    """
    cols = np.arange(n)
    rows = cols + np.arange(-_BAND, _BAND + 1)[:, None]
    plan = (cols, cols % (2 * _BAND + 1), np.clip(rows, 0, n - 1), (rows < 0) | (rows >= n))
    for a in plan:
        a.flags.writeable = False
    return plan


def _banded_jacobian(func, vals: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of func at vals, in solve_banded storage.

    func maps a stack of profiles, along the last axis, to a stack of vectors
    whose entry i reads only nodes i-2..i+2.  Returns ab of shape (5, n) with
    ab[2 + i - j, j] = d func_i / d u_j.  The columns j = c (mod 5) of one
    colour are perturbed together (Curtis, Powell and Reid, IMA J. Appl.
    Math. 13, 1974); row i reads exactly one of them.  The 10 perturbed
    profiles go to func in one call at any n; the index plan comes from
    _band_plan.
    """
    colours = 2 * _BAND + 1
    cols, colour, rows, outside = _band_plan(vals.size)
    steps = _FD_STEP * np.maximum(1.0, np.abs(vals))
    shift = np.zeros((colours, vals.size))
    shift[colour, cols] = steps
    out = func(np.concatenate((vals + shift, vals - shift)))
    diff = out[:colours] - out[colours:]
    # ab[2 + d, j] is entry j + d of the difference of column j's colour
    ab = diff[colour, rows] / (2.0 * steps)
    ab[outside] = 0.0
    return ab


def _band_solver(ab: np.ndarray):
    """solve(b) for the (2, 2) band ab in solve_banded storage.

    One LU factorization (dgbtrf) serves every right side (one dgbtrs per
    call), with solve_banded's checks: ValueError on a non-finite band or
    right side, LinAlgError on a singular band.
    """
    if not np.isfinite(ab).all():
        raise ValueError("array must not contain infs or NaNs")
    padded = np.zeros((3 * _BAND + 1, ab.shape[1]), order="F")
    padded[_BAND:] = ab
    lu, piv, info = dgbtrf(padded, _BAND, _BAND, overwrite_ab=True)
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gbtrf")

    def solve(b: np.ndarray) -> np.ndarray:
        if not np.isfinite(b).all():
            raise ValueError("array must not contain infs or NaNs")
        x, info = dgbtrs(lu, _BAND, _BAND, b, piv)
        if info < 0:
            raise ValueError(f"illegal value in {-info}-th argument of internal gbtrs")
        return x

    return solve


def curvature_matrix(u: ScalarField) -> CurvatureMatrix:
    b11, b22, _ = _curvature_entries(u.values, u.grid)
    return CurvatureMatrix(ScalarField(u.grid, b11), ScalarField(u.grid, b22))


def sigma_k(W: CurvatureMatrix, k: int) -> ScalarField:
    """Elementary symmetric function of the principal radii (diagonal frame)."""
    return ScalarField(W.b11.grid, _sigma_values(W.b11.values, W.b22.values, k))


def convexity_margin(u: ScalarField) -> float:
    """Smallest eigenvalue of W_u over the grid; positive iff uniformly convex."""
    return _margin(u.values, u.grid)


def body_geometry(u: ScalarField) -> BodyGeometry:
    g = u.grid
    b11, b22, _ = _curvature_entries(u.values, g)
    lam1 = np.minimum(b11, b22)
    lam2 = np.maximum(b11, b22)
    return BodyGeometry(
        W=CurvatureMatrix(ScalarField(g, b11), ScalarField(g, b22)),
        lambda1=ScalarField(g, lam1),
        lambda2=ScalarField(g, lam2),
        sigma1=ScalarField(g, b11 + b22),
        sigma2=ScalarField(g, b11 * b22),
        convexity_margin=float(lam1.min()),
    )


def mixed_volume(v: ScalarField, us: Sequence[ScalarField], k: int) -> float:
    """Mixed volume V_{k+1}(v, u1, ..., uk) = integral of v * sigma_k[W_{u1},...].

    For k = 2 the polarized form on diagonal matrices is
    sigma_2[A, B] = (a11*b22 + a22*b11) / 2, the unique symmetric bilinear
    form restricting to sigma_2 on the diagonal.
    """
    if k not in (1, 2):
        raise ValueError(f"k must be 1 or 2, got {k}")
    if len(us) != k:
        raise ValueError(f"expected {k} support functions, got {len(us)}")
    g = v.grid
    if k == 1:
        b11, b22, _ = _curvature_entries(us[0].values, g)
        s = b11 + b22
    else:
        a11, a22, _ = _curvature_entries(us[0].values, g)
        c11, c22, _ = _curvature_entries(us[1].values, g)
        s = 0.5 * (a11 * c22 + a22 * c11)
    return float(g.weights @ (v.values * s))


def normalize_body(u: ScalarField, k: int) -> ScalarField:
    """Rescale u so that the weighted volume integral of u*sigma_k equals 4*pi.

    The scale factor is (4*pi / V_{k+1})^(1/(k+1)); degree-(k+1) homogeneity
    of the integral makes the normalization exact.
    """
    if convexity_margin(u) <= 0:
        raise ValueError("cannot normalize a body that is not uniformly convex")
    vol = mixed_volume(u, [u] * k, k)
    scale = (SPHERE_AREA / vol) ** (1.0 / (k + 1))
    return ScalarField(u.grid, scale * u.values)


def _with_pole_values(values: np.ndarray, grid: Grid):
    """Nodal profile augmented by even-extrapolated pole values."""
    angles = np.concatenate(([0.0], grid.theta, [np.pi]))
    return angles, _extend(values, "even")[1:-1]


def radial_from_support(u: ScalarField) -> ScalarField:
    """Radial function of the body with support u, by discrete extremization.

    r(z) = min over directions x with <x, z> > 0 of u(x) / <x, z>.  For an
    axisymmetric body the minimizing direction lies on the meridian of z, so
    <x, z> reduces to cos(theta_x - theta_z).
    """
    if u.values.min() <= 0:
        raise ValueError("support function must be positive (origin enclosed)")
    g = u.grid
    ang, vals = _with_pole_values(u.values, g)
    c = np.cos(ang[:, None] - g.theta[None, :])
    ratio = np.where(c > 1e-12, vals[:, None] / np.where(c > 1e-12, c, 1.0), np.inf)
    return ScalarField(g, ratio.min(axis=0))


def support_from_radial(r: ScalarField) -> ScalarField:
    """Support function of the convex body with radial function r.

    u(x) = max over directions z of r(z) * <x, z>.  A non-convex radial
    profile yields the support function of the convex hull; this is logged
    rather than raised.
    """
    if r.values.min() <= 0:
        raise ValueError("radial function must be positive")
    g = r.grid
    ang, vals = _with_pole_values(r.values, g)
    c = np.cos(ang[:, None] - g.theta[None, :])
    u = ScalarField(g, (vals[:, None] * c).max(axis=0))
    if convexity_margin(u) <= 0:
        _log.warning("support_from_radial: input not convex; returning hull support")
    return u


def polar_dual(u: ScalarField) -> ScalarField:
    """Radial function of the polar dual body: r* = 1/u."""
    if u.values.min() <= 0:
        raise ValueError("support function must be positive")
    return ScalarField(u.grid, 1.0 / u.values)


def profile_curve(u: ScalarField) -> np.ndarray:
    """Meridian profile (rho, z) of the boundary via the inverse normal map."""
    g = u.grid
    d1 = _derivatives(u.values, g.h, "even")[0]
    rho = u.values * g.sin + d1 * g.cos
    z = u.values * g.cos - d1 * g.sin
    return np.column_stack([rho, z])


def write_profile_csv(path, curve: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("rho,z\n")
        for rho, z in curve:
            fh.write(f"{rho:.17g},{z:.17g}\n")
