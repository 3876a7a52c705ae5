"""Support-function geometry of axisymmetric convex bodies.

A convex body is represented by its support function u(theta) > 0.  In the
axisymmetric orthonormal frame the curvature matrix W_u = Hess(u) + u*I is
diagonal with entries

    b11 = u'' + u,        b22 = u' * cot(theta) + u,

whose values are the principal curvature radii of the boundary.

Every node-local map of u, b11 and b22 (the flow speeds, the speed factor)
has a Jacobian of bandwidth 2: _jacobian_band assembles it analytically
from the node values of one evaluation and the per-size bands of the linear
maps u -> b11, b22 (_entry_bands), and _band_solver factors it and solves
the first right side in one LAPACK call, keeping the factors for any
number of later solves.  The flow integrator and the soliton Newton solver
share this one linearization.

The two LAPACK routines, dgbsv and dgbtrs, come from scipy's compiled
LAPACK wrapper, the extension module scipy.linalg._flapack, which _lapack
loads from its file on the first band solve of a process.  The package
scipy.linalg is never imported: its __init__ loads the whole of scipy's
linear algebra, over ten times the time and six times the memory of the
one extension.  A process that solves no band system (fixed-step flows,
geometry, diagnostics) loads neither.
"""

import functools
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.linalg import LinAlgError

from .sphere import Grid, ScalarField, make_field, make_grid, _derivatives

__all__ = [
    "SPHERE_AREA",
    "ConvexityLostError",
    "CurvatureMatrix",
    "round_body",
    "translated_ball",
    "spheroid_support",
    "curvature_matrix",
    "sigma_k",
    "convexity_margin",
    "mixed_volume",
    "normalize_body",
    "polar_dual",
    "profile_curve",
    "write_profile_csv",
]

SPHERE_AREA = 4.0 * np.pi


class ConvexityLostError(ValueError):
    """Raised for a body outside the admissible class: u > 0 and both
    principal radii b11, b22 > 0 at every node."""


@dataclass(eq=False)
class CurvatureMatrix:
    """Diagonal entries of W_u in the axisymmetric frame."""

    b11: ScalarField
    b22: ScalarField


def round_body(grid: Grid, radius: float) -> ScalarField:
    if radius <= 0:
        raise ValueError("radius must be positive")
    return make_field(grid, radius)


def translated_ball(grid: Grid, offset: float) -> ScalarField:
    """The unit ball translated by `offset` along the axis: u = 1 + offset cos.

    |offset| < 1 keeps the origin inside the ball.
    """
    if abs(offset) >= 1.0:
        raise ValueError("offset must keep the origin inside the ball")
    return make_field(grid, 1.0 + offset * grid.cos)


def spheroid_support(grid: Grid, a: float, b: float) -> ScalarField:
    """Support function of the spheroid with semiaxes (a, a, b)."""
    if a <= 0 or b <= 0:
        raise ValueError("semiaxes must be positive")
    return make_field(grid, np.sqrt(a * a * grid.sin**2 + b * b * grid.cos**2))


def _curvature_entries(values: np.ndarray, grid: Grid):
    """(b11, b22, d1) of one nodal profile."""
    d1, d2 = _derivatives(values, grid.h, "even")
    d2 += values
    b22 = d1 * grid.cot
    b22 += values
    return d2, b22, d1


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
    low = np.minimum(values, b11)
    np.minimum(low, b22, out=low)
    if not np.minimum.reduce(low, axis=None) > 0:
        if not values.min() > 0:
            raise ConvexityLostError("support values must be positive")
        raise ConvexityLostError("uniform convexity lost")
    return b11, b22, d1, _sigma_values(b11, b22, k)


def _margin(values: np.ndarray, grid: Grid) -> float:
    """Smallest principal radius over the grid."""
    b11, b22, _ = _curvature_entries(values, grid)
    return float(min(b11.min(), b22.min()))


# Half-bandwidth of the Jacobian of a node-wise function of u, b11 and b22:
# the 5-point stencil and the even pole ghosts (weights on nodes 0..2).
_BAND = 2


@functools.cache
def _band_plan(n: int):
    """(colour, rows, outside): the index plan of an n-node band, built once
    per n and read-only.

    Column j has colour j mod 5; rows[2 + d, j] = j + d clipped to 0..n-1,
    and outside marks the entries whose row j + d lies off the grid.
    """
    cols = np.arange(n)
    rows = cols + np.arange(-_BAND, _BAND + 1)[:, None]
    plan = (cols % (2 * _BAND + 1), np.clip(rows, 0, n - 1), (rows < 0) | (rows >= n))
    for a in plan:
        a.flags.writeable = False
    return plan


@functools.cache
def _entry_bands(n: int):
    """(db11, db22): the bands, in solve_banded storage, of the linear maps
    u -> b11 = D2 u + u and u -> b22 = cot D1 u + u of _curvature_entries on
    the n-node grid, built once per n and read-only.

    Each of the 5 colour indicator vectors (ones on the columns j = c mod 5)
    goes through _curvature_entries, so the parity ghosts are folded in
    exactly as in the kernel; row i reads columns i-2..i+2, which hold
    exactly one column of each colour (Curtis, Powell and Reid, IMA J. Appl.
    Math. 13, 1974).  Entries off the grid are zero.
    """
    colour, rows, outside = _band_plan(n)
    indicators = (colour == np.arange(2 * _BAND + 1)[:, None]).astype(float)
    grid = make_grid(n)
    b11, b22 = np.array([_curvature_entries(e, grid)[:2] for e in indicators]).swapaxes(0, 1)
    bands = (b11[colour, rows], b22[colour, rows])
    for ab in bands:
        ab[outside] = 0.0
        ab.flags.writeable = False
    return bands


def _jacobian_band(vals, s, b11, b22, sig, k, beta, a, scale=None):
    """Band of ds/dvals in solve_banded storage, ab[2 + i - j, j] = ds_i/dvals_j,
    for the node-local map s = c * vals^a * sigma_k(W_v)^beta.

    v is vals itself, or the node-wise function of vals whose derivative is
    scale (the dual flow's v = 1/vals has scale = -v^2); b11, b22 and sig are
    those of v and s that of vals, all taken from one evaluation of the map,
    so no kernel call and no power is needed:

        ds/dvals = diag(a s/vals) + diag(beta s/sig) Sigma diag(scale),

    with Sigma = db11 + db22 for k = 1 and diag(b22) db11 + diag(b11) db22
    for k = 2 (the bands of _entry_bands).  Entries off the grid are zero.
    """
    rows = _band_plan(vals.size)[1]
    db11, db22 = _entry_bands(vals.size)
    if k == 1:
        ab = db11 + db22
    else:
        ab = b22[rows] * db11
        ab += b11[rows] * db22
    ab *= (beta * s / sig)[rows]
    if scale is not None:
        ab *= scale
    ab[_BAND] += a * s / vals
    return ab


_FLAPACK = "scipy.linalg._flapack"


@functools.cache
def _lapack():
    """(dgbsv, dgbtrs) of scipy.linalg._flapack, loaded on the first call and
    kept for the process.

    The extension is loaded straight from its file in scipy/linalg/, so
    scipy/linalg/__init__.py never runs.  `import scipy` comes first, so
    scipy's own start-up runs as it would for any scipy import (on Windows
    it puts the bundled DLLs on the search path).  The routines are the
    objects that scipy.linalg.lapack re-exports, so a solve has the same
    bits whichever loads first.  The extension registers itself in
    sys.modules as it initializes; a registration this call made is undone,
    so that a later `import scipy.linalg` loads the module under its
    package as usual (and gets the same routines).  There is one path and
    no fallback to importing scipy.linalg: a scipy without the extension
    raises ImportError here, rather than silently paying for the package.
    """
    import scipy

    linalg = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    finder = importlib.machinery.FileFinder(
        linalg, (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    )
    spec = finder.find_spec(_FLAPACK)
    if spec is None:
        raise ImportError(f"no {_FLAPACK} extension in {linalg}", name=_FLAPACK)
    registered = _FLAPACK in sys.modules
    flapack = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(flapack)
    if not registered:
        sys.modules.pop(_FLAPACK, None)
    return flapack.dgbsv, flapack.dgbtrs


def _band_solver(ab: np.ndarray, b: np.ndarray, shift: float | None = None):
    """(x, solve): the solution x of the (2, 2) band ab in solve_banded
    storage, or of shift*I - ab when a shift is given, for the right side b,
    and solve(b) for later right sides.

    The matrix is written straight into LAPACK's padded band, with no
    negated copy of ab.  One dgbsv call factors the band and solves for b;
    it is dgbtrf followed by dgbtrs, so x has the bits of solve_banded, and
    the LU factors it leaves serve every later right side (one dgbtrs per
    solve call).  A right side is one vector or the columns of an (n, m)
    array.  The checks are solve_banded's: ValueError on a non-finite band
    or right side, LinAlgError on a singular band.  Every right side is
    the caller's to give up: the solve is done in b itself when b is 1-D or
    in Fortran order (otherwise the LAPACK wrapper solves in a copy), and
    solve(b) follows the same rule.
    """
    padded = np.zeros((3 * _BAND + 1, ab.shape[1]), order="F")
    if shift is None:
        padded[_BAND:] = ab
    else:
        np.negative(ab, out=padded[_BAND:])
        padded[2 * _BAND] += shift
    if not (np.isfinite(padded).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    dgbsv, dgbtrs = _lapack()
    lu, piv, x, info = dgbsv(_BAND, _BAND, padded, b, overwrite_ab=True, overwrite_b=True)
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gbsv")

    def solve(b: np.ndarray) -> np.ndarray:
        if not np.isfinite(b).all():
            raise ValueError("array must not contain infs or NaNs")
        x, info = dgbtrs(lu, _BAND, _BAND, b, piv, overwrite_b=True)
        if info < 0:
            raise ValueError(f"illegal value in {-info}-th argument of internal gbtrs")
        return x

    return x, solve


def curvature_matrix(u: ScalarField) -> CurvatureMatrix:
    b11, b22, _ = _curvature_entries(u.values, u.grid)
    return CurvatureMatrix(ScalarField(u.grid, b11), ScalarField(u.grid, b22))


def sigma_k(W: CurvatureMatrix, k: int) -> ScalarField:
    """Elementary symmetric function of the principal radii (diagonal frame)."""
    return ScalarField(W.b11.grid, _sigma_values(W.b11.values, W.b22.values, k))


def convexity_margin(u: ScalarField) -> float:
    """Smallest eigenvalue of W_u over the grid; positive iff uniformly convex."""
    return _margin(u.values, u.grid)


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
    """The rho,z columns of curve, 17 significant digits, in one write."""
    rows = [f"{rho:.17g},{z:.17g}\n" for rho, z in curve.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("rho,z\n" + "".join(rows))
