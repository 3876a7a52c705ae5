"""Discrete calculus on the axisymmetric unit sphere.

Scalar quantities on S^2 that depend only on the polar angle theta are
sampled on a uniform interior grid theta_i = i*h with h = pi/(N+1).  The
poles are not grid nodes; smoothness across theta = 0 and theta = pi is
enforced through parity ghost values when differentiating, which keeps
cot(theta) terms finite downstream.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "ScalarField",
    "make_grid",
    "make_field",
    "differentiate",
    "integrate",
    "extrema",
]

# Integer taps of the 4th-order centered first and second differences.
_D1_TAPS = np.array([1.0, -8.0, 0.0, 8.0, -1.0])
_D2_TAPS = np.array([-1.0, 16.0, -30.0, 16.0, -1.0])


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform interior grid on (0, pi): theta_i = i*h, i = 1..n, h = pi/(n+1)."""

    n: int
    h: float
    theta: np.ndarray
    sin: np.ndarray
    cos: np.ndarray
    cot: np.ndarray
    weights: np.ndarray  # quadrature weights, with 2*pi and sin(theta) folded in


def make_grid(n: int) -> Grid:
    """Build the interior grid with n nodes; requires n >= 16."""
    if n < 16:
        raise ValueError(f"grid needs at least 16 nodes, got {n}")
    h = np.pi / (n + 1)
    theta = h * np.arange(1, n + 1)
    sin = np.sin(theta)
    cos = np.cos(theta)
    full = _simpson_weights(n + 1, h)
    # Pole endpoints carry zero effective weight through the sin(theta)
    # Jacobian, so only interior nodes enter the quadrature vector.
    weights = 2.0 * np.pi * full[1:-1] * sin
    return Grid(n=n, h=h, theta=theta, sin=sin, cos=cos, cot=cos / sin, weights=weights)


def _simpson_weights(m: int, h: float) -> np.ndarray:
    """End-corrected composite Simpson weights for m intervals (m+1 points).

    For odd m the last three intervals use the 3/8 rule; the hybrid block
    sits at the theta = pi end, where the sin(theta) Jacobian suppresses its
    slightly larger local error.  The Euler-Maclaurin boundary term
    (h^4/180)*(F'''(pi) - F'''(0)) is removed with one-sided stencils
    anchored at the poles, where the integrand F = g*sin(theta) vanishes;
    the corrected rule is better than 5th order on smooth fields.
    """
    w = np.zeros(m + 1)
    if m % 2 == 0:
        w[0::2] = 2.0
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        w *= h / 3.0
    else:
        if m > 3:
            ws = np.zeros(m - 2)
            ws[0::2] = 2.0
            ws[1::2] = 4.0
            ws[0] = ws[-1] = 1.0
            w[: m - 2] += ws * (h / 3.0)
        w[m - 3 :] += (3.0 * h / 8.0) * np.array([1.0, 3.0, 3.0, 1.0])
    end = np.array([9.0, -12.0, 7.0, -1.5]) * (h / 180.0)
    w[1:5] += end
    w[m - 1 : m - 5 : -1] += end
    return w


@dataclass(eq=False)
class ScalarField:
    """One real value per grid node."""

    grid: Grid
    values: np.ndarray

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())


def make_field(grid: Grid, data) -> ScalarField:
    """Wrap an array, a scalar, or a callable of theta as a ScalarField."""
    if callable(data):
        values = np.asarray(data(grid.theta), dtype=float)
        if values.ndim == 0:
            values = np.full(grid.n, float(values))
    else:
        values = np.asarray(data, dtype=float)
        if values.ndim == 0:
            values = np.full(grid.n, float(values))
    if values.shape != (grid.n,):
        raise ValueError(f"expected {grid.n} values, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("field values must be finite")
    return ScalarField(grid, values)


def _extend(values: np.ndarray, parity: str) -> np.ndarray:
    """Pad nodal profiles, along the last axis, with two ghost values at each end.

    Ghost positions are theta = -h, 0 and theta = pi, pi + h.  The off-pole
    ghosts mirror the first/last interior node with the declared parity; the
    pole values vanish (odd parity) or come from even extrapolation: the
    Lagrange weights in theta^2 of the three nodes nearest the pole, exact
    for even polynomials through degree 4, error O(h^6) on analytic even
    profiles.  Each even pole value is the sequential sum 1.5*u0 + (-0.6)*u1
    + 0.1*u2, nearest node first: a 1-D profile takes it in Python floats
    from its six end nodes, a stack takes it for every row and both poles at
    once from three strided views (nodes 0 and n-1, 1 and n-2, 2 and n-3), so
    that every row gets the bits of a 1-D call.
    """
    n = values.shape[-1]
    v = np.empty(values.shape[:-1] + (n + 4,))
    v[..., 2:-2] = values
    if parity == "odd":
        v[..., :: n + 3] = -values[..., :: n - 1]
        v[..., 1 :: n + 1] = 0.0
    elif parity != "even":
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    elif values.ndim == 1:
        u0, u1, u2 = values[:3].tolist()
        w2, w1, w0 = values[-3:].tolist()
        v[0], v[1] = u0, 1.5 * u0 + -0.6 * u1 + 0.1 * u2
        v[-2], v[-1] = 1.5 * w0 + -0.6 * w1 + 0.1 * w2, w0
    else:
        ends = values[..., :: n - 1]
        v[..., :: n + 3] = ends
        poles = 1.5 * ends + -0.6 * values[..., 1 :: n - 3]
        v[..., 1 :: n + 1] = poles + 0.1 * values[..., 2 :: n - 5]
    return v


def _derivatives(values: np.ndarray, h: float, parity: str) -> tuple[np.ndarray, np.ndarray]:
    """4th-order centered first and second differences along the last axis,
    with the parity ghost closure of _extend.

    Each stencil is one correlation with its integer taps, divided once by
    12h or 12h^2, which rounds as the 5-term sum written out (taps
    pre-scaled by 1/(12h^2) round differently).  A 1-D padded profile is
    correlated in "valid" mode, which gives the n interior outputs directly;
    a stack is correlated as one flat array, and the outputs whose taps
    straddle two rows fall on the ghost columns and are sliced off.
    """
    v = _extend(values, parity)
    if v.ndim == 1:
        d1 = np.correlate(v, _D1_TAPS, "valid") / (12.0 * h)
        d2 = np.correlate(v, _D2_TAPS, "valid") / (12.0 * h * h)
        return d1, d2
    flat = v.reshape(-1)
    d1 = np.correlate(flat, _D1_TAPS, "same").reshape(v.shape)[..., 2:-2] / (12.0 * h)
    d2 = np.correlate(flat, _D2_TAPS, "same").reshape(v.shape)[..., 2:-2] / (12.0 * h * h)
    return d1, d2


def differentiate(u: ScalarField, order: int, parity: str) -> ScalarField:
    """Differentiate in the polar angle.

    parity declares the symmetry of the smooth extension of u across the
    poles: support functions of axisymmetric bodies are even, their first
    derivatives odd.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    return ScalarField(u.grid, _derivatives(u.values, u.grid.h, parity)[order - 1])


def integrate(g: ScalarField) -> float:
    """Integral of an axisymmetric field over S^2 (Simpson in theta)."""
    return float(g.grid.weights @ g.values)


def extrema(g: ScalarField) -> tuple[float, float]:
    """Node-wise (min, max)."""
    return float(g.values.min()), float(g.values.max())
