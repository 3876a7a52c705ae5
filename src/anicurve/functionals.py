"""Scalar diagnostics for the anisotropic flows.

The central quantity is the speed factor

    rho = f * u^(alpha-1) * sigma_k^beta,

the pointwise ratio of the flow speed to the support value.  It is constant
exactly on self-similar solutions, and its weighted moments drive the
monotone functionals used to certify convergence.
"""

from dataclasses import dataclass
from math import comb

import numpy as np

from .sphere import Grid, ScalarField, make_field, _constant
from .body import SPHERE_AREA, _margin, _radii, _smallest, mixed_volume

__all__ = [
    "Anisotropy",
    "FlowParams",
    "DiagnosticsRecord",
    "critical_offset",
    "constant_anisotropy",
    "power_of_linear_anisotropy",
    "tabulated_anisotropy",
    "speed_factor",
    "speed_moment",
    "mean_speed_factor",
    "lyapunov_functional",
    "anisotropy_condition_margin",
    "alexandrov_fenchel_margin",
    "moment_powers",
    "diagnostics",
]


@dataclass(frozen=True, eq=False)
class Anisotropy:
    """Positive directional weight multiplying the flow speed.

    The node values are a read-only copy of the field passed in, so what is
    derived from them once (the soliton solver's per-problem set-up) cannot
    go stale, and the caller's array stays as it was.
    """

    field: ScalarField

    def __post_init__(self):
        values = self.field.values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "field", ScalarField(self.field.grid, values))


def constant_anisotropy(grid: Grid, value: float = 1.0) -> Anisotropy:
    if value <= 0:
        raise ValueError("anisotropy must be positive")
    return Anisotropy(make_field(grid, value))


def power_of_linear_anisotropy(grid: Grid, eps: float, s: float) -> Anisotropy:
    """f = (1 + eps*cos(theta))^s, the canonical admissible anisotropy family."""
    base = 1.0 + eps * grid.cos
    if base.min() <= 0:
        raise ValueError("1 + eps*cos(theta) must stay positive")
    return Anisotropy(make_field(grid, base**s))


def tabulated_anisotropy(grid: Grid, values) -> Anisotropy:
    f = make_field(grid, values)
    if f.values.min() <= 0:
        raise ValueError("anisotropy must be positive")
    return Anisotropy(f)


def critical_offset(k: int, beta: float, alpha: float) -> float:
    """q = alpha + k*beta - 1, the signed distance from the critical line.

    q is 0.0 when it lies within rounding of zero (|q| <= 8 eps max(1,
    |alpha|, k*beta)), so that a point on the line given in decimals, such
    as k=1, beta=2.2, alpha=-1.2, is critical rather than q = 2.2e-16.
    FlowParams.q and every regime test read this value; 1 - k*beta - alpha
    is -q.
    """
    q = alpha + k * beta - 1.0
    if abs(q) <= 8.0 * np.finfo(float).eps * max(1.0, abs(alpha), k * beta):
        return 0.0
    return q


@dataclass(frozen=True, eq=False)
class FlowParams:
    """Flow exponents (k, beta, alpha) and the anisotropy f (None means f = 1).

    An anisotropy whose node values are all 1 is stored as None, so f = 1
    has one representation whichever way it was built.

    A finite beta > 0 and a finite alpha are required at construction, with
    tests that NaN fails.  The convergence theory of the normalized flows
    additionally needs beta > 1/k; cli._validate enforces that stricter
    condition for every CLI run, while direct calls, such as raw-flow and
    blowup experiments, keep the full beta > 0 range.

    The exponents of _evaluate, alpha - 1 (the speed factor), alpha (the
    speed) and beta, are kept as _rho_power, _speed_power and _beta,
    read-only float64 0-d arrays built once (sphere._constant), the form in
    which a ufunc takes a fixed operand fastest (see body).
    """

    k: int
    beta: float
    alpha: float
    f: Anisotropy | None = None

    def __post_init__(self):
        if self.k not in (1, 2):
            raise ValueError(f"k must be 1 or 2, got {self.k}")
        if not 0 < self.beta < np.inf:
            raise ValueError("beta must be positive and finite")
        if not np.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        if self.f is not None and not _smallest(self.f.field.values) > 0:
            raise ValueError("anisotropy must be positive")
        if self.f is not None and np.all(self.f.field.values == 1.0):
            object.__setattr__(self, "f", None)
        object.__setattr__(self, "_rho_power", _constant(self.alpha - 1.0))
        object.__setattr__(self, "_speed_power", _constant(self.alpha))
        object.__setattr__(self, "_beta", _constant(self.beta))

    @property
    def gamma(self) -> float:
        """sigma_k^beta of the unit sphere: C(2,k)^beta."""
        return float(comb(2, self.k)) ** self.beta

    @property
    def q(self) -> float:
        return critical_offset(self.k, self.beta, self.alpha)

    @property
    def regime(self) -> str:
        if self.q < 0:
            return "subcritical"
        if self.q == 0:
            return "critical"
        return "supercritical"

    def f_values(self, grid: Grid) -> np.ndarray:
        if self.f is None:
            return np.ones(grid.n)
        if self.f.field.grid.n != grid.n:
            raise ValueError("anisotropy lives on a different grid")
        return self.f.field.values


def _evaluate(values: np.ndarray, grid: Grid, p: FlowParams, power: np.ndarray):
    """(f * u^power * sigma_k^beta, b11, b22, d1, sigma_k) of an admissible body.

    power = p._rho_power (alpha - 1) gives the speed factor rho, power =
    p._speed_power (alpha) the flow speed.  A body outside the admissible
    class (body._radii) raises ConvexityLostError.  With f = 1 the factor f
    is skipped, which is exact.
    """
    b11, b22, d1, sig = _radii(values, grid, p.k)
    term = values**power
    if p.f is not None:
        term *= p.f_values(grid)
    term *= sig**p._beta
    return term, b11, b22, d1, sig


def speed_factor(u: ScalarField, p: FlowParams) -> ScalarField:
    """Node-wise f * u^(alpha-1) * sigma_k^beta."""
    return ScalarField(u.grid, _evaluate(u.values, u.grid, p, p._rho_power)[0])


def speed_moment(u: ScalarField, p: FlowParams, power: float) -> float:
    """Weighted moment of the speed factor: integral of u * sigma_k * rho^power."""
    rho, *_, sig = _evaluate(u.values, u.grid, p, p._rho_power)
    return float(u.grid.weights @ (u.values * sig * rho**power))


def mean_speed_factor(u: ScalarField, p: FlowParams) -> float:
    """First moment over the sphere area; the drift coefficient of the
    volume-normalized flow."""
    return speed_moment(u, p, 1.0) / SPHERE_AREA


def lyapunov_functional(u: ScalarField, p: FlowParams) -> float:
    """Moment with power -1/beta.

    Non-increasing along the volume-normalized flow and stationary exactly
    when the speed factor is constant, i.e. on self-similar solutions.
    """
    return speed_moment(u, p, -1.0 / p.beta)


def anisotropy_condition_margin(f: Anisotropy, p: FlowParams) -> float:
    """Admissibility margin of the anisotropy for soliton convergence.

    With g = f^(1/(1+k*beta-alpha)), returns the minimum entry of the
    curvature matrix of g; positive means Hess(g) + g*I is positive definite,
    the hypothesis under which the normalized anisotropic flow converges for
    k < n.  A g that overflows gives NaN, with no warning, which
    _require_admissible refuses.
    """
    expo = 1.0 + p.k * p.beta - p.alpha
    if expo <= 0:
        raise ValueError("1 + k*beta - alpha must be positive")
    with np.errstate(over="ignore"):
        g = f.field.values ** (1.0 / expo)
    return _margin(g, f.field.grid)


def _require_admissible(margin: float, error: type[ValueError] = ValueError) -> None:
    """Raise error, naming the margin, unless an anisotropy_condition_margin
    is positive: the k = 1 refusal of the soliton solve and of the
    volume-normalized flow run from a config; a NaN margin is refused."""
    if not margin > 0:
        raise error(
            "the anisotropy fails the admissibility condition for k < 2 (the "
            "curvature matrix of f^(1/(1+k*beta-alpha)) must be positive definite; "
            f"its minimum entry is {margin:.3e})"
        )


def alexandrov_fenchel_margin(v: ScalarField, u: ScalarField, k: int) -> float:
    """Quadratic mixed-volume margin, nonnegative for uniformly convex pairs.

    k = 1: V2(v,u)^2 - V2(v,v) * V2(u,u)
    k = 2: V3(v,u,u)^2 - V3(v,v,u) * V3(u,u,u)
    """
    if k == 1:
        vu = mixed_volume(v, [u], 1)
        return vu * vu - mixed_volume(v, [v], 1) * mixed_volume(u, [u], 1)
    if k == 2:
        vuu = mixed_volume(v, [u, u], 2)
        return vuu * vuu - mixed_volume(v, [v, u], 2) * mixed_volume(u, [u, u], 2)
    raise ValueError(f"k must be 1 or 2, got {k}")


def moment_powers(beta: float) -> tuple[float, ...]:
    """Default moment exponents tracked in diagnostics."""
    return (-1.0 / beta, 1.0 - 1.0 / beta, 1.0, 2.0)


@dataclass(eq=False)
class DiagnosticsRecord:
    """Per-record scalars of a flow trajectory."""

    t: float
    tau: float
    R: float
    eta: float
    J: float
    Z: dict[float, float]
    umin: float
    umax: float
    gradmax: float
    lambda_min: float
    lambda_max: float
    Q_min: float
    Q_max: float


def diagnostics(u: ScalarField, p: FlowParams, t: float, tau: float) -> DiagnosticsRecord:
    """Evaluate the full diagnostics vector at one state.

    Z holds the speed moments at moment_powers(p.beta); J, the Lyapunov
    functional, is Z[-1/beta], and eta is Z[1] over the sphere area.
    """
    g = u.grid
    vals = u.values
    powers = moment_powers(p.beta)
    rho, b11, b22, d1, sig = _evaluate(vals, g, p, p._rho_power)
    # near-degenerate bodies can push high moments past the float range;
    # record them as inf rather than warn
    with np.errstate(over="ignore", invalid="ignore"):
        base = g.weights @ np.column_stack([vals * sig * rho**pw for pw in powers])
    Z = {pw: float(val) for pw, val in zip(powers, base)}
    return DiagnosticsRecord(
        t=t,
        tau=tau,
        R=float(vals.max() / vals.min()),
        eta=Z[1.0] / SPHERE_AREA,
        J=Z[-1.0 / p.beta],
        Z=Z,
        umin=float(vals.min()),
        umax=float(vals.max()),
        gradmax=float(np.max(np.abs(d1) / vals)),
        lambda_min=float(min(b11.min(), b22.min())),
        lambda_max=float(max(b11.max(), b22.max())),
        Q_min=float(rho.min()),
        Q_max=float(rho.max()),
    )
