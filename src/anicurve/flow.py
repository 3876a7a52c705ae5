"""Time integration of the expanding curvature flows.

Four right-hand sides operate on the nodal profile:

    raw               du/dt  = f * u^alpha * sigma_k^beta
    round_normalized  du/dtau = u^alpha * sigma_k^beta - gamma * u     (f must be 1)
    volume_normalized du/dtau = f * u^alpha * sigma_k^beta - eta(u) * u
    dual_radial       dr/dt  = -r^(2-alpha) * sigma_k^beta(W_{1/r})    (f must be 1)

The integrator is classical RK4 under a parabolic CFL step.  The drift
coefficient eta of the volume-normalized flow is re-evaluated at every RK
stage, which preserves the discrete decrease of the monotone functionals up
to O(dt^4).  Loss of uniform convexity inside a step triggers a rollback
with halved step size; a frozen-coefficient semi-implicit fallback engages
when the explicit CFL step underflows.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded

from .sphere import Grid, ScalarField
from .body import SPHERE_AREA, _curvature_entries, _sigma_values
from .functionals import DiagnosticsRecord, FlowParams, diagnostics, moment_powers

__all__ = [
    "MODES",
    "ConvexityLostError",
    "StoppingConfig",
    "Trajectory",
    "speed",
    "adaptive_dt",
    "step",
    "run",
    "scale_factor",
    "normalized_time",
    "barrier",
]

MODES = ("raw", "round_normalized", "volume_normalized", "dual_radial")


class ConvexityLostError(RuntimeError):
    """Raised when a state stops being a uniformly convex positive body."""


@dataclass
class StoppingConfig:
    """Stopping rules and step control for run()."""

    t_max: float = 10.0
    tol_conv: float = 1e-8
    R_blowup: float = 50.0
    dt_min: float = 1e-12
    record_every: int = 50
    cfl: float = 0.4
    fixed_dt: float | None = None
    max_steps: int = 20_000_000


@dataclass(eq=False)
class Trajectory:
    times: list[float] = field(default_factory=list)
    snapshots: list[ScalarField] = field(default_factory=list)
    diagnostics: list[DiagnosticsRecord] = field(default_factory=list)
    usigma: list[float] = field(default_factory=list)
    stop_reason: str = ""

    def final(self) -> ScalarField:
        return self.snapshots[-1]


def _require_unit_f(p: FlowParams, mode: str) -> None:
    if p.f is not None and not np.all(p.f.field.values == 1.0):
        raise ValueError(f"mode {mode!r} requires f = 1")


class _Engine:
    """Array-level right-hand sides bound to one grid and parameter set."""

    def __init__(self, grid: Grid, p: FlowParams, mode: str):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if mode in ("round_normalized", "dual_radial"):
            _require_unit_f(p, mode)
        self.grid = grid
        self.p = p
        self.mode = mode
        self.f = p.f_values(grid)
        self.gamma = p.gamma

    def _sigma(self, vals):
        if vals.min() <= 0:
            raise ConvexityLostError("support values must stay positive")
        b11, b22, _ = _curvature_entries(vals, self.grid)
        if min(b11.min(), b22.min()) <= 0:
            raise ConvexityLostError("uniform convexity lost")
        return _sigma_values(b11, b22, self.p.k), b11, b22

    def rhs(self, vals: np.ndarray) -> np.ndarray:
        p = self.p
        if self.mode == "dual_radial":
            if vals.min() <= 0:
                raise ConvexityLostError("radial values must stay positive")
            s = 1.0 / vals
            sig, _, _ = self._sigma(s)
            return -(vals ** (2.0 - p.alpha)) * sig**p.beta
        sig, _, _ = self._sigma(vals)
        spd = self.f * vals**p.alpha * sig**p.beta
        if self.mode == "raw":
            return spd
        if self.mode == "round_normalized":
            return spd - self.gamma * vals
        eta = (self.grid.weights @ (spd * sig)) / SPHERE_AREA
        return spd - eta * vals

    def margin(self, vals: np.ndarray) -> float:
        work = 1.0 / vals if self.mode == "dual_radial" else vals
        b11, b22, _ = _curvature_entries(work, self.grid)
        return float(min(b11.min(), b22.min()))

    def diffusivity(self, vals: np.ndarray) -> float:
        """Max node-wise coefficient of the linearized second-order term."""
        p = self.p
        work = 1.0 / vals if self.mode == "dual_radial" else vals
        sig, b11, b22 = self._sigma(work)
        eig = 1.0 if p.k == 1 else np.maximum(b11, b22)
        d = p.beta * self.f * work**p.alpha * sig ** (p.beta - 1.0) * eig
        return float(np.max(d))

    def rk4(self, vals: np.ndarray, dt: float, k1: np.ndarray | None = None) -> np.ndarray:
        if k1 is None:
            k1 = self.rhs(vals)
        k2 = self.rhs(vals + 0.5 * dt * k1)
        k3 = self.rhs(vals + 0.5 * dt * k2)
        k4 = self.rhs(vals + dt * k3)
        new = vals + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if new.min() <= 0 or self.margin(new) <= 0:
            raise ConvexityLostError("uniform convexity lost after step")
        return new

    def semi_implicit(self, vals: np.ndarray, dt: float) -> np.ndarray:
        """Backward-Euler step with the frozen linearized diffusion operator.

        The implicit matrix uses second-order differences (tridiagonal plus
        diagonal) with even-parity closure at the poles; it only stabilizes,
        the explicit right side keeps the 4th-order spatial accuracy.
        """
        if self.mode == "dual_radial":
            raise ConvexityLostError("no implicit fallback for the dual radial mode")
        g = self.grid
        p = self.p
        n = g.n
        h = g.h
        sig, b11, b22 = self._sigma(vals)
        common = p.beta * self.f * vals**p.alpha * sig ** (p.beta - 1.0)
        d11 = common * (np.ones(n) if p.k == 1 else b22)
        d22 = common * (np.ones(n) if p.k == 1 else b11)
        chi = d22 * g.cot
        lower = d11 / h**2 - chi / (2.0 * h)
        diag = -2.0 * d11 / h**2
        upper = d11 / h**2 + chi / (2.0 * h)
        # Even closure u(pole) ~ (4*u1 - u2)/3 folds the ghost column in.
        diag = diag.copy()
        upper = upper.copy()
        lower = lower.copy()
        diag[0] += lower[0] * (4.0 / 3.0)
        upper[0] += lower[0] * (-1.0 / 3.0)
        diag[-1] += upper[-1] * (4.0 / 3.0)
        lower[-1] += upper[-1] * (-1.0 / 3.0)
        ab = np.zeros((3, n))
        ab[0, 1:] = -dt * upper[:-1]
        ab[1, :] = 1.0 - dt * diag
        ab[2, :-1] = -dt * lower[1:]
        delta = solve_banded((1, 1), ab, dt * self.rhs(vals))
        new = vals + delta
        if new.min() <= 0 or self.margin(new) <= 0:
            raise ConvexityLostError("uniform convexity lost after implicit step")
        return new


def speed(u: ScalarField, p: FlowParams) -> ScalarField:
    """Node-wise flow speed f * u^alpha * sigma_k^beta."""
    eng = _Engine(u.grid, p, "raw")
    try:
        return ScalarField(u.grid, eng.rhs(u.values))
    except ConvexityLostError as exc:
        raise ValueError(str(exc)) from None


def adaptive_dt(u: ScalarField, p: FlowParams, cfl: float = 0.4) -> float:
    """Parabolic CFL step cfl * h^2 / D_max for the support-side flows."""
    eng = _Engine(u.grid, p, "raw")
    return cfl * u.grid.h**2 / eng.diffusivity(u.values)


def step(u: ScalarField, p: FlowParams, mode: str, dt: float) -> ScalarField:
    """One RK4 update; raises ConvexityLostError to signal rollback."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    eng = _Engine(u.grid, p, mode)
    return ScalarField(u.grid, eng.rk4(u.values, dt))


def _record(traj, eng, p, vals, t_phys, tau, powers):
    u = ScalarField(eng.grid, vals.copy())
    traj.times.append(tau if eng.mode in ("round_normalized", "volume_normalized") else t_phys)
    traj.snapshots.append(u)
    if eng.mode == "dual_radial":
        rec = diagnostics(ScalarField(eng.grid, 1.0 / vals), p, t_phys, tau, powers)
        rec.R = float(vals.max() / vals.min())
        rec.umin, rec.umax = float(vals.min()), float(vals.max())
        traj.diagnostics.append(rec)
        traj.usigma.append(float("nan"))
    else:
        traj.diagnostics.append(diagnostics(u, p, t_phys, tau, powers))
        b11, b22, _ = _curvature_entries(vals, eng.grid)
        sig = _sigma_values(b11, b22, p.k)
        traj.usigma.append(float(eng.grid.weights @ (vals * sig)))


def run(u0: ScalarField, p: FlowParams, mode: str, stop: StoppingConfig | None = None) -> Trajectory:
    """Integrate one flow until a stopping rule fires.

    The integration variable is tau for the normalized modes and t for the
    raw and dual modes; the companion variable recorded in the diagnostics
    is reconstructed by the closed-form reparametrization (round case) or by
    quadrature of the normalization factor (volume case).

    Stop reasons: converged (sup norm of the right side below tol_conv),
    t_max, convexity_lost (after three rollbacks with halved dt),
    ratio_blowup (max u / min u at R_blowup), step_underflow (dt below
    dt_min).
    """
    if stop is None:
        stop = StoppingConfig()
    if stop.t_max <= 0 or stop.tol_conv < 0 or stop.record_every < 1:
        raise ValueError("invalid stopping configuration")
    eng = _Engine(u0.grid, p, mode)
    powers = moment_powers(p.beta)
    vals = u0.values.copy()
    if eng.margin(vals) <= 0:
        raise ValueError("initial body must be uniformly convex")

    traj = Trajectory()
    s = 0.0  # integration variable
    # Quadrature state for reconstructing the physical time of the
    # volume-normalized flow: dt/dtau = (V_{k+1}/|S^2|)^(q/(k+1)).
    quad_t = 0.0
    quad_prev: tuple[float, float] | None = None

    def record(vals, s):
        nonlocal quad_t, quad_prev
        if mode == "raw":
            # the closed-form remap is undefined past the supercritical
            # blowup horizon and for general anisotropies
            try:
                tau = normalized_time(s, p) if p.f is None else float("nan")
            except ValueError:
                tau = float("nan")
            _record(traj, eng, p, vals, s, tau, powers)
        elif mode == "dual_radial":
            _record(traj, eng, p, vals, s, s, powers)
        elif mode == "round_normalized":
            m = -p.q
            t_phys = s if m == 0.0 else float(np.expm1(m * s) / (m * p.gamma))
            _record(traj, eng, p, vals, t_phys, s, powers)
        else:
            b11, b22, _ = _curvature_entries(vals, eng.grid)
            sig = _sigma_values(b11, b22, p.k)
            vol = float(eng.grid.weights @ (vals * sig))
            rate = (vol / SPHERE_AREA) ** (p.q / (p.k + 1.0))
            if quad_prev is not None:
                s_prev, rate_prev = quad_prev
                quad_t += 0.5 * (rate + rate_prev) * (s - s_prev)
            quad_prev = (s, rate)
            _record(traj, eng, p, vals, quad_t, s, powers)

    record(vals, s)
    steps = 0
    just_recorded = True
    while True:
        k1 = eng.rhs(vals)
        if float(np.max(np.abs(k1))) < stop.tol_conv:
            traj.stop_reason = "converged"
            break
        if s >= stop.t_max:
            traj.stop_reason = "t_max"
            break
        if float(vals.max() / vals.min()) >= stop.R_blowup:
            traj.stop_reason = "ratio_blowup"
            break
        if steps >= stop.max_steps:
            raise RuntimeError("step budget exceeded; loosen the stopping rules")

        remaining = stop.t_max - s
        if remaining <= stop.dt_min:
            traj.stop_reason = "t_max"
            break
        implicit = False
        if stop.fixed_dt is not None:
            dt = stop.fixed_dt
        else:
            dt = stop.cfl * eng.grid.h**2 / eng.diffusivity(vals)
            if dt < stop.dt_min:
                implicit = True
                dt = stop.cfl * eng.grid.h
        dt = min(dt, remaining)

        advanced = False
        for _ in range(4):  # initial attempt plus three halvings
            if dt < stop.dt_min:
                traj.stop_reason = "step_underflow"
                break
            try:
                if implicit:
                    new = eng.semi_implicit(vals, dt)
                else:
                    new = eng.rk4(vals, dt, k1=k1)
            except ConvexityLostError:
                dt *= 0.5
                continue
            vals = new
            s += dt
            advanced = True
            break
        if traj.stop_reason:
            break
        if not advanced:
            traj.stop_reason = "convexity_lost"
            break

        steps += 1
        just_recorded = steps % stop.record_every == 0
        if just_recorded:
            record(vals, s)

    if not just_recorded:
        record(vals, s)
    return traj


def scale_factor(t: float, p: FlowParams) -> float:
    """Dilation factor mapping the raw flow onto its normalized companion.

    exp(gamma*t) in the critical regime alpha = 1 - k*beta, otherwise
    (1 + (1-k*beta-alpha)*gamma*t)^(1/(1-k*beta-alpha)).
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    m = -p.q
    if m == 0.0:
        return float(np.exp(p.gamma * t))
    base = 1.0 + m * p.gamma * t
    if base <= 0:
        raise ValueError("scale factor undefined: 1 + (1-k*beta-alpha)*gamma*t <= 0")
    return float(base ** (1.0 / m))


def normalized_time(t: float, p: FlowParams) -> float:
    """Reparametrized time of the round-normalized flow.

    tau = t in the critical regime, otherwise
    log((1-alpha-beta*k)*gamma*t + 1) / (1-alpha-beta*k); strictly
    increasing with tau(0) = 0.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    m = -p.q
    if m == 0.0:
        return float(t)
    base = 1.0 + m * p.gamma * t
    if base <= 0:
        raise ValueError("time map undefined: (1-alpha-beta*k)*gamma*t + 1 <= 0")
    return float(np.log(base) / m)


def barrier(a: float, t: float, p: FlowParams) -> float:
    """Exact round solution of the round-normalized flow with radius a at t=0.

    u(t) = (1 - (1 - a^(-q)) * exp(q*gamma*t))^(-1/q) with q = alpha+k*beta-1,
    valid for q < 0; monotone toward the unit sphere.
    """
    if a <= 0:
        raise ValueError("initial radius must be positive")
    q = p.q
    if q >= 0:
        raise ValueError("round barriers require alpha + k*beta - 1 < 0")
    inner = 1.0 - (1.0 - a ** (-q)) * np.exp(q * p.gamma * t)
    return float(inner ** (-1.0 / q))
