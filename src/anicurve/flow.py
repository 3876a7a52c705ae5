"""Time integration of the expanding curvature flows.

Four right-hand sides operate on the nodal profile:

    raw               du/dt  = f * u^alpha * sigma_k^beta
    round_normalized  du/dtau = u^alpha * sigma_k^beta - gamma * u     (f must be 1)
    volume_normalized du/dtau = f * u^alpha * sigma_k^beta - eta(u) * u
    dual_radial       dr/dt  = -r^(2-alpha) * sigma_k^beta(W_{1/r})    (f must be 1)

Runs with StoppingConfig.fixed_dt take classical RK4 steps, whose stage sums
are formed in place in the written-out order, so that they carry the bits of
the textbook formula.  All other runs
take error-controlled steps of Ros3, the L-stable, order-3 Rosenbrock method
of Sandu et al. (Atmos. Environ. 31, 1997) with an embedded order-2
estimate, in the form of Hairer & Wanner, Solving ODEs II, IV.7; being
linearly implicit, it is not held to the parabolic bound dt ~ h^2.  Its
Jacobian is exact up to central differences: the node-local part of the
right side has bandwidth 2 (body._banded_jacobian, shared with the soliton
Newton solver, evaluates its 10 perturbed profiles in one batched call), and
the drift eta(u) of the volume-normalized flow adds the rank-1 term
-u (x) grad eta, whose gradient follows from the speed's band by the chain
rule, with the speed and sigma_k of the step's own first stage, and which
Sherman-Morrison folds into each stage solve.  The three
stages of a step share one LU factorization of the (2, 2) band
(body._band_solver).  Every right side applies the one admissibility rule
of body._radii (u > 0 and both principal radii > 0, else
ConvexityLostError, a ValueError), and the right side at a step's result is
both its admissibility test and the next step's first stage; a step whose
stages or result lose uniform convexity is retried at half the size.
"""

from dataclasses import dataclass, field

import numpy as np

from .sphere import Grid, ScalarField
from .body import (
    SPHERE_AREA,
    _BAND,
    ConvexityLostError,
    _band_plan,
    _band_solver,
    _banded_jacobian,
    _radii,
)
from .functionals import DiagnosticsRecord, FlowParams, _evaluate, diagnostics, moment_powers

__all__ = [
    "MODES",
    "ConvexityLostError",
    "StoppingConfig",
    "RunStats",
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

# Ros3: stage i solves (I/(dt*gamma) - J) K_i = F(y + sum_j a_ij K_j) +
# sum_j (c_ij/dt) K_j with a_21 = a_31 = 1, a_32 = 0 (stage 3 reuses the
# function value of stage 2); y_new = y + sum m_i K_i, error sum e_i K_i.
_ROS_GAMMA = 0.43586652150845899941601945119356
_ROS_C = (-1.0156171083877702091975600115545, 4.0759956452537699824805835358067,
          9.2076794298330791242156818474003)  # c_21, c_31, c_32
_ROS_M = (1.0, 6.1697947043828245592553615689730, -0.42772256543218573326238373806514)
_ROS_E = (0.5, -2.9079558716805469821718236208017, 0.22354069897811569627360909276199)
# Tolerances of the scaled RMS error; the record spacing of adaptive runs,
# which record at each multiple of record_every * _RECORD_DT in the
# integration variable; the first step; the bounds on one step change.
_RTOL = _ATOL = 1e-8
_RECORD_DT = 0.002
_DT_START = 1e-4
_FAC_MIN, _FAC_MAX = 0.2, 6.0


@dataclass
class StoppingConfig:
    """Stopping rules and step control for run()."""

    t_max: float = 10.0
    tol_conv: float = 1e-8
    R_blowup: float = 50.0
    dt_min: float = 1e-12
    record_every: int = 50
    fixed_dt: float | None = None
    max_steps: int = 20_000_000


@dataclass
class RunStats:
    """Deterministic work counts of one run(): rejected counts every rejected
    attempt, convexity_rejections those that lost convexity; an attempt that
    reaches its result evaluates the right side there, whether it is
    accepted or not; a Jacobian evaluates the node-local part at 10 perturbed
    profiles (one batched call), which rhs_evaluations does not count;
    record_steps is the accepted-step count at each record."""

    accepted: int = 0
    rejected: int = 0
    convexity_rejections: int = 0
    rhs_evaluations: int = 0
    jacobian_evaluations: int = 0
    step_min: float | None = None
    step_max: float | None = None
    record_steps: list[int] = field(default_factory=list)


@dataclass(eq=False)
class Trajectory:
    times: list[float] = field(default_factory=list)
    snapshots: list[ScalarField] = field(default_factory=list)
    diagnostics: list[DiagnosticsRecord] = field(default_factory=list)
    usigma: list[float] = field(default_factory=list)
    stop_reason: str = ""
    stats: RunStats = field(default_factory=RunStats)

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
        self.gamma = p.gamma
        self.stats = RunStats()
        # (vals, speed, sigma_k) of the last volume-normalized right side,
        # for the Jacobian at the same state; keyed by identity, so a state
        # must not be written in place once rhs() has read it.  rk4() keeps
        # to that: each stage input is a new array that nothing writes after
        # rhs() has read it, and its sums run in place only in k2, k3 and k4,
        # new arrays that rhs() returned and rk4() owns.  The engine keeps no
        # buffer from one step to the next.
        self._last = None

    def _speed(self, vals):
        spd, *_, sig = _evaluate(vals, self.grid, self.p, self.p.alpha)
        return spd, sig

    def _local(self, vals: np.ndarray) -> np.ndarray:
        """Node-local part of the right side: all of it but -eta(u) * u."""
        p = self.p
        if self.mode == "dual_radial":
            sig = _radii(1.0 / vals, self.grid, p.k)[3]
            return -(vals ** (2.0 - p.alpha)) * sig**p.beta
        spd, _ = self._speed(vals)
        if self.mode == "round_normalized":
            return spd - self.gamma * vals
        return spd

    def rhs(self, vals: np.ndarray) -> np.ndarray:
        self.stats.rhs_evaluations += 1
        if self.mode != "volume_normalized":
            return self._local(vals)
        spd, sig = self._speed(vals)
        self._last = (vals, spd, sig)
        eta = (self.grid.weights @ (spd * sig)) / SPHERE_AREA
        return spd - eta * vals

    def jacobian(self, vals: np.ndarray):
        """(B, eta, g) with rhs'(vals) = B - eta*I - vals (x) g, B in (2, 2)
        band storage; eta and g vanish outside the volume-normalized mode.
        The speed and sigma_k at vals come from the last rhs() if it was
        evaluated at this very array (in run(), the accepted step's f0);
        otherwise they are evaluated here."""
        self.stats.jacobian_evaluations += 1
        ab = _banded_jacobian(self._local, vals)
        if self.mode != "volume_normalized":
            return ab, 0.0, np.zeros(vals.size)
        # eta = w.(speed * sigma_k) / |S^2|, and speed = f u^alpha sigma_k^beta
        # gives d(speed sigma_k)_i/du_j = (1 + 1/beta) sigma_k,i B_ij
        # - delta_ij (alpha/beta) speed_i sigma_k,i / u_i: grad eta follows from
        # the band B (column j holds rows j-2..j+2) without further evaluations
        p = self.p
        if self._last is not None and self._last[0] is vals:
            spd, sig = self._last[1:]
        else:
            spd, sig = self._speed(vals)
        w = self.grid.weights
        rows = _band_plan(vals.size)[2]
        col_sums = ((w * sig)[rows] * ab).sum(axis=0)
        grad = (1.0 + 1.0 / p.beta) * col_sums - (p.alpha / p.beta) * w * spd * sig / vals
        return ab, (w @ (spd * sig)) / SPHERE_AREA, grad / SPHERE_AREA

    def rk4(self, vals: np.ndarray, dt: float, k1: np.ndarray | None = None) -> np.ndarray:
        """One RK4 step; the result is unchecked until rhs() is evaluated there.

        The stage inputs vals + (dt/2)*k and vals + dt*k3 and the result
        vals + (dt/6)*(((k1 + 2*k2) + 2*k3) + k4) are formed in place, where
        an addition may swap its operands but none is regrouped, so the bits
        are those of the expressions written out.  vals and k1 are only read,
        and the result is a new array.
        """
        if k1 is None:
            k1 = self.rhs(vals)
        half = 0.5 * dt
        y = k1 * half
        y += vals
        k2 = self.rhs(y)
        y = k2 * half
        y += vals
        k3 = self.rhs(y)
        y = k3 * dt
        y += vals
        k4 = self.rhs(y)
        k2 *= 2.0
        k2 += k1
        k3 *= 2.0
        k2 += k3
        k2 += k4
        k2 *= dt / 6.0
        k2 += vals
        return k2

    def ros3(self, vals: np.ndarray, dt: float, f0=None, jac=None):
        """One Ros3 step: (new state, scaled RMS error estimate); a retry from
        the same state passes f0 = rhs(vals) and jac = jacobian(vals) in.  The
        new state is unchecked until rhs() is evaluated there."""
        f0 = self.rhs(vals) if f0 is None else f0
        band, eta, g = self.jacobian(vals) if jac is None else jac
        ab = -band
        ab[_BAND] += 1.0 / (_ROS_GAMMA * dt) + eta
        # Sherman-Morrison: (A + vals g^T)^-1 r = x - z (g.x), x = A^-1 r,
        # z = A^-1 vals / (1 + g.A^-1 vals)
        lu_solve = _band_solver(ab)
        k1, z = lu_solve(np.stack((f0, vals), axis=1)).T
        z = z / (1.0 + g @ z)
        k1 = k1 - z * (g @ k1)

        def solve(r):
            x = lu_solve(r)
            return x - z * (g @ x)

        f2 = self.rhs(vals + k1)
        k2 = solve(f2 + (_ROS_C[0] / dt) * k1)
        k3 = solve(f2 + (_ROS_C[1] / dt) * k1 + (_ROS_C[2] / dt) * k2)
        new = vals + _ROS_M[0] * k1 + _ROS_M[1] * k2 + _ROS_M[2] * k3
        est = _ROS_E[0] * k1 + _ROS_E[1] * k2 + _ROS_E[2] * k3
        scale = _ATOL + _RTOL * np.maximum(np.abs(vals), np.abs(new))
        return new, float(np.sqrt(np.mean((est / scale) ** 2)))


def speed(u: ScalarField, p: FlowParams) -> ScalarField:
    """Node-wise flow speed f * u^alpha * sigma_k^beta; raises
    ConvexityLostError for a body outside the admissible class."""
    return ScalarField(u.grid, _evaluate(u.values, u.grid, p, p.alpha)[0])


def adaptive_dt(u: ScalarField, p: FlowParams, cfl: float = 0.4) -> float:
    """Parabolic CFL step cfl * h^2 / D_max of explicit raw-flow steps, D the
    node-wise coefficient of the linearized second-order term."""
    b11, b22, _, sig = _radii(u.values, u.grid, p.k)
    eig = 1.0 if p.k == 1 else np.maximum(b11, b22)
    d = p.beta * p.f_values(u.grid) * u.values**p.alpha * sig ** (p.beta - 1.0) * eig
    return cfl * u.grid.h**2 / float(np.max(d))


def step(u: ScalarField, p: FlowParams, mode: str, dt: float) -> ScalarField:
    """One RK4 update of size dt, which must be positive and finite; raises
    ConvexityLostError (a ValueError) when a stage or the result leaves the
    admissible class of body._radii."""
    if not 0 < dt < np.inf:
        raise ValueError("dt must be positive and finite")
    eng = _Engine(u.grid, p, mode)
    new = eng.rk4(u.values, dt)
    eng.rhs(new)
    return ScalarField(u.grid, new)


def run(u0: ScalarField, p: FlowParams, mode: str, stop: StoppingConfig | None = None) -> Trajectory:
    """Integrate one flow until a stopping rule fires.

    The integration variable is tau for the normalized modes and t for the
    raw and dual modes; the companion variable recorded in the diagnostics
    follows from the closed-form reparametrization of the raw and round
    cases and is nan where there is none: raw flows past the blowup horizon
    or with f != 1, and every volume-normalized flow, whose t depends on the
    integral of eta along the run rather than on the state.  Steps are RK4 at
    stop.fixed_dt if set, recorded every record_every steps; else Ros3 under
    error control, taken at dt_min when the controller asks for less and
    landed on each multiple of record_every * _RECORD_DT of the integration
    variable, where it is recorded (t_max is the last such mark).  The final
    state is always recorded.  Work counts go to traj.stats.

    Stop reasons: converged (sup norm of the right side below tol_conv),
    t_max, convexity_lost (a step and three halvings of it all lost uniform
    convexity), ratio_blowup (max u / min u at R_blowup), step_underflow (a
    halved step below dt_min).
    """
    if stop is None:
        stop = StoppingConfig()
    if (
        not stop.t_max > 0
        or not stop.tol_conv >= 0
        or stop.record_every < 1
        or not 0 < stop.dt_min < np.inf
        or not stop.R_blowup > 1
    ):
        raise ValueError("invalid stopping configuration")
    if stop.fixed_dt is not None and not 0 < stop.fixed_dt < np.inf:
        raise ValueError("fixed_dt must be positive and finite")
    eng = _Engine(u0.grid, p, mode)
    powers = moment_powers(p.beta)
    vals = u0.values.copy()

    traj = Trajectory(stats=eng.stats)
    stats = traj.stats
    s = 0.0  # integration variable

    def record(vals, s):
        stats.record_steps.append(stats.accepted)
        u = ScalarField(eng.grid, vals.copy())
        traj.snapshots.append(u)
        if mode == "dual_radial":
            rec = diagnostics(ScalarField(eng.grid, 1.0 / vals), p, s, s, powers)
            rec.R = float(vals.max() / vals.min())
            rec.umin, rec.umax = float(vals.min()), float(vals.max())
            traj.times.append(s)
            traj.diagnostics.append(rec)
            traj.usigma.append(float("nan"))
            return
        usigma = float(eng.grid.weights @ (vals * _radii(vals, eng.grid, p.k)[3]))
        t_phys, tau = s, s
        if mode == "raw":
            # the closed-form remap is undefined past the supercritical
            # blowup horizon and for general anisotropies
            try:
                tau = normalized_time(s, p) if p.f is None else float("nan")
            except ValueError:
                tau = float("nan")
        elif mode == "round_normalized":
            m = -p.q
            t_phys = s if m == 0.0 else float(np.expm1(m * s) / (m * p.gamma))
        else:
            t_phys = float("nan")  # t depends on eta along the run, not on vals
        traj.times.append(t_phys if mode == "raw" else tau)
        traj.diagnostics.append(diagnostics(u, p, t_phys, tau, powers))
        traj.usigma.append(usigma)

    record(vals, s)
    just_recorded = True
    fixed = stop.fixed_dt is not None
    dt = stop.fixed_dt if fixed else max(stop.dt_min, _DT_START)
    span, marks = stop.record_every * _RECORD_DT, 1  # adaptive records at marks * span

    def onto_mark(dt):
        # a step that would pass the next mark or stop less than dt_min short
        # of it lands on it; a rejected step is retried only if this shortens it
        return dt if mark - s - dt >= stop.dt_min else mark - s

    f0, jac = eng.rhs(vals), None  # right side at vals; its Jacobian once evaluated
    failures = 0  # convexity losses of the current step
    grow = _FAC_MAX  # largest step increase; 1 right after a rejection
    while True:
        # these rules read only the current state, so a retry passes them again;
        # no sup norm is below tol_conv = 0
        if stop.tol_conv > 0 and float(np.max(np.abs(f0))) < stop.tol_conv:
            traj.stop_reason = "converged"
            break
        if s >= stop.t_max:
            traj.stop_reason = "t_max"
            break
        if float(vals.max() / vals.min()) >= stop.R_blowup:
            traj.stop_reason = "ratio_blowup"
            break
        if stats.accepted >= stop.max_steps:
            raise RuntimeError("step budget exceeded; loosen the stopping rules")

        if fixed:
            remaining = stop.t_max - s
            if remaining <= stop.dt_min:
                traj.stop_reason = "t_max"
                break
            h = min(dt, remaining)
        else:
            mark = marks * span if marks * span < stop.t_max - stop.dt_min else stop.t_max
            h = onto_mark(dt)
        if h < stop.dt_min:
            traj.stop_reason = "step_underflow"
            break
        try:
            if fixed:
                new, err = eng.rk4(vals, h, k1=f0), 0.0
            else:
                jac = eng.jacobian(vals) if jac is None else jac
                new, err = eng.ros3(vals, h, f0, jac)
            f_new = eng.rhs(new)  # the result's admissibility test and the next f0
        except ConvexityLostError:
            stats.rejected += 1
            stats.convexity_rejections += 1
            failures += 1
            if failures == 4:
                traj.stop_reason = "convexity_lost"
                break
            dt, grow = 0.5 * h, 1.0
            continue
        if not fixed:
            # err below 3.4e-3 already gives the largest increase; 1e-4 keeps 0 finite
            fac = min(grow, max(_FAC_MIN, 0.9 * max(err, 1e-4) ** (-1.0 / 3.0)))
            dt = max(stop.dt_min, fac * h)
            if not err <= 1.0 and onto_mark(dt) < h:
                stats.rejected += 1
                grow = 1.0
                continue

        stats.accepted += 1
        stats.step_min = min(h, stats.step_min or h)
        stats.step_max = max(h, stats.step_max or h)
        vals, f0, jac = new, f_new, None
        failures, grow = 0, _FAC_MAX
        if fixed:
            s, dt = s + h, stop.fixed_dt
            just_recorded = stats.accepted % stop.record_every == 0
        else:
            just_recorded = h == mark - s
            s = mark if just_recorded else s + h
            marks += just_recorded
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
