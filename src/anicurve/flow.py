"""Time integration of the expanding curvature flows.

Four right-hand sides operate on the nodal profile:

    raw               du/dt  = f * u^alpha * sigma_k^beta
    round_normalized  du/dtau = u^alpha * sigma_k^beta - gamma * u     (f must be 1)
    volume_normalized du/dtau = f * u^alpha * sigma_k^beta - eta(u) * u
    dual_radial       dr/dt  = -r^(2-alpha) * sigma_k^beta(W_{1/r})    (f must be 1)

Runs with StoppingConfig.fixed_dt take classical RK4 steps, whose stage sums
are formed in place in the written-out order, so that they carry the bits of
the textbook formula.  All other runs take error-controlled steps of
RODAS4, the 6-stage, L-stable and stiffly accurate order-4 Rosenbrock method
with an embedded order-3 solution (Hairer & Wanner, Solving ODEs II, IV.7,
the method of their rodas.f); being linearly implicit, it is not held to the
parabolic bound dt ~ h^2.  Its Jacobian is analytic: the node-local part of
the right side has bandwidth 2 and is assembled from the node values (speed,
b11, b22, sigma_k, eta) that the right side at the step's state returned
beside f0, with no further kernel call (body._jacobian_band, shared with
the soliton Newton solver, whose residual passes its node values to its
Jacobian the same way); the drift eta(u) of the volume-normalized flow adds
the rank-1 term -u (x) grad eta, whose gradient follows from the speed's
band by the chain rule, and which Sherman-Morrison folds into each stage
solve (the other modes have a zero gradient, whose corrections change no
value: every mode takes the one solve path).  The six solves of a step
share one LU factorization of the (2, 2) band (body._band_solver), into
which I/(gamma dt) - B is written directly; the first solve is made in
the factorization's own LAPACK call (dgbsv), with f0 and u as the two
columns of one Fortran-ordered right side.  The stages are the rows of one
(7, n) array, the state and k_1 .. k_6: each stage input is one product of
a tableau row (1, a_i1, ..) of _RODAS_A with the rows before it, and each
stage right side is F plus one product of a row (c_i1, ..) / dt of
_RODAS_C with the k rows before it, so BLAS dgemv sets the last bits of
the sums, as dgbtrs sets those of the solves.  A step evaluates five right
sides of its own (stages 2 to 5 and the embedded solution).  Every right
side applies the one admissibility rule of body._radii (u > 0 and both
principal radii > 0, else ConvexityLostError, a ValueError), and the right
side at a step's result is both its admissibility test and the next step's
first stage; a step whose stages or result lose uniform convexity is
retried at half the size, and an adaptive step whose error estimate exceeds
1 is never accepted: it is retried at the controller's smaller size, and a
run whose step falls below the constant floor _DT_MIN = 1e-12 stops with
step_underflow.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .sphere import Grid, ScalarField
from .body import (
    SPHERE_AREA,
    _BAND,
    ConvexityLostError,
    _band_plan,
    _band_solver,
    _jacobian_band,
    _radii,
)
from .functionals import DiagnosticsRecord, FlowParams, _evaluate, diagnostics

__all__ = [
    "MODES",
    "F_ONE_MODES",
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
# the modes whose equation holds for f = 1 only
F_ONE_MODES = ("round_normalized", "dual_radial")

# RODAS4 (Hairer & Wanner, Solving ODEs II, IV.7; rodas.f, METH = 1) on the
# stage rows (vals, k_1, .., k_6): for i = 2..6 the stage input is row i-2 of
# _RODAS_A, (1, a_i1, .., a_i,i-1), times rows 0..i-1, and k_i solves
# (I/(dt*gamma) - J) k_i = F(input) + (row i-2 of _RODAS_C / dt) times
# rows 1..i-1.  Stage 6's input is the embedded solution y^ = y_5 + k_5 (its
# row is stage 5's with a 1 for k_5), y_new = y^ + k_6, and k_6 is the error.
_RODAS_GAMMA = 0.25
_RODAS_A = np.array(  # (1, a_ij) of stages 2..6 on rows 0..5, j < i
    [
        [1.0, 1.544, 0.0, 0.0, 0.0, 0.0],
        [1.0, 0.9466785280815826, 0.2557011698983284, 0.0, 0.0, 0.0],
        [1.0, 3.314825187068521, 2.896124015972201, 0.9986419139977817, 0.0, 0.0],
        [1.0, 1.221224509226641, 6.019134481288629, 12.53708332932087, -0.6878860361058950, 0.0],
        [1.0, 1.221224509226641, 6.019134481288629, 12.53708332932087, -0.6878860361058950, 1.0],
    ]
)
_RODAS_C = np.array(  # c_ij of stages 2..6 on k_1..k_5, j < i
    [
        [-5.6688, 0.0, 0.0, 0.0, 0.0],
        [-2.430093356833875, -0.2063599157091915, 0.0, 0.0, 0.0],
        [-0.1073529058151375, -9.594562251023355, -20.47028614809616, 0.0, 0.0],
        [7.496443313967647, -10.24680431464352, -33.99990352819905, 11.70890893206160, 0.0],
        [8.083246795921522, -7.981132988064893, -31.52159432874371, 16.31930543123136,
         -6.058818238834054],
    ]
)
# Tolerances of the scaled RMS error; the record spacing of adaptive runs,
# which record at each multiple of record_every * _RECORD_DT in the
# integration variable; the first step; the bounds on one step change; the
# step floor: a step below it ends the run with step_underflow, and a step
# that ends within it of a record mark is recorded at the mark.
_RTOL = _ATOL = 1e-8
_RECORD_DT = 0.002
_DT_START = 1e-4
_FAC_MIN, _FAC_MAX = 0.2, 6.0
_DT_MIN = 1e-12
# Accepted steps after which run() raises RuntimeError
_MAX_STEPS = 20_000_000
# Courant number of adaptive_dt
_CFL = 0.4


@dataclass
class StoppingConfig:
    """Stopping rules and step control for run().  The step floor is the
    constant _DT_MIN = 1e-12, not a setting; a run that accepts _MAX_STEPS =
    20_000_000 steps before a rule fires raises RuntimeError."""

    t_max: float = 10.0
    tol_conv: float = 1e-8
    R_blowup: float = 50.0
    record_every: int = 50
    fixed_dt: float | None = None


@dataclass
class RunStats:
    """Deterministic work counts of one run(): rejected counts every rejected
    attempt, convexity_rejections those that lost convexity; an adaptive
    attempt evaluates six right sides (five stages and the one at its
    result, which it evaluates whether it is accepted or not), an RK4 step
    four, and the run one at its start; an attempt that loses convexity
    stops at the first right side that fails; a Jacobian evaluates no right
    side (it is passed the node values of the right side at its state);
    record_steps is the accepted-step count at each record.  R_min and R_max
    are the extremes of the ratio max / min of the integrated values (u, or
    r in the dual mode) over the start and every accepted state, which the
    records alone can miss between their marks."""

    accepted: int = 0
    rejected: int = 0
    convexity_rejections: int = 0
    rhs_evaluations: int = 0
    jacobian_evaluations: int = 0
    step_min: float | None = None
    step_max: float | None = None
    R_min: float | None = None
    R_max: float | None = None
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


class _Engine:
    """Array-level right-hand sides bound to one grid and parameter set;
    between calls it keeps nothing but its work counts (stats)."""

    def __init__(self, grid: Grid, p: FlowParams, mode: str):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if mode in F_ONE_MODES and p.f is not None:
            raise ValueError(f"mode {mode!r} requires f = 1")
        self.grid = grid
        self.p = p
        self.mode = mode
        self.gamma = p.gamma
        self._dual_power = 2.0 - p.alpha
        self.stats = RunStats()

    def rhs(self, vals: np.ndarray):
        """(right side, nodes) at vals, with nodes = (speed, b11, b22,
        sigma_k, eta) the node values it was formed from: those of w = 1/vals
        in the dual mode, and eta = 0.0 outside the volume-normalized mode.
        In the raw and dual modes the right side is the speed array itself."""
        self.stats.rhs_evaluations += 1
        p = self.p
        if self.mode == "dual_radial":
            b11, b22, _, sig = _radii(1.0 / vals, self.grid, p.k)
            spd = vals**self._dual_power
            spd *= sig**p.beta
            np.negative(spd, out=spd)
        else:
            spd, b11, b22, _, sig = _evaluate(vals, self.grid, p, p.alpha)
        eta = 0.0
        if self.mode == "round_normalized":
            f = spd - self.gamma * vals
        elif self.mode == "volume_normalized":
            eta = (self.grid.weights @ (spd * sig)) / SPHERE_AREA
            f = spd - eta * vals
        else:
            f = spd
        return f, (spd, b11, b22, sig, eta)

    def jacobian(self, vals: np.ndarray, nodes):
        """(B, eta, g) with rhs'(vals) = B - eta*I - vals (x) g, B in (2, 2)
        band storage; eta and g vanish outside the volume-normalized mode.
        B is analytic (body._jacobian_band), assembled from the nodes that
        rhs(vals) returned, with no kernel call."""
        self.stats.jacobian_evaluations += 1
        spd, b11, b22, sig, eta = nodes
        p = self.p
        if self.mode == "dual_radial":
            w = 1.0 / vals
            ab = _jacobian_band(vals, spd, b11, b22, sig, p.k, p.beta, 2.0 - p.alpha, -(w * w))
        else:
            ab = _jacobian_band(vals, spd, b11, b22, sig, p.k, p.beta, p.alpha)
        if self.mode == "round_normalized":
            ab[_BAND] -= self.gamma
        if self.mode != "volume_normalized":
            return ab, eta, np.zeros(vals.size)
        # eta = w.(speed * sigma_k) / |S^2|, and speed = f u^alpha sigma_k^beta
        # gives d(speed sigma_k)_i/du_j = (1 + 1/beta) sigma_k,i B_ij
        # - delta_ij (alpha/beta) speed_i sigma_k,i / u_i: grad eta follows from
        # the band B (column j holds rows j-2..j+2) without further evaluations
        w = self.grid.weights
        rows = _band_plan(vals.size)[1]
        col_sums = ((w * sig)[rows] * ab).sum(axis=0)
        grad = (1.0 + 1.0 / p.beta) * col_sums - (p.alpha / p.beta) * w * spd * sig / vals
        return ab, eta, grad / SPHERE_AREA

    def rk4(self, vals: np.ndarray, dt: float, k1: np.ndarray | None = None) -> np.ndarray:
        """One RK4 step; the result is unchecked until rhs() is evaluated there.

        The stage inputs vals + (dt/2)*k and vals + dt*k3 and the result
        vals + (dt/6)*(((k1 + 2*k2) + 2*k3) + k4) are formed in place, where
        an addition may swap its operands but none is regrouped, so the bits
        are those of the expressions written out.  vals and k1 are only read,
        and the result is a new array.
        """
        if k1 is None:
            k1 = self.rhs(vals)[0]
        half = 0.5 * dt
        y = k1 * half
        y += vals
        k2 = self.rhs(y)[0]
        y = k2 * half
        y += vals
        k3 = self.rhs(y)[0]
        y = k3 * dt
        y += vals
        k4 = self.rhs(y)[0]
        k2 *= 2.0
        k2 += k1
        k3 *= 2.0
        k2 += k3
        k2 += k4
        k2 *= dt / 6.0
        k2 += vals
        return k2

    def rodas4(self, vals: np.ndarray, dt: float, f0: np.ndarray, jac):
        """One RODAS4 step from vals, given f0, nodes = rhs(vals) and
        jac = jacobian(vals, nodes): (new state, scaled RMS error estimate).
        The new state is unchecked until rhs() is evaluated there; run()
        accepts it only if the estimate is at most 1.  There is one solve
        path: every stage solve folds in the rank-1 term by Sherman-Morrison,
        whose corrections change no value when the gradient is zero.

        Row 0 of one (7, n) stage array holds vals and rows 1-6 hold k_1 ..
        k_6.  Each stage input is one product of a row of _RODAS_A with the
        rows before it, and each stage right side is F(input) plus one
        product of a row of _RODAS_C / dt with the k rows before it, added
        into the stage's own row and solved there (never in vals, f0 or the
        Jacobian).  BLAS dgemv sets the last bits of these sums, as dgbtrs
        sets those of the solves.
        """
        band, eta, g = jac
        n = vals.size
        shift = 1.0 / (_RODAS_GAMMA * dt) + eta
        tmp = np.empty(n)
        ks = np.empty((7, n))
        ks[0] = vals
        # Sherman-Morrison: (A + vals g^T)^-1 r = x - z (g.x), x = A^-1 r,
        # z = A^-1 vals / (1 + g.A^-1 vals); A^-1 f0 and A^-1 vals are the two
        # columns of one Fortran-ordered right side, solved in the
        # factorization's own call.  With g = 0 every correction subtracts a
        # zero, which changes no value
        x, lu_solve = _band_solver(band, np.array((f0, vals)).T, shift)
        k1, z = x.T
        z /= 1.0 + g @ z
        np.subtract(k1, np.multiply(z, g @ k1, out=tmp), out=ks[1])
        c = _RODAS_C / dt
        for i in range(2, 7):
            y = _RODAS_A[i - 2, :i] @ ks[:i]
            # the right side is solved in its row (a 1-D contiguous b), so x is ks[i]
            x = lu_solve(np.add(self.rhs(y)[0], c[i - 2, : i - 1] @ ks[1:i], out=ks[i]))
            x -= np.multiply(z, g @ x, out=tmp)
        new = y
        new += ks[6]  # new = y^ + k_6
        # err = sqrt(mean((k6 / (atol + rtol max(|vals|, |new|)))^2))
        scale = np.abs(vals)
        np.maximum(scale, np.abs(new, out=tmp), out=scale)
        scale *= _RTOL
        scale += _ATOL
        est = np.divide(ks[6], scale, out=scale)
        return new, math.sqrt((est @ est) / n)


def speed(u: ScalarField, p: FlowParams) -> ScalarField:
    """Node-wise flow speed f * u^alpha * sigma_k^beta; raises
    ConvexityLostError for a body outside the admissible class."""
    return ScalarField(u.grid, _evaluate(u.values, u.grid, p, p.alpha)[0])


def adaptive_dt(u: ScalarField, p: FlowParams) -> float:
    """Parabolic CFL step _CFL * h^2 / D_max of explicit raw-flow steps, D
    the node-wise coefficient of the linearized second-order term."""
    b11, b22, _, sig = _radii(u.values, u.grid, p.k)
    eig = 1.0 if p.k == 1 else np.maximum(b11, b22)
    d = p.beta * p.f_values(u.grid) * u.values**p.alpha * sig ** (p.beta - 1.0) * eig
    return _CFL * u.grid.h**2 / float(np.max(d))


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
    raw and dual modes, and ends at stop.t_max at the latest.  Records carry
    both clocks, related by the one time map of normalized_time: raw records
    take tau = log1p(y) / (m*gamma) with y = m*gamma*t and m = -q (dual
    records describe w = 1/r, a body of the raw flow, and take its tau),
    and round-normalized records take t = tau * expm1(y) / y with y =
    m*gamma*tau, both equal to their own clock on the critical line and
    continuous across it.  The companion is nan where no closed form
    exists: raw and dual flows past the supercritical blowup time, raw
    flows with f != 1, and every volume-normalized flow, whose t depends on
    the integral of eta along the run rather than on the state.  Steps are
    RK4 at stop.fixed_dt if set, recorded every
    record_every steps; else RODAS4 under error control, recorded at each
    multiple of record_every * _RECORD_DT of the integration variable (t_max
    is the last such mark).  Every adaptive step follows one rule: it is
    clipped at the next mark, h = min(dt, mark - s); one that ends within
    the floor _DT_MIN = 1e-12 of the mark is recorded at the mark; one whose
    error estimate exceeds 1 is rejected and retried at the controller's
    fac * h, so no step above the tolerance is accepted.  The final state
    is always recorded.  Work counts go to traj.stats.

    Stop reasons: converged (sup norm of the right side below tol_conv),
    t_max, convexity_lost (a step and three halvings of it all lost uniform
    convexity), ratio_blowup (max u / min u at R_blowup), step_underflow (a
    step below _DT_MIN: the controller or a halving asked for less).  A run
    that reaches the step budget, _MAX_STEPS accepted steps, before any of
    these raises RuntimeError.
    """
    if stop is None:
        stop = StoppingConfig()
    if (
        not stop.t_max > 0
        or not 0 <= stop.tol_conv < np.inf
        or stop.record_every < 1
        or not stop.R_blowup > 1
    ):
        raise ValueError("invalid stopping configuration")
    if stop.fixed_dt is not None and not 0 < stop.fixed_dt < np.inf:
        raise ValueError("fixed_dt must be positive and finite")
    eng = _Engine(u0.grid, p, mode)
    vals = u0.values.copy()

    traj = Trajectory(stats=eng.stats)
    stats = traj.stats
    s = 0.0  # integration variable

    def record(vals, nodes, s):
        stats.record_steps.append(stats.accepted)
        u = ScalarField(eng.grid, vals.copy())
        traj.snapshots.append(u)
        t_phys, tau = s, s
        if mode in ("raw", "dual_radial"):
            # dual records describe w = 1/r, a body of the raw flow; the
            # closed-form remap is undefined past the supercritical blowup
            # time and for general anisotropies
            try:
                tau = normalized_time(s, p) if p.f is None else float("nan")
            except ValueError:
                tau = float("nan")
        elif mode == "round_normalized":
            # the inverse of normalized_time: t = expm1(y) / (m*gamma), y = m*gamma*tau
            t_phys = s * _ratio(math.expm1, -p.q * p.gamma * s)
        else:
            t_phys = float("nan")  # t depends on eta along the run, not on vals
        if mode == "dual_radial":
            rec = diagnostics(ScalarField(eng.grid, 1.0 / vals), p, t_phys, tau)
            rec.R = float(vals.max() / vals.min())
            rec.umin, rec.umax = float(vals.min()), float(vals.max())
            usigma = float("nan")
        else:
            rec = diagnostics(u, p, t_phys, tau)
            usigma = float(eng.grid.weights @ (vals * nodes[3]))
        traj.times.append(s)
        traj.diagnostics.append(rec)
        traj.usigma.append(usigma)

    f0, nodes = eng.rhs(vals)  # right side at vals and its node values
    record(vals, nodes, s)
    just_recorded = True
    fixed = stop.fixed_dt is not None
    dt = stop.fixed_dt if fixed else max(_DT_MIN, _DT_START)
    span, marks = stop.record_every * _RECORD_DT, 1  # adaptive records at marks * span
    jac = None  # the Jacobian at vals, once evaluated
    failures = 0  # convexity losses of the current step
    grow = _FAC_MAX  # largest step increase; 1 right after a rejection
    while True:
        # these rules read only the current state, so a retry passes them again;
        # no sup norm is below tol_conv = 0
        ratio = float(np.maximum.reduce(vals) / np.minimum.reduce(vals))
        stats.R_min = min(ratio, stats.R_min or ratio)
        stats.R_max = max(ratio, stats.R_max or ratio)
        if stop.tol_conv > 0 and float(np.maximum.reduce(np.abs(f0))) < stop.tol_conv:
            traj.stop_reason = "converged"
            break
        if s >= stop.t_max:
            traj.stop_reason = "t_max"
            break
        if ratio >= stop.R_blowup:
            traj.stop_reason = "ratio_blowup"
            break
        if stats.accepted >= _MAX_STEPS:
            raise RuntimeError("step budget exceeded; loosen the stopping rules")

        if fixed:
            remaining = stop.t_max - s
            if remaining <= _DT_MIN:
                traj.stop_reason = "t_max"
                break
            h = min(dt, remaining)
        else:
            mark = marks * span if marks * span < stop.t_max - _DT_MIN else stop.t_max
            h = min(dt, mark - s)
        if h < _DT_MIN:
            traj.stop_reason = "step_underflow"
            break
        try:
            if fixed:
                new, err = eng.rk4(vals, h, k1=f0), 0.0
            else:
                jac = eng.jacobian(vals, nodes) if jac is None else jac
                new, err = eng.rodas4(vals, h, f0, jac)
            f_new, nodes_new = eng.rhs(new)  # the result's admissibility test and the next f0
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
            # err below 5.1e-4 already gives the largest increase; 1e-4 keeps 0 finite
            fac = min(grow, max(_FAC_MIN, 0.9 * max(err, 1e-4) ** (-1.0 / 4.0)))
            dt = fac * h
            if not err <= 1.0:
                stats.rejected += 1
                grow = 1.0
                continue

        stats.accepted += 1
        stats.step_min = min(h, stats.step_min or h)
        stats.step_max = max(h, stats.step_max or h)
        vals, f0, nodes, jac = new, f_new, nodes_new, None
        failures, grow = 0, _FAC_MAX
        if fixed:
            s, dt = s + h, stop.fixed_dt
            just_recorded = stats.accepted % stop.record_every == 0
        else:
            # a step that ends within the floor of the mark is recorded there
            just_recorded = mark - s - h < _DT_MIN
            s = mark if just_recorded else s + h
            marks += just_recorded
        if just_recorded:
            record(vals, nodes, s)

    if not just_recorded:
        record(vals, nodes, s)
    return traj


def scale_factor(t: float, p: FlowParams) -> float:
    """Dilation factor mapping the raw flow onto its normalized companion:
    exp(gamma * tau) with tau = normalized_time(t, p), which is
    (1 + m*gamma*t)^(1/m) with m = 1 - k*beta - alpha, and exp(gamma*t) on
    the critical line m = 0, with no jump next to it."""
    return math.exp(p.gamma * normalized_time(t, p))


def normalized_time(t: float, p: FlowParams) -> float:
    """Time tau of the round-normalized companion of a raw flow at time t.

    tau = log1p(m*gamma*t) / (m*gamma) with m = 1 - k*beta - alpha, the
    inverse of the t = expm1(m*gamma*tau) / (m*gamma) that run() records
    for round-normalized flows: tau = t on the critical line m = 0, and the
    ratio log1p(x) / x taken with its limit 1 at x = 0 keeps the map
    continuous across the line.  Strictly increasing with tau(0) = 0;
    undefined from the supercritical blowup time 1 + m*gamma*t = 0 on.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    x = -p.q * p.gamma * t
    if not x > -1.0:
        raise ValueError("time map undefined: 1 + (1-k*beta-alpha)*gamma*t <= 0")
    return t * _ratio(math.log1p, x)


def _ratio(fn, x: float) -> float:
    """fn(x) / x for fn = math.log1p or math.expm1, with its limit 1 at
    x = 0, and inf where expm1(x) overflows a double."""
    if x == 0.0:
        return 1.0
    try:
        return fn(x) / x
    except OverflowError:
        return math.inf


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
