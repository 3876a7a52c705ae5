"""Direct elliptic solver for self-similar bodies.

A self-similar solution of the anisotropic flow satisfies

    f * u^(alpha-1) * sigma_k(W_u)^beta = c

for a positive constant c.  The solver runs a damped Newton iteration on
the nodal vector of u.  The residual at node i reads only nodes i-2..i+2 (f
does not depend on u), so its Jacobian has bandwidth 2; it is analytic and
comes from the node values of the residual evaluation at the accepted
iterate, with no further kernel call (body._jacobian_band, the
linearization the flow integrator shares).  The Newton step is one LAPACK
call, dgbsv, that factors the (2, 2) band and solves (body._band_solver).
The residual applies the admissibility rule of body._radii, so evaluating
it at a trial iterate is also that iterate's convexity test.

While the residual's sup is at least _LOG_ABOVE * c, the step is that of
the log form log f + (alpha-1) log u + beta log sigma_k = log c in the
variables log u, and the trial is u * exp(lam * delta).  That step's
matrix is the plain band B scaled to diag(1/rho) B diag(u), so it solves
B itself: B (u delta) = -rho log(rho/c).  Both step forms thus factor the
one band, the Jacobian band the flow integrator factors too.  The
equation is homogeneous of degree q = alpha + k*beta - 1 in u, so in this
form a dilation is an additive constant and a scale error goes in one full
step (on keeping Newton's variables natural to the problem: Deuflhard,
Newton Methods for Nonlinear Problems, Springer 2004).  Below the threshold
the step is the plain one: with log steps all the way down, 26 of the 256
solves of the soliton_newton benchmark at seed 7 took a second iteration on
the requested grid.

On grids of at least 8 * _COARSE_N nodes off the critical line, the start
and f are first restricted to _COARSE_N nodes (sphere._restrict, cubic
Lagrange interpolation), Newton runs there until the residual is below
_COARSE_STOP * c, and the solution, prolonged by its cosine
series (sphere._prolong), starts the iteration on the requested grid.  The
iteration count does not depend on the grid (mesh independence: Allgower,
Boehmer, Potra and Rheinboldt, SIAM J. Numer. Anal. 23, 1986), so the
coarse grid takes the iterations and the requested grid is left one.  The
prolonged start's residual on the requested grid is about 1.2-1.3e-5 * c
for cases A and B at N = 256 to 800 however accurate the coarse solution
(the transfer's error, not the coarse iteration's), so the coarse phase
stops at _COARSE_STOP * c rather than at the stop rule.

If the coarse phase fails, the iteration starts from the given start.  On
the critical line the residual is dilation invariant, so a coarse solution
fixes no scale; there, and below 8 * _COARSE_N nodes, nothing runs but the
iteration on the requested grid.

What depends on the problem alone is computed once per FlowParams object
(_per_params): the anisotropy condition margin that k = 1 requires, and the
coarse grid's FlowParams with f restricted there.  Solves of one problem
from many starts (criterion 6, uniqueness_spread, the soliton_newton
benchmark) then pay only for their iterations.

Every solve has one stop rule: it ends converged at |residual|_inf <
_TOL_FACTOR * c = 1e-10 * c.  That is below the residual's rounding floor
on fine grids (from about N = 1000), so the first time a full plain step
fails to decrease the residual, the iteration estimates the floor there
(_noise_floor, once per solve) and ends converged when its residual is
under it, the estimate in the result's noise_floor; a later stall reuses
the estimate, and a stall above the floor raises NewtonStagnationError.
A result ended by the tolerance has noise_floor None.
"""

import functools
import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .sphere import Grid, ScalarField, make_grid, _prolong, _restrict
from .body import ConvexityLostError, _band_solver, _jacobian_band, _margin
from .functionals import (
    FlowParams,
    _evaluate,
    _require_admissible,
    anisotropy_condition_margin,
    tabulated_anisotropy,
)

__all__ = [
    "SolitonProblem",
    "SolitonResult",
    "NewtonStagnationError",
    "soliton_residual",
    "solve_soliton",
    "uniqueness_spread",
    "round_soliton_radius",
]

# Newton iterations before solve_soliton gives up
_MAX_ITER = 60
# Nodes of the coarse grid; grids of at least 8 times as many start from it
_COARSE_N = 32
# Newton steps in (log u, log rho) while sup|rho - c| >= _LOG_ABOVE * c
_LOG_ABOVE = 1e-4
# The coarse phase stops at _COARSE_STOP * c: the transfer to the requested
# grid leaves an error above this whatever the coarse accuracy
_COARSE_STOP = 1e-6
# The stop rule, |residual|_inf < _TOL_FACTOR * c, or under the noise floor
# once a full plain step fails
_TOL_FACTOR = 1e-10
# Perturbed evaluations of the residual's noise-floor estimate (_noise_floor)
_FLOOR_DRAWS = 4
# Trials vals * exp(lam * delta) whose exponent reaches past this could
# overflow: they are halved untried (log(DBL_MAX) = 709.78)
_EXP_REACH = 709.0


class NewtonStagnationError(RuntimeError):
    """Newton iteration stopped making progress; carries the last iterate."""

    def __init__(self, message: str, last_iterate: ScalarField, residual_sup: float):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual_sup = residual_sup


@dataclass(frozen=True, eq=False)
class SolitonProblem:
    """Parameters, speed constant, and optional starting guess.

    The supported regime is alpha <= 1 - k*beta, matching the range in which
    the normalized flow converges to the self-similar body.
    """

    params: FlowParams
    c: float = 1.0
    init: ScalarField | None = None

    def __post_init__(self):
        if not 0 < self.c < np.inf:
            raise ValueError("speed constant c must be positive and finite")
        if self.params.q > 0:
            raise ValueError("soliton solver supports alpha <= 1 - k*beta only")


@dataclass(eq=False)
class SolitonResult:
    """Solution and Newton run statistics.

    residual_history holds the residual sup norm before each iteration and
    the final one; damping holds the accepted step factor of each iteration;
    residual_evaluations counts every profile the residual is evaluated at:
    the start, one per trial, rejected ones included, convex or not (the
    Jacobian reuses the node values of the accepted one and evaluates none),
    and the noise-floor estimate's draws.  Every solve ends by one rule
    (see solve_soliton): at |residual|_inf < _TOL_FACTOR * c, where
    noise_floor is None, or under the residual's noise floor once a full
    plain step or the iteration fails, where noise_floor is that estimate
    (_noise_floor).  These describe the
    iteration on the requested grid; coarse_iterations and
    coarse_residual_evaluations count the same for the coarse phase whose
    solution started it, and are 0 when none did.
    """

    u: ScalarField
    iterations: int
    residual_sup: float
    residual_history: list[float] = field(default_factory=list)
    damping: list[float] = field(default_factory=list)
    residual_evaluations: int = 0
    coarse_iterations: int = 0
    coarse_residual_evaluations: int = 0
    noise_floor: float | None = None


def soliton_residual(u: ScalarField, prob: SolitonProblem) -> ScalarField:
    """Node-wise defect f * u^(alpha-1) * sigma_k^beta - c; raises
    ConvexityLostError for a body outside the admissible class."""
    p = prob.params
    return ScalarField(u.grid, _evaluate(u.values, u.grid, p, p.alpha - 1.0)[0] - prob.c)


def round_soliton_radius(prob: SolitonProblem, grid: Grid) -> float:
    """Radius of the round solution for the mean anisotropy value.

    On the critical line (q = 0) the equation is dilation invariant and no
    radius is singled out, so that case is rejected; pass an initial guess.
    Near it the radius (c / (fbar gamma))^(1/q) can leave the range of a
    double; that raises ValueError too.
    """
    p = prob.params
    if p.q == 0:
        raise ValueError("no round soliton radius on the critical line alpha = 1 - k*beta")
    ratio = prob.c / (float(np.mean(p.f_values(grid))) * p.gamma)
    try:
        radius = ratio ** (1.0 / p.q)
    except OverflowError:
        radius = np.inf
    if not 0.0 < radius < np.inf:
        raise ValueError(
            f"the round soliton's scale (c / (mean f * gamma))^(1/q) = {ratio:.6g}^{1.0 / p.q:.6g} "
            "is not representable as a double"
        )
    return float(radius)


def solve_soliton(prob: SolitonProblem, grid: Grid | None = None) -> SolitonResult:
    """Damped Newton iteration for the self-similar body.

    The Jacobian is analytic, from the node values of the accepted iterate's
    residual (it has bandwidth 2, see the module docstring), and each Newton
    step is one LAPACK call (dgbsv) that factors that band and solves.
    While the residual's sup is at least _LOG_ABOVE * c, the step is that of
    the log form log rho = log c in the variables log u, and the trial is u
    * exp(lam * delta); below it, the step is the plain one and the trial u
    + lam * delta.  Both steps solve the one band: the log step's right side
    is -rho log(rho/c), and its solution divided by u is delta.  Either way
    a step is accepted only if the iterate stays uniformly convex (its
    residual evaluates without ConvexityLostError) and the sup norm of the
    raw residual rho - c decreases; otherwise the step is halved, and so is
    a log trial that could overflow.
    An initial guess outside the admissible class raises ConvexityLostError.

    There is one stop rule.  Convergence is declared at |residual|_inf <
    _TOL_FACTOR * c = 1e-10 * c.  The first time a full plain step fails to
    decrease the sup, the residual's noise floor is estimated there
    (_noise_floor, once per solve); the iteration ends converged if its sup
    is under it, then or when it stalls (the halving runs out, or _MAX_ITER
    iterations pass), the estimate in the result's noise_floor, and a stall
    above it raises NewtonStagnationError.  The rounding
    floor grows like N^2 (the kernel divides by h^2) and passes 1e-10 * c
    near N = 1000: case A of criterion 6 (k = 1, f = (1 + 0.2 cos)^5) from
    random starts stalls at 1.2-1.4e-10 at N = 1200, under its floor of
    about 2.2e-10, with the iterate still converging at order 4 to the exact
    solution where one is known.  A result whose noise_floor is None ended
    at the tolerance.

    The grid is that of the initial guess when one is given; a grid passed
    beside it must have as many nodes, else ValueError.  On grids of at
    least 8 * _COARSE_N nodes off the critical line, Newton first runs on
    _COARSE_N nodes until the residual is below _COARSE_STOP * c (see the
    module docstring); the result's coarse_* fields count that
    phase and the others the iteration on the requested grid.

    For k = 1 the anisotropy must satisfy the admissibility condition
    (positive anisotropy_condition_margin); for k = 2 (the top symmetric
    function in R^3) any positive smooth f is accepted.  That margin and
    the coarse grid's FlowParams are computed once per FlowParams object,
    so repeated solves of one problem, as from many starts, skip them.
    """
    vals, grid = _checked_start(prob, grid)
    p, c = prob.params, prob.c
    if grid.n >= 8 * _COARSE_N and p.q != 0:
        coarse = _coarse_start(p, c, vals, grid)
        if coarse is not None:
            start, phase = coarse
            try:
                result = _newton(start, grid, p, c, _TOL_FACTOR * c)
            except ConvexityLostError:  # only the start raises it: trials are halved
                pass
            else:
                result.coarse_iterations = phase.iterations
                result.coarse_residual_evaluations = phase.residual_evaluations
                return result
    return _newton(vals, grid, p, c, _TOL_FACTOR * c)


def _per_params(build):
    """build(p), computed once per FlowParams object p.

    The values live in a WeakKeyDictionary, so an entry goes with its
    FlowParams (no value may refer to p), and a FlowParams is frozen, its
    anisotropy's node values read-only, so an entry cannot go stale.
    """
    cache = weakref.WeakKeyDictionary()

    @functools.wraps(build)
    def cached(p: FlowParams):
        try:
            return cache[p]
        except KeyError:
            value = cache[p] = build(p)
            return value

    return cached


@_per_params
def _condition_margin(p: FlowParams) -> float:
    """anisotropy_condition_margin of p's anisotropy."""
    return anisotropy_condition_margin(p.f, p)


@_per_params
def _coarse_params(p: FlowParams) -> FlowParams:
    """p with its anisotropy restricted to _coarse_grid() (sphere._restrict,
    cubic); a restriction that is not positive raises ValueError."""
    f, coarse = p.f, _coarse_grid()
    if f is not None:
        f = tabulated_anisotropy(coarse, _restrict(f.field.values, f.field.grid, coarse))
    return FlowParams(p.k, p.beta, p.alpha, f)


def _checked_start(prob: SolitonProblem, grid: Grid | None) -> tuple[np.ndarray, Grid]:
    """(start values, grid) of a problem, after the checks of solve_soliton."""
    p = prob.params
    if prob.init is not None:
        if grid is not None and grid.n != prob.init.grid.n:
            raise ValueError(
                f"grid has {grid.n} nodes but the initial guess has {prob.init.grid.n}"
            )
        grid = prob.init.grid
    if grid is None:
        raise ValueError("pass a grid or an initial guess")
    if p.f is not None and p.k == 1:
        _require_admissible(_condition_margin(p))

    if prob.init is not None:
        vals = prob.init.values.copy()
    else:
        vals = np.full(grid.n, round_soliton_radius(prob, grid))
    return vals, grid


def _residual(v: np.ndarray, grid: Grid, p: FlowParams, c: float):
    """(residual, (rho, b11, b22, sigma_k)) at v: the defect and the node
    values its Jacobian is assembled from."""
    rho, b11, b22, _, sig = _evaluate(v, grid, p, p.alpha - 1.0)
    return rho - c, (rho, b11, b22, sig)


def _sup(x: np.ndarray) -> float:
    """max |x|, by the ufunc reduction without np.max's Python wrapper."""
    return float(np.maximum.reduce(np.abs(x), axis=None))


def _noise_floor(vals: np.ndarray, res: np.ndarray, grid: Grid, p: FlowParams, c: float) -> float:
    """The residual's rounding noise at vals: the largest sup change of the
    residual res over _FLOOR_DRAWS evaluations at vals * (1 + s eps), with
    random signs s from a fixed seed, so that a solve replays bit for bit
    (on estimating computational noise: More and Wild, SIAM J. Sci. Comput.
    33, 2011).

    For the exact spheroid solitons (1, 1.3) and (1.3, 1) at alpha = -2,
    k = 1 and 2, it reads 2.1-2.8e-10 at N = 1200 and 3.8-5.1e-10 at
    N = 1600, and the iteration ends at 0.52-0.64 of it after 8 or 9
    residual evaluations.
    """
    rng = np.random.default_rng(0)
    eps = np.finfo(float).eps
    level = 0.0
    for _ in range(_FLOOR_DRAWS):
        moved = _residual(vals * (1.0 + rng.choice((-eps, eps), vals.size)), grid, p, c)[0]
        level = max(level, _sup(moved - res))
    return level


def _newton(vals: np.ndarray, grid: Grid, p: FlowParams, c: float, tol: float) -> SolitonResult:
    """The damped Newton loop of solve_soliton on one grid, from vals, until
    the residual's sup is below tol.  The first time a full plain step fails
    to decrease the sup, the residual's noise floor is estimated there, once
    per solve; a failed full plain step or a stall whose sup is under that
    floor ends the iteration converged, and a stall above it raises
    NewtonStagnationError."""
    evaluations = 1
    res, pieces = _residual(vals, grid, p, c)
    sup = _sup(res)
    history = [sup]
    damping = []
    level = None  # the noise floor, estimated once per solve

    def under_floor() -> bool:
        nonlocal level, evaluations
        if level is None:
            level = _noise_floor(vals, res, grid, p, c)
            evaluations += _FLOOR_DRAWS
        return sup < level

    while sup >= tol:
        if len(damping) == _MAX_ITER:
            stalled = f"no convergence in {_MAX_ITER} iterations; |residual|_inf ="
            break
        jac = _jacobian_band(vals, *pieces, p.k, p.beta, p.alpha - 1.0)
        log_step = sup >= _LOG_ABOVE * c
        if log_step:
            # diag(1/rho) B diag(u) delta = -log(rho/c) is B (u delta) = -rho log(rho/c)
            rho = pieces[0]
            delta = _band_solver(jac, -rho * np.log(rho / c))[0] / vals
            # vals * exp(lam * delta) stays finite while lam * top <= room
            top = float(np.maximum.reduce(delta, axis=None))
            room = _EXP_REACH - math.log(np.maximum.reduce(vals, axis=None))
        else:
            delta = _band_solver(jac, -res)[0]

        lam = 1.0
        while lam >= 1e-8:
            if log_step and lam * top > room:  # could overflow: halved like a nonconvex trial
                trial_sup = np.inf
            else:
                step = delta if lam == 1.0 else lam * delta
                trial = vals * np.exp(step) if log_step else vals + step
                evaluations += 1
                try:
                    trial_res, trial_pieces = _residual(trial, grid, p, c)
                    trial_sup = _sup(trial_res)
                except ConvexityLostError:  # halved like a trial whose residual grows
                    trial_sup = np.inf
            if trial_sup < sup:
                break
            # a full plain step that fails may stand at the noise floor
            if lam == 1.0 and not log_step and under_floor():
                break
            lam *= 0.5
        else:
            stalled = "Newton stagnated at |residual|_inf ="
            break
        if trial_sup >= sup:  # under the noise floor
            break
        vals, res, sup, pieces = trial, trial_res, trial_sup, trial_pieces
        history.append(sup)
        damping.append(lam)
    if sup >= tol and not under_floor():
        raise NewtonStagnationError(f"{stalled} {sup:.3e}", ScalarField(grid, vals), sup)
    return SolitonResult(
        ScalarField(grid, vals), len(damping), sup, history, damping, evaluations,
        noise_floor=None if sup < tol else level,
    )


@functools.cache
def _coarse_grid() -> Grid:
    """make_grid(_COARSE_N), built once and read-only."""
    grid = make_grid(_COARSE_N)
    for a in (grid.theta, grid.sin, grid.cos, grid.cot, grid.weights):
        a.flags.writeable = False
    return grid


def _coarse_start(p: FlowParams, c: float, vals: np.ndarray, grid: Grid):
    """(start on grid, coarse SolitonResult) of the coarse phase, or None
    when it fails.

    The start is restricted to _coarse_grid() (sphere._restrict, cubic), as
    f was once per FlowParams (_coarse_params), Newton runs there until the
    residual is below _COARSE_STOP * c, and its solution is prolonged to
    grid by its cosine series (sphere._prolong).  A ValueError
    (ConvexityLostError and LinAlgError among them) or NewtonStagnationError
    abandons the phase (its stop lies far above the noise floor, so a stall
    estimates the floor and raises); so does a prolonged start that the
    residual on grid rejects, in solve_soliton.
    """
    coarse = _coarse_grid()
    try:
        start = _restrict(vals, grid, coarse)
        phase = _newton(start, coarse, _coarse_params(p), c, _COARSE_STOP * c)
        return _prolong(phase.u.values, grid), phase
    except (ValueError, NewtonStagnationError):
        return None


def uniqueness_spread(
    prob: SolitonProblem, grid: Grid, trials: int = 3, seed: int = 0
) -> float:
    """Max pairwise sup distance between solves from randomized starts.

    Only meaningful strictly below the critical line (alpha < 1 - k*beta);
    at equality the solutions form a dilation family and the spread is not
    defined, so that case is rejected.  Each solve takes solve_soliton's
    stop rule, noise floor included.
    """
    p = prob.params
    if p.q >= 0:
        raise ValueError("uniqueness check requires alpha < 1 - k*beta")
    if trials < 2:
        raise ValueError("need at least two trials")
    rng = np.random.default_rng(seed)
    r0 = round_soliton_radius(prob, grid)
    solutions = []
    for _ in range(trials):
        for _attempt in range(50):
            vals = r0 * float(np.exp(rng.uniform(-0.4, 0.4))) * np.ones(grid.n)
            for m in range(1, 4):
                vals += r0 * rng.uniform(-0.05, 0.05) * np.cos(m * grid.theta)
            if vals.min() > 0 and _margin(vals, grid) > 0:
                break
        else:
            raise RuntimeError("failed to draw an admissible start")
        start = SolitonProblem(p, prob.c, ScalarField(grid, vals))
        # on this grid alone: a shared coarse solution would leave no spread
        result = _newton(*_checked_start(start, grid), p, prob.c, _TOL_FACTOR * prob.c)
        solutions.append(result.u.values)
    worst = 0.0
    for i in range(len(solutions)):
        for j in range(i + 1, len(solutions)):
            worst = max(worst, float(np.max(np.abs(solutions[i] - solutions[j]))))
    return worst
