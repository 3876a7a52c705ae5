"""Direct elliptic solver for self-similar bodies.

A self-similar solution of the anisotropic flow satisfies

    f * u^(alpha-1) * sigma_k(W_u)^beta = c

for a positive constant c.  The solver runs a damped Newton iteration on
the nodal vector of u.  The residual at node i reads only nodes i-2..i+2 (f
does not depend on u), so its Jacobian has bandwidth 2; it is analytic and
comes from the node values of the residual evaluation at the accepted
iterate, with no further kernel call (body._jacobian_band, the
linearization the flow integrator shares).  The Newton step is one LU
factorization and solve of the (2, 2) band (body._band_solver).  The
residual applies the admissibility rule of body._radii, so evaluating it at
a trial iterate is also that iterate's convexity test.
"""

from dataclasses import dataclass, field

import numpy as np

from .sphere import Grid, ScalarField
from .body import ConvexityLostError, _band_solver, _jacobian_band, _margin
from .functionals import FlowParams, _evaluate, anisotropy_condition_margin

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
    the start, and one per trial, rejected ones included, convex or not (the
    Jacobian reuses the node values of the accepted one and evaluates none).
    """

    u: ScalarField
    iterations: int
    residual_sup: float
    residual_history: list[float] = field(default_factory=list)
    damping: list[float] = field(default_factory=list)
    residual_evaluations: int = 0


def soliton_residual(u: ScalarField, prob: SolitonProblem) -> ScalarField:
    """Node-wise defect f * u^(alpha-1) * sigma_k^beta - c; raises
    ConvexityLostError for a body outside the admissible class."""
    p = prob.params
    return ScalarField(u.grid, _evaluate(u.values, u.grid, p, p.alpha - 1.0)[0] - prob.c)


def round_soliton_radius(prob: SolitonProblem, grid: Grid) -> float:
    """Radius of the round solution for the mean anisotropy value.

    On the critical line (q = 0) the equation is dilation invariant and no
    radius is singled out, so that case is rejected; pass an initial guess.
    """
    p = prob.params
    if p.q == 0:
        raise ValueError("no round soliton radius on the critical line alpha = 1 - k*beta")
    fbar = float(np.mean(p.f_values(grid)))
    return float((prob.c / (fbar * p.gamma)) ** (1.0 / p.q))


def solve_soliton(
    prob: SolitonProblem,
    grid: Grid | None = None,
    tol_factor: float = 1e-10,
) -> SolitonResult:
    """Damped Newton iteration for the self-similar body.

    The Jacobian is analytic, from the node values of the accepted iterate's
    residual (it has bandwidth 2, see the module docstring), and each Newton
    step is one factorization and solve of that band.  A step is accepted
    only if the iterate stays uniformly convex (its residual evaluates
    without ConvexityLostError) and the sup norm of the residual decreases;
    otherwise the step is halved.
    An initial guess outside the admissible class raises ConvexityLostError.
    Convergence is declared at |residual|_inf < tol_factor * c.

    For k = 1 the anisotropy must satisfy the admissibility condition
    (positive anisotropy_condition_margin); for k = 2 (the top symmetric
    function in R^3) any positive smooth f is accepted.
    """
    p = prob.params
    if prob.init is not None:
        grid = prob.init.grid
    if grid is None:
        raise ValueError("pass a grid or an initial guess")
    if p.f is not None and p.k == 1:
        if anisotropy_condition_margin(p.f, p) <= 0:
            raise ValueError(
                "anisotropy fails the admissibility condition: the curvature "
                "matrix of f^(1/(1+k*beta-alpha)) must be positive definite for k < 2"
            )

    if prob.init is not None:
        vals = prob.init.values.copy()
    else:
        vals = np.full(grid.n, round_soliton_radius(prob, grid))

    evaluations = 0

    def residual(v: np.ndarray):
        """(residual, (rho, b11, b22, sigma_k)) at v: the defect and the node
        values its Jacobian is assembled from."""
        nonlocal evaluations
        evaluations += 1
        rho, b11, b22, _, sig = _evaluate(v, grid, p, p.alpha - 1.0)
        return rho - prob.c, (rho, b11, b22, sig)

    tol = tol_factor * prob.c
    res, pieces = residual(vals)
    sup = float(np.max(np.abs(res)))
    history = [sup]
    damping = []
    while sup >= tol:
        if len(damping) == _MAX_ITER:
            raise NewtonStagnationError(
                f"no convergence in {_MAX_ITER} iterations; |residual|_inf = {sup:.3e}",
                ScalarField(grid, vals),
                sup,
            )
        jac = _jacobian_band(vals, *pieces, p.k, p.beta, p.alpha - 1.0)
        delta = _band_solver(jac)(-res)

        lam = 1.0
        while True:
            trial = vals + lam * delta
            try:
                trial_res, trial_pieces = residual(trial)
            except ConvexityLostError:  # halved like a trial whose residual grows
                trial_res = np.inf
            trial_sup = float(np.max(np.abs(trial_res)))
            if trial_sup < sup:
                vals, res, sup, pieces = trial, trial_res, trial_sup, trial_pieces
                break
            lam *= 0.5
            if lam < 1e-8:
                raise NewtonStagnationError(
                    f"Newton stagnated at |residual|_inf = {sup:.3e}",
                    ScalarField(grid, vals),
                    sup,
                )
        history.append(sup)
        damping.append(lam)
    return SolitonResult(
        ScalarField(grid, vals), len(damping), sup, history, damping, evaluations
    )


def uniqueness_spread(
    prob: SolitonProblem, grid: Grid, trials: int = 3, seed: int = 0
) -> float:
    """Max pairwise sup distance between solves from randomized starts.

    Only meaningful strictly below the critical line (alpha < 1 - k*beta);
    at equality the solutions form a dilation family and the spread is not
    defined, so that case is rejected.
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
        solutions.append(solve_soliton(start).u.values)
    worst = 0.0
    for i in range(len(solutions)):
        for j in range(i + 1, len(solutions)):
            worst = max(worst, float(np.max(np.abs(solutions[i] - solutions[j]))))
    return worst
