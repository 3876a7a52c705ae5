"""Kernel probes: per-call time of anicurve's public kernels at fixed inputs.

Every probe runs on the spheroid with semiaxes (1, 1.5) under criterion 5's
case B parameters (the dual_radial step, which needs f = 1, drops f), at
each grid size in SIZES.  The same calls, made once at N=200 together with
one dense LU solve, are the warm-up every workload pays in its set-up.
"""

import statistics
import time

import numpy as np

from anicurve import body, flow, functionals, soliton, sphere

SIZES = (64, 200, 800)
DT = 1e-7  # well inside the explicit stability bound at every size in SIZES
BATCHES = 5
BATCH_S = 0.005


def calls(n: int) -> dict:
    """Probe name -> zero-argument call, on the probe body at grid size n."""
    g = sphere.make_grid(n)
    u = body.spheroid_support(g, 1.0, 1.5)
    r = body.polar_dual(u)
    f = functionals.tabulated_anisotropy(g, 1.0 + 0.3 * np.cos(2.0 * g.theta))
    p = functionals.FlowParams(k=2, beta=1.0, alpha=-2.0, f=f)
    p_unit = functionals.FlowParams(k=2, beta=1.0, alpha=-2.0)
    prob = soliton.SolitonProblem(p, 1.0)
    return {
        "sphere.differentiate_us": lambda: sphere.differentiate(u, 2, "even"),
        "body.curvature_matrix_us": lambda: body.curvature_matrix(u),
        "functionals.speed_factor_us": lambda: functionals.speed_factor(u, p),
        "functionals.diagnostics_us": lambda: functionals.diagnostics(u, p, 0.0, 0.0),
        "flow.step_us.volume_normalized": lambda: flow.step(u, p, "volume_normalized", DT),
        "flow.step_us.dual_radial": lambda: flow.step(r, p_unit, "dual_radial", DT),
        "flow.adaptive_dt_us": lambda: flow.adaptive_dt(u, p),
        "soliton.soliton_residual_us": lambda: soliton.soliton_residual(u, prob),
    }


def warm_up() -> None:
    """One dense LU solve and one call of each probed function.

    The first LAPACK call of a process can cost far more than the rest
    (BLAS thread start-up), so set-up pays it rather than the first timed
    operation.
    """
    a = np.random.default_rng(0).standard_normal((200, 200)) + 200.0 * np.eye(200)
    np.linalg.solve(a, np.ones(200))
    for call in calls(200).values():
        call()


def _per_call_us(call) -> float:
    reps = 1
    while True:
        start = time.perf_counter()
        for _ in range(reps):
            call()
        if time.perf_counter() - start >= BATCH_S:
            break
        reps *= 2
    samples = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        for _ in range(reps):
            call()
        samples.append((time.perf_counter() - start) / reps * 1e6)
    return statistics.median(samples)


def measure() -> dict:
    """Median per-call microseconds of every probe, named '<probe>.N<n>'."""
    return {
        f"{name}.N{n}": _per_call_us(call) for n in SIZES for name, call in calls(n).items()
    }
