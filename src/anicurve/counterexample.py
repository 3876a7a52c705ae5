"""Ratio-blowup experiments and the supporting sub-solution machinery.

In the supercritical regime alpha > 1 - k*beta the normalized flows need
not round out arbitrary bodies: a body whose boundary passes close to the
origin through a sharply curved cap expands so slowly there, relative to
the rest, that the ratio R = max u / min u grows.  The cap profile used in
the comparison argument is the piecewise function

    psi(rho, t) = -|t|^theta + |t|^(theta(mu-1)) * rho^2          rho <  |t|^theta
    psi(rho, t) = -|t|^theta - (1-mu)/(1+mu) * |t|^(theta(1+mu))
                  + 2/(1+mu) * rho^(1+mu)                         rho >= |t|^theta

with mu = (q*theta - 1)/(k*beta*theta), q = k*beta + 1 - (2 - alpha), and
theta > 1/q; it is C^1 across the branch junction and strictly convex.

Its formulas (heights, slopes, curvature radii, time derivative) are written
once, in a private kernel that takes plain floats or arrays.  The public
scalar functions wrap it with their domain checks and keep the bits of float
arithmetic; verify_case_bounds samples the bounds as arrays, in the stream
order of a scalar loop and in blocks of bounded size, and
capped_profile_body evaluates its meridian samples in one call.
"""

from dataclasses import astuple, dataclass

import numpy as np

from .sphere import Grid, ScalarField
from .body import _sigma_values, convexity_margin, normalize_body
from .functionals import FlowParams
from .flow import StoppingConfig, Trajectory, run

__all__ = [
    "SubsolutionParams",
    "subsolution_profile",
    "subsolution_profile_dt",
    "profile_radii",
    "verify_case_bounds",
    "capped_profile_body",
    "BlowupReport",
    "blowup_experiment",
]


@dataclass(frozen=True)
class SubsolutionParams:
    """Exponent bookkeeping for the cap profile."""

    alpha_hat: float
    q: float
    theta: float
    mu: float

    def __post_init__(self):
        if self.q <= 0:
            raise ValueError("q = k*beta + 1 - alpha_hat must be positive")
        if self.theta * self.q <= 1:
            raise ValueError("theta must exceed 1/q")
        if not (0 < self.mu < 1):
            raise ValueError("mu must lie in (0, 1)")

    @classmethod
    def from_exponents(cls, alpha: float, k: int, beta: float, theta: float):
        alpha_hat = 2.0 - alpha
        q = k * beta + 1.0 - alpha_hat
        mu = (q * theta - 1.0) / (k * beta * theta)
        return cls(alpha_hat=alpha_hat, q=q, theta=theta, mu=mu)


def _check_domain(rho: float, t: float) -> None:
    if not -1.0 < t < 0.0:
        raise ValueError("t must lie in (-1, 0)")
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")


# The cap kernel: every formula of the profile once, for rho and s = |t| given
# as plain floats (the public functions below, which check the domain and
# keep the bits of float arithmetic) or as arrays of one shape
# (verify_case_bounds, capped_profile_body).  The branch is the one that
# rho < s^theta picks.


def _select(on_inner, inner, outer):
    """inner() where on_inner holds, else outer(); a float evaluates only the
    branch it takes, arrays evaluate both."""
    if isinstance(on_inner, np.ndarray):
        return np.where(on_inner, inner(), outer())
    return inner() if on_inner else outer()


def _branch_values(rho, s, sp: SubsolutionParams):
    inner = -(s**sp.theta) + s ** (sp.theta * (sp.mu - 1.0)) * rho * rho
    outer = (
        -(s**sp.theta)
        - (1.0 - sp.mu) / (1.0 + sp.mu) * s ** (sp.theta * (1.0 + sp.mu))
        + 2.0 / (1.0 + sp.mu) * rho ** (1.0 + sp.mu)
    )
    return inner, outer


def _branch_slopes(rho, s, sp: SubsolutionParams):
    return 2.0 * s ** (sp.theta * (sp.mu - 1.0)) * rho, 2.0 * rho**sp.mu


def _profile(rho, s, sp: SubsolutionParams):
    inner, outer = _branch_values(rho, s, sp)
    return np.where(rho < s**sp.theta, inner, outer)


def _profile_dt(rho, s, sp: SubsolutionParams):
    th, mu = sp.theta, sp.mu
    return _select(
        rho < s**th,
        lambda: th * s ** (th - 1.0) + th * (1.0 - mu) * s ** (th * (mu - 1.0) - 1.0) * rho * rho,
        lambda: th * s ** (th - 1.0) * (1.0 + (1.0 - mu) * s ** (th * mu)),
    )


def _cap_radii(rho, s, sp: SubsolutionParams):
    """(meridian, parallel) radii at rho > 0; raises at a non-convex point."""
    on_inner = rho < s**sp.theta
    inner, outer = _branch_slopes(rho, s, sp)
    d1 = _select(on_inner, lambda: inner, lambda: outer)
    d2 = _select(
        on_inner,
        lambda: 2.0 * s ** (sp.theta * (sp.mu - 1.0)),
        lambda: 2.0 * sp.mu * rho ** (sp.mu - 1.0),
    )
    if not (np.all(d1 > 0) and np.all(d2 > 0)):
        raise ValueError("profile is not strictly convex at this point")
    w = 1.0 + d1 * d1
    return w**1.5 / d2, rho * np.sqrt(w) / d1


def subsolution_profile(rho: float, t: float, sp: SubsolutionParams) -> float:
    """Cap height psi(rho, t); C^1 across rho = |t|^theta by construction."""
    _check_domain(rho, t)
    return float(_profile(rho, -t, sp))


def subsolution_profile_dt(rho: float, t: float, sp: SubsolutionParams) -> float:
    """Time derivative of the cap height at fixed rho (positive: the cap rises)."""
    _check_domain(rho, t)
    return float(_profile_dt(rho, -t, sp))


def profile_radii(sp: SubsolutionParams, rho: float, t: float) -> tuple[float, float]:
    """Principal curvature radii of the rotation surface z = psi(rho).

    Returns (meridian, parallel) radii
    ((1+psi'^2)^(3/2)/psi'', rho*(1+psi'^2)^(1/2)/psi').
    """
    _check_domain(rho, t)
    if rho == 0.0:
        raise ValueError("rho must lie in (0, 1]")
    meridian, parallel = _cap_radii(rho, -t, sp)
    return float(meridian), float(parallel)


# samples per block of verify_case_bounds; even, so that a block's even rows
# are the samples of even index
_BLOCK = 1024
# the range of |t| that verify_case_bounds samples
_T_LO, _T_HI = 1e-3, 0.5


def verify_case_bounds(
    sp: SubsolutionParams,
    p: FlowParams,
    samples: int = 1000,
    seed: int = 0,
) -> dict:
    """Sample the two case inequalities of the comparison argument.

    Draws (rho, t) log-uniformly in |t| in [_T_LO, _T_HI] = [1e-3, 0.5] and
    within each branch, and reports

      L = r^alpha_hat * sigma_k(radii)^beta with r the distance of the graph
          point from the origin, normalized by |t|^(theta-1): its minimum is
          the empirical lower constant c0 (must be positive), and
      T = |d psi / dt|, normalized the same way: its maximum is the
          empirical constant C of the bound |psi_t| <= C |t|^(theta-1).

    Sample i takes |t| and then rho from the generator, in the stream order
    of a scalar loop of rng.uniform calls, with rho in the inner branch for
    even i and in the outer one for odd i.  The samples are evaluated as
    arrays in blocks of _BLOCK, so memory stays bounded for any count, and
    only each branch's count, minima and maxima are kept; vectorized pow and
    hypot may round a last bit differently from the scalar functions.  A
    non-convex point raises as profile_radii does, and so does a theta
    whose inner branch, rho below 1e-3 |t|^theta, underflows.

    The exact pointwise ratio of T is theta*(1 + (1-mu)|t|^(theta*mu)) on the
    outer branch and lies between theta and that value on the inner branch,
    so the maximum satisfies
    theta <= T_ratio_max <= theta*(1 + (1-mu)*_T_HI^(theta*mu)); it approaches
    theta only as t -> 0-.  The comparison argument needs C finite, not
    C = theta.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    rng = np.random.default_rng(seed)
    log_lo, log_hi = np.log(_T_LO), np.log(_T_HI)

    # per branch: count, L min, L max, T min, T max
    acc = {b: [0, np.inf, -np.inf, np.inf, -np.inf] for b in ("inner", "outer")}
    for start in range(0, samples, _BLOCK):
        # Generator.uniform(low, high) is low + (high - low) * rng.random()
        u = rng.random((min(_BLOCK, samples - start), 2))
        s = np.exp(log_lo + (log_hi - log_lo) * u[:, 0])
        split = s**sp.theta
        if not (1e-3 * split).min() > 0:
            raise ValueError("theta too large: the inner branch |t|^theta underflows")
        log_split = np.log(split)
        inner = np.arange(len(u)) % 2 == 0
        low = np.where(inner, np.log(1e-3 * split), log_split)
        high = np.where(inner, log_split, 0.0)
        rho = np.minimum(np.exp(low + (high - low) * u[:, 1]), 1.0)
        sig = _sigma_values(*_cap_radii(rho, s, sp), p.k)
        r = np.hypot(rho, _profile(rho, s, sp))
        base = s ** (sp.theta - 1.0)
        L = r**sp.alpha_hat * sig**p.beta / base
        T = _profile_dt(rho, s, sp) / base
        for branch, rows in (("inner", slice(0, None, 2)), ("outer", slice(1, None, 2))):
            Lb, Tb = L[rows], T[rows]
            if Lb.size:
                a = acc[branch]
                a[0] += Lb.size
                a[1], a[2] = min(a[1], Lb.min()), max(a[2], Lb.max())
                a[3], a[4] = min(a[3], Tb.min()), max(a[4], Tb.max())

    branch_stats = {
        b: {
            "count": count,
            "L_ratio_min": float(l_min),
            "L_ratio_max": float(l_max),
            "T_ratio_min": float(t_min),
            "T_ratio_max": float(t_max),
        }
        for b, (count, l_min, l_max, t_min, t_max) in acc.items()
    }
    return {
        "c0_empirical": min(st["L_ratio_min"] for st in branch_stats.values()),
        "T_ratio_max": max(st["T_ratio_max"] for st in branch_stats.values()),
        "samples": samples,
        "theta": sp.theta,
        "mu": sp.mu,
        "branch_stats": branch_stats,
    }


# meridian samples of capped_profile_body, half on the graph, half on the
# closing sphere
_MERIDIAN_SAMPLES = 24_000
# entries per array of one block of capped_profile_body's support maximum:
# its two 512 kB arrays fit in a core's L2 cache (4 MB blocks measured slower
# than the node loop)
_SUPPORT_BLOCK = 1 << 16


def capped_profile_body(grid: Grid, sp: SubsolutionParams, t: float) -> ScalarField:
    """Support function of the convex body bounded below by the cap profile.

    The lower boundary is the rotation graph of psi(., t) over rho in [0, 1];
    a sphere tangent at the rim (the profile slope there is 2 for every
    admissible parameter set) closes the body on top.  The support function
    is evaluated as a discrete maximum over the meridian, sampled at
    _MERIDIAN_SAMPLES // 2 log-spaced graph points plus the axis point and
    as many points on the sphere, which yields the support of the convex
    hull of the samples.

    Its lowest point sits at distance |t|^theta below the origin under a cap
    whose curvature radii shrink like |t|^(theta(1-mu)), so the expansion
    speed there vanishes as t -> 0- while the bulk expands at unit rate.
    Whether the volume-normalized flow then drives R = max u / min u up
    without bound depends on alpha.  Measured at k = 1, beta = 1.5,
    theta = 2, t = -0.3 with the cap built from the flow's own exponents:
    at alpha = 1 (mu = 2/3) R rises monotonically from about 30 to 3.8e3 by
    tau = 3; at alpha = 0.5 (mu = 1/2) R peaks near 41.7 at tau ~ 0.24 and
    the body then rounds out (R ~ 9.7 by tau = 0.6), and deeper caps
    (t = -0.2 ... -0.1) behave the same way.
    """
    _check_domain(0.0, t)
    s = -t
    # graph part, log-spaced toward the tip to resolve the cap
    rho = np.concatenate(([0.0], np.geomspace(1e-6, 1.0, _MERIDIAN_SAMPLES // 2)))
    z = _profile(rho, s, sp)
    # closing sphere, tangent at (1, psi(1)) with slope 2: radius sqrt(5)/2,
    # center on the axis half a unit above the rim
    z_rim = z[-1]
    radius = np.sqrt(5.0) / 2.0
    z_center = z_rim + 0.5
    a_rim = np.arctan2(1.0, z_rim - z_center)
    arc = np.linspace(0.0, a_rim, _MERIDIAN_SAMPLES // 2)
    rho_cap = radius * np.sin(arc)
    z_cap = z_center + radius * np.cos(arc)

    pr = np.concatenate([rho, rho_cap])
    pz = np.concatenate([z, z_cap])
    # support of an axisymmetric set: maximize sin(theta_i) pr + cos(theta_i) pz
    # over the meridian samples, a block of nodes at a time; with the sines and
    # cosines of the scalar node angles, each product and sum is that of one
    # node's scan, so the maxima carry its bits
    sin = np.array([np.sin(a) for a in grid.theta])
    cos = np.array([np.cos(a) for a in grid.theta])
    rows = min(grid.n, max(1, _SUPPORT_BLOCK // pr.size))
    dots, term = np.empty((rows, pr.size)), np.empty((rows, pr.size))
    u = np.empty(grid.n)
    for start in range(0, grid.n, rows):
        block = slice(start, min(start + rows, grid.n))
        d, e = dots[: block.stop - start], term[: block.stop - start]
        np.multiply(sin[block, None], pr, out=d)
        np.multiply(cos[block, None], pz, out=e)
        d += e
        np.maximum.reduce(d, axis=1, out=u[block])
    body = ScalarField(grid, u)
    if u.min() <= 0 or convexity_margin(body) <= 0:
        raise ValueError("cap parameters give an unresolvable body on this grid")
    return body


@dataclass(eq=False)
class BlowupReport:
    verdict: str
    r_initial: float
    r_final: float
    r_increasing: bool
    stop_reason: str
    trajectory: Trajectory
    control_r_decreasing: bool
    control_trajectory: Trajectory


# relative step against the direction that _monotone forgives
_SLACK = 1e-9


def _monotone(seq, direction: int) -> bool:
    arr = np.asarray(seq)
    diffs = direction * np.diff(arr)
    return bool(np.all(diffs >= -_SLACK * np.abs(arr[:-1])))


def _shared_run(runs: dict, u_start: ScalarField, p: FlowParams, stop: StoppingConfig) -> Trajectory:
    """The volume-normalized flow.run from u_start, looked up in runs by its
    inputs (k, beta, alpha, the bytes of f's node values, the bytes of
    u_start and every stopping field), and run and stored on a miss."""
    key = (
        p.k,
        p.beta,
        p.alpha,
        None if p.f is None else p.f.field.values.tobytes(),
        u_start.values.tobytes(),
        astuple(stop),
    )
    if key not in runs:
        runs[key] = run(u_start, p, "volume_normalized", stop)
    return runs[key]


def blowup_experiment(
    p: FlowParams, u0: ScalarField, stop: StoppingConfig, runs: dict | None = None
) -> BlowupReport:
    """A/B ratio experiment for the supercritical regime.

    Runs the volume-normalized flow from the size-normalized u0 under stop,
    up to tau = stop.t_max (the caller's stop is only read), and declares
    "supports blowup" when the ratio R = max u / min u grows monotonically
    to at least twice its initial value, or when the run dies by ratio
    blowup or convexity loss with R having increased.  A ratio_blowup stop only shows
    that R crossed the threshold while rising: a threshold below a transient
    peak gives this verdict to a body that later rounds out.  R is read only
    at the records of flow.run, one per record_every * 0.002 of tau plus the
    stop: with record_every = 200, a ratio_blowup stop before tau = 0.4
    leaves two records, so "increasing" then compares R at the start and at
    the stop alone.  A control run at the critical exponent
    alpha' = 1 - k*beta from the same body is reported alongside; there R
    must decrease.

    Neither run reads a cap parameter, and the control does not read alpha
    either, so the variants of a theta or samples sweep share both runs and
    those of an alpha sweep share the control.  runs, a dict the caller
    owns, holds the trajectories run so far, keyed by every input of the
    run (_shared_run).  A run found there is reused (the shared Trajectory
    must then only be read); otherwise it is run and stored.  Without runs,
    both always run.
    """
    if p.q <= 0:
        raise ValueError("blowup experiment requires alpha > 1 - k*beta")
    runs = {} if runs is None else runs

    u_start = normalize_body(u0, p.k)
    traj = _shared_run(runs, u_start, p, stop)
    rs = [rec.R for rec in traj.diagnostics]
    increasing = _monotone(rs, +1) and rs[-1] > rs[0]
    doubled = rs[-1] >= 2.0 * rs[0]
    died = traj.stop_reason in ("ratio_blowup", "convexity_lost")
    if (increasing and doubled) or (died and increasing):
        verdict = "supports blowup"
    else:
        verdict = "no blowup"

    p_control = FlowParams(k=p.k, beta=p.beta, alpha=1.0 - p.k * p.beta, f=p.f)
    control = _shared_run(runs, u_start, p_control, stop)
    crs = [rec.R for rec in control.diagnostics]
    control_decreasing = _monotone(crs, -1) and crs[-1] < crs[0]

    return BlowupReport(
        verdict=verdict,
        r_initial=rs[0],
        r_final=rs[-1],
        r_increasing=increasing,
        stop_reason=traj.stop_reason,
        trajectory=traj,
        control_r_decreasing=control_decreasing,
        control_trajectory=control,
    )
