"""The four benchmark workloads.

Each workload is a closed loop: one process runs one operation at a time.
The constructor is the set-up: it builds every input from the workload seed
(the program sees only those inputs) and computes the reference values the
checks need.  ``op(i)`` runs operation ``i`` on input ``i % INPUTS`` and
checks its result; it returns an ``Outcome`` whose ``failure`` is None only
when every accuracy check passed.  ``N`` is the grid size the work runs at.

Every call into anicurve goes through a module attribute (``flow.run``,
``cli.main``, ...), so the tracer in spans.py can replace it from outside.
"""

import hashlib
import json
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from anicurve import body, cli, flow, functionals, soliton, sphere

ROOT = Path(__file__).resolve().parent.parent

# Inputs drawn per workload; operations past this count reuse them in turn.
INPUTS = 64


@dataclass
class Outcome:
    failure: str | None = None  # why a check failed; None when all passed
    fingerprint: str = ""  # digest of every result value, for replay checks
    errors: dict = field(default_factory=dict)  # result errors behind the checks
    counts: dict = field(default_factory=dict)  # output volume (cli_sweep)


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _case_b(grid):
    """Criterion 5's case B: k=2, beta=1, alpha=-2, tabulated f = 1 + 0.3 cos 2theta."""
    f = functionals.tabulated_anisotropy(grid, 1.0 + 0.3 * np.cos(2.0 * grid.theta))
    return functionals.FlowParams(k=2, beta=1.0, alpha=-2.0, f=f)


class ConvergeFlow:
    """Volume-normalized flow of a normalized spheroid (1, b) run to convergence."""

    N = 200

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng(seed)
        self.grid = sphere.make_grid(self.N)
        self.p = _case_b(self.grid)
        self.stop = flow.StoppingConfig(t_max=30.0, tol_conv=1e-7, record_every=200)
        self.inputs = [
            body.normalize_body(body.spheroid_support(self.grid, 1.0, b), self.p.k)
            for b in rng.uniform(1.4, 1.6, INPUTS)
        ]
        newton = soliton.solve_soliton(soliton.SolitonProblem(self.p, 1.0), self.grid)
        self.reference = body.normalize_body(newton.u, self.p.k).values

    def op(self, i: int) -> Outcome:
        traj = flow.run(self.inputs[i % INPUTS], self.p, "volume_normalized", self.stop)
        final = traj.final()
        rho = functionals.speed_factor(final, self.p).values
        relvar = float((rho.max() - rho.min()) / rho.mean())
        normalized = body.normalize_body(final, self.p.k).values
        dist = float(np.max(np.abs(normalized - self.reference)))
        failure = None
        if traj.stop_reason != "converged":
            failure = f"stop reason {traj.stop_reason!r}, expected 'converged'"
        elif not relvar < 1e-3:
            failure = f"speed-factor relative variation {relvar:.3e} >= 1e-3"
        elif not dist < 1e-3:
            failure = f"sup distance {dist:.3e} >= 1e-3 from the Newton soliton"
        return Outcome(
            failure,
            _digest([s.values for s in traj.snapshots]),
            {"flow.soliton_dist": dist},
        )


class FixedStep:
    """Raw flow of a translated ball and its dual_radial flow, fixed-step RK4."""

    N = 200

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng(seed)
        self.grid = sphere.make_grid(self.N)
        self.p = functionals.FlowParams(k=1, beta=1.5, alpha=-2.0)
        self.stop = flow.StoppingConfig(
            t_max=0.2, tol_conv=0.0, record_every=1000, fixed_dt=2e-5
        )
        self.inputs = []
        for offset in rng.uniform(0.15, 0.25, INPUTS):
            s0 = body.translated_ball(self.grid, offset)
            self.inputs.append((s0, body.polar_dual(s0)))

    def op(self, i: int) -> Outcome:
        s0, r0 = self.inputs[i % INPUTS]
        tr_s = flow.run(s0, self.p, "raw", self.stop)
        tr_r = flow.run(r0, self.p, "dual_radial", self.stop)
        err = max(
            float(np.max(np.abs(r.values * s.values - 1.0)))
            for s, r in zip(tr_s.snapshots, tr_r.snapshots)
        )
        failure = None
        if (tr_s.stop_reason, tr_r.stop_reason) != ("t_max", "t_max"):
            failure = f"stop reasons {tr_s.stop_reason!r}/{tr_r.stop_reason!r}, expected 't_max'"
        elif len(tr_s.snapshots) != len(tr_r.snapshots):
            failure = "raw and dual trajectories have different record counts"
        elif not err < 1e-6:
            failure = f"max |r*s - 1| = {err:.3e} >= 1e-6"
        snaps = [s.values for s in tr_s.snapshots] + [r.values for r in tr_r.snapshots]
        return Outcome(failure, _digest(snaps), {"flow.dual_identity_err": err})


class SolitonNewton:
    """Newton solves of criterion 6's case A and case B from randomized starts.

    One operation solves each problem from two starts.  The residual check
    recomputes each solution's residual rather than trusting the solver's
    report; the spread check compares the two solutions of one problem with
    each other and with the solution from the default start, solved in set-up.
    """

    N = 800

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng(seed)
        self.grid = g = sphere.make_grid(self.N)
        p_a = functionals.FlowParams(
            k=1, beta=2.0, alpha=-2.0, f=functionals.power_of_linear_anisotropy(g, 0.2, 5.0)
        )
        self.problems = [soliton.SolitonProblem(p, 1.0) for p in (p_a, _case_b(g))]
        self.references = [soliton.solve_soliton(prob, g).u.values for prob in self.problems]
        self.inputs = [
            [[self._start(prob, rng) for _ in range(2)] for prob in self.problems]
            for _ in range(INPUTS)
        ]

    def _start(self, prob, rng) -> sphere.ScalarField:
        """Admissible random start: a scaled round body plus low cosine modes."""
        g = self.grid
        r0 = soliton.round_soliton_radius(prob, g)
        while True:
            vals = r0 * float(np.exp(rng.uniform(-0.4, 0.4))) * np.ones(g.n)
            for m in range(1, 4):
                vals += r0 * rng.uniform(-0.05, 0.05) * np.cos(m * g.theta)
            start = sphere.ScalarField(g, vals)
            if vals.min() > 0 and body.convexity_margin(start) > 0:
                return start

    def op(self, i: int) -> Outcome:
        failure = None
        spread = 0.0
        solutions = []
        for prob, ref, starts in zip(self.problems, self.references, self.inputs[i % INPUTS]):
            results = [
                soliton.solve_soliton(soliton.SolitonProblem(prob.params, prob.c, s))
                for s in starts
            ]
            worst = max(
                float(np.max(np.abs(soliton.soliton_residual(r.u, prob).values))) for r in results
            )
            first, second = (r.u.values for r in results)
            sp = max(
                float(np.max(np.abs(a - b))) for a, b in ((first, second), (first, ref), (second, ref))
            )
            spread = max(spread, sp)
            solutions.extend(r.u.values for r in results)
            if failure is None and not worst < 1e-10 * prob.c:
                failure = f"recomputed residual {worst:.3e} >= 1e-10 * c"
            if failure is None and not sp < 1e-6:
                failure = f"spread {sp:.3e} >= 1e-6 across starts and the reference"
        return Outcome(failure, _digest(solutions), {"soliton.spread": spread})


class CliSweep:
    """``anicurve counterexample --sweep alpha=0.5,0.6`` on configs/counterexample.cfg at N=96."""

    N = 96

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng(seed)
        text, n = re.subn(
            r"^N\s*=.*$", f"N = {self.N}", (ROOT / "configs" / "counterexample.cfg").read_text(), flags=re.M
        )
        if n != 1:
            raise ValueError("configs/counterexample.cfg has no single 'N = ...' line")
        self.work = work
        self.config = work / "counterexample.cfg"
        self.config.write_text(text, encoding="utf-8")
        self.seeds = [int(s) for s in rng.integers(0, 2**31, INPUTS)]
        self.runs = 0

    def op(self, i: int) -> Outcome:
        self.runs += 1
        out = self.work / f"run_{self.runs}"
        argv = [
            "counterexample",
            "--config", str(self.config),
            "--out", str(out),
            "--sweep", "alpha=0.5,0.6",
            "--seed", str(self.seeds[i % INPUTS]),
        ]
        try:
            code = cli.main(argv)
            failure = None if code == 0 else f"exit status {code}"
            for variant in ("sweep_0", "sweep_1"):
                report = json.loads((out / variant / "report.json").read_text())
                if failure is None and report["control_R_decreasing"] is not True:
                    failure = f"{variant}: control_R_decreasing is not true"
                if failure is None and report["verdict"] != "no blowup":
                    failure = f"{variant}: verdict {report['verdict']!r}, expected 'no blowup'"
            files = sorted(p for p in out.rglob("*") if p.is_file())
            h = hashlib.sha256()
            for path in files:
                h.update(path.relative_to(out).as_posix().encode())
                h.update(path.read_bytes())
            counts = {
                "cli.files_written": len(files),
                "cli.bytes_written": sum(path.stat().st_size for path in files),
            }
            return Outcome(failure, h.hexdigest(), {}, counts)
        finally:
            shutil.rmtree(out, ignore_errors=True)


WORKLOADS = {
    "converge_flow": ConvergeFlow,
    "fixed_step": FixedStep,
    "soliton_newton": SolitonNewton,
    "cli_sweep": CliSweep,
}
