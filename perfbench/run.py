"""anicurve benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>]

Run from the root of a checkout.  The benchmark imports anicurve from the
checkout's src/ (nothing else), sets up the named workload from the seed,
then runs it as a closed loop, one operation at a time, for --seconds
seconds (at least one operation), and checks every result.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the metric names and units come from BENCHMARK.json.

--trace 0 prints these, each with its median, quartiles and sample count,
and reports the medians of those BENCHMARK.json names as end-to-end:
  setup_raw_s  set-ups of this process and of fresh child processes, each
               timed from before `import anicurve` through inputs,
               reference values and warm-up;
  setup_s      each set-up time scaled to a machine on which one reference
               call takes REFERENCE_CALL_S: setup_raw_s times
               REFERENCE_CALL_S over the median reference call timed
               around it;
  wall_s       per operation, the time from its first call to its last
               verified result;
  ref_call_us  one call of the reference kernel (reference.py), timed in
               short bursts every 0.1 s by a child process from before the
               first set-up to the end of the last;
  wall_kcalls  per operation, wall_s over the median reference call timed
               around it, in thousands of calls: time to solution with the
               host's speed drift divided out;
  peak_rss_mb  this process's peak resident memory.
fail_rate (failed / attempted operations) is printed with them and carried
by the attempted and failed fields.

--trace 1 reports the per-layer metrics: kernel probes (probes.py), then
pairs of one untraced and one traced operation on the same input, started
during the first half of --seconds.  The traced operation records spans
(spans.py); its results must be bit-identical to the untraced one's.  The
spans are written to perfbench/out/ when the run ends.

--workload all runs every workload with --trace 0 in turn, one child
process at a time.  See perfbench/README.md for why each workload exists
and which metric each layer should move.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 3
# setup_s is the set-up time on a machine where one reference call takes
# this long, about the median on the 2-vCPU host the benchmark was tuned on,
# so that the host's speed drift cancels out of it as it does of wall_kcalls.
REFERENCE_CALL_S = 35e-6
CHILD_TIMEOUT_S = 170
# Per-layer values that only some workloads produce read 0 on the others.
ABSENT_IS_ZERO = (
    "flow.records",
    "flow.tau_final",
    "soliton.newton_iterations",
    "cli.files_written",
    "cli.bytes_written",
)
ERROR_METRICS = ("flow.soliton_dist", "flow.dual_identity_err", "soliton.spread")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path.name}: {exc}") from None


def set_up(name: str, seed: int, work: Path):
    """Import anicurve from src/, warm up and build the workload's inputs.

    Returns the workload and the seconds the whole set-up took.
    """
    start = time.perf_counter()
    package = ROOT / "src" / "anicurve"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no anicurve sources under {package.relative_to(ROOT)}")
    sys.path.insert(0, str(ROOT / "src"))
    import anicurve

    if Path(anicurve.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported anicurve from {anicurve.__file__}, not from src/")
    import probes
    import workloads

    work.mkdir(parents=True, exist_ok=True)
    probes.warm_up()
    wl = workloads.WORKLOADS[name](seed, work)
    return wl, time.perf_counter() - start


def child_setup(name: str, seed: int) -> tuple[float, list[float]]:
    """Set-up time of a fresh process (imports and first calls included),
    and the monotonic window around that process."""
    window = [time.monotonic()]
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-only"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    window.append(time.monotonic())
    if proc.returncode != 0:
        raise BenchError(f"set-up in a child process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"], window


def machine_block() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


class Op:
    """One attempted operation: its input index, wall time and outcome."""

    def __init__(self, wl, index: int, tracer=None):
        from workloads import Outcome

        self.index = index
        self.tracer = tracer
        self.window = [time.monotonic()]  # for the reference samples around it
        start = time.perf_counter()
        try:
            if tracer is None:
                self.outcome = wl.op(index)
            else:
                with tracer.installed():
                    self.outcome = wl.op(index)
        except Exception as exc:  # a failed operation is kept with its time, never retried
            self.outcome = Outcome(failure=f"{type(exc).__name__}: {exc}")
        self.wall = time.perf_counter() - start
        self.window.append(time.monotonic())


def closed_loop(wl, seconds: float, traced: bool):
    """Operations 0, 1, ... until `seconds` have passed.

    With `traced`, each input runs once untraced and once traced, the two in
    alternating order, and pairs start only in the first half of `seconds`,
    so that a traced run lasts about as long as an untraced one.
    Returns (untraced ops, traced ops).
    """
    from spans import Tracer

    plain, with_spans = [], []
    window = seconds / 2 if traced else seconds
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < window:
        i = len(plain)
        if not traced:
            plain.append(Op(wl, i))
            continue
        if i % 2:
            op = Op(wl, i, Tracer())
            plain.append(Op(wl, i))
        else:
            plain.append(Op(wl, i))
            op = Op(wl, i, Tracer())
        if op.outcome.failure is None and op.outcome.fingerprint != plain[-1].outcome.fingerprint:
            op.outcome.failure = "traced results differ from the untraced run"
        with_spans.append(op)
    return plain, with_spans


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def trace_metrics(plain, with_spans, kernel: dict) -> dict:
    import spans

    per_op = [spans.op_totals(op.tracer.spans, op.wall) | op.outcome.counts for op in with_spans]
    metrics = dict.fromkeys(ABSENT_IS_ZERO, 0.0)
    metrics.update(spans.layer_metrics(per_op))
    metrics.update(kernel)
    for key in ERROR_METRICS:
        metrics[key] = max(op.outcome.errors.get(key, 0.0) for op in plain + with_spans)
    metrics["trace.ops"] = len(with_spans)
    metrics["trace.overhead_s"] = statistics.median(
        t.wall - u.wall for u, t in zip(plain, with_spans)
    )
    return metrics


def report(spec: dict, kind: str, metrics: dict, attempted: int, failed: int) -> str:
    names = [(m["name"], m["unit"]) for m in spec[kind]]
    missing = [n for n, _ in names if n not in metrics]
    if missing:
        raise BenchError(f"no value for {', '.join(missing)}")
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {n: {"value": metrics[n], "unit": u} for n, u in names},
        }
    )


def run_workload(spec: dict, args) -> str:
    work = OUT_DIR / f"work-{os.getpid()}"
    with contextlib.ExitStack() as stack:
        stack.callback(shutil.rmtree, work, ignore_errors=True)
        if not (args.trace or args.setup_only):
            import reference  # stdlib only here: numpy's import stays in the timed set-up

            sampler = stack.enter_context(reference.Sampler())
        window = [time.monotonic()]
        wl, setup_s = set_up(args.workload, args.seed, work)
        window.append(time.monotonic())
        if args.setup_only:
            return json.dumps({"setup_s": setup_s})
        machine = machine_block()
        print("machine " + json.dumps(machine, sort_keys=True))
        if args.trace:
            import probes

            kernel = probes.measure()
            plain, with_spans = closed_loop(wl, args.seconds, True)
        else:
            plain, with_spans = closed_loop(wl, args.seconds, False)
            setups = [(setup_s, window)] + [
                child_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
            ]

    ops = plain + with_spans
    failed = [op for op in ops if op.outcome.failure is not None]
    for op in failed:
        print(f"operation {op.index} failed: {op.outcome.failure}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(ops)} operations, {len(failed)} failed")

    if args.trace:
        metrics = trace_metrics(plain, with_spans, kernel)
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "machine": machine,
            "metrics": metrics,
            "operations": [
                {"index": op.index, "wall_s": op.wall, "spans": op.tracer.dump()} for op in with_spans
            ],
        }) + "\n", encoding="utf-8")
        print(f"  self times sum to {metrics['trace.self_sum_s']:.4f} s per traced operation "
              f"of {metrics['trace.wall_s']:.4f} s wall (uncovered "
              f"{metrics['trace.uncovered_s']:.4f} s, overhead {metrics['trace.overhead_s']:.4f} s)")
        print(f"  spans written to {path.relative_to(ROOT)}")
        return report(spec, "per_layer", metrics, len(ops), len(failed))

    walls = [op.wall for op in plain]
    around = [sampler.per_call(*op.window) for op in plain]
    samples = {
        "setup_s": ([s * REFERENCE_CALL_S / sampler.per_call(*w) for s, w in setups], "s"),
        "setup_raw_s": ([s for s, _ in setups], "s"),
        "wall_s": (walls, "s"),
        "ref_call_us": ([c * 1e6 for c in sampler.all_calls()], "us"),
        "wall_kcalls": ([w / c / 1e3 for w, c in zip(walls, around)], "kcall"),
        "peak_rss_mb": ([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0], "MB"),
    }
    for name, (values, unit) in samples.items():
        q1, med, q3 = quartiles(values)
        print(f"  {name:<12} median {med:.4f} {unit}  q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}")
    print(f"  {'fail_rate':<12} {len(failed) / len(plain):.4f}  ({len(failed)}/{len(plain)} operations)")
    metrics = {name: statistics.median(values) for name, (values, _) in samples.items()}
    return report(spec, "end_to_end", metrics, len(plain), len(failed))


def run_all(spec: dict, args) -> int:
    status = 0
    for w in spec["workloads"]:
        argv = [sys.executable, __file__, "--workload", w["name"], "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", "0"]
        status = max(status, subprocess.run(argv, cwd=ROOT).returncode)
    return status


def main(argv=None) -> int:
    # One BLAS thread: the sweep threads of cli_sweep already use every core
    # of a 2-core machine, and the machine block records what was in force.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    parser = argparse.ArgumentParser(description="anicurve benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = float(spec["run_seconds"])
        if args.workload == "all":
            return run_all(spec, args)
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        line = run_workload(spec, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
