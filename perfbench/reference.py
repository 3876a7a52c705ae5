"""Reference kernel: how fast the machine runs anicurve's kind of work right now.

On a shared host the speed of the same code drifts by tens of percent over
minutes and switches within one operation.  While an untraced run sets up
and measures, a separate process times a short burst of this kernel every
INTERVAL_S, and each operation's wall time and each set-up time is divided
by the kernel's call time around it, so that the drift cancels out.  The
kernel runs in its own process so that it never waits for the benchmarked
process's GIL.  Before each burst the sampler moves to the CPU that was
busiest since the last one, the CPU anicurve runs on: on a virtual machine
an idle CPU woken for a burst runs at another speed than a busy one, and
which CPU an unpinned sampler woke on changed that speed by 10-15%
from one run to the next.  Sharing a CPU with anicurve still couples the
kernel's time to how anicurve uses the machine by a few percent (see
README.md).

The kernel is a frozen copy of the arithmetic anicurve repeats in every
right-hand side and residual: even-parity ghost closure, 4th-order first and
second differences, the curvature entries, sigma_2 and the speed factor, on a
spheroid at grid size GRID_N.  It calls no anicurve code.  Changing it
changes every reported value, which makes it a change to the benchmark.

    python3 perfbench/reference.py

samples the kernel until standard input closes, then prints the samples as
a JSON list of [monotonic time, seconds per call].  Only that process
imports numpy: the benchmarked process starts the sampler before its timed
set-up, which must include numpy's import.
"""

import json
import os
import select
import statistics
import subprocess
import sys
import time

GRID_N = 200
INTERVAL_S = 0.1
BURST_CALLS = 20
PAD_S = 1.0  # samples up to this long before and after an operation count for it
STOP_TIMEOUT_S = 10.0


def _cpu_busy() -> dict[int, int]:
    """Non-idle clock ticks of each CPU since boot; empty where unknown."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            rows = [ln.split() for ln in fh if ln.startswith("cpu") and ln[3].isdigit()]
        # user nice system idle iowait irq softirq steal: all but idle and iowait
        return {int(r[0][3:]): sum(map(int, r[1:4])) + sum(map(int, r[6:9])) for r in rows}
    except (OSError, ValueError, IndexError):
        return {}


def _move_to_busiest(last: dict[int, int]) -> dict[int, int]:
    """Pin this process to the CPU busiest since `last`; return the new counts."""
    now = _cpu_busy()
    if now and now.keys() == last.keys():
        try:
            os.sched_setaffinity(0, {max(now, key=lambda c: now[c] - last[c])})
        except OSError:  # that CPU is not ours to use: stay where we are
            pass
    return now


def _sample() -> list[tuple[float, float]]:
    """Bursts every INTERVAL_S until standard input reaches end of file."""
    import numpy as np

    n = GRID_N
    pole = np.array([1.5, -0.6, 0.1])  # even-parity ghost value from the three nearest nodes
    h = np.pi / (n + 1)
    theta = h * np.arange(1, n + 1)
    cot = np.cos(theta) / np.sin(theta)
    vals = np.sqrt(np.sin(theta) ** 2 + 2.25 * np.cos(theta) ** 2)

    def kernel() -> float:
        v = np.empty(n + 4)
        v[2:-2] = vals
        v[1] = pole @ vals[:3]
        v[0] = vals[0]
        v[-2] = pole @ vals[-1:-4:-1]
        v[-1] = vals[-1]
        d1 = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * h)
        d2 = (-v[:-4] + 16.0 * v[1:-3] - 30.0 * v[2:-2] + 16.0 * v[3:-1] - v[4:]) / (12.0 * h * h)
        sig = (d2 + vals) * (d1 * cot + vals)
        return float((vals**-3.0 * sig).max())

    samples = []
    busy = _cpu_busy()
    while True:
        busy = _move_to_busiest(busy)
        start = time.perf_counter()
        for _ in range(BURST_CALLS):
            kernel()
        samples.append((time.monotonic(), (time.perf_counter() - start) / BURST_CALLS))
        if len(samples) == 1:
            print("ready", flush=True)
        if select.select([sys.stdin], [], [], INTERVAL_S)[0]:
            return samples


class Sampler:
    """Kernel timing in a child process while the block runs."""

    def __init__(self):
        self._samples: list[tuple[float, float]] = []

    def __enter__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        if self._proc.stdout.readline().strip() != "ready":
            self._stop()
            raise RuntimeError("reference-kernel sampler did not start")
        return self

    def _stop(self) -> str:
        try:
            out, _ = self._proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
            raise RuntimeError("reference-kernel sampler did not stop") from None
        return out

    def __exit__(self, *exc) -> None:
        out = self._stop()
        if self._proc.returncode != 0:
            raise RuntimeError(f"reference-kernel sampler exited with status {self._proc.returncode}")
        self._samples = [tuple(s) for s in json.loads(out)]

    def per_call(self, start: float, end: float) -> float:
        """Median seconds per call of the bursts timed around monotonic [start, end].

        Samples are read when the block ends.
        """
        near = [s for t, s in self._samples if start - PAD_S <= t <= end + PAD_S]
        return statistics.median(near or [s for _, s in self._samples])

    def all_calls(self) -> list[float]:
        return [s for _, s in self._samples]


if __name__ == "__main__":
    print(json.dumps(_sample()))
