"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host the speed of one core drifts by up to ~1.8x over
seconds to minutes, with CPU time equal to wall time, so the drift
cannot be told apart from a slower program by timing the program alone.
The harness therefore runs this kernel in short bursts while a workload
runs, takes the bursts' time out of the request times, and scales each
second of a workload's throughput by how slow the kernel ran meanwhile
(run.Measurement.segment_rates, reported as ref_items_per_s).

The kernel does not call ncho, so a change to ncho cannot move it.  It
mixes what ncho's requests spend their time on: small numpy linear
algebra on 4x4 matrices, scalar Python arithmetic, dict building, JSON
and float text formatting.
"""

from __future__ import annotations

import json
import math
import signal
import time

import numpy as np

# Timed kernel calls per burst, and the time between two bursts: about
# 3% of the machine's time goes to the kernel.  Each burst starts with
# one more, untimed call, which brings the kernel's code and data back
# into the caches the workload evicted, so that how much memory a
# workload touches does not change the kernel's time.
BURST_CALLS = 8
BURST_EVERY_S = 0.05
# Median time of one kernel call on a quiet 2-core Intel Xeon VM at
# 2.0 GHz.  It only sets the scale of ref_items_per_s, so that on that
# machine the scaled figure reads close to the raw items per second.
NOMINAL_CALL_NS = 150_000

_A = np.random.default_rng(12345).standard_normal((4, 4))
_OMEGA = _A - _A.T + np.diag([1.0, 2.0, 3.0, 4.0])
_VALUES = np.linspace(-4.0, 4.0, 48) * math.pi


def kernel() -> int:
    """One call of the reference kernel; returns a checksum of its text."""
    h = _A @ _A.T + np.eye(4)
    ev = np.linalg.eigvals(_OMEGA @ h)
    det = float(np.linalg.det(h))
    x = np.linalg.solve(h, _A[:, 0])
    acc = 0.0
    for v in ev.real.tolist() + x.tolist():
        acc += math.sqrt(abs(v)) * 0.5 - v * v / 16.0
    doc = {
        "eigen": {"re": ev.real.tolist(), "im": ev.imag.tolist()},
        "det": det,
        "acc": acc,
        "ok": det > 0.0,
    }
    text = json.dumps(doc, sort_keys=True, indent=2)
    row = ",".join(repr(float(v)) for v in _VALUES)
    return len(text) + len(row)


def slowdown(spans) -> float:
    """Mean time of the kernel calls in `spans` over the nominal call time."""
    return sum(end - start for start, end, _ in spans) / sum(n for *_, n in spans) / NOMINAL_CALL_NS


class Sampler:
    """Runs kernel bursts while a workload runs; counts their calls and time.

    In-process workloads are sampled by a SIGALRM timer every
    BURST_EVERY_S of wall time, so bursts also land inside long requests
    (a whole scan takes seconds); the caller subtracts the time of the
    bursts that ran inside a request (`within`) from its time.  Requests
    that wait on a child process are not interrupted, since the child
    runs on while a burst runs: `after_request` runs the bursts due for
    the request time since the last burst, and at least one, between
    requests.
    """

    def __init__(self, in_process: bool):
        self.in_process = in_process
        self.spans = []  # (start, end, calls) of every burst; times from perf_counter_ns
        self._unsampled_s = 0.0
        self._previous = None

    def __enter__(self):
        if self.in_process:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, BURST_EVERY_S, BURST_EVERY_S)
        return self

    def __exit__(self, *exc):
        if self.in_process:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, *_):
        self._burst(BURST_CALLS)

    def _burst(self, calls: int):
        kernel()
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            kernel()
        t1 = time.perf_counter_ns()
        self.spans.append((t0, t1, calls))

    def within(self, t0: int, t1: int) -> int:
        """Time of the bursts that ran between t0 and t1 (ns).

        A burst is either wholly inside a request or wholly outside it,
        since a signal handler runs to its end before the interrupted code
        goes on.  Bursts that ran after t1 are appended behind the ones
        this loop looks at.
        """
        total = 0
        for start, end, _ in reversed(self.spans):
            if start < t0:
                break
            if end <= t1:
                total += end - start
        return total

    def after_request(self, seconds: float):
        if self.in_process:
            return
        self._unsampled_s += seconds
        due = max(1, int(self._unsampled_s / BURST_EVERY_S))
        self._burst(due * BURST_CALLS)
        self._unsampled_s -= due * BURST_EVERY_S
