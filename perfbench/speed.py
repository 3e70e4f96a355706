"""The machine's speed, measured next to every timing, and the scaling of
timings to a fixed reference speed.

The benchmark runs on shared machines whose CPUs run the same Python
code up to 1.7x slower, in stretches from under a second to minutes
(see ``NOTES.md``, "Noise on the machine").  A slow stretch can cover a
whole run, so no statistic inside the run can see past it.  Instead, a
fixed pure-Python kernel is timed while the program runs, and each
timing is scaled by how much slower than the reference the kernel ran
over it::

    scaled = measured * REFERENCE_S / kernel_time

A scaled time is the time the program would have taken on a machine on
which the kernel takes REFERENCE_S: on the machine the benchmark was
built on, in its fast state, scaled and measured times agree.  The
kernel does not touch the program under test, so a change to the program
moves scaled times as much as measured ones.

The kernel mixes the operations the verifier spends its time on: dict
stores, small frozensets and tuples, set comprehensions and recursive
calls over a tree of small objects.  Of the kernels tried, this mix
followed the verifier's slowdowns most closely (``NOTES.md``).

Two ways to sample:

- ``SpeedTrace`` runs the kernel from a timer signal every
  TRACE_INTERVAL_S, inside whatever the process is doing, and takes the
  handler's time out of the timings.  For work in this process: a 1 s
  verdict gets 40 samples during it rather than one on either side.
- ``sample`` / ``machine_sample`` / ``LoadedSampler`` time the kernel
  between timings.  For work in other processes (a daemon, a fresh
  interpreter), which a timer in this process cannot reach.
"""

import bisect
import os
import signal
import statistics
import subprocess
import sys
import time

clock = time.perf_counter

#: One kernel unit's time, in seconds, on the machine the benchmark was
#: built on (2 vCPUs, in its fast state).  Only the unit of scaled times
#: depends on it; it is a constant so that runs on different days compare.
REFERENCE_S = 0.0005
#: Kernel units per sample taken between timings, and such samples per
#: reading; a reading is the fastest, so that an interrupt inside one
#: sample does not count.
SAMPLE_UNITS = 5
REPEATS = 2
#: The timer interval of a SpeedTrace: about 4% of the time goes to the
#: kernel.
TRACE_INTERVAL_S = 0.025


class _Node:
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        self.op = op
        self.left = left
        self.right = right


def _evaluate(node, env):
    if node.op == 0:
        return env[node.left]
    if node.op == 1:
        return _evaluate(node.left, env) & _evaluate(node.right, env)
    return _evaluate(node.left, env) | _evaluate(node.right, env)


def kernel(units=1):
    """A fixed amount of interpreter work, about 0.5 ms per unit at the
    reference speed; its result is returned so that nothing is skipped."""
    table = {}
    x = 0
    for i in range(1000 * units):
        table[i & 255] = x
        x += (i * 7) & 15
        frozenset((i, x & 3))
    leaves = [_Node(0, i, None) for i in range(8)]
    tree = leaves[0]
    for i in range(1, 8):
        tree = _Node(1 + (i & 1), tree, leaves[i])
    seen = set()
    for m in range(30 * units):
        env = [(m >> j) & 1 for j in range(8)]
        seen.add((m & 31, _evaluate(tree, env)))
        seen = set(item for item in seen if item[0] != m % 7) | {tuple(env[:2])}
    return x + len(seen) + len(table)


def sample():
    """Seconds per kernel unit on the CPU this thread runs on."""
    best = None
    for _ in range(REPEATS):
        began = clock()
        kernel(SAMPLE_UNITS)
        took = clock() - began
        best = took if best is None else min(best, took)
    return best / SAMPLE_UNITS


def machine_sample():
    """Seconds per kernel unit, the mean over every CPU this process may
    use, each timed with the thread pinned to it.  For work that runs in
    other processes, which may run on any CPU."""
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            times.append(sample())
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(times) / len(times)


class LoadedSampler:
    """Samples the kernel on every CPU this process may use at once: the
    speed of a machine whose CPUs are all busy, as they are while a
    daemon's processes serve a closed loop.  One helper process per CPU
    but the first runs the kernel there when asked; ``close`` stops
    them.  A context manager."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.helpers = []
        try:
            for cpu in self.cpus[1:]:
                self.helpers.append(
                    subprocess.Popen(
                        [sys.executable, os.path.abspath(__file__), "--helper", str(cpu)],
                        stdin=subprocess.PIPE,
                        stdout=subprocess.PIPE,
                        text=True,
                    )
                )
        except BaseException:
            self.close()
            raise

    def sample(self):
        for helper in self.helpers:
            helper.stdin.write("go\n")
            helper.stdin.flush()
        allowed = os.sched_getaffinity(0)
        try:
            os.sched_setaffinity(0, {self.cpus[0]})
            times = [sample()]
        finally:
            os.sched_setaffinity(0, allowed)
        for helper in self.helpers:
            times.append(float(helper.stdout.readline()))
        return sum(times) / len(times)

    def close(self):
        for helper in self.helpers:
            helper.stdin.close()
        for helper in self.helpers:
            try:
                helper.wait(timeout=30)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait()
            helper.stdout.close()
        self.helpers = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _helper(cpu):
    os.sched_setaffinity(0, {cpu})
    for _ in sys.stdin:
        print(repr(sample()), flush=True)


def factor(before, after):
    """Scale factor for a timing between two readings."""
    return REFERENCE_S / ((before + after) / 2.0)


class SpeedTrace:
    """Kernel units timed from a SIGALRM handler every TRACE_INTERVAL_S,
    while the main thread runs the program.  ``paused`` is the time spent
    in the handler so far; a timing takes its growth out.  A context
    manager (main thread only)."""

    def __init__(self):
        self.times = []
        self.speeds = []
        self.paused = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        # the faster of two units: the first runs with whatever the
        # interrupted program left in the caches
        began = clock()
        kernel()
        middle = clock()
        kernel()
        ended = clock()
        self.times.append(middle)
        self.speeds.append(min(middle - began, ended - middle))
        self.paused += ended - began

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, TRACE_INTERVAL_S, TRACE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start, end):
        """Scale factor for a timing from ``start`` to ``end``: the mean
        speed of the samples during it and of the one on either side."""
        first = max(bisect.bisect_left(self.times, start) - 1, 0)
        last = bisect.bisect_right(self.times, end) + 1
        return REFERENCE_S / statistics.fmean(self.speeds[first:last])


if __name__ == "__main__":
    if sys.argv[1:2] == ["--helper"]:
        _helper(int(sys.argv[2]))
