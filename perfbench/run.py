#!/usr/bin/env python3
"""The repository benchmark: one workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-hyper --seed 0 --seconds 25 --trace 0

Workloads (see ``NOTES.md`` for why each was chosen):

- ``paper-hyper``: the paper's Sect. 2 security triples through
  ``Session.verify``, closed loop, every verdict in a fresh Session;
- ``gen-oracle``: a fixed ``repro.gen`` task pool, the same way;
- ``serve-mixed``: an open loop into a ``repro serve`` daemon process,
  with closed-loop bursts for its capacity.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run
(spans recorded around each layer's public entry points, see
``tracer.py``).  Times and rates are scaled to a fixed reference speed
of the machine by speed samples taken with them (``speed.py``), except
the open-loop request latencies.  Every verdict is checked against an
independent reference; ``failed`` counts wrong verdicts, undecided results and
errors.  The exit code is 0 whenever a result line is printed.
"""

import argparse
import asyncio
import gc
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

clock = time.perf_counter

WORKLOADS = ("paper-hyper", "gen-oracle", "serve-mixed")

#: The tail percentile per workload.  On the Session workloads it is
#: taken over the tasks' times (7 tasks in paper-hyper, 100 in
#: gen-oracle); on serve-mixed over the 2,976 closed-loop burst requests
#: (149 beyond p95).  The open loop's own tail, printed but not a metric,
#: is p95 of its 744 requests.
TAIL_QUANTILE = {"paper-hyper": 0.9, "gen-oracle": 0.9, "serve-mixed": 0.95}
OPEN_TAIL_QUANTILE = 0.95
#: A Session workload's time for a task is the median of its cold
#: verdicts in a run, each scaled to the reference speed by the speed
#: samples a timer takes during it (``speed.SpeedTrace``).  A Session run
#: goes on past its time until every task has been timed in MIN_ROUNDS
#: rounds, and within a round a task is timed again, cold each time,
#: until MAX_REPEATS timings or REPEAT_BUDGET_S seconds: a 5 ms task gets
#: many samples, a 1 s task one per round.  A traced run times each task
#: once per round and needs TRACED_ROUNDS rounds with and without the
#: wrappers.
MIN_ROUNDS = 3
MAX_REPEATS = 8
REPEAT_BUDGET_S = 0.1
TRACED_ROUNDS = 2

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 5

#: serve-mixed: the open loop's fixed rate (well below the knee, which
#: sat at 200-250/s on 2 CPUs) and the share of the run it takes; the
#: rest goes to closed-loop bursts, one after each of SERVE_SEGMENTS
#: open-loop stretches.  A burst goes out in SERVE_BURST_PARTS parts, and
#: each part's rate and request latencies are scaled to the reference
#: speed by speed samples taken on every CPU at once on both sides of it.
#: Capacity is the median part's scaled rate; the latency metrics are
#: percentiles of the scaled burst latencies.  The open loop's latencies
#: are printed, not scaled and not metrics: at 50/s they are mostly
#: wake-ups and socket hops, which no speed sample follows (NOTES.md).  A
#: burst sends a fixed number of requests (as many as SERVE_BURST_RATE
#: replies per second would fill its share of the run), so that every
#: run does the same work and the workers' peak memory does not follow
#: the machine's speed.
SERVE_RATE = 50.0
SERVE_OPEN_SHARE = 0.6
SERVE_SEGMENTS = 8
SERVE_BURST_PARTS = 4
SERVE_BURST_RATE = 300.0
#: Closed-loop clients per CPU: enough to keep every worker and the
#: daemon's own loop busy, so the completed rate is the daemon's capacity.
CLOSED_CLIENTS = 4


def nproc():
    return len(os.sched_getaffinity(0))


def median(values):
    return statistics.median(values) if values else 0.0


# -- Session workloads ----------------------------------------------------


def session_setup(name):
    from repro.api import Session

    pvars, lo, hi, tasks = workloads.session_workload(name)
    Session(pvars, lo, hi)
    return pvars, lo, hi, tasks


def run_session(name, seed, seconds, trace):
    from repro.api import Session
    from repro.deps.fingerprint import clear_memo

    pvars, lo, hi, tasks = session_setup(name)
    orders = workloads.round_orders(seed, len(tasks))
    # each timing: (traced, label, start, end, seconds without the
    # speed samples taken inside it)
    timings = []
    rounds = {False: 0, True: 0}
    # a traced run times each task once per round, so that its counts
    # repeat exactly from run to run
    repeats = 1 if trace else MAX_REPEATS
    attempted = failed = 0
    problems = []
    deadline = clock() + seconds
    traced = False
    peak_rss_mb = 0.0
    with speed.SpeedTrace() as speeds:
        while True:
            # a traced run alternates rounds with and without the
            # wrappers, so the untraced rounds run the program exactly
            # as --trace 0 does
            if trace:
                if traced:
                    tracer.install_session_layers()
                else:
                    tracer.uninstall_session_layers()
            gc.collect()
            for index in next(orders):
                label, task, expected = tasks[index]
                spent = 0.0
                for _ in range(repeats):
                    # every verdict starts cold: a fresh Session and no
                    # process-wide fingerprint memo
                    clear_memo()
                    session = Session(pvars, lo, hi)
                    tracer.TRACER.enabled = traced
                    tracer.TRACER.task_id = label
                    paused = speeds.paused
                    began = clock()
                    try:
                        verdict = session.verify(task).verdict
                    except Exception as err:  # counted as a failed task
                        verdict = "%s: %s" % (type(err).__name__, err)
                    ended = clock()
                    took = ended - began - (speeds.paused - paused)
                    tracer.TRACER.enabled = False
                    session.close()
                    timings.append((traced, label, began, ended, took))
                    attempted += 1
                    if verdict is not expected:
                        failed += 1
                        problems.append("%s: expected %s, got %s" % (label, expected, verdict))
                    spent += took
                    if spent >= REPEAT_BUDGET_S:
                        break
            rounds[traced] += 1
            if not traced:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            needed = TRACED_ROUNDS if trace else MIN_ROUNDS
            if clock() >= deadline and rounds[False] >= needed and rounds[True] >= needed * trace:
                break
            if trace:
                traced = not traced
    # label -> the task's scaled times, without and with the wrappers
    scaled = {False: {}, True: {}}
    factors = []
    for traced_, label, began, ended, took in timings:
        factor = speeds.factor(began, ended)
        scaled[traced_].setdefault(label, []).append(took * factor)
        factors.append(factor)
    task_times = {
        traced_: {label: median(times) for label, times in by_label.items()}
        for traced_, by_label in scaled.items()
    }
    times = sorted(task_times[False].values())
    tail_q = TAIL_QUANTILE[name]
    print(
        "%s seed %d: %d tasks, each timed cold in %d untraced rounds (%d verdicts); "
        "scale factor median %.3f, range %.3f-%.3f; %d speed samples"
        % (name, seed, len(times), rounds[False], attempted,
           median(factors), min(factors), max(factors), len(speeds.speeds))
    )
    for problem in problems[:20]:
        print("WRONG " + problem)
    end_to_end = {
        "throughput_per_s": len(times) / sum(times),
        "latency_p50_ms": median(times) * 1e3,
        "latency_tail_ms": tracer.percentile(times, tail_q) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    per_layer = None
    if trace:
        directory = trace_dir(name, seed)
        tracer.dump_to_dir(directory)
        per_layer = tracer.layer_metrics(
            [tracer.load_spans(os.path.join(directory, f)) for f in os.listdir(directory)]
        )
        # counts and times per traced round: every round does the same
        # work, however many rounds the run's time allowed
        for metric in per_layer:
            if PER_LAYER_UNITS[metric] in ("count", "s"):
                per_layer[metric] /= rounds[True]
        per_layer["trace.overhead_share"] = (
            sum(task_times[True].values()) / sum(times) - 1.0
        )
    return attempted, failed, end_to_end, per_layer


def trace_dir(name, seed):
    path = os.path.join(WORK, "trace-%s-seed%d-%d" % (name, seed, os.getpid()))
    os.makedirs(path, exist_ok=True)
    return path


# -- serve-mixed ------------------------------------------------------------


def serve_request_count(seconds, trace):
    """Requests the open loop sends, and those each closed-loop burst
    sends (none in a traced run)."""
    fixed = int(SERVE_RATE * seconds * SERVE_OPEN_SHARE)
    burst = int(SERVE_BURST_RATE * seconds * (1 - SERVE_OPEN_SHARE) / SERVE_SEGMENTS)
    return fixed, 0 if trace else burst


def serve_inputs(seed, seconds, trace):
    """The encoded request lines, the distinct tasks, the task index of
    each request, and the warm-up lines."""
    from repro.codec import to_wire

    open_count, burst = serve_request_count(seconds, trace)
    tasks, requests = workloads.serve_stream(seed, open_count + SERVE_SEGMENTS * burst)
    documents = [json.dumps(to_wire(task)) for task in tasks]
    lines = [
        ('{"id": %d, "op": "verify", "task": %s}\n' % (i, documents[t])).encode()
        for i, t in enumerate(requests)
    ]
    warmup = [
        ('{"id": -1, "op": "verify", "task": %s}\n' % json.dumps(to_wire(task))).encode()
        for task in workloads.serve_warmup_tasks(4 * CLOSED_CLIENTS * nproc())
    ]
    return lines, tasks, requests, warmup


class Daemon:
    """A ``repro serve`` process on an ephemeral port with its own store."""

    def __init__(self, traced_into=None):
        self.store = os.path.join(WORK, "store-%d-%d" % (os.getpid(), id(self)))
        args = ["--port", "0", "--store", self.store, "--workers", str(nproc())]
        if traced_into:
            command = [sys.executable, os.path.join(HERE, "serve_daemon.py"), traced_into]
        else:
            command = [sys.executable, "-m", "repro", "serve"]
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        self.host = self.port = None
        self.proc = subprocess.Popen(
            command + args, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env
        )
        banner = self.proc.stdout.readline()
        match = re.search(r"listening on ([\d.]+):(\d+) ", banner)
        if match is None:
            self.stop()
            raise RuntimeError("daemon did not start: %r" % banner)
        self.host, self.port = match.group(1), int(match.group(2))

    def rss_mb(self):
        """Peak resident memory of the daemon and of each process under
        it (its workers, where the verifying happens), daemon first."""
        peaks = []
        pending = [self.proc.pid]
        while pending:
            pid = pending.pop(0)
            with open("/proc/%d/status" % pid) as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        peaks.append(int(line.split()[1]) / 1024.0)
            for task in os.listdir("/proc/%d/task" % pid):
                with open("/proc/%d/task/%s/children" % (pid, task)) as children:
                    pending.extend(int(child) for child in children.read().split())
        return peaks

    def request(self, envelope):
        from repro.serve import ServeClient

        with ServeClient(self.host, self.port, timeout=60) as client:
            return client.request(envelope)

    def stop(self):
        """Ask the daemon to drain and exit (or terminate it when it never
        came up or does not answer), wait for it and drop its store."""
        from repro.errors import ReproError

        try:
            if self.proc.poll() is None:
                try:
                    if self.port is None:
                        raise OSError("daemon has no address")
                    self.request({"op": "shutdown"})
                except (OSError, ReproError):
                    self.proc.terminate()
                self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()
            shutil.rmtree(self.store, ignore_errors=True)


async def _connections(daemon, count):
    return [await asyncio.open_connection(daemon.host, daemon.port) for _ in range(count)]


async def _close(connections):
    for _, writer in connections:
        writer.close()
        await writer.wait_closed()


async def open_loop(daemon, lines, rate, seconds):
    """Send ``lines`` on a fixed schedule (``rate`` per second) whatever
    the replies: each request goes out when due on an idle connection,
    and a new connection opens when none is idle.  Each record is
    (due, sent, done, reply)."""
    count = min(len(lines), int(rate * seconds))
    idle = await _connections(daemon, nproc())
    opened = list(idle)
    records = [None] * count

    async def send(index, due):
        if idle:
            reader, writer = idle.pop()
        else:
            reader, writer = await asyncio.open_connection(daemon.host, daemon.port)
            opened.append((reader, writer))
        sent = clock()
        writer.write(lines[index])
        await writer.drain()
        reply = await reader.readline()
        records[index] = (due, sent, clock(), reply)
        idle.append((reader, writer))

    start = clock() + 0.01
    sends = []
    try:
        for index in range(count):
            due = start + index / rate
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            sends.append(asyncio.ensure_future(send(index, due)))
        await asyncio.gather(*sends)
    finally:
        await _close(opened)
    return start, records


async def closed_loop(daemon, lines):
    """Send ``lines`` over CLOSED_CLIENTS connections per CPU, each
    sending its next request when the reply to its last one is in; each
    record is (sent, sent, done, reply)."""
    connections = await _connections(daemon, CLOSED_CLIENTS * nproc())
    records = []
    start = clock()

    async def consume(reader, writer):
        while len(records) < len(lines):
            line = lines[len(records)]
            records.append(None)
            index = len(records) - 1
            sent = clock()
            writer.write(line)
            await writer.drain()
            reply = await reader.readline()
            records[index] = (sent, sent, clock(), reply)

    try:
        await asyncio.gather(*(consume(r, w) for r, w in connections))
    finally:
        await _close(connections)
    return start, records


def latency_stats(records):
    """Latency percentiles (from when each request was due) and lateness
    of open-loop records.  An error reply counts as missing every
    latency limit."""
    latencies = []
    late = []
    for due, sent, done, reply in records:
        ok = reply.startswith(b"{") and b'"ok": true' in reply
        latencies.append((done - due) * 1e3 if ok else float("inf"))
        late.append((sent - due) * 1e3)
    return {
        "p50": tracer.percentile(latencies, 0.5),
        "tail": tracer.percentile(latencies, OPEN_TAIL_QUANTILE),
        "late_p99": tracer.percentile(late, 0.99),
    }


def drive(daemon, lines, open_count, burst):
    """Alternate SERVE_SEGMENTS open-loop stretches (``open_count``
    requests in all, at SERVE_RATE) with closed-loop bursts of ``burst``
    requests each (none when 0), down the stream of ``lines``.  Around
    each part of a burst the machine's speed is sampled on every CPU at
    once (a burst keeps them all busy).  Returns the open-loop records,
    the replies per second of each burst part and the latency of each
    burst request, both scaled to the reference speed, and every record
    in stream order."""
    per_segment = open_count // SERVE_SEGMENTS
    opened, rates, latencies, records = [], [], [], []
    with speed.LoadedSampler() as loaded:
        for _ in range(SERVE_SEGMENTS):
            first = len(records)
            _, segment = asyncio.run(
                open_loop(
                    daemon, lines[first:first + per_segment], SERVE_RATE,
                    per_segment / SERVE_RATE,
                )
            )
            opened += segment
            records += segment
            # a burst goes out in parts, each timed between its own
            # speed samples: the machine's speed changes within a second
            before = loaded.sample() if burst else None
            for _ in range(SERVE_BURST_PARTS if burst else 0):
                first = len(records)
                part = lines[first:first + burst // SERVE_BURST_PARTS]
                start, replies = asyncio.run(closed_loop(daemon, part))
                after = loaded.sample()
                factor = speed.factor(before, after)
                rate = len(replies) / (max(done for _, _, done, _ in replies) - start)
                rates.append(rate / factor)
                for _, sent, done, reply in replies:
                    ok = reply.startswith(b"{") and b'"ok": true' in reply
                    latencies.append((done - sent) * 1e3 * factor if ok else float("inf"))
                records += replies
                before = after
    return opened, rates, latencies, records


def start_daemon(warmup, traced_into=None):
    """Start a daemon and let its worker processes spawn before timing."""
    daemon = Daemon(traced_into)
    try:
        asyncio.run(closed_loop(daemon, warmup))
    except BaseException:
        daemon.stop()
        raise
    return daemon


def check_serve_replies(records, tasks, requests, inline):
    """The failed requests of one phase: wrong verdict, undecided or
    error replies, and repeats of an answered task that missed the store."""
    from repro.codec import from_wire

    failed = {}
    answered = {}
    for index, (due, sent, done, reply) in enumerate(records):
        task_index = requests[index]
        try:
            response = json.loads(reply)
        except ValueError:
            failed[index] = "unreadable reply %r" % reply[:80]
            continue
        if not response.get("ok"):
            failed[index] = "serve-error %s" % response.get("error")
            continue
        result = from_wire(response["result"])
        expected = inline(tasks[task_index])
        if (result.verdict, result.method, result.witness) != expected:
            failed[index] = "daemon says %s via %s, inline %s via %s" % (
                result.verdict, result.method, expected[0], expected[1]
            )
        elif result.verdict is None:
            failed[index] = "undecided"
        elif task_index in answered and answered[task_index] < sent and not response["cached"]:
            failed[index] = "repeat of a stored task was not cached"
        answered.setdefault(task_index, done)
    return failed


def inline_verifier():
    """Verify a task inline, under the Session the daemon would build."""
    from repro.serve.worker import spec_for_task

    sessions = {}
    results = {}

    def verify(task):
        if id(task) not in results:
            spec = spec_for_task(task, lo=workloads.SERVE_LO, hi=workloads.SERVE_HI)
            if spec not in sessions:
                sessions[spec] = spec.build()
            result = sessions[spec].verify(task)
            results[id(task)] = (result.verdict, result.method, result.witness)
        return results[id(task)]

    return verify


def run_serve(seed, seconds, trace):
    lines, tasks, requests, warmup = serve_inputs(seed, seconds, trace)
    open_count, burst = serve_request_count(seconds, trace)
    inline = inline_verifier()
    attempted = failed = 0
    peak_rss_mb = 0.0
    per_layer = None
    phases = []  # per daemon: (open-loop records, burst rates, burst latencies)
    for traced_into in [None, trace_dir("serve-mixed", seed)] if trace else [None]:
        daemon = start_daemon(warmup, traced_into)
        try:
            opened, rates, latencies, records = drive(daemon, lines, open_count, burst)
            server_stats = daemon.request({"op": "stats"})["stats"]
            peaks = daemon.rss_mb()
            peak_rss_mb = max(peak_rss_mb, sum(peaks))
            print("peak RSS of the daemon and its processes: %s MB"
                  % " ".join("%.1f" % peak for peak in peaks))
        finally:
            daemon.stop()
        phases.append((opened, rates, latencies))
        found = check_serve_replies(records, tasks, requests, inline)
        attempted += len(records)
        failed += len(found)
        for index, problem in sorted(found.items())[:20]:
            print("WRONG request %d: %s" % (index, problem))
        if traced_into:
            per_layer = serve_layer_metrics(traced_into, opened, server_stats)
    opened, rates, latencies = phases[0]
    fixed = latency_stats(opened)
    tail_q = TAIL_QUANTILE["serve-mixed"]
    print(
        "serve-mixed seed %d: open loop, %d requests at %g/s, %.3f of them store hits: "
        "p50 %.2f ms, p%g %.2f ms (measured); closed-loop bursts, %d requests, the tail has "
        "%.1f beyond it; replies/s per burst part, scaled: %s"
        % (seed, len(opened), SERVE_RATE, hit_share(opened), fixed["p50"],
           OPEN_TAIL_QUANTILE * 100, fixed["tail"], len(latencies),
           len(latencies) * (1 - tail_q), " ".join("%.0f" % rate for rate in rates) or "none")
    )
    end_to_end = {
        "throughput_per_s": median(rates),
        "latency_p50_ms": tracer.percentile(latencies, 0.5) if latencies else 0.0,
        "latency_tail_ms": tracer.percentile(latencies, tail_q) if latencies else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    if per_layer is not None:
        traced = latency_stats(phases[-1][0])
        per_layer["trace.overhead_share"] = traced["p50"] / fixed["p50"] - 1.0
        per_layer["loadgen.late_p99_ms"] = traced["late_p99"]
    return attempted, failed, end_to_end, per_layer


def hit_share(records):
    return sum(1 for *_, reply in records if b'"cached": true' in reply) / len(records)


def serve_layer_metrics(directory, records, server_stats):
    """Per-layer metrics of the traced daemon (its main process and its
    workers), plus what only the load generator sees."""
    span_lists = [
        tracer.load_spans(os.path.join(directory, name)) for name in os.listdir(directory)
    ]
    metrics = tracer.layer_metrics(span_lists)
    waits = []
    seconds_in = {"serve.store.get": 0.0, "serve.store.put": 0.0, "serve.protocol": 0.0}
    lookups = 0
    for spans in span_lists:
        for span in spans:
            name = span["name"]
            if name == "serve.queue_wait":
                waits.append((span["end"] - span["start"]) * 1e3)
            elif name in seconds_in:
                seconds_in[name] += span["end"] - span["start"]
                lookups += name == "serve.store.get"
    hits = [(done - sent) * 1e3 for _, sent, done, reply in records if b'"cached": true' in reply]
    # every verify request takes the same path up to its store lookup
    server_ms = 1e3 * (
        metrics["codec.from_wire.self_s"]
        + seconds_in["serve.protocol"]
        + seconds_in["serve.store.get"]
    ) / max(1, lookups)
    metrics.update(
        {
            "codec.bytes": sum(len(reply) for *_, reply in records),
            "serve.store.hit_ratio": hit_share(records),
            "serve.store.get_s": seconds_in["serve.store.get"],
            "serve.store.put_s": seconds_in["serve.store.put"],
            "serve.protocol.self_s": seconds_in["serve.protocol"],
            "serve.queue_wait_p99_ms": tracer.percentile(waits, 0.99),
            "serve.coalesced": server_stats["coalesced"],
            "serve.hit_latency_ms": statistics.mean(hits) if hits else 0.0,
            "serve.hit_server_share": server_ms / statistics.mean(hits) if hits else 0.0,
        }
    )
    return metrics


# -- set-up time --------------------------------------------------------------


def setup_once(workload, seed, seconds, trace):
    """One fresh-process set-up: import, Session or daemon start-up and
    workload generation.  Returns what the run needs (or stops the daemon
    when only timing)."""
    if workload == "serve-mixed":
        lines, tasks, requests, warmup = serve_inputs(seed, seconds, trace)
        return start_daemon(warmup)
    return session_setup(workload)


def setup_seconds(argv):
    """Median wall time from starting a fresh process to its finished
    set-up, over SETUP_PROBES processes (``perf_counter`` reads the
    machine's monotonic clock, which all processes share), each scaled
    to the reference speed by the machine's speed around it."""
    times = []
    before = speed.machine_sample()
    for _ in range(SETUP_PROBES):
        started = clock()
        output = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe"] + argv,
            stdout=subprocess.PIPE,
            text=True,
            check=True,
            cwd=ROOT,
            timeout=120,
        ).stdout
        took = float(output.split()[-1]) - started
        after = speed.machine_sample()
        times.append(took * speed.factor(before, after))
        before = after
    return median(times)


# -- entry point -------------------------------------------------------------

#: The metrics a run prints, by name, with their units; BENCHMARK.json
#: lists the same ones (checked by selftest.py).  A metric a workload
#: does not exercise (serve.* on the Session workloads) reads 0.
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "solver.ground.calls": "count",
    "solver.ground.self_s": "s",
    "solver.sat.calls": "count",
    "solver.sat.self_s": "s",
    "solver.sat.conflicts": "count",
    "solver.sat.decisions": "count",
    "solver.sat.propagations": "count",
    "checker.scan.candidates": "count",
    "checker.scan.self_s": "s",
    "checker.scan.early_exit_share": "ratio",
    "checker.images.executions": "count",
    "checker.images.hit_ratio": "ratio",
    "checker.images.self_s": "s",
    "assertions.entail.calls": "count",
    "assertions.entail.self_s": "s",
    "assertions.entail.cache_hit_ratio": "ratio",
    "assertions.parse.self_s": "s",
    **{
        "api.backends.%s.%s" % (backend, stat): unit
        for backend in tracer.BACKENDS
        for stat, unit in (
            ("attempts", "count"),
            ("decisive_share", "ratio"),
            ("self_s", "s"),
            ("undecided_s", "s"),
        )
    },
    "compile.build.hit_ratio": "ratio",
    "compile.build.self_s": "s",
    "deps.fingerprint.self_s": "s",
    "lang.parse.self_s": "s",
    "codec.to_wire.self_s": "s",
    "codec.from_wire.self_s": "s",
    "codec.bytes": "bytes",
    "serve.store.hit_ratio": "ratio",
    "serve.store.get_s": "s",
    "serve.store.put_s": "s",
    "serve.queue_wait_p99_ms": "ms",
    "serve.coalesced": "count",
    "serve.protocol.self_s": "s",
    "serve.hit_latency_ms": "ms",
    "serve.hit_server_share": "ratio",
    "loadgen.late_p99_ms": "ms",
    "trace.overhead_share": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("error: no repro package under %s; run from a checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        prepared = setup_once(args.workload, args.seed, args.seconds, args.trace)
        ready = clock()
        if isinstance(prepared, Daemon):
            prepared.stop()
        print(repr(ready))
        return 0
    os.makedirs(WORK, exist_ok=True)
    # a traced run prints only per-layer metrics, so it skips the probes
    setup_s = 0.0 if args.trace else setup_seconds(argv)
    if args.workload == "serve-mixed":
        attempted, failed, end_to_end, per_layer = run_serve(
            args.seed, args.seconds, args.trace
        )
    else:
        attempted, failed, end_to_end, per_layer = run_session(
            args.workload, args.seed, args.seconds, args.trace
        )
    end_to_end["setup_s"] = setup_s
    if args.trace:
        values, units = per_layer, PER_LAYER_UNITS
    else:
        values, units = end_to_end, END_TO_END_UNITS
    metrics = {
        name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()
    }
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
