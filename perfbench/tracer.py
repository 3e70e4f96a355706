"""Spans around the calls into each layer's public entry points.

The benchmark installs these wrappers from its own files; nothing in
``src/repro`` changes.  A span records its name, start, end, parent span
and the task id current when it opened.  Spans stay in memory and are
written out once, when the process ends its run (``Tracer.dump``).

A layer's self time is a span's duration minus the time its child spans
cover; :func:`layer_metrics` turns a span list into the per-layer
metrics named in ``BENCHMARK.json``.
"""

import functools
import importlib
import json
import os
import statistics
import sys
import time

clock = time.perf_counter


class Tracer:
    """Span recorder for one process (the benchmark runs one thread per
    process wherever spans are recorded)."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.task_id = None
        self.enabled = True

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        self.spans.append([name, clock(), None, parent, self.task_id, None, {}])
        self.stack.append(index)
        return index

    def close(self, index):
        self.stack.pop()
        self.spans[index][2] = clock()

    def parent_name(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent, task,
        busy (generator spans only) and attributes."""
        with open(path, "w") as handle:
            for name, start, end, parent, task, busy, attrs in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": start if end is None else end,
                            "parent": parent,
                            "task": task,
                            "busy": busy,
                            "attrs": attrs,
                        }
                    )
                    + "\n"
                )


TRACER = Tracer()


def _span_call(name, fn, before=None, after=None):
    """Wrap ``fn`` in a span; ``before(args, kwargs)`` returns state that
    ``after(state, result, attrs)`` turns into span attributes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not TRACER.enabled:
            return fn(*args, **kwargs)
        state = before(args, kwargs) if before is not None else None
        index = TRACER.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            TRACER.close(index)
        if after is not None:
            after(state, result, TRACER.spans[index][6])
        return result

    return wrapper


def _span_generator(name, fn):
    """Wrap a generator function: the span covers only the time spent
    inside the generator's ``next`` calls (``busy``), counts the items
    it yielded and records whether the consumer stopped it early."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not TRACER.enabled:
            yield from fn(*args, **kwargs)
            return
        gen = fn(*args, **kwargs)
        index = TRACER.open(name)
        TRACER.stack.pop()
        span = TRACER.spans[index]
        span[5] = 0.0
        items = 0
        finished = False
        try:
            while True:
                TRACER.stack.append(index)
                started = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    finished = True
                    return
                finally:
                    span[5] += clock() - started
                    TRACER.stack.pop()
                items += 1
                yield item
        finally:
            span[2] = clock()
            span[6]["items"] = items
            span[6]["early_exit"] = not finished
            gen.close()

    return wrapper


#: (owner, attribute, original) of every rebinding made, so that
#: :func:`uninstall_session_layers` can undo them.
_PATCHES = []


def patch_everywhere(original, replacement):
    """Rebind every ``repro.*`` module attribute that is ``original`` —
    the modules that imported the function by name included."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                _PATCHES.append((module, attr, original))
                setattr(module, attr, replacement)


def _patch_method(cls, attr, wrapper_factory):
    original = cls.__dict__[attr]
    _PATCHES.append((cls, attr, original))
    setattr(cls, attr, wrapper_factory(original))


def _sat_before(args, kwargs):
    solver = args[0]
    nested = TRACER.parent_name() == "solver.sat"
    return solver, None if nested else dict(solver.stats)


def _sat_after(state, result, attrs):
    solver, before = state
    if before is None:
        attrs["nested"] = True
        return
    for key in ("conflicts", "decisions", "propagations"):
        attrs[key] = solver.stats.get(key, 0) - before.get(key, 0)


def _image_before(args, kwargs):
    cache = args[0]
    return cache, cache.stats()


def _image_after(state, result, attrs):
    cache, before = state
    after = cache.stats()
    for key in ("misses", "mask_misses", "hits", "mask_hits"):
        attrs[key] = after[key] - before[key]


def _attempt_after(state, result, attrs):
    attrs["decided"] = bool(getattr(result, "decided", False))


def _entail_before(args, kwargs):
    oracle = args[0]
    return oracle, oracle.hits


def _entail_after(state, result, attrs):
    oracle, hits = state
    attrs["hit"] = oracle.hits > hits


def _compile_wrapper(original):
    @functools.wraps(original)
    def get_or_build(self, key, build):
        if not TRACER.enabled:
            return original(self, key, build)
        built = []

        def counted_build():
            built.append(True)
            return build()

        index = TRACER.open("compile.build")
        try:
            return original(self, key, counted_build)
        finally:
            TRACER.close(index)
            TRACER.spans[index][6]["hit"] = not built

    return get_or_build


def install_session_layers():
    """Wrap the entry points every verifying process goes through (once,
    until :func:`uninstall_session_layers`)."""
    if _PATCHES:
        return
    from repro.api import backends as api_backends
    from repro.api.session import CachingOracle
    from repro.assertions.entail import EntailmentOracle
    from repro.checker.engine import CheckerEngine, ImageCache
    from repro.compile.cache import CompileCache
    from repro.solver.sat import IncrementalSolver, SATSolver
    from repro.symbolic.backend import SymbolicBackend

    # packages re-export functions under their submodules' names, so the
    # submodules are looked up by their full names
    assertion_parser = importlib.import_module("repro.assertions.parser")
    deps_fingerprint = importlib.import_module("repro.deps.fingerprint")
    lang_parser = importlib.import_module("repro.lang.parser")
    solver_encode = importlib.import_module("repro.solver.encode")
    wire = importlib.import_module("repro.codec.wire")
    for fn, name in (
        (solver_encode.ground_assertion, "solver.ground"),
        (assertion_parser.parse_assertion, "assertions.parse"),
        (lang_parser.parse_command, "lang.parse"),
        (deps_fingerprint.fingerprint, "deps.fingerprint"),
        (deps_fingerprint.task_fingerprint, "deps.fingerprint"),
        (wire.to_wire, "codec.to_wire"),
        (wire.from_wire, "codec.from_wire"),
    ):
        patch_everywhere(fn, _span_call(name, fn))
    for cls in (IncrementalSolver, SATSolver):
        _patch_method(
            cls, "solve", lambda f: _span_call("solver.sat", f, _sat_before, _sat_after)
        )
    _patch_method(CheckerEngine, "scan_masks", lambda f: _span_generator("checker.scan", f))
    _patch_method(
        ImageCache,
        "post_image_mask",
        lambda f: _span_call("checker.images", f, _image_before, _image_after),
    )
    _patch_method(
        CheckerEngine, "image_table", lambda f: _span_call("checker.images", f)
    )
    _patch_method(
        CachingOracle,
        "entails",
        lambda f: _span_call("assertions.entail", f, _entail_before, _entail_after),
    )
    _patch_method(
        EntailmentOracle, "entails", lambda f: _span_call("assertions.entail.miss", f)
    )
    _patch_method(CompileCache, "get_or_build", _compile_wrapper)
    for cls, short in (
        (api_backends.SyntacticWPBackend, "wp"),
        (api_backends.LoopBackend, "loop"),
        (SymbolicBackend, "symbolic"),
        (api_backends.ExhaustiveBackend, "exhaustive"),
    ):
        _patch_method(
            cls,
            "attempt",
            lambda f, short=short: _span_call(
                "api.backends." + short, f, after=_attempt_after
            ),
        )


def uninstall_session_layers():
    """Put back every original the wrappers replaced, so that untraced
    rounds run the program as it is."""
    while _PATCHES:
        owner, attr, original = _PATCHES.pop()
        setattr(owner, attr, original)


# -- aggregation --------------------------------------------------------

BACKENDS = ("wp", "loop", "symbolic", "exhaustive")


def self_times(spans):
    """Per-span self time: own duration (busy time for generator spans)
    minus the durations of its direct children."""
    own = []
    for span in spans:
        if span["busy"] is not None:
            own.append(span["busy"])
        else:
            own.append(span["end"] - span["start"])
    selfs = list(own)
    for span, duration in zip(spans, own):
        parent = span["parent"]
        if parent >= 0:
            selfs[parent] -= duration
    return [max(0.0, value) for value in selfs]


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(span_lists):
    """The per-layer metrics of ``BENCHMARK.json`` from one or more span
    lists (one per traced process)."""
    self_s = {}
    counts = {}
    attrs = {}
    for spans in span_lists:
        selfs = self_times(spans)
        for span, own in zip(spans, selfs):
            name = span["name"]
            self_s[name] = self_s.get(name, 0.0) + own
            counts[name] = counts.get(name, 0) + 1
            attrs.setdefault(name, []).append(span["attrs"])

    def spans_of(name):
        return attrs.get(name, [])

    sat = [a for a in spans_of("solver.sat") if not a.get("nested")]
    scans = spans_of("checker.scan")
    images = spans_of("checker.images")
    image_hits = sum(a.get("hits", 0) + a.get("mask_hits", 0) for a in images)
    image_misses = sum(a.get("misses", 0) + a.get("mask_misses", 0) for a in images)
    entails = spans_of("assertions.entail")
    builds = spans_of("compile.build")
    metrics = {
        "solver.ground.calls": counts.get("solver.ground", 0),
        "solver.ground.self_s": self_s.get("solver.ground", 0.0),
        "solver.sat.calls": len(sat),
        "solver.sat.self_s": self_s.get("solver.sat", 0.0),
        "solver.sat.conflicts": sum(a.get("conflicts", 0) for a in sat),
        "solver.sat.decisions": sum(a.get("decisions", 0) for a in sat),
        "solver.sat.propagations": sum(a.get("propagations", 0) for a in sat),
        "checker.scan.candidates": sum(a["items"] for a in scans),
        "checker.scan.self_s": self_s.get("checker.scan", 0.0),
        "checker.scan.early_exit_share": _ratio(
            sum(1 for a in scans if a["early_exit"]), len(scans)
        ),
        "checker.images.executions": sum(
            a.get("misses", 0) for a in images
        ),
        "checker.images.hit_ratio": _ratio(image_hits, image_hits + image_misses),
        "checker.images.self_s": self_s.get("checker.images", 0.0),
        "assertions.entail.calls": len(entails),
        "assertions.entail.self_s": self_s.get("assertions.entail", 0.0)
        + self_s.get("assertions.entail.miss", 0.0),
        "assertions.entail.cache_hit_ratio": _ratio(
            sum(1 for a in entails if a.get("hit")), len(entails)
        ),
        "assertions.parse.self_s": self_s.get("assertions.parse", 0.0),
        "compile.build.hit_ratio": _ratio(
            sum(1 for a in builds if a["hit"]), len(builds)
        ),
        "compile.build.self_s": self_s.get("compile.build", 0.0),
        "deps.fingerprint.self_s": self_s.get("deps.fingerprint", 0.0),
        "lang.parse.self_s": self_s.get("lang.parse", 0.0),
        "codec.to_wire.self_s": self_s.get("codec.to_wire", 0.0),
        "codec.from_wire.self_s": self_s.get("codec.from_wire", 0.0),
    }
    for short in BACKENDS:
        name = "api.backends." + short
        attempts = spans_of(name)
        decided = sum(1 for a in attempts if a.get("decided"))
        metrics[name + ".attempts"] = len(attempts)
        metrics[name + ".decisive_share"] = _ratio(decided, len(attempts))
        metrics[name + ".self_s"] = self_s.get(name, 0.0)
    for spans in span_lists:
        for span in spans:
            name = span["name"]
            if name.startswith("api.backends.") and not span["attrs"].get("decided"):
                key = name + ".undecided_s"
                metrics[key] = metrics.get(key, 0.0) + span["end"] - span["start"]
    for short in BACKENDS:
        metrics.setdefault("api.backends.%s.undecided_s" % short, 0.0)
    return metrics


def percentile(values, q):
    """The ``q``-quantile (0 < q < 1) by the exclusive method of
    :func:`statistics.quantiles`; the single value for one sample."""
    values = sorted(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=1000, method="exclusive")[
        int(round(q * 1000)) - 1
    ]


def load_spans(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle]


def dump_to_dir(directory, tracer=TRACER):
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "spans-%d.jsonl" % os.getpid())
    tracer.dump(path)
    return path


# -- the serve daemon ----------------------------------------------------

_WORKER = {"pid": None, "jobs": 0}


def timed_call(directory, submitted, fn, *args, **kwargs):
    """Run one pool job in a worker process, recording how long it queued.

    On its first job a worker starts its own span list (a forked worker
    inherits its parent's, a spawned one has no wrappers yet) and writes
    it out when it exits."""
    if _WORKER["pid"] != os.getpid():
        from multiprocessing import util

        _WORKER.update(pid=os.getpid(), jobs=0)
        TRACER.spans, TRACER.stack = [], []
        install_session_layers()
        util.Finalize(None, dump_to_dir, args=(directory,), exitpriority=10)
    _WORKER["jobs"] += 1
    TRACER.task_id = "%d:%d" % (os.getpid(), _WORKER["jobs"])
    index = TRACER.open("serve.queue_wait")
    TRACER.close(index)
    TRACER.spans[index][1] = submitted
    index = TRACER.open("serve.worker")
    try:
        return fn(*args, **kwargs)
    finally:
        TRACER.close(index)


def install_serve_layers(directory):
    """Wrap the daemon's store and pool; the session layers are wrapped
    too, for the decode the daemon does itself."""
    from concurrent.futures import ProcessPoolExecutor

    from repro.serve import protocol, server, store

    install_session_layers()
    for fn in (protocol.parse_request, protocol.task_key):
        patch_everywhere(fn, _span_call("serve.protocol", fn))
    _patch_method(store.ResultStore, "get", lambda f: _span_call("serve.store.get", f))
    _patch_method(store.ResultStore, "put", lambda f: _span_call("serve.store.put", f))

    class TimedPool(ProcessPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            return super().submit(timed_call, directory, clock(), fn, *args, **kwargs)

    server.ProcessPoolExecutor = TimedPool
