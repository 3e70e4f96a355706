"""E-API — batch ``Session`` throughput vs. N fresh single-task sessions.

The api_redesign claim: one :class:`repro.api.Session` verifying a batch
of Sect. 2-style triples (shared universe, memoized parses and
entailments) beats N fresh sessions verifying one triple each, and a
warm session beats a cold one.  Expected row shape::

    batch(Session)   <  N × fresh Session   (shared caches win)
    warm Session     <= cold Session        (entailment cache hits > 0)

All verdicts must agree across the three strategies.
"""

import time

from repro.api import Session

import common

PVARS = ["h", "l", "y"]

# Sect. 2-flavored triples over the h/l/y security universe, with the
# noninterference specs repeated the way a real spec suite repeats them
# (per program variant) — the repetition is what caching exploits.
DISTINCT = [
    (
        "forall <a>, <b>. a(l) == b(l)",
        "y := nonDet(); l := h xor y",
        "forall <a>, <b>. exists <c>. c(h) == a(h) && c(l) == b(l)",
    ),
    (
        "true",
        "l := h",
        "forall <a>, <b>. a(l) == b(l)",
    ),
    (
        "forall <a>, <b>. a(l) == b(l)",
        "y := 1 - y; l := h xor y",
        "forall <a>, <b>. exists <c>. c(h) == a(h) && c(l) == b(l)",
    ),
    (
        "true",
        "l := 0",
        "forall <a>, <b>. a(l) == b(l)",
    ),
]
TRIPLES = DISTINCT * 3  # 12 tasks, heavy overlap


def run_batch_session():
    session = Session(PVARS, 0, 1)
    return session, session.verify_many(TRIPLES)


def run_fresh_sessions():
    return [
        Session(PVARS, 0, 1).verify(pre, program, post)
        for pre, program, post in TRIPLES
    ]


def test_batch_session_beats_fresh_sessions(benchmark):
    session, report = benchmark.pedantic(run_batch_session, rounds=3, iterations=1)

    started = time.perf_counter()
    standalone = run_fresh_sessions()
    standalone_elapsed = time.perf_counter() - started

    started = time.perf_counter()
    cold_session, cold_report = run_batch_session()
    cold_elapsed = time.perf_counter() - started

    common.banner("E-API: batch Session vs. %d fresh Sessions" % len(TRIPLES))
    print("fresh Session per task:   %.4fs" % standalone_elapsed)
    print("batch Session (cold):     %.4fs  (%s)" % (cold_elapsed, cold_report and "ok" or "mixed"))
    print(cold_report.summary())
    print("speedup: %.1fx" % (standalone_elapsed / max(cold_elapsed, 1e-9)))

    # Verdicts agree everywhere.
    assert [r.verified for r in cold_report] == [r.verified for r in standalone]
    # The repeated specs must actually hit the entailment cache...
    assert cold_report.entailment_cache_hits > 0
    # ...and the shared-cache batch must beat N fresh sessions outright.
    assert cold_elapsed < standalone_elapsed


def test_warm_session_beats_cold(benchmark):
    session = Session(PVARS, 0, 1)
    cold = session.verify_many(TRIPLES)

    warm = benchmark.pedantic(
        lambda: session.verify_many(TRIPLES), rounds=3, iterations=1
    )

    common.banner("E-API: warm vs. cold Session (entailment memoization)")
    print("cold batch: %.4fs (%d cache misses)"
          % (cold.elapsed, cold.entailment_cache_misses))
    print("warm batch: %.4fs (%d hits, %d misses)"
          % (warm.elapsed, warm.entailment_cache_hits, warm.entailment_cache_misses))
    info = session.cache_info()
    print("session caches: %r" % (info,))

    assert [r.verdict for r in warm] == [r.verdict for r in cold]
    # A warm session re-verifies without a single new entailment run.
    assert warm.entailment_cache_misses == 0
    assert warm.entailment_cache_hits > 0
    assert warm.elapsed <= cold.elapsed * 1.5  # generous: both are fast
