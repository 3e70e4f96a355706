"""Oracle hot path: precomputed-image CheckerEngine vs the naive oracle,
and compiled vs interpreted evaluation inside the engine.

The Def. 5 check quantifies over the ``2**n`` subsets of the universe;
the pre-engine oracle re-ran ``sem(C, S)`` with a fresh cache for every
subset, re-executing each program state up to ``2**(n-1)`` times.  The
:class:`repro.checker.engine.CheckerEngine` executes each state once and
unions precomputed images instead; since the compile-once refactor the
assertions are also compiled into incremental evaluators pushed along
the enumeration — ``O(n · exec + 2**n · Δ)``.

This benchmark (a plain script, so CI can smoke-run it) does three
things:

1. **cross-validation** — engine and naive verdicts *and witnesses* must
   be identical over a suite of valid and invalid triples (plain,
   terminating and sampled checks);
2. **speedup** — on a 3-variable universe the engine must beat the
   retained naive reference by >= 10x on the full-powerset walk;
3. **compiled speedup** — on an assertion-heavy workload (agreement +
   value-quantified preconditions that hold on every candidate set, so
   the interpreter re-walks ``k**2`` binding pairs per candidate with
   no short-circuit exit) the compiled engine must beat the interpreted
   engine (``compiled=False``, the pre-compile behavior) by >= 5x, with
   identical verdicts, witnesses and ``checked_sets``.

Usage::

    python benchmarks/bench_checker_engine.py            # full (3 repeats)
    python benchmarks/bench_checker_engine.py --quick    # CI smoke (1 repeat)
"""

import argparse
import os
import random
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.assertions import (  # noqa: E402
    TRUE_H,
    exists_s,
    forall_s,
    forall_v,
    hv,
    low,
    low_pred,
    not_emp_s,
    pv,
)
from repro.checker import (  # noqa: E402
    CheckerEngine,
    ImageCache,
    Universe,
    check_triple,
    check_terminating_triple,
    naive_check_triple,
    naive_check_terminating_triple,
    naive_sampled_check_triple,
    sampled_check_triple,
)
from repro.lang import parse_command  # noqa: E402
from repro.lang.expr import V  # noqa: E402
from repro.values import IntRange  # noqa: E402

MIN_SPEEDUP = 10.0

#: The compile-once refactor's headline: compiled vs interpreted engine
#: on assertion-heavy triples.
MIN_COMPILED_SPEEDUP = 5.0

#: 3 program variables over {0, 1}: 8 extended states, 256 initial sets.
PVARS = ["x", "y", "z"]

#: A loop-bearing command so each big-step execution is genuinely costly —
#: this is the regime the 2^n re-execution defect punished hardest.
HOT_COMMAND = "loop { x := max(0, min(1, x + y)); z := nonDet() }"

#: Cross-validation triples: valid and invalid, syntactic and semantic.
SUITE = [
    (TRUE_H, HOT_COMMAND, TRUE_H),
    (TRUE_H, "x := nonDet()", low("x")),
    (low("x"), "y := x", low("y")),
    (not_emp_s, "x := 0", exists_s("p", pv("p", "x").eq(1))),
    (forall_s("p", pv("p", "x").eq(0)), "z := x", forall_s("p", pv("p", "z").eq(0))),
    (TRUE_H, "assume x > 0", TRUE_H),
    (exists_s("p", pv("p", "y").eq(1)), HOT_COMMAND, not_emp_s),
]


def cross_validate(universe):
    """Engine and naive must agree on verdict AND witness, per check kind."""
    mismatches = 0
    for pre, source, post in SUITE:
        command = parse_command(source)
        pairs = [
            (
                check_triple(pre, command, post, universe),
                naive_check_triple(pre, command, post, universe),
            ),
            (
                check_terminating_triple(pre, command, post, universe, max_size=2),
                naive_check_terminating_triple(pre, command, post, universe, max_size=2),
            ),
            (
                sampled_check_triple(
                    pre, command, post, universe, random.Random(11), samples=40
                ),
                naive_sampled_check_triple(
                    pre, command, post, universe, random.Random(11), samples=40
                ),
            ),
        ]
        for fast, naive in pairs:
            same = (
                fast.valid == naive.valid
                and fast.witness_pre == naive.witness_pre
                and fast.witness_post == naive.witness_post
            )
            if not same:
                mismatches += 1
                print("  MISMATCH on %r: engine=%r naive=%r" % (source, fast, naive))
    print(
        "cross-validation: %d triples x 3 check kinds, %d mismatches"
        % (len(SUITE), mismatches)
    )
    assert mismatches == 0, "engine disagrees with the naive reference"


def best_of(repeats, fn):
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def bench_speedup(universe, repeats, attempts=3):
    command = parse_command(HOT_COMMAND)
    # re-measure up to `attempts` times before failing: the fast path is
    # ~1ms, and one scheduler stall on a noisy CI runner must not fail
    # the build for an unrelated change
    for attempt in range(attempts):
        naive_t, naive_r = best_of(
            repeats, lambda: naive_check_triple(TRUE_H, command, TRUE_H, universe)
        )
        fast_t, fast_r = best_of(
            repeats, lambda: check_triple(TRUE_H, command, TRUE_H, universe)
        )
        if fast_t and naive_t / fast_t >= MIN_SPEEDUP:
            break
        if attempt < attempts - 1:
            print("  noisy measurement (%.1fx), re-measuring..."
                  % (naive_t / fast_t if fast_t else float("inf")))
    assert naive_r.valid == fast_r.valid
    assert naive_r.checked_sets == fast_r.checked_sets == 2 ** universe.size()

    cache = ImageCache()
    engine = CheckerEngine(universe, cache)
    engine.check(TRUE_H, command, TRUE_H)  # warm the shared cache
    warm_t, _ = best_of(repeats, lambda: engine.check(TRUE_H, command, TRUE_H))

    speedup = naive_t / fast_t if fast_t else float("inf")
    print()
    print("universe: %d extended states, %d initial sets" % (universe.size(), 2 ** universe.size()))
    print("command:  %s" % HOT_COMMAND)
    print("  naive oracle (sem per subset):   %8.4fs" % naive_t)
    print("  engine (cold image cache):       %8.4fs   %6.1fx" % (fast_t, speedup))
    print(
        "  engine (warm shared cache):      %8.4fs   %6.1fx"
        % (warm_t, naive_t / warm_t if warm_t else float("inf"))
    )
    print("  image cache: %r" % (cache.info(),))
    assert speedup >= MIN_SPEEDUP, (
        "expected >= %.0fx over the naive oracle, measured %.1fx"
        % (MIN_SPEEDUP, speedup)
    )
    print("speedup >= %.0fx: OK" % MIN_SPEEDUP)


def assertion_heavy_triple():
    """An always-true, assertion-heavy triple over a 12-state universe.

    The precondition/postcondition hold on *every* candidate set, so the
    interpreted engine re-walks every binding pair of the ``∀∀``
    agreement conjuncts (``k**2`` per candidate, no short-circuit exit)
    and re-evaluates the value-quantified conjunct per state per
    candidate — the regime the incremental evaluators collapse to
    ``O(Δ)`` per enumeration step with per-state projections cached.
    """
    universe = Universe(
        ["x", "y"], IntRange(0, 1), lvars=["t"], lvar_domain=IntRange(0, 2)
    )
    agree = (
        low_pred((V("x") * 3 + V("y") * 2).ge(0))
        & low_pred((V("x") + V("y")).ge(0))
        & low_pred(V("x").ge(0))
    )
    value_quantified = forall_v(
        "v", forall_s("p", (pv("p", "x") * 2 + pv("p", "y") + hv("v")).ge(0))
    )
    pre = agree & value_quantified
    return universe, pre, parse_command("x := x"), pre


def bench_compiled(repeats, attempts=3):
    """Compiled vs interpreted engine on the assertion-heavy triple."""
    universe, pre, command, post = assertion_heavy_triple()
    interpreted = CheckerEngine(universe, ImageCache(), compiled=False)
    compiled = CheckerEngine(universe, ImageCache(), compiled=True)
    ri = interpreted.check(pre, command, post)
    rc = compiled.check(pre, command, post)
    same = (
        ri.valid == rc.valid
        and ri.witness_pre == rc.witness_pre
        and ri.witness_post == rc.witness_post
        and ri.checked_sets == rc.checked_sets
    )
    assert same, "compiled engine disagrees with the interpreted engine"
    for attempt in range(attempts):
        interp_t, _ = best_of(
            repeats, lambda: interpreted.check(pre, command, post)
        )
        compiled_t, _ = best_of(
            repeats, lambda: compiled.check(pre, command, post)
        )
        if compiled_t and interp_t / compiled_t >= MIN_COMPILED_SPEEDUP:
            break
        if attempt < attempts - 1:
            print("  noisy measurement (%.1fx), re-measuring..."
                  % (interp_t / compiled_t if compiled_t else float("inf")))
    speedup = interp_t / compiled_t if compiled_t else float("inf")
    print()
    print(
        "compiled evaluation: %d extended states, %d candidate sets "
        "(assertion-heavy, always-true)"
        % (universe.size(), ri.checked_sets)
    )
    print("  interpreted engine (holds per set): %8.4fs" % interp_t)
    print("  compiled engine (incremental):      %8.4fs   %6.1fx"
          % (compiled_t, speedup))
    assert speedup >= MIN_COMPILED_SPEEDUP, (
        "expected >= %.0fx over the interpreted engine, measured %.1fx"
        % (MIN_COMPILED_SPEEDUP, speedup)
    )
    print("compiled speedup >= %.0fx: OK" % MIN_COMPILED_SPEEDUP)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="fewer repeats (CI smoke mode)"
    )
    parser.add_argument(
        "--repeats", type=int, default=5, help="timing repeats (best-of)"
    )
    args = parser.parse_args(argv)
    # best-of-3 even in quick mode: the fast path is ~1ms, and a single
    # noisy run on a shared CI machine must not fail an unrelated PR
    repeats = 3 if args.quick else args.repeats

    universe = Universe(PVARS, IntRange(0, 1))
    print("=" * 64)
    print("checker engine benchmark (%s)" % ("quick" if args.quick else "full"))
    print("=" * 64)
    cross_validate(universe)
    bench_speedup(universe, repeats)
    bench_compiled(repeats)


if __name__ == "__main__":
    main()
