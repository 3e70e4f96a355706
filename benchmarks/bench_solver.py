"""E21 — the SAT backend vs brute-force entailment (the Z3 substitution).

Expected shape: identical verdicts; brute force is exponential in the
universe (2^n subsets), the grounding + CDCL pipeline handles universes
whose powerset is far out of reach (the crossover is around a dozen
states) — the same reason the authors' Hypra uses an SMT solver."""

import pytest

from repro.assertions import agree_on, box, entails, low
from repro.checker import Universe
from repro.lang.expr import V
from repro.solver.encode import entails_sat
from repro.values import IntRange

QUERIES = [
    ("□(x=0) |= low(x)", box(V("x").eq(0)), low("x"), True),
    ("low(x)∧low(y) |= agree", low("x") & low("y"), agree_on(["x", "y"]), True),
    ("low(x) |= low(y)", low("x"), low("y"), False),
]


@pytest.mark.parametrize("pvars", [["x", "y"], ["x", "y", "z"]])
def test_sat_entailment_scaling(benchmark, pvars):
    uni = Universe(pvars, IntRange(0, 2))
    states = uni.ext_states()

    def run():
        return [
            entails_sat(pre, post, states, uni.domain) for _, pre, post, _ in QUERIES
        ]

    verdicts = benchmark.pedantic(run, rounds=2, iterations=1)
    print("\nuniverse of %d states (powerset: 2^%d subsets):"
          % (len(states), len(states)))
    for (name, _, _, expected), got in zip(QUERIES, verdicts):
        print("  %-28s SAT says %s (expected %s)" % (name, got, expected))
        assert got == expected


def test_brute_agrees_on_small_universe(benchmark):
    uni = Universe(["x", "y"], IntRange(0, 1))
    states = uni.ext_states()

    def run():
        out = []
        for _, pre, post, _ in QUERIES:
            out.append(
                (
                    entails(pre, post, states, uni.domain),
                    entails_sat(pre, post, states, uni.domain),
                )
            )
        return out

    results = benchmark.pedantic(run, rounds=2, iterations=1)
    print("\nbrute vs SAT on 4 states:")
    for (name, _, _, _), (brute, sat) in zip(QUERIES, results):
        print("  %-28s brute=%s sat=%s" % (name, brute, sat))
        assert brute == sat


#: The incremental entailment oracle must beat fresh per-query solves by
#: at least this factor on the recorded corpus (ISSUE 10 acceptance).
MIN_INCREMENTAL_SPEEDUP = 1.2


def test_incremental_vs_fresh_entailment(benchmark):
    """One persistent assumption-based solver vs a fresh solve per query.

    The corpus reuses assertion sides across queries — exactly the
    regime a chain run produces (the same pre checked against many
    posts) — so the incremental oracle's grounding cache, structural
    subformula memo and retained learned clauses all get to work.
    """
    import random
    import time

    from repro.assertions.parser import parse_assertion
    from repro.solver.encode import IncrementalEntailment, entails_sat

    uni = Universe(["x", "y"], IntRange(0, 2))
    states = tuple(sorted(uni.ext_states(), key=repr))
    pool = [
        parse_assertion(text)
        for text in [
            "forall <a>. a(x) >= 0",
            "exists <a>. a(x) == a(y)",
            "forall <a>. forall <b>. a(x) + b(y) >= 0",
            "exists <a>. exists <b>. a(x) != b(x)",
            "forall <a>. exists <b>. b(x) == a(y)",
            "forall <a>. forall <b>. (a(x) == b(x)) || (a(y) != b(y))",
            "exists <a>. forall <b>. a(x) <= b(x)",
            "forall v. exists <a>. a(x) == v",
            "(forall <a>. a(x) <= 2) && (exists <a>. a(y) == 1)",
            "(exists <a>. a(x) == 0) || (forall <a>. a(y) > 5)",
        ]
    ]
    rng = random.Random(11)
    queries = [(rng.choice(pool), rng.choice(pool)) for _ in range(300)]

    def fresh_all():
        return [entails_sat(p, q, states, uni.domain) for p, q in queries]

    def incremental_all():
        oracle = IncrementalEntailment(states, uni.domain)
        return [oracle.entails(p, q) for p, q in queries]

    expected = benchmark.pedantic(incremental_all, rounds=2, iterations=1)
    t = time.perf_counter()
    assert fresh_all() == expected
    fresh_elapsed = time.perf_counter() - t
    t = time.perf_counter()
    assert incremental_all() == expected
    incremental_elapsed = time.perf_counter() - t

    speedup = fresh_elapsed / incremental_elapsed
    print(
        "\nincremental vs fresh entailment (%d queries over %d states): %.2fx"
        % (len(queries), len(states), speedup)
    )
    assert speedup >= MIN_INCREMENTAL_SPEEDUP, (
        "incremental entailment measured %.2fx vs fresh solves "
        "(floor %.1fx)" % (speedup, MIN_INCREMENTAL_SPEEDUP)
    )
    print("incremental speedup >= %.1fx: OK" % MIN_INCREMENTAL_SPEEDUP)
