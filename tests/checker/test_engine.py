"""The precomputed-image CheckerEngine: cross-validation and regressions.

The engine must be *observably identical* to the retained naive oracle —
same verdict, same (replayable) witness — while executing each program
state once instead of once per candidate set.  The property tests below
drive both implementations over randomized commands and Def. 9
assertions; the regression classes pin the satellite bugfixes (arithmetic
``Universe.size``, SAT pure-literal elimination / explicit-stack search,
and ``max_states`` threading).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assertions import TRUE_H, exists_s, forall_s, pv
from repro.checker import (
    CheckerEngine,
    ImageCache,
    Universe,
    check_terminating_triple,
    check_triple,
    naive_check_terminating_triple,
    naive_check_triple,
    naive_sampled_check_triple,
    sampled_check_triple,
    state_prefilter,
    valid_terminating_triple,
    valid_triple,
)
from repro.errors import EvaluationError
from repro.lang import parse_command
from repro.semantics.extended import sem
from repro.values import IntRange

from tests.strategies import HI, LO, VARS, commands, hyper_assertions


def xy_universe():
    """The universe the random-command strategies are written against."""
    return Universe(list(VARS), IntRange(LO, HI))


def assert_same_outcome(engine_result, naive_result):
    """Verdict and witness must match; the witness must replay."""
    assert engine_result.valid == naive_result.valid
    assert engine_result.witness_pre == naive_result.witness_pre
    assert engine_result.witness_post == naive_result.witness_post


class TestEngineMatchesNaive:
    @settings(max_examples=40, deadline=None)
    @given(
        command=commands(max_depth=2),
        pre=hyper_assertions(max_depth=2),
        post=hyper_assertions(max_depth=2),
    )
    def test_check_triple_agrees(self, command, pre, post):
        uni = xy_universe()
        naive = naive_check_triple(pre, command, post, uni, max_size=2)
        fast = check_triple(pre, command, post, uni, max_size=2)
        assert_same_outcome(fast, naive)
        if not naive.valid:
            # the witness replays: sem of the witness set violates post
            replay = sem(command, naive.witness_pre, uni.domain)
            assert replay == naive.witness_post
            assert not post.holds(replay, uni.domain)

    @settings(max_examples=25, deadline=None)
    @given(
        command=commands(max_depth=2),
        pre=hyper_assertions(max_depth=2),
        post=hyper_assertions(max_depth=2),
    )
    def test_checked_sets_agree_without_prefilter(self, command, pre, post):
        uni = xy_universe()
        naive = naive_check_triple(pre, command, post, uni, max_size=2)
        fast = CheckerEngine(uni).check(
            pre, command, post, max_size=2, prefilter=False
        )
        assert_same_outcome(fast, naive)
        assert fast.checked_sets == naive.checked_sets

    @settings(max_examples=25, deadline=None)
    @given(
        command=commands(max_depth=2),
        pre=hyper_assertions(max_depth=2),
        post=hyper_assertions(max_depth=2),
    )
    def test_terminating_triple_agrees(self, command, pre, post):
        uni = xy_universe()
        naive = naive_check_terminating_triple(pre, command, post, uni, max_size=2)
        fast = check_terminating_triple(pre, command, post, uni, max_size=2)
        assert_same_outcome(fast, naive)

    @settings(max_examples=25, deadline=None)
    @given(
        command=commands(max_depth=2),
        pre=hyper_assertions(max_depth=2),
        post=hyper_assertions(max_depth=2),
        seed=st.integers(0, 2**16),
    )
    def test_sampled_check_agrees(self, command, pre, post, seed):
        uni = xy_universe()
        naive = naive_sampled_check_triple(
            pre, command, post, uni, random.Random(seed), samples=30
        )
        fast = sampled_check_triple(
            pre, command, post, uni, random.Random(seed), samples=30
        )
        assert_same_outcome(fast, naive)
        assert fast.checked_sets == naive.checked_sets


class TestImageCache:
    def test_one_execution_per_program_state(self, uni_xy2):
        cache = ImageCache()
        engine = CheckerEngine(uni_xy2, cache)
        command = parse_command("x := nonDet()")
        engine.check(TRUE_H, command, TRUE_H)
        info = cache.stats()
        assert info["misses"] == uni_xy2.size()  # one execution per state
        # a second full check over 2^4 sets is pure cache hits (the
        # bitset engine hits the mask tier, which sits above the
        # frozenset tier and never re-executes)
        engine.check(TRUE_H, command, TRUE_H)
        stats = cache.stats()
        assert stats["misses"] == info["misses"]
        assert stats["hits"] + stats["mask_hits"] > 0

    def test_warm_cache_still_enforces_smaller_max_states(self):
        # a warm entry computed under a loose cap must not bypass the
        # divergence guard of a later, stricter request
        uni = Universe(["x", "y"], IntRange(0, 2))
        command = parse_command("x := nonDet(); y := nonDet()")
        engine = CheckerEngine(uni)
        assert engine.check(TRUE_H, command, TRUE_H, max_size=1).valid  # warm
        with pytest.raises(EvaluationError):
            engine.check(TRUE_H, command, TRUE_H, max_size=1, max_states=4)
        # and a loose request after a tight successful one is a cache hit
        small = parse_command("x := 0")
        engine.check(TRUE_H, small, TRUE_H, max_size=1, max_states=4)
        misses = engine.cache.stats()["misses"]
        engine.check(TRUE_H, small, TRUE_H, max_size=1)
        assert engine.cache.stats()["misses"] == misses

    def test_cache_shared_across_engines(self, uni_xy2):
        cache = ImageCache()
        command = parse_command("y := x")
        CheckerEngine(uni_xy2, cache).check(TRUE_H, command, TRUE_H)
        misses = cache.stats()["misses"]
        CheckerEngine(uni_xy2, cache).check(TRUE_H, command, TRUE_H)
        assert cache.stats()["misses"] == misses

    def test_session_shares_images_across_batch(self):
        from repro.api import ExhaustiveBackend, Session

        session = Session(["x", "y"], 0, 1, backends=(ExhaustiveBackend(),))
        tasks = [("true", "x := nonDet()", "true")] * 3
        report = session.verify_many(tasks)
        assert report.all_verified
        info = session.cache_info()
        assert info["image_cache_misses"] == session.universe.size()
        # repeats of the same task land in the bitset mask tier (which
        # shields the frozenset tier); either way no re-execution happens
        assert info["image_cache_hits"] + info["image_mask_hits"] > 0

    def test_session_shares_images_across_threads(self):
        from repro.api import ExhaustiveBackend, Session

        session = Session(["x", "y"], 0, 1, backends=(ExhaustiveBackend(),))
        tasks = [("true", "y := nonDet()", "true")] * 4
        report = session.verify_many(tasks, max_workers=4)
        assert report.all_verified
        # a race may duplicate an execution, but never per-subset-explode
        assert session.cache_info()["image_cache_misses"] <= 2 * session.universe.size()


class TestPrefilter:
    def test_prunes_states_and_keeps_witness(self, uni_xy2):
        pre = forall_s("p", pv("p", "x").eq(0))
        keep = state_prefilter(pre, uni_xy2.domain)
        assert keep is not None
        survivors = [phi for phi in uni_xy2.ext_states() if keep(phi)]
        assert len(survivors) == 2  # x pinned, y free
        command = parse_command("skip")
        # a valid triple, so the full (pruned) enumeration is walked
        fast = check_triple(pre, command, pre, uni_xy2)
        naive = naive_check_triple(pre, command, pre, uni_xy2)
        assert_same_outcome(fast, naive)
        assert naive.checked_sets == 2 ** uni_xy2.size()
        assert fast.checked_sets == 2 ** len(survivors)
        # and an invalid one still reports the same witness
        post = forall_s("p", pv("p", "y").eq(0))
        assert_same_outcome(
            check_triple(pre, command, post, uni_xy2),
            naive_check_triple(pre, command, post, uni_xy2),
        )

    def test_no_filter_for_existential(self, uni_xy2):
        pre = exists_s("p", pv("p", "x").eq(0))
        assert state_prefilter(pre, uni_xy2.domain) is None

    def test_no_filter_for_semantic_assertions(self, uni_xy2):
        assert state_prefilter(TRUE_H, uni_xy2.domain) is None


class TestEqualsSetParity:
    def test_terminating_check_ignores_out_of_universe_target(self):
        # Def. 24 quantifies over universe subsets only: a pinned target
        # containing foreign states can never be drawn, so the triple is
        # (vacuously) valid — engine and naive must agree
        from repro.assertions import EqualsSet
        from repro.semantics.state import ext_state

        uni = Universe(["x"], IntRange(0, 1))
        foreign = EqualsSet([ext_state(prog={"x": 7})])
        command = parse_command("assume x > 50")
        fast = check_terminating_triple(foreign, command, TRUE_H, uni)
        naive = naive_check_terminating_triple(foreign, command, TRUE_H, uni)
        assert fast.valid and naive.valid

    def test_plain_check_keeps_pinned_fast_path(self):
        from repro.assertions import EqualsSet

        uni = Universe(["x"], IntRange(0, 1))
        target = EqualsSet([uni.ext_states()[0]])
        result = check_triple(target, parse_command("skip"), TRUE_H, uni)
        assert result.valid
        assert result.checked_sets == 1  # single pinned candidate


class TestUniverseSizeRegression:
    def test_size_is_arithmetic_not_enumerated(self):
        uni = Universe(["a", "b", "c"], IntRange(0, 9999))
        assert uni.size() == 10000 ** 3
        assert uni._states is None  # size() must not materialize ext_states

    def test_repr_does_not_enumerate(self):
        uni = Universe(
            ["a", "b"], IntRange(0, 99999), lvars=["t"], lvar_domain=IntRange(1, 2)
        )
        text = repr(uni)
        assert "%d states" % (100000 ** 2 * 2) in text
        assert uni._states is None

    def test_size_matches_enumeration_when_feasible(self):
        uni = Universe(["x"], IntRange(0, 2), lvars=["t"], lvar_domain=IntRange(1, 2))
        assert uni.size() == len(uni.ext_states())


class TestMaxStatesThreadingRegression:
    CMD = "x := nonDet(); y := nonDet()"  # 9 reachable states over 0..2

    def test_valid_triple_forwards_max_states(self):
        uni = Universe(["x", "y"], IntRange(0, 2))
        cmd = parse_command(self.CMD)
        assert valid_triple(TRUE_H, cmd, TRUE_H, uni, max_size=1)
        with pytest.raises(EvaluationError):
            valid_triple(TRUE_H, cmd, TRUE_H, uni, max_size=1, max_states=4)

    def test_valid_terminating_triple_forwards_max_states(self):
        uni = Universe(["x", "y"], IntRange(0, 2))
        cmd = parse_command(self.CMD)
        assert valid_terminating_triple(TRUE_H, cmd, TRUE_H, uni, max_size=1)
        with pytest.raises(EvaluationError):
            valid_terminating_triple(
                TRUE_H, cmd, TRUE_H, uni, max_size=1, max_states=4
            )

    def test_sampled_check_forwards_max_states_and_counts(self):
        uni = Universe(["x", "y"], IntRange(0, 2))
        cmd = parse_command(self.CMD)
        result = sampled_check_triple(
            TRUE_H, cmd, TRUE_H, uni, random.Random(0), samples=25
        )
        assert result.valid
        assert result.checked_sets == 25  # previously never filled in
        with pytest.raises(EvaluationError):
            sampled_check_triple(
                TRUE_H, cmd, TRUE_H, uni, random.Random(0), samples=25, max_states=4
            )
