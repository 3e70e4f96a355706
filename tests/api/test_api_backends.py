"""Backend-chain dispatch: fragments, ordering, budgets, loop annotations."""

import pytest

from repro.api import (
    Budget,
    ExhaustiveBackend,
    LoopBackend,
    Proved,
    Refuted,
    SampledBackend,
    Session,
    SyntacticWPBackend,
    Undecided,
    VerificationTask,
)

GNI_PRE = "forall <a>, <b>. a(l) == b(l)"
GNI_PROG = "y := nonDet(); l := h xor y"
GNI_POST = "forall <a>, <b>. exists <c>. c(h) == a(h) && c(l) == b(l)"

LOW_X = "forall <a>, <b>. a(x) == b(x)"
LOOP_PROG = "while (x > 0) { x := x - 1 }"


@pytest.fixture
def security_session():
    return Session(["h", "l", "y"], 0, 1)


class RecordingBackend:
    """A stub backend that logs calls and returns a fixed outcome."""

    def __init__(self, name, verdict=None, supported=True):
        self.name = name
        self.verdict = verdict
        self.supported = supported
        self.calls = 0

    def supports(self, task):
        return self.supported

    def attempt(self, task, session, budget=None):
        self.calls += 1
        if self.verdict is True:
            return Proved(self.name, self.name)
        if self.verdict is False:
            return Refuted(self.name, self.name)
        return Undecided(self.name, self.name)


class TestDispatch:
    def test_straightline_decided_by_syntactic_wp(self, security_session):
        result = security_session.verify(GNI_PRE, GNI_PROG, GNI_POST)
        assert result.verified
        assert result.outcome.backend == "syntactic-wp"
        assert result.method == "syntactic-wp+sat"
        assert result.proof is not None

    def test_backend_order_is_respected(self, security_session):
        # Reversing the chain makes the oracle decide the same task.
        result = security_session.verify(
            GNI_PRE, GNI_PROG, GNI_POST,
            backends=[ExhaustiveBackend(), SyntacticWPBackend()],
        )
        assert result.verified
        assert result.outcome.backend == "exhaustive"
        assert result.method == "oracle"

    def test_chain_stops_at_first_decisive_outcome(self, security_session):
        first = RecordingBackend("first", verdict=True)
        second = RecordingBackend("second", verdict=True)
        result = security_session.verify(
            "true", "skip", "true", backends=[first, second]
        )
        assert result.verified and first.calls == 1 and second.calls == 0

    def test_unsupported_backend_is_skipped_not_run(self, security_session):
        skipped = RecordingBackend("skipped", verdict=True, supported=False)
        closer = RecordingBackend("closer", verdict=True)
        result = security_session.verify(
            "true", "skip", "true", backends=[skipped, closer]
        )
        assert skipped.calls == 0 and closer.calls == 1
        assert [o.backend for o in result.outcomes] == ["skipped", "closer"]
        assert isinstance(result.outcomes[0], Undecided)
        assert result.outcomes[0].reason == "outside fragment"

    def test_inconclusive_backend_falls_through(self, security_session):
        undecided = RecordingBackend("undecided", verdict=None)
        result = security_session.verify(
            "true", "skip", "true", backends=[undecided, ExhaustiveBackend()]
        )
        assert result.verified
        assert undecided.calls == 1
        assert result.outcome.backend == "exhaustive"

    def test_loop_task_skips_wp_and_is_decided_symbolically(self):
        # no invariant: wp skips the loop, the loop backend punts, and
        # the symbolic stage decides (loop images come from the same
        # big-step fixpoint every other backend uses)
        s = Session(["x"], 0, 2)
        result = s.verify("exists <a>. true", LOOP_PROG, "forall <a>. a(x) == 0")
        assert result.verified
        assert result.outcome.backend == "symbolic"

    def test_loop_task_with_alternating_post_falls_back_to_oracle(self):
        # an alternating-quantifier post is outside the symbolic
        # fragment, so the chain still closes with the exhaustive oracle
        s = Session(["x"], 0, 2)
        result = s.verify(
            "exists <a>. true",
            LOOP_PROG,
            "forall <a>, <b>. exists <c>. c(x) == a(x) && c(x) == b(x)",
        )
        assert result.verified
        assert result.outcome.backend == "exhaustive"
        symbolic = [o for o in result.outcomes if o.backend == "symbolic"][0]
        assert "outside symbolic fragment" in symbolic.reason

    def test_backend_returning_a_non_outcome_raises_type_error(
        self, security_session
    ):
        """The chain accepts only Outcomes; anything else is a bug in
        the backend, reported as a TypeError naming the bad value."""

        class BadBackend:
            name = "bad"

            def supports(self, task):
                return True

            def attempt(self, task, session, budget=None):
                return (True, "not-an-outcome")

        with pytest.raises(TypeError, match="must return an Outcome"):
            security_session.verify("true", "skip", "true", backends=[BadBackend()])


class TestLoopBackend:
    def test_annotated_while_verifies_via_fig5(self):
        s = Session(["x"], 0, 2)
        result = s.verify(LOW_X, LOOP_PROG, LOW_X, invariant=LOW_X)
        assert result.verified
        assert result.outcome.backend == "loop"
        assert result.method.startswith("loop-sync+")
        assert result.proof is not None
        assert "WhileSync" in result.proof.rules_used()

    def test_bad_invariant_is_inconclusive_not_refuted(self):
        # x == 0 is not inductive for the decrementing loop, but the
        # triple still holds — the chain must fall through past the loop
        # backend (here to the symbolic stage, which decides exactly).
        s = Session(["x"], 0, 2)
        result = s.verify(
            "forall <a>, <b>. a(x) == b(x)",
            LOOP_PROG,
            "forall <a>, <b>. a(x) == b(x)",
            invariant="forall <a>. a(x) == 2",
        )
        assert result.verified
        assert result.outcome.backend == "symbolic"
        loop_outcome = [o for o in result.outcomes if o.backend == "loop"][0]
        assert isinstance(loop_outcome, Undecided)
        assert "invariant" in loop_outcome.reason

    def test_straightline_task_outside_loop_fragment(self):
        s = Session(["x"], 0, 1)
        task = s.task("true", "x := 0", "forall <a>. a(x) == 0", invariant=LOW_X)
        assert not LoopBackend().supports(task)


class TestBudgets:
    def test_exhausted_budget_yields_inconclusive_outcome(self):
        s = Session(["x"], 0, 2)
        result = s.verify(
            "exists <a>. true",
            LOOP_PROG,
            "forall <a>. a(x) == 0",
            backends=[ExhaustiveBackend()],
            budgets={"exhaustive": 0.0},
        )
        assert result.undecided
        assert "budget exhausted" in result.outcomes[0].reason

    def test_chain_recovers_after_budget_exhaustion(self):
        s = Session(["x"], 0, 2)
        result = s.verify(
            "exists <a>. true",
            LOOP_PROG,
            "forall <a>. a(x) == 0",
            backends=[ExhaustiveBackend(), ExhaustiveBackend()],
            budgets={"exhaustive": 0.0},
        )
        # Both stages share the name so both expire — still undecided...
        assert result.undecided
        # ...but an unbudgeted closing stage decides.
        closer = SampledBackend(max_size=3)
        result = s.verify(
            "exists <a>. true",
            LOOP_PROG,
            "forall <a>. a(x) == 0",
            backends=[ExhaustiveBackend(), closer],
            budgets={"exhaustive": 0.0},
        )
        assert result.verified
        assert result.method == "oracle(≤3)"

    def test_session_level_budgets_apply(self):
        s = Session(
            ["x"], 0, 2,
            backends=[ExhaustiveBackend()],
            budgets={"exhaustive": 0.0},
        )
        result = s.verify("exists <a>. true", LOOP_PROG, "forall <a>. a(x) == 0")
        assert result.undecided

    def test_budget_object(self):
        assert not Budget(None).expired
        assert Budget(None).remaining() is None
        assert Budget(0.0).expired
        assert Budget(60.0).remaining() > 0


class TestSampledBackend:
    def test_capped_mode_reports_cap_in_method(self):
        s = Session(["x"], 0, 2, max_set_size=2)
        result = s.verify("exists <a>. true", LOOP_PROG, "forall <a>. a(x) == 0")
        assert result.verified
        assert result.method == "oracle(≤2)"

    def test_capped_pass_mid_chain_falls_through_soundly(self):
        # low(l) is refutable only by a 2-state set: a size-1 capped scan
        # passes, but that pass must NOT stand as the chain's verdict —
        # the exhaustive closer still gets to refute.
        s = Session(["l"], 0, 1)
        result = s.verify(
            "true", "skip", "forall <a>, <b>. a(l) == b(l)",
            backends=[SampledBackend(max_size=1), ExhaustiveBackend()],
        )
        assert result.refuted
        assert result.outcome.backend == "exhaustive"
        sampled = result.outcomes[0]
        assert isinstance(sampled, Undecided)
        assert "under-approximate" in sampled.reason

    def test_claim_capped_pass_opts_into_legacy_underapproximation(self):
        s = Session(["l"], 0, 1)
        result = s.verify(
            "true", "skip", "forall <a>, <b>. a(l) == b(l)",
            backends=[SampledBackend(max_size=1, claim_capped_pass=True)],
        )
        assert result.verified  # the documented legacy unsound claim
        assert result.method == "oracle(≤1)"

    def test_cap_covering_the_universe_is_definitive(self):
        s = Session(["l"], 0, 1)  # 2 extended states
        result = s.verify(
            "true", "skip", "forall <a>. a(l) == a(l)",
            backends=[SampledBackend(max_size=2)],
        )
        assert result.verified

    def test_random_mode_refutes_but_never_verifies(self):
        s = Session(["x"], 0, 2)
        backend = SampledBackend(max_size=3, samples=50, seed=7)
        bad = s.verify(
            "true", "x := nonDet()", "forall <a>. a(x) == 0", backends=[backend]
        )
        assert bad.refuted
        assert bad.witness is not None
        good = s.verify("true", "x := 0", "forall <a>. a(x) == 0", backends=[backend])
        assert good.undecided
        assert "evidence" in good.outcomes[0].reason


class TestOutcomeStructure:
    def test_refutation_carries_concrete_witness(self, security_session):
        result = security_session.verify(
            "true", "l := h", "forall <a>, <b>. a(l) == b(l)"
        )
        assert result.refuted
        outcome = result.outcome
        assert isinstance(outcome, Refuted)
        assert outcome.backend == "syntactic-wp"
        assert outcome.witness is not None
        assert outcome.witness.pre_set and outcome.witness.post_set
        assert "initial set" in outcome.counterexample
        assert outcome.elapsed >= 0.0

    def test_task_describe_and_labels(self, security_session):
        task = security_session.task(GNI_PRE, GNI_PROG, GNI_POST, label="gni")
        assert isinstance(task, VerificationTask)
        assert task.describe().startswith("gni: ")
