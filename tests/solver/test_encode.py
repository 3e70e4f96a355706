"""The hyper-assertion grounding: SAT verdicts must equal brute force,
and the binder-footprint memo must reproduce the direct expansion."""

import hashlib
from itertools import combinations

import pytest
from hypothesis import given, settings

from repro.assertions import gni, gni_violation
from repro.assertions.entail import entails
from repro.assertions.semantic import TRUE_H
from repro.assertions.sugar import box, emp_s, low, not_emp_s
from repro.assertions.syntax import (
    HLit,
    SAnd,
    SCmp,
    SExistsState,
    SExistsVal,
    SForallState,
    SForallVal,
    SOr,
    hv,
    lv,
    pv,
)
from repro.errors import EvaluationError
from repro.lang import parse_command
from repro.lang.expr import V
from repro.checker import Universe
from repro.logic import wp_syntactic
from repro.solver import encode
from repro.solver.encode import (
    Unsupported,
    entails_sat,
    entailment_model,
    ground_assertion,
    satisfiable_sat,
)
from repro.solver.formula import FAnd, FNot, FOr, FTrue, FVar
from repro.values import IntRange

from tests.strategies import hyper_assertions

UNI = Universe(["x", "y"], IntRange(0, 2))
STATES = UNI.ext_states()
D = UNI.domain


class TestGrounding:
    def test_box_grounds_to_implications(self):
        f = ground_assertion(box(V("x").eq(0)), STATES, D)
        # satisfiable (the empty set) but not valid
        from repro.solver.sat import solve_formula

        assert solve_formula(f) is not None

    def test_unsupported_semantic(self):
        with pytest.raises(Unsupported):
            ground_assertion(TRUE_H, STATES, D)

    def test_combinator_wrappers_ground(self):
        f = ground_assertion(low("x") & box(V("y").eq(0)), STATES, D)
        assert f is not None

    def test_negation_wrapper_grounds(self):
        from repro.assertions.semantic import NotAssertion

        f = ground_assertion(NotAssertion(emp_s), STATES, D)
        from repro.solver.sat import solve_formula

        assert solve_formula(f) is not None


class TestEntailmentAgreement:
    @given(hyper_assertions(max_depth=2), hyper_assertions(max_depth=2))
    @settings(max_examples=40, deadline=None)
    def test_sat_equals_brute(self, pre, post):
        small = Universe(["x", "y"], IntRange(0, 1))
        states = small.ext_states()
        assert entails_sat(pre, post, states, small.domain) == entails(
            pre, post, states, small.domain
        )

    def test_known_entailments(self):
        assert entails_sat(emp_s, low("x"), STATES, D)
        assert entails_sat(box(V("x").eq(1)), low("x"), STATES, D)
        assert not entails_sat(not_emp_s, low("x"), STATES, D)

    def test_model_is_real_counterexample(self):
        model = entailment_model(not_emp_s, low("x"), STATES, D)
        assert model is not None
        assert not_emp_s.holds(model, D)
        assert not low("x").holds(model, D)

    def test_model_none_when_entailed(self):
        assert entailment_model(emp_s, low("x"), STATES, D) is None

    def test_satisfiable_sat(self):
        assert satisfiable_sat(low("x"), STATES, D)
        assert not satisfiable_sat(emp_s & not_emp_s, STATES, D)


class TestScaling:
    def test_larger_universe_entailment(self):
        """27-state universe: 2^27 subsets — brute force is hopeless, the
        SAT encoding answers in milliseconds."""
        big = Universe(["x", "y", "z"], IntRange(0, 2))
        states = big.ext_states()
        assert len(states) == 27
        assert entails_sat(
            box(V("x").eq(0)) & box(V("y").eq(1)),
            low("x") & low("y"),
            states,
            big.domain,
        )
        assert not entails_sat(low("x"), low("y"), states, big.domain)


# ---------------------------------------------------------------------------
# the binder-footprint memo
# ---------------------------------------------------------------------------

PAPER = Universe(["h", "l", "y"], IntRange(0, 2))
PAPER_STATES = PAPER.ext_states()
PAPER_INDEX = {u: i for i, u in enumerate(PAPER_STATES)}
C3 = parse_command("y := nonDet(); l := h xor y")
C4 = parse_command("y := nonDet(); assume y <= 1; l := h + y")


def _ground_direct(monkeypatch, assertion, states, domain):
    """Ground with every quantifier expanded directly (no footprint memo)."""
    with monkeypatch.context() as m:
        m.setattr(encode, "_footprint", lambda node: None)
        return ground_assertion(assertion, states, domain)


def _outcome(fn):
    try:
        return ("ok", fn())
    except Exception as exc:  # compared by type and message
        return ("raised", type(exc), str(exc))


def _models_agree(assertion, states, domain):
    """The grounded formula's models are exactly the sets satisfying
    ``assertion`` (every subset of a small universe)."""
    formula = ground_assertion(assertion, states, domain)
    for size in range(len(states) + 1):
        for subset in combinations(states, size):
            chosen = set(subset)
            model = {("member", u): u in chosen for u in states}
            assert formula.evaluate(model) == assertion.holds(subset, domain)


def _digest(formula):
    """A structural digest, linear in the DAG (shared nodes walked once)."""
    memo = {}

    def walk(f):
        hit = memo.get(id(f))
        if hit is not None:
            return hit[1]
        if isinstance(f, FVar):
            text = "v%r" % (f.name,)
        elif isinstance(f, FNot):
            text = "n" + walk(f.operand)
        elif isinstance(f, (FAnd, FOr)):
            tag = "a" if isinstance(f, FAnd) else "o"
            text = tag + ",".join(walk(p) for p in f.parts)
        else:
            text = "t" if isinstance(f, FTrue) else "f"
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        memo[id(f)] = (f, digest)
        return digest

    return walk(formula)


SMALL = Universe(["x", "y"], IntRange(0, 1), lvars=["t"])
SMALL_STATES = SMALL.ext_states()


class TestFootprint:
    def test_reads_of_outer_states_and_values_only(self):
        node = SForallState(
            "φ",
            SAnd(
                SCmp("==", pv("φ", "x"), pv("ψ", "x")),
                SExistsVal("v", SCmp("<", hv("v"), lv("ψ", "t") + hv("w"))),
            ),
        )
        assert encode._footprint(node) == ((("ψ", "x"),), (("ψ", "t"),), ("w",))

    def test_shadowing_state_binder(self):
        # the inner ∀⟨φ⟩ rebinds φ: its φ(y) is not a read of the outer φ
        inner = SForallState("φ", SCmp("==", pv("φ", "y"), pv("ψ", "y")))
        assert encode._footprint(inner) == ((("ψ", "y"),), (), ())
        outer = SExistsState("ψ", SAnd(SCmp("==", pv("φ", "x"), HLit(0)), inner))
        assert encode._footprint(outer) == ((("φ", "x"),), (), ())

    def test_shadowing_value_binder(self):
        inner = SExistsVal("v", SCmp("==", hv("v"), pv("φ", "x")))
        outer = SForallVal("v", SOr(SCmp("<", hv("v"), HLit(1)), inner))
        assert encode._footprint(inner) == ((("φ", "x"),), (), ())
        assert encode._footprint(SForallState("φ", outer)) == ((), (), ())

    def test_outside_the_fragment_is_none(self):
        assert encode._footprint(SForallState("φ", TRUE_H)) is None


class TestFootprintMemo:
    """Memoised grounding equals the direct expansion, error for error."""

    CASES = {
        # ∀⟨φ⟩. … ∀⟨φ⟩. … — the inner binder shadows the outer one
        "shadowed-state": SForallState(
            "φ",
            SExistsState(
                "ψ",
                SAnd(
                    SCmp("==", pv("ψ", "x"), pv("φ", "x")),
                    SForallState("φ", SCmp("<=", pv("φ", "y"), pv("ψ", "y"))),
                ),
            ),
        ),
        # a value-variable name reused by a nested binder
        "shadowed-value": SForallState(
            "φ",
            SForallVal(
                "v",
                SOr(
                    SCmp("!=", hv("v"), pv("φ", "x")),
                    SExistsState(
                        "ψ",
                        SExistsVal("v", SCmp("==", hv("v"), pv("ψ", "y") + pv("φ", "y"))),
                    ),
                ),
            ),
        ),
        # φ_L reads must be part of the footprint
        "log-reads": SForallState(
            "φ",
            SExistsState(
                "ψ",
                SAnd(
                    SCmp("==", lv("φ", "t"), lv("ψ", "t")),
                    SCmp("!=", pv("φ", "x"), pv("ψ", "x")),
                ),
            ),
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_equal_to_direct_expansion(self, monkeypatch, name):
        assertion = self.CASES[name]
        memoised = ground_assertion(assertion, SMALL_STATES, SMALL.domain)
        direct = _ground_direct(monkeypatch, assertion, SMALL_STATES, SMALL.domain)
        assert memoised == direct

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_models_are_the_satisfying_sets(self, name):
        states = SMALL_STATES[:4] + SMALL_STATES[-2:]
        _models_agree(self.CASES[name], states, SMALL.domain)

    @pytest.mark.parametrize(
        "assertion",
        [
            SForallState("φ", SCmp("==", pv("ψ", "x"), pv("φ", "x"))),  # unbound ψ
            SForallState("φ", SCmp("==", hv("w"), pv("φ", "x"))),  # unbound w
            SForallState("φ", SForallState("ψ", SCmp("==", pv("φ", "nope"), HLit(0)))),
            SForallState("φ", SForallState("ψ", SCmp("==", lv("φ", "nope"), HLit(0)))),
            # short-circuited before the unbound read: no error either way
            SForallState(
                "φ",
                SForallVal(
                    "v",
                    SAnd(SCmp("==", pv("φ", "x"), HLit(5)), SCmp("==", hv("w"), HLit(0))),
                ),
            ),
        ],
        ids=["state", "value", "prog-var", "log-var", "short-circuit"],
    )
    def test_unbound_reads_behave_as_direct(self, monkeypatch, assertion):
        memoised = _outcome(lambda: ground_assertion(assertion, SMALL_STATES, SMALL.domain))
        direct = _outcome(
            lambda: _ground_direct(monkeypatch, assertion, SMALL_STATES, SMALL.domain)
        )
        assert memoised == direct

    def test_unbound_variables_raise_evaluation_error(self):
        for assertion, message in (
            (SForallState("φ", SCmp("==", pv("ψ", "x"), HLit(0))), "unbound state variable 'ψ'"),
            (SExistsState("φ", SCmp("==", hv("w"), HLit(0))), "unbound value variable 'w'"),
        ):
            with pytest.raises(EvaluationError, match=message):
                ground_assertion(assertion, SMALL_STATES, SMALL.domain)

    def test_repeated_footprint_shares_one_formula(self):
        # ∀⟨φ⟩. ∃⟨ψ⟩. ψ(x) == φ(x): the inner node reads only φ(x), so
        # states agreeing on x get the very same grounded subformula
        node = SForallState("φ", SExistsState("ψ", SCmp("==", pv("ψ", "x"), pv("φ", "x"))))
        formula = ground_assertion(node, SMALL_STATES, SMALL.domain)
        inner = [clause.parts[1] for clause in formula.parts]
        assert len({id(f) for f in inner}) == 2  # x ∈ {0, 1}


class TestPaperWorkloads:
    def test_c4_gni_violation_wp_as_on_the_direct_grounder(self):
        """Fig. 4's wp at 27 states grounds to the formula the direct
        (memo-free) expansion produces; the digest was pinned from it."""
        wp = wp_syntactic(C4, gni_violation("h", "l"))
        formula = ground_assertion(
            wp, PAPER_STATES, PAPER.domain, atom=PAPER_INDEX.__getitem__
        )
        assert _digest(formula) == "802926c5dd1c990b"

    def test_c3_gni_wp_comparison_count_is_bounded(self, monkeypatch):
        """Grounding C3's GNI wp at 27 states evaluates 285 comparisons;
        the direct expansion evaluates 527,067."""
        count = [0]
        real = encode.compile_cmp

        def counting_compile_cmp(op):
            fn = real(op)

            def counted(a, b):
                count[0] += 1
                return fn(a, b)

            return counted

        monkeypatch.setattr(encode, "compile_cmp", counting_compile_cmp)
        wp = wp_syntactic(C3, gni("l", "h"))
        ground_assertion(wp, PAPER_STATES, PAPER.domain, atom=PAPER_INDEX.__getitem__)
        assert 0 < count[0] <= 1000
