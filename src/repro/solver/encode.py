"""Grounding syntactic hyper-assertions into propositional logic.

Over a finite universe ``U`` of extended states, a set ``S ⊆ U`` is
described by one Boolean *membership atom* per state.  A Def. 9 assertion
grounds as:

- ``∀⟨φ⟩. A``  ⟶  ``⋀_{u∈U} (m_u → ⟦A⟧[φ:=u])``
- ``∃⟨φ⟩. A``  ⟶  ``⋁_{u∈U} (m_u ∧ ⟦A⟧[φ:=u])``
- value quantifiers expand over the finite domain,
- closed atomic comparisons evaluate to constants.

``P |= Q`` then reduces to UNSAT of ``⟦P⟧ ∧ ¬⟦Q⟧`` — the same shape of
reduction the Hypra verifier performs with Z3, here with our own CDCL solver.

The grounding pass is compile-once per query: each distinct comparison
leaf is lowered to a closure (:func:`repro.compile.hyper.compile_hexpr`)
the first time it is seen, the per-state atom literals are built once
up front, and quantifier instantiation mutates a single binding
environment (set/restore) instead of copying a dict per instantiation —
the ``U^depth × |D|^vals`` leaf evaluations are then plain closure
calls.  The solver-facing entry points additionally key their atoms by
the state's *interned id* (its position in the universe tuple), so the
formula, CNF and DPLL layers hash machine ints instead of whole
extended states.
"""

from ..assertions.base import Assertion
from ..assertions.semantic import AndAssertion, NotAssertion, OrAssertion
from ..assertions.syntax import (
    SAnd,
    SBool,
    SCmp,
    SExistsState,
    SExistsVal,
    SForallState,
    SForallVal,
    SOr,
    SynAssertion,
)
import threading

from ..compile.hyper import compile_cmp, compile_hexpr
from ..errors import SolverError
from .formula import FAnd, FFalse, FNot, FOr, FTrue, FVar, f_or, fand, fnot, fvar
from .sat import IncrementalSolver, solve_formula

_MISSING = object()


class Unsupported(Exception):
    """Raised when an assertion is outside the groundable fragment."""


def _membership_atom(state):
    return ("member", state)


def _interned_atom(universe):
    """Membership atoms keyed by interned id — ``("m", i)`` for the
    ``i``-th state of ``universe`` — so every downstream dictionary
    (formula dedup, CNF mapping, DPLL assignments and watch lists)
    hashes a small int instead of a whole extended state."""
    index = {u: ("m", i) for i, u in enumerate(universe)}
    return index.__getitem__


def ground_assertion(
    assertion, universe, domain, sigma_env=None, delta_env=None, atom=_membership_atom
):
    """Ground ``assertion`` to a propositional formula over membership atoms.

    ``universe`` is the tuple of all extended states; the resulting
    formula's atoms are ``atom(φ)`` pairs — ``("member", φ)`` by default.
    The symbolic validity encoder passes distinct ``atom`` constructors to
    keep the precondition's selector namespace and the postcondition's
    post-state namespace apart within one query.
    """
    grounder = _Grounder(tuple(universe), domain, atom)
    return grounder.ground(assertion, dict(sigma_env or {}), dict(delta_env or {}))


class _Grounder:
    """One grounding pass over one universe/atom namespace.

    Holds the prebuilt positive/negative atom literals (one pair per
    state id) and the memo of compiled comparison closures; the
    recursion threads two *mutable* binding environments, restoring
    each binding on exit instead of copying the dict per instantiation.
    """

    __slots__ = ("universe", "domain", "pos", "neg", "_cmps")

    def __init__(self, universe, domain, atom):
        self.universe = universe
        self.domain = domain
        self.pos = tuple(fvar(atom(u)) for u in universe)
        self.neg = tuple(fnot(v) for v in self.pos)
        self._cmps = {}

    def _cmp_fn(self, node):
        # keyed by node identity: the assertion tree outlives the pass,
        # so ids are stable for its duration
        fn = self._cmps.get(id(node))
        if fn is None:
            op = compile_cmp(node.op)
            left = compile_hexpr(node.left)
            right = compile_hexpr(node.right)

            def fn(sigma, delta, op=op, left=left, right=right):
                return op(left(sigma, delta), right(sigma, delta))

            self._cmps[id(node)] = fn
        return fn

    def ground(self, node, sigma, delta):
        # semantic combinator wrappers around syntactic parts remain groundable
        if isinstance(node, AndAssertion):
            return fand(*(self.ground(p, sigma, delta) for p in node.parts))
        if isinstance(node, OrAssertion):
            return f_or(*(self.ground(p, sigma, delta) for p in node.parts))
        if isinstance(node, NotAssertion):
            return fnot(self.ground(node.operand, sigma, delta))
        if not isinstance(node, SynAssertion):
            raise Unsupported("cannot ground %r" % (node,))

        if isinstance(node, SBool):
            return FTrue() if node.value else FFalse()
        if isinstance(node, SCmp):
            return FTrue() if self._cmp_fn(node)(sigma, delta) else FFalse()
        if isinstance(node, SAnd):
            left = self.ground(node.left, sigma, delta)
            if isinstance(left, FFalse):  # mirror `and` short-circuit
                return left
            return fand(left, self.ground(node.right, sigma, delta))
        if isinstance(node, SOr):
            left = self.ground(node.left, sigma, delta)
            if isinstance(left, FTrue):  # mirror `or` short-circuit
                return left
            return f_or(left, self.ground(node.right, sigma, delta))
        if isinstance(node, (SForallVal, SExistsVal)):
            name = node.var
            body = node.body
            universal = isinstance(node, SForallVal)
            absorbing = FFalse if universal else FTrue
            old = delta.get(name, _MISSING)
            parts = []
            for v in self.domain:
                delta[name] = v
                part = self.ground(body, sigma, delta)
                if isinstance(part, absorbing):  # decided: skip the rest
                    parts = [part]
                    break
                parts.append(part)
            if old is _MISSING:
                delta.pop(name, None)  # empty domain: never bound
            else:
                delta[name] = old
            return fand(*parts) if universal else f_or(*parts)
        if isinstance(node, (SForallState, SExistsState)):
            name = node.state
            body = node.body
            old = sigma.get(name, _MISSING)
            parts = []
            if isinstance(node, SForallState):
                lits, combine, inner = self.neg, fand, f_or
            else:
                lits, combine, inner = self.pos, f_or, fand
            for i, u in enumerate(self.universe):
                sigma[name] = u
                parts.append(inner(lits[i], self.ground(body, sigma, delta)))
            if old is _MISSING:
                sigma.pop(name, None)  # empty universe: never bound
            else:
                sigma[name] = old
            return combine(*parts)
        raise Unsupported("cannot ground %r" % (node,))


def entails_sat(pre, post, universe, domain, atom=None):
    """Decide ``pre |= post`` over subsets of ``universe`` via SAT.

    Encodes ``⟦pre⟧ ∧ ¬⟦post⟧`` and reports entailment iff it is UNSAT.
    Raises :class:`Unsupported` when either side cannot be grounded.
    With ``atom=None`` the membership atoms are keyed by interned state
    id (they never leave this function).
    """
    if not isinstance(pre, Assertion) or not isinstance(post, Assertion):
        raise Unsupported("operands must be assertions")
    universe = tuple(universe)
    if atom is None:
        atom = _interned_atom(universe)
    query = fand(
        ground_assertion(pre, universe, domain, atom=atom),
        fnot(ground_assertion(post, universe, domain, atom=atom)),
    )
    return solve_formula(query) is None


class IncrementalEntailment:
    """Entailment queries over one universe on a *persistent* solver.

    :func:`entails_sat` pays the full pipeline per query — ground,
    Tseitin-encode into a fresh CNF, solve from scratch — although a
    chain run issues thousands of near-identical queries over the same
    membership atoms.  This class keeps one
    :class:`~repro.solver.sat.IncrementalSolver` alive for the
    universe's lifetime and exploits two structural facts:

    1. the Tseitin encoding (:func:`~repro.solver.cnf.tseitin`) emits
       *biconditional* definitions — each definition clause set is a
       conservative extension, true in every model — so definitional
       clauses can be added once, globally, and shared by all queries;
    2. a query is then a single solver call under one **assumption**
       (the root literal of ``⟦pre⟧ ∧ ¬⟦post⟧``): UNSAT under the
       assumption iff entailed.  No per-query activation groups means
       clauses learned refuting one query carry over undiminished to
       the next.

    Subformula encodings are memoized structurally (formulas are frozen
    dataclasses), so shared subtrees across queries — the common case:
    the same ``pre`` against many ``post``\\ s — encode once; grounded
    formulas are additionally cached per assertion object, skipping the
    grounding walk entirely on repeats.  Verdicts are identical to
    :func:`entails_sat`, which the solver tests assert; thread-safe
    (one lock per instance, matching the oracle's sharing).
    """

    def __init__(self, universe, domain):
        self.universe = tuple(universe)
        self.domain = domain
        self._atom = _interned_atom(self.universe)
        self._solver = IncrementalSolver()
        self._atom_vars = {}  # atom key -> solver variable
        self._lits = {}  # formula (structural) -> solver literal
        self._grounded = {}  # id(assertion) -> (assertion ref, formula)
        self._lock = threading.Lock()
        self.queries = 0

    def _ground(self, assertion):
        entry = self._grounded.get(id(assertion))
        if entry is not None and entry[0] is assertion:
            return entry[1]
        formula = ground_assertion(
            assertion, self.universe, self.domain, atom=self._atom
        )
        # keyed by identity, the ref in the value keeps the id stable
        self._grounded[id(assertion)] = (assertion, formula)
        return formula

    def _lit(self, formula):
        """The solver literal defined (once) to be ``formula``."""
        lit = self._lits.get(formula)
        if lit is not None:
            return lit
        solver = self._solver
        if isinstance(formula, FVar):
            var = self._atom_vars.get(formula.name)
            if var is None:
                var = solver.new_var()
                self._atom_vars[formula.name] = var
            lit = var
        elif isinstance(formula, FTrue):
            lit = solver.new_var()
            solver.add_clause((lit,))
        elif isinstance(formula, FFalse):
            var = solver.new_var()
            solver.add_clause((-var,))
            lit = var
        elif isinstance(formula, FNot):
            lit = -self._lit(formula.operand)
        elif isinstance(formula, (FAnd, FOr)):
            parts = [self._lit(part) for part in formula.parts]
            var = solver.new_var()
            if isinstance(formula, FAnd):
                for part in parts:
                    solver.add_clause((-var, part))
                solver.add_clause(tuple(-part for part in parts) + (var,))
            else:
                solver.add_clause((-var,) + tuple(parts))
                for part in parts:
                    solver.add_clause((-part, var))
            lit = var
        else:
            raise SolverError("cannot encode %r" % (formula,))
        self._lits[formula] = lit
        return lit

    def entails(self, pre, post):
        """``pre |= post`` over subsets of the universe.

        Raises :class:`Unsupported` when either side cannot be
        grounded (callers fall back to brute force, exactly as with
        :func:`entails_sat`).
        """
        if not isinstance(pre, Assertion) or not isinstance(post, Assertion):
            raise Unsupported("operands must be assertions")
        with self._lock:
            query = fand(self._ground(pre), fnot(self._ground(post)))
            root = self._lit(query)
            self.queries += 1
            return self._solver.solve(assumptions=(root,)) is None


def entailment_model(pre, post, universe, domain, atom=None):
    """A counterexample set ``S`` with ``pre(S) ∧ ¬post(S)`` via SAT.

    Returns a frozenset of extended states, or ``None`` when entailed.
    """
    universe = tuple(universe)
    if atom is None:
        atom = _interned_atom(universe)
    query = fand(
        ground_assertion(pre, universe, domain, atom=atom),
        fnot(ground_assertion(post, universe, domain, atom=atom)),
    )
    model = solve_formula(query)
    if model is None:
        return None
    return frozenset(u for u in universe if model.get(atom(u), False))


def satisfiable_sat(assertion, universe, domain, atom=None):
    """Whether some subset of ``universe`` satisfies ``assertion`` (SAT)."""
    universe = tuple(universe)
    if atom is None:
        atom = _interned_atom(universe)
    return (
        solve_formula(ground_assertion(assertion, universe, domain, atom=atom))
        is not None
    )
