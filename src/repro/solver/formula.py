"""Propositional formulas.

Atoms are identified by arbitrary hashable names.  Constructors perform
light simplification (constant folding, flattening) so that grounded
hyper-assertions stay small.

Formulas are frozen dataclasses compared structurally.  The atom and
connective nodes cache their hash on first use, as
:class:`~repro.semantics.state.ExtState` does: the grounder shares
subformulas across quantifier instantiations, and
:class:`~repro.solver.encode.IncrementalEntailment` keys its literal
memo by whole formulas, so the dataclass hash would re-walk every
shared subtree on every lookup.  The cache is dropped on pickling and
recomputed on load, since string hashes differ between processes.
"""

from dataclasses import dataclass
from typing import Tuple


class Formula:
    """Abstract base of propositional formulas."""

    def evaluate(self, assignment):
        """Truth value under ``assignment`` (dict name -> bool)."""
        raise NotImplementedError

    def atoms(self):
        """The set of atom names occurring in the formula."""
        raise NotImplementedError

    def __and__(self, other):
        return fand(self, other)

    def __or__(self, other):
        return f_or(self, other)

    def __invert__(self):
        return fnot(self)

    def _fields(self):
        """The dataclass fields' values, in order (none here)."""
        return ()

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(self._fields())  # the dataclass hash, computed once
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        # rebuild from the fields alone: a pickled ``_hash`` would be
        # stale under another PYTHONHASHSEED
        return (type(self), self._fields())


@dataclass(frozen=True)
class FTrue(Formula):
    """The constant ``true``."""

    def evaluate(self, assignment):
        return True

    def atoms(self):
        return frozenset()


@dataclass(frozen=True)
class FFalse(Formula):
    """The constant ``false``."""

    def evaluate(self, assignment):
        return False

    def atoms(self):
        return frozenset()


@dataclass(frozen=True)
class FVar(Formula):
    """An atom."""

    __hash__ = Formula.__hash__  # keep the cached hash (dataclass replaces it)

    name: object

    def _fields(self):
        return (self.name,)

    def evaluate(self, assignment):
        return bool(assignment[self.name])

    def atoms(self):
        return frozenset((self.name,))


@dataclass(frozen=True)
class FNot(Formula):
    """Negation."""

    __hash__ = Formula.__hash__  # keep the cached hash (dataclass replaces it)

    operand: Formula

    def _fields(self):
        return (self.operand,)

    def evaluate(self, assignment):
        return not self.operand.evaluate(assignment)

    def atoms(self):
        return self.operand.atoms()


@dataclass(frozen=True)
class FAnd(Formula):
    """N-ary conjunction."""

    __hash__ = Formula.__hash__  # keep the cached hash (dataclass replaces it)

    parts: Tuple[Formula, ...]

    def _fields(self):
        return (self.parts,)

    def evaluate(self, assignment):
        return all(p.evaluate(assignment) for p in self.parts)

    def atoms(self):
        out = frozenset()
        for p in self.parts:
            out |= p.atoms()
        return out


@dataclass(frozen=True)
class FOr(Formula):
    """N-ary disjunction."""

    __hash__ = Formula.__hash__  # keep the cached hash (dataclass replaces it)

    parts: Tuple[Formula, ...]

    def _fields(self):
        return (self.parts,)

    def evaluate(self, assignment):
        return any(p.evaluate(assignment) for p in self.parts)

    def atoms(self):
        out = frozenset()
        for p in self.parts:
            out |= p.atoms()
        return out


def fvar(name):
    """Atom constructor."""
    return FVar(name)


def fnot(operand):
    """Simplifying negation."""
    if isinstance(operand, FTrue):
        return FFalse()
    if isinstance(operand, FFalse):
        return FTrue()
    if isinstance(operand, FNot):
        return operand.operand
    return FNot(operand)


def fand(*parts):
    """Simplifying, flattening conjunction."""
    flat = []
    for p in parts:
        if isinstance(p, FTrue):
            continue
        if isinstance(p, FFalse):
            return FFalse()
        if isinstance(p, FAnd):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return FTrue()
    if len(flat) == 1:
        return flat[0]
    return FAnd(tuple(flat))


def f_or(*parts):
    """Simplifying, flattening disjunction."""
    flat = []
    for p in parts:
        if isinstance(p, FFalse):
            continue
        if isinstance(p, FTrue):
            return FTrue()
        if isinstance(p, FOr):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return FFalse()
    if len(flat) == 1:
        return flat[0]
    return FOr(tuple(flat))


def fimplies(a, b):
    """``a ⇒ b``."""
    return f_or(fnot(a), b)
