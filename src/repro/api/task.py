"""Units of work for the pluggable verification API.

A :class:`VerificationTask` is one hyper-triple ``{pre} command {post}``
(plus optional Fig. 5 loop annotations), fully parsed; a
:class:`Budget` is a cooperative wall-clock allowance for one backend
attempt.  What a backend reports back is an
:class:`~repro.api.outcome.Outcome` from the closed algebra
``Proved(proof)`` / ``Refuted(witness)`` / ``Undecided(reason)``.
"""

import time
from dataclasses import dataclass
from typing import Optional

from ..assertions.base import Assertion
from ..codec.mixin import WireCodec
from ..lang.ast import Command

#: The one clock every API timing reads (budgets, attempt/report elapsed).
#: ``time.monotonic`` is immune to wall-clock adjustments (NTP slews,
#: manual clock changes), so recorded ``elapsed`` values can never go
#: negative mid-batch; keeping a single aliased source also lets tests
#: substitute a fake clock in one place.
clock = time.monotonic


def infer_variables(command, assertions):
    """The program/logical variables a triple mentions, sorted.

    The default universe of the CLI and of the verification service:
    everything the program reads or writes plus everything the (syntactic)
    assertions look up.  Returns ``(pvars, lvars)``.
    """
    from ..assertions.syntax import SynAssertion
    from ..lang.analysis import read_vars, written_vars

    pvars = set(written_vars(command)) | set(read_vars(command))
    lvars = set()
    for assertion in assertions:
        if isinstance(assertion, SynAssertion):
            pvars |= set(assertion.free_prog_vars())
            lvars |= set(assertion.free_log_vars())
    return sorted(pvars), sorted(lvars)


@dataclass(frozen=True)
class VerificationTask(WireCodec):
    """One hyper-triple to verify, with optional loop annotations.

    ``invariant`` is the WhileSync invariant consumed by
    :class:`~repro.api.backends.LoopBackend`; straight-line and oracle
    backends ignore it.  ``label`` is a free-form tag surfaced in
    :meth:`~repro.api.session.Report.summary`.

    Tasks are wire-serializable (:meth:`to_wire`) when their assertions
    are syntactic — that document, not an ad-hoc text re-encoding, is
    what :mod:`repro.api.sharding` ships to worker processes.
    """

    pre: Assertion
    command: Command
    post: Assertion
    invariant: Optional[Assertion] = None
    label: str = ""

    def describe(self):
        head = "%s: " % self.label if self.label else ""
        return "%s{%s} %r {%s}" % (
            head,
            self.pre.describe(),
            self.command,
            self.post.describe(),
        )


class Budget:
    """A cooperative wall-clock budget for one backend attempt.

    Backends poll :attr:`expired` inside their enumeration loops and bail
    out with an inconclusive :class:`~repro.api.outcome.Undecided` when
    it trips — nothing is preempted, so a single very slow step can still
    overrun.  ``Budget(None)`` never expires.
    """

    __slots__ = ("seconds", "_deadline")

    def __init__(self, seconds=None):
        self.seconds = seconds
        self._deadline = None if seconds is None else clock() + seconds

    @property
    def expired(self):
        return self._deadline is not None and clock() >= self._deadline

    def remaining(self):
        """Seconds left, or ``None`` for an unlimited budget."""
        if self._deadline is None:
            return None
        return max(0.0, self._deadline - clock())

    def __repr__(self):
        if self.seconds is None:
            return "Budget(unlimited)"
        return "Budget(%.3gs, %.3gs left)" % (self.seconds, self.remaining())


def as_outcome(result):
    """Check that a backend returned an :class:`Outcome`, and return it."""
    from .outcome import Outcome

    if isinstance(result, Outcome):
        return result
    raise TypeError("backends must return an Outcome, got %r" % (result,))
