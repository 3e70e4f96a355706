"""Process-parallel sharded batch verification.

:func:`verify_many_sharded` is the engine behind
``Session.verify_many(..., sharding="process")``: it fans a batch out
over worker *processes*, sidestepping the GIL for the CPU-bound oracle
enumeration that dominates exhaustive verification.

Design constraints, and how they shape the transport:

- **Everything crosses the boundary as wire documents.**  Tasks ship to
  workers as :mod:`repro.codec` ``task`` documents and come back as
  ``proved`` / ``refuted`` / ``undecided`` outcome documents — the same
  versioned encoding caches and the ``--json`` CLI speak.  A sharded
  report is therefore indistinguishable from an inline one: proof trees
  and counterexample witnesses round-trip intact (``from_wire(to_wire
  (x)) == x``), not as elision notes or flattened text.  Tasks with
  non-syntactic (semantic) assertions are rejected up front with a clear
  error, because only syntactic assertions have a stable encoding.
- **Each shard owns its caches.**  Workers rebuild the parent session's
  configuration from a :class:`SessionSpec` via a pool initializer; every
  worker process therefore has a private
  :class:`~repro.checker.engine.ImageCache` and entailment cache that
  persist across all chunks that process executes.  Nothing is shared,
  so there is no cross-process locking on the hot path.
- **Custom backend chains are refused.**  There is no picklable recipe
  for arbitrary backend objects; sharded sessions always run the
  :func:`~repro.api.session.default_backends` chain for their
  ``max_set_size``.

Result order always matches input order (chunks are dealt round-robin
and reassembled by index).
"""

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Tuple

from ..codec import WireError, from_wire, to_wire
from . import task as _task_mod
from .session import Report, Session, TaskResult, counter_deltas

#: Upper bound on the default shard count — beyond a handful of shards
#: the per-shard image/entailment caches stop amortizing.
DEFAULT_MAX_SHARDS = 4


def default_shards():
    """``min(4, cpu count)`` — the sensible default shard count."""
    return max(1, min(DEFAULT_MAX_SHARDS, os.cpu_count() or 1))


@dataclass(frozen=True)
class SessionSpec:
    """A picklable recipe that rebuilds a session in a worker process."""

    pvars: Tuple[str, ...]
    lo: int
    hi: int
    lvars: Tuple[str, ...]
    entailment: str
    max_set_size: Optional[int]
    max_image_entries: Optional[int] = None
    intra_task_workers: Optional[int] = None

    @classmethod
    def of(cls, session):
        """The spec of an existing :class:`~repro.api.session.Session`.

        Refuses sessions that cannot be faithfully rebuilt from
        constructor arguments (custom backend chains, non-``IntRange``
        domains).
        """
        if session.has_custom_backends:
            raise ValueError(
                "process sharding cannot ship a custom backend chain to "
                "worker processes; use the default chain (optionally with "
                "max_set_size) or thread-based max_workers instead"
            )
        domain = session.universe.domain
        if not hasattr(domain, "lo") or not hasattr(domain, "hi"):
            raise ValueError(
                "process sharding requires an IntRange domain, got %r" % (domain,)
            )
        return cls(
            pvars=tuple(session.universe.pvars),
            lo=domain.lo,
            hi=domain.hi,
            lvars=tuple(session.universe.lvars),
            entailment=session.entailment,
            max_set_size=session.max_set_size,
            max_image_entries=session.images.max_entries,
            intra_task_workers=session.intra_task_workers,
        )

    def build(self):
        return Session(
            self.pvars,
            lo=self.lo,
            hi=self.hi,
            lvars=self.lvars,
            entailment=self.entailment,
            max_set_size=self.max_set_size,
            max_image_entries=self.max_image_entries,
            intra_task_workers=self.intra_task_workers,
        )


def encode_task(task):
    """The wire document a task crosses the process boundary as.

    Raises :class:`ValueError` for tasks whose assertions have no stable
    wire encoding (semantic assertions wrapping Python callables).
    """
    try:
        return to_wire(task)
    except WireError as err:
        raise ValueError(
            "process sharding needs syntactic assertions (tasks cross the "
            "process boundary as wire documents): %s" % err
        )


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

#: The per-process session, built once by the pool initializer; every
#: chunk this process executes shares its image and entailment caches.
_WORKER_SESSION = None


def _init_worker(spec):
    global _WORKER_SESSION
    _WORKER_SESSION = spec.build()


def _run_chunk(chunk, budgets):
    """Verify one chunk of task documents → outcome documents + the
    worker session's counter deltas (keyed by ``Report`` field)."""
    session = _WORKER_SESSION

    def run():
        out = []
        for index, document in chunk:
            result = session._run_task(from_wire(document), None, budgets)
            out.append((index, [to_wire(o) for o in result.outcomes]))
        return out

    try:
        return counter_deltas(session, run)
    finally:
        # tear the nested intra-task pool down while this shard worker is
        # still alive: leaving it to interpreter-exit atexit hooks
        # deadlocks the executor join (the engine rebuilds the pool
        # lazily if this worker picks up another chunk)
        session.engine.close()


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


def verify_many_sharded(session, tasks, shards=None, backends=None, budgets=None):
    """Run a batch over ``shards`` worker processes → a :class:`Report`.

    The parent normalizes and encodes every task (so parse and encoding
    errors surface before any process is spawned), deals them
    round-robin into ``shards`` chunks, and reassembles worker outcome
    documents by index.  The decoded outcomes — proofs and witnesses
    included — compare equal to what an inline run produces.
    """
    if backends is not None:
        raise ValueError(
            "process sharding cannot ship per-call backend overrides; "
            "configure the session's default chain instead"
        )
    spec = SessionSpec.of(session)
    normalized = [session.task(t) for t in tasks]
    encoded = [(i, encode_task(t)) for i, t in enumerate(normalized)]
    if shards is None:
        shards = default_shards()
    if shards < 1:
        raise ValueError("shards must be >= 1, got %d" % shards)
    shards = min(shards, max(1, len(encoded)))
    allowances = dict(session.budgets if budgets is None else budgets)

    chunks = [encoded[k::shards] for k in range(shards)]
    started = _task_mod.clock()
    outcomes_by_index = {}
    totals = {}
    with ProcessPoolExecutor(
        max_workers=shards, initializer=_init_worker, initargs=(spec,)
    ) as pool:
        futures = [pool.submit(_run_chunk, chunk, allowances) for chunk in chunks]
        for future in futures:
            rows, deltas = future.result()
            for name, value in deltas.items():
                totals[name] = totals.get(name, 0) + value
            for index, documents in rows:
                outcomes_by_index[index] = tuple(from_wire(d) for d in documents)
    elapsed = _task_mod.clock() - started
    results = tuple(
        TaskResult(task, outcomes_by_index[i]) for i, task in enumerate(normalized)
    )
    return Report(results, elapsed=elapsed, **totals)
