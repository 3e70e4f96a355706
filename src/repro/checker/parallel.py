"""Intra-task parallelism: the partitioned mask-space scan.

``verify_many(sharding="process")`` parallelizes *across* tasks; this
module parallelizes *within* one.  The size-ordered candidate
enumeration behind the Def. 5 oracle is a pure function of ``(ids,
images, pre, post)`` — no candidate depends on any other — so it can be
tiled into contiguous index blocks and scanned independently:

1. the parent executes the image table once (``n`` executions through
   the shared :class:`~repro.checker.engine.ImageCache` mask tier) and
   prefilters the id list, exactly as the serial scan would;
2. each block ``[start, stop)`` of the global candidate index space is
   shipped to a persistent process pool together with the image masks,
   the wire-encoded assertions and the id list; workers rebuild
   compiled evaluators from a :class:`~repro.api.sharding.SessionSpec`
   recipe (amortized across scans by a per-process session) and resume
   the enumeration at ``start`` via combinatorial unranking
   (:meth:`~repro.checker.engine.CheckerEngine.scan_masks`'s ``start``
   parameter) — zero executions, zero prefilter recomputation;
3. the merge accepts the **lowest-index** refutation: a block that
   refutes cancels only blocks strictly *after* it (queued blocks are
   revoked, running ones observe a shared cut index and abort), while
   earlier blocks always run to completion, since one of them may still
   hold a lower-index counterexample.  The reported witness is
   therefore the first counterexample in enumeration order and
   ``checked_sets`` its index + 1 — byte-identical to the serial scan,
   which the ``parallel-vs-sequential`` conformance check enforces over
   the fuzz stream.

Scans are eligible when the engine is the compiled (bitset) engine over a
plain ``SessionSpec``-expressible universe (:class:`IntRange` grid, no
custom logical-variable domain), the assertions are wire-encodable
(semantic lambdas cannot cross a process boundary), the precondition is
not a pinned ``EqualsSet`` (a single candidate — nothing to partition)
and the enumeration is at least ``min_candidates`` long; everything
else silently falls back to the serial scan, whose semantics are the
ground truth either way.
"""

import atexit
import multiprocessing
import threading
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

from .engine import CheckResult, count_candidates

#: Workers re-read the shared cut index every this many candidates.
POLL_INTERVAL = 1024

#: Blocks per worker: over-partitioning keeps the pool busy when block
#: runtimes skew and bounds the work wasted by an early refutation.
BLOCK_FACTOR = 4

#: The shared cut index is a C int64; enumerations longer than this are
#: unpartitionable (and unfinishable by any engine).
MAX_TRACKABLE = 1 << 62

_W_SESSION = None
_W_CUT = None


def _pool_initializer(spec, cut):
    """Runs once in every worker process: build the session the blocks
    of this scanner will reuse, and adopt the shared cut index."""
    global _W_SESSION, _W_CUT
    _W_SESSION = spec.build()
    _W_CUT = cut


def _scan_block(payload):
    """Scan one contiguous block of the global candidate enumeration.

    Returns ``("refuted", global_index, chosen_mask, acc_mask, scanned)``
    on the block's first refutation, ``("cut", scanned)`` when the
    shared cut index proves no remaining candidate can improve the
    canonical witness, or ``("done", scanned)`` after a clean sweep.
    """
    from ..codec import from_wire

    session = _W_SESSION
    universe = session.universe
    # Mirror the parent's out-of-grid interning (program arithmetic can
    # step outside the declared grid; image masks refer to those ids).
    # Parent extras are append-only, so replaying the shipped prefix in
    # order keeps both tables aligned — verified, never assumed.
    base = len(universe.ext_states())
    for offset, doc in enumerate(payload["extras"]):
        if universe.index_of(from_wire(doc)) != base + offset:
            raise RuntimeError(
                "worker intern table out of step with parent at id %d"
                % (base + offset)
            )
    pre = from_wire(payload["pre"])
    post = from_wire(payload["post"])
    cut = _W_CUT
    start = payload["start"]
    span = payload["stop"] - start
    scanned = 0
    for chosen, acc, ok in session.engine.scan_masks(
        pre,
        None,  # images are shipped complete: the command is never run
        post,
        max_size=payload["cap"],
        max_states=payload["max_states"],
        prefilter=False,
        pin_equals_set=False,
        start=start,
        ids=payload["ids"],
        images=dict(payload["images"]),
    ):
        if not ok:
            return ("refuted", start + scanned, chosen, acc, scanned + 1)
        scanned += 1
        if scanned >= span:
            break
        if scanned % POLL_INTERVAL == 0 and cut.value <= start + scanned:
            return ("cut", scanned)
    return ("done", scanned)


class ParallelScanner:
    """Partitions one engine's eligible scans across a process pool.

    Owned lazily by a ``parallel=P``
    :class:`~repro.checker.engine.CheckerEngine`; one scanner per
    engine, one persistent pool per scanner (workers amortize session
    construction across scans), scans serialized by a lock (a
    ``verify_many`` thread pool over a parallel engine queues rather
    than oversubscribing the machine).
    """

    def __init__(self, engine, workers, min_candidates=None,
                 block_factor=BLOCK_FACTOR):
        self.engine = engine
        self.workers = int(workers)
        self.min_candidates = (
            engine.PARALLEL_MIN_CANDIDATES
            if min_candidates is None
            else min_candidates
        )
        self.block_factor = block_factor
        self.blocks = 0
        self.cancelled = 0
        self.scan_states = 0
        self._spec = self._session_spec()
        self._pool = None
        self._cut = None
        self._lock = threading.Lock()

    # -- eligibility -------------------------------------------------------
    def _session_spec(self):
        """The worker-session recipe, or ``None`` when this engine's
        universe cannot be rebuilt from a :class:`SessionSpec`."""
        from ..api.sharding import SessionSpec
        from ..values import IntRange

        universe = self.engine.universe
        domain = universe.domain
        if not isinstance(domain, IntRange):
            return None
        if universe.lvar_domain is not domain:
            return None
        return SessionSpec(
            pvars=universe.pvars,
            lo=domain.lo,
            hi=domain.hi,
            lvars=universe.lvars,
            entailment="sat",
            max_set_size=None,
        )

    def stats(self):
        return {
            "blocks": self.blocks,
            "cancelled": self.cancelled,
            "scan_states": self.scan_states,
        }

    # -- pool lifecycle ----------------------------------------------------
    def _ensure_pool(self):
        if self._pool is None:
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else None
            )
            self._cut = ctx.Value("q", 0)
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=ctx,
                initializer=_pool_initializer,
                initargs=(self._spec, self._cut),
            )
            atexit.register(self.close)
        return self._pool

    def close(self):
        """Shut down the pool (idempotent; rebuilt on next use)."""
        pool, self._pool = self._pool, None
        self._cut = None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    # -- the partitioned scan ----------------------------------------------
    def run(self, pre, command, post, max_size=None, max_states=100000,
            prefilter=True, expired=None):
        """Run one partitioned scan, or decline.

        Returns ``None`` when the scan is ineligible (caller falls back
        to the serial path), ``("done", CheckResult)`` on a verdict —
        byte-identical to the serial scan's — or ``("exhausted",
        checked)`` when the ``expired`` callable reported a blown
        budget first (workers are cut loose; the partial candidate
        count is best-effort, as the serial path's would be).
        """
        from ..assertions.semantic import EqualsSet
        from ..codec import WireError, to_wire

        engine = self.engine
        if self._spec is None or isinstance(pre, EqualsSet):
            return None
        universe = engine.universe
        ids = engine.filtered_ids(pre, prefilter)
        n = len(ids)
        cap = n if max_size is None else min(max_size, n)
        total = count_candidates(n, cap)
        if total < max(self.min_candidates, 2) or total > MAX_TRACKABLE:
            return None
        try:
            pre_doc = to_wire(pre)
            post_doc = to_wire(post)
        except (WireError, TypeError):
            return None  # semantic assertions cannot cross the boundary

        states = universe.ext_states()
        images = {}
        for i in ids:
            images[i] = engine.image_mask(command, states[i], max_states)
            if expired is not None and expired():
                return ("exhausted", 0)
        grid = len(states)
        extras = [
            to_wire(universe.state_of(j))
            for j in range(grid, universe.interned())
        ]

        with self._lock:
            try:
                return self._merge(
                    pre_doc, post_doc, extras, ids, images, cap, max_states,
                    total, expired,
                )
            except BrokenProcessPool:
                self.close()
                return None  # serial fallback decides the triple instead

    def _merge(self, pre_doc, post_doc, extras, ids, images, cap, max_states,
               total, expired):
        pool = self._ensure_pool()
        cut = self._cut
        cut.value = total  # sentinel: no refutation known yet
        blocks = max(1, min(total, self.workers * self.block_factor))
        base = {
            "pre": pre_doc,
            "post": post_doc,
            "extras": extras,
            "ids": ids,
            "images": images,
            "cap": cap,
            "max_states": max_states,
        }
        futures = {}
        for b in range(blocks):
            payload = dict(base)
            payload["start"] = total * b // blocks
            payload["stop"] = total * (b + 1) // blocks
            futures[pool.submit(_scan_block, payload)] = payload["start"]
        self.blocks += blocks

        best = None  # (global_index, chosen_mask, acc_mask)
        scanned = 0
        exhausted = False
        pending = set(futures)
        while pending:
            done, pending = wait(
                pending,
                timeout=None if expired is None else 0.05,
                return_when=FIRST_COMPLETED,
            )
            if expired is not None and not exhausted and expired():
                exhausted = True
                cut.value = -1  # every running block aborts at next poll
                for future in list(pending):
                    if future.cancel():
                        pending.discard(future)
                        self.cancelled += 1
            for future in done:
                block_start = futures[future]
                result = future.result()
                if result[0] == "refuted":
                    index = result[1]
                    scanned += result[4]
                    if best is None or index < best[0]:
                        best = (index, result[2], result[3])
                        if not exhausted:
                            cut.value = min(cut.value, index)
                        # blocks strictly after the refutation can no
                        # longer contribute the canonical witness;
                        # queued ones are revoked outright
                        for other in list(pending):
                            if futures[other] > index and other.cancel():
                                pending.discard(other)
                                self.cancelled += 1
                elif result[0] == "cut":
                    scanned += result[1]
                    self.cancelled += 1
                else:
                    scanned += result[1]
        self.scan_states += scanned

        if best is not None:
            index, chosen, acc = best
            states_of = self.engine.universe.states_of
            return (
                "done",
                CheckResult(False, states_of(chosen), states_of(acc),
                            index + 1),
            )
        if exhausted:
            return ("exhausted", scanned)
        return ("done", CheckResult(True, checked_sets=total))
