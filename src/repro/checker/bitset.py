"""Mask algebra over interned extended-state ids.

A :class:`~repro.checker.universe.Universe` interns every extended state
to a dense integer id (see :meth:`~repro.checker.universe.Universe.
index_of`); a *mask* is a Python int whose bit ``i`` is set iff the
state with id ``i`` is in the set.  Every set operation the Def. 5
enumeration performs then becomes a machine-word op on arbitrary-
precision ints:

- union:        ``a | b``
- intersection: ``a & b``
- difference:   ``a & ~b``
- membership:   ``(mask >> i) & 1``
- subset:       ``a & b == a``
- size:         :func:`popcount`
- iteration:    :func:`iter_bits` — ascending id order, which matches
  the universe's ``ext_states()`` order, so size-ordered subset
  enumeration and witness decoding stay byte-identical to the
  interpreted (frozenset) engine.

The helpers here are deliberately tiny and allocation-free; the
engine's hot loop inlines the same idioms (``mask & -mask`` bit
extraction) where a function call would dominate.
"""

__all__ = ["popcount", "iter_bits", "iter_bits_desc", "mask_member",
           "mask_subset"]

try:  # Python >= 3.10
    _bit_count = int.bit_count

    def popcount(mask):
        """Number of set bits — the cardinality of the encoded set."""
        return _bit_count(mask)

except AttributeError:  # pragma: no cover — 3.9 fallback

    def popcount(mask):
        """Number of set bits — the cardinality of the encoded set."""
        return bin(mask).count("1")


def iter_bits(mask):
    """Yield the set bit positions of ``mask`` in ascending order.

    Ascending id order is the universe's ``ext_states()`` order — the
    order every frozenset-engine walk uses — so decoding a mask through
    this iterator preserves enumeration-order parity.
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def iter_bits_desc(mask):
    """Yield the set bit positions of ``mask`` in descending order.

    The engine pops evaluator states in exact reverse push order (the
    journaled kernels require LIFO), so unwinding a mask that was pushed
    ascending walks it descending.
    """
    while mask:
        i = mask.bit_length() - 1
        yield i
        mask ^= 1 << i


def mask_member(mask, i):
    """Whether bit ``i`` is set — ``state_of(i) ∈ set``."""
    return (mask >> i) & 1 == 1


def mask_subset(a, b):
    """Whether every bit of ``a`` is set in ``b`` — ``A ⊆ B``."""
    return a & b == a
