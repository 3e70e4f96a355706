"""Property tests for the mask algebra and the universe's interning.

The bitset engine's correctness rests on two facts this file pins with
Hypothesis: (1) the mask helpers implement exactly the frozenset
operations they replace, and (2) a universe's id interning is a
bijection whose iteration order is the ``ext_states()`` order — so the
mask engine's size-ordered enumeration visits candidates in the same
sequence as the interpreted engine's frozenset recursion.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.checker import Universe
from repro.checker.bitset import (
    iter_bits,
    iter_bits_desc,
    mask_member,
    mask_subset,
    popcount,
)
from repro.values import IntRange

masks = st.integers(min_value=0, max_value=2 ** 80 - 1)
bit_sets = st.frozensets(st.integers(0, 79))


def to_mask(bits):
    mask = 0
    for i in bits:
        mask |= 1 << i
    return mask


class TestMaskAlgebra:
    @given(bit_sets)
    def test_mask_roundtrips_through_iter_bits(self, bits):
        assert frozenset(iter_bits(to_mask(bits))) == bits

    @given(masks)
    def test_popcount_is_cardinality(self, mask):
        assert popcount(mask) == len(list(iter_bits(mask)))
        assert popcount(mask) == bin(mask).count("1")

    @given(masks)
    def test_iter_bits_ascends_and_desc_is_its_reverse(self, mask):
        asc = list(iter_bits(mask))
        assert asc == sorted(asc)
        assert list(iter_bits_desc(mask)) == asc[::-1]

    @given(bit_sets, bit_sets)
    def test_union_intersection_difference_match_set_semantics(self, a, b):
        assert frozenset(iter_bits(to_mask(a) | to_mask(b))) == a | b
        assert frozenset(iter_bits(to_mask(a) & to_mask(b))) == a & b
        assert frozenset(iter_bits(to_mask(a) & ~to_mask(b))) == a - b

    @given(bit_sets, st.integers(0, 79))
    def test_membership_is_shift_and_mask(self, bits, i):
        assert mask_member(to_mask(bits), i) == (i in bits)

    @given(bit_sets, bit_sets)
    def test_subset_matches_issubset(self, a, b):
        assert mask_subset(to_mask(a), to_mask(b)) == a.issubset(b)


class TestUniverseInterning:
    def universe(self):
        return Universe(["x", "y"], IntRange(0, 2))

    def test_ids_are_dense_and_in_ext_states_order(self):
        uni = self.universe()
        states = uni.ext_states()
        assert [uni.index_of(phi) for phi in states] == list(range(len(states)))
        assert all(uni.state_of(i) == phi for i, phi in enumerate(states))

    @given(st.data())
    def test_mask_of_states_of_roundtrip(self, data):
        uni = self.universe()
        states = uni.ext_states()
        subset = data.draw(st.frozensets(st.sampled_from(states)))
        mask = uni.mask_of(subset)
        assert uni.states_of(mask) == subset
        assert popcount(mask) == len(subset)

    def test_states_escaping_the_grid_get_fresh_ids(self):
        from repro.semantics.state import ext_state

        uni = self.universe()
        foreign = ext_state(prog={"x": 99, "y": 0})
        i = uni.index_of(foreign)
        assert i >= len(uni.ext_states())
        assert uni.state_of(i) == foreign
        assert uni.index_of(foreign) == i  # stable on re-query
