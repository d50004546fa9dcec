"""Tests for labeled sequences, subsequence/partition enumeration, and guards."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wickkit.errors import GuardError
from wickkit.indexing import (
    EMPTY,
    LabeledSeq,
    Codebook,
    Partition,
    canonical_key,
    mask_codes,
    partition_sums,
    partitions,
    partitions_of,
    subsets,
)

# Bell numbers B_0..B_12 (classical sequence, independently checkable by the
# Bell triangle recurrence; frozen here as data).
BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597]


def brute_partitions(items):
    """Independent partition oracle: insert each element into an existing
    block or a new one.  Returns a set of partitions as frozensets of
    frozensets, which is order-free by construction."""
    items = list(items)
    if not items:
        return {frozenset()}
    result = set()

    def grow(pos, blocks):
        if pos == len(items):
            result.add(frozenset(frozenset(b) for b in blocks))
            return
        x = items[pos]
        for i in range(len(blocks)):
            grow(pos + 1, blocks[:i] + [blocks[i] + [x]] + blocks[i + 1 :])
        grow(pos + 1, blocks + [[x]])

    grow(0, [])
    return result


class TestLabeledSeq:
    def test_from_indices_labels_one_based(self):
        s = LabeledSeq.from_indices(["a", "b", "a"])
        assert s.labels == (1, 2, 3)
        assert s.indices() == ("a", "b", "a")

    def test_elements_sorted_by_label(self):
        s = LabeledSeq(((3, "c"), (1, "a"), (2, "b")))
        assert s.indices() == ("a", "b", "c")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            LabeledSeq(((1, "a"), (1, "b")))

    def test_nonpositive_labels_rejected(self):
        with pytest.raises(ValueError):
            LabeledSeq(((0, "a"),))

    def test_key_is_permutation_invariant(self):
        assert LabeledSeq.from_indices(["b", "a"]).key() == LabeledSeq.from_indices(
            ["a", "b"]
        ).key()

    def test_canonical_key_mixed_types(self):
        # determinism, not semantic order: just require a stable result
        assert canonical_key([("q", 2), "x", 1]) == canonical_key([1, "x", ("q", 2)])

    def test_select_keeps_labels(self):
        s = LabeledSeq.from_indices(["a", "b", "a"])
        sub = s.select(0b101)
        assert sub.labels == (1, 3)
        assert sub.indices() == ("a", "a")

    def test_select_bits_follow_label_rank(self):
        s = LabeledSeq(((2, "a"), (7, "b"), (9, "c")))
        assert s.select(0b110) == LabeledSeq(((7, "b"), (9, "c")))
        assert s.select(0) == EMPTY

    def test_index_at_missing_label_raises(self):
        s = LabeledSeq.from_indices(["a"])
        assert s.index_at(1) == "a"
        with pytest.raises(KeyError):
            s.index_at(2)

    def test_without_removes_one_occurrence(self):
        s = LabeledSeq.from_indices(["a", "a", "b"])
        assert s.without((2,)).indices() == ("a", "b")
        assert s.without((2,)).labels == (1, 3)

    def test_without_absent_label_is_noop(self):
        s = LabeledSeq.from_indices(["a"])
        assert s.without((7,)) == s


class TestSubsets:
    def test_counts_and_order(self):
        s = LabeledSeq.from_indices(["a", "b", "c"])
        subs = list(subsets(s))
        assert len(subs) == 8
        assert subs[0] == EMPTY
        # bitmask order: mask 1 -> {1}, mask 2 -> {2}, mask 3 -> {1,2}, ...
        assert [t.labels for t in subs[1:4]] == [(1,), (2,), (1, 2)]
        assert subs[-1] == s

    def test_nonempty_and_proper_flags(self):
        s = LabeledSeq.from_indices(["a", "b"])
        assert len(list(subsets(s, nonempty=True))) == 3
        assert len(list(subsets(s, proper=True))) == 3
        assert len(list(subsets(s, nonempty=True, proper=True))) == 2

    def test_labels_preserved(self):
        s = LabeledSeq(((2, "a"), (7, "b")))
        labelsets = {t.labels for t in subsets(s)}
        assert labelsets == {(), (2,), (7,), (2, 7)}

    def test_guard(self):
        s = LabeledSeq.from_indices(range(21))
        with pytest.raises(GuardError):
            list(subsets(s))

    def test_empty_sequence(self):
        assert list(subsets(EMPTY)) == [EMPTY]


class TestPartitions:
    @pytest.mark.parametrize("n", range(0, 9))
    def test_counts_match_bell(self, n):
        s = LabeledSeq.from_indices(range(n))
        assert sum(1 for _ in partitions(s)) == BELL[n]

    @pytest.mark.parametrize("n", range(0, 7))
    def test_matches_brute_force_oracle(self, n):
        labels = list(range(1, n + 1))
        enumerated = {frozenset(p.blocks) for p in partitions_of(labels)}
        assert enumerated == brute_partitions(labels)

    def test_rgs_lexicographic_order_n3(self):
        # RGS strings for n=3 in lex order: 000,001,010,011,012
        got = [tuple(sorted(map(sorted, p.blocks))) for p in partitions_of([1, 2, 3])]
        expect = [
            ([1, 2, 3],),
            ([1, 2], [3]),
            ([1, 3], [2]),
            ([1], [2, 3]),
            ([1], [2], [3]),
        ]
        assert got == [tuple(map(list, e)) for e in expect]

    def test_empty_has_exactly_empty_partition(self):
        parts = list(partitions_of([]))
        assert parts == [Partition(())]

    def test_noncontiguous_labels(self):
        parts = list(partitions_of([4, 10]))
        assert {frozenset(p.blocks) for p in parts} == {
            frozenset({frozenset({4, 10})}),
            frozenset({frozenset({4}), frozenset({10})}),
        }

    def test_guard(self):
        with pytest.raises(GuardError):
            list(partitions_of(range(1, 14)))

    def test_blocks_ordered_by_min(self):
        for p in partitions_of([1, 2, 3, 4]):
            mins = [min(b) for b in p.blocks]
            assert mins == sorted(mins)
            assert mins[0] == 1

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            Partition((frozenset(),))
        with pytest.raises(ValueError):
            Partition((frozenset({1, 2}), frozenset({2, 3})))


class TestBellNumber:
    # the kernel up to its guard, keyed by mask and by the multiset code of
    # one repeated index, where all masks of one size share a key
    @pytest.mark.parametrize("n", range(13))
    def test_against_frozen_sequence(self, n):
        full = (1 << n) - 1
        assert partition_sums(n, lambda block: 1.0)(full) == BELL[n]
        codes = mask_codes(Codebook().slots(["a"] * n))
        assert partition_sums(n, lambda block: 1.0, codes=codes)(full) == BELL[n]


class TestPartitionSum:
    @pytest.mark.parametrize("n", range(0, 9))
    def test_unit_weights_count_bell(self, n):
        assert partition_sums(n, lambda block: 1.0)((1 << n) - 1) == BELL[n]

    @pytest.mark.parametrize("n", range(0, 7))
    def test_matches_brute_force_oracle(self, n):
        # a distinct random weight per block, noncontiguous labels, and the
        # rule "every block meets the last two labels" as the admissibility
        labels = [3 * k + 2 for k in range(n)]
        rng = random.Random(n)
        weights = {}

        def weight_of(block_labels):
            if block_labels not in weights:
                weights[block_labels] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            return weights[block_labels]

        def weight(block):
            return weight_of(frozenset(lab for i, lab in enumerate(labels) if block >> i & 1))

        right_labels = set(labels[-2:])
        right_mask = ((1 << n) - 1) ^ ((1 << max(n - 2, 0)) - 1)
        for admissible, keep in (
            (None, lambda part: True),
            (lambda m: m & right_mask, lambda part: all(b & right_labels for b in part)),
        ):
            got = partition_sums(n, weight, admissible)((1 << n) - 1)
            want = sum(
                (math.prod(weight_of(b) for b in part)
                 for part in brute_partitions(labels) if keep(part)),
                0.0,
            )
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_guard(self):
        with pytest.raises(GuardError):
            partition_sums(13, lambda block: 1.0)


@given(st.lists(st.sampled_from("abc"), min_size=0, max_size=7))
@settings(max_examples=60, deadline=None)
def test_partition_blocks_cover_and_disjoint(idx):
    s = LabeledSeq.from_indices(idx)
    for p in partitions(s):
        union = set()
        total = 0
        for b in p.blocks:
            union |= b
            total += len(b)
        assert union == set(s.labels)
        assert total == len(s)


@given(st.lists(st.sampled_from("abc"), min_size=0, max_size=6))
@settings(max_examples=60, deadline=None)
def test_subset_enumeration_is_deterministic_and_complete(idx):
    s = LabeledSeq.from_indices(idx)
    first = [t.labels for t in subsets(s)]
    second = [t.labels for t in subsets(s)]
    assert first == second
    assert len(set(first)) == 2 ** len(s)
