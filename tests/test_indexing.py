"""Tests for labeled sequences, the enumerators kept for the benchmark tracer, the partition-sum kernel, and guards."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wickkit.cumulants import CumulantTable
from wickkit.errors import GuardError
from wickkit.indexing import (
    LabeledSeq,
    Codebook,
    PartitionMemo,
    canonical_key,
    partition_sum,
    partitions,
    subsets,
)

from _support import brute_product_expectation, multiset, set_partitions

# Bell numbers B_0..B_12 (classical sequence, independently checkable by the
# Bell triangle recurrence; frozen here as data).
BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597]

EMPTY = LabeledSeq(())


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


class TestSubsets:
    def test_counts_and_order(self):
        s = LabeledSeq.from_indices(["a", "b", "c"])
        subs = list(subsets(s))
        assert len(subs) == 8
        assert subs[0] == EMPTY
        # bitmask order: mask 1 -> {1}, mask 2 -> {2}, mask 3 -> {1,2}, ...
        assert [t.labels for t in subs[1:4]] == [(1,), (2,), (1, 2)]
        assert subs[-1] == s

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


def as_blocks(part):
    """A partition as an order-free set of frozenset blocks."""
    return frozenset(map(frozenset, part))


class TestPartitions:
    @pytest.mark.parametrize("n", range(0, 9))
    def test_counts_match_bell(self, n):
        s = LabeledSeq.from_indices(range(n))
        assert sum(1 for _ in partitions(s)) == BELL[n]

    @pytest.mark.parametrize("n", range(0, 7))
    def test_matches_brute_force_oracle(self, n):
        labels = list(range(1, n + 1))
        enumerated = [as_blocks(p) for p in partitions(LabeledSeq.from_indices(labels))]
        assert len(set(enumerated)) == len(enumerated) == BELL[n]
        assert set(enumerated) == {as_blocks(part) for part in set_partitions(labels)}

    def test_empty_has_exactly_empty_partition(self):
        assert list(partitions(EMPTY)) == [()]

    def test_noncontiguous_labels(self):
        parts = list(partitions(LabeledSeq(((4, "a"), (10, "b")))))
        assert all(type(p) is tuple and all(type(b) is frozenset for b in p) for p in parts)
        assert {as_blocks(p) for p in parts} == {
            frozenset({frozenset({4, 10})}),
            frozenset({frozenset({4}), frozenset({10})}),
        }

    def test_guard(self):
        with pytest.raises(GuardError):
            list(partitions(LabeledSeq.from_indices(range(13))))

    def test_blocks_ordered_by_min(self):
        for p in partitions(LabeledSeq.from_indices(range(4))):
            mins = [min(b) for b in p]
            assert mins == sorted(mins)
            assert mins[0] == 1


def unit_sum(indices) -> complex:
    """The kernel's partition sum of unit weights over a fresh memo: the partition count."""
    return partition_sum(Codebook(indices).code(indices), lambda block: 1.0, PartitionMemo())


class TestBellNumber:
    # the kernel up to its guard, over n distinct indices (one block per label
    # subset) and over one index repeated n times (one block per size, with
    # its binomial count)
    @pytest.mark.parametrize("n", range(13))
    def test_against_frozen_sequence(self, n):
        assert unit_sum(range(n)) == BELL[n]
        assert unit_sum(["a"] * n) == BELL[n]


class TestPartitionSum:
    @pytest.mark.parametrize("n", range(0, 9))
    def test_unit_weights_count_bell(self, n):
        # three indices, repeated: the binomial counts make up every label subset
        assert unit_sum([k % 3 for k in range(n)]) == BELL[n]

    @pytest.mark.parametrize("n", range(0, 7))
    def test_matches_brute_force_oracle(self, n):
        # a distinct random weight per block over n distinct ids, and the rule
        # "every block meets the last two ids" as the admissibility: the
        # first n - 2 ids are one Wick group, a field mask
        rng = random.Random(n)
        weights = {}

        def weight_of(block_ids):
            if block_ids not in weights:
                weights[block_ids] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            return weights[block_ids]

        def weight(block):
            return weight_of(frozenset(i for i in range(n) if block >> 8 * i & 0xFF))

        code = Codebook(range(n)).code(range(n))
        first = sum(0xFF << 8 * i for i in range(max(n - 2, 0)))
        right = set(range(n)[-2:])
        for groups, keep in (([], lambda part: True), ([first], lambda part: all(b & right for b in part))):
            got = partition_sum(code, weight, PartitionMemo(), groups)
            want = sum(
                (
                    math.prod(weight_of(b) for b in part)
                    for part in map(as_blocks, set_partitions(list(range(n))))
                    if keep(part)
                ),
                0.0,
            )
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_guard(self):
        # 13 elements trip the guard before a weight is read or a state is kept
        memo = PartitionMemo()
        for indices in (range(13), ["a"] * 13, [k % 4 for k in range(13)]):
            with pytest.raises(GuardError, match="partition enumeration guard: 13 > 12"):
                partition_sum(Codebook(indices).code(indices), lambda block: pytest.fail("weighed"), memo)
        assert (memo.totals, memo.weights) == ({0: 1.0}, {})


class TestKernelAgainstEnumeration:
    """The kernel on random tables with repeated indices, against the sum over every set partition."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n_variables", [2, 3, 4])
    def test_moments(self, n_variables, seed):
        rng = random.Random(100 * n_variables + seed)
        variables = list(range(n_variables))
        keys = [k for r in range(1, 6) for k in itertools.combinations_with_replacement(variables, r)]
        table = CumulantTable(entries={k: complex(rng.gauss(0, 0.5), rng.gauss(0, 0.5)) for k in keys})
        kappa = {multiset(k): v for k, v in table.entries.items()}
        memo = PartitionMemo()  # one memo serves every sum over the table
        got, want = [], []
        for _ in range(12):
            key = [rng.choice(variables) for _ in range(rng.randint(0, 7))]
            got.append(partition_sum(table.book.code(key), table.kappa_code, memo))
            want.append(brute_product_expectation(lambda m: kappa.get(m, 0.0), [], key))
        scale = max(abs(w) for w in want)
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12 * scale

    def test_a_multiset_inside_one_group_sums_to_zero_without_a_walk(self):
        book = Codebook("abc")
        code = book.code(["a", "a", "b"])
        memo = PartitionMemo()
        got = partition_sum(code, lambda block: pytest.fail("weighed"), memo, [0xFFFF])
        assert got == 0 and (memo.totals, memo.weights) == ({0: 1.0}, {})
        # a wider multiset sums, and its remainders inside the group are not kept
        wide = code + book.code(["c"])
        partition_sum(wide, lambda block: 1.0, memo, [0xFFFF])
        assert all(state & ~0xFFFF for state in memo.totals if state)


@given(st.lists(st.sampled_from("abc"), min_size=0, max_size=7))
@settings(max_examples=60, deadline=None)
def test_partition_blocks_cover_and_disjoint(idx):
    s = LabeledSeq.from_indices(idx)
    for p in partitions(s):
        union = set()
        total = 0
        for b in p:
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
