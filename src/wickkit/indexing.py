"""Index sequences, their multiset codes and their combinatorics.

Everything downstream works with finite sequences of variable indices in
which the same index may repeat; an element's position tells repeated
indices apart.  This module provides the multiset codes and the
partition-sum kernel behind every moment, cumulant and Wick expectation
(:func:`partition_sum`).  The labeled sequence type :class:`LabeledSeq` is
left only for what the benchmark tracer wraps: the brute-force enumerators
:func:`subsets` and :func:`partitions`, which no package route calls, and
``CumulantEvaluator.kappa_of``.

Moments, cumulants and the partition sums of symmetric summands depend on a
sequence only through its multiset of indices.  Inside the package such a
multiset goes by an integer code (:class:`Codebook`): a book is built once
from every index it will code, giving each a small id, and never grows, and
a multiset's code adds one field per id, so a multiset is coded with one
addition per element and no sorting.  The kernel and the cumulant recursion
walk a code's distinct sub-multisets (:func:`_blocks`), so equal blocks are
summed once with their label counts.
The sorted :func:`canonical_key` form is kept for the public key-based calls
and the JSON tables.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence

from .errors import GuardError

Index = Hashable

#: enumeration guards: subsets are 2**n, partitions are Bell(n).  SUBSET_GUARD
#: also caps the length of a key of the cumulant recursion, which sums one
#: term per distinct block: fewer than prod(count + 1) over the key's
#: indices, so at most 2**19 on a key of 20 distinct indices
SUBSET_GUARD = 20
PARTITION_GUARD = 12

#: bits per count in a multiset code (:class:`Codebook`); every coded
#: sequence is far shorter than 2**CODE_BITS, given the guards above.  A
#: field is one byte, so the cumulant recursion reads a code's counts as
#: the bytes of ``code.to_bytes``
CODE_BITS = 8
_FIELD = (1 << CODE_BITS) - 1


def _sort_token(index: Index) -> tuple[str, str]:
    # total order over heterogeneous index types; only determinism matters
    return (type(index).__name__, repr(index))


def canonical_key(indices: Iterable[Index]) -> tuple[Index, ...]:
    """Order-free canonical form of an index collection (a sorted multiset).

    Used as the memoization/table key for moments and cumulants, which are
    invariant under permutation of their argument sequence.
    """
    return tuple(sorted(indices, key=_sort_token))


@dataclass(frozen=True)
class LabeledSeq:
    """A finite sequence of variable indices with distinct positional labels.

    ``elements`` is a tuple of ``(label, index)`` pairs held sorted by label.
    Labels are positive integers and need not be contiguous: subsequences
    keep the labels of their parent, so a labeled subsequence of a labeled
    subsequence still refers to the original positions.
    """

    elements: tuple[tuple[int, Index], ...]

    def __post_init__(self) -> None:
        elems = tuple(sorted(self.elements, key=lambda e: e[0]))
        labels = [label for label, _ in elems]
        if any(not isinstance(label, int) or label < 1 for label in labels):
            raise ValueError(f"labels must be positive integers, got {labels}")
        if len(set(labels)) != len(labels):
            raise ValueError(f"labels must be distinct, got {labels}")
        object.__setattr__(self, "elements", elems)

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(label for label, _ in self.elements)

    def indices(self) -> tuple[Index, ...]:
        """Collapse to the plain index sequence (sorted by label)."""
        return tuple(idx for _, idx in self.elements)

    def select(self, mask: int) -> "LabeledSeq":
        """The labeled subsequence picked by a bitmask over label rank.

        Bit ``i`` of ``mask`` selects the ``i``-th smallest label.
        """
        # a subsequence of a valid sequence is sorted and distinct: no __post_init__
        sub = object.__new__(LabeledSeq)
        object.__setattr__(
            sub,
            "elements",
            tuple(e for i, e in enumerate(self.elements) if mask >> i & 1),
        )
        return sub

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[tuple[int, Index]]:
        return iter(self.elements)

    def __bool__(self) -> bool:
        return bool(self.elements)


def subsets(a: LabeledSeq) -> Iterator[LabeledSeq]:
    """All labeled subsequences of ``a``, by ascending bitmask over label rank; kept for the benchmark tracer alone."""
    if len(a) > SUBSET_GUARD:
        raise GuardError(f"subset enumeration guard: {len(a)} > {SUBSET_GUARD}")
    for mask in range(1 << len(a)):
        yield a.select(mask)


def _check_partition_guard(n: int) -> None:
    if n > PARTITION_GUARD:
        raise GuardError(f"partition enumeration guard: {n} > {PARTITION_GUARD}")


def partitions(a: LabeledSeq) -> Iterator[tuple[frozenset[int], ...]]:
    """The set partitions of ``a``'s labels as tuples of frozenset blocks, ordered by smallest member;
    kept for the benchmark tracer alone."""
    _check_partition_guard(len(a))

    def split(labels: tuple[int, ...]) -> Iterator[tuple[frozenset[int], ...]]:
        if not labels:
            yield ()
            return
        for part in split(labels[1:]):  # the first label alone, or joined to each block in turn
            yield (frozenset(labels[:1]), *part)
            for i, block in enumerate(part):  # the block holding the smallest label leads
                yield (block | {labels[0]}, *part[:i], *part[i + 1 :])

    yield from split(a.labels)


class Codebook:
    """Small integer ids for a fixed set of indices, and the multiset codes they give.

    A book is a value: it numbers ``indices`` in order of first appearance
    when it is built and never adds another, so every code it gives, and
    every sum that walks a code in id order, depends on how it was built and
    not on the reads made since.  Indices are told apart by ``==``, as dict
    keys are; ``slots`` and ``code`` of an index the book lacks are a
    KeyError, and :meth:`extended` makes a longer copy.  The code of a
    multiset is the sum over its elements of ``1 << CODE_BITS * id``, so each
    id's count sits in its own ``CODE_BITS``-bit field and two collections
    have the same code exactly when they are equal as multisets.  Codes add
    under multiset union, which lets the partition kernel code every position
    mask with one addition (:func:`mask_codes`).  A code means something only
    with the book that made it, or with a longer copy of it.
    """

    def __init__(self, indices: Iterable[Index]) -> None:
        self.ids: dict[Index, int] = {}
        for index in indices:
            self.ids.setdefault(index, len(self.ids))
        self.indices: list[Index] = list(self.ids)
        self._slots = {index: 1 << CODE_BITS * i for index, i in self.ids.items()}

    def extended(self, indices: Iterable[Index]) -> "Codebook":
        """A longer copy: this book's ids, then the ``indices`` it lacks in order of first appearance.

        A book that lacks none of them is its own extension.
        """
        ids = self.ids
        new = [index for index in indices if index not in ids]
        return Codebook(self.indices + new) if new else self

    def slots(self, indices: Iterable[Index]) -> list[int]:
        """The code of each element in turn."""
        return list(map(self._slots.__getitem__, indices))

    def code(self, indices: Iterable[Index]) -> int:
        """The multiset code of an index collection."""
        slots = self.slots(indices)
        if len(slots) > _FIELD and max(Counter(slots).values()) > _FIELD:
            raise GuardError(f"multiset code guard: an index repeats more than {_FIELD} times")
        return sum(slots)

    def key(self, code: int) -> tuple[Index, ...]:
        """The canonical key of a multiset code."""
        indices: list[Index] = []
        for index in self.indices:
            if not code:
                break
            indices.extend([index] * (code & _FIELD))
            code >>= CODE_BITS
        return canonical_key(indices)


def mask_codes(slots: Sequence[int]) -> list[int]:
    """The multiset code of every position mask of a sequence with these slot codes.

    ``codes[m]`` is the sum of the slot codes of the set bits of ``m``; each
    mask is its top bit's slot plus a mask already coded.
    """
    codes = [0]
    for slot in slots:
        codes += [code + slot for code in codes]
    return codes


def _size(code: int) -> int:
    """The number of elements of a multiset code."""
    return sum(code.to_bytes((code.bit_length() + 7) // 8, "little"))


#: binom(r, j) for j = 0 .. r, per r up to the longest multiset any kernel splits
_BINOMIALS = [[math.comb(r, j) for j in range(r + 1)] for r in range(SUBSET_GUARD + 1)]


def _blocks(code: int) -> tuple[list[int], list[int]]:
    """The distinct proper sub-multisets of a code R that hold R's first id, and their label counts.

    A block B is one f, R's first (lowest) id, plus a sub-multiset of R
    minus that f; its count, prod over ids i of binom(r_i - [i = f],
    b_i - [i = f]), is the number of label subsets of R that hold R's first
    label and have the multiset B.  Both lists grow by doubling, id by id
    from f on: with r copies of an id left to place, the blocks so far get
    j more copies for j = 0 .. r in turn, their counts times binom(r, j).
    With every count 1, the blocks come in the ascending order of their
    label masks, and R itself would come last.
    """
    shift = (code & -code).bit_length() - 1 & -CODE_BITS
    slot = 1 << shift
    codes, counts = [slot], [1]
    rest = (code >> shift) - 1  # the fields of R minus one f, from f's on
    for r in rest.to_bytes((rest.bit_length() + 7) // 8, "little"):
        if r == 1:
            codes += [c + slot for c in codes]
            counts += counts
        elif r:
            codes = [c + j * slot for j in range(r + 1) for c in codes]
            counts = [w * m for m in _BINOMIALS[r] for w in counts]
        slot <<= CODE_BITS
    codes.pop()  # R itself
    counts.pop()
    return codes, counts


class PartitionMemo:
    """Partition-sum states keyed by multiset code.

    ``totals`` maps a remaining multiset to its sum, and ``weights`` a block
    to its weight, or to False for a block inside one Wick group, which is
    not weighed.  See :func:`partition_sum` for when one memo may serve many
    sums.
    """

    def __init__(self) -> None:
        self.totals: dict[int, complex] = {0: 1.0 + 0.0j}
        self.weights: dict[int, Any] = {}

    def work(self) -> dict[str, int]:
        """Deterministic work counts of the sums held: blocks weighed and remaining multisets summed."""
        weighed = sum(w is not False for w in self.weights.values())
        return {"multisets_evaluated": weighed, "partition_states": len(self.totals) - 1}


def partition_sum(
    code: int, weight: Callable[[int], Any], memo: PartitionMemo, groups: Sequence[int] = ()
) -> complex:
    """The partition-sum kernel: over the set partitions of a multiset, the sum of the products of block weights.

    P(R) = sum over B of C(B) * w(B) * P(R - B), P(empty) = 1, B over the
    distinct sub-multisets of R holding one element of its first id, R last
    (:func:`_blocks`, C(B) the label subsets B stands for).  ``weight`` is
    called once per block, and a zero weight drops it; each remainder is
    summed once.  ``groups`` are Wick groups' field masks: a block inside
    one is not admissible, and a remainder inside one sums to 0 unwalked.
    A memo may serve every sum whose weight and groups agree on every code,
    such as all the sums over one cumulant table, and goes with the table.
    """
    totals, weights = memo.totals, memo.weights
    if code in totals:
        return totals[code]
    _check_partition_guard(_size(code))
    outside = [~mask for mask in groups]  # a nonempty code c sits inside a group where not c & out
    if any(not code & out for out in outside):
        return 0.0 + 0.0j

    def total(rem: int) -> complex:
        blocks, counts = _blocks(rem)
        blocks.append(rem)
        counts.append(1)
        acc = 0.0 + 0.0j
        for block, count in zip(blocks, counts):
            w = weights.get(block)
            if w is None:  # the checks are inline: most blocks of a pair sum sit inside one group
                for out in outside:
                    if not block & out:
                        w = weights[block] = False
                        break
                else:
                    w = weights[block] = weight(block)
            if not w:
                continue
            left = rem - block
            t = totals.get(left)
            if t is None:
                for out in outside:
                    if not left & out:
                        break
                else:
                    t = total(left)
                if t is None:
                    continue
            acc += w * t if count == 1 else count * (w * t)
        totals[rem] = acc
        return acc

    return total(code)
