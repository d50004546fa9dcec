"""Wick polynomials of finite index sequences.

The Wick polynomial of a sequence I is the unique polynomial of the form
y^I + lower-order monomials, with coefficients depending only on the joint
moments of the variables, whose product with any monomial y^I' has
expectation equal to the partition sum over cumulants restricted to blocks
that meet I'.  Three equivalent constructions are provided:

* ``wick_recursive``   -- the defining moment recursion
  W[y^I] = y^I - sum over nonempty E subset I of E[y^E] * W[y^(I minus E)];
* ``wick_from_cumulants`` -- the closed cumulant expansion
  W[y^I] = sum over U subset I of y^U *
           sum over partitions pi of I minus U of (-1)^|pi| prod kappa;
* ``wick_recursion_step`` -- peeling off the first element against
  cumulants, W[y^I] = y_first * W[y^I'] -
  sum over U subset I' of kappa[first + U] * W[y^(I' minus U)].

A polynomial lives on its ground, the index sequence I, and keys each
monomial by a position mask: bit i stands for the i-th element of I, so
repeated indices stay apart without labels (not collapsed multisets).  The
product of two polynomials lives on the concatenated ground.  The
constructions run over these masks and read each subset's moment or
cumulant by the multiset code of the subset
(:func:`wickkit.cumulants.coded_cumulants`, the one reader of a cumulant
source); the partition sums, whose summands are symmetric, run on multiset
codes (:func:`wickkit.indexing.partition_sum`), so position subsets holding
the same multiset are summed once.  Every expectation of a product of Wick
polynomials, here and in :mod:`wickkit.hierarchy`, is one such sum over a code
whose elements are tagged with their Wick group (:func:`_group_code`), summed
by one route (:func:`_group_sums`) over a memo of its own; this module alone
knows that layout, and no caller passes a memo.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .cumulants import MomentOracle, _as_index, coded_cumulants
from .errors import Block, ConfigError, GuardError, _number
from .indexing import (
    _FIELD,
    CODE_BITS,
    Codebook,
    Index,
    PartitionMemo,
    canonical_key,
    mask_codes,
    partition_sum,
)

#: construction guard: term count is 2**n and work is ~3**n
WICK_GUARD = 12


def _picked(indices: Sequence[Index], mask: int) -> list[Index]:
    """The elements of ``indices`` at the set bits of ``mask``, in order."""
    return [index for i, index in enumerate(indices) if mask >> i & 1]


@dataclass
class WickPoly:
    """A polynomial in the variables of a ground index sequence.

    ``terms`` maps a position mask (monomial support) to a complex
    coefficient: bit i stands for the i-th element of ``indices``, and mask
    0 is the constant term.  Exact zeros are dropped at construction, a mask
    outside the ground's positions is a ValueError, and ``coeff`` reads an
    absent mask as zero.
    """

    indices: tuple[Index, ...]
    terms: dict[int, complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.indices = tuple(self.indices)
        outside = ~((1 << len(self.indices)) - 1)
        clean: dict[int, complex] = {}
        for mask, c in self.terms.items():
            if mask & outside:
                raise ValueError(f"term mask {mask:#b} outside the {len(self.indices)} positions of the ground")
            c = complex(c)
            if c != 0:
                clean[mask] = c
        self.terms = clean

    def coeff(self, mask: int) -> complex:
        return self.terms.get(mask, 0.0 + 0.0j)

    def evaluate(self, values: Mapping[Index, complex]):
        """Evaluate with values per *index* (arrays broadcast realization-wise)."""
        total = 0.0
        for mask, c in self.terms.items():
            term = c
            for index in _picked(self.indices, mask):
                term = term * values[index]
            total = total + term
        return total

    def expectation(self, oracle: MomentOracle, extra: Sequence[Index] = ()) -> complex:
        """E[self * y^extra] by direct monomial expansion against raw moments.

        Each term's moment is fetched by the multiset code of its indices
        plus the index sequence ``extra``'s, so no key is sorted per term.
        """
        book, moment_code = oracle.book, oracle.moment_code
        # coding the whole ground with the extra checks the largest multiset any term reaches
        book.code(self.indices + tuple(extra))
        codes = mask_codes(book.slots(self.indices))
        extra_code = sum(book.slots(extra))
        total = 0.0 + 0.0j
        for mask, c in self.terms.items():
            code = extra_code + codes[mask]
            total += c * (1.0 if not code else moment_code(code))
        return total

    def multiset_terms(self) -> dict[tuple, complex]:
        """Collapse position-mask terms to a canonical multiset polynomial."""
        out: dict[tuple, complex] = {}
        for mask, c in self.terms.items():
            key = canonical_key(_picked(self.indices, mask))
            out[key] = out.get(key, 0.0 + 0.0j) + c
        return {k: v for k, v in out.items() if v != 0}

    def to_json(self) -> dict:
        """External form: the ground as [label, index] pairs labelled 1..n, each term's subset as the
        ascending labels of its bits, the terms in the order of their subsets."""
        labels = range(1, len(self.indices) + 1)
        term_items = sorted((_picked(labels, mask), c) for mask, c in self.terms.items())
        return {
            "ground": [[label, idx] for label, idx in zip(labels, self.indices)],
            "terms": [{"subset": held, "coeff": [c.real, c.imag]} for held, c in term_items],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "WickPoly":
        """The polynomial of the external form of :meth:`to_json`, read through ``errors.Block``.

        A missing, mistyped or stray key, a ground label that is not its
        entry's place in 1..n, a subset label that is not a positive
        integer, a repeated label or subset, or a term outside the ground is
        a ConfigError; the checks name the key path where they can.
        """
        with Block(data, "Wick polynomial") as poly:
            indices = []
            for pos, pair in enumerate(poly.sequence("ground")):
                where = f"{poly.name('ground')}[{pos}]"
                if not isinstance(pair, list) or len(pair) != 2:
                    raise ConfigError(f"{where} must be a [label, index] pair, got {pair!r}")
                label = _number(pair[0], f"{where}[0]", integer=True, low=1)
                if label != pos + 1:
                    raise ConfigError(
                        f"{where}[0] must be the label {pos + 1}, got {label}: a ground is labelled 1..n in order"
                    )
                indices.append(_as_index(pair[1]))
            items = poly.sequence("terms")
            terms = {}
            for pos, item in enumerate(items):
                with Block(item, f"{poly.name('terms')}[{pos}]") as term:
                    where = term.name("subset")
                    labels = [
                        _number(label, f"{where}[{i}]", integer=True, low=1)
                        for i, label in enumerate(term.sequence("subset"))
                    ]
                    if len(set(labels)) < len(labels):
                        raise ConfigError(f"{where} repeats a label: {labels}")
                    if any(label > len(indices) for label in labels):
                        raise ConfigError(f"Wick polynomial: term {sorted(labels)} not within ground labels")
                    terms[sum(1 << label - 1 for label in labels)] = term.pair("coeff")
            if len(terms) < len(items):
                raise ConfigError(f"{poly.name('terms')}: two terms have the same subset")
        return cls(tuple(indices), terms)


def poly_mul(a: WickPoly, b: WickPoly) -> WickPoly:
    """The product on the concatenated ground ``a.indices + b.indices``: b's positions follow a's."""
    shift = len(a.indices)
    terms = {u | v << shift: cu * cv for u, cu in a.terms.items() for v, cv in b.terms.items()}
    return WickPoly(a.indices + b.indices, terms)


def _check_guard(indices: Sequence[Index]) -> None:
    if len(indices) > WICK_GUARD:
        raise GuardError(f"Wick construction guard: {len(indices)} > {WICK_GUARD}")


# ----------------------------------------------------------------------
# the three construction routes


def wick_recursive(oracle: MomentOracle, indices: Sequence[Index]) -> WickPoly:
    """Construct W[y^I] by the defining moment recursion."""
    _check_guard(indices)
    book, moment_code = oracle.book, oracle.moment_code
    codes = mask_codes(book.slots(indices))
    moments: dict[int, complex] = {}
    memo: dict[int, dict[int, complex]] = {}

    def build(mask: int) -> dict[int, complex]:
        if mask in memo:
            return memo[mask]
        terms = {mask: 1.0 + 0.0j}
        e = mask & -mask
        while e:  # nonempty submasks of mask, ascending
            if e not in moments:
                moments[e] = moment_code(codes[e])
            for u, c in build(mask ^ e).items():
                terms[u] = terms.get(u, 0.0 + 0.0j) - moments[e] * c
            e = (e - mask) & mask
        memo[mask] = terms
        return terms

    return WickPoly(indices, build((1 << len(indices)) - 1))


def wick_from_cumulants(source, indices: Sequence[Index]) -> WickPoly:
    """Construct W[y^I] from the closed cumulant expansion."""
    _check_guard(indices)
    # (-1)^|pi| prod kappa is the product of -kappa over the blocks of pi
    book, kappa_code = coded_cumulants(source, indices)
    codes = mask_codes(book.slots(indices))
    memo, full = PartitionMemo(), len(codes) - 1
    negative = lambda block: -kappa_code(block)  # noqa: E731
    return WickPoly(indices, {u: partition_sum(codes[full ^ u], negative, memo) for u in range(full + 1)})


def wick_recursion_step(source, indices: Sequence[Index]) -> WickPoly:
    """Construct W[y^I] by peeling the first element against cumulants."""
    _check_guard(indices)
    book, kappa_code = coded_cumulants(source, indices)
    codes = mask_codes(book.slots(indices))
    memo: dict[int, dict[int, complex]] = {0: {0: 1.0 + 0.0j}}

    def build(mask: int) -> dict[int, complex]:
        if mask in memo:
            return memo[mask]
        first = mask & -mask
        rest = mask ^ first
        # y_first * W[rest]
        terms = {u | first: c for u, c in build(rest).items()}
        # minus cumulant couplings of the first element into subsets of rest
        sub = 0
        while True:
            kappa = kappa_code(codes[first | sub])
            for v, c in build(rest ^ sub).items():
                terms[v] = terms.get(v, 0.0 + 0.0j) - kappa * c
            if sub == rest:
                break
            sub = (sub - rest) & rest
        memo[mask] = terms
        return terms

    return WickPoly(indices, build((1 << len(indices)) - 1))


# ----------------------------------------------------------------------
# derivative and expectations


def wick_derivative(poly: WickPoly, j: Index) -> WickPoly:
    """Formal partial derivative with respect to the variable of index j.

    Satisfies d/dy_j W[y^I] = sum over slots k with i_k = j of W[y^(I with
    slot k removed)]; the result lives on the same ground.  This is the
    Appell property of the Wick polynomials of arXiv:1503.05851: the
    derivative of a Wick polynomial is a sum of lower ones, which is what
    lets the time derivative of a cumulant close on Wick polynomials again.
    """
    terms: dict[int, complex] = {}
    for mask, c in poly.terms.items():
        for i, index in enumerate(poly.indices):
            if mask >> i & 1 and index == j:
                key = mask ^ 1 << i
                terms[key] = terms.get(key, 0.0 + 0.0j) + c
    return WickPoly(poly.indices, terms)


def truncated_expectation(source, indices: Sequence[Index], tail: Sequence[Index]) -> complex:
    """E[W[y^I] * y^I'] for the index sequences I = ``indices`` and I' =
    ``tail``, as the cumulant partition sum over I + I' in which every block
    must meet I'.  In particular E[W[y^I]] = 0 for nonempty I and
    E[W[y^empty]] = 1.

    This is :func:`wick_product_expectation` with the one Wick group I and
    the plain tail I': a block meets I' exactly when it does not sit inside
    I."""
    return wick_product_expectation(source, [indices], tail)


def _group_code(book: Codebook, groups: Sequence[Sequence[Index]], tail: Sequence[Index] = ()) -> int:
    """The code over ``book`` of Wick groups and a plain tail, the tail being group ``len(groups)``.

    Id i in group g is field i * (len(groups) + 1) + g, so a tagged multiset
    meets the kernel in the order of its ids, whatever its groups, and the
    codes of one number of groups add as their groups' multisets do.  Each
    nonempty group is coded by :meth:`Codebook.code`, so one that repeats an
    index past a field's count is a GuardError, not a carry into the next
    group, and its bytes are spread into its own fields.
    """
    pieces = [*groups, tail]
    codes = [(g, book.code(piece)) for g, piece in enumerate(pieces) if piece]
    stride, width = len(pieces), max(((code.bit_length() + 7) // 8 for _, code in codes), default=0)
    fields = bytearray(stride * width)
    for g, code in codes:
        fields[g::stride] = code.to_bytes(width, "little")
    return int.from_bytes(fields, "little")


def _moved_codes(codes: Sequence[int], book: Codebook, source_book: Codebook, stride: int) -> Sequence[int]:
    """:func:`_group_code` codes over ``book`` moved onto the ids of ``source_book``.

    Each id's ``stride`` fields move to its index's id there, which keeps
    every count: no guard is needed.  ``source_book`` comes from
    :func:`wickkit.cumulants.coded_cumulants`, which alone decides whether
    it may hold indices the source lacks; an index of ``book`` that it does
    not hold is a KeyError.
    """
    ids = [source_book.ids[index] for index in book.indices]
    if ids == list(range(len(ids))):
        return codes
    moved, width = [], stride * len(source_book.indices)
    for code in codes:
        old, new = code.to_bytes(stride * len(ids), "little"), bytearray(width)
        for i, j in enumerate(ids):
            new[j * stride : (j + 1) * stride] = old[i * stride : (i + 1) * stride]
        moved.append(int.from_bytes(new, "little"))
    return moved


def _group_masks(code: int, n_groups: int, stride: int) -> list[int]:
    """The field masks of the first ``n_groups`` groups, over the source ids a tagged code spans."""
    row, rows = 1 << CODE_BITS * stride, -(-code.bit_length() // (CODE_BITS * stride))
    first = _FIELD * ((row**rows - 1) // (row - 1))  # field 0 of every row
    return [first << CODE_BITS * g for g in range(n_groups)]


def _untagged(kappa_code, stride: int):
    """The block weight of a ``stride``-group layout: the cumulant of the block's multiset, groups dropped."""

    shifts = range(CODE_BITS, CODE_BITS * stride, CODE_BITS)

    def weight(block: int) -> complex:
        folded = block  # row i's count in field i * stride: at most 12, so no carry
        for shift in shifts:
            folded += block >> shift
        fields = folded.to_bytes((folded.bit_length() + 7) // 8, "little")[::stride]
        return kappa_code(int.from_bytes(fields, "little"))

    return weight


def _group_sums(source, book: Codebook, codes: Sequence[int], n_groups: int) -> tuple[list[complex], dict[str, int]]:
    """The sums of ``codes``, made by :func:`_group_code` over ``book`` with ``n_groups`` Wick groups, and the work.

    Codes move onto the source's ids first if ``book`` numbers the indices
    otherwise (:func:`_moved_codes`).  :func:`wickkit.indexing.partition_sum`
    sums each over one fresh memo, with the groups as field masks and a
    block weighing the cumulant of its untagged multiset.  The work is the
    memo's counts, the codes summed (``pair_expectations``) and those the
    memo held already (``pair_memo_hits``).
    """
    source_book, kappa_code = coded_cumulants(source, book.indices)
    stride = n_groups + 1
    codes = _moved_codes(codes, book, source_book, stride)
    memo = PartitionMemo()
    weight, groups = _untagged(kappa_code, stride), _group_masks(max(codes, default=0), n_groups, stride)
    totals, values, hits = memo.totals, [], 0
    for code in codes:
        held = code in totals
        hits += held
        values.append(totals[code] if held else partition_sum(code, weight, memo, groups))
    return values, {**memo.work(), "pair_expectations": len(codes), "pair_memo_hits": hits}


def wick_product_expectation(source, groups: Sequence[Sequence[Index]], tail: Sequence[Index] = ()) -> complex:
    """E[prod_l W[y^(J_l)] * y^J'] as the partition sum over the merged
    sequence in which no block may sit inside a single Wick group J_l.

    ``groups`` are the index sequences J_l and ``tail`` is J'.  Blocks
    inside the plain tail are allowed.  With one Wick group this
    reduces to :func:`truncated_expectation`.  The merged sequence is one
    code, each element tagged with its group (:func:`_group_code`), summed
    by :func:`_group_sums` over a memo of its own, as every pair sum of
    :class:`wickkit.hierarchy.HierarchyPlan` is.
    """
    book = Codebook(idx for piece in (*groups, tail) for idx in piece)
    return _group_sums(source, book, [_group_code(book, groups, tail)], len(groups))[0][0]


# ----------------------------------------------------------------------
# Gaussian reference construction


def gaussian_reference_wick(mean, covariance, indices: Sequence[Index]) -> WickPoly:
    """Closed-form Wick polynomial of jointly Gaussian variables.

    ``indices`` must be integers addressing ``mean`` (vector) and
    ``covariance`` (symmetric matrix).  The polynomial is assembled from
    partial pairings: unpaired slots contribute centered factors
    (y_i - mean_i) and each pair (a, b) contributes -covariance[a, b].
    For one standard variable this yields the probabilists' Hermite
    polynomials He_n.

    This is library API, not a test oracle: it is the closed Gaussian
    (Hermite) form of the paper, built from pairings alone with no cumulant
    table or partition sum, and it is what the cumulant route is checked
    against when only the first two cumulants are set (acceptance
    criterion 03).
    """
    import numpy as np  # deferred: keeps numpy off the algebra kinds' import path

    _check_guard(indices)
    mean = np.atleast_1d(np.asarray(mean, dtype=complex))
    cov = np.atleast_2d(np.asarray(covariance, dtype=complex))
    if cov.shape[0] != cov.shape[1]:
        raise ValueError("covariance must be square")
    if not np.allclose(cov, cov.T, rtol=0, atol=1e-12):
        raise ValueError("covariance must be symmetric")
    for idx in indices:
        if not isinstance(idx, (int, np.integer)) or not 0 <= idx < len(mean):
            raise ValueError(
                f"index {idx!r} does not address the mean/covariance arrays"
            )

    n = len(indices)  # bit i of a mask is the i-th element
    full = (1 << n) - 1
    match_memo: dict[int, complex] = {0: 1.0 + 0.0j}

    def matching_sum(mask: int) -> complex:
        """Sum over the perfect matchings of a position mask of prod over pairs of (-C_ab)."""
        if mask in match_memo:
            return match_memo[mask]
        if mask.bit_count() % 2:
            return 0.0 + 0.0j
        first, *later = [i for i in range(n) if mask >> i & 1]
        total = 0.0 + 0.0j
        for b in later:  # the first position paired with each later one, ascending
            total += -cov[indices[first], indices[b]] * matching_sum(mask ^ 1 << first ^ 1 << b)
        match_memo[mask] = total
        return total

    terms: dict[int, complex] = {}
    for unpaired in range(full + 1):
        ps = matching_sum(full ^ unpaired)
        if ps == 0:
            continue
        kept = 0
        while True:  # prod over the unpaired slots of (y_s - mean_s), kept submasks ascending
            coeff = ps
            for i in range(n):
                if (unpaired ^ kept) >> i & 1:
                    coeff *= -mean[indices[i]]
            terms[kept] = terms.get(kept, 0.0 + 0.0j) + coeff
            if kept == unpaired:
                break
            kept = (kept - unpaired) & unpaired
    return WickPoly(indices, terms)
