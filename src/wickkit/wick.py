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

Monomials are keyed by label subsets of the ground sequence (not collapsed
multisets), so repeated indices stay unambiguous.  The constructions run
over label bitmasks (bit i is the i-th smallest ground label) and fetch each
subset's moment or cumulant once per build; the partition sums, whose
summands are symmetric, key their states by multiset code, so label subsets
holding the same multiset are summed once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .cumulants import MomentOracle, _as_index, _coded_sum, as_kappa_fn, coded_cumulants
from .errors import GuardError, _pair
from .indexing import (
    EMPTY,
    Index,
    LabeledSeq,
    PartitionMemo,
    canonical_key,
    mask_codes,
    partition_sums,
    subsets,
)

#: construction guard: term count is 2**n and work is ~3**n
WICK_GUARD = 12


@dataclass
class WickPoly:
    """A polynomial in the variables of a ground sequence.

    ``terms`` maps frozensets of ground labels (monomial support) to complex
    coefficients; the empty frozenset is the constant term.  Exact zeros are
    dropped at construction; ``coeff`` reads absent keys as zero.
    """

    ground: LabeledSeq
    terms: dict[frozenset, complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        ground_labels = set(self.ground.labels)
        clean: dict[frozenset, complex] = {}
        for u, c in self.terms.items():
            u = frozenset(u)
            if not u <= ground_labels:
                raise ValueError(f"term {sorted(u)} not within ground labels")
            c = complex(c)
            if c != 0:
                clean[u] = c
        self.terms = clean

    def coeff(self, labels: Iterable[int]) -> complex:
        return self.terms.get(frozenset(labels), 0.0 + 0.0j)

    @property
    def degree(self) -> int:
        return max((len(u) for u in self.terms), default=0)

    def top_coeff(self) -> complex:
        return self.coeff(self.ground.labels)

    def evaluate(self, values: Mapping[Index, complex]):
        """Evaluate with values per *index* (arrays broadcast realization-wise)."""
        total = 0.0
        for u, c in self.terms.items():
            term = c
            for label in u:
                term = term * values[self.ground.index_at(label)]
            total = total + term
        return total

    def expectation(self, oracle: MomentOracle, extra: LabeledSeq = EMPTY) -> complex:
        """E[self * y^extra] by direct monomial expansion against raw moments.

        Each term's moment is fetched by the multiset code of its indices
        plus ``extra``'s, so no key is sorted per term.
        """
        book, moment_code = oracle.coded_moments()
        # coding the whole ground with the extra checks the largest multiset any term reaches
        book.code(self.ground.indices() + extra.indices())
        slot = dict(zip(self.ground.labels, book.slots(self.ground.indices())))
        extra_code = sum(book.slots(extra.indices()))
        total = 0.0 + 0.0j
        for u, c in self.terms.items():
            code = extra_code + sum(slot[label] for label in u)
            total += c * (1.0 if not code else moment_code(code))
        return total

    def multiset_terms(self) -> dict[tuple, complex]:
        """Collapse label-subset terms to a canonical multiset polynomial."""
        out: dict[tuple, complex] = {}
        for u, c in self.terms.items():
            key = canonical_key(self.ground.index_at(label) for label in u)
            out[key] = out.get(key, 0.0 + 0.0j) + c
        return {k: v for k, v in out.items() if v != 0}

    def to_json(self) -> dict:
        """External form: ground as [label, index] pairs, terms as subset/coeff."""
        term_items = sorted(self.terms.items(), key=lambda kv: sorted(kv[0]))
        return {
            "ground": [[label, idx] for label, idx in self.ground.elements],
            "terms": [
                {"subset": sorted(u), "coeff": [c.real, c.imag]}
                for u, c in term_items
            ],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "WickPoly":
        ground = LabeledSeq(tuple((lab, _as_index(idx)) for lab, idx in data["ground"]))
        terms = {
            frozenset(t["subset"]): _pair(t["coeff"], "a Wick coefficient")
            for t in data["terms"]
        }
        return cls(ground=ground, terms=terms)


def poly_add(a: WickPoly, b: WickPoly, ca: complex = 1.0, cb: complex = 1.0) -> WickPoly:
    """ca * a + cb * b over a common ground."""
    if a.ground != b.ground:
        raise ValueError("polynomials live on different grounds")
    terms = {u: ca * c for u, c in a.terms.items()}
    for u, c in b.terms.items():
        terms[u] = terms.get(u, 0.0 + 0.0j) + cb * c
    return WickPoly(a.ground, terms)


def poly_mul(a: WickPoly, b: WickPoly) -> WickPoly:
    """Product of polynomials over label-disjoint grounds (joint ground)."""
    if set(a.ground.labels) & set(b.ground.labels):
        raise ValueError("grounds must be label-disjoint for products")
    ground = LabeledSeq(a.ground.elements + b.ground.elements)
    terms: dict[frozenset, complex] = {}
    for u, cu in a.terms.items():
        for v, cv in b.terms.items():
            key = u | v
            terms[key] = terms.get(key, 0.0 + 0.0j) + cu * cv
    return WickPoly(ground, terms)


def relabel(poly: WickPoly, mapping: Mapping[int, int]) -> WickPoly:
    """Rename ground labels through an injective mapping (indices unchanged)."""
    new_ground = LabeledSeq(
        tuple((mapping[lab], idx) for lab, idx in poly.ground.elements)
    )
    terms = {frozenset(mapping[lab] for lab in u): c for u, c in poly.terms.items()}
    return WickPoly(new_ground, terms)


def _check_guard(seq: LabeledSeq) -> None:
    if len(seq) > WICK_GUARD:
        raise GuardError(f"Wick construction guard: {len(seq)} > {WICK_GUARD}")


def _poly_of_masks(seq: LabeledSeq, terms: Mapping[int, complex]) -> WickPoly:
    """The polynomial on ``seq`` whose terms are keyed by label bitmasks."""
    labels = seq.labels
    return WickPoly(
        seq,
        {
            frozenset(lab for i, lab in enumerate(labels) if u >> i & 1): c
            for u, c in terms.items()
        },
    )


# ----------------------------------------------------------------------
# the three construction routes


def wick_recursive(oracle: MomentOracle, seq: LabeledSeq) -> WickPoly:
    """Construct W[y^I] by the defining moment recursion."""
    _check_guard(seq)
    book, moment_code = oracle.coded_moments()
    codes = mask_codes(book.slots(seq.indices()))
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

    return _poly_of_masks(seq, build((1 << len(seq)) - 1))


def wick_from_cumulants(source, seq: LabeledSeq) -> WickPoly:
    """Construct W[y^I] from the closed cumulant expansion."""
    _check_guard(seq)
    # (-1)^|pi| prod kappa is the product of -kappa over the blocks of pi
    book, kappa_code = coded_cumulants(source)
    codes = mask_codes(book.slots(seq.indices()))
    signed = partition_sums(len(seq), lambda block: -kappa_code(codes[block]), codes=codes)
    full = (1 << len(seq)) - 1
    return _poly_of_masks(seq, {u: signed(full ^ u) for u in range(full + 1)})


def wick_recursion_step(source, seq: LabeledSeq) -> WickPoly:
    """Construct W[y^I] by peeling the first element against cumulants."""
    _check_guard(seq)
    kappa_of = as_kappa_fn(source)
    kappas: dict[int, complex] = {}
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
            block = first | sub
            if block not in kappas:
                kappas[block] = kappa_of(seq.select(block))
            for v, c in build(rest ^ sub).items():
                terms[v] = terms.get(v, 0.0 + 0.0j) - kappas[block] * c
            if sub == rest:
                break
            sub = (sub - rest) & rest
        memo[mask] = terms
        return terms

    return _poly_of_masks(seq, build((1 << len(seq)) - 1))


# ----------------------------------------------------------------------
# derivative and expectations


def wick_derivative(poly: WickPoly, j: Index) -> WickPoly:
    """Formal partial derivative with respect to the variable of index j.

    Satisfies d/dy_j W[y^I] = sum over slots k with i_k = j of W[y^(I with
    slot k removed)]; the result lives on the same ground.
    """
    terms: dict[frozenset, complex] = {}
    for u, c in poly.terms.items():
        for label in u:
            if poly.ground.index_at(label) == j:
                key = u - {label}
                terms[key] = terms.get(key, 0.0 + 0.0j) + c
    return WickPoly(poly.ground, terms)


def truncated_expectation(
    oracle_or_kappa, seq_i: LabeledSeq, seq_iprime: LabeledSeq
) -> complex:
    """E[W[y^I] * y^I'] as the cumulant partition sum over I + I' in which
    every block must meet I'.  In particular E[W[y^I]] = 0 for nonempty I
    and E[W[y^empty]] = 1.

    This is :func:`wick_product_expectation` with the one Wick group I and
    the plain tail I': a block meets I' exactly when it does not sit inside
    I."""
    return wick_product_expectation(oracle_or_kappa, [seq_i], seq_iprime)


def wick_product_expectation(
    source,
    blocks: Sequence[LabeledSeq],
    tail: LabeledSeq = EMPTY,
    memo: PartitionMemo | None = None,
) -> complex:
    """E[prod_l W[y^(J_l)] * y^J'] as the partition sum over the merged
    sequence in which no block may sit inside a single Wick group J_l.

    Blocks inside the plain tail J' are allowed.  With one Wick group this
    reduces to :func:`truncated_expectation`.  The sum is evaluated by
    :func:`wickkit.indexing.partition_sums` over the label bitmasks of the
    merged sequence, each element coded by its (Wick group, index) pair, so
    that both the cumulant of a block and whether it is admissible depend on
    its code alone.  ``memo`` lets the sums over one cumulant source share
    their states (every pair expectation of a hierarchy right-hand side, for
    example); by default each call has its own.
    """
    groups: list[int] = []  # label bitmask of each Wick group
    tags: list[tuple] = []  # (Wick group or None for the tail, index) per element
    for g, piece in enumerate((*blocks, tail)):
        if g == len(blocks):
            g = None
        else:
            groups.append(((1 << len(piece)) - 1) << len(tags))
        tags.extend((g, idx) for idx in piece.indices())

    def admissible(block: int) -> bool:
        return all(block & ~group for group in groups)

    if memo is None:
        memo = PartitionMemo()
    keys = memo.book.slots(tags)
    full = sum(keys)
    if full in memo.totals:  # a shared memo has summed this merged multiset already
        return memo.totals[full]
    book, kappa_code = coded_cumulants(source)
    slots = book.slots(idx for _, idx in tags)
    return _coded_sum(kappa_code, slots, memo, keys, admissible)


# ----------------------------------------------------------------------
# Gaussian reference construction


def gaussian_reference_wick(
    mean, covariance, seq: LabeledSeq
) -> WickPoly:
    """Closed-form Wick polynomial of jointly Gaussian variables.

    ``seq``'s indices must be integers addressing ``mean`` (vector) and
    ``covariance`` (symmetric matrix).  The polynomial is assembled from
    partial pairings: unpaired slots contribute centered factors
    (y_i - mean_i) and each pair (a, b) contributes -covariance[a, b].
    For one standard variable this yields the probabilists' Hermite
    polynomials He_n.
    """
    _check_guard(seq)
    mean = np.atleast_1d(np.asarray(mean, dtype=complex))
    cov = np.atleast_2d(np.asarray(covariance, dtype=complex))
    if cov.shape[0] != cov.shape[1]:
        raise ValueError("covariance must be square")
    if not np.allclose(cov, cov.T, rtol=0, atol=1e-12):
        raise ValueError("covariance must be symmetric")
    for idx in seq.indices():
        if not isinstance(idx, (int, np.integer)) or not 0 <= idx < len(mean):
            raise ValueError(
                f"index {idx!r} does not address the mean/covariance arrays"
            )

    match_memo: dict[frozenset, complex] = {}

    def matching_sum(labels: frozenset) -> complex:
        """Sum over perfect matchings of prod over pairs of (-C_ab)."""
        if not labels:
            return 1.0 + 0.0j
        if len(labels) % 2:
            return 0.0 + 0.0j
        if labels in match_memo:
            return match_memo[labels]
        rest = sorted(labels)
        a = rest[0]
        ia = seq.index_at(a)
        total = 0.0 + 0.0j
        for b in rest[1:]:
            ib = seq.index_at(b)
            total += -cov[ia, ib] * matching_sum(labels - {a, b})
        match_memo[labels] = total
        return total

    terms: dict[frozenset, complex] = {}
    for unpaired in subsets(seq):
        ps = matching_sum(frozenset(set(seq.labels) - set(unpaired.labels)))
        if ps == 0:
            continue
        # expand prod over unpaired slots of (y_s - mean_s)
        u_labels = list(unpaired.labels)
        for mask in range(1 << len(u_labels)):
            kept = frozenset(
                u_labels[i] for i in range(len(u_labels)) if mask >> i & 1
            )
            coeff = ps
            for i in range(len(u_labels)):
                if not mask >> i & 1:
                    coeff *= -mean[seq.index_at(u_labels[i])]
            terms[kept] = terms.get(kept, 0.0 + 0.0j) + coeff
    return WickPoly(seq, terms)


# ----------------------------------------------------------------------
# multiset polynomials and multilinearity


def substitute_index(
    mpoly: Mapping[tuple, complex],
    composite: Index,
    combo: Sequence[tuple[complex, Index]],
) -> dict[tuple, complex]:
    """Substitute y_composite = sum_m c_m y_{i_m} into a multiset polynomial."""
    out: dict[tuple, complex] = {}
    for key, coeff in mpoly.items():
        slots = [i for i, idx in enumerate(key) if idx == composite]
        if not slots:
            out[key] = out.get(key, 0.0 + 0.0j) + coeff
            continue
        for choice in itertools.product(combo, repeat=len(slots)):
            c = coeff
            replaced = list(key)
            for slot, (cm, im) in zip(slots, choice):
                c *= complex(cm)
                replaced[slot] = im
            ckey = canonical_key(replaced)
            out[ckey] = out.get(ckey, 0.0 + 0.0j) + c
    return {k: v for k, v in out.items() if v != 0}


def multiset_poly_distance(
    a: Mapping[tuple, complex], b: Mapping[tuple, complex]
) -> float:
    """Max absolute coefficient difference over the union of monomials."""
    worst = 0.0
    for key in set(a) | set(b):
        worst = max(worst, abs(a.get(key, 0.0) - b.get(key, 0.0)))
    return worst


@dataclass
class WickMultilinearityReport:
    ok: bool
    max_abs_error: float

    def __bool__(self) -> bool:
        return self.ok


def wick_multilinearity(
    source,
    seq: LabeledSeq,
    slot_label: int,
    combo: Sequence[tuple[complex, Index]],
    atol: float = 1e-10,
) -> WickMultilinearityReport:
    """Check W is linear in the slot: with y_j = sum_m c_m y_{i_m} at
    ``slot_label``, W[y^I] must equal sum_m c_m W[y^(I with j -> i_m)] as
    polynomials in the base variables (composite occurrences substituted).

    ``source`` must supply consistent cumulants for the composite and base
    indices together (e.g. a LinearCombinationOracle).
    """
    composite = seq.index_at(slot_label)
    lhs = substitute_index(
        wick_from_cumulants(source, seq).multiset_terms(), composite, combo
    )
    rhs: dict[tuple, complex] = {}
    for cm, im in combo:
        swapped = LabeledSeq(
            tuple(
                (lab, im if lab == slot_label else idx) for lab, idx in seq.elements
            )
        )
        part = substitute_index(
            wick_from_cumulants(source, swapped).multiset_terms(), composite, combo
        )
        for k, v in part.items():
            rhs[k] = rhs.get(k, 0.0 + 0.0j) + complex(cm) * v
    err = multiset_poly_distance(lhs, {k: v for k, v in rhs.items() if v != 0})
    return WickMultilinearityReport(ok=err <= atol, max_abs_error=err)
