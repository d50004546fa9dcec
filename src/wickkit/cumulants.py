"""Joint moments and cumulants of finite index sequences.

A *moment oracle* maps a collapsed index multiset to the joint moment
E[y^I]; everything else is derived from it.  An oracle is read one way:
through ``moment_code``, by the multiset code of its ``book``, which holds
every index the oracle has moments for (see :class:`MomentOracle`).
Cumulants are computed by the first-element recursion

    kappa[I] = E[y^I] - sum over E with x in E, E proper subset of I of
               E[y^(I minus E)] * kappa[E],

where x is an element of I whose index has the lowest code-book id, with
kappa[empty] := 0 by convention.  A term depends on E only through its multiset, so the sum
runs over the distinct sub-multisets that hold x, each weighted by the
binomial count of the label subsets it stands for (:func:`_kappa_recursive`).
Moments are recovered from cumulants by the partition sum
E[y^I] = sum over set partitions pi of I of prod over blocks A of kappa[A],
evaluated by the multiset kernel :func:`wickkit.indexing.partition_sum` over
the same distinct sub-multisets and binomial counts (one cumulant lookup per
distinct block, each distinct remaining multiset summed once).  Both
directions are permutation invariant, so every memo, moment cache and table
lookup inside them is keyed by multiset code (:class:`Codebook`): a book is
built once from the source's indices and no read grows it, and a block's
code is one addition.  A table numbers its indices in canonical order
(:func:`_coded`), so every sum over its codes is a function of the table's
value, not of its key order, and no cumulant depends on the reads made
before it.  :func:`coded_cumulants` alone decides which indices a reader of
cumulants may code beyond a source's own: a table's book is extended by
them, and they read 0, while an evaluator's book must hold them already.
Canonical keys (sorted tuples) are the public key form of ``moment``,
``kappa`` and ``entries`` and of the JSON tables.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from .errors import ConfigError, GuardError, _json, _object, _pair, loo_means
from .indexing import (
    CODE_BITS,
    SUBSET_GUARD,
    Codebook,
    Index,
    LabeledSeq,
    PartitionMemo,
    _blocks,
    _size,
    canonical_key,
    partition_sum,
)


# ----------------------------------------------------------------------
# moment oracles


class MomentOracle:
    """Source of joint moments, read by multiset code of its ``book``.

    A subclass builds ``book``, a :class:`Codebook` of every index it has
    moments for, and defines ``moment_code(code)``, E[y^I] for the multiset
    I of a code in that book; code 0 reads 1.  The key form :meth:`moment`
    codes its argument, any index sequence, and reads it; a key naming an
    index the book lacks is a KeyError naming the key as given.
    """

    book: Codebook

    def moment_code(self, code: int) -> complex:
        raise NotImplementedError

    def moment(self, key: Iterable[Index]) -> complex:
        key = tuple(key)
        try:
            code = self.book.code(key)
        except KeyError:
            raise KeyError(key) from None
        return self.moment_code(code)


class TableOracle(MomentOracle):
    """Moments read from an explicit mapping of index keys to values.

    Its ``book`` holds the table's indices in canonical order.  A key
    naming an index the table lacks is a KeyError naming the key as given,
    and a key of the table's indices that it has no entry for is a KeyError
    naming the canonical key.
    """

    def __init__(self, entries: Mapping[tuple, complex]):
        self.book, self._by_code = _coded(entries, list(entries))
        if self._by_code.setdefault(0, 1.0 + 0.0j) != 1.0:  # an absent empty moment reads as 1
            raise ConfigError("the empty moment must equal 1")

    def moment_code(self, code: int) -> complex:
        try:
            return self._by_code[code]
        except KeyError:
            raise KeyError(self.book.key(code)) from None


class CumulantBackedOracle(MomentOracle):
    """Moments synthesized from a cumulant source via the partition sum.

    The source is read through :func:`coded_cumulants`: a table (zero above
    its max order), an evaluator or a moment oracle.  The oracle owns
    ``memo``, the partition-sum states of every moment it reads, keyed by
    the source's codes, so the memo lives exactly as long as the oracle.  A
    table is frozen once built, so no memo can go stale under it.  A
    multiset's elements are summed in code-book id order.  The key form
    codes its key over the book that :func:`coded_cumulants` gives for it:
    over a table, a key naming an index the table lacks reads 0, and the
    memo stays exact, since every code naming an id past the table's own
    sums to 0.  Only the key form does so: ``book`` is the source's own, so
    a code-form route (``wick_recursive``, ``WickPoly.expectation``) naming
    an absent index is a KeyError.
    """

    def __init__(self, source):
        self._source = source
        self.book, self._kappa_code = coded_cumulants(source)
        self.memo = PartitionMemo()

    def moment(self, key: Iterable[Index]) -> complex:
        key = tuple(key)
        return self.moment_code(coded_cumulants(self._source, key)[0].code(key))

    def moment_code(self, code: int) -> complex:
        return partition_sum(code, self._kappa_code, self.memo)


class EnsembleOracle(MomentOracle):
    """Empirical moments of a finite ensemble of joint realizations.

    ``samples`` maps each index to an ``(n,)`` or ``(n, m)`` complex array,
    all of one shape: n realizations of m samples each (the sites of one
    lattice field, say; an ``(n,)`` array is ``(n, 1)``).  The moment of a
    key is the mean over m of the sample-wise product within each
    realization, then the mean over the n realizations; the leave-one-out
    moments drop one realization each, for jackknifing.  Products are kept
    by multiset code of ``book``, each built from the product of its first
    k - 1 indices in id order; a product is stored only once a longer one
    is built on it, while the per-realization means of every code are kept.
    """

    def __init__(self, samples: Mapping[Index, np.ndarray]):
        import numpy as np  # deferred: keeps numpy off the algebra kinds' import path

        arrays = {i: np.asarray(v, dtype=complex) for i, v in samples.items()}
        shapes = {v.shape for v in arrays.values()}
        if len(shapes) != 1 or len(next(iter(shapes))) not in (1, 2):
            raise ValueError("the sample arrays must all have one (n,) or (n, m) shape")
        self.n = next(iter(shapes))[0]
        if self.n < 2:
            raise ValueError("need at least two realizations")
        self.book = Codebook(arrays)
        self._products = {slot: v.reshape(self.n, -1) for slot, v in zip(self.book.slots(arrays), arrays.values())}
        self._means: dict[int, np.ndarray] = {0: np.ones(self.n)}

    def _product(self, code: int, keep: bool = False) -> np.ndarray:
        """The ``(n, m)`` sample-wise product of a code's indices."""
        out = self._products.get(code)
        if out is None:
            top = 1 << (code.bit_length() - 1) // CODE_BITS * CODE_BITS  # the last index's slot
            out = self._product(code - top, keep=True) * self._products[top]
            if keep:
                self._products[code] = out
        return out

    def _realization_means(self, code: int) -> np.ndarray:
        if code not in self._means:
            self._means[code] = self._product(code).mean(axis=1)
        return self._means[code]

    def moment_code(self, code: int) -> complex:
        return complex(self._realization_means(code).mean())

    def loo_moment_code(self, code: int) -> np.ndarray:
        """Length-n array of the leave-one-out moments of a code."""
        return loo_means(self._realization_means(code))


# ----------------------------------------------------------------------
# cumulant tables


#: the compact encoder of table keys, built once: ``json.dumps`` builds one per call
_KEY_ENCODER = json.JSONEncoder(separators=(",", ":"))
#: the types of a plain JSON number (a bool is neither), and the largest finite float
_PLAIN, _MAX = (int, float), sys.float_info.max


def _as_index(token):
    if isinstance(token, list):
        return tuple(_as_index(t) for t in token)
    if token is None or isinstance(token, (bool, dict)) or isinstance(token, float) and not math.isfinite(token):
        raise ConfigError(f"an index must be a finite number, a string or a list of them, got {token!r}")
    return token


def _collision(keys: Iterable, same: Callable) -> ConfigError:
    """The error naming the first two of ``keys`` that ``same`` maps to one value.

    Called only once a table is seen to have fewer distinct ``same`` values
    than keys, so an accepted table pays one length comparison.
    """
    seen = {}
    for key in keys:
        if (value := same(key)) in seen:
            return ConfigError(f"table keys {seen[value]!r} and {key!r} name the same multiset")
        seen[value] = key
    return ConfigError("two table keys name the same multiset")


def _coded(entries: Mapping[tuple, complex], keys: Sequence[tuple]) -> tuple[Codebook, dict[int, complex]]:
    """``(book, {book.code(key): complex(value)})`` of a table, ``keys`` standing in order for those of ``entries``.

    The book numbers the table's indices in canonical order, so its ids,
    and every sum that walks a code in id order, depend on the table's value
    and not on the order of its keys.  Two keys of one multiset are a
    ConfigError naming them as written.
    """
    book = Codebook(canonical_key(dict.fromkeys(index for key in keys for index in key)))
    by_code = {book.code(key): complex(value) for key, value in zip(keys, entries.values())}
    if len(by_code) < len(entries):
        raise _collision(entries, book.code)
    return book, by_code


def table_from_json(data) -> dict[tuple, complex]:
    """The checked entries of the external form ``{"[i, j, ...]": [re, im]}``, keys as written.

    An entry of two finite plain numbers is checked inline; any other value
    goes through ``_pair``, which names the entry, so the text of an error
    is built only for an entry that needs it.  Two keys that spell one index
    sequence (``"[1,2]"`` and ``"[1, 2]"``) are a ConfigError.
    """
    table = _object(data, "a table")
    entries = {}
    for text, value in table.items():
        try:
            key = json.loads(text)
        except json.JSONDecodeError:
            key = _json(text, f"table key {text!r}")  # raises, naming the key
        if type(key) is not list:
            raise ConfigError(f"table key {text!r} must be a JSON list of indices")
        if (
            type(value) is list and len(value) == 2
            and type(value[0]) in _PLAIN and type(value[1]) in _PLAIN
            and -_MAX <= value[0] <= _MAX and -_MAX <= value[1] <= _MAX
        ):
            pair = complex(value[0], value[1])
        else:
            pair = _pair(value, f"table entry {text}")
        entries[tuple(map(_as_index, key))] = pair
    if len(entries) < len(table):
        raise _collision(table, lambda text: tuple(map(_as_index, json.loads(text))))
    return entries


def table_to_json(entries: Mapping[tuple, complex]) -> dict[str, list[float]]:
    """The external table form of ``entries``, keys in sorted string order."""
    texts = sorted(((_KEY_ENCODER.encode(list(key)), key) for key in entries), key=lambda item: item[0])
    out = {}
    for text, key in texts:
        value = complex(entries[key])
        out[text] = [value.real, value.imag]
    return out


@dataclass(frozen=True)
class CumulantTable:
    """Joint cumulants stored under canonical multiset keys, a value built once from a mapping.

    Keys longer than ``max_order`` read as zero, as do the empty key and a
    key naming an index the table lacks.  Lookups go through the multiset
    codes of the table's ``book``, which no read grows.  ``entries`` is a
    read-only view under canonical keys, and the table is frozen, so every
    oracle, memo or cache that has read it stays exact.
    """

    entries: Mapping[tuple, complex] = field(default_factory=dict)
    max_order: int | None = None

    def __post_init__(self) -> None:
        keys = [canonical_key(k) for k in self.entries]
        max_order = max(map(len, keys), default=0) if self.max_order is None else self.max_order
        for k in keys:
            if len(k) > max_order:
                raise ConfigError(f"entry {k} exceeds max order {max_order}")
            if len(k) == 0:
                raise ConfigError("the empty cumulant is fixed at 0 and not stored")
        book, by_code = _coded(self.entries, keys)
        object.__setattr__(self, "entries", MappingProxyType(dict(zip(keys, by_code.values()))))
        object.__setattr__(self, "max_order", max_order)
        object.__setattr__(self, "book", book)
        object.__setattr__(self, "_by_code", by_code)

    def kappa_code(self, code: int) -> complex:
        """The cumulant of a multiset code in the table's book."""
        return self._by_code.get(code, 0.0 + 0.0j)

    def kappa(self, key: Iterable[Index]) -> complex:
        key, ids = tuple(key), self.book.ids
        if len(key) > self.max_order or not all(index in ids for index in key):
            return 0.0 + 0.0j
        return self.kappa_code(self.book.code(key))

    def to_json(self) -> dict[str, list[float]]:
        """The external form: canonical key string -> [re, im]."""
        return table_to_json(self.entries)

    @classmethod
    def from_json(cls, data: Mapping[str, Sequence[float]], max_order: int | None = None) -> "CumulantTable":
        return cls(entries=table_from_json(data), max_order=max_order)


# ----------------------------------------------------------------------
# conversions


def _kappa_recursive(moment: Callable[[int], object], code: int, memo: dict) -> tuple[object, int]:
    """The cumulant of a multiset code by recursion over its sub-multisets.

    With f the first (lowest) id of the multiset R,

        kappa(R) = m(R) - sum over B of C(B) * m(R - B) * kappa(B),

    B over the blocks of :func:`wickkit.indexing._blocks`, each distinct sub-multiset once
    and C(B) its label count.  This is the first-element recursion over the
    label subsets of R with equal blocks grouped; kappa(empty) = 0.  A
    multiset of n elements has at most 2**(n - 1) blocks, and R may hold at
    most ``SUBSET_GUARD`` elements.  ``moment(code)`` is the joint moment of
    a code, scalar or array (the recursion is arithmetic in the moments);
    ``memo`` maps codes to cumulants and may be shared between calls over
    one code book.  Returns the cumulant and the number of (multiset, block)
    terms this call summed.
    """
    if code in memo:
        return memo[code], 0
    if not code:
        return 0.0, 0
    n = _size(code)
    if n > SUBSET_GUARD:
        raise GuardError(f"cumulant recursion guard: {n} > {SUBSET_GUARD}")
    get = memo.get
    terms = 0

    def kappa(code: int):
        nonlocal terms
        blocks, counts = _blocks(code)
        terms += len(blocks)
        total = moment(code)
        for block, count in zip(blocks, counts):
            k = get(block)
            if k is None:
                k = kappa(block)
            if count == 1:
                total = total - moment(code - block) * k
            else:
                total = total - count * (moment(code - block) * k)
        memo[code] = total
        return total

    return kappa(code), terms


class CumulantEvaluator:
    """Memoized cumulants of a moment oracle.

    ``memo`` maps the multiset codes of the oracle's ``book`` to cumulants;
    each distinct multiset is evaluated once, by :func:`_kappa_recursive`
    over its distinct sub-multisets.  ``recursion_terms`` counts the
    (multiset, block) terms summed so far.  The recursion sums in the id
    order of that book, which is fixed when the oracle is built, so a
    cumulant does not depend on the reads made before it.  The key forms
    code over the book, so a read naming an index it lacks is a KeyError.
    """

    def __init__(self, oracle: MomentOracle):
        self.oracle = oracle
        self.book, self._moment = oracle.book, oracle.moment_code
        self.memo: dict[int, complex] = {}
        self.recursion_terms = 0

    def kappa_code(self, code: int) -> complex:
        """The cumulant of a multiset code in ``book``."""
        value, terms = _kappa_recursive(self._moment, code, self.memo)
        self.recursion_terms += terms
        return value

    def kappa_of(self, seq: LabeledSeq) -> complex:
        """:meth:`kappa` of a labeled sequence's indices; the benchmark tracer wraps it by name."""
        return self.kappa_code(self.book.code(seq.indices()))

    def kappa(self, key: Iterable[Index]) -> complex:
        return self.kappa_code(self.book.code(key))


def coded_cumulants(source, indices: Iterable[Index] = ()) -> tuple[Codebook, Callable[[int], complex]]:
    """``(book, kappa_code)`` for a cumulant source: the cumulant of each multiset code of ``book``.

    This is the one way cumulants are read, and the one place that decides
    which ``indices`` beyond the source's own a reader may code.  A source
    is a :class:`CumulantTable`, a :class:`CumulantEvaluator` or a
    :class:`MomentOracle`, whose cumulants are then derived by the
    recursion, memoized; anything else is a TypeError.  A table's book is
    extended by the ``indices`` it lacks (:meth:`Codebook.extended`), and
    every cumulant naming one reads 0.  An evaluator's or an oracle's book is
    given as it is, so coding an index it lacks is a KeyError.
    """
    if isinstance(source, CumulantTable):
        return source.book.extended(indices), source.kappa_code
    if isinstance(source, MomentOracle):
        source = CumulantEvaluator(source)
    if isinstance(source, CumulantEvaluator):
        return source.book, source.kappa_code
    raise TypeError(f"cannot interpret {type(source).__name__} as cumulants")


def moments_from_cumulants(source, indices: Iterable[Index]) -> complex:
    """E[y^I] = sum over partitions of prod over blocks of kappa[block], by a fresh :class:`CumulantBackedOracle`."""
    return CumulantBackedOracle(source).moment(indices)


def cumulant_table_from_oracle(oracle: MomentOracle, indices: Sequence[Index], max_order: int) -> CumulantTable:
    """Tabulate all cumulants over the given indices up to max_order."""
    ev = CumulantEvaluator(oracle)
    pool = canonical_key(set(indices))  # combinations of the sorted pool are canonical keys
    combos = [c for order in range(1, max_order + 1) for c in itertools.combinations_with_replacement(pool, order)]
    return CumulantTable(entries={combo: ev.kappa(combo) for combo in combos}, max_order=max_order)
