"""Joint moments and cumulants of finite index sequences.

A *moment oracle* maps a collapsed index multiset to the joint moment
E[y^I]; everything else is derived from it.  Cumulants are computed by the
first-element recursion

    kappa[I] = E[y^I] - sum over E with x in E, E proper subset of I of
               E[y^(I minus E)] * kappa[E],

where x is the first-labeled element of I, with kappa[empty] := 0 by
convention; E ranges over the label bitmasks of I that hold x, and each
subset's moment is fetched once per call.  Moments are recovered from
cumulants by the partition sum
E[y^I] = sum over set partitions pi of I of prod over blocks A of kappa[A],
evaluated by the bitmask kernel :func:`wickkit.indexing.partition_sum`
(one cumulant lookup per block, each remaining subset summed once).  Both
directions are permutation invariant, so all memoization and table storage
uses canonical multiset keys.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, _json, _object, _pair
from .indexing import Index, LabeledSeq, canonical_key, partition_sum

KappaFn = Callable[[LabeledSeq], complex]


# ----------------------------------------------------------------------
# moment oracles


class MomentOracle:
    """Source of joint moments, queried by collapsed multiset key."""

    def moment(self, key: tuple) -> complex:
        raise NotImplementedError

    def moment_of(self, seq: LabeledSeq) -> complex:
        # E[y^empty] = 1 is definitional and shared by every oracle
        if not seq:
            return 1.0
        return self.moment(seq.key())


class TableOracle(MomentOracle):
    """Moments read from an explicit mapping of canonical keys to values."""

    def __init__(self, entries: Mapping[tuple, complex]):
        self.entries = {canonical_key(k): complex(v) for k, v in entries.items()}
        if () in self.entries and self.entries[()] != 1.0:
            raise ConfigError("the empty moment must equal 1")

    def moment(self, key: tuple) -> complex:
        return self.entries[canonical_key(key)]


class CumulantBackedOracle(MomentOracle):
    """Moments synthesized from a cumulant table via the partition sum.

    Handy for building exactly-consistent model measures: any assignment of
    cumulants (zero above the table's max order) determines all moments.
    """

    def __init__(self, table: "CumulantTable"):
        self.table = table
        self._cache: dict[tuple, complex] = {}

    def moment(self, key: tuple) -> complex:
        key = canonical_key(key)
        if key not in self._cache:
            seq = LabeledSeq.from_indices(key)
            self._cache[key] = moments_from_cumulants(self.table, seq)
        return self._cache[key]


def gaussian_moment_oracle(
    mean: Mapping[Index, complex], cov: Mapping[tuple, complex]
) -> CumulantBackedOracle:
    """The moment oracle of a (complex) Gaussian family.

    ``cov[(i, j)]`` is the joint second cumulant of y_i and y_j; symmetric
    completion is applied, and all cumulants above order two vanish.
    """
    table = CumulantTable.empty(max_order=2, provenance="analytic")
    for i, v in mean.items():
        table.set((i,), v)
    for (i, j), v in cov.items():
        table.set((i, j), v)
    return CumulantBackedOracle(table)


class IndependentProductOracle(MomentOracle):
    """Joint moments of independent groups of variables.

    ``groups`` is a list of ``(index_set, oracle)`` pairs with disjoint index
    sets; a mixed moment factorizes over the groups.
    """

    def __init__(self, groups: Sequence[tuple[Iterable[Index], MomentOracle]]):
        self.groups = [(frozenset(ids), oracle) for ids, oracle in groups]
        everything = [i for ids, _ in self.groups for i in ids]
        if len(everything) != len(set(everything)):
            raise ValueError("group index sets must be disjoint")

    def moment(self, key: tuple) -> complex:
        out = 1.0 + 0.0j
        for ids, oracle in self.groups:
            part = tuple(i for i in key if i in ids)
            if part:
                out *= oracle.moment(canonical_key(part))
        covered = sum(1 for i in key for ids, _ in self.groups if i in ids)
        if covered != len(key):
            raise KeyError(f"indices {key} not fully covered by the groups")
        return out


class LinearCombinationOracle(MomentOracle):
    """Extend a base oracle to a composite index j defined as a linear
    combination sum_m c_m * y_{i_m} of base variables.

    Moments containing j are expanded slotwise by multilinearity of the
    moment in each argument.
    """

    def __init__(
        self,
        base: MomentOracle,
        composite: Index,
        combo: Sequence[tuple[complex, Index]],
    ):
        self.base = base
        self.composite = composite
        self.combo = tuple((complex(c), i) for c, i in combo)

    def moment(self, key: tuple) -> complex:
        slots = [i for i, idx in enumerate(key) if idx == self.composite]
        if not slots:
            return self.base.moment(key)
        out = 0.0 + 0.0j
        for choice in itertools.product(self.combo, repeat=len(slots)):
            coeff = 1.0 + 0.0j
            replaced = list(key)
            for slot, (c, idx) in zip(slots, choice):
                coeff *= c
                replaced[slot] = idx
            out += coeff * self.base.moment(canonical_key(replaced))
        return out


class EnsembleOracle(MomentOracle):
    """Empirical moments of a finite ensemble of joint realizations.

    ``samples`` maps each index to a length-n complex array; the moment of a
    key is the sample mean of the realization-wise product.  Leave-one-out
    means are exposed for jackknifing.
    """

    def __init__(self, samples: Mapping[Index, np.ndarray]):
        self.samples = {i: np.asarray(v, dtype=complex) for i, v in samples.items()}
        sizes = {v.shape for v in self.samples.values()}
        if len(sizes) != 1 or any(len(s) != 1 for s in sizes):
            raise ValueError("all sample arrays must be 1-d of equal length")
        self.n = next(iter(sizes))[0]
        if self.n < 2:
            raise ValueError("need at least two realizations")
        self._prod_cache: dict[tuple, np.ndarray] = {}

    def _products(self, key: tuple) -> np.ndarray:
        key = canonical_key(key)
        if key not in self._prod_cache:
            out = np.ones(self.n, dtype=complex)
            for idx in key:
                out = out * self.samples[idx]
            self._prod_cache[key] = out
        return self._prod_cache[key]

    def moment(self, key: tuple) -> complex:
        return complex(self._products(key).mean())

    def loo_moment(self, key: tuple) -> np.ndarray:
        """Length-n array of leave-one-out sample means."""
        p = self._products(key)
        return (p.sum() - p) / (self.n - 1)

    def loo_moment_of(self, seq: LabeledSeq) -> np.ndarray | float:
        if not seq:
            return 1.0
        return self.loo_moment(seq.key())


# ----------------------------------------------------------------------
# cumulant tables


def _key_to_str(key: tuple) -> str:
    return json.dumps(list(key), separators=(",", ":"))


def _as_index(token):
    if isinstance(token, list):
        return tuple(_as_index(t) for t in token)
    if isinstance(token, dict) or isinstance(token, float) and not math.isfinite(token):
        raise ConfigError(f"an index must be a finite number, a string or a list of them, got {token!r}")
    return token


def table_from_json(data) -> dict[tuple, complex]:
    """The checked entries of the external form ``{"[i, j, ...]": [re, im]}``, keys as written."""
    entries = {}
    for text, value in _object(data, "a table").items():
        key = _json(text, f"table key {text!r}")
        if not isinstance(key, list):
            raise ConfigError(f"table key {text!r} must be a JSON list of indices")
        entries[tuple(_as_index(t) for t in key)] = _pair(value, f"table entry {text}")
    return entries


def table_to_json(entries: Mapping[tuple, complex]) -> dict[str, list[float]]:
    """The external table form of ``entries``, keys in sorted string order."""
    out = {}
    for key in sorted(entries, key=_key_to_str):
        value = complex(entries[key])
        out[_key_to_str(key)] = [value.real, value.imag]
    return out


@dataclass
class CumulantTable:
    """Joint cumulants stored under canonical multiset keys.

    Keys longer than ``max_order`` read as zero, as does the empty key.
    ``provenance`` is a free-form tag ("analytic", "empirical", ...).
    """

    entries: dict[tuple, complex] = field(default_factory=dict)
    max_order: int | None = None
    provenance: str = "analytic"
    errors: dict[tuple, float] | None = None

    def __post_init__(self) -> None:
        self.entries = {canonical_key(k): complex(v) for k, v in self.entries.items()}
        if self.max_order is None:
            self.max_order = max((len(k) for k in self.entries), default=0)
        for k in self.entries:
            if len(k) > self.max_order:
                raise ConfigError(f"entry {k} exceeds max order {self.max_order}")
            if len(k) == 0:
                raise ConfigError("the empty cumulant is fixed at 0 and not stored")

    @classmethod
    def empty(cls, max_order: int, provenance: str = "analytic") -> "CumulantTable":
        return cls(entries={}, max_order=max_order, provenance=provenance)

    def set(self, key: Iterable[Index], value: complex) -> None:
        key = canonical_key(key)
        if len(key) == 0:
            raise ConfigError("the empty cumulant is fixed at 0")
        if len(key) > self.max_order:
            raise ConfigError(f"key {key} exceeds max order {self.max_order}")
        self.entries[key] = complex(value)

    def kappa(self, key: Iterable[Index]) -> complex:
        key = canonical_key(key)
        if len(key) == 0 or len(key) > self.max_order:
            return 0.0 + 0.0j
        return self.entries.get(key, 0.0 + 0.0j)

    def kappa_of(self, seq: LabeledSeq) -> complex:
        return self.kappa(seq.indices())

    def to_json(self) -> dict[str, list[float]]:
        """The external form: canonical key string -> [re, im]."""
        return table_to_json(self.entries)

    @classmethod
    def from_json(
        cls,
        data: Mapping[str, Sequence[float]],
        max_order: int | None = None,
        provenance: str = "analytic",
    ) -> "CumulantTable":
        return cls(entries=table_from_json(data), max_order=max_order, provenance=provenance)


# ----------------------------------------------------------------------
# conversions


def _kappa_recursive(moment_of, seq: LabeledSeq, memo: dict):
    """First-element cumulant recursion; works for scalar or array moments.

    Subsets of ``seq`` are label bitmasks; ``memo`` maps canonical keys to
    cumulants and may be shared between calls.
    """
    if not seq:
        return 0.0
    key = seq.key()
    if key in memo:
        return memo[key]
    indices = seq.indices()
    moments: dict[int, object] = {}

    def moment(mask: int):
        if mask not in moments:
            moments[mask] = moment_of(seq.select(mask))
        return moments[mask]

    def kappa(mask: int):
        key = canonical_key(idx for i, idx in enumerate(indices) if mask >> i & 1)
        if key not in memo:
            first = mask & -mask
            rest = mask ^ first
            total = moment(mask)
            sub = 0
            while sub != rest:  # E = first + sub, E = I excluded
                e = first | sub
                total = total - moment(mask ^ e) * kappa(e)
                sub = (sub - rest) & rest
            memo[key] = total
        return memo[key]

    return kappa((1 << len(seq)) - 1)


class CumulantEvaluator:
    """Memoized cumulants of a moment oracle."""

    def __init__(self, oracle: MomentOracle):
        self.oracle = oracle
        self._memo: dict[tuple, complex] = {}

    def kappa_of(self, seq: LabeledSeq) -> complex:
        return _kappa_recursive(self.oracle.moment_of, seq, self._memo)

    def kappa(self, key: Iterable[Index]) -> complex:
        return self.kappa_of(LabeledSeq.from_indices(key))


def cumulants_from_moments(oracle: MomentOracle, seq: LabeledSeq) -> complex:
    """The joint cumulant of ``seq`` under the given moment oracle."""
    return CumulantEvaluator(oracle).kappa_of(seq)


def as_kappa_fn(source) -> KappaFn:
    """Normalize a cumulant source to a function LabeledSeq -> complex.

    Accepts a CumulantTable, a MomentOracle (cumulants are then derived by
    the recursion, memoized), a CumulantEvaluator, or a plain callable.
    """
    if isinstance(source, CumulantTable):
        return source.kappa_of
    if isinstance(source, CumulantEvaluator):
        return source.kappa_of
    if isinstance(source, MomentOracle):
        return CumulantEvaluator(source).kappa_of
    if callable(source):
        return source
    raise TypeError(f"cannot interpret {type(source).__name__} as cumulants")


def moments_from_cumulants(source, seq: LabeledSeq) -> complex:
    """E[y^I] = sum over partitions of prod over blocks of kappa[block]."""
    return partition_sum(seq, as_kappa_fn(source))


def cumulant_table_from_oracle(
    oracle: MomentOracle,
    indices: Sequence[Index],
    max_order: int,
    provenance: str = "analytic",
) -> CumulantTable:
    """Tabulate all cumulants over the given indices up to max_order."""
    ev = CumulantEvaluator(oracle)
    table = CumulantTable.empty(max_order=max_order, provenance=provenance)
    pool = sorted(set(indices), key=lambda i: (type(i).__name__, repr(i)))
    for order in range(1, max_order + 1):
        for combo in itertools.combinations_with_replacement(pool, order):
            table.set(combo, ev.kappa(combo))
    return table


# ----------------------------------------------------------------------
# multilinearity check


@dataclass
class MultilinearityReport:
    ok: bool
    max_rel_error: float
    checks: list[tuple[tuple, int, float]]

    def __bool__(self) -> bool:
        return self.ok


def multilinearity_check(
    source,
    composite: Index,
    combo: Sequence[tuple[complex, Index]],
    seqs: Iterable[LabeledSeq],
    rtol: float = 1e-10,
) -> MultilinearityReport:
    """Check kappa linearity in every slot holding the composite index.

    For each sequence and each slot whose index equals ``composite``, compare
    kappa[seq] against sum_m c_m * kappa[seq with that slot replaced by i_m].
    The source must supply consistent cumulants for both the composite and
    the replacement indices (e.g. via LinearCombinationOracle).
    """
    kappa_of = as_kappa_fn(source)
    checks: list[tuple[tuple, int, float]] = []
    worst = 0.0
    for seq in seqs:
        for label, idx in seq.elements:
            if idx != composite:
                continue
            lhs = kappa_of(seq)
            rhs = 0.0 + 0.0j
            for c, repl in combo:
                swapped = LabeledSeq(
                    tuple(
                        (lab, repl if lab == label else orig)
                        for lab, orig in seq.elements
                    )
                )
                rhs += complex(c) * kappa_of(swapped)
            rel = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
            checks.append((seq.indices(), label, rel))
            worst = max(worst, rel)
    return MultilinearityReport(ok=worst <= rtol, max_rel_error=worst, checks=checks)


# ----------------------------------------------------------------------
# empirical cumulants


def empirical_cumulant(
    ensemble: EnsembleOracle, seq: LabeledSeq
) -> tuple[complex, float]:
    """Plug-in cumulant estimate with a jackknife standard error.

    The estimate applies the moment-cumulant recursion to full-sample means;
    the standard error reruns the recursion on all n leave-one-out means at
    once (the recursion is arithmetic in the moments, so it vectorizes) and
    applies the jackknife formula.  The returned error is
    sqrt(var_re + var_im) of the jackknife distribution.
    """
    value = complex(_kappa_recursive(ensemble.moment_of, seq, {}))
    loo = _kappa_recursive(ensemble.loo_moment_of, seq, {})
    loo = np.asarray(loo, dtype=complex)
    n = ensemble.n
    center = loo.mean()
    se = float(np.sqrt((n - 1) / n * np.sum(np.abs(loo - center) ** 2)))
    return value, se
