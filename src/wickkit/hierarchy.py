"""Cumulant evolution hierarchies for Wick-expanded polynomial dynamics.

For dynamics of the form  d/dt y_j = sum over I in a finite family of
M^I_j(t) * W[y(t)^I]  (each drive written in the Wick basis of the current
law), the joint cumulants obey the closed hierarchy

    d/dt kappa[y_I'] = sum over slots i of I' and drives I of
        M^I_i(t) * E[ W[y^I] * W[y^(I' minus i)] ],

where the pair expectation expands into the partition sum over cumulants in
which no block may sit inside a single Wick factor.  Truncation closes the
hierarchy: cumulants above the table's max order read as zero.

That sum depends on the two Wick factors' multisets alone, so every route to
the right-hand side goes through a :class:`HierarchyPlan`, which keeps the
distinct (drive, rest) pairs and the distinct amplitudes.  An evaluation
calls each amplitude once, hands the pairs it needs to the one pair-sum
routine of :mod:`wickkit.wick`, which sums each once over a memo of its own,
then adds every target's terms in (slot, drive) order.  No caller passes a
memo anywhere.  :func:`hierarchy_rhs` plans one target and
:func:`hierarchy_rhs_table` its distinct targets; :func:`integrate_hierarchy`
plans all its keys once and evaluates the plan on every RK4 stage, and
:func:`duhamel_expand` evaluates a plan on the amplitudes' integrals.

The state is a :class:`~wickkit.cumulants.CumulantTable` and a time, passed
as two arguments.  Targets, drives and the remainder terms of
:func:`duhamel_expand` are index tuples, a slot is a position in its tuple,
and no labels are kept.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .cumulants import CumulantBackedOracle, CumulantTable, MomentOracle
from .errors import ConfigError, rk4, step_count
from .indexing import Codebook, Index, canonical_key
from .wick import _group_code, _group_sums

Amplitude = Callable[[float, CumulantTable], complex]


def constant_amplitude(value: complex) -> Amplitude:
    v = complex(value)
    return lambda t, table: v


@dataclass
class InteractionTerm:
    """One drive on one variable: the index tuple of its Wick monomial and its amplitude.

    The amplitude is called as ``amplitude(t, table)`` with the current
    cumulant table, so state-dependent couplings are expressible.
    """

    seq: tuple[Index, ...]
    amplitude: Amplitude


@dataclass
class AmplitudeModel:
    """The full drive family: for each driven index, its interaction terms."""

    terms: Mapping[Index, Sequence[InteractionTerm]]

    def universe(self) -> list[Index]:
        """All indices the model mentions, deterministically ordered."""
        seen = set(self.terms.keys())
        for terms in self.terms.values():
            for term in terms:
                seen.update(term.seq)
        return list(canonical_key(seen))


class HierarchyPlan:
    """The right-hand sides of a family of targets under one model, planned by pair code.

    Each (target, slot, drive) term of the hierarchy is the drive's amplitude
    times the pair expectation E[W[y^I] W[y^(I' minus i)]].  That sum sees the
    two Wick factors only through their multisets, so the plan codes every
    pair as a Wick-group code over the plan's ``book``
    (:func:`wickkit.wick._group_code`, the drive group 0 and the rest group
    1): the target's code minus the slot's plus the drive's, since codes of
    disjoint groups add.  It keeps the distinct ones in ``pair_codes``, the
    distinct amplitude callables in the order of their first call, and every
    term in the order (target, slot, drive).

    A plan holds no values and may serve any number of tables, for example
    every stage of an RK4 march.
    """

    def __init__(self, model: AmplitudeModel, targets: Sequence[Sequence[Index]]) -> None:
        self.order = max(map(len, targets), default=0)
        self.amplitudes: list[Amplitude] = []
        amplitude_at: dict[int, int] = {}  # by id of the callable, kept alive in self.amplitudes
        pair_at: dict[int, int] = {}  # pair code -> its position, in order of first use
        # per driven index: its code in the rest's group, and (amplitude position, drive code) of each drive
        drives: dict[Index, tuple[int, list[tuple[int, int]]]] = {}
        # per term: amplitude position and pair position
        self._amplitude: list[int] = []
        self._pair: list[int] = []
        self._ends: list[int] = []  # one past each target's last term
        # the targets' indices first, in the order a table keyed by the targets numbers them, then each
        # driven index's drive indices in the order the loop below meets them
        driven = dict.fromkeys(idx for target in targets for idx in target)
        self.book = book = Codebook(
            [*driven, *(idx for i in driven for term in model.terms.get(i, ()) for idx in term.seq)]
        )
        for target in targets:
            full = _group_code(book, [(), target])
            for idx in target:
                entry = drives.get(idx)
                if entry is None:
                    row = []
                    for term in model.terms.get(idx, ()):
                        a = amplitude_at.setdefault(id(term.amplitude), len(self.amplitudes))
                        if a == len(self.amplitudes):
                            self.amplitudes.append(term.amplitude)
                        row.append((a, _group_code(book, [term.seq, ()])))
                    entry = drives[idx] = (_group_code(book, [(), [idx]]), row)
                slot, row = entry
                for a, drive in row:
                    self._amplitude.append(a)
                    self._pair.append(pair_at.setdefault(full - slot + drive, len(pair_at)))
            self._ends.append(len(self._pair))
        self.pair_codes = list(pair_at)

    def evaluate(self, table: CumulantTable, time: float = 0.0) -> tuple[list[complex], dict[str, int]]:
        """The right-hand side of every target at the table and time, and the work done.

        Each amplitude is called once.  The pair codes that a term with a
        nonzero amplitude needs go, in order of first need, to
        :func:`wickkit.wick._group_sums`, which sums each once over a fresh
        memo of the table; each target then adds its terms in (slot, drive)
        order.  So every value has the bytes of the term-by-term loop over
        the pair expectations of :mod:`wickkit.wick`.  The work dict holds
        the memo's counts, the distinct pair codes needed
        (``pair_expectations``) and those the memo already held
        (``pair_memo_hits``).
        """
        return self._rhs(table, lambda amplitude: amplitude(time, table))

    def _rhs(self, table: CumulantTable, value: Callable[[Amplitude], complex]) -> tuple[list[complex], dict[str, int]]:
        """:meth:`evaluate` over ``table`` with ``value(amplitude)`` standing for each amplitude callable."""
        if self.order > table.max_order:
            raise ValueError(f"target order {self.order} exceeds the closure cap {table.max_order}")
        amps = [complex(value(amplitude)) for amplitude in self.amplitudes]
        needed = list(dict.fromkeys(p for a, p in zip(self._amplitude, self._pair) if amps[a] != 0))
        sums, work = _group_sums(table, self.book, [self.pair_codes[p] for p in needed], 2)
        values = dict(zip(needed, sums))
        out, start = [], 0
        for end in self._ends:
            total = 0.0 + 0.0j
            for a, p in zip(self._amplitude[start:end], self._pair[start:end]):
                if amps[a] != 0:
                    total += amps[a] * values[p]
            out.append(total)
            start = end
        return out, work


def hierarchy_rhs(model: AmplitudeModel, table: CumulantTable, target: Sequence[Index], time: float = 0.0) -> complex:
    """d/dt kappa[target] under the model at the table and time, by a one-target plan."""
    return HierarchyPlan(model, [target]).evaluate(table, time)[0][0]


def hierarchy_rhs_table(
    model: AmplitudeModel, table: CumulantTable, targets: Iterable[Sequence[Index]], time: float = 0.0
) -> dict[tuple, complex]:
    """The right-hand side for a family of target keys, by one plan over the distinct canonical keys."""
    keys = list(dict.fromkeys(canonical_key(key) for key in targets))
    values, _ = HierarchyPlan(model, keys).evaluate(table, time)
    return dict(zip(keys, values))


# The most keys ``all_keys_up_to`` builds: a million multiset tuples take a few
# hundred MB, and a larger hierarchy is out of reach of its right-hand side anyway.
MAX_KEYS = 1_000_000


def all_keys_up_to(indices: Sequence[Index], order: int) -> list[tuple]:
    """All canonical multiset keys over the indices with 1 <= length <= order; over ``MAX_KEYS`` is a ConfigError."""
    # combinations of the sorted pool come out sorted, so they are canonical
    pool = canonical_key(set(indices))
    if math.comb(len(pool) + order, order) - 1 > MAX_KEYS:  # counted before any key is built
        raise ConfigError(f"{len(pool)} variables up to order {order} give more than {MAX_KEYS} multiset keys")
    keys = []
    for r in range(1, order + 1):
        keys.extend(itertools.combinations_with_replacement(pool, r))
    return keys


def integrate_hierarchy(
    model: AmplitudeModel,
    table0: CumulantTable,
    t_end: float,
    dt: float,
    t0: float = 0.0,
    record: bool = False,
):
    """March the truncated hierarchy with classic fixed-step RK4 from ``table0`` at time ``t0``.

    Evolves every key over the model universe up to the table's max order,
    the closure: cumulants above it read as zero.  The march takes
    ``t_end / dt`` steps, which must be a whole number.  Returns the final
    table, or (times, tables) when ``record`` is set.
    """
    import numpy as np  # deferred: keeps numpy off the algebra kinds' import path

    cap = table0.max_order
    keys = all_keys_up_to(model.universe(), cap)

    def pack(table: CumulantTable) -> np.ndarray:
        return np.array([table.kappa(k) for k in keys], dtype=complex)

    def unpack(vec: np.ndarray) -> CumulantTable:
        return CumulantTable(entries=dict(zip(keys, vec)), max_order=cap)

    plan = HierarchyPlan(model, keys)

    def rhs(t: float, vec: np.ndarray) -> np.ndarray:
        return np.array(plan.evaluate(unpack(vec), t)[0], dtype=complex)

    n_steps = step_count(t_end, dt, "integrate_hierarchy (t_end, dt)")
    times, vecs = rk4(rhs, pack(table0), t0, t_end / max(n_steps, 1), n_steps)
    if record:
        return times, [unpack(v) for v in vecs]
    return unpack(vecs[-1])


# ----------------------------------------------------------------------
# Duhamel expansion: the cumulant form of the perturbation expansion


def _quad_complex(fn: Callable[[float], complex], a: float, b: float) -> complex:
    if a == b:
        return 0.0 + 0.0j
    from scipy.integrate import quad  # deferred: keeps scipy off the CLI import path

    re, _ = quad(lambda s: fn(s).real, a, b, epsabs=1e-12, limit=200)
    im, _ = quad(lambda s: fn(s).imag, a, b, epsabs=1e-12, limit=200)
    return complex(re, im)


@dataclass
class RemainderTerm:
    """One unevaluated remainder term of :func:`duhamel_expand`, the cumulant form of the
    perturbation expansion of arXiv:1503.05851.

    Represents  integral over s' in [0, t] of
    (d/ds' E[W[y(s')^seq] W[y(s')^rest]]) * tail_weight(s')  with
    tail_weight(s') = integral over s in [s', t] of the amplitude; the state
    derivative under the integral is what the next hierarchy level supplies.
    """

    slot_index: Index
    seq: tuple[Index, ...]
    rest: tuple[Index, ...]
    t_end: float
    tail_weight: Callable[[float], complex]


@dataclass
class DuhamelExpansion:
    """A cumulant's expansion around the initial law, in the cumulant form of the
    perturbation expansion of arXiv:1503.05851: the initial cumulant, the first
    order, and the remainder terms left unevaluated."""

    zeroth: complex
    first_order: complex
    remainder: tuple[RemainderTerm, ...]

    @property
    def value(self) -> complex:
        """Zeroth plus first order (the remainder is not evaluated)."""
        return self.zeroth + self.first_order


def duhamel_expand(model: AmplitudeModel, table0: CumulantTable, target: Sequence[Index], t: float) -> DuhamelExpansion:
    """Integrated hierarchy to first order around the initial law.

    This is the reformulation of the perturbation expansion in cumulants of
    arXiv:1503.05851: a cumulant at time t is its initial value, plus the
    first-order term of the hierarchy at the initial law, plus remainder
    terms whose state derivative the next hierarchy level supplies.

    kappa[target](t) = kappa[target](0)
      + sum over slots/drives of E_0[W[y^I] W[y^(target minus i)]] *
        integral over [0, t] of the amplitude (at the frozen initial table)
      + remainder descriptors carrying the tail weights.

    The first order is the right-hand side of a one-target
    :class:`HierarchyPlan` at ``table0``, each distinct amplitude callable
    standing for its integral over [0, t]; a target above the table's max
    order is a ValueError, as in :func:`hierarchy_rhs`.  Each remainder
    term's ``rest`` is the target with its slot removed by position.
    """
    target = tuple(target)
    plan = HierarchyPlan(model, [target])
    first = plan._rhs(table0, lambda amplitude: _quad_complex(lambda s: amplitude(s, table0), 0.0, t))[0][0]
    remainder: list[RemainderTerm] = []
    for pos, idx in enumerate(target):
        rest = target[:pos] + target[pos + 1 :]
        for term in model.terms.get(idx, ()):

            def tail(s_prime: float, amplitude=term.amplitude) -> complex:
                return _quad_complex(lambda s: amplitude(s, table0), s_prime, t)

            remainder.append(RemainderTerm(slot_index=idx, seq=term.seq, rest=rest, t_end=t, tail_weight=tail))
    return DuhamelExpansion(zeroth=table0.kappa(target), first_order=first, remainder=tuple(remainder))


# ----------------------------------------------------------------------
# interacting particle chain (positions/momenta, power-law pair force)


def appendix_b_model(
    n_particles: int,
    power: int,
    couplings,
    oracle: MomentOracle | None = None,
) -> AmplitudeModel:
    """Drive family of the anharmonic particle system

        d/dt q_n = p_n,
        d/dt p_n = - sum over m != n of lambda_{nm} (q_n - q_m)^(power - 1),

    written in the Wick basis.  Index ('q', n) is a position, ('p', n) a
    momentum.  Positions are driven by the momentum mean (empty sequence)
    plus the momentum Wick monomial with unit amplitude.  Momenta are driven
    by every subsequence shape U of the expanded pair force, with amplitude

        lambda_{nm} * sum over binomial splits of the force monomials of
        sign * count * (remaining position moment),

    the moment read from the supplied oracle, or from the evolving cumulant
    table when ``oracle`` is None.  The amplitudes of one table, an RK4
    stage, read their moments through one :class:`CumulantBackedOracle`, so
    they share its partition sums; a :class:`CumulantTable` is frozen, so
    the oracle of the last table read stays exact for it.
    """
    import numpy as np  # deferred: keeps numpy off the algebra kinds' import path

    if power < 2:
        raise ValueError("power must be at least 2")
    lam = np.asarray(couplings, dtype=float)
    if lam.shape != (n_particles, n_particles):
        raise ValueError("couplings must be (n, n)")
    if not np.allclose(lam, lam.T):
        raise ValueError("couplings must be symmetric")

    a = power

    last: list = [None, oracle]  # the last (frozen) table read and the oracle of its moments

    def moment_of(key: tuple, table: CumulantTable) -> complex:
        if oracle is None and last[0] is not table:
            last[:] = [table, CumulantBackedOracle(table)]
        return last[1].moment(key) if key else 1.0

    terms: dict[Index, list[InteractionTerm]] = {}
    for n in range(n_particles):
        qn, pn = ("q", n), ("p", n)

        def mean_momentum(t, table, _pn=pn):
            return moment_of((_pn,), table)

        terms[qn] = [
            InteractionTerm(seq=(), amplitude=mean_momentum),
            InteractionTerm(seq=(pn,), amplitude=constant_amplitude(1.0)),
        ]

        p_terms: list[InteractionTerm] = []
        for m in range(n_particles):
            if m == n or lam[n, m] == 0.0:
                continue
            qm = ("q", m)
            for k1 in range(a):
                for k2 in range(a - k1):
                    u_seq = (qn,) * k1 + (qm,) * k2

                    def amp(
                        t,
                        table,
                        _k1=k1,
                        _k2=k2,
                        _qn=qn,
                        _qm=qm,
                        _lam=float(lam[n, m]),
                    ):
                        total = 0.0 + 0.0j
                        for k in range(_k1, a - _k2):
                            count = (
                                math.comb(a - 1, k)
                                * math.comb(k, _k1)
                                * math.comb(a - 1 - k, _k2)
                            )
                            sign = (-1) ** (a - k)
                            key = (_qn,) * (k - _k1) + (_qm,) * (a - 1 - k - _k2)
                            total += (
                                sign
                                * count
                                * moment_of(canonical_key(key), table)
                            )
                        return _lam * total

                    p_terms.append(InteractionTerm(seq=u_seq, amplitude=amp))
        terms[pn] = p_terms
    return AmplitudeModel(terms=terms)
