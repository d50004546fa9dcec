"""Shared test fixtures: independent oracles and random model measures.

These deliberately reimplement slow reference formulas so the package code
is checked against something it does not share internals with.
"""

import itertools
import math
from collections import Counter

import numpy as np

from wickkit.cumulants import MomentOracle, TableOracle
from wickkit.indexing import LabeledSeq, canonical_key, partitions


def mobius_cumulant(oracle, seq):
    """Classical Moebius inversion over the partition lattice:
    kappa[I] = sum over partitions pi of (-1)^(|pi|-1) (|pi|-1)! prod_A E[y^A].
    Independent of the package's first-element recursion."""
    if not seq:
        return 0.0 + 0.0j
    total = 0.0 + 0.0j
    for part in partitions(seq):
        m = len(part)
        term = complex((-1) ** (m - 1) * math.factorial(m - 1))
        for block in part:
            term *= oracle.moment_of(seq.restrict(block))
        total += term
    return total


def random_moment_oracle(rng, alphabet=("a", "b", "c"), max_order=8, scale=0.5):
    """Arbitrary (formal) moment assignment: complex Gaussian entries on all
    multisets up to max_order.  Every combinatorial identity in the package
    is a polynomial identity in the moments, so arbitrary assignments are
    legal test measures."""
    entries = {}
    for order in range(1, max_order + 1):
        for key in itertools.combinations_with_replacement(sorted(alphabet), order):
            entries[key] = scale * complex(rng.standard_normal(), rng.standard_normal())
    return TableOracle(entries)


def random_sequences(rng, alphabet=("a", "b", "c"), max_len=6, count=10):
    """Random labeled sequences (with repeats) over the alphabet."""
    out = []
    for _ in range(count):
        n = int(rng.integers(0, max_len + 1))
        idx = [alphabet[int(rng.integers(len(alphabet)))] for _ in range(n)]
        out.append(LabeledSeq.from_indices(idx))
    return out


class PolynomialOracle(MomentOracle):
    """Moment oracle of an explicit finite sample with NumPy arrays, exact
    means (no randomness): used to realize measures with known moments."""

    def __init__(self, values):
        # values: mapping index -> 1-d array of equally weighted atoms
        self.values = {k: np.asarray(v, dtype=complex) for k, v in values.items()}
        (self.n,) = {v.shape[0] for v in self.values.values()}

    def moment(self, key):
        prod = np.ones(self.n, dtype=complex)
        for idx in canonical_key(key):
            prod = prod * self.values[idx]
        return complex(prod.mean())


# ----------------------------------------------------------------------
# brute-force partition sums over multiset-keyed dicts (no package code)


def multiset(indices):
    """An order-free key that tells indices apart by ``==`` alone, as dicts do."""
    return frozenset(Counter(indices).items())


def set_partitions(items):
    """Every set partition of a list, as lists of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def brute_product_expectation(kappa, groups, tail=()):
    """E[prod_l W[y^(J_l)] * y^J'] summed over every set partition of the
    merged positions in which no block sits inside one Wick group J_l.

    ``kappa`` maps a :func:`multiset` key to its cumulant; with no groups
    this is the moment of ``tail``."""
    slots = [(g, idx) for g, group in enumerate(groups) for idx in group]
    slots += [(None, idx) for idx in tail]
    total = 0.0 + 0.0j
    for part in set_partitions(list(range(len(slots)))):
        if any(
            slots[block[0]][0] is not None and len({slots[p][0] for p in block}) == 1
            for block in part
        ):
            continue
        total += math.prod(kappa(multiset(slots[p][1] for p in block)) for block in part)
    return total


def brute_cumulant(moment, indices):
    """Moebius inversion over the set partitions of the positions; ``moment``
    maps a :func:`multiset` key to its moment."""
    total = 0.0 + 0.0j
    for part in set_partitions(list(indices)):
        m = len(part)
        total += (-1) ** (m - 1) * math.factorial(m - 1) * math.prod(moment(multiset(b)) for b in part)
    return total


def brute_wick_coefficients(kappa, indices):
    """Coefficient of each label subset (as a frozenset of positions) of
    W[y^I]: the sum over the partitions pi of the other positions of
    (-1)^|pi| prod kappa."""
    n = len(indices)
    out = {}
    for mask in range(1 << n):
        rest = [indices[i] for i in range(n) if not mask >> i & 1]
        out[frozenset(i for i in range(n) if mask >> i & 1)] = brute_product_expectation(
            lambda key: -kappa(key), [], rest
        )
    return out
