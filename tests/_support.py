"""Shared test fixtures: independent oracles and random model measures.

These deliberately reimplement slow reference formulas so the package code
is checked against something it does not share internals with.
"""

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from wickkit.cumulants import (
    CumulantBackedOracle, CumulantTable, EnsembleOracle, MomentOracle, TableOracle, _kappa_recursive, coded_cumulants,
)
from wickkit.errors import jackknife_stderr, rk4, step_count
from wickkit.hierarchy import all_keys_up_to
from wickkit.indexing import Codebook, LabeledSeq, canonical_key
from wickkit.wick import wick_from_cumulants, wick_product_expectation


def labeled(indices):
    """The labeled sequence of an index sequence, labelled 1..n in order."""
    return LabeledSeq(tuple(enumerate(indices, start=1)))


def mobius_cumulant(oracle, indices):
    """Classical Moebius inversion over the partition lattice:
    kappa[I] = sum over partitions pi of (-1)^(|pi|-1) (|pi|-1)! prod_A E[y^A].
    Independent of the package's first-element recursion."""
    if not indices:
        return 0.0 + 0.0j
    total = 0.0 + 0.0j
    for part in set_partitions(list(range(len(indices)))):
        m = len(part)
        term = complex((-1) ** (m - 1) * math.factorial(m - 1))
        for block in part:
            term *= oracle.moment(canonical_key(indices[p] for p in block))
        total += term
    return total


def reference_kappa_by_subsets(moment, slots, memo):
    """The first-element cumulant recursion over label subsets, for scalar or array moments.

    kappa[I] = m(I) - sum over the label subsets E of I that hold I's first
    label, E != I, of m(I minus E) * kappa[E].  ``slots`` are the multiset
    codes of I's elements, ``moment(code)`` is the joint moment of a code and
    ``memo`` maps codes to cumulants.  Every label subset is its own term,
    equal multisets included, so a subset of k labels sums 2**(k - 1) - 1
    terms; the package groups equal blocks instead.
    """
    if not slots:
        return 0.0
    codes = [0]
    for slot in slots:
        codes += [code + slot for code in codes]

    def kappa(mask):
        code = codes[mask]
        if code not in memo:
            first = mask & -mask
            rest = mask ^ first
            total = moment(code)
            sub = 0
            while sub != rest:
                block = first | sub
                total = total - moment(codes[mask ^ block]) * kappa(block)
                sub = (sub - rest) & rest
            memo[code] = total
        return memo[code]

    return kappa(len(codes) - 1)


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
    """Random index sequences (with repeats) over the alphabet, as tuples."""
    out = []
    for _ in range(count):
        n = int(rng.integers(0, max_len + 1))
        idx = [alphabet[int(rng.integers(len(alphabet)))] for _ in range(n)]
        out.append(tuple(idx))
    return out


class ByKeyOracle(MomentOracle):
    """A moment oracle defined by canonical key: a subclass overrides ``moment``.

    Its book holds the indices it is given, in canonical order, so its codes
    and every sum over them are fixed when it is built.  ``moment_code``
    decodes each code once, through ``book.key``, and keeps the moment
    ``moment`` gives for it; code 0 reads 1.
    """

    def __init__(self, indices):
        self.book = Codebook(canonical_key(dict.fromkeys(indices)))
        self._moments = {0: 1.0}

    def moment_code(self, code):
        if code not in self._moments:
            self._moments[code] = self.moment(self.book.key(code))
        return self._moments[code]


class PolynomialOracle(ByKeyOracle):
    """Moment oracle of an explicit finite sample with NumPy arrays, exact
    means (no randomness): used to realize measures with known moments."""

    def __init__(self, values):
        # values: mapping index -> 1-d array of equally weighted atoms
        self.values = {k: np.asarray(v, dtype=complex) for k, v in values.items()}
        (self.n,) = {v.shape[0] for v in self.values.values()}
        super().__init__(self.values)

    def moment(self, key):
        prod = np.ones(self.n, dtype=complex)
        for idx in canonical_key(key):
            prod = prod * self.values[idx]
        return complex(prod.mean())


def gaussian_moment_oracle(mean, cov):
    """The moment oracle of a (complex) Gaussian family.

    ``cov[(i, j)]`` is the joint second cumulant of y_i and y_j; symmetric
    completion is applied, and all cumulants above order two vanish.  Keys
    are canonical, so a later ``(j, i)`` entry replaces an earlier ``(i, j)``.
    """
    entries = {(i,): v for i, v in mean.items()} | {canonical_key((i, j)): v for (i, j), v in cov.items()}
    return CumulantBackedOracle(CumulantTable(entries=entries, max_order=2))


class IndependentProductOracle(ByKeyOracle):
    """Joint moments of independent groups of variables.

    ``groups`` is a list of ``(index_set, oracle)`` pairs with disjoint index
    sets; a mixed moment factorizes over the groups, so every mixed cumulant
    vanishes.
    """

    def __init__(self, groups):
        self.groups = [(frozenset(ids), oracle) for ids, oracle in groups]
        everything = [i for ids, _ in self.groups for i in ids]
        if len(everything) != len(set(everything)):
            raise ValueError("group index sets must be disjoint")
        super().__init__(everything)

    def moment(self, key):
        out = 1.0 + 0.0j
        for ids, oracle in self.groups:
            part = tuple(i for i in key if i in ids)
            if part:
                out *= oracle.moment(canonical_key(part))
        covered = sum(1 for i in key for ids, _ in self.groups if i in ids)
        if covered != len(key):
            raise KeyError(f"indices {key} not fully covered by the groups")
        return out


class LinearCombinationOracle(ByKeyOracle):
    """Extend a base oracle to a composite index j defined as a linear
    combination sum_m c_m * y_{i_m} of base variables.

    Moments containing j are expanded slotwise by multilinearity of the
    moment in each argument.
    """

    def __init__(self, base, composite, combo):
        self.base = base
        self.composite = composite
        self.combo = tuple((complex(c), i) for c, i in combo)
        super().__init__([*base.book.indices, composite])

    def moment(self, key):
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
    """Coefficient of each position subset (as a mask, bit i for position i) of
    W[y^I]: the sum over the partitions pi of the other positions of
    (-1)^|pi| prod kappa."""
    n = len(indices)
    out = {}
    for mask in range(1 << n):
        rest = [indices[i] for i in range(n) if not mask >> i & 1]
        out[mask] = brute_product_expectation(
            lambda key: -kappa(key), [], rest
        )
    return out


# ----------------------------------------------------------------------
# multilinearity checkers: cumulants and Wick polynomials are linear in
# each slot, so a composite y_j = sum_m c_m y_{i_m} may be expanded slotwise


@dataclass
class MultilinearityReport:
    ok: bool
    max_rel_error: float
    checks: list[tuple[tuple, int, float]]

    def __bool__(self) -> bool:
        return self.ok


def multilinearity_check(source, composite, combo, seqs, rtol=1e-10):
    """Check kappa linearity in every slot holding the composite index.

    For each sequence and each slot whose index equals ``composite``, compare
    kappa[seq] against sum_m c_m * kappa[seq with that slot replaced by i_m].
    The source must supply consistent cumulants for both the composite and
    the replacement indices (e.g. via LinearCombinationOracle).
    """
    book, kappa_code = coded_cumulants(source)
    checks: list[tuple[tuple, int, float]] = []
    worst = 0.0
    for seq in seqs:
        for label, idx in seq.elements:
            if idx != composite:
                continue
            lhs = kappa_code(book.code(seq.indices()))
            rhs = 0.0 + 0.0j
            for c, repl in combo:
                swapped = (repl if lab == label else orig for lab, orig in seq.elements)
                rhs += complex(c) * kappa_code(book.code(swapped))
            rel = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
            checks.append((seq.indices(), label, rel))
            worst = max(worst, rel)
    return MultilinearityReport(ok=worst <= rtol, max_rel_error=worst, checks=checks)


def substitute_index(mpoly, composite, combo):
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


def multiset_poly_distance(a, b):
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


def wick_multilinearity(source, indices, slot, combo, atol=1e-10):
    """Check W is linear in the slot: with y_j = sum_m c_m y_{i_m} at
    position ``slot``, W[y^I] must equal sum_m c_m W[y^(I with j -> i_m)] as
    polynomials in the base variables (composite occurrences substituted).

    ``source`` must supply consistent cumulants for the composite and base
    indices together (e.g. a LinearCombinationOracle).
    """
    composite = indices[slot]
    lhs = substitute_index(
        wick_from_cumulants(source, indices).multiset_terms(), composite, combo
    )
    rhs: dict[tuple, complex] = {}
    for cm, im in combo:
        swapped = (*indices[:slot], im, *indices[slot + 1:])
        part = substitute_index(
            wick_from_cumulants(source, swapped).multiset_terms(), composite, combo
        )
        for k, v in part.items():
            rhs[k] = rhs.get(k, 0.0 + 0.0j) + complex(cm) * v
    err = multiset_poly_distance(lhs, {k: v for k, v in rhs.items() if v != 0})
    return WickMultilinearityReport(ok=err <= atol, max_abs_error=err)


# ----------------------------------------------------------------------
# one realization of the DNLS initial laws, drawn on its own


def sampled_realization(spectrum, seed, index, family="gaussian"):
    """Field ``index`` of ``sample_initial(..., seed, family)``, drawn alone
    from a fresh ``Generator(Philox(key=[seed, index]))``: the real parts of
    the modes, then the imaginary parts (gaussian), or the phases
    (fixed-modulus), and one inverse FFT."""
    spectrum = np.asarray(spectrum, dtype=float)
    rng = np.random.Generator(np.random.Philox(key=[seed, index]))
    amplitude = np.sqrt(spectrum.size * spectrum)
    if family == "gaussian":
        real = rng.standard_normal(spectrum.shape)
        imag = rng.standard_normal(spectrum.shape)
        modes = amplitude * (real + 1j * imag) / math.sqrt(2.0)
    else:
        modes = amplitude * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, spectrum.shape))
    return np.fft.ifftn(modes)


def empirical_cumulant(ensemble, seq):
    """Plug-in cumulant estimate of an ``EnsembleOracle`` with a jackknife standard error.

    The estimate applies the moment-cumulant recursion to full-sample means;
    the standard error reruns the recursion on all n leave-one-out means at
    once (the recursion is arithmetic in the moments, so it vectorizes) and
    applies the jackknife formula, so every moment, the means included, is
    re-estimated without each realization in turn.  The returned error is
    sqrt(var_re + var_im) of the jackknife distribution.
    """
    code = ensemble.book.code(seq.indices())
    if not code:  # the empty cumulant is 0 by definition, on every sample
        return 0.0 + 0.0j, 0.0
    value = complex(_kappa_recursive(ensemble.moment_code, [code], {})[0][0])
    loo = _kappa_recursive(ensemble.loo_moment_code, [code], {})[0][0]
    return value, float(jackknife_stderr(np.asarray(loo, dtype=complex)))


def coincident_fourth_cumulant(ensemble):
    """kappa(conj psi, conj psi, psi, psi) at a single site, site-averaged, of a ``LatticeEnsemble``.

    ``(value, stderr)`` of :func:`empirical_cumulant` over the realizations,
    each with its lattice sites as the samples of the conjugated (-1) and the
    plain (+1) field: every moment is averaged over sites and realizations,
    and the error is a jackknife over realizations that re-estimates every
    moment, the mean included.  A circular Gaussian law gives zero; the
    fixed-modulus family gives  -L^-2d sum_k W(k)^2 < 0.
    """
    fields = ensemble.fields.reshape(ensemble.n_realizations, -1)
    oracle = EnsembleOracle({-1: np.conj(fields), 1: fields})
    value, stderr = empirical_cumulant(oracle, labeled((-1, -1, 1, 1)))
    return value.real, stderr


def reference_coincident_fourth_stderr(ensemble):
    """Delete-one jackknife error of ``coincident_fourth_cumulant``: in a
    Python loop, each realization is dropped in turn and the whole estimator,
    centering included, is recomputed as  E|z|^4 - 2 (E|z|^2)^2 - |E z^2|^2
    on the fields that remain."""
    axes = ensemble.spatial_axes
    n = ensemble.n_realizations
    loo = np.empty(n)
    for i in range(n):
        fields = np.delete(ensemble.fields, i, axis=0)
        z = fields - fields.mean()
        m4 = (np.abs(z) ** 4).mean(axis=axes).mean()
        m2 = (np.abs(z) ** 2).mean(axis=axes).mean()
        mpp = (z**2).mean(axis=axes).mean()
        loo[i] = float(m4 - 2.0 * m2**2 - abs(mpp) ** 2)
    return math.sqrt((n - 1) / n * float(np.sum((loo - loo.mean()) ** 2)))


# ----------------------------------------------------------------------
# the DNLS split-step loop with whole-array numpy transforms


def dnls_rhs(ensemble, dispersion):
    """Time derivative of every field of a ``LatticeEnsemble``:  -i (hopping term + cubic term).

    The vector field that ``integrate_ensemble`` steps, with the hopping
    convolution applied as multiplication by omega(k) under numpy's
    whole-array ``fftn``, which is exact on the periodic lattice.
    """
    psi, axes = ensemble.fields, ensemble.spatial_axes
    hop = np.fft.ifftn(dispersion.omega(ensemble.lattice) * np.fft.fftn(psi, axes=axes), axes=axes)
    return -1j * (hop + ensemble.coupling * np.abs(psi) ** 2 * psi)


def reference_split_steps(ensemble, dispersion, dt, n_steps):
    """Fields and ``r_integral`` of ``integrate_ensemble`` run as one block.

    The fused Strang loop (one opening half phase, then per step the linear
    flow and one merged phase) with whole-array ``np.fft.fftn``/``ifftn`` and
    the complex ``exp`` phase ``exp(-i h coupling rho)``, in the operand
    orders of the package, so on an ensemble of one block its results must
    agree byte for byte."""
    linear = np.exp(-1j * dt * dispersion.omega(ensemble.lattice))
    axes = ensemble.spatial_axes
    coupling = ensemble.coupling
    start = ensemble.fields

    def density(psi):
        return np.square(psi.real) + np.square(psi.imag)

    def phase(h, rho):
        return np.exp(np.multiply(-1j * (h * coupling), rho))

    rho = density(start)
    sums = [rho.sum()]
    psi = np.multiply(phase(0.5 * dt, rho), start) if n_steps else start.copy()
    for step in range(1, n_steps + 1):
        psi = np.fft.ifftn(np.multiply(linear, np.fft.fftn(psi, axes=axes)), axes=axes)
        rho = density(psi)
        sums.append(rho.sum())
        # np.multiply, not ``*``: numpy may run ``psi * <temporary>`` in place in
        # the temporary, which swaps the operands and can move the last bit
        psi = np.multiply(psi, phase(dt if step < n_steps else 0.5 * dt, rho))
    rates = [2.0 * (total / start.size) for total in sums]
    r_integral = ensemble.r_integral
    for step in range(1, n_steps + 1):
        r_integral += dt * 0.5 * (float(rates[step - 1]) + float(rates[step]))
    return psi, r_integral


# ----------------------------------------------------------------------
# the collision engine, rebuilding every W-independent array per call


def delta_weights(config, omega_gap):
    """The unit-mass even energy kernel of a ``CollisionConfig`` at Omega
    values: a Gaussian of width ``resolved_epsilon()``, or the Fejer kernel
    of the config's time window."""
    if config.delta_model == "gaussian":
        eps = config.resolved_epsilon()
        return np.exp(-(omega_gap**2) / (2.0 * eps**2)) / (eps * math.sqrt(2.0 * math.pi))
    support = config.window_support
    return (support / (2.0 * math.pi)) * np.sinc(support * omega_gap / (2.0 * math.pi)) ** 2


def prelimit_window(omega_gap, coupling, tau):
    """Closed form of int_{|r| <= tau/coupling^2} (tau - coupling^2 |r|) e^{i r Omega} dr.

    Equals 2 coupling^2 (1 - cos(T Omega)) / Omega^2 with T = tau/coupling^2,
    continued by tau^2 / coupling^2 at Omega = 0; evaluated stably as
    tau T sinc^2(T Omega / 2 pi).
    """
    support = tau / coupling**2
    return tau * support * np.sinc(support * np.asarray(omega_gap, dtype=float) / (2.0 * math.pi)) ** 2


def reference_time_domain_sums(values, omega, nodes, weights, block_elements):
    """(gain sum, loss sum) of the collision engine with nothing kept between calls.

    Per block of at most ``block_elements`` node-site elements it builds the
    phase ``exp(1j t omega)`` and ``e = ifftn(phase)`` inline and runs four
    lattice FFTs per node, in the operand orders of the package, so the
    package's plan-based sums must agree with it byte for byte."""
    axes = tuple(range(1, values.ndim + 1))
    block = max(1, block_elements // values.size)
    gain = np.zeros(values.shape)
    loss = np.zeros(values.shape)
    for start in range(0, nodes.size, block):
        t = nodes[start:start + block].reshape((-1,) + (1,) * values.ndim)
        weight = weights[start:start + block].reshape(t.shape)
        phase = np.exp(1j * t * omega)
        u = np.fft.ifftn(values * phase, axes=axes, norm="forward")
        e = np.fft.ifftn(phase, axes=axes, norm="forward")
        v = u.conj()
        uv = u * v
        gain_term = np.fft.ifftn(uv * v, axes=axes)
        loss_term = np.fft.ifftn(e * v * v - 2.0 * uv * e.conj(), axes=axes)
        gain += np.sum(weight * (phase * gain_term).real, axis=0)
        loss += np.sum(weight * (phase * loss_term).real, axis=0)
    return gain, loss


# ----------------------------------------------------------------------
# the hierarchy right-hand side, term by term


def reference_hierarchy_rhs(model, table, target, time=0.0):
    """d/dt kappa[target] with the amplitude and the pair expectation called afresh per (slot, drive).

    This is the loop the package ran before it planned the right-hand side
    by pair code, kept as the byte oracle of ``HierarchyPlan``: a memo shared
    or not never changes a partition sum's value, so it adds the same values
    in the same order."""
    if len(target) == 0:
        return 0.0 + 0.0j
    if len(target) > table.max_order:
        raise ValueError(f"target order {len(target)} exceeds the closure cap {table.max_order}")
    total = 0.0 + 0.0j
    for pos, idx in enumerate(target):
        drives = model.terms.get(idx, ())
        if not drives:
            continue
        rest = target[:pos] + target[pos + 1:]
        for term in drives:
            amp = complex(term.amplitude(time, table))
            if amp == 0:
                continue
            total += amp * wick_product_expectation(table, [term.seq, rest])
    return total


def reference_integrate_hierarchy(model, table0, t_end, dt, t0=0.0):
    """The final table of the RK4 march with every stage's right-hand sides
    from :func:`reference_hierarchy_rhs`."""
    cap = table0.max_order
    keys = all_keys_up_to(model.universe(), cap)

    def table_of(vec):
        return CumulantTable(entries=dict(zip(keys, vec)), max_order=cap)

    def rhs(t, vec):
        table = table_of(vec)
        return np.array([reference_hierarchy_rhs(model, table, key, t) for key in keys], dtype=complex)

    n_steps = step_count(t_end, dt, "reference march")
    vec0 = np.array([table0.kappa(key) for key in keys], dtype=complex)
    _, vecs = rk4(rhs, vec0, t0, t_end / max(n_steps, 1), n_steps)
    return table_of(vecs[-1])


# ----------------------------------------------------------------------
# the writers' formatters, cell by cell


def reference_table_to_json(entries):
    """The external table form with each key formatted by ``json.dumps``, twice."""
    def text(key):
        return json.dumps(list(key), separators=(",", ":"))

    return {text(key): [complex(entries[key]).real, complex(entries[key]).imag] for key in sorted(entries, key=text)}


def _csv_text(header, rows):
    return ",".join(header) + "\n" + "".join(",".join(row) + "\n" for row in rows)


def reference_trajectory_csv(lattice, trajectory):
    """The trajectory CSV text, formatted site by site."""
    header = ["tau"] + [f"k{i + 1}" for i in range(lattice.dimension)] + ["value"]
    rows = []
    for step, tau in enumerate(trajectory.taus):
        values = trajectory.spectra[step]
        for site in np.ndindex(lattice.shape):
            ks = [repr(component / lattice.side) for component in site]
            rows.append([repr(float(tau))] + ks + [repr(float(values[site]))])
    return _csv_text(header, rows)


def reference_observables_csv(times, masses, energies):
    """The dnls-simulate observables text, formatted record by record."""
    rows = [[repr(float(t)), repr(m), repr(e)] for t, m, e in zip(times, masses, energies)]
    return _csv_text(["time", "mean_mass", "mean_energy"], rows)


def reference_convergence_csv(lambdas, gap_fields):
    """The bp-compare convergence text, formatted coupling by coupling."""
    rows = [
        [
            repr(coupling),
            repr(float(np.max(np.abs(gaps)))),
            repr(float(np.sqrt(np.mean(gaps**2)))),
            repr(float(np.mean(np.abs(gaps)))),
        ]
        for coupling, gaps in zip(lambdas, gap_fields)
    ]
    return _csv_text(["lambda", "sup_gap", "rms_gap", "mean_abs_gap"], rows)


def reference_kinetic_check_csv(lattice, lambdas, reference, analytics, mc_means, mc_ses):
    """The kinetic-check table text, formatted site by site for each coupling."""
    header = (
        ["lambda"]
        + [f"k{i + 1}" for i in range(lattice.dimension)]
        + ["collision", "prelimit", "mc_mean", "mc_se", "gap"]
    )
    rows = []
    for coupling, analytic, mc_mean, mc_se in zip(lambdas, analytics, mc_means, mc_ses):
        for site in np.ndindex(lattice.shape):
            rows.append(
                [repr(coupling)]
                + [repr(component / lattice.side) for component in site]
                + [
                    repr(float(reference[site])),
                    repr(float(analytic[site])),
                    repr(float(mc_mean[site])),
                    repr(float(mc_se[site])),
                    repr(float(mc_mean[site] - reference[site])),
                ]
            )
    return _csv_text(header, rows)


def reference_spectrum_csv(lattice, values, stderr=None):
    """The spectrum CSV text, formatted site by site."""
    header = ",".join(f"k{i + 1}" for i in range(lattice.dimension)) + ",value,stderr"
    lines = [header]
    for site in np.ndindex(lattice.shape):
        ks = [repr(component / lattice.side) for component in site]
        value = repr(float(values[site]))
        err = repr(float(stderr[site])) if stderr is not None else ""
        lines.append(",".join(ks + [value, err]))
    return "\n".join(lines) + "\n"
