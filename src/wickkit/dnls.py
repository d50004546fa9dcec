"""Discrete nonlinear Schrödinger dynamics on a periodic lattice.

This module simulates

    i d/dt psi(x) = sum_y alpha(x - y) psi(y) + coupling * |psi(x)|^2 psi(x)

for a complex field ``psi`` on a periodic grid, together with the ensemble
machinery needed to study its statistics: random initial laws that are
invariant under global phase rotation and lattice translations, covariance
spectrum estimation, renormalized (phase-compensated) Fourier fields,
symmetry audits, free-propagator decay diagnostics, and l1 clustering norms
of spatial cumulants.

Conventions
-----------
* Fourier transform: ``psi_hat(k) = sum_x psi(x) exp(-i 2 pi k . x)`` with
  ``k`` on the dual grid ``{0, 1/L, ..., (L-1)/L}^d`` (numpy's ``fftn``).
* The conjugation index ``sigma`` selects the field (+1) or its complex
  conjugate (-1); in Fourier space ``conj(psi_hat(k, s)) = psi_hat(-k, -s)``.
* The covariance spectrum is ``W(k) = E|psi_hat(k)|^2 / L^d``, which is real,
  and the mean density is ``E|psi(x)|^2 = mean_k W(k)``.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from .errors import ConfigError, GuardError
from .pool import map_in_order

__all__ = [
    "Lattice",
    "Dispersion",
    "FieldState",
    "LatticeEnsemble",
    "Spectrum",
    "nearest_neighbor_dispersion",
    "next_nearest_dispersion",
    "zero_dispersion",
    "dnls_rhs",
    "integrate",
    "integrate_ensemble",
    "BLOCK_SITES",
    "sample_initial",
    "estimate_W",
    "renormalize_a",
    "gauge_audit",
    "GaugeProbe",
    "GaugeAuditReport",
    "translation_audit",
    "TranslationAuditReport",
    "free_propagator",
    "propagator_decay_fit",
    "PropagatorDecayFit",
    "clustering_norm",
    "pair_cluster_from_spectrum",
    "empirical_pair_cluster",
    "coincident_fourth_cumulant",
    "empirical_fourth_cluster",
    "fixed_modulus_fourth_norm",
    "hamiltonian",
    "ell2_mass",
    "mean_density",
    "save_ensemble",
    "load_ensemble",
    "write_spectrum_csv",
    "read_spectrum_csv",
]


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lattice:
    """Periodic cubic lattice: ``dimension`` axes of ``side`` sites each.

    Positions are integer vectors mod ``side``; dual momenta live on the
    fractional grid ``j / side`` so that plane-wave sums resolve Kronecker
    deltas exactly.
    """

    dimension: int
    side: int

    def __post_init__(self) -> None:
        if not 1 <= self.dimension <= 3:
            raise ConfigError(f"lattice dimension must be 1, 2, or 3, got {self.dimension}")
        if self.side < 2 or self.side & (self.side - 1):
            raise ConfigError(f"lattice side must be a power of two >= 2, got {self.side}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.side,) * self.dimension

    @property
    def size(self) -> int:
        """Total number of sites (and of dual momenta)."""
        return self.side**self.dimension

    @property
    def axes(self) -> tuple[int, ...]:
        """The array axes a field over this lattice occupies (all of them)."""
        return tuple(range(self.dimension))

    def k_grid(self) -> np.ndarray:
        """Dual momenta as fractions, shape ``shape + (dimension,)``."""
        ticks = [np.arange(self.side) / self.side] * self.dimension
        return np.stack(np.meshgrid(*ticks, indexing="ij"), axis=-1)

    def sites(self) -> Iterator[tuple[int, ...]]:
        """All sites in row-major order, starting at the origin."""
        return iter(np.ndindex(self.shape))


@dataclass(frozen=True)
class Dispersion:
    """Symmetric, finitely supported hopping amplitude and its symbol.

    ``hopping`` maps integer offsets to real coefficients and must satisfy
    ``alpha(-x) == alpha(x)``, which makes the symbol

        omega(k) = sum_x alpha(x) cos(2 pi k . x)

    real and even in ``k``.
    """

    dimension: int
    hopping: Mapping[tuple[int, ...], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 1 <= self.dimension <= 3:
            raise ConfigError(f"dispersion dimension must be 1, 2, or 3, got {self.dimension}")
        cleaned: dict[tuple[int, ...], float] = {}
        for offset, coeff in self.hopping.items():
            key = tuple(int(c) for c in offset)
            if len(key) != self.dimension:
                raise ConfigError(f"hopping offset {offset} does not have {self.dimension} components")
            value = float(coeff)
            if not math.isfinite(value):
                raise ConfigError(f"hopping coefficient at {offset} is not finite")
            if value != 0.0:
                cleaned[key] = value
        for offset, coeff in cleaned.items():
            mirror = tuple(-c for c in offset)
            if cleaned.get(mirror) != coeff:
                raise ConfigError(f"hopping is not symmetric: alpha{offset} != alpha{mirror}")
        object.__setattr__(self, "hopping", cleaned)

    def omega(self, lattice: Lattice) -> np.ndarray:
        """Real symbol omega(k) on the dual grid of ``lattice``."""
        if lattice.dimension != self.dimension:
            raise ConfigError(
                f"dispersion dimension {self.dimension} does not match lattice dimension {lattice.dimension}"
            )
        grid = lattice.k_grid()
        symbol = np.zeros(lattice.shape)
        for offset, coeff in self.hopping.items():
            phase = 2.0 * np.pi * np.tensordot(grid, np.asarray(offset, dtype=float), axes=([-1], [0]))
            symbol += coeff * np.cos(phase)
        return symbol

    def max_frequency(self, lattice: Lattice) -> float:
        omega = self.omega(lattice)
        return float(np.max(np.abs(omega))) if omega.size else 0.0


def nearest_neighbor_dispersion(dimension: int) -> Dispersion:
    """Laplacian-type hopping: omega(k) = sum_nu 2 (1 - cos 2 pi k_nu)."""
    hopping: dict[tuple[int, ...], float] = {(0,) * dimension: 2.0 * dimension}
    for nu in range(dimension):
        for step in (1, -1):
            offset = tuple(step if axis == nu else 0 for axis in range(dimension))
            hopping[offset] = -1.0
    return Dispersion(dimension, hopping)


def next_nearest_dispersion(dimension: int, second_shell: float = 0.25) -> Dispersion:
    """Nearest-neighbor hopping plus a second shell along each axis.

    The symbol is ``sum_nu [2 (1 - cos 2 pi k_nu) + 2 g (1 - cos 4 pi k_nu)]``
    with ``g = second_shell``; it stays even, vanishes at k = 0, and changes
    the curvature structure relative to the plain nearest-neighbor symbol.
    """
    base = dict(nearest_neighbor_dispersion(dimension).hopping)
    base[(0,) * dimension] = 2.0 * dimension * (1.0 + second_shell)
    for nu in range(dimension):
        for step in (2, -2):
            offset = tuple(step if axis == nu else 0 for axis in range(dimension))
            base[offset] = -second_shell
    return Dispersion(dimension, base)


def zero_dispersion(dimension: int) -> Dispersion:
    """No hopping at all: the evolution is a pointwise phase flow."""
    return Dispersion(dimension, {})


@dataclass(frozen=True)
class FieldState:
    """One realization of the lattice field at a fixed time."""

    psi: np.ndarray
    time: float = 0.0
    coupling: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "psi", np.asarray(self.psi, dtype=complex))

    def fourier(self) -> np.ndarray:
        """psi_hat(k) = sum_x psi(x) exp(-i 2 pi k . x)."""
        return np.fft.fftn(self.psi)


@dataclass(frozen=True)
class LatticeEnsemble:
    """Independent field realizations sharing a lattice, time, and coupling.

    ``fields`` is the stacked array of realizations, shape
    ``(n_realizations,) + lattice.shape``.  Realization ``i`` is reproducible
    from the counter-based key ``(master_seed, i)``, so the ensemble is
    bitwise identical under any sampling schedule.  ``r_integral`` accumulates
    ``∫_0^t R_s ds`` with ``R_s = 2 E|psi_s(x)|^2`` along the trajectory
    (trapezoid rule); it is what the renormalized field needs and it is
    ``None`` when that history was not recorded.
    """

    lattice: Lattice
    fields: np.ndarray
    time: float = 0.0
    coupling: float = 0.0
    master_seed: int | None = None
    r_integral: float | None = 0.0

    def __post_init__(self) -> None:
        stacked = np.asarray(self.fields, dtype=complex)
        if stacked.ndim != self.lattice.dimension + 1 or stacked.shape[1:] != self.lattice.shape:
            raise ConfigError(
                f"ensemble field array has shape {stacked.shape}, expected (n,) + {self.lattice.shape}"
            )
        object.__setattr__(self, "fields", stacked)

    @property
    def n_realizations(self) -> int:
        return self.fields.shape[0]

    @property
    def spatial_axes(self) -> tuple[int, ...]:
        return tuple(range(1, self.lattice.dimension + 1))

    def realization(self, index: int) -> FieldState:
        return FieldState(self.fields[index], time=self.time, coupling=self.coupling)

    def fourier(self) -> np.ndarray:
        """Per-realization Fourier fields, same stacked layout."""
        return np.fft.fftn(self.fields, axes=self.spatial_axes)


@dataclass(frozen=True)
class Spectrum:
    """Real covariance spectrum on the dual grid, with optional errors."""

    values: np.ndarray
    stderr: np.ndarray | None = None

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if self.stderr is not None:
            err = np.asarray(self.stderr, dtype=float)
            if err.shape != values.shape:
                raise ConfigError("spectrum stderr shape does not match values")
            object.__setattr__(self, "stderr", err)


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

#: Sites per block of an ensemble: sampling and stepping run on whole
#: realizations in blocks of ``max(1, BLOCK_SITES // lattice.size)``, 512 KB
#: per complex128 array.  It never depends on the thread count.
BLOCK_SITES = 1 << 15


def _blocks(n_realizations: int, lattice: Lattice) -> list[slice]:
    """The realization blocks of an ensemble, in order."""
    per = max(1, BLOCK_SITES // lattice.size)
    return [slice(start, min(start + per, n_realizations)) for start in range(0, n_realizations, per)]


def dnls_rhs(state: FieldState, lattice: Lattice, dispersion: Dispersion) -> np.ndarray:
    """Time derivative of the field:  -i (hopping term + cubic term).

    The hopping convolution is applied as multiplication by omega(k) in
    Fourier space, which is exact on the periodic lattice.
    """
    psi = state.psi
    if psi.shape != lattice.shape:
        raise ConfigError(f"field shape {psi.shape} does not match lattice shape {lattice.shape}")
    omega = dispersion.omega(lattice)
    hop = np.fft.ifftn(omega * np.fft.fftn(psi))
    return -1j * (hop + state.coupling * np.abs(psi) ** 2 * psi)


def integrate(
    state: FieldState,
    lattice: Lattice,
    dispersion: Dispersion,
    dt: float,
    n_steps: int,
) -> FieldState:
    """Advance one realization by ``n_steps`` Strang split steps of size ``dt``.

    This is ``integrate_ensemble`` on an ensemble of one, so it has the same
    step guard, accuracy and exact mass conservation.
    """
    one = LatticeEnsemble(lattice, state.psi[None], time=state.time, coupling=state.coupling, r_integral=None)
    out = integrate_ensemble(one, dispersion, dt, n_steps)
    return FieldState(out.fields[0], time=out.time, coupling=out.coupling)


def integrate_ensemble(
    ensemble: LatticeEnsemble,
    dispersion: Dispersion,
    dt: float,
    n_steps: int,
    threads: int = 1,
) -> LatticeEnsemble:
    """Advance every realization by ``n_steps`` Strang split steps of size ``dt``.

    A step is a half nonlinear phase, the exact linear flow and a half phase,
    so mass is conserved to rounding and the Hamiltonian to second order; it
    needs ``|dt| * max|omega| <= 0.5``.  The phase keeps |psi| fixed, so one
    step's closing half phase and the next one's opening half merge: after
    one opening half phase, each step is the linear flow and one phase
    ``exp`` of ``rho = |psi|^2`` (a half one on the last step).

    The realizations run in blocks of about :data:`BLOCK_SITES` sites, and
    each block takes every step of the call while it stays in cache; the
    blocks go to a pool of ``threads`` threads.  The same ``rho`` gives
    ``R_s = 2 mean(rho)`` from one partial sum per block and step, added in
    block order.  The blocks depend on the lattice alone, so every field and
    ``r_integral`` (``∫ R_s ds`` by the trapezoid rule, for the renormalized
    field) is the same at any thread count.  A non-finite ``R_s`` is a
    GuardError that names the earliest such step over all blocks.
    """
    margin = abs(dt) * dispersion.max_frequency(ensemble.lattice)
    if not margin <= 0.5 + 1e-12:  # so that a NaN dt fails too
        raise GuardError(f"time step too large: |dt| * max|omega| = {margin:.3g} exceeds 0.5")
    if n_steps < 0:
        raise ConfigError("n_steps must be nonnegative")
    linear = np.exp(-1j * dt * dispersion.omega(ensemble.lattice))
    axes = ensemble.spatial_axes
    coupling = ensemble.coupling
    fields = np.empty_like(ensemble.fields)

    def run(rows: slice) -> np.ndarray:
        """Step one block into ``fields``; the sums of rho before the first step and after each."""
        sums = np.full(n_steps + 1, np.nan)
        start, psi = ensemble.fields[rows], fields[rows]
        spectral, phase = np.empty_like(psi), np.empty_like(psi)
        rho, imag2 = np.empty(psi.shape), np.empty(psi.shape)

        def density(field: np.ndarray) -> float:
            np.add(np.square(field.real, out=rho), np.square(field.imag, out=imag2), out=rho)
            return rho.sum()

        def phase_of(h: float) -> np.ndarray:
            return np.exp(np.multiply(-1j * (h * coupling), rho, out=phase), out=phase)

        # Keep the operand orders of the products below: a complex product can
        # differ in its last bit when its operands swap, and these orders keep
        # result files byte-identical to earlier versions.  A non-finite field
        # is reported by the guard below, not by numpy warnings.
        with np.errstate(invalid="ignore", over="ignore"):
            sums[0] = density(start)
            if n_steps:
                np.multiply(phase_of(0.5 * dt), start, out=psi)
            else:
                psi[...] = start
            for step in range(1, n_steps + 1):
                np.fft.fftn(psi, axes=axes, out=spectral)
                np.multiply(linear, spectral, out=spectral)
                np.fft.ifftn(spectral, axes=axes, out=psi)
                sums[step] = density(psi)
                if not math.isfinite(sums[step]):
                    break  # the later sums stay NaN
                psi *= phase_of(dt if step < n_steps else 0.5 * dt)
        return sums

    block_sums = map_in_order(run, _blocks(ensemble.n_realizations, ensemble.lattice), threads)
    with np.errstate(over="ignore", invalid="ignore"):  # finite blocks may add up to more than a float holds
        rates = 2.0 * (sum(block_sums[1:], block_sums[0]) / ensemble.fields.size)
    bad = np.flatnonzero(~np.isfinite(rates[1:]))
    if bad.size:
        raise GuardError(f"the field became non-finite at step {bad[0] + 1} (coupling {coupling!r}, dt {dt!r})")
    r_integral = ensemble.r_integral
    if r_integral is not None:
        for step in range(1, n_steps + 1):
            r_integral += dt * 0.5 * (float(rates[step - 1]) + float(rates[step]))
    return LatticeEnsemble(
        lattice=ensemble.lattice,
        fields=fields,
        time=ensemble.time + n_steps * dt,
        coupling=coupling,
        master_seed=ensemble.master_seed,
        r_integral=r_integral,
    )


def hamiltonian(state: FieldState, lattice: Lattice, dispersion: Dispersion) -> float:
    """Conserved energy: mean_k omega |psi_hat|^2 + (coupling/2) sum_x |psi|^4.

    The transform runs over the trailing ``lattice.dimension`` axes, so
    ``state.psi`` may also be a stack of fields; the result is then the sum
    of their energies.
    """
    psi_hat = np.fft.fftn(state.psi, axes=tuple(range(-lattice.dimension, 0)))
    omega = dispersion.omega(lattice)
    kinetic = float(np.sum(omega * np.abs(psi_hat) ** 2)) / lattice.size
    quartic = 0.5 * state.coupling * float(np.sum(np.abs(state.psi) ** 4))
    return kinetic + quartic


def ell2_mass(state: FieldState) -> float:
    """sum_x |psi(x)|^2 (summed over a stack too), conserved exactly by both split substeps."""
    return float(np.sum(np.abs(state.psi) ** 2))


def mean_density(ensemble: LatticeEnsemble) -> float:
    """Ensemble- and site-averaged |psi|^2 (half the oscillator rate R)."""
    return float(np.mean(np.abs(ensemble.fields) ** 2))


# ---------------------------------------------------------------------------
# random initial ensembles
# ---------------------------------------------------------------------------

_FAMILIES = ("gaussian", "fixed-modulus")


def sample_initial(
    lattice: Lattice,
    w0: np.ndarray | Spectrum,
    n_realizations: int,
    seed: int,
    family: str = "gaussian",
    coupling: float = 0.0,
    threads: int = 1,
) -> LatticeEnsemble:
    """Draw independent initial fields with covariance spectrum ``w0``.

    gaussian       circularly symmetric complex Gaussians per mode with
                   E|psi_hat(k)|^2 = L^d w0(k).
    fixed-modulus  |psi_hat(k)| pinned to (L^d w0(k))^(1/2) with independent
                   uniform phases — same spectrum, non-Gaussian fourth
                   cumulants.

    Both laws are invariant under a global phase and under lattice
    translations by construction.  Realization ``i`` uses the counter-based
    Philox stream keyed ``(seed, i)``: the real parts of its modes, then the
    imaginary parts (gaussian), or the phases (fixed-modulus).  The
    realizations are drawn in blocks of about :data:`BLOCK_SITES` sites, with
    one bit generator and one batched ``ifftn`` per block, and the blocks go
    to a pool of ``threads`` threads; each field depends on its key alone, so
    the ensemble is the same at any thread count.
    """
    spectrum = w0.values if isinstance(w0, Spectrum) else np.asarray(w0, dtype=float)
    if spectrum.shape != lattice.shape:
        raise ConfigError(f"spectrum shape {spectrum.shape} does not match lattice shape {lattice.shape}")
    if np.any(spectrum < 0.0):
        raise ConfigError("initial spectrum has a negative entry")
    if family not in _FAMILIES:
        raise ConfigError(f"unknown sampling family {family!r}; expected one of {_FAMILIES}")
    if n_realizations < 1:
        raise ConfigError("ensemble size must be at least 1")

    amplitude = np.sqrt(lattice.size * spectrum)
    fields = np.empty((n_realizations,) + lattice.shape, dtype=complex)
    axes = tuple(range(1, lattice.dimension + 1))
    gaussian = family == "gaussian"
    draw_shape = ((2,) if gaussian else ()) + lattice.shape

    def draw(rows: slice) -> None:
        # one bit generator, rekeyed through its state: building Philox(key=...)
        # per realization would also draw OS entropy for a seed it never uses
        bits = np.random.Philox(key=[int(seed), rows.start])
        rng = np.random.Generator(bits)
        state = bits.state
        draws = np.empty((rows.stop - rows.start,) + draw_shape)
        for row, index in enumerate(range(rows.start, rows.stop)):
            state["state"]["key"][1] = index
            bits.state = state
            if gaussian:
                rng.standard_normal(out=draws[row])  # real parts, then imaginary parts
            else:
                draws[row] = rng.uniform(0.0, 2.0 * np.pi, lattice.shape)
        if gaussian:
            psi_hat = amplitude * (draws[:, 0] + 1j * draws[:, 1]) / np.sqrt(2.0)
        else:
            psi_hat = amplitude * np.exp(1j * draws)
        fields[rows] = np.fft.ifftn(psi_hat, axes=axes)

    map_in_order(draw, _blocks(n_realizations, lattice), threads)
    return LatticeEnsemble(
        lattice=lattice,
        fields=fields,
        time=0.0,
        coupling=coupling,
        master_seed=int(seed),
        r_integral=0.0,
    )


def _jackknife_stderr(samples: np.ndarray) -> np.ndarray:
    """Jackknife standard error of the mean along axis 0."""
    n = samples.shape[0]
    total = samples.sum(axis=0)
    loo = (total[None, ...] - samples) / (n - 1)
    dev = loo - loo.mean(axis=0)
    return np.sqrt((n - 1) / n * np.sum(dev**2, axis=0))


def estimate_W(ensemble: LatticeEnsemble) -> Spectrum:
    """Empirical covariance spectrum  W(k) = mean_r |psi_hat(k)|^2 / L^d.

    Jackknife standard errors over realizations are attached.
    """
    if ensemble.n_realizations < 2:
        raise ConfigError("estimate_W needs at least 2 realizations")
    per_real = np.abs(ensemble.fourier()) ** 2 / ensemble.lattice.size
    return Spectrum(values=per_real.mean(axis=0), stderr=_jackknife_stderr(per_real))


# ---------------------------------------------------------------------------
# renormalized field
# ---------------------------------------------------------------------------


def renormalize_a(ensemble: LatticeEnsemble, dispersion: Dispersion) -> np.ndarray:
    """Phase-compensated Fourier fields  a(k) = psi_hat(k) exp(i ∫ (omega + coupling R_s) ds).

    Removes the free rotation and the mean-field rotation accumulated along
    the trajectory, using the recorded density history.  Returned for the
    un-conjugated field; the conjugate satisfies conj(a(k)) at -k because the
    compensating phase is even in k.  Second-order statistics are unchanged:
    the multiplier has unit modulus, so |a(k)| = |psi_hat(k)| realization-wise.
    """
    if ensemble.r_integral is None:
        raise ConfigError("ensemble carries no density history; evolve it with integrate_ensemble")
    omega = dispersion.omega(ensemble.lattice)
    phase = ensemble.time * omega + ensemble.coupling * ensemble.r_integral
    return ensemble.fourier() * np.exp(1j * phase)


# ---------------------------------------------------------------------------
# symmetry audits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaugeProbe:
    """One monomial moment E[prod_i psi^(sign_i)(site_i)] and its z-score."""

    sites: tuple[tuple[int, ...], ...]
    signs: tuple[int, ...]
    value: complex
    stderr: tuple[float, float]
    zscore: float

    @property
    def order(self) -> int:
        return len(self.signs)


@dataclass(frozen=True)
class GaugeAuditReport:
    """Z-scores of all probed phase-unbalanced moments."""

    probes: tuple[GaugeProbe, ...]
    threshold: float

    @property
    def flagged(self) -> tuple[GaugeProbe, ...]:
        return tuple(p for p in self.probes if p.zscore > self.threshold)

    @property
    def flag_count(self) -> int:
        return len(self.flagged)

    @property
    def max_zscore(self) -> float:
        return max((p.zscore for p in self.probes), default=0.0)


def _safe_z(mean: np.ndarray, stderr: np.ndarray) -> np.ndarray:
    """Componentwise |mean| / stderr, treating exact zeros as unflaggable."""
    z = np.full(mean.shape, np.inf)
    ok = stderr > 0.0
    z[ok] = np.abs(mean[ok]) / stderr[ok]
    z[~ok & (np.abs(mean) < 1e-13)] = 0.0
    return z


def _component_z(component: np.ndarray) -> tuple[float, float]:
    """(stderr, z) for the mean of one real component across realizations."""
    n = component.shape[0]
    mean = float(component.mean())
    se = float(component.std(ddof=1)) / math.sqrt(n)
    if se == 0.0:
        return 0.0, 0.0 if abs(mean) < 1e-13 else math.inf
    return se, abs(mean) / se


def gauge_audit(ensemble: LatticeEnsemble, max_order: int = 4, threshold: float = 4.0) -> GaugeAuditReport:
    """Check that phase-unbalanced moments vanish within ``threshold`` errors.

    A global phase rotation psi -> e^{i theta} psi multiplies the moment
    E[prod psi^(sign_i)(site_i)] by e^{i theta sum(signs)}, so every moment
    with sum(signs) != 0 must average to zero under a gauge-invariant law.
    For each order up to ``max_order`` the audit probes every unbalanced sign
    tuple on two deterministic site families (all sites coinciding at the
    origin, and spread over the first few lattice sites) and flags any probe
    whose real or imaginary part sits more than ``threshold`` standard errors
    from zero.
    """
    if max_order < 1:
        raise ConfigError("max_order must be at least 1")
    if ensemble.n_realizations < 2:
        raise ConfigError("gauge_audit needs at least 2 realizations")
    site_pool = list(itertools.islice(ensemble.lattice.sites(), max_order))
    if len(site_pool) < max_order:
        raise ConfigError("lattice too small for the requested audit order")

    probes: list[GaugeProbe] = []
    seen: set[tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]] = set()
    fields = ensemble.fields
    conj_fields = np.conj(fields)
    for order in range(1, max_order + 1):
        families = [
            tuple(site_pool[0] for _ in range(order)),  # coinciding sites
            tuple(site_pool[:order]),  # spread sites
        ]
        for signs in itertools.product((1, -1), repeat=order):
            if sum(signs) == 0:
                continue
            for sites in families:
                key = (sites, signs)
                if key in seen:
                    continue
                seen.add(key)
                product = np.ones(fields.shape[0], dtype=complex)
                for site, sign in zip(sites, signs):
                    picked = fields if sign == 1 else conj_fields
                    product = product * picked[(slice(None),) + site]
                se_re, z_re = _component_z(product.real)
                se_im, z_im = _component_z(product.imag)
                probes.append(
                    GaugeProbe(
                        sites=sites,
                        signs=signs,
                        value=complex(product.mean()),
                        stderr=(se_re, se_im),
                        zscore=max(z_re, z_im),
                    )
                )
    return GaugeAuditReport(probes=tuple(probes), threshold=float(threshold))


@dataclass(frozen=True)
class TranslationAuditReport:
    """Support check for second moments of the Fourier field.

    Translating the field by ``y`` multiplies ``psi_hat(k, s)`` by
    ``e^{-i 2 pi s k . y}``, so under a translation-invariant law the moment
    E[psi_hat(k1, s1) psi_hat(k2, s2)] can only be nonzero when
    ``s1 k1 + s2 k2 = 0`` on the dual torus.  Off-support entries are scored
    against their Monte Carlo errors.
    """

    n_pairs_checked: int
    flagged: tuple[tuple[tuple[int, int], tuple[int, int], float], ...]
    max_offsupport_z: float
    threshold: float

    @property
    def flag_count(self) -> int:
        return len(self.flagged)


def translation_audit(ensemble: LatticeEnsemble, threshold: float = 4.0) -> TranslationAuditReport:
    """Score all off-support second moments of psi_hat against their errors.

    Checks both sign pairs: (+1, +1), supported on k1 + k2 = 0, and
    (-1, +1), supported on k1 = k2.  Entries are flagged when either the
    real or the imaginary component exceeds ``threshold`` standard errors.
    """
    if ensemble.n_realizations < 2:
        raise ConfigError("translation_audit needs at least 2 realizations")
    n = ensemble.n_realizations
    size = ensemble.lattice.size
    hats = ensemble.fourier().reshape(n, size)

    flat_indices = np.arange(size).reshape(ensemble.lattice.shape)
    # flat index of -k for every flat index of k
    reversed_grid = flat_indices
    for axis in range(ensemble.lattice.dimension):
        reversed_grid = np.flip(np.roll(reversed_grid, -1, axis=axis), axis=axis)
    minus_k = reversed_grid.reshape(size)

    flagged: list[tuple[tuple[int, int], tuple[int, int], float]] = []
    max_z = 0.0
    pairs_checked = 0
    chunk = max(1, (1 << 22) // (size * size))
    for sign_pair, left in (((1, 1), hats), ((-1, 1), np.conj(hats))):
        total = np.zeros((size, size), dtype=complex)
        sq_re = np.zeros((size, size))
        sq_im = np.zeros((size, size))
        for start in range(0, n, chunk):
            block = np.einsum("ri,rj->rij", left[start : start + chunk], hats[start : start + chunk])
            total += block.sum(axis=0)
            sq_re += np.sum(block.real**2, axis=0)
            sq_im += np.sum(block.imag**2, axis=0)
        mean = total / n
        var_re = np.maximum(sq_re - n * mean.real**2, 0.0) / (n - 1)
        var_im = np.maximum(sq_im - n * mean.imag**2, 0.0) / (n - 1)
        se_re = np.sqrt(var_re / n)
        se_im = np.sqrt(var_im / n)
        z_re = _safe_z(mean.real, se_re)
        z_im = _safe_z(mean.imag, se_im)
        z = np.maximum(z_re, z_im)
        if sign_pair == (1, 1):
            on_support = minus_k[:, None] == np.arange(size)[None, :]
        else:
            on_support = np.eye(size, dtype=bool)
        off = ~on_support
        pairs_checked += int(off.sum())
        if off.any():
            max_z = max(max_z, float(z[off].max()))
        for i, j in zip(*np.nonzero(off & (z > threshold))):
            flagged.append((sign_pair, (int(i), int(j)), float(z[i, j])))
    return TranslationAuditReport(
        n_pairs_checked=pairs_checked,
        flagged=tuple(flagged),
        max_offsupport_z=max_z,
        threshold=float(threshold),
    )


# ---------------------------------------------------------------------------
# free propagator diagnostics
# ---------------------------------------------------------------------------


def free_propagator(lattice: Lattice, dispersion: Dispersion, t: float) -> np.ndarray:
    """p_t(x) = L^-d sum_k exp(i 2 pi k . x) exp(-i t omega(k))."""
    omega = dispersion.omega(lattice)
    return np.fft.ifftn(np.exp(-1j * t * omega))


@dataclass(frozen=True)
class PropagatorDecayFit:
    """Fitted envelope  ||p_t||_3^3 <= scale * (1 + t^2)^(-(1+decay_exponent)/2).

    ``decay_exponent`` comes from a least-squares fit of log ||p_t||_3^3
    against log(1 + t^2); ``scale`` is then inflated so the envelope actually
    dominates every sampled norm (the fit line itself is ``fitted_scale``).
    The bound is only claimed on the sampled window.
    """

    scale: float
    decay_exponent: float
    fitted_scale: float
    times: np.ndarray
    norms: np.ndarray

    def envelope(self, t: np.ndarray | float) -> np.ndarray:
        return self.scale * (1.0 + np.asarray(t, dtype=float) ** 2) ** (-(1.0 + self.decay_exponent) / 2.0)


def propagator_decay_fit(
    lattice: Lattice,
    dispersion: Dispersion,
    t_max: float = 40.0,
    n_samples: int = 161,
) -> PropagatorDecayFit:
    """Measure ||p_t||_3^3 on [0, t_max] and fit the algebraic decay envelope.

    On a finite ring the ballistic wavefront (group speed max |omega'| / 2 pi
    sites per unit time) wraps around and re-interferes at roughly
    t = side / (2 * speed); past that point the norm saturates at a torus
    plateau of order side^(-d/2), which says nothing about dispersion.  The
    exponent is therefore fitted on the pre-revival samples only, while the
    scale is inflated so the envelope dominates every sample of the full
    requested window.
    """
    if t_max <= 0 or n_samples < 4:
        raise ConfigError("need t_max > 0 and at least 4 samples")
    omega = dispersion.omega(lattice)
    times = np.linspace(0.0, t_max, n_samples)
    norms = np.empty(n_samples)
    for i, t in enumerate(times):
        p_t = np.fft.ifftn(np.exp(-1j * t * omega))
        norms[i] = float(np.sum(np.abs(p_t) ** 3))

    # group speed in sites per unit time, bounded by finite differences of
    # omega on the dual grid (exact enough for a revival-time estimate)
    speed = 0.0
    for axis in range(lattice.dimension):
        diff = np.abs(omega - np.roll(omega, 1, axis=axis)) * lattice.side / (2.0 * np.pi)
        speed = max(speed, float(diff.max()))
    revival = lattice.side / (2.0 * speed) if speed > 0 else t_max
    window = times <= min(revival, t_max) + 1e-9
    if int(window.sum()) < 4:
        window = np.ones_like(times, dtype=bool)

    design = np.stack([np.ones(int(window.sum())), np.log1p(times[window] ** 2)], axis=1)
    coeffs, *_ = np.linalg.lstsq(design, np.log(norms[window]), rcond=None)
    intercept, slope = coeffs
    decay_exponent = -2.0 * slope - 1.0
    fitted_scale = float(np.exp(intercept))
    scale = float(np.max(norms * (1.0 + times**2) ** ((1.0 + decay_exponent) / 2.0)))
    return PropagatorDecayFit(
        scale=scale,
        decay_exponent=float(decay_exponent),
        fitted_scale=fitted_scale,
        times=times,
        norms=norms,
    )


# ---------------------------------------------------------------------------
# clustering norms
# ---------------------------------------------------------------------------


def clustering_norm(pinned: Mapping[tuple[int, ...], np.ndarray], order: int) -> float:
    """l1 clustering norm: sup over sign tuples of sum |kappa| with x1 pinned at 0.

    ``pinned`` maps a sign tuple of length ``order`` to the array of cumulant
    values over the remaining ``order - 1`` position arguments (full lattice
    grid, or any finite window of it — a window yields the norm of that
    window's contribution).
    """
    best = 0.0
    for signs, values in pinned.items():
        if len(signs) != order:
            raise ConfigError(f"sign tuple {signs} does not have length {order}")
        arr = np.asarray(values)
        if not np.all(np.isfinite(arr)):
            raise ConfigError(f"cumulant array for signs {signs} has non-finite entries")
        best = max(best, float(np.sum(np.abs(arr))))
    return best


def pair_cluster_from_spectrum(lattice: Lattice, w0: np.ndarray | Spectrum) -> dict[tuple[int, int], np.ndarray]:
    """Pinned second cumulants of a phase-invariant law with spectrum ``w0``.

    kappa(conj psi(0), psi(x)) = L^-d sum_k W(k) e^{i 2 pi k . x}; the
    opposite ordering is its complex conjugate, and phase-unbalanced pairs
    vanish identically (they are omitted here).
    """
    spectrum = w0.values if isinstance(w0, Spectrum) else np.asarray(w0, dtype=float)
    if spectrum.shape != lattice.shape:
        raise ConfigError(f"spectrum shape {spectrum.shape} does not match lattice shape {lattice.shape}")
    forward = np.fft.ifftn(spectrum.astype(complex))
    return {(-1, 1): forward, (1, -1): np.conj(forward)}


def _translation_averaged_pair(fields: np.ndarray, conj_first: bool, conj_second: bool, axes: tuple[int, ...]) -> np.ndarray:
    """mean_r L^-d sum_y f1(y) f2(y + x) for the chosen conjugations.

    sum_y f1(y) f2(y + x) is the inverse transform of hat_f1(-k) hat_f2(k),
    and hat_f1(-k) = conj(fft(conj(f1)))(k) for arbitrary complex f1.
    """
    size = 1
    for axis in axes:
        size *= fields.shape[axis]
    first = np.conj(fields) if conj_first else fields
    second = np.conj(fields) if conj_second else fields
    rev_hat_first = np.conj(np.fft.fftn(np.conj(first), axes=axes))
    hat_second = np.fft.fftn(second, axes=axes)
    corr = np.fft.ifftn(rev_hat_first * hat_second, axes=axes)
    return corr.mean(axis=0) / size


def empirical_pair_cluster(ensemble: LatticeEnsemble) -> dict[tuple[int, int], np.ndarray]:
    """Empirical pinned second cumulants, translation-averaged.

    Returns all four sign pairs; the fields are centered by their empirical
    scalar mean first, so singleton blocks drop out of the estimator exactly.
    """
    axes = ensemble.spatial_axes
    centered = ensemble.fields - ensemble.fields.mean()
    table: dict[tuple[int, int], np.ndarray] = {}
    for signs, (c1, c2) in {
        (-1, 1): (True, False),
        (1, -1): (False, True),
        (1, 1): (False, False),
        (-1, -1): (True, True),
    }.items():
        table[signs] = _translation_averaged_pair(centered, c1, c2, axes)
    return table


@dataclass(frozen=True)
class ScalarEstimate:
    """A Monte Carlo scalar with its jackknife standard error."""

    value: float
    stderr: float


def coincident_fourth_cumulant(ensemble: LatticeEnsemble) -> ScalarEstimate:
    """kappa(conj psi, conj psi, psi, psi) at a single site, site-averaged.

    Uses the centered estimator  E|z|^4 - 2 (E|z|^2)^2 - |E z^2|^2, with all
    moments averaged over sites and realizations; the error is a jackknife
    over realizations.  A circular Gaussian law gives zero; the fixed-modulus
    family gives  -L^-2d sum_k W(k)^2 < 0.
    """
    if ensemble.n_realizations < 2:
        raise ConfigError("coincident_fourth_cumulant needs at least 2 realizations")
    axes = ensemble.spatial_axes
    z = ensemble.fields - ensemble.fields.mean()
    m4 = (np.abs(z) ** 4).mean(axis=axes)  # per realization
    m2 = (np.abs(z) ** 2).mean(axis=axes)
    mpp = (z**2).mean(axis=axes)

    def statistic(m4_: np.ndarray, m2_: np.ndarray, mpp_: np.ndarray) -> float:
        return float(m4_.mean() - 2.0 * m2_.mean() ** 2 - abs(mpp_.mean()) ** 2)

    n = ensemble.n_realizations
    full = statistic(m4, m2, mpp)
    loo = np.empty(n)
    sum4, sum2, sump = m4.sum(), m2.sum(), mpp.sum()
    for i in range(n):
        loo[i] = float(
            (sum4 - m4[i]) / (n - 1)
            - 2.0 * ((sum2 - m2[i]) / (n - 1)) ** 2
            - abs((sump - mpp[i]) / (n - 1)) ** 2
        )
    stderr = math.sqrt((n - 1) / n * float(np.sum((loo - loo.mean()) ** 2)))
    return ScalarEstimate(value=full, stderr=stderr)


def _window_offsets(lattice: Lattice, radius: int) -> list[tuple[int, ...]]:
    span = range(-radius, radius + 1)
    return [offset for offset in itertools.product(span, repeat=lattice.dimension)]


def empirical_fourth_cluster(
    ensemble: LatticeEnsemble,
    signs: tuple[int, int, int, int] = (-1, -1, 1, 1),
    window_radius: int = 1,
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Windowed pinned fourth cumulant of the field law.

    Estimates kappa(psi^(s1)(0), psi^(s2)(x2), psi^(s3)(x3), psi^(s4)(x4))
    for offsets in the l-infinity window of the given radius, translation-
    and ensemble-averaged.  Fields are centered first, so only pair-pair
    partitions are subtracted from the fourth moment.  Returns the offset
    list and the value array of shape (len(offsets),) * 3 indexed by
    (x2, x3, x4).

    Cost grows as the cube of the window volume; intended for small windows
    on small lattices.
    """
    if len(signs) != 4 or any(s not in (-1, 1) for s in signs):
        raise ConfigError("signs must be four entries of +1 or -1")
    if window_radius < 0 or 2 * window_radius + 1 > ensemble.lattice.side:
        raise ConfigError("window does not fit on the lattice")
    axes = ensemble.spatial_axes
    centered = ensemble.fields - ensemble.fields.mean()

    # translation-averaged pair moments for every needed sign pair, full grid
    pair_table: dict[tuple[int, int], np.ndarray] = {}
    for i, j in itertools.combinations(range(4), 2):
        key = (signs[i], signs[j])
        if key not in pair_table:
            pair_table[key] = _translation_averaged_pair(
                centered, signs[i] == -1, signs[j] == -1, axes
            )

    offsets = _window_offsets(ensemble.lattice, window_radius)
    n_off = len(offsets)
    shifted = {
        offset: np.roll(centered, tuple(-o for o in offset), axis=axes) for offset in offsets
    }

    def pair_value(slot_a: int, slot_b: int, off_a: tuple[int, ...], off_b: tuple[int, ...]) -> complex:
        rel = tuple((b - a) % ensemble.lattice.side for a, b in zip(off_a, off_b))
        return complex(pair_table[(signs[slot_a], signs[slot_b])][rel])

    values = np.empty((n_off, n_off, n_off), dtype=complex)
    origin = (0,) * ensemble.lattice.dimension
    conj2 = {offset: (np.conj(arr) if signs[1] == -1 else arr) for offset, arr in shifted.items()}
    conj3 = {offset: (np.conj(arr) if signs[2] == -1 else arr) for offset, arr in shifted.items()}
    conj4 = {offset: (np.conj(arr) if signs[3] == -1 else arr) for offset, arr in shifted.items()}
    base = np.conj(centered) if signs[0] == -1 else centered
    for i2, x2 in enumerate(offsets):
        partial = base * conj2[x2]
        for i3, x3 in enumerate(offsets):
            partial3 = partial * conj3[x3]
            for i4, x4 in enumerate(offsets):
                m4 = complex((partial3 * conj4[x4]).mean(axis=axes).mean())
                pairings = (
                    pair_value(0, 1, origin, x2) * pair_value(2, 3, x3, x4)
                    + pair_value(0, 2, origin, x3) * pair_value(1, 3, x2, x4)
                    + pair_value(0, 3, origin, x4) * pair_value(1, 2, x2, x3)
                )
                values[i2, i3, i4] = m4 - pairings
    return offsets, values


def fixed_modulus_fourth_norm(lattice: Lattice, w0: np.ndarray | Spectrum) -> float:
    """Exact l1 clustering norm of the fourth cumulant of the fixed-modulus law.

    Per mode, the only nonvanishing fourth cumulant of a fixed-modulus phasor
    is kappa(conj, conj, +, +) = -(L^d W(k))^2, so the pinned position-space
    cumulant depends only on v = -x2 + x3 + x4 and equals
    -L^-d (ifft W^2)(v); summing |kappa| over the free positions gives
    L^d sum_v |(ifft W^2)(v)|.
    """
    spectrum = w0.values if isinstance(w0, Spectrum) else np.asarray(w0, dtype=float)
    if spectrum.shape != lattice.shape:
        raise ConfigError(f"spectrum shape {spectrum.shape} does not match lattice shape {lattice.shape}")
    profile = np.fft.ifftn(spectrum.astype(complex) ** 2)
    return float(lattice.size * np.sum(np.abs(profile)))


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

_MANIFEST_NAME = "manifest.json"
_SCHEMA_VERSION = 1


def save_ensemble(ensemble: LatticeEnsemble, directory: str | Path) -> Path:
    """Persist an ensemble: manifest.json plus one .npy file per realization.

    Arrays are written little-endian complex128, row-major; the manifest
    records the lattice, coupling, time, seeds, and density history needed
    to reconstruct the ensemble exactly.
    """
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    files = []
    for index in range(ensemble.n_realizations):
        name = f"realization_{index:05d}.npy"
        np.save(target / name, ensemble.fields[index].astype("<c16"))
        files.append(name)
    manifest = {
        "schema_version": _SCHEMA_VERSION,
        "kind": "lattice_ensemble",
        "dimension": ensemble.lattice.dimension,
        "side": ensemble.lattice.side,
        "coupling": ensemble.coupling,
        "time": ensemble.time,
        "master_seed": ensemble.master_seed,
        "r_integral": ensemble.r_integral,
        "n_realizations": ensemble.n_realizations,
        "dtype": "complex128",
        "byte_order": "little",
        "layout": "row-major",
        "files": files,
    }
    manifest_path = target / _MANIFEST_NAME
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path


def load_ensemble(directory: str | Path) -> LatticeEnsemble:
    """Reload an ensemble saved by :func:`save_ensemble`."""
    target = Path(directory)
    manifest_path = target / _MANIFEST_NAME
    if not manifest_path.is_file():
        raise ConfigError(f"no {_MANIFEST_NAME} in {target}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("kind") != "lattice_ensemble":
        raise ConfigError(f"{manifest_path} does not describe a lattice ensemble")
    if manifest.get("schema_version") != _SCHEMA_VERSION:
        raise ConfigError(f"unsupported ensemble schema version {manifest.get('schema_version')}")
    lattice = Lattice(int(manifest["dimension"]), int(manifest["side"]))
    files = manifest["files"]
    if len(files) != int(manifest["n_realizations"]):
        raise ConfigError("manifest file list does not match the declared ensemble size")
    fields = np.empty((len(files),) + lattice.shape, dtype=complex)
    for index, name in enumerate(files):
        path = target / name
        if not path.is_file():
            raise ConfigError(f"missing realization file {path}")
        arr = np.load(path)
        if arr.shape != lattice.shape:
            raise ConfigError(f"{path} has shape {arr.shape}, expected {lattice.shape}")
        fields[index] = arr
    seed = manifest.get("master_seed")
    r_integral = manifest.get("r_integral")
    return LatticeEnsemble(
        lattice=lattice,
        fields=fields,
        time=float(manifest["time"]),
        coupling=float(manifest["coupling"]),
        master_seed=None if seed is None else int(seed),
        r_integral=None if r_integral is None else float(r_integral),
    )


def write_spectrum_csv(lattice: Lattice, spectrum: Spectrum, path: str | Path) -> None:
    """Write a spectrum as CSV rows of (k components..., value, stderr).

    Rows follow row-major dual-grid order; momenta are written as fractions.
    Formatting is deterministic (repr of Python floats), so identical
    spectra produce byte-identical files.  A non-finite value or error is a
    GuardError, and nothing is written.
    """
    if spectrum.values.shape != lattice.shape:
        raise ConfigError("spectrum shape does not match lattice shape")
    for part in (spectrum.values, spectrum.stderr):
        if part is not None and not np.all(np.isfinite(part)):
            raise GuardError(f"{Path(path).name}: the spectrum is not finite")
    header = ",".join(f"k{i + 1}" for i in range(lattice.dimension)) + ",value,stderr"
    lines = [header]
    for site in np.ndindex(lattice.shape):
        ks = [repr(component / lattice.side) for component in site]
        value = repr(float(spectrum.values[site]))
        err = repr(float(spectrum.stderr[site])) if spectrum.stderr is not None else ""
        lines.append(",".join(ks + [value, err]))
    Path(path).write_text("\n".join(lines) + "\n")


def _csv_floats(cells: list[str], path: str | Path, row: int) -> list[float]:
    try:
        return [float(cell) for cell in cells]
    except ValueError:
        raise ConfigError(f"{path} row {row}: {','.join(cells)!r} holds a cell that is not a number") from None


def read_spectrum_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Parse a spectrum CSV back into (k rows, values, stderr or None)."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines:
        raise ConfigError(f"{path} is empty")
    header = lines[0].split(",")
    if header[-2:] != ["value", "stderr"]:
        raise ConfigError(f"{path} does not look like a spectrum CSV")
    dim = len(header) - 2
    k_rows, values, errors = [], [], []
    has_err = True
    for row, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != dim + 2:
            raise ConfigError(f"malformed spectrum row: {line!r}")
        k_rows.append(_csv_floats(parts[:dim], path, row))
        values.extend(_csv_floats(parts[dim : dim + 1], path, row))
        if parts[dim + 1] == "":
            has_err = False
        else:
            errors.extend(_csv_floats(parts[dim + 1 :], path, row))
    stderr = np.asarray(errors) if has_err else None
    return np.asarray(k_rows), np.asarray(values), stderr
