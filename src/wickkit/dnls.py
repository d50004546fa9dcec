"""Discrete nonlinear Schrödinger dynamics on a periodic lattice.

This module simulates

    i d/dt psi(x) = sum_y alpha(x - y) psi(y) + coupling * |psi(x)|^2 psi(x)

for a complex field ``psi`` on a periodic grid, together with the ensemble
machinery needed to study its statistics: random initial laws that are
invariant under global phase rotation and lattice translations, covariance
spectrum estimation, renormalized (phase-compensated) Fourier fields, the
gauge audit, free-propagator decay fits, and the l1 clustering norms of the
initial data's cumulants.

Conventions
-----------
* Fourier transform: ``psi_hat(k) = sum_x psi(x) exp(-i 2 pi k . x)`` with
  ``k`` on the dual grid ``{0, 1/L, ..., (L-1)/L}^d`` (numpy's ``fftn``).
* The conjugation index ``sigma`` selects the field (+1) or its complex
  conjugate (-1); in Fourier space ``conj(psi_hat(k, s)) = psi_hat(-k, -s)``.
* The covariance spectrum is ``W(k) = E|psi_hat(k)|^2 / L^d``, which is real,
  and the mean density is ``E|psi(x)|^2 = mean_k W(k)``.  A spectrum is a
  float array of ``lattice.shape``; every spectrum read goes through one
  check, ``_spectrum_values`` (integer or floating dtype, that shape, finite).
* :class:`LatticeEnsemble` is the one field container: a single realization
  is an ensemble of one.  ``hamiltonian`` and ``ell2_mass`` sum over the
  realizations.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from .errors import (
    Block, ConfigError, GuardError, _is_number, _json, _read_text, _write_json, jackknife_stderr, mean_stderr, read_csv,
    write_csv,
)
from .pool import map_in_order

__all__ = [
    "Lattice",
    "Dispersion",
    "LatticeEnsemble",
    "nearest_neighbor_dispersion",
    "next_nearest_dispersion",
    "zero_dispersion",
    "integrate_ensemble",
    "BLOCK_SITES",
    "sample_initial",
    "estimate_W",
    "renormalize_a",
    "gauge_audit",
    "GaugeProbe",
    "GaugeAuditReport",
    "propagator_decay_fit",
    "PropagatorDecayFit",
    "clustering_norm",
    "fixed_modulus_fourth_norm",
    "hamiltonian",
    "ell2_mass",
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

    def k_grid(self) -> np.ndarray:
        """Dual momenta as fractions, shape ``shape + (dimension,)``."""
        ticks = [np.arange(self.side) / self.side] * self.dimension
        return np.stack(np.meshgrid(*ticks, indexing="ij"), axis=-1)

    def sites(self) -> Iterator[tuple[int, ...]]:
        """All sites in row-major order, starting at the origin."""
        return iter(np.ndindex(self.shape))

    def k_cells(self) -> list[str]:
        """Each site's dual momentum as CSV cells (``repr`` of the fractions), in row-major order."""
        ticks = [repr(j / self.side) for j in range(self.side)]
        return [",".join(cells) for cells in itertools.product(ticks, repeat=self.dimension)]


@dataclass(frozen=True)
class Dispersion:
    """Symmetric, finitely supported hopping amplitude and its symbol.

    ``hopping`` maps tuples of ``int`` (or numpy integer) offsets to finite
    ``int``, ``float`` or numpy real coefficients (not ``bool``) and must
    satisfy ``alpha(-x) == alpha(x)``, which makes the symbol

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
            if not isinstance(offset, tuple) or not all(
                isinstance(c, (int, np.integer)) and not isinstance(c, bool) for c in offset
            ):
                raise ConfigError(f"hopping offset {offset!r} must be a tuple of integers")
            key = tuple(map(int, offset))
            if len(key) != self.dimension:
                raise ConfigError(f"hopping offset {offset} does not have {self.dimension} components")
            value = float(coeff) if isinstance(coeff, (np.integer, np.floating)) else coeff
            if not _is_number(value):
                raise ConfigError(f"hopping coefficient at {offset} must be a finite real number, got {coeff!r}")
            if value != 0.0:
                cleaned[key] = float(value)
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
        if not stacked.shape[0]:
            raise ConfigError("ensemble size must be at least 1")
        object.__setattr__(self, "fields", stacked)

    @property
    def n_realizations(self) -> int:
        return self.fields.shape[0]

    @property
    def spatial_axes(self) -> tuple[int, ...]:
        return tuple(range(1, self.lattice.dimension + 1))

    def fourier(self, threads: int = 1) -> np.ndarray:
        """Per-realization Fourier fields, same stacked layout.

        The realizations are transformed in the blocks of
        :func:`integrate_ensemble`, on a pool of ``threads`` threads; each
        field's transform depends on that field alone, so the result is the
        same at any thread count.
        """
        hats = np.empty_like(self.fields)

        def run(rows: slice) -> None:
            _lattice_fft(self.fields[rows], self.lattice.dimension, out=hats[rows])

        map_in_order(run, _blocks(self.n_realizations, self.lattice), threads)
        return hats

    def mode_power(self, threads: int = 1) -> np.ndarray:
        """Per-realization mode power ``|psi_hat(k)|^2 / L^d``, whose mean is W(k)."""
        return np.abs(self.fourier(threads)) ** 2 / self.lattice.size


def _spectrum_values(w: np.ndarray, lattice: Lattice) -> np.ndarray:
    """``w`` as floats; a ConfigError unless it is an integer or floating array of the lattice's shape, all finite."""
    values = np.asarray(w)
    if values.dtype.kind not in "iuf":
        raise ConfigError(f"spectrum must be a real array, got dtype {values.dtype}")
    values = values.astype(float, copy=False)
    if values.shape != lattice.shape:
        raise ConfigError(f"spectrum shape {values.shape} does not match lattice shape {lattice.shape}")
    if not np.all(np.isfinite(values)):
        raise ConfigError("spectrum has a non-finite entry")
    return values


def _nonnegative_values(w: np.ndarray, lattice: Lattice) -> np.ndarray:
    """The spectrum's values on the lattice, as :func:`_spectrum_values`; a negative entry is a ConfigError."""
    values = _spectrum_values(w, lattice)
    if float(values.min()) < 0.0:
        raise ConfigError(f"spectrum has a negative entry: min W = {float(values.min()):.3g}")
    return values


# ---------------------------------------------------------------------------
# lattice transforms
# ---------------------------------------------------------------------------


def _load_pocketfft():
    """scipy's compiled ``pypocketfft`` extension, loaded by file path.

    Importing ``scipy.fft`` costs 0.2-0.35 s per process; loading the
    extension alone costs a few milliseconds, so it is loaded from its file
    and no scipy package is imported.
    """
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        raise ImportError("wickkit needs scipy, which is not installed")
    name = "pypocketfft" + importlib.machinery.EXTENSION_SUFFIXES[0]
    path = Path(scipy.submodule_search_locations[0], "fft", "_pocketfft", name)
    if not path.is_file():
        raise ImportError(f"wickkit needs scipy's compiled pocketfft extension at {path}")
    spec = importlib.util.spec_from_file_location("pypocketfft", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_pocketfft = _load_pocketfft()


def _lattice_fft(
    src: np.ndarray,
    dimension: int,
    inverse: bool = False,
    out: np.ndarray | None = None,
    norm: str = "backward",
) -> np.ndarray:
    """``np.fft.fftn`` (or ``ifftn``) of ``src`` over its trailing ``dimension`` axes.

    The transform is one n-D pocketfft call over the lattice axes, last axis
    first as in numpy, on one thread (``--threads`` parallelizes over
    blocks).  Its 1-D kernel is the pocketfft code numpy runs, and on a
    :class:`Lattice` every side is a power of two, so the single ``1/N``
    scale of the inverse is numpy's per-axis ``1/n`` scales exactly: the
    result is bit-identical to ``np.fft.fftn(src, axes=range(-dimension,
    0), norm=norm)`` (or ``ifftn``).  ``norm="forward"`` makes the inverse
    unscaled.  ``out`` (returned) is allocated when not given and may be
    ``src``.
    """
    scaled = inverse == (norm == "backward")
    return _pocketfft.c2c(
        np.asarray(src, dtype=complex),
        axes=tuple(range(-1, -dimension - 1, -1)),
        forward=not inverse,
        inorm=2 if scaled else 0,
        out=out,
        nthreads=1,
    )


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


def _split_phase(
    rate: float, rho: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None
) -> np.ndarray:
    """The nonlinear phase ``exp(-i rate rho)`` from a real ``cos`` and ``sin``.

    With ``theta = (-rate) rho`` it is ``cos theta + i (sin theta + 0.0)``,
    which has the bytes of ``np.exp(np.multiply(-1j * rate, rho))``: the
    ``+ 0.0`` gives the ``+0`` imaginary part that the complex ``exp`` has
    where ``theta`` is zero (``rho`` or ``rate`` zero).  ``out`` (complex,
    returned) and ``work`` (real, for ``theta``) are allocated when not given.
    """
    out = np.empty(rho.shape, dtype=complex) if out is None else out
    theta = np.multiply(-rate, rho, out=work)
    np.cos(theta, out=out.real)
    np.add(np.sin(theta, out=out.imag), 0.0, out=out.imag)
    return out


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
    ``exp(-i h coupling rho)`` of ``rho = |psi|^2`` (a half one on the last
    step).  The linear flow is a forward and an inverse :func:`_lattice_fft`
    into buffers of the block, and the phase is a real ``cos`` and ``sin``
    (:func:`_split_phase`); both have the bytes of ``np.fft.fftn``/``ifftn``
    and of the complex ``exp``, signed zeros included.

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
    dimension = ensemble.lattice.dimension
    coupling = ensemble.coupling
    fields = np.empty_like(ensemble.fields)

    def run(rows: slice) -> np.ndarray:
        """Step one block into ``fields``; the sums of rho before the first step and after each."""
        sums = np.full(n_steps + 1, np.nan)
        start, psi = ensemble.fields[rows], fields[rows]
        spectral, phase = np.empty_like(psi), np.empty_like(psi)
        rho, scratch = np.empty(psi.shape), np.empty(psi.shape)

        def density(field: np.ndarray) -> float:
            np.add(np.square(field.real, out=rho), np.square(field.imag, out=scratch), out=rho)
            return rho.sum()

        def phase_of(h: float) -> np.ndarray:
            return _split_phase(h * coupling, rho, out=phase, work=scratch)

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
                _lattice_fft(psi, dimension, out=spectral)
                np.multiply(linear, spectral, out=spectral)
                _lattice_fft(spectral, dimension, inverse=True, out=psi)
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


def hamiltonian(ensemble: LatticeEnsemble, dispersion: Dispersion, threads: int = 1) -> float:
    """Conserved energy mean_k omega |psi_hat|^2 + (coupling/2) sum_x |psi|^4, summed over the realizations.

    The fields are transformed by :meth:`LatticeEnsemble.fourier` on
    ``threads`` threads, with the same result at any thread count.
    """
    lattice = ensemble.lattice
    kinetic = float(np.sum(dispersion.omega(lattice) * np.abs(ensemble.fourier(threads)) ** 2)) / lattice.size
    return kinetic + 0.5 * ensemble.coupling * float(np.sum(np.abs(ensemble.fields) ** 4))


def ell2_mass(ensemble: LatticeEnsemble) -> float:
    """sum_x |psi(x)|^2 summed over the realizations, conserved exactly by both split substeps."""
    return float(np.sum(np.abs(ensemble.fields) ** 2))


# ---------------------------------------------------------------------------
# random initial ensembles
# ---------------------------------------------------------------------------

_FAMILIES = ("gaussian", "fixed-modulus")
# numpy reads a Philox key list through float64 once an entry passes the
# int64 range, so larger seeds would alias other seeds' streams or overflow.
_MAX_SEED = 1 << 63


def sample_initial(
    lattice: Lattice,
    w0: np.ndarray,
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
    Philox stream keyed ``(seed, i)``, for a seed in ``[0, 2**63)``: the real
    parts of its modes, then the imaginary parts (gaussian), or the phases
    (fixed-modulus).  The realizations are drawn in blocks of about
    :data:`BLOCK_SITES` sites, with one bit generator per block; the modes
    are built in the block's rows of the ensemble (:func:`_modes`) and one
    inverse :func:`_lattice_fft` transforms them there in place.  The blocks
    go to a pool of ``threads`` threads; each field depends on its key
    alone, so the ensemble is the same at any thread count.
    """
    spectrum = _nonnegative_values(w0, lattice)
    if family not in _FAMILIES:
        raise ConfigError(f"unknown sampling family {family!r}; expected one of {_FAMILIES}")
    if n_realizations < 1:
        raise ConfigError("ensemble size must be at least 1")
    if not 0 <= seed < _MAX_SEED:
        raise ConfigError(f"seed must be an integer in [0, 2**63), got {seed!r}")

    amplitude = np.sqrt(lattice.size * spectrum)
    fields = np.empty((n_realizations,) + lattice.shape, dtype=complex)
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
        psi_hat = _modes(amplitude, draws, gaussian, out=fields[rows])
        _lattice_fft(psi_hat, lattice.dimension, inverse=True, out=psi_hat)

    map_in_order(draw, _blocks(n_realizations, lattice), threads)
    return LatticeEnsemble(
        lattice=lattice,
        fields=fields,
        time=0.0,
        coupling=coupling,
        master_seed=int(seed),
        r_integral=0.0,
    )


def _modes(amplitude: np.ndarray, draws: np.ndarray, gaussian: bool, out: np.ndarray) -> np.ndarray:
    """The mode block ``amplitude * (a + 1j b) / √2`` (gaussian) or ``amplitude * exp(1j phase)``, in ``out``.

    ``draws`` stacks ``(a, b)`` along axis 1 (gaussian) or holds the phases.
    No full-size temporary is built: each step is numpy's own complex
    arithmetic written out on ``out``, so the bytes are those of the
    expressions, signed zeros included.  ``1j x`` of a real ``x`` is
    ``(0 x - 0) + i (0 + x)``; adding the real ``a`` adds to the real part
    only; ``amplitude`` and ``√2`` act as the complex ``amplitude + 0j`` and
    ``√2 + 0j``.
    """
    turned = draws[:, 1] if gaussian else draws  # the draws that 1j multiplies
    np.subtract(np.multiply(0.0, turned, out=out.real), 0.0, out=out.real)
    np.add(turned, 0.0, out=out.imag)
    if not gaussian:
        return np.multiply(amplitude, np.exp(out, out=out), out=out)
    np.add(draws[:, 0], out.real, out=out.real)
    return np.divide(np.multiply(amplitude, out, out=out), np.sqrt(2.0) + 0j, out=out)


def estimate_W(ensemble: LatticeEnsemble, threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Empirical covariance spectrum  W(k) = mean_r |psi_hat(k)|^2 / L^d and its jackknife errors.

    Returns ``(values, stderr)``, float arrays of the lattice's shape.  The
    fields are transformed on ``threads`` threads (:meth:`LatticeEnsemble.fourier`),
    with the same result at any thread count.
    """
    if ensemble.n_realizations < 2:
        raise ConfigError("estimate_W needs at least 2 realizations")
    per_real = ensemble.mode_power(threads)
    return per_real.mean(axis=0), mean_stderr(per_real)


# ---------------------------------------------------------------------------
# renormalized field
# ---------------------------------------------------------------------------


def renormalize_a(ensemble: LatticeEnsemble, dispersion: Dispersion) -> np.ndarray:
    """Phase-compensated Fourier fields  a(k) = psi_hat(k) exp(i ∫ (omega + coupling R_s) ds).

    This is the renormalized field of the DNLS kinetic limit of
    arXiv:1503.05851, whose statistics the Boltzmann-Peierls equation
    describes.  It removes the free rotation and the mean-field rotation
    accumulated along the trajectory, using the recorded density history.
    Returned for the un-conjugated field; the conjugate satisfies conj(a(k))
    at -k because the compensating phase is even in k.  Second-order
    statistics are unchanged: the multiplier has unit modulus, so
    |a(k)| = |psi_hat(k)| realization-wise.
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
    from .cumulants import EnsembleOracle  # the lattice layer's one use of the algebra layer

    if max_order < 1:
        raise ConfigError("max_order must be at least 1")
    if ensemble.n_realizations < 2:
        raise ConfigError("gauge_audit needs at least 2 realizations")
    site_pool = list(itertools.islice(ensemble.lattice.sites(), max_order))
    if len(site_pool) < max_order:
        raise ConfigError("lattice too small for the requested audit order")

    probes: list[GaugeProbe] = []
    seen: set[tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]] = set()
    pool = np.stack([ensemble.fields[(slice(None),) + site] for site in site_pool], axis=1)
    columns = {1: pool, -1: np.conj(pool)}  # the conjugates once, of the pool's sites alone
    oracle = EnsembleOracle({(sign, site): columns[sign][:, j] for sign in (1, -1) for j, site in enumerate(site_pool)})
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
                code = oracle.book.code(zip(signs, sites))
                value = oracle.moment_code(code)
                loo = oracle.loo_moment_code(code)
                se = jackknife_stderr(np.stack((loo.real, loo.imag), axis=1))
                probes.append(
                    GaugeProbe(
                        sites=sites,
                        signs=signs,
                        value=value,
                        stderr=(float(se[0]), float(se[1])),
                        zscore=float(_safe_z(np.array([value.real, value.imag]), se).max()),
                    )
                )
    return GaugeAuditReport(probes=tuple(probes), threshold=float(threshold))


# ---------------------------------------------------------------------------
# free propagator diagnostics
# ---------------------------------------------------------------------------


def _propagator(lattice: Lattice, omega: np.ndarray, t: float) -> np.ndarray:
    """The free propagator p_t(x) = L^-d sum_k exp(i 2 pi k . x) exp(-i t omega(k)) of the symbol ``omega``."""
    return _lattice_fft(np.exp(-1j * t * omega), lattice.dimension, inverse=True)


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
        norms[i] = float(np.sum(np.abs(_propagator(lattice, omega, t)) ** 3))

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

    This is the l1 clustering condition on the cumulants of the random
    initial data of the DNLS in arXiv:1503.05851.

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


def fixed_modulus_fourth_norm(lattice: Lattice, w0: np.ndarray) -> float:
    """Exact l1 clustering norm of the fourth cumulant of the fixed-modulus law.

    This is the clustering norm of arXiv:1503.05851 for the non-Gaussian
    initial data that :func:`sample_initial` draws as ``fixed-modulus``, and
    the ``kappa4_norm`` input of :func:`wickkit.kinetic.appendix_c_bound`.

    Per mode, the only nonvanishing fourth cumulant of a fixed-modulus phasor
    is kappa(conj, conj, +, +) = -(L^d W(k))^2, so the pinned position-space
    cumulant depends only on v = -x2 + x3 + x4 and equals
    -L^-d (ifft W^2)(v); summing |kappa| over the free positions gives
    L^d sum_v |(ifft W^2)(v)|.
    """
    spectrum = _spectrum_values(w0, lattice)
    profile = _lattice_fft(spectrum.astype(complex) ** 2, lattice.dimension, inverse=True)
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
    to reconstruct the ensemble exactly.  A non-finite field or manifest
    entry is a GuardError, and nothing is written.
    """
    if not np.all(np.isfinite(ensemble.fields)):
        raise GuardError("ensemble fields have a non-finite entry")
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    files = [f"realization_{index:05d}.npy" for index in range(ensemble.n_realizations)]
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
    _write_json(manifest_path, manifest)  # first, so a non-finite entry writes nothing
    for name, field in zip(files, ensemble.fields):
        np.save(target / name, field.astype("<c16"))
    return manifest_path


def load_ensemble(directory: str | Path) -> LatticeEnsemble:
    """Reload an ensemble saved by :func:`save_ensemble`.

    Each realization file must hold a finite little-endian complex128 array
    of the lattice's shape, as the manifest declares; a file that does not,
    or that numpy cannot read without unpickling, is a ConfigError naming it.
    """
    target = Path(directory)
    manifest_path = target / _MANIFEST_NAME
    if not manifest_path.is_file():
        raise ConfigError(f"no {_MANIFEST_NAME} in {target}")
    with Block(_json(_read_text(manifest_path), str(manifest_path)), str(manifest_path)) as manifest:
        manifest.choice("kind", ("lattice_ensemble",))
        if (version := manifest.integer("schema_version")) != _SCHEMA_VERSION:
            raise ConfigError(f"unsupported ensemble schema version {version}")
        lattice = Lattice(manifest.integer("dimension"), manifest.integer("side"))
        files = manifest.get("files")
        if not isinstance(files, list) or not all(isinstance(name, str) for name in files):
            raise ConfigError(f"{manifest.name('files')} must be a list of file names")
        if len(files) != manifest.integer("n_realizations"):
            raise ConfigError("manifest file list does not match the declared ensemble size")
        for key, value in (("dtype", "complex128"), ("byte_order", "little"), ("layout", "row-major")):
            manifest.choice(key, (value,))
        scalars = {
            "time": manifest.number("time"),
            "coupling": manifest.number("coupling"),
            "master_seed": manifest.integer("master_seed", None),
            "r_integral": manifest.number("r_integral", None),
        }
    fields = np.empty((len(files),) + lattice.shape, dtype=complex)
    for index, name in enumerate(files):
        path = target / name
        if not path.is_file():
            raise ConfigError(f"missing realization file {path}")
        try:
            arr = np.load(path, allow_pickle=False)
        except (ValueError, EOFError) as err:  # EOFError: an empty file
            raise ConfigError(f"{path} is not a readable .npy array: {err}") from None
        if arr.dtype.str != "<c16":
            raise ConfigError(f"{path} has dtype {arr.dtype.str}, expected <c16")
        if arr.shape != lattice.shape:
            raise ConfigError(f"{path} has shape {arr.shape}, expected {lattice.shape}")
        if not np.all(np.isfinite(arr)):
            raise ConfigError(f"{path} has a non-finite entry")
        fields[index] = arr
    return LatticeEnsemble(lattice=lattice, fields=fields, **scalars)


def write_spectrum_csv(lattice: Lattice, values: np.ndarray, path: str | Path, stderr: np.ndarray | None = None) -> None:
    """Write a spectrum as CSV rows of (k components..., value, stderr).

    Rows follow row-major dual-grid order; momenta are written as fractions,
    and the stderr cells are empty when ``stderr`` is None.  ``values`` and
    ``stderr`` must have the lattice's shape, else a ConfigError.
    Formatting is deterministic (repr of Python floats), so identical
    spectra produce byte-identical files.  A non-finite value or error is a
    GuardError, and nothing is written.
    """
    for name, column in (("values", values), ("stderr", stderr)):
        if column is not None and np.shape(column) != lattice.shape:
            raise ConfigError(f"spectrum {name} shape {np.shape(column)} does not match lattice shape {lattice.shape}")
    header = [f"k{i + 1}" for i in range(lattice.dimension)] + ["value", "stderr"]
    errors = [""] * lattice.size if stderr is None else np.asarray(stderr)
    write_csv(Path(path), header, [lattice.k_cells(), np.asarray(values), errors])


def read_spectrum_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Parse a spectrum CSV back into (k rows, values, stderr), stderr None when its cells are all empty."""
    header, rows = read_csv(Path(path), optional="stderr")
    if header[-2:] != ["value", "stderr"]:
        raise ConfigError(f"{path} does not look like a spectrum CSV")
    dim = len(header) - 2
    return rows[:, :dim], rows[:, dim], rows[:, dim + 1] if rows.shape[1] > dim + 1 else None
