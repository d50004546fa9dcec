"""Four-wave kinetic theory on the dual lattice.

This module evaluates the cubic four-wave collision operator

    C(W)(k) = 4 pi L^-2d sum_{k1,k2} delta(Omega) [W1 W2 W3 + W W2 W3
                                                   - W W1 W3 - W W1 W2],

with k3 = k + k1 - k2 resolved exactly on the dual grid and
Omega = omega + omega1 - omega2 - omega3 handled by a finite-width even
energy kernel, and builds the surrounding machinery: the spectrum evolution
solver, the finite-coupling windowed kernel whose tau-average approaches
C(W), the decay rate of field time-correlations, and the dispersive bound
on the first-order non-pairing remainder.

Two energy-delta models are supported, and both are cosine transforms of a
time weight, delta(x) = (1/pi) int_0^inf f(t) cos(t x) dt:

* ``gaussian``: delta_eps(x) = exp(-x^2 / 2 eps^2) / (eps sqrt(2 pi)), the
  generic broadened delta used by the long-time solver; f(t) =
  exp(-eps^2 t^2 / 2), sampled by the midpoint rule out to t = 9 / eps.
* ``fejer``: the window that the finite-time, finite-coupling dynamics
  actually produces.  Integrating the oscillatory phase over the time
  window [0, tau / coupling^2] twice yields exactly
  2 coupling^2 (1 - cos(T Omega)) / Omega^2 with T = tau / coupling^2,
  which normalizes to the unit-mass kernel (T / 2 pi) sinc^2(T Omega / 2 pi);
  f(t) is the triangle 1 - t/T on [0, T].  The integrand is entire in t, so
  Gauss-Legendre quadrature on [0, T] converges spectrally once the node
  count passes T max|Omega| / 2; the rule uses that many plus 16 (split
  into panels of at most 256 nodes).

Either way delta(Omega) becomes a weighted sum of cos(t_j Omega) over time
nodes t_j, and at each node the exact momentum constraint
k + k1 = k2 + k3 factorizes in position space: one engine evaluates every
collision sum with lattice FFTs per node instead of a double k-sum.  Each
lattice FFT is ``dnls._lattice_fft``, one n-D pocketfft call over a block of
nodes, the same transform as the DNLS split step's.  The part that does not
depend on W (the phases exp(i t_j omega) and their transforms) is built once
per config as its plan, so a call costs three lattice FFTs per node.  The
pre-limit kernel is 2 pi tau times the Fejér sums and shares the engine.

The loss rate is kept as the real (delta) part only:

    Gamma(W)(k) = -2 pi L^-2d sum_{k1,k2} delta(Omega) [W2 W3 - W1 W3 - W1 W2];

the principal-value part of the half-line time integral is a frequency
shift, not a decay, and is dropped here.  Exact regrouping then gives
C(W) = gain(W) - 2 W Gamma(W) with gain = 4 pi L^-2d sum delta W1 W2 W3,
so at a stationary spectrum the gain equals twice W * Gamma.

A spectrum is a float array of the lattice's shape: every function here
takes W as one, and the collision sums and kernels return one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator

import numpy as np

from .dnls import Dispersion, Lattice, PropagatorDecayFit, _lattice_fft, _nonnegative_values
from .errors import ConfigError, GuardError, rk4, step_count

__all__ = [
    "CollisionConfig",
    "EquilibriumParams",
    "collision_operator",
    "gamma_rate",
    "prelimit_kernel",
    "kinetic_time",
    "bp_solve",
    "BPTrajectory",
    "correlation_decay",
    "CorrelationDecay",
    "appendix_c_bound",
]

_DELTA_MODELS = ("gaussian", "fejer")


def _omega_grid_spacing(omega: np.ndarray) -> float:
    """Mean gap between the distinct dispersion values on the grid."""
    distinct = np.unique(np.round(omega.ravel(), 12))
    if distinct.size < 2:
        return 0.0
    return float((distinct[-1] - distinct[0]) / (distinct.size - 1))


def kinetic_time(tau: float, coupling: float) -> float:
    """The kinetic time T = tau / coupling^2, the support of a Fejér window in time; a ConfigError unless
    tau and the coupling are positive and T is finite, so a square that underflows or overflows is refused."""
    try:
        support = tau / coupling**2
    except (ZeroDivisionError, OverflowError):
        support = math.nan
    if not (tau > 0.0 and coupling > 0.0 and 0.0 < support < math.inf):
        raise ConfigError(f"tau {tau!r} and coupling {coupling!r} need a positive, finite kinetic time tau / coupling²")
    return support


@dataclass(frozen=True)
class CollisionConfig:
    """Grid, dispersion, and energy-delta model for the collision sums.

    ``delta_model`` is ``gaussian`` (width ``epsilon``, defaulting to four
    times the mean spacing of the distinct dispersion values) or ``fejer``
    (parameters ``window_tau`` and ``window_coupling``; the window support
    in time is T = window_tau / window_coupling^2).  Both models run on the
    same time-domain engine: the Gaussian one on midpoint nodes out to
    t = 9 / epsilon, the Fejér one on Gauss-Legendre nodes on [0, T], about
    T max|Omega| / 2 + 16 of them.
    """

    lattice: Lattice
    dispersion: Dispersion
    delta_model: str = "gaussian"
    epsilon: float | None = None
    window_tau: float | None = None
    window_coupling: float | None = None

    def __post_init__(self) -> None:
        if self.delta_model not in _DELTA_MODELS:
            raise ConfigError(f"unknown delta model {self.delta_model!r}; expected one of {_DELTA_MODELS}")
        if self.lattice.dimension != self.dispersion.dimension:
            raise ConfigError("lattice and dispersion dimensions differ")
        if self.delta_model == "gaussian":
            if self.epsilon is not None and not 0.0 < self.epsilon < math.inf:
                raise ConfigError("gaussian delta width must be positive and finite")
            if self.epsilon is None and _omega_grid_spacing(self.dispersion.omega(self.lattice)) == 0.0:
                raise ConfigError("dispersion is flat; give an explicit delta width")
        elif self.window_tau is None or self.window_coupling is None:
            raise ConfigError("fejer model needs window_tau and window_coupling")
        else:
            kinetic_time(self.window_tau, self.window_coupling)  # a ConfigError unless positive and finite

    def omega(self) -> np.ndarray:
        return self.dispersion.omega(self.lattice)

    @cached_property
    def _time_grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """omega and the delta model's time nodes and weights, built once per config."""
        node_rule = _gaussian_time_nodes if self.delta_model == "gaussian" else _fejer_time_nodes
        return (self.omega(), *node_rule(self))

    @cached_property
    def _plan(self) -> tuple[tuple[np.ndarray, ...], ...] | None:
        """The engine's node blocks, built once and kept read-only; None if they exceed _PLAN_BYTES."""
        omega, nodes, _ = self._time_grid
        if 3 * nodes.size * omega.size * np.dtype(complex).itemsize > _PLAN_BYTES:
            return None
        plan = tuple(_plan_blocks(*self._time_grid))
        for block in plan:
            for array in block:
                array.flags.writeable = False
        return plan

    @property
    def time_nodes(self) -> int:
        """Number of time nodes of the energy delta, one engine pass each."""
        return self._time_grid[1].size

    @property
    def plan_kept(self) -> bool:
        """Whether the config keeps its engine plan between calls (it fits _PLAN_BYTES)."""
        return self._plan is not None

    @property
    def window_support(self) -> float:
        """Time-window length T of the fejer model."""
        if self.delta_model != "fejer":
            raise ConfigError("window_support is only defined for the fejer model")
        return kinetic_time(self.window_tau, self.window_coupling)

    def resolved_epsilon(self) -> float:
        if self.delta_model != "fejer" and self.epsilon is not None:
            return float(self.epsilon)
        if self.delta_model == "fejer":
            raise ConfigError("the fejer model has no gaussian width")
        return 4.0 * _omega_grid_spacing(self.omega())


@dataclass(frozen=True)
class EquilibriumParams:
    """Inverse temperature and chemical potential of a stationary spectrum."""

    beta: float
    mu: float

    def __post_init__(self) -> None:
        if not self.beta > 0.0:
            raise ConfigError("beta must be positive")

    def spectrum(self, lattice: Lattice, dispersion: Dispersion) -> np.ndarray:
        """W(k) = 1 / (beta (omega(k) - mu)); requires mu below the band."""
        omega = dispersion.omega(lattice)
        if not self.mu < float(omega.min()):
            raise ConfigError(f"mu = {self.mu} must lie strictly below min omega = {float(omega.min())}")
        return 1.0 / (self.beta * (omega - self.mu))


# ---------------------------------------------------------------------------
# collision sums
# ---------------------------------------------------------------------------


# The engine evaluates its time nodes in blocks of (nodes, *lattice.shape)
# arrays of at most this many complex elements (256 KB each, about L2 size),
# so the temporaries of a call stay bounded whatever the node count and
# lattice size.
_BLOCK_ELEMENTS = 1 << 14
# A config keeps its plan (phase, e and conj(e) of every block) only if the
# three arrays take at most this many bytes over all nodes; a larger plan is
# rebuilt one block at a time on every call, so memory stays bounded.
_PLAN_BYTES = 8 << 20
# Gauss-Legendre nodes per Fejér panel at most; leggauss costs O(n^3).
_PANEL_NODES = 256
# More time nodes than this means a delta width far below what the grid can
# resolve (or a window far longer); such configs are rejected up front.
_MAX_TIME_NODES = 1 << 22


def _check_node_count(n_nodes: float) -> None:
    """Reject a node count (or an estimate of it, possibly inf) over the limit."""
    if not n_nodes <= _MAX_TIME_NODES:
        raise ConfigError(
            f"the energy delta needs {n_nodes:.3g} time nodes (limit {_MAX_TIME_NODES}); "
            "widen the delta or shorten the window"
        )


def _omega_span(config: CollisionConfig) -> float:
    """Bound on |Omega| = |omega + omega1 - omega2 - omega3| over the grid."""
    omega = config.omega()
    return 2.0 * float(omega.max() - omega.min())


def _gaussian_time_nodes(config: CollisionConfig) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint nodes and weights for delta_eps(x) = (1/pi) int_0^inf cos(t x) e^{-eps^2 t^2/2} dt."""
    eps = config.resolved_epsilon()
    t_cut = 9.0 / eps
    dt = 2.0 * math.pi / (_omega_span(config) + 12.0 * eps)
    _check_node_count(t_cut / dt)
    n_nodes = max(8, math.ceil(t_cut / dt))
    dt = t_cut / n_nodes
    nodes = (np.arange(n_nodes) + 0.5) * dt
    weights = (dt / math.pi) * np.exp(-0.5 * (eps * nodes) ** 2)
    return nodes, weights


@lru_cache(maxsize=32)
def _legendre_rule(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], shared read-only."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _fejer_time_nodes(config: CollisionConfig) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights for the Fejér kernel (1/pi) int_0^T (1 - t/T) cos(t x) dt.

    [0, T] is cut into the fewest equal panels that keep T max|Omega| / 2 per
    panel under _PANEL_NODES - 16; each panel gets that phase count plus 16
    nodes, which makes the rule accurate to rounding.
    """
    support = config.window_support
    half_phase = 0.5 * support * _omega_span(config)
    _check_node_count(half_phase)
    panels = max(1, math.ceil(half_phase / (_PANEL_NODES - 16)))
    x, w = _legendre_rule(math.ceil(half_phase / panels) + 16)
    length = support / panels
    nodes = (length * np.arange(panels)[:, None] + 0.5 * length * (x + 1.0)).ravel()
    weights = np.tile((0.5 * length / math.pi) * w, panels) * (1.0 - nodes / support)
    return nodes, weights


def _plan_blocks(
    omega: np.ndarray,
    nodes: np.ndarray,
    weights: np.ndarray,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The W-independent part of the engine, one node block at a time.

    Yields (weight, phase, e, conj(e)) with phase = e^{i t omega} and
    e = sum_k phase e^{+i2pik.x}, for the nodes t of the block along a
    leading axis.
    """
    block = max(1, _BLOCK_ELEMENTS // omega.size)
    for start in range(0, nodes.size, block):
        t = nodes[start:start + block].reshape((-1,) + (1,) * omega.ndim)
        phase = np.exp(1j * t * omega)
        e = _lattice_fft(phase, omega.ndim, inverse=True, norm="forward")
        yield weights[start:start + block].reshape(t.shape), phase, e, e.conj()


def _time_domain_sums(
    values: np.ndarray,
    blocks: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """(gain sum, loss sum) for the energy delta sum_j weight_j cos(t_j x) over the plan's blocks.

    gain(k) = sum delta(Omega) W1 W2 W3 and
    loss(k) = sum delta(Omega) [W2 W3 - W1 W3 - W1 W2], both over all
    (k1, k2) grid pairs with k3 = k + k1 - k2.  At each node t the exact
    momentum constraint k + k1 = k2 + k3 factorizes over position space:
    with u = sum_k W e^{i t omega} e^{+i2pik.x} and e the same sum without
    W (from the plan), the conjugates carry e^{-i t omega}, and three
    lattice FFTs per node give both sums.  The weighted node sum is a plain
    np.sum, so the result does not depend on BLAS threads.
    """
    dimension = values.ndim
    gain = np.zeros(values.shape)
    loss = np.zeros(values.shape)
    for weight, phase, e, e_conj in blocks:
        u = _lattice_fft(values * phase, dimension, inverse=True, norm="forward")
        v = u.conj()
        uv = u * v
        gain_term = _lattice_fft(uv * v, dimension, inverse=True)
        loss_term = _lattice_fft(e * v * v - 2.0 * uv * e_conj, dimension, inverse=True)
        gain += np.sum(weight * (phase * gain_term).real, axis=0)
        loss += np.sum(weight * (phase * loss_term).real, axis=0)
    return gain, loss


def _collision_sums(w: np.ndarray, config: CollisionConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(W, gain sum, loss sum) on the time nodes of the config's delta model."""
    values = _nonnegative_values(w, config.lattice)
    plan = config._plan
    blocks = plan if plan is not None else _plan_blocks(*config._time_grid)
    gain_sum, loss_sum = _time_domain_sums(values, blocks)
    return values, gain_sum, loss_sum


def collision_operator(w: np.ndarray, config: CollisionConfig) -> np.ndarray:
    """Four-wave collision operator C(W) on the dual grid.

    The summand is antisymmetric under the pair swap (k, k1) <-> (k2, k3)
    — the bracket flips sign while Omega flips sign inside the even delta —
    so the plain k-sum of the output vanishes identically (particle-number
    conservation), already at any finite delta width.
    """
    values, gain_sum, loss_sum = _collision_sums(w, config)
    scale = 4.0 * math.pi / config.lattice.size**2
    return scale * (gain_sum + values * loss_sum)


def gamma_rate(w: np.ndarray, config: CollisionConfig) -> np.ndarray:
    """Decay rate of field time-correlations (real part of the loss kernel).

    Gamma(cW) = c^2 Gamma(W) exactly; at a stationary spectrum the collision
    gain equals 2 W Gamma pointwise up to the delta-model tolerance.
    """
    _, _, loss_sum = _collision_sums(w, config)
    return -2.0 * math.pi / config.lattice.size**2 * loss_sum


# ---------------------------------------------------------------------------
# finite-coupling windowed kernel
# ---------------------------------------------------------------------------


def prelimit_kernel(
    w: np.ndarray,
    coupling: float,
    tau: float,
    config: CollisionConfig,
) -> np.ndarray:
    """First pairing-order spectrum increment over the window t = tau/coupling^2.

    Returns 2 L^-2d sum_{k1,k2} window(Omega) [bracket], the finite-coupling
    increment W_t - W_0 whose ratio to tau approaches C(W) as the coupling
    goes to zero.  Since window = 2 pi tau * unit-mass Fejér kernel of
    support T, this is tau times the Fejér collision sums; only the lattice
    and dispersion of ``config`` are used.  The window's config serves this
    one call, so its node blocks are streamed, never kept as a plan.
    """
    window = CollisionConfig(
        lattice=config.lattice,
        dispersion=config.dispersion,
        delta_model="fejer",
        window_tau=tau,
        window_coupling=coupling,
    )
    values = _nonnegative_values(w, config.lattice)
    gain_sum, loss_sum = _time_domain_sums(values, _plan_blocks(*window._time_grid))
    scale = 4.0 * math.pi * tau / config.lattice.size**2
    return scale * (gain_sum + values * loss_sum)


# ---------------------------------------------------------------------------
# kinetic equation solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BPTrajectory:
    """Stored kinetic trajectory with its conserved-functional traces.

    ``spectra[j]`` is W at ``taus[j]``; ``number`` and ``energy`` are the
    mean spectrum and mean omega-weighted spectrum, ``entropy`` is
    sum_k ln W: finite for a strictly positive spectrum and -inf for one
    with a zero mode, which the ``bp-solve`` summary writes as JSON null.  The work
    counters describe the solve: the config's ``time_nodes`` and whether it
    kept its engine plan, the spectra (stage inputs and stored states) in
    which clamping zeroed an entry, and the lowest value seen before
    clamping.
    """

    taus: np.ndarray
    spectra: np.ndarray
    number: np.ndarray
    energy: np.ndarray
    entropy: np.ndarray
    time_nodes: int = 0
    plan_kept: bool = False
    clamp_events: int = 0
    min_w_before_clamp: float = math.inf

    @property
    def n_steps(self) -> int:
        return len(self.taus) - 1

    @property
    def rk4_stages(self) -> int:
        return 4 * self.n_steps


_CLAMP_FLOOR = -1e-9


@dataclass
class _ClampRecord:
    """Counts of one solve's clamps: spectra with an entry zeroed, and the lowest value seen."""

    events: int = 0
    lowest: float = math.inf


def _clamp_spectrum(values: np.ndarray, record: _ClampRecord | None = None) -> np.ndarray:
    """Zero out tiny negatives; reject genuinely negative or non-finite spectra."""
    if not np.all(np.isfinite(values)):
        raise GuardError("spectrum became non-finite during the solve")
    lowest = float(values.min())
    if record is not None:
        record.lowest = min(record.lowest, lowest)
    if lowest < _CLAMP_FLOOR:
        raise GuardError(
            f"spectrum went negative (min W = {lowest:.3g}); the time step is too large"
        )
    if lowest < 0.0:
        if record is not None:
            record.events += 1
        return np.where(values < 0.0, 0.0, values)
    return values


def bp_solve(
    w0: np.ndarray,
    config: CollisionConfig,
    tau_end: float,
    dtau: float,
) -> BPTrajectory:
    """Integrate the kinetic equation dW/dtau = C(W) with fixed-step RK4.

    Every stage input and every stored state is clamped at zero from below
    (tolerating rounding negatives down to -1e-9, rejecting worse as a
    step-size failure) and counted on the trajectory; the particle-number,
    energy, and entropy functionals are recorded at every accepted step.
    """
    values = _nonnegative_values(w0, config.lattice)
    n_steps = step_count(tau_end, dtau, "bp_solve (tau_end, dtau)")

    omega = config.omega()
    size = config.lattice.size

    clamps = _ClampRecord(lowest=float(values.min()))

    def clamp(w: np.ndarray) -> np.ndarray:
        return _clamp_spectrum(w, clamps)

    def rhs(tau: float, w: np.ndarray) -> np.ndarray:
        return collision_operator(clamp(w), config)

    _, spectra = rk4(rhs, values, 0.0, dtau, n_steps, project=clamp)
    stacked = np.stack(spectra)
    flat = stacked.reshape(len(spectra), size)
    number = flat.mean(axis=1)
    energy = (flat * omega.ravel()[None, :]).mean(axis=1)
    with np.errstate(divide="ignore"):
        entropy = np.sum(np.log(flat), axis=1)
    return BPTrajectory(
        taus=np.arange(len(spectra)) * dtau,
        spectra=stacked,
        number=number,
        energy=energy,
        entropy=entropy,
        time_nodes=config.time_nodes,
        plan_kept=config.plan_kept,
        clamp_events=clamps.events,
        min_w_before_clamp=clamps.lowest,
    )


# ---------------------------------------------------------------------------
# time-correlation decay
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorrelationDecay:
    """Two routes to A_tau = E[a_tau conj(a_0)] along a kinetic trajectory.

    ``closed`` integrates the decay rate by trapezoid and exponentiates:
    A_tau = W_0 exp(-int_0^tau Gamma(W_s) ds).  ``ode`` integrates
    dA/dtau = -A Gamma(W_tau) by RK4 with the sampled rates interpolated
    linearly in tau; the two agree to quadrature accuracy.
    """

    taus: np.ndarray
    closed: np.ndarray
    ode: np.ndarray


def correlation_decay(trajectory: BPTrajectory, config: CollisionConfig, ode_substeps: int = 4) -> CorrelationDecay:
    """Evaluate the correlation decay profile along a stored trajectory."""
    if trajectory.spectra.shape[1:] != config.lattice.shape:
        raise ConfigError(
            f"trajectory grid {trajectory.spectra.shape[1:]} does not match lattice {config.lattice.shape}"
        )
    if ode_substeps < 1:
        raise ConfigError("ode_substeps must be at least 1")
    taus = trajectory.taus
    rates = np.stack([gamma_rate(trajectory.spectra[j], config) for j in range(len(taus))])
    w0 = trajectory.spectra[0]

    # closed form: cumulative trapezoid of the sampled rates
    closed = np.empty_like(rates)
    closed[0] = w0
    integral = np.zeros_like(w0)
    for j in range(1, len(taus)):
        integral = integral + 0.5 * (taus[j] - taus[j - 1]) * (rates[j - 1] + rates[j])
        closed[j] = w0 * np.exp(-integral)

    # ODE route: RK4 on dA/dtau = -A * Gamma_linear(tau), one march per sampled interval
    ode = np.empty_like(rates)
    ode[0] = w0
    for j in range(1, len(taus)):
        t0, t1 = taus[j - 1], taus[j]
        g0, g1 = rates[j - 1], rates[j]

        def rhs(t: float, y: np.ndarray) -> np.ndarray:
            frac = (t - t0) / (t1 - t0)
            return -y * ((1.0 - frac) * g0 + frac * g1)

        _, states = rk4(rhs, ode[j - 1], t0, (t1 - t0) / ode_substeps, ode_substeps)
        ode[j] = states[-1]
    return CorrelationDecay(taus=taus.copy(), closed=closed, ode=ode)


# ---------------------------------------------------------------------------
# dispersive remainder bound
# ---------------------------------------------------------------------------


def appendix_c_bound(
    fit: PropagatorDecayFit,
    kappa4_norm: float,
    coupling: float,
    t: float,
) -> float:
    """Uniform-in-time bound on the first-order non-pairing remainder.

    Returns coupling * kappa4_norm * scale * int_0^t (1+s^2)^(-(1+delta)/2) ds
    using the fitted propagator envelope; finite as t -> infinity whenever
    the fitted decay exponent is positive, and an error otherwise (the
    dispersion is then too weak for the bound to apply).
    """
    if fit.decay_exponent <= 0.0:
        raise ConfigError(
            f"propagator decay exponent {fit.decay_exponent:.3g} is not positive; bound not applicable"
        )
    if kappa4_norm < 0.0 or coupling < 0.0:
        raise ConfigError("kappa4_norm and coupling must be nonnegative")
    if t < 0.0:
        raise ConfigError("t must be nonnegative")
    exponent = -(1.0 + fit.decay_exponent) / 2.0
    from scipy.integrate import quad  # deferred: keeps scipy off the CLI import path

    upper = t if math.isfinite(t) else np.inf
    integral, _ = quad(lambda s: (1.0 + s * s) ** exponent, 0.0, upper)
    return coupling * kappa4_norm * fit.scale * integral
