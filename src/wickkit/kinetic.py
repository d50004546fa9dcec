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
collision sum with four lattice FFTs per node instead of a double k-sum.
The pre-limit kernel is 2 pi tau times the Fejér sums and shares it.

The loss rate is kept as the real (delta) part only:

    Gamma(W)(k) = -2 pi L^-2d sum_{k1,k2} delta(Omega) [W2 W3 - W1 W3 - W1 W2];

the principal-value part of the half-line time integral is a frequency
shift, not a decay, and is dropped here.  Exact regrouping then gives
C(W) = gain(W) - 2 W Gamma(W) with gain = 4 pi L^-2d sum delta W1 W2 W3,
so at a stationary spectrum the gain equals twice W * Gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .dnls import Dispersion, Lattice, PropagatorDecayFit, Spectrum, step_count
from .errors import ConfigError, GuardError

__all__ = [
    "CollisionConfig",
    "EquilibriumParams",
    "collision_operator",
    "collision_gain",
    "gamma_rate",
    "prelimit_kernel",
    "prelimit_window",
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
        else:
            if self.window_tau is None or self.window_coupling is None:
                raise ConfigError("fejer model needs window_tau and window_coupling")
            if not (self.window_tau > 0.0 and self.window_coupling > 0.0):
                raise ConfigError("fejer window parameters must be positive")
            if not 0.0 < self.window_support < math.inf:
                raise ConfigError(f"fejer window support {self.window_support!r} must be positive and finite")

    def omega(self) -> np.ndarray:
        return self.dispersion.omega(self.lattice)

    @cached_property
    def _time_grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """omega and the delta model's time nodes and weights, built once per config."""
        node_rule = _gaussian_time_nodes if self.delta_model == "gaussian" else _fejer_time_nodes
        return (self.omega(), *node_rule(self))

    @property
    def window_support(self) -> float:
        """Time-window length T of the fejer model."""
        if self.delta_model != "fejer":
            raise ConfigError("window_support is only defined for the fejer model")
        return self.window_tau / self.window_coupling**2

    def resolved_epsilon(self) -> float:
        if self.delta_model != "fejer" and self.epsilon is not None:
            return float(self.epsilon)
        if self.delta_model == "fejer":
            raise ConfigError("the fejer model has no gaussian width")
        return 4.0 * _omega_grid_spacing(self.omega())

    @property
    def width(self) -> float:
        """Effective energy-delta width (eps, or 2 pi / T for fejer)."""
        if self.delta_model == "gaussian":
            return self.resolved_epsilon()
        return 2.0 * math.pi / self.window_support

    def delta_weights(self, omega_gap: np.ndarray) -> np.ndarray:
        """Unit-mass even energy kernel evaluated at Omega values."""
        if self.delta_model == "gaussian":
            eps = self.resolved_epsilon()
            return np.exp(-(omega_gap**2) / (2.0 * eps**2)) / (eps * math.sqrt(2.0 * math.pi))
        support = self.window_support
        return (support / (2.0 * math.pi)) * np.sinc(support * omega_gap / (2.0 * math.pi)) ** 2


@dataclass(frozen=True)
class EquilibriumParams:
    """Inverse temperature and chemical potential of a stationary spectrum."""

    beta: float
    mu: float

    def __post_init__(self) -> None:
        if not self.beta > 0.0:
            raise ConfigError("beta must be positive")

    def spectrum(self, lattice: Lattice, dispersion: Dispersion) -> Spectrum:
        """W(k) = 1 / (beta (omega(k) - mu)); requires mu below the band."""
        omega = dispersion.omega(lattice)
        if not self.mu < float(omega.min()):
            raise ConfigError(f"mu = {self.mu} must lie strictly below min omega = {float(omega.min())}")
        return Spectrum(values=1.0 / (self.beta * (omega - self.mu)))


# ---------------------------------------------------------------------------
# collision sums
# ---------------------------------------------------------------------------


def _spectrum_values(w: np.ndarray | Spectrum, lattice: Lattice) -> np.ndarray:
    values = w.values if isinstance(w, Spectrum) else np.asarray(w, dtype=float)
    if values.shape != lattice.shape:
        raise ConfigError(f"spectrum shape {values.shape} does not match lattice shape {lattice.shape}")
    if not np.all(np.isfinite(values)):
        raise ConfigError("spectrum has a non-finite entry")
    return values


# The engine evaluates its time nodes in blocks of (nodes, *lattice.shape)
# arrays of at most this many complex elements (256 KB each, about L2 size),
# so memory stays bounded whatever the node count and lattice size.
_BLOCK_ELEMENTS = 1 << 14
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


def _time_domain_sums(
    values: np.ndarray,
    omega: np.ndarray,
    nodes: np.ndarray,
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(gain sum, loss sum) for the energy delta sum_j weights[j] cos(nodes[j] x).

    gain(k) = sum delta(Omega) W1 W2 W3 and
    loss(k) = sum delta(Omega) [W2 W3 - W1 W3 - W1 W2], both over all
    (k1, k2) grid pairs with k3 = k + k1 - k2.  At each node t the exact
    momentum constraint k + k1 = k2 + k3 factorizes over position space:
    with u = sum_k W e^{i t omega} e^{+i2pik.x} and e the same sum without
    W, the conjugates carry e^{-i t omega}, and four lattice FFTs per node
    give both sums.  Nodes are batched along a leading axis; the weighted
    node sum is a plain np.sum, so the result does not depend on BLAS
    threads.
    """
    axes = tuple(range(1, values.ndim + 1))
    block = max(1, _BLOCK_ELEMENTS // values.size)
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


def _collision_sums(w: np.ndarray | Spectrum, config: CollisionConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(W, gain sum, loss sum) on the time nodes of the config's delta model."""
    values = _spectrum_values(w, config.lattice)
    if float(values.min()) < 0.0:
        raise ConfigError(f"spectrum has a negative entry: min W = {float(values.min()):.3g}")
    gain_sum, loss_sum = _time_domain_sums(values, *config._time_grid)
    return values, gain_sum, loss_sum


def collision_operator(w: np.ndarray | Spectrum, config: CollisionConfig) -> Spectrum:
    """Four-wave collision operator C(W) on the dual grid.

    The summand is antisymmetric under the pair swap (k, k1) <-> (k2, k3)
    — the bracket flips sign while Omega flips sign inside the even delta —
    so the plain k-sum of the output vanishes identically (particle-number
    conservation), already at any finite delta width.
    """
    values, gain_sum, loss_sum = _collision_sums(w, config)
    scale = 4.0 * math.pi / config.lattice.size**2
    return Spectrum(values=scale * (gain_sum + values * loss_sum))


def collision_gain(w: np.ndarray | Spectrum, config: CollisionConfig) -> Spectrum:
    """Gain part of C(W): 4 pi L^-2d sum delta(Omega) W1 W2 W3 (always >= 0)."""
    _, gain_sum, _ = _collision_sums(w, config)
    return Spectrum(values=4.0 * math.pi / config.lattice.size**2 * gain_sum)


def gamma_rate(w: np.ndarray | Spectrum, config: CollisionConfig) -> Spectrum:
    """Decay rate of field time-correlations (real part of the loss kernel).

    Gamma(cW) = c^2 Gamma(W) exactly; at a stationary spectrum the collision
    gain equals 2 W Gamma pointwise up to the delta-model tolerance.
    """
    _, _, loss_sum = _collision_sums(w, config)
    return Spectrum(values=-2.0 * math.pi / config.lattice.size**2 * loss_sum)


# ---------------------------------------------------------------------------
# finite-coupling windowed kernel
# ---------------------------------------------------------------------------


def prelimit_window(omega_gap: np.ndarray | float, coupling: float, tau: float) -> np.ndarray:
    """Closed form of int_{|r| <= tau/coupling^2} (tau - coupling^2 |r|) e^{i r Omega} dr.

    Equals 2 coupling^2 (1 - cos(T Omega)) / Omega^2 with T = tau/coupling^2,
    continued by tau^2 / coupling^2 at Omega = 0; evaluated stably through
    sinc^2.
    """
    if not (coupling > 0.0 and tau > 0.0):
        raise ConfigError("coupling and tau must be positive")
    support = tau / coupling**2
    gap = np.asarray(omega_gap, dtype=float)
    # 2 lam^2 (1 - cos(T x))/x^2 = lam^2 T^2 sinc^2(T x / 2 pi)
    return coupling**2 * support**2 * np.sinc(support * gap / (2.0 * math.pi)) ** 2


def prelimit_kernel(
    w: np.ndarray | Spectrum,
    coupling: float,
    tau: float,
    config: CollisionConfig,
) -> Spectrum:
    """First pairing-order spectrum increment over the window t = tau/coupling^2.

    Returns 2 L^-2d sum_{k1,k2} window(Omega) [bracket], the finite-coupling
    increment W_t - W_0 whose ratio to tau approaches C(W) as the coupling
    goes to zero.  Since window = 2 pi tau * unit-mass Fejér kernel of
    support T, this is tau times the Fejér collision sums; only the lattice
    and dispersion of ``config`` are used.
    """
    window = CollisionConfig(
        lattice=config.lattice,
        dispersion=config.dispersion,
        delta_model="fejer",
        window_tau=tau,
        window_coupling=coupling,
    )
    values, gain_sum, loss_sum = _collision_sums(w, window)
    scale = 4.0 * math.pi * tau / config.lattice.size**2
    return Spectrum(values=scale * (gain_sum + values * loss_sum))


# ---------------------------------------------------------------------------
# kinetic equation solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BPTrajectory:
    """Stored kinetic trajectory with its conserved-functional traces.

    ``spectra[j]`` is W at ``taus[j]``; ``number`` and ``energy`` are the
    mean spectrum and mean omega-weighted spectrum, ``entropy`` is
    sum_k ln W (finite only for strictly positive spectra).
    """

    taus: np.ndarray
    spectra: np.ndarray
    number: np.ndarray
    energy: np.ndarray
    entropy: np.ndarray

    @property
    def n_steps(self) -> int:
        return len(self.taus) - 1

    def spectrum_at(self, index: int) -> Spectrum:
        return Spectrum(values=self.spectra[index])


_CLAMP_FLOOR = -1e-9


def _clamp_spectrum(values: np.ndarray) -> np.ndarray:
    """Zero out tiny negatives; reject genuinely negative or non-finite spectra."""
    if not np.all(np.isfinite(values)):
        raise GuardError("spectrum became non-finite during the solve")
    lowest = float(values.min())
    if lowest < _CLAMP_FLOOR:
        raise GuardError(
            f"spectrum went negative (min W = {lowest:.3g}); the time step is too large"
        )
    if lowest < 0.0:
        return np.where(values < 0.0, 0.0, values)
    return values


def bp_solve(
    w0: np.ndarray | Spectrum,
    config: CollisionConfig,
    tau_end: float,
    dtau: float,
) -> BPTrajectory:
    """Integrate the kinetic equation dW/dtau = C(W) with fixed-step RK4.

    Every stage input is clamped at zero from below (tolerating rounding
    negatives down to -1e-9, rejecting worse as a step-size failure); the
    particle-number, energy, and entropy functionals are recorded at every
    accepted step.
    """
    values = _spectrum_values(w0, config.lattice)
    if float(values.min()) < 0.0:
        raise ConfigError(f"initial spectrum has a negative entry: min W = {float(values.min()):.3g}")
    n_steps = step_count(tau_end, dtau, "bp_solve (tau_end, dtau)")

    omega = config.omega()
    size = config.lattice.size

    def rhs(w: np.ndarray) -> np.ndarray:
        clamped = _clamp_spectrum(w)
        return collision_operator(clamped, config).values

    def record(traj: list[np.ndarray], w: np.ndarray) -> None:
        traj.append(w.copy())

    spectra: list[np.ndarray] = []
    w = values.copy()
    record(spectra, w)
    for _ in range(n_steps):
        k1 = rhs(w)
        k2 = rhs(w + 0.5 * dtau * k1)
        k3 = rhs(w + 0.5 * dtau * k2)
        k4 = rhs(w + dtau * k3)
        w = _clamp_spectrum(w + dtau / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        record(spectra, w)

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
    rates = np.stack(
        [gamma_rate(trajectory.spectra[j], config).values for j in range(len(taus))]
    )
    w0 = trajectory.spectra[0]

    # closed form: cumulative trapezoid of the sampled rates
    closed = np.empty_like(rates)
    closed[0] = w0
    integral = np.zeros_like(w0)
    for j in range(1, len(taus)):
        integral = integral + 0.5 * (taus[j] - taus[j - 1]) * (rates[j - 1] + rates[j])
        closed[j] = w0 * np.exp(-integral)

    # ODE route: RK4 on dA/dtau = -A * Gamma_linear(tau)
    ode = np.empty_like(rates)
    ode[0] = w0
    a = w0.astype(float).copy()
    for j in range(1, len(taus)):
        t0, t1 = taus[j - 1], taus[j]
        g0, g1 = rates[j - 1], rates[j]

        def gamma_at(t: float) -> np.ndarray:
            frac = (t - t0) / (t1 - t0)
            return (1.0 - frac) * g0 + frac * g1

        h = (t1 - t0) / ode_substeps
        t = t0
        for _ in range(ode_substeps):
            s1 = -a * gamma_at(t)
            s2 = -(a + 0.5 * h * s1) * gamma_at(t + 0.5 * h)
            s3 = -(a + 0.5 * h * s2) * gamma_at(t + 0.5 * h)
            s4 = -(a + h * s3) * gamma_at(t + h)
            a = a + h / 6.0 * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
            t += h
        ode[j] = a
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
