"""Tests for the collision operator, kinetic solver, and decay-rate machinery.

Oracles and frozen references used here:

* a three-loop brute-force collision sum (independent of the vectorized
  implementation, with the delta kernels written out inline);
* the direct double k-sum with any frequency kernel (``direct_sums``), the
  reference for the time-domain FFT engine on larger grids: weighted by the
  delta models (``_support.delta_weights``) for the collision sums, by
  the closed window ``_support.prelimit_window`` for the pre-limit kernel;
* the engine with nothing kept between calls
  (``_support.reference_time_domain_sums``), which the plan-based sums must
  match byte for byte, with the plan kept or over the budget;
* closed-form identities: flat spectra annihilate the bracket, the plain
  k-sum of the operator cancels pairwise, the gain C + 2 W Gamma is
  nonnegative and matches the direct gain sum, Gamma(cW) = c^2 Gamma(W),
  and prelimit_kernel / tau equals the collision operator with the
  matching finite-support window;
* scipy quadrature for the windowed time integral;
* the exact equilibrium family W = 1/(beta (omega - mu)), whose bracket
  is beta * Omega * W W1 W2 W3 and therefore dies on the resonant set;
* hand-written RK4 loops for the kinetic equation and the correlation
  decay ODE, which ``bp_solve`` and ``correlation_decay`` must match bit for
  bit through the shared ``errors.rk4`` marcher;
* measured-and-frozen deterministic values for the energy-error scaling
  ratios, the pre-limit gap monotonicity fractions, and the dispersive
  bound example (all pure arithmetic, no sampling noise).
"""

from __future__ import annotations

import functools
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from wickkit import kinetic
from wickkit.dnls import (
    Lattice,
    PropagatorDecayFit,
    fixed_modulus_fourth_norm,
    nearest_neighbor_dispersion,
    propagator_decay_fit,
    sample_initial,
    zero_dispersion,
)
from wickkit.errors import ConfigError, GuardError, rk4
from wickkit.kinetic import (
    BPTrajectory,
    CollisionConfig,
    EquilibriumParams,
    appendix_c_bound,
    bp_solve,
    collision_operator,
    correlation_decay,
    gamma_rate,
    kinetic_time,
    prelimit_kernel,
)

from _support import delta_weights, prelimit_window, reference_time_domain_sums


def brute_collision(w: np.ndarray, config: CollisionConfig) -> np.ndarray:
    """Direct triple loop over flat momentum indices with inline kernels."""
    lat = config.lattice
    om = config.omega().ravel()
    wf = w.ravel()
    side, dim = lat.side, lat.dimension
    coords = np.stack(np.meshgrid(*[np.arange(side)] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    place = side ** np.arange(dim - 1, -1, -1)

    if config.delta_model == "gaussian":
        eps = config.resolved_epsilon()

        def delta(x: float) -> float:
            return math.exp(-(x * x) / (2.0 * eps * eps)) / (eps * math.sqrt(2.0 * math.pi))

    else:
        support = config.window_tau / config.window_coupling**2

        def delta(x: float) -> float:
            if x == 0.0:
                return support / (2.0 * math.pi)
            return 2.0 * math.sin(0.5 * support * x) ** 2 / (math.pi * support * x * x)

    size = lat.size
    out = np.zeros(size)
    for k in range(size):
        for k1 in range(size):
            for k2 in range(size):
                k3 = int(((coords[k] + coords[k1] - coords[k2]) % side) @ place)
                gap = om[k] + om[k1] - om[k2] - om[k3]
                bracket = (
                    wf[k1] * wf[k2] * wf[k3]
                    + wf[k] * wf[k2] * wf[k3]
                    - wf[k] * wf[k1] * wf[k3]
                    - wf[k] * wf[k1] * wf[k2]
                )
                out[k] += delta(gap) * bracket
    return (4.0 * math.pi / size**2) * out.reshape(lat.shape)


def direct_sums(w: np.ndarray, lattice: Lattice, omega: np.ndarray, kernel) -> tuple[np.ndarray, np.ndarray]:
    """(gain, loss) double k-sums weighted by kernel(Omega), one k1 at a time.

    gain(k) = sum kernel(Omega) W1 W2 W3 and
    loss(k) = sum kernel(Omega) [W2 W3 - W1 W3 - W1 W2], both over all
    (k1, k2) grid pairs with k3 = k + k1 - k2.
    """
    side, dim, size = lattice.side, lattice.dimension, lattice.size
    coords = np.stack(np.meshgrid(*[np.arange(side)] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    place = side ** np.arange(dim - 1, -1, -1)
    add = ((coords[:, None, :] + coords[None, :, :]) % side) @ place
    sub = ((coords[:, None, :] - coords[None, :, :]) % side) @ place
    om, wf = omega.ravel(), w.ravel()
    gain = np.zeros(size)
    loss = np.zeros(size)
    for k1 in range(size):
        idx3 = sub[add[:, k1][:, None], np.arange(size)[None, :]]  # (k, k2)
        weights = kernel(om[:, None] + om[k1] - om[None, :] - om[idx3])
        w3 = wf[idx3]
        w2w3 = wf[None, :] * w3
        gain += wf[k1] * np.sum(weights * w2w3, axis=1)
        loss += np.sum(weights * (w2w3 - wf[k1] * w3 - wf[k1] * wf[None, :]), axis=1)
    return gain.reshape(lattice.shape), loss.reshape(lattice.shape)


def two_axis_spectrum(lattice: Lattice) -> np.ndarray:
    kk = lattice.k_grid()
    w = 1.0 + 0.5 * np.cos(2.0 * math.pi * kk[..., 0])
    if lattice.dimension > 1:
        w = w + 0.25 * np.cos(2.0 * math.pi * kk[..., 1])
    return w


class TestCollisionConfig:
    def test_default_epsilon_is_four_mean_gaps(self):
        # d=1, L=16 nearest-neighbor: omega takes the 9 distinct values
        # 2(1 - cos(pi j / 8)), so the mean gap is 4/8 and the default is 2
        cfg = CollisionConfig(lattice=Lattice(dimension=1, side=16), dispersion=nearest_neighbor_dispersion(1))
        assert cfg.resolved_epsilon() == pytest.approx(2.0, abs=1e-12)

    def test_explicit_epsilon_wins(self):
        cfg = CollisionConfig(
            lattice=Lattice(dimension=1, side=16),
            dispersion=nearest_neighbor_dispersion(1),
            epsilon=0.3,
        )
        assert cfg.resolved_epsilon() == 0.3

    def test_fejer_width_is_2pi_over_support(self):
        cfg = CollisionConfig(
            lattice=Lattice(dimension=1, side=8),
            dispersion=nearest_neighbor_dispersion(1),
            delta_model="fejer",
            window_tau=0.5,
            window_coupling=0.5,
        )
        assert cfg.window_support == pytest.approx(2.0, abs=1e-15)

    def test_rejects_unknown_model_and_method(self):
        lat, disp = Lattice(dimension=1, side=8), nearest_neighbor_dispersion(1)
        with pytest.raises(ConfigError):
            CollisionConfig(lattice=lat, dispersion=disp, delta_model="boxcar")

    def test_rejects_fejer_without_window_params(self):
        lat, disp = Lattice(dimension=1, side=8), nearest_neighbor_dispersion(1)
        with pytest.raises(ConfigError):
            CollisionConfig(lattice=lat, dispersion=disp, delta_model="fejer")
        with pytest.raises(ConfigError):
            CollisionConfig(lattice=lat, dispersion=disp, delta_model="fejer", window_tau=0.5, window_coupling=-1.0)

    def test_rejects_bad_epsilon_and_dim_mismatch(self):
        lat, disp = Lattice(dimension=1, side=8), nearest_neighbor_dispersion(1)
        with pytest.raises(ConfigError):
            CollisionConfig(lattice=lat, dispersion=disp, epsilon=0.0)
        with pytest.raises(ConfigError):
            CollisionConfig(lattice=Lattice(dimension=2, side=8), dispersion=disp)

    def test_flat_dispersion_needs_explicit_width(self):
        lat = Lattice(dimension=1, side=8)
        with pytest.raises(ConfigError):
            CollisionConfig(lattice=lat, dispersion=zero_dispersion(1))
        cfg = CollisionConfig(lattice=lat, dispersion=zero_dispersion(1), epsilon=1.0)
        assert cfg.resolved_epsilon() == 1.0

    @pytest.mark.parametrize("model", ["gaussian", "fejer"])
    def test_time_nodes_are_built_once_per_config(self, model, monkeypatch):
        lat, disp = Lattice(dimension=2, side=8), nearest_neighbor_dispersion(2)
        builder = f"_{model}_time_nodes"
        calls = []
        original = getattr(kinetic, builder)
        monkeypatch.setattr(kinetic, builder, lambda config: calls.append(1) or original(config))
        window = {"window_tau": 0.2, "window_coupling": 0.2} if model == "fejer" else {}
        plans = []
        original_blocks = kinetic._plan_blocks
        monkeypatch.setattr(kinetic, "_plan_blocks", lambda *grid: plans.append(1) or original_blocks(*grid))
        cfg = CollisionConfig(lattice=lat, dispersion=disp, delta_model=model, **window)
        w = two_axis_spectrum(lat)
        first = collision_operator(w, cfg)
        assert np.array_equal(gamma_rate(w, cfg), gamma_rate(w, cfg))
        assert np.array_equal(collision_operator(w, cfg), first)
        # the phases and their transforms too: one plan, built on the first call
        assert len(calls) == 1 and len(plans) == 1 and cfg.plan_kept


def plan_configs() -> list[CollisionConfig]:
    """Engine configs of one and several node blocks, both delta models, d = 1-3."""
    nn2 = nearest_neighbor_dispersion(2)
    fejer = {"delta_model": "fejer", "window_tau": 0.2, "window_coupling": 0.2}
    return [
        CollisionConfig(lattice=Lattice(dimension=1, side=8), dispersion=nearest_neighbor_dispersion(1)),
        CollisionConfig(lattice=Lattice(dimension=2, side=16), dispersion=nn2, epsilon=0.35),
        CollisionConfig(lattice=Lattice(dimension=2, side=8), dispersion=nn2, **fejer),
        CollisionConfig(lattice=Lattice(dimension=3, side=4), dispersion=nearest_neighbor_dispersion(3), **fejer),
    ]


def engine_bytes(w: np.ndarray, config: CollisionConfig) -> bytes:
    return b"".join(f(w, config).tobytes() for f in (collision_operator, gamma_rate))


class TestEnginePlan:
    """The W-independent phases and transforms are built once per config, with the same bytes."""

    @pytest.mark.parametrize("index", range(4))
    @pytest.mark.parametrize("budget", ["kept", "over"])
    def test_sums_have_the_bytes_of_the_per_call_engine(self, index, budget, monkeypatch):
        if budget == "over":
            monkeypatch.setattr(kinetic, "_PLAN_BYTES", 0)
        cfg = plan_configs()[index]
        w = two_axis_spectrum(cfg.lattice) * (1.0 + 0.1 * np.sin(np.arange(cfg.lattice.size))).reshape(cfg.lattice.shape)
        for _ in range(2):  # the call that builds the plan and one that reuses it
            _, gain, loss = kinetic._collision_sums(w, cfg)
            reference = reference_time_domain_sums(w, *cfg._time_grid, kinetic._BLOCK_ELEMENTS)
            assert (gain.tobytes(), loss.tobytes()) == tuple(a.tobytes() for a in reference)
        assert cfg.plan_kept == (budget == "kept")

    def test_config_over_the_budget_keeps_no_plan_and_gives_the_same_bytes(self, monkeypatch):
        cfg = plan_configs()[1]
        w = two_axis_spectrum(cfg.lattice)
        kept = engine_bytes(w, cfg)
        assert cfg.plan_kept and len(cfg._plan) == 2  # 83 nodes of 256 sites: two blocks
        monkeypatch.setattr(kinetic, "_PLAN_BYTES", 0)
        builds = []
        original_blocks = kinetic._plan_blocks
        monkeypatch.setattr(kinetic, "_plan_blocks", lambda *grid: builds.append(1) or original_blocks(*grid))
        over = replace(cfg)
        assert engine_bytes(w, over) == kept
        assert not over.plan_kept and over._plan is None
        assert len(builds) == 2  # rebuilt block by block on each of engine_bytes' two calls

    def test_plan_fits_the_budget_at_three_complex_arrays_per_node_and_site(self, monkeypatch):
        cfg = plan_configs()[1]
        need = 3 * cfg.time_nodes * cfg.lattice.size * 16
        assert need == 1_019_904
        monkeypatch.setattr(kinetic, "_PLAN_BYTES", need - 1)
        assert not replace(cfg).plan_kept
        monkeypatch.setattr(kinetic, "_PLAN_BYTES", need)
        assert replace(cfg).plan_kept

    def test_plan_arrays_are_not_writeable(self):
        cfg = plan_configs()[2]
        plan = cfg._plan
        assert plan and all(len(block) == 4 for block in plan)
        for block in plan:
            for array in block:
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array.flat[0] = 0.0

    @pytest.mark.parametrize("index", [1, 2])
    def test_threads_sharing_a_fresh_config_get_the_single_threaded_bytes(self, index):
        expected = engine_bytes(two_axis_spectrum(plan_configs()[index].lattice), plan_configs()[index])
        shared = plan_configs()[index]
        w = two_axis_spectrum(shared.lattice)
        start = threading.Barrier(3)

        def call(_):
            start.wait(timeout=30)
            return engine_bytes(w, shared)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=3) as pool:
                futures = [pool.submit(call, i) for i in range(3)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected] * 3
        assert shared.plan_kept


class TestEquilibrium:
    def test_spectrum_formula(self):
        lat, disp = Lattice(dimension=2, side=8), nearest_neighbor_dispersion(2)
        params = EquilibriumParams(beta=2.0, mu=-1.5)
        w = params.spectrum(lat, disp)
        omega = disp.omega(lat)
        np.testing.assert_allclose(w, 1.0 / (2.0 * (omega + 1.5)), rtol=1e-15)
        assert w.min() > 0.0

    def test_rejects_bad_parameters(self):
        lat, disp = Lattice(dimension=2, side=8), nearest_neighbor_dispersion(2)
        with pytest.raises(ConfigError):
            EquilibriumParams(beta=0.0, mu=-1.0)
        with pytest.raises(ConfigError):
            # nearest-neighbor omega has minimum 0 at k = 0
            EquilibriumParams(beta=1.0, mu=0.0).spectrum(lat, disp)


class TestCollisionBruteForce:
    def test_matches_brute_force_1d_gaussian(self):
        lat, disp = Lattice(dimension=1, side=8), nearest_neighbor_dispersion(1)
        cfg = CollisionConfig(lattice=lat, dispersion=disp, epsilon=0.7)
        w = 0.2 + np.random.default_rng(7).random(lat.shape)
        np.testing.assert_allclose(collision_operator(w, cfg), brute_collision(w, cfg), atol=1e-12)

    def test_matches_brute_force_3d_gaussian(self):
        lat, disp = Lattice(dimension=3, side=4), nearest_neighbor_dispersion(3)
        cfg = CollisionConfig(lattice=lat, dispersion=disp, epsilon=1.1)
        w = 0.2 + np.random.default_rng(8).random(lat.shape)
        np.testing.assert_allclose(collision_operator(w, cfg), brute_collision(w, cfg), atol=1e-12)

    def test_matches_brute_force_3d_fejer(self):
        lat, disp = Lattice(dimension=3, side=4), nearest_neighbor_dispersion(3)
        cfg = CollisionConfig(
            lattice=lat, dispersion=disp, delta_model="fejer", window_tau=0.5, window_coupling=0.6
        )
        w = 0.2 + np.random.default_rng(9).random(lat.shape)
        np.testing.assert_allclose(collision_operator(w, cfg), brute_collision(w, cfg), atol=1e-12)


def _configs_for_identities() -> list[CollisionConfig]:
    lat, disp = Lattice(dimension=3, side=8), nearest_neighbor_dispersion(3)
    return [
        CollisionConfig(lattice=lat, dispersion=disp),
        CollisionConfig(lattice=lat, dispersion=disp),
        CollisionConfig(lattice=lat, dispersion=disp, delta_model="fejer", window_tau=0.4, window_coupling=0.5),
    ]


class TestCollisionIdentities:
    @pytest.mark.parametrize("cfg", _configs_for_identities(), ids=["gauss-fft", "gauss-direct", "fejer"])
    def test_constant_spectrum_is_annihilated(self, cfg):
        c = collision_operator(np.full(cfg.lattice.shape, 0.7), cfg)
        assert np.max(np.abs(c)) < 1e-12

    @pytest.mark.parametrize("cfg", _configs_for_identities(), ids=["gauss-fft", "gauss-direct", "fejer"])
    def test_number_conservation(self, cfg):
        w = 0.2 + np.random.default_rng(11).random(cfg.lattice.shape)
        c = collision_operator(w, cfg)
        assert abs(c.mean()) < 1e-12 * np.abs(c).mean()

    @pytest.mark.parametrize("cfg", _configs_for_identities(), ids=["gauss-fft", "gauss-direct", "fejer"])
    def test_gain_is_nonnegative(self, cfg):
        # C = gain - 2 W Gamma by regrouping, and the gain sums products of positive spectra
        w = 0.2 + np.random.default_rng(12).random(cfg.lattice.shape)
        gain = collision_operator(w, cfg) + 2.0 * w * gamma_rate(w, cfg)
        assert gain.min() >= 0.0

    @pytest.mark.parametrize("cfg", _configs_for_identities(), ids=["gauss-fft", "gauss-direct", "fejer"])
    def test_gamma_quadratic_scaling(self, cfg):
        w = 0.2 + np.random.default_rng(13).random(cfg.lattice.shape)
        gamma = gamma_rate(w, cfg)
        scaled = gamma_rate(3.0 * w, cfg)
        assert np.max(np.abs(scaled - 9.0 * gamma)) < 1e-12 * np.max(np.abs(scaled))

    def test_zero_spectrum_maps_to_zero(self):
        cfg = _configs_for_identities()[0]
        zero = np.zeros(cfg.lattice.shape)
        assert np.max(np.abs(collision_operator(zero, cfg))) == 0.0
        assert np.max(np.abs(gamma_rate(zero, cfg))) == 0.0

    def test_rejects_negative_spectrum_and_bad_shape(self):
        cfg = _configs_for_identities()[0]
        bad = np.full(cfg.lattice.shape, 0.5)
        bad[0, 0, 0] = -0.1
        with pytest.raises(ConfigError):
            collision_operator(bad, cfg)
        with pytest.raises(ConfigError):
            collision_operator(np.ones((4, 4)), cfg)

    @pytest.mark.parametrize("dtype", [complex, "<U1", bool, object], ids=["complex", "text", "bool", "object"])
    def test_rejects_a_spectrum_that_is_not_real(self, dtype):
        cfg = _configs_for_identities()[0]
        w = np.ones(cfg.lattice.shape) * (1 + 5j) if dtype is complex else np.ones(cfg.lattice.shape, dtype=dtype)
        with pytest.raises(ConfigError, match="spectrum must be a real array"):
            collision_operator(w, cfg)


class TestFFTPath:
    @pytest.mark.parametrize("dim,side", [(1, 16), (2, 8), (3, 8)])
    def test_fft_matches_direct(self, dim, side):
        lat, disp = Lattice(dimension=dim, side=side), nearest_neighbor_dispersion(dim)
        w = 0.2 + np.random.default_rng(15).random(lat.shape)
        for cfg in (
            CollisionConfig(lattice=lat, dispersion=disp),
            CollisionConfig(lattice=lat, dispersion=disp, delta_model="fejer", window_tau=0.25, window_coupling=0.35),
        ):
            gain, loss = direct_sums(w, lat, cfg.omega(), functools.partial(delta_weights, cfg))
            cd = 4.0 * math.pi / lat.size**2 * (gain + w * loss)
            cf = collision_operator(w, cfg)
            assert np.max(np.abs(cd - cf)) < 1e-12 * np.max(np.abs(cd))
            gd = -2.0 * math.pi / lat.size**2 * loss
            gf = gamma_rate(w, cfg)
            assert np.max(np.abs(gd - gf)) < 1e-12 * np.max(np.abs(gd))

    @pytest.mark.parametrize(
        "side,model", [(16, "gaussian"), (8, "fejer")], ids=["2d16-gaussian", "2d8-fejer"]
    )
    def test_has_the_bytes_of_the_numpy_fft_engine(self, side, model):
        # the engine on np.fft.ifftn (``reference_time_domain_sums``) gives the
        # same bytes as the one n-D pocketfft call per lattice transform
        lat, disp = Lattice(dimension=2, side=side), nearest_neighbor_dispersion(2)
        delta = {"epsilon": 0.35} if model == "gaussian" else {"delta_model": "fejer", "window_tau": 0.2, "window_coupling": 0.2}
        cfg = CollisionConfig(lattice=lat, dispersion=disp, **delta)
        w = 0.2 + np.random.default_rng(17).random(lat.shape)
        gain, loss = reference_time_domain_sums(w, *cfg._time_grid, kinetic._BLOCK_ELEMENTS)
        want = 4.0 * math.pi / lat.size**2 * (gain + w * loss)
        assert collision_operator(w, cfg).tobytes() == want.tobytes()
        coupling, tau = 0.5, 0.1
        window = CollisionConfig(lattice=lat, dispersion=disp, delta_model="fejer", window_tau=tau, window_coupling=coupling)
        gain, loss = reference_time_domain_sums(w, *window._time_grid, kinetic._BLOCK_ELEMENTS)
        want = 4.0 * math.pi * tau / lat.size**2 * (gain + w * loss)
        assert prelimit_kernel(w, coupling, tau, cfg).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "dim,side,support",
        [(1, 64, 25.0), (2, 16, 6.4), (2, 8, 12.0), (1, 16, 100.0)],
        ids=["1d64-T25", "2d16-T6.4", "2d8-T12", "1d16-T100-panels"],
    )
    def test_fejer_nodes_match_direct_sums(self, dim, side, support):
        # Gauss-Legendre on [0, T] is accurate to rounding out to large
        # T max|Omega| / 2 (100, 51, 96 and 400 here; the last needs two panels)
        lat, disp = Lattice(dimension=dim, side=side), nearest_neighbor_dispersion(dim)
        cfg = CollisionConfig(
            lattice=lat, dispersion=disp, delta_model="fejer", window_tau=support, window_coupling=1.0
        )
        w = 0.2 + np.random.default_rng(16).random(lat.shape)
        gain, loss = direct_sums(w, lat, cfg.omega(), functools.partial(delta_weights, cfg))
        cg = (collision_operator(w, cfg) + 2.0 * w * gamma_rate(w, cfg)) / (4.0 * math.pi / lat.size**2)
        cl = gamma_rate(w, cfg) / (-2.0 * math.pi / lat.size**2)
        assert np.max(np.abs(cg - gain)) <= 1e-12 * np.max(np.abs(gain))
        assert np.max(np.abs(cl - loss)) <= 1e-12 * np.max(np.abs(loss))

    def test_rejects_unresolvable_node_count(self):
        lat, disp = Lattice(dimension=1, side=8), nearest_neighbor_dispersion(1)
        w = np.ones(lat.shape)
        narrow = CollisionConfig(lattice=lat, dispersion=disp, epsilon=1e-9)
        long_window = CollisionConfig(
            lattice=lat, dispersion=disp, delta_model="fejer", window_tau=1.0, window_coupling=1e-5
        )
        for cfg in (narrow, long_window):
            with pytest.raises(ConfigError):
                collision_operator(w, cfg)

    def test_rejects_non_finite_spectrum_and_window(self):
        lat, disp = Lattice(dimension=1, side=8), nearest_neighbor_dispersion(1)
        cfg = CollisionConfig(lattice=lat, dispersion=disp)
        for bad in (math.nan, math.inf):
            w = np.ones(lat.shape)
            w[3] = bad
            with pytest.raises(ConfigError):
                collision_operator(w, cfg)
            with pytest.raises(ConfigError):
                prelimit_kernel(w, 0.5, 0.25, cfg)
        with pytest.raises(ConfigError):
            CollisionConfig(lattice=lat, dispersion=disp, epsilon=math.inf)
        with pytest.raises(ConfigError):
            CollisionConfig(lattice=lat, dispersion=disp, delta_model="fejer", window_tau=math.inf, window_coupling=0.5)


class TestEquilibriumStationarity:
    def test_sharp_kernel_resolves_stationarity(self):
        # with the kernel much narrower than the smallest nonzero resonance
        # gap, the equilibrium bracket beta * Omega * W W1 W2 W3 dies on
        # every surviving term (measured defect ratio ~2e7)
        lat, disp = Lattice(dimension=3, side=8), nearest_neighbor_dispersion(3)
        cfg = CollisionConfig(lattice=lat, dispersion=disp, epsilon=0.0625)
        eql = EquilibriumParams(beta=1.0, mu=-2.0).spectrum(lat, disp)
        pert = eql * (1.0 + 0.3 * np.cos(2.0 * math.pi * lat.k_grid()[..., 0]))
        c_eql = np.max(np.abs(collision_operator(eql, cfg)))
        c_pert = np.max(np.abs(collision_operator(pert, cfg)))
        assert c_pert > 1e4 * c_eql

    def test_detailed_balance_at_equilibrium(self):
        # gain = 2 W Gamma holds at a stationary spectrum up to the kernel
        # width; measured relative deviation 1.4e-8 at eps = 0.0625
        lat, disp = Lattice(dimension=3, side=8), nearest_neighbor_dispersion(3)
        cfg = CollisionConfig(lattice=lat, dispersion=disp, epsilon=0.0625)
        eql = EquilibriumParams(beta=1.0, mu=-2.0).spectrum(lat, disp)
        gamma = gamma_rate(eql, cfg)
        gain = collision_operator(eql, cfg) + 2.0 * eql * gamma
        assert np.max(np.abs(gain - 2.0 * eql * gamma)) < 1e-6 * np.max(np.abs(gain))


class TestEnergyErrorScaling:
    def test_fejer_energy_error_is_linear_in_width(self):
        # the fejer kernel has no finite second moment, so the odd-moment
        # energy defect scales with the first power of the width; measured
        # ratios 2.173 and 2.108 on this grid
        lat, disp = Lattice(dimension=1, side=256), nearest_neighbor_dispersion(1)
        k = lat.k_grid()[..., 0]
        w = 0.5 + 0.3 * np.cos(2.0 * math.pi * k) + 0.1 * np.sin(4.0 * math.pi * k)
        omega = disp.omega(lat)
        errs = []
        for width in (1.0, 0.5, 0.25):
            support = 2.0 * math.pi / width
            cfg = CollisionConfig(
                lattice=lat,
                dispersion=disp,
                delta_model="fejer",
                window_tau=0.5,
                window_coupling=math.sqrt(0.5 / support),
            )
            c = collision_operator(w, cfg)
            errs.append(abs((omega * c).mean()) / np.abs(c).mean())
        assert 1.4 < errs[0] / errs[1] < 2.6
        assert 1.4 < errs[1] / errs[2] < 2.6

    def test_gaussian_energy_error_decays_faster_than_linear(self):
        # the gaussian kernel has a finite second moment, so its defect is
        # superlinear in the width; measured ratios 3.12 and 3.07
        lat, disp = Lattice(dimension=1, side=256), nearest_neighbor_dispersion(1)
        k = lat.k_grid()[..., 0]
        w = 0.5 + 0.3 * np.cos(2.0 * math.pi * k) + 0.1 * np.sin(4.0 * math.pi * k)
        omega = disp.omega(lat)
        errs = []
        for eps in (1.0, 0.5, 0.25):
            cfg = CollisionConfig(lattice=lat, dispersion=disp, epsilon=eps)
            c = collision_operator(w, cfg)
            errs.append(abs((omega * c).mean()) / np.abs(c).mean())
        assert errs[0] / errs[1] > 2.6
        assert errs[1] / errs[2] > 2.6


class TestPrelimitKernel:
    def test_window_matches_quadrature(self):
        coupling, tau = 0.45, 0.35
        support = tau / coupling**2
        for gap in (0.0, 0.17, 1.3, -2.6, 7.9):
            numeric, _ = quad(
                lambda r: (tau - coupling**2 * abs(r)) * math.cos(r * gap), -support, support, limit=400
            )
            closed = float(prelimit_window(np.array(gap), coupling, tau))
            assert abs(numeric - closed) < 1e-12

    def test_window_at_zero_gap(self):
        assert float(prelimit_window(np.array(0.0), 0.5, 0.3)) == pytest.approx(0.3**2 / 0.5**2, rel=1e-15)

    def test_a_coupling_whose_square_leaves_the_floats_has_no_window(self):
        assert kinetic_time(0.35, 0.45) == 0.35 / 0.45**2
        lat, disp = Lattice(dimension=1, side=8), nearest_neighbor_dispersion(1)
        # the square underflows to 0, overflows, or the coupling is not positive
        for coupling in (1e-170, 1e200, 0.0, -0.5):
            with pytest.raises(ConfigError, match="positive, finite kinetic time"):
                kinetic_time(0.1, coupling)
            with pytest.raises(ConfigError, match="positive, finite kinetic time"):
                CollisionConfig(lattice=lat, dispersion=disp, delta_model="fejer", window_tau=0.1, window_coupling=coupling)

    def test_kernel_over_tau_equals_fejer_collision_operator(self):
        # integrating the squared oscillatory phase over the time window
        # produces exactly 2 pi tau times the unit-mass fejer kernel, so the
        # kernel is 2 L^-2d times the direct sums weighted by the window
        for side in (8, 16):
            lat, disp = Lattice(dimension=2, side=side), nearest_neighbor_dispersion(2)
            w = two_axis_spectrum(lat)
            any_cfg = CollisionConfig(lattice=lat, dispersion=disp)
            tau = 0.1
            for coupling in (0.5, 0.25, 0.125):
                gain, loss = direct_sums(
                    w, lat, disp.omega(lat), lambda gap: prelimit_window(gap, coupling, tau)
                )
                direct = 2.0 / lat.size**2 * (gain + w * loss)
                pl = prelimit_kernel(w, coupling, tau, any_cfg)
                assert np.max(np.abs(pl - direct)) < 1e-12 * np.max(np.abs(direct))
                fejer_cfg = CollisionConfig(
                    lattice=lat, dispersion=disp, delta_model="fejer", window_tau=tau, window_coupling=coupling
                )
                cf = collision_operator(w, fejer_cfg)
                assert np.max(np.abs(pl / tau - cf)) < 1e-12 * np.max(np.abs(cf))

    def test_large_coupling_suppression(self):
        # window <= tau^2 / coupling^2 pointwise, so the kernel dies as the
        # coupling grows at fixed tau (measured 1.0e-1 vs 5.7e-5)
        lat, disp = Lattice(dimension=2, side=8), nearest_neighbor_dispersion(2)
        w = 1.0 + 0.5 * np.cos(2.0 * math.pi * lat.k_grid()[..., 0])
        cfg = CollisionConfig(lattice=lat, dispersion=disp)
        small = np.max(np.abs(prelimit_kernel(w, 0.5, 0.25, cfg)))
        big = np.max(np.abs(prelimit_kernel(w, 32.0, 0.25, cfg)))
        assert small > 0.05
        assert big < 1e-4

    def test_gap_shrinks_as_coupling_drops(self):
        # deterministic monotonicity fractions, frozen from a parameter scan:
        # generic two-axis spectrum gives 0.9219, the equilibrium-shaped
        # spectrum gives 1.0000
        lat, disp = Lattice(dimension=2, side=16), nearest_neighbor_dispersion(2)
        cfg = CollisionConfig(lattice=lat, dispersion=disp, epsilon=0.35)
        tau = 0.1
        for w, floor in ((two_axis_spectrum(lat), 0.9), (1.0 / (1.0 + 0.5 * disp.omega(lat)), 0.99)):
            cref = collision_operator(w, cfg)
            gaps = [np.abs(prelimit_kernel(w, lam, tau, cfg) / tau - cref) for lam in (0.5, 0.25, 0.125)]
            monotone = (gaps[1] < gaps[0]) & (gaps[2] < gaps[1])
            assert monotone.mean() >= floor

    def test_the_window_is_streamed_with_the_bytes_of_a_kept_plan(self, monkeypatch):
        lat, disp = Lattice(dimension=2, side=16), nearest_neighbor_dispersion(2)
        cfg = CollisionConfig(lattice=lat, dispersion=disp)
        w = two_axis_spectrum(lat)
        tau = 0.2
        want = []
        for coupling in (0.5, 0.25, 0.125):
            fejer = CollisionConfig(lattice=lat, dispersion=disp, delta_model="fejer", window_tau=tau, window_coupling=coupling)
            values, gain, loss = kinetic._collision_sums(w, fejer)
            assert fejer.plan_kept
            want.append((4.0 * math.pi * tau / lat.size**2 * (gain + values * loss)).tobytes())
        built = []
        plan = kinetic.CollisionConfig.__dict__["_plan"].func
        monkeypatch.setattr(kinetic.CollisionConfig, "_plan", property(lambda config: built.append(config) or plan(config)))
        got = [prelimit_kernel(w, coupling, tau, cfg).tobytes() for coupling in (0.5, 0.25, 0.125)]
        assert got == want
        assert built == []

    def test_rejects_bad_inputs(self):
        lat, disp = Lattice(dimension=1, side=8), nearest_neighbor_dispersion(1)
        cfg = CollisionConfig(lattice=lat, dispersion=disp)
        w = np.ones(lat.shape)
        with pytest.raises(ConfigError):
            prelimit_kernel(w, -0.5, 0.25, cfg)
        with pytest.raises(ConfigError):
            prelimit_kernel(w, 0.5, 0.0, cfg)
        with pytest.raises(ConfigError):
            prelimit_kernel(-w, 0.5, 0.25, cfg)


@pytest.fixture(scope="module")
def trajectory():
    lat, disp = Lattice(dimension=2, side=8), nearest_neighbor_dispersion(2)
    cfg = CollisionConfig(lattice=lat, dispersion=disp)
    w0 = two_axis_spectrum(lat)
    return bp_solve(w0, cfg, tau_end=1.0, dtau=0.05), cfg, w0


@pytest.fixture(scope="module")
def nn3_fit():
    return propagator_decay_fit(Lattice(dimension=3, side=32), nearest_neighbor_dispersion(3))


def loop_bp_spectra(w0: np.ndarray, config: CollisionConfig, n_steps: int, dtau: float) -> np.ndarray:
    """RK4 on dW/dtau = C(W), every stage input and every new state clamped, written out."""

    def rhs(w):
        return collision_operator(kinetic._clamp_spectrum(w), config)

    w = w0.copy()
    spectra = [w.copy()]
    for _ in range(n_steps):
        k1 = rhs(w)
        k2 = rhs(w + 0.5 * dtau * k1)
        k3 = rhs(w + 0.5 * dtau * k2)
        k4 = rhs(w + dtau * k3)
        w = kinetic._clamp_spectrum(w + dtau / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        spectra.append(w.copy())
    return np.stack(spectra)


def loop_decay_ode(taus: np.ndarray, rates: np.ndarray, w0: np.ndarray, substeps: int) -> np.ndarray:
    """RK4 on dA/dtau = -A Gamma(tau), Gamma linear between the samples, written out."""
    ode = np.empty_like(rates)
    ode[0] = w0
    a = w0.astype(float).copy()
    for j in range(1, len(taus)):
        t0, t1 = taus[j - 1], taus[j]
        g0, g1 = rates[j - 1], rates[j]

        def gamma_at(t):
            frac = (t - t0) / (t1 - t0)
            return (1.0 - frac) * g0 + frac * g1

        h = (t1 - t0) / substeps
        t = t0
        for _ in range(substeps):
            s1 = -a * gamma_at(t)
            s2 = -(a + 0.5 * h * s1) * gamma_at(t + 0.5 * h)
            s3 = -(a + 0.5 * h * s2) * gamma_at(t + 0.5 * h)
            s4 = -(a + h * s3) * gamma_at(t + h)
            a = a + h / 6.0 * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
            t += h
        ode[j] = a
    return ode


class TestRK4:
    def test_project_maps_every_stored_state_and_is_stepped_on(self):
        # dy/dt = 1 with project y -> y / 2: from 4, the steps store
        # (4 + 1) / 2, (2.5 + 1) / 2, (1.75 + 1) / 2; the start is stored as given
        inputs = []

        def rhs(t, y):
            inputs.append(y)
            return np.ones_like(y)

        times, states = rk4(rhs, np.array([4.0]), 0.0, 1.0, 3, project=lambda y: y / 2)
        assert times == [0.0, 1.0, 2.0, 3.0]
        assert [float(y[0]) for y in states] == [4.0, 2.5, 1.75, 1.375]
        assert all(inputs[4 * i] is states[i] for i in range(3))

    def test_stages_sit_at_the_rk4_times(self):
        # with a right-hand side of t alone, each step is Simpson's rule, exact for 4 t^3
        times, states = rk4(lambda t, y: 4.0 * t**3, 0.0, 1.0, 0.25, 8)
        assert times[-1] == 3.0
        assert states == pytest.approx([t**4 - 1.0 for t in times], rel=1e-14)

    @pytest.mark.parametrize(
        "delta", [{"delta_model": "gaussian"}, {"delta_model": "fejer", "window_tau": 0.2, "window_coupling": 0.2}]
    )
    def test_bp_solve_matches_the_written_out_loop_bit_for_bit(self, delta):
        lat, disp = Lattice(dimension=2, side=8), nearest_neighbor_dispersion(2)
        cfg = CollisionConfig(lattice=lat, dispersion=disp, **delta)
        w0 = two_axis_spectrum(lat)
        traj = bp_solve(w0, cfg, tau_end=0.5, dtau=0.05)
        np.testing.assert_array_equal(traj.spectra, loop_bp_spectra(w0, cfg, 10, 0.05))

    @pytest.mark.parametrize("substeps", [1, 7])
    def test_decay_ode_matches_the_written_out_loop_bit_for_bit(self, trajectory, substeps):
        traj, cfg, w0 = trajectory
        decay = correlation_decay(traj, cfg, ode_substeps=substeps)
        rates = np.stack([gamma_rate(w, cfg) for w in traj.spectra])
        np.testing.assert_array_equal(decay.ode, loop_decay_ode(traj.taus, rates, w0, substeps))


class TestBPSolve:
    def test_records_and_initial_state(self, trajectory):
        traj, _, w0 = trajectory
        assert traj.n_steps == 20
        assert traj.taus[0] == 0.0 and traj.taus[-1] == pytest.approx(1.0)
        np.testing.assert_array_equal(traj.spectra[0], w0)
        assert traj.spectra.shape == (21, 8, 8)

    def test_number_conserved_along_flow(self, trajectory):
        traj, _, _ = trajectory
        assert np.max(np.abs(traj.number - traj.number[0])) < 1e-13 * traj.number[0]

    def test_entropy_nondecreasing(self, trajectory):
        traj, _, _ = trajectory
        assert np.diff(traj.entropy).min() > -1e-10

    def test_spectra_stay_nonnegative(self, trajectory):
        traj, _, _ = trajectory
        assert traj.spectra.min() >= 0.0

    def test_rk4_self_convergence(self):
        lat, disp = Lattice(dimension=2, side=8), nearest_neighbor_dispersion(2)
        cfg = CollisionConfig(lattice=lat, dispersion=disp)
        w0 = two_axis_spectrum(lat)
        final = [bp_solve(w0, cfg, tau_end=1.0, dtau=dt).spectra[-1] for dt in (0.05, 0.025, 0.0125)]
        coarse = np.max(np.abs(final[0] - final[1]))
        fine = np.max(np.abs(final[1] - final[2]))
        assert 10.0 < coarse / fine < 25.0  # measured 16.4

    def test_equilibrium_is_fixed_point_with_sharp_kernel(self):
        # measured relative drift 3.8e-10 over tau = 0.2
        lat, disp = Lattice(dimension=3, side=8), nearest_neighbor_dispersion(3)
        cfg = CollisionConfig(lattice=lat, dispersion=disp, epsilon=0.0625)
        eql = EquilibriumParams(beta=1.0, mu=-2.0).spectrum(lat, disp)
        traj = bp_solve(eql, cfg, tau_end=0.2, dtau=0.05)
        assert np.max(np.abs(traj.spectra[-1] - eql) / eql) < 1e-8

    def test_step_rejection_on_negativity(self):
        lat, disp = Lattice(dimension=2, side=8), nearest_neighbor_dispersion(2)
        cfg = CollisionConfig(lattice=lat, dispersion=disp)
        spike = np.full(lat.shape, 0.01)
        spike[0, 0] = 50.0
        with pytest.raises(GuardError):
            bp_solve(spike, cfg, tau_end=10.0, dtau=10.0)

    def test_non_finite_stage_trips_the_guard(self):
        # W ~ 1e110 makes the cubic collision sums overflow in the first stage
        lat, disp = Lattice(dimension=2, side=8), nearest_neighbor_dispersion(2)
        cfg = CollisionConfig(lattice=lat, dispersion=disp)
        spike = np.full(lat.shape, 0.01)
        spike[0, 0] = 1e110
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(GuardError, match="non-finite"):
            bp_solve(spike, cfg, tau_end=0.05, dtau=0.05)

    def test_clamp_counts_an_input_holding_a_rounding_negative(self):
        record = kinetic._ClampRecord()
        clamped = kinetic._clamp_spectrum(np.array([[0.5, -1e-12], [2.0, 0.0]]), record)
        assert clamped.tolist() == [[0.5, 0.0], [2.0, 0.0]]
        assert (record.events, record.lowest) == (1, -1e-12)
        kinetic._clamp_spectrum(clamped, record)
        assert (record.events, record.lowest) == (1, -1e-12)
        with pytest.raises(GuardError):
            kinetic._clamp_spectrum(np.array([1.0, -2e-9]), record)
        assert (record.events, record.lowest) == (1, -2e-9)

    def test_counts_the_clamped_stages_and_states(self, monkeypatch):
        # dW/dtau = -2e-11 everywhere: from W = 1e-13 at one site, stages 2-4 of
        # the one step and the stored state dip below zero and are clamped
        lat, disp = Lattice(dimension=2, side=8), nearest_neighbor_dispersion(2)
        cfg = CollisionConfig(lattice=lat, dispersion=disp)
        monkeypatch.setattr(kinetic, "collision_operator", lambda w, config: np.full(w.shape, -2e-11))
        w0 = np.ones(lat.shape)
        w0[0, 0] = 1e-13
        traj = bp_solve(w0, cfg, tau_end=0.05, dtau=0.05)
        assert traj.clamp_events == 4
        assert traj.min_w_before_clamp == pytest.approx(1e-13 - 0.05 * 2e-11, rel=1e-6)
        assert traj.spectra[1, 0, 0] == 0.0
        assert (traj.rk4_stages, traj.time_nodes) == (4, cfg.time_nodes)

    def test_work_counters_of_a_solve(self, trajectory):
        traj, cfg, w0 = trajectory
        assert (traj.time_nodes, traj.plan_kept, traj.rk4_stages) == (cfg.time_nodes, True, 80)
        assert traj.clamp_events == 0
        assert traj.min_w_before_clamp == float(w0.min())

    def test_rejects_bad_arguments(self):
        lat, disp = Lattice(dimension=2, side=8), nearest_neighbor_dispersion(2)
        cfg = CollisionConfig(lattice=lat, dispersion=disp)
        w0 = two_axis_spectrum(lat)
        with pytest.raises(ConfigError):
            bp_solve(-w0, cfg, tau_end=0.1, dtau=0.05)
        with pytest.raises(ConfigError):
            bp_solve(np.full(lat.shape, math.nan), cfg, tau_end=0.1, dtau=0.05)
        with pytest.raises(ConfigError):
            bp_solve(w0, cfg, tau_end=0.1, dtau=-0.05)
        with pytest.raises(ConfigError):
            bp_solve(w0, cfg, tau_end=0.12, dtau=0.05)
        for tau_end, dtau in [(math.inf, 0.05), (math.nan, 0.05), (0.1, math.nan), (0.1, math.inf)]:
            with pytest.raises(ConfigError, match="bp_solve"):
                bp_solve(w0, cfg, tau_end=tau_end, dtau=dtau)


class TestCorrelationDecay:
    def test_two_routes_agree(self):
        # measured max relative gap 2.5e-11 on this trajectory
        lat, disp = Lattice(dimension=2, side=8), nearest_neighbor_dispersion(2)
        cfg = CollisionConfig(lattice=lat, dispersion=disp)
        traj = bp_solve(two_axis_spectrum(lat), cfg, tau_end=1.0, dtau=0.05)
        decay = correlation_decay(traj, cfg)
        assert np.max(np.abs(decay.closed - decay.ode) / np.abs(decay.closed)) < 1e-8
        np.testing.assert_array_equal(decay.closed[0], traj.spectra[0])

    def test_constant_equilibrium_gives_pure_exponential(self):
        lat, disp = Lattice(dimension=2, side=8), nearest_neighbor_dispersion(2)
        cfg = CollisionConfig(lattice=lat, dispersion=disp)
        eql = EquilibriumParams(beta=1.0, mu=-1.0).spectrum(lat, disp)
        n = 11
        taus = np.arange(n) * 0.05
        traj = BPTrajectory(
            taus=taus,
            spectra=np.repeat(eql[None], n, axis=0),
            number=np.full(n, eql.mean()),
            energy=np.full(n, (disp.omega(lat) * eql).mean()),
            entropy=np.full(n, float(np.sum(np.log(eql)))),
        )
        decay = correlation_decay(traj, cfg)
        gamma = gamma_rate(eql, cfg)
        exact = eql[None] * np.exp(-taus[:, None, None] * gamma[None])
        assert np.max(np.abs(decay.closed - exact) / exact) < 1e-12
        assert np.max(np.abs(decay.ode - exact) / exact) < 1e-12

    def test_rejects_mismatched_grid_and_bad_substeps(self):
        lat, disp = Lattice(dimension=2, side=8), nearest_neighbor_dispersion(2)
        cfg = CollisionConfig(lattice=lat, dispersion=disp)
        traj = bp_solve(two_axis_spectrum(lat), cfg, tau_end=0.1, dtau=0.05)
        other = CollisionConfig(lattice=Lattice(dimension=2, side=16), dispersion=disp, epsilon=1.0)
        with pytest.raises(ConfigError):
            correlation_decay(traj, other)
        with pytest.raises(ConfigError):
            correlation_decay(traj, cfg, ode_substeps=0)


class TestAppendixCBound:
    def test_zero_time_and_monotonicity(self, nn3_fit):
        assert appendix_c_bound(nn3_fit, 1.0, 0.5, 0.0) == 0.0
        values = [appendix_c_bound(nn3_fit, 1.0, 0.5, t) for t in (5.0, 20.0, 40.0, math.inf)]
        assert values[0] < values[1] < values[2] < values[3]
        assert math.isfinite(values[-1])

    def test_linear_in_coupling_and_norm(self, nn3_fit):
        base = appendix_c_bound(nn3_fit, 1.0, 0.5, 10.0)
        assert appendix_c_bound(nn3_fit, 3.0, 0.5, 10.0) == pytest.approx(3.0 * base, rel=1e-12)
        assert appendix_c_bound(nn3_fit, 1.0, 1.5, 10.0) == pytest.approx(3.0 * base, rel=1e-12)

    def test_rejects_nonpositive_decay_and_bad_args(self, nn3_fit):
        degenerate = PropagatorDecayFit(
            scale=1.0,
            decay_exponent=-0.3,
            fitted_scale=1.0,
            times=np.array([0.0, 1.0]),
            norms=np.array([1.0, 1.0]),
        )
        with pytest.raises(ConfigError):
            appendix_c_bound(degenerate, 1.0, 0.5, 10.0)
        with pytest.raises(ConfigError):
            appendix_c_bound(nn3_fit, -1.0, 0.5, 10.0)
        with pytest.raises(ConfigError):
            appendix_c_bound(nn3_fit, 1.0, 0.5, -1.0)

    def test_bound_dominates_measured_first_order_term(self):
        # On the two-site-per-axis grid every mode satisfies 2k = 0, so the
        # fixed-modulus fourth cumulant contributes a single resonant triple
        # per output mode and the first-order term is exactly
        # coupling * t * W^2.  The dispersive bound must dominate it while
        # staying within an order of magnitude (frozen ratio 2.52 with the
        # L=64 fit: C = 3.0275, decay exponent 0.5504).
        fit = propagator_decay_fit(Lattice(dimension=3, side=64), nearest_neighbor_dispersion(3))
        lat = Lattice(dimension=3, side=2)
        w_flat = 0.5
        norm4 = fixed_modulus_fourth_norm(lat, np.full(lat.shape, w_flat))
        assert norm4 == pytest.approx(w_flat**2 * lat.size, rel=1e-12)
        coupling, t = 0.2, 20.0
        analytic_term = coupling * t * w_flat**2

        # Monte Carlo cross-check of the same term from per-mode cumulants
        ens = sample_initial(lat, np.full(lat.shape, w_flat), 4000, seed=77, family="fixed-modulus")
        zhat = np.fft.fftn(ens.fields, axes=(1, 2, 3))
        m2 = np.mean(np.abs(zhat) ** 2, axis=0)
        m4 = np.mean(np.abs(zhat) ** 4, axis=0)
        msq = np.mean(zhat**2, axis=0)
        kappa4 = m4 - 2.0 * m2**2 - np.abs(msq) ** 2
        mc_term = coupling * t * np.abs(kappa4) / lat.size**2
        assert abs(mc_term.mean() - analytic_term) < 0.05 * analytic_term

        bound = appendix_c_bound(fit, norm4, coupling, t)
        assert bound > analytic_term
        assert bound / analytic_term < 10.0
