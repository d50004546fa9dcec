"""Tests for the lattice Schrödinger dynamics and ensemble statistics.

Oracles used here:
  * closed-form flows for the two exactly solvable limits (no hopping, and
    no nonlinearity on a single Fourier mode),
  * centered finite differences in time against the right-hand side,
  * the unfused Strang composition (half phase, linear step, half phase,
    with |psi|^2 recomputed for each phase) against the fused integrator,
  * Richardson ratios for the second-order Hamiltonian drift,
  * direct position-space Fourier sums recomputing what the FFT routes
    produce (pair clustering norms, propagator at t=0),
  * closed-form cumulants of the fixed-modulus law (kappa4 per mode is
    minus the squared mode power) against Monte Carlo estimates,
  * deterministic seeds throughout, with margins checked against the
    Monte Carlo standard errors the estimators report.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from wickkit.dnls import (
    Dispersion,
    FieldState,
    Lattice,
    LatticeEnsemble,
    Spectrum,
    clustering_norm,
    coincident_fourth_cumulant,
    dnls_rhs,
    ell2_mass,
    empirical_fourth_cluster,
    empirical_pair_cluster,
    estimate_W,
    fixed_modulus_fourth_norm,
    free_propagator,
    gauge_audit,
    hamiltonian,
    integrate,
    integrate_ensemble,
    load_ensemble,
    mean_density,
    nearest_neighbor_dispersion,
    next_nearest_dispersion,
    pair_cluster_from_spectrum,
    propagator_decay_fit,
    read_spectrum_csv,
    renormalize_a,
    sample_initial,
    save_ensemble,
    translation_audit,
    write_spectrum_csv,
    zero_dispersion,
)
from wickkit import dnls
from wickkit.errors import ConfigError, GuardError, step_count

from _support import sampled_realization


def smooth_spectrum(lattice: Lattice) -> np.ndarray:
    """1 + 0.5 cos(2 pi k1): strictly positive, smooth, non-flat."""
    k1 = np.arange(lattice.side) / lattice.side
    w = 1.0 + 0.5 * np.cos(2.0 * np.pi * k1)
    for _ in range(lattice.dimension - 1):
        w = w[..., None] * np.ones(lattice.side)
    return w


class TestLattice:
    def test_shape_and_size(self):
        lat = Lattice(2, 8)
        assert lat.shape == (8, 8)
        assert lat.size == 64
        assert lat.axes == (0, 1)

    def test_k_grid_fractions(self):
        lat = Lattice(2, 4)
        grid = lat.k_grid()
        assert grid.shape == (4, 4, 2)
        assert grid[1, 3, 0] == 0.25
        assert grid[1, 3, 1] == 0.75

    def test_sites_start_at_origin(self):
        lat = Lattice(2, 4)
        sites = list(lat.sites())
        assert sites[0] == (0, 0)
        assert len(sites) == 16

    @pytest.mark.parametrize("dim, side", [(0, 8), (4, 8), (2, 12), (1, 1)])
    def test_rejects_bad_geometry(self, dim, side):
        with pytest.raises(ConfigError):
            Lattice(dim, side)


class TestDispersion:
    def test_nearest_neighbor_symbol(self):
        lat = Lattice(1, 16)
        omega = nearest_neighbor_dispersion(1).omega(lat)
        k = np.arange(16) / 16
        assert np.allclose(omega, 2.0 * (1.0 - np.cos(2.0 * np.pi * k)), atol=1e-14)

    def test_nearest_neighbor_symbol_3d(self):
        lat = Lattice(3, 8)
        omega = nearest_neighbor_dispersion(3).omega(lat)
        expected = np.sum(2.0 * (1.0 - np.cos(2.0 * np.pi * lat.k_grid())), axis=-1)
        assert np.allclose(omega, expected, atol=1e-13)
        assert omega.max() == pytest.approx(12.0)

    def test_symbol_is_even(self):
        lat = Lattice(2, 8)
        omega = next_nearest_dispersion(2).omega(lat)
        reversed_omega = omega
        for axis in range(2):
            reversed_omega = np.flip(np.roll(reversed_omega, -1, axis=axis), axis=axis)
        assert np.allclose(omega, reversed_omega, atol=1e-14)

    def test_next_nearest_vanishes_at_zero_and_is_nonnegative(self):
        lat = Lattice(1, 32)
        omega = next_nearest_dispersion(1).omega(lat)
        assert omega[0] == pytest.approx(0.0, abs=1e-14)
        assert np.all(omega >= -1e-14)

    def test_zero_dispersion(self):
        lat = Lattice(1, 8)
        disp = zero_dispersion(1)
        assert np.all(disp.omega(lat) == 0.0)
        assert disp.max_frequency(lat) == 0.0

    def test_rejects_asymmetric_hopping(self):
        with pytest.raises(ConfigError):
            Dispersion(1, {(1,): -1.0, (-1,): -0.5})

    def test_rejects_wrong_offset_length(self):
        with pytest.raises(ConfigError):
            Dispersion(2, {(1,): -1.0, (-1,): -1.0})

    def test_rejects_nonfinite_coefficient(self):
        with pytest.raises(ConfigError):
            Dispersion(1, {(0,): math.inf})


class TestRhsAndExactFlows:
    def test_free_single_mode_rotates_exactly(self):
        lat = Lattice(1, 16)
        disp = nearest_neighbor_dispersion(1)
        omega = disp.omega(lat)
        psi_hat0 = np.zeros(16, dtype=complex)
        psi_hat0[3] = 1.3 + 0.4j
        state = FieldState(np.fft.ifftn(psi_hat0), coupling=0.0)
        out = integrate(state, lat, disp, dt=0.1, n_steps=25)
        expected = np.fft.ifftn(psi_hat0 * np.exp(-1j * 2.5 * omega))
        assert np.max(np.abs(out.psi - expected)) < 1e-13
        assert out.time == pytest.approx(2.5)

    def test_pure_nonlinear_flow_is_exact_for_large_steps(self):
        rng = np.random.default_rng(0)
        lat = Lattice(1, 16)
        psi0 = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        state = FieldState(psi0, coupling=0.8)
        out = integrate(state, lat, zero_dispersion(1), dt=0.7, n_steps=4)
        expected = psi0 * np.exp(-1j * 0.8 * np.abs(psi0) ** 2 * 2.8)
        assert np.max(np.abs(out.psi - expected)) < 1e-13

    def test_rhs_matches_centered_finite_difference(self):
        rng = np.random.default_rng(1)
        lat = Lattice(1, 32)
        disp = nearest_neighbor_dispersion(1)
        psi0 = (rng.standard_normal(32) + 1j * rng.standard_normal(32)) * 0.4
        state = FieldState(psi0, coupling=0.5)
        rhs = dnls_rhs(state, lat, disp)

        def fd_error(h: float) -> float:
            plus = integrate(state, lat, disp, dt=h, n_steps=1).psi
            minus = integrate(state, lat, disp, dt=-h, n_steps=1).psi
            return float(np.max(np.abs((plus - minus) / (2.0 * h) - rhs)))

        err_coarse, err_fine = fd_error(1e-3), fd_error(5e-4)
        assert err_coarse < 2e-5
        # centered differences of a smooth flow converge at second order
        assert 3.5 < err_coarse / err_fine < 4.5

    def test_rhs_rejects_shape_mismatch(self):
        with pytest.raises(ConfigError):
            dnls_rhs(FieldState(np.zeros(8, complex)), Lattice(1, 16), nearest_neighbor_dispersion(1))


class TestIntegrate:
    def test_mass_conserved_over_thousand_steps(self):
        rng = np.random.default_rng(2)
        lat = Lattice(1, 32)
        disp = nearest_neighbor_dispersion(1)
        psi0 = (rng.standard_normal(32) + 1j * rng.standard_normal(32)) * 0.4
        state = FieldState(psi0, coupling=0.5)
        mass0 = ell2_mass(state)
        out = integrate(state, lat, disp, dt=0.1, n_steps=1000)
        assert abs(ell2_mass(out) - mass0) / mass0 < 1e-12

    def test_hamiltonian_drift_is_second_order(self):
        rng = np.random.default_rng(2)
        lat = Lattice(1, 32)
        disp = nearest_neighbor_dispersion(1)
        psi0 = (rng.standard_normal(32) + 1j * rng.standard_normal(32)) * 0.4
        state = FieldState(psi0, coupling=0.5)
        h0 = hamiltonian(state, lat, disp)
        drift_coarse = abs(hamiltonian(integrate(state, lat, disp, 0.1, 100), lat, disp) - h0)
        drift_fine = abs(hamiltonian(integrate(state, lat, disp, 0.05, 200), lat, disp) - h0)
        assert 3.2 < drift_coarse / drift_fine < 4.8

    def test_step_guard(self):
        lat = Lattice(1, 32)
        disp = nearest_neighbor_dispersion(1)  # max omega = 4
        state = FieldState(np.ones(32, complex))
        with pytest.raises(GuardError):
            integrate(state, lat, disp, dt=0.2, n_steps=1)
        with pytest.raises(GuardError):
            integrate(state, lat, disp, dt=math.nan, n_steps=1)

    def test_rejects_negative_step_count(self):
        lat = Lattice(1, 32)
        state = FieldState(np.ones(32, complex))
        with pytest.raises(ConfigError):
            integrate(state, lat, zero_dispersion(1), dt=0.1, n_steps=-1)


def strang_step(psi: np.ndarray, linear: np.ndarray, coupling: float, dt: float, axes: tuple[int, ...]) -> np.ndarray:
    """One unfused split step: half nonlinear phase, full linear flow, half nonlinear phase."""
    psi = psi * np.exp(-1j * (0.5 * dt * coupling) * np.abs(psi) ** 2)
    psi = np.fft.ifftn(linear * np.fft.fftn(psi, axes=axes), axes=axes)
    return psi * np.exp(-1j * (0.5 * dt * coupling) * np.abs(psi) ** 2)


def unfused_ensemble(ens: LatticeEnsemble, disp: Dispersion, dt: float, n_steps: int) -> tuple[np.ndarray, float]:
    """Fields and r_integral after n_steps unfused steps, R_s by the trapezoid rule."""
    linear = np.exp(-1j * dt * disp.omega(ens.lattice))
    fields, r_integral = ens.fields, ens.r_integral
    r_prev = 2.0 * float(np.mean(np.abs(fields) ** 2))
    for _ in range(n_steps):
        fields = strang_step(fields, linear, ens.coupling, dt, ens.spatial_axes)
        r_next = 2.0 * float(np.mean(np.abs(fields) ** 2))
        r_integral += dt * 0.5 * (r_prev + r_next)
        r_prev = r_next
    return fields, r_integral


class TestFusedIntegrator:
    @pytest.mark.parametrize(
        "dim, side, n_real, dt, blocks",
        [(1, 32, 20, 0.1, (40,)), (2, 8, 10, 0.05, (12, 12, 6)), (3, 4, 5, 0.04, (5, 10, 5))],
    )
    def test_matches_the_unfused_composition(self, dim, side, n_real, dt, blocks):
        lat = Lattice(dim, side)
        disp = nearest_neighbor_dispersion(dim)
        ens = sample_initial(lat, smooth_spectrum(lat), n_real, seed=21, coupling=0.7)
        ref_fields, ref_r = unfused_ensemble(ens, disp, dt, sum(blocks))
        one_call = integrate_ensemble(ens, disp, dt, sum(blocks))
        split = ens
        for n_steps in blocks:  # a run cut into record blocks
            split = integrate_ensemble(split, disp, dt, n_steps)
        scale = float(np.max(np.abs(ref_fields)))
        for out in (one_call, split):
            assert np.max(np.abs(out.fields - ref_fields)) < 1e-12 * scale
            assert out.r_integral == pytest.approx(ref_r, rel=1e-12)
            assert out.time == pytest.approx(dt * sum(blocks), rel=1e-12)

    def test_integrate_is_a_batch_of_one(self):
        rng = np.random.default_rng(5)
        lat = Lattice(2, 8)
        disp = nearest_neighbor_dispersion(2)
        psi0 = rng.standard_normal(lat.shape) + 1j * rng.standard_normal(lat.shape)
        state = FieldState(psi0, time=0.3, coupling=0.6)
        single = integrate(state, lat, disp, 0.05, 17)
        batch = integrate_ensemble(LatticeEnsemble(lat, psi0[None], time=0.3, coupling=0.6), disp, 0.05, 17)
        assert single.psi.tobytes() == batch.fields[0].tobytes()
        assert (single.time, single.coupling) == (batch.time, batch.coupling)

    def test_zero_steps_leave_the_field_alone(self):
        lat = Lattice(1, 16)
        ens = sample_initial(lat, smooth_spectrum(lat), 4, seed=2, coupling=0.5)
        out = integrate_ensemble(ens, nearest_neighbor_dispersion(1), 0.1, 0)
        assert np.array_equal(out.fields, ens.fields) and out.r_integral == ens.r_integral

    def test_non_finite_step_trips_the_guard(self):
        lat = Lattice(1, 16)
        state = FieldState(np.full(16, 0.5 + 0.5j), coupling=math.inf)
        with pytest.raises(GuardError, match="non-finite"):
            integrate(state, lat, nearest_neighbor_dispersion(1), 0.05, 3)

    def test_blocks_match_the_unfused_composition(self, monkeypatch):
        # 9 realizations in blocks of 4: two full blocks and a partial one
        lat = Lattice(2, 8)
        monkeypatch.setattr(dnls, "BLOCK_SITES", 4 * lat.size)
        disp = nearest_neighbor_dispersion(2)
        ens = sample_initial(lat, smooth_spectrum(lat), 9, seed=23, coupling=0.6)
        ref_fields, ref_r = unfused_ensemble(ens, disp, 0.05, 14)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so that blocks sharing state would show it
        try:
            one, *more = [integrate_ensemble(ens, disp, 0.05, 14, threads=threads) for threads in (1, 2, 3)]
        finally:
            sys.setswitchinterval(interval)
        assert np.max(np.abs(one.fields - ref_fields)) < 1e-12 * float(np.max(np.abs(ref_fields)))
        assert one.r_integral == pytest.approx(ref_r, rel=1e-12)
        # the blocks and the order their sums are added in do not depend on the thread count
        for out in more:
            assert out.fields.tobytes() == one.fields.tobytes() and out.r_integral == one.r_integral

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("threads", [1, 2])
    def test_non_finite_last_block_trips_the_guard(self, monkeypatch, threads):
        # blocks of 3 over 7 realizations; only the last, partial block overflows
        lat = Lattice(1, 16)
        monkeypatch.setattr(dnls, "BLOCK_SITES", 3 * lat.size)
        fields = np.full((7, 16), 0.5 + 0.5j)
        fields[6] = 1e200
        ens = LatticeEnsemble(lat, fields, coupling=0.3)
        with pytest.raises(GuardError, match="non-finite at step 1 ") as err:
            integrate_ensemble(ens, nearest_neighbor_dispersion(1), 0.05, 4, threads=threads)
        assert str(err.value) == "the field became non-finite at step 1 (coupling 0.3, dt 0.05)"

    @pytest.mark.filterwarnings("error")  # the CLI reports the guard alone, with no numpy warning
    def test_overflowing_sum_of_finite_blocks_trips_the_guard(self, monkeypatch):
        # each one-realization block sums |psi|^2 to 1e308, which is finite; the two together are not
        lat = Lattice(1, 16)
        monkeypatch.setattr(dnls, "BLOCK_SITES", lat.size)
        ens = LatticeEnsemble(lat, np.full((2, 16), math.sqrt(1e308 / 16) + 0j))
        with pytest.raises(GuardError, match="non-finite at step 1 "):
            integrate_ensemble(ens, zero_dispersion(1), 0.05, 2, threads=2)
        one = LatticeEnsemble(lat, ens.fields[:1])
        assert integrate_ensemble(one, zero_dispersion(1), 0.05, 2).r_integral == pytest.approx(0.2 * 1e308 / 16)

    def test_hamiltonian_of_a_stack_is_the_sum(self):
        lat = Lattice(2, 8)
        disp = next_nearest_dispersion(2)
        ens = sample_initial(lat, smooth_spectrum(lat), 6, seed=8, coupling=0.4)
        each = [hamiltonian(ens.realization(i), lat, disp) for i in range(6)]
        stack = FieldState(ens.fields, coupling=0.4)
        assert hamiltonian(stack, lat, disp) == pytest.approx(sum(each), rel=1e-12)
        assert ell2_mass(stack) == pytest.approx(sum(ell2_mass(ens.realization(i)) for i in range(6)), rel=1e-12)


class TestStepCount:
    def test_whole_numbers_of_steps(self):
        assert step_count(1.0, 0.05, "here") == 20
        assert step_count(0.0, 0.05, "here") == 0

    @pytest.mark.parametrize(
        "t_end, dt",
        [(1.0, math.nan), (math.nan, 0.1), (math.inf, 0.1), (1.0, math.inf), (1.0, 0.0),
         (1.0, -0.1), (-1.0, 0.1), (1e300, 1e-300), (1.0, 0.3), (1e-12, 0.1)],
    )
    def test_rejects_bad_times(self, t_end, dt):
        with pytest.raises(ConfigError, match="here"):
            step_count(t_end, dt, "here")


class TestSampling:
    def test_bitwise_reproducible(self):
        lat = Lattice(1, 16)
        w0 = smooth_spectrum(lat)
        a = sample_initial(lat, w0, 20, seed=42, family="gaussian")
        b = sample_initial(lat, w0, 20, seed=42, family="gaussian")
        assert np.array_equal(a.fields, b.fields)
        assert a.master_seed == 42

    @pytest.mark.parametrize("family", ["gaussian", "fixed-modulus"])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_each_realization_is_its_own_keyed_draw(self, monkeypatch, family, threads):
        # blocks of 3 over 8 realizations: the rekeyed generator and the batched
        # inverse FFT give what a fresh Philox(key=[seed, i]) gives alone
        lat = Lattice(2, 4)
        monkeypatch.setattr(dnls, "BLOCK_SITES", 3 * lat.size)
        w0 = smooth_spectrum(lat)
        ens = sample_initial(lat, w0, 8, seed=97, family=family, threads=threads)
        for i in range(8):
            want = sampled_realization(w0, 97, i, family)
            assert np.max(np.abs(ens.fields[i] - want)) < 1e-13 * float(np.max(np.abs(want)))

    def test_estimate_w_recovers_spectrum(self):
        lat = Lattice(1, 16)
        w0 = smooth_spectrum(lat)
        ens = sample_initial(lat, w0, 10_000, seed=42, family="gaussian")
        spec = estimate_W(ens)
        z = np.abs(spec.values - w0) / spec.stderr
        assert float(z.max()) < 3.0

    def test_fixed_modulus_pins_mode_amplitudes(self):
        lat = Lattice(1, 16)
        w0 = smooth_spectrum(lat)
        ens = sample_initial(lat, w0, 50, seed=7, family="fixed-modulus")
        hats = np.abs(np.fft.fftn(ens.fields, axes=(1,)))
        assert np.max(np.abs(hats - np.sqrt(lat.size * w0))) < 1e-12

    def test_fixed_modulus_fourth_cumulant_is_negative(self):
        lat = Lattice(1, 16)
        ens = sample_initial(lat, np.full(16, 0.8), 4000, seed=8, family="fixed-modulus")
        est = coincident_fourth_cumulant(ens)
        # closed form per mode: kappa4 = -(mode power)^2, so the coincident
        # value is -(1/L^2) sum_k W^2 = -w^2 / L for a flat spectrum
        expected = -(0.8**2) / 16
        assert est.value + 3.0 * est.stderr < 0.0
        assert abs(est.value - expected) < 4.0 * est.stderr

    def test_gaussian_fourth_cumulant_vanishes(self):
        lat = Lattice(1, 16)
        ens = sample_initial(lat, smooth_spectrum(lat), 10_000, seed=42, family="gaussian")
        est = coincident_fourth_cumulant(ens)
        assert abs(est.value) < 4.0 * est.stderr

    def test_rejects_negative_spectrum(self):
        lat = Lattice(1, 16)
        w0 = smooth_spectrum(lat)
        w0[3] = -0.01
        with pytest.raises(ConfigError):
            sample_initial(lat, w0, 10, seed=0)

    def test_rejects_unknown_family(self):
        lat = Lattice(1, 16)
        with pytest.raises(ConfigError):
            sample_initial(lat, smooth_spectrum(lat), 10, seed=0, family="cauchy")

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ConfigError):
            sample_initial(Lattice(1, 16), np.ones(8), 10, seed=0)


class TestEstimateW:
    def test_needs_two_realizations(self):
        lat = Lattice(1, 16)
        ens = sample_initial(lat, smooth_spectrum(lat), 1, seed=0)
        with pytest.raises(ConfigError):
            estimate_W(ens)

    def test_free_evolution_preserves_mode_powers_exactly(self):
        lat = Lattice(1, 16)
        disp = nearest_neighbor_dispersion(1)
        ens = sample_initial(lat, smooth_spectrum(lat), 40, seed=3, family="gaussian")
        evolved = integrate_ensemble(ens, disp, dt=0.1, n_steps=50)
        before = np.abs(ens.fourier()) ** 2
        after = np.abs(evolved.fourier()) ** 2
        assert np.max(np.abs(after - before)) / np.max(before) < 1e-12

    def test_pointwise_flow_preserves_flat_spectrum_in_distribution(self):
        # with iid sites (flat spectrum) the pure phase flow leaves the law
        # invariant, so paired mode-power increments are pure noise; a
        # non-flat spectrum genuinely redistributes at order coupling^2
        lat = Lattice(1, 16)
        ens = sample_initial(lat, np.full(16, 0.9), 3000, seed=13, family="gaussian", coupling=0.9)
        evolved = integrate_ensemble(ens, zero_dispersion(1), dt=0.1, n_steps=6)
        diff = (np.abs(evolved.fourier()) ** 2 - np.abs(ens.fourier()) ** 2) / lat.size
        z = np.abs(diff.mean(axis=0)) / (diff.std(axis=0, ddof=1) / math.sqrt(3000))
        assert float(z.max()) < 4.0

    def test_mean_spectrum_equals_mean_density(self):
        lat = Lattice(1, 16)
        ens = sample_initial(lat, smooth_spectrum(lat), 30, seed=4)
        spec = estimate_W(ens)
        assert float(spec.values.mean()) == pytest.approx(mean_density(ens), rel=1e-12)


class TestRenormalizedField:
    def test_at_time_zero_equals_fourier_field(self):
        lat = Lattice(1, 32)
        ens = sample_initial(lat, smooth_spectrum(lat), 10, seed=11, coupling=0.8)
        assert np.array_equal(renormalize_a(ens, nearest_neighbor_dispersion(1)), ens.fourier())

    def test_free_flow_freezes_the_renormalized_field(self):
        lat = Lattice(1, 32)
        disp = nearest_neighbor_dispersion(1)
        ens = sample_initial(lat, smooth_spectrum(lat), 50, seed=12, coupling=0.0)
        evolved = integrate_ensemble(ens, disp, dt=0.05, n_steps=40)
        frozen = renormalize_a(ens, disp)
        later = renormalize_a(evolved, disp)
        assert np.max(np.abs(later - frozen)) < 1e-10

    def test_unit_modulus_compensation_preserves_pair_statistics(self):
        lat = Lattice(1, 32)
        disp = nearest_neighbor_dispersion(1)
        ens = sample_initial(lat, smooth_spectrum(lat), 200, seed=11, coupling=0.8)
        evolved = integrate_ensemble(ens, disp, dt=0.05, n_steps=40)
        a_field = renormalize_a(evolved, disp)
        assert np.max(np.abs(np.abs(a_field) - np.abs(evolved.fourier()))) < 1e-12

    def test_density_history_accumulates(self):
        lat = Lattice(1, 32)
        disp = nearest_neighbor_dispersion(1)
        ens = sample_initial(lat, smooth_spectrum(lat), 100, seed=11, coupling=0.8)
        evolved = integrate_ensemble(ens, disp, dt=0.05, n_steps=40)
        # the flow conserves mass, so the accumulated integral of
        # R_s = 2 E|psi|^2 is 2 * density * elapsed time up to rounding
        assert evolved.r_integral == pytest.approx(2.0 * mean_density(evolved) * evolved.time, rel=1e-12)

    def test_missing_history_is_an_error(self):
        lat = Lattice(1, 16)
        ens = sample_initial(lat, smooth_spectrum(lat), 5, seed=1, coupling=0.3)
        stale = LatticeEnsemble(lat, ens.fields, time=1.0, coupling=0.3, r_integral=None)
        with pytest.raises(ConfigError):
            renormalize_a(stale, nearest_neighbor_dispersion(1))


class TestGaugeAudit:
    def test_fresh_gaussian_ensemble_is_clean(self):
        lat = Lattice(1, 16)
        ens = sample_initial(lat, smooth_spectrum(lat), 3000, seed=21, family="gaussian", coupling=0.8)
        report = gauge_audit(ens)
        assert report.flag_count == 0
        assert len(report.probes) == 42

    def test_evolved_ensemble_stays_clean(self):
        lat = Lattice(1, 16)
        disp = nearest_neighbor_dispersion(1)
        ens = sample_initial(lat, smooth_spectrum(lat), 3000, seed=21, family="gaussian", coupling=0.8)
        evolved = integrate_ensemble(ens, disp, dt=0.05, n_steps=10)
        assert gauge_audit(evolved).flag_count == 0

    def test_constant_shift_is_flagged_at_first_order(self):
        lat = Lattice(1, 16)
        ens = sample_initial(lat, smooth_spectrum(lat), 3000, seed=21)
        shifted = LatticeEnsemble(lat, ens.fields + 0.5)
        report = gauge_audit(shifted, max_order=2)
        assert report.flag_count > 0
        assert any(probe.order == 1 for probe in report.flagged)

    def test_rejects_degenerate_input(self):
        lat = Lattice(1, 16)
        ens = sample_initial(lat, smooth_spectrum(lat), 5, seed=1)
        with pytest.raises(ConfigError):
            gauge_audit(ens, max_order=0)


class TestTranslationAudit:
    def test_fresh_gaussian_ensemble_is_clean(self):
        lat = Lattice(1, 16)
        ens = sample_initial(lat, smooth_spectrum(lat), 6000, seed=5, family="gaussian")
        report = translation_audit(ens)
        assert report.flag_count == 0
        # every ordered momentum pair is checked off-support, twice (two
        # sign pairs), minus the on-support diagonals
        assert report.n_pairs_checked == 2 * (16 * 16 - 16)

    def test_site_dependent_shift_is_flagged(self):
        lat = Lattice(1, 16)
        ens = sample_initial(lat, smooth_spectrum(lat), 6000, seed=5, family="gaussian")
        pattern = 0.4 * np.cos(2.0 * np.pi * np.arange(16) / 16)
        broken = LatticeEnsemble(lat, ens.fields + pattern[None, :])
        report = translation_audit(broken)
        assert report.flag_count > 0
        assert report.max_offsupport_z > 10.0


class TestFreePropagator:
    def test_is_delta_at_time_zero(self):
        lat = Lattice(3, 8)
        p0 = free_propagator(lat, nearest_neighbor_dispersion(3), 0.0)
        expected = np.zeros(lat.shape)
        expected[0, 0, 0] = 1.0
        assert np.max(np.abs(p0 - expected)) < 1e-14

    def test_unit_l2_norm_for_all_times(self):
        lat = Lattice(3, 8)
        disp = nearest_neighbor_dispersion(3)
        for t in (0.5, 3.7, 21.0):
            p_t = free_propagator(lat, disp, t)
            assert abs(float(np.sum(np.abs(p_t) ** 2)) - 1.0) < 1e-12

    def test_matches_direct_fourier_sum(self):
        lat = Lattice(1, 8)
        disp = nearest_neighbor_dispersion(1)
        omega = disp.omega(lat)
        p_t = free_propagator(lat, disp, 1.3)
        k = np.arange(8) / 8
        direct = np.array(
            [np.mean(np.exp(1j * 2 * np.pi * k * x) * np.exp(-1j * 1.3 * omega)) for x in range(8)]
        )
        assert np.max(np.abs(p_t - direct)) < 1e-14

    def test_decay_fit_is_dispersive_in_three_dimensions(self):
        lat = Lattice(3, 32)
        fit = propagator_decay_fit(lat, nearest_neighbor_dispersion(3), t_max=40.0, n_samples=161)
        assert fit.decay_exponent > 0.3
        envelope = fit.envelope(fit.times)
        assert np.all(fit.norms <= envelope * (1.0 + 1e-9))
        assert fit.scale >= fit.fitted_scale

    def test_one_dimension_is_degenerate(self):
        # the single-axis chain disperses too slowly for a summable cube
        # norm; the fitted exponent documents that honestly
        fit = propagator_decay_fit(Lattice(1, 64), nearest_neighbor_dispersion(1), t_max=40.0, n_samples=161)
        assert fit.decay_exponent < 0.2


class TestClusteringNorms:
    def test_two_route_pair_norm_agreement(self):
        lat = Lattice(1, 32)
        w0 = smooth_spectrum(lat)
        table = pair_cluster_from_spectrum(lat, w0)
        norm_fft = clustering_norm(table, 2)
        k = np.arange(32) / 32
        direct = np.array([np.sum(w0 * np.exp(1j * 2 * np.pi * k * x)) / 32 for x in range(32)])
        norm_direct = float(np.sum(np.abs(direct)))
        assert abs(norm_fft - norm_direct) < 1e-10
        # 1 + 0.5 cos transforms to delta + quarter-weight neighbors
        assert norm_fft == pytest.approx(1.5, abs=1e-12)

    def test_white_spectrum_reduces_to_single_site_variance(self):
        lat = Lattice(1, 32)
        table = pair_cluster_from_spectrum(lat, np.full(32, 0.7))
        assert clustering_norm(table, 2) == pytest.approx(0.7, abs=1e-13)
        off_origin = np.sum(np.abs(table[(-1, 1)])) - abs(table[(-1, 1)][0])
        assert off_origin < 1e-13

    def test_empirical_pair_cluster_matches_analytic(self):
        lat = Lattice(1, 32)
        w0 = smooth_spectrum(lat)
        ens = sample_initial(lat, w0, 6000, seed=5, family="gaussian")
        empirical = empirical_pair_cluster(ens)
        analytic = pair_cluster_from_spectrum(lat, w0)
        assert np.max(np.abs(empirical[(-1, 1)] - analytic[(-1, 1)])) < 0.02
        assert np.max(np.abs(empirical[(1, 1)])) < 0.01  # phase-unbalanced
        assert np.max(np.abs(empirical[(-1, -1)])) < 0.01

    def test_windowed_fourth_cluster_of_fixed_modulus_law(self):
        lat = Lattice(1, 8)
        ens = sample_initial(lat, np.full(8, 0.8), 4000, seed=9, family="fixed-modulus")
        offsets, values = empirical_fourth_cluster(ens, signs=(-1, -1, 1, 1), window_radius=1)
        assert offsets == [(-1,), (0,), (1,)]
        # per mode kappa4 = -(mode power)^2; for a flat spectrum the pinned
        # cumulant is -w^2/L exactly when -x2 + x3 + x4 = 0 and zero otherwise
        expected = np.zeros((3, 3, 3), dtype=complex)
        for i2, x2 in enumerate(offsets):
            for i3, x3 in enumerate(offsets):
                for i4, x4 in enumerate(offsets):
                    if (-x2[0] + x3[0] + x4[0]) % 8 == 0:
                        expected[i2, i3, i4] = -(0.8**2) / 8
        assert np.max(np.abs(values - expected)) < 0.025

    def test_windowed_fourth_cluster_of_gaussian_law_vanishes(self):
        lat = Lattice(1, 8)
        ens = sample_initial(lat, smooth_spectrum(lat), 4000, seed=10, family="gaussian")
        _, values = empirical_fourth_cluster(ens, window_radius=1)
        assert np.max(np.abs(values)) < 0.03

    def test_fixed_modulus_norm_closed_form(self):
        lat = Lattice(1, 8)
        w0 = np.full(8, 0.8)
        assert fixed_modulus_fourth_norm(lat, w0) == pytest.approx(0.8**2 * 8, rel=1e-12)
        # non-flat spectrum: recompute by brute force over the profile
        w1 = smooth_spectrum(lat)
        k = np.arange(8) / 8
        profile = np.array([np.mean(w1**2 * np.exp(1j * 2 * np.pi * k * v)) for v in range(8)])
        assert fixed_modulus_fourth_norm(lat, w1) == pytest.approx(
            8 * float(np.sum(np.abs(profile))), rel=1e-10
        )

    def test_norm_validates_input(self):
        with pytest.raises(ConfigError):
            clustering_norm({(1,): np.ones(4)}, 2)
        with pytest.raises(ConfigError):
            clustering_norm({(1, -1): np.array([1.0, math.nan])}, 2)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        lat = Lattice(2, 8)
        ens = sample_initial(lat, np.full((8, 8), 0.5), 7, seed=3, coupling=0.4)
        ens = integrate_ensemble(ens, nearest_neighbor_dispersion(2), 0.05, 8)
        save_ensemble(ens, tmp_path)
        back = load_ensemble(tmp_path)
        assert np.array_equal(back.fields, ens.fields)
        assert back.time == ens.time
        assert back.coupling == ens.coupling
        assert back.master_seed == ens.master_seed
        assert back.r_integral == ens.r_integral

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ConfigError):
            load_ensemble(tmp_path)

    def test_truncated_directory_is_detected(self, tmp_path):
        lat = Lattice(1, 8)
        ens = sample_initial(lat, np.full(8, 0.5), 3, seed=3)
        save_ensemble(ens, tmp_path)
        (tmp_path / "realization_00001.npy").unlink()
        with pytest.raises(ConfigError):
            load_ensemble(tmp_path)

    def test_spectrum_csv_round_trip(self, tmp_path):
        lat = Lattice(2, 8)
        ens = sample_initial(lat, np.full((8, 8), 0.5), 7, seed=3)
        spec = estimate_W(ens)
        path = tmp_path / "w.csv"
        write_spectrum_csv(lat, spec, path)
        k_rows, values, stderr = read_spectrum_csv(path)
        assert k_rows.shape == (64, 2)
        assert np.array_equal(values, spec.values.ravel())
        assert np.array_equal(stderr, spec.stderr.ravel())
        # deterministic bytes on rewrite
        second = tmp_path / "again.csv"
        write_spectrum_csv(lat, spec, second)
        assert path.read_bytes() == second.read_bytes()

    def test_spectrum_csv_without_errors(self, tmp_path):
        lat = Lattice(1, 4)
        spec = Spectrum(values=np.array([1.0, 2.0, 3.0, 4.0]))
        path = tmp_path / "w.csv"
        write_spectrum_csv(lat, spec, path)
        _, values, stderr = read_spectrum_csv(path)
        assert stderr is None
        assert np.array_equal(values, spec.values)
