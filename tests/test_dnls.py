"""Tests for the lattice Schrödinger dynamics and ensemble statistics.

Oracles used here:
  * closed-form flows for the two exactly solvable limits (no hopping, and
    no nonlinearity on a single Fourier mode),
  * centered finite differences in time against the right-hand side,
  * the unfused Strang composition (half phase, linear step, half phase,
    with |psi|^2 recomputed for each phase) against the fused integrator,
  * numpy's whole-array ``fftn``/``ifftn`` and complex ``exp``, byte for
    byte, against the lattice transform, the real split phase and the
    fused step loop built from them,
  * Richardson ratios for the second-order Hamiltonian drift,
  * direct position-space Fourier sums recomputing what the FFT routes
    produce (pair clustering norms, propagator at t=0),
  * closed-form cumulants of the fixed-modulus law (kappa4 per mode is
    minus the squared mode power) against Monte Carlo estimates,
  * the whole coincident fourth-cumulant estimator, centering included,
    recomputed on each leave-one-out sample in a loop
    (``_support.reference_coincident_fourth_stderr``) against its jackknife
    error,
  * deterministic seeds throughout, with margins checked against the
    Monte Carlo standard errors the estimators report.
"""

from __future__ import annotations

import importlib.machinery
import math
import re
import sys
from dataclasses import replace

import numpy as np
import pytest

from wickkit.dnls import (
    Dispersion,
    Lattice,
    LatticeEnsemble,
    clustering_norm,
    ell2_mass,
    estimate_W,
    fixed_modulus_fourth_norm,
    gauge_audit,
    hamiltonian,
    integrate_ensemble,
    load_ensemble,
    nearest_neighbor_dispersion,
    next_nearest_dispersion,
    propagator_decay_fit,
    read_spectrum_csv,
    renormalize_a,
    sample_initial,
    save_ensemble,
    write_spectrum_csv,
    zero_dispersion,
)
from wickkit import dnls
from wickkit.errors import ConfigError, GuardError, step_count
from wickkit.kinetic import CollisionConfig, prelimit_kernel

from _support import (
    coincident_fourth_cumulant, dnls_rhs, reference_coincident_fourth_stderr, reference_split_steps, sampled_realization,
)


def smooth_spectrum(lattice: Lattice) -> np.ndarray:
    """1 + 0.5 cos(2 pi k1): strictly positive, smooth, non-flat."""
    k1 = np.arange(lattice.side) / lattice.side
    w = 1.0 + 0.5 * np.cos(2.0 * np.pi * k1)
    for _ in range(lattice.dimension - 1):
        w = w[..., None] * np.ones(lattice.side)
    return w


def one(psi: np.ndarray, lattice: Lattice, coupling: float = 0.0, time: float = 0.0) -> LatticeEnsemble:
    """The ensemble of one realization ``psi``."""
    return LatticeEnsemble(lattice, np.asarray(psi)[None], time=time, coupling=coupling)


class TestLattice:
    def test_shape_and_size(self):
        lat = Lattice(2, 8)
        assert lat.shape == (8, 8)
        assert lat.size == 64

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

    @pytest.mark.parametrize(
        "hopping, bad",
        [
            ({(0.5,): 1.0, (-0.5,): 2.0}, "(0.5,)"),
            ({(math.nan,): 1.0}, "(nan,)"),
            ({(math.inf,): 1.0}, "(inf,)"),
            ({("1",): 1.0, ("-1",): 1.0}, "('1',)"),
            ({(True,): 1.0}, "(True,)"),
            ({1: 1.0}, "1"),
        ],
        ids=["half", "nan", "inf", "text", "bool", "scalar"],
    )
    def test_rejects_an_offset_that_is_not_integer(self, hopping, bad):
        with pytest.raises(ConfigError, match=f"hopping offset {re.escape(bad)} must be a tuple of integers"):
            Dispersion(1, hopping)

    def test_takes_numpy_integer_offsets_as_ints(self):
        disp = Dispersion(1, {(np.int64(1),): -1.0, (np.int32(-1),): -1.0})
        assert disp.hopping == {(1,): -1.0, (-1,): -1.0}
        assert all(type(c) is int for offset in disp.hopping for c in offset)

    @pytest.mark.parametrize(
        "coeff",
        ["1.0", "x", True, np.bool_(True), None, 1 + 0j, math.nan, -math.inf, 10**400, np.float32("inf")],
        ids=["numeric-text", "text", "bool", "numpy-bool", "none", "complex", "nan", "-inf", "huge-int", "float32-inf"],
    )
    def test_rejects_a_coefficient_that_is_not_a_finite_real_number(self, coeff):
        with pytest.raises(ConfigError, match=r"hopping coefficient at \(1,\) must be a finite real number"):
            Dispersion(1, {(1,): coeff, (-1,): coeff})

    @pytest.mark.parametrize("coeff", [1, -1.0, np.float32(1.0), np.int64(1)])
    def test_takes_integer_float_and_numpy_real_coefficients_as_floats(self, coeff):
        disp = Dispersion(1, {(1,): coeff, (-1,): coeff})
        assert disp.hopping == {(1,): float(coeff), (-1,): float(coeff)}
        assert all(type(value) is float for value in disp.hopping.values())


class TestRhsAndExactFlows:
    def test_free_single_mode_rotates_exactly(self):
        lat = Lattice(1, 16)
        disp = nearest_neighbor_dispersion(1)
        omega = disp.omega(lat)
        psi_hat0 = np.zeros(16, dtype=complex)
        psi_hat0[3] = 1.3 + 0.4j
        out = integrate_ensemble(one(np.fft.ifftn(psi_hat0), lat), disp, dt=0.1, n_steps=25)
        expected = np.fft.ifftn(psi_hat0 * np.exp(-1j * 2.5 * omega))
        assert np.max(np.abs(out.fields[0] - expected)) < 1e-13
        assert out.time == pytest.approx(2.5)

    def test_pure_nonlinear_flow_is_exact_for_large_steps(self):
        rng = np.random.default_rng(0)
        lat = Lattice(1, 16)
        psi0 = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        out = integrate_ensemble(one(psi0, lat, coupling=0.8), zero_dispersion(1), dt=0.7, n_steps=4)
        expected = psi0 * np.exp(-1j * 0.8 * np.abs(psi0) ** 2 * 2.8)
        assert np.max(np.abs(out.fields[0] - expected)) < 1e-13

    def test_rhs_matches_centered_finite_difference(self):
        rng = np.random.default_rng(1)
        lat = Lattice(1, 32)
        disp = nearest_neighbor_dispersion(1)
        psi0 = (rng.standard_normal(32) + 1j * rng.standard_normal(32)) * 0.4
        state = one(psi0, lat, coupling=0.5)
        rhs = dnls_rhs(state, disp)

        def fd_error(h: float) -> float:
            plus = integrate_ensemble(state, disp, dt=h, n_steps=1).fields
            minus = integrate_ensemble(state, disp, dt=-h, n_steps=1).fields
            return float(np.max(np.abs((plus - minus) / (2.0 * h) - rhs)))

        err_coarse, err_fine = fd_error(1e-3), fd_error(5e-4)
        assert err_coarse < 2e-5
        # centered differences of a smooth flow converge at second order
        assert 3.5 < err_coarse / err_fine < 4.5

    def test_rhs_rejects_shape_mismatch(self):
        with pytest.raises(ConfigError):
            dnls_rhs(one(np.zeros(8, complex), Lattice(1, 16)), nearest_neighbor_dispersion(1))


class TestIntegrate:
    def test_mass_conserved_over_thousand_steps(self):
        rng = np.random.default_rng(2)
        lat = Lattice(1, 32)
        disp = nearest_neighbor_dispersion(1)
        psi0 = (rng.standard_normal(32) + 1j * rng.standard_normal(32)) * 0.4
        state = one(psi0, lat, coupling=0.5)
        mass0 = ell2_mass(state)
        out = integrate_ensemble(state, disp, dt=0.1, n_steps=1000)
        assert abs(ell2_mass(out) - mass0) / mass0 < 1e-12

    def test_hamiltonian_drift_is_second_order(self):
        rng = np.random.default_rng(2)
        lat = Lattice(1, 32)
        disp = nearest_neighbor_dispersion(1)
        psi0 = (rng.standard_normal(32) + 1j * rng.standard_normal(32)) * 0.4
        state = one(psi0, lat, coupling=0.5)
        h0 = hamiltonian(state, disp)
        drift_coarse = abs(hamiltonian(integrate_ensemble(state, disp, 0.1, 100), disp) - h0)
        drift_fine = abs(hamiltonian(integrate_ensemble(state, disp, 0.05, 200), disp) - h0)
        assert 3.2 < drift_coarse / drift_fine < 4.8

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_an_ensemble_steps_as_each_of_its_fields_steps_alone(self, dim):
        lat = Lattice(dim, 8)
        disp = next_nearest_dispersion(dim)
        ens = sample_initial(lat, smooth_spectrum(lat), 3, seed=9, coupling=0.6)
        each = [integrate_ensemble(one(ens.fields[i], lat, coupling=0.6), disp, 0.02, 5).fields[0] for i in range(3)]
        assert integrate_ensemble(ens, disp, 0.02, 5).fields.tobytes() == np.stack(each).tobytes()

    def test_step_guard(self):
        lat = Lattice(1, 32)
        disp = nearest_neighbor_dispersion(1)  # max omega = 4
        state = one(np.ones(32, complex), lat)
        with pytest.raises(GuardError):
            integrate_ensemble(state, disp, dt=0.2, n_steps=1)
        with pytest.raises(GuardError):
            integrate_ensemble(state, disp, dt=math.nan, n_steps=1)

    def test_rejects_negative_step_count(self):
        lat = Lattice(1, 32)
        with pytest.raises(ConfigError):
            integrate_ensemble(one(np.ones(32, complex), lat), zero_dispersion(1), dt=0.1, n_steps=-1)


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

    def test_zero_steps_leave_the_field_alone(self):
        lat = Lattice(1, 16)
        ens = sample_initial(lat, smooth_spectrum(lat), 4, seed=2, coupling=0.5)
        out = integrate_ensemble(ens, nearest_neighbor_dispersion(1), 0.1, 0)
        assert np.array_equal(out.fields, ens.fields) and out.r_integral == ens.r_integral

    def test_non_finite_step_trips_the_guard(self):
        lat = Lattice(1, 16)
        state = one(np.full(16, 0.5 + 0.5j), lat, coupling=math.inf)
        with pytest.raises(GuardError, match="non-finite"):
            integrate_ensemble(state, nearest_neighbor_dispersion(1), 0.05, 3)

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

    @pytest.mark.parametrize(
        "dim, n_real, coupling, dt",
        [(3, 70, 0.6, 0.04), (3, 9, 0.0, 0.04), (2, 40, 0.8, 0.05), (2, 40, 0.0, -0.05), (2, 5, 0.5, -0.05)],
    )
    def test_has_the_bytes_of_the_whole_array_step_loop(self, dim, n_real, coupling, dt):
        # 8^3 holds 64 realizations per block, so 70 make two blocks; 8^2 holds 512
        lat = Lattice(dim, 8)
        disp = nearest_neighbor_dispersion(dim)
        ens = sample_initial(lat, smooth_spectrum(lat), n_real, seed=31, coupling=coupling)
        out = integrate_ensemble(ens, disp, dt, 12, threads=2)
        want_fields, want_r = reference_split_steps(ens, disp, dt, 12)
        assert out.fields.tobytes() == want_fields.tobytes()
        if n_real * lat.size <= dnls.BLOCK_SITES:  # one block sums rho as the oracle does
            assert out.r_integral == want_r
        else:
            assert out.r_integral == pytest.approx(want_r, rel=1e-13)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("coupling", [0.0, 0.5])
    @pytest.mark.parametrize("make_disp", [zero_dispersion, nearest_neighbor_dispersion])
    def test_has_the_bytes_of_the_whole_array_step_loop_on_a_single_site_field(self, dim, coupling, make_disp):
        # a delta field holds exact zeros of either sign, where rho and so the phase angle vanish
        lat = Lattice(dim, 8)
        fields = np.zeros((3,) + lat.shape, dtype=complex)
        fields[(slice(None),) + (0,) * dim] = [1.0, -0.5j, 0.25 - 0.75j]
        ens = LatticeEnsemble(lat, fields, coupling=coupling)
        disp = make_disp(dim)
        out = integrate_ensemble(ens, disp, 0.04, 7)
        want_fields, want_r = reference_split_steps(ens, disp, 0.04, 7)
        assert out.fields.tobytes() == want_fields.tobytes() and out.r_integral == want_r

    def test_hamiltonian_of_a_stack_is_the_sum(self):
        lat = Lattice(2, 8)
        disp = next_nearest_dispersion(2)
        ens = sample_initial(lat, smooth_spectrum(lat), 6, seed=8, coupling=0.4)
        each = [one(ens.fields[i], lat, coupling=0.4) for i in range(6)]
        assert hamiltonian(ens, disp) == pytest.approx(sum(hamiltonian(e, disp) for e in each), rel=1e-12)
        assert ell2_mass(ens) == pytest.approx(sum(ell2_mass(e) for e in each), rel=1e-12)


class TestLatticeTransforms:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("side", [2, 4, 8, 16, 32, 64])
    @pytest.mark.parametrize("batch", [(), (3,)])
    @pytest.mark.parametrize("inverse", [False, True])
    def test_has_the_bytes_of_numpy_fftn(self, dim, side, batch, inverse):
        rng = np.random.default_rng([dim, side, len(batch)])
        shape = batch + (side,) * dim
        src = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        # the unscaled inverse (norm="forward") is the one the collision engine uses
        for norm in ("backward", "forward") if inverse else ("backward",):
            want = (np.fft.ifftn if inverse else np.fft.fftn)(src, axes=tuple(range(-dim, 0)), norm=norm)
            assert dnls._lattice_fft(src, dim, inverse, norm=norm).tobytes() == want.tobytes()
            in_place = src.copy()
            dnls._lattice_fft(in_place, dim, inverse, out=in_place, norm=norm)
            assert in_place.tobytes() == want.tobytes()

    def test_a_missing_pocketfft_extension_is_an_import_error_that_names_its_path(self, monkeypatch):
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".absent.so"])
        with pytest.raises(ImportError, match=r"_pocketfft[/\\]pypocketfft\.absent\.so"):
            dnls._load_pocketfft()

    @pytest.mark.parametrize(
        "rate",
        # h * coupling for coupling 0 (either sign of dt), small and large steps, negative dt
        [0.0, -0.0, 0.02, -0.02, 0.5 * -0.05 * 0.7, 3.0, 1e-300, -1e-300, 123.4],
    )
    def test_split_phase_has_the_bytes_of_the_complex_exp(self, rate):
        rng = np.random.default_rng(3)
        rho = np.concatenate(
            [
                [0.0, 5e-324, 1e-310, 1e-300, 0.5, 1.0, 2.5, 1e300],
                np.abs(rng.standard_normal(2000)) * 3.0,
                10.0 ** rng.uniform(-320.0, 300.0, 2000),
            ]
        )
        want = np.exp(np.multiply(-1j * rate, rho))
        assert dnls._split_phase(rate, rho).tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_ensemble_transforms_are_the_same_at_any_thread_count(self, monkeypatch, dim):
        # blocks of 3 over 8 realizations; each consumer keeps numpy's whole-array bytes
        lat = Lattice(dim, 4)
        monkeypatch.setattr(dnls, "BLOCK_SITES", 3 * lat.size)
        disp = next_nearest_dispersion(dim)
        ens = sample_initial(lat, smooth_spectrum(lat), 8, seed=17, coupling=0.4)
        hats = np.fft.fftn(ens.fields, axes=ens.spatial_axes)
        per_real = np.abs(hats) ** 2 / lat.size
        energy = float(np.sum(disp.omega(lat) * np.abs(hats) ** 2)) / lat.size + 0.2 * float(
            np.sum(np.abs(ens.fields) ** 4)
        )
        for threads in (1, 2, 3):
            assert ens.fourier(threads).tobytes() == hats.tobytes()
            values, _ = estimate_W(ens, threads=threads)
            assert values.tobytes() == per_real.mean(axis=0).tobytes()
            assert hamiltonian(ens, disp, threads=threads) == energy
        assert one(ens.fields[5], lat, coupling=0.4).fourier().tobytes() == hats[5].tobytes()

    def test_empty_ensemble_is_a_config_error(self):
        lat = Lattice(2, 4)
        with pytest.raises(ConfigError, match="ensemble size must be at least 1"):
            LatticeEnsemble(lat, np.empty((0,) + lat.shape, dtype=complex))


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
    @pytest.mark.parametrize("zero_modes", [False, True])
    def test_each_realization_is_its_own_keyed_draw(self, monkeypatch, family, threads, zero_modes):
        # blocks of 3 over 8 realizations: the rekeyed generator, the modes built
        # in the ensemble and the batched inverse FFT give the bytes of a fresh
        # Philox(key=[seed, i]) alone, also where w0 is zero
        lat = Lattice(2, 4)
        monkeypatch.setattr(dnls, "BLOCK_SITES", 3 * lat.size)
        w0 = smooth_spectrum(lat)
        if zero_modes:
            w0.flat[::3] = 0.0
        ens = sample_initial(lat, w0, 8, seed=97, family=family, threads=threads)
        for i in range(8):
            assert ens.fields[i].tobytes() == sampled_realization(w0, 97, i, family).tobytes()

    def test_mode_block_has_the_bytes_of_the_numpy_expressions(self):
        # signed zeros in both draws and zero amplitudes, which a Philox stream
        # practically never yields
        rng = np.random.default_rng(8)
        shape = (5, 4, 4)
        amplitude = np.abs(rng.standard_normal(shape[1:]))
        amplitude[0, :3] = 0.0
        draws = rng.standard_normal((shape[0], 2) + shape[1:])
        draws[0, :, 0, :4] = [[0.0, -0.0, 0.0, -0.0], [0.0, 0.0, -0.0, -0.0]]
        draws[1, :, 0, :2] = -0.0
        want = amplitude * (draws[:, 0] + 1j * draws[:, 1]) / np.sqrt(2.0)
        assert dnls._modes(amplitude, draws, True, np.empty(shape, dtype=complex)).tobytes() == want.tobytes()
        phases = rng.uniform(0.0, 2.0 * np.pi, shape)
        phases[0, 0, :2] = [0.0, -0.0]
        want = amplitude * np.exp(1j * phases)
        assert dnls._modes(amplitude, phases, False, np.empty(shape, dtype=complex)).tobytes() == want.tobytes()

    def test_estimate_w_recovers_spectrum(self):
        lat = Lattice(1, 16)
        w0 = smooth_spectrum(lat)
        ens = sample_initial(lat, w0, 10_000, seed=42, family="gaussian")
        values, stderr = estimate_W(ens)
        z = np.abs(values - w0) / stderr
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
        value, stderr = coincident_fourth_cumulant(ens)
        # closed form per mode: kappa4 = -(mode power)^2, so the coincident
        # value is -(1/L^2) sum_k W^2 = -w^2 / L for a flat spectrum
        expected = -(0.8**2) / 16
        assert value + 3.0 * stderr < 0.0
        assert abs(value - expected) < 4.0 * stderr

    def test_gaussian_fourth_cumulant_vanishes(self):
        lat = Lattice(1, 16)
        ens = sample_initial(lat, smooth_spectrum(lat), 10_000, seed=42, family="gaussian")
        value, stderr = coincident_fourth_cumulant(ens)
        assert abs(value) < 4.0 * stderr

    @pytest.mark.parametrize("family, seed", [("fixed-modulus", 8), ("gaussian", 42)])
    def test_coincident_fourth_stderr_matches_loop_oracle(self, family, seed):
        lat = Lattice(2, 4)
        ens = sample_initial(lat, smooth_spectrum(lat), 700, seed=seed, family=family)
        want = reference_coincident_fourth_stderr(ens)
        value, stderr = coincident_fourth_cumulant(ens)
        assert isinstance(value, float)
        assert stderr == pytest.approx(want, rel=1e-12)

    def test_rejects_negative_spectrum(self):
        lat = Lattice(1, 16)
        w0 = smooth_spectrum(lat)
        w0[3] = -0.01
        with pytest.raises(ConfigError):
            sample_initial(lat, w0, 10, seed=0)

    READERS = {
        "sample_initial": lambda lat, w: sample_initial(lat, w, 4, seed=0),
        "fixed_modulus_fourth_norm": fixed_modulus_fourth_norm,
        "prelimit_kernel": lambda lat, w: prelimit_kernel(
            w, 0.5, 0.25, CollisionConfig(lattice=lat, dispersion=nearest_neighbor_dispersion(1))
        ),
    }

    @pytest.mark.parametrize("reader", list(READERS))
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_spectrum_readers_reject_non_finite_entries(self, reader, bad):
        lat = Lattice(1, 8)
        w0 = np.full(8, 0.5)
        w0[2] = bad
        call = self.READERS[reader]
        with pytest.raises(ConfigError, match="non-finite"):
            call(lat, w0)
        with pytest.raises(ConfigError, match="does not match lattice shape"):
            call(lat, np.ones(4))

    @pytest.mark.parametrize("reader", list(READERS))
    @pytest.mark.parametrize(
        "w0",
        [np.ones(8) * (1 + 5j), np.full(8, "1"), np.ones(8, dtype=bool), np.ones(8, dtype=object)],
        ids=["complex", "text", "bool", "object"],
    )
    def test_spectrum_readers_reject_arrays_that_are_not_real(self, reader, w0):
        with pytest.raises(ConfigError, match="spectrum must be a real array"):
            self.READERS[reader](Lattice(1, 8), w0)

    @pytest.mark.parametrize("reader", list(READERS))
    def test_spectrum_readers_take_integer_and_float32_arrays_as_floats(self, reader):
        lat = Lattice(1, 8)
        want = self.READERS[reader](lat, np.full(8, 2.0))
        for w0 in (np.full(8, 2), np.full(8, 2, dtype=np.uint8), np.full(8, 2.0, dtype=np.float32)):
            got = self.READERS[reader](lat, w0)
            assert repr(got) == repr(want)

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
        values, _ = estimate_W(ens)
        assert float(values.mean()) == pytest.approx(ell2_mass(ens) / ens.fields.size, rel=1e-12)


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
        density = ell2_mass(evolved) / evolved.fields.size
        assert evolved.r_integral == pytest.approx(2.0 * density * evolved.time, rel=1e-12)

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

    def test_probe_stderr_is_the_sample_std_error_per_component(self):
        lat = Lattice(1, 8)
        ens = sample_initial(lat, smooth_spectrum(lat), 400, seed=3)
        for probe in gauge_audit(ens, max_order=3).probes:
            product = np.ones(400, dtype=complex)
            for site, sign in zip(probe.sites, probe.signs):
                column = ens.fields[(slice(None),) + site]
                product = product * (column if sign == 1 else np.conj(column))
            assert probe.value == pytest.approx(complex(product.mean()), rel=1e-12)
            for got, part in zip(probe.stderr, (product.real, product.imag)):
                assert got == pytest.approx(float(part.std(ddof=1)) / math.sqrt(400), rel=1e-12)


class TestFreePropagator:
    def test_is_delta_at_time_zero(self):
        lat = Lattice(3, 8)
        p0 = dnls._propagator(lat, nearest_neighbor_dispersion(3).omega(lat), 0.0)
        expected = np.zeros(lat.shape)
        expected[0, 0, 0] = 1.0
        assert np.max(np.abs(p0 - expected)) < 1e-14

    def test_unit_l2_norm_for_all_times(self):
        lat = Lattice(3, 8)
        disp = nearest_neighbor_dispersion(3)
        for t in (0.5, 3.7, 21.0):
            p_t = dnls._propagator(lat, disp.omega(lat), t)
            assert abs(float(np.sum(np.abs(p_t) ** 2)) - 1.0) < 1e-12

    def test_matches_direct_fourier_sum(self):
        lat = Lattice(1, 8)
        disp = nearest_neighbor_dispersion(1)
        omega = disp.omega(lat)
        p_t = dnls._propagator(lat, omega, 1.3)
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


def pinned_pairs(w0: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
    """Pinned second cumulants of a phase-invariant 1-d law with spectrum ``w0``:
    kappa(conj psi(0), psi(x)) = L^-1 sum_k W(k) e^{i 2 pi k x}, and its conjugate."""
    forward = np.fft.ifft(w0)
    return {(-1, 1): forward, (1, -1): np.conj(forward)}


class TestClusteringNorms:
    def test_two_route_pair_norm_agreement(self):
        lat = Lattice(1, 32)
        w0 = smooth_spectrum(lat)
        table = pinned_pairs(w0)
        norm_fft = clustering_norm(table, 2)
        k = np.arange(32) / 32
        direct = np.array([np.sum(w0 * np.exp(1j * 2 * np.pi * k * x)) / 32 for x in range(32)])
        norm_direct = float(np.sum(np.abs(direct)))
        assert abs(norm_fft - norm_direct) < 1e-10
        # 1 + 0.5 cos transforms to delta + quarter-weight neighbors
        assert norm_fft == pytest.approx(1.5, abs=1e-12)

    def test_white_spectrum_reduces_to_single_site_variance(self):
        lat = Lattice(1, 32)
        table = pinned_pairs(np.full(32, 0.7))
        assert clustering_norm(table, 2) == pytest.approx(0.7, abs=1e-13)
        off_origin = np.sum(np.abs(table[(-1, 1)])) - abs(table[(-1, 1)][0])
        assert off_origin < 1e-13

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

    @pytest.mark.parametrize(
        "edit",
        [lambda text: text[:-3], lambda text: text.replace('"files"', '"file_list"')],
        ids=["invalid-json", "no-files-key"],
    )
    def test_malformed_manifest_is_a_config_error(self, tmp_path, edit):
        save_ensemble(sample_initial(Lattice(1, 8), np.full(8, 0.5), 3, seed=3), tmp_path)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(edit(manifest.read_text()))
        with pytest.raises(ConfigError):
            load_ensemble(tmp_path)

    def test_a_manifest_that_is_not_utf8_is_a_config_error_naming_it(self, tmp_path):
        save_ensemble(sample_initial(Lattice(1, 8), np.full(8, 0.5), 3, seed=3), tmp_path)
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(b"\xff\xfe" + manifest.read_bytes())
        with pytest.raises(ConfigError, match=re.escape(f"{manifest} is not UTF-8 text")):
            load_ensemble(tmp_path)

    @pytest.mark.parametrize("field", ["coupling", "time", "r_integral"])
    def test_non_finite_manifest_entry_writes_nothing(self, tmp_path, field):
        ens = replace(sample_initial(Lattice(1, 8), np.full(8, 0.5), 3, seed=3), **{field: math.nan})
        with pytest.raises(GuardError, match="not finite"):
            save_ensemble(ens, tmp_path / "ens")
        assert not any((tmp_path / "ens").iterdir())

    @pytest.mark.parametrize(
        "write, message",
        [
            (lambda path: np.save(path, np.array([0.5] * 7 + [math.nan], dtype="<c16")), "has a non-finite entry"),
            (lambda path: np.save(path, np.full(8, 0.5)), "has dtype <f8, expected <c16"),
            (lambda path: np.save(path, np.full(8, 0.5, dtype=">c16")), "has dtype >c16, expected <c16"),
            (lambda path: path.write_text("0.5 0.5 0.5 0.5 0.5 0.5 0.5 0.5\n"), "is not a readable .npy array"),
            (lambda path: np.save(path, np.array(["0.5"] * 8)), "has dtype <U3, expected <c16"),
            (lambda path: np.save(path, np.full(8, 0.5 + 0j, dtype=object)), "is not a readable .npy array"),
            (lambda path: path.write_bytes(b""), "is not a readable .npy array"),
        ],
        ids=["nan", "float64", "big-endian", "text", "strings", "pickled-objects", "empty"],
    )
    def test_a_realization_file_that_contradicts_the_manifest_is_a_config_error(self, tmp_path, write, message):
        save_ensemble(sample_initial(Lattice(1, 8), np.full(8, 0.5), 3, seed=3), tmp_path)
        path = tmp_path / "realization_00001.npy"
        write(path)
        with pytest.raises(ConfigError, match=re.escape(f"{path} {message}")):
            load_ensemble(tmp_path)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.5, -math.inf)])
    def test_non_finite_field_writes_nothing(self, tmp_path, bad):
        ens = sample_initial(Lattice(1, 8), np.full(8, 0.5), 3, seed=3)
        ens.fields[2, 5] = bad
        with pytest.raises(GuardError, match="non-finite"):
            save_ensemble(ens, tmp_path / "ens")
        assert not (tmp_path / "ens").exists()

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
        values, stderr = estimate_W(ens)
        path = tmp_path / "w.csv"
        write_spectrum_csv(lat, values, path, stderr)
        k_rows, read_values, read_stderr = read_spectrum_csv(path)
        assert k_rows.shape == (64, 2)
        assert np.array_equal(read_values, values.ravel())
        assert np.array_equal(read_stderr, stderr.ravel())
        # deterministic bytes on rewrite
        second = tmp_path / "again.csv"
        write_spectrum_csv(lat, values, second, stderr)
        assert path.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "values, stderr, bad",
        [(np.ones(16), None, "values"), (np.ones((4, 4)), np.ones(16), "stderr"), (np.ones((4, 2)), np.ones((4, 2)), "values")],
        ids=["flat-values", "flat-stderr", "both"],
    )
    def test_spectrum_csv_of_the_wrong_shape_is_a_config_error_and_writes_nothing(self, tmp_path, values, stderr, bad):
        path = tmp_path / "w.csv"
        with pytest.raises(ConfigError, match=f"spectrum {bad} shape"):
            write_spectrum_csv(Lattice(2, 4), values, path, stderr)
        assert not path.exists()

    def test_spectrum_csv_without_errors(self, tmp_path):
        lat = Lattice(1, 4)
        spec = np.array([1.0, 2.0, 3.0, 4.0])
        path = tmp_path / "w.csv"
        write_spectrum_csv(lat, spec, path)
        _, values, stderr = read_spectrum_csv(path)
        assert stderr is None
        assert np.array_equal(values, spec)
