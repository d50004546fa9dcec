"""Tests for the cumulant evolution hierarchy.

Oracles used here:
  * hand-expanded partition sums for small right-hand sides (values frozen),
  * the matrix exponential (scipy.linalg.expm) for linearly coupled chains,
  * the closed exponential solution of a self-driven scalar closure,
  * direct polynomial expansion of the pair force for the quartic chain,
  * finite differences in time, both for the Leibniz term list and for an
    interacting ensemble whose empirical law must follow the hierarchy.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from scipy.linalg import expm

from wickkit.cumulants import (
    CumulantTable,
    EnsembleOracle,
    TableOracle,
    cumulant_table_from_oracle,
)
from wickkit import hierarchy, wick
from wickkit.hierarchy import (
    AmplitudeModel,
    DuhamelExpansion,
    HierarchyPlan,
    InteractionTerm,
    all_keys_up_to,
    appendix_b_model,
    constant_amplitude,
    duhamel_expand,
    hierarchy_rhs,
    hierarchy_rhs_table,
    integrate_hierarchy,
)
from wickkit.indexing import LabeledSeq, partition_sum
from wickkit.wick import wick_from_cumulants

from _support import (
    LinearCombinationOracle,
    brute_product_expectation,
    multiset,
    random_moment_oracle,
    reference_hierarchy_rhs,
    reference_integrate_hierarchy,
    substitute_index,
)


def scalar_model(entries) -> AmplitudeModel:
    """Drives on a single variable "x": [(index tuple, amplitude), ...]."""
    terms = [
        InteractionTerm(seq=idx, amplitude=constant_amplitude(c))
        for idx, c in entries
    ]
    return AmplitudeModel(terms={"x": terms})


class TestRhsHandValues:
    """Right-hand sides frozen from hand-expanded partition sums."""

    @pytest.fixture()
    def model(self):
        return scalar_model([((), 2.5), (("x",), 7.0), (("x", "x"), -3.0)])

    @pytest.fixture()
    def table(self):
        return CumulantTable(
            entries={
                ("x",): 0.4,
                ("x", "x"): 0.9,
                ("x", "x", "x"): -0.2,
                ("x", "x", "x", "x"): 0.1,
            },
            max_order=4,
        )

    def test_mean_feels_only_the_constant_drive(self, model, table):
        # E[W[y^I] * W[empty]] is 1 for I empty and 0 otherwise.
        assert hierarchy_rhs(model, table, ("x",)) == pytest.approx(2.5)

    def test_second_order_target(self, model, table):
        # 2 * (7 * k_xx - 3 * k_xxx) = 2 * (6.3 + 0.6)
        got = hierarchy_rhs(model, table, ("x", "x"))
        assert got == pytest.approx(13.8)

    def test_third_order_target(self, model, table):
        # 3 * (7 * k_xxx - 3 * (k_xxxx + 2 k_xx^2)) = 3 * (-1.4 - 5.16)
        got = hierarchy_rhs(model, table, ("x", "x", "x"))
        assert got == pytest.approx(-19.68)

    def test_undriven_index_contributes_nothing(self, model):
        table = CumulantTable(
            entries={("x", "z"): 0.3, ("x", "x", "z"): 0.05}, max_order=4
        )
        # only the x slot drives: 7 * k_xz - 3 * k_xxz
        got = hierarchy_rhs(model, table, ("x", "z"))
        assert got == pytest.approx(2.1 - 0.15)

    def test_empty_target_is_stationary(self, model, table):
        assert hierarchy_rhs(model, table, ()) == 0

    def test_target_above_cap_rejected(self, model, table):
        with pytest.raises(ValueError, match="closure cap"):
            hierarchy_rhs(model, table, ("x", "x", "x", "x", "x"))

    def test_rhs_table_matches_pointwise(self, model, table):
        keys = [("x",), ("x", "x")]
        rhs = hierarchy_rhs_table(model, table, keys)
        assert rhs[("x",)] == pytest.approx(2.5)
        assert rhs[("x", "x")] == pytest.approx(13.8)

    def test_state_dependent_amplitude_is_consulted(self, table):
        # amplitude reads the current k_xx off the table
        term = InteractionTerm(
            seq=("x",), amplitude=lambda t, tab: tab.kappa(("x", "x"))
        )
        model = AmplitudeModel(terms={"x": [term]})
        got = hierarchy_rhs(model, table, ("x", "x"))
        # 2 slots * k_xx(amplitude) * k_xx(pair expectation)
        assert got == pytest.approx(2 * 0.9 * 0.9)


def as_bytes(values) -> list[tuple[str, str]]:
    """Complex values by their exact bits (``hex`` tells -0.0 from 0.0)."""
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


def counting(amplitude, calls: list):
    def counted(t, table):
        calls.append(t)
        return amplitude(t, table)

    return counted


def bench_size_model(seed: int = 3) -> tuple[AmplitudeModel, CumulantTable]:
    """Three variables with drives of degrees 1, 1, 2, 2, 3 and 3 each and an order-5 table."""
    rng = np.random.default_rng(seed)
    terms = {
        index: [
            InteractionTerm(
                tuple(int(i) for i in rng.integers(1, 4, degree)),
                constant_amplitude(complex(*rng.uniform(-0.5, 0.5, 2))),
            )
            for degree in (1, 1, 2, 2, 3, 3)
        ]
        for index in (1, 2, 3)
    }
    table = CumulantTable(
        entries={key: complex(*rng.uniform(-0.5, 0.5, 2)) for key in all_keys_up_to((1, 2, 3), 5)},
        max_order=5,
    )
    return AmplitudeModel(terms=terms), table


class TestHierarchyPlan:
    """The plan against the term-by-term loop (``reference_hierarchy_rhs``), byte for byte."""

    @pytest.fixture()
    def labelled(self):
        """String indices, repeats, an empty drive, a drive on an index no target holds, and zeros."""
        table = CumulantTable(
            entries={
                key: complex(0.1 * (n + 1), -0.05 * n)
                for n, key in enumerate(all_keys_up_to(("a", "b"), 4))
            },
            max_order=4,
        )
        model = AmplitudeModel(
            terms={
                "a": [
                    InteractionTerm((), constant_amplitude(0.7)),
                    InteractionTerm(("b", "a"), constant_amplitude(0.0)),
                    InteractionTerm(("a", "a", "b"), lambda t, tab: tab.kappa(("a", "b"))),
                ],
                "b": [
                    InteractionTerm(("a",), constant_amplitude(-1.3 + 0.4j)),
                    InteractionTerm(("b", "b"), lambda t, tab: 0.0 if t < 1.0 else 0.5),
                ],
                "c": [InteractionTerm(("a",), constant_amplitude(2.0))],
            }
        )
        return model, table

    @pytest.mark.parametrize("time", [0.0, 1.5])
    def test_table_has_the_bytes_of_the_term_by_term_loop(self, labelled, time):
        model, table = labelled
        keys = all_keys_up_to(("a", "b"), 4)
        want = [reference_hierarchy_rhs(model, table, key, time) for key in keys]
        got = hierarchy_rhs_table(model, table, keys, time)
        assert list(got) == keys
        assert as_bytes(got.values()) == as_bytes(want)

    def test_each_evaluation_sums_over_its_own_table(self, labelled):
        model, a = labelled
        b = CumulantTable(entries={key: 2.0 * v - 0.1j for key, v in a.entries.items()}, max_order=4)
        keys = all_keys_up_to(("a", "b"), 4)
        plan = HierarchyPlan(model, keys)
        # table A, then B, then A again: no evaluation reads the sums of another table
        first, on_b, again = (plan.evaluate(t, 1.5)[0] for t in (a, b, a))
        want = [reference_hierarchy_rhs(model, a, key, 1.5) for key in keys]
        assert as_bytes(first) == as_bytes(again) == as_bytes(want)
        fresh, _ = HierarchyPlan(model, keys).evaluate(b, 1.5)
        assert as_bytes(on_b) == as_bytes(fresh) != as_bytes(first)

    def test_a_labelled_target_has_the_bytes_of_the_loop(self, labelled):
        model, table = labelled
        for target in (("a", "b", "a"), ("b", "a", "a", "b"), ()):
            got = hierarchy_rhs(model, table, target, 1.5)
            assert as_bytes([got]) == as_bytes([reference_hierarchy_rhs(model, table, target, 1.5)])

    def test_each_amplitude_is_called_once_per_stage(self):
        calls: list[float] = []
        shared = counting(constant_amplitude(0.2), calls)
        model = AmplitudeModel(
            terms={
                "x": [
                    InteractionTerm(("y",), shared),
                    InteractionTerm(("x", "y"), counting(constant_amplitude(-0.1), calls)),
                ],
                "y": [
                    InteractionTerm(("x",), shared),
                    InteractionTerm((), counting(lambda t, tab: tab.kappa(("x",)), calls)),
                ],
            }
        )
        table = CumulantTable(
            entries={key: 0.1 * len(key) for key in all_keys_up_to(("x", "y"), 3)}, max_order=3
        )
        keys = all_keys_up_to(("x", "y"), 3)
        hierarchy_rhs_table(model, table, keys)
        assert len(calls) == 3  # one plan over all the targets: three distinct callables
        calls.clear()
        integrate_hierarchy(model, table, t_end=0.05, dt=0.01)
        assert len(calls) == 5 * 4 * 3  # 5 RK4 steps of 4 stages, three distinct callables

    def test_the_kernel_runs_once_per_pair_code_the_memo_lacks(self, monkeypatch):
        model, table = bench_size_model()
        keys = all_keys_up_to((1, 2, 3), 5)
        runs = []
        monkeypatch.setattr(wick, "partition_sum", lambda *args: runs.append(1) or partition_sum(*args))
        _, work = HierarchyPlan(model, keys).evaluate(table)
        # the distinct (drive, rest) multiset pairs, counted without the plan
        pairs = {
            (multiset(term.seq), multiset(key[:i] + key[i + 1:]))
            for key in keys
            for i, idx in enumerate(key)
            for term in model.terms[idx]
        }
        n_terms = sum(len(model.terms[idx]) for key in keys for idx in key)
        assert n_terms == 1260
        assert work["pair_expectations"] == len(pairs)
        assert len(runs) == work["pair_expectations"] - work["pair_memo_hits"] < n_terms
        # the table sums each distinct pair once too
        runs.clear()
        hierarchy_rhs_table(model, table, keys)
        assert len(runs) == len(pairs)

    def test_march_has_the_bytes_of_the_term_by_term_march(self):
        lam = np.array([[0.0, 0.9], [0.9, 0.0]])
        model = appendix_b_model(2, power=4, couplings=lam)
        rng = np.random.default_rng(5)
        table0 = CumulantTable(
            entries={key: 0.1 * complex(*rng.standard_normal(2)) for key in all_keys_up_to(model.universe(), 3)},
            max_order=3,
        )
        final = integrate_hierarchy(model, table0, t_end=0.03, dt=0.01)
        want = reference_integrate_hierarchy(model, table0, t_end=0.03, dt=0.01)
        keys = all_keys_up_to(model.universe(), 3)
        assert len(keys) == 34
        assert as_bytes(final.kappa(key) for key in keys) == as_bytes(want.kappa(key) for key in keys)

    def test_one_plan_serves_tables_of_any_code_order(self, labelled):
        model, table = labelled
        keys = all_keys_up_to(("a", "b"), 4)
        plan = HierarchyPlan(model, keys)
        tables = [CumulantTable(max_order=4), CumulantTable(max_order=4)]
        for entries in (dict(table.entries), dict(reversed(table.entries.items()))):
            tables.append(CumulantTable(entries={key: 2.0 * v - 0.1j for key, v in entries.items()}, max_order=4))
        for table in tables:
            got, _ = plan.evaluate(table, 1.5)
            want = [reference_hierarchy_rhs(model, table, key, 1.5) for key in keys]
            assert as_bytes(got) == as_bytes(want)

    def test_march_across_a_zero_amplitude_switch(self, labelled):
        model, table = labelled
        # the "b", "b" drive switches on at t = 1
        want = reference_integrate_hierarchy(model, table, t_end=0.08, dt=0.02, t0=0.96)
        final = integrate_hierarchy(model, table, t_end=0.08, dt=0.02, t0=0.96)
        keys = all_keys_up_to(model.universe(), 4)
        assert as_bytes(final.kappa(key) for key in keys) == as_bytes(want.kappa(key) for key in keys)

    def test_the_table_builds_one_plan_over_its_distinct_targets(self, monkeypatch):
        model, table = bench_size_model()
        keys = all_keys_up_to((1, 2, 3), 3)
        plans = []
        plan_class = hierarchy.HierarchyPlan

        def recording(m, targets):
            plans.append(list(targets))
            return plan_class(m, targets)

        monkeypatch.setattr(hierarchy, "HierarchyPlan", recording)
        hierarchy_rhs_table(model, table, keys + [tuple(reversed(key)) for key in keys[-3:]])
        assert plans == [keys]


class TestKeyEnumeration:
    def test_counts_two_indices_order_four(self):
        keys = all_keys_up_to(["u", "v"], 4)
        assert len(keys) == 2 + 3 + 4 + 5

    def test_counts_four_indices_order_two(self):
        keys = all_keys_up_to(list("abcd"), 2)
        assert len(keys) == 4 + 10

    def test_keys_are_canonical_and_deduplicated(self):
        keys = all_keys_up_to(["b", "a", "a"], 2)
        assert keys == [("a",), ("b",), ("a", "a"), ("a", "b"), ("b", "b")]


class TestSelfDrivenClosure:
    """d/dt y = alpha * W[y] rescales every cumulant: k_n(t) = e^(n a t) k_n(0)
    for n >= 2, while the mean is frozen (the drive is centered)."""

    def test_exponential_rescaling_all_orders(self):
        alpha = 0.3
        model = scalar_model([(("x",), alpha)])
        table0 = CumulantTable(
            entries={
                ("x",): 0.7,
                ("x", "x"): 0.9,
                ("x", "x", "x"): -0.4,
                ("x", "x", "x", "x"): 0.25,
            },
            max_order=4,
        )
        t_end = 0.5
        times, tables = integrate_hierarchy(
            model, table0, t_end=t_end, dt=0.002, record=True
        )
        final = tables[-1]
        assert times[-1] == pytest.approx(t_end)
        assert final.kappa(("x",)) == pytest.approx(0.7, rel=1e-10)
        for n, k0 in [(2, 0.9), (3, -0.4), (4, 0.25)]:
            got = final.kappa(("x",) * n)
            want = k0 * math.exp(n * alpha * t_end)
            assert got == pytest.approx(want, rel=1e-9)

    def test_record_returns_trajectory(self):
        model = scalar_model([(("x",), 0.3)])
        table0 = CumulantTable(entries={("x", "x"): 1.0}, max_order=2)
        times, tables = integrate_hierarchy(
            model, table0, t_end=0.1, dt=0.05, record=True
        )
        assert times == pytest.approx([0.0, 0.05, 0.1])
        assert len(tables) == 3
        assert tables[0].kappa(("x", "x")) == pytest.approx(1.0)


def harmonic_setup():
    """A two-particle harmonic chain plus its exact linear-flow matrices."""
    lam = np.array([[0.0, 0.7], [0.7, 0.0]])
    lap = np.diag(lam.sum(axis=1)) - lam
    a_mat = np.block(
        [
            [np.zeros((2, 2)), np.eye(2)],
            [-lap, np.zeros((2, 2))],
        ]
    )
    idx = [("q", 0), ("q", 1), ("p", 0), ("p", 1)]
    m0 = np.array([0.3, -0.2, 0.1, 0.4])
    b = np.array(
        [
            [0.6, 0.1, -0.3, 0.2],
            [-0.2, 0.8, 0.1, 0.0],
            [0.3, -0.1, 0.7, 0.4],
            [0.1, 0.2, -0.2, 0.9],
        ]
    )
    c0 = b @ b.T + 0.5 * np.eye(4)
    entries = {}
    for i in range(4):
        entries[(idx[i],)] = m0[i]
        for j in range(i, 4):
            entries[(idx[i], idx[j])] = c0[i, j]
    table0 = CumulantTable(entries=entries, max_order=2)
    return lam, a_mat, idx, m0, c0, table0


class TestHarmonicChainAgainstMatrixExponential:
    def test_means_and_covariances_track_the_linear_flow(self):
        lam, a_mat, idx, m0, c0, table0 = harmonic_setup()
        model = appendix_b_model(2, power=2, couplings=lam)
        t_end = 1.0
        final = integrate_hierarchy(
            model, table0, t_end=t_end, dt=0.005
        )
        prop = expm(a_mat * t_end)
        m1 = prop @ m0
        c1 = prop @ c0 @ prop.T
        for i in range(4):
            assert final.kappa((idx[i],)) == pytest.approx(
                m1[i], abs=1e-8
            ), f"mean of {idx[i]}"
            for j in range(i, 4):
                assert final.kappa((idx[i], idx[j])) == pytest.approx(
                    c1[i, j], abs=1e-8
                ), f"covariance of {idx[i]}, {idx[j]}"

    def test_quadratic_invariant_is_conserved(self):
        # total energy 0.5 E[p^T p] + 0.5 E[q^T L q] is constant
        lam, a_mat, idx, m0, c0, table0 = harmonic_setup()
        lap = np.diag(lam.sum(axis=1)) - lam
        model = appendix_b_model(2, power=2, couplings=lam)

        def energy(table):
            second = np.array(
                [
                    [
                        (table.kappa((idx[i], idx[j])) + m_of(table, i) * m_of(table, j)).real
                        for j in range(4)
                    ]
                    for i in range(4)
                ]
            )
            return 0.5 * (
                second[2, 2]
                + second[3, 3]
                + sum(
                    lap[i, j] * second[i, j]
                    for i in range(2)
                    for j in range(2)
                )
            )

        def m_of(table, i):
            return table.kappa((idx[i],)).real

        final = integrate_hierarchy(model, table0, 0.8, 0.005)
        assert energy(final) == pytest.approx(energy(table0), rel=1e-9)


class TestQuarticChainModel:
    """The drive family must reproduce -lam*(q_n - q_m)^3 exactly as a
    polynomial, for an arbitrary formal law feeding the amplitudes."""

    def expanded_force(self, model, driven, oracle):
        dummy = CumulantTable(max_order=1)
        total: dict[tuple, complex] = {}
        for term in model.terms[driven]:
            amp = term.amplitude(0.0, dummy)
            poly = wick_from_cumulants(oracle, LabeledSeq.from_indices(term.seq))
            for key, c in poly.multiset_terms().items():
                total[key] = total.get(key, 0.0 + 0.0j) + amp * c
        return {k: v for k, v in total.items() if abs(v) > 1e-12}

    def test_force_polynomial_identity(self):
        rng = np.random.default_rng(7)
        q0, q1 = ("q", 0), ("q", 1)
        oracle = random_moment_oracle(rng, alphabet=(q0, q1), max_order=6)
        lamval = 0.9
        lam = np.array([[0.0, lamval], [lamval, 0.0]])
        model = appendix_b_model(2, power=4, couplings=lam, oracle=oracle)

        got = self.expanded_force(model, ("p", 0), oracle)
        want = {
            (q0, q0, q0): -lamval,
            (q0, q0, q1): 3 * lamval,
            (q0, q1, q1): -3 * lamval,
            (q1, q1, q1): lamval,
        }
        assert set(got) == set(want)
        for key, c in want.items():
            assert got[key] == pytest.approx(c, abs=1e-9), key

        # force on the partner particle is the negation
        got1 = self.expanded_force(model, ("p", 1), oracle)
        for key, c in want.items():
            assert got1[key] == pytest.approx(-c, abs=1e-9), key

    def test_cubic_chain_force_identity(self):
        # power=3: -lam*(q0-q1)^2 = -lam*q0^2 + 2 lam q0 q1 - lam q1^2
        rng = np.random.default_rng(11)
        q0, q1 = ("q", 0), ("q", 1)
        oracle = random_moment_oracle(rng, alphabet=(q0, q1), max_order=5)
        lam = np.array([[0.0, 1.3], [1.3, 0.0]])
        model = appendix_b_model(2, power=3, couplings=lam, oracle=oracle)
        got = self.expanded_force(model, ("p", 0), oracle)
        want = {(q0, q0): -1.3, (q0, q1): 2.6, (q1, q1): -1.3}
        assert set(got) == set(want)
        for key, c in want.items():
            assert got[key] == pytest.approx(c, abs=1e-10), key

    def test_term_counts(self):
        lam2 = np.array([[0.0, 1.0], [1.0, 0.0]])
        quartic = appendix_b_model(2, power=4, couplings=lam2)
        assert len(quartic.terms[("p", 0)]) == 10
        assert len(quartic.terms[("q", 0)]) == 2

        harmonic = appendix_b_model(2, power=2, couplings=lam2)
        assert len(harmonic.terms[("p", 0)]) == 3

        # three-particle open chain: the middle particle sees two neighbors
        lam3 = np.array(
            [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
        )
        chain = appendix_b_model(3, power=4, couplings=lam3)
        assert len(chain.terms[("p", 1)]) == 20
        assert len(chain.terms[("p", 0)]) == 10

    def test_table_amplitudes_read_each_tables_moments(self):
        # amplitudes read from the evolving table keep one moment oracle for
        # the last table; reading two tables in turn gives each its own moments
        q0, q1 = ("q", 0), ("q", 1)
        lam = np.array([[0.0, 0.9], [0.9, 0.0]])
        model = appendix_b_model(2, power=4, couplings=lam)
        rng = np.random.default_rng(12)
        tables = []
        for _ in range(2):
            entries = {
                key: complex(*rng.standard_normal(2))
                for order in (1, 2, 3)
                for key in itertools.combinations_with_replacement((q0, q1), order)
            }
            tables.append(CumulantTable(entries=entries, max_order=3))
        for table in (tables[0], tables[1], tables[0]):
            # moments by brute force over the set partitions, fed through an explicit oracle
            moments = {
                key: brute_product_expectation(
                    lambda m: table.kappa([i for i, n in m for _ in range(n)]), [], key
                )
                for order in (1, 2, 3)
                for key in itertools.combinations_with_replacement((q0, q1), order)
            }
            reference = appendix_b_model(2, power=4, couplings=lam, oracle=TableOracle(moments))
            for term, want in zip(model.terms[("p", 0)], reference.terms[("p", 0)]):
                got = term.amplitude(0.0, table)
                assert got == pytest.approx(want.amplitude(0.0, None), abs=1e-12)

    def test_universe_is_every_position_and_momentum(self):
        lam = np.array([[0.0, 1.0], [1.0, 0.0]])
        model = appendix_b_model(2, power=4, couplings=lam)
        assert model.universe() == [("p", 0), ("p", 1), ("q", 0), ("q", 1)]

    def test_validation(self):
        lam = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="at least 2"):
            appendix_b_model(2, power=1, couplings=lam)
        with pytest.raises(ValueError, match="symmetric"):
            appendix_b_model(2, power=2, couplings=[[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError, match=r"\(n, n\)"):
            appendix_b_model(3, power=2, couplings=lam)


class TestDuhamel:
    def test_zero_time_reduces_to_the_initial_cumulant(self):
        lam, a_mat, idx, m0, c0, table0 = harmonic_setup()
        model = appendix_b_model(2, power=2, couplings=lam)
        target = (("p", 0), ("p", 0))
        exp = duhamel_expand(model, table0, target, 0.0)
        assert isinstance(exp, DuhamelExpansion)
        assert exp.first_order == 0
        assert exp.value == table0.kappa(target)

    def test_first_order_equals_t_times_initial_rhs(self):
        # amplitudes are frozen at the initial table, so the first-order
        # weight is exactly t * (hierarchy rhs at time zero)
        lam, a_mat, idx, m0, c0, table0 = harmonic_setup()
        model = appendix_b_model(2, power=2, couplings=lam)
        t = 0.37
        for key in [(("q", 0), ("q", 0)), (("p", 0), ("q", 1)), (("p", 1),)]:
            exp = duhamel_expand(model, table0, key, t)
            rhs0 = hierarchy_rhs(model, table0, key, 0.0)
            assert exp.first_order == pytest.approx(t * rhs0, rel=1e-9), key

    def test_error_decays_at_second_order(self):
        lam, a_mat, idx, m0, c0, table0 = harmonic_setup()
        model = appendix_b_model(2, power=2, couplings=lam)
        target = (("q", 0), ("q", 0))

        # precondition: the curvature of k_q0q0(t) at t=0 is well away from 0
        c0_mat = np.array(
            [[table0.kappa((idx[i], idx[j])).real for j in range(4)] for i in range(4)]
        )
        curv = (
            a_mat @ a_mat @ c0_mat
            + 2 * a_mat @ c0_mat @ a_mat.T
            + c0_mat @ a_mat.T @ a_mat.T
        )[0, 0]
        assert abs(curv) > 0.1

        def err(t):
            exp = duhamel_expand(model, table0, target, t)
            prop = expm(a_mat * t)
            exact = (prop @ c0_mat @ prop.T)[0, 0]
            return abs(exp.value - exact)

        e1, e2 = err(0.02), err(0.04)
        assert e2 / e1 == pytest.approx(4.0, rel=0.25)

    def test_remainder_descriptors(self):
        lam, a_mat, idx, m0, c0, table0 = harmonic_setup()
        model = appendix_b_model(2, power=2, couplings=lam)
        target = (("q", 0), ("q", 0))
        t = 0.5
        exp = duhamel_expand(model, table0, target, t)
        # two q0 slots, two drives each
        assert len(exp.remainder) == 4
        unit = [
            r
            for r in exp.remainder
            if r.seq == (("p", 0),) and len(r.rest) == 1
        ]
        assert len(unit) == 2
        for r in unit:
            assert r.slot_index == ("q", 0)
            assert r.t_end == t
            # constant unit amplitude: tail weight from s' is t - s'
            assert r.tail_weight(t) == pytest.approx(0.0, abs=1e-12)
            assert r.tail_weight(0.0) == pytest.approx(t, rel=1e-10)
            assert r.tail_weight(0.3) == pytest.approx(t - 0.3, rel=1e-9)

    def test_each_distinct_amplitude_is_integrated_once(self, monkeypatch):
        integrals = []
        quad = hierarchy._quad_complex
        monkeypatch.setattr(hierarchy, "_quad_complex", lambda fn, a, b: integrals.append((a, b)) or quad(fn, a, b))

        def shared(t, table):
            return 0.5 + 0.1j * t

        model = AmplitudeModel(
            terms={
                "x": [InteractionTerm(("y",), shared), InteractionTerm(("x", "y"), constant_amplitude(-0.2))],
                "y": [InteractionTerm(("x",), shared)],
            }
        )
        table0 = CumulantTable(entries={key: 0.1 * len(key) for key in all_keys_up_to(("x", "y"), 3)}, max_order=3)
        target = ("x", "y", "x")
        exp = duhamel_expand(model, table0, target, 0.4)
        assert integrals == [(0.0, 0.4)] * 2  # five terms, two distinct callables
        # the integrals of 0.5 + 0.1j t and -0.2 over [0, 0.4], as constant amplitudes
        integrated = {id(shared): constant_amplitude(0.2 + 0.008j)}
        frozen = AmplitudeModel(
            terms={
                idx: [InteractionTerm(term.seq, integrated.get(id(term.amplitude), constant_amplitude(-0.08))) for term in terms]
                for idx, terms in model.terms.items()
            }
        )
        want = reference_hierarchy_rhs(frozen, table0, target)
        assert exp.first_order == pytest.approx(want, rel=1e-12)
        assert len(exp.remainder) == 5

    def test_a_target_above_the_table_order_is_refused(self):
        lam, a_mat, idx, m0, c0, table0 = harmonic_setup()
        model = appendix_b_model(2, power=2, couplings=lam)
        target = (("q", 0), ("p", 0), ("q", 1))
        with pytest.raises(ValueError, match="target order 3 exceeds the closure cap 2"):
            hierarchy_rhs(model, table0, target)
        with pytest.raises(ValueError, match="target order 3 exceeds the closure cap 2"):
            duhamel_expand(model, table0, target, 0.3)


class TestLeibniz:
    def test_product_rule_semantics_by_finite_differences(self):
        """For y(t) = u + t z, d/dt W[y^I] at t=0 must equal the sum over
        slots of W[z_slot * u^rest] -- as polynomials in the base variables,
        with the law dependence of the Wick coefficients included."""
        rng = np.random.default_rng(23)
        base = random_moment_oracle(
            rng, alphabet=("u1", "u2", "z1", "z2"), max_order=6, scale=0.4
        )
        combo = {
            "x1": [("u1", "z1")],
            "x2": [("u2", "z2")],
        }

        def law(t):
            o = base
            for comp, [(u, z)] in combo.items():
                o = LinearCombinationOracle(o, comp, [(1.0, u), (t, z)])
            return o

        seq = LabeledSeq.from_indices(("x1", "x2", "x1"))

        def mpoly_at(t):
            mp = wick_from_cumulants(law(t), seq).multiset_terms()
            for comp, [(u, z)] in combo.items():
                mp = substitute_index(mp, comp, [(1.0, u), (t, z)])
            return mp

        h = 1e-4
        plus, minus = mpoly_at(h), mpoly_at(-h)
        fd = {
            k: (plus.get(k, 0.0) - minus.get(k, 0.0)) / (2 * h)
            for k in set(plus) | set(minus)
        }

        expected: dict[tuple, complex] = {}
        dot = {"x1": "z1", "x2": "z2"}
        at0 = {"x1": "u1", "x2": "u2"}
        for label, index in seq.elements:  # one term per slot: W[z_slot * u^rest]
            indices = (dot[index],) + tuple(at0[i] for lab, i in seq.elements if lab != label)
            poly = wick_from_cumulants(base, LabeledSeq.from_indices(indices))
            for k, v in poly.multiset_terms().items():
                expected[k] = expected.get(k, 0.0 + 0.0j) + v

        for key in set(fd) | set(expected):
            assert fd.get(key, 0.0) == pytest.approx(
                expected.get(key, 0.0), abs=5e-7
            ), key


class TestEmpiricalLawFollowsTheHierarchy:
    """Evolve an interacting ensemble whose drift is its own empirical Wick
    expansion; the empirical cumulants must satisfy the hierarchy identically
    (the only errors are time discretization), since every conversion is a
    polynomial identity valid for arbitrary measures."""

    DRIVES = {
        "u": [((), 0.1), (("v",), 0.3), (("u", "v"), 0.2)],
        "v": [(("u",), -0.25), (("v", "v"), 0.15)],
    }

    def build_model(self) -> AmplitudeModel:
        return AmplitudeModel(
            terms={
                var: [
                    InteractionTerm(seq=idx, amplitude=constant_amplitude(c))
                    for idx, c in entries
                ]
                for var, entries in self.DRIVES.items()
            }
        )

    def drift(self, yu: np.ndarray, yv: np.ndarray):
        oracle = EnsembleOracle({"u": yu, "v": yv})
        values = {"u": yu, "v": yv}
        out = {}
        for var, entries in self.DRIVES.items():
            total = np.zeros_like(yu)
            for idx, c in entries:
                if not idx:
                    total = total + c
                    continue
                poly = wick_from_cumulants(
                    oracle, LabeledSeq.from_indices(idx)
                )
                total = total + c * poly.evaluate(values).real
            out[var] = total
        return out["u"], out["v"]

    def test_finite_difference_matches_rhs(self):
        rng = np.random.default_rng(123)
        n = 3000
        yu = 0.2 + 0.5 * rng.standard_normal(n)
        yv = 0.3 * rng.standard_normal(n) ** 2 - 0.1 + 0.4 * rng.standard_normal(n)

        dt, n_steps = 0.01, 10
        tables = [self.snapshot(yu, yv)]
        for _ in range(n_steps):
            k1u, k1v = self.drift(yu, yv)
            k2u, k2v = self.drift(yu + dt / 2 * k1u, yv + dt / 2 * k1v)
            k3u, k3v = self.drift(yu + dt / 2 * k2u, yv + dt / 2 * k2v)
            k4u, k4v = self.drift(yu + dt * k3u, yv + dt * k3v)
            yu = yu + dt / 6 * (k1u + 2 * k2u + 2 * k3u + k4u)
            yv = yv + dt / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
            tables.append(self.snapshot(yu, yv))

        model = self.build_model()
        mid = 5
        worst = 0.0
        for key in all_keys_up_to(["u", "v"], 3):
            fd = (tables[mid + 1].kappa(key) - tables[mid - 1].kappa(key)) / (
                2 * dt
            )
            rhs = hierarchy_rhs(model, tables[mid], key, mid * dt)
            worst = max(worst, abs(fd - rhs))
        # pure O(dt^2) finite-difference error; no statistical allowance
        # is needed because both sides use the same realizations
        assert worst < 5e-4

    @staticmethod
    def snapshot(yu, yv) -> CumulantTable:
        oracle = EnsembleOracle({"u": yu, "v": yv})
        return cumulant_table_from_oracle(oracle, ["u", "v"], max_order=4)
