"""Tests for moment oracles, cumulant recursion, conversions, and estimators."""

import itertools

import numpy as np
import pytest

from wickkit.cumulants import (
    CumulantBackedOracle,
    CumulantEvaluator,
    CumulantTable,
    EnsembleOracle,
    IndependentProductOracle,
    LinearCombinationOracle,
    TableOracle,
    cumulant_table_from_oracle,
    cumulants_from_moments,
    empirical_cumulant,
    gaussian_moment_oracle,
    moments_from_cumulants,
    multilinearity_check,
)
from wickkit.errors import ConfigError
from wickkit.indexing import EMPTY, LabeledSeq

from _support import mobius_cumulant, random_moment_oracle, random_sequences


def seq(*idx):
    return LabeledSeq.from_indices(idx)


def single_variable_oracle(m1, m2, m3=0.0, m4=0.0):
    return TableOracle(
        {
            ("y",): m1,
            ("y", "y"): m2,
            ("y", "y", "y"): m3,
            ("y", "y", "y", "y"): m4,
        }
    )


class TestRecursionBasics:
    def test_first_order_is_the_mean(self):
        oracle = single_variable_oracle(0.7, 2.0)
        assert cumulants_from_moments(oracle, seq("y")) == pytest.approx(0.7)

    def test_second_order_is_the_variance(self):
        oracle = single_variable_oracle(0.5, 2.0)
        kappa2 = cumulants_from_moments(oracle, seq("y", "y"))
        assert kappa2 == pytest.approx(2.0 - 0.25)

    def test_pair_covariance(self):
        oracle = TableOracle(
            {("a",): 1.0, ("b",): 2.0, ("a", "b"): 5.0}
        )
        kappa = cumulants_from_moments(oracle, seq("a", "b"))
        assert kappa == pytest.approx(5.0 - 2.0)

    def test_standard_normal_fourth_cumulant_vanishes(self):
        # moments (0, 1, 0, 3) have kappa_4 = 0
        oracle = single_variable_oracle(0.0, 1.0, 0.0, 3.0)
        kappa4 = cumulants_from_moments(oracle, seq("y", "y", "y", "y"))
        assert kappa4 == pytest.approx(0.0, abs=1e-14)

    def test_third_order_closed_form(self):
        m1, m2, m3 = 0.3, 1.1, 0.7
        oracle = single_variable_oracle(m1, m2, m3)
        kappa3 = cumulants_from_moments(oracle, seq("y", "y", "y"))
        assert kappa3 == pytest.approx(m3 - 3 * m2 * m1 + 2 * m1**3)

    def test_empty_cumulant_is_zero(self):
        oracle = single_variable_oracle(0.0, 1.0)
        assert cumulants_from_moments(oracle, EMPTY) == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        oracle = random_moment_oracle(rng, max_order=5)
        ev = CumulantEvaluator(oracle)
        base = ("a", "a", "b", "c", "b")
        vals = {ev.kappa_of(LabeledSeq.from_indices(p)) for p in
                itertools.permutations(base)}
        assert len(vals) == 1  # memoized on the multiset key: identical objects


class TestAgainstMobiusOracle:
    @pytest.mark.parametrize("trial", range(8))
    def test_random_oracles_all_orders(self, trial):
        rng = np.random.default_rng(100 + trial)
        oracle = random_moment_oracle(rng, max_order=6)
        for s in random_sequences(rng, max_len=6, count=8):
            got = cumulants_from_moments(oracle, s)
            want = mobius_cumulant(oracle, s)
            assert got == pytest.approx(want, abs=1e-11), s.indices()


class TestRoundTrip:
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_moments_back_from_cumulants(self, order):
        rng = np.random.default_rng(order)
        oracle = random_moment_oracle(rng, max_order=order)
        ev = CumulantEvaluator(oracle)
        for key in itertools.combinations_with_replacement("abc", order):
            s = LabeledSeq.from_indices(key)
            back = moments_from_cumulants(ev, s)
            assert back == pytest.approx(oracle.moment_of(s), rel=1e-10, abs=1e-10)

    def test_cumulant_backed_oracle_reproduces_table(self):
        rng = np.random.default_rng(17)
        table = CumulantTable.empty(max_order=3)
        for order in (1, 2, 3):
            for key in itertools.combinations_with_replacement("ab", order):
                table.set(key, complex(*rng.standard_normal(2)))
        oracle = CumulantBackedOracle(table)
        ev = CumulantEvaluator(oracle)
        for key, want in table.entries.items():
            assert ev.kappa(key) == pytest.approx(want, abs=1e-12)
        # and cumulants above the table's max order come out zero
        assert ev.kappa(("a",) * 4) == pytest.approx(0.0, abs=1e-12)


class TestOracles:
    def test_empty_moment_is_one_everywhere(self):
        rng = np.random.default_rng(0)
        for oracle in (
            random_moment_oracle(rng),
            gaussian_moment_oracle({"a": 0.0}, {("a", "a"): 1.0}),
        ):
            assert oracle.moment_of(EMPTY) == 1.0

    def test_table_oracle_rejects_bad_empty_entry(self):
        with pytest.raises(ValueError):
            TableOracle({(): 2.0})

    def test_independent_mixed_cumulants_vanish(self):
        rng = np.random.default_rng(3)
        oa = random_moment_oracle(rng, alphabet=("a",), max_order=4)
        ob = random_moment_oracle(rng, alphabet=("b",), max_order=4)
        joint = IndependentProductOracle([(("a",), oa), (("b",), ob)])
        ev = CumulantEvaluator(joint)
        assert ev.kappa(("a", "b")) == pytest.approx(0.0, abs=1e-12)
        assert ev.kappa(("a", "a", "b")) == pytest.approx(0.0, abs=1e-12)
        assert ev.kappa(("a", "b", "b", "a")) == pytest.approx(0.0, abs=1e-12)
        # marginals are untouched
        assert ev.kappa(("a", "a")) == pytest.approx(
            cumulants_from_moments(oa, seq("a", "a")), abs=1e-12
        )

    def test_gaussian_oracle_isserlis(self):
        m, c = 0.4, 1.5
        g = gaussian_moment_oracle({"y": m}, {("y", "y"): c})
        assert g.moment(("y", "y")) == pytest.approx(c + m * m)
        assert g.moment(("y",) * 3) == pytest.approx(m**3 + 3 * m * c)
        assert g.moment(("y",) * 4) == pytest.approx(m**4 + 6 * m * m * c + 3 * c * c)
        ev = CumulantEvaluator(g)
        assert ev.kappa(("y",) * 3) == pytest.approx(0.0, abs=1e-12)
        assert ev.kappa(("y",) * 4) == pytest.approx(0.0, abs=1e-12)


class TestCumulantTable:
    def test_canonical_keys_and_zero_reads(self):
        t = CumulantTable(entries={("b", "a"): 2.0}, max_order=3)
        assert t.kappa(("a", "b")) == 2.0
        assert t.kappa(("a", "a")) == 0.0  # absent key
        assert t.kappa(()) == 0.0
        assert t.kappa(("a",) * 4) == 0.0  # above max order

    def test_set_guards(self):
        t = CumulantTable.empty(max_order=2)
        with pytest.raises(ValueError):
            t.set((), 1.0)
        with pytest.raises(ValueError):
            t.set(("a", "a", "a"), 1.0)

    def test_json_round_trip(self):
        t = CumulantTable(
            entries={("a", "b"): 1.5 + 0.5j, (("q", 1),): 2.0}, max_order=2
        )
        data = t.to_json()
        assert data == {
            '[["q",1]]': [2.0, 0.0],
            '["a","b"]': [1.5, 0.5],
        }
        back = CumulantTable.from_json(data, max_order=2)
        assert back.kappa(("a", "b")) == 1.5 + 0.5j
        assert back.kappa((("q", 1),)) == 2.0

    @pytest.mark.parametrize(
        "data",
        [
            [1],
            {"[1": [0.1, 0.0]},
            {"5": [0.1, 0.0]},
            {'[{"a": 1}]': [0.1, 0.0]},
            {"[NaN]": [0.1, 0.0]},
            {"[1]": [0.1]},
            {"[1]": "x"},
            {"[1]": [float("nan"), 0.0]},
            {"[1]": [True, 0.0]},
            {"[]": [1.0, 0.0]},
            {"[1,1,1]": [0.1, 0.0]},
        ],
    )
    def test_json_reader_rejects_malformed_tables(self, data):
        with pytest.raises(ConfigError):
            CumulantTable.from_json(data, max_order=2)

    def test_input_errors_are_config_errors(self):
        t = CumulantTable.empty(max_order=2)
        for key in ((), ("a", "a", "a")):
            with pytest.raises(ConfigError):
                t.set(key, 1.0)
        with pytest.raises(ConfigError):
            TableOracle({(): 2.0})


class TestMultilinearity:
    def test_linear_combination_is_consistent(self):
        rng = np.random.default_rng(11)
        base = random_moment_oracle(rng, alphabet=("a", "b"), max_order=6)
        alpha, beta = 1.3, -0.4 + 0.2j
        joint = LinearCombinationOracle(base, "j", [(alpha, "a"), (beta, "b")])
        probes = [
            seq("j"),
            seq("j", "a"),
            seq("b", "j", "a"),
            seq("j", "j"),  # composite in several slots: checked slotwise
            seq("a", "j", "b", "j"),
        ]
        report = multilinearity_check(
            joint, "j", [(alpha, "a"), (beta, "b")], probes, rtol=1e-10
        )
        assert report.ok, report.max_rel_error

    def test_violation_is_detected(self):
        # an inconsistent table: kappa[j] deliberately off
        t = CumulantTable.empty(max_order=1)
        t.set(("a",), 1.0)
        t.set(("b",), 1.0)
        t.set(("j",), 5.0)  # should be alpha + beta = 2 for j = a + b
        report = multilinearity_check(
            t, "j", [(1.0, "a"), (1.0, "b")], [seq("j")], rtol=1e-10
        )
        assert not report.ok
        assert report.max_rel_error > 0.1


class TestEmpirical:
    def test_constant_ensemble(self):
        ens = EnsembleOracle({"c": np.full(64, 2.5 + 1.0j)})
        val, se = empirical_cumulant(ens, seq("c"))
        assert val == pytest.approx(2.5 + 1.0j)
        assert se == pytest.approx(0.0, abs=1e-12)
        val2, se2 = empirical_cumulant(ens, seq("c", "c"))
        assert val2 == pytest.approx(0.0, abs=1e-12)

    def test_complex_gaussian_second_cumulants(self):
        rng = np.random.default_rng(2024)
        n = 4000
        z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
        ens = EnsembleOracle({"z": z, "zc": np.conj(z)})
        val, se = empirical_cumulant(ens, seq("zc", "z"))
        assert abs(val - 1.0) <= 3 * se
        val2, se2 = empirical_cumulant(ens, seq("z", "z"))
        assert abs(val2) <= 3 * se2
        # jackknife error should sit near the 1/sqrt(n) scale
        assert 0.2 / np.sqrt(n) < se < 5.0 / np.sqrt(n)

    def test_gaussian_fourth_cumulant_small(self):
        rng = np.random.default_rng(7)
        n = 6000
        y = rng.standard_normal(n)
        ens = EnsembleOracle({"y": y})
        val, se = empirical_cumulant(ens, seq("y", "y", "y", "y"))
        assert abs(val) <= 4 * se

    def test_skewed_ensemble_third_cumulant(self):
        # exponential(1): kappa_3 = 2
        rng = np.random.default_rng(99)
        n = 20000
        y = rng.exponential(1.0, size=n)
        ens = EnsembleOracle({"y": y})
        val, se = empirical_cumulant(ens, seq("y", "y", "y"))
        assert abs(val - 2.0) <= 4 * se

    def test_validation(self):
        with pytest.raises(ValueError):
            EnsembleOracle({"a": np.ones((4, 2))})
        with pytest.raises(ValueError):
            EnsembleOracle({"a": np.ones(4), "b": np.ones(5)})
        with pytest.raises(ValueError):
            EnsembleOracle({"a": np.ones(1)})


def test_table_from_oracle_covers_all_keys():
    rng = np.random.default_rng(1)
    oracle = random_moment_oracle(rng, alphabet=("a", "b"), max_order=4)
    table = cumulant_table_from_oracle(oracle, ["a", "b"], max_order=3)
    want_keys = {
        k
        for r in (1, 2, 3)
        for k in itertools.combinations_with_replacement(("a", "b"), r)
    }
    assert set(table.entries) == want_keys
    ev = CumulantEvaluator(oracle)
    for k, v in table.entries.items():
        assert v == pytest.approx(ev.kappa(k), abs=1e-12)
