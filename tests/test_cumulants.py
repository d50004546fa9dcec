"""Tests for moment oracles, cumulant recursion, conversions, and estimators."""

import itertools
import json
import math
import re
import time
from collections import Counter

import numpy as np
import pytest

from wickkit import cumulants
from wickkit.cumulants import (
    CumulantBackedOracle,
    CumulantEvaluator,
    CumulantTable,
    EnsembleOracle,
    TableOracle,
    cumulant_table_from_oracle,
    moments_from_cumulants,
    table_to_json,
)
from wickkit.errors import ConfigError, GuardError, jackknife_stderr
from wickkit.indexing import SUBSET_GUARD, Codebook, canonical_key
from wickkit.wick import wick_recursive

from _support import (
    IndependentProductOracle,
    LinearCombinationOracle,
    PolynomialOracle,
    empirical_cumulant,
    gaussian_moment_oracle,
    labeled,
    mobius_cumulant,
    multilinearity_check,
    random_moment_oracle,
    random_sequences,
    reference_kappa_by_subsets,
    reference_table_to_json,
)


def seq(*idx):
    return labeled(idx)


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
        assert CumulantEvaluator(oracle).kappa_of(seq("y")) == pytest.approx(0.7)

    def test_second_order_is_the_variance(self):
        oracle = single_variable_oracle(0.5, 2.0)
        kappa2 = CumulantEvaluator(oracle).kappa_of(seq("y", "y"))
        assert kappa2 == pytest.approx(2.0 - 0.25)

    def test_pair_covariance(self):
        oracle = TableOracle(
            {("a",): 1.0, ("b",): 2.0, ("a", "b"): 5.0}
        )
        kappa = CumulantEvaluator(oracle).kappa_of(seq("a", "b"))
        assert kappa == pytest.approx(5.0 - 2.0)

    def test_standard_normal_fourth_cumulant_vanishes(self):
        # moments (0, 1, 0, 3) have kappa_4 = 0
        oracle = single_variable_oracle(0.0, 1.0, 0.0, 3.0)
        kappa4 = CumulantEvaluator(oracle).kappa_of(seq("y", "y", "y", "y"))
        assert kappa4 == pytest.approx(0.0, abs=1e-14)

    def test_third_order_closed_form(self):
        m1, m2, m3 = 0.3, 1.1, 0.7
        oracle = single_variable_oracle(m1, m2, m3)
        kappa3 = CumulantEvaluator(oracle).kappa_of(seq("y", "y", "y"))
        assert kappa3 == pytest.approx(m3 - 3 * m2 * m1 + 2 * m1**3)

    def test_empty_cumulant_is_zero(self):
        oracle = single_variable_oracle(0.0, 1.0)
        assert CumulantEvaluator(oracle).kappa_of(seq()) == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        oracle = random_moment_oracle(rng, max_order=5)
        ev = CumulantEvaluator(oracle)
        base = ("a", "a", "b", "c", "b")
        vals = {ev.kappa_of(labeled(p)) for p in
                itertools.permutations(base)}
        assert len(vals) == 1  # memoized on the multiset key: identical objects


def touchard(n: int, lam: float) -> float:
    """E[N^n] for N ~ Poisson(lam): sum over k of S(n, k) lam^k, S the Stirling numbers of the second kind."""
    row = [1]  # S(0, k)
    for i in range(1, n + 1):
        row = [0] + [j * (row[j] if j < len(row) else 0) + row[j - 1] for j in range(1, i + 1)]
    return sum(s * lam**k for k, s in enumerate(row))


class TestSubMultisetRecursion:
    """The recursion over distinct sub-multisets against the label-subset recursion it groups."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n_variables", [2, 3, 4])
    def test_matches_the_subset_route_on_closed_tables(self, n_variables, seed):
        rng = np.random.default_rng(1000 * n_variables + seed)
        keys = [k for r in range(1, 9) for k in itertools.combinations_with_replacement(range(n_variables), r)]
        oracle = TableOracle({k: 0.5 * complex(*rng.standard_normal(2)) for k in keys})
        book, moment = oracle.book, oracle.moment_code
        memo = {}
        want = {k: reference_kappa_by_subsets(moment, book.slots(k), memo) for k in keys}
        evaluator = CumulantEvaluator(oracle)
        # keys in reverse, so the longest key fills the memo and the rest are hits
        got = {k: evaluator.kappa(k) for k in reversed(keys)}
        scale = max(abs(v) for v in want.values())
        assert max(abs(got[k] - want[k]) for k in keys) <= 1e-12 * scale

    def test_matches_the_subset_route_on_leave_one_out_arrays(self):
        rng = np.random.default_rng(77)
        samples = {i: rng.standard_normal((12, 5)) + 1j * rng.standard_normal((12, 5)) for i in "uvw"}
        ensemble = EnsembleOracle(samples)
        for key in [("u",), ("u", "u", "v"), ("u", "v", "w"), ("w", "v", "u", "u", "v"), ("u",) * 3 + ("v",) * 2 + ("w",)]:
            code = ensemble.book.code(key)
            loo, _ = cumulants._kappa_recursive(ensemble.loo_moment_code, code, {})
            want = reference_kappa_by_subsets(ensemble.loo_moment_code, ensemble.book.slots(key), {})
            assert loo.shape == (12,)
            assert np.max(np.abs(loo - want)) <= 1e-12 * np.max(np.abs(want))
            value, stderr = empirical_cumulant(ensemble, seq(*key))
            scalar = reference_kappa_by_subsets(ensemble.moment_code, ensemble.book.slots(key), {})
            assert abs(value - scalar) <= 1e-12 * abs(scalar)
            assert stderr == pytest.approx(float(jackknife_stderr(want)), rel=1e-12)

    @pytest.mark.parametrize("counts", [(1,), (3,), (1, 1, 1, 1), (2, 1, 3), (4, 2, 2, 1)])
    def test_blocks_are_the_distinct_label_subsets_with_their_counts(self, counts):
        # brute force: every label subset that holds the first label, by multiset
        labels = [i for i, r in enumerate(counts) for _ in range(r)]
        book = Codebook(labels)
        code = book.code(labels)
        want = Counter()
        for mask in range(1, 1 << len(labels)):
            if mask & 1 and mask != (1 << len(labels)) - 1:
                want[book.code(labels[i] for i in range(len(labels)) if mask >> i & 1)] += 1
        blocks, label_counts = cumulants._blocks(code)
        assert len(set(blocks)) == len(blocks)
        assert dict(zip(blocks, label_counts)) == want
        assert sum(label_counts) == 2 ** (len(labels) - 1) - 1

    def test_long_keys_of_independent_poisson_variables(self):
        # a 20-entry key over three independent Poisson variables, every
        # sub-multiset's moment a product of Touchard polynomials: each
        # cumulant of one variable is its rate, each mixed cumulant is 0
        rates = (0.5, 1.0, 1.5)
        counts = (7, 7, 6)
        table = {}
        for powers in itertools.product(*(range(r + 1) for r in counts)):
            if any(powers):
                key = tuple(i for i, p in enumerate(powers) for _ in range(p))
                table[key] = math.prod(touchard(p, lam) for p, lam in zip(powers, rates))
        full = tuple(i for i, r in enumerate(counts) for _ in range(r))
        assert len(full) == SUBSET_GUARD
        started = time.perf_counter()
        evaluator = CumulantEvaluator(TableOracle(table))
        evaluator.kappa(full)
        assert time.perf_counter() - started < 1.0
        scale = max(abs(v) for v in table.values())
        for key in table:
            want = rates[key[0]] if len(set(key)) == 1 else 0.0
            assert abs(evaluator.kappa(key) - want) <= 1e-10 * scale, key
        assert len(evaluator.memo) == len(table)
        with pytest.raises(GuardError, match=f"cumulant recursion guard: 21 > {SUBSET_GUARD}"):
            evaluator.kappa(full + (0,))


class TestAgainstMobiusOracle:
    @pytest.mark.parametrize("trial", range(8))
    def test_random_oracles_all_orders(self, trial):
        rng = np.random.default_rng(100 + trial)
        oracle = random_moment_oracle(rng, max_order=6)
        for s in random_sequences(rng, max_len=6, count=8):
            got = CumulantEvaluator(oracle).kappa_of(labeled(s))
            want = mobius_cumulant(oracle, s)
            assert got == pytest.approx(want, abs=1e-11), s


class TestRoundTrip:
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_moments_back_from_cumulants(self, order):
        rng = np.random.default_rng(order)
        oracle = random_moment_oracle(rng, max_order=order)
        ev = CumulantEvaluator(oracle)
        for key in itertools.combinations_with_replacement("abc", order):
            back = moments_from_cumulants(ev, key)
            assert back == pytest.approx(oracle.moment(key), rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("source", ["table", "evaluator", "oracle"])
    def test_cumulant_backed_oracle_reads_any_cumulant_source(self, source):
        # a moment of order <= 4 needs the cumulants of order <= 4 only, so every source reproduces the oracle
        oracle = random_moment_oracle(np.random.default_rng(23), max_order=4)
        sources = {
            "table": lambda: cumulant_table_from_oracle(oracle, "abc", 4),
            "evaluator": lambda: CumulantEvaluator(oracle),
            "oracle": lambda: oracle,
        }
        cumulants = sources[source]()
        back = CumulantBackedOracle(cumulants)
        assert back.memo is not CumulantBackedOracle(cumulants).memo  # each oracle owns the memo of its sums
        for order in range(1, 5):
            for key in itertools.combinations_with_replacement("abc", order):
                direct = oracle.moment(key)
                assert abs(back.moment(key) - direct) <= 1e-10 * max(1.0, abs(direct)), key

    def test_cumulant_backed_oracle_reproduces_table(self):
        rng = np.random.default_rng(17)
        table = CumulantTable(
            entries={
                key: complex(*rng.standard_normal(2))
                for order in (1, 2, 3)
                for key in itertools.combinations_with_replacement("ab", order)
            },
            max_order=3,
        )
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
            assert oracle.moment(()) == 1.0

    def test_an_absent_empty_moment_reads_as_one(self):
        for oracle in (TableOracle({(1,): 0.5}), EnsembleOracle({1: np.arange(4.0)})):
            assert oracle.moment(()) == 1.0

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
            CumulantEvaluator(oa).kappa_of(seq("a", "a")), abs=1e-12
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

    def test_gaussian_oracle_takes_the_last_of_two_orders_of_one_pair(self):
        g = gaussian_moment_oracle({"a": 0.0, "b": 0.0}, {("a", "b"): 1.0, ("b", "a"): 2.0, ("a", "a"): 1.0})
        assert g.moment(("a", "b")) == 2.0 and g.moment(("b", "a")) == 2.0


def _atoms(rng, indices):
    return {i: rng.standard_normal(6) + 1j * rng.standard_normal(6) for i in indices}


#: one oracle of each kind over the indices "a" and "b", built from a seeded generator
PROTOCOL_ORACLES = {
    "table": lambda rng: random_moment_oracle(rng, alphabet=("a", "b"), max_order=4),
    "cumulant-backed": lambda rng: gaussian_moment_oracle({"a": 0.3, "b": -0.2j}, {("a", "a"): 1.1, ("a", "b"): 0.4 + 0.1j}),
    "ensemble": lambda rng: EnsembleOracle({i: rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)) for i in "ab"}),
    "independent-product": lambda rng: IndependentProductOracle(
        [(("a",), random_moment_oracle(rng, alphabet=("a",), max_order=4)), (("b",), PolynomialOracle(_atoms(rng, "b")))]
    ),
    "linear-combination": lambda rng: LinearCombinationOracle(PolynomialOracle(_atoms(rng, "ac")), "b", [(0.5, "a"), (2.0 - 1.0j, "c")]),
    "polynomial": lambda rng: PolynomialOracle(_atoms(rng, "ab")),
}
KEY_ONLY_ORACLES = ["independent-product", "linear-combination", "polynomial"]
#: the read methods each oracle class defines itself: a package oracle defines moment_code over
#: its book, a test oracle defined by key defines moment alone, and the cumulant-backed oracle
#: defines both, since its key form may code indices its source's book lacks
OVERRIDES = {
    "table": {"moment_code"},
    "cumulant-backed": {"moment", "moment_code"},
    "ensemble": {"moment_code"},
    **{name: {"moment"} for name in KEY_ONLY_ORACLES},
}


class TestMomentOracleProtocol:
    """Every oracle is read through ``book`` and ``moment_code``; the key forms agree with it."""

    @pytest.mark.parametrize("name", PROTOCOL_ORACLES)
    def test_key_forms_read_the_coded_moment(self, name):
        oracle = PROTOCOL_ORACLES[name](np.random.default_rng(5))
        overrides = {method for method in ("moment", "moment_code") if method in vars(type(oracle))}
        assert overrides == OVERRIDES[name], overrides
        for order in range(1, 5):
            for key in itertools.combinations_with_replacement("ab", order):
                coded = oracle.moment_code(oracle.book.code(key))
                assert oracle.moment(key) == coded == oracle.moment(key[::-1])
        assert oracle.moment(()) == oracle.moment_code(0) == oracle.moment([]) == 1.0

    @pytest.mark.parametrize("name", KEY_ONLY_ORACLES)
    def test_a_key_only_oracle_is_read_once_per_multiset(self, name):
        oracle = PROTOCOL_ORACLES[name](np.random.default_rng(6))
        calls = Counter()
        by_key = oracle.moment

        def counted(key):
            calls[canonical_key(key)] += 1
            return by_key(key)

        oracle.moment = counted  # the instance attribute is what the default moment_code calls
        CumulantEvaluator(oracle).kappa(("a", "b", "a"))
        CumulantEvaluator(oracle).kappa(("b", "a", "b", "a"))
        wick_recursive(oracle, ("a", "b", "b"))
        assert set(calls.values()) == {1}, calls
        assert len(calls) == 8  # a, b, aa, ab, bb, aab, abb and aabb

    def test_a_table_miss_names_the_canonical_key(self):
        oracle = TableOracle({(1,): 0.5, (2,): 0.1})
        for read in (lambda: oracle.moment((2, 1, 1)), lambda: oracle.moment([2, 1, 1])):
            with pytest.raises(KeyError) as err:
                read()
            assert err.value.args == ((1, 1, 2),)


class TestCumulantTable:
    def test_canonical_keys_and_zero_reads(self):
        t = CumulantTable(entries={("b", "a"): 2.0}, max_order=3)
        assert t.kappa(("a", "b")) == 2.0
        assert t.kappa(("a", "a")) == 0.0  # absent key
        assert t.kappa(()) == 0.0
        assert t.kappa(("a",) * 4) == 0.0  # above max order

    def test_constructor_guards(self):
        with pytest.raises(ValueError, match="the empty cumulant is fixed at 0"):
            CumulantTable(entries={(): 1.0}, max_order=2)
        with pytest.raises(ValueError, match=r"\('a', 'a', 'a'\) exceeds max order 2"):
            CumulantTable(entries={("a", "a", "a"): 1.0}, max_order=2)

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

    def test_json_writer_keeps_the_order_and_bytes_of_json_dumps_per_key(self):
        # ints, strings with escapes, floats and nested lists, and keys whose texts sort apart from their items
        entries = {
            (10,): 1.0, (9,): -0.0, (2, 10): 3.5 - 1j, (1.5, 1e-7, -0.0): 2j,
            ("b",): 0.25, ("a", 'q"uote', "é"): 1e300, (("q", 1), ("p", (0, 1))): -7.0,
            ((), ("x",)): 0.1 + 0.2j, (True, None): 4.0,
        }
        got = table_to_json(entries)
        want = reference_table_to_json(entries)
        assert list(got) == list(want)
        assert json.dumps(got) == json.dumps(want)

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

    @pytest.mark.parametrize(
        "data, message",
        [
            ([1], r"a table must be a JSON object, got \[1\]"),
            ({"[1": [0.1, 0.0]}, r"table key '\[1' is not valid JSON: "),
            ({"5": [0.1, 0.0]}, r"table key '5' must be a JSON list of indices"),
            ({"[1]": [0.1]}, r"table entry \[1\] must be a \[re, im\] pair of numbers, got \[0\.1\]"),
            ({"[1]": "x"}, r"table entry \[1\] must be a \[re, im\] pair of numbers, got 'x'"),
            ({"[1]": [float("nan"), 0.0]}, r"table entry \[1\]\[0\] must be a finite JSON number, got nan"),
            ({"[1]": [0.0, -float("inf")]}, r"table entry \[1\]\[1\] must be a finite JSON number, got -inf"),
            ({"[1]": [0.0, True]}, r"table entry \[1\]\[1\] must be a finite JSON number, got True"),
            ({"[1]": [10**309, 0.0]}, r"table entry \[1\]\[0\] must be a finite JSON number, got 1000"),
            ({"[1]": ["0.5", 0.0]}, r"table entry \[1\]\[0\] must be a finite JSON number, got '0\.5'"),
        ],
    )
    def test_json_reader_errors_name_the_entry(self, data, message):
        with pytest.raises(ConfigError, match=message):
            CumulantTable.from_json(data, max_order=2)

    def test_json_reader_takes_plain_numbers_to_the_bit(self):
        data = {"[1]": [1, -2], "[2]": [5e-324, -0.0], "[1,2]": [1.7976931348623157e308, 0.1 + 0.2]}
        table = cumulants.table_from_json(data)
        assert table == {(1,): 1 - 2j, (2,): complex(5e-324, -0.0), (1, 2): complex(1.7976931348623157e308, 0.1 + 0.2)}
        assert math.copysign(1.0, table[(2,)].imag) == -1.0
        assert type(table[(1,)].real) is float

    @pytest.mark.parametrize(
        "data, first, second",
        [
            ({"[1,2]": [0.5, 0.0], "[2,1]": [0.7, 0.0]}, "(1, 2)", "(2, 1)"),
            ({"[1,2]": [0.5, 0.0], "[1, 2]": [0.7, 0.0]}, "'[1,2]'", "'[1, 2]'"),
            ({"[1]": [0.5, 0.0], "[1.0]": [0.7, 0.0]}, "'[1]'", "'[1.0]'"),
        ],
    )
    def test_two_keys_of_one_multiset_are_refused(self, data, first, second):
        message = re.escape(f"table keys {first} and {second} name the same multiset")
        with pytest.raises(ConfigError, match=message):
            CumulantTable.from_json(data)
        with pytest.raises(ConfigError, match=message):
            TableOracle(cumulants.table_from_json(data))

    def test_library_tables_refuse_two_keys_of_one_multiset(self):
        entries = {(1, 2): 0.5, (3,): 0.1, (2, 1): 0.7}
        with pytest.raises(ConfigError, match=r"table keys \(1, 2\) and \(2, 1\) name the same multiset"):
            CumulantTable(entries=entries)
        with pytest.raises(ConfigError, match=r"table keys \(1, 2\) and \(2, 1\) name the same multiset"):
            TableOracle(entries)

    def test_input_errors_are_config_errors(self):
        for key in ((), ("a", "a", "a")):
            with pytest.raises(ConfigError):
                CumulantTable(entries={key: 1.0}, max_order=2)
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
        # an inconsistent table: kappa[j] deliberately off (it should be alpha + beta = 2 for j = a + b)
        t = CumulantTable(entries={("a",): 1.0, ("b",): 1.0, ("j",): 5.0}, max_order=1)
        report = multilinearity_check(
            t, "j", [(1.0, "a"), (1.0, "b")], [seq("j")], rtol=1e-10
        )
        assert not report.ok
        assert report.max_rel_error > 0.1


class TestEmpirical:
    def test_empty_cumulant_is_zero_with_no_error(self):
        ens = EnsembleOracle({"y": np.random.default_rng(1).standard_normal((8, 3))})
        assert empirical_cumulant(ens, seq()) == (0.0, 0.0)
        assert CumulantEvaluator(ens).kappa(()) == 0.0

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
            EnsembleOracle({"a": np.ones((4, 2, 2))})
        with pytest.raises(ValueError):
            EnsembleOracle({"a": np.ones(4), "b": np.ones(5)})
        with pytest.raises(ValueError):
            EnsembleOracle({"a": np.ones(1)})
        with pytest.raises(ValueError):  # n differs
            EnsembleOracle({"a": np.ones((4, 3)), "b": np.ones((5, 3))})
        with pytest.raises(ValueError):  # m differs
            EnsembleOracle({"a": np.ones((4, 3)), "b": np.ones((4, 2))})
        with pytest.raises(ValueError):  # (n,) beside (n, 1)
            EnsembleOracle({"a": np.ones(4), "b": np.ones((4, 1))})
        with pytest.raises(KeyError):
            EnsembleOracle({"a": np.ones(4)}).moment(("a", "b"))

    def test_one_sample_per_realization_is_the_flat_oracle(self):
        rng = np.random.default_rng(31)
        y = rng.standard_normal((3, 500)) + 1j * rng.standard_normal((3, 500))
        flat = EnsembleOracle({"a": y[0], "b": y[1], "c": y[2]})
        grouped = EnsembleOracle({"a": y[0][:, None], "b": y[1][:, None], "c": y[2][:, None]})
        for key in [("a",), ("a", "b"), ("a", "a", "c"), ("a", "b", "b", "c"), ("c", "c", "c", "c")]:
            assert grouped.moment(key) == flat.moment(key)
            loo = [oracle.loo_moment_code(oracle.book.code(key)) for oracle in (grouped, flat)]
            assert loo[0].tobytes() == loo[1].tobytes()
            assert empirical_cumulant(grouped, seq(*key)) == empirical_cumulant(flat, seq(*key))

    def test_grouped_moments_average_within_then_across_realizations(self):
        rng = np.random.default_rng(32)
        u = rng.standard_normal((40, 6)) + 1j * rng.standard_normal((40, 6))
        v = np.conj(u) + 0.3 * rng.standard_normal((40, 6))
        oracle = EnsembleOracle({"u": u, "v": v})
        per_realization = (u * u * v).mean(axis=1)
        assert oracle.moment(("u", "v", "u")) == pytest.approx(per_realization.mean(), rel=1e-14)
        # leave-one-out drops a whole realization, all its samples at once
        want = [np.delete(per_realization, i).mean() for i in range(40)]
        assert np.allclose(oracle.loo_moment_code(oracle.book.code(("u", "u", "v"))), want, rtol=1e-13, atol=0.0)
        # the cumulant sees the 240 samples as one pooled sample, each
        # realization weighted equally
        pooled = EnsembleOracle({"u": u.ravel(), "v": v.ravel()})
        value, _ = empirical_cumulant(oracle, seq("u", "v", "u", "v"))
        assert value == pytest.approx(empirical_cumulant(pooled, seq("u", "v", "u", "v"))[0], rel=1e-12)


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
