"""Tests for Wick polynomial construction, expectations, and identities."""

import copy
import functools
import itertools
import json
import operator

import numpy as np
import pytest

from wickkit.cumulants import (
    CumulantEvaluator,
    CumulantTable,
    moments_from_cumulants,
)
from wickkit.errors import ConfigError, GuardError
from wickkit.indexing import Codebook, canonical_key
from wickkit.wick import (
    WickPoly,
    _group_code,
    _moved_codes,
    gaussian_reference_wick,
    poly_mul,
    truncated_expectation,
    wick_derivative,
    wick_from_cumulants,
    wick_product_expectation,
    wick_recursion_step,
    wick_recursive,
)

from _support import (
    LinearCombinationOracle,
    brute_product_expectation,
    brute_wick_coefficients,
    gaussian_moment_oracle,
    mobius_cumulant,
    multiset,
    random_moment_oracle,
    random_sequences,
    substitute_index,
    wick_multilinearity,
)


def seq(*idx):
    return idx


def coeffs_close(a: WickPoly, b: WickPoly, tol=1e-12):
    keys = set(a.terms) | set(b.terms)
    return max((abs(a.coeff(k) - b.coeff(k)) for k in keys), default=0.0) <= tol


class TestLowOrderForms:
    def test_empty_is_one(self):
        rng = np.random.default_rng(0)
        oracle = random_moment_oracle(rng)
        w = wick_recursive(oracle, seq())
        assert w.terms == {0: 1.0}

    def test_single_variable(self):
        rng = np.random.default_rng(1)
        oracle = random_moment_oracle(rng)
        s = seq("a")
        w = wick_recursive(oracle, s)
        assert w.coeff(0b1) == 1.0
        assert w.coeff(0) == pytest.approx(-oracle.moment(("a",)))

    def test_two_variables_explicit(self):
        rng = np.random.default_rng(2)
        oracle = random_moment_oracle(rng)
        ma = oracle.moment(("a",))
        mb = oracle.moment(("b",))
        mab = oracle.moment(("a", "b"))
        w = wick_recursive(oracle, seq("a", "b"))
        assert w.coeff(0b11) == 1.0
        assert w.coeff(0b10) == pytest.approx(-ma)
        assert w.coeff(0b01) == pytest.approx(-mb)
        assert w.coeff(0) == pytest.approx(-mab + 2 * ma * mb)

    def test_three_variables_fifteen_term_cumulant_form(self):
        rng = np.random.default_rng(3)
        oracle = random_moment_oracle(rng)
        s = seq("a", "b", "c")
        w = wick_recursive(oracle, s)

        def k(*idx):
            return mobius_cumulant(oracle, idx)

        ka, kb, kc = k("a"), k("b"), k("c")
        kab, kac, kbc = k("a", "b"), k("a", "c"), k("b", "c")
        kabc = k("a", "b", "c")
        assert w.coeff(0b111) == 1.0
        assert w.coeff(0b011) == pytest.approx(-kc)
        assert w.coeff(0b101) == pytest.approx(-kb)
        assert w.coeff(0b110) == pytest.approx(-ka)
        assert w.coeff(0b001) == pytest.approx(-kbc + kb * kc)
        assert w.coeff(0b010) == pytest.approx(-kac + ka * kc)
        assert w.coeff(0b100) == pytest.approx(-kab + ka * kb)
        assert w.coeff(0) == pytest.approx(
            -kabc + kab * kc + kac * kb + kbc * ka - ka * kb * kc
        )

    def test_hermite_polynomials(self):
        g = gaussian_moment_oracle({"y": 0.0}, {("y", "y"): 1.0})
        hermite = {
            1: {("y",): 1.0},
            2: {("y", "y"): 1.0, (): -1.0},
            3: {("y", "y", "y"): 1.0, ("y",): -3.0},
            4: {("y",) * 4: 1.0, ("y", "y"): -6.0, (): 3.0},
            5: {("y",) * 5: 1.0, ("y",) * 3: -10.0, ("y",): 15.0},
            6: {("y",) * 6: 1.0, ("y",) * 4: -15.0, ("y", "y"): 45.0, (): -15.0},
        }
        for n, want in hermite.items():
            got = wick_recursive(g, seq(*["y"] * n)).multiset_terms()
            assert set(got) == set(want), n
            for key, c in want.items():
                assert got[key] == pytest.approx(c, abs=1e-12), (n, key)


class TestThreeRouteEquivalence:
    @pytest.mark.parametrize("trial", range(6))
    def test_routes_agree_coefficientwise(self, trial):
        rng = np.random.default_rng(40 + trial)
        oracle = random_moment_oracle(rng, max_order=6)
        ev = CumulantEvaluator(oracle)
        for s in random_sequences(rng, max_len=6, count=6):
            w1 = wick_recursive(oracle, s)
            w2 = wick_from_cumulants(ev, s)
            w3 = wick_recursion_step(ev, s)
            assert coeffs_close(w1, w2), s
            assert coeffs_close(w1, w3), s

    def test_top_coefficient_is_one(self):
        rng = np.random.default_rng(8)
        oracle = random_moment_oracle(rng)
        for s in random_sequences(rng, max_len=5, count=5):
            assert wick_recursive(oracle, s).coeff((1 << len(s)) - 1) == 1.0


class TestExpectations:
    def test_wick_expectation_vanishes(self):
        rng = np.random.default_rng(9)
        oracle = random_moment_oracle(rng)
        for s in random_sequences(rng, max_len=6, count=8):
            if not s:
                continue
            w = wick_recursive(oracle, s)
            assert abs(w.expectation(oracle)) < 1e-10
            assert abs(truncated_expectation(oracle, s, ())) == 0.0

    def test_truncated_expectation_of_empty_wick(self):
        rng = np.random.default_rng(10)
        oracle = random_moment_oracle(rng)
        assert truncated_expectation(oracle, (), ()) == 1.0
        # E[W[empty] * y^I'] is the plain moment
        s = ("a", "b")
        assert truncated_expectation(oracle, (), s) == pytest.approx(
            oracle.moment(s)
        )

    @pytest.mark.parametrize("trial", range(5))
    def test_truncated_matches_direct_expansion(self, trial):
        rng = np.random.default_rng(60 + trial)
        oracle = random_moment_oracle(rng, max_order=6)
        for ni, nip in [(0, 2), (1, 1), (2, 2), (3, 2), (2, 3), (4, 1), (3, 3)]:
            pool = ["a", "b", "c"]
            si = seq(*[pool[int(rng.integers(3))] for _ in range(ni)])
            sp = tuple(pool[int(rng.integers(3))] for _ in range(nip))
            direct = wick_recursive(oracle, si).expectation(oracle, extra=sp)
            parts = truncated_expectation(oracle, si, sp)
            assert direct == pytest.approx(parts, rel=1e-10, abs=1e-10)

    def test_pair_of_wicks_gives_joint_cumulant(self):
        # E[W[y^I] W[y_j]] equals kappa[I + (j)]
        rng = np.random.default_rng(11)
        oracle = random_moment_oracle(rng)
        si = ("a", "b")
        sj = ("c",)
        got = wick_product_expectation(oracle, [si, sj])
        want = mobius_cumulant(oracle, seq("a", "b", "c"))
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("shape", [((2,), (1,), 1), ((2,), (2,), 2),
                                       ((1, 1), (2,), 2), ((3,), (2, 1), 0)])
    def test_product_expectation_vs_brute_force(self, shape):
        sizes_l, sizes_r, tail_n = shape[0], shape[1], shape[2]
        sizes = list(sizes_l) + list(sizes_r)
        rng = np.random.default_rng(sum(sizes) * 7 + tail_n)
        oracle = random_moment_oracle(rng, max_order=8)
        pool = ["a", "b", "c"]
        blocks = [
            seq(*[pool[int(rng.integers(3))] for _ in range(n)]) for n in sizes
        ]
        tail = tuple(pool[int(rng.integers(3))] for _ in range(tail_n))
        got = wick_product_expectation(oracle, blocks, tail)

        # brute force: multiply the Wick polynomials on their concatenated
        # grounds and expand the expectation monomial by monomial
        product = WickPoly(seq(), {0: 1.0})
        for b in blocks:
            w = wick_recursive(oracle, b)
            product = poly_mul(product, w)
        want = product.expectation(oracle, extra=tail)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_empty_block_list_gives_plain_moment(self):
        rng = np.random.default_rng(12)
        oracle = random_moment_oracle(rng)
        tail = ("a", "a", "b")
        got = wick_product_expectation(oracle, [], tail)
        assert got == pytest.approx(oracle.moment(tail), rel=1e-10)

    def test_single_block_reduces_to_truncated(self):
        rng = np.random.default_rng(13)
        oracle = random_moment_oracle(rng)
        si, sp = ("a", "b"), ("c", "a")
        assert wick_product_expectation(oracle, [si], sp) == pytest.approx(
            truncated_expectation(oracle, si, sp), rel=1e-10
        )


class TestKernelAgainstEnumeration:
    """Wick coefficients and pair expectations on random tables with repeated
    indices, against the sums over every set partition in ``_support``."""

    @staticmethod
    def random_table(rng, n_variables):
        keys = [k for r in range(1, 6) for k in itertools.combinations_with_replacement(range(n_variables), r)]
        table = CumulantTable(entries={k: 0.5 * complex(*rng.standard_normal(2)) for k in keys})
        kappa = {multiset(k): v for k, v in table.entries.items()}
        return table, lambda m: kappa.get(m, 0.0)

    @pytest.mark.parametrize("n_variables", [2, 3, 4])
    def test_wick_coefficients(self, n_variables):
        rng = np.random.default_rng(400 + n_variables)
        table, kappa = self.random_table(rng, n_variables)
        for n in range(7):
            indices = [int(i) for i in rng.integers(n_variables, size=n)]
            got = wick_from_cumulants(table, seq(*indices))
            want = brute_wick_coefficients(kappa, indices)
            scale = max(abs(w) for w in want.values())
            worst = max(abs(got.coeff(u) - w) for u, w in want.items())
            assert worst <= 1e-12 * scale

    @pytest.mark.parametrize("tail_n", [0, 2])
    @pytest.mark.parametrize("n_groups", [1, 2, 3])
    @pytest.mark.parametrize("n_variables", [2, 3, 4])
    def test_pair_expectations(self, n_variables, n_groups, tail_n):
        rng = np.random.default_rng([n_variables, n_groups, tail_n])
        table, kappa = self.random_table(rng, n_variables)
        got, want = [], []
        for _ in range(6):
            sizes = [int(k) for k in rng.integers(1, 4, size=n_groups)]
            groups = [[int(i) for i in rng.integers(n_variables, size=k)] for k in sizes]
            tail = [int(i) for i in rng.integers(n_variables, size=tail_n)]
            got.append(wick_product_expectation(table, groups, tail))
            want.append(brute_product_expectation(kappa, groups, tail))
        scale = max(abs(w) for w in want)
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12 * scale

    def test_a_multiset_inside_one_group_sums_to_exactly_zero(self):
        table, _ = self.random_table(np.random.default_rng(5), 3)
        for groups in ([(0, 0, 1)], [(2, 1), ()], [(), (0, 1, 1, 2), ()]):
            assert wick_product_expectation(table, groups) == 0

    def test_thirteen_elements_trip_the_guard_before_anything_is_summed(self):
        table, _ = self.random_table(np.random.default_rng(6), 2)
        for groups, tail in (([(0,) * 7], (1,) * 6), ([(0, 1)] * 5, (0, 1, 1))):
            with pytest.raises(GuardError, match="partition enumeration guard: 13 > 12"):
                wick_product_expectation(table, groups, tail)
        with pytest.raises(GuardError, match="partition enumeration guard: 13 > 12"):
            moments_from_cumulants(table, (0, 1) * 6 + (0,))

    @pytest.mark.parametrize("copies", [256, 257])
    def test_a_group_repeating_an_index_past_its_field_is_refused(self, copies):
        # 256 copies of one index would carry into the next group's field, which the guard caught only
        # when the carry left more than 12 elements
        table = CumulantTable(entries={("a",): 0.5, ("a", "a"): 1.0})
        for groups, tail in (([("a",) * copies], ()), ([("a",), ("a",) * copies], ("a",))):
            with pytest.raises(GuardError, match="multiset code guard"):
                wick_product_expectation(table, groups, tail)
        with pytest.raises(GuardError, match="multiset code guard"):
            truncated_expectation(table, ("a",) * copies, ())

    def test_a_moved_code_equals_the_code_built_over_the_source_book(self):
        # three groups and a tail with repeats, moved onto a book that numbers the indices
        # otherwise and holds one the groups lack; a source book lacking one they hold is a KeyError
        groups, tail = [["a", "b", "a"], ["c", "c", "c"], ["b", "d", "b", "b"]], ["d", "a", "c"]
        book = Codebook("abcd")
        code = _group_code(book, groups, tail)
        lacking = Codebook(["d", "c", "e", "b"])
        with pytest.raises(KeyError):
            _moved_codes([code], book, lacking, 4)
        source_book = lacking.extended(book.indices)
        assert source_book.indices == ["d", "c", "e", "b", "a"] and lacking.indices == ["d", "c", "e", "b"]
        want = _group_code(source_book, groups, tail)
        assert _moved_codes([code, 0], book, source_book, 4) == [want, 0]
        assert _moved_codes([code], book, Codebook(book.indices), 4) == [code]


class TestInversion:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_moment_expansion_recovers_monomial(self, n):
        # y^I = sum over U subset I of W[y^U] E[y^(I minus U)]
        rng = np.random.default_rng(20 + n)
        oracle = random_moment_oracle(rng)
        pool = ["a", "b"]
        s = seq(*[pool[int(rng.integers(2))] for _ in range(n)])
        total: dict[int, complex] = {}
        for mask in range(1 << len(s)):
            positions = [i for i in range(len(s)) if mask >> i & 1]
            u = tuple(s[i] for i in positions)
            w = wick_recursive(oracle, u)
            m = oracle.moment([idx for i, idx in enumerate(s) if not mask >> i & 1])
            for sub, c in w.terms.items():  # a mask over u's positions, moved onto s's
                key = sum(1 << p for k, p in enumerate(positions) if sub >> k & 1)
                total[key] = total.get(key, 0.0 + 0.0j) + m * c
        for key, c in total.items():
            want = 1.0 if key == (1 << len(s)) - 1 else 0.0
            assert c == pytest.approx(want, abs=1e-10), key


class TestDerivative:
    def test_derivative_identity(self):
        rng = np.random.default_rng(30)
        oracle = random_moment_oracle(rng)
        s = seq("a", "b", "a", "c", "a")
        w = wick_recursive(oracle, s)
        got = wick_derivative(w, "a")
        want: dict[int, complex] = {}
        for p, idx in enumerate(s):
            if idx != "a":
                continue
            sub = wick_recursive(oracle, s[:p] + s[p + 1:])
            for m, c in sub.terms.items():  # a mask over s without position p, moved onto s's
                key = m & (1 << p) - 1 | m >> p << p + 1
                want[key] = want.get(key, 0.0 + 0.0j) + c
        keys = set(got.terms) | set(want)
        for key in keys:
            assert got.coeff(key) == pytest.approx(
                want.get(key, 0.0), abs=1e-10
            ), bin(key)

    def test_derivative_wrt_absent_index_is_zero(self):
        rng = np.random.default_rng(31)
        oracle = random_moment_oracle(rng)
        w = wick_recursive(oracle, seq("a", "b"))
        assert wick_derivative(w, "zzz").terms == {}

    def test_hermite_ladder(self):
        # d/dy He_n = n He_{n-1}
        g = gaussian_moment_oracle({"y": 0.0}, {("y", "y"): 1.0})
        for n in range(2, 6):
            wn = wick_recursive(g, seq(*["y"] * n))
            d = wick_derivative(wn, "y").multiset_terms()
            wn1 = wick_recursive(g, seq(*["y"] * (n - 1))).multiset_terms()
            for key in set(d) | set(wn1):
                assert d.get(key, 0.0) == pytest.approx(
                    n * wn1.get(key, 0.0), abs=1e-12
                )


class TestGaussianReference:
    def test_matches_recursive_route(self):
        rng = np.random.default_rng(50)
        m = rng.standard_normal(3)
        a = rng.standard_normal((3, 3))
        c = a @ a.T  # PSD, symmetric
        oracle = gaussian_moment_oracle(
            {i: m[i] for i in range(3)},
            {(i, j): c[i, j] for i in range(3) for j in range(i, 3)},
        )
        for idx in [(0,), (0, 1), (2, 2), (0, 1, 2), (1, 1, 2, 0), (0,) * 5]:
            s = seq(*idx)
            ref = gaussian_reference_wick(m, c, s)
            rec = wick_recursive(oracle, s)
            assert coeffs_close(ref, rec, tol=1e-10), idx

    def test_hermite_special_case(self):
        s = seq(0, 0, 0)
        w = gaussian_reference_wick([0.0], [[1.0]], s)
        got = w.multiset_terms()
        assert got[(0, 0, 0)] == pytest.approx(1.0)
        assert got[(0,)] == pytest.approx(-3.0)

    def test_nonsymmetric_covariance_rejected(self):
        with pytest.raises(ValueError):
            gaussian_reference_wick([0.0, 0.0], [[1.0, 0.5], [0.3, 1.0]], seq(0, 1))

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            gaussian_reference_wick([0.0], [[1.0]], seq("y"))


class TestMultilinearity:
    def test_wick_linearity_in_slot(self):
        rng = np.random.default_rng(70)
        base = random_moment_oracle(rng, alphabet=("a", "b", "c"), max_order=6)
        combo = [(0.7, "a"), (-1.2 + 0.4j, "b")]
        joint = LinearCombinationOracle(base, "j", combo)
        for idx, slot in [(("j",), 0), (("j", "c"), 0), (("c", "j", "a"), 1),
                          (("j", "j", "c"), 0)]:
            report = wick_multilinearity(joint, seq(*idx), slot, combo)
            assert report.ok, (idx, report.max_abs_error)

    def test_uniqueness_single_coefficient_perturbations_detected(self):
        # a nondegenerate measure: perturbing any one coefficient must break
        # a truncated-expectation identity with some |I'| <= 2
        rng = np.random.default_rng(71)
        m = rng.standard_normal(3) + 0.5
        a = rng.standard_normal((3, 3))
        c = a @ a.T + 0.5 * np.eye(3)
        oracle = gaussian_moment_oracle(
            {i: m[i] for i in range(3)},
            {(i, j): c[i, j] for i in range(3) for j in range(i, 3)},
        )
        s = seq(0, 1, 2, 0)
        w = wick_recursive(oracle, s)
        probes = [()] + [
            p
            for r in (1, 2)
            for p in itertools.combinations_with_replacement((0, 1, 2), r)
        ]
        for key in list(w.terms):
            perturbed = WickPoly(
                s, {**w.terms, key: w.terms[key] + 1e-3}
            )
            worst = max(
                abs(
                    perturbed.expectation(oracle, extra=p)
                    - truncated_expectation(oracle, s, p)
                )
                for p in probes
            )
            assert worst > 1e-5, bin(key)


class TestCumulantSources:
    """A cumulant source is a table, an evaluator or a moment oracle, read by multiset code."""

    BUILDS = {
        "wick_from_cumulants": lambda source: wick_from_cumulants(source, seq("a", "b")),
        "wick_recursion_step": lambda source: wick_recursion_step(source, seq("a", "b")),
        "wick_product_expectation": lambda source: wick_product_expectation(source, [("a",), ("b",)]),
        "moments_from_cumulants": lambda source: moments_from_cumulants(source, ("a", "b")),
    }

    @pytest.mark.parametrize("name", BUILDS)
    def test_plain_callable_is_refused(self, name):
        with pytest.raises(TypeError):
            self.BUILDS[name](lambda block: 1.0)


class TestPolyUtilities:
    def test_json_round_trip(self):
        rng = np.random.default_rng(80)
        oracle = random_moment_oracle(rng)
        w = wick_recursive(oracle, seq("a", "b", "a"))
        data = w.to_json()
        back = WickPoly.from_json(data)
        assert back.indices == w.indices
        assert coeffs_close(back, w, tol=0.0)

    def test_json_tuple_indices(self):
        w = WickPoly(
            (("q", 1), "x"),
            {0b11: 1.0, 0: -2.0 + 1.0j},
        )
        back = WickPoly.from_json(w.to_json())
        assert back.indices == (("q", 1), "x")
        assert back.coeff(0) == -2.0 + 1.0j

    GOOD = {
        "ground": [[1, "a"], [2, "b"]],
        "terms": [{"subset": [1, 2], "coeff": [1.0, 0.0]}, {"subset": [], "coeff": [0.5, 0]}],
    }

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("ground",), None, r"Wick polynomial: missing required key 'ground'"),
            (("terms", 0, "coeff"), None, r"Wick polynomial\.terms\[0\]: missing required key 'coeff'"),
            (("ground",), 5, r"Wick polynomial\.ground must be a list, got 5"),
            (("terms",), {}, r"Wick polynomial\.terms must be a list"),
            (("ground", 1), [2], r"Wick polynomial\.ground\[1\] must be a \[label, index\] pair"),
            (("ground", 1, 0), "2", r"Wick polynomial\.ground\[1\]\[0\] must be a finite JSON integer >= 1"),
            (("ground", 1, 0), 1, r"Wick polynomial\.ground\[1\]\[0\] must be the label 2, got 1"),
            (("ground", 1, 1), {"x": 1}, r"an index must be a finite number"),
            (("terms", 0, "subset"), [1, 3], r"Wick polynomial: term \[1, 3\] not within ground labels"),
            (("terms", 0, "subset"), [1, 1], r"Wick polynomial\.terms\[0\]\.subset repeats a label"),
            (("terms", 0, "subset"), [True], r"Wick polynomial\.terms\[0\]\.subset\[0\] must be a finite JSON integer"),
            (("terms", 1, "subset"), [2, 1], r"Wick polynomial\.terms: two terms have the same subset"),
            (("terms", 1, "coeff"), [float("nan"), 0.0], r"Wick polynomial\.terms\[1\]\.coeff\[0\] must be a finite"),
            (("terms", 1, "coeff"), 0.5, r"Wick polynomial\.terms\[1\]\.coeff must be a \[re, im\] pair"),
            (("extra",), 1, r"Wick polynomial: unknown key\(s\) \['extra'\]"),
            (("terms", 0, "stray"), 1, r"Wick polynomial\.terms\[0\]: unknown key\(s\) \['stray'\]"),
        ],
    )
    def test_json_reader_names_the_key_path(self, path, value, message):
        data = copy.deepcopy(self.GOOD)
        node = functools.reduce(operator.getitem, path[:-1], data)
        if value is None:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        with pytest.raises(ConfigError, match=message):
            WickPoly.from_json(data)

    def test_json_reader_takes_the_writer_form(self):
        poly = WickPoly.from_json(self.GOOD)
        assert poly.indices == ("a", "b")
        assert poly.terms == {0b11: 1.0, 0: 0.5}

    @pytest.mark.parametrize(
        "ground, message",
        [
            ([[2, "a"], [1, "b"]], r"Wick polynomial\.ground\[0\]\[0\] must be the label 1, got 2"),
            ([[1, "a"], [3, "b"]], r"Wick polynomial\.ground\[1\]\[0\] must be the label 2, got 3"),
        ],
    )
    def test_json_reader_takes_ground_labels_one_to_n_in_order(self, ground, message):
        with pytest.raises(ConfigError, match=message):
            WickPoly.from_json({**self.GOOD, "ground": ground})

    def test_json_round_trip_with_repeated_indices_is_byte_identical(self):
        oracle = random_moment_oracle(np.random.default_rng(82))
        data = wick_recursive(oracle, seq("a", "b", "a", "a", "c")).to_json()
        assert json.dumps(WickPoly.from_json(data).to_json()) == json.dumps(data)

    def test_poly_mul_lives_on_the_concatenated_ground(self):
        p = WickPoly(seq("a"), {0b1: 2.0, 0: 1.0})
        q = WickPoly(seq("a", "b"), {0b10: 3.0})
        product = poly_mul(p, q)
        assert product.indices == ("a", "a", "b")
        assert product.terms == {0b101: 6.0, 0b100: 3.0}

    def test_a_mask_outside_the_ground_is_refused(self):
        with pytest.raises(ValueError, match="outside the 2 positions"):
            WickPoly(seq("a", "b"), {0b100: 1.0})

    def test_evaluate_on_arrays(self):
        g = seq("a", "b")
        p = WickPoly(g, {0b11: 2.0, 0: 1.0, 0b01: 0.0})
        assert 0b01 not in p.terms  # exact zeros dropped
        va = np.array([1.0, 2.0])
        vb = np.array([3.0, -1.0])
        out = p.evaluate({"a": va, "b": vb})
        assert np.allclose(out, 2.0 * va * vb + 1.0)

    def test_substitute_index(self):
        mp = {("j", "j"): 1.0, ("j",): 2.0}
        out = substitute_index(mp, "j", [(1.0, "a"), (1.0, "b")])
        assert out[canonical_key(("a", "a"))] == pytest.approx(1.0)
        assert out[canonical_key(("a", "b"))] == pytest.approx(2.0)
        assert out[canonical_key(("b", "b"))] == pytest.approx(1.0)
        assert out[("a",)] == pytest.approx(2.0)

    def test_guard(self):
        rng = np.random.default_rng(81)
        oracle = random_moment_oracle(rng, alphabet=("a",), max_order=13)
        with pytest.raises(GuardError):
            wick_recursive(oracle, seq(*["a"] * 13))
        # the partition sums keep their size guard on 13 merged elements
        with pytest.raises(GuardError):
            truncated_expectation(oracle, ("a",) * 7, ("a",) * 6)
        with pytest.raises(GuardError):
            wick_product_expectation(
                oracle, [("a",) * 6, ("a",) * 6], ("a",)
            )
        with pytest.raises(GuardError):
            moments_from_cumulants(oracle, ("a",) * 13)
