"""Multiset codes: the code book, and every code-keyed path against brute force.

Oracles
-------
* ``tests/_support.py`` sums over every set partition with ``Counter``-keyed
  dicts, so it shares no code, key form or memo with the package.
* Index equality is Python's ``==``, as for dict keys: ``1`` and ``1.0``
  name one variable, whatever the spelling of a key.
* The RK4 closed form: on a linear flow ``d/dt k = r k`` classic RK4 gives
  ``k_n = k_0 R(r h)^n`` with ``R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24``.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wickkit.cumulants import (
    CumulantBackedOracle,
    CumulantEvaluator,
    CumulantTable,
    EnsembleOracle,
    MomentOracle,
    TableOracle,
    moments_from_cumulants,
)
from wickkit.errors import ConfigError, GuardError
from wickkit.hierarchy import (
    AmplitudeModel,
    HierarchyPlan,
    InteractionTerm,
    all_keys_up_to,
    constant_amplitude,
    hierarchy_rhs,
    hierarchy_rhs_table,
    integrate_hierarchy,
)
from wickkit.indexing import CODE_BITS, Codebook, LabeledSeq, canonical_key, mask_codes
from wickkit.wick import truncated_expectation, wick_from_cumulants, wick_product_expectation, wick_recursive

from _support import (
    brute_cumulant,
    brute_product_expectation,
    brute_wick_coefficients,
    multiset,
)

TOL = 1e-12


def close(got, want) -> bool:
    return abs(got - want) <= TOL * max(1.0, abs(want))


class TestCodebook:
    def test_equal_multisets_share_a_code(self):
        book = Codebook([1, "a", ("q", 2)])
        assert book.code([1, "a", ("q", 2), 1]) == book.code([("q", 2), 1, 1, "a"])
        assert book.code([1, "a"]) != book.code([1, 1, "a"])
        assert book.code([]) == 0

    def test_indices_compare_by_equality(self):
        book = Codebook([1, 2.0, 1.0])
        assert book.code([1, 2.0, 1.0]) == book.code([1.0, 2, 1])
        # decoded with the first spelling seen, in canonical order
        assert book.key(book.code([2, 1, 1.0])) == (2.0, 1, 1)

    def test_mask_codes_add_the_slots(self):
        book = Codebook("ab")
        slots = book.slots(["a", "b", "a"])
        codes = mask_codes(slots)
        for mask in range(8):
            assert codes[mask] == sum(s for i, s in enumerate(slots) if mask >> i & 1)
        assert codes[0b101] == book.code(["a", "a"])

    def test_decode_round_trips(self):
        book = Codebook(["b", ("q", 1), 3])
        code = book.code(["b", ("q", 1), "b", 3])
        assert book.key(code) == book.key(book.code(book.key(code)))
        assert sorted(book.slots(book.key(code))) == sorted(book.slots(["b", ("q", 1), "b", 3]))

    def test_a_book_never_grows(self):
        book = Codebook(["b", "a", "b"])
        assert book.indices == ["b", "a"] and book.code(["a", "b", "a"]) == 1 + (2 << CODE_BITS)
        for read in (book.slots, book.code):
            with pytest.raises(KeyError):
                read(["a", "c"])
        assert book.indices == ["b", "a"]
        # a longer copy numbers the indices it lacks after its own, in order of first appearance
        longer = book.extended(["d", "a", "c", "d"])
        assert longer.indices == ["b", "a", "d", "c"] and book.indices == ["b", "a"]
        assert longer.code(["a", "b"]) == book.code(["a", "b"])
        assert book.extended(["a", "b"]) is book

    def test_count_guard(self):
        book = Codebook("x")
        assert book.code(["x"] * ((1 << CODE_BITS) - 1)) == ((1 << CODE_BITS) - 1)
        with pytest.raises(GuardError):
            book.code(["x"] * (1 << CODE_BITS))


# ----------------------------------------------------------------------
# every code-keyed path against the brute-force oracles

VARIABLES = (1, "a", ("q", 2), 3)


def spell(var, alt: bool):
    """One of the equal spellings of a variable: an int may come as a float."""
    return float(var) if alt and isinstance(var, int) else var


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(data=st.data())
def test_code_paths_match_brute_force(data):
    variables = data.draw(st.lists(st.sampled_from(VARIABLES), min_size=1, max_size=3, unique=True))
    order = data.draw(st.integers(2, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

    def spelled(indices) -> tuple:
        out = [spell(v, data.draw(st.booleans())) for v in indices]
        return tuple(data.draw(st.permutations(out)))

    def sequence(max_len: int) -> tuple:
        return spelled(data.draw(st.lists(st.sampled_from(variables), max_size=max_len)))

    keys = [k for r in range(1, order + 1) for k in itertools.combinations_with_replacement(variables, r)]
    values = 0.5 * (rng.standard_normal(len(keys)) + 1j * rng.standard_normal(len(keys)))
    table = {spelled(k): complex(v) for k, v in zip(keys, values)}
    by_multiset = {multiset(k): v for k, v in table.items()}

    def kappa(key):
        return by_multiset.get(key, 0.0)

    # moments -> cumulants: the table read as moments
    evaluator = CumulantEvaluator(TableOracle(table))
    for key in table:
        assert close(evaluator.kappa(key), brute_cumulant(lambda m: by_multiset[m], key))

    # cumulants -> moments, one oracle over every key as in the CLI, and one per key
    cumulants = CumulantTable(entries=table)
    oracle = CumulantBackedOracle(cumulants)
    for key in table:
        want = brute_product_expectation(kappa, [], key)
        assert close(oracle.moment(key), want)
        assert close(moments_from_cumulants(cumulants, key), want)

    # Wick polynomial coefficients, labels 1..n
    ground = sequence(5)
    poly = wick_from_cumulants(cumulants, LabeledSeq.from_indices(ground))
    for positions, want in brute_wick_coefficients(kappa, ground).items():
        assert close(poly.coeff(p + 1 for p in positions), want)

    # a product of two Wick factors and a plain tail
    groups = [sequence(3), sequence(2)]
    tail = sequence(2)
    got = wick_product_expectation(cumulants, groups, tail)
    assert close(got, brute_product_expectation(kappa, groups, tail))

    # hierarchy right-hand sides, one target at a time and as a table
    drives = {v: [(sequence(2), complex(0.3 * i + 0.2, -0.1 * i)) for i in range(2)] for v in variables}
    model = AmplitudeModel(
        terms={
            v: [InteractionTerm(tuple(s), constant_amplitude(c)) for s, c in terms]
            for v, terms in drives.items()
        }
    )
    for _ in range(3):
        target = sequence(min(3, order))
        want = 0.0 + 0.0j
        for pos, idx in enumerate(target):
            rest = target[:pos] + target[pos + 1:]
            for seq, c in drives.get(idx, ()):
                want += c * brute_product_expectation(kappa, [seq, rest])
        assert close(hierarchy_rhs(model, cumulants, target), want)
        assert close(hierarchy_rhs_table(model, cumulants, [target])[canonical_key(target)], want)


# ----------------------------------------------------------------------
# each table's sums are its own: no memo outlives the table it was filled from


def two_variable_model() -> AmplitudeModel:
    """u driven by 0.4 W[u] + 0.1 W[v v], and v by -0.3 W[v] + (1 + 0.5i) W[u v]."""
    return AmplitudeModel(
        terms={
            "u": [
                InteractionTerm(("u",), constant_amplitude(0.4)),
                InteractionTerm(("v", "v"), constant_amplitude(0.1)),
            ],
            "v": [
                InteractionTerm(("v",), constant_amplitude(-0.3)),
                InteractionTerm(("u", "v"), constant_amplitude(1.0 + 0.5j)),
            ],
        }
    )


def brute_rhs(model: AmplitudeModel, kappa, target) -> complex:
    total = 0.0 + 0.0j
    for pos, idx in enumerate(target):
        rest = target[:pos] + target[pos + 1:]
        for term in model.terms.get(idx, ()):
            amp = term.amplitude(0.0, None)
            total += amp * brute_product_expectation(kappa, [term.seq, rest])
    return total


def test_back_to_back_tables_are_both_exact():
    model = two_variable_model()
    keys = all_keys_up_to(["u", "v"], 3)
    rng = np.random.default_rng(5)
    for _ in range(2):
        values = rng.standard_normal(len(keys)) + 1j * rng.standard_normal(len(keys))
        table = CumulantTable(entries=dict(zip(keys, values)), max_order=3)
        by_multiset = {multiset(k): complex(v) for k, v in zip(keys, values)}
        rhs = hierarchy_rhs_table(model, table, keys)
        for key in keys:
            assert close(rhs[key], brute_rhs(model, lambda m: by_multiset.get(m, 0.0), key))
        oracle = CumulantBackedOracle(table)
        for key in keys:
            got = oracle.moment(key)
            assert close(got, brute_product_expectation(lambda m: by_multiset.get(m, 0.0), [], key))


def test_integrate_hierarchy_matches_the_rk4_closed_form():
    # d/dt y_u = a W[y_u] + b, d/dt y_v = c W[y_v]: the mean of u grows by
    # b t, that of v stays, and a cumulant of order >= 2 with n_u slots u and
    # n_v slots v is multiplied by R((n_u a + n_v c) h) per step
    a, b, c = 0.4, 0.25, -0.7
    model = AmplitudeModel(
        terms={
            "u": [
                InteractionTerm(("u",), constant_amplitude(a)),
                InteractionTerm((), constant_amplitude(b)),
            ],
            "v": [InteractionTerm(("v",), constant_amplitude(c))],
        }
    )
    keys = all_keys_up_to(["u", "v"], 3)
    rng = np.random.default_rng(11)
    table0 = CumulantTable(entries={k: complex(*rng.standard_normal(2)) for k in keys}, max_order=3)
    h, n_steps = 0.05, 20
    final = integrate_hierarchy(model, table0, t_end=h * n_steps, dt=h)

    def growth(z: complex) -> complex:
        return 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24

    for key in keys:
        k0 = table0.kappa(key)
        if len(key) == 1:
            want = k0 + b * h * n_steps if key == ("u",) else k0
        else:
            rate = key.count("u") * a + key.count("v") * c
            want = k0 * growth(rate * h) ** n_steps
        assert close(final.kappa(key), want), key


def test_integrate_hierarchy_needs_a_whole_number_of_steps():
    model = two_variable_model()
    table0 = CumulantTable(entries={("u", "u"): 1.0}, max_order=2)
    with pytest.raises(ConfigError, match="whole number of steps"):
        integrate_hierarchy(model, table0, t_end=0.13, dt=0.05)
    with pytest.raises(ConfigError):
        integrate_hierarchy(model, table0, t_end=0.1, dt=0.0)
    times, tables = integrate_hierarchy(model, table0, t_end=0.0, dt=0.05, record=True)
    assert times[-1] == 0.0 and tables[-1].kappa(("u", "u")) == 1.0


# ----------------------------------------------------------------------
# the partition guard trips before any per-mask work


def test_long_sums_trip_the_guard_before_building_mask_codes():
    # 40 elements would need 2**40 mask codes; the guard must come first
    indices = list(range(40))
    table = CumulantTable(entries={(i,): 1.0 for i in indices})
    with pytest.raises(GuardError):
        moments_from_cumulants(table, indices)
    with pytest.raises(GuardError):
        CumulantBackedOracle(table).moment(indices)
    with pytest.raises(GuardError):
        wick_product_expectation(table, [indices])
    with pytest.raises(GuardError):
        wick_product_expectation(table, [indices[:20]], indices[20:])


def test_a_built_table_cannot_be_changed():
    table = CumulantTable(entries={("v", "u"): 1.0}, max_order=2)
    with pytest.raises(TypeError):
        table.entries[("u",)] = 2.0
    for name, value in (("max_order", 1), ("entries", {("u",): 2.0})):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(table, name, value)
    assert not hasattr(CumulantTable, "set") and not hasattr(CumulantTable, "empty")
    assert dict(table.entries) == {("u", "v"): 1.0} and table.max_order == 2 and table.kappa(("v", "u")) == 1.0


def test_an_oracle_keeps_reading_its_own_table():
    # a changed table is a new table: the oracle of the old one keeps its moments,
    # and the new one reads its own through a fresh oracle
    old = CumulantTable(entries={("x",): 0.2, ("y",): 0.1, ("x", "y"): 0.3})
    oracle = CumulantBackedOracle(old)
    assert oracle.moment(("x", "y")) == pytest.approx(0.32, abs=1e-15)
    new = CumulantTable(entries={**old.entries, ("x", "y"): 5.0}, max_order=old.max_order)
    assert oracle.moment(("x", "y")) == pytest.approx(0.32, abs=1e-15)
    assert CumulantBackedOracle(new).moment(("x", "y")) == pytest.approx(5.02, abs=1e-15)
    assert old.kappa(("x", "y")) == 0.3 and new.kappa(("x", "y")) == 5.0


def test_no_read_grows_a_table_s_code_book():
    # a frozen table's book holds the table's own indices, whatever index a reader names
    table = CumulantTable(entries={("a",): 0.5, ("a", "a"): 1.0})
    assert all(table.kappa((i,)) == 0 for i in range(1000))
    assert table.kappa(("a", "a")) == 1.0 and table.book.indices == ["a"]
    assert CumulantBackedOracle(table).moment(("a", "zz")) == 0
    assert table.book.indices == ["a"]
    assert wick_from_cumulants(table, LabeledSeq.from_indices(["q", "a"])).coeff([1]) == -0.5
    assert table.book.indices == ["a"]
    assert truncated_expectation(table, ["a", "w"], ["a"]) == 0
    assert table.book.indices == ["a"]
    model = AmplitudeModel(terms={"a": [InteractionTerm(("b",), constant_amplitude(1.0))]})
    assert HierarchyPlan(model, [("a",)]).evaluate(table)[0] == [0]
    assert table.book.indices == ["a"]


def test_a_failed_table_oracle_read_leaves_the_book_as_built():
    # a key naming an index the table lacks is a KeyError before it is coded, by tuple and by list
    oracle = TableOracle({("a",): 0.5, ("a", "a"): 1.0})
    for i in range(1000):
        with pytest.raises(KeyError) as raised:
            oracle.moment(("a", i))
        assert raised.value.args == (("a", i),)
        with pytest.raises(KeyError):
            oracle.moment([i])
    assert oracle.book.indices == ["a"]
    assert oracle.moment(("a", "a")) == 1.0 and oracle.moment(["a"]) == 0.5


def test_a_failed_cumulant_read_leaves_the_oracle_s_book_as_built():
    # the evaluator's key forms code through the oracle, so they decline an unseen index as its moment reads do
    oracle = TableOracle({("a",): 0.5, ("a", "a"): 1.0})
    evaluator = CumulantEvaluator(oracle)
    for i in range(1000):
        with pytest.raises(KeyError):
            evaluator.kappa((i,))
        with pytest.raises(KeyError):
            evaluator.kappa_of(LabeledSeq.from_indices(["a", i]))
    assert oracle.book.indices == ["a"] and evaluator.memo == {}
    assert evaluator.kappa(("a", "a")) == 0.75 and evaluator.kappa_of(LabeledSeq.from_indices(["a"])) == 0.5


def test_a_failed_ensemble_read_leaves_the_book_as_built():
    # an ensemble's book holds its indices from construction, and a read naming another is a KeyError
    oracle = EnsembleOracle({"a": np.arange(4.0)})
    for i in range(1000):
        with pytest.raises(KeyError) as raised:
            oracle.moment(("a", i))
        assert raised.value.args == (("a", i),)
        with pytest.raises(KeyError):
            oracle.loo_moment_code(oracle.book.code(("a", i)))
        with pytest.raises(KeyError):
            oracle.moment([i])
    assert oracle.book.indices == ["a"]
    loo = oracle.loo_moment_code(oracle.book.code(("a",)))
    assert oracle.moment(("a",)) == 1.5 and np.allclose(loo, [2.0, 5 / 3, 4 / 3, 1.0], rtol=1e-15)


def test_no_read_of_an_unknown_index_grows_a_book():
    # through every route that reads a book: a KeyError, or 0 where the source is a table
    oracle = TableOracle({("a",): 0.5, ("a", "a"): 1.0})
    evaluator = CumulantEvaluator(oracle)
    table = CumulantTable(entries={("a",): 0.5, ("a", "a"): 1.0})
    backed = CumulantBackedOracle(table)
    poly = wick_recursive(oracle, LabeledSeq.from_indices(["a"]))
    for i in range(1000):
        for read in (
            lambda: wick_recursive(oracle, LabeledSeq.from_indices(["a", i])),
            lambda: poly.expectation(oracle, [i]),
            lambda: wick_from_cumulants(evaluator, LabeledSeq.from_indices([i, "a"])),
            lambda: wick_product_expectation(evaluator, [["a"], [i]]),
        ):
            with pytest.raises(KeyError):
                read()
        assert backed.moment(("a", i)) == 0
    assert oracle.book.indices == evaluator.book.indices == table.book.indices == backed.book.indices == ["a"]
    assert backed.moment(("a", "a")) == 1.25 and poly.expectation(oracle, ["a"]) == 0.75
    # only the key form of a table-backed oracle reads an absent index as 0; its code routes raise
    with pytest.raises(KeyError):
        wick_recursive(backed, LabeledSeq.from_indices(["a", "z"]))


def test_a_cumulant_does_not_depend_on_the_reads_before_it():
    # MomentOracle keeps no lazy book that grows in order of first use: one did, and over an oracle
    # defined by key it changed the last bits of 196 of these 200 random 7-index cumulants after one
    # earlier two-index read.  A subclass defining moment alone now has no book to read by code, and
    # the codes of one that builds its book are fixed when it is built.
    class KeyOnly(MomentOracle):
        def moment(self, key):
            return 1.0

    with pytest.raises(AttributeError):
        CumulantEvaluator(KeyOnly())

    class Atoms(MomentOracle):
        def __init__(self, atoms):
            self.atoms, self.book = atoms, Codebook(atoms)

        def moment_code(self, code):
            return np.prod([self.atoms[i] for i in self.book.key(code)], axis=0).mean() if code else 1.0

    rng = np.random.default_rng(5)
    variables = ["a", "b", "c", "d"]
    atoms = {i: rng.standard_normal(6) + 1j * rng.standard_normal(6) for i in variables}
    keys = [tuple(rng.choice(variables, 7)) for _ in range(200)]
    for key in keys:
        fresh = CumulantEvaluator(Atoms(atoms)).kappa(key)
        evaluator = CumulantEvaluator(Atoms(atoms))
        evaluator.kappa(("d", "c"))
        assert evaluator.kappa(key) == fresh, key
    with pytest.raises(KeyError):
        evaluator.kappa(("a", "e"))
    assert evaluator.book.indices == variables
