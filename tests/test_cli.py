"""CLI tests: config handling, determinism, round trips, and exit codes.

Oracles
-------
* wick-expand: subset coefficients recomputed by hand from the defining
  cumulant sums (e.g. the {1} coefficient of a three-variable expansion is
  -kappa(2,3) + kappa(2)kappa(3)).
* hierarchy-rhs: closed-form right-hand sides of a two-variable model worked
  out on paper (the drives couple through second cumulants only, so every
  Wick product expectation collapses to a single table entry).
* cumulant-convert: the two directions must invert each other.
* bp-solve / estimate-w: the emitted files must reproduce the library calls
  bit-for-bit after a repr round trip.
* Determinism: identical configs give byte-identical result files, for any
  thread count, and a manifest replays to the same bytes.
"""

from __future__ import annotations

import cmath
import contextlib
import copy
import functools
import importlib
import io
import itertools
import json
import math
import operator
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wickkit
from wickkit import cli, dnls, kinetic
from wickkit.cli import (
    KINDS,
    SCHEMA_VERSION,
    RunConfig,
    load_run_config,
    main,
    read_trajectory_csv,
    run,
)
from wickkit.cumulants import CumulantTable
from wickkit.dnls import Lattice, estimate_W, read_spectrum_csv, sample_initial, write_spectrum_csv, zero_dispersion
from wickkit.errors import Block, ConfigError, GuardError
from wickkit.indexing import LabeledSeq
from wickkit.kinetic import BPTrajectory, CollisionConfig, EquilibriumParams
from wickkit.wick import WickPoly, wick_from_cumulants

from _support import (
    reference_convergence_csv,
    reference_kinetic_check_csv,
    reference_observables_csv,
    reference_spectrum_csv,
    reference_trajectory_csv,
)


def write_config(path: Path, kind: str, params: dict, **top) -> Path:
    payload = {"schema_version": SCHEMA_VERSION, "kind": kind, "params": params}
    payload.update(top)
    path.write_text(json.dumps(payload))
    return path


THREE_VAR_CUMULANTS = {
    "[1]": [0.3, 0.0],
    "[2]": [-0.2, 0.1],
    "[3]": [0.5, -0.4],
    "[1,2]": [0.7, 0.2],
    "[1,3]": [-0.1, 0.6],
    "[2,3]": [0.4, 0.0],
    "[1,2,3]": [0.9, -0.3],
}


def as_c(pair) -> complex:
    return complex(pair[0], pair[1])


def assert_error_line(stderr: str, code: int) -> None:
    """stderr holds exactly one JSON error report with the given exit code."""
    lines = stderr.strip().splitlines()
    assert len(lines) == 1, stderr
    assert json.loads(lines[0])["exit_code"] == code


def assert_one_error_line(capsys, code: int) -> None:
    assert_error_line(capsys.readouterr().err, code)


def result_files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.name != "manifest.json"}


def assert_threads_keep_bytes(tmp_path, monkeypatch, kind: str, params: dict, per_block: int) -> None:
    """Runs at --threads 1 and 3, and a replay of the second's manifest, write the same result bytes.

    The ensemble is cut into blocks of ``per_block`` realizations: at least
    three, the last one partial.
    """
    lattice = Lattice(**params["lattice"])
    monkeypatch.setattr(dnls, "BLOCK_SITES", per_block * lattice.size)
    blocks = dnls._blocks(params["n_realizations"], lattice)
    assert len(blocks) >= 3 and blocks[-1].stop - blocks[-1].start < per_block
    path = write_config(tmp_path / "c.json", kind, params, seed=13)
    runs = []
    for threads in (1, 3):
        runs.append(tmp_path / f"threads{threads}")
        assert main([kind, "--config", str(path), "--threads", str(threads), "--out", str(runs[-1])]) == 0
    runs.append(tmp_path / "replay")
    assert main([kind, "--config", str(runs[1] / "manifest.json"), "--out", str(runs[-1])]) == 0
    first = result_files(runs[0])
    assert first and all(result_files(run) == first for run in runs[1:])


class TestConfigLoading:
    def test_defaults_and_fields(self, tmp_path):
        path = write_config(tmp_path / "c.json", "estimate-w", {"x": 1})
        rc = load_run_config(path)
        assert rc.kind == "estimate-w"
        assert rc.seed == 0 and rc.threads == 1 and rc.out == "out"
        assert rc.params == {"x": 1}

    def test_flags_override_file_values(self, tmp_path):
        path = write_config(
            tmp_path / "c.json", "estimate-w", {}, seed=7, threads=2, out="somewhere"
        )
        rc = load_run_config(path, seed=11, threads=5, out="elsewhere")
        assert (rc.seed, rc.threads, rc.out) == (11, 5, "elsewhere")
        rc = load_run_config(path)
        assert (rc.seed, rc.threads, rc.out) == (7, 2, "somewhere")

    def test_schema_version_is_checked(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"schema_version": 99, "kind": "estimate-w", "params": {}}))
        with pytest.raises(ConfigError, match="schema_version"):
            load_run_config(path)

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(
            json.dumps(
                {"schema_version": 1, "kind": "estimate-w", "params": {}, "bogus": 1}
            )
        )
        with pytest.raises(ConfigError, match="bogus"):
            load_run_config(path)

    def test_kind_must_match_subcommand(self, tmp_path):
        path = write_config(tmp_path / "c.json", "estimate-w", {})
        with pytest.raises(ConfigError, match="does not match"):
            load_run_config(path, kind="bp-solve")

    def test_invalid_run_config_fields(self):
        with pytest.raises(ConfigError):
            RunConfig(kind="not-a-kind", params={})
        with pytest.raises(ConfigError):
            RunConfig(kind="bp-solve", params={}, seed=-1)
        with pytest.raises(ConfigError):
            RunConfig(kind="bp-solve", params={}, threads=0)

    def test_malformed_json_is_a_config_error(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_run_config(path)


class TestWickExpand:
    def test_three_variable_expansion_matches_hand_aggregation(self, tmp_path):
        path = write_config(
            tmp_path / "c.json",
            "wick-expand",
            {"indices": [1, 2, 3], "cumulants": THREE_VAR_CUMULANTS},
            out=str(tmp_path / "run"),
        )
        assert main(["wick-expand", "--config", str(path)]) == 0
        data = json.loads((tmp_path / "run" / "wick_poly.json").read_text())
        poly = WickPoly.from_json(data)
        # one coefficient per label subset of the three positions
        assert len(poly.terms) == 8
        assert poly.terms[frozenset({1, 2, 3})] == 1.0
        k = {key: as_c(value) for key, value in THREE_VAR_CUMULANTS.items()}
        # pair subsets carry minus the remaining first cumulant
        assert poly.terms[frozenset({1, 2})] == pytest.approx(-k["[3]"], abs=1e-15)
        assert poly.terms[frozenset({1, 3})] == pytest.approx(-k["[2]"], abs=1e-15)
        assert poly.terms[frozenset({2, 3})] == pytest.approx(-k["[1]"], abs=1e-15)
        # singleton subsets: -kappa(pair) + product of the two singles
        assert poly.terms[frozenset({1})] == pytest.approx(
            -k["[2,3]"] + k["[2]"] * k["[3]"], abs=1e-15
        )
        # constant part: -kappa(123) + the three pair*single products - triple product
        expected = (
            -k["[1,2,3]"]
            + k["[1,2]"] * k["[3]"]
            + k["[1,3]"] * k["[2]"]
            + k["[2,3]"] * k["[1]"]
            - k["[1]"] * k["[2]"] * k["[3]"]
        )
        assert poly.terms[frozenset()] == pytest.approx(expected, abs=1e-15)

    def test_output_matches_library_construction(self, tmp_path):
        path = write_config(
            tmp_path / "c.json",
            "wick-expand",
            {"indices": [1, 2, 3], "cumulants": THREE_VAR_CUMULANTS},
            out=str(tmp_path / "run"),
        )
        assert main(["wick-expand", "--config", str(path)]) == 0
        data = json.loads((tmp_path / "run" / "wick_poly.json").read_text())
        table = CumulantTable.from_json(THREE_VAR_CUMULANTS)
        direct = wick_from_cumulants(table, LabeledSeq.from_indices([1, 2, 3]))
        assert data == direct.to_json()

    def test_inline_and_path_sources_are_exclusive(self, tmp_path):
        path = write_config(
            tmp_path / "c.json",
            "wick-expand",
            {
                "indices": [1],
                "cumulants": {"[1]": [1.0, 0.0]},
                "cumulants_path": "x.json",
            },
            out=str(tmp_path / "run"),
        )
        assert main(["wick-expand", "--config", str(path)]) == 2

    def test_cumulants_can_come_from_a_file(self, tmp_path):
        table_path = tmp_path / "table.json"
        table_path.write_text(json.dumps(THREE_VAR_CUMULANTS))
        path = write_config(
            tmp_path / "c.json",
            "wick-expand",
            {"indices": [1, 2, 3], "cumulants_path": str(table_path)},
            out=str(tmp_path / "run"),
        )
        assert main(["wick-expand", "--config", str(path)]) == 0


class TestCumulantConvert:
    TABLE = {
        "[1]": [0.5, 0.0],
        "[2]": [0.0, 0.25],
        "[1,1]": [1.0, 0.0],
        "[1,2]": [0.3, -0.1],
        "[2,2]": [0.7, 0.0],
        "[1,1,2]": [0.2, 0.6],
    }

    def test_directions_invert_each_other(self, tmp_path):
        fwd = write_config(
            tmp_path / "fwd.json",
            "cumulant-convert",
            {"direction": "cumulants-to-moments", "table": self.TABLE},
            out=str(tmp_path / "fwd_run"),
        )
        assert main(["cumulant-convert", "--config", str(fwd)]) == 0
        moments = json.loads((tmp_path / "fwd_run" / "converted.json").read_text())
        # second moment of variable 1 is kappa(1,1) + kappa(1)^2
        assert as_c(moments["[1,1]"]) == pytest.approx(1.0 + 0.25, abs=1e-14)
        back = write_config(
            tmp_path / "back.json",
            "cumulant-convert",
            {"direction": "moments-to-cumulants", "table": moments},
            out=str(tmp_path / "back_run"),
        )
        assert main(["cumulant-convert", "--config", str(back)]) == 0
        recovered = json.loads((tmp_path / "back_run" / "converted.json").read_text())
        assert set(recovered) == set(self.TABLE)
        for key, value in self.TABLE.items():
            assert as_c(recovered[key]) == pytest.approx(as_c(value), abs=1e-12)

    def test_missing_sub_moment_is_a_config_error(self, tmp_path):
        path = write_config(
            tmp_path / "c.json",
            "cumulant-convert",
            {"direction": "moments-to-cumulants", "table": {"[1,1]": [1.0, 0.0]}},
            out=str(tmp_path / "run"),
        )
        assert main(["cumulant-convert", "--config", str(path)]) == 2

    def test_unknown_direction_rejected(self, tmp_path):
        path = write_config(
            tmp_path / "c.json",
            "cumulant-convert",
            {"direction": "sideways", "table": {"[1]": [1.0, 0.0]}},
            out=str(tmp_path / "run"),
        )
        assert main(["cumulant-convert", "--config", str(path)]) == 2


class TestHierarchyRhs:
    MODEL = {
        "terms": [
            {"index": 1, "seq": [2], "amplitude": {"type": "constant", "value": [0.0, -1.0]}},
            {"index": 2, "seq": [1], "amplitude": {"type": "phase", "omega": 2.0}},
            {
                "index": 2,
                "seq": [1, 2],
                "amplitude": {"type": "table", "key": [1, 1], "scale": [0.5, 0.0]},
            },
        ]
    }
    TABLE = {
        "[1]": [0.2, 0.0],
        "[2]": [0.1, -0.1],
        "[1,1]": [1.0, 0.0],
        "[1,2]": [0.4, 0.2],
        "[2,2]": [0.6, 0.0],
    }

    def test_two_variable_model_matches_paper_and_pencil(self, tmp_path):
        path = write_config(
            tmp_path / "c.json",
            "hierarchy-rhs",
            {"order": 2, "time": 0.5, "model": self.MODEL, "table": self.TABLE},
            out=str(tmp_path / "run"),
        )
        assert main(["hierarchy-rhs", "--config", str(path)]) == 0
        rhs = {
            key: as_c(value)
            for key, value in json.loads((tmp_path / "run" / "rhs_table.json").read_text()).items()
        }
        k11, k12, k22 = 1.0, 0.4 + 0.2j, 0.6 + 0.0j
        phase = cmath.exp(2.0j * 0.5)
        # single-variable targets die: Wick polynomials have zero mean
        assert rhs["[1]"] == 0.0 and rhs["[2]"] == 0.0
        # each element of (1,1) contributes (-i) * kappa(1,2); the table-driven
        # drive needs a third cumulant, which the closure caps to zero
        assert rhs["[1,1]"] == pytest.approx(2.0 * (-1j) * k12, abs=1e-12)
        assert rhs["[1,2]"] == pytest.approx((-1j) * k22 + phase * k11, abs=1e-12)
        assert rhs["[2,2]"] == pytest.approx(2.0 * phase * k12, abs=1e-12)

    def test_table_driven_amplitude_reads_the_live_state(self, tmp_path):
        model = {
            "terms": [
                {
                    "index": 1,
                    "seq": [1],
                    "amplitude": {"type": "table", "key": [1, 1], "scale": [2.0, 0.0]},
                }
            ]
        }
        path = write_config(
            tmp_path / "c.json",
            "hierarchy-rhs",
            {"order": 2, "model": model, "table": {"[1,1]": [3.0, 0.0]}},
            out=str(tmp_path / "run"),
        )
        assert main(["hierarchy-rhs", "--config", str(path)]) == 0
        rhs = json.loads((tmp_path / "run" / "rhs_table.json").read_text())
        # amplitude = 2 * kappa(1,1) = 6; each of the two slots contributes
        # 6 * kappa(1,1), so the total is 36
        assert as_c(rhs["[1,1]"]) == pytest.approx(36.0, abs=1e-12)
        assert as_c(rhs["[1]"]) == 0.0

    def test_bad_amplitude_type_rejected(self, tmp_path):
        model = {
            "terms": [{"index": 1, "seq": [1], "amplitude": {"type": "mystery"}}]
        }
        path = write_config(
            tmp_path / "c.json",
            "hierarchy-rhs",
            {"order": 1, "model": model, "table": {}},
            out=str(tmp_path / "run"),
        )
        assert main(["hierarchy-rhs", "--config", str(path)]) == 2


def random_table(rng, indices, order) -> dict:
    """The external form of a table over every multiset of ``indices`` up to ``order``, random complex values."""
    keys = [key for r in range(1, order + 1) for key in itertools.combinations_with_replacement(indices, r)]
    return {json.dumps(list(key)): [float(rng.standard_normal()), float(rng.standard_normal())] for key in keys}


class TestKeyOrder:
    """The result bytes of an algebra kind depend on a table's value, not on the order of its keys."""

    INDICES = ["u", "v", "w", "x"]  # 34 keys up to order 3
    MODEL = {
        "terms": [
            {"index": "u", "seq": ["v", "w"], "amplitude": {"type": "constant", "value": [0.5, -1.0]}},
            {"index": "v", "seq": ["u", "x", "x"], "amplitude": {"type": "constant", "value": [1.0, 0.0]}},
            {"index": "w", "seq": ["u", "u", "v"], "amplitude": {"type": "constant", "value": [-0.3, 0.2]}},
            {"index": "x", "seq": ["w"], "amplitude": {"type": "constant", "value": [0.0, 1.0]}},
        ]
    }
    PARAMS = {
        "wick-expand": lambda table: {"indices": ["u", "v", "w", "x", "u", "w"], "cumulants": table},
        "moments-to-cumulants": lambda table: {"direction": "moments-to-cumulants", "table": table},
        "cumulants-to-moments": lambda table: {"direction": "cumulants-to-moments", "table": table},
        "hierarchy-rhs": lambda table: {"order": 3, "model": TestKeyOrder.MODEL, "table": table},
    }

    @pytest.mark.parametrize("job", list(PARAMS))
    def test_a_table_with_its_keys_shuffled_writes_the_same_bytes(self, tmp_path, job):
        rng = np.random.default_rng(31)
        table = random_table(rng, self.INDICES, 3)
        items = list(table.items())
        rng.shuffle(items)
        kind = "cumulant-convert" if "-to-" in job else job
        outputs = []
        for name, entries in (("sorted", table), ("shuffled", dict(items))):
            path = write_config(tmp_path / f"{name}.json", kind, self.PARAMS[job](entries))
            outputs.append(tmp_path / name)
            assert main([kind, "--config", str(path), "--out", str(outputs[-1])]) == 0
        assert list(dict(items)) != list(table)
        assert result_files(outputs[0]) == result_files(outputs[1])


class TestWorkCounters:
    """The manifest summary's work counters and guard margins are the same at any thread count."""

    def summaries(self, tmp_path, kind: str, params: dict) -> dict:
        out = []
        for threads in (1, 2, 3):
            path = write_config(
                tmp_path / f"c{threads}.json", kind, params, threads=threads, out=str(tmp_path / f"run{threads}")
            )
            assert main([kind, "--config", str(path)]) == 0
            out.append(json.loads((tmp_path / f"run{threads}" / "manifest.json").read_text())["summary"])
        texts = [json.dumps(summary, sort_keys=True) for summary in out]
        assert texts == [texts[0]] * 3
        return out[0]

    @staticmethod
    def closed_table(variables, order: int) -> dict:
        keys = [k for r in range(1, order + 1) for k in itertools.combinations_with_replacement(variables, r)]
        return {json.dumps(list(k)): [0.1 + 0.01 * (i % 7), -0.02 * (i % 5)] for i, k in enumerate(keys)}

    def test_moments_to_cumulants_evaluates_each_multiset_once(self, tmp_path):
        # each multiset sums its distinct blocks that hold its lowest id, once
        # each: 8,023 terms, where one term per label subset would be 32,274
        table = self.closed_table((1, 2, 3, 4), 8)
        summary = self.summaries(tmp_path, "cumulant-convert", {"direction": "moments-to-cumulants", "table": table})
        assert summary == {"entries": 494, "multisets_evaluated": 494, "recursion_terms": 8023, "partition_states": 0}

    def test_cumulants_to_moments_sums_each_sub_multiset_once(self, tmp_path):
        # every sub-multiset of a key is a key: one block cumulant and one state each
        table = self.closed_table((1, 2, 3), 7)
        summary = self.summaries(tmp_path, "cumulant-convert", {"direction": "cumulants-to-moments", "table": table})
        assert summary == {"entries": 119, "multisets_evaluated": 119, "partition_states": 119}

    def test_dnls_simulate_counts_site_steps_and_the_step_margin(self, tmp_path):
        # 8 realizations x 16 sites x 20 steps; dt 0.05 against max|omega| = 4
        summary = self.summaries(tmp_path, "dnls-simulate", TestDnlsSimulate.PARAMS)
        assert (summary["site_steps"], summary["dt_max_omega"]) == (2560, 0.2)

    def test_kinetic_check_counts_site_steps_and_the_step_margin(self, tmp_path):
        # 400 realizations x 64 sites x (20 + 80) steps; dt 0.05 against max|omega| = 8
        summary = self.summaries(tmp_path, "kinetic-check", TestKineticCheck.PARAMS)
        assert (summary["site_steps"], summary["dt_max_omega"]) == (2_560_000, 0.4)

    def test_bp_solve_reports_number_and_energy_drift(self, tmp_path):
        # the collision sums conserve the number to rounding; the energy only
        # up to the width of the broadened delta, so its drift is a real margin
        params = dict(
            EQL_BP_PARAMS,
            delta={"model": "gaussian", "epsilon": 0.35},
            w0={"kind": "cosine", "mean": 1.0, "amplitudes": [0.5, 0.25]},
        )
        summary = self.summaries(tmp_path, "bp-solve", params)
        assert summary["n_steps"] == 4
        assert summary["number_drift"] <= 1e-13
        assert summary["energy_drift"] == pytest.approx(7.426415960081e-4, rel=1e-9)

    def test_bp_solve_counts_engine_work_and_clamps(self, tmp_path):
        # 83 midpoint nodes at epsilon 0.35 on 8^2 (plan 3 x 83 x 64 x 16 bytes);
        # the cosine w0 has its minimum 1 - 0.5 - 0.25 and nothing is clamped
        params = dict(
            EQL_BP_PARAMS,
            delta={"model": "gaussian", "epsilon": 0.35},
            w0={"kind": "cosine", "mean": 1.0, "amplitudes": [0.5, 0.25]},
        )
        summary = self.summaries(tmp_path, "bp-solve", params)
        assert {key: summary[key] for key in ("time_nodes", "plan_kept", "rk4_stages", "clamp_events")} == {
            "time_nodes": 83, "plan_kept": True, "rk4_stages": 16, "clamp_events": 0,
        }
        assert summary["min_w_before_clamp"] == 0.25
        # the counters live in the manifest only: summary.json and the trajectory keep their layout
        assert sorted(json.loads((tmp_path / "run1" / "summary.json").read_text())) == ["energy", "entropy", "number", "taus"]

    def test_hierarchy_counts(self, tmp_path):
        params = {"order": 3, "time": 0.5, "model": TestHierarchyRhs.MODEL, "table": TestHierarchyRhs.TABLE}
        summary = self.summaries(tmp_path, "hierarchy-rhs", params)
        # 15 blocks weighed and 15 remaining multisets summed; a block or a
        # remainder inside one Wick factor is neither weighed nor kept
        assert summary == {
            "targets": 9, "order": 3, "multisets_evaluated": 15, "partition_states": 15,
            "pair_expectations": 18, "pair_memo_hits": 0,
        }


class TestDnlsSimulate:
    PARAMS = {
        "lattice": {"dimension": 1, "side": 16},
        "dispersion": {"kind": "nearest-neighbor"},
        "coupling": 0.3,
        "w0": {"kind": "cosine", "mean": 1.0, "amplitudes": [0.5]},
        "n_realizations": 8,
        "dt": 0.05,
        "t_end": 1.0,
        "record_every": 5,
    }

    def make_config(self, tmp_path, **extra) -> Path:
        params = dict(self.PARAMS, **extra)
        return write_config(
            tmp_path / "c.json", "dnls-simulate", params, seed=5, out=str(tmp_path / "run")
        )

    def test_observables_and_spectrum_round_trip(self, tmp_path):
        path = self.make_config(tmp_path)
        assert main(["dnls-simulate", "--config", str(path)]) == 0
        lines = (tmp_path / "run" / "observables.csv").read_text().strip().splitlines()
        assert lines[0] == "time,mean_mass,mean_energy"
        rows = [[float(p) for p in line.split(",")] for line in lines[1:]]
        assert len(rows) == 1 + 20 // 5
        times = [row[0] for row in rows]
        assert times == [0.0, 0.25, 0.5, 0.75, 1.0]
        masses = np.array([row[1] for row in rows])
        energies = np.array([row[2] for row in rows])
        # the splitting conserves mass exactly and energy to second order
        assert np.max(np.abs(masses - masses[0])) < 1e-12 * masses[0]
        assert np.max(np.abs(energies - energies[0])) < 1e-2 * abs(energies[0])
        k_rows, values, stderr = read_spectrum_csv(tmp_path / "run" / "spectrum.csv")
        assert values.shape == (16,) and stderr is not None

    def test_thread_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        assert_threads_keep_bytes(tmp_path, monkeypatch, "dnls-simulate", self.PARAMS, per_block=3)

    def test_record_grid_must_divide_steps(self, tmp_path):
        path = self.make_config(tmp_path, record_every=7)
        assert main(["dnls-simulate", "--config", str(path)]) == 2

    def test_step_guard_maps_to_exit_3(self, tmp_path):
        path = self.make_config(tmp_path, dt=0.5, t_end=1.0, record_every=1)
        assert main(["dnls-simulate", "--config", str(path)]) == 3

    @pytest.mark.filterwarnings("error")  # a numpy warning would be a second stderr line
    @pytest.mark.parametrize(
        "extra, code",
        [
            ({"dt": float("nan")}, 2),
            ({"t_end": float("inf")}, 2),
            ({"coupling": float("inf")}, 2),
            # finite input whose field overflows at the first step trips the guard
            ({"coupling": 1e300, "w0": {"kind": "flat", "value": 1e10}}, 3),
        ],
        ids=["nan-dt", "inf-t_end", "inf-coupling", "overflowing-field"],
    )
    def test_non_finite_input_or_field_fails_cleanly(self, tmp_path, capsys, extra, code):
        path = self.make_config(tmp_path, **extra)
        assert main(["dnls-simulate", "--config", str(path)]) == code
        assert_one_error_line(capsys, code)
        assert not (tmp_path / "run" / "observables.csv").exists()


class TestEstimateW:
    PARAMS = {
        "lattice": {"dimension": 1, "side": 16},
        "dispersion": {"kind": "zero"},
        "w0": {"kind": "flat", "value": 1.0},
        "n_realizations": 64,
    }

    def test_thread_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        params = dict(self.PARAMS, w0={"kind": "cosine", "mean": 1.0, "amplitudes": [0.4]})
        assert_threads_keep_bytes(tmp_path, monkeypatch, "estimate-w", params, per_block=20)

    def test_spectrum_reproduces_the_library_estimate(self, tmp_path):
        path = write_config(
            tmp_path / "c.json", "estimate-w", self.PARAMS, seed=9, out=str(tmp_path / "run")
        )
        assert main(["estimate-w", "--config", str(path)]) == 0
        _, values, stderr = read_spectrum_csv(tmp_path / "run" / "spectrum.csv")
        lattice = Lattice(dimension=1, side=16)
        ensemble = sample_initial(lattice, np.ones(16), 64, seed=9)
        expected, expected_stderr = estimate_W(ensemble)
        # repr round trip is exact, so the file carries the estimate verbatim
        assert np.array_equal(values, expected)
        assert np.array_equal(stderr, expected_stderr)

    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_a_fixed_modulus_ensemble_is_within_rounding_of_w0(self, tmp_path, scale):
        # every mode power is w0 up to rounding, so the jackknife stderr is 0 or of rounding size
        params = dict(
            self.PARAMS,
            w0={"kind": "cosine", "mean": scale, "amplitudes": [0.4 * scale]},
            n_realizations=50,
            family="fixed-modulus",
        )
        path = write_config(tmp_path / "c.json", "estimate-w", params, seed=3, out=str(tmp_path / "run"))
        assert main(["estimate-w", "--config", str(path)]) == 0
        z = json.loads((tmp_path / "run" / "manifest.json").read_text())["summary"]["max_zscore_vs_w0"]
        assert math.isfinite(z) and z <= 1.0


EQL_BP_PARAMS = {
    "lattice": {"dimension": 2, "side": 8},
    "dispersion": {"kind": "nearest-neighbor"},
    "delta": {"model": "gaussian", "epsilon": 0.0625},
    "method": "fft",
    "w0": {"kind": "equilibrium", "beta": 1.0, "mu": -1.0},
    "tau_end": 0.2,
    "dtau": 0.05,
}


class TestBpSolve:
    def test_equilibrium_start_stays_flat(self, tmp_path):
        path = write_config(
            tmp_path / "c.json", "bp-solve", EQL_BP_PARAMS, out=str(tmp_path / "run")
        )
        assert main(["bp-solve", "--config", str(path)]) == 0
        taus, k_rows, values = read_trajectory_csv(tmp_path / "run" / "trajectory.csv")
        assert taus.tolist() == pytest.approx([0.0, 0.05, 0.1, 0.15, 0.2], abs=1e-12)
        assert k_rows.shape == (64, 2) and values.shape == (5, 64)
        assert np.max(np.abs(values - values[0])) < 1e-8
        lattice = Lattice(dimension=2, side=8)
        from wickkit.dnls import nearest_neighbor_dispersion

        eql = EquilibriumParams(beta=1.0, mu=-1.0).spectrum(
            lattice, nearest_neighbor_dispersion(2)
        )
        assert np.array_equal(values[0], eql.ravel())
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        number = np.array(summary["number"])
        assert np.max(np.abs(number - number[0])) < 1e-12
        assert len(summary["entropy"]) == len(taus)

    def test_rerun_and_replay_are_byte_identical(self, tmp_path):
        path = write_config(
            tmp_path / "c.json", "bp-solve", EQL_BP_PARAMS, out=str(tmp_path / "a")
        )
        assert main(["bp-solve", "--config", str(path)]) == 0
        assert main(["bp-solve", "--config", str(path), "--out", str(tmp_path / "b")]) == 0
        for name in ("trajectory.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        # the manifest's echoed config replays to the same bytes
        manifest = tmp_path / "a" / "manifest.json"
        assert main(["bp-solve", "--config", str(manifest), "--out", str(tmp_path / "c")]) == 0
        for name in ("trajectory.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "c" / name).read_bytes()

    def test_negative_initial_spectrum_rejected(self, tmp_path):
        params = dict(EQL_BP_PARAMS, w0={"kind": "cosine", "mean": 0.1, "amplitudes": [1.0, 0.0]})
        path = write_config(tmp_path / "c.json", "bp-solve", params, out=str(tmp_path / "run"))
        assert main(["bp-solve", "--config", str(path)]) == 2

    def test_non_finite_initial_spectrum_rejected(self, tmp_path, capsys):
        params = dict(EQL_BP_PARAMS, w0={"kind": "cosine", "mean": float("nan"), "amplitudes": [1.0, 0.0]})
        path = write_config(tmp_path / "c.json", "bp-solve", params, out=str(tmp_path / "run"))
        assert main(["bp-solve", "--config", str(path)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["exit_code"] == 2
        assert not (tmp_path / "run" / "trajectory.csv").exists()

    def test_method_key_is_checked_but_has_no_effect(self, tmp_path):
        # every collision sum runs on one engine; old configs still carry the key
        base = {k: v for k, v in EQL_BP_PARAMS.items() if k != "method"}
        for name, params in (("none", base), ("direct", dict(base, method="direct"))):
            path = write_config(tmp_path / f"{name}.json", "bp-solve", params, out=str(tmp_path / name))
            assert main(["bp-solve", "--config", str(path)]) == 0
        for name in ("trajectory.csv", "summary.json"):
            assert (tmp_path / "none" / name).read_bytes() == (tmp_path / "direct" / name).read_bytes()
        fejer = dict(base, delta={"model": "fejer", "window_tau": 0.2, "window_coupling": 0.2}, method="fft")
        path = write_config(tmp_path / "fejer.json", "bp-solve", fejer, out=str(tmp_path / "fejer"))
        assert main(["bp-solve", "--config", str(path)]) == 0

    def test_unknown_method_rejected(self, tmp_path):
        params = dict(EQL_BP_PARAMS, method="magic")
        path = write_config(tmp_path / "c.json", "bp-solve", params, out=str(tmp_path / "run"))
        assert main(["bp-solve", "--config", str(path)]) == 2

    ZERO_MODE = {
        "lattice": {"dimension": 1, "side": 4},
        "dispersion": {"kind": "nearest-neighbor"},
        "delta": {"model": "gaussian", "epsilon": 0.5},
        "w0": {"kind": "cosine", "mean": 0.5, "amplitudes": [0.5]},  # W = [1, 0.5, 0, 0.5]
        "tau_end": 0.1,
        "dtau": 0.05,
    }

    @pytest.mark.parametrize(
        "edit",
        [
            {},
            {"w0": {"kind": "flat", "value": 0.0}},
            {"lattice": {"dimension": 2, "side": 8}, "w0": {"kind": "cosine", "mean": 0.6, "amplitudes": [0.3, 0.3]}},
            {"delta": {"model": "fejer", "window_tau": 0.2, "window_coupling": 0.2}},
        ],
        ids=["cosine-1d", "flat-zero", "cosine-2d", "fejer"],
    )
    def test_a_zero_mode_writes_a_null_entropy(self, tmp_path, edit):
        # sum_k ln W is -inf on a spectrum with a zero mode, and JSON has no number for it
        path = write_config(tmp_path / "c.json", "bp-solve", {**self.ZERO_MODE, **edit}, out=str(tmp_path / "run"))
        assert main(["bp-solve", "--config", str(path)]) == 0
        _, _, values = read_trajectory_csv(tmp_path / "run" / "trajectory.csv")
        entropy = json.loads((tmp_path / "run" / "summary.json").read_text())["entropy"]
        zero = [bool(np.any(row == 0.0)) for row in values]
        assert zero[0] and [value is None for value in entropy] == zero
        logs = np.sum(np.log(values[~np.array(zero)]), axis=1)
        assert [value for value in entropy if value is not None] == logs.tolist()

    def test_a_positive_spectrum_writes_every_entropy_as_a_number(self, tmp_path):
        params = dict(self.ZERO_MODE, w0={"kind": "cosine", "mean": 0.6, "amplitudes": [0.3]})
        path = write_config(tmp_path / "c.json", "bp-solve", params, out=str(tmp_path / "run"))
        assert main(["bp-solve", "--config", str(path)]) == 0
        _, _, values = read_trajectory_csv(tmp_path / "run" / "trajectory.csv")
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["entropy"] == np.sum(np.log(values), axis=1).tolist()
        text = json.dumps(summary, sort_keys=True, allow_nan=False) + "\n"
        assert (tmp_path / "run" / "summary.json").read_text() == text

    def test_infinite_tau_end_rejected(self, tmp_path, capsys):
        params = dict(EQL_BP_PARAMS, tau_end=float("inf"))
        path = write_config(tmp_path / "c.json", "bp-solve", params, out=str(tmp_path / "run"))
        assert main(["bp-solve", "--config", str(path)]) == 2
        assert_one_error_line(capsys, 2)
        assert not (tmp_path / "run" / "trajectory.csv").exists()


class TestBpCompare:
    PARAMS = {
        "lattice": {"dimension": 2, "side": 8},
        "dispersion": {"kind": "nearest-neighbor"},
        "w0": {"kind": "cosine", "mean": 1.0, "amplitudes": [0.5, 0.25]},
        "tau": 0.1,
        "lambda_list": [0.8, 0.2],
        "reference_delta": {"model": "gaussian", "epsilon": 0.35},
    }

    def test_table_layout_and_thread_invariance(self, tmp_path):
        path = write_config(
            tmp_path / "c.json", "bp-compare", self.PARAMS, out=str(tmp_path / "a")
        )
        assert main(["bp-compare", "--config", str(path)]) == 0
        assert (
            main(["bp-compare", "--config", str(path), "--threads", "3", "--out", str(tmp_path / "b")])
            == 0
        )
        body = (tmp_path / "a" / "convergence.csv").read_bytes()
        assert body == (tmp_path / "b" / "convergence.csv").read_bytes()
        lines = body.decode().strip().splitlines()
        assert lines[0] == "lambda,sup_gap,rms_gap,mean_abs_gap"
        rows = [[float(p) for p in line.split(",")] for line in lines[1:]]
        assert [row[0] for row in rows] == [0.8, 0.2]
        assert all(row[1] >= row[2] >= row[3] > 0.0 for row in rows)

    def test_bad_lambda_list_rejected(self, tmp_path):
        params = dict(self.PARAMS, lambda_list=[])
        path = write_config(tmp_path / "c.json", "bp-compare", params, out=str(tmp_path / "run"))
        assert main(["bp-compare", "--config", str(path)]) == 2


class TestKineticCheck:
    PARAMS = {
        "lattice": {"dimension": 2, "side": 8},
        "dispersion": {"kind": "nearest-neighbor"},
        "w0": {"kind": "cosine", "mean": 1.0, "amplitudes": [0.5, 0.25]},
        "coupling_list": [0.4, 0.2],
        "tau": 0.16,
        "dt": 0.05,
        "n_realizations": 400,
        "reference_delta": {"model": "gaussian", "epsilon": 0.5},
    }

    def test_emitted_table_is_consistent(self, tmp_path):
        path = write_config(
            tmp_path / "c.json", "kinetic-check", self.PARAMS, seed=11, out=str(tmp_path / "a")
        )
        assert main(["kinetic-check", "--config", str(path)]) == 0
        lines = (tmp_path / "a" / "kinetic_check.csv").read_text().strip().splitlines()
        assert lines[0] == "lambda,k1,k2,collision,prelimit,mc_mean,mc_se,gap"
        rows = [[float(p) for p in line.split(",")] for line in lines[1:]]
        assert len(rows) == 2 * 64  # one block of 64 modes per coupling
        for row in rows:
            lam, _, _, collision, prelimit, mc_mean, mc_se, gap = row
            assert lam in (0.4, 0.2)
            assert mc_se > 0.0
            assert gap == mc_mean - collision
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        resolved = manifest["summary"]["resolved_modes"]
        assert set(resolved) == {"0.4", "0.2"} and min(resolved.values()) >= 1

    def test_thread_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        assert_threads_keep_bytes(tmp_path, monkeypatch, "kinetic-check", self.PARAMS, per_block=150)

    def test_too_small_ensemble_is_reported(self, tmp_path):
        params = dict(self.PARAMS, min_resolved_modes=64)
        path = write_config(
            tmp_path / "c.json", "kinetic-check", params, seed=11, out=str(tmp_path / "run")
        )
        assert main(["kinetic-check", "--config", str(path)]) == 2

    def test_kinetic_time_must_be_a_step_multiple(self, tmp_path):
        params = dict(self.PARAMS, coupling_list=[0.3])  # 0.16/0.09 is not on the dt grid
        path = write_config(
            tmp_path / "c.json", "kinetic-check", params, out=str(tmp_path / "run")
        )
        assert main(["kinetic-check", "--config", str(path)]) == 2

    def test_nan_dt_rejected(self, tmp_path, capsys):
        params = dict(self.PARAMS, dt=float("nan"))
        path = write_config(tmp_path / "c.json", "kinetic-check", params, out=str(tmp_path / "run"))
        assert main(["kinetic-check", "--config", str(path)]) == 2
        assert_one_error_line(capsys, 2)
        assert not (tmp_path / "run" / "kinetic_check.csv").exists()


class TestCsvWriters:
    """The bulk writers against the site-by-site formatters of ``_support``, byte for byte."""

    @staticmethod
    def awkward_values(rng, shape):
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        values.flat[0] = -0.0
        values.flat[-1] = 3.0
        return values

    @pytest.mark.parametrize("dimension, side", [(1, 128), (2, 16), (3, 4)])
    def test_trajectory_bytes(self, tmp_path, dimension, side):
        lattice = Lattice(dimension, side)
        rng = np.random.default_rng(dimension)
        spectra = np.stack([self.awkward_values(rng, lattice.shape) for _ in range(3)])
        taus = np.array([0.0, 0.1, 1e-17])
        zeros = np.zeros(3)
        for trajectory in (
            BPTrajectory(taus, spectra, zeros, zeros, zeros),
            BPTrajectory(taus, np.arange(spectra.size).reshape(spectra.shape), zeros, zeros, zeros),
        ):
            cli.write_trajectory_csv(lattice, trajectory, tmp_path / "t.csv")
            assert (tmp_path / "t.csv").read_text() == reference_trajectory_csv(lattice, trajectory)

    @pytest.mark.parametrize("dimension, side", [(1, 128), (2, 16), (3, 4)])
    def test_spectrum_bytes(self, tmp_path, dimension, side):
        lattice = Lattice(dimension, side)
        rng = np.random.default_rng(10 + dimension)
        values = self.awkward_values(rng, lattice.shape)
        for stderr in (None, np.abs(self.awkward_values(rng, lattice.shape))):
            write_spectrum_csv(lattice, values, tmp_path / "w.csv", stderr)
            assert (tmp_path / "w.csv").read_text() == reference_spectrum_csv(lattice, values, stderr)

    NOT_REAL = {
        "complex": lambda shape: np.ones(shape) * (1 + 5j),
        "string": lambda shape: np.full(shape, "1"),
        "bool": lambda shape: np.ones(shape, dtype=bool),
        "object": lambda shape: np.ones(shape, dtype=object),
    }

    @staticmethod
    def write_each_column(tmp_path, column, array_of):
        """Write a 1-D side-4 spectrum or two-slice trajectory whose ``column`` is ``array_of(shape)``."""
        lattice = Lattice(1, 4)
        arrays = {"values": np.ones(4), "stderr": np.ones(4), "taus": np.array([0.0, 0.5]), "spectra": np.ones((2, 4))}
        arrays[column] = array_of(arrays[column].shape)
        if column in ("values", "stderr"):
            path = tmp_path / "w.csv"
            write_spectrum_csv(lattice, arrays["values"], path, arrays["stderr"])
        else:
            path = tmp_path / "t.csv"
            zeros = np.zeros(2)
            cli.write_trajectory_csv(lattice, BPTrajectory(arrays["taus"], arrays["spectra"], zeros, zeros, zeros), path)
        return path

    @pytest.mark.parametrize("dtype", list(NOT_REAL))
    @pytest.mark.parametrize("column", ["values", "stderr", "taus", "spectra"])
    def test_a_column_that_is_not_real_is_refused_and_nothing_is_written(self, tmp_path, column, dtype):
        with pytest.raises(ConfigError, match=r"\.csv: a column of dtype .* is not real numbers"):
            self.write_each_column(tmp_path, column, self.NOT_REAL[dtype])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("column", ["values", "stderr", "taus", "spectra"])
    def test_integer_and_float32_columns_write_the_bytes_of_float64(self, tmp_path, column):
        want = self.write_each_column(tmp_path, column, lambda shape: np.full(shape, 2.0)).read_bytes()
        for dtype in (np.int64, np.uint8, np.float32):
            path = self.write_each_column(tmp_path, column, lambda shape: np.full(shape, 2, dtype=dtype))
            assert path.read_bytes() == want

    def test_observables_bytes(self, tmp_path, monkeypatch):
        masses, energies = spy(monkeypatch, dnls, "ell2_mass"), spy(monkeypatch, dnls, "hamiltonian")
        params = TestDnlsSimulate.PARAMS
        path = write_config(tmp_path / "c.json", "dnls-simulate", params, seed=5)
        assert main(["dnls-simulate", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
        n_real = params["n_realizations"]
        times = [block * params["record_every"] * params["dt"] for block in range(len(masses))]
        want = reference_observables_csv(times, [m / n_real for _, m in masses], [e / n_real for _, e in energies])
        assert len(masses) == 5 and (tmp_path / "run" / "observables.csv").read_text() == want

    def test_convergence_bytes(self, tmp_path, monkeypatch):
        reference, kernels = spy(monkeypatch, kinetic, "collision_operator"), spy(monkeypatch, kinetic, "prelimit_kernel")
        params = TestBpCompare.PARAMS
        path = write_config(tmp_path / "c.json", "bp-compare", params)
        assert main(["bp-compare", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
        gaps = [kernel / params["tau"] - reference[0][1] for _, kernel in kernels]
        want = reference_convergence_csv(params["lambda_list"], gaps)
        assert (tmp_path / "run" / "convergence.csv").read_text() == want

    def test_kinetic_check_bytes(self, tmp_path, monkeypatch):
        reference, kernels = spy(monkeypatch, kinetic, "collision_operator"), spy(monkeypatch, kinetic, "prelimit_kernel")
        errors = spy(monkeypatch, cli, "mean_stderr")
        params = TestKineticCheck.PARAMS
        path = write_config(tmp_path / "c.json", "kinetic-check", params, seed=11)
        assert main(["kinetic-check", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
        want = reference_kinetic_check_csv(
            Lattice(**params["lattice"]), params["coupling_list"], reference[0][1],
            [kernel / params["tau"] for _, kernel in kernels],
            [args[0].mean(axis=0) for args, _ in errors], [se for _, se in errors],
        )
        assert (tmp_path / "run" / "kinetic_check.csv").read_text() == want

    @staticmethod
    def write_trajectory(out, monkeypatch, bad):
        lattice = Lattice(2, 4)
        spectra = np.ones((2,) + lattice.shape)
        spectra[1, 2, 3] = bad
        zeros = np.zeros(2)
        cli.write_trajectory_csv(lattice, BPTrajectory(np.array([0.0, 0.5]), spectra, zeros, zeros, zeros), out / "t.csv")

    @staticmethod
    def write_spectrum_value(out, monkeypatch, bad):
        values = np.ones((4, 4))
        values[2, 3] = bad
        write_spectrum_csv(Lattice(2, 4), values, out / "w.csv")

    @staticmethod
    def write_spectrum_stderr(out, monkeypatch, bad):
        errors = np.ones((4, 4))
        errors[2, 3] = bad
        write_spectrum_csv(Lattice(2, 4), np.ones((4, 4)), out / "w.csv", errors)

    @staticmethod
    def write_observables(out, monkeypatch, bad):
        monkeypatch.setattr(dnls, "hamiltonian", lambda *args, **kwargs: bad)
        run(RunConfig("dnls-simulate", TestDnlsSimulate.PARAMS, out=str(out)))

    @staticmethod
    def write_convergence(out, monkeypatch, bad):
        monkeypatch.setattr(kinetic, "collision_operator", lambda w0, config: np.full(w0.shape, bad))
        run(RunConfig("bp-compare", TestBpCompare.PARAMS, out=str(out)))

    @staticmethod
    def write_kinetic_check(out, monkeypatch, bad):
        monkeypatch.setattr(kinetic, "collision_operator", lambda w0, config: np.full(w0.shape, bad))
        params = dict(TestKineticCheck.PARAMS, n_realizations=8, se_threshold=0.0)
        run(RunConfig("kinetic-check", params, out=str(out)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "writer",
        [
            "write_trajectory", "write_spectrum_value", "write_spectrum_stderr",
            "write_observables", "write_convergence", "write_kinetic_check",
        ],
    )
    def test_a_non_finite_value_writes_nothing(self, tmp_path, monkeypatch, writer, bad):
        with pytest.raises(GuardError, match="not finite"):
            getattr(self, writer)(tmp_path, monkeypatch, bad)
        assert not list(tmp_path.iterdir())


def spy(monkeypatch, module, name: str) -> list:
    """Record each call of ``module.<name>``, as the runners call it, as (args, result)."""
    calls = []
    real = getattr(module, name)

    def recording(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(module, name, recording)
    return calls


class TestMainPlumbing:
    def test_missing_config_file_is_an_io_error(self, tmp_path):
        assert main(["bp-solve", "--config", str(tmp_path / "nope.json")]) == 4

    def test_unwritable_output_maps_to_exit_4(self, tmp_path):
        path = write_config(tmp_path / "c.json", "bp-solve", EQL_BP_PARAMS)
        code = main(["bp-solve", "--config", str(path), "--out", "/proc/nope/x"])
        assert code == 4

    def test_one_parser_serves_every_call_of_a_process(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        wick = write_config(
            tmp_path / "w.json", "wick-expand", {"indices": [1], "cumulants": {"[1]": [0.25, 0.0]}}, out="from_config"
        )
        hier = write_config(
            tmp_path / "h.json", "hierarchy-rhs",
            {"order": 2, "model": TestHierarchyRhs.MODEL, "table": TestHierarchyRhs.TABLE}, seed=4, threads=2,
        )
        assert main(["wick-expand", "--config", str(wick), "--seed", "9", "--out", "first"]) == 0
        assert main(["hierarchy-rhs", "--config", str(hier), "--out", "second"]) == 0
        assert main(["wick-expand", "--config", str(wick), "--threads", "3"]) == 0
        echoed = {
            name: json.loads((tmp_path / name / "manifest.json").read_text())["config"]
            for name in ("first", "second", "from_config")
        }
        # each call sees its own kind and overrides, none of an earlier call's
        assert [(c["kind"], c["seed"], c["threads"]) for c in echoed.values()] == [
            ("wick-expand", 9, 1), ("hierarchy-rhs", 4, 2), ("wick-expand", 0, 3),
        ]
        assert cli._parser() is cli._parser()
        for argv in (
            ["hierarchy-rhs", "--config", str(hier), "--threads", "two"],
            ["wick-expand"],
            ["wick-expand", "--config", str(wick), "--color"],
        ):
            capsys.readouterr()
            # a command-line error is reported as every other error is: exit 2 and one JSON line
            assert main(argv) == 2
            assert_one_error_line(capsys, 2)
        assert main(["hierarchy-rhs", "--config", str(hier), "--out", "third"]) == 0

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate", "--config", "x.json"]) == 2
        assert_one_error_line(capsys, 2)

    @pytest.mark.parametrize(
        "argv",
        [
            ["bp-solve", "--config", "c.json", "--threads", "1.5"],
            ["bp-solve", "--config", "c.json", "--seed", "x"],
            [],
        ],
    )
    def test_a_command_line_error_is_one_json_line(self, capsys, argv):
        # argparse's multi-line usage text would break the one-line error contract
        assert main(argv) == 2
        assert_one_error_line(capsys, 2)

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bp-solve", "--help"])
        assert exc.value.code == 0
        assert "--config" in capsys.readouterr().out

    def test_console_entry_point_runs(self, tmp_path):
        path = write_config(
            tmp_path / "c.json",
            "wick-expand",
            {"indices": [1], "cumulants": {"[1]": [0.25, 0.0]}},
            out=str(tmp_path / "run"),
        )
        proc = subprocess.run(
            [sys.executable, "-m", "wickkit.cli", "wick-expand", "--config", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "wick-expand" in proc.stdout
        poly = json.loads((tmp_path / "run" / "wick_poly.json").read_text())
        # centering a single variable: y - kappa(y)
        assert poly["terms"] == [
            {"coeff": [-0.25, 0.0], "subset": []},
            {"coeff": [1.0, 0.0], "subset": [1]},
        ]

    def test_import_loads_no_scipy(self):
        # scipy is imported only where it is used; every CLI start pays for
        # what the package imports up front
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, wickkit.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_manifest_echoes_the_full_config(self, tmp_path):
        path = write_config(
            tmp_path / "c.json",
            "wick-expand",
            {"indices": [1], "cumulants": {"[1]": [0.5, 0.0]}},
            out=str(tmp_path / "run"),
        )
        rc = load_run_config(path, seed=3, threads=2)
        run(rc)
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["kind"] == "wick-expand"
        assert manifest["config"]["seed"] == 3
        assert manifest["config"]["threads"] == 2
        assert manifest["config"]["params"]["indices"] == [1]
        assert manifest["outputs"] == ["wick_poly.json"]
        assert "total_seconds" in manifest["timings"]


def fresh_python(script: str, cwd: Path) -> str:
    """Run ``script`` in a fresh interpreter on this package; its standard output."""
    env = dict(os.environ, PYTHONPATH=str(Path(wickkit.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, cwd=cwd, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestConsoleStart:
    """What a console run imports, seen in a fresh interpreter.

    pytest has imported numpy, ``dnls`` and ``kinetic`` before any test runs,
    so in this process the CLI never takes the lazy path a console run takes.
    """

    ALGEBRA = ["indexing", "cumulants"]
    LATTICE = ["dnls", "kinetic"]
    LAYERS = {
        "cumulant-convert": ALGEBRA,
        "wick-expand": ALGEBRA + ["wick"],
        "hierarchy-rhs": ALGEBRA + ["wick", "hierarchy"],
        "dnls-simulate": ["dnls"],
        "estimate-w": ["dnls"],
        "bp-solve": LATTICE,
        "bp-compare": LATTICE,
        "kinetic-check": LATTICE,
    }

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_kind_executes_only_its_own_layer(self, tmp_path, kind):
        write_config(tmp_path / "c.json", kind, BOUNDARY_CONFIGS[kind])
        out = fresh_python(
            "import json, sys, types\n"
            "from wickkit.cli import main\n"
            f"assert main([{kind!r}, '--config', 'c.json', '--out', 'run']) == 0\n"
            # a lazy module keeps its own type until its code runs
            "print(json.dumps(sorted(name for name, module in sys.modules.items()\n"
            "             if name.startswith(('wickkit', 'numpy')) and type(module) is types.ModuleType)))\n",
            tmp_path,
        )
        executed = json.loads(out.splitlines()[-1])
        assert ("numpy" in executed) == ("dnls" in self.LAYERS[kind])
        modules = [name.removeprefix("wickkit.") for name in executed if name.startswith("wickkit.")]
        assert sorted(modules) == sorted(["cli", "errors", "pool"] + self.LAYERS[kind])
        assert (tmp_path / "run" / "manifest.json").is_file()

    def test_a_pool_imports_concurrent_futures_when_it_starts(self, tmp_path):
        for kind in ("bp-solve", "bp-compare"):
            write_config(tmp_path / f"{kind}.json", kind, BOUNDARY_CONFIGS[kind])
        out = fresh_python(
            "import os, sys\n"
            "from wickkit.cli import main\n"
            "os.cpu_count = lambda: 2  # a pool of two starts on any machine\n"
            "imported = []\n"
            "for kind, threads in (('bp-solve', '1'), ('bp-compare', '1'), ('bp-compare', '2')):\n"
            "    out = f'{kind}-{threads}'\n"
            "    assert main([kind, '--config', f'{kind}.json', '--out', out, '--threads', threads]) == 0\n"
            "    imported.append('concurrent.futures' in sys.modules)\n"
            "print(imported)\n",
            tmp_path,
        )
        assert out.splitlines()[-1] == "[False, False, True]"
        threaded = result_files(tmp_path / "bp-compare-2")
        assert threaded and threaded == result_files(tmp_path / "bp-compare-1")

    def test_import_registers_every_module_the_tracer_patches(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        modules = sorted({module for module, *_ in importlib.import_module("spans").TARGETS})
        out = fresh_python(
            "import sys, wickkit.cli\n"
            f"print([m for m in {modules!r} if m not in sys.modules])\n"
            # a lazy module is an attribute of its package, as an imported one is
            "import wickkit.dnls, wickkit.kinetic\n"
            "print(wickkit.dnls.Lattice.__name__, wickkit.kinetic.bp_solve.__name__)\n",
            tmp_path,
        )
        assert out.splitlines() == ["[]", "Lattice bp_solve"]

    def test_a_fresh_bp_solve_writes_the_bytes_of_one_in_process(self, tmp_path):
        write_config(tmp_path / "c.json", "bp-solve", BOUNDARY_CONFIGS["bp-solve"])
        fresh_python(
            "from wickkit.cli import main\nassert main(['bp-solve', '--config', 'c.json', '--out', 'fresh']) == 0\n", tmp_path
        )
        assert main(["bp-solve", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "here")]) == 0
        fresh = result_files(tmp_path / "fresh")
        assert fresh and fresh == result_files(tmp_path / "here")


# ---------------------------------------------------------------------------
# the input boundary: malformed configs never reach the numerics
# ---------------------------------------------------------------------------

NAN, INF = float("nan"), float("inf")

# One small valid config per kind; every key path in it is a mutation site.
BOUNDARY_CONFIGS = {
    "wick-expand": {
        "indices": [1, 2, 1],
        "cumulants": {"[1]": [0.3, 0.0], "[2]": [-0.2, 0.1], "[1,2]": [0.7, 0.2], "[1,1]": [0.5, 0.0]},
    },
    "cumulant-convert": {
        "direction": "cumulants-to-moments",
        "table": {"[1]": [0.5, 0.0], "[1,1]": [1.0, 0.0], "[1,2]": [0.3, -0.1], "[2]": [0.0, 0.25]},
    },
    "hierarchy-rhs": {
        "order": 2,
        "time": 0.5,
        "model": TestHierarchyRhs.MODEL,
        "table": TestHierarchyRhs.TABLE,
    },
    "dnls-simulate": {
        "lattice": {"dimension": 1, "side": 8},
        "dispersion": {"kind": "next-nearest", "second_shell": 0.25},
        "coupling": 0.3,
        "w0": {"kind": "cosine", "mean": 1.0, "amplitudes": [0.5]},
        "n_realizations": 4,
        "dt": 0.05,
        "t_end": 0.2,
        "record_every": 2,
        "family": "gaussian",
    },
    "estimate-w": {
        "lattice": {"dimension": 1, "side": 8},
        "dispersion": {"kind": "zero"},
        "w0": {"kind": "flat", "value": 1.0},
        "n_realizations": 16,
        "family": "gaussian",
    },
    "bp-solve": {
        "lattice": {"dimension": 1, "side": 8},
        "dispersion": {"kind": "nearest-neighbor"},
        "delta": {"model": "gaussian", "epsilon": 0.35},
        "method": "fft",
        "w0": {"kind": "equilibrium", "beta": 1.0, "mu": -1.0},
        "tau_end": 0.1,
        "dtau": 0.05,
    },
    "bp-compare": {
        "lattice": {"dimension": 1, "side": 8},
        "dispersion": {"kind": "nearest-neighbor"},
        "w0": {"kind": "cosine", "mean": 1.0, "amplitudes": [0.5]},
        "tau": 0.1,
        "lambda_list": [0.8, 0.4],
        "reference_delta": {"model": "fejer", "window_tau": 0.1, "window_coupling": 0.5},
        "method": "direct",
    },
    "kinetic-check": {
        "lattice": {"dimension": 1, "side": 8},
        "dispersion": {"kind": "nearest-neighbor"},
        "w0": {"kind": "cosine", "mean": 1.0, "amplitudes": [0.5]},
        "coupling_list": [0.5],
        "tau": 0.1,
        "dt": 0.05,
        "n_realizations": 64,
        "family": "gaussian",
        "reference_delta": {"model": "gaussian", "epsilon": 0.5},
        "method": "fft",
        "se_threshold": 0.0,
        "min_resolved_modes": 1,
    },
}

MUTANTS = [NAN, INF, -INF, "x", True, None, 2.5, [], {}, [1.0], -1]


def boundary_config(kind: str) -> dict:
    return {"schema_version": SCHEMA_VERSION, "kind": kind, "seed": 3, "threads": 1,
            "params": copy.deepcopy(BOUNDARY_CONFIGS[kind])}


def key_paths(node, prefix=()):
    """Every key path below ``node``, through objects and lists."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from key_paths(child, prefix + (key,))


def replaced(config: dict, path: tuple, value) -> dict:
    out = copy.deepcopy(config)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = copy.deepcopy(value)
    return out


def run_in_process(kind: str, config: dict, directory: Path, flags: Sequence[str] = ()) -> tuple[int, str]:
    """Write the config, run the ``kind`` subcommand on it in-process, return (exit code, stderr)."""
    path = directory / "c.json"
    path.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([kind, "--config", str(path), *flags, "--out", str(directory / "run")])
    return code, err.getvalue()


def _refuse(token):
    raise AssertionError(f"non-finite JSON constant {token}")


def assert_finite_file(path: Path) -> None:
    text = path.read_text()
    if path.suffix == ".json":
        json.loads(text, parse_constant=_refuse)
    else:
        for line in text.splitlines()[1:]:
            assert all(math.isfinite(float(cell)) for cell in line.split(",") if cell), (path.name, line)


# Malformed configs, each one mistyped, non-finite or out-of-range value away
# from a valid one; every one must exit 2 before any numerics run.
PROBES = [
    ("dnls-simulate", ("params", "n_realizations"), "x"),
    ("dnls-simulate", ("params", "record_every"), NAN),
    ("dnls-simulate", ("params", "lattice", "side"), "x"),
    ("dnls-simulate", ("params", "lattice", "side"), None),
    ("estimate-w", ("params", "w0"), {"kind": "cosine", "mean": 1.0, "amplitudes": 0.5}),
    ("bp-solve", ("params", "delta", "epsilon"), "x"),
    ("bp-solve", ("params", "tau_end"), None),
    ("bp-compare", ("params", "lambda_list"), 0.5),
    ("hierarchy-rhs", ("params", "order"), "x"),
    ("hierarchy-rhs", ("params", "model", "terms", 0, "amplitude", "value"), [1.0]),
    ("hierarchy-rhs", ("params", "model", "terms", 0, "amplitude", "value"), "ab"),
    ("wick-expand", ("params", "cumulants", "[1]"), [1.0]),
    ("wick-expand", ("params", "cumulants", "[1]"), "x"),
    ("wick-expand", ("params", "cumulants"), [1]),
    ("wick-expand", ("params", "indices"), [{"a": 1}]),
    ("cumulant-convert", ("params", "table"), {"[1": [0.1, 0.0]}),
    ("cumulant-convert", ("params", "table", "[1]"), [0.1]),
    ("dnls-simulate", ("params", "n_realizations"), 2.7),
    ("dnls-simulate", ("params", "dt"), "0.05"),
    ("dnls-simulate", ("params", "lattice", "side"), 8.9),
    ("dnls-simulate", ("params", "dispersion"), {"kind": "nearest-neighbor", "second_shell": NAN}),
    ("hierarchy-rhs", ("params", "time"), NAN),
    ("hierarchy-rhs", ("params", "table", "[1]", 0), NAN),
    ("wick-expand", ("params", "cumulants", "[1]", 0), NAN),
    ("cumulant-convert", ("params", "table", "[1]", 0), INF),
    ("dnls-simulate", ("params", "coupling"), NAN),
    ("dnls-simulate", ("params", "coupling"), "nan"),
    ("dnls-simulate", ("params", "w0"), {"kind": "flat", "value": INF}),
    # separate probes
    ("estimate-w", ("params", "w0"), {"kind": "csv", "path": "nan.csv"}),
    ("estimate-w", ("threads",), 2.5),
    ("estimate-w", ("seed",), "x"),
    ("wick-expand", ("params", "cumulants"), {"[]": [1.0, 0.0], "[1]": [0.3, 0.0]}),
    # library input errors reachable from the CLI, and CSV cells
    ("hierarchy-rhs", ("params", "table"), {"[1,1,1]": [0.1, 0.0]}),
    ("cumulant-convert", ("params",), {"direction": "moments-to-cumulants", "table": {"[]": [2.0, 0.0], "[1]": [0.5, 0.0]}}),
    ("hierarchy-rhs", ("params", "model", "terms", 0, "seq"), [{"a": 1}]),
    ("estimate-w", ("params", "w0"), {"kind": "csv", "path": "word.csv"}),
    ("bp-solve", ("params", "dispersion"), {"kind": "zero", "second_shell": 0.25}),
    # a csv spectrum of another lattice with as many sites (8 x 8 for 4 x 4 x 4), and one with two rows swapped
    ("estimate-w", ("params",), {
        **BOUNDARY_CONFIGS["estimate-w"],
        "lattice": {"dimension": 3, "side": 4},
        "w0": {"kind": "csv", "path": "square.csv"},
    }),
    ("estimate-w", ("params", "w0"), {"kind": "csv", "path": "swapped.csv"}),
    # a csv spectrum whose stderr column is empty on some rows only
    ("estimate-w", ("params", "w0"), {"kind": "csv", "path": "ragged.csv"}),
    # seeds past the int64 range, where numpy would read the Philox key as float64
    ("estimate-w", ("seed",), 2**63),
    ("estimate-w", ("seed",), 2**63 + 1),
    ("estimate-w", ("seed",), 2**64 - 1),
    ("estimate-w", ("seed",), 2**64),
    # a csv cell that Python's float alone reads (0_5 as 5.0)
    ("estimate-w", ("params", "w0"), {"kind": "csv", "path": "underscore.csv"}),
    # negative thresholds would switch the resolution check off
    ("kinetic-check", ("params", "se_threshold"), -1),
    ("kinetic-check", ("params", "min_resolved_modes"), -1),
    # a coupling whose square underflows to 0 or overflows, and a phase omega * time that overflows
    ("bp-compare", ("params", "lambda_list"), [1e-170]),
    ("kinetic-check", ("params", "coupling_list"), [1e-170]),
    ("bp-solve", ("params", "delta"), {"model": "fejer", "window_tau": 0.1, "window_coupling": 1e-170}),
    ("bp-compare", ("params", "lambda_list"), [1e200]),
    ("kinetic-check", ("params", "coupling_list"), [1e200]),
    ("bp-solve", ("params", "delta"), {"model": "fejer", "window_tau": 0.1, "window_coupling": 1e200}),
    ("hierarchy-rhs", ("params",), {
        **BOUNDARY_CONFIGS["hierarchy-rhs"],
        "time": 1e308,
        "model": {"terms": [{"index": 1, "seq": [2], "amplitude": {"type": "phase", "omega": 1e308}}]},
    }),
]

# Every JSON object of every boundary config, as (kind, key path); each one
# must refuse a key that its runner does not read.
OBJECT_SITES = [
    (kind, path)
    for kind in KINDS
    for path in [(), *key_paths(boundary_config(kind))]
    if isinstance(functools.reduce(operator.getitem, path, boundary_config(kind)), dict)
]


# Finite inputs whose results overflow: each must trip the output guard.
OVERFLOWS_NAMED = [
    ("wick-expand", "coefficients", lambda v: {"indices": [1, 2], "cumulants": {"[1]": [v, 0.0], "[2]": [v, 0.0]}}),
    (
        "cumulant-convert", "cumulants-to-moments",
        lambda v: {"direction": "cumulants-to-moments", "table": {"[1]": [v, 0.0], "[2]": [v, 0.0], "[1,2]": [0.5, 0.0]}},
    ),
    (
        "cumulant-convert", "moments-to-cumulants",
        lambda v: {"direction": "moments-to-cumulants", "table": {"[1]": [v, 0.0], "[1,1]": [v, 0.0]}},
    ),
    (
        "hierarchy-rhs", "pair-expectations",
        lambda v: {
            "order": 3,
            "model": {"terms": [{"index": 1, "seq": [1, 2], "amplitude": {"type": "constant", "value": [1.0, 0.0]}}]},
            "table": {"[1,1]": [v, 0.0], "[1,2]": [v, 0.0]},
        },
    ),
]
OVERFLOWS = [(kind, make) for kind, _, make in OVERFLOWS_NAMED]


def _probe_id(probe) -> str:
    kind, path, value = probe
    return f"{kind}:{'.'.join(map(str, path))}={value!r}"


class TestInputBoundary:
    @pytest.mark.parametrize("probe", PROBES, ids=[_probe_id(p) for p in PROBES])
    def test_malformed_config_exits_2_without_results(self, tmp_path, monkeypatch, probe):
        kind, path, value = probe
        monkeypatch.chdir(tmp_path)  # the csv probes name files relative to the working directory
        rows = "".join(f"{i / 8!r},1.0,\n" for i in range(8))
        (tmp_path / "nan.csv").write_text("k1,value,stderr\n" + rows.replace("1.0,", "nan,", 1))
        (tmp_path / "word.csv").write_text("k1,value,stderr\n" + rows.replace("1.0,", "one,", 1))
        write_spectrum_csv(Lattice(2, 8), np.ones((8, 8)), tmp_path / "square.csv")
        lines = rows.splitlines()
        (tmp_path / "swapped.csv").write_text("\n".join(["k1,value,stderr", lines[1], lines[0], *lines[2:]]) + "\n")
        (tmp_path / "ragged.csv").write_text("k1,value,stderr\n" + rows.replace("1.0,", "1.0,0.5", 3))
        (tmp_path / "underscore.csv").write_text("k1,value,stderr\n" + rows.replace("1.0,", "0_5,", 1))
        code, stderr = run_in_process(kind, replaced(boundary_config(kind), path, value), tmp_path)
        assert code == 2, stderr
        assert_error_line(stderr, 2)
        assert not (tmp_path / "run").exists() or not any((tmp_path / "run").iterdir())

    def test_a_repeated_coupling_exits_2_without_results(self, tmp_path):
        # one march per coupling: a repeat would run twice and report one key in resolved_modes
        config = replaced(boundary_config("kinetic-check"), ("params", "coupling_list"), [0.5, 0.25, 0.5])
        code, stderr = run_in_process("kinetic-check", config, tmp_path)
        assert code == 2, stderr
        assert_error_line(stderr, 2)
        assert "coupling_list repeats the coupling 0.5" in json.loads(stderr)["message"]
        assert not (tmp_path / "run").exists() or not any((tmp_path / "run").iterdir())

    # one probe per reader of an input file: (kind, the config edit that names the file, its name)
    NOT_UTF8 = {
        "config": ("wick-expand", None, "c.json"),
        "cumulants_path": ("wick-expand", (("params",), {"indices": [1], "cumulants_path": "bad.json"}), "bad.json"),
        "csv w0": ("estimate-w", (("params", "w0"), {"kind": "csv", "path": "bad.csv"}), "bad.csv"),
    }

    @pytest.mark.parametrize("reader", list(NOT_UTF8))
    def test_an_input_file_that_is_not_utf8_exits_2_without_results(self, tmp_path, monkeypatch, reader):
        kind, edit, name = self.NOT_UTF8[reader]
        monkeypatch.chdir(tmp_path)  # the probes name their files relative to the working directory
        config = boundary_config(kind) if edit is None else replaced(boundary_config(kind), *edit)
        (tmp_path / "c.json").write_text(json.dumps(config))
        bad = tmp_path / name
        bad.write_bytes(b"\xff\xfe" + (bad.read_bytes() if bad.exists() else b"{}"))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([kind, "--config", "c.json", "--out", "run"])
        assert code == 2, err.getvalue()
        assert_error_line(err.getvalue(), 2)
        assert f"{name} is not UTF-8 text" in json.loads(err.getvalue())["message"]
        assert not (tmp_path / "run").exists() or not any((tmp_path / "run").iterdir())

    @pytest.mark.parametrize("kind, path", OBJECT_SITES, ids=[f"{k}:{'.'.join(map(str, p)) or 'top'}" for k, p in OBJECT_SITES])
    def test_an_unknown_key_exits_2_without_results(self, tmp_path, kind, path):
        code, stderr = run_in_process(kind, replaced(boundary_config(kind), path + ("bogus",), 1), tmp_path)
        assert code == 2, stderr
        assert_error_line(stderr, 2)
        assert "bogus" in json.loads(stderr)["message"]
        assert not (tmp_path / "run").exists() or not any((tmp_path / "run").iterdir())

    @pytest.mark.parametrize("key, value", [("seed", "x"), ("threads", -5), ("out", 5)])
    def test_a_bad_file_value_under_its_flag_exits_2_without_results(self, tmp_path, key, value):
        config = replaced(boundary_config("wick-expand"), (key,), value)
        code, stderr = run_in_process("wick-expand", config, tmp_path, ["--seed", "3", "--threads", "1"])
        assert code == 2, stderr
        assert_error_line(stderr, 2)
        assert key in json.loads(stderr)["message"]
        assert not (tmp_path / "run").exists() or not any((tmp_path / "run").iterdir())

    @staticmethod
    def run_under_a_memory_limit(kind: str, config: dict, tmp_path: Path) -> subprocess.CompletedProcess:
        """Run the ``kind`` subcommand on ``config`` in a subprocess whose address space is capped at 2 GiB."""
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        limit = 2 << 30
        return subprocess.run(
            [sys.executable, "-m", "wickkit.cli", kind, "--config", str(path), "--out", str(tmp_path / "run")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(wickkit.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )

    def test_a_hierarchy_over_the_key_budget_exits_2_under_a_memory_limit(self, tmp_path):
        # two variables up to order 100000 are 5e9 keys: counted first, never built
        config = replaced(boundary_config("hierarchy-rhs"), ("params", "order"), 100_000)
        proc = self.run_under_a_memory_limit("hierarchy-rhs", config, tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert_error_line(proc.stderr, 2)
        assert not any((tmp_path / "run").iterdir())

    def test_running_out_of_memory_exits_3_under_a_memory_limit(self, tmp_path):
        # 1e9 realizations ask numpy for an ensemble array of about 119 GiB
        config = replaced(boundary_config("estimate-w"), ("params", "n_realizations"), 10**9)
        proc = self.run_under_a_memory_limit("estimate-w", config, tmp_path)
        assert proc.returncode == 3, proc.stderr
        assert_error_line(proc.stderr, 3)
        assert json.loads(proc.stderr)["error"].endswith("MemoryError")
        assert not any((tmp_path / "run").iterdir())

    def test_csv_w0_from_the_spectrum_writer_reads_back_exactly(self, tmp_path, monkeypatch):
        # the k rows are checked against the grid, so a file the package wrote
        # must still pass and give the bytes of the spectrum it holds
        monkeypatch.chdir(tmp_path)
        config = boundary_config("estimate-w")
        config["params"]["lattice"] = {"dimension": 2, "side": 4}
        lattice = Lattice(2, 4)
        cosine = {"kind": "cosine", "mean": 1.0, "amplitudes": [0.5, 0.25]}
        values = cli._parse_w0(Block(cosine, "w0"), lattice, zero_dispersion(2))
        write_spectrum_csv(lattice, values, tmp_path / "w0.csv")
        outputs = []
        for w0 in (cosine, {"kind": "csv", "path": "w0.csv"}):
            config["params"]["w0"] = w0
            run_dir = tmp_path / w0["kind"]
            run_dir.mkdir()
            code, stderr = run_in_process("estimate-w", config, run_dir)
            assert code == 0, stderr
            outputs.append((run_dir / "run" / "spectrum.csv").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # a numpy warning would be a second stderr line
    @pytest.mark.parametrize("kind", KINDS)
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(data=st.data())
    def test_mutated_config_keeps_the_contract(self, kind, data):
        config = boundary_config(kind)
        path = data.draw(st.sampled_from(list(key_paths(config))), label="path")
        value = data.draw(st.sampled_from(MUTANTS), label="value")
        with tempfile.TemporaryDirectory() as tmp:
            code, stderr = run_in_process(kind, replaced(config, path, value), Path(tmp))
            assert code in (0, 2, 3, 4), (path, value, code)
            if code:
                assert_error_line(stderr, code)
            else:
                assert stderr == ""
                for written in (Path(tmp) / "run").iterdir():
                    assert_finite_file(written)

    @pytest.mark.parametrize("value", [1e200, 1e300])
    @pytest.mark.parametrize("kind, make", OVERFLOWS, ids=[f"{kind}-{name}" for kind, name, _ in OVERFLOWS_NAMED])
    def test_overflowing_results_exit_3_without_results(self, tmp_path, kind, make, value):
        config = {"schema_version": SCHEMA_VERSION, "kind": kind, "params": make(value)}
        code, stderr = run_in_process(kind, config, tmp_path)
        assert code == 3, stderr
        assert_error_line(stderr, 3)
        assert not any((tmp_path / "run").iterdir())

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("cumulant-convert", {"direction": "cumulants-to-moments", "table": {json.dumps(list(range(30))): [1.0, 0.0]}}),
            (
                "hierarchy-rhs",
                {
                    "order": 2,
                    "model": {
                        "terms": [{"index": 1, "seq": list(range(30)), "amplitude": {"type": "constant", "value": [1.0, 0.0]}}]
                    },
                    "table": {"[1,1]": [1.0, 0.0]},
                },
            ),
        ],
        ids=["cumulants-to-moments", "hierarchy-rhs"],
    )
    def test_long_sums_exit_3_without_results(self, tmp_path, kind, params):
        # a 30-element partition sum trips the guard before any per-mask work
        config = {"schema_version": SCHEMA_VERSION, "kind": kind, "params": params}
        code, stderr = run_in_process(kind, config, tmp_path)
        assert code == 3, stderr
        assert_error_line(stderr, 3)
        assert not any((tmp_path / "run").iterdir())

    @pytest.mark.parametrize("copies", [256, 257])
    def test_a_drive_repeating_an_index_past_its_code_field_exits_3_without_results(self, tmp_path, copies):
        # a Wick-group code counts each index of a group in one byte: 256 copies would carry into the next group
        params = {
            "order": 2,
            "model": {"terms": [{"index": "a", "seq": ["a"] * copies, "amplitude": {"type": "constant", "value": [1.0, 0.0]}}]},
            "table": {'["a"]': [0.5, 0.0], '["a","a"]': [1.0, 0.0]},
        }
        config = {"schema_version": SCHEMA_VERSION, "kind": "hierarchy-rhs", "params": params}
        code, stderr = run_in_process("hierarchy-rhs", config, tmp_path)
        assert code == 3, stderr
        assert_error_line(stderr, 3)
        assert "multiset code guard" in json.loads(stderr)["message"]
        assert not any((tmp_path / "run").iterdir())

    # every reader of an index, as (kind, key path, the value that puts the token there)
    INDEX_SITES = {
        "wick-expand index": ("wick-expand", ("params", "indices"), lambda token: [token, 1]),
        "table key": ("wick-expand", ("params", "cumulants"), lambda token: {f"[{json.dumps(token)}]": [0.5, 0.0]}),
        "model index": ("hierarchy-rhs", ("params", "model", "terms", 0, "index"), lambda token: token),
        "model seq entry": ("hierarchy-rhs", ("params", "model", "terms", 0, "seq"), lambda token: [token]),
    }

    @pytest.mark.parametrize("token", [True, False, None])
    @pytest.mark.parametrize("site", list(INDEX_SITES))
    def test_a_bool_or_null_index_exits_2_without_results(self, tmp_path, site, token):
        # true would be the index 1 and false the index 0 in every code book
        kind, path, value = self.INDEX_SITES[site]
        code, stderr = run_in_process(kind, replaced(boundary_config(kind), path, value(token)), tmp_path)
        assert code == 2, stderr
        assert_error_line(stderr, 2)
        assert f"got {token!r}" in json.loads(stderr)["message"]
        assert not (tmp_path / "run").exists() or not any((tmp_path / "run").iterdir())

    @pytest.mark.parametrize("token", [True, False, None])
    def test_a_bool_or_null_ground_index_is_a_config_error(self, token):
        data = {"ground": [[1, token]], "terms": [{"subset": [1], "coeff": [1.0, 0.0]}]}
        with pytest.raises(ConfigError, match=f"got {token!r}"):
            WickPoly.from_json(data)

    @pytest.mark.parametrize("spelling", ["[2,1]", "[1, 2]"])
    @pytest.mark.parametrize(
        "kind, direction, site",
        [
            ("wick-expand", None, "cumulants"),
            ("cumulant-convert", "moments-to-cumulants", "table"),
            ("cumulant-convert", "cumulants-to-moments", "table"),
            ("hierarchy-rhs", None, "table"),
        ],
        ids=["wick-expand", "moments-to-cumulants", "cumulants-to-moments", "hierarchy-rhs"],
    )
    def test_two_keys_of_one_multiset_exit_2_without_results(self, tmp_path, kind, direction, site, spelling):
        # each boundary table holds "[1,2]"; a second spelling of it must not overwrite it silently
        config = boundary_config(kind)
        if direction is not None:
            config["params"]["direction"] = direction
        assert "[1,2]" in config["params"][site]
        config["params"][site][spelling] = [0.68, 0.0]
        code, stderr = run_in_process(kind, config, tmp_path)
        assert code == 2, stderr
        assert_error_line(stderr, 2)
        assert "name the same multiset" in json.loads(stderr)["message"]
        assert not (tmp_path / "run").exists() or not any((tmp_path / "run").iterdir())

    @pytest.mark.parametrize(
        "kind, opening, repeated",
        [
            ("wick-expand", "{", '"seed": 9, '),
            ("estimate-w", '"lattice": {', '"side": 16, '),
            ("cumulant-convert", '"table": {', '"[1,2]": [0.68, 0.0], '),
        ],
        ids=["top", "params.lattice", "table"],
    )
    def test_a_repeated_json_key_exits_2_without_results(self, tmp_path, kind, opening, repeated):
        # json.dumps cannot repeat a key, so the second copy is spliced in after the object's first brace
        text = json.dumps(boundary_config(kind))
        assert repeated.split(":")[0] in text.split(opening, 1)[1]
        (tmp_path / "c.json").write_text(text.replace(opening, opening + repeated, 1))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([kind, "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "run")])
        assert code == 2, err.getvalue()
        assert_error_line(err.getvalue(), 2)
        assert f"repeats the key {json.loads(repeated.split(':')[0])!r}" in json.loads(err.getvalue())["message"]
        assert not (tmp_path / "run").exists() or not any((tmp_path / "run").iterdir())

    def test_a_repeated_key_in_an_ensemble_manifest_is_a_config_error(self, tmp_path):
        dnls.save_ensemble(sample_initial(Lattice(1, 8), np.full(8, 0.5), 3, seed=3, coupling=0.4), tmp_path)
        manifest = tmp_path / "manifest.json"
        text = manifest.read_text()
        assert text.count('"coupling": 0.4, ') == 1
        manifest.write_text(text.replace('"coupling": 0.4, ', '"coupling": 0.4, "coupling": 0.9, '))
        with pytest.raises(ConfigError, match="repeats the key 'coupling'"):
            dnls.load_ensemble(tmp_path)

    @pytest.mark.parametrize("kind", ["wick-expand", "cumulant-convert", "hierarchy-rhs"])
    def test_json_results_are_one_line_and_a_manifest_replays_them(self, tmp_path, kind):
        config = boundary_config(kind)
        code, stderr = run_in_process(kind, config, tmp_path)
        assert (code, stderr) == (0, "")
        run_dir = tmp_path / "run"
        for written in run_dir.iterdir():
            text = written.read_text()
            assert text.endswith("}\n") and text.count("\n") == 1, written.name
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["config"]["params"] == config["params"]
        replay = tmp_path / "replay"
        assert main([kind, "--config", str(run_dir / "manifest.json"), "--out", str(replay)]) == 0
        assert result_files(replay) == result_files(run_dir)

    def test_failed_run_removes_only_the_files_it_wrote(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        out.mkdir()
        (out / "manifest.json").write_text("{}\n")  # a previous run's manifest
        (out / "old.csv").write_text("k1,value,stderr\n")

        def fails_late(rc, out_dir):
            cli._write_json(out_dir / "result.json", {"value": 1.0})
            (out_dir / "foreign.txt").write_text("written by another process\n")
            raise GuardError("late failure")

        monkeypatch.setitem(cli._RUNNERS, "wick-expand", fails_late)
        code, stderr = run_in_process("wick-expand", boundary_config("wick-expand"), tmp_path)
        assert code == 3, stderr
        assert sorted(p.name for p in out.iterdir()) == ["foreign.txt", "old.csv"]

    def test_a_run_inside_a_run_keeps_its_own_record_of_written_files(self, tmp_path, monkeypatch):
        # the inner run succeeds and keeps its files; the outer run fails and
        # removes only its own, whatever the inner run wrote in between
        inner_dir = tmp_path / "inner"
        inner_dir.mkdir()
        inner_config = write_config(tmp_path / "inner.json", "wick-expand", boundary_config("wick-expand")["params"])

        def outer(rc, out_dir):
            cli._write_json(out_dir / "before.json", {"value": 1.0})
            assert main(["wick-expand", "--config", str(inner_config), "--out", str(inner_dir)]) == 0
            cli._write_json(out_dir / "after.json", {"value": 2.0})
            raise GuardError("late failure")

        monkeypatch.setitem(cli._RUNNERS, "cumulant-convert", outer)
        code, stderr = run_in_process("cumulant-convert", boundary_config("cumulant-convert"), tmp_path)
        assert code == 3, stderr
        assert not any((tmp_path / "run").iterdir())
        assert sorted(p.name for p in inner_dir.iterdir()) == ["manifest.json", "wick_poly.json"]

    def test_csv_readers_name_the_file_and_row(self, tmp_path):
        spectrum = tmp_path / "s.csv"
        spectrum.write_text("k1,value,stderr\n0.0,1.0,\n0.5,x,\n")
        with pytest.raises(ConfigError, match=r"s\.csv row 3"):
            read_spectrum_csv(spectrum)
        trajectory = tmp_path / "t.csv"
        trajectory.write_text("tau,k1,value\n0.0,0.0,1.0\n0.0,0.5,1.0\nzero,0.0,1.0\n")
        with pytest.raises(ConfigError, match=r"t\.csv row 4"):
            read_trajectory_csv(trajectory)

    @pytest.mark.parametrize(
        "reader, text, match",
        [
            (read_spectrum_csv, "k1,value,stderr\n0.0,1.0,0.1\n0.5,1.0,\n", r"row 3"),
            (read_spectrum_csv, "k1,value,stderr\n0.0,1.0,0.1\n0.5,1.0\n", r"row 3: 2 cells"),
            (read_trajectory_csv, "tau,k1,value\n0.0,0.0,1.0\n0.0,0.5,1.0\n0.1,0.5,1.0\n0.1,0.0,1.0\n", "ragged"),
            (
                read_trajectory_csv,
                "tau,k1,value\n0.0,0.0,1.0\n0.0,0.5,1.0\n0.1,0.0,1.0\n0.1,0.5,1.0\n0.0,0.0,1.0\n0.0,0.5,1.0\n",
                "ragged",
            ),
        ],
        ids=["stderr-on-some-rows", "short-row", "slice-k-rows-differ", "tau-comes-back"],
    )
    def test_ragged_csv_files_are_refused(self, tmp_path, reader, text, match):
        path = tmp_path / "ragged.csv"
        path.write_text(text)
        with pytest.raises(ConfigError, match=match):
            reader(path)

    def test_huge_spectrum_keeps_a_finite_stderr(self, tmp_path):
        # squares of the jackknife deviations overflow above about 1e154
        config = boundary_config("estimate-w")
        config["params"].update(lattice={"dimension": 1, "side": 16}, n_realizations=50,
                                w0={"kind": "flat", "value": 1e155})
        code, stderr = run_in_process("estimate-w", config, tmp_path)
        assert (code, stderr) == (0, "")
        _, values, stderr = read_spectrum_csv(tmp_path / "run" / "spectrum.csv")
        assert np.all(np.isfinite(values)) and np.all(np.isfinite(stderr)) and np.all(stderr > 0.0)

    def test_largest_seed_runs(self, tmp_path):
        code, stderr = run_in_process("estimate-w", replaced(boundary_config("estimate-w"), ("seed",), 2**63 - 1), tmp_path)
        assert (code, stderr) == (0, "")

    def test_valid_boundary_configs_run(self, tmp_path):
        for kind in KINDS:
            (tmp_path / kind).mkdir()
            code, stderr = run_in_process(kind, boundary_config(kind), tmp_path / kind)
            assert code == 0, (kind, stderr)
