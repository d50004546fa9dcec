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
import io
import itertools
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wickkit import cli, dnls
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
from wickkit.dnls import Lattice, estimate_W, read_spectrum_csv, sample_initial
from wickkit.errors import ConfigError, GuardError
from wickkit.indexing import LabeledSeq
from wickkit.kinetic import CollisionConfig, EquilibriumParams
from wickkit.wick import WickPoly, wick_from_cumulants


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

    def test_all_kinds_have_runners(self):
        from wickkit.cli import _RUNNERS

        assert set(_RUNNERS) == set(KINDS)


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


class TestWorkCounters:
    """The manifest summary counts the distinct multisets and partition states, at any thread count."""

    def summaries(self, tmp_path, kind: str, params: dict) -> list[dict]:
        out = []
        for threads in (1, 2):
            path = write_config(
                tmp_path / f"c{threads}.json", kind, params, threads=threads, out=str(tmp_path / f"run{threads}")
            )
            assert main([kind, "--config", str(path)]) == 0
            out.append(json.loads((tmp_path / f"run{threads}" / "manifest.json").read_text())["summary"])
        assert out[0] == out[1]
        return out[0]

    @staticmethod
    def closed_table(variables, order: int) -> dict:
        keys = [k for r in range(1, order + 1) for k in itertools.combinations_with_replacement(variables, r)]
        return {json.dumps(list(k)): [0.1 + 0.01 * (i % 7), -0.02 * (i % 5)] for i, k in enumerate(keys)}

    def test_moments_to_cumulants_evaluates_each_multiset_once(self, tmp_path):
        table = self.closed_table((1, 2, 3, 4), 8)
        summary = self.summaries(tmp_path, "cumulant-convert", {"direction": "moments-to-cumulants", "table": table})
        assert summary == {"entries": 494, "multisets_evaluated": 494, "partition_states": 0}

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

    def test_hierarchy_counts(self, tmp_path):
        params = {"order": 3, "time": 0.5, "model": TestHierarchyRhs.MODEL, "table": TestHierarchyRhs.TABLE}
        summary = self.summaries(tmp_path, "hierarchy-rhs", params)
        assert summary == {"targets": 9, "order": 3, "multisets_evaluated": 20, "partition_states": 20}


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
        expected = estimate_W(ensemble)
        # repr round trip is exact, so the file carries the estimate verbatim
        assert np.array_equal(values, expected.values)
        assert np.array_equal(stderr, expected.stderr)


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
        assert np.array_equal(values[0], eql.values.ravel())
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


class TestMainPlumbing:
    def test_missing_config_file_is_an_io_error(self, tmp_path):
        assert main(["bp-solve", "--config", str(tmp_path / "nope.json")]) == 4

    def test_unwritable_output_maps_to_exit_4(self, tmp_path):
        path = write_config(tmp_path / "c.json", "bp-solve", EQL_BP_PARAMS)
        code = main(["bp-solve", "--config", str(path), "--out", "/proc/nope/x"])
        assert code == 4

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--config", "x.json"])
        assert exc.value.code == 2

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


def run_in_process(kind: str, config: dict, directory: Path) -> tuple[int, str]:
    """Write the config, run the ``kind`` subcommand on it in-process, return (exit code, stderr)."""
    path = directory / "c.json"
    path.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([kind, "--config", str(path), "--out", str(directory / "run")])
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
        code, stderr = run_in_process(kind, replaced(boundary_config(kind), path, value), tmp_path)
        assert code == 2, stderr
        assert_error_line(stderr, 2)
        assert not (tmp_path / "run").exists() or not any((tmp_path / "run").iterdir())

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

    def test_csv_readers_name_the_file_and_row(self, tmp_path):
        spectrum = tmp_path / "s.csv"
        spectrum.write_text("k1,value,stderr\n0.0,1.0,\n0.5,x,\n")
        with pytest.raises(ConfigError, match=r"s\.csv row 3"):
            read_spectrum_csv(spectrum)
        trajectory = tmp_path / "t.csv"
        trajectory.write_text("tau,k1,value\n0.0,0.0,1.0\n0.0,0.5,1.0\nzero,0.0,1.0\n")
        with pytest.raises(ConfigError, match=r"t\.csv row 4"):
            read_trajectory_csv(trajectory)

    def test_valid_boundary_configs_run(self, tmp_path):
        for kind in KINDS:
            (tmp_path / kind).mkdir()
            code, stderr = run_in_process(kind, boundary_config(kind), tmp_path / kind)
            assert code == 0, (kind, stderr)
