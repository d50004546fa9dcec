"""The shared input readers and the jackknife error routine behind every Monte Carlo error bar."""

import json
import math
import struct

import numpy as np
import pytest

from wickkit.errors import (
    Block, ConfigError, GuardError, _write_json, jackknife_stderr, mean_stderr, read_csv, write_csv,
)


def spelled_out_mean_stderr(samples):
    """The jackknife error of a mean as estimate-w and kinetic-check computed it,
    kept spelled out so the routine's bytes stay pinned."""
    n = samples.shape[0]
    total = samples.sum(axis=0)
    loo = (total[None, ...] - samples) / (n - 1)
    dev = loo - loo.mean(axis=0)
    return np.sqrt((n - 1) / n * np.sum(dev**2, axis=0))


SHAPES = [(2,), (7,), (1000,), (300, 4), (50, 3, 5)]


class TestJackknife:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_mean_form_keeps_the_spelled_out_bytes(self, shape):
        samples = np.random.default_rng(11).exponential(2.0, size=shape)
        assert mean_stderr(samples).tobytes() == spelled_out_mean_stderr(samples).tobytes()

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_leave_one_out_form_keeps_the_spelled_out_bytes_and_its_input(self, dtype):
        rng = np.random.default_rng(14)
        loo = rng.standard_normal((500, 6)).astype(dtype)
        if dtype is complex:
            loo += 1j * rng.standard_normal((500, 6))
        kept = loo.copy()
        dev = loo - loo.mean(axis=0)
        want = np.sqrt((500 - 1) / 500 * np.sum(np.abs(dev) ** 2, axis=0))
        assert jackknife_stderr(loo).tobytes() == want.tobytes()
        assert np.array_equal(loo, kept)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_mean_form_is_the_sample_std_error(self, shape, dtype):
        rng = np.random.default_rng(12)
        samples = rng.standard_normal(shape) + 3.0
        if dtype is complex:
            samples = samples + 1j * rng.standard_normal(shape)
        want = samples.std(axis=0, ddof=1) / math.sqrt(shape[0])
        assert np.allclose(mean_stderr(samples), want, rtol=1e-12, atol=0.0)

    def test_mean_form_rescales_deviations_whose_squares_overflow(self):
        # squares of 1e160-scale deviations overflow; the rescaled sum is finite,
        # and the in-range column keeps the bytes of the plain formula
        rng = np.random.default_rng(15)
        x = rng.standard_normal((200, 2))
        huge = x * np.array([1e160, 1.0])
        with np.errstate(over="raise"):
            se = mean_stderr(huge)
        assert np.all(np.isfinite(se))
        assert se[0] == pytest.approx(1e160 * float(mean_stderr(x[:, 0])), rel=1e-13)
        assert se[1:].tobytes() == spelled_out_mean_stderr(x)[1:].tobytes()
        assert float(jackknife_stderr(huge[:, 0] + 1e160j)) == pytest.approx(float(jackknife_stderr(x[:, 0])) * 1e160, rel=1e-13)

    def test_leave_one_out_form_of_a_nonlinear_statistic(self):
        # the variance's leave-one-out values, against the textbook jackknife
        x = np.random.default_rng(13).standard_normal(40)
        n = x.size
        loo = np.array([np.var(np.delete(x, i)) for i in range(n)])
        want = math.sqrt((n - 1) / n * sum((v - loo.mean()) ** 2 for v in loo))
        assert float(jackknife_stderr(loo)) == pytest.approx(want, rel=1e-12)


class TestBlock:
    def test_reads_name_their_full_key_path(self):
        with pytest.raises(ConfigError, match=r"run params\.lattice\.side must be a finite JSON integer"):
            with Block({"lattice": {"side": 8.5}}, "run params") as params:
                with params.block("lattice") as lattice:
                    lattice.integer("side")

    def test_a_read_without_a_default_is_a_required_key(self):
        with pytest.raises(ConfigError, match="missing required key 'tau'"):
            with Block({}, "run params") as params:
                params.number("tau")

    def test_leaving_the_block_refuses_every_key_no_read_asked_for(self):
        with pytest.raises(ConfigError, match=r"unknown key\(s\) \['bogus'\]; allowed: \['dt', 'tau'\]"):
            with Block({"tau": 1.0, "bogus": 1}, "run params") as params:
                assert params.number("tau") == 1.0
                assert params.number("dt", 0.5) == 0.5

    def test_an_error_inside_the_block_is_reported_instead(self):
        with pytest.raises(ConfigError, match="must be one of a | b"):
            with Block({"mode": "c", "bogus": 1}, "run params") as params:
                params.choice("mode", ("a", "b"))

    def test_null_reads_as_left_out_only_where_the_default_is_none(self):
        with Block({"epsilon": None, "method": None}, "delta") as block:
            assert block.number("epsilon", None) is None
            assert block.choice("method", ("direct", "fft"), None) is None
        with pytest.raises(ConfigError, match="delta.width must be a finite JSON number"):
            with Block({"width": None}, "delta") as block:
                block.number("width", 0.25)

    def test_inline_or_file_takes_exactly_one(self, tmp_path):
        (tmp_path / "t.json").write_text(json.dumps({"[1]": [1.0, 0.0]}))
        with Block({"table_path": str(tmp_path / "t.json")}, "params") as params:
            assert params.inline_or_file("table") == {"[1]": [1.0, 0.0]}
        for raw in ({}, {"table": {}, "table_path": "t.json"}):
            with pytest.raises(ConfigError, match="supply exactly one"):
                with Block(raw, "params") as params:
                    params.inline_or_file("table")


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


class TestJsonWriter:
    EDGES = [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, 0.1 + 0.2, 1e-7, 1e16, 123456789.125]

    def test_float_bits_survive_a_write_and_read(self, tmp_path):
        path = tmp_path / "floats.json"
        _write_json(path, {"values": self.EDGES, "pair": [-0.0, 0.1 + 0.2]})
        back = json.loads(path.read_text())
        assert [bits(v) for v in back["values"]] == [bits(v) for v in self.EDGES]
        assert [bits(v) for v in back["pair"]] == [bits(-0.0), bits(0.1 + 0.2)]
        # each float is its shortest round-trip repr, as the indented stdlib encoder wrote it
        assert json.dumps(back["values"]) == "[" + ", ".join(map(repr, self.EDGES)) + "]"

    def test_keys_come_out_sorted_on_one_line(self, tmp_path):
        path = tmp_path / "sorted.json"
        _write_json(path, {"b": 1, "a": {"d": [1.5, "x"], "c": None}, "B": True})
        assert path.read_text() == '{"B": true, "a": {"c": null, "d": [1.5, "x"]}, "b": 1}\n'

    def test_parses_to_the_object_the_indented_encoder_wrote(self, tmp_path):
        obj = {"table": {f"[{i}]": [i / 7, -i * 1e-300] for i in range(20)}, "n": 3, "name": "a\nb"}
        path = tmp_path / "layout.json"
        _write_json(path, obj)
        text = path.read_text()
        assert text.count("\n") == 1
        assert json.loads(text) == json.loads(json.dumps(obj, indent=2, sort_keys=True)) == obj

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_number_is_a_guard_error_and_no_file(self, tmp_path, bad):
        path = tmp_path / "bad.json"
        with pytest.raises(GuardError, match=r"bad\.json: a result is not finite"):
            _write_json(path, {"ok": 1.0, "nested": [{"value": [0.0, bad]}]})
        assert not path.exists()


class TestWriteCsv:
    @pytest.mark.parametrize(
        "column",
        [np.array([True, False]), np.array([1 + 5j, 1.0]), np.array(["1", "2"]), np.array([1.0, 2.0], dtype=object)],
        ids=["bool", "complex", "string", "object"],
    )
    def test_a_column_that_is_not_real_is_refused_and_nothing_is_written(self, tmp_path, column):
        path = tmp_path / "v.csv"
        with pytest.raises(ConfigError, match=r"v\.csv: a column of dtype"):
            write_csv(path, ["x", "y"], [np.array([1.0, 2.0]), column])
        assert not path.exists()


class TestReadCsv:
    def test_every_written_float_reads_back(self, tmp_path):
        bits = np.random.default_rng(15).integers(0, 2**63, size=4000, dtype=np.int64)
        values = bits.view(float)
        values = np.concatenate([values[np.isfinite(values)], [0.0, -0.0, 1e-300, 5e-324, 1e16, 0.1, -2.5]])
        write_csv(tmp_path / "v.csv", ["value"], [values])
        header, rows = read_csv(tmp_path / "v.csv")
        assert header == ["value"] and rows[:, 0].tobytes() == values.tobytes()

    def test_nan_and_inf_read_as_numbers(self, tmp_path):
        (tmp_path / "v.csv").write_text("a,b,c\nnan,inf,-inf\n")
        assert read_csv(tmp_path / "v.csv")[1].tolist()[0][1:] == [math.inf, -math.inf]

    @pytest.mark.parametrize("cell", ["0_5", " 1.0", "1.0 ", "Infinity", "NaN", "+1.0", "1e", "."])
    def test_a_cell_that_is_not_a_plain_number_is_refused(self, tmp_path, cell):
        # Python's float alone takes the first six
        (tmp_path / "v.csv").write_text(f"a,b\n1.0,{cell}\n")
        with pytest.raises(ConfigError, match="row 2"):
            read_csv(tmp_path / "v.csv")
