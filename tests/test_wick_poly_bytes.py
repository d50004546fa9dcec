"""The bytes of ``wick_poly.json`` on the benchmark's ``wick-expand`` jobs.

``bench/workloads.py`` draws the jobs of bench rounds 0-2 at seeds 1 and
8191, as the benchmark does. Each job runs through ``cli.main``, and its
``wick_poly.json`` must keep the sha256 committed here. The digests were
measured on linux x86-64 with CPython 3.11; a CPython built to fuse
multiply-adds (FMA) may round a coefficient otherwise. This reads
``bench/`` and changes nothing there.
"""

from __future__ import annotations

import hashlib
import importlib
from pathlib import Path

import pytest

from wickkit import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"

#: sha256 of wick_poly.json per (seed, round), measured on linux x86-64
DIGESTS = {
    (1, 0): "fdc60685a15aef5e484c35b8cfa51319ff1d6fe02d0becba84dc0a9a3efa4364",
    (1, 1): "d53346a449da5fc87dbfa3142d2782c5e55da6126802b7501d6b4f2e04f6385f",
    (1, 2): "93bc62df6f4db3f3dfe667f227c96c64033da051e0fd3bb4cf17456b37b6f1db",
    (8191, 0): "e507f988a8e196438c2ee566de733e076e72e987463e013d3794dd4f2cf54a56",
    (8191, 1): "4af50cbf1fdacf0eacc7fd98312711c30adbdd28b63bdb07f9fba8dfcad03fa1",
    (8191, 2): "c24f30c6dff8c9b1f7bfce9e0d8e308e6bebc4537551f33217a1bbd36c5a760a",
}


@pytest.mark.parametrize("seed, round_index", list(DIGESTS))
def test_wick_poly_json_keeps_its_bytes(seed, round_index, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    (job,) = [job for job in workloads.make_round("algebra", seed, round_index, tmp_path) if job.cls.kind == "wick-expand"]
    out = tmp_path / "out"
    assert cli.main(job.argv(out)) == 0
    digest = hashlib.sha256((out / "wick_poly.json").read_bytes()).hexdigest()
    assert digest == DIGESTS[seed, round_index], "digests were measured on linux x86-64"
