"""The bytes of every algebra kind's result file on the benchmark's jobs.

``bench/workloads.py`` draws the ``algebra`` jobs of bench rounds 0-2 at
seeds 1 and 8191, as the benchmark does: ``wick-expand``, both
``cumulant-convert`` directions and ``hierarchy-rhs``. Each job runs through
``cli.main`` at ``--threads 1``, and its result file must keep the sha256
committed here. These jobs only add, subtract and multiply Python floats.
The digests were measured on linux x86-64 with CPython 3.11; a CPython built
to fuse multiply-adds (FMA) may round a value otherwise. This reads
``bench/`` and changes nothing there.
"""

from __future__ import annotations

import hashlib
import importlib
from pathlib import Path

import pytest

from wickkit import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"

#: the result file of each algebra job class, by its bench metric
RESULT = {
    "wick_expand_s": "wick_poly.json",
    "moments_to_cumulants_s": "converted.json",
    "cumulants_to_moments_s": "converted.json",
    "hierarchy_rhs_s": "rhs_table.json",
}

#: sha256 of the result file per job class and (seed, round), measured on linux x86-64
DIGESTS = {
    "wick_expand_s": {
        (1, 0): "fdc60685a15aef5e484c35b8cfa51319ff1d6fe02d0becba84dc0a9a3efa4364",
        (1, 1): "d53346a449da5fc87dbfa3142d2782c5e55da6126802b7501d6b4f2e04f6385f",
        (1, 2): "93bc62df6f4db3f3dfe667f227c96c64033da051e0fd3bb4cf17456b37b6f1db",
        (8191, 0): "e507f988a8e196438c2ee566de733e076e72e987463e013d3794dd4f2cf54a56",
        (8191, 1): "4af50cbf1fdacf0eacc7fd98312711c30adbdd28b63bdb07f9fba8dfcad03fa1",
        (8191, 2): "c24f30c6dff8c9b1f7bfce9e0d8e308e6bebc4537551f33217a1bbd36c5a760a",
    },
    "moments_to_cumulants_s": {
        (1, 0): "eaee990cb2a90c5b7be15fee6c6d2d511b6435ee402ce8377a9cc70d3bb89982",
        (1, 1): "94f6ea83eb2806d31767d526b525c1665dcf03fd37a18a31569f143858f94892",
        (1, 2): "24f4289c680305175c0d77784afffab8ed3474ab02dca7f19a006ef572724de6",
        (8191, 0): "28d662264411b11548662372dc84646dd70a8fb4a833d6d8a1106718a969b143",
        (8191, 1): "810f59e5a35a0db1a1698da67dcfcf8677c7fe5a08478920c17ee9f6d3398246",
        (8191, 2): "afe62b7eb99caa8e95034a23cd46e6e3f3ec79945bdb737205f5cb3036145dfc",
    },
    "cumulants_to_moments_s": {
        (1, 0): "f5fd317f315327f4eb28008476cc11c7946a080fac872dcc6f85ca342b962773",
        (1, 1): "63ad3ba456d27331910a6a0a7c418cfd77b98ad155388fc36a48f0d531d1aa30",
        (1, 2): "48e5b7bc20a063d6dd5d66786e98e4cef3c0c3c6d1801eb2e8cd8e420d07d61e",
        (8191, 0): "fb7abb2d61333f227de82a151489afa0f3648fa593616d8c474a9c924686df7a",
        (8191, 1): "0173dc95848f7ec1aea18dbd74fd23926c9e24116f1f14fdf560c217bed3e3f8",
        (8191, 2): "d2a7ddcead04d43294a40db483c4c0c7f4aa678c9f63d15910cb406408ab9c8c",
    },
    "hierarchy_rhs_s": {
        (1, 0): "3db49c010a6becda78963817c4f4983b7326202ee39ced1a3e52d4ae671c5c2a",
        (1, 1): "49e946054bcd115414ef6968643b4da2fbc710b0baea7ebb0d8cdaeacd4cae60",
        (1, 2): "e3ea9d454a173d9516e3ca4c31dbd28535edd4c690d31090593532e70807461c",
        (8191, 0): "ae36f1a950d9d3023e63ece65d12c179e543e2acabf9481cf8617bb3ab31fe44",
        (8191, 1): "a0a8251e3a77de033c099df6aa709ce8dd04cfd5ed6e6f5a34f84459dc359719",
        (8191, 2): "aff981064866f8e84470c99b7c35899249fd048a463b5626396aa0603088b9b8",
    },
}


@pytest.mark.parametrize(
    "metric, seed, round_index", [(metric, *case) for metric, cases in DIGESTS.items() for case in cases]
)
def test_result_file_keeps_its_bytes(metric, seed, round_index, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    (job,) = [job for job in workloads.make_round("algebra", seed, round_index, tmp_path) if job.cls.metric == metric]
    out = tmp_path / "out"
    assert cli.main(job.argv(out, threads=1)) == 0
    digest = hashlib.sha256((out / RESULT[metric]).read_bytes()).hexdigest()
    assert digest == DIGESTS[metric][seed, round_index], "digests were measured on linux x86-64"
