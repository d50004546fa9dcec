"""Seeded inputs, job classes and output checks of the wickkit benchmark.

A workload is a tuple of job classes. Each round of a run draws fresh inputs
for every class of the workload from ``numpy.random.default_rng([seed,
workload id, round])`` and writes them as CLI config files, so one seed
always gives the same jobs. Only values are drawn: table orders, lattice
sizes, drive degrees and step counts are fixed, so the work of a job, and
every count the traced run reports, is the same for every seed and round.

The output checks run outside the timed region. They use their own
moment/cumulant recursion over sorted index tuples, written independently of
the package, as the oracle.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


class CheckFailed(Exception):
    """A job exited 0 but its outputs are wrong."""


@dataclass(frozen=True)
class JobClass:
    metric: str  # the end-to-end metric this class's wall times feed
    kind: str  # the CLI subcommand
    threads: int
    make: Callable[[np.random.Generator], dict]  # draws the config's params block
    check: Callable[[dict, Path], None]  # (params, output directory); raises CheckFailed


@dataclass(frozen=True)
class Job:
    cls: JobClass
    config: Path
    params: dict
    seed: int

    def argv(self, out: Path, config: Path | None = None, threads: int | None = None) -> list[str]:
        return [
            self.cls.kind,
            "--config", str(config or self.config),
            "--out", str(out),
            "--seed", str(self.seed),
            "--threads", str(threads or self.cls.threads),
        ]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _keys(variables: tuple[int, ...], order: int) -> list[tuple[int, ...]]:
    """Every sorted multiset key over the variables with 1 <= length <= order."""
    return [k for r in range(1, order + 1) for k in itertools.combinations_with_replacement(variables, r)]


def _key_str(key: tuple[int, ...]) -> str:
    return json.dumps(list(key), separators=(",", ":"))


def _random_values(rng: np.random.Generator, keys: list[tuple]) -> dict[tuple, complex]:
    """Complex values with modulus in [0.1, 0.5) and a uniform phase."""
    modulus = rng.uniform(0.1, 0.5, len(keys))
    phase = rng.uniform(0.0, 2.0 * math.pi, len(keys))
    return {k: complex(m * math.cos(p), m * math.sin(p)) for k, m, p in zip(keys, modulus, phase)}


def _to_json(table: dict[tuple, complex]) -> dict[str, list[float]]:
    return {_key_str(k): [v.real, v.imag] for k, v in table.items()}


def _from_json(data: dict) -> dict[tuple, complex]:
    return {tuple(sorted(json.loads(k))): complex(v[0], v[1]) for k, v in data.items()}


def _splits(key: tuple) -> list[tuple[tuple, tuple]]:
    """(block, rest) for every position subset of ``key[1:]``; the block holds key[0].

    ``key`` is sorted, and selection keeps order, so both parts come out sorted.
    """
    head, tail = key[0], key[1:]
    out = []
    for mask in range(1 << len(tail)):
        block = (head,) + tuple(x for i, x in enumerate(tail) if mask >> i & 1)
        rest = tuple(x for i, x in enumerate(tail) if not mask >> i & 1)
        out.append((block, rest))
    return out


def reference_moments(kappa: dict[tuple, complex], keys: list[tuple]) -> dict[tuple, complex]:
    """E[y^I] = sum over blocks B holding the first slot of kappa[B] E[y^(I\\B)]."""
    memo: dict[tuple, complex] = {(): 1.0 + 0.0j}

    def moment(key: tuple) -> complex:
        if key not in memo:
            memo[key] = sum(kappa.get(block, 0.0) * moment(rest) for block, rest in _splits(key))
        return memo[key]

    return {k: moment(k) for k in keys}


def reference_cumulants(moments: dict[tuple, complex], keys: list[tuple]) -> dict[tuple, complex]:
    """The inverse of :func:`reference_moments` on a table closed under sub-multisets."""
    memo: dict[tuple, complex] = {}

    def kappa(key: tuple) -> complex:
        if key not in memo:
            total = moments[key]
            for block, rest in _splits(key):
                if rest:
                    total -= kappa(block) * moments[rest]
            memo[key] = total
        return memo[key]

    return {k: kappa(k) for k in keys}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _require_close(got: dict, want: dict, rel: float, what: str) -> None:
    _require(set(got) == set(want), f"{what}: key sets differ")
    scale = max(1.0, max(abs(v) for v in want.values()))
    worst = max(abs(got[k] - want[k]) for k in want)
    _require(worst <= rel * scale, f"{what}: off by {worst:.3g} at scale {scale:.3g}")


def _read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = path.read_text().strip().splitlines()
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    _require(all(math.isfinite(x) for row in rows for x in row), f"{path.name}: non-finite value")
    return lines[0].split(","), rows


def _summary(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text())["summary"]


def _cosine_w0(rng: np.random.Generator, dimension: int) -> dict:
    # amplitudes sum to at most 0.9, so the spectrum stays >= 0.1; at 0.3 or more
    # per axis in 2-d, kinetic-check resolves modes at both couplings
    amplitudes = rng.uniform(0.6, 0.9, dimension) / dimension
    return {"kind": "cosine", "mean": 1.0, "amplitudes": [float(a) for a in amplitudes]}


def _lattice(dimension: int, side: int) -> dict:
    return {"dimension": dimension, "side": side}


_NN = {"kind": "nearest-neighbor"}


# ---------------------------------------------------------------------------
# algebra: indexing, cumulants, wick, hierarchy
# ---------------------------------------------------------------------------


def _make_wick_expand(rng: np.random.Generator) -> dict:
    table = _random_values(rng, _keys((1, 2, 3), 8))
    return {"indices": [int(i) for i in rng.integers(1, 4, 8)], "cumulants": _to_json(table)}


def _check_wick_expand(params: dict, out: Path) -> None:
    poly = json.loads((out / "wick_poly.json").read_text())
    index_of = {label: idx for label, idx in poly["ground"]}
    terms = poly["terms"]
    _require(len(terms) == 2 ** len(params["indices"]), "wick-expand: wrong number of terms")
    subsets = [tuple(sorted(index_of[label] for label in t["subset"])) for t in terms]
    moments = reference_moments(_from_json(params["cumulants"]), sorted(set(subsets) - {()}))
    moments[()] = 1.0
    parts = [complex(*t["coeff"]) * moments[key] for t, key in zip(terms, subsets)]
    mean = abs(sum(parts))
    scale = max(1.0, sum(abs(p) for p in parts))
    _require(mean <= 1e-10 * scale, f"wick-expand: E[W] = {mean:.3g} at scale {scale:.3g}, not 0")


def _make_moments_to_cumulants(rng: np.random.Generator) -> dict:
    keys = _keys((1, 2, 3, 4), 8)
    moments = reference_moments(_random_values(rng, keys), keys)
    return {"direction": "moments-to-cumulants", "table": _to_json(moments)}


def _check_moments_to_cumulants(params: dict, out: Path) -> None:
    moments = _from_json(params["table"])
    cumulants = _from_json(json.loads((out / "converted.json").read_text()))
    _require_close(reference_moments(cumulants, list(moments)), moments, 1e-10, "moments->cumulants->moments")


def _make_cumulants_to_moments(rng: np.random.Generator) -> dict:
    return {"direction": "cumulants-to-moments", "table": _to_json(_random_values(rng, _keys((1, 2, 3), 7)))}


def _check_cumulants_to_moments(params: dict, out: Path) -> None:
    cumulants = _from_json(params["table"])
    moments = _from_json(json.loads((out / "converted.json").read_text()))
    _require(set(moments) == set(cumulants), "cumulants->moments: key sets differ")
    _require_close(reference_cumulants(moments, list(cumulants)), cumulants, 1e-10, "cumulants->moments->cumulants")


_DRIVE_DEGREES = (1, 1, 2, 2, 3, 3)  # per driven variable: 18 drives over 3 variables


def _make_hierarchy_rhs(rng: np.random.Generator) -> dict:
    terms = []
    for index in (1, 2, 3):
        for degree in _DRIVE_DEGREES:
            value = _random_values(rng, [()])[()]
            terms.append(
                {
                    "index": index,
                    "seq": [int(i) for i in rng.integers(1, 4, degree)],
                    "amplitude": {"type": "constant", "value": [value.real, value.imag]},
                }
            )
    table = _random_values(rng, _keys((1, 2, 3), 5))
    return {"order": 5, "model": {"terms": terms}, "table": _to_json(table)}


def _check_hierarchy_rhs(params: dict, out: Path) -> None:
    """Order-1 rows vanish (E[W] = 0); order-2 rows have a closed form.

    For a target (a, b) only the one-block partition survives the
    admissibility rule, so d/dt kappa[a, b] = sum over drives (a, J, c) of
    c kappa[J + b], plus the same with a and b swapped.
    """
    rhs = _from_json(json.loads((out / "rhs_table.json").read_text()))
    kappa = _from_json(params["table"])
    _require(len(rhs) == len(_keys((1, 2, 3), params["order"])), "hierarchy-rhs: wrong number of targets")
    drives: dict[int, list[tuple[tuple, complex]]] = {}
    for term in params["model"]["terms"]:
        drives.setdefault(term["index"], []).append((tuple(term["seq"]), complex(*term["amplitude"]["value"])))
    want = {}
    for key in (k for k in rhs if len(k) <= 2):
        total = 0.0 + 0.0j
        if len(key) == 2:
            for mine, other in (key, key[::-1]):
                total += sum(c * kappa.get(tuple(sorted(seq + (other,))), 0.0) for seq, c in drives.get(mine, ()))
        want[key] = total
    _require_close({k: rhs[k] for k in want}, want, 1e-10, "hierarchy-rhs order 1-2 rows")


ALGEBRA = (
    JobClass("wick_expand_s", "wick-expand", 1, _make_wick_expand, _check_wick_expand),
    JobClass(
        "moments_to_cumulants_s", "cumulant-convert", 1, _make_moments_to_cumulants, _check_moments_to_cumulants
    ),
    JobClass(
        "cumulants_to_moments_s", "cumulant-convert", 1, _make_cumulants_to_moments, _check_cumulants_to_moments
    ),
    JobClass("hierarchy_rhs_s", "hierarchy-rhs", 1, _make_hierarchy_rhs, _check_hierarchy_rhs),
)


# ---------------------------------------------------------------------------
# ensemble: dnls sampling, stepping, estimation and the Monte Carlo check
# ---------------------------------------------------------------------------


def _make_dnls_simulate(rng: np.random.Generator) -> dict:
    # dt * max|omega| = 0.04 * 12 = 0.48, inside the 0.5 step guard
    return {
        "lattice": _lattice(3, 8), "dispersion": _NN, "coupling": 0.2, "w0": _cosine_w0(rng, 3),
        "n_realizations": 500, "dt": 0.04, "t_end": 1.6, "record_every": 10,
    }


def _check_dnls_simulate(params: dict, out: Path) -> None:
    _, rows = _read_csv(out / "observables.csv")
    _require(len(rows) == 5, "dnls-simulate: expected 5 observable records")
    masses = [row[1] for row in rows]
    drift = max(abs(m - masses[0]) for m in masses)
    _require(drift <= 1e-12 * masses[0], f"dnls-simulate: mean mass drifts by {drift:.3g}")
    _require(len(_read_csv(out / "spectrum.csv")[1]) == 8**3, "dnls-simulate: spectrum has the wrong size")


def _make_estimate_w(rng: np.random.Generator) -> dict:
    return {"lattice": _lattice(2, 16), "dispersion": _NN, "w0": _cosine_w0(rng, 2), "n_realizations": 10_000}


_MAX_ZSCORE = 6.0  # 256 modes: P(max |z| > 6) is about 5e-7 for a correct sampler


def _check_estimate_w(params: dict, out: Path) -> None:
    z = _summary(out)["max_zscore_vs_w0"]
    _require(math.isfinite(z) and z <= _MAX_ZSCORE, f"estimate-w: max z-score {z!r} exceeds {_MAX_ZSCORE}")
    _require(len(_read_csv(out / "spectrum.csv")[1]) == 16**2, "estimate-w: spectrum has the wrong size")


def _make_kinetic_check(rng: np.random.Generator) -> dict:
    # kinetic times 0.8 and 5.0 are 16 and 100 steps of dt
    return {
        "lattice": _lattice(2, 8), "dispersion": _NN, "w0": _cosine_w0(rng, 2),
        "coupling_list": [0.5, 0.2], "tau": 0.2, "dt": 0.05, "n_realizations": 2000,
    }


def _check_kinetic_check(params: dict, out: Path) -> None:
    resolved = _summary(out)["resolved_modes"]
    couplings = [repr(float(c)) for c in params["coupling_list"]]
    _require(
        sorted(resolved) == sorted(couplings) and min(resolved.values()) >= 1,
        f"kinetic-check: modes resolved per coupling {resolved}",
    )
    rows = _read_csv(out / "kinetic_check.csv")[1]
    _require(len(rows) == len(couplings) * 8**2, "kinetic-check: table has the wrong size")


ENSEMBLE = (
    JobClass("dnls_simulate_s", "dnls-simulate", 1, _make_dnls_simulate, _check_dnls_simulate),
    JobClass("estimate_w_s", "estimate-w", 1, _make_estimate_w, _check_estimate_w),
    JobClass("kinetic_check_s", "kinetic-check", 2, _make_kinetic_check, _check_kinetic_check),
)


# ---------------------------------------------------------------------------
# kinetic: collision engine, RK4 and the pre-limit kernel
# ---------------------------------------------------------------------------


def _make_bp_solve_gaussian(rng: np.random.Generator) -> dict:
    return {
        "lattice": _lattice(2, 16), "dispersion": _NN, "w0": _cosine_w0(rng, 2),
        "delta": {"model": "gaussian", "epsilon": 0.35}, "method": "fft", "tau_end": 1.0, "dtau": 0.05,
    }


def _make_bp_solve_fejer(rng: np.random.Generator) -> dict:
    return {
        "lattice": _lattice(2, 8), "dispersion": _NN, "w0": _cosine_w0(rng, 2),
        "delta": {"model": "fejer", "window_tau": 0.2, "window_coupling": 0.2}, "method": "direct",
        "tau_end": 1.0, "dtau": 0.05,
    }


def _check_bp_solve(params: dict, out: Path) -> None:
    summary = json.loads((out / "summary.json").read_text())
    number = summary["number"]
    _require(len(number) == 21, "bp-solve: expected 20 RK4 steps")
    drift = max(abs(n - number[0]) for n in number)
    _require(drift <= 1e-12 * number[0], f"bp-solve: particle number drifts by {drift:.3g}")
    side = params["lattice"]["side"]
    _require(len(_read_csv(out / "trajectory.csv")[1]) == 21 * side**2, "bp-solve: trajectory has the wrong size")


def _make_bp_compare(rng: np.random.Generator) -> dict:
    return {
        "lattice": _lattice(2, 16), "dispersion": _NN, "w0": _cosine_w0(rng, 2), "tau": 0.1,
        "lambda_list": [0.5, 0.25, 0.125], "reference_delta": {"model": "gaussian", "epsilon": 0.35},
        "method": "fft",
    }


def _check_bp_compare(params: dict, out: Path) -> None:
    _, rows = _read_csv(out / "convergence.csv")
    _require([row[0] for row in rows] == params["lambda_list"], "bp-compare: wrong coupling rows")
    gaps = [row[1] for row in rows]
    _require(all(a > b for a, b in zip(gaps, gaps[1:])), f"bp-compare: sup_gap {gaps} does not shrink with lambda")


KINETIC = (
    JobClass("bp_solve_gaussian_s", "bp-solve", 1, _make_bp_solve_gaussian, _check_bp_solve),
    JobClass("bp_solve_fejer_s", "bp-solve", 1, _make_bp_solve_fejer, _check_bp_solve),
    JobClass("bp_compare_s", "bp-compare", 2, _make_bp_compare, _check_bp_compare),
)


WORKLOADS = {"algebra": ALGEBRA, "ensemble": ENSEMBLE, "kinetic": KINETIC}


def make_round(workload: str, seed: int, round_index: int, directory: Path) -> list[Job]:
    """Draw one job per class of the workload and write their config files."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload), round_index])
    jobs = []
    for cls in WORKLOADS[workload]:
        params = cls.make(rng)
        config = directory / f"r{round_index}-{cls.metric}.json"
        config.write_text(json.dumps({"schema_version": 1, "kind": cls.kind, "params": params}))
        jobs.append(Job(cls, config, params, int(rng.integers(2**31))))
    return jobs
