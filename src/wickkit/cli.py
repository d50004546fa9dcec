"""Batch front door for the library: config-driven runs, machine-readable output.

Each run is described by a JSON config file::

    {
      "schema_version": 1,
      "kind": "bp-solve",            # must match the subcommand
      "seed": 0,                     # master seed (optional, default 0)
      "threads": 1,                  # worker threads (optional, default 1)
      "out": "runs/bp",              # output directory (optional)
      "params": { ... }              # kind-specific block, see the runners
    }

``--seed``, ``--threads`` and ``--out`` flags override the config values.
Every runner writes its result files plus a ``manifest.json`` that echoes the
complete effective config, so a manifest can be fed back via ``--config`` to
replay the run.  Result files are formatted deterministically (shortest
round-trip float repr, sorted JSON keys): identical configs produce
byte-identical result files, independent of the thread count.  Only the
manifest's ``timings`` block varies between reruns.

Every number in a config is a finite JSON number (not a string or a bool);
integer fields take only JSON integers.  Exit codes: 0 success, 2 malformed,
mistyped or non-finite input, 3 a numeric guard tripped during the run, 4 I/O
failure.  Failures print a one-line JSON error report to stderr.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import json
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .cumulants import (
    CumulantEvaluator,
    CumulantTable,
    TableOracle,
    _as_index,
    moments_from_cumulants,
    table_from_json,
    table_to_json,
)
from .dnls import (
    Dispersion,
    FieldState,
    Lattice,
    _csv_floats,
    _jackknife_stderr,
    ell2_mass,
    estimate_W,
    hamiltonian,
    integrate_ensemble,
    nearest_neighbor_dispersion,
    next_nearest_dispersion,
    sample_initial,
    write_spectrum_csv,
    read_spectrum_csv,
    zero_dispersion,
)
from .errors import ConfigError, GuardError, _json, _number, _numbers, _object, _pair, step_count
from .hierarchy import (
    AmplitudeModel,
    HierarchyState,
    InteractionTerm,
    all_keys_up_to,
    constant_amplitude,
    hierarchy_rhs_table,
)
from .indexing import LabeledSeq, PartitionMemo
from .kinetic import (
    BPTrajectory,
    CollisionConfig,
    EquilibriumParams,
    bp_solve,
    collision_operator,
    prelimit_kernel,
)
from .pool import map_in_order as _map_in_order
from .wick import wick_from_cumulants

__all__ = [
    "SCHEMA_VERSION",
    "RunConfig",
    "load_run_config",
    "run",
    "main",
    "write_trajectory_csv",
    "read_trajectory_csv",
]

SCHEMA_VERSION = 1

KINDS = (
    "wick-expand",
    "cumulant-convert",
    "hierarchy-rhs",
    "dnls-simulate",
    "estimate-w",
    "bp-solve",
    "bp-compare",
    "kinetic-check",
)


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved run description; equal configs produce equal outputs."""

    kind: str
    params: Mapping
    seed: int = 0
    threads: int = 1
    out: str = "out"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"unknown run kind {self.kind!r}; expected one of {KINDS}")
        _number(self.seed, "seed", integer=True, low=0)
        _number(self.threads, "threads", integer=True, low=1)
        _path(self.out, "out")
        _object(self.params, "params")

    def echo(self) -> dict:
        """The complete effective config, replayable via ``--config``."""
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "seed": self.seed,
            "threads": self.threads,
            "out": self.out,
            "params": json.loads(json.dumps(self.params)),
        }


def _check_keys(block: Mapping, where: str, required: Sequence[str], optional: Sequence[str] = ()) -> None:
    """Strict schema check: every required key present, no stray keys."""
    missing = [k for k in required if k not in block]
    if missing:
        raise ConfigError(f"{where}: missing required key(s) {missing}")
    allowed = set(required) | set(optional)
    unknown = [k for k in block if k not in allowed]
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {unknown}; allowed: {sorted(allowed)}")


def load_run_config(
    path: str | Path,
    kind: str | None = None,
    seed: int | None = None,
    threads: int | None = None,
    out: str | None = None,
) -> RunConfig:
    """Load and validate a config file; flag values override file values.

    A manifest written by a previous run is accepted too: its echoed config
    block is unwrapped, which is what makes replay a one-liner.
    """
    data = _object(_json(Path(path).read_text(), f"config {path}"), f"config {path}")
    if "package_version" in data and "config" in data:
        data = _object(data["config"], f"the config block of manifest {path}")
    _check_keys(
        data, f"config {path}",
        required=["schema_version", "kind", "params"],
        optional=["seed", "threads", "out"],
    )
    if _number(data["schema_version"], "schema_version", integer=True) != SCHEMA_VERSION:
        raise ConfigError(
            f"config schema_version {data['schema_version']!r} is not supported; "
            f"this tool reads version {SCHEMA_VERSION}"
        )
    if kind is not None and data["kind"] != kind:
        raise ConfigError(f"config kind {data['kind']!r} does not match subcommand {kind!r}")
    return RunConfig(
        kind=data["kind"],
        params=data["params"],
        seed=data.get("seed", 0) if seed is None else seed,
        threads=data.get("threads", 1) if threads is None else threads,
        out=data.get("out", "out") if out is None else out,
    )


# ---------------------------------------------------------------------------
# deterministic writers and readers
# ---------------------------------------------------------------------------


# the files the current run has (re)written; :func:`run` removes them if it fails
_written: list[Path] = []


def _write_text(path: Path, text: str) -> None:
    _written.append(path)
    path.write_text(text)


def _write_json(path: Path, obj) -> None:
    """Write ``obj`` as JSON; a non-finite number is a GuardError and nothing is written."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as err:
        raise GuardError(f"{path.name}: a result is not finite ({err})") from None
    _write_text(path, text + "\n")


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    """Write rows of ``repr(float)`` cells; a non-finite cell is a GuardError and nothing is written."""
    body = "".join(",".join(row) + "\n" for row in rows)
    if "nan" in body or "inf" in body:  # repr spells the non-finite floats nan, inf and -inf
        raise GuardError(f"{path.name}: a result is not finite")
    _write_text(path, ",".join(header) + "\n" + body)


def _write_spectrum(lattice: Lattice, spectrum, path: Path) -> None:
    # the writer checks the spectrum before it opens the file, so record it once written
    write_spectrum_csv(lattice, spectrum, path)
    _written.append(path)


def write_trajectory_csv(lattice: Lattice, trajectory: BPTrajectory, path: str | Path) -> None:
    """Write a kinetic trajectory as rows of (tau, k components..., value).

    Momenta are written as fractions of the Brillouin zone, spectra in
    row-major dual-grid order within each time slice; float formatting is
    repr, so equal trajectories give byte-identical files.
    """
    header = ["tau"] + [f"k{i + 1}" for i in range(lattice.dimension)] + ["value"]
    rows = []
    for step, tau in enumerate(trajectory.taus):
        values = trajectory.spectra[step]
        if values.shape != lattice.shape:
            raise ConfigError("trajectory spectra do not match the lattice shape")
        for site in np.ndindex(lattice.shape):
            ks = [repr(component / lattice.side) for component in site]
            rows.append([repr(float(tau))] + ks + [repr(float(values[site]))])
    _write_csv(Path(path), header, rows)


def read_trajectory_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse a trajectory CSV back into (taus, k rows, values[step, site])."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines:
        raise ConfigError(f"{path} is empty")
    header = lines[0].split(",")
    if header[0] != "tau" or header[-1] != "value":
        raise ConfigError(f"{path} does not look like a trajectory CSV")
    dim = len(header) - 2
    taus: list[float] = []
    k_rows: list[list[float]] = []
    blocks: list[list[float]] = []
    for row, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != dim + 2:
            raise ConfigError(f"malformed trajectory row: {line!r}")
        tau, *ks, value = _csv_floats(parts, path, row)
        if not taus or tau != taus[-1]:
            taus.append(tau)
            blocks.append([])
        if len(taus) == 1:
            k_rows.append(ks)
        blocks[-1].append(value)
    sizes = {len(b) for b in blocks}
    if len(sizes) != 1:
        raise ConfigError(f"{path} has ragged time slices")
    return np.asarray(taus), np.asarray(k_rows), np.asarray(blocks)


# ---------------------------------------------------------------------------
# descriptor parsers (shared across runners)
# ---------------------------------------------------------------------------


def _parse_lattice(block, where: str) -> Lattice:
    _check_keys(_object(block, f"{where}.lattice"), f"{where}.lattice", required=["dimension", "side"])
    return Lattice(*(_number(block[k], f"{where}.lattice.{k}", integer=True) for k in ("dimension", "side")))


def _parse_dispersion(block, dimension: int, where: str) -> Dispersion:
    kind = _object(block, f"{where}.dispersion").get("kind")
    optional = ["second_shell"] if kind == "next-nearest" else []  # only that symbol has a second shell
    _check_keys(block, f"{where}.dispersion", required=["kind"], optional=optional)
    if kind == "nearest-neighbor":
        return nearest_neighbor_dispersion(dimension)
    if kind == "next-nearest":
        shell = _number(block.get("second_shell", 0.25), f"{where}.dispersion.second_shell")
        return next_nearest_dispersion(dimension, second_shell=shell)
    if kind == "zero":
        return zero_dispersion(dimension)
    raise ConfigError(
        f"{where}: unknown dispersion kind {kind!r}; "
        "expected nearest-neighbor | next-nearest | zero"
    )


def _parse_w0(block, lattice: Lattice, dispersion: Dispersion, where: str) -> np.ndarray:
    """Initial spectrum descriptors: flat | cosine | equilibrium | csv; the result is finite."""
    kind = _object(block, f"{where}.w0").get("kind")
    if kind == "flat":
        _check_keys(block, f"{where}.w0", required=["kind", "value"])
        values = np.full(lattice.shape, _number(block["value"], f"{where}.w0.value"))
    elif kind == "cosine":
        _check_keys(block, f"{where}.w0", required=["kind", "mean", "amplitudes"])
        amps = _numbers(block["amplitudes"], f"{where}.w0.amplitudes")
        if len(amps) != lattice.dimension:
            raise ConfigError(
                f"{where}.w0: cosine needs {lattice.dimension} amplitudes, got {len(amps)}"
            )
        grid = lattice.k_grid()
        values = np.full(lattice.shape, _number(block["mean"], f"{where}.w0.mean"))
        for axis, amp in enumerate(amps):
            values = values + amp * np.cos(2.0 * np.pi * grid[..., axis])
    elif kind == "equilibrium":
        _check_keys(block, f"{where}.w0", required=["kind", "beta", "mu"])
        params = EquilibriumParams(_number(block["beta"], f"{where}.w0.beta"), _number(block["mu"], f"{where}.w0.mu"))
        values = params.spectrum(lattice, dispersion).values
    elif kind == "csv":
        _check_keys(block, f"{where}.w0", required=["kind", "path"])
        _, values, _ = read_spectrum_csv(_path(block["path"], f"{where}.w0.path"))
        if values.size != lattice.size:
            raise ConfigError(
                f"{where}.w0: file has {values.size} rows, lattice has {lattice.size} sites"
            )
        values = values.reshape(lattice.shape)
    else:
        raise ConfigError(
            f"{where}: unknown w0 kind {kind!r}; expected flat | cosine | equilibrium | csv"
        )
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{where}.w0: the initial spectrum has a non-finite entry")
    return values


def _parse_system(params: Mapping, where: str) -> tuple[Lattice, Dispersion, np.ndarray]:
    """The ``lattice``, ``dispersion`` and ``w0`` blocks of a run, parsed in that order."""
    lattice = _parse_lattice(params["lattice"], where)
    dispersion = _parse_dispersion(params["dispersion"], lattice.dimension, where)
    return lattice, dispersion, _parse_w0(params["w0"], lattice, dispersion, where)


def _path(raw, what: str) -> Path:
    if not isinstance(raw, str):
        raise ConfigError(f"{what} must be a path string, got {raw!r}")
    return Path(raw)


def _index_list(raw, what: str) -> list:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{what} must be a nonempty list of indices, got {raw!r}")
    return [_as_index(token) for token in raw]


# Values of the optional ``method`` key.  It selects nothing, since every
# collision sum runs on one time-domain engine, but configs and manifests
# written by earlier versions carry it, so it is still accepted and checked.
_COLLISION_METHODS = ("direct", "fft")


def _parse_collision(
    lattice: Lattice,
    dispersion: Dispersion,
    delta_block,
    method,
    where: str,
) -> CollisionConfig:
    """Build a CollisionConfig from a delta-model descriptor (``method`` is only checked)."""
    model = _object(delta_block, f"{where}.delta").get("model")
    if model == "gaussian":
        _check_keys(delta_block, f"{where}.delta", required=["model"], optional=["epsilon"])
        eps = delta_block.get("epsilon")
        kwargs = {"delta_model": "gaussian", "epsilon": None if eps is None else _number(eps, f"{where}.delta.epsilon")}
    elif model == "fejer":
        _check_keys(
            delta_block, f"{where}.delta",
            required=["model", "window_tau", "window_coupling"],
        )
        kwargs = {
            "delta_model": "fejer",
            "window_tau": _number(delta_block["window_tau"], f"{where}.delta.window_tau"),
            "window_coupling": _number(delta_block["window_coupling"], f"{where}.delta.window_coupling"),
        }
    else:
        raise ConfigError(f"{where}: unknown delta model {model!r}; expected gaussian | fejer")
    if method is not None and method not in _COLLISION_METHODS:
        raise ConfigError(f"{where}: unknown method {method!r}; expected one of {_COLLISION_METHODS}")
    return CollisionConfig(lattice=lattice, dispersion=dispersion, **kwargs)


def _load_block(params: Mapping, name: str, where: str):
    """Fetch a JSON block given inline (``name``) or by file (``name_path``)."""
    inline = params.get(name)
    path = params.get(f"{name}_path")
    if (inline is None) == (path is None):
        raise ConfigError(f"{where}: supply exactly one of {name!r} or '{name}_path'")
    if inline is not None:
        return inline
    return _json(_path(path, f"{where}: {name}_path").read_text(), f"{where}: {path}")


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


def _run_wick_expand(rc: RunConfig, out_dir: Path) -> dict:
    """Expand the Wick polynomial of an index sequence over a cumulant table."""
    params = rc.params
    _check_keys(
        params, "wick-expand params",
        required=["indices"], optional=["cumulants", "cumulants_path"],
    )
    indices = _index_list(params["indices"], "wick-expand: indices")
    table = CumulantTable.from_json(_load_block(params, "cumulants", "wick-expand"))
    poly = wick_from_cumulants(table, LabeledSeq.from_indices(indices))
    _write_json(out_dir / "wick_poly.json", poly.to_json())
    return {
        "outputs": ["wick_poly.json"],
        "summary": {"indices": len(indices), "terms": len(poly.terms)},
    }


def _run_cumulant_convert(rc: RunConfig, out_dir: Path) -> dict:
    """Convert a moment table to cumulants, or a cumulant table to moments."""
    params = rc.params
    _check_keys(
        params, "cumulant-convert params",
        required=["direction"], optional=["table", "table_path"],
    )
    direction = params["direction"]
    entries = table_from_json(_load_block(params, "table", "cumulant-convert"))
    keys = list(entries)
    if direction == "moments-to-cumulants":
        oracle = TableOracle(entries)
        evaluator = CumulantEvaluator(oracle)
        try:
            converted = {key: evaluator.kappa(key) for key in keys}
        except KeyError as err:
            raise ConfigError(
                f"cumulant-convert: moment table is missing the sub-moment {err.args[0]!r}"
            ) from err
        work = {"multisets_evaluated": len(evaluator.memo), "partition_states": 0}
    elif direction == "cumulants-to-moments":
        table = CumulantTable(entries=entries)
        memo = PartitionMemo(table.book)  # every moment is a symmetric sum over this one table
        converted = {
            key: moments_from_cumulants(table, LabeledSeq.from_indices(key), memo) for key in keys
        }
        work = _partition_work(memo)
    else:
        raise ConfigError(
            f"cumulant-convert: unknown direction {direction!r}; "
            "expected moments-to-cumulants | cumulants-to-moments"
        )
    _write_json(out_dir / "converted.json", table_to_json(converted))
    return {"outputs": ["converted.json"], "summary": {"entries": len(converted), **work}}


def _partition_work(memo: PartitionMemo) -> dict:
    """Deterministic work counts of the partition sums that shared ``memo``."""
    return {"multisets_evaluated": len(memo.weights), "partition_states": len(memo.totals) - 1}


def _amplitude_from_descriptor(block, where: str):
    """Amplitude descriptors: constant | phase (e^{i omega t}) | table-driven."""
    kind = _object(block, where).get("type")
    if kind == "constant":
        _check_keys(block, where, required=["type", "value"])
        return constant_amplitude(_pair(block["value"], f"{where}.value"))
    if kind == "phase":
        _check_keys(block, where, required=["type", "omega"], optional=["scale"])
        s = _pair(block.get("scale", [1.0, 0.0]), f"{where}.scale")
        omega = _number(block["omega"], f"{where}.omega")
        return lambda t, table: s * cmath.exp(1j * omega * t)
    if kind == "table":
        _check_keys(block, where, required=["type", "key"], optional=["scale"])
        s = _pair(block.get("scale", [1.0, 0.0]), f"{where}.scale")
        key = tuple(_index_list(block["key"], f"{where}.key"))
        return lambda t, table: s * table.kappa(key)
    raise ConfigError(f"{where}: unknown amplitude type {kind!r}; expected constant | phase | table")


def _run_hierarchy_rhs(rc: RunConfig, out_dir: Path) -> dict:
    """Evaluate the cumulant-hierarchy right-hand side for one model state."""
    params = rc.params
    _check_keys(
        params, "hierarchy-rhs params",
        required=["order"],
        optional=["model", "model_path", "table", "table_path", "time"],
    )
    order = _number(params["order"], "hierarchy-rhs: order", integer=True, low=1)
    model_json = _object(_load_block(params, "model", "hierarchy-rhs"), "hierarchy-rhs: model")
    _check_keys(model_json, "hierarchy-rhs model", required=["terms"])
    if not isinstance(model_json["terms"], list):
        raise ConfigError("hierarchy-rhs: model terms must be a list")
    terms: dict = {}
    for pos, item in enumerate(model_json["terms"]):
        where = f"hierarchy-rhs model terms[{pos}]"
        _check_keys(_object(item, where), where, required=["index", "seq", "amplitude"])
        term = InteractionTerm(
            seq=LabeledSeq.from_indices(_index_list(item["seq"], f"{where}.seq")),
            amplitude=_amplitude_from_descriptor(item["amplitude"], f"{where}.amplitude"),
        )
        terms.setdefault(_as_index(item["index"]), []).append(term)
    model = AmplitudeModel(terms=terms)
    table = CumulantTable.from_json(_load_block(params, "table", "hierarchy-rhs"), max_order=order)
    state = HierarchyState(table=table, time=_number(params.get("time", 0.0), "hierarchy-rhs: time"))
    targets = all_keys_up_to(model.universe(), order)
    memo = PartitionMemo()
    rhs = hierarchy_rhs_table(model, state, targets, memo)
    _write_json(out_dir / "rhs_table.json", table_to_json(rhs))
    return {
        "outputs": ["rhs_table.json"],
        "summary": {"targets": len(rhs), "order": order, **_partition_work(memo)},
    }


def _run_dnls_simulate(rc: RunConfig, out_dir: Path) -> dict:
    """Evolve a sampled ensemble, recording observables and the final spectrum."""
    params = rc.params
    _check_keys(
        params, "dnls-simulate params",
        required=["lattice", "dispersion", "coupling", "w0", "n_realizations", "dt", "t_end"],
        optional=["family", "record_every"],
    )
    lattice, dispersion, w0 = _parse_system(params, "dnls-simulate")
    coupling = _number(params["coupling"], "dnls-simulate: coupling")
    n_real = _number(params["n_realizations"], "dnls-simulate: n_realizations", integer=True, low=2)
    dt = _number(params["dt"], "dnls-simulate: dt")
    n_steps = step_count(_number(params["t_end"], "dnls-simulate: t_end", low=0.0, strict=True), dt, "dnls-simulate")
    record_every = _number(params.get("record_every", 1), "dnls-simulate: record_every", integer=True, low=1)
    if n_steps % record_every:
        raise ConfigError("dnls-simulate: record_every must divide the step count")

    ensemble = sample_initial(
        lattice, w0, n_real, seed=rc.seed,
        family=params.get("family", "gaussian"), coupling=coupling, threads=rc.threads,
    )
    rows = []
    for block in range(n_steps // record_every + 1):
        if block:
            ensemble = integrate_ensemble(ensemble, dispersion, dt, record_every, threads=rc.threads)
        stack = FieldState(ensemble.fields, coupling=coupling)
        mass = ell2_mass(stack) / n_real
        energy = hamiltonian(stack, lattice, dispersion) / n_real
        rows.append([repr(float(block * record_every * dt)), repr(mass), repr(energy)])
    _write_csv(out_dir / "observables.csv", ["time", "mean_mass", "mean_energy"], rows)
    _write_spectrum(lattice, estimate_W(ensemble), out_dir / "spectrum.csv")
    return {
        "outputs": ["observables.csv", "spectrum.csv"],
        "summary": {
            "n_steps": n_steps, "records": len(rows), "final_mean_mass": mass,
            **_stepping_work(lattice, dispersion, dt, n_real * n_steps),
        },
    }


def _stepping_work(lattice: Lattice, dispersion: Dispersion, dt: float, realization_steps: int) -> dict:
    """Deterministic work and margin of a run's split steps: site-steps, and ``|dt|·max|ω|`` (limit 0.5)."""
    return {
        "site_steps": realization_steps * lattice.size,
        "dt_max_omega": abs(dt) * dispersion.max_frequency(lattice),
    }


def _run_estimate_w(rc: RunConfig, out_dir: Path) -> dict:
    """Sample an initial ensemble and estimate its covariance spectrum."""
    params = rc.params
    _check_keys(
        params, "estimate-w params",
        required=["lattice", "dispersion", "w0", "n_realizations"], optional=["family"],
    )
    lattice, _, w0 = _parse_system(params, "estimate-w")
    n_real = _number(params["n_realizations"], "estimate-w: n_realizations", integer=True, low=2)
    ensemble = sample_initial(
        lattice, w0, n_real, seed=rc.seed, family=params.get("family", "gaussian"), threads=rc.threads,
    )
    estimate = estimate_W(ensemble)
    _write_spectrum(lattice, estimate, out_dir / "spectrum.csv")
    worst = float(np.max(np.abs(estimate.values - w0) / np.maximum(estimate.stderr, 1e-300)))
    return {
        "outputs": ["spectrum.csv"],
        "summary": {"n_realizations": n_real, "max_zscore_vs_w0": worst},
    }


def _run_bp_solve(rc: RunConfig, out_dir: Path) -> dict:
    """Integrate the kinetic equation and emit the trajectory + summary."""
    params = rc.params
    _check_keys(
        params, "bp-solve params",
        required=["lattice", "dispersion", "delta", "w0", "tau_end", "dtau"],
        optional=["method"],
    )
    lattice, dispersion, w0 = _parse_system(params, "bp-solve")
    config = _parse_collision(lattice, dispersion, params["delta"], params.get("method"), "bp-solve")
    tau_end, dtau = _number(params["tau_end"], "bp-solve: tau_end"), _number(params["dtau"], "bp-solve: dtau")
    trajectory = bp_solve(w0, config, tau_end=tau_end, dtau=dtau)
    write_trajectory_csv(lattice, trajectory, out_dir / "trajectory.csv")
    _write_json(
        out_dir / "summary.json",
        {
            "taus": [float(t) for t in trajectory.taus],
            "number": [float(v) for v in trajectory.number],
            "energy": [float(v) for v in trajectory.energy],
            "entropy": [float(v) for v in trajectory.entropy],
        },
    )
    drift = float(np.max(np.abs(trajectory.number - trajectory.number[0])))
    return {
        "outputs": ["trajectory.csv", "summary.json"],
        "summary": {"n_steps": trajectory.n_steps, "number_drift": drift},
    }


def _run_bp_compare(rc: RunConfig, out_dir: Path) -> dict:
    """Tabulate the gap between the pre-limit kernel and the limit operator.

    One row per coupling value: as the coupling shrinks at fixed tau, the
    time-averaged first-order kernel divided by tau approaches the collision
    operator computed with the configured reference delta model.
    """
    params = rc.params
    _check_keys(
        params, "bp-compare params",
        required=["lattice", "dispersion", "w0", "tau", "lambda_list", "reference_delta"],
        optional=["method"],
    )
    lattice, dispersion, w0 = _parse_system(params, "bp-compare")
    tau = _number(params["tau"], "bp-compare: tau", low=0.0, strict=True)
    lambdas = _numbers(params["lambda_list"], "bp-compare: lambda_list", low=0.0, strict=True)
    config = _parse_collision(
        lattice, dispersion, params["reference_delta"], params.get("method"), "bp-compare",
    )
    reference = collision_operator(w0, config).values

    def gaps_for(coupling: float) -> np.ndarray:
        return prelimit_kernel(w0, coupling, tau, config).values / tau - reference

    gap_fields = _map_in_order(gaps_for, lambdas, rc.threads)
    rows = []
    for coupling, gaps in zip(lambdas, gap_fields):
        rows.append(
            [
                repr(coupling),
                repr(float(np.max(np.abs(gaps)))),
                repr(float(np.sqrt(np.mean(gaps**2)))),
                repr(float(np.mean(np.abs(gaps)))),
            ]
        )
    _write_csv(out_dir / "convergence.csv", ["lambda", "sup_gap", "rms_gap", "mean_abs_gap"], rows)
    return {
        "outputs": ["convergence.csv"],
        "summary": {"lambdas": len(lambdas), "final_sup_gap": float(rows[-1][1])},
    }


def _run_kinetic_check(rc: RunConfig, out_dir: Path) -> dict:
    """Monte Carlo spectrum increments against the kinetic prediction.

    For each coupling lambda the sampled ensemble is evolved to the kinetic
    time tau/lambda^2 and the per-mode increment (W_t - W_0)/tau is averaged
    over realizations with jackknife errors.  The emitted table carries, per
    (lambda, k): the reference collision operator, the analytic first-order
    kernel over tau (noise-free), the MC mean, its standard error, and the
    MC-minus-reference gap.  The initial ensemble and its spectrum W_0 are
    computed once and every coupling starts from them, so the columns are
    comparable realization by realization.  The couplings run one after
    another, each one's realization blocks on the thread pool.
    """
    params = rc.params
    _check_keys(
        params, "kinetic-check params",
        required=["lattice", "dispersion", "w0", "coupling_list", "tau", "dt", "n_realizations"],
        optional=["family", "reference_delta", "method", "se_threshold", "min_resolved_modes"],
    )
    lattice, dispersion, w0 = _parse_system(params, "kinetic-check")
    tau = _number(params["tau"], "kinetic-check: tau", low=0.0, strict=True)
    dt = _number(params["dt"], "kinetic-check: dt")
    lambdas = _numbers(params["coupling_list"], "kinetic-check: coupling_list", low=0.0, strict=True)
    n_real = _number(params["n_realizations"], "kinetic-check: n_realizations", integer=True, low=2)
    family = params.get("family", "gaussian")
    se_threshold = _number(params.get("se_threshold", 3.0), "kinetic-check: se_threshold")
    min_resolved = _number(params.get("min_resolved_modes", 1), "kinetic-check: min_resolved_modes", integer=True)
    delta_block = params.get("reference_delta", {"model": "gaussian"})
    config = _parse_collision(lattice, dispersion, delta_block, params.get("method"), "kinetic-check")
    reference = collision_operator(w0, config).values

    step_counts = [
        step_count(tau / coupling**2, dt, f"kinetic-check: kinetic time at coupling {coupling!r}")
        for coupling in lambdas
    ]

    def analytic_for(coupling: float) -> np.ndarray:
        return prelimit_kernel(w0, coupling, tau, config).values / tau

    analytics = _map_in_order(analytic_for, lambdas, rc.threads)
    initial = sample_initial(lattice, w0, n_real, seed=rc.seed, family=family, threads=rc.threads)
    before = np.abs(initial.fourier()) ** 2 / lattice.size
    results = []
    for coupling, n_steps, analytic in zip(lambdas, step_counts, analytics):
        start = replace(initial, coupling=coupling)
        after = np.abs(integrate_ensemble(start, dispersion, dt, n_steps, threads=rc.threads).fourier()) ** 2
        increments = (after / lattice.size - before) / tau
        mc_se = _jackknife_stderr(increments)
        resolved = int(np.sum(np.abs(analytic) > se_threshold * mc_se))
        results.append((analytic, increments.mean(axis=0), mc_se, resolved))

    header = (
        ["lambda"]
        + [f"k{i + 1}" for i in range(lattice.dimension)]
        + ["collision", "prelimit", "mc_mean", "mc_se", "gap"]
    )
    rows = []
    resolved_counts = {}
    for coupling, (analytic, mc_mean, mc_se, resolved) in zip(lambdas, results):
        if resolved < min_resolved:
            raise ConfigError(
                f"kinetic-check: ensemble too small for the requested error bars "
                f"(coupling {coupling!r} resolves {resolved} modes at "
                f"{se_threshold} standard errors; need {min_resolved})"
            )
        resolved_counts[repr(coupling)] = resolved
        for site in np.ndindex(lattice.shape):
            rows.append(
                [repr(coupling)]
                + [repr(component / lattice.side) for component in site]
                + [
                    repr(float(reference[site])),
                    repr(float(analytic[site])),
                    repr(float(mc_mean[site])),
                    repr(float(mc_se[site])),
                    repr(float(mc_mean[site] - reference[site])),
                ]
            )
    _write_csv(out_dir / "kinetic_check.csv", header, rows)
    return {
        "outputs": ["kinetic_check.csv"],
        "summary": {
            "resolved_modes": resolved_counts, "n_realizations": n_real,
            **_stepping_work(lattice, dispersion, dt, n_real * sum(step_counts)),
        },
    }


_RUNNERS = {
    "wick-expand": _run_wick_expand,
    "cumulant-convert": _run_cumulant_convert,
    "hierarchy-rhs": _run_hierarchy_rhs,
    "dnls-simulate": _run_dnls_simulate,
    "estimate-w": _run_estimate_w,
    "bp-solve": _run_bp_solve,
    "bp-compare": _run_bp_compare,
    "kinetic-check": _run_kinetic_check,
}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def run(rc: RunConfig) -> list[Path]:
    """Execute one run: write result files and the manifest, return their paths."""
    out_dir = Path(rc.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # a manifest describes the run that wrote it; a failed rerun must not leave the old one
    (out_dir / "manifest.json").unlink(missing_ok=True)
    _written.clear()
    started = time.perf_counter()
    try:
        report = _RUNNERS[rc.kind](rc, out_dir)
        manifest = {
            "package_version": __version__,
            "kind": rc.kind,
            "config": rc.echo(),
            "outputs": report["outputs"],
            "summary": report["summary"],
            "timings": {"total_seconds": time.perf_counter() - started},
        }
        _write_json(out_dir / "manifest.json", manifest)
    except Exception:
        # a failed run leaves none of the files it wrote behind
        for path in _written:
            with contextlib.suppress(OSError):
                path.unlink()
        raise
    return [out_dir / name for name in report["outputs"]] + [out_dir / "manifest.json"]


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="wickkit",
        description="Deterministic batch runs of the wickkit library modules.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON run config (or a manifest to replay)")
    common.add_argument("--seed", type=int, default=None, help="override the config's master seed")
    common.add_argument("--threads", type=int, default=None, help="override the worker thread count")
    common.add_argument("--out", default=None, help="override the output directory")
    subparsers = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        subparsers.add_parser(kind, parents=[common], help=f"run a {kind} experiment")
    args = parser.parse_args(argv)
    try:
        rc = load_run_config(
            args.config, kind=args.kind, seed=args.seed, threads=args.threads, out=args.out,
        )
        written = run(rc)
    except ConfigError as err:
        return _fail(2, err)
    except GuardError as err:
        return _fail(3, err)
    except OSError as err:
        return _fail(4, err)
    print(f"{args.kind}: wrote {len(written)} files to {Path(rc.out)}")
    return 0


def _fail(code: int, err: Exception) -> int:
    report = {"error": type(err).__name__, "message": str(err), "exit_code": code}
    print(json.dumps(report, sort_keys=True), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
