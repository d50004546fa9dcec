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
replay the run.  Result files are formatted deterministically: a JSON file
is one line of sorted keys, a CSV file one row per line, and every float is
its shortest round-trip repr.  Identical configs produce byte-identical
result files, independent of the thread count.  Only the manifest's
``timings`` block varies between reruns.

Every runner reads its config through ``errors.Block`` before the first
numerics: each JSON object, at every level, accepts exactly the keys its
kind reads, and a missing required key or a stray one is refused.  Every
number in a config is a finite JSON number (not a string or a bool);
integer fields take only JSON integers.  Exit codes: 0 success, 2 malformed,
mistyped or non-finite input or an input file that is not UTF-8, 3 a numeric
guard tripped or memory ran out during the run, 4 I/O failure.  Failures,
command-line errors included, print a one-line JSON error report to stderr.

A console run executes only the modules its kind calls.  ``indexing``,
``cumulants``, ``wick`` and ``hierarchy`` load at an algebra kind's first
read of them, from its parse step on (``wick-expand``, ``cumulant-convert``,
``hierarchy-rhs``), and numpy, ``dnls`` and ``kinetic`` at the parse step of
a lattice kind; no kind executes the other layer, and ``concurrent.futures``
loads only when a pool starts.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import functools
import importlib.util
import json
import math
import sys
import time
import types
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

from . import __version__


def _lazy_module(name: str) -> types.ModuleType:
    """The module ``name``, whose code runs at its first attribute read (the stdlib ``LazyLoader`` recipe).

    A module already in ``sys.modules`` is returned as it is; otherwise the
    module is registered there, and on its package, unexecuted.  Before
    Python 3.12 that first read is not thread-safe, so a lattice runner makes
    it while it parses its config, before any pool starts; an algebra runner
    starts no pool.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    package, _, attr = name.rpartition(".")
    if package:
        setattr(sys.modules[package], attr, module)
    return module


# a console run executes only its own layer: the algebra modules load in an algebra kind's run,
# numpy, dnls and kinetic in a lattice kind's
_lazy_module("wickkit.indexing")  # no name of it is read here, but the benchmark tracer finds it registered
cumulants = _lazy_module("wickkit.cumulants")
wick = _lazy_module("wickkit.wick")
hierarchy = _lazy_module("wickkit.hierarchy")
np = _lazy_module("numpy")
dnls = _lazy_module("wickkit.dnls")
kinetic = _lazy_module("wickkit.kinetic")

from .errors import (  # noqa: E402
    _REQUIRED, Block, ConfigError, GuardError, _json, _number, _object, _read_text, _write_json, _written,
    mean_stderr, read_csv, step_count, write_csv,
)
from .pool import map_in_order as _map_in_order  # noqa: E402

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
        if not isinstance(self.out, str):
            raise ConfigError(f"out must be a path string, got {self.out!r}")
        _object(self.params, "params")

    def echo(self) -> dict:
        """The complete effective config, replayable via ``--config``.

        ``params`` is the tree as read, not a copy: the runners read it only
        through ``errors.Block``, which never changes it.
        """
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "seed": self.seed,
            "threads": self.threads,
            "out": self.out,
            "params": self.params,
        }


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
    where = f"config {path}"
    data = _object(_json(_read_text(Path(path)), where), where)
    if "package_version" in data and "config" in data:
        data, where = data["config"], f"the config block of manifest {path}"
    with Block(data, where) as config:
        if (version := config.integer("schema_version")) != SCHEMA_VERSION:
            raise ConfigError(f"config schema_version {version} is not supported; this tool reads {SCHEMA_VERSION} only")
        fields = {"kind": config.get("kind"), "params": config.get("params")}
        if kind is not None and fields["kind"] != kind:
            raise ConfigError(f"config kind {fields['kind']!r} does not match subcommand {kind!r}")
        for key, default in (("seed", 0), ("threads", 1), ("out", "out")):
            fields[key] = config.get(key, default)
    # the file's values are checked even where a flag overrides them
    flags = {"seed": seed, "threads": threads, "out": out}
    return replace(RunConfig(**fields), **{key: flag for key, flag in flags.items() if flag is not None})


# ---------------------------------------------------------------------------
# deterministic writers and readers
# ---------------------------------------------------------------------------


def write_trajectory_csv(lattice: dnls.Lattice, trajectory: kinetic.BPTrajectory, path: str | Path) -> None:
    """Write a kinetic trajectory as rows of (tau, k components..., value).

    Momenta are written as fractions of the Brillouin zone, spectra in
    row-major dual-grid order within each time slice; float formatting is
    repr, so equal trajectories give byte-identical files.
    """
    steps = len(trajectory.taus)
    spectra = np.asarray(trajectory.spectra)
    if spectra.shape != (steps,) + lattice.shape:
        raise ConfigError("trajectory spectra do not match the lattice shape")
    header = ["tau"] + [f"k{i + 1}" for i in range(lattice.dimension)] + ["value"]
    taus = np.repeat(np.asarray(trajectory.taus), lattice.size)
    write_csv(Path(path), header, [taus, lattice.k_cells() * steps, spectra])


def read_trajectory_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse a trajectory CSV back into (taus, k rows, values[step, site]); a ragged file is a ConfigError."""
    header, rows = read_csv(Path(path))
    if header[0] != "tau" or header[-1] != "value" or not len(rows):
        raise ConfigError(f"{path} does not look like a trajectory CSV")
    sites = int(np.argmax(rows[:, 0] != rows[0, 0])) or len(rows)  # the rows of the first slice
    slices = rows[: len(rows) - len(rows) % sites].reshape(-1, sites, len(header))
    taus = slices[:, 0, 0]
    ragged = len(rows) % sites or np.any(slices[:, :, 0] != taus[:, None]) or len(set(taus.tolist())) < len(taus)
    if ragged or np.any(slices[:, :, 1:-1] != slices[0, :, 1:-1]):
        raise ConfigError(f"{path} has ragged time slices: each tau needs one slice with the first slice's k rows")
    return taus, slices[0, :, 1:-1], slices[:, :, -1]


# ---------------------------------------------------------------------------
# descriptor parsers (shared across runners)
# ---------------------------------------------------------------------------


def _parse_system(params: Block) -> tuple[dnls.Lattice, dnls.Dispersion, np.ndarray]:
    """The ``lattice``, ``dispersion`` and ``w0`` blocks of a run, parsed in that order."""
    with params.block("lattice") as block:
        lattice = dnls.Lattice(block.integer("dimension"), block.integer("side"))
    dispersion = _parse_dispersion(params.block("dispersion"), lattice.dimension)
    return lattice, dispersion, _parse_w0(params.block("w0"), lattice, dispersion)


def _parse_dispersion(block: Block, dimension: int) -> dnls.Dispersion:
    with block:
        kind = block.choice("kind", ("nearest-neighbor", "next-nearest", "zero"))
        if kind == "next-nearest":  # only that symbol has a second shell
            return dnls.next_nearest_dispersion(dimension, second_shell=block.number("second_shell", 0.25))
    return dnls.nearest_neighbor_dispersion(dimension) if kind == "nearest-neighbor" else dnls.zero_dispersion(dimension)


def _parse_w0(w0: Block, lattice: dnls.Lattice, dispersion: dnls.Dispersion) -> np.ndarray:
    """Initial spectrum descriptors: flat | cosine | equilibrium | csv; the result is finite."""
    with w0:
        kind = w0.choice("kind", ("flat", "cosine", "equilibrium", "csv"))
        if kind == "flat":
            values = np.full(lattice.shape, w0.number("value"))
        elif kind == "cosine":
            amps = w0.numbers("amplitudes")
            if len(amps) != lattice.dimension:
                raise ConfigError(f"{w0.where}: cosine needs {lattice.dimension} amplitudes, got {len(amps)}")
            grid = lattice.k_grid()
            values = np.full(lattice.shape, w0.number("mean"))
            for axis, amp in enumerate(amps):
                values = values + amp * np.cos(2.0 * np.pi * grid[..., axis])
        elif kind == "equilibrium":
            values = kinetic.EquilibriumParams(w0.number("beta"), w0.number("mu")).spectrum(lattice, dispersion)
        else:
            k_rows, values, _ = dnls.read_spectrum_csv(w0.path("path"))
            # the writer's fractions parse back exactly, so the k columns must equal the grid
            if not np.array_equal(k_rows, lattice.k_grid().reshape(-1, lattice.dimension)):
                raise ConfigError(
                    f"{w0.where}: the file's {len(k_rows)} k rows are not the {lattice.size} momenta of the "
                    f"{lattice.dimension}-dimensional lattice in row-major order"
                )
            values = values.reshape(lattice.shape)
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{w0.where}: the initial spectrum has a non-finite entry")
    return values


def _index_list(block: Block, key: str) -> list:
    raw = block.get(key)
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{block.name(key)} must be a nonempty list of indices, got {raw!r}")
    return [cumulants._as_index(token) for token in raw]


def _parse_collision(
    params: Block, key: str, lattice: dnls.Lattice, dispersion: dnls.Dispersion, default=_REQUIRED,
) -> kinetic.CollisionConfig:
    """A CollisionConfig from the run's delta-model descriptor ``key``.

    The run's ``method`` key selects nothing, since every collision sum runs
    on one time-domain engine, but configs and manifests written by earlier
    versions carry it, so it is still read and checked.
    """
    params.choice("method", ("direct", "fft"), None)
    with params.block(key, default) as delta:
        model = delta.choice("model", ("gaussian", "fejer"))
        if model == "gaussian":
            widths = {"epsilon": delta.number("epsilon", None)}
        else:
            widths = {"window_tau": delta.number("window_tau"), "window_coupling": delta.number("window_coupling")}
    return kinetic.CollisionConfig(lattice=lattice, dispersion=dispersion, delta_model=model, **widths)


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


def _run_wick_expand(rc: RunConfig, out_dir: Path) -> dict:
    """Expand the Wick polynomial of an index sequence over a cumulant table."""
    with Block(rc.params, "wick-expand params") as params:
        indices = _index_list(params, "indices")
        table = cumulants.CumulantTable.from_json(params.inline_or_file("cumulants"))
    poly = wick.wick_from_cumulants(table, indices)
    _write_json(out_dir / "wick_poly.json", poly.to_json())
    return {
        "outputs": ["wick_poly.json"],
        "summary": {"indices": len(indices), "terms": len(poly.terms)},
    }


def _run_cumulant_convert(rc: RunConfig, out_dir: Path) -> dict:
    """Convert a moment table to cumulants, or a cumulant table to moments."""
    with Block(rc.params, "cumulant-convert params") as params:
        direction = params.choice("direction", ("moments-to-cumulants", "cumulants-to-moments"))
        entries = cumulants.table_from_json(params.inline_or_file("table"))
    keys = list(entries)
    if direction == "moments-to-cumulants":
        evaluator = cumulants.CumulantEvaluator(cumulants.TableOracle(entries))
        book = evaluator.book
        try:
            converted = {key: evaluator.kappa_code(book.code(key)) for key in keys}
        except KeyError as err:
            raise ConfigError(
                f"cumulant-convert: moment table is missing the sub-moment {err.args[0]!r}"
            ) from err
        work = {
            "multisets_evaluated": len(evaluator.memo),
            "recursion_terms": evaluator.recursion_terms,
            "partition_states": 0,
        }
    else:
        oracle = cumulants.CumulantBackedOracle(cumulants.CumulantTable(entries=entries))  # its memo serves every key
        converted = {key: oracle.moment(key) for key in keys}
        work = oracle.memo.work()
    _write_json(out_dir / "converted.json", cumulants.table_to_json(converted))
    return {"outputs": ["converted.json"], "summary": {"entries": len(converted), **work}}


def _amplitude_from_descriptor(amplitude: Block, at: float):
    """Amplitude descriptors: constant | phase (e^{i omega t}) | table-driven, to be read at time ``at``."""
    with amplitude:
        kind = amplitude.choice("type", ("constant", "phase", "table"))
        if kind == "constant":
            return hierarchy.constant_amplitude(amplitude.pair("value"))
        s = amplitude.pair("scale", [1.0, 0.0])
        if kind == "phase":
            omega = amplitude.number("omega")
            if not cmath.isfinite(omega * at):
                raise ConfigError(f"{amplitude.where}: the phase omega * time = {omega!r} * {at!r} is not finite")
            return lambda t, table: s * cmath.exp(1j * omega * t)
        key = tuple(_index_list(amplitude, "key"))
        return lambda t, table: s * table.kappa(key)


def _run_hierarchy_rhs(rc: RunConfig, out_dir: Path) -> dict:
    """Evaluate the cumulant-hierarchy right-hand side for one model state."""
    with Block(rc.params, "hierarchy-rhs params") as params:
        order = params.integer("order", low=1)
        at = params.number("time", 0.0)
        terms: dict = {}
        with Block(params.inline_or_file("model"), params.name("model")) as spec:
            for pos, item in enumerate(spec.sequence("terms")):
                with Block(item, f"{spec.name('terms')}[{pos}]") as entry:
                    seq = tuple(_index_list(entry, "seq"))
                    amplitude = _amplitude_from_descriptor(entry.block("amplitude"), at)
                    term = hierarchy.InteractionTerm(seq=seq, amplitude=amplitude)
                    terms.setdefault(cumulants._as_index(entry.get("index")), []).append(term)
        model = hierarchy.AmplitudeModel(terms=terms)
        table = cumulants.CumulantTable.from_json(params.inline_or_file("table"), max_order=order)
    targets = hierarchy.all_keys_up_to(model.universe(), order)  # distinct and canonical already
    values, work = hierarchy.HierarchyPlan(model, targets).evaluate(table, at)
    _write_json(out_dir / "rhs_table.json", cumulants.table_to_json(dict(zip(targets, values))))
    return {
        "outputs": ["rhs_table.json"],
        "summary": {"targets": len(targets), "order": order, **work},
    }


def _run_dnls_simulate(rc: RunConfig, out_dir: Path) -> dict:
    """Evolve a sampled ensemble, recording observables and the final spectrum."""
    with Block(rc.params, "dnls-simulate params") as params:
        lattice, dispersion, w0 = _parse_system(params)
        coupling = params.number("coupling")
        n_real = params.integer("n_realizations", low=2)
        dt = params.number("dt")
        n_steps = step_count(params.number("t_end", low=0.0, strict=True), dt, "dnls-simulate")
        record_every = params.integer("record_every", 1, low=1)
        if n_steps % record_every:
            raise ConfigError("dnls-simulate: record_every must divide the step count")
        family = params.choice("family", dnls._FAMILIES, "gaussian")

    ensemble = dnls.sample_initial(
        lattice, w0, n_real, seed=rc.seed, family=family, coupling=coupling, threads=rc.threads,
    )
    records = []
    for block in range(n_steps // record_every + 1):
        if block:
            ensemble = dnls.integrate_ensemble(ensemble, dispersion, dt, record_every, threads=rc.threads)
        mass = dnls.ell2_mass(ensemble) / n_real
        energy = dnls.hamiltonian(ensemble, dispersion, threads=rc.threads) / n_real
        records.append((block * record_every * dt, mass, energy))
    write_csv(out_dir / "observables.csv", ["time", "mean_mass", "mean_energy"], [*np.array(records).T])
    values, stderr = dnls.estimate_W(ensemble, threads=rc.threads)
    dnls.write_spectrum_csv(lattice, values, out_dir / "spectrum.csv", stderr)
    return {
        "outputs": ["observables.csv", "spectrum.csv"],
        "summary": {
            "n_steps": n_steps, "records": len(records), "final_mean_mass": mass,
            **_stepping_work(lattice, dispersion, dt, n_real * n_steps),
        },
    }


def _stepping_work(lattice: dnls.Lattice, dispersion: dnls.Dispersion, dt: float, realization_steps: int) -> dict:
    """Deterministic work and margin of a run's split steps: site-steps, and ``|dt|·max|ω|`` (limit 0.5)."""
    return {
        "site_steps": realization_steps * lattice.size,
        "dt_max_omega": abs(dt) * dispersion.max_frequency(lattice),
    }


def _run_estimate_w(rc: RunConfig, out_dir: Path) -> dict:
    """Sample an initial ensemble and estimate its covariance spectrum."""
    with Block(rc.params, "estimate-w params") as params:
        lattice, _, w0 = _parse_system(params)
        n_real = params.integer("n_realizations", low=2)
        family = params.choice("family", dnls._FAMILIES, "gaussian")
    ensemble = dnls.sample_initial(lattice, w0, n_real, seed=rc.seed, family=family, threads=rc.threads)
    values, stderr = dnls.estimate_W(ensemble, threads=rc.threads)
    dnls.write_spectrum_csv(lattice, values, out_dir / "spectrum.csv", stderr)
    # a deterministic family has stderr 0, so the gap is measured against w0's rounding scale
    floor = np.maximum(8.0 * np.finfo(float).eps * np.abs(w0), 1e-300)
    worst = float(np.max(np.abs(values - w0) / np.maximum(stderr, floor)))
    return {
        "outputs": ["spectrum.csv"],
        "summary": {"n_realizations": n_real, "max_zscore_vs_w0": worst},
    }


def _run_bp_solve(rc: RunConfig, out_dir: Path) -> dict:
    """Integrate the kinetic equation and emit the trajectory + summary."""
    with Block(rc.params, "bp-solve params") as params:
        lattice, dispersion, w0 = _parse_system(params)
        config = _parse_collision(params, "delta", lattice, dispersion)
        tau_end, dtau = params.number("tau_end"), params.number("dtau")
    trajectory = kinetic.bp_solve(w0, config, tau_end=tau_end, dtau=dtau)
    write_trajectory_csv(lattice, trajectory, out_dir / "trajectory.csv")
    _write_json(
        out_dir / "summary.json",
        {
            "taus": [float(t) for t in trajectory.taus],
            "number": [float(v) for v in trajectory.number],
            "energy": [float(v) for v in trajectory.energy],
            "entropy": [None if v == -math.inf else float(v) for v in trajectory.entropy],  # JSON has no -inf
        },
    )
    return {
        "outputs": ["trajectory.csv", "summary.json"],
        "summary": {
            "n_steps": trajectory.n_steps,
            "number_drift": float(np.max(np.abs(trajectory.number - trajectory.number[0]))),
            "energy_drift": float(np.max(np.abs(trajectory.energy - trajectory.energy[0]))),
            "time_nodes": trajectory.time_nodes,
            "plan_kept": trajectory.plan_kept,
            "rk4_stages": trajectory.rk4_stages,
            "clamp_events": trajectory.clamp_events,
            "min_w_before_clamp": trajectory.min_w_before_clamp,
        },
    }


def _run_bp_compare(rc: RunConfig, out_dir: Path) -> dict:
    """Tabulate the gap between the pre-limit kernel and the limit operator.

    One row per coupling value: as the coupling shrinks at fixed tau, the
    time-averaged first-order kernel divided by tau approaches the collision
    operator computed with the configured reference delta model.  The
    couplings run one after another in the calling thread: each kernel call
    is too short to pay for a pool.
    """
    with Block(rc.params, "bp-compare params") as params:
        lattice, dispersion, w0 = _parse_system(params)
        tau = params.number("tau", low=0.0, strict=True)
        lambdas = params.numbers("lambda_list", low=0.0, strict=True)
        config = _parse_collision(params, "reference_delta", lattice, dispersion)
    reference = kinetic.collision_operator(w0, config)

    fields = [kinetic.prelimit_kernel(w0, coupling, tau, config) / tau - reference for coupling in lambdas]
    gaps = np.array([[np.max(np.abs(field)), np.sqrt(np.mean(field**2)), np.mean(np.abs(field))] for field in fields])
    header = ["lambda", "sup_gap", "rms_gap", "mean_abs_gap"]
    write_csv(out_dir / "convergence.csv", header, [np.array(lambdas), *gaps.T])
    return {
        "outputs": ["convergence.csv"],
        "summary": {"lambdas": len(lambdas), "final_sup_gap": float(gaps[-1, 0])},
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
    with Block(rc.params, "kinetic-check params") as params:
        lattice, dispersion, w0 = _parse_system(params)
        tau = params.number("tau", low=0.0, strict=True)
        dt = params.number("dt")
        lambdas = params.numbers("coupling_list", low=0.0, strict=True)
        if len(set(lambdas)) < len(lambdas):
            repeated = next(c for i, c in enumerate(lambdas) if c in lambdas[:i])
            raise ConfigError(f"{params.name('coupling_list')} repeats the coupling {repeated!r}")
        n_real = params.integer("n_realizations", low=2)
        family = params.choice("family", dnls._FAMILIES, "gaussian")
        se_threshold = params.number("se_threshold", 3.0, low=0.0)
        min_resolved = params.integer("min_resolved_modes", 1, low=0)
        config = _parse_collision(params, "reference_delta", lattice, dispersion, {"model": "gaussian"})
    reference = kinetic.collision_operator(w0, config)

    step_counts = [
        step_count(kinetic.kinetic_time(tau, coupling), dt, f"kinetic-check: kinetic time at coupling {coupling!r}")
        for coupling in lambdas
    ]

    def analytic_for(coupling: float) -> np.ndarray:
        return kinetic.prelimit_kernel(w0, coupling, tau, config) / tau

    analytics = _map_in_order(analytic_for, lambdas, rc.threads)
    initial = dnls.sample_initial(lattice, w0, n_real, seed=rc.seed, family=family, threads=rc.threads)
    before = initial.mode_power(rc.threads)
    mc_means, mc_ses, resolved_counts = [], [], {}
    for coupling, n_steps, analytic in zip(lambdas, step_counts, analytics):
        start = replace(initial, coupling=coupling)
        evolved = dnls.integrate_ensemble(start, dispersion, dt, n_steps, threads=rc.threads)
        increments = (evolved.mode_power(rc.threads) - before) / tau
        mc_se = mean_stderr(increments)
        resolved = int(np.sum(np.abs(analytic) > se_threshold * mc_se))
        if resolved < min_resolved:
            raise ConfigError(
                f"kinetic-check: ensemble too small for the requested error bars "
                f"(coupling {coupling!r} resolves {resolved} modes at "
                f"{se_threshold} standard errors; need {min_resolved})"
            )
        resolved_counts[repr(coupling)] = resolved
        mc_means.append(increments.mean(axis=0))
        mc_ses.append(mc_se)

    mc_mean = np.array(mc_means)
    write_csv(
        out_dir / "kinetic_check.csv",
        ["lambda", *(f"k{i + 1}" for i in range(lattice.dimension)), "collision", "prelimit", "mc_mean", "mc_se", "gap"],
        [np.repeat(lambdas, lattice.size), lattice.k_cells() * len(lambdas), np.broadcast_to(reference, mc_mean.shape),
         np.array(analytics), mc_mean, np.array(mc_ses), mc_mean - reference],
    )
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
KINDS = tuple(_RUNNERS)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def run(rc: RunConfig) -> list[Path]:
    """Execute one run: write result files and the manifest, return their paths."""
    out_dir = Path(rc.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # a manifest describes the run that wrote it; a failed rerun must not leave the old one
    (out_dir / "manifest.json").unlink(missing_ok=True)
    written: list[Path] = []
    token = _written.set(written)
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
        for path in written:
            with contextlib.suppress(OSError):
                path.unlink()
        raise
    finally:
        _written.reset(token)
    return [out_dir / name for name in report["outputs"]] + [out_dir / "manifest.json"]


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise ConfigError, which ``main`` reports in one JSON line; subparsers inherit it."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: it holds no state between parses."""
    parser = _Parser(
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
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        rc = load_run_config(
            args.config, kind=args.kind, seed=args.seed, threads=args.threads, out=args.out,
        )
        written = run(rc)
    except ConfigError as err:
        return _fail(2, err)
    except (GuardError, MemoryError) as err:
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
