"""wickkit benchmark: per-job-class CLI wall times, and a traced per-module run.

Usage, from the root of a checkout::

    python3 bench/run.py --workload algebra --seed 1 --seconds 20 --trace 0

A job is one CLI run, ``wickkit.cli.main([kind, "--config", ..., "--out",
fresh_dir, "--seed", s, "--threads", t])``, called in this process after a
``gc.collect()``. A run draws rounds of jobs (one per job class of the
workload) from the seed and runs them until ``--seconds`` have passed, then
checks every output, and replays one job per class from its manifest (and
each ``--threads 2`` job at ``--threads 1``) to check that the result files
are byte-identical.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs every job
twice back to back, untraced and with the :mod:`spans` tracer installed, and
prints the per-module metrics and the tracing overhead; its spans go to
``.bench_run/trace-<workload>-seed<seed>.json``. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. See ``bench/README.md`` for every metric.
"""

from __future__ import annotations

import os

# pinned before numpy loads: the only threads besides the main one are a job's own --threads
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from spans import PER_LAYER, SPAN_FIELDS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, make_round  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_run"
SETUPS = 5  # fresh-interpreter imports per run; setup_s is their median


def _machine() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **{k: os.environ[k] for k in PINNED},
    }


def _fresh_import_s() -> float:
    """Wall time of a fresh interpreter that imports the CLI, as every console run pays."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import wickkit.cli"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - started


class Runner:
    """Runs, checks and replays the jobs of one benchmark run."""

    def __init__(self, workload: str, seed: int, directory: Path, tracer: Tracer | None = None) -> None:
        from wickkit import cli  # importable once main() has put src/ on sys.path

        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.directory = directory
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self._job_ids = itertools.count(1)

    def round(self, index: int):
        return make_round(self.workload, self.seed, index, self.directory)

    def _main(self, argv: list[str], traced: bool) -> tuple[int, float, str]:
        """One CLI run: (exit code, wall seconds, stderr)."""
        gc.collect()
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            started = time.perf_counter()
            if traced:
                code = self.tracer.call("cli.job", self.cli.main, (argv,), {})
            else:
                code = self.cli.main(argv)
            wall = time.perf_counter() - started
        return code, wall, err.getvalue().strip()

    def _fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"FAILED {message}", file=sys.stderr)

    def run(self, job, out: Path, traced: bool = False) -> float | None:
        """Run and check one job; its wall time, or None if it failed."""
        self.attempted += 1
        if traced:
            self.tracer.job = next(self._job_ids)
        name = f"{job.cls.metric} {out.name}"
        try:
            code, wall, err = self._main(job.argv(out), traced)
        except Exception as exc:  # a traceback out of the CLI is a failed job, not a failed benchmark
            self._fail(f"{name}: raised {exc!r}")
            return None
        if code != 0:
            self._fail(f"{name}: exit {code}: {err}")
            return None
        try:
            job.cls.check(job.params, out)
        except Exception as exc:  # wrong or malformed outputs fail the job, whatever the check trips on
            self._fail(f"{name}: {exc!r}")
            return None
        return wall

    def replay(self, job, out: Path) -> None:
        """Rerun ``job`` from its manifest, and at --threads 1 if it used more; compare bytes."""
        if not (out / "manifest.json").is_file():
            return  # the job itself failed and is counted already
        reruns = {"replay": {"config": out / "manifest.json"}}
        if job.cls.threads > 1:
            reruns["threads1"] = {"threads": 1}
        for label, change in reruns.items():
            self.attempted += 1
            again = out.with_name(f"{out.name}-{label}")
            code, _, err = self._main(job.argv(again, **change), traced=False)
            if code != 0:
                self._fail(f"{job.cls.metric} {label}: exit {code}: {err}")
            elif _result_files(out) != _result_files(again):
                self._fail(f"{job.cls.metric} {label}: result files differ from {out.name}")


def _result_files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.name != "manifest.json"}


def _setup(runner: Runner) -> tuple[list[float], list]:
    """Set up SETUPS times: fresh import plus drawing one round's inputs. Returns the times and rounds."""
    times, rounds = [], []
    for index in range(SETUPS):
        imported = _fresh_import_s()
        started = time.perf_counter()
        rounds.append(runner.round(index))
        times.append(imported + time.perf_counter() - started)
    return times, rounds


def _rounds(runner: Runner, ready: list, seconds: float):
    """Yield (index, jobs) until ``seconds`` have passed; at least one round."""
    started = time.perf_counter()
    for index in itertools.count():
        if index and time.perf_counter() - started >= seconds:
            return
        yield index, ready[index] if index < len(ready) else runner.round(index)


class Calibration:
    """A fixed kernel that runs no wickkit code, timed before and after every job.

    On a shared VM the speed of a core drifts by 20-30% from minute to minute
    with the load of other tenants. Dividing a run's job times by the median
    kernel time of the same run cancels most of that drift; the median over
    the run, rather than the kernel time next to each job, keeps a short
    stall in one kernel sample out of the result. The kernel is two passes of
    FFT, complex exponential and inverse FFT over a 4 MB array (about L2
    size), about 0.03 s. Of the kernels tried (also pure-Python dict work, a
    256 KB FFT and a 32 MB streaming pass), it tracked the drift of all three
    workloads best, the pure-Python one included.
    """

    def __init__(self) -> None:
        self.field = np.random.default_rng(0).standard_normal((512, 512)) + 0j
        self.samples: list[float] = []

    def __call__(self) -> None:
        started = time.perf_counter()
        field = self.field
        for _ in range(2):
            field = np.fft.ifft(np.exp(-0.1j * np.abs(np.fft.fft(field, axis=1)) ** 2), axis=1)
        self.samples.append(time.perf_counter() - started)


def measure(runner: Runner, ready: list, seconds: float) -> tuple[dict, list[float], list]:
    """Untraced rounds: per-class wall times and the calibration times around them."""
    calibration = Calibration()
    walls: dict[str, list[float]] = {}
    first = None
    for index, jobs in _rounds(runner, ready, seconds):
        first = first or jobs
        for job in jobs:
            calibration()
            wall = runner.run(job, runner.directory / f"r{index}-{job.cls.metric}")
            calibration()
            if wall is not None:
                walls.setdefault(job.cls.metric, []).append(wall)
    return walls, calibration.samples, first


def measure_traced(runner: Runner, ready: list, seconds: float) -> tuple[dict, list]:
    """Each job untraced and traced back to back, the order alternating by round: per-round layer metrics."""
    tracer = runner.tracer
    per_round: list[dict] = []
    first = None
    for index, jobs in _rounds(runner, ready, seconds):
        first = first or jobs
        walls = {False: 0.0, True: 0.0}
        spans_before = len(tracer.spans)
        pooled = set()
        for job in jobs:
            for traced in (False, True) if index % 2 == 0 else (True, False):
                out = runner.directory / f"r{index}-{job.cls.metric}{'-traced' if traced else ''}"
                if traced:
                    tracer.install()
                try:
                    walls[traced] += runner.run(job, out, traced) or 0.0
                finally:
                    if traced:
                        tracer.uninstall()
                if traced and job.cls.threads > 1:
                    pooled.add(tracer.job)
        metrics = layer_metrics(tracer.spans[spans_before:], pooled)
        metrics["trace.overhead_ratio"] = walls[True] / walls[False] if walls[False] else 0.0
        per_round.append(metrics)
    return {name: [m[name] for m in per_round] for name in per_round[0]}, first


def _print_table(rows: list[tuple[str, float, str, int]]) -> None:
    print(f"{'metric':44} {'value':>14} {'unit':6} {'n':>4}")
    for name, value, unit, n in rows:
        print(f"{name:44} {value:14.6g} {unit:6} {n:4d}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wickkit" / "cli.py").is_file():
        print(f"error: no wickkit sources under {SRC}; run from the root of a wickkit checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    directory = RUNS / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    directory.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    try:
        runner = Runner(args.workload, args.seed, directory, tracer)
        setup_times, ready = _setup(runner)
        if args.trace:
            values, first = measure_traced(runner, ready, args.seconds)
        else:
            walls, calibration, first = measure(runner, ready, args.seconds)
        for job in first:
            runner.replay(job, directory / f"r0-{job.cls.metric}")
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    machine = _machine()
    print(f"# wickkit benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    failed = len(runner.failures)
    fail_row = ("fail_ratio", failed / runner.attempted, "1", runner.attempted)
    if args.trace:
        # a count is the same in every round; median_low keeps it a whole number
        metrics = {
            name: ((statistics.median_low if PER_LAYER[name] == "count" else statistics.median)(v), PER_LAYER[name], len(v))
            for name, v in values.items()
        }
        trace_path = RUNS / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "machine": machine,
            "metrics": {k: {"value": v, "unit": u, "rounds": n} for k, (v, u, n) in metrics.items()},
            "span_fields": SPAN_FIELDS, "spans": [dataclasses.astuple(s) for s in tracer.spans],
        }))
        _print_table([(k, v, u, n) for k, (v, u, n) in metrics.items()] + [fail_row])
        print(f"# spans: {trace_path.relative_to(ROOT)}")
    else:
        unit = statistics.median(calibration)
        medians = {name: statistics.median(w) for name, w in walls.items()}
        jobs = min(len(w) for w in walls.values()) if walls else 0
        rows = [(name, medians[name], "s", len(w)) for name, w in walls.items()]
        rows += [("batch_s", sum(medians.values()), "s", jobs), ("calibration_s", unit, "s", len(calibration))]
        metrics = {
            "batch_cal": (sum(medians.values()) / unit, "cal", jobs),
            "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        }
        _print_table(rows + [(k, v, u, n) for k, (v, u, n) in metrics.items()] + [fail_row])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
