"""Spans and counts for a traced benchmark run, recorded from outside the package.

:meth:`Tracer.install` replaces each function in :data:`TARGETS` with a
wrapper, in its defining module and in every ``wickkit`` module that imported
the name, and :meth:`Tracer.uninstall` puts the originals back. A wrapper
records one span per call: name, start, end, parent span, job id, thread and
self time. Generators are timed per ``next`` and kept as one span per
generator with its busy time and item count, so a partition walk of 10^5
items costs one record, not 10^5. Spans stay in memory until the run writes
them out.

Self time is a span's duration minus the time its children in the same thread
cover. Pool workers run in other threads; their spans name the span that
called ``_map_in_order`` as parent, and :func:`layer_metrics` handles the
overlap with an interval union.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import sys
import threading
import time
from typing import Callable


@dataclasses.dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    name: str
    start_ns: int
    end_ns: int
    job: int | None
    thread: int
    self_ns: int
    busy_ns: int  # time spent inside; for a generator the sum over its next() calls
    work: int  # items a generator yielded, or the target's own work count


SPAN_FIELDS = [f.name for f in dataclasses.fields(Span)]


def _site_steps(args, kwargs, result) -> int:
    ensemble, n_steps = args[0], kwargs.get("n_steps", args[3] if len(args) > 3 else None)
    return ensemble.n_realizations * ensemble.lattice.size * n_steps


def _sites(args, kwargs, result) -> int:
    return result.n_realizations * result.lattice.size


def _rk4_steps(args, kwargs, result) -> int:
    return result.n_steps


def _collision_name(args, kwargs) -> str:
    config = kwargs.get("config", args[1] if len(args) > 1 else None)
    return f"kinetic.collision.{config.delta_model}"


# (module, attribute, span name or name(args, kwargs), is a generator, work(args, kwargs, result))
TARGETS: list[tuple[str, str, str | Callable, bool, Callable | None]] = [
    ("wickkit.indexing", "partitions", "indexing.partitions", True, None),
    ("wickkit.indexing", "subsets", "indexing.subsets", True, None),
    ("wickkit.cumulants", "moments_from_cumulants", "cumulants.moments_from_cumulants", False, None),
    ("wickkit.cumulants", "CumulantEvaluator.kappa", "cumulants.kappa", False, None),
    ("wickkit.cumulants", "CumulantEvaluator.kappa_of", "cumulants.kappa", False, None),
    ("wickkit.wick", "wick_from_cumulants", "wick.wick_from_cumulants", False, None),
    ("wickkit.wick", "wick_product_expectation", "wick.wick_product_expectation", False, None),
    ("wickkit.hierarchy", "hierarchy_rhs", "hierarchy.hierarchy_rhs", False, None),
    ("wickkit.dnls", "integrate_ensemble", "dnls.integrate_ensemble", False, _site_steps),
    ("wickkit.dnls", "sample_initial", "dnls.sample_initial", False, _sites),
    ("wickkit.dnls", "estimate_W", "dnls.estimate_W", False, None),
    ("wickkit.dnls", "write_spectrum_csv", "cli.write", False, None),
    ("wickkit.kinetic", "collision_operator", _collision_name, False, None),
    ("wickkit.kinetic", "prelimit_kernel", "kinetic.prelimit_kernel", False, None),
    ("wickkit.kinetic", "bp_solve", "kinetic.bp_solve", False, _rk4_steps),
    ("wickkit.cli", "write_trajectory_csv", "cli.write", False, None),
]

JOB = "cli.job"
WORKER = "cli.pool.worker"


class Tracer:
    """Records spans while installed; one instance serves one benchmark run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job: int | None = None
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[list]:
        """This thread's open frames: [span id, parent id, name, start ns, child ns]."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def _record(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             work: Callable | None = None, parent: int | None = None):
        """Run ``fn`` inside a span; a call directly inside a span of the same name joins it."""
        stack = self._stack()
        if stack and stack[-1][2] == name:
            return fn(*args, **kwargs)
        if parent is None and stack:
            parent = stack[-1][0]
        frame = [self._new_id(), parent, name, time.perf_counter_ns(), 0]
        stack.append(frame)
        result, count = None, 0
        try:
            result = fn(*args, **kwargs)
            count = work(args, kwargs, result) if work else 0
            return result
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            duration = end - frame[3]
            if stack:
                stack[-1][4] += duration
            self._record(Span(frame[0], parent, name, frame[3], end, self.job,
                              threading.get_ident(), duration - frame[4], duration, count))

    def _function(self, name: str | Callable, fn: Callable, work: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name(args, kwargs) if callable(name) else name, fn, args, kwargs, work)

        return traced

    def _generator(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            stack = self._stack()
            span_id, parent = self._new_id(), (stack[-1][0] if stack else None)
            first = last = None
            own = busy = items = 0
            try:
                while True:
                    frame = [span_id, parent, name, time.perf_counter_ns(), 0]
                    stack.append(frame)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        end = time.perf_counter_ns()
                        stack.pop()
                        duration = end - frame[3]
                        if stack:
                            stack[-1][4] += duration
                        busy += duration
                        own += duration - frame[4]
                        first = frame[3] if first is None else first
                        last = end
                    items += 1
                    yield item
            finally:
                if first is not None:
                    self._record(Span(span_id, parent, name, first, last, self.job,
                                      threading.get_ident(), own, busy, items))

        return traced

    def _pool(self, map_in_order: Callable) -> Callable:
        @functools.wraps(map_in_order)
        def traced(worker, items, threads):
            stack = self._stack()
            parent = stack[-1][0] if stack else None

            def traced_worker(item):
                return self.call(WORKER, worker, (item,), {}, parent=parent)

            return map_in_order(traced_worker, items, threads)

        return traced

    # -- patching ------------------------------------------------------------

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original: object, wrapper: object) -> None:
        for module_name, module in list(sys.modules.items()):
            if module_name == "wickkit" or module_name.startswith("wickkit."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapper)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        for module_name, attr, name, is_generator, work in TARGETS:
            owner = sys.modules[module_name]
            owner_name, _, attr = attr.rpartition(".")
            if owner_name:
                owner = getattr(owner, owner_name)
            original = getattr(owner, attr)
            wrapper = self._generator(name, original) if is_generator else self._function(name, original, work)
            if owner_name:
                self._set(owner, attr, wrapper)
            else:
                self._replace_everywhere(original, wrapper)
        cli = sys.modules["wickkit.cli"]
        self._set(cli, "_map_in_order", self._pool(cli._map_in_order))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# name -> unit, in report order; trace.overhead_ratio is added by the runner
PER_LAYER = {
    "indexing.partitions.count": "count",
    "indexing.partitions.self_s": "s",
    "indexing.subsets.count": "count",
    "cumulants.moments_from_cumulants.calls": "count",
    "cumulants.moments_from_cumulants.self_s": "s",
    "cumulants.kappa.calls": "count",
    "cumulants.kappa.self_s": "s",
    "wick.wick_from_cumulants.self_s": "s",
    "wick.wick_product_expectation.calls": "count",
    "wick.wick_product_expectation.self_s": "s",
    "hierarchy.hierarchy_rhs.calls": "count",
    "hierarchy.hierarchy_rhs.self_s": "s",
    "dnls.integrate_ensemble.site_steps": "count",
    "dnls.integrate_ensemble.ns_per_site_step": "ns",
    "dnls.sample_initial.ns_per_site": "ns",
    "dnls.estimate_W.self_s": "s",
    "kinetic.collision.gaussian.calls": "count",
    "kinetic.collision.gaussian.ms_per_call": "ms",
    "kinetic.collision.fejer.calls": "count",
    "kinetic.collision.fejer.ms_per_call": "ms",
    "kinetic.prelimit_kernel.calls": "count",
    "kinetic.prelimit_kernel.ms_per_call": "ms",
    "kinetic.bp_solve.rk4_steps": "count",
    "kinetic.bp_solve.self_s": "s",
    "cli.write.self_s": "s",
    "cli.self_s": "s",
    "cli.pool.parallelism": "ratio",
    "trace.overhead_ratio": "ratio",
}


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def layer_metrics(spans: list[Span], pooled_jobs: set[int]) -> dict[str, float]:
    """Per-layer metrics of the spans of one set of jobs (all of them traced).

    ``pooled_jobs`` are the jobs run with more than one thread, whose pool
    parallelism is reported.
    """
    calls: dict[str, int] = {}
    work: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    busy_ns: dict[str, int] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        work[s.name] = work.get(s.name, 0) + s.work
        self_ns[s.name] = self_ns.get(s.name, 0) + s.self_ns
        busy_ns[s.name] = busy_ns.get(s.name, 0) + s.busy_ns

    def per(name: str, denominator: dict[str, int], scale: float) -> float:
        n = denominator.get(name, 0)
        return busy_ns.get(name, 0) / n / scale if n else 0.0

    out: dict[str, float] = {}
    for metric in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        if stat == "count" or stat in ("site_steps", "rk4_steps"):
            out[metric] = work.get(layer, 0)
        elif stat == "calls":
            out[metric] = calls.get(layer, 0)
        elif stat == "self_s" and layer != "cli":
            out[metric] = self_ns.get(layer, 0) / 1e9
        elif stat in ("ns_per_site_step", "ns_per_site"):
            out[metric] = per(layer, work, 1.0)
        elif stat == "ms_per_call":
            out[metric] = per(layer, calls, 1e6)

    # cli.self_s: job wall time minus the union of the module spans directly
    # under the job or its pool workers (cli.write counts as cli time)
    roots = {s.job: s for s in spans if s.name == JOB}
    cli_parents = {s.span_id for s in spans if s.name in (JOB, WORKER)}
    module_intervals: dict[int, list[tuple[int, int]]] = {job: [] for job in roots}
    worker_ns = {job: 0 for job in roots}
    for s in spans:
        if s.name == WORKER:
            worker_ns[s.job] += s.busy_ns
        elif s.parent_id in cli_parents and not s.name.startswith("cli."):
            module_intervals[s.job].append((s.start_ns, s.end_ns))
    out["cli.self_s"] = sum(r.busy_ns - _union_ns(module_intervals[j]) for j, r in roots.items()) / 1e9
    pooled_wall = sum(r.busy_ns for j, r in roots.items() if j in pooled_jobs)
    out["cli.pool.parallelism"] = sum(worker_ns[j] for j in pooled_jobs if j in roots) / pooled_wall if pooled_wall else 0.0
    return out
