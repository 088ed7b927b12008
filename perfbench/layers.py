"""Per-layer accounting of a traced benchmark run.

Two sources, both outside the program's source tree:

* timing shims the traced run wraps around the public functions of each
  layer (:func:`install`).  A shim keeps a per-thread stack so every layer
  is charged its *self* time: its duration minus the time of the shimmed
  calls nested inside it.  Totals stay in memory and are written once, at
  the end of the run (:meth:`Profiler.dump`);
* the spans the program itself writes when tracing is on (``--trace`` /
  ``Session(trace=...)``): ``sweep``, ``sweep.shard``, ``dispatch``,
  ``shm.*`` and ``serve.*`` (:func:`trace_counts`).

:data:`LAYER_MAP` records, for every per-layer metric, the end-to-end
metric it should move and the workloads it moves on.
"""

from __future__ import annotations

import collections
import importlib
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Iterable, Mapping

#: per-layer metric -> (end-to-end metric it should move, workloads).
LAYER_MAP: dict[str, tuple[str, str]] = {
    "import.repro_cli_s": ("setup_s", "all"),
    "import.repro_api_s": ("setup_s", "all"),
    "simulation.timing_run_self_s": ("latency_p50_s, jobs_per_s", "cold_sweep, serve_mixed"),
    "simulation.engine_pass_s": ("latency_p50_s, jobs_per_s", "cold_sweep, serve_mixed"),
    "simulation.engine_passes": ("latency_p50_s, jobs_per_s", "cold_sweep, serve_mixed"),
    "simulation.ns_per_vector_triad": ("latency_p50_s, jobs_per_s", "cold_sweep, serve_mixed"),
    "sweep.self_s": ("latency_p50_s", "cold_sweep"),
    "sweep.extract_s": ("latency_p50_s", "cold_sweep"),
    "sweep.encode_s": ("latency_p50_s", "cold_sweep"),
    "sweep.units_requested": ("latency_p50_s", "cold_sweep"),
    "sweep.units_simulated": ("latency_p50_s", "cold_sweep"),
    "sweep.decode_s": ("latency_p50_s, jobs_per_s", "warm_replay"),
    "analysis.aggregate_s": ("latency_p50_s, jobs_per_s", "warm_replay"),
    "explore.search_s": ("latency_p50_s, jobs_per_s", "warm_replay"),
    "explore.evaluations": ("latency_p50_s, jobs_per_s", "warm_replay"),
    "api.result_encode_s": ("latency_p50_s, jobs_per_s", "warm_replay"),
    "api.session_self_s": ("latency_p50_s", "all"),
    "store.open_s": ("setup_s", "warm_replay"),
    "store.lookup_s": ("latency_p50_s, jobs_per_s", "warm_replay"),
    "store.lookup_keys": ("latency_p50_s, jobs_per_s", "warm_replay"),
    "store.hit_ratio": ("latency_p50_s, jobs_per_s", "warm_replay"),
    "store.flush_s": ("latency_p50_s", "cold_sweep, serve_mixed"),
    "store.bytes_written": ("latency_p50_s", "cold_sweep, serve_mixed"),
    "variation.montecarlo_sweep_s": ("latency_p90_s", "cold_sweep"),
    "resilience.run_shards_s": ("jobs_per_s, latency_p90_s, cpu_per_job_s", "serve_mixed"),
    "resilience.shards": ("jobs_per_s, latency_p90_s, cpu_per_job_s", "serve_mixed"),
    "resilience.retries": ("jobs_per_s, latency_p90_s, cpu_per_job_s", "serve_mixed"),
    "resilience.serial_fallbacks": ("jobs_per_s, latency_p90_s, cpu_per_job_s", "serve_mixed"),
    "resilience.worker_busy_frac": ("jobs_per_s, latency_p90_s, cpu_per_job_s", "serve_mixed"),
    "shm.publish_s": ("jobs_per_s, latency_p90_s, cpu_per_job_s", "serve_mixed"),
    "shm.attach_s": ("jobs_per_s, latency_p90_s, cpu_per_job_s", "serve_mixed"),
    "shm.bytes": ("jobs_per_s, latency_p90_s, cpu_per_job_s", "serve_mixed"),
    "serve.admit_s": ("latency_p50_s, latency_p90_s", "serve_mixed"),
    "serve.queue_wait_s": ("latency_p50_s, latency_p90_s", "serve_mixed"),
    "serve.window_jobs": ("latency_p50_s, latency_p90_s", "serve_mixed"),
    "serve.dedup_ratio": ("latency_p50_s, latency_p90_s", "serve_mixed"),
    "serve.hot_hit_ratio": ("latency_p50_s, latency_p90_s", "serve_mixed"),
    "serve.rejected": ("latency_p50_s, latency_p90_s", "serve_mixed"),
    "obs.trace_overhead_ratio": ("(guards the measurement)", "all"),
    "unattributed_frac": ("(guards the measurement)", "all"),
}

#: Shimmed functions: (layer, module, qualified name).  A layer's self
#: time is reported as ``<layer>_s`` (``simulation.timing_run`` as
#: ``simulation.timing_run_self_s``).
SHIMS: tuple[tuple[str, str, str], ...] = (
    ("api.session", "repro.api.session", "Session.run"),
    ("api.session", "repro.api.session", "Session.run_batch"),
    ("analysis.aggregate", "repro.core.characterization", "CharacterizationFlow.run"),
    ("analysis.aggregate", "repro.analysis.figures", "fig5_ber_per_bit"),
    ("analysis.aggregate", "repro.core.energy", "summarize_by_ber_range"),
    ("analysis.aggregate", "repro.analysis.faults", "summarize_fault_results"),
    ("explore.search", "repro.explore.search", "run_search"),
    ("explore.search", "repro.explore.evaluator", "CandidateEvaluator.evaluate"),
    ("variation.montecarlo_sweep", "repro.variation.montecarlo", "run_montecarlo_sweep"),
    ("sweep", "repro.core.sweep", "run_characterization_sweep"),
    ("sweep", "repro.core.sweep", "run_fault_sweep"),
    ("sweep.extract", "repro.simulation.testbench", "measurement_from_result"),
    ("sweep.encode", "repro.core.sweep", "measurement_to_payload"),
    ("sweep.decode", "repro.core.sweep", "payload_to_measurement"),
    ("simulation.timing_run", "repro.simulation.timing_sim", "VosTimingSimulator.run"),
    ("simulation.timing_run", "repro.simulation.timing_sim", "VosTimingSimulator.run_variation_sweep"),
    ("simulation.engine_pass", "repro.simulation.engine", "CompiledNetlistPlan.arrival_pass"),
    ("simulation.engine_pass", "repro.simulation.engine", "CompiledNetlistPlan.batched_arrival_pass"),
    ("store.open", "repro.core.store", "SweepResultStore._ensure_loaded"),
    ("store.lookup", "repro.core.store", "MemoryOverlayStore.get_many"),
    ("store.lookup", "repro.core.store", "SweepResultStore.get_many"),
    ("store.flush", "repro.core.store", "MemoryOverlayStore.put"),
    ("store.flush", "repro.core.store", "SweepResultStore.put"),
    ("resilience.run_shards", "repro.core.resilience", "run_shards"),
)


class Profiler:
    """Self-time accumulator behind the shims (per-thread call stacks)."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = collections.defaultdict(float)
        self.counts: dict[str, float] = collections.defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def reset(self) -> None:
        """Start from zero (also makes a forked child's copy usable)."""
        self.self_s.clear()
        self.counts.clear()
        self._local = threading.local()
        self._lock = threading.Lock()

    def timed(self, layer: str, body: Callable[[], Any]) -> Any:
        """Run ``body`` charged to ``layer``; nested shims are subtracted."""
        stack = self._stack()
        stack.append(0.0)
        start = time.perf_counter()
        try:
            return body()
        finally:
            elapsed = time.perf_counter() - start
            child = stack.pop()
            if stack:
                stack[-1] += elapsed
            with self._lock:
                self.self_s[layer] += elapsed - child

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    def wrap(self, layer: str, function: Callable[..., Any], qualname: str) -> Callable[..., Any]:
        counter = _COUNTERS.get(qualname)

        def shim(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            result = self.timed(layer, lambda: function(*args, **kwargs))
            self.count(f"{qualname}.calls", 1)
            if counter is not None:
                counter(self, args, kwargs, result, time.perf_counter() - start)
            return result

        shim.__wrapped__ = function  # type: ignore[attr-defined]
        return shim

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {"self_s": dict(self.self_s), "counts": dict(self.counts)}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)


def _count_timing_run(profiler: Profiler, args: tuple, kwargs: dict, result: Any, elapsed: float) -> None:
    inputs = args[1] if len(args) > 1 else kwargs["inputs"]
    vectors = len(next(iter(inputs.values()))) if inputs else 0
    profiler.count("simulation.vector_triads", vectors)
    profiler.count("simulation.timing_run_inclusive_s", elapsed)


def _count_lookup(profiler: Profiler, args: tuple, kwargs: dict, result: Any, elapsed: float) -> None:
    keys = args[1] if len(args) > 1 else kwargs["keys"]
    profiler.count("store.lookup_keys", len(keys))
    profiler.count("store.lookup_hits", len(result))


_COUNTERS: dict[str, Callable[..., None]] = {
    "VosTimingSimulator.run": _count_timing_run,
    "MemoryOverlayStore.get_many": _count_lookup,
}


def install(profiler: Profiler) -> None:
    """Wrap every function of :data:`SHIMS` in a timing shim.

    Module-level functions are also replaced wherever another ``repro``
    module imported them by name, so the shim sees every call.
    """
    for layer, module_name, qualname in SHIMS:
        module = importlib.import_module(module_name)
        owner: Any = module
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        shim = profiler.wrap(layer, original, qualname)
        setattr(owner, attr, shim)
        if path:
            continue
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("repro.") and getattr(other, attr, None) is original:
                setattr(other, attr, shim)


def dump_in_forked_children(profiler: Profiler, directory: str) -> None:
    """Make every forked worker dump its own shim totals when it exits.

    Worker processes end through :mod:`multiprocessing`'s exit hook, which
    runs registered finalizers, so the totals survive ``os._exit``.  The
    finalizer is registered from an after-fork hook of :mod:`multiprocessing`
    because a new process clears the finalizers it inherits.
    """
    from multiprocessing import util

    def after_fork(profiler: Profiler) -> None:
        profiler.reset()
        path = os.path.join(directory, f"layers-{os.getpid()}.json")
        util.Finalize(None, profiler.dump, args=(path,), exitpriority=100)

    util.register_after_fork(profiler, after_fork)


def merge(snapshots: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Sum shim snapshots of several processes."""
    self_s: dict[str, float] = collections.defaultdict(float)
    counts: dict[str, float] = collections.defaultdict(float)
    for snapshot in snapshots:
        for name, value in snapshot.get("self_s", {}).items():
            self_s[name] += value
        for name, value in snapshot.get("counts", {}).items():
            counts[name] += value
    return {"self_s": dict(self_s), "counts": dict(counts)}


def load_trace(path: str) -> list[dict[str, Any]]:
    """The program's span records (an absent file is an empty trace)."""
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def trace_counts(records: Iterable[Mapping[str, Any]]) -> dict[str, float]:
    """Layer totals read from the program's own spans."""
    totals: dict[str, float] = collections.defaultdict(float)
    for record in records:
        name = record["name"]
        attrs = record.get("attrs", {})
        wall = float(record["wall_s"])
        if name == "sweep":
            totals["sweep.units_requested"] += attrs.get("units", 0)
        elif name == "shm.publish":
            totals["shm.publish_s"] += wall
            totals["shm.bytes"] += attrs.get("bytes", 0)
        elif name == "shm.attach":
            totals["shm.attach_s"] += wall
        elif name == "serve.admit":
            totals["serve.admit_s"] += wall
        elif name == "dispatch":
            totals["resilience.shards_from_trace"] += attrs.get("shards", 0)
            totals["resilience.worker_capacity_s"] += wall * attrs.get("workers", 1)
        elif name == "sweep.shard":
            totals["resilience.worker_busy_s"] += wall
    return dict(totals)


#: Time layers: metric name -> shim layer.
TIME_LAYERS = {
    "api.session_self_s": "api.session",
    "analysis.aggregate_s": "analysis.aggregate",
    "explore.search_s": "explore.search",
    "variation.montecarlo_sweep_s": "variation.montecarlo_sweep",
    "sweep.self_s": "sweep",
    "sweep.extract_s": "sweep.extract",
    "sweep.encode_s": "sweep.encode",
    "sweep.decode_s": "sweep.decode",
    "simulation.timing_run_self_s": "simulation.timing_run",
    "simulation.engine_pass_s": "simulation.engine_pass",
    "store.open_s": "store.open",
    "store.lookup_s": "store.lookup",
    "store.flush_s": "store.flush",
    "resilience.run_shards_s": "resilience.run_shards",
    "api.result_encode_s": "api.result_encode",
}


def layer_metrics(
    main: Mapping[str, Any],
    workers: Mapping[str, Any],
    trace: Mapping[str, float],
    extra: Mapping[str, float],
) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``main`` holds the shim totals of the process that owns the timed wall
    (the session process, or the server), ``workers`` those of its forked
    workers, ``trace`` the program-span totals and ``extra`` what the
    benchmark measured itself (import times, store bytes, serve counters,
    wall times).
    """
    total = merge([main, workers])
    self_s, counts = total["self_s"], total["counts"]
    metrics = {name: self_s.get(layer, 0.0) for name, layer in TIME_LAYERS.items()}
    sim_inclusive = counts.get("simulation.timing_run_inclusive_s", 0.0)
    vector_triads = counts.get("simulation.vector_triads", 0.0)
    lookup_keys = counts.get("store.lookup_keys", 0.0)
    capacity = trace.get("resilience.worker_capacity_s", 0.0)
    metrics.update(
        {
            "simulation.engine_passes": counts.get("CompiledNetlistPlan.arrival_pass.calls", 0.0)
            + counts.get("CompiledNetlistPlan.batched_arrival_pass.calls", 0.0),
            "simulation.ns_per_vector_triad": (
                sim_inclusive * 1e9 / vector_triads if vector_triads else 0.0
            ),
            "sweep.units_requested": trace.get("sweep.units_requested", 0.0),
            "explore.evaluations": counts.get("CandidateEvaluator.evaluate.calls", 0.0),
            "store.lookup_keys": lookup_keys,
            "store.hit_ratio": (
                counts.get("store.lookup_hits", 0.0) / lookup_keys if lookup_keys else 0.0
            ),
            "resilience.shards": trace.get("resilience.shards_from_trace", 0.0),
            "resilience.worker_busy_frac": (
                trace.get("resilience.worker_busy_s", 0.0) / capacity if capacity else 0.0
            ),
            "shm.publish_s": trace.get("shm.publish_s", 0.0),
            "shm.attach_s": trace.get("shm.attach_s", 0.0),
            "shm.bytes": trace.get("shm.bytes", 0.0),
            "serve.admit_s": trace.get("serve.admit_s", 0.0),
        }
    )
    metrics.update(extra)
    wall = extra["traced_wall_s"]
    attributed = sum(main["self_s"].values()) + trace.get("serve.admit_s", 0.0)
    metrics["unattributed_frac"] = max(0.0, 1.0 - attributed / wall) if wall > 0 else 1.0
    return metrics


def self_time_table(main: Mapping[str, Any], workers: Mapping[str, Any], wall: float) -> str:
    """Per-layer self-time table with an explicit ``unattributed`` row."""
    rows = sorted(main["self_s"].items(), key=lambda item: -item[1])
    lines = [f"  {'layer':<28} {'self s':>9} {'share':>7}"]
    for layer, seconds in rows:
        lines.append(f"  {layer:<28} {seconds:9.3f} {seconds / wall:7.1%}")
    unattributed = max(0.0, wall - sum(main["self_s"].values()))
    lines.append(f"  {'unattributed':<28} {unattributed:9.3f} {unattributed / wall:7.1%}")
    for layer, seconds in sorted(workers.get("self_s", {}).items(), key=lambda item: -item[1]):
        lines.append(f"  {'worker ' + layer:<28} {seconds:9.3f} {'(off the wall)':>7}")
    return "\n".join(lines)
