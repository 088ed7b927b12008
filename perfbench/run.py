"""The repository benchmark: three workloads against the public entry points.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_sweep --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for the one-line rationale of each):

``cold_sweep``   one process, one serial closed-loop caller of
                 ``Session.run`` on an empty store.
``warm_replay``  one process, serial replay passes over a pre-filled store,
                 a fresh ``Session`` per pass; zero units may be simulated.
``serve_mixed``  ``repro serve --jobs 2`` driven over loopback HTTP by two
                 closed-loop clients (``serveload.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` repeats the timed
phase over the same jobs with the layer shims and the program's tracing
on, and prints the per-layer metrics plus a self-time table.  Every result
is hashed without its ``"run"`` key and compared with a serial, store-less
reference run of the same job; any failure or mismatch makes the exit code
non-zero.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import serveload  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

#: Set-up is measured this many times per run (fresh interpreters); the
#: median is reported.
SETUP_SAMPLES = 5

#: Pre-generated job-list lengths (a run stops long before the end).
COLD_BLOCKS = 40
WARM_PASSES = 2000
SERVE_ROUNDS = 400

#: Warm-up job of the in-process set-up: the paper's stimulus size on the
#: smallest adder, so the first-20k-vector cost lands in set-up.
COLD_WARMUP = {
    "type": "characterize",
    "operator": "rca8",
    "pattern": {"kind": "uniform", "vectors": workloads.PAPER_VECTORS, "seed": 0},
}
SERVE_WARMUP = {
    "type": "characterize",
    "operator": "rca8",
    "pattern": {"kind": "uniform", "vectors": 1000, "seed": 0},
}

WORKLOADS = ("cold_sweep", "warm_replay", "serve_mixed")


class BenchmarkError(RuntimeError):
    """The benchmark could not run (not a program result)."""


class Run:
    """Scratch space and child processes of one benchmark invocation."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        base = os.path.join(ROOT, ".perfbench_tmp")
        os.makedirs(base, exist_ok=True)
        self.tmp = os.path.join(base, f"{workload}-{seed}-{os.getpid()}")
        os.makedirs(self.tmp)
        self._count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC
        self.env["REPRO_CACHE_DIR"] = self.path("default-store")
        self.env.pop("REPRO_CHAOS", None)
        # One string-hash layout for every run: hash randomisation alone
        # moves the warm replay's per-job times by several percent.
        self.env["PYTHONHASHSEED"] = "0"
        # Reference processes run two at a time, one per core.
        self.reference_env = dict(self.env, OPENBLAS_NUM_THREADS="1")

    def path(self, name: str) -> str:
        return os.path.join(self.tmp, name)

    def fresh(self, prefix: str) -> str:
        self._count += 1
        return self.path(f"{prefix}-{self._count}")

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.tmp))
        except OSError:
            pass

    def start_worker(
        self, spec: dict[str, Any], env: dict[str, str] | None = None
    ) -> tuple[subprocess.Popen, str, Any]:
        name = self.fresh(spec["role"])
        spec = dict(spec, out=name + ".out.json")
        with open(name + ".spec.json", "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        stderr = open(name + ".err", "w", encoding="utf-8")
        process = subprocess.Popen(
            [sys.executable, WORKER, name + ".spec.json", repr(time.time())],
            env=env or self.env,
            stdout=subprocess.DEVNULL,
            stderr=stderr,
        )
        return process, spec["out"], stderr

    def finish_worker(self, started: tuple[subprocess.Popen, str, Any]) -> dict[str, Any]:
        process, out, stderr = started
        code = process.wait()
        stderr.close()
        if code != 0:
            with open(stderr.name, encoding="utf-8") as handle:
                tail = handle.read()[-2000:]
            raise BenchmarkError(f"worker {os.path.basename(out)} exited {code}:\n{tail}")
        with open(out, encoding="utf-8") as handle:
            return json.load(handle)

    def worker(self, spec: dict[str, Any]) -> dict[str, Any]:
        return self.finish_worker(self.start_worker(spec))

    def parallel(self, specs: list[dict[str, Any]]) -> list[dict[str, Any]]:
        """Run workers side by side (untimed phases only), one per core."""
        started = [
            self.start_worker(spec, self.reference_env if spec["role"] == "reference" else None)
            for spec in specs
        ]
        return [self.finish_worker(entry) for entry in started]

    def reference(self, jobs: dict[str, dict[str, Any]]) -> dict[str, str]:
        """Serial, store-less digests of ``jobs`` (key -> document), split
        over two reference processes."""
        keys = sorted(jobs)
        halves = [keys[0::2], keys[1::2]]
        results = self.parallel(
            [{"role": "reference", "jobs": {k: jobs[k] for k in half}} for half in halves if half]
        )
        digests: dict[str, str] = {}
        for result in results:
            digests.update(result["digests"])
        return digests

    def serve_argv(self, store: str, trace: str | None = None) -> list[str]:
        argv = ["serve", "--port", "0", "--jobs", "2", "--cache-dir", store]
        if trace is None:
            return [sys.executable, "-m", "repro.cli", *argv]
        layers_dir = self.fresh("layers")
        os.makedirs(layers_dir)
        spec_path = self.fresh("serve") + ".spec.json"
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(
                {"role": "serve", "argv": [*argv, "--trace", trace], "layers_dir": layers_dir},
                handle,
            )
        return [sys.executable, WORKER, spec_path, repr(time.time())]


# ---------------------------------------------------------------------------
# In-process workloads


def _session_spec(run: Run, jobs: list[dict], sequence: list[int], block: int, **extra: Any) -> dict[str, Any]:
    return {
        "role": "session",
        "jobs": jobs,
        "sequence": sequence,
        "block": block,
        "seconds": run.seconds,
        "min_samples": workloads.MIN_P90_SAMPLES,
        **extra,
    }


def _keyed(records: list[dict[str, Any]], jobs: list[dict[str, Any]]) -> list[dict[str, Any]]:
    keys = [workloads.canonical(job) for job in jobs]
    return [dict(record, key=keys[record["job"]]) for record in records]


def _setup_samples(run: Run, spec: dict[str, Any], stores: list[str]) -> list[float]:
    return [run.worker(dict(spec, role="setup", store=store))["setup_s"] for store in stores]


def run_cold(run: Run, traced: bool) -> dict[str, Any]:
    jobs = workloads.cold_jobs(run.seed, COLD_BLOCKS)
    block = len(workloads.COLD_BLOCK)
    setup = _setup_samples(
        run, {"warmup": COLD_WARMUP}, [run.fresh("store") for _ in range(SETUP_SAMPLES - 1)]
    )
    spec = _session_spec(run, jobs, list(range(len(jobs))), block, warmup=COLD_WARMUP)
    timed = run.worker(dict(spec, store=run.fresh("store")))
    setup.append(timed["setup_s"])
    records = _keyed(timed["records"], jobs)
    outcome = {"timed": timed, "records": records, "setup": setup}
    if traced:
        store = run.fresh("store")
        outcome["traced"] = run.worker(
            dict(
                spec,
                store=store,
                max_jobs=len(records),
                trace=True,
                trace_path=run.path("trace.jsonl"),
            )
        )
        outcome["traced"]["records"] = _keyed(outcome["traced"]["records"], jobs)
        outcome["store_bytes"] = _dir_bytes(store)
    done = {r["key"]: jobs[r["job"]] for r in records if "digest" in r}
    outcome["reference"] = run.reference(done)
    return outcome


def run_warm(run: Run, traced: bool) -> dict[str, Any]:
    jobs = workloads.warm_set(run.seed)
    store = run.fresh("store")
    keyed = {workloads.canonical(job): job for job in jobs}
    prefill, reference = run.parallel(
        [
            {"role": "prefill", "store": store, "jobs": keyed},
            {"role": "reference", "jobs": keyed},
        ]
    )
    prefill_mismatch = [
        key for key, digest in prefill["digests"].items() if reference["digests"][key] != digest
    ]
    passes = workloads.warm_passes(run.seed, jobs)
    sequence = [index for _ in range(WARM_PASSES) for index in next(passes)]
    warmup = jobs[0]
    setup = _setup_samples(run, {"warmup": warmup}, [store] * (SETUP_SAMPLES - 1))
    spec = _session_spec(
        run, jobs, sequence, len(jobs), warmup=warmup, store=store, fresh_session_per_block=True
    )
    timed = run.worker(spec)
    setup.append(timed["setup_s"])
    records = _keyed(timed["records"], jobs)
    outcome = {
        "timed": timed,
        "records": records,
        "setup": setup,
        "reference": reference["digests"],
        "prefill_mismatch": prefill_mismatch,
    }
    if traced:
        outcome["traced"] = run.worker(
            dict(spec, max_jobs=len(records), trace=True, trace_path=run.path("trace.jsonl"))
        )
        outcome["traced"]["records"] = _keyed(outcome["traced"]["records"], jobs)
        outcome["store_bytes"] = 0
    return outcome


# ---------------------------------------------------------------------------
# serve_mixed


def _serve_setup_sample(run: Run) -> float:
    stderr_path = run.fresh("serve-setup") + ".err"
    with open(stderr_path, "w", encoding="utf-8") as stderr:
        launch = time.time()
        server, port = serveload.start_server(
            run.serve_argv(run.fresh("store")), run.env, stderr
        )
        try:
            outcome = serveload.Client(port, "warmup").run(SERVE_WARMUP)
            elapsed = time.time() - launch
        finally:
            serveload.stop_server(server)
    if "error" in outcome:
        raise BenchmarkError(f"serve warm-up failed: {outcome['error']}")
    return elapsed


def _serveload(run: Run, spec: dict[str, Any]) -> dict[str, Any]:
    name = run.fresh("serveload")
    spec = dict(spec, out=name + ".out.json", stderr=name + ".server.err")
    with open(name + ".spec.json", "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    with open(name + ".err", "w", encoding="utf-8") as stderr:
        code = subprocess.run(
            [sys.executable, os.path.join(HERE, "serveload.py"), name + ".spec.json"],
            env=run.env,
            stdout=subprocess.DEVNULL,
            stderr=stderr,
        ).returncode
    if code != 0:
        with open(name + ".err", encoding="utf-8") as handle:
            raise BenchmarkError(f"serve load exited {code}:\n{handle.read()[-2000:]}")
    with open(spec["out"], encoding="utf-8") as handle:
        return json.load(handle)


def run_serve(run: Run, traced: bool) -> dict[str, Any]:
    stream = workloads.serve_rounds(run.seed)
    rounds = [next(stream) for _ in range(SERVE_ROUNDS)]
    setup = [_serve_setup_sample(run) for _ in range(SETUP_SAMPLES - 1)]
    spec = {
        "rounds": rounds,
        "block_rounds": workloads.SERVE_BLOCK_ROUNDS,
        "seconds": run.seconds,
        "min_samples": workloads.MIN_P90_SAMPLES,
        "warmup": SERVE_WARMUP,
    }
    store = run.fresh("store")
    timed = _serveload(run, dict(spec, argv=run.serve_argv(store)))
    setup.append(timed["setup_s"])
    records = timed["records"]
    for record in records:
        record["key"] = record["job"]
    outcome: dict[str, Any] = {"timed": timed, "records": records, "setup": setup}
    if traced:
        store = run.fresh("store")
        trace = run.path("trace.jsonl")
        argv = run.serve_argv(store, trace)
        traced_run = _serveload(run, dict(spec, argv=argv, max_rounds=timed["rounds"]))
        for record in traced_run["records"]:
            record["key"] = record["job"]
        outcome["traced"] = traced_run
        outcome["store_bytes"] = _dir_bytes(store)
        with open(argv[2], encoding="utf-8") as handle:
            outcome["layers_dir"] = json.load(handle)["layers_dir"]
    done = {r["key"]: json.loads(r["job"]) for r in records if "digest" in r}
    outcome["reference"] = run.reference(done)
    return outcome


# ---------------------------------------------------------------------------
# Reporting


def _dir_bytes(path: str) -> int:
    total = 0
    for directory, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(directory, name))
    return total


def _import_times(run: Run) -> dict[str, float]:
    """Median fresh-interpreter import time of the CLI and of the API."""
    out = {}
    for metric, statement in (
        ("import.repro_cli_s", "import repro.cli"),
        ("import.repro_api_s", "from repro.api import Session"),
    ):
        code = (
            "import time; t = time.perf_counter(); "
            f"{statement}; print(time.perf_counter() - t)"
        )
        samples = [
            float(
                subprocess.run(
                    [sys.executable, "-c", code], env=run.env, capture_output=True, text=True, check=True
                ).stdout
            )
            for _ in range(SETUP_SAMPLES)
        ]
        out[metric] = statistics.median(samples)
    return out


def _serve_counters(before: dict[str, Any], after: dict[str, Any], records: list[dict]) -> dict[str, float]:
    def delta(name: str) -> float:
        return float(after["metrics"].get(name, 0)) - float(before["metrics"].get(name, 0))

    submissions = len(records)
    planned = delta("batch.planned_units")
    batches = delta("serve.batches")
    waits = [r["queue_wait_s"] for r in records if "queue_wait_s" in r]
    return {
        "serve.queue_wait_s": statistics.median(waits) if waits else 0.0,
        "serve.window_jobs": delta("serve.batch_jobs") / batches if batches else 0.0,
        "serve.dedup_ratio": delta("batch.deduped_units") / planned if planned else 0.0,
        "serve.hot_hit_ratio": delta("serve.hot_hits") / submissions if submissions else 0.0,
        "serve.rejected": delta("serve.rejected") + delta("serve.rate_limited"),
        "sweep.units_simulated": delta("sweep.simulated_units"),
    }


def _execution_totals(records: list[dict[str, Any]]) -> dict[str, float]:
    retries = fallbacks = 0
    for record in records:
        execution = record.get("execution") or {}
        retries += execution.get("retries", 0)
        fallbacks += execution.get("serial_fallbacks", 0)
    return {"resilience.retries": retries, "resilience.serial_fallbacks": fallbacks}


def per_layer(run: Run, outcome: dict[str, Any]) -> tuple[dict[str, float], str]:
    traced = outcome["traced"]
    untraced_wall = outcome["timed"]["wall_s"]
    extra: dict[str, float] = dict(_import_times(run))
    extra["traced_wall_s"] = traced["wall_s"]
    extra["obs.trace_overhead_ratio"] = traced["wall_s"] / untraced_wall
    extra["store.bytes_written"] = outcome["store_bytes"]
    records = traced["records"]
    if run.workload == "serve_mixed":
        snapshots = []
        for path in glob.glob(os.path.join(outcome["layers_dir"], "layers-*.json")):
            with open(path, encoding="utf-8") as handle:
                snapshots.append((os.path.basename(path), json.load(handle)))
        main = next((s for name, s in snapshots if name == "layers-main.json"), {"self_s": {}, "counts": {}})
        workers = layers.merge(s for name, s in snapshots if name != "layers-main.json")
        extra.update(_serve_counters(traced["stats_before"], traced["stats_after"], records))
        # A hot hit carries the run report of the job it repeats.
        extra.update(_execution_totals([r for r in records if not r.get("hot")]))
    else:
        main, workers = traced["layers"], {"self_s": {}, "counts": {}}
        extra["sweep.units_simulated"] = float(sum(r.get("simulated_units", 0) for r in records))
        extra.update(_execution_totals(records))
    trace = layers.trace_counts(layers.load_trace(run.path("trace.jsonl")))
    metrics = layers.layer_metrics(main, workers, trace, extra)
    del metrics["traced_wall_s"]
    table = layers.self_time_table(main, workers, traced["wall_s"])
    return metrics, table


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, SRC).encode("utf-8"))
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def _git_sha() -> str:
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def environment(seed: int) -> dict[str, Any]:
    import numpy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "loadavg": os.getloadavg(),
    }


def _declared_metrics() -> dict[str, dict[str, Any]]:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        document = json.load(handle)
    problems = stats.validate_benchmark(document)
    if problems:
        raise BenchmarkError("BENCHMARK.json: " + "; ".join(problems))
    return {
        "end_to_end": {m["name"]: m for m in document["end_to_end"]},
        "per_layer": {m["name"]: m for m in document["per_layer"]},
    }


RUNNERS = {"cold_sweep": run_cold, "warm_replay": run_warm, "serve_mixed": run_serve}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    try:
        declared = _declared_metrics()
    except (OSError, ValueError, BenchmarkError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    print(f"# environment: {json.dumps(environment(args.seed))}")
    run = Run(args.workload, args.seed, args.seconds)
    try:
        outcome = RUNNERS[args.workload](run, bool(args.trace))
        accounting = stats.account(outcome["records"], outcome["reference"])
        failures = list(accounting["failures"])
        if args.workload == "warm_replay":
            simulated = sum(r.get("simulated_units", 0) for r in outcome["records"])
            if simulated:
                failures.append(f"warm replay simulated {simulated} units")
                accounting["failed"] += sum(1 for r in outcome["records"] if r.get("simulated_units"))
            failures += [f"pre-fill digest mismatch: {key}" for key in outcome["prefill_mismatch"]]
        if args.trace:
            traced = stats.account(outcome["traced"]["records"], outcome["reference"])
            failures += [f"traced run: {reason}" for reason in traced["failures"]]
        timed = outcome["timed"]
        try:
            e2e = stats.end_to_end(
                accounting, timed["blocks"], timed["peak_rss_mb"], outcome["setup"]
            )
        except stats.TooFewSamples as error:
            failures.append(str(error))
            e2e = {}
        print(
            f"# {args.workload}: {accounting['attempted']} jobs attempted, "
            f"{accounting['failed']} failed, wall {timed['wall_s']:.2f} s, "
            f"setup samples {[round(s, 4) for s in outcome['setup']]}"
        )
        for name, value in e2e.items():
            unit = declared["end_to_end"].get(name, {"unit": "ratio"})["unit"]
            print(f"{args.workload} {name} = {value:.6g} {unit}")
        section = "end_to_end"
        metrics = {name: e2e[name] for name in declared["end_to_end"] if name in e2e}
        if args.trace:
            section = "per_layer"
            metrics, table = per_layer(run, outcome)
            print(f"# {args.workload} layer self time (traced wall {outcome['traced']['wall_s']:.3f} s):")
            print(table)
            for name in declared["per_layer"]:
                mapped = layers.LAYER_MAP.get(name, ("", ""))
                print(
                    f"{args.workload} {name} = {metrics.get(name, 0.0):.6g} "
                    f"{declared['per_layer'][name]['unit']}  -> {mapped[0]} on {mapped[1]}"
                )
    except (RuntimeError, OSError, subprocess.SubprocessError) as error:
        print(f"perfbench: {type(error).__name__}: {error}", file=sys.stderr)
        return 3
    finally:
        run.close()
    for reason in failures[:20]:
        print(f"# FAIL {reason}")
    correct = not failures
    result = {
        "correct": correct,
        "attempted": accounting["attempted"],
        "failed": accounting["failed"],
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": declared[section][name]["unit"]}
            for name in declared[section]
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
