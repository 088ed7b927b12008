"""Aggregation, fail accounting and result checks of the benchmark.

Pure functions over plain data, so the benchmark's own tests can exercise
them without running the program.
"""

from __future__ import annotations

import json
import re
import statistics
from typing import Any, Iterable, Mapping

from workloads import MIN_P90_SAMPLES

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than its rule allows."""


def percentile(values: Iterable[float], q: int) -> float:
    """The ``q``-th percentile, refusing samples too small for it.

    Uses the exclusive method of :func:`statistics.quantiles`, the same the
    run-to-run spread check uses.
    """
    data = sorted(values)
    needed = MIN_P90_SAMPLES if q >= 90 else 1
    if len(data) < needed:
        raise TooFewSamples(f"p{q} needs at least {needed} samples, got {len(data)}")
    if len(data) == 1:
        return data[0]
    return statistics.quantiles(data, n=100, method="exclusive")[q - 1]


def is_failure(record: Mapping[str, Any], reference: Mapping[str, str]) -> str | None:
    """Why a job record is not a verified result, or ``None`` when it is.

    Covers HTTP errors (429/503 and every other 4xx/5xx), jobs that ended
    ``failed``, exceptions, a missing reference and digest mismatches.
    """
    if "error" in record:
        return str(record["error"])
    expected = reference.get(record["key"])
    if expected is None:
        return "no reference result"
    if expected != record["digest"]:
        return f"digest mismatch (reference {expected[:12]}, got {record['digest'][:12]})"
    return None


def account(records: list[Mapping[str, Any]], reference: Mapping[str, str]) -> dict[str, Any]:
    """Attempted/failed counts and the verified latencies of a run."""
    failures = []
    latencies = []
    for record in records:
        reason = is_failure(record, reference)
        if reason is None:
            latencies.append(float(record["latency_s"]))
        else:
            failures.append(reason)
    return {
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures,
        "latencies": latencies,
    }


def end_to_end(
    accounting: Mapping[str, Any],
    blocks: list[Mapping[str, float]],
    peak_rss_mb: float,
    setup_samples: list[float],
) -> dict[str, float]:
    """The end-to-end metrics of one run.

    Throughput and CPU per job are medians over the run's blocks (each a
    whole copy of the workload's mix), so a burst of outside load during
    one block does not move them.  A run with failures reports them in
    ``fail_frac``; its throughput still counts attempted jobs.
    """
    latencies = accounting["latencies"]
    attempted = accounting["attempted"]
    return {
        "latency_p50_s": percentile(latencies, 50),
        "latency_p90_s": percentile(latencies, 90),
        "jobs_per_s": statistics.median(b["jobs"] / b["wall_s"] for b in blocks),
        "cpu_per_job_s": statistics.median(b["cpu_s"] / b["jobs"] for b in blocks),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_samples),
        "fail_frac": accounting["failed"] / attempted if attempted else 1.0,
    }


def validate_benchmark(document: Mapping[str, Any]) -> list[str]:
    """Problems of a ``BENCHMARK.json`` document against its contract."""
    problems: list[str] = []
    expected = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(document) != expected:
        problems.append(f"keys must be exactly {sorted(expected)}")
        return problems
    command = document["command"]
    if not (isinstance(command, list) and 1 <= len(command) <= 32):
        problems.append("command must be a list of 1 to 32 strings")
    elif any(not isinstance(part, str) or len(part) > 200 for part in command):
        problems.append("command entries must be strings of at most 200 characters")
    elif any(part.startswith("/") or ".." in part.split("/") for part in command):
        problems.append("command must not name absolute paths or leave the repo")
    paths = document["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        problems.append("paths must list 1 to 16 directories")
    else:
        for path in paths:
            if not isinstance(path, str) or not PATH.match(path) or ".." in path.split("/"):
                problems.append(f"bad path {path!r}")
    seconds = document["run_seconds"]
    if not (isinstance(seconds, int) and not isinstance(seconds, bool) and 1 <= seconds <= 60):
        problems.append("run_seconds must be a whole number from 1 to 60")
    names: set[str] = set()

    def check_name(name: Any) -> None:
        if not isinstance(name, str) or not NAME.match(name):
            problems.append(f"bad name {name!r}")
        elif name in names:
            problems.append(f"name {name!r} used twice")
        else:
            names.add(name)

    workloads = document["workloads"]
    if not (isinstance(workloads, list) and 2 <= len(workloads) <= 8):
        problems.append("workloads must hold 2 to 8 entries")
    else:
        for workload in workloads:
            if set(workload) != {"name", "why"}:
                problems.append(f"workload keys must be name and why: {workload}")
                continue
            check_name(workload["name"])
            why = workload["why"]
            if not isinstance(why, str) or "\n" in why or not 0 < len(why) <= 200:
                problems.append(f"bad why of {workload['name']!r}")
    for section, keys, limit in (
        ("end_to_end", {"name", "unit", "better", "bound"}, 16),
        ("per_layer", {"name", "unit", "better"}, 128),
    ):
        metrics = document[section]
        if not (isinstance(metrics, list) and 1 <= len(metrics) <= limit):
            problems.append(f"{section} must hold 1 to {limit} metrics")
            continue
        for metric in metrics:
            if set(metric) != keys:
                problems.append(f"{section} metric keys must be {sorted(keys)}: {metric}")
                continue
            check_name(metric["name"])
            if not isinstance(metric["unit"], str) or not UNIT.match(metric["unit"]):
                problems.append(f"bad unit of {metric['name']!r}")
            if metric["better"] not in ("higher", "lower"):
                problems.append(f"better of {metric['name']!r} must be higher or lower")
            if section == "end_to_end":
                bound = metric["bound"]
                if not (isinstance(bound, (int, float)) and 0 < bound <= 0.25):
                    problems.append(f"bound of {metric['name']!r} must lie in (0, 0.25]")
    setup = [m for m in document["end_to_end"] if isinstance(m, dict) and m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        problems.append("end_to_end needs setup_s in s, lower is better")
    elif any(setup[0]["bound"] < m.get("bound", 0) for m in document["end_to_end"]):
        problems.append("setup_s must carry the largest bound")
    if len(json.dumps(document).encode("utf-8")) > 64 * 1024:
        problems.append("the document exceeds 64 KiB")
    return problems
