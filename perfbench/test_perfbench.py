"""Tests of the benchmark's own code (not of the program it measures).

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


@pytest.fixture(scope="module")
def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_validates(declared: dict) -> None:
    assert stats.validate_benchmark(declared) == []


def test_validator_rejects_broken_documents(declared: dict) -> None:
    broken = json.loads(json.dumps(declared))
    broken["end_to_end"][0]["bound"] = 0.5
    broken["per_layer"].append(dict(broken["per_layer"][0]))
    broken["workloads"][0]["name"] = "bad name"
    problems = stats.validate_benchmark(broken)
    assert any("bound" in p for p in problems)
    assert any("used twice" in p for p in problems)
    assert any("bad name" in p for p in problems)
    assert stats.validate_benchmark({"command": []}) != []


def test_names_are_well_formed_and_mapped(declared: dict) -> None:
    names = [w["name"] for w in declared["workloads"]]
    names += [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert all(NAME.match(name) for name in names)
    assert names == list(dict.fromkeys(names))
    assert [m["name"] for m in declared["per_layer"]] == list(layers.LAYER_MAP)
    assert [w["name"] for w in declared["workloads"]] == ["cold_sweep", "warm_replay", "serve_mixed"]


def test_p90_refuses_fewer_than_100_samples() -> None:
    with pytest.raises(stats.TooFewSamples):
        stats.percentile([0.1] * 99, 90)
    values = [float(i) for i in range(1, 101)]
    assert stats.percentile(values, 90) == pytest.approx(90.9)
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0


def _record(key: str, **fields: object) -> dict:
    return {"key": key, "latency_s": 0.5, "digest": "d-" + key, **fields}


def test_fail_accounting_covers_every_failure_kind() -> None:
    reference = {k: "d-" + k for k in ("a", "b", "c", "d", "e", "f")}
    records = [
        _record("a"),
        {"key": "b", "error": "HTTP 429", "status_code": 429},
        {"key": "c", "error": "HTTP 503", "status_code": 503},
        {"key": "d", "error": "job failed: sweep execution failed"},
        _record("e", digest="corrupted"),
        _record("g"),  # no reference result
    ]
    accounting = stats.account(records, reference)
    assert accounting["attempted"] == 6
    assert accounting["failed"] == 5
    assert accounting["latencies"] == [0.5]
    reasons = " ".join(accounting["failures"])
    for expected in ("429", "503", "failed", "digest mismatch", "no reference"):
        assert expected in reasons
    blocks = [{"jobs": 10, "wall_s": w, "cpu_s": 2 * w} for w in (1.0, 2.0, 9.0)]
    metrics = stats.end_to_end(
        {**accounting, "latencies": [0.5] * 100}, blocks, 100.0, [1.0, 3.0, 2.0]
    )
    assert metrics["setup_s"] == 2.0
    assert metrics["jobs_per_s"] == 5.0 and metrics["cpu_per_job_s"] == 0.4
    assert metrics["fail_frac"] == pytest.approx(5 / 6)


def test_same_seed_gives_identical_job_lists() -> None:
    assert workloads.cold_jobs(7, 3) == workloads.cold_jobs(7, 3)
    assert workloads.cold_jobs(7, 3) != workloads.cold_jobs(8, 3)
    assert workloads.warm_set(7) == workloads.warm_set(7)
    passes = [workloads.warm_passes(7, workloads.warm_set(7)) for _ in range(2)]
    assert [next(passes[0]) for _ in range(5)] == [next(passes[1]) for _ in range(5)]
    rounds = [workloads.serve_rounds(7) for _ in range(2)]
    assert [next(rounds[0]) for _ in range(20)] == [next(rounds[1]) for _ in range(20)]


def test_cold_blocks_keep_their_composition_and_never_repeat_a_job() -> None:
    jobs = workloads.cold_jobs(3, 5)
    block = len(workloads.COLD_BLOCK)
    assert len(jobs) == 5 * block >= workloads.MIN_P90_SAMPLES
    keys = [workloads.canonical(job) for job in jobs]
    assert len(set(keys)) == len(keys)
    for start in range(0, len(jobs), block):
        kinds = sorted(
            (job["type"], job.get("operator", ""), job.get("pattern", {}).get("vectors", job.get("vectors")))
            for job in jobs[start : start + block]
        )
        expected = sorted(
            (kind, op, vectors) for kind, op, vectors in workloads.COLD_BLOCK
        )
        assert kinds == expected


def test_generated_jobs_are_valid_program_jobs() -> None:
    api = pytest.importorskip("repro.api")
    stream = workloads.serve_rounds(1)
    serve_jobs = [job for _ in range(6) for r in [next(stream)] for job in [*r["private"], r["shared"]]]
    for doc in workloads.cold_jobs(1, 1) + workloads.warm_set(1) + serve_jobs:
        api.job_from_json(doc)


def test_profiler_charges_self_time() -> None:
    profiler = layers.Profiler()
    inner = profiler.wrap("inner", lambda: sum(range(20000)), "inner")
    outer = profiler.wrap("outer", lambda: inner() + inner(), "outer")
    outer()
    snapshot = profiler.snapshot()
    assert snapshot["counts"] == {"inner.calls": 2, "outer.calls": 1}
    assert snapshot["self_s"]["inner"] > 0 and snapshot["self_s"]["outer"] >= 0
    merged = layers.merge([snapshot, snapshot])
    assert merged["counts"]["inner.calls"] == 4


def test_exits_nonzero_without_the_program(tmp_path: os.PathLike) -> None:
    shutil.copytree(HERE, os.path.join(tmp_path, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout.strip() == ""
