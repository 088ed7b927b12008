"""Program-side processes of the benchmark, each a fresh interpreter.

Usage: ``python perfbench/worker.py SPEC.json LAUNCH_EPOCH_S``.  ``SPEC``
names the role and its inputs; the result is written as JSON to
``spec["out"]``.  ``LAUNCH_EPOCH_S`` is the wall-clock time at which the
parent started this interpreter, so set-up time includes interpreter start
and imports.

Roles:

``setup``      import, open the session and its store, run the warm-up job.
``session``    ``setup``, then the timed phase: jobs in whole blocks until
               both ``seconds`` and ``min_samples`` are reached (or exactly
               ``max_jobs`` jobs); with ``trace`` the layer shims and the
               program's own tracing are on.
``prefill``    run jobs against a store, untimed (warm-store preparation).
``reference``  run jobs serially with no store; report result digests.
``serve``      run ``repro serve`` with the layer shims installed (traced
               serve runs only); forked workers dump their own totals.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from typing import Any

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402  (benchmark-local module)


def result_digest(result: Any) -> tuple[str, dict[str, Any]]:
    """Digest of a typed result's JSON document without its ``"run"`` key.

    The served document is ``json.dumps(doc, sort_keys=True)`` of the same
    dict, so in-process and served results hash identically.
    """
    document = result.to_json()
    run = document.pop("run", None) or {}
    text = json.dumps(document, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), run


def _job(doc: dict[str, Any]) -> Any:
    from repro.api import job_from_json

    return job_from_json(doc)


def _open_session(spec: dict[str, Any]) -> Any:
    from repro.api import Session

    return Session(store=spec.get("store"))


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _cpu_s() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def role_setup(spec: dict[str, Any], launch: float) -> dict[str, Any]:
    session = _open_session(spec)
    session.run(_job(spec["warmup"]))
    return {"setup_s": time.time() - launch}


def role_session(spec: dict[str, Any], launch: float) -> dict[str, Any]:
    from repro.obs.trace import Tracer, activated

    traced = bool(spec.get("trace"))
    profiler = layers.Profiler()
    tracer = Tracer(spec["trace_path"]) if traced else None
    session = _open_session(spec)
    session.run(_job(spec["warmup"]))
    setup_s = time.time() - launch
    if traced:
        layers.install(profiler)
    jobs = [_job(doc) for doc in spec["jobs"]]
    start = time.perf_counter()
    with activated(tracer):
        records, blocks = _timed_phase(spec, session, jobs, profiler if traced else None)
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.close()
    out = {
        "setup_s": setup_s,
        "wall_s": wall,
        "blocks": blocks,
        "peak_rss_mb": _peak_rss_mb(),
        "records": records,
    }
    if traced:
        out["layers"] = profiler.snapshot()
    return out


def _timed_phase(
    spec: dict[str, Any],
    session: Any,
    jobs: list[Any],
    profiler: "layers.Profiler | None",
) -> tuple[list[dict[str, Any]], list[dict[str, float]]]:
    """Run whole blocks of the job sequence until the stop rule holds.

    Returns the job records and, per block, its jobs, wall and CPU time.
    """
    sequence: list[int] = spec["sequence"]
    block = int(spec["block"])
    max_jobs = spec.get("max_jobs")
    records: list[dict[str, Any]] = []
    blocks: list[dict[str, float]] = []
    start = time.perf_counter()
    for offset in range(0, len(sequence), block):
        block_start, block_cpu = time.perf_counter(), _cpu_s()
        if spec.get("fresh_session_per_block"):
            session = _open_session(spec)
        for index in sequence[offset : offset + block]:
            issued = time.perf_counter()
            try:
                result = session.run(jobs[index])
                if profiler is not None:
                    digest, run = profiler.timed(
                        "api.result_encode", lambda: result_digest(result)
                    )
                else:
                    digest, run = result_digest(result)
            except Exception as error:  # a failed job is counted, not fatal
                records.append({"job": index, "error": f"{type(error).__name__}: {error}"})
                continue
            records.append(
                {
                    "job": index,
                    "latency_s": time.perf_counter() - issued,
                    "digest": digest,
                    "simulated_units": run.get("simulated_units", 0),
                    "execution": run.get("execution") or {},
                }
            )
        now = time.perf_counter()
        blocks.append(
            {
                "jobs": len(sequence[offset : offset + block]),
                "wall_s": now - block_start,
                "cpu_s": _cpu_s() - block_cpu,
            }
        )
        done = len(records)
        if max_jobs is not None:
            if done >= max_jobs:
                break
        elif now - start >= spec["seconds"] and done >= spec["min_samples"]:
            break
    return records, blocks


def _digests(session: Any, jobs: dict[str, dict[str, Any]]) -> dict[str, str]:
    """Result digest per job key; a failed job records its error instead."""
    digests = {}
    for key, doc in jobs.items():
        try:
            digests[key] = result_digest(session.run(_job(doc)))[0]
        except Exception as error:  # recorded; the parent fails the job
            digests[key] = f"error: {type(error).__name__}: {error}"
    return digests


def role_prefill(spec: dict[str, Any], launch: float) -> dict[str, Any]:
    return {"digests": _digests(_open_session(spec), spec["jobs"])}


def role_reference(spec: dict[str, Any], launch: float) -> dict[str, Any]:
    return {"digests": _digests(_open_session({"store": None}), spec["jobs"])}


def role_serve(spec: dict[str, Any], launch: float) -> None:
    import repro.api.session  # noqa: F401  (loaded before the shims)
    import repro.cli
    import repro.serve.service  # noqa: F401

    profiler = layers.Profiler()
    layers.install(profiler)
    layers.dump_in_forked_children(profiler, spec["layers_dir"])
    try:
        code = repro.cli.main(spec["argv"])
    finally:
        profiler.dump(os.path.join(spec["layers_dir"], "layers-main.json"))
    sys.exit(code)


ROLES = {
    "setup": role_setup,
    "session": role_session,
    "prefill": role_prefill,
    "reference": role_reference,
    "serve": role_serve,
}


def main(argv: list[str]) -> int:
    spec_path, launch = argv[0], float(argv[1])
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    result = ROLES[spec["role"]](spec, launch)
    with open(spec["out"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
