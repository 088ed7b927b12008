"""Seeded job lists of the three benchmark workloads.

Everything here is plain data: a job is the JSON document ``repro batch``
and ``POST /v1/jobs`` accept (``{"type": ..., ...}``), so this module needs
no part of the program and the program only ever sees the generated jobs.

Each workload is a sequence of *blocks* with a fixed composition, shuffled
inside the block.  A run stops on a block boundary, so every run measures
the same mix whatever its length and the latency quantiles land inside one
job population instead of jumping between two (see ``COLD_BLOCK``).
"""

from __future__ import annotations

import json
import random
from typing import Any, Iterator

#: The operators of the paper's Table IV.
OPERATORS = ("rca8", "bka8", "rca16", "bka16")

#: The paper's stimulus size.
PAPER_VECTORS = 20000

#: Job kinds of one cold block (20 jobs).  With blocks kept whole, the
#: median sits inside the rca16 4k-vector population and the 90th
#: percentile inside the rca8 20k-vector one, so neither jumps between two
#: job populations from run to run.  Paper-size (20k-vector) jobs are kept
#: to three per block so that 100 jobs fit in about 25 s on two cores.
COLD_BLOCK: tuple[tuple[str, str, int], ...] = (
    *(("characterize", op, 4000) for op in OPERATORS for _ in range(3)),
    ("characterize", "rca8", PAPER_VECTORS),
    ("characterize", "rca8", PAPER_VECTORS),
    ("characterize", "rca16", PAPER_VECTORS),
    ("montecarlo", "rca8", 2000),
    ("montecarlo", "bka8", 2000),
    ("faults", "rca16", 1000),
    ("faults", "bka16", 1000),
    ("explore", "", 2000),
)

#: Smallest sample from which a 90th percentile is reported (ten samples
#: lie beyond it).
MIN_P90_SAMPLES = 100


def canonical(job: dict[str, Any]) -> str:
    """The job's canonical JSON text: its identity for dedup and digests."""
    return json.dumps(job, sort_keys=True, separators=(",", ":"))


def _pattern(vectors: int, seed: int) -> dict[str, Any]:
    return {"kind": "uniform", "vectors": vectors, "seed": seed}


def _job(kind: str, operator: str, vectors: int, seed: int) -> dict[str, Any]:
    if kind in ("characterize", "characterize-keep"):
        job = {"type": "characterize", "operator": operator, "pattern": _pattern(vectors, seed)}
        if kind == "characterize-keep":
            job["keep_measurements"] = True
        return job
    if kind == "calibrate":
        return {
            "type": "calibrate",
            "operator": operator,
            "tclk_ns": 0.2,
            "vdd": 0.7,
            "pattern": _pattern(vectors, seed),
        }
    if kind == "montecarlo":
        return {
            "type": "montecarlo",
            "operator": operator,
            "samples": 16,
            "pattern": _pattern(vectors, seed),
        }
    if kind == "faults":
        return {"type": "faults", "operator": operator, "pattern": _pattern(vectors, seed)}
    if kind == "fig5":
        return {"type": "fig5", "operator": operator, "vectors": vectors, "seed": seed}
    if kind == "table4":
        return {
            "type": "table4",
            "datasets": list(OPERATORS[:2]) if operator == "8" else list(OPERATORS[2:]),
            "vectors": vectors,
            "seed": seed,
        }
    if kind == "explore":
        return {
            "type": "explore",
            "architectures": ["rca", "bka"],
            "widths": [8, 16],
            "budget": 8,
            "seed": seed,
            "vectors": vectors,
        }
    raise ValueError(f"unknown job kind {kind!r}")


class _Seeds:
    """Distinct stimulus seeds drawn from the workload seed."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._used: set[int] = set()

    def next(self) -> int:
        while True:
            seed = self._rng.randrange(1, 2**31)
            if seed not in self._used:
                self._used.add(seed)
                return seed


def cold_blocks(seed: int) -> Iterator[list[dict[str, Any]]]:
    """Endless cold blocks: every job has a stimulus seed of its own, so
    nothing is ever served from the store."""
    rng = random.Random(f"cold_sweep:{seed}")
    seeds = _Seeds(rng)
    while True:
        kinds = list(COLD_BLOCK)
        rng.shuffle(kinds)
        yield [_job(kind, op, vectors, seeds.next()) for kind, op, vectors in kinds]


def cold_jobs(seed: int, blocks: int) -> list[dict[str, Any]]:
    """The first ``blocks`` cold blocks, flattened."""
    stream = cold_blocks(seed)
    return [job for _ in range(blocks) for job in next(stream)]


def warm_set(seed: int) -> list[dict[str, Any]]:
    """The distinct jobs of ``warm_replay`` (pre-filled, then replayed).

    ``table4`` names its operators, so it reads the very store entries of
    the 4k-vector ``characterize`` jobs sharing its seed.  The jobs that
    keep raw measurements (``characterize`` with ``keep_measurements`` and
    ``calibrate``) decode the stored latched words; ``fig5`` reads only
    payload statistics.  The four ``explore`` jobs are the slowest replays,
    so the 90th percentile of each pass falls inside their population.
    """
    rng = random.Random(f"warm_replay:{seed}")
    seeds = _Seeds(rng)
    shared = seeds.next()
    jobs = [_job("characterize", op, 4000, shared) for op in OPERATORS]
    jobs += [_job("characterize", op, PAPER_VECTORS, seeds.next()) for op in OPERATORS]
    jobs += [_job("fig5", op, 4000, seeds.next()) for op in ("rca8", "bka16")]
    jobs += [_job("characterize-keep", op, 4000, seeds.next()) for op in ("bka8", "rca16")]
    jobs += [_job("calibrate", op, 4000, seeds.next()) for op in ("rca8", "bka8")]
    jobs += [_job("montecarlo", op, 2000, seeds.next()) for op in OPERATORS]
    jobs += [_job("table4", width, 4000, shared) for width in ("8", "16")]
    jobs += [_job("explore", "", 2000, seeds.next()) for _ in range(4)]
    return jobs


def warm_passes(seed: int, jobs: list[dict[str, Any]]) -> Iterator[list[int]]:
    """Endless replay passes: each a fresh shuffle of indices into ``jobs``."""
    rng = random.Random(f"warm_replay:passes:{seed}")
    while True:
        order = list(range(len(jobs)))
        rng.shuffle(order)
        yield order


SERVE_CLIENTS = 2

#: Rounds per block; a run stops only on a whole block.
SERVE_BLOCK_ROUNDS = 4

#: Operators of the private and of the shared jobs.  Each step keeps one
#: operator so its latency population is homogeneous: hot resubmits sit
#: lowest, the shared jobs hold the median, and the private windows (two
#: jobs each) hold the 90th percentile, so neither percentile jumps between
#: operators from run to run.
SERVE_PRIVATE_OPERATOR = "bka8"
SERVE_SHARED_OPERATOR = "rca16"


def serve_rounds(seed: int) -> Iterator[dict[str, Any]]:
    """Endless serve rounds.

    Each round is ``{"private": [job per client], "shared": job,
    "resubmit": [round index per client]}``.  Both clients submit their
    private jobs (each with its own stimulus) at once, so they share one
    admission window.  ``resubmit`` names an earlier round whose private
    job the client submits again (``-1`` = this round's shared job).
    """
    rng = random.Random(f"serve_mixed:{seed}")
    seeds = _Seeds(rng)
    index = 0
    while True:
        private = [
            _job("characterize", SERVE_PRIVATE_OPERATOR, 4000, seeds.next())
            for _ in range(SERVE_CLIENTS)
        ]
        shared = _job("characterize", SERVE_SHARED_OPERATOR, 4000, seeds.next())
        resubmit = [rng.randrange(index) if index else -1 for _ in range(SERVE_CLIENTS)]
        yield {"private": private, "shared": shared, "resubmit": resubmit}
        index += 1
