"""Engine throughput: compiled/packed simulation vs the seed's per-gate loop.

Two measurements, persisted so future PRs have a perf trajectory:

* **Golden (zero-delay) simulation** of the 8-bit RCA: vectors/second of

  - the *seed* simulator: one Python-dispatched ``evaluate_gate`` call per
    gate, fed with the seed's vector-major stimulus layout (whose per-port
    bit columns are strided views -- reproduced here verbatim so the
    baseline stays the code this PR replaced),
  - the in-repo per-gate reference path (``run_reference``, same loop but
    fed with the engine's bit-major contiguous layout),
  - the compiled level-packed engine on boolean arrays (``run``),
  - the compiled engine in bit-packed uint64 mode, 64 vectors per word
    (``run_outputs``).

* **Fig. 4 characterization sweep** of the same adder over its full matched
  triad grid, engine (sweep-level reuse) vs the per-gate reference loop, with
  bit-identical BER/energy assertions.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from _bench_utils import Metric, bench_vectors, write_metrics, write_output

from repro.circuits.adders import build_adder
from repro.core.characterization import CharacterizationFlow
from repro.simulation.logic_sim import LogicSimulator
from repro.simulation.patterns import PatternConfig

#: The golden-simulation measurement uses at least a 64 K-vector stimulus
#: (about 3x the paper's 20 K): below that, Python call overhead -- not
#: simulation work -- dominates every implementation and the comparison
#: measures nothing.
GOLDEN_MIN_VECTORS = 65536

#: Required packed-vs-seed golden speedup (the PR's acceptance floor).
#: ``REPRO_BENCH_RELAXED=1`` lowers it to a sanity floor for shared/noisy CI
#: runners, where relative timings depend on the machine and numpy build.
PACKED_SPEEDUP_FLOOR = 5.0
RELAXED_SPEEDUP_FLOOR = 2.0

#: Timing rounds of the golden paths.  Odd, so a median is one round's
#: value.
_ROUNDS = 51


def _speedup_floor() -> float:
    if os.environ.get("REPRO_BENCH_RELAXED", "") not in ("", "0"):
        return RELAXED_SPEEDUP_FLOOR
    return PACKED_SPEEDUP_FLOOR


def _interleaved_times(functions, rounds: int = _ROUNDS) -> list[list[float]]:
    """Per-round wall times of each function, all timed in turn every round.

    The runs are milliseconds long, so a load spike or clock change can
    cover a whole block of repeats of one path.  Interleaving puts every
    path of a round under the same machine state, and the median of the
    per-round ratios discards the rounds a spike did hit.
    """
    for function in functions:
        function()  # warm-up (plan compilation, caches)
    times: list[list[float]] = [[] for _ in functions]
    for _ in range(rounds):
        for function, samples in zip(functions, times):
            start = time.perf_counter()
            function()
            samples.append(time.perf_counter() - start)
    return times


def _median_ratio(numerators: list[float], denominators: list[float]) -> float:
    return statistics.median(n / d for n, d in zip(numerators, denominators))


def _seed_assignment(adder, in1: np.ndarray, in2: np.ndarray) -> dict:
    """The seed's stimulus layout: vector-major bit matrix, strided columns."""
    shifts = np.arange(adder.width, dtype=np.int64)
    a_bits = ((np.asarray(in1, dtype=np.int64)[..., None] >> shifts) & 1).astype(bool)
    b_bits = ((np.asarray(in2, dtype=np.int64)[..., None] >> shifts) & 1).astype(bool)
    assignment = {}
    for i in range(adder.width):
        assignment[f"a{i}"] = a_bits[..., i]
        assignment[f"b{i}"] = b_bits[..., i]
    inputs = adder.netlist.primary_inputs
    if "__const0" in inputs:
        assignment["__const0"] = np.zeros(len(in1), dtype=bool)
    if "__const1" in inputs:
        assignment["__const1"] = np.ones(len(in1), dtype=bool)
    return assignment


def test_engine_throughput(benchmark):
    """Measure golden-sim and sweep throughput; assert engine speedups."""
    adder = build_adder("rca", 8)
    simulator = LogicSimulator(adder.netlist)

    n_golden = max(bench_vectors(), GOLDEN_MIN_VECTORS)
    rng = np.random.default_rng(2017)
    in1 = rng.integers(0, 256, n_golden)
    in2 = rng.integers(0, 256, n_golden)
    assignment = adder.input_assignment(in1, in2)
    seed_assignment = _seed_assignment(adder, in1, in2)

    # Bit-exactness of every path against the seed loop.
    seed_values = simulator.run_reference(seed_assignment)
    compiled_values = simulator.run(assignment)
    packed_outputs = simulator.run_outputs(assignment)
    for net in seed_values:
        assert np.array_equal(seed_values[net], compiled_values[net])
    for port, net in adder.netlist.primary_outputs.items():
        assert np.array_equal(packed_outputs[port], seed_values[net])

    seed_times, reference_times, compiled_times, packed_times = _interleaved_times(
        [
            lambda: simulator.run_reference(seed_assignment),
            lambda: simulator.run_reference(assignment),
            lambda: simulator.run(assignment),
            lambda: simulator.run_outputs(assignment),
        ]
    )
    packed_speedup = _median_ratio(seed_times, packed_times)
    compiled_speedup = _median_ratio(seed_times, compiled_times)

    lines = [
        "Engine throughput: 8-bit RCA golden (zero-delay) simulation",
        f"vectors per run: {n_golden}; median of {_ROUNDS} interleaved rounds",
        f"{'path':<38}{'time [us]':>12}{'vectors/s':>16}{'vs seed':>9}",
    ]
    for label, samples in (
        ("seed per-gate loop (strided layout)", seed_times),
        ("per-gate reference (bit-major layout)", reference_times),
        ("compiled level-packed (bool)", compiled_times),
        ("compiled bit-packed (uint64 words)", packed_times),
    ):
        seconds = statistics.median(samples)
        lines.append(
            f"{label:<38}{seconds * 1e6:>12.0f}{n_golden / seconds:>16,.0f}"
            f"{_median_ratio(seed_times, samples):>8.1f}x"
        )

    # Characterization sweep (the Fig. 4 flow) at the harness vector count.
    n_sweep = bench_vectors()
    pattern = PatternConfig(n_vectors=n_sweep, width=8, seed=2017, kind="uniform")

    flow_reference = CharacterizationFlow(build_adder("rca", 8))
    start = time.perf_counter()
    reference = flow_reference.run(
        pattern=pattern, keep_measurements=False, use_reference=True
    )
    t_sweep_reference = time.perf_counter() - start

    flow_engine = CharacterizationFlow(build_adder("rca", 8))
    start = time.perf_counter()
    engine = flow_engine.run(pattern=pattern, keep_measurements=False)
    t_sweep_engine = time.perf_counter() - start

    assert [e.ber for e in reference.results] == [e.ber for e in engine.results]
    assert [e.energy_per_operation for e in reference.results] == [
        e.energy_per_operation for e in engine.results
    ]
    assert [e.mse for e in reference.results] == [e.mse for e in engine.results]
    sweep_speedup = t_sweep_reference / t_sweep_engine

    lines += [
        "",
        "Fig. 4 characterization sweep: 8-bit RCA, full matched triad grid",
        f"vectors per triad: {n_sweep}, triads: {len(engine.results)}",
        f"{'per-gate reference loop':<38}{t_sweep_reference * 1e6:>12.0f}",
        f"{'compiled engine + sweep reuse':<38}{t_sweep_engine * 1e6:>12.0f}",
        f"end-to-end speedup: {sweep_speedup:.2f}x (BER/energy bit-identical)",
    ]
    text = "\n".join(lines)
    print("\n=== Engine throughput ===")
    print(text)
    write_output("bench_engine_throughput.txt", text)
    write_metrics(
        "engine_throughput",
        [
            Metric("packed_golden_speedup", packed_speedup, "x", kind="ratio"),
            Metric("compiled_golden_speedup", compiled_speedup, "x", kind="ratio"),
            Metric("sweep_engine_speedup", sweep_speedup, "x", kind="ratio"),
            Metric("golden_packed_s", statistics.median(packed_times), "s", kind="time"),
            Metric("golden_seed_s", statistics.median(seed_times), "s", kind="time"),
            Metric("sweep_engine_s", t_sweep_engine, "s", kind="time"),
        ],
        vectors=n_golden,
    )

    floor = _speedup_floor()
    assert packed_speedup >= floor, (
        f"packed golden simulation is only {packed_speedup:.1f}x over the seed "
        f"loop (floor is {floor}x)"
    )
    assert sweep_speedup > 1.0, "sweep-level reuse must beat the per-triad loop"

    benchmark(lambda: simulator.run_outputs(assignment))
