"""Monte Carlo variation characterization at scale.

The paper reports BER/energy at nominal process conditions; this module asks
the manufacturing question instead: *across sampled process variation, what
fraction of dies meets a BER margin at each operating triad?*  One Monte
Carlo run draws ``n_samples`` per-gate mismatch instances
(:class:`~repro.variation.sampler.VariationSampler`), lowers each contiguous
*sample-index range* as a vectorized batch dimension through the packed
timing engine (one batched arrival pass evaluates the whole range per
``(vdd, vbb)`` group -- no Python loop over instances), and condenses the
per-instance BER/energy into distribution statistics and yield
(:mod:`repro.variation.stats`).

Scale comes from the sweep executor of :mod:`repro.core.sweep`: a Monte
Carlo run is one :class:`~repro.core.sweep.SweepPlan` whose output units are
``(sample range, triad)`` pairs.

* **Sharding.**  Sample ranges are fixed-size chunks (independent of the
  worker count); each range is one work item and one worker shard.
  Workers rebuild the circuit from its verified generator spec, and every
  per-instance number depends only on ``(seed, absolute sample index)`` --
  so serial and sharded runs are byte-identical, entry for entry.
* **Result store.**  Each ``(triad, sample range)`` summary persists in the
  content-addressed :class:`~repro.core.store.SweepResultStore`, keyed by
  (netlist fingerprint, corner-shifted library fingerprint, stimulus,
  corner, variation model + seed, sample-index range, triad, engine
  version).  A warm rerun -- or a resumed run extending ``n_samples`` --
  fetches completed ranges and performs **zero** timing simulations for
  them.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, ClassVar, Mapping, Sequence

import numpy as np

from repro.circuits.signals import int_to_bits
from repro.core.resilience import ExecutionPolicy, ExecutionReport
from repro.core.store import (
    SweepResultStore,
    decode_float64_array,
    library_fingerprint,
    netlist_fingerprint,
    pack_float64_array,
)
from repro.core.sweep import SweepPlan, _exact_words, execute_sweep
from repro.core.triad import OperatingTriad, TriadGrid
from repro.simulation.engine import ENGINE_VERSION
from repro.simulation.timing_sim import VosTimingSimulator
from repro.technology.corners import (
    GateVariationModel,
    ProcessCorner,
    corner_library,
)
from repro.technology.library import DEFAULT_LIBRARY, StandardCellLibrary
from repro.testing.chaos import ChaosPlan
from repro.variation.sampler import VariationSampler
from repro.variation.stats import TriadVariationResult

#: Version of the Monte Carlo payload dict layout (part of stored entries).
MC_PAYLOAD_VERSION = 1

#: Samples per shard/store entry.  Fixed (not derived from the worker count)
#: so the sample-range decomposition -- and therefore every store entry -- is
#: identical for any ``jobs`` value, and bounded so one range's batched
#: arrival matrix stays comfortably in memory.
DEFAULT_SAMPLE_CHUNK = 32


@dataclasses.dataclass(frozen=True)
class MonteCarloConfig:
    """Parameters of one Monte Carlo characterization run.

    Attributes
    ----------
    corner:
        Process corner the nominal die is shifted to before sampling local
        mismatch around it.
    model:
        The per-gate mismatch model.
    n_samples:
        Number of sampled netlist instances.
    seed:
        Variation seed; instance ``i`` depends only on ``(seed, i)``.
    chunk:
        Samples per shard / store entry (see :data:`DEFAULT_SAMPLE_CHUNK`).
    """

    corner: ProcessCorner = ProcessCorner.TYPICAL
    model: GateVariationModel = dataclasses.field(
        default_factory=GateVariationModel
    )
    n_samples: int = 64
    seed: int = 2017
    chunk: int = DEFAULT_SAMPLE_CHUNK

    def __post_init__(self) -> None:
        if self.n_samples <= 0:
            raise ValueError("n_samples must be positive")
        if self.chunk <= 0:
            raise ValueError("chunk must be positive")

    def sample_ranges(self) -> tuple[tuple[int, int], ...]:
        """Half-open sample-index ranges the run decomposes into."""
        return tuple(
            (start, min(start + self.chunk, self.n_samples))
            for start in range(0, self.n_samples, self.chunk)
        )

    def key_components(self) -> dict[str, Any]:
        """JSON-serialisable identity of the run (result-store key part)."""
        return {**self.model.key_components(), "seed": self.seed}


def supply_scaling_grid(
    flow: Any, supply_voltages: Sequence[float]
) -> TriadGrid:
    """Fig. 5 style grid: the matched nominal clock across a supply sweep.

    Holds the flow's nominal clock
    (:meth:`~repro.core.characterization.CharacterizationFlow.nominal_clock_period`,
    the same rule :func:`repro.analysis.figures.fig5_ber_per_bit` sweeps at)
    with no body bias -- the axis a yield-vs-Vdd analysis scales.
    """
    nominal = flow.nominal_clock_period()
    return TriadGrid(
        [
            OperatingTriad(tclk=nominal, vdd=vdd, vbb=0.0)
            for vdd in supply_voltages
        ]
    )


# ---------------------------------------------------------------------------
# Range simulation (the kernel)
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _RangeKernel:
    """Monte Carlo: unit ``r * len(triads) + t`` is triad ``t`` of range ``r``.

    A range is always simulated whole: ``run`` is only ever handed the
    units of one complete range.
    """

    kind: ClassVar[str] = "montecarlo"
    version: ClassVar[int] = MC_PAYLOAD_VERSION
    library: StandardCellLibrary
    in1: np.ndarray
    in2: np.ndarray
    triads: tuple[OperatingTriad, ...]
    ranges: tuple[tuple[int, int], ...]
    model: GateVariationModel
    seed: int

    def start(self, circuit: Any) -> Callable[..., list]:
        simulator = VosTimingSimulator(
            circuit.netlist,
            output_ports=circuit.output_ports(),
            library=self.library,
        )
        # Bound once: every range and operating point reuses the record.
        stimulus = simulator.bind(circuit.input_assignment(self.in1, self.in2))
        exact_bits = int_to_bits(
            _exact_words(circuit, self.in1, self.in2), circuit.output_width
        )
        n_vectors = int(self.in1.size)
        tech = self.library.technology
        # Triads grouped by operating point, so the batched arrival pass --
        # the expensive part -- runs once per ``(vdd, vbb)`` for the whole
        # range, and clock periods within a group cost one latch comparison.
        groups: dict[tuple[float, float], list[int]] = {}
        for index, triad in enumerate(self.triads):
            groups.setdefault((triad.vdd, triad.vbb), []).append(index)

        def run(units: Sequence[int]) -> list[dict[str, Any]]:
            start, stop = self.ranges[units[0] // len(self.triads)]
            batch = VariationSampler(self.model, self.seed).sample_range(
                circuit.netlist.gate_count, start, stop
            )
            leakage_multipliers = batch.leakage_multipliers(tech)
            payloads: dict[int, dict[str, Any]] = {}
            for (vdd, vbb), indices in groups.items():
                results = simulator.run_variation_sweep(
                    stimulus,
                    [self.triads[index].tclk for index in indices],
                    vdd,
                    vbb,
                    delay_multipliers=batch.delay_multipliers(vdd, vbb, tech),
                    leakage_multipliers=leakage_multipliers,
                )
                for index, result in zip(indices, results):
                    errors = result.latched_bits != exact_bits[None, :, :]
                    ber = errors.mean(axis=(1, 2))
                    faulty = errors.any(axis=2).mean(axis=1)
                    dynamic = float(result.dynamic_energy.mean())
                    static = result.static_energy_per_operation
                    triad = self.triads[index]
                    payloads[index] = {
                        "payload_version": MC_PAYLOAD_VERSION,
                        "triad": {
                            "tclk": triad.tclk,
                            "vdd": triad.vdd,
                            "vbb": triad.vbb,
                        },
                        "n_vectors": n_vectors,
                        "samples": {"start": start, "stop": stop},
                        "ber_samples": pack_float64_array(ber),
                        "faulty_fraction_samples": pack_float64_array(faulty),
                        "energy_samples": pack_float64_array(dynamic + static),
                        "static_energy_samples": pack_float64_array(static),
                        "dynamic_energy_per_operation": dynamic,
                    }
            return [payloads[index] for index in range(len(self.triads))]

        return run


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def _payload_usable(
    payload: Mapping[str, Any] | None, n_vectors: int, start: int, stop: int
) -> bool:
    if payload is None:
        return False
    if payload.get("payload_version") != MC_PAYLOAD_VERSION:
        return False
    if payload.get("n_vectors") != n_vectors:
        return False
    samples = payload.get("samples") or {}
    return samples.get("start") == start and samples.get("stop") == stop


def run_montecarlo_sweep(
    circuit: Any,
    grid: TriadGrid | Sequence[OperatingTriad],
    in1: np.ndarray,
    in2: np.ndarray,
    stimulus: Mapping[str, Any],
    *,
    config: MonteCarloConfig,
    library: StandardCellLibrary = DEFAULT_LIBRARY,
    jobs: int = 1,
    store: SweepResultStore | None = None,
    policy: ExecutionPolicy | None = None,
    chaos: ChaosPlan | None = None,
    report: ExecutionReport | None = None,
) -> list[TriadVariationResult]:
    """Monte Carlo characterize a circuit over a triad grid, sharded + cached.

    Parameters
    ----------
    circuit:
        :class:`AdderCircuit` or :class:`MultiplierCircuit` under test.
    grid:
        Operating triads to characterize at.
    in1, in2:
        Operand streams (already resolved from the pattern config).
    stimulus:
        Cache-key components of the stimulus
        (:func:`repro.core.sweep.pattern_stimulus` or
        :func:`repro.core.sweep.operand_stimulus`).
    config:
        Corner, mismatch model, sample count, variation seed and chunking.
    library:
        *Base* standard-cell library; the run shifts it to ``config.corner``
        before sampling local mismatch around the corner nominal.
    jobs:
        Worker processes; sample ranges shard across them.  ``1`` executes
        in-process.  Results are byte-identical for every value.
    store:
        Optional result store; completed ``(triad, range)`` entries are
        fetched from / persisted to it (warm reruns simulate nothing).
        Every completed range flushes immediately -- sharded or in-process
        -- so an interrupted run resumes warm.
    policy / chaos / report:
        Fault-tolerance knobs of the shard engine, as in
        :func:`repro.core.sweep.run_characterization_sweep`.
        Sample-range shards are never split on retry (the range
        decomposition *is* the store-key layout), but all other recovery
        actions apply.

    Returns
    -------
    One :class:`~repro.variation.stats.TriadVariationResult` per triad, in
    grid order, each carrying the full per-sample arrays in absolute
    sample-index order.
    """
    triads = tuple(grid)
    if not triads:
        raise ValueError("the triad grid must not be empty")
    shifted = corner_library(config.corner, library)
    fingerprint = netlist_fingerprint(circuit.netlist)
    base_components: dict[str, Any] = {
        "scenario": "montecarlo",
        "engine_version": ENGINE_VERSION,
        "circuit": fingerprint,
        "circuit_name": circuit.name,
        "library": library_fingerprint(shifted),
        "stimulus": dict(stimulus),
        "corner": config.corner.value,
        "variation": config.key_components(),
    }
    ranges = config.sample_ranges()
    kernel = _RangeKernel(
        library=shifted,
        in1=np.asarray(in1, dtype=np.int64),
        in2=np.asarray(in2, dtype=np.int64),
        triads=triads,
        ranges=ranges,
        model=config.model,
        seed=config.seed,
    )
    n_vectors = int(kernel.in1.size)
    n_triads = len(triads)

    def whole_ranges(missing: list[int]) -> list[list[int]]:
        # A range with any unusable entry re-simulates all of its triads.
        touched = sorted({unit // n_triads for unit in missing})
        return [list(range(r * n_triads, (r + 1) * n_triads)) for r in touched]

    plan = SweepPlan(
        circuit=circuit,
        fingerprint=fingerprint,
        kernel=kernel,
        keys=[
            SweepResultStore.entry_key(
                {
                    **base_components,
                    "triad": {"tclk": triad.tclk, "vdd": triad.vdd, "vbb": triad.vbb},
                    "samples": {"start": start, "stop": stop},
                }
            )
            for start, stop in ranges
            for triad in triads
        ],
        usable=lambda unit, payload: _payload_usable(
            payload, n_vectors, *ranges[unit // n_triads]
        ),
        work_items=whole_ranges,
        shards=lambda items, jobs: items,
        # No split: the sample-range decomposition is the store-key layout,
        # so a halved shard would store nothing reusable.
        splittable=False,
    )
    payloads = execute_sweep(
        plan, jobs=jobs, store=store, policy=policy, chaos=chaos, report=report
    )

    def samples(parts: list[dict[str, Any]], field: str) -> np.ndarray:
        return np.concatenate([decode_float64_array(p[field]) for p in parts])

    results: list[TriadVariationResult] = []
    for index, triad in enumerate(triads):
        parts = payloads[index::n_triads]
        results.append(
            TriadVariationResult(
                triad=triad,
                n_vectors=n_vectors,
                ber_samples=samples(parts, "ber_samples"),
                faulty_fraction_samples=samples(parts, "faulty_fraction_samples"),
                energy_samples=samples(parts, "energy_samples"),
                static_energy_samples=samples(parts, "static_energy_samples"),
                dynamic_energy_per_operation=float(
                    parts[0]["dynamic_energy_per_operation"]
                ),
            )
        )
    return results
