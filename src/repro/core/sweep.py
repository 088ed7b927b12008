"""Sharded, cache-backed sweep orchestration.

The paper's core experiment (the Fig. 4 flow feeding Fig. 5/8 and Tables
III-IV) is a grid sweep of operating triads per operator; this module
makes the *grid* scale.  Every sweep kind --
triad characterization (:func:`run_characterization_sweep`), stuck-at fault
campaigns (:func:`run_fault_sweep`) and the Monte Carlo variation sweeps of
:mod:`repro.variation.montecarlo` -- is a :class:`SweepPlan` run by the one
executor :func:`execute_sweep`:

* **Plan.**  A plan lists the store key of every output unit, says which
  cached payloads are usable, groups the units left to simulate into work
  items (one ``(vdd, vbb)`` group, one fault block, one sample range) and
  those into worker shards, and carries a picklable *kernel* that
  simulates a list of units.
* **Sharding.**  Triad grids shard along ``(vdd, vbb)`` groups -- the axis
  the simulator's sweep-level reuse is keyed on -- so each worker pays the
  per-operating-point arrival computation exactly once.  Assignment is
  deterministic and the merge is by unit order, so results are
  bit-identical to a serial sweep regardless of worker count or completion
  order.
* **Worker processes.**  Shards execute on the fault-tolerant shard engine
  (:func:`repro.core.resilience.run_shards`).  Workers rebuild the circuit
  from its generator name; the parent verifies the rebuilt netlist
  fingerprint matches before dispatching, and falls back to in-process
  execution for circuits the registry cannot reproduce.
* **Result store.**  Each unit's summary is a pure function of (circuit,
  stimulus, unit, library, engine version); completed entries are persisted
  in a content-addressed :class:`~repro.core.store.SweepResultStore` after
  every work item or shard, so repeated or interrupted sweeps -- across CLI
  runs, benchmark sessions and CI jobs -- skip the finished simulation.

Everything travels as JSON-serialisable *payload* dicts (exact float / int64
round-trips), whether a result comes from this process, a worker, or the
on-disk store; the conversion back to :class:`TriadCharacterization` /
:class:`TriadMeasurement` is therefore identical on every path.
Multiplier grids run through the identical entry points because
:class:`MultiplierTestbench` shares the testbench interface.
"""

from __future__ import annotations

import contextvars
import dataclasses
import re
from typing import Any, Callable, ClassVar, Mapping, Sequence

import numpy as np

from repro.circuits.adders import (
    AdderCircuit,
    SpeculativeAdderCircuit,
    build_adder,
    parse_adder_name,
    speculative_adder,
)
from repro.circuits.multipliers import MultiplierCircuit, array_multiplier
from repro.circuits.signals import int_to_bits
from repro.core.metrics import mean_squared_error
from repro.core.resilience import ExecutionPolicy, ExecutionReport, run_shards
from repro.core.store import (
    SweepResultStore,
    decode_int64_array,
    library_fingerprint,
    netlist_fingerprint,
    operand_fingerprint,
    pack_int64_array,
)
from repro.core.triad import OperatingTriad, TriadGrid
from repro.obs import metrics
from repro.obs.trace import TraceContext, current_context, span, worker_scope
from repro.simulation.engine import ENGINE_VERSION
from repro.simulation.fault_injection import (
    FaultSimulationResult,
    StuckAtFault,
    StuckAtFaultSimulator,
    enumerate_stuck_at_faults,
)
from repro.simulation.multiplier_testbench import MultiplierTestbench
from repro.simulation.patterns import PatternConfig
from repro.simulation.testbench import AdderTestbench, TriadMeasurement
from repro.technology.library import DEFAULT_LIBRARY, StandardCellLibrary
from repro.testing.chaos import ChaosPlan

#: Version of the payload dict layout (part of the stored entries).
PAYLOAD_VERSION = 1

#: Fault sites simulated between store flushes on the in-process path of
#: :func:`run_fault_sweep` -- small enough that an interrupted campaign
#: loses little work, large enough that flushing stays off the profile.
SERIAL_FAULT_FLUSH_BLOCK = 64


# ---------------------------------------------------------------------------
# Simulation-count instrumentation
# ---------------------------------------------------------------------------

#: Work units actually simulated by this process's orchestrators (triads for
#: characterization sweeps, fault sites for fault campaigns, (sample range x
#: triad) entries for Monte Carlo runs).  Cache hits do not count.  The
#: counter is recorded parent-side (before shards are dispatched), so it is
#: accurate whether the units execute in-process or in worker processes.
#: Lives in the process-global metrics registry (:data:`repro.obs.metrics
#: .REGISTRY`), where the batch dedup counters also land.
_SIMULATED_UNITS = metrics.REGISTRY.counter("sweep.simulated_units")


def simulated_unit_count() -> int:
    """Total work units simulated so far (monotonic; cache hits excluded).

    Snapshot before and after an operation to measure how much real
    simulation it performed -- per-job and per-batch accounting and the
    zero-duplicate-simulation tests are built on this.
    """
    return _SIMULATED_UNITS.value


def record_simulated_units(count: int) -> None:
    """Record ``count`` work units as actually simulated."""
    if count < 0:
        raise ValueError("count must be non-negative")
    _SIMULATED_UNITS.add(int(count))


#: Store keys requested by every sweep run while a batch is open, in order
#: and with multiplicity, each paired with whether that sweep simulated the
#: unit (``False``: a usable payload was cached).  ``Session.run_batch``
#: sets a fresh list for the duration of the batch and derives its
#: planned / deduped / cache-hit accounting from it; outside a batch the
#: value is ``None`` and nothing is recorded.
_KEY_LEDGER: contextvars.ContextVar[list[tuple[str, bool]] | None] = (
    contextvars.ContextVar("sweep_key_ledger", default=None)
)


# ---------------------------------------------------------------------------
# Circuit specs (what a worker process needs to rebuild the circuit)
# ---------------------------------------------------------------------------

_MULTIPLIER_NAME = re.compile(r"^mul(\d+)x(\d+)$")


@dataclasses.dataclass(frozen=True)
class CircuitSpec:
    """Generator coordinates of a circuit, picklable for worker processes.

    Attributes
    ----------
    kind:
        ``"adder"`` or ``"multiplier"``.
    architecture:
        Adder architecture name (``"rca"`` ...); ``"array"`` for multipliers.
    width:
        Operand width (``width_a`` for multipliers).
    width_b:
        Second operand width of a multiplier; ``None`` for adders.
    window:
        Carry look-back window of a speculative adder; ``None`` otherwise.
    """

    kind: str
    architecture: str
    width: int
    width_b: int | None = None
    window: int | None = None

    @classmethod
    def from_circuit(cls, circuit: Any) -> "CircuitSpec | None":
        """Derive the spec of a generator-built circuit, or ``None``.

        Returns ``None`` when the circuit's name does not map back onto a
        registry generator -- such circuits still sweep (in-process) and
        still cache (keyed by netlist fingerprint), they just cannot be
        shipped to worker processes by name.
        """
        if isinstance(circuit, MultiplierCircuit):
            match = _MULTIPLIER_NAME.match(circuit.name)
            if match is None:
                return None
            return cls(
                kind="multiplier",
                architecture="array",
                width=int(match.group(1)),
                width_b=int(match.group(2)),
            )
        if isinstance(circuit, SpeculativeAdderCircuit):
            return cls(
                kind="adder",
                architecture=circuit.architecture,
                width=circuit.width,
                window=circuit.window,
            )
        if isinstance(circuit, AdderCircuit):
            try:
                architecture, width = parse_adder_name(circuit.name)
            except ValueError:
                return None
            return cls(kind="adder", architecture=architecture, width=width)
        return None

    def build(self) -> Any:
        """Rebuild the circuit from its generator."""
        if self.kind == "adder":
            if self.window is not None:
                return speculative_adder(self.width, self.window)
            return build_adder(self.architecture, self.width)
        if self.kind == "multiplier":
            return array_multiplier(self.width, self.width_b)
        raise ValueError(f"unknown circuit kind {self.kind!r}")


def _make_testbench(circuit: Any, library: StandardCellLibrary) -> Any:
    if isinstance(circuit, MultiplierCircuit):
        return MultiplierTestbench(circuit, library=library)
    return AdderTestbench(circuit, library=library)


def _exact_words(circuit: Any, in1: np.ndarray, in2: np.ndarray) -> np.ndarray:
    if isinstance(circuit, MultiplierCircuit):
        return circuit.exact_product(in1, in2)
    return circuit.exact_sum(in1, in2)


# ---------------------------------------------------------------------------
# Stimulus descriptors (cache-key components + operand resolution)
# ---------------------------------------------------------------------------


def pattern_stimulus(config: PatternConfig) -> dict[str, Any]:
    """Cache-key components of a generated pattern stimulus."""
    return {
        "type": "pattern",
        "kind": config.kind,
        "n_vectors": config.n_vectors,
        "width": config.width,
        "seed": config.seed,
    }


def operand_stimulus(in1: np.ndarray, in2: np.ndarray) -> dict[str, Any]:
    """Cache-key components of an explicit operand-pair stimulus."""
    return {
        "type": "operands",
        "sha256": operand_fingerprint(in1, in2),
        "n_vectors": int(np.asarray(in1).size),
    }


# ---------------------------------------------------------------------------
# Payloads (the JSON-serialisable unit of result exchange)
# ---------------------------------------------------------------------------


def measurement_to_payload(
    measurement: TriadMeasurement,
    output_width: int,
    keep_latched: bool,
) -> dict[str, Any]:
    """Condense one triad measurement into a payload dict.

    Uses exactly the reduction expressions the characterization flow always
    used (``error_bits.mean()`` ...), so payload statistics are bit-identical
    with a direct in-process summary.
    """
    error_bits = measurement.error_bits.reshape(-1, output_width)
    payload: dict[str, Any] = {
        "payload_version": PAYLOAD_VERSION,
        "triad": {
            "tclk": measurement.tclk,
            "vdd": measurement.vdd,
            "vbb": measurement.vbb,
        },
        "n_vectors": measurement.n_vectors,
        "ber": float(error_bits.mean()),
        "mse": mean_squared_error(measurement.exact_words, measurement.latched_words),
        "bitwise_error": [float(value) for value in error_bits.mean(axis=0)],
        "energy_per_operation": measurement.energy_per_operation,
        "dynamic_energy_per_operation": measurement.dynamic_energy_per_operation,
        "static_energy_per_operation": measurement.static_energy_per_operation,
        "faulty_vector_fraction": measurement.faulty_vector_fraction,
    }
    if keep_latched:
        # Raw bytes, not base64: the store writes them verbatim into pack
        # records and warm reads hand the same bytes back, so cached and
        # freshly computed payloads are identical dicts.
        payload["latched_words"] = pack_int64_array(measurement.latched_words)
    return payload


def payload_to_measurement(
    payload: Mapping[str, Any],
    circuit: Any,
    in1: np.ndarray,
    in2: np.ndarray,
    exact: np.ndarray | None = None,
    exact_bits: np.ndarray | None = None,
) -> TriadMeasurement:
    """Rebuild the raw measurement of one triad from its payload.

    Only the latched output words are stored; the golden words and the error
    bit matrix are recomputed from the operands, which is deterministic and
    exact.  ``exact`` / ``exact_bits`` are triad-independent -- pass them in
    when rebuilding a whole sweep so they are computed once, not per triad.
    """
    if "latched_words" not in payload:
        raise KeyError("payload does not carry latched words")
    in1_arr = np.asarray(in1, dtype=np.int64)
    in2_arr = np.asarray(in2, dtype=np.int64)
    latched = decode_int64_array(payload["latched_words"]).reshape(in1_arr.shape)
    if exact is None:
        exact = _exact_words(circuit, in1_arr, in2_arr)
    if exact_bits is None:
        exact_bits = int_to_bits(exact, circuit.output_width)
    latched_bits = int_to_bits(latched, circuit.output_width)
    triad = payload["triad"]
    return TriadMeasurement(
        adder_name=circuit.name,
        tclk=float(triad["tclk"]),
        vdd=float(triad["vdd"]),
        vbb=float(triad["vbb"]),
        in1=in1_arr,
        in2=in2_arr,
        latched_words=latched,
        exact_words=exact,
        error_bits=latched_bits != exact_bits,
        energy_per_operation=float(payload["energy_per_operation"]),
        dynamic_energy_per_operation=float(payload["dynamic_energy_per_operation"]),
        static_energy_per_operation=float(payload["static_energy_per_operation"]),
    )


# ---------------------------------------------------------------------------
# Sharding
# ---------------------------------------------------------------------------


def _group_by(units: Sequence[Any], point: Callable[[Any], Any]) -> list[list[Any]]:
    """Group ``units`` by ``point(unit)``, keeping first-seen group order."""
    groups: dict[Any, list[Any]] = {}
    for unit in units:
        groups.setdefault(point(unit), []).append(unit)
    return list(groups.values())


def _balance(
    groups: list[list[Any]], n_shards: int, point: Callable[[Any], Any]
) -> list[list[Any]]:
    """Greedy balance: groups (largest first) go to the lightest shard."""
    shards: list[list[Any]] = [[] for _ in range(min(n_shards, len(groups)))]
    loads = [0] * len(shards)
    for group in sorted(groups, key=lambda group: (-len(group), point(group[0]))):
        lightest = loads.index(min(loads))
        shards[lightest].extend(group)
        loads[lightest] += len(group)
    return [shard for shard in shards if shard]


def _operating_point(triad: OperatingTriad) -> tuple[float, float]:
    return (triad.vdd, triad.vbb)


def shard_triads(
    triads: Sequence[OperatingTriad], n_shards: int
) -> list[list[OperatingTriad]]:
    """Split a triad list into at most ``n_shards`` balanced shards.

    Triads sharing an operating point ``(vdd, vbb)`` always land in the same
    shard, because settled bits are reused per pattern set and arrival times
    per operating point -- splitting such a group across workers would
    duplicate the expensive part of the sweep.  Assignment is deterministic:
    groups (largest first) go to the currently lightest shard.
    """
    if n_shards <= 0:
        raise ValueError("n_shards must be positive")
    groups = _group_by(triads, _operating_point)
    return _balance(groups, n_shards, _operating_point)


# ---------------------------------------------------------------------------
# The sweep executor
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SweepPlan:
    """One sweep, described as data for :func:`execute_sweep`.

    A sweep computes one payload per *output unit* (a triad, a fault site,
    a (sample range, triad) pair).  The plan says how units are keyed,
    which cached payloads serve them, and how the ones left to simulate are
    grouped; the executor does everything else identically for every kind.

    Attributes
    ----------
    circuit, fingerprint:
        The circuit under test and its netlist fingerprint (the rebuild a
        worker would use is verified against it before dispatch).
    kernel:
        Picklable simulation recipe.  ``kernel.start(circuit)`` sets the
        simulator up once and returns ``run(units) -> payloads``;
        ``kernel.kind`` names the sweep in spans and ``kernel.version`` is
        the payload version a shard result must carry.
    keys:
        Store key of each output unit, in output order.
    usable:
        ``usable(unit, payload)``: whether a cached payload (or ``None``)
        satisfies the unit.
    work_items:
        ``work_items(missing)``: the unit lists to simulate, grouped into
        the in-process work items (the store flushes after each).
    shards:
        ``shards(work_items, jobs)``: the unit lists of the worker shards.
    start:
        In-process runner factory; ``None`` means ``kernel.start(circuit)``.
    splittable:
        Whether ``split-and-retry`` may halve a failed shard.
    """

    circuit: Any
    fingerprint: str
    kernel: Any
    keys: list[str]
    usable: Callable[[int, Mapping[str, Any] | None], bool]
    work_items: Callable[[list[int]], list[list[int]]]
    shards: Callable[[list[list[int]], int], list[list[int]]]
    start: Callable[[], Callable[[Sequence[int]], list[dict[str, Any]]]] | None = None
    splittable: bool = True


@dataclasses.dataclass(frozen=True)
class _Shard:
    """One worker task: the plan's kernel plus the units it computes."""

    spec: CircuitSpec
    kernel: Any
    units: tuple[int, ...]
    trace: TraceContext | None = None


def _run_shard(task: _Shard) -> list[dict[str, Any]]:
    """Worker entry point (module level: picklable)."""
    with worker_scope(
        task.trace, "sweep.shard", kind=task.kernel.kind, units=len(task.units)
    ):
        return task.kernel.start(task.spec.build())(task.units)


def _split_shard(task: _Shard) -> tuple[_Shard, _Shard]:
    """Halve a shard for the ``split-and-retry`` action."""
    half = len(task.units) // 2
    return (
        dataclasses.replace(task, units=task.units[:half]),
        dataclasses.replace(task, units=task.units[half:]),
    )


def _validate_shard(task: _Shard, result: Any) -> bool:
    """Parent-side shard-result check: one well-versioned payload per unit.

    This is what catches a worker that completed but returned garbage (the
    chaos harness's ``corrupt`` action, a partially pickled result ...): the
    engine treats a failing result like any other shard failure.
    """
    if not isinstance(result, list) or len(result) != len(task.units):
        return False
    return all(
        isinstance(payload, Mapping)
        and payload.get("payload_version") == task.kernel.version
        for payload in result
    )


def verified_spec(circuit: Any, fingerprint: str) -> CircuitSpec | None:
    """Spec whose rebuilt netlist is proven identical to ``circuit``'s.

    Circuits without one still sweep (in-process) and still cache; they
    just cannot be shipped to worker processes by generator name.
    """
    spec = CircuitSpec.from_circuit(circuit)
    if spec is None:
        return None
    if netlist_fingerprint(spec.build().netlist) != fingerprint:
        return None
    return spec


def execute_sweep(
    plan: SweepPlan,
    *,
    jobs: int,
    store: SweepResultStore | None,
    policy: ExecutionPolicy | None,
    chaos: ChaosPlan | None,
    report: ExecutionReport | None,
) -> list[dict[str, Any]]:
    """Run one sweep plan; return its payloads in output order.

    Usable cached payloads come from one batch store read.  The rest runs
    on the fault-tolerant shard engine
    (:func:`~repro.core.resilience.run_shards`), flushing the store after
    every completed shard, when ``jobs > 1``, a worker can rebuild the
    circuit and the plan yields more than one shard.  Otherwise it runs
    in-process: the kernel is set up once and the store flushes after every
    work item.  Either way an interrupted sweep resumes warm, and results
    are byte-identical for every ``jobs``.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    keys = plan.keys
    payloads: dict[int, dict[str, Any]] = {}
    with span("sweep", kind=plan.kernel.kind, jobs=jobs) as sweep_span:
        if store is not None:
            # One batch read for the whole sweep: segments are visited in
            # offset order instead of seeking per key, which is what keeps
            # warm sweeps fast on multi-thousand-entry stores.
            with span("store.lookup", requested=len(keys)) as lookup_span:
                cached = store.get_many(keys)
                for unit, key in enumerate(keys):
                    if plan.usable(unit, cached.get(key)):
                        payloads[unit] = cached[key]
                lookup_span.set(
                    hits=len(payloads), misses=len(keys) - len(payloads)
                )
        items = plan.work_items(
            [unit for unit in range(len(keys)) if unit not in payloads]
        )
        simulated = sum(len(item) for item in items)
        sweep_span.set(units=len(keys), cached=len(payloads), simulated=simulated)
        ledger = _KEY_LEDGER.get()
        if ledger is not None:
            ledger.extend((key, unit not in payloads) for unit, key in enumerate(keys))
        if items:
            record_simulated_units(simulated)

            def flush(units: Sequence[int], results: list[dict[str, Any]]) -> None:
                payloads.update(zip(units, results))
                if store is not None:
                    with span("store.flush", entries=len(units)):
                        for unit in units:
                            store.put(keys[unit], payloads[unit])

            spec = verified_spec(plan.circuit, plan.fingerprint) if jobs > 1 else None
            shards = plan.shards(items, jobs) if spec is not None else []
            if len(shards) > 1:
                trace_context = current_context()
                tasks = [
                    _Shard(spec, plan.kernel, tuple(units), trace_context)
                    for units in shards
                ]
                run_shards(
                    tasks,
                    _run_shard,
                    policy=policy,
                    max_workers=min(jobs, len(tasks)),
                    units=lambda task: len(task.units),
                    split=_split_shard if plan.splittable else None,
                    validate=_validate_shard,
                    on_result=lambda task, result: flush(task.units, result),
                    chaos=chaos,
                    report=report,
                )
            else:
                run = plan.start() if plan.start else plan.kernel.start(plan.circuit)
                for units in items:
                    flush(units, run(units))
    return [payloads[unit] for unit in range(len(keys))]


# ---------------------------------------------------------------------------
# Kernels (picklable: they travel to worker processes inside shards)
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _TriadKernel:
    """Characterization: unit ``i`` is ``triads[i]`` on one stimulus."""

    kind: ClassVar[str] = "characterization"
    version: ClassVar[int] = PAYLOAD_VERSION
    library: StandardCellLibrary
    in1: np.ndarray
    in2: np.ndarray
    triads: tuple[OperatingTriad, ...]
    keep_latched: bool

    def start(self, circuit: Any, testbench: Any = None) -> Callable[..., list]:
        bench = testbench or _make_testbench(circuit, self.library)
        # Bound once for the whole sweep, not once per work item.
        measure = bench.prepare_sweep(self.in1, self.in2)

        def run(units: Sequence[int]) -> list[dict[str, Any]]:
            measurements = measure([self.triads[unit] for unit in units])
            return [
                measurement_to_payload(m, circuit.output_width, self.keep_latched)
                for m in measurements
            ]

        return run


@dataclasses.dataclass(frozen=True)
class _FaultKernel:
    """Stuck-at campaign: unit ``i`` is fault site ``faults[i]``."""

    kind: ClassVar[str] = "faults"
    version: ClassVar[int] = PAYLOAD_VERSION
    in1: np.ndarray
    in2: np.ndarray
    faults: tuple[StuckAtFault, ...]

    def start(self, circuit: Any) -> Callable[..., list]:
        simulator = StuckAtFaultSimulator(
            circuit.netlist, output_ports=circuit.output_ports()
        )
        assignment = circuit.input_assignment(self.in1, self.in2)
        n_vectors = int(self.in1.size)

        def run(units: Sequence[int]) -> list[dict[str, Any]]:
            results = simulator.run(assignment, [self.faults[unit] for unit in units])
            return [_fault_result_to_payload(r, n_vectors) for r in results]

        return run


def _fault_result_to_payload(
    result: FaultSimulationResult, n_vectors: int
) -> dict[str, Any]:
    return {
        "payload_version": PAYLOAD_VERSION,
        "fault": {"net": result.fault.net, "value": bool(result.fault.stuck_value)},
        "detected": bool(result.detected),
        "faulty_vector_fraction": result.faulty_vector_fraction,
        "ber": result.ber,
        "n_vectors": n_vectors,
    }


def _payload_to_fault_result(payload: Mapping[str, Any]) -> FaultSimulationResult:
    fault = payload["fault"]
    return FaultSimulationResult(
        fault=StuckAtFault(net=int(fault["net"]), stuck_value=bool(fault["value"])),
        detected=bool(payload["detected"]),
        faulty_vector_fraction=float(payload["faulty_vector_fraction"]),
        ber=float(payload["ber"]),
    )


# ---------------------------------------------------------------------------
# Plan builders
# ---------------------------------------------------------------------------


def run_characterization_sweep(
    circuit: Any,
    grid: TriadGrid,
    in1: np.ndarray,
    in2: np.ndarray,
    stimulus: Mapping[str, Any],
    *,
    library: StandardCellLibrary = DEFAULT_LIBRARY,
    jobs: int = 1,
    store: SweepResultStore | None = None,
    keep_latched: bool = True,
    testbench: Any = None,
    policy: ExecutionPolicy | None = None,
    chaos: ChaosPlan | None = None,
    report: ExecutionReport | None = None,
) -> list[dict[str, Any]]:
    """Characterize a circuit over a triad grid, sharded, cached, resilient.

    Parameters
    ----------
    circuit:
        :class:`AdderCircuit` or :class:`MultiplierCircuit` under test.
    grid:
        The triad grid to sweep.
    in1, in2:
        Operand streams (already resolved from the pattern config).
    stimulus:
        Cache-key components of the stimulus (:func:`pattern_stimulus` or
        :func:`operand_stimulus`).
    library:
        Standard-cell library used by the simulation.
    jobs:
        Worker processes; ``1`` executes in-process.  Results are
        bit-identical for every value.
    store:
        Optional result store; ``None`` disables persistence.  Completed
        shards flush to it the moment they finish (and the in-process path
        flushes per operating-point group), so a run killed mid-flight
        resumes warm.
    keep_latched:
        Whether payloads must carry the latched output words (required to
        reconstruct raw measurements).  Cached entries without them are
        recomputed when requested.
    testbench:
        Optional pre-built testbench to reuse for in-process execution.
    policy:
        :class:`~repro.core.resilience.ExecutionPolicy` governing retries,
        per-shard timeouts and the failure action of the sharded path.
    chaos:
        Optional deterministic fault-injection plan (tests / chaos CI only).
    report:
        Optional :class:`~repro.core.resilience.ExecutionReport` to
        accumulate recovery accounting into.

    Returns
    -------
    list of payload dicts in grid order.
    """
    triads = tuple(grid)
    fingerprint = netlist_fingerprint(circuit.netlist)
    base_components: dict[str, Any] = {
        "scenario": "characterization",
        "engine_version": ENGINE_VERSION,
        "circuit": fingerprint,
        "circuit_name": circuit.name,
        "library": library_fingerprint(library),
        "stimulus": dict(stimulus),
    }
    kernel = _TriadKernel(
        library=library,
        in1=np.asarray(in1, dtype=np.int64),
        in2=np.asarray(in2, dtype=np.int64),
        triads=triads,
        keep_latched=keep_latched,
    )
    n_vectors = int(kernel.in1.size)

    def point(unit: int) -> tuple[float, float]:
        return _operating_point(triads[unit])

    def usable(unit: int, payload: Mapping[str, Any] | None) -> bool:
        return (
            payload is not None
            and payload.get("payload_version") == PAYLOAD_VERSION
            and payload.get("n_vectors") == n_vectors
            and (not keep_latched or "latched_words" in payload)
        )

    plan = SweepPlan(
        circuit=circuit,
        fingerprint=fingerprint,
        kernel=kernel,
        keys=[
            SweepResultStore.entry_key(
                {
                    **base_components,
                    "triad": {"tclk": t.tclk, "vdd": t.vdd, "vbb": t.vbb},
                }
            )
            for t in triads
        ],
        usable=usable,
        # One work item per (vdd, vbb) group: the sweep-level reuse lives
        # inside a group, so chunking changes no numbers.
        work_items=lambda missing: _group_by(missing, point),
        shards=lambda items, jobs: _balance(items, jobs, point),
        start=lambda: kernel.start(circuit, testbench),
    )
    return execute_sweep(
        plan, jobs=jobs, store=store, policy=policy, chaos=chaos, report=report
    )


def run_fault_sweep(
    circuit: Any,
    in1: np.ndarray,
    in2: np.ndarray,
    stimulus: Mapping[str, Any],
    *,
    faults: Sequence[StuckAtFault] | None = None,
    jobs: int = 1,
    store: SweepResultStore | None = None,
    policy: ExecutionPolicy | None = None,
    chaos: ChaosPlan | None = None,
    report: ExecutionReport | None = None,
) -> list[FaultSimulationResult]:
    """Run a stuck-at fault campaign, sharded over fault sites and cached.

    The fault list (default: the full single-stuck-at universe of the
    circuit) is dealt round-robin across ``jobs`` workers; each worker
    evaluates its sites on the compiled packed engine.  Per-fault
    results are stored content-addressed, keyed on (circuit, stimulus,
    fault, engine version) -- the cell library does not enter the key because
    stuck-at simulation is purely functional.

    ``policy`` / ``chaos`` / ``report`` configure and account the
    fault-tolerant shard engine exactly as in
    :func:`run_characterization_sweep`; completed shards (and, in-process,
    fixed-size fault blocks) flush to the store immediately.
    """
    fault_list = tuple(
        enumerate_stuck_at_faults(circuit.netlist) if faults is None else faults
    )
    fingerprint = netlist_fingerprint(circuit.netlist)
    base_components: dict[str, Any] = {
        "scenario": "stuck_at",
        "engine_version": ENGINE_VERSION,
        "circuit": fingerprint,
        "circuit_name": circuit.name,
        "stimulus": dict(stimulus),
    }
    kernel = _FaultKernel(
        in1=np.asarray(in1, dtype=np.int64),
        in2=np.asarray(in2, dtype=np.int64),
        faults=fault_list,
    )
    n_vectors = int(kernel.in1.size)

    def usable(unit: int, payload: Mapping[str, Any] | None) -> bool:
        # Entries that predate the n_vectors field stay usable.
        return (
            payload is not None
            and payload.get("payload_version") == PAYLOAD_VERSION
            and payload.get("n_vectors", n_vectors) == n_vectors
        )

    def blocks(missing: list[int]) -> list[list[int]]:
        step = SERIAL_FAULT_FLUSH_BLOCK
        return [missing[start : start + step] for start in range(0, len(missing), step)]

    def strided(items: list[list[int]], jobs: int) -> list[list[int]]:
        missing = [unit for item in items for unit in item]
        n_shards = min(jobs, len(missing))
        return [missing[start::n_shards] for start in range(n_shards)]

    plan = SweepPlan(
        circuit=circuit,
        fingerprint=fingerprint,
        kernel=kernel,
        keys=[
            SweepResultStore.entry_key(
                {
                    **base_components,
                    "fault": {"net": fault.net, "value": bool(fault.stuck_value)},
                }
            )
            for fault in fault_list
        ],
        usable=usable,
        work_items=blocks,
        shards=strided,
    )
    payloads = execute_sweep(
        plan, jobs=jobs, store=store, policy=policy, chaos=chaos, report=report
    )
    return [_payload_to_fault_result(payload) for payload in payloads]
