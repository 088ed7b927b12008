"""Batched candidate evaluation on the cached sweep orchestrator.

Evaluating one candidate means lowering it to a circuit, deriving its triad
grid from the space's :class:`~repro.explore.space.TriadSpec`, and running
the grid as one :class:`~repro.core.characterization.CharacterizationFlow`
job -- which executes on the sharded orchestrator of
:mod:`repro.core.sweep`: the grid fans out over ``jobs``
``ProcessPoolExecutor`` workers and every completed triad is persisted in
the content-addressed :class:`~repro.core.store.SweepResultStore` under
exactly the fingerprint keys ``repro characterize`` uses, so exploration and
characterization share one warm cache and re-screening a candidate at a
fidelity it was already evaluated at costs no simulation at all.

The evaluator is deliberately summary-only (``keep_measurements=False``):
the search strategies need (BER, energy) points, not raw latched words.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Sequence

import numpy as np

from repro.core import sweep as sweep_module
from repro.core.characterization import CharacterizationFlow
from repro.core.resilience import ExecutionPolicy, ExecutionReport
from repro.core.store import SweepResultStore
from repro.core.triad import OperatingTriad
from repro.explore.frontier import FrontierPoint
from repro.obs.trace import span
from repro.explore.space import DesignSpace, OperatorCandidate, TriadSpec
from repro.simulation.patterns import PatternConfig, generate_patterns
from repro.technology.library import DEFAULT_LIBRARY, StandardCellLibrary
from repro.variation.montecarlo import MonteCarloConfig, run_montecarlo_sweep


def robust_tag(variation: MonteCarloConfig, quantile: float) -> str:
    """Scoring-identity tag of a robust (quantile-BER) evaluation.

    Covers everything that changes what a robust BER *means*: the quantile
    and the Monte Carlo corner, mismatch model, sample count and variation
    seed.  Recorded on every frontier point so nominal and differently
    configured robust measurements never compete on resume.
    """
    model = variation.model
    return (
        f"q{quantile:g}/{variation.corner.value}"
        f"/n{variation.n_samples}s{variation.seed}"
        f"/vt{model.sigma_vt:g}k{model.sigma_current_factor:g}"
    )


@dataclasses.dataclass(frozen=True)
class DesignPoint:
    """One (candidate, triad) evaluation outcome.

    ``robust`` carries the scoring-identity tag (:func:`robust_tag`) when
    the BER is a quantile over Monte Carlo variation samples; ``None`` marks
    a nominal-BER point.
    """

    candidate: OperatorCandidate
    triad: OperatingTriad
    ber: float
    mse: float
    energy_per_operation: float
    n_vectors: int
    seed: int = 2017
    pattern_kind: str = "uniform"
    robust: str | None = None

    def to_frontier_point(self) -> FrontierPoint:
        """The point's representation on the Pareto frontier."""
        return FrontierPoint(
            ber=self.ber,
            energy_per_operation=self.energy_per_operation,
            architecture=self.candidate.architecture,
            width=self.candidate.width,
            window=self.candidate.window,
            triad=self.triad,
            mse=self.mse,
            n_vectors=self.n_vectors,
            seed=self.seed,
            pattern_kind=self.pattern_kind,
            robust=self.robust,
        )


@dataclasses.dataclass(frozen=True)
class CandidateEvaluation:
    """All design points of one candidate at one stimulus fidelity.

    Attributes
    ----------
    candidate:
        The evaluated operator configuration.
    n_vectors:
        Stimulus size of this evaluation.
    points:
        One :class:`DesignPoint` per triad, in grid order.
    reference_energy:
        Energy per operation of the candidate's nominal (ideal) triad --
        the baseline its energy savings are quoted against.
    """

    candidate: OperatorCandidate
    n_vectors: int
    points: tuple[DesignPoint, ...]
    reference_energy: float


@dataclasses.dataclass
class EvaluatorStats:
    """Work counters of one evaluator instance."""

    candidate_evaluations: int = 0
    triad_evaluations: int = 0
    evaluations_by_fidelity: dict[int, int] = dataclasses.field(default_factory=dict)


#: Flows kept alive between evaluations of the same candidate (screening ->
#: promotion).  Bounded: a large space would otherwise pin every built
#: netlist and testbench in memory for the evaluator's lifetime, and
#: rebuilding an evicted flow costs only a generator run + plan compile.
FLOW_CACHE_SIZE = 64


class CandidateEvaluator:
    """Evaluate operator candidates over the space's triad axes.

    Parameters
    ----------
    space:
        The design space (its :class:`TriadSpec` defines every candidate's
        grid); alternatively pass a bare :class:`TriadSpec`.
    library:
        Standard-cell library used by the simulations.
    jobs:
        Worker processes per candidate sweep (``1`` = in-process).
    store:
        Optional shared result store; exploration keys are identical to the
        characterization flow's, so any warm store accelerates both.
    pattern_kind / seed:
        Stimulus configuration; the seed is shared across candidates (each
        width draws its own operand stream from it, deterministically).
    sta_margin:
        Clock-path pessimism factor (see :class:`CharacterizationFlow`).
    variation:
        Optional :class:`~repro.variation.montecarlo.MonteCarloConfig`.
        When set, every design point is scored by its **quantile BER** over
        the sampled variation instances instead of the nominal BER (and by
        the mean Monte Carlo energy), so the search optimises a Pareto
        frontier that is robust under process variation.  Monte Carlo
        entries shard and cache through the same store as nominal sweeps.
    robust_quantile:
        The BER quantile used for robust scoring (default 0.95 -- "19 of 20
        manufactured dies are at least this good").
    policy / report:
        Optional fault-tolerance policy and accounting report threaded
        through every sharded sweep (see :mod:`repro.core.resilience`).
    """

    def __init__(
        self,
        space: DesignSpace | TriadSpec,
        library: StandardCellLibrary = DEFAULT_LIBRARY,
        jobs: int = 1,
        store: SweepResultStore | None = None,
        pattern_kind: str = "uniform",
        seed: int = 2017,
        sta_margin: float = 1.5,
        variation: MonteCarloConfig | None = None,
        robust_quantile: float = 0.95,
        policy: ExecutionPolicy | None = None,
        report: ExecutionReport | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if not 0.0 <= robust_quantile <= 1.0:
            raise ValueError("robust_quantile must lie within [0, 1]")
        self._triads = space.triads if isinstance(space, DesignSpace) else space
        self._library = library
        self._jobs = jobs
        self._store = store
        self._policy = policy
        self._report = report
        self._pattern_kind = pattern_kind
        self._seed = seed
        self._sta_margin = sta_margin
        self._variation = variation
        self._robust_quantile = robust_quantile
        self._flows: collections.OrderedDict[
            OperatorCandidate, CharacterizationFlow
        ] = collections.OrderedDict()
        self.stats = EvaluatorStats()

    @property
    def store(self) -> SweepResultStore | None:
        """The shared result store (or ``None`` when caching is disabled)."""
        return self._store

    @property
    def seed(self) -> int:
        """Stimulus seed shared by every evaluation."""
        return self._seed

    def _flow_for(self, candidate: OperatorCandidate) -> CharacterizationFlow:
        flow = self._flows.get(candidate)
        if flow is None:
            flow = CharacterizationFlow(
                candidate.build(),
                library=self._library,
                sta_margin=self._sta_margin,
            )
            self._flows[candidate] = flow
            if len(self._flows) > FLOW_CACHE_SIZE:
                self._flows.popitem(last=False)
        else:
            self._flows.move_to_end(candidate)
        return flow

    def evaluate(
        self, candidate: OperatorCandidate, n_vectors: int
    ) -> CandidateEvaluation:
        """Evaluate one candidate over its triad grid at one fidelity."""
        if n_vectors <= 0:
            raise ValueError("n_vectors must be positive")
        with span(
            "explore.evaluate",
            candidate=candidate.name,
            n_vectors=n_vectors,
        ):
            return self._evaluate_body(candidate, n_vectors)

    def _evaluate_body(
        self, candidate: OperatorCandidate, n_vectors: int
    ) -> CandidateEvaluation:
        flow = self._flow_for(candidate)
        grid = self._triads.grid_for(flow)
        config = PatternConfig(
            n_vectors=n_vectors,
            width=candidate.width,
            seed=self._seed,
            kind=self._pattern_kind,
        )
        characterization = flow.run(
            triads=grid,
            pattern=config,
            keep_measurements=False,
            jobs=self._jobs,
            store=self._store,
            policy=self._policy,
            report=self._report,
        )
        robust = self._robust_scores(flow, grid, config)
        tag = (
            robust_tag(self._variation, self._robust_quantile)
            if self._variation is not None
            else None
        )
        points = tuple(
            DesignPoint(
                candidate=candidate,
                triad=entry.triad,
                ber=robust[entry.triad][0] if robust else entry.ber,
                mse=entry.mse,
                energy_per_operation=(
                    robust[entry.triad][1]
                    if robust
                    else entry.energy_per_operation
                ),
                n_vectors=n_vectors,
                seed=self._seed,
                pattern_kind=self._pattern_kind,
                robust=tag,
            )
            for entry in characterization.results
        )
        self.stats.candidate_evaluations += 1
        self.stats.triad_evaluations += len(points)
        self.stats.evaluations_by_fidelity[n_vectors] = (
            self.stats.evaluations_by_fidelity.get(n_vectors, 0) + 1
        )
        return CandidateEvaluation(
            candidate=candidate,
            n_vectors=n_vectors,
            points=points,
            reference_energy=characterization.reference_energy,
        )

    def _robust_scores(
        self, flow: CharacterizationFlow, grid, config: PatternConfig
    ) -> dict[OperatingTriad, tuple[float, float]]:
        """Quantile BER and mean Monte Carlo energy per triad (or empty).

        Empty when no variation config is set (nominal scoring).  The Monte
        Carlo run shares the evaluator's store and worker pool, so repeated
        scoring of a candidate at the same fidelity replays from cache.
        """
        if self._variation is None:
            return {}
        in1, in2 = generate_patterns(config)
        results = run_montecarlo_sweep(
            flow.adder,
            grid,
            in1,
            in2,
            sweep_module.pattern_stimulus(config),
            config=self._variation,
            library=self._library,
            jobs=self._jobs,
            store=self._store,
            policy=self._policy,
            report=self._report,
        )
        return {
            result.triad: (
                result.ber_quantile(self._robust_quantile),
                float(np.asarray(result.energy_samples).mean()),
            )
            for result in results
        }

    def evaluate_many(
        self, candidates: Sequence[OperatorCandidate], n_vectors: int
    ) -> list[CandidateEvaluation]:
        """Evaluate a batch of candidates (deterministic input order)."""
        return [self.evaluate(candidate, n_vectors) for candidate in candidates]

    def evaluations_at(self, n_vectors: int) -> int:
        """How many candidate evaluations ran at the given fidelity."""
        return self.stats.evaluations_by_fidelity.get(n_vectors, 0)
