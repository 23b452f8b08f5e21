"""Common interface of the partition-search subsystem.

Every engine in :mod:`repro.search` — the exact DP, beam search, simulated
annealing and the GA adapter — solves the same problem: choose the cut
positions of a :class:`~repro.core.partition.PartitionGroup` that minimise
the fitness of :class:`~repro.core.fitness.FitnessEvaluator` (end-to-end
latency, or EDP).  This module defines the pieces they share:

* :class:`PartitionSearch` — the abstract engine interface.  An engine is
  constructed from a decomposition, a fitness evaluator and a validity map,
  and ``run()`` returns a :class:`SearchResult`.
* :class:`SearchResult` — best group + evaluation, per-step records, span
  statistics, and whether the result is provably optimal (``exact``).
* :class:`SpanCostModel` — scalar span costs for the constructive engines
  (DP, beam), served by dense span-matrix gathers.

The per-run span statistics use the same delta-over-shared-counters
accounting as :class:`~repro.core.ga.GAResult.span_stats`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING, Tuple

import numpy as np

from repro.core.decomposition import ModelDecomposition
from repro.core.fitness import FitnessEvaluator, FitnessMode, GroupEvaluation
from repro.core.partition import PartitionGroup
from repro.core.validity import ValidityMap
from repro.perf.spantable import stats_delta

if TYPE_CHECKING:
    from repro.core.ga import GAResult


@dataclass
class SearchStep:
    """One step of a search run (a DP cut position, a beam depth, an
    annealing move, a GA generation — whatever the engine's unit of progress
    is)."""

    step: int
    #: best complete-group fitness known after this step (``inf`` while the
    #: engine has not completed a group yet)
    best_fitness: float
    #: fitness of the candidate this step examined (engine-specific: the
    #: prefix optimum for the DP, the move's fitness for annealing, the
    #: generation mean for the GA)
    candidate_fitness: float = float("inf")
    #: whether the step advanced the search state (always True for
    #: constructive engines; the Metropolis outcome for annealing)
    accepted: bool = True
    #: partitions in the engine's current/best group after this step
    num_partitions: int = 0


@dataclass
class SearchResult:
    """Outcome of one partition-search run, engine-independent."""

    #: registry name of the engine that produced this result
    optimizer: str
    best_group: PartitionGroup
    best_evaluation: GroupEvaluation
    #: per-step records (see :class:`SearchStep`)
    history: List[SearchStep]
    #: steps the engine actually ran (cut positions, depths, moves, generations)
    steps_run: int
    #: group/span evaluations the engine requested (engine-specific unit:
    #: chromosomes for the GA, span costs for DP/beam, moves for annealing)
    evaluations: int
    #: True when the engine proves the result optimal for its objective
    exact: bool = False
    #: this run's span-table statistics (delta over the shared counters)
    span_stats: Dict[str, float] = field(default_factory=dict)
    #: the full GA result when the engine was :class:`~repro.search.GASearch`
    ga_result: Optional["GAResult"] = None

    @property
    def best_fitness(self) -> float:
        """Fitness of the best partition group found (lower is better)."""
        return self.best_evaluation.fitness


class SpanCostModel:
    """Scalar per-span costs for the constructive search engines.

    The DP and beam engines consume *span costs*, not group evaluations: the
    latency of one span in latency mode, the (energy, latency) pair in EDP
    mode.  This wrapper serves them from the evaluator's dense span matrix,
    one fancy-indexed gather for thousands of spans.
    """

    def __init__(self, evaluator: FitnessEvaluator) -> None:
        self.evaluator = evaluator
        self.mode: FitnessMode = evaluator.mode
        self.batch_size = evaluator.batch_size
        self.matrix = evaluator.span_matrix
        #: span-cost lookups served so far
        self.spans_costed = 0

    # ------------------------------------------------------------------
    def latency_costs(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """Latency (ns) of every span ``[starts[k], ends[k])`` at once."""
        self.spans_costed += int(starts.size)
        return self.matrix.gather_latency(starts, ends, self.batch_size)

    def energy_latency_costs(
        self, starts: np.ndarray, ends: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(energy_pj, latency_ns) arrays of many spans, for EDP searches."""
        self.spans_costed += int(starts.size)
        return self.matrix.gather_energy_latency(starts, ends, self.batch_size)


class PartitionSearch(abc.ABC):
    """Abstract partition-search engine.

    Subclasses implement :meth:`_run`; the public :meth:`run` wraps it with
    the shared span-statistics accounting so every engine reports its
    per-run share of the (shared, cumulative) span-table counters.
    """

    #: registry name of the engine (the ``--optimizer`` value)
    name: str = "base"

    def __init__(
        self,
        decomposition: ModelDecomposition,
        evaluator: FitnessEvaluator,
        validity: Optional[ValidityMap] = None,
    ) -> None:
        if evaluator.decomposition is not decomposition:
            raise ValueError("evaluator was built for a different decomposition")
        self.decomposition = decomposition
        self.evaluator = evaluator
        self.validity = validity if validity is not None else ValidityMap(decomposition)

    # ------------------------------------------------------------------
    def run(self) -> SearchResult:
        """Run the search and return the best partition group found."""
        baseline = self.evaluator.span_stats
        result = self._run()
        result.span_stats = stats_delta(
            self.evaluator.span_stats, baseline
        )
        return result

    @abc.abstractmethod
    def _run(self) -> SearchResult:
        """Engine-specific search; ``run()`` adds the shared accounting."""

    # ------------------------------------------------------------------
    def _valid_spans(self) -> Tuple[np.ndarray, np.ndarray]:
        """(starts, ends) arrays of every valid span, from the validity mask.

        The boolean validity matrix is the DP's hot mask; it is cached on the
        :class:`~repro.core.validity.ValidityMap`, so repeated searches on
        one decomposition do not rebuild it.
        """
        mask = self.validity.as_matrix()
        starts, cols = np.nonzero(mask)
        return starts.astype(np.int64), (cols + 1).astype(np.int64)
