"""Fitness evaluation of partitions and partition groups (Sec. III-C1).

The model is optimised for the fitness the user specifies — latency
(throughput) or energy-delay product.  Each partition is a sub-model fully
mapped on chip, so its fitness comes from the on-chip optimizer/estimator
(:mod:`repro.onchip`); the partition-group fitness (PGF) is the sum of its
partitions' fitnesses.  Lower is better, matching the ascending sorts of
Algorithm 1.

Partition estimates are served by the shared span table and its dense
span matrix (:mod:`repro.perf`), so the genetic algorithm can evaluate
thousands of partition groups without recomputing shared partitions —
within one run, across runs on the same decomposition, and across batch
sizes (the batch-independent span profile is reused).  This is the one
production path; the naive per-call estimator survives only as the test
oracle that pins it bit for bit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.decomposition import ModelDecomposition
from repro.core.partition import PartitionGroup, PartitionGroups, flat_spans
from repro.hardware.chip import ChipConfig
from repro.hardware.dram import DRAMConfig, LPDDR3_8GB
from repro.onchip.estimator import PartitionEstimate
from repro.perf.spanmatrix import SpanMatrix, span_matrix_for
from repro.perf.spantable import SpanTable, span_table_for


class FitnessMode(enum.Enum):
    """What the optimiser minimises."""

    LATENCY = "latency"
    EDP = "edp"


@dataclass
class GroupEvaluation:
    """Fitness of a partition group and of each of its partitions.

    ``estimates`` materialise lazily: the search engines only consume the
    per-partition fitnesses, which come from span-matrix gathers, so the
    full per-partition latency/energy breakdowns are fetched from the span
    table on first access (bit-identical — the table caches, it never
    approximates).  The test oracle passes its estimates up front.
    """

    group: PartitionGroup
    partition_fitness: List[float]
    _estimates: Optional[List[PartitionEstimate]] = None
    _span_table: Optional["SpanTable"] = None
    _batch_size: int = 0
    #: cached PGF — the GA reads ``fitness`` many times per individual
    #: (sorting, selection, records), so the sum is computed once
    _fitness: Optional[float] = field(default=None, repr=False, compare=False)
    _fitness_array: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    _span_bounds: Optional[Tuple[np.ndarray, np.ndarray]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def estimates(self) -> List[PartitionEstimate]:
        """Per-partition estimates (materialised on demand)."""
        if self._estimates is None:
            if self._span_table is None:
                raise ValueError("evaluation has neither estimates nor a span table")
            self._estimates = self._span_table.estimate_group(self.group, self._batch_size)
        return self._estimates

    @property
    def fitness(self) -> float:
        """Partition-group fitness (PGF): sum of partition fitnesses (cached)."""
        value = self._fitness
        if value is None:
            value = sum(self.partition_fitness)
            self._fitness = value
        return value

    @property
    def fitness_array(self) -> np.ndarray:
        """Per-partition fitnesses as a float64 array (cached)."""
        array = self._fitness_array
        if array is None:
            array = np.asarray(self.partition_fitness, dtype=float)
            self._fitness_array = array
        return array

    @property
    def span_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """(starts, ends) index arrays of the group's partition spans (cached)."""
        if self._span_bounds is None:
            group = self.group
            self._span_bounds = flat_spans([group.boundaries], [group.num_partitions])
        return self._span_bounds

    @property
    def total_latency_ns(self) -> float:
        """Total latency of executing all partitions sequentially."""
        return sum(e.latency_ns for e in self.estimates)

    @property
    def total_energy_pj(self) -> float:
        """Total energy of executing all partitions."""
        return sum(e.energy_pj for e in self.estimates)

    @property
    def edp(self) -> float:
        """Energy-delay product of the whole execution (pJ * ns)."""
        return self.total_energy_pj * self.total_latency_ns


class FitnessEvaluator:
    """Cached fitness oracle used by the GA and the baseline partitioners."""

    def __init__(
        self,
        decomposition: ModelDecomposition,
        batch_size: int = 1,
        mode: FitnessMode = FitnessMode.LATENCY,
        dram_config: DRAMConfig = LPDDR3_8GB,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.decomposition = decomposition
        self.chip: ChipConfig = decomposition.chip
        self.batch_size = batch_size
        self.mode = mode
        self.span_table: SpanTable = span_table_for(decomposition, dram_config)
        self.span_matrix: SpanMatrix = span_matrix_for(decomposition, dram_config)

    # ------------------------------------------------------------------
    @property
    def span_stats(self) -> Dict[str, float]:
        """Cache statistics of the span-table engine backing this evaluator."""
        return self.span_table.stats.as_dict()

    def evaluate(self, group: PartitionGroup) -> GroupEvaluation:
        """Evaluate one partition group: ``evaluate_many([group])[0]``.

        In latency mode the PGF (sum of partition fitnesses) is exactly the
        end-to-end latency.  In EDP mode the end-to-end metric is
        ``(sum of energies) x (sum of latencies)``, which is not additive over
        partitions, so the per-partition fitnesses are rescaled to keep their
        sum equal to the group EDP while preserving their relative ordering
        (which is what the partition score of Sec. III-C2 consumes).
        """
        return self.evaluate_many([group])[0]

    # ------------------------------------------------------------------
    def evaluate_many(self, groups: Sequence[PartitionGroup]) -> List[GroupEvaluation]:
        """Evaluate a whole population of partition groups at once.

        The population's cut tuples become parallel (start, end) index
        arrays (:func:`~repro.core.partition.flat_spans`, which a
        :class:`~repro.core.partition.PartitionGroups` batch already holds),
        missing spans are profiled once into the dense span matrix (the
        delta), and every per-partition fitness comes from one
        fancy-indexed gather plus elementwise math — no per-span Python.
        Each evaluation's ``span_bounds`` and (unless EDP rescaled it)
        ``fitness_array`` are slices of those flat arrays.  The per-group
        fitness sums stay sequential left-to-right sums, so results are
        bit-identical to summing per-span estimates one group at a time
        (NumPy's pairwise reductions are not).
        """
        if not groups:
            return []
        matrix = self.span_matrix

        counts = [group.num_partitions for group in groups]
        if isinstance(groups, PartitionGroups):
            starts, ends = groups.spans
        else:
            starts, ends = flat_spans([group.boundaries for group in groups], counts)

        table = self.span_table
        batch = self.batch_size
        edp = self.mode is FitnessMode.EDP
        if edp:
            energy, latency = matrix.gather_energy_latency(starts, ends, batch)
            # same elementwise association as estimate.edp * 1e-12 per span
            span_fitness = (energy * latency) * 1e-12
            energy_list = energy.tolist()
            latency_list = latency.tolist()
        else:
            span_fitness = matrix.gather_latency(starts, ends, batch)
        span_fitness.setflags(write=False)  # evaluations share slices of it
        values = span_fitness.tolist()

        evaluations: List[GroupEvaluation] = []
        position = 0
        for group, count in zip(groups, counts):
            stop = position + count
            fitness = values[position:stop]
            array: Optional[np.ndarray] = span_fitness[position:stop]
            if edp:
                group_edp = (
                    sum(energy_list[position:stop])
                    * sum(latency_list[position:stop])
                    * 1e-12
                )
                share_total = sum(fitness)
                if share_total > 0 and group_edp > 0:
                    fitness = [f / share_total * group_edp for f in fitness]
                    array = None
            evaluations.append(
                GroupEvaluation(
                    group=group, partition_fitness=fitness,
                    _span_table=table, _batch_size=batch,
                    _fitness_array=array,
                    _span_bounds=(starts[position:stop], ends[position:stop]),
                )
            )
            position = stop
        return evaluations
