"""The COMPASS genetic algorithm (Algorithm 1 of the paper).

Each chromosome is a partition group, each gene a partition.  Every
generation keeps the ``n_select`` best groups by partition-group fitness
(PGF), then produces ``n_mutate`` new groups by mutating groups drawn from
the survivors; the mutation target inside a group is chosen by the partition
score of Sec. III-C2 and mutated with one of the four schemes of
Sec. III-C3 (chosen uniformly, as in the paper's setup).  After the last
generation the best group is returned.

The per-generation population statistics are recorded so Fig. 10 (fitness
convergence and partition-count evolution) can be reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.decomposition import ModelDecomposition
from repro.core.fitness import FitnessEvaluator, FitnessMode, GroupEvaluation
from repro.core.mutation import MutationKind, apply_mutation
from repro.core.partition import PartitionGroup
from repro.core.score import (
    population_partition_scores,
    population_unit_expectation,
)
from repro.core.validity import ValidityMap
from repro.perf.spantable import stats_delta

# numpy.random pulls in ~30 modules lazily on the first Generator
# construction; touch it at import time so that one-off cost never lands
# inside a timed GA run (warm-up only: the Generator is discarded, every
# real draw goes through a seeded rng)
np.random.default_rng()  # repro-lint: disable=unseeded-rng


@dataclass(frozen=True)
class GAConfig:
    """Hyper-parameters of the COMPASS GA (paper defaults, Sec. IV-A3)."""

    population_size: int = 100
    generations: int = 30
    n_select: int = 20
    n_mutate: int = 80
    #: stop early when the best fitness has not improved for this many generations
    early_stop_patience: int = 8
    #: relative improvement below which a generation counts as "no improvement"
    early_stop_tolerance: float = 1e-4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size <= 0 or self.generations <= 0:
            raise ValueError("population_size and generations must be positive")
        if self.n_select <= 0 or self.n_select > self.population_size:
            raise ValueError("n_select must be in (0, population_size]")
        if self.n_mutate < 0:
            raise ValueError("n_mutate must be non-negative")


@dataclass
class GenerationRecord:
    """Population statistics for one generation (for Fig. 10)."""

    generation: int
    best_fitness: float
    mean_fitness: float
    #: fitness of every individual, selected survivors first
    fitnesses: List[float]
    #: number of partitions of every individual (same order as fitnesses)
    num_partitions: List[int]
    #: True for individuals kept from the previous generation (Pi_sel)
    selected_mask: List[bool]


@dataclass
class GAResult:
    """Outcome of a COMPASS GA run."""

    best_group: PartitionGroup
    best_evaluation: GroupEvaluation
    history: List[GenerationRecord]
    generations_run: int
    #: chromosomes scored over the run (including deduplicated repeats)
    evaluations: int
    #: distinct chromosomes actually evaluated
    unique_evaluations: int = 0
    #: chromosome evaluations served from the dedup cache
    dedup_hits: int = 0
    #: this run's span-table statistics (delta over the shared table's
    #: counters during the run)
    span_stats: Dict[str, float] = field(default_factory=dict)

    @property
    def best_fitness(self) -> float:
        """Fitness (PGF) of the best partition group found."""
        return self.best_evaluation.fitness

    @property
    def dedup_hit_rate(self) -> float:
        """Fraction of chromosome evaluations served from the dedup cache."""
        return self.dedup_hits / self.evaluations if self.evaluations else 0.0


class CompassGA:
    """Genetic-algorithm partition optimiser."""

    def __init__(
        self,
        decomposition: ModelDecomposition,
        evaluator: FitnessEvaluator,
        config: GAConfig = GAConfig(),
        validity: Optional[ValidityMap] = None,
        mutation_kinds: Optional[Sequence[MutationKind]] = None,
    ) -> None:
        self.decomposition = decomposition
        self.evaluator = evaluator
        self.config = config
        self.validity = validity if validity is not None else ValidityMap(decomposition)
        self.rng = np.random.default_rng(config.seed)
        #: mutation schemes in play; the paper uses all four with equal probability,
        #: restricting the set is exposed for ablation studies.
        self.mutation_kinds: List[MutationKind] = (
            list(mutation_kinds) if mutation_kinds is not None else list(MutationKind)
        )
        if not self.mutation_kinds:
            raise ValueError("at least one mutation kind is required")
        #: dedup cache: cut-vector -> evaluation; identical chromosomes are
        #: never re-scored, within a generation or across generations
        self._eval_cache: Dict[Tuple[int, ...], GroupEvaluation] = {}
        self._dedup_hits = 0

    # ------------------------------------------------------------------
    # population handling
    # ------------------------------------------------------------------
    def _initial_population(self) -> List[Tuple[int, ...]]:
        """Generate the initial partition groups via the validity map."""
        population: List[Tuple[int, ...]] = []
        seen: set = set()
        attempts = 0
        while len(population) < self.config.population_size:
            bounds = tuple(self.validity.random_partition_boundaries(self.rng))
            attempts += 1
            if bounds in seen and attempts < self.config.population_size * 20:
                continue
            seen.add(bounds)
            population.append(bounds)
        return population

    def _evaluate_population(
        self, population: Sequence[Tuple[int, ...]]
    ) -> List[GroupEvaluation]:
        """Evaluate a population with chromosome-level deduplication.

        The population's cut vectors are zero-padded into one int matrix and
        deduplicated with a vectorized ``np.unique`` over its rows; only
        unique chromosomes not seen in any earlier generation reach the
        evaluator, in one :meth:`FitnessEvaluator.evaluate_many` batch (a
        dense-matrix gather when the span matrix is engaged).  Evaluations
        are immutable downstream, so sharing one object between population
        slots is safe.  Hit accounting matches the historical sequential
        scan: every occurrence beyond a chromosome's first-ever evaluation
        counts as a dedup hit.
        """
        if not population:
            return []
        cache = self._eval_cache
        count = len(population)
        lengths = np.fromiter((len(bounds) for bounds in population),
                              dtype=np.int64, count=count)
        total = int(lengths.sum())
        flat = np.fromiter((end for bounds in population for end in bounds),
                           dtype=np.int64, count=total)
        padded = np.zeros((count, int(lengths.max())), dtype=np.int64)
        rows = np.repeat(np.arange(count), lengths)
        columns = np.arange(total) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        padded[rows, columns] = flat
        unique_rows, inverse = np.unique(padded, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        # boundaries are >= 1, so trailing zeros are unambiguous padding
        unique_bounds = [tuple(row[row > 0].tolist()) for row in unique_rows]

        new_bounds = [bounds for bounds in unique_bounds if bounds not in cache]
        self._dedup_hits += count - len(new_bounds)
        if new_bounds:
            groups = [
                PartitionGroup.from_boundaries(self.decomposition, bounds)
                for bounds in new_bounds
            ]
            for bounds, evaluation in zip(new_bounds, self.evaluator.evaluate_many(groups)):
                cache[bounds] = evaluation
        by_unique = [cache[bounds] for bounds in unique_bounds]
        return [by_unique[i] for i in inverse.tolist()]

    def _mutate_one(
        self,
        evaluation: GroupEvaluation,
        scores: np.ndarray,
        kind_order: np.ndarray,
    ) -> Tuple[int, ...]:
        """Mutate one partition group; falls back to the original on failure.

        ``scores`` are the group's partition R values, precomputed for all
        survivors in one vectorized pass per generation (the scores depend
        only on the survivor and the population expectation, not on the
        mutation draw); ``kind_order`` is this draw's row of the batched
        mutation-scheme permutations.
        """
        kinds = self.mutation_kinds
        for index in kind_order:
            result = apply_mutation(
                kinds[index], evaluation.group, self.validity, scores, self.rng
            )
            if result is not None:
                return result
        return evaluation.group.boundaries

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def _span_stats_delta(self, baseline: Dict[str, float]) -> Dict[str, float]:
        """This run's share of the (shared, cumulative) span-table stats."""
        return stats_delta(self.evaluator.span_stats, baseline)

    def run(self) -> GAResult:
        """Run the COMPASS GA and return the best partition group found."""
        config = self.config
        span_stats_baseline = self.evaluator.span_stats
        population = self._initial_population()
        evaluations = self._evaluate_population(population)
        history: List[GenerationRecord] = []
        selected_mask = [False] * len(evaluations)

        best_eval: Optional[GroupEvaluation] = None
        stale_generations = 0
        generations_run = 0
        total_evaluations = len(evaluations)

        for generation in range(config.generations):
            generations_run = generation + 1
            # sort ascending by PGF (lower fitness = better)
            order = sorted(range(len(evaluations)), key=lambda i: evaluations[i].fitness)
            evaluations = [evaluations[i] for i in order]
            selected_mask = [selected_mask[i] for i in order]

            record = GenerationRecord(
                generation=generation,
                best_fitness=evaluations[0].fitness,
                mean_fitness=float(np.mean([e.fitness for e in evaluations])),
                fitnesses=[e.fitness for e in evaluations],
                num_partitions=[e.group.num_partitions for e in evaluations],
                selected_mask=list(selected_mask),
            )
            history.append(record)

            current_best = evaluations[0]
            if best_eval is None or current_best.fitness < best_eval.fitness * (
                1.0 - config.early_stop_tolerance
            ):
                best_eval = current_best
                stale_generations = 0
            else:
                if best_eval.fitness > current_best.fitness:
                    best_eval = current_best
                stale_generations += 1
            if stale_generations >= config.early_stop_patience:
                break

            # selection
            survivors = evaluations[: config.n_select]
            expectation = population_unit_expectation(evaluations, self.decomposition.num_units)
            # score every survivor once against this generation's expectation;
            # mutation draws below only index into the precomputed arrays
            survivor_scores = population_partition_scores(survivors, expectation)

            # mutation: draw n_mutate parents (with replacement) from the
            # survivors, and this generation's mutation-scheme permutations,
            # in two batched generator calls (per-call RNG overhead is the
            # bulk of the mutation loop otherwise)
            parent_indices = self.rng.integers(
                0, len(survivors), size=config.n_mutate
            ).tolist()
            kind_orders = self.rng.permuted(
                np.tile(np.arange(len(self.mutation_kinds)), (config.n_mutate, 1)),
                axis=1,
            )
            mutated: List[Tuple[int, ...]] = []
            for draw, parent_index in enumerate(parent_indices):
                mutated.append(
                    self._mutate_one(
                        survivors[parent_index],
                        survivor_scores[parent_index],
                        kind_orders[draw],
                    )
                )

            mutated_evals = self._evaluate_population(mutated)
            total_evaluations += len(mutated_evals)
            evaluations = list(survivors) + mutated_evals
            selected_mask = [True] * len(survivors) + [False] * len(mutated_evals)

        # final sort and pick (Algorithm 1, lines 19-21)
        order = sorted(range(len(evaluations)), key=lambda i: evaluations[i].fitness)
        evaluations = [evaluations[i] for i in order]
        final_best = evaluations[0]
        if best_eval is None or final_best.fitness < best_eval.fitness:
            best_eval = final_best

        assert best_eval is not None
        return GAResult(
            best_group=best_eval.group,
            best_evaluation=best_eval,
            history=history,
            generations_run=generations_run,
            evaluations=total_evaluations,
            unique_evaluations=len(self._eval_cache),
            dedup_hits=self._dedup_hits,
            span_stats=self._span_stats_delta(span_stats_baseline),
        )
