"""Simulated annealing over partition groups.

A single-chain counterpart to the GA: the state is one partition group, a
move applies one of the GA's own mutation kernels (merge / split / move /
fixed-random, :mod:`repro.core.mutation`), and moves that worsen the fitness
are accepted with the Metropolis probability ``exp(-delta / T)`` under a
geometric cooling schedule.  Because it shares the mutation kernels and the
fitness evaluator with the GA, its moves hit the same shared span table and
dense span matrix — an annealing run after a GA run on the same
decomposition is almost entirely gathers.

Mutation targeting reuses the paper's partition score (Sec. III-C2): the
expectation the scores are computed against comes from a small random
reference population drawn once at start-up (the annealer has no population
of its own to average over).  Randomness is batched like the GA's: the
per-step mutation-kind permutations and the Metropolis uniforms are drawn in
one generator call each at the start of the run, and the mutation kernels
consume their own block samplers.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.decomposition import ModelDecomposition
from repro.core.fitness import FitnessEvaluator, GroupEvaluation
from repro.core.mutation import MutationKind, apply_mutation, mutation_targets
from repro.core.partition import PartitionGroup
from repro.core.score import partition_scores, population_unit_expectation
from repro.core.validity import ValidityMap
from repro.search.base import PartitionSearch, SearchResult, SearchStep


class SimulatedAnnealing(PartitionSearch):
    """Metropolis search over partition groups using the GA mutation kernels."""

    name = "anneal"

    def __init__(
        self,
        decomposition: ModelDecomposition,
        evaluator: FitnessEvaluator,
        validity: Optional[ValidityMap] = None,
        steps: int = 500,
        initial_temperature: float = 0.05,
        cooling: float = 0.99,
        reference_size: int = 12,
        seed: int = 0,
        mutation_kinds: Optional[List[MutationKind]] = None,
    ) -> None:
        super().__init__(decomposition, evaluator, validity)
        if steps <= 0:
            raise ValueError("steps must be positive")
        if not 0.0 < cooling <= 1.0:
            raise ValueError("cooling must be in (0, 1]")
        if initial_temperature < 0.0:
            raise ValueError("initial_temperature must be non-negative")
        self.steps = steps
        #: starting temperature as a fraction of the initial fitness
        self.initial_temperature = initial_temperature
        self.cooling = cooling
        self.reference_size = reference_size
        self.rng = np.random.default_rng(seed)
        self.mutation_kinds: List[MutationKind] = (
            list(mutation_kinds) if mutation_kinds is not None else list(MutationKind)
        )
        if not self.mutation_kinds:
            raise ValueError("at least one mutation kind is required")

    # ------------------------------------------------------------------
    def _run(self) -> SearchResult:
        decomposition = self.decomposition
        evaluator = self.evaluator
        rng = self.rng
        num_units = decomposition.num_units

        # start from a random valid group, like one GA chromosome
        current_bounds = tuple(self.validity.random_partition_boundaries(rng))
        cache: Dict[Tuple[int, ...], GroupEvaluation] = {}
        evaluations = 0

        def evaluate(bounds: Tuple[int, ...]) -> GroupEvaluation:
            nonlocal evaluations
            evaluations += 1
            evaluation = cache.get(bounds)
            if evaluation is None:
                group = PartitionGroup.from_boundaries(decomposition, bounds)
                evaluation = evaluator.evaluate(group)
                cache[bounds] = evaluation
            return evaluation

        current = evaluate(current_bounds)

        # mutation-score expectation from a small random reference population
        # (scored in one evaluate_many batch — a dense-matrix gather)
        reference_bounds = [
            tuple(self.validity.random_partition_boundaries(rng))
            for _ in range(self.reference_size)
        ]
        reference = evaluator.evaluate_many(
            PartitionGroup.from_boundaries_many(decomposition, reference_bounds)
        )
        evaluations += len(reference)
        expectation = population_unit_expectation(
            list(reference) + [current], num_units
        )

        # batched randomness: one permutation matrix for the per-step
        # mutation-kind orders, one block of Metropolis uniforms
        kind_orders = rng.permuted(
            np.tile(np.arange(len(self.mutation_kinds)), (self.steps, 1)), axis=1
        )
        accept_uniform = rng.random(self.steps)

        best = current
        temperature = self.initial_temperature * current.fitness
        history: List[SearchStep] = []
        kinds = self.mutation_kinds
        for step in range(self.steps):
            targets = mutation_targets(partition_scores(current, expectation))
            mutated: Optional[Tuple[int, ...]] = None
            for index in kind_orders[step]:
                mutated = apply_mutation(
                    kinds[index], current.group, self.validity, targets, rng
                )
                if mutated is not None:
                    break
            accepted = False
            candidate_fitness = float("inf")
            if mutated is not None and mutated != current.group.boundaries:
                candidate = evaluate(mutated)
                candidate_fitness = candidate.fitness
                delta = candidate.fitness - current.fitness
                if delta < 0:
                    accepted = True
                elif temperature > 0.0:
                    accepted = bool(
                        accept_uniform[step] < math.exp(-delta / temperature)
                    )
                if accepted:
                    current = candidate
                    if current.fitness < best.fitness:
                        best = current
            temperature *= self.cooling
            history.append(
                SearchStep(
                    step=step,
                    best_fitness=best.fitness,
                    candidate_fitness=candidate_fitness,
                    accepted=accepted,
                    num_partitions=current.group.num_partitions,
                )
            )

        return SearchResult(
            optimizer=self.name,
            best_group=best.group,
            best_evaluation=best,
            history=history,
            steps_run=self.steps,
            evaluations=evaluations,
            exact=False,
        )
