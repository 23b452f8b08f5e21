"""Fig. 10: evolution of the GA population's fitness over generations.

Paper observations for "ResNet18-M-16": the population steadily evolves
towards the selected individuals, an optimal number of partitions is reached
within ~10 generations, and fitness keeps improving within that partition
count afterwards.
"""

import numpy as np
import pytest

from repro.core.ga import GAConfig
from repro.evaluation.experiments import fig10_ga_convergence


def test_fig10_ga_convergence(benchmark):
    ga_config = GAConfig(population_size=30, generations=15, n_select=8, n_mutate=22,
                         early_stop_patience=15, seed=0)
    result = benchmark.pedantic(
        fig10_ga_convergence,
        kwargs={"model": "resnet18", "chip_name": "M", "batch_size": 16,
                "ga_config": ga_config},
        rounds=1, iterations=1,
    )

    history = result.history
    print("\nFig. 10 — GA fitness convergence, ResNet18-M-16 (reproduced)")
    print(f"evaluations: {result.evaluations} total, {result.unique_evaluations} unique, "
          f"{result.dedup_hits} dedup hits ({result.dedup_hit_rate:.0%})")
    print(f"span-table stats: {result.span_stats}")
    print("gen  best_fitness  mean_fitness  best_#partitions  population_#partitions(min-max)")
    for record in history:
        best_parts = record.num_partitions[int(np.argmin(record.fitnesses))]
        print(f"{record.generation:3d}  {record.best_fitness:12.3e}  {record.mean_fitness:12.3e}"
              f"  {best_parts:16d}  {min(record.num_partitions)}-{max(record.num_partitions)}")

    best = [r.best_fitness for r in history]
    mean = [r.mean_fitness for r in history]

    # the best individual never gets worse (elitist selection)
    assert all(b <= a * (1 + 1e-9) for a, b in zip(best, best[1:]))
    # the population improves overall: final mean better than initial mean
    assert mean[-1] < mean[0]
    # the search actually helps: final best clearly better than the initial best
    assert best[-1] <= best[0]
    # the number of partitions of the best individual stabilises in the second half
    second_half = [r.num_partitions[int(np.argmin(r.fitnesses))] for r in history[len(history) // 2:]]
    assert max(second_half) - min(second_half) <= 3
    # selected survivors are marked in every generation after the first
    for record in history[1:]:
        assert any(record.selected_mask)

    # the span engine is actually engaged: every chromosome evaluation was
    # accounted for, and repeated span lookups were served from the caches
    # (matrix-served gathers are folded into the latency hit counters)
    assert result.evaluations == result.unique_evaluations + result.dedup_hits
    assert result.span_stats, "GA ran without the span-table engine"
    latency_lookups = (result.span_stats["latencies_computed"]
                       + result.span_stats["latency_hits"])
    assert latency_lookups > 0
    assert result.span_stats["latency_hit_rate"] > 0.3
    # the dense span-matrix path carried the population scoring
    assert result.span_stats["matrix_fills"] + result.span_stats["matrix_hits"] > 0
