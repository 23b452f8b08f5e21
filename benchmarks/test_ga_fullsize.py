"""Full-size COMPASS GA benchmark: the paper's actual search scale.

The figure benchmarks shrink the GA (``ExperimentConfig.fast()`` or the
``tiny_ga`` fixture) so the whole harness stays fast; this benchmark runs
the paper-default ``GAConfig`` (population 100, 30 generations, Sec. IV-A3)
on ResNet18-M-16 — the workload the dense span-matrix engine exists for.
Unlike the quick headliners it is dominated by *population scoring* rather
than first-time span profiling, so it tracks the whole-population gather
path specifically.
"""

import pytest

from repro.core.ga import GAConfig
from repro.evaluation.experiments import ga_paper_scale


def test_ga_fullsize_resnet18(benchmark):
    result = benchmark.pedantic(
        ga_paper_scale,
        kwargs={"model": "resnet18", "chip_name": "M", "batch_size": 16},
        rounds=1, iterations=1,
    )

    defaults = GAConfig()
    print("\nFull-size GA — ResNet18-M-16, paper-default GAConfig "
          f"({defaults.population_size}x{defaults.generations})")
    print(f"generations run: {result.generations_run}, best fitness: {result.best_fitness:.3e}")
    print(f"evaluations: {result.evaluations} total, {result.unique_evaluations} unique, "
          f"{result.dedup_hits} dedup hits ({result.dedup_hit_rate:.0%})")
    print(f"span stats: {result.span_stats}")

    # the run is a real search at paper scale
    assert result.evaluations >= defaults.population_size
    assert result.evaluations == result.unique_evaluations + result.dedup_hits
    best = [record.best_fitness for record in result.history]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(best, best[1:]))
    assert best[-1] <= best[0]

    # the dense span-matrix engine carried the population scoring: spans were
    # materialised into the matrix and the bulk of lookups were gather-served
    assert result.span_stats, "GA ran without the span engine"
    assert result.span_stats["matrix_fills"] + result.span_stats["matrix_hits"] > 0
    assert result.span_stats["matrix_hit_rate"] > 0.5
