"""Tests for repro.core.fitness: fitness evaluation and caching."""

import pytest

from repro.core.baselines import greedy_partition, layerwise_partition
from repro.core.fitness import FitnessEvaluator, FitnessMode
from repro.core.partition import PartitionGroup
from repro.perf.spantable import stats_delta


class TestEvaluator:
    def test_group_fitness_is_sum_of_partitions(self, resnet18_decomposition_m):
        d = resnet18_decomposition_m
        evaluator = FitnessEvaluator(d, batch_size=4)
        group = greedy_partition(d)
        evaluation = evaluator.evaluate(group)
        assert evaluation.fitness == pytest.approx(sum(evaluation.partition_fitness))
        assert len(evaluation.partition_fitness) == group.num_partitions

    def test_latency_mode_fitness_equals_latency(self, resnet18_decomposition_m):
        d = resnet18_decomposition_m
        evaluator = FitnessEvaluator(d, batch_size=4, mode=FitnessMode.LATENCY)
        evaluation = evaluator.evaluate(greedy_partition(d))
        assert evaluation.fitness == pytest.approx(evaluation.total_latency_ns)

    def test_edp_mode_differs_from_latency_mode(self, resnet18_decomposition_m):
        d = resnet18_decomposition_m
        group = greedy_partition(d)
        lat = FitnessEvaluator(d, batch_size=4, mode=FitnessMode.LATENCY).evaluate(group)
        edp = FitnessEvaluator(d, batch_size=4, mode=FitnessMode.EDP).evaluate(group)
        assert lat.fitness != pytest.approx(edp.fitness)

    def test_cache_reuses_spans(self, resnet18_decomposition_m):
        d = resnet18_decomposition_m
        evaluator = FitnessEvaluator(d, batch_size=2)
        group = greedy_partition(d)
        evaluator.evaluate(group)
        before = evaluator.span_stats
        evaluator.evaluate(group)
        delta = stats_delta(evaluator.span_stats, before)
        assert delta["matrix_fills"] == delta["latencies_computed"] == 0
        assert delta["latency_hits"] == group.num_partitions

    def test_estimates_positive(self, resnet18_decomposition_m):
        d = resnet18_decomposition_m
        evaluator = FitnessEvaluator(d, batch_size=1)
        evaluation = evaluator.evaluate(layerwise_partition(d))
        assert all(f > 0 for f in evaluation.partition_fitness)
        assert evaluation.total_energy_pj > 0
        assert evaluation.edp > 0

    def test_bigger_batch_longer_total_latency(self, resnet18_decomposition_m):
        d = resnet18_decomposition_m
        group = greedy_partition(d)
        small = FitnessEvaluator(d, batch_size=1).evaluate(group)
        large = FitnessEvaluator(d, batch_size=16).evaluate(group)
        assert large.total_latency_ns > small.total_latency_ns
        # ... but throughput (samples per time) improves
        assert 16 / large.total_latency_ns > 1 / small.total_latency_ns

    def test_invalid_batch_size(self, resnet18_decomposition_m):
        with pytest.raises(ValueError):
            FitnessEvaluator(resnet18_decomposition_m, batch_size=0)

    def test_single_partition_vs_split_changes_fitness(self, squeezenet_decomposition_s):
        d = squeezenet_decomposition_s
        evaluator = FitnessEvaluator(d, batch_size=4)
        single = evaluator.evaluate(PartitionGroup.single_partition(d))
        split = evaluator.evaluate(
            PartitionGroup.from_boundaries(d, [d.num_units // 2, d.num_units])
        )
        assert single.fitness != pytest.approx(split.fitness)
