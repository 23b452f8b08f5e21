"""Tests for the span-table evaluation engine (repro.perf)."""

import pytest

from repro.core.baselines import greedy_partition
from repro.core.fitness import FitnessEvaluator
from repro.core.ga import CompassGA, GAConfig
from repro.hardware.dram import DRAMConfig, LPDDR3_8GB
from repro.perf import SpanTable, SpanTableStats, span_table_for


@pytest.fixture
def table(small_cnn_decomposition):
    return SpanTable(small_cnn_decomposition)


class TestSpanTable:
    def test_profile_cached_and_counted(self, table):
        first = table.profile(0, 2)
        again = table.profile(0, 2)
        assert first is again
        stats = table.stats
        assert stats.profiles_computed == 1
        assert stats.profile_hits == 1
        assert table.num_spans == 1

    def test_estimate_cached_per_batch(self, table):
        one = table.estimate(0, 2, 1)
        same = table.estimate(0, 2, 1)
        other_batch = table.estimate(0, 2, 8)
        assert one is same
        assert other_batch is not one
        assert other_batch.batch_size == 8
        stats = table.stats
        assert stats.estimates_computed == 2
        assert stats.estimate_hits == 1
        assert table.num_estimates == 2

    def test_latency_matches_estimate_and_is_counted(self, table):
        latency = table.latency_ns(0, 2, 4)
        assert latency == table.estimate(0, 2, 4).latency_ns
        stats = table.stats
        assert stats.latencies_computed + stats.latency_hits >= 1

    def test_estimate_group(self, table, small_cnn_decomposition):
        group = greedy_partition(small_cnn_decomposition)
        estimates = table.estimate_group(group, 2)
        assert len(estimates) == group.num_partitions
        assert all(e.batch_size == 2 for e in estimates)

    def test_precompute_fills_all_valid_spans(self, small_cnn_decomposition):
        from repro.core.validity import ValidityMap

        table = SpanTable(small_cnn_decomposition)
        validity = ValidityMap(small_cnn_decomposition)
        count = table.precompute(validity, batch_sizes=(1,))
        expected = sum(
            validity.max_end(s) - s for s in range(small_cnn_decomposition.num_units)
        )
        assert count == expected
        assert table.num_spans == expected
        # everything is now a hit
        before = table.stats.profile_hits
        table.profile(0, 1)
        assert table.stats.profile_hits == before + 1

    def test_stats_as_dict_keys(self, table):
        table.latency_ns(0, 1, 1)
        data = table.stats.as_dict()
        for key in ("profiles_computed", "profile_hits", "profile_hit_rate",
                    "estimates_computed", "estimate_hits", "estimate_hit_rate",
                    "latencies_computed", "latency_hits", "latency_hit_rate"):
            assert key in data

    def test_hit_rates(self):
        stats = SpanTableStats(profiles_computed=1, profile_hits=3,
                               estimates_computed=2, estimate_hits=2)
        assert stats.profile_hit_rate == pytest.approx(0.75)
        assert stats.estimate_hit_rate == pytest.approx(0.5)
        assert SpanTableStats().profile_hit_rate == 0.0


class TestRegistry:
    def test_shared_per_decomposition(self, small_cnn_decomposition):
        a = span_table_for(small_cnn_decomposition)
        b = span_table_for(small_cnn_decomposition)
        assert a is b

    def test_distinct_per_dram_config(self, small_cnn_decomposition):
        default = span_table_for(small_cnn_decomposition, LPDDR3_8GB)
        other = span_table_for(
            small_cnn_decomposition, DRAMConfig(name="other", num_channels=2)
        )
        assert default is not other

    def test_fitness_evaluator_uses_shared_table(self, small_cnn_decomposition):
        evaluator = FitnessEvaluator(small_cnn_decomposition, batch_size=2)
        assert evaluator.span_table is span_table_for(small_cnn_decomposition)
        group = greedy_partition(small_cnn_decomposition)
        evaluator.evaluate(group)
        assert evaluator.cache_size == group.num_partitions
        assert evaluator.span_stats  # engine engaged


class TestGAStats:
    def test_ga_reports_dedup_and_span_stats(self, small_cnn_decomposition):
        config = GAConfig(population_size=10, generations=4, n_select=3, n_mutate=7, seed=5)
        evaluator = FitnessEvaluator(small_cnn_decomposition, batch_size=2)
        result = CompassGA(small_cnn_decomposition, evaluator, config).run()
        assert result.evaluations == result.unique_evaluations + result.dedup_hits
        assert result.unique_evaluations >= 1
        assert 0.0 <= result.dedup_hit_rate <= 1.0
        assert result.span_stats
        lookups = (result.span_stats["latencies_computed"]
                   + result.span_stats["latency_hits"])
        assert lookups > 0
