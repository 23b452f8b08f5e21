"""Unit tests for the dense span-matrix engine (:mod:`repro.perf.spanmatrix`).

Bit-identity with the naive oracle is pinned in ``test_perf_equivalence.py``;
these tests cover the engine's mechanics — sharing, lazy fill/delta
behaviour, version-cached per-batch matrices, the evaluator's two entry
points, and the cached ``GroupEvaluation`` accessors the
population-vectorized scoring relies on.
"""

import numpy as np
import pytest

from repro.core.decomposition import decompose_model
from repro.core.fitness import FitnessEvaluator, FitnessMode
from repro.core.partition import PartitionGroup
from repro.core.validity import ValidityMap
from repro.hardware.config import get_chip_config
from repro.models import build_model
from repro.perf import SpanMatrix, span_matrix_for, span_table_for
from test_perf_equivalence import NaiveFitnessEvaluator


@pytest.fixture()
def fresh_decomposition():
    """A decomposition with cold caches (not shared through the registry)."""
    graph = build_model("lenet5")
    chip = get_chip_config("S")
    decomposition = decompose_model(graph, chip)
    return decomposition, ValidityMap(decomposition)


def _span_arrays(spans):
    starts = np.asarray([s for s, _ in spans], dtype=np.int64)
    ends = np.asarray([e for _, e in spans], dtype=np.int64)
    return starts, ends


class TestSharing:
    def test_span_matrix_for_is_shared(self, fresh_decomposition):
        decomposition, _ = fresh_decomposition
        first = span_matrix_for(decomposition)
        second = span_matrix_for(decomposition)
        assert first is second
        assert first.table is span_table_for(decomposition)

    def test_evaluators_share_one_matrix(self, fresh_decomposition):
        decomposition, _ = fresh_decomposition
        a = FitnessEvaluator(decomposition, batch_size=1)
        b = FitnessEvaluator(decomposition, batch_size=16)
        assert a.span_matrix is b.span_matrix

    def test_registry_accessor(self):
        from repro.evaluation.registry import shared_decomposition, shared_span_matrix

        matrix = shared_span_matrix("lenet5", "S")
        decomposition, _ = shared_decomposition("lenet5", "S")
        assert isinstance(matrix, SpanMatrix)
        assert matrix is span_matrix_for(decomposition)


class TestDeltaFill:
    def test_only_missing_spans_are_profiled(self, fresh_decomposition):
        decomposition, _ = fresh_decomposition
        matrix = span_matrix_for(decomposition)
        table = matrix.table
        starts, ends = _span_arrays([(0, 2), (2, 4), (0, 2)])
        matrix.ensure_spans(starts, ends)
        assert matrix.num_spans == 2
        first = table.stats
        assert first.matrix_fills == 2
        # one repeated span in the request is already gather-served
        assert first.matrix_hits == 1
        # a child differing by one cut touches only the new spans (the delta)
        starts, ends = _span_arrays([(0, 2), (2, 3), (3, 4)])
        matrix.ensure_spans(starts, ends)
        second = table.stats
        assert second.matrix_fills - first.matrix_fills == 2
        assert matrix.num_spans == 4

    def test_latency_matrix_version_cache(self, fresh_decomposition):
        decomposition, _ = fresh_decomposition
        matrix = span_matrix_for(decomposition)
        starts, ends = _span_arrays([(0, 1)])
        matrix.ensure_spans(starts, ends)
        cached = matrix.latency_matrix(4)
        assert matrix.latency_matrix(4) is cached  # no refill -> same object
        matrix.ensure_spans(*_span_arrays([(1, 2)]))
        assert matrix.latency_matrix(4) is not cached  # new span invalidates


class TestEvaluatorEntryPoints:
    def test_evaluate_equals_evaluate_many_of_one_group(self, fresh_decomposition):
        decomposition, validity = fresh_decomposition
        rng = np.random.default_rng(0)
        groups = [
            PartitionGroup.from_boundaries(
                decomposition, validity.random_partition_boundaries(rng)
            )
            for _ in range(5)
        ]
        for mode in (FitnessMode.LATENCY, FitnessMode.EDP):
            evaluator = FitnessEvaluator(decomposition, batch_size=4, mode=mode)
            for group in groups:
                [many] = evaluator.evaluate_many([group])
                single = evaluator.evaluate(group)
                assert many.partition_fitness == single.partition_fitness
                assert many.fitness == single.fitness
            assert evaluator.evaluate_many([]) == []


class TestGroupEvaluationCaches:
    def test_fitness_cached(self, fresh_decomposition):
        decomposition, _ = fresh_decomposition
        evaluator = FitnessEvaluator(decomposition, batch_size=4)
        group = PartitionGroup.from_boundaries(
            decomposition, [decomposition.num_units]
        )
        evaluation = evaluator.evaluate(group)
        assert evaluation._fitness is None
        value = evaluation.fitness
        assert evaluation._fitness == value == sum(evaluation.partition_fitness)
        # mutating the list after the first read does not change the cache
        evaluation.partition_fitness.append(1.0)
        assert evaluation.fitness == value

    def test_span_bounds_and_fitness_array(self, fresh_decomposition):
        decomposition, validity = fresh_decomposition
        rng = np.random.default_rng(1)
        bounds = validity.random_partition_boundaries(rng)
        evaluator = FitnessEvaluator(decomposition, batch_size=4)
        evaluation = evaluator.evaluate(
            PartitionGroup.from_boundaries(decomposition, bounds)
        )
        starts, ends = evaluation.span_bounds
        assert ends.tolist() == list(bounds)
        assert starts.tolist() == [0] + list(bounds)[:-1]
        assert evaluation.fitness_array.tolist() == evaluation.partition_fitness


class TestBaselineEvaluations:
    def test_matches_per_group_evaluation(self, fresh_decomposition):
        from repro.core.baselines import (
            baseline_evaluations,
            greedy_partition,
            layerwise_partition,
        )

        decomposition, validity = fresh_decomposition
        evaluator = FitnessEvaluator(decomposition, batch_size=4)
        batch = baseline_evaluations(decomposition, evaluator, validity)
        assert set(batch) == {"greedy", "layerwise"}
        oracle = NaiveFitnessEvaluator(decomposition, batch_size=4)
        assert batch["greedy"].fitness == oracle.evaluate(
            greedy_partition(decomposition, validity)
        ).fitness
        assert batch["layerwise"].fitness == oracle.evaluate(
            layerwise_partition(decomposition, validity)
        ).fitness


class TestEDPMatrices:
    def test_energy_matrices_allocate_lazily(self, fresh_decomposition):
        decomposition, _ = fresh_decomposition
        matrix = span_matrix_for(decomposition)
        assert matrix._energy_parts is None
        starts, ends = _span_arrays([(0, 2)])
        energy, latency = matrix.gather_energy_latency(starts, ends, 4)
        assert matrix._energy_parts is not None
        estimate = matrix.table.estimate(0, 2, 4)
        assert energy[0] == estimate.energy_pj
        assert latency[0] == estimate.latency_ns
