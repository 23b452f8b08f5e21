"""Unit tests for the dense span-matrix engine (:mod:`repro.perf.spanmatrix`).

Bit-identity with the naive oracle is pinned in ``test_perf_equivalence.py``;
these tests cover the engine's mechanics — sharing, lazy fill/delta
behaviour, version-cached per-batch matrices, the evaluator's two entry
points, and the cached ``GroupEvaluation`` accessors the
population-vectorized scoring relies on.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.core.decomposition import decompose_model
from repro.core.fitness import FitnessEvaluator, FitnessMode
from repro.core.partition import Partition, PartitionGroup
from repro.core.validity import ValidityMap
from repro.hardware.config import get_chip_config
from repro.models import build_model
from repro.onchip.estimator import PartitionEstimator
from repro.onchip.plan import layer_slices
from repro.perf import SpanMatrix, span_matrix_for, span_table_for
from test_perf_equivalence import NaiveFitnessEvaluator, valid_span_arrays


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

    def test_clear_registry_frees_matrices(self):
        from repro.evaluation.registry import clear_registry, shared_span_matrix

        clear_registry()
        matrix = weakref.ref(shared_span_matrix("lenet5", "S"))
        # a decomposition and its span table refer to each other; the
        # matrices must not wait for the cycle collector
        gc.disable()
        try:
            clear_registry()
            assert matrix() is None
        finally:
            gc.enable()


def _pair(model, chip_name):
    decomposition = decompose_model(build_model(model), get_chip_config(chip_name))
    return decomposition, ValidityMap(decomposition)


class TestGeometryGroups:
    @pytest.mark.parametrize("model,chip_name", [("vgg16", "M"), ("resnet18", "S")])
    def test_equal_keys_have_equal_slices_and_io(self, model, chip_name):
        decomposition, validity = _pair(model, chip_name)
        starts, ends = valid_span_arrays(validity)
        keys = decomposition.index.span_keys(starts, ends)
        shapes = {}
        for key, start, end in zip(map(tuple, keys.tolist()), starts.tolist(), ends.tolist()):
            partition = Partition(decomposition, start, end)
            shape = (layer_slices(partition), partition.io())
            assert shapes.setdefault(key, shape) == shape, (start, end)
        assert len(shapes) < len(starts)  # the pair's spans do share geometries

    def test_fill_counters(self, monkeypatch):
        decomposition, validity = _pair("resnet18", "S")
        starts, ends = valid_span_arrays(validity)
        distinct = len(np.unique(decomposition.index.span_keys(starts, ends), axis=0))
        matrix = span_matrix_for(decomposition)
        table = matrix.table
        profiled = []
        slim_profile = table.estimator.slim_profile
        monkeypatch.setattr(table.estimator, "slim_profile",
                            lambda partition: profiled.append(partition) or slim_profile(partition))
        # every valid span, a seventh of them twice
        requested = (np.concatenate([starts, starts[::7]]), np.concatenate([ends, ends[::7]]))
        matrix.ensure_spans(*requested)
        stats = table.stats
        assert stats.matrix_fills == len(starts)
        assert stats.latencies_computed == distinct == len(profiled) < len(starts)
        assert stats.latencies_computed + stats.latency_hits == len(requested[0])
        assert matrix.num_spans == len(starts)
        # one-span gathers of scattered cells, as one-group evaluations make
        # them, are matrix hits that profile nothing and read the cell's own
        # record
        estimator = PartitionEstimator(decomposition.chip)
        for start, end in zip(starts[::50].tolist(), ends[::50].tolist()):
            cell = (np.array([start]), np.array([end]))
            components = tuple(part.item() for part in matrix.gather_components(*cell))
            assert components == estimator.slim_profile(Partition(decomposition, start, end))
        stats = table.stats
        assert stats.latencies_computed == distinct
        assert stats.matrix_hits == len(starts[::7]) + len(starts[::50])

    def test_energy_fill_counters(self):
        decomposition, validity = _pair("resnet18", "S")
        starts, ends = valid_span_arrays(validity)
        keys = decomposition.index.span_keys(starts, ends)
        _, first = np.unique(keys, axis=0, return_index=True)
        matrix = span_matrix_for(decomposition)
        # a latency fill of each geometry's first span, then an EDP fill of all
        matrix.ensure_spans(starts[first], ends[first])
        matrix.gather_energy_latency(starts, ends, 4)
        stats = matrix.table.stats
        assert stats.energy_records_computed == len(first) < len(starts)
        # the energy records gave every span its slim record, so the EDP
        # fill's latency half profiled nothing
        assert stats.latencies_computed == len(first)
        assert stats.matrix_fills == len(starts)


class TestSpanTemplates:
    @pytest.mark.parametrize("model,chip_name", [("resnet18", "M"), ("squeezenet", "S")])
    def test_cold_dp_fill_builds_one_template_per_layer_range(self, model, chip_name,
                                                              monkeypatch):
        from repro.core import decomposition as decomposition_module
        from repro.search.dp import DPOptimalSearch

        built = []

        class CountingTemplate(decomposition_module.SpanTemplate):
            def __init__(self, index, *key):
                built.append(key)
                super().__init__(index, *key)

        monkeypatch.setattr(decomposition_module, "SpanTemplate", CountingTemplate)
        decomposition, validity = _pair(model, chip_name)
        DPOptimalSearch(decomposition, FitnessEvaluator(decomposition, batch_size=4),
                        validity).run()
        starts, ends = valid_span_arrays(validity)
        assert span_matrix_for(decomposition).num_spans == len(starts)
        keys = decomposition.index.span_keys(starts, ends)
        ranges = set(map(tuple, keys[:, [0, 1, 10, 11]].tolist()))
        templates = decomposition.index._templates
        assert len(built) == len(templates) == len(ranges) < len(np.unique(keys, axis=0))
        assert set(templates) == ranges

    def test_clear_registry_frees_templates(self):
        from repro.evaluation.registry import clear_registry, shared_span_matrix

        clear_registry()
        matrix = shared_span_matrix("lenet5", "S")
        validity = ValidityMap(matrix.decomposition)
        matrix.ensure_spans(*valid_span_arrays(validity))
        templates = matrix.decomposition.index._templates.values()
        refs = [weakref.ref(template) for template in templates]
        assert refs
        del matrix, validity, templates
        # no cycle may keep a template alive after the registry lets go
        gc.disable()
        try:
            clear_registry()
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()


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

    @pytest.mark.parametrize("mode", [FitnessMode.LATENCY, FitnessMode.EDP])
    def test_batch_slices_match_scalar_evaluation(self, fresh_decomposition, mode):
        """``evaluate_many`` hands out slices of its flat arrays, from a
        plain list or from a built batch's cuts; each equals what
        :meth:`evaluate` derives for the group on its own."""
        decomposition, validity = fresh_decomposition
        rng = np.random.default_rng(2)
        bounds = [tuple(validity.random_partition_boundaries(rng)) for _ in range(6)]
        batch = PartitionGroup.from_boundaries_many(decomposition, bounds)
        evaluator = FitnessEvaluator(decomposition, batch_size=4, mode=mode)
        for groups in (batch, list(batch)):
            for many, group in zip(evaluator.evaluate_many(groups), batch):
                single = evaluator.evaluate(group)
                assert many.partition_fitness == single.partition_fitness
                assert many.fitness_array.tolist() == single.fitness_array.tolist()
                for got, want in zip(many.span_bounds, single.span_bounds):
                    assert got.tolist() == want.tolist()


class TestBaselineEvaluations:
    def test_matches_per_group_evaluation(self, fresh_decomposition):
        from repro.core.baselines import greedy_partition, layerwise_partition

        # both baselines scored as one batch through the span matrices, as
        # the GA's population is, score exactly as the naive oracle does
        decomposition, validity = fresh_decomposition
        groups = [greedy_partition(decomposition, validity),
                  layerwise_partition(decomposition, validity)]
        evaluator = FitnessEvaluator(decomposition, batch_size=4)
        oracle = NaiveFitnessEvaluator(decomposition, batch_size=4)
        for got, group in zip(evaluator.evaluate_many(groups), groups):
            assert got.fitness == oracle.evaluate(group).fitness


class TestCounterCrossChecks:
    """The program's own span counters against call counts taken from
    outside, as the benchmark's traced run cross-checks them."""

    @pytest.mark.parametrize("edp_first", [False, True], ids=["latency-first", "edp-first"])
    def test_counters_match_wrapped_calls(self, monkeypatch, edp_first):
        from repro.core.compiler import CompassCompiler, CompilerOptions
        from repro.search.dp import DPOptimalSearch

        calls = {"slim_profile": 0, "profile": 0, "cells": 0, "first": 0}
        seen = {}

        def counting(name):
            method = getattr(PartitionEstimator, name)

            def counted(self, *args, **kwargs):
                calls[name] += 1
                return method(self, *args, **kwargs)
            return counted

        ensure_spans = SpanMatrix.ensure_spans

        def counted_fill(matrix, starts, ends):
            calls["cells"] += int(starts.size)
            cells = seen.setdefault(id(matrix), set())
            fresh = set(zip(starts.tolist(), ends.tolist())) - cells
            calls["first"] += len(fresh)
            cells |= fresh
            return ensure_spans(matrix, starts, ends)

        monkeypatch.setattr(PartitionEstimator, "slim_profile", counting("slim_profile"))
        monkeypatch.setattr(PartitionEstimator, "profile", counting("profile"))
        monkeypatch.setattr(SpanMatrix, "ensure_spans", counted_fill)

        graph = build_model("squeezenet")
        chip = get_chip_config("S")
        decomposition = decompose_model(graph, chip)
        validity = ValidityMap(decomposition)
        modes = [FitnessMode.LATENCY, FitnessMode.EDP]
        for mode in reversed(modes) if edp_first else modes:
            evaluator = FitnessEvaluator(decomposition, batch_size=4, mode=mode)
            DPOptimalSearch(decomposition, evaluator, validity).run()
        options = CompilerOptions(batch_size=16, optimizer="anneal",
                                  optimizer_options={"steps": 100},
                                  generate_instructions=False)
        CompassCompiler(chip, options).compile(graph, decomposition, validity)

        stats = span_table_for(decomposition).stats
        assert stats.energy_records_computed > 0
        # an energy fill's slim triples leave a later latency fill nothing to profile
        assert (stats.latencies_computed == 0) == edp_first
        assert calls["slim_profile"] == stats.latencies_computed
        assert calls["profile"] == stats.profiles_computed > 0
        assert calls["cells"] == stats.matrix_fills + stats.matrix_hits
        assert calls["first"] == stats.matrix_fills == len(valid_span_arrays(validity)[0])


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
