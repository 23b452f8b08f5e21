"""Equivalence of the span-table + span-matrix engines with the naive path.

The performance layer (:mod:`repro.perf`, prefix-sum span queries, the
single-layer I/O template, the batched replication allocator, the
round-robin/multiset core-mapping fast paths, the latency-only slim
profile and the dense span matrix) must be *exact*: every optimisation is
a memoisation or an algebraic restructuring, never an approximation.  These
tests pin that down:

* per-span ``PartitionEstimate``s from the span table are bit-identical to
  naive per-call estimation;
* the latency-only slim profile replays the full profile's latency fields
  bit for bit, including its lean max-core-crossbars computation;
* dense span-matrix gathers equal the scalar table lookups;
* partition I/O matches a direct, graph-based reference implementation of
  the Sec. III-B3 entry/exit analysis;
* prefix-sum span aggregates match direct summation over units;
* fixed-seed GA runs produce bit-identical results (best group, fitness
  history, full ``GenerationRecord`` contents, dedup accounting) with the
  production evaluator and with :class:`NaiveFitnessEvaluator`, in latency
  and EDP mode and for multiple batch sizes.

:class:`NaiveFitnessEvaluator` is the oracle: the production evaluator has
one path (span table + dense span matrix), and the naive per-call estimator
lives on only here, to pin it.
"""

import numpy as np
import pytest

from repro.core.decomposition import decompose_model
from repro.core.fitness import FitnessEvaluator, FitnessMode, GroupEvaluation
from repro.core.ga import CompassGA, GAConfig
from repro.core.partition import Partition, PartitionGroup
from repro.core.validity import ValidityMap
from repro.hardware.config import get_chip_config
from repro.hardware.dram import LPDDR3_8GB
from repro.mapping.core_mapping import map_tiles_to_cores, max_core_crossbars_only
from repro.mapping.replication import ReplicationPlan, replication_factor_list
from repro.models import build_model
from repro.onchip.estimator import PartitionEstimator
from repro.perf import span_matrix_for, span_table_for
from repro.sim.simulator import ExecutionSimulator


MODELS = [("lenet5", "S"), ("alexnet", "S")]


class NaiveFitnessEvaluator(FitnessEvaluator):
    """Test oracle: fitness from naive per-span estimation, cached by span.

    Each span is estimated with :meth:`PartitionEstimator.estimate` on a
    fresh :class:`Partition` (no span table, no span matrix) and scored the
    way the production evaluator scores it: the span latency, or in EDP mode
    the span EDP rescaled so the group's fitnesses sum to the group EDP.
    """

    def __init__(self, decomposition, batch_size=1, mode=FitnessMode.LATENCY,
                 dram_config=LPDDR3_8GB):
        super().__init__(decomposition, batch_size, mode, dram_config)
        self.estimator = PartitionEstimator(decomposition.chip, dram_config, batch_size)
        self._cache = {}

    def estimate_span(self, start, end):
        estimate = self._cache.get((start, end))
        if estimate is None:
            estimate = self.estimator.estimate(Partition(self.decomposition, start, end))
            self._cache[(start, end)] = estimate
        return estimate

    def evaluate(self, group):
        estimates = [self.estimate_span(s, e) for s, e in group.spans()]
        fitness = [self.partition_fitness(estimate) for estimate in estimates]
        if self.mode is FitnessMode.EDP:
            group_edp = (
                sum(e.energy_pj for e in estimates)
                * sum(e.latency_ns for e in estimates)
                * 1e-12
            )
            share_total = sum(fitness)
            if share_total > 0 and group_edp > 0:
                fitness = [f / share_total * group_edp for f in fitness]
        return GroupEvaluation(group=group, partition_fitness=fitness, _estimates=estimates)

    def evaluate_many(self, groups):
        return [self.evaluate(group) for group in groups]


@pytest.fixture(scope="module", params=MODELS, ids=[f"{m}-{c}" for m, c in MODELS])
def decomposed(request):
    model, chip_name = request.param
    graph = build_model(model)
    chip = get_chip_config(chip_name)
    decomposition = decompose_model(graph, chip)
    return decomposition, ValidityMap(decomposition)


def random_spans(decomposition, validity, count, seed=0):
    rng = np.random.default_rng(seed)
    spans = []
    for _ in range(count):
        start = int(rng.integers(0, decomposition.num_units))
        end = int(rng.integers(start + 1, validity.max_end(start) + 1))
        spans.append((start, end))
    return spans


def estimates_equal(a, b) -> bool:
    """Bit-exact comparison of two PartitionEstimates."""
    return (
        a.batch_size == b.batch_size
        and a.io.entries == b.io.entries
        and a.io.exits == b.io.exits
        and a.stage_latency_ns == b.stage_latency_ns
        and all(
            getattr(a.latency, f) == getattr(b.latency, f)
            for f in ("weight_load_ns", "weight_write_ns", "weight_replace_ns",
                      "input_load_ns", "compute_ns", "output_store_ns", "pipeline_ns")
        )
        and a.energy.as_dict() == b.energy.as_dict()
    )


class TestSpanTableEquivalence:
    def test_estimates_bit_identical_to_naive(self, decomposed):
        decomposition, validity = decomposed
        table = span_table_for(decomposition)
        naive = PartitionEstimator(decomposition.chip)
        for batch in (1, 16):
            for start, end in random_spans(decomposition, validity, 40):
                fast = table.estimate(start, end, batch)
                reference = naive.estimate(
                    Partition(decomposition, start, end), batch_size=batch
                )
                assert estimates_equal(fast, reference), (start, end, batch)

    def test_latency_scalar_matches_estimate(self, decomposed):
        decomposition, validity = decomposed
        table = span_table_for(decomposition)
        for start, end in random_spans(decomposition, validity, 40, seed=1):
            for batch in (1, 4, 16):
                assert table.latency_ns(start, end, batch) == (
                    table.estimate(start, end, batch).latency_ns
                )

    def test_span_aggregates_match_direct_sums(self, decomposed):
        decomposition, validity = decomposed
        units = decomposition.units
        for start, end in random_spans(decomposition, validity, 60, seed=2):
            assert decomposition.span_weight_bytes(start, end) == sum(
                u.weight_bytes for u in units[start:end]
            )
            assert decomposition.span_crossbars(start, end) == sum(
                u.crossbars for u in units[start:end]
            )
            partition = Partition(decomposition, start, end)
            for layer in partition.layer_names():
                owned = sum(u.cols for u in units[start:end] if u.layer_name == layer)
                total = sum(u.cols for u in decomposition.units_of_layer(layer))
                assert partition.layer_fraction(layer) == owned / total


class TestSlimProfileEquivalence:
    def test_slim_profile_matches_full_profile(self, decomposed):
        """The latency-only replay reproduces the full profile bit for bit."""
        decomposition, validity = decomposed
        estimator = PartitionEstimator(decomposition.chip)
        for start, end in random_spans(decomposition, validity, 60, seed=4):
            full = estimator.profile(Partition(decomposition, start, end))
            slim = estimator.slim_profile(Partition(decomposition, start, end))
            assert slim == (
                full.weight_replace_ns, full.fill_ns, full.bottleneck_ns
            ), (start, end)

    def test_max_core_crossbars_only_matches_mapper(self, decomposed):
        """The lean multiset packer equals the full mapper's occupancy."""
        decomposition, validity = decomposed
        index = decomposition.index
        ranges = decomposition.layer_unit_ranges
        geometries = decomposition.geometries
        chip = decomposition.chip
        for start, end in random_spans(decomposition, validity, 60, seed=5):
            partition = Partition(decomposition, start, end)
            names = partition.layer_names()
            windows, copies = [], []
            for layer in names:
                layer_start, layer_end = ranges[layer]
                lo, hi = max(layer_start, start), min(layer_end, end)
                copies.append(index.crossbar_prefix[hi] - index.crossbar_prefix[lo])
                windows.append(geometries[layer].windows)
            factors = replication_factor_list(names, windows, copies, chip.total_crossbars)
            plan = ReplicationPlan(factors=dict(zip(names, factors)))
            reference = map_tiles_to_cores(names, copies, plan, chip).max_core_crossbars
            assert max_core_crossbars_only(names, copies, factors, chip) == reference

    def test_max_core_crossbars_only_random_geometries(self):
        """Multiset replay fuzz against the full mapper on synthetic inputs."""

        class _Core:
            pass

        class _Chip:
            pass

        rng = np.random.default_rng(6)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            names = [f"layer{i}" for i in range(n)]
            copies = [int(rng.integers(0, 40)) for _ in range(n)]
            factors = [int(rng.integers(1, 9)) for _ in range(n)]
            chip = _Chip()
            chip.num_cores = int(rng.integers(1, 33))
            chip.core = _Core()
            chip.core.crossbars_per_core = int(rng.integers(1, 33))
            plan = ReplicationPlan(factors=dict(zip(names, factors)))
            try:
                expected = map_tiles_to_cores(names, copies, plan, chip).max_core_crossbars
                expected_error = None
            except ValueError:
                expected, expected_error = None, ValueError
            if expected_error is None:
                assert max_core_crossbars_only(names, copies, factors, chip) == expected
            else:
                with pytest.raises(ValueError):
                    max_core_crossbars_only(names, copies, factors, chip)


class TestSpanMatrixEquivalence:
    def test_gathered_latencies_match_scalar_lookups(self, decomposed):
        decomposition, validity = decomposed
        matrix = span_matrix_for(decomposition)
        table = span_table_for(decomposition)
        spans = random_spans(decomposition, validity, 50, seed=7)
        starts = np.asarray([s for s, _ in spans], dtype=np.int64)
        ends = np.asarray([e for _, e in spans], dtype=np.int64)
        for batch in (1, 4, 16):
            gathered = matrix.gather_latency(starts, ends, batch)
            scalar = [table.latency_ns(s, e, batch) for s, e in spans]
            assert gathered.tolist() == scalar

    def test_gathered_energy_matches_estimates(self, decomposed):
        decomposition, validity = decomposed
        matrix = span_matrix_for(decomposition)
        table = span_table_for(decomposition)
        spans = random_spans(decomposition, validity, 30, seed=8)
        starts = np.asarray([s for s, _ in spans], dtype=np.int64)
        ends = np.asarray([e for _, e in spans], dtype=np.int64)
        for batch in (1, 16):
            energy, latency = matrix.gather_energy_latency(starts, ends, batch)
            for i, (s, e) in enumerate(spans):
                estimate = table.estimate(s, e, batch)
                assert energy[i] == estimate.energy_pj, (s, e, batch)
                assert latency[i] == estimate.latency_ns, (s, e, batch)

    def test_evaluate_many_matches_per_group_evaluate(self, decomposed):
        decomposition, validity = decomposed
        rng = np.random.default_rng(9)
        groups = [
            PartitionGroup.from_boundaries(
                decomposition, validity.random_partition_boundaries(rng)
            )
            for _ in range(20)
        ]
        for mode in (FitnessMode.LATENCY, FitnessMode.EDP):
            evaluator = FitnessEvaluator(decomposition, batch_size=8, mode=mode)
            oracle = NaiveFitnessEvaluator(decomposition, batch_size=8, mode=mode)
            batch_evals = evaluator.evaluate_many(groups)
            for group, evaluation in zip(groups, batch_evals):
                for reference in (evaluator.evaluate(group), oracle.evaluate(group)):
                    assert evaluation.partition_fitness == reference.partition_fitness
                    assert evaluation.fitness == reference.fitness

    def test_matrix_lookups_counted_in_stats(self, decomposed):
        """Dense-path activity must show up in the shared table's counters."""
        decomposition, validity = decomposed
        matrix = span_matrix_for(decomposition)
        table = span_table_for(decomposition)
        spans = random_spans(decomposition, validity, 25, seed=10)
        starts = np.asarray([s for s, _ in spans], dtype=np.int64)
        ends = np.asarray([e for _, e in spans], dtype=np.int64)
        before = table.stats
        matrix.gather_latency(starts, ends, 4)
        middle = table.stats
        assert middle.matrix_requests - before.matrix_requests == len(spans)
        # a repeated gather is served entirely from the matrix, and the served
        # lookups are folded into the latency hit counters too
        matrix.gather_latency(starts, ends, 4)
        after = table.stats
        assert after.matrix_hits - middle.matrix_hits == len(spans)
        assert after.matrix_fills == middle.matrix_fills
        assert after.latency_hits - middle.latency_hits == len(spans)
        assert after.as_dict()["matrix_hit_rate"] > 0


class TestPartitionIOReference:
    def test_io_matches_graph_reference(self, decomposed):
        """Partition.io() equals a direct graph-traversal reference.

        The reference is a straight port of the specification (entry: input
        edge whose producer is outside or partially owned; exit: node output
        consumed outside or partially owned), computed from the graph with
        no prefix sums, templates or caches.
        """
        decomposition, validity = decomposed
        graph = decomposition.graph
        bits = decomposition.activation_bits

        def reference_io(partition):
            owned = set(partition.layer_names())
            for layer in partition.layer_names():
                owned.update(decomposition.attachments.get(layer, []))

            def fraction(name):
                node = graph.node(name)
                if not node.layer.is_crossbar_mapped:
                    return 0.0
                owned_cols = sum(
                    u.cols for u in decomposition.units[partition.start:partition.end]
                    if u.layer_name == name
                )
                total = sum(u.cols for u in decomposition.units_of_layer(name)) \
                    if name in decomposition.layer_unit_ranges else 0
                return owned_cols / total if total else 0.0

            def partially_owned(name):
                node = graph.node(name)
                return node.layer.is_crossbar_mapped and fraction(name) < 1.0

            entries = {}
            for name in sorted(owned):
                node = graph.node(name)
                for src in node.inputs:
                    full = graph.node(src).output_shape.size_bytes(bits)
                    if src not in owned:
                        size = full
                    elif partially_owned(src) and node.layer.is_crossbar_mapped:
                        size = max(1, int(round(full * (1.0 - fraction(src)))))
                    else:
                        continue
                    entries[src] = max(entries.get(src, 0), size)
            exits = {}
            for name in sorted(owned):
                node = graph.node(name)
                outside = any(
                    succ not in owned or partially_owned(succ) for succ in node.outputs
                )
                if not (not node.outputs or outside):
                    continue
                size = node.output_shape.size_bytes(bits)
                if node.layer.is_crossbar_mapped:
                    size = int(round(size * fraction(name)))
                exits[name] = max(size, 1)
            return tuple(sorted(entries.items())), tuple(sorted(exits.items()))

        for start, end in random_spans(decomposition, validity, 60, seed=3):
            partition = Partition(decomposition, start, end)
            io = partition.io()
            ref_entries, ref_exits = reference_io(partition)
            assert io.entries == ref_entries, (start, end)
            assert io.exits == ref_exits, (start, end)


class TestGAEquivalence:
    """The production GA evaluator and the naive oracle are bit-identical.

    Parametrised over fitness mode and batch size (on top of the module's
    model/chip fixture): ≥2 models, ≥2 batch sizes, latency and EDP.  Every
    ``GenerationRecord`` field is compared, along with the dedup accounting
    — both evaluators must walk the exact same search trajectory and report
    it identically.
    """

    CONFIG = GAConfig(population_size=12, generations=5, n_select=4, n_mutate=8, seed=11)

    def _run(self, evaluator):
        return CompassGA(evaluator.decomposition, evaluator, self.CONFIG).run()

    @staticmethod
    def _assert_identical(result, reference):
        assert result.best_group.boundaries == reference.best_group.boundaries
        assert result.best_fitness == reference.best_fitness
        assert result.generations_run == reference.generations_run
        assert result.evaluations == reference.evaluations
        assert result.unique_evaluations == reference.unique_evaluations
        assert result.dedup_hits == reference.dedup_hits
        assert len(result.history) == len(reference.history)
        for record, expected in zip(result.history, reference.history):
            assert record.generation == expected.generation
            assert record.best_fitness == expected.best_fitness
            assert record.mean_fitness == expected.mean_fitness
            assert record.fitnesses == expected.fitnesses
            assert record.num_partitions == expected.num_partitions
            assert record.selected_mask == expected.selected_mask

    @pytest.mark.parametrize("mode", [FitnessMode.LATENCY, FitnessMode.EDP],
                             ids=["latency", "edp"])
    @pytest.mark.parametrize("batch_size", [4, 16])
    def test_fixed_seed_ga_identical_across_all_paths(self, decomposed, mode, batch_size):
        decomposition, _ = decomposed
        naive = self._run(NaiveFitnessEvaluator(decomposition, batch_size, mode))
        dense = self._run(FitnessEvaluator(decomposition, batch_size, mode))
        self._assert_identical(dense, naive)
        # the production run actually engaged the matrix engine
        assert dense.span_stats["matrix_fills"] + dense.span_stats["matrix_hits"] > 0


class TestSimulatorEquivalence:
    def test_simulator_table_path_matches_explicit_plans(self, decomposed):
        decomposition, validity = decomposed
        from repro.core.baselines import greedy_partition
        from repro.onchip.plan import build_partition_plan

        group = greedy_partition(decomposition, validity)

        plans = [build_partition_plan(p, decomposition.chip) for p in group.partitions()]
        simulator = ExecutionSimulator(decomposition.chip, batch_size=4)
        via_plans = simulator.simulate(group, plans=plans)
        via_table = simulator.simulate(group)
        assert via_plans.total_latency_ns == via_table.total_latency_ns
        assert via_plans.total_energy_pj == via_table.total_energy_pj
        assert via_plans.partition_latencies_ns() == via_table.partition_latencies_ns()
