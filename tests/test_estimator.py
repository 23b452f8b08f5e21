"""Tests for repro.onchip.estimator: per-partition latency/energy estimation."""

import pytest

from repro.core.baselines import greedy_partition, layerwise_partition
from repro.core.partition import Partition, PartitionGroup
from repro.onchip.estimator import PartitionEstimator


@pytest.fixture(scope="module")
def estimator_m(chip_m):
    return PartitionEstimator(chip_m, batch_size=4)


class TestBasicEstimation:
    def test_all_latency_components_non_negative(self, resnet18_decomposition_m, estimator_m):
        d = resnet18_decomposition_m
        for partition in greedy_partition(d).partitions():
            est = estimator_m.estimate(partition)
            lat = est.latency
            assert lat.weight_load_ns >= 0
            assert lat.weight_write_ns >= 0
            assert lat.pipeline_ns > 0
            assert lat.total_ns == pytest.approx(lat.weight_replace_ns + lat.pipeline_ns)

    def test_energy_components_non_negative(self, resnet18_decomposition_m, estimator_m):
        d = resnet18_decomposition_m
        est = estimator_m.estimate(greedy_partition(d).partition(0))
        for key, value in est.energy.as_dict().items():
            assert value >= 0, key
        assert est.energy.total_pj > 0

    def test_weight_replace_is_max_of_load_and_write(self, resnet18_decomposition_m, estimator_m):
        d = resnet18_decomposition_m
        est = estimator_m.estimate(greedy_partition(d).partition(0))
        assert est.latency.weight_replace_ns == pytest.approx(
            max(est.latency.weight_load_ns, est.latency.weight_write_ns)
        )

    def test_stage_latencies_include_load_store(self, resnet18_decomposition_m, estimator_m):
        d = resnet18_decomposition_m
        est = estimator_m.estimate(greedy_partition(d).partition(0))
        assert "__load__" in est.stage_latency_ns
        assert "__store__" in est.stage_latency_ns
        layer_stages = set(est.stage_latency_ns) - {"__load__", "__store__"}
        assert layer_stages == set(est.partition.layer_names())

    def test_per_sample_and_edp_helpers(self, resnet18_decomposition_m, estimator_m):
        d = resnet18_decomposition_m
        est = estimator_m.estimate(greedy_partition(d).partition(0))
        assert est.latency_per_sample_ns == pytest.approx(est.latency_ns / est.batch_size)
        assert est.energy_per_sample_pj == pytest.approx(est.energy_pj / est.batch_size)
        assert est.edp == pytest.approx(est.energy_pj * est.latency_ns)

    def test_invalid_batch_size(self, chip_m, resnet18_decomposition_m):
        with pytest.raises(ValueError):
            PartitionEstimator(chip_m, batch_size=0)
        est = PartitionEstimator(chip_m, batch_size=1)
        partition = greedy_partition(resnet18_decomposition_m).partition(0)
        with pytest.raises(ValueError):
            est.estimate(partition, batch_size=-1)


class TestScalingBehaviour:
    def test_latency_increases_with_batch(self, resnet18_decomposition_m, chip_m):
        d = resnet18_decomposition_m
        partition = greedy_partition(d).partition(0)
        est1 = PartitionEstimator(chip_m, batch_size=1).estimate(partition)
        est16 = PartitionEstimator(chip_m, batch_size=16).estimate(partition)
        assert est16.latency_ns > est1.latency_ns
        # pipelining: 16 samples cost far less than 16x one sample
        assert est16.latency_ns < 16 * est1.latency_ns

    def test_weight_replace_independent_of_batch(self, resnet18_decomposition_m, chip_m):
        d = resnet18_decomposition_m
        partition = greedy_partition(d).partition(0)
        est1 = PartitionEstimator(chip_m, batch_size=1).estimate(partition)
        est16 = PartitionEstimator(chip_m, batch_size=16).estimate(partition)
        assert est1.latency.weight_replace_ns == pytest.approx(est16.latency.weight_replace_ns)

    def test_batch_amortises_weight_energy_share(self, resnet18_decomposition_m, chip_m):
        """Fig. 9: the weight-load/MVM energy ratio falls as batch size grows."""
        d = resnet18_decomposition_m
        partition = greedy_partition(d).partition(0)
        est1 = PartitionEstimator(chip_m, batch_size=1).estimate(partition)
        est16 = PartitionEstimator(chip_m, batch_size=16).estimate(partition)
        ratio1 = est1.energy.weight_load_pj / est1.energy.mvm_pj
        ratio16 = est16.energy.weight_load_pj / est16.energy.mvm_pj
        assert ratio16 < ratio1 / 4

    def test_larger_chip_not_slower_for_same_partition(self, resnet18_graph, chip_m, chip_l):
        from repro.core.decomposition import decompose_model

        d_m = decompose_model(resnet18_graph, chip_m)
        d_l = decompose_model(resnet18_graph, chip_l)
        # compare the first layer alone on both chips (same workload, more resources)
        p_m = Partition(d_m, 0, d_m.layer_unit_ranges["conv1"][1])
        p_l = Partition(d_l, 0, d_l.layer_unit_ranges["conv1"][1])
        est_m = PartitionEstimator(chip_m, batch_size=8).estimate(p_m)
        est_l = PartitionEstimator(chip_l, batch_size=8).estimate(p_l)
        assert est_l.latency.pipeline_ns <= est_m.latency.pipeline_ns * 1.001

    def test_replication_reduces_pipeline_latency(self, squeezenet_decomposition_s, chip_s):
        """The whole point of replication: more crossbars -> shorter pipeline."""
        from repro.onchip.plan import build_partition_plan
        from repro.mapping.replication import ReplicationPlan
        from repro.mapping.core_mapping import map_tiles_to_cores

        d = squeezenet_decomposition_s
        partition = PartitionGroup.single_partition(d).partition(0)
        est = PartitionEstimator(chip_s, batch_size=8)
        optimized = est.estimate(partition)

        # build an artificial plan with no replication at all
        plan = build_partition_plan(partition, chip_s)
        names = [s.layer_name for s in plan.slices]
        copies = [s.crossbars for s in plan.slices]
        unreplicated = ReplicationPlan(
            factors={name: 1 for name in names},
            crossbars_used=dict(zip(names, copies)),
            total_crossbars=sum(copies),
            bottleneck_slots=max(s.windows for s in plan.slices),
        )
        plan.replication = unreplicated
        plan.core_mapping = map_tiles_to_cores(names, copies, unreplicated, chip_s)
        baseline = est.estimate(partition, plan=plan)
        assert optimized.latency.pipeline_ns < baseline.latency.pipeline_ns

    def test_partition_with_more_layers_costs_more(self, resnet18_decomposition_m, estimator_m):
        d = resnet18_decomposition_m
        small = estimator_m.estimate(Partition(d, 0, 2))
        # growing the span within validity adds work
        from repro.core.validity import ValidityMap

        vm = ValidityMap(d)
        end = vm.max_end(0)
        large = estimator_m.estimate(Partition(d, 0, end))
        assert large.energy_pj > small.energy_pj
