"""Tests for repro.onchip.plan: layer slices, replication and core mapping."""

import pytest

from repro.core.baselines import greedy_partition
from repro.core.partition import Partition, PartitionGroup
from repro.onchip.plan import build_partition_plan


class TestPlanConstruction:
    def test_slices_match_partition_layers(self, resnet18_decomposition_m, chip_m):
        d = resnet18_decomposition_m
        partition = greedy_partition(d).partition(0)
        plan = build_partition_plan(partition, chip_m)
        assert [s.layer_name for s in plan.slices] == partition.layer_names()

    def test_single_copy_bytes_matches_partition(self, resnet18_decomposition_m, chip_m):
        d = resnet18_decomposition_m
        partition = greedy_partition(d).partition(0)
        plan = build_partition_plan(partition, chip_m)
        assert plan.single_copy_weight_bytes == partition.weight_bytes

    def test_replicated_at_least_single_copy(self, resnet18_decomposition_m, chip_m):
        d = resnet18_decomposition_m
        partition = greedy_partition(d).partition(0)
        plan = build_partition_plan(partition, chip_m)
        assert plan.replicated_weight_bytes >= plan.single_copy_weight_bytes

    def test_crossbars_within_chip_budget(self, resnet18_decomposition_m, chip_m):
        d = resnet18_decomposition_m
        for partition in greedy_partition(d).partitions():
            plan = build_partition_plan(partition, chip_m)
            assert plan.crossbars_used <= chip_m.total_crossbars

    def test_replication_factors_at_least_one(self, resnet18_decomposition_m, chip_m):
        d = resnet18_decomposition_m
        partition = greedy_partition(d).partition(0)
        plan = build_partition_plan(partition, chip_m)
        for layer_slice in plan.slices:
            assert plan.replication.factor(layer_slice.layer_name) >= 1

    def test_small_partition_gets_replication(self, squeezenet_decomposition_s, chip_s):
        """A partition using a fraction of the chip should replicate its layers."""
        d = squeezenet_decomposition_s
        partition = PartitionGroup.single_partition(d).partition(0)
        plan = build_partition_plan(partition, chip_s)
        factors = [plan.replication.factor(s.layer_name) for s in plan.slices]
        assert max(factors) > 1

    def test_core_utilization_bounds(self, resnet18_decomposition_m, chip_m):
        d = resnet18_decomposition_m
        partition = greedy_partition(d).partition(0)
        plan = build_partition_plan(partition, chip_m)
        assert 0.0 < plan.core_utilization <= 1.0

    def test_slice_fraction_reflects_split_layers(self, resnet18_decomposition_m, chip_m):
        d = resnet18_decomposition_m
        # find a multi-unit layer and plan only its first unit
        for layer in d.crossbar_layers:
            start, end = d.layer_unit_ranges[layer]
            if end - start >= 2:
                partition = Partition(d, start, start + 1)
                plan = build_partition_plan(partition, chip_m)
                [layer_slice] = [s for s in plan.slices if s.layer_name == layer]
                assert layer_slice.fraction < 1.0
                return
        pytest.skip("no multi-unit layer")

    def test_attached_layers_recorded(self, small_cnn_decomposition, tiny_chip):
        d = small_cnn_decomposition
        partition = Partition(d, 0, d.num_units)
        plan = build_partition_plan(partition, tiny_chip)
        attached = {name for s in plan.slices for name in s.attached}
        assert "relu1" in attached
        assert "res_add" in attached
