"""Tests for repro.mapping.core_mapping: packing crossbar tiles onto cores."""

import math

import pytest

from repro.hardware import CHIP_S
from repro.hardware.chip import ChipConfig
from repro.hardware.core import CoreConfig
from repro.mapping.core_mapping import MappingError, map_partition_to_cores
from repro.mapping.geometry import WeightMatrixGeometry
from repro.mapping.replication import allocate_replication


def make_geom(name, crossbars, windows):
    return WeightMatrixGeometry(
        layer_name=name, rows=256, cols=64, groups=1,
        crossbars_per_copy=crossbars, weights_per_copy=256 * 64,
        windows=windows, weight_bytes=8192 * crossbars,
        row_tiles=1, col_tiles=crossbars,
    )


def small_chip(num_cores=4, crossbars_per_core=4):
    return ChipConfig(
        name="test", num_cores=num_cores,
        core=CoreConfig(crossbars_per_core=crossbars_per_core),
    )


class TestMapping:
    def test_single_layer_single_core(self):
        chip = small_chip()
        geoms = [make_geom("conv", 2, 10)]
        replication = allocate_replication(geoms, crossbar_budget=2)
        mapping = map_partition_to_cores(geoms, replication, chip)
        assert mapping.cores_used == 1
        assert mapping.total_crossbars_used == 2

    def test_replicas_spread_over_cores(self):
        chip = small_chip(num_cores=4, crossbars_per_core=2)
        geoms = [make_geom("conv", 2, 1000)]
        replication = allocate_replication(geoms, crossbar_budget=8)
        mapping = map_partition_to_cores(geoms, replication, chip)
        assert replication.factor("conv") == 4
        assert mapping.cores_used == 4

    def test_large_replica_splits_across_cores(self):
        chip = small_chip(num_cores=4, crossbars_per_core=2)
        geoms = [make_geom("big", 5, 10)]
        replication = allocate_replication(geoms, crossbar_budget=5)
        mapping = map_partition_to_cores(geoms, replication, chip)
        assert mapping.cores_used >= 3
        assert mapping.total_crossbars_used == 5

    def test_overflow_raises(self):
        chip = small_chip(num_cores=2, crossbars_per_core=2)
        geoms = [make_geom("too_big", 5, 10)]
        replication = allocate_replication(geoms, crossbar_budget=5)
        with pytest.raises(MappingError):
            map_partition_to_cores(geoms, replication, chip)

    def test_layer_cores_lookup(self):
        chip = small_chip()
        geoms = [make_geom("a", 1, 10), make_geom("b", 1, 10)]
        replication = allocate_replication(geoms, crossbar_budget=2)
        mapping = map_partition_to_cores(geoms, replication, chip)
        assert mapping.cores_for_layer("a")
        assert mapping.cores_for_layer("b")
        assert mapping.cores_for_layer("missing") == []

    def test_utilization_bounds(self):
        chip = small_chip()
        geoms = [make_geom("a", 3, 10)]
        replication = allocate_replication(geoms, crossbar_budget=3)
        mapping = map_partition_to_cores(geoms, replication, chip)
        assert 0.0 < mapping.utilization() <= 1.0

    def test_chip_s_capacity_exactly_fills(self):
        """144 single-crossbar replicas exactly fill Chip-S."""
        geoms = [make_geom("conv", 1, 10_000)]
        replication = allocate_replication(geoms, crossbar_budget=CHIP_S.total_crossbars)
        mapping = map_partition_to_cores(geoms, replication, CHIP_S)
        assert mapping.total_crossbars_used <= CHIP_S.total_crossbars
        assert mapping.crossbars_per_core == 9

    def test_assignment_entries_record_layer_and_replica(self):
        chip = small_chip()
        geoms = [make_geom("conv", 2, 100)]
        replication = allocate_replication(geoms, crossbar_budget=4)
        mapping = map_partition_to_cores(geoms, replication, chip)
        entries = [e for a in mapping.assignments for e in a.entries]
        layers = {layer for layer, _, _ in entries}
        replicas = {rep for _, rep, _ in entries}
        assert layers == {"conv"}
        assert replicas == set(range(replication.factor("conv")))
