"""Tests for repro.mapping.core_mapping: packing crossbar tiles onto cores."""

import pytest

from repro.hardware import CHIP_S
from repro.hardware.chip import ChipConfig
from repro.hardware.core import CoreConfig
from repro.mapping.core_mapping import MappingError, map_tiles_to_cores
from repro.mapping.replication import allocate_replication_arrays


def replicate(layers, crossbar_budget):
    """Replication plan of ``(name, crossbars per copy, windows)`` layers."""
    return allocate_replication_arrays(
        [name for name, _, _ in layers], [windows for _, _, windows in layers],
        [crossbars for _, crossbars, _ in layers], crossbar_budget=crossbar_budget,
    )


def map_layers(layers, replication, chip):
    """Core mapping of ``(name, crossbars per copy, windows)`` layers."""
    return map_tiles_to_cores(
        [name for name, _, _ in layers], [crossbars for _, crossbars, _ in layers],
        replication, chip,
    )


def small_chip(num_cores=4, crossbars_per_core=4):
    return ChipConfig(
        name="test", num_cores=num_cores,
        core=CoreConfig(crossbars_per_core=crossbars_per_core),
    )


class TestMapping:
    def test_single_layer_single_core(self):
        chip = small_chip()
        layers = [("conv", 2, 10)]
        replication = replicate(layers, crossbar_budget=2)
        mapping = map_layers(layers, replication, chip)
        assert mapping.cores_used == 1
        assert mapping.total_crossbars_used == 2

    def test_replicas_spread_over_cores(self):
        chip = small_chip(num_cores=4, crossbars_per_core=2)
        layers = [("conv", 2, 1000)]
        replication = replicate(layers, crossbar_budget=8)
        mapping = map_layers(layers, replication, chip)
        assert replication.factor("conv") == 4
        assert mapping.cores_used == 4

    def test_large_replica_splits_across_cores(self):
        chip = small_chip(num_cores=4, crossbars_per_core=2)
        layers = [("big", 5, 10)]
        replication = replicate(layers, crossbar_budget=5)
        mapping = map_layers(layers, replication, chip)
        assert mapping.cores_used >= 3
        assert mapping.total_crossbars_used == 5

    def test_overflow_raises(self):
        chip = small_chip(num_cores=2, crossbars_per_core=2)
        layers = [("too_big", 5, 10)]
        replication = replicate(layers, crossbar_budget=5)
        with pytest.raises(MappingError):
            map_layers(layers, replication, chip)

    def test_layer_cores_lookup(self):
        chip = small_chip()
        layers = [("a", 1, 10), ("b", 1, 10)]
        replication = replicate(layers, crossbar_budget=2)
        mapping = map_layers(layers, replication, chip)
        assert mapping.cores_for_layer("a")
        assert mapping.cores_for_layer("b")
        assert mapping.cores_for_layer("missing") == []

    def test_utilization_bounds(self):
        chip = small_chip()
        layers = [("a", 3, 10)]
        replication = replicate(layers, crossbar_budget=3)
        mapping = map_layers(layers, replication, chip)
        assert 0.0 < mapping.utilization() <= 1.0

    def test_chip_s_capacity_exactly_fills(self):
        """144 single-crossbar replicas exactly fill Chip-S."""
        layers = [("conv", 1, 10_000)]
        replication = replicate(layers, crossbar_budget=CHIP_S.total_crossbars)
        mapping = map_layers(layers, replication, CHIP_S)
        assert mapping.total_crossbars_used <= CHIP_S.total_crossbars
        assert mapping.crossbars_per_core == 9

    def test_assignment_entries_record_layer_and_replica(self):
        chip = small_chip()
        layers = [("conv", 2, 100)]
        replication = replicate(layers, crossbar_budget=4)
        mapping = map_layers(layers, replication, chip)
        entries = [e for a in mapping.assignments for e in a.entries]
        layers = {layer for layer, _, _ in entries}
        replicas = {rep for _, rep, _ in entries}
        assert layers == {"conv"}
        assert replicas == set(range(replication.factor("conv")))
