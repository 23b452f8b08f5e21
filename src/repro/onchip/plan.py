"""Per-partition execution plan: layer slices, replication and core mapping.

A :class:`PartitionPlan` is the on-chip view of one partition: for every
Conv/Linear layer with units in the partition it aggregates the units into a
*layer slice* (the columns of that layer mapped here), allocates weight
replication across the chip's crossbar budget, and packs the replicated tiles
onto cores.  The plan is consumed by the latency/energy estimator and by the
instruction scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.decomposition import LayerSlice
from repro.core.partition import Partition
from repro.hardware.chip import ChipConfig
from repro.mapping.core_mapping import CoreMapping, map_tiles_to_cores
from repro.mapping.replication import ReplicationPlan, allocate_replication_arrays


@dataclass(slots=True)
class PartitionPlan:
    """Replication + core mapping decisions for one partition."""

    partition: Partition
    chip: ChipConfig
    slices: List[LayerSlice]
    replication: ReplicationPlan
    core_mapping: CoreMapping

    # ------------------------------------------------------------------
    @property
    def replicated_weight_bytes(self) -> int:
        """Weight bytes written into crossbars, counting every replica."""
        return sum(s.weight_bytes * self.replication.factor(s.layer_name) for s in self.slices)

    @property
    def single_copy_weight_bytes(self) -> int:
        """Weight bytes loaded from DRAM (replicas are broadcast on chip)."""
        return sum(s.weight_bytes for s in self.slices)

    @property
    def crossbars_used(self) -> int:
        """Crossbar tiles occupied including replication."""
        return self.replication.total_crossbars

    @property
    def core_utilization(self) -> float:
        """Fraction of crossbars used on active cores."""
        return self.core_mapping.utilization()


def layer_slices(partition: Partition) -> List[LayerSlice]:
    """The layer slices of a partition, in layer order.

    The span's template holds every whole layer's slice; only a partially
    held edge layer's slice is aggregated here, in O(1) via the prefix-sum
    index.
    """
    index = partition.decomposition.index
    start = partition.start
    end = partition.end
    template = index.span_template(start, end)
    slices = list(template.slices)
    if template.first_partial:
        layer_end = index.layer_ranges[template.first][1]
        slices[0] = index.layer_slice(template.first, start, min(layer_end, end))
    if template.last_partial:
        layer_start = index.layer_ranges[template.last][0]
        slices[-1] = index.layer_slice(template.last, max(layer_start, start), end)
    return slices


def build_partition_plan(partition: Partition, chip: ChipConfig) -> PartitionPlan:
    """Build the on-chip plan (slices, replication, core mapping) for a partition.

    Replication honours the paper's validity conditions: factors are per
    layer (units from one kernel share a count) and the replicated total
    cannot exceed the chip's crossbar budget; the allocator keeps a single
    copy when the budget is tight.
    """
    slices = layer_slices(partition)
    # The mapping allocators read only (name, windows, crossbars) per slice.
    names = [s.layer_name for s in slices]
    copies = [s.crossbars for s in slices]
    replication = allocate_replication_arrays(
        names, [s.windows for s in slices], copies,
        crossbar_budget=chip.total_crossbars,
    )
    core_mapping = map_tiles_to_cores(names, copies, replication, chip)
    return PartitionPlan(
        partition=partition,
        chip=chip,
        slices=slices,
        replication=replication,
        core_mapping=core_mapping,
    )
