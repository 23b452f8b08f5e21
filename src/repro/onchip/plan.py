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
from typing import List, NamedTuple

from repro.core.partition import Partition
from repro.hardware.chip import ChipConfig
from repro.mapping.core_mapping import CoreMapping, map_tiles_to_cores
from repro.mapping.replication import ReplicationPlan, allocate_replication_arrays


class LayerSlice(NamedTuple):
    """The portion of one layer mapped into a partition.

    A NamedTuple rather than a dataclass: slices are immutable (they feed
    process-wide span-table caches) and constructed on the span-profiling
    hot path, where tuple construction is measurably cheaper.
    """

    layer_name: str
    #: output columns of the layer held by this partition
    cols: int
    #: fraction of the layer's output columns held by this partition
    fraction: float
    #: weight bytes of one copy of this slice
    weight_bytes: int
    #: crossbars of one copy of this slice
    crossbars: int
    #: crossbar-tile MVM operations per sliding window
    tile_ops_per_window: int
    #: sliding windows per inference
    windows: int
    #: im2col rows of the layer (activated wordlines per MVM)
    rows: int
    #: names of attached non-crossbar layers executed with this slice
    attached: tuple


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

    Each layer's units in the span are aggregated via the prefix-sum index:
    a layer's units are contiguous, so every per-layer sum is O(1).
    """
    decomposition = partition.decomposition
    index = decomposition.index
    attachments = decomposition.attachments
    ranges = decomposition.layer_unit_ranges
    geometries = decomposition.geometries
    cols_prefix = index.cols_prefix
    weight_prefix = index.weight_prefix
    crossbar_prefix = index.crossbar_prefix
    tile_ops_prefix = index.tile_ops_prefix
    layer_total_cols = index.layer_total_cols
    start = partition.start
    end = partition.end

    # positional _make: the slim span profilers build slices for every span
    # they fill, and keyword construction costs twice as much
    make = LayerSlice._make
    slices: List[LayerSlice] = []
    for layer_name in partition.layer_names():
        layer_start, layer_end = ranges[layer_name]
        lo = layer_start if layer_start > start else start
        hi = layer_end if layer_end < end else end
        geom = geometries[layer_name]
        cols = cols_prefix[hi] - cols_prefix[lo]
        slices.append(make((
            layer_name,
            cols,
            # fraction == partition.layer_fraction(layer_name): same ints divided
            cols / layer_total_cols[layer_name],
            weight_prefix[hi] - weight_prefix[lo],  # weight_bytes
            crossbar_prefix[hi] - crossbar_prefix[lo],  # crossbars
            tile_ops_prefix[hi] - tile_ops_prefix[lo],  # tile_ops_per_window
            geom.windows,
            geom.rows,
            tuple(attachments.get(layer_name, [])),  # attached
        )))
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
