"""Baseline partitioning schemes the paper compares against (Sec. IV-A2).

* **Greedy** packs as many consecutive partition units as possible into each
  partition, iterating the unit string and tracking the remaining on-chip
  memory footprint.  It minimises the number of partitions (and hence weight
  replacement phases) but leaves little room for replication, so early
  partitions become deep, unbalanced pipelines.
* **Layerwise** maps a single Conv/Linear layer at a time (splitting a layer
  that does not fit by itself), with the trailing non-Conv/Linear nodes kept
  with their producer as in all schemes.  It maximises replication per
  partition but multiplies DRAM traffic for intermediate features.
"""

from __future__ import annotations

from typing import List

from repro.core.decomposition import ModelDecomposition
from repro.core.partition import PartitionGroup
from repro.core.validity import ValidityMap


def greedy_partition(decomposition: ModelDecomposition,
                     validity: ValidityMap = None) -> PartitionGroup:
    """Greedy baseline: each partition takes the longest valid span available."""
    validity = validity if validity is not None else ValidityMap(decomposition)
    boundaries: List[int] = []
    start = 0
    while start < decomposition.num_units:
        end = validity.max_end(start)
        boundaries.append(end)
        start = end
    return PartitionGroup.from_boundaries(decomposition, boundaries)


def layerwise_partition(decomposition: ModelDecomposition,
                        validity: ValidityMap = None) -> PartitionGroup:
    """Layerwise baseline: one Conv/Linear layer per partition.

    A layer whose single copy exceeds the chip capacity is split into the
    minimum number of valid partitions (this is what lets the baseline run
    VGG16's fully-connected layers at all).
    """
    validity = validity if validity is not None else ValidityMap(decomposition)
    boundaries: List[int] = []
    for layer_name in decomposition.crossbar_layers:
        layer_start, layer_end = decomposition.layer_unit_ranges[layer_name]
        start = layer_start
        while start < layer_end:
            end = min(validity.max_end(start), layer_end)
            boundaries.append(end)
            start = end
    return PartitionGroup.from_boundaries(decomposition, boundaries)

