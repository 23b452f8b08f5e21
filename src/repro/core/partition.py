"""Partitions and partition groups, with global-memory entry/exit analysis.

A *partition* is a span of consecutive partition units plus the non-crossbar
layers attached to them.  A *partition group* is an ordered list of
partitions covering the entire decomposed model; partitions execute
sequentially with weight replacement in between (Sec. II-B).

Unlike a fully on-chip model, each partition can have multiple entry and exit
nodes (Sec. III-B3): e.g. a ResNet residual connection that is not fully
contained in a partition forces the producing partition to store the skip
feature map to global memory and the consuming partition to load it back.
This module computes those load/store attributes, which feed DRAM latency
and energy estimation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import FrozenSet, List, Sequence, Tuple

import numpy as np

from repro.core.decomposition import ModelDecomposition, PartitionUnit, SpanTemplate


@dataclass(frozen=True, slots=True)
class PartitionIO:
    """Global-memory traffic of one partition, per input sample."""

    #: (source node name, bytes loaded from global memory) per entry
    entries: Tuple[Tuple[str, int], ...]
    #: (node name, bytes stored to global memory) per exit
    exits: Tuple[Tuple[str, int], ...]

    @property
    def load_bytes(self) -> int:
        """Bytes loaded from global memory per sample."""
        return sum(b for _, b in self.entries)

    @property
    def store_bytes(self) -> int:
        """Bytes stored to global memory per sample."""
        return sum(b for _, b in self.exits)

    @property
    def num_entries(self) -> int:
        """Number of entry nodes (multi-endpoint dependences)."""
        return len(self.entries)

    @property
    def num_exits(self) -> int:
        """Number of exit nodes."""
        return len(self.exits)


@dataclass
class Partition:
    """A span ``[start, end)`` of partition units."""

    decomposition: ModelDecomposition
    start: int
    end: int

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.end <= self.decomposition.num_units:
            raise ValueError(
                f"invalid partition span [{self.start}, {self.end}) for "
                f"{self.decomposition.num_units} units"
            )

    # ------------------------------------------------------------------
    @property
    def units(self) -> List[PartitionUnit]:
        """Units contained in this partition."""
        return self.decomposition.units[self.start:self.end]

    @property
    def num_units(self) -> int:
        """Number of units in this partition (|P| in the paper)."""
        return self.end - self.start

    @property
    def weight_bytes(self) -> int:
        """Single-copy weight bytes of this partition."""
        return self.decomposition.span_weight_bytes(self.start, self.end)

    @property
    def crossbars(self) -> int:
        """Single-copy crossbar count of this partition."""
        return self.decomposition.span_crossbars(self.start, self.end)

    def layer_names(self) -> List[str]:
        """Crossbar layers with at least one unit in this partition, in order."""
        return self.decomposition.index.layers_in_span(self.start, self.end)

    def layer_fraction(self, layer_name: str) -> float:
        """Fraction of the layer's output columns held by this partition.

        O(1) via the decomposition's prefix-sum index: a layer's units are
        contiguous, so the columns owned here are the prefix-sum difference
        over the intersection of the layer's unit range with this span.
        """
        total_range = self.decomposition.layer_unit_ranges.get(layer_name)
        if total_range is None:
            return 0.0
        layer_start, layer_end = total_range
        lo = max(self.start, layer_start)
        hi = min(self.end, layer_end)
        if lo >= hi:
            return 0.0
        index = self.decomposition.index
        cols_prefix = index.cols_prefix
        owned = cols_prefix[hi] - cols_prefix[lo]
        if owned == 0:
            return 0.0
        total = index.layer_total_cols[layer_name]
        return owned / total if total else 0.0

    def owned_nodes(self) -> FrozenSet[str]:
        """Graph nodes executed by this partition.

        Crossbar layers with units here plus their attached non-crossbar
        layers (ReLU/BatchNorm/Pool/Add/...).
        """
        layer_owned = self.decomposition.index.layer_owned
        return frozenset().union(*(layer_owned[layer] for layer in self.layer_names()))

    def template(self) -> SpanTemplate:
        """The layer-range template this span shares with similar spans."""
        return self.decomposition.index.span_template(self.start, self.end)

    # ------------------------------------------------------------------
    def io(self) -> PartitionIO:
        """Compute the entry/exit nodes and their DRAM traffic.

        Entry: any input edge whose producer is a model input or a node not
        executed by this partition.  Exit: any node executed here whose output
        is a model output or is consumed by a node outside this partition.
        Feature-map bytes of a layer split across partitions are scaled by the
        fraction of output columns this partition owns.

        Which nodes enter and exit depends only on the span's layer range,
        so the span's :class:`~repro.core.decomposition.SpanTemplate` holds
        them with their fixed bytes; only the bytes that scale with an edge
        layer's fraction are computed here.
        """
        template = self.template()
        layers = self.decomposition.index.layers
        entries, exits = template.io_items(self.layer_fraction(layers[template.first]),
                                           self.layer_fraction(layers[template.last]))
        return PartitionIO(entries=entries, exits=exits)

    def __str__(self) -> str:
        return f"P[{self.start}:{self.end}]({self.num_units} units, {self.weight_bytes}B)"


@dataclass
class PartitionGroup:
    """An ordered list of partitions covering the whole decomposed model.

    Represented compactly by the partition end positions (``boundaries``);
    the i-th partition is ``[boundaries[i-1], boundaries[i])`` with an
    implicit leading 0.
    """

    decomposition: ModelDecomposition
    boundaries: Tuple[int, ...]

    def __post_init__(self) -> None:
        bounds = tuple(self.boundaries)
        self.boundaries = bounds
        if not bounds:
            raise ValueError("partition group needs at least one partition")
        prev = 0
        for b in bounds:
            if b <= prev:
                raise ValueError(f"boundaries must be strictly increasing, got {bounds}")
            prev = b
        if bounds[-1] != self.decomposition.num_units:
            raise ValueError(
                f"boundaries must cover all {self.decomposition.num_units} units, got {bounds}"
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_boundaries(cls, decomposition: ModelDecomposition,
                        boundaries: Sequence[int]) -> "PartitionGroup":
        """Build a group from partition end positions."""
        return cls(decomposition=decomposition, boundaries=tuple(boundaries))

    @classmethod
    def from_boundaries_many(cls, decomposition: ModelDecomposition,
                             boundaries: Sequence[Sequence[int]]) -> Sequence["PartitionGroup"]:
        """Build many groups from cut tuples, checked in one array pass.

        The constructor's checks (non-empty, strictly increasing, last cut
        ``== num_units``) run over the :func:`flat_spans` of all the tuples,
        which the returned :class:`PartitionGroups` keeps.  If any tuple
        fails, the constructor builds them one by one and raises its error.
        """
        bounds = [tuple(cuts) for cuts in boundaries]
        counts = list(map(len, bounds))
        if bounds and all(counts):
            starts, ends = flat_spans(bounds, counts)
            last = ends[np.cumsum(counts) - 1]
            if (ends > starts).all() and (last == decomposition.num_units).all():
                groups = PartitionGroups(cls.__new__(cls) for _ in bounds)
                for group, cuts in zip(groups, bounds):
                    group.__dict__.update(decomposition=decomposition, boundaries=cuts)
                starts.setflags(write=False)
                ends.setflags(write=False)
                groups.spans = (starts, ends)
                return groups
        return [cls(decomposition, cuts) for cuts in bounds]

    @classmethod
    def single_partition(cls, decomposition: ModelDecomposition) -> "PartitionGroup":
        """A group with everything in one partition (only valid if it fits)."""
        return cls(decomposition=decomposition, boundaries=(decomposition.num_units,))

    # ------------------------------------------------------------------
    @property
    def num_partitions(self) -> int:
        """Number of partitions in the group."""
        return len(self.boundaries)

    def spans(self) -> List[Tuple[int, int]]:
        """(start, end) spans of all partitions."""
        result = []
        start = 0
        for end in self.boundaries:
            result.append((start, end))
            start = end
        return result

    def partitions(self) -> List[Partition]:
        """Materialised :class:`Partition` objects."""
        return [Partition(self.decomposition, s, e) for s, e in self.spans()]

    def partition(self, index: int) -> Partition:
        """The i-th partition."""
        spans = self.spans()
        start, end = spans[index]
        return Partition(self.decomposition, start, end)

    def is_valid(self, capacity_crossbars: int) -> bool:
        """Whether every partition fits on chip at a single copy (in crossbars)."""
        return all(
            self.decomposition.span_crossbars(s, e) <= capacity_crossbars
            for s, e in self.spans()
        )

    def total_weight_bytes(self) -> int:
        """Single-copy weight bytes across partitions (equals the model's)."""
        return sum(p.weight_bytes for p in self.partitions())

    def signature(self) -> Tuple[int, ...]:
        """Hashable identity of the partitioning (for caching/dedup)."""
        return self.boundaries

    def __str__(self) -> str:
        return f"PartitionGroup({self.num_partitions} partitions, boundaries={list(self.boundaries)})"


class PartitionGroups(tuple):
    """Groups from :meth:`PartitionGroup.from_boundaries_many`, with their
    read-only :func:`flat_spans` as ``spans`` for the population scorer
    (:meth:`~repro.core.fitness.FitnessEvaluator.evaluate_many`)."""

    spans: Tuple[np.ndarray, np.ndarray]


def flat_spans(boundaries: Sequence[Tuple[int, ...]],
               counts: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """(starts, ends) int64 arrays of every partition of many cut tuples;
    ``counts`` holds each tuple's length."""
    ends = np.fromiter(chain.from_iterable(boundaries), dtype=np.int64, count=sum(counts))
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1]
    if len(counts) > 1:  # one tuple (a one-group evaluation) has no later head
        starts[np.cumsum(counts[:-1], dtype=np.int64)] = 0
    return starts, ends
