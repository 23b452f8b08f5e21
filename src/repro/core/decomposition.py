"""Model decomposition into partition units (Sec. III-B, Fig. 4).

The weight matrix of every Conv/Linear layer is divided along its *output*
dimension into partition units sized to fit within the in-memory footprint of
a single PIM core (validity condition 1).  The ordered list of units — in the
topological order of their layers — is the string the genetic algorithm
partitions: a partition is a span of consecutive units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.graph.graph import Graph, GraphNode
from repro.graph.traversal import attach_non_crossbar_layers, crossbar_layer_order
from repro.hardware.chip import ChipConfig
from repro.mapping.geometry import WeightMatrixGeometry, layer_geometry


class DecompositionError(ValueError):
    """Raised when a model cannot be decomposed for the given chip."""


@dataclass(frozen=True)
class PartitionUnit:
    """The minimum granularity of partitioning: a slice of one layer.

    A unit covers output columns ``[col_start, col_end)`` of its layer's
    im2col weight matrix and fits within a single core's crossbar capacity.
    """

    index: int
    layer_name: str
    unit_in_layer: int
    units_in_layer: int
    col_start: int
    col_end: int
    weight_bytes: int
    crossbars: int
    #: MVM tile operations needed per sliding window for this unit
    tile_ops_per_window: int
    #: sliding windows per inference (shared by all units of the layer)
    windows: int

    @property
    def cols(self) -> int:
        """Output columns covered by this unit."""
        return self.col_end - self.col_start

    def __str__(self) -> str:
        return (
            f"x{self.index}({self.layer_name}[{self.col_start}:{self.col_end}], "
            f"{self.weight_bytes}B, {self.crossbars}xb)"
        )


class DecompositionIndex:
    """Precomputed lookup tables for O(1) span queries on a decomposition.

    The genetic algorithm evaluates thousands of partition spans; every span
    quantity that is a sum over units (weight bytes, crossbars, output
    columns, tile operations) is served from a prefix-sum array instead of
    re-traversing the unit list, and every per-node graph attribute the
    partition I/O analysis needs (output sizes, connectivity, crossbar
    mapping) is resolved once here.  All sums are integer, so prefix-sum
    results are bit-identical to direct summation.
    """

    def __init__(self, decomposition: "ModelDecomposition") -> None:
        units = decomposition.units
        graph = decomposition.graph
        bits = decomposition.activation_bits

        def prefix(values: List[int]) -> List[int]:
            # plain Python ints: scalar indexing beats numpy for the O(1)
            # span lookups this index exists to serve, and the sums stay exact
            out = [0] * (len(values) + 1)
            running = 0
            for i, value in enumerate(values):
                running += value
                out[i + 1] = running
            return out

        #: prefix sums over the unit string (index i holds the sum of units [0, i))
        self.weight_prefix = prefix([u.weight_bytes for u in units])
        self.crossbar_prefix = prefix([u.crossbars for u in units])
        self.cols_prefix = prefix([u.cols for u in units])
        self.tile_ops_prefix = prefix([u.tile_ops_per_window for u in units])

        #: crossbar layers in decomposition order and their unit ranges
        self.layers: List[str] = list(decomposition.layer_unit_ranges.keys())
        layer_pos = {name: i for i, name in enumerate(self.layers)}
        #: layer index owning each unit
        self.unit_layer: List[int] = [layer_pos[u.layer_name] for u in units]
        #: total output columns of every crossbar layer (the layer_fraction denominator)
        self.layer_total_cols: Dict[str, int] = {}
        for name in self.layers:
            start, end = decomposition.layer_unit_ranges[name]
            self.layer_total_cols[name] = self.cols_prefix[end] - self.cols_prefix[start]

        #: graph-node attributes used by partition I/O analysis and estimation
        self.node_size_bytes: Dict[str, int] = {}
        self.node_num_elements: Dict[str, int] = {}
        self.node_inputs: Dict[str, Tuple[str, ...]] = {}
        self.node_outputs: Dict[str, Tuple[str, ...]] = {}
        self.node_is_crossbar: Dict[str, bool] = {}
        for node in graph.nodes():
            name = node.name
            assert node.output_shape is not None
            self.node_size_bytes[name] = node.output_shape.size_bytes(bits)
            self.node_num_elements[name] = node.output_shape.num_elements
            self.node_inputs[name] = tuple(node.inputs)
            self.node_outputs[name] = tuple(node.outputs)
            self.node_is_crossbar[name] = node.layer.is_crossbar_mapped

        #: nodes executed with each crossbar layer (the layer plus attachments)
        self.layer_owned: Dict[str, frozenset] = {}
        #: total output elements of the non-crossbar layers attached to a layer
        self.layer_attached_elements: Dict[str, int] = {}
        for name in self.layers:
            attached = decomposition.attachments.get(name, [])
            self.layer_owned[name] = frozenset([name, *attached])
            self.layer_attached_elements[name] = sum(
                self.node_num_elements[a] for a in attached
            )
        #: lazily built single-layer I/O templates, see single_layer_io_template
        self._io_templates: Dict[str, Tuple] = {}

        # int64 copies for the array span queries of span_keys
        ranges = decomposition.layer_unit_ranges.values()
        self._unit_layer = np.array(self.unit_layer, dtype=np.int64)
        self._layer_start = np.array([lo for lo, _ in ranges], dtype=np.int64)
        self._layer_end = np.array([hi for _, hi in ranges], dtype=np.int64)
        self._slice_prefixes = tuple(
            np.array(prefix, dtype=np.int64)
            for prefix in (self.cols_prefix, self.crossbar_prefix,
                           self.tile_ops_prefix, self.weight_prefix)
        )

    # ------------------------------------------------------------------
    def single_layer_io_template(self, layer: str) -> Tuple:
        """Entry/exit template of a span holding (part of) exactly one layer.

        For a single-layer span the *structure* of the partition I/O is
        independent of how many of the layer's units the span holds: the
        entry set (and its byte sizes) is constant, and only the layer's own
        exit bytes scale with the owned-column fraction — its attachments'
        outputs are modelled at full size.  Returns
        ``(entries, exits)`` where ``entries`` is the final sorted tuple of
        ``(src, bytes)`` and ``exits`` is a sorted tuple of
        ``(name, bytes, scales_with_fraction)``.
        """
        template = self._io_templates.get(layer)
        if template is not None:
            return template
        owned = self.layer_owned[layer]
        entries: Dict[str, int] = {}
        exits = []
        for name in sorted(owned):
            for src in self.node_inputs[name]:
                if src not in owned:
                    size = self.node_size_bytes[src]
                    if size > entries.get(src, 0):
                        entries[src] = size
            outputs = self.node_outputs[name]
            consumed_outside = any(succ not in owned for succ in outputs)
            if not outputs or consumed_outside:
                exits.append((name, self.node_size_bytes[name], name == layer))
        template = (tuple(sorted(entries.items())), tuple(sorted(exits)))
        self._io_templates[layer] = template
        return template

    # ------------------------------------------------------------------
    def span_keys(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """Geometry key of every span ``[starts[i], ends[i])``, one int64 row each.

        Columns: first and last layer index; ``(cols, crossbars, tile_ops,
        weight_bytes)`` of the first layer's slice, then of the last layer's;
        ``start > first layer start``; ``end < last layer end``.  The layers
        between the two edge layers are whole, and the flags say which edge
        layers are partial, so spans with equal keys have equal
        ``layer_slices``, owned nodes and ``Partition.io()``, hence equal
        span profiles.  A single-layer span's I/O depends on its owned
        fraction only, so its flags are 0.
        """
        first = self._unit_layer[starts]
        last = self._unit_layer[ends - 1]
        first_end = np.minimum(self._layer_end[first], ends)
        last_start = np.maximum(self._layer_start[last], starts)
        keys = np.empty((len(starts), 12), dtype=np.int64)
        keys[:, 0] = first
        keys[:, 1] = last
        for column, prefix in enumerate(self._slice_prefixes, start=2):
            keys[:, column] = prefix[first_end] - prefix[starts]
            keys[:, column + 4] = prefix[ends] - prefix[last_start]
        multi_layer = first != last
        keys[:, 10] = multi_layer & (starts > self._layer_start[first])
        keys[:, 11] = multi_layer & (ends < self._layer_end[last])
        return keys

    def layers_in_span(self, start: int, end: int) -> List[str]:
        """Crossbar layers with at least one unit in ``[start, end)``, in order."""
        if start >= end:
            return []
        return self.layers[self.unit_layer[start]:self.unit_layer[end - 1] + 1]


@dataclass
class ModelDecomposition:
    """A model decomposed into partition units for a specific chip.

    Holds everything partitioning needs: the ordered unit list, per-layer
    geometry, the attachment of non-crossbar layers to their producing
    Conv/Linear layer, and per-layer unit index ranges.
    """

    graph: Graph
    chip: ChipConfig
    weight_bits: int
    activation_bits: int
    units: List[PartitionUnit]
    geometries: Dict[str, WeightMatrixGeometry]
    #: crossbar layer name -> names of attached non-crossbar layers
    attachments: Dict[str, List[str]]
    #: layer name -> (first unit index, last unit index + 1)
    layer_unit_ranges: Dict[str, tuple]

    # ------------------------------------------------------------------
    @property
    def index(self) -> DecompositionIndex:
        """Lazily built prefix-sum/lookup index for O(1) span queries."""
        idx = self.__dict__.get("_index")
        if idx is None:
            idx = DecompositionIndex(self)
            self.__dict__["_index"] = idx
        return idx

    @property
    def num_units(self) -> int:
        """Number of partition units (M in Fig. 5)."""
        return len(self.units)

    @property
    def crossbar_layers(self) -> List[str]:
        """Crossbar-mapped layer names in decomposition order."""
        return list(self.layer_unit_ranges.keys())

    def units_of_layer(self, layer_name: str) -> List[PartitionUnit]:
        """All units belonging to the given layer."""
        start, end = self.layer_unit_ranges[layer_name]
        return self.units[start:end]

    def layer_of_unit(self, unit_index: int) -> str:
        """Layer owning the given unit index."""
        return self.units[unit_index].layer_name

    def node(self, layer_name: str) -> GraphNode:
        """Graph node for a layer name."""
        return self.graph.node(layer_name)

    def span_weight_bytes(self, start: int, end: int) -> int:
        """Single-copy weight bytes of units in ``[start, end)`` (O(1))."""
        prefix = self.index.weight_prefix
        return prefix[end] - prefix[start]

    def span_crossbars(self, start: int, end: int) -> int:
        """Single-copy crossbar count of units in ``[start, end)`` (O(1))."""
        prefix = self.index.crossbar_prefix
        return prefix[end] - prefix[start]

    def total_weight_bytes(self) -> int:
        """Single-copy weight bytes of the whole decomposed model."""
        return self.span_weight_bytes(0, self.num_units)

    def fits_fully_on_chip(self) -> bool:
        """Whether the entire model fits on chip without partitioning."""
        return self.total_weight_bytes() <= self.chip.weight_capacity_bytes


def _split_columns(total_cols: int, num_units: int) -> List[tuple]:
    """Split ``total_cols`` into ``num_units`` near-equal contiguous ranges."""
    base = total_cols // num_units
    extra = total_cols % num_units
    ranges = []
    start = 0
    for i in range(num_units):
        size = base + (1 if i < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


def decompose_model(
    graph: Graph,
    chip: ChipConfig,
    weight_bits: int = 4,
    activation_bits: int = 4,
) -> ModelDecomposition:
    """Decompose a model into partition units for the given chip.

    Every Conv/Linear layer is split along the output dimension into the
    smallest number of units whose weight bytes fit within one core's
    crossbar capacity (validity condition 1 of Sec. III-B).

    Raises :class:`DecompositionError` if any single output column of a layer
    exceeds a core's capacity (the model cannot run on this chip at all).
    """
    xbar = chip.core.crossbar
    if xbar.weight_bits != weight_bits:
        # The crossbar capacity model depends on the weight precision; keep
        # them consistent rather than silently mixing precisions.
        raise DecompositionError(
            f"weight_bits={weight_bits} does not match the crossbar configuration "
            f"({xbar.weight_bits}-bit weights)"
        )

    core_capacity = chip.core.weight_capacity_bytes
    units: List[PartitionUnit] = []
    geometries: Dict[str, WeightMatrixGeometry] = {}
    layer_unit_ranges: Dict[str, tuple] = {}

    for layer_name in crossbar_layer_order(graph):
        node = graph.node(layer_name)
        geom = layer_geometry(node, xbar)
        geometries[layer_name] = geom

        total_cols = geom.cols * geom.groups
        bytes_per_col = (geom.rows * weight_bits + 7) // 8
        if bytes_per_col > core_capacity:
            raise DecompositionError(
                f"layer {layer_name!r}: a single output column needs {bytes_per_col} B "
                f"but a core only holds {core_capacity} B"
            )

        max_cols_per_unit = max(1, core_capacity // bytes_per_col)
        num_layer_units = math.ceil(total_cols / max_cols_per_unit)
        col_ranges = _split_columns(total_cols, num_layer_units)

        first_index = len(units)
        for unit_in_layer, (col_start, col_end) in enumerate(col_ranges):
            cols = col_end - col_start
            weight_bytes = cols * bytes_per_col
            crossbars = max(1, math.ceil(weight_bytes / xbar.capacity_bytes))
            tile_ops = geom.row_tiles * math.ceil(cols / xbar.weight_cols)
            units.append(
                PartitionUnit(
                    index=len(units),
                    layer_name=layer_name,
                    unit_in_layer=unit_in_layer,
                    units_in_layer=num_layer_units,
                    col_start=col_start,
                    col_end=col_end,
                    weight_bytes=weight_bytes,
                    crossbars=crossbars,
                    tile_ops_per_window=tile_ops,
                    windows=geom.windows,
                )
            )
        layer_unit_ranges[layer_name] = (first_index, len(units))

    if not units:
        raise DecompositionError("model has no crossbar-mapped (Conv/Linear) layers")

    return ModelDecomposition(
        graph=graph,
        chip=chip,
        weight_bits=weight_bits,
        activation_bits=activation_bits,
        units=units,
        geometries=geometries,
        attachments=attach_non_crossbar_layers(graph),
        layer_unit_ranges=layer_unit_ranges,
    )
