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
from typing import Dict, List, NamedTuple, Optional, Tuple

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


class SpanTemplate:
    """What every span over one layer range has in common.

    A layer range is a span's first and last layer plus whether each of
    those edge layers is held only in part (see
    :meth:`DecompositionIndex.span_template`).  Spans over one range own the
    same nodes, hold every layer between the edges whole, and have the same
    partition I/O structure: only the two edge slices and the I/O terms that
    scale with an edge layer's owned fraction differ from span to span.  A
    single-layer span's layer counts as a partial edge, since its structure
    does not depend on how much of the layer it holds.

    The owned nodes are walked once, when the template is built, and not
    kept: a template holds only what the span profilers read per span.
    """

    __slots__ = (
        "first", "last", "first_partial", "last_partial", "slices",
        "windows", "intercore_ns", "in_bytes", "attached_elements", "entries", "exits",
        "entry_terms", "exit_terms", "load_bytes", "store_bytes", "__weakref__",
    )

    def __init__(self, index: "DecompositionIndex", first: int, last: int,
                 first_partial: bool, last_partial: bool) -> None:
        layers = index.layers[first:last + 1]
        single = first == last
        #: layer indices of the edge layers
        self.first = first
        self.last = last
        #: whether each edge slice differs from its whole layer's, so spans
        #: recompute it (a single-layer span recomputes its one slice as first)
        self.first_partial = first_partial or single
        self.last_partial = last_partial and not single
        # graph nodes executed by every span over the range
        owned = frozenset().union(*(index.layer_owned[name] for name in layers))
        #: every layer's whole slice; a partial edge's is replaced per span
        self.slices = tuple(index.whole_slices[first:last + 1])
        #: every layer's sliding windows (the allocators' per-layer input)
        self.windows = tuple([s.windows for s in self.slices])
        #: per layer: inter-core bus time to gather its owned inputs (on the
        #: decomposition's chip), the bytes of all its inputs and the output
        #: elements of its attached layers
        bus = index.interconnect
        sizes = index.node_size_bytes
        intercore = []
        for name in layers:
            intercore_ns = 0.0
            for src in index.node_inputs[name]:
                num_bytes = sizes[src]
                if src in owned and num_bytes > 0:
                    intercore_ns += bus.transfer_latency_ns + num_bytes / bus.bandwidth_bytes_per_ns
            intercore.append(intercore_ns)
        self.intercore_ns = tuple(intercore)
        self.in_bytes = tuple(index.layer_in_bytes[first:last + 1])
        self.attached_elements = tuple([index.layer_attached_elements[name] for name in layers])

        # edge layers whose output columns are held in part: edge 0 is the
        # first layer, edge 1 the last
        edge = {}
        if self.first_partial:
            edge[layers[0]] = 0
        if last_partial:
            edge[layers[-1]] = 1
        is_crossbar = index.node_is_crossbar
        entries: Dict[str, Tuple[int, Optional[int]]] = {}
        exits: Dict[str, Tuple[int, Optional[int]]] = {}
        # the items are sorted by name in the end, so owned nodes go in any order
        for name in owned:
            consumer_is_crossbar = is_crossbar[name]
            for src in index.node_inputs[name]:
                if src not in owned:
                    if sizes[src] > 0:
                        entries[src] = (sizes[src], None)
                elif src in edge and consumer_is_crossbar:
                    # a Conv/Linear consumer needs the producer's full output,
                    # but a span holds only a slice of it; the rest was
                    # produced elsewhere and must be fetched from DRAM.
                    # (Element-wise consumers operate slice-locally and need
                    # no such load.)
                    entries[src] = (sizes[src], edge[src])
            # a model output, or one consumed outside the span or by a
            # partial edge layer, is stored; a span holding only a slice of
            # an edge layer stores only its slice of the feature map
            outputs = index.node_outputs[name]
            if not (outputs and owned.issuperset(outputs) and edge.keys().isdisjoint(outputs)):
                exits[name] = (sizes[name], edge.get(name))
        #: sorted ``(name, bytes)`` entries and exits (a term's bytes are its
        #: full size), the ``(position, full bytes, edge)`` terms among them
        #: and the sum of the fixed bytes
        self.entries, self.entry_terms, self.load_bytes = _io_template(entries)
        self.exits, self.exit_terms, self.store_bytes = _io_template(exits)

    # ------------------------------------------------------------------
    def io_items(self, first_fraction: float, last_fraction: float) -> Tuple[Tuple, Tuple]:
        """``(entries, exits)`` of a span whose edge layers own these fractions.

        Both are sorted ``(node name, bytes)`` tuples, the fields of
        :class:`~repro.core.partition.PartitionIO`.  An entry term loads the
        part of an edge layer's output the span does not hold; an exit term
        stores the part it does.
        """
        return (
            _scaled_items(self.entries, self.entry_terms,
                          (1.0 - first_fraction, 1.0 - last_fraction)),
            _scaled_items(self.exits, self.exit_terms, (first_fraction, last_fraction)),
        )

    def io_bytes(self, first_fraction: float, last_fraction: float) -> Tuple[int, int]:
        """``(load bytes, store bytes)``: the byte sums of :meth:`io_items`."""
        load_bytes = self.load_bytes
        for _, size, edge in self.entry_terms:
            load_bytes += _scaled_bytes(size, 1.0 - (last_fraction if edge else first_fraction))
        store_bytes = self.store_bytes
        for _, size, edge in self.exit_terms:
            store_bytes += _scaled_bytes(size, last_fraction if edge else first_fraction)
        return load_bytes, store_bytes


def _io_template(items: Dict[str, Tuple[int, Optional[int]]]) -> Tuple[Tuple, Tuple, int]:
    """Sorted ``(name, bytes)`` items, their fraction terms and fixed bytes.

    An item whose edge is ``None`` has fixed bytes (at least 1); the others
    become ``(position, full bytes, edge)`` terms, scaled per span.
    """
    ordered = []
    terms = []
    fixed_bytes = 0
    for position, (name, (size, edge)) in enumerate(sorted(items.items())):
        if edge is None:
            size = max(size, 1)
            fixed_bytes += size
        else:
            terms.append((position, size, edge))
        ordered.append((name, size))
    return tuple(ordered), tuple(terms), fixed_bytes


def _scaled_bytes(size: int, fraction: float) -> int:
    return max(1, int(round(size * fraction)))


def _scaled_items(items: Tuple, terms: Tuple, fractions: Tuple[float, float]) -> Tuple:
    if not terms:
        return items
    scaled = list(items)
    for position, size, edge in terms:
        scaled[position] = (items[position][0], _scaled_bytes(size, fractions[edge]))
    return tuple(scaled)


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
        #: output bytes of all inputs of every crossbar layer
        self.layer_in_bytes: List[int] = [
            sum(self.node_size_bytes[src] for src in self.node_inputs[name])
            for name in self.layers
        ]
        #: the chip bus that span templates price inter-core transfers on
        self.interconnect = decomposition.chip.interconnect
        #: (first unit, last unit + 1) of every crossbar layer, in layer order
        self.layer_ranges: List[Tuple[int, int]] = list(decomposition.layer_unit_ranges.values())
        self._geometries = decomposition.geometries
        self._attachments = decomposition.attachments
        #: every crossbar layer's slice when a span holds all of it
        self.whole_slices: List[LayerSlice] = [
            self.layer_slice(layer, lo, hi) for layer, (lo, hi) in enumerate(self.layer_ranges)
        ]
        #: lazily built span templates by layer range, see span_template
        self._templates: Dict[Tuple[int, int, bool, bool], SpanTemplate] = {}

        # int64 copies for the array span queries of span_keys
        self._unit_layer = np.array(self.unit_layer, dtype=np.int64)
        self._layer_start = np.array([lo for lo, _ in self.layer_ranges], dtype=np.int64)
        self._layer_end = np.array([hi for _, hi in self.layer_ranges], dtype=np.int64)
        self._slice_prefixes = tuple(
            np.array(prefix, dtype=np.int64)
            for prefix in (self.cols_prefix, self.crossbar_prefix,
                           self.tile_ops_prefix, self.weight_prefix)
        )

    # ------------------------------------------------------------------
    def layer_slice(self, layer: int, lo: int, hi: int) -> LayerSlice:
        """The slice of layer number ``layer`` made of its units ``[lo, hi)``.

        A layer's units are contiguous, so every per-slice sum is O(1) via
        the prefix sums.
        """
        name = self.layers[layer]
        geom = self._geometries[name]
        cols = self.cols_prefix[hi] - self.cols_prefix[lo]
        # positional _make: the span profilers build an edge slice for every
        # span geometry, and keyword construction costs twice as much
        return LayerSlice._make((
            name,
            cols,
            # fraction == Partition.layer_fraction(name): same ints divided
            cols / self.layer_total_cols[name],
            self.weight_prefix[hi] - self.weight_prefix[lo],  # weight_bytes
            self.crossbar_prefix[hi] - self.crossbar_prefix[lo],  # crossbars
            self.tile_ops_prefix[hi] - self.tile_ops_prefix[lo],  # tile_ops_per_window
            geom.windows,
            geom.rows,
            tuple(self._attachments.get(name, [])),  # attached
        ))

    def span_template(self, start: int, end: int) -> SpanTemplate:
        """The :class:`SpanTemplate` of the span ``[start, end)``, built once.

        Templates are keyed by layer range: the first and last layer index
        and whether the span holds only part of each, i.e. the
        :meth:`span_keys` columns 0, 1, 10 and 11 (both flags false for a
        single-layer span).
        """
        unit_layer = self.unit_layer
        first = unit_layer[start]
        last = unit_layer[end - 1]
        multi_layer = first != last
        key = (first, last,
               multi_layer and start > self.layer_ranges[first][0],
               multi_layer and end < self.layer_ranges[last][1])
        template = self._templates.get(key)
        if template is None:
            template = self._templates[key] = SpanTemplate(self, *key)
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
