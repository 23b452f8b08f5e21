"""DNN model graph: a DAG of layers with inferred shapes.

The graph is the compiler's view of the network.  Nodes are layers, edges are
data dependences.  Shapes are inferred eagerly as nodes are added so that any
inconsistent architecture fails fast at model-construction time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.graph.layers import Layer, LayerKind
from repro.graph.tensor import TensorShape


class GraphValidationError(ValueError):
    """Raised when the graph structure is inconsistent."""


@dataclass
class GraphNode:
    """A node of the model graph: a layer plus its connectivity and shapes."""

    layer: Layer
    inputs: List[str] = field(default_factory=list)
    outputs: List[str] = field(default_factory=list)
    output_shape: Optional[TensorShape] = None

    @property
    def name(self) -> str:
        """Node name (same as the layer name)."""
        return self.layer.name

    @property
    def kind(self) -> LayerKind:
        """Layer kind of this node."""
        return self.layer.kind


class Graph:
    """A directed acyclic graph of DNN layers.

    Nodes must be added in a valid topological order (producers before
    consumers); shape inference runs on insertion.
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self._nodes: Dict[str, GraphNode] = {}
        self._order: List[str] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_layer(self, layer: Layer, inputs: Sequence[str] = ()) -> GraphNode:
        """Add a layer to the graph, wiring it to the named input nodes.

        Returns the created :class:`GraphNode`.  Raises
        :class:`GraphValidationError` for duplicate names, unknown inputs or
        shape-inference failures.
        """
        if layer.name in self._nodes:
            raise GraphValidationError(f"duplicate layer name {layer.name!r}")
        if layer.kind is LayerKind.INPUT and inputs:
            raise GraphValidationError(f"input layer {layer.name!r} cannot have inputs")
        if layer.kind is not LayerKind.INPUT and not inputs:
            raise GraphValidationError(f"layer {layer.name!r} must have at least one input")

        input_shapes: List[TensorShape] = []
        for src in inputs:
            if src not in self._nodes:
                raise GraphValidationError(
                    f"layer {layer.name!r} references unknown input {src!r}"
                )
            shape = self._nodes[src].output_shape
            assert shape is not None
            input_shapes.append(shape)

        node = GraphNode(layer=layer, inputs=list(inputs))
        node.output_shape = layer.infer_output_shape(input_shapes)
        self._nodes[layer.name] = node
        self._order.append(layer.name)
        for src in inputs:
            self._nodes[src].outputs.append(layer.name)
        return node

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[GraphNode]:
        return iter(self.nodes())

    def node(self, name: str) -> GraphNode:
        """Return the node with the given name."""
        try:
            return self._nodes[name]
        except KeyError:
            raise GraphValidationError(f"unknown node {name!r}") from None

    def nodes(self) -> List[GraphNode]:
        """All nodes in insertion (topological) order."""
        return [self._nodes[n] for n in self._order]

    def node_names(self) -> List[str]:
        """All node names in insertion (topological) order."""
        return list(self._order)

    def input_nodes(self) -> List[GraphNode]:
        """Model input nodes."""
        return [n for n in self.nodes() if n.kind is LayerKind.INPUT]

    def output_nodes(self) -> List[GraphNode]:
        """Model output nodes (nodes with no consumers)."""
        return [n for n in self.nodes() if not n.outputs]

    def predecessors(self, name: str) -> List[GraphNode]:
        """Producer nodes of the named node."""
        return [self._nodes[p] for p in self.node(name).inputs]

    def successors(self, name: str) -> List[GraphNode]:
        """Consumer nodes of the named node."""
        return [self._nodes[s] for s in self.node(name).outputs]

    def crossbar_nodes(self) -> List[GraphNode]:
        """Conv/Linear nodes, in topological order."""
        return [n for n in self.nodes() if n.layer.is_crossbar_mapped]

    # ------------------------------------------------------------------
    # model statistics
    # ------------------------------------------------------------------
    def total_weight_count(self) -> int:
        """Total number of weight parameters in the model."""
        return sum(n.layer.weight_count() for n in self.nodes())

    def total_weight_bytes(self, weight_bits: int) -> int:
        """Total weight footprint in bytes at the given precision."""
        return sum(n.layer.weight_bytes(weight_bits) for n in self.nodes())

    def crossbar_weight_bytes(self, weight_bits: int) -> int:
        """Weight footprint of crossbar-mapped (Conv/Linear) layers only."""
        return sum(
            n.layer.weight_bytes(weight_bits) for n in self.nodes() if n.layer.is_crossbar_mapped
        )

    def conv_weight_bytes(self, weight_bits: int) -> int:
        """Weight bytes of convolution layers."""
        return sum(
            n.layer.weight_bytes(weight_bits)
            for n in self.nodes()
            if n.kind is LayerKind.CONV2D
        )

    def linear_weight_bytes(self, weight_bits: int) -> int:
        """Weight bytes of fully-connected layers."""
        return sum(
            n.layer.weight_bytes(weight_bits)
            for n in self.nodes()
            if n.kind is LayerKind.LINEAR
        )

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants of the graph.

        Raises :class:`GraphValidationError` if the graph has no input, no
        output, dangling references or is not a DAG in insertion order.
        """
        if not self._nodes:
            raise GraphValidationError("graph is empty")
        if not self.input_nodes():
            raise GraphValidationError("graph has no input node")
        if not self.output_nodes():
            raise GraphValidationError("graph has no output node")
        seen: set = set()
        for name in self._order:
            node = self._nodes[name]
            for src in node.inputs:
                if src not in seen:
                    raise GraphValidationError(
                        f"node {name!r} consumes {src!r} before it is defined"
                    )
            seen.add(name)
        # connectivity: every non-input node must be reachable from an input
        reachable = set(n.name for n in self.input_nodes())
        for name in self._order:
            node = self._nodes[name]
            if node.kind is LayerKind.INPUT:
                continue
            if any(src in reachable for src in node.inputs):
                reachable.add(name)
        unreachable = set(self._order) - reachable
        if unreachable:
            raise GraphValidationError(f"unreachable nodes: {sorted(unreachable)}")

    def summary(self) -> str:
        """Human-readable multi-line summary of the model."""
        lines = [f"Graph {self.name!r}: {len(self)} layers"]
        for node in self.nodes():
            shape = node.output_shape
            lines.append(
                f"  {node.name:<24s} {node.kind.value:<14s} "
                f"out={str(shape):<14s} weights={node.layer.weight_count()}"
            )
        lines.append(f"  total weights: {self.total_weight_count():,}")
        return "\n".join(lines)
