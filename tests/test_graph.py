"""Tests for repro.graph.graph: DAG construction, validation and statistics."""

import pytest

from repro.graph.graph import Graph, GraphValidationError
from repro.graph.layers import (
    LayerKind,
    make_add,
    make_conv2d,
    make_flatten,
    make_input,
    make_linear,
    make_relu,
)
from repro.graph.tensor import TensorShape


def build_linear_chain() -> Graph:
    g = Graph("chain")
    g.add_layer(make_input("in", 3, 8, 8))
    g.add_layer(make_conv2d("conv", 3, 4, 3, padding=1), inputs=["in"])
    g.add_layer(make_relu("relu"), inputs=["conv"])
    g.add_layer(make_flatten("flat"), inputs=["relu"])
    g.add_layer(make_linear("fc", 4 * 8 * 8, 10), inputs=["flat"])
    return g


class TestConstruction:
    def test_add_layers_and_len(self):
        g = build_linear_chain()
        assert len(g) == 5

    def test_duplicate_name_rejected(self):
        g = Graph()
        g.add_layer(make_input("in", 3, 8, 8))
        with pytest.raises(GraphValidationError):
            g.add_layer(make_input("in", 3, 8, 8))

    def test_unknown_input_rejected(self):
        g = Graph()
        g.add_layer(make_input("in", 3, 8, 8))
        with pytest.raises(GraphValidationError):
            g.add_layer(make_relu("r"), inputs=["nope"])

    def test_non_input_needs_inputs(self):
        g = Graph()
        with pytest.raises(GraphValidationError):
            g.add_layer(make_relu("r"), inputs=[])

    def test_input_cannot_have_inputs(self):
        g = Graph()
        g.add_layer(make_input("a", 1, 4, 4))
        with pytest.raises(GraphValidationError):
            g.add_layer(make_input("b", 1, 4, 4), inputs=["a"])

    def test_shape_inference_runs_on_insert(self):
        g = build_linear_chain()
        assert g.node("conv").output_shape == TensorShape.chw(4, 8, 8)
        assert g.node("fc").output_shape == TensorShape.flat(10)

    def test_contains(self):
        g = build_linear_chain()
        assert "conv" in g
        assert "missing" not in g

    def test_unknown_node_lookup(self):
        g = build_linear_chain()
        with pytest.raises(GraphValidationError):
            g.node("missing")


class TestConnectivity:
    def test_predecessors_successors(self):
        g = build_linear_chain()
        assert [n.name for n in g.predecessors("relu")] == ["conv"]
        assert [n.name for n in g.successors("conv")] == ["relu"]

    def test_input_output_nodes(self):
        g = build_linear_chain()
        assert [n.name for n in g.input_nodes()] == ["in"]
        assert [n.name for n in g.output_nodes()] == ["fc"]

    def test_branching_graph_outputs(self):
        g = Graph("branch")
        g.add_layer(make_input("in", 4, 8, 8))
        g.add_layer(make_conv2d("a", 4, 4, 3, padding=1), inputs=["in"])
        g.add_layer(make_conv2d("b", 4, 4, 3, padding=1), inputs=["in"])
        g.add_layer(make_add("sum"), inputs=["a", "b"])
        assert [n.name for n in g.output_nodes()] == ["sum"]
        assert {n.name for n in g.predecessors("sum")} == {"a", "b"}

    def test_crossbar_nodes(self):
        g = build_linear_chain()
        assert [n.name for n in g.crossbar_nodes()] == ["conv", "fc"]

    def test_iteration_order_is_topological(self):
        g = build_linear_chain()
        assert [n.name for n in g] == ["in", "conv", "relu", "flat", "fc"]


class TestStatistics:
    def test_total_weight_count(self):
        g = build_linear_chain()
        conv_weights = 4 * 3 * 9 + 4
        fc_weights = 256 * 10 + 10
        assert g.total_weight_count() == conv_weights + fc_weights

    def test_weight_bytes_split_by_kind(self):
        g = build_linear_chain()
        assert g.conv_weight_bytes(8) == 4 * 3 * 9 + 4
        assert g.linear_weight_bytes(8) == 256 * 10 + 10
        assert g.crossbar_weight_bytes(8) == g.conv_weight_bytes(8) + g.linear_weight_bytes(8)

    def test_summary_mentions_layers(self):
        text = build_linear_chain().summary()
        assert "conv" in text
        assert "total weights" in text


class TestValidation:
    def test_valid_graph_passes(self):
        build_linear_chain().validate()

    def test_empty_graph_fails(self):
        with pytest.raises(GraphValidationError):
            Graph().validate()

    def test_graph_without_input_fails(self):
        g = Graph()
        # sneak in a node list without an input by constructing only an input
        # and checking that a graph of a single non-input cannot even be built
        with pytest.raises(GraphValidationError):
            g.add_layer(make_relu("r"), inputs=["x"])

    def test_paper_models_validate(self, squeezenet_graph, resnet18_graph, vgg16_graph):
        squeezenet_graph.validate()
        resnet18_graph.validate()
        vgg16_graph.validate()
