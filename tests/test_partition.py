"""Tests for repro.core.partition: Partition, PartitionGroup and IO analysis."""

import numpy as np
import pytest

from repro.core.decomposition import decompose_model
from repro.core.partition import Partition, PartitionGroup
from repro.core.validity import ValidityMap
from repro.graph import GraphBuilder
from repro.hardware.chip import ChipConfig
from repro.hardware.core import CoreConfig
from repro.hardware.crossbar import CrossbarConfig


class TestPartition:
    def test_invalid_span_rejected(self, small_cnn_decomposition):
        with pytest.raises(ValueError):
            Partition(small_cnn_decomposition, 2, 2)
        with pytest.raises(ValueError):
            Partition(small_cnn_decomposition, -1, 2)
        with pytest.raises(ValueError):
            Partition(small_cnn_decomposition, 0, small_cnn_decomposition.num_units + 1)

    def test_units_and_sizes(self, small_cnn_decomposition):
        d = small_cnn_decomposition
        p = Partition(d, 0, 2)
        assert p.num_units == 2
        assert p.weight_bytes == d.span_weight_bytes(0, 2)
        assert p.crossbars == d.span_crossbars(0, 2)

    def test_layer_names_ordered_unique(self, resnet18_decomposition_m):
        d = resnet18_decomposition_m
        p = Partition(d, 0, d.num_units)
        names = p.layer_names()
        assert names == list(dict.fromkeys(names))
        assert set(names) == set(d.crossbar_layers)

    def test_layer_fraction_full_partition(self, resnet18_decomposition_m):
        d = resnet18_decomposition_m
        p = Partition(d, 0, d.num_units)
        for layer in p.layer_names():
            assert p.layer_fraction(layer) == pytest.approx(1.0)

    def test_layer_fraction_partial(self, resnet18_decomposition_m):
        d = resnet18_decomposition_m
        # find a layer with >= 2 units and take only its first unit
        for layer in d.crossbar_layers:
            start, end = d.layer_unit_ranges[layer]
            if end - start >= 2:
                p = Partition(d, start, start + 1)
                assert 0.0 < p.layer_fraction(layer) < 1.0
                break
        else:
            pytest.skip("no multi-unit layer in this decomposition")

    def test_layer_fraction_absent_layer(self, small_cnn_decomposition):
        p = Partition(small_cnn_decomposition, 0, 1)
        assert p.layer_fraction("not_a_layer") == 0.0

    def test_owned_nodes_include_attached(self, small_cnn_decomposition):
        d = small_cnn_decomposition
        p = Partition(d, 0, d.num_units)
        owned = p.owned_nodes()
        assert "relu1" in owned
        assert "res_add" in owned
        assert "input" not in owned

    def test_str(self, small_cnn_decomposition):
        assert "P[0:1]" in str(Partition(small_cnn_decomposition, 0, 1))


class TestPartitionIO:
    def test_whole_model_partition_io(self, small_cnn_decomposition):
        """A single partition holding everything loads the input, stores the output."""
        d = small_cnn_decomposition
        p = Partition(d, 0, d.num_units)
        io = p.io()
        assert io.num_entries == 1
        assert io.entries[0][0] == "input"
        assert io.num_exits == 1
        assert io.load_bytes > 0
        assert io.store_bytes > 0

    def test_middle_partition_loads_predecessor(self, resnet18_decomposition_m):
        d = resnet18_decomposition_m
        vm = ValidityMap(d)
        end = vm.max_end(0)
        if end >= d.num_units:
            pytest.skip("model fits in one partition")
        first = Partition(d, 0, end)
        second = Partition(d, end, min(vm.max_end(end), d.num_units))
        # the second partition must load at least one feature map from DRAM
        assert second.io().load_bytes > 0
        # the first partition must store at least one feature map for later use
        assert first.io().store_bytes > 0

    def test_residual_crossing_creates_multiple_entries(self, resnet18_graph, chip_m):
        """Cutting inside a residual block yields more than one entry node."""
        from repro.core.decomposition import decompose_model

        d = decompose_model(resnet18_graph, chip_m)
        # find the unit index of a block's second conv (conv2 of layer1_0): a cut
        # right before it separates the add's two operands
        target = "layer1_0_conv2"
        start, _ = d.layer_unit_ranges[target]
        partition = Partition(d, start, d.layer_unit_ranges["layer1_1_conv1"][0])
        io = partition.io()
        assert io.num_entries >= 2

    def test_store_bytes_scaled_by_layer_fraction(self):
        # conv2 feeds conv3 directly, so a span ending inside conv2 stores
        # only its share of conv2's output (every Conv/Linear of the paper
        # models feeds an attached layer first, whose exit is not scaled)
        b = GraphBuilder("conv_chain")
        b.add_input(3, 8, 8)
        b.add_conv("conv1", 3, 64, kernel_size=3, padding=1)
        b.add_conv("conv2", 64, 64, kernel_size=3, padding=1)
        b.add_conv("conv3", 64, 16, kernel_size=3, padding=1)
        chip = ChipConfig(name="tiny", num_cores=4,
                          core=CoreConfig(crossbars_per_core=2, crossbar=CrossbarConfig()))
        d = decompose_model(b.build(), chip)
        start, end = d.layer_unit_ranges["conv2"]
        assert end - start >= 2
        whole = Partition(d, start, end)
        half = Partition(d, start, start + (end - start) // 2)
        whole_store = dict(whole.io().exits)["conv2"]
        half_store = dict(half.io().exits)["conv2"]
        assert 0 < half_store < whole_store
        assert half_store == whole_store * half.layer_fraction("conv2")

    def test_io_counts_each_source_once(self, small_cnn_decomposition):
        d = small_cnn_decomposition
        p = Partition(d, 0, d.num_units)
        sources = [name for name, _ in p.io().entries]
        assert len(sources) == len(set(sources))


class TestPartitionGroup:
    def test_from_boundaries_valid(self, small_cnn_decomposition):
        d = small_cnn_decomposition
        group = PartitionGroup.from_boundaries(d, [1, d.num_units])
        assert group.num_partitions == 2
        assert group.spans() == [(0, 1), (1, d.num_units)]

    def test_single_partition_group(self, squeezenet_decomposition_s):
        group = PartitionGroup.single_partition(squeezenet_decomposition_s)
        assert group.num_partitions == 1

    def test_boundaries_must_increase(self, small_cnn_decomposition):
        d = small_cnn_decomposition
        with pytest.raises(ValueError):
            PartitionGroup.from_boundaries(d, [2, 2, d.num_units])

    def test_boundaries_must_cover_model(self, small_cnn_decomposition):
        d = small_cnn_decomposition
        with pytest.raises(ValueError):
            PartitionGroup.from_boundaries(d, [d.num_units - 1])

    def test_empty_boundaries_rejected(self, small_cnn_decomposition):
        with pytest.raises(ValueError):
            PartitionGroup.from_boundaries(small_cnn_decomposition, [])

    def test_partitions_materialise_spans(self, resnet18_decomposition_m):
        d = resnet18_decomposition_m
        mid = d.num_units // 2
        group = PartitionGroup.from_boundaries(d, [mid, d.num_units])
        parts = group.partitions()
        assert parts[0].start == 0 and parts[0].end == mid
        assert parts[1].start == mid and parts[1].end == d.num_units

    def test_partition_accessor(self, resnet18_decomposition_m):
        d = resnet18_decomposition_m
        mid = d.num_units // 2
        group = PartitionGroup.from_boundaries(d, [mid, d.num_units])
        assert group.partition(1).start == mid

    def test_total_weight_bytes_preserved(self, resnet18_decomposition_m):
        """Partitioning never changes the total weight footprint."""
        d = resnet18_decomposition_m
        mid = d.num_units // 3
        group = PartitionGroup.from_boundaries(d, [mid, 2 * mid, d.num_units])
        assert group.total_weight_bytes() == d.total_weight_bytes()

    def test_more_partitions_more_dram_feature_traffic(self, resnet18_decomposition_m):
        """Splitting finer can only add DRAM boundary traffic (Sec. IV-B1)."""
        d = resnet18_decomposition_m
        vm = ValidityMap(d)
        coarse_bounds = []
        start = 0
        while start < d.num_units:
            end = vm.max_end(start)
            coarse_bounds.append(end)
            start = end
        coarse = PartitionGroup.from_boundaries(d, coarse_bounds)
        fine = PartitionGroup.from_boundaries(d, list(range(1, d.num_units + 1)))

        def feature_bytes(group):
            return sum(p.io().load_bytes + p.io().store_bytes for p in group.partitions())

        assert feature_bytes(fine) >= feature_bytes(coarse)

    def test_is_valid_against_crossbar_budget(self, resnet18_decomposition_m):
        d = resnet18_decomposition_m
        fine = PartitionGroup.from_boundaries(d, list(range(1, d.num_units + 1)))
        assert fine.is_valid(d.chip.total_crossbars)
        assert not PartitionGroup.from_boundaries(d, [d.num_units]).is_valid(
            d.chip.total_crossbars
        )

    def test_signature_hashable(self, small_cnn_decomposition):
        d = small_cnn_decomposition
        g = PartitionGroup.from_boundaries(d, [d.num_units])
        assert hash(g.signature()) == hash((d.num_units,))

    def test_str(self, small_cnn_decomposition):
        d = small_cnn_decomposition
        assert "partitions" in str(PartitionGroup.from_boundaries(d, [d.num_units]))


#: one cut tuple per constructor check, for a model of ``n`` units
MALFORMED_CUTS = {
    "empty": lambda n: (),
    "repeated": lambda n: (1, 1, n),
    "decreasing": lambda n: (2, 1, n),
    "short": lambda n: (1, n - 1),
    "long": lambda n: (1, n + 1),
}


class TestFromBoundariesMany:
    def test_matches_scalar_constructor(self, resnet18_decomposition_m):
        d = resnet18_decomposition_m
        vm = ValidityMap(d)
        rng = np.random.default_rng(3)
        cuts = [tuple(vm.random_partition_boundaries(rng)) for _ in range(12)]
        groups = PartitionGroup.from_boundaries_many(d, cuts + [[d.num_units]])
        assert list(groups) == [PartitionGroup.from_boundaries(d, c)
                                for c in cuts + [[d.num_units]]]
        assert all(type(g.boundaries) is tuple for g in groups)
        starts, ends = groups.spans
        assert ends.tolist() == [b for g in groups for b in g.boundaries]
        assert starts.tolist() == [s for g in groups for s, _ in g.spans()]
        assert not (starts.flags.writeable or ends.flags.writeable)
        assert list(PartitionGroup.from_boundaries_many(d, [])) == []

    @pytest.mark.parametrize("case", sorted(MALFORMED_CUTS))
    def test_malformed_cuts_raise_scalar_message(self, small_cnn_decomposition, case):
        d = small_cnn_decomposition
        bad = MALFORMED_CUTS[case](d.num_units)
        with pytest.raises(ValueError) as scalar:
            PartitionGroup.from_boundaries(d, bad)
        # a valid tuple on either side: the malformed one is still named
        batch = [(d.num_units,), bad, (1, d.num_units)]
        with pytest.raises(ValueError) as batched:
            PartitionGroup.from_boundaries_many(d, batch)
        assert str(batched.value) == str(scalar.value)
