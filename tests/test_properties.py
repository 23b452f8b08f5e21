"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.decomposition import decompose_model
from repro.core.partition import Partition, PartitionGroup
from repro.core.validity import ValidityMap
from repro.graph import GraphBuilder
from repro.graph.tensor import TensorShape
from repro.hardware.chip import ChipConfig
from repro.hardware.core import CoreConfig
from repro.hardware.crossbar import CrossbarConfig
from repro.hardware.dram import DRAMModel, DRAMRequest
from repro.isa.memory import LocalMemoryAllocator
from repro.mapping.replication import allocate_replication_arrays
from repro.sim.metrics import geometric_mean, throughput_inferences_per_sec

SETTINGS = settings(max_examples=50, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------------
# TensorShape
# ----------------------------------------------------------------------
class TestTensorShapeProperties:
    @given(dims=st.lists(st.integers(min_value=1, max_value=512), min_size=1, max_size=4))
    @SETTINGS
    def test_num_elements_is_product(self, dims):
        shape = TensorShape.of(dims)
        assert shape.num_elements == math.prod(dims)

    @given(dims=st.lists(st.integers(min_value=1, max_value=512), min_size=1, max_size=4),
           bits=st.sampled_from([1, 2, 4, 8, 16]))
    @SETTINGS
    def test_size_bytes_round_trip(self, dims, bits):
        shape = TensorShape.of(dims)
        size = shape.size_bytes(bits)
        assert size * 8 >= shape.num_elements * bits
        assert (size - 1) * 8 < shape.num_elements * bits

    @given(dims=st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=4))
    @SETTINGS
    def test_flatten_preserves_elements(self, dims):
        shape = TensorShape.of(dims)
        assert shape.flattened().num_elements == shape.num_elements


# ----------------------------------------------------------------------
# Crossbar capacity
# ----------------------------------------------------------------------
class TestCrossbarProperties:
    @given(rows=st.sampled_from([64, 128, 256, 512]),
           cols=st.sampled_from([64, 128, 256, 512]),
           weight_bits=st.sampled_from([1, 2, 4, 8]))
    @SETTINGS
    def test_capacity_formula(self, rows, cols, weight_bits):
        xbar = CrossbarConfig(rows=rows, cols=cols, weight_bits=weight_bits)
        assert xbar.capacity_bytes == rows * (cols // weight_bits) * weight_bits // 8
        assert xbar.weights_per_crossbar * weight_bits // 8 == xbar.capacity_bytes

    @given(active=st.integers(min_value=0, max_value=1024))
    @SETTINGS
    def test_mvm_energy_monotone_in_rows(self, active):
        xbar = CrossbarConfig()
        assert xbar.mvm_energy_for_rows(active) <= xbar.mvm_energy_for_rows(active + 1) + 1e-12


# ----------------------------------------------------------------------
# Replication allocation
# ----------------------------------------------------------------------
def layer_strategy():
    """``(name, crossbars per copy, windows)`` of one layer."""
    return st.tuples(
        st.text(alphabet="abcdefgh", min_size=1, max_size=4),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=4096),
    )


def allocate(layers, budget):
    return allocate_replication_arrays(
        [name for name, _, _ in layers], [windows for _, _, windows in layers],
        [crossbars for _, crossbars, _ in layers], budget,
    )


class TestReplicationProperties:
    @given(layers=st.lists(layer_strategy(), min_size=1, max_size=6, unique_by=lambda layer: layer[0]),
           budget=st.integers(min_value=48, max_value=512))
    @SETTINGS
    def test_allocation_respects_budget_and_floors(self, layers, budget):
        single_copy = sum(crossbars for _, crossbars, _ in layers)
        if single_copy > budget:
            with pytest.raises(ValueError):
                allocate(layers, budget)
            return
        plan = allocate(layers, budget)
        assert plan.total_crossbars <= budget
        for name, crossbars, windows in layers:
            factor = plan.factor(name)
            assert 1 <= factor <= max(1, windows)
            assert plan.crossbars_used[name] == factor * crossbars

    @given(layers=st.lists(layer_strategy(), min_size=1, max_size=4, unique_by=lambda layer: layer[0]))
    @SETTINGS
    def test_bottleneck_never_worse_than_unreplicated(self, layers):
        budget = sum(crossbars for _, crossbars, _ in layers) + 16
        plan = allocate(layers, budget)
        unreplicated = max(windows for _, _, windows in layers)
        assert plan.bottleneck_slots <= unreplicated


# ----------------------------------------------------------------------
# Validity map / partitioning on generated models
# ----------------------------------------------------------------------
def random_cnn(num_convs: int, base_channels: int, input_size: int):
    b = GraphBuilder(f"gen_cnn_{num_convs}_{base_channels}")
    b.add_input(3, input_size, input_size)
    channels = 3
    for i in range(num_convs):
        out = base_channels * (1 + i % 3)
        b.add_conv(f"conv{i}", channels, out, kernel_size=3, padding=1)
        b.add_relu()
        channels = out
    b.add_global_avgpool()
    b.add_flatten()
    b.add_linear("fc", channels, 10)
    return b.build()


TINY_CHIP = ChipConfig(name="tiny", num_cores=4,
                       core=CoreConfig(crossbars_per_core=2, crossbar=CrossbarConfig()))


class TestPartitioningProperties:
    @given(num_convs=st.integers(min_value=1, max_value=6),
           base_channels=st.sampled_from([8, 16, 32]),
           input_size=st.sampled_from([16, 32]))
    @SETTINGS
    def test_decomposition_units_fit_cores(self, num_convs, base_channels, input_size):
        graph = random_cnn(num_convs, base_channels, input_size)
        decomposition = decompose_model(graph, TINY_CHIP)
        core_capacity = TINY_CHIP.core.weight_capacity_bytes
        for unit in decomposition.units:
            assert unit.weight_bytes <= core_capacity
            assert unit.crossbars <= TINY_CHIP.core.crossbars_per_core

    @given(num_convs=st.integers(min_value=1, max_value=6),
           base_channels=st.sampled_from([8, 16, 32]),
           seed=st.integers(min_value=0, max_value=100))
    @SETTINGS
    def test_random_partitioning_always_valid_and_covering(self, num_convs, base_channels, seed):
        graph = random_cnn(num_convs, base_channels, 16)
        decomposition = decompose_model(graph, TINY_CHIP)
        vm = ValidityMap(decomposition)
        rng = np.random.default_rng(seed)
        bounds = vm.random_partition_boundaries(rng)
        group = PartitionGroup.from_boundaries(decomposition, bounds)
        assert group.is_valid(TINY_CHIP.total_crossbars)
        covered = sum(e - s for s, e in group.spans())
        assert covered == decomposition.num_units

    @given(num_convs=st.integers(min_value=2, max_value=6),
           base_channels=st.sampled_from([16, 32]))
    @SETTINGS
    def test_partition_io_symmetry(self, num_convs, base_channels):
        """Bytes stored by partition i for consumer j equal bytes loaded by j from i."""
        graph = random_cnn(num_convs, base_channels, 16)
        decomposition = decompose_model(graph, TINY_CHIP)
        vm = ValidityMap(decomposition)
        bounds = vm.random_partition_boundaries(np.random.default_rng(0))
        group = PartitionGroup.from_boundaries(decomposition, bounds)
        partitions = group.partitions()
        stored = {}
        for p in partitions:
            for name, size in p.io().exits:
                stored[name] = stored.get(name, 0) + size
        for p in partitions:
            for name, size in p.io().entries:
                if name == "input":
                    continue
                # every loaded feature map was stored by some earlier partition
                assert name in stored


# ----------------------------------------------------------------------
# DRAM model
# ----------------------------------------------------------------------
class TestDRAMProperties:
    @given(sizes=st.lists(st.integers(min_value=1, max_value=4096), min_size=1, max_size=20))
    @SETTINGS
    def test_trace_stats_account_for_all_bytes(self, sizes):
        model = DRAMModel()
        trace = [
            DRAMRequest(float(i * 100), i * 8192, size, is_write=(i % 2 == 0))
            for i, size in enumerate(sizes)
        ]
        stats = model.process_trace(trace)
        assert stats.total_bytes == sum(sizes)
        assert stats.num_requests == len(sizes)
        assert stats.finish_time_ns >= max(r.issue_time_ns for r in trace)

    @given(num_bytes=st.integers(min_value=1, max_value=1 << 22))
    @SETTINGS
    def test_bulk_latency_positive_and_superlinear_floor(self, num_bytes):
        model = DRAMModel()
        latency = model.bulk_transfer_latency_ns(num_bytes)
        assert latency > 0
        # can never beat the peak data-bus bandwidth
        assert num_bytes / latency <= model.config.peak_bandwidth_bytes_per_ns * 1.001


# ----------------------------------------------------------------------
# Local memory allocator
# ----------------------------------------------------------------------
class TestAllocatorProperties:
    @given(sizes=st.lists(st.integers(min_value=1, max_value=4096), min_size=1, max_size=30))
    @SETTINGS
    def test_peak_bounds(self, sizes):
        alloc = LocalMemoryAllocator(64 * 1024)
        handles = [alloc.allocate(size) for size in sizes]
        assert alloc.used_bytes == sum(sizes)
        assert alloc.peak_usage >= max(sizes)
        assert alloc.peak_usage >= alloc.used_bytes * 0  # trivially non-negative
        for handle in handles:
            alloc.free(handle)
        assert alloc.used_bytes == 0
        assert alloc.peak_usage >= sum(sizes) - max(sizes)

    @given(sizes=st.lists(st.integers(min_value=1, max_value=1024), min_size=2, max_size=20),
           free_first=st.booleans())
    @SETTINGS
    def test_alloc_free_interleaving_tracks_live_bytes(self, sizes, free_first):
        alloc = LocalMemoryAllocator(16 * 1024)
        live = {}
        for size in sizes:
            if free_first and live:
                handle, _ = live.popitem()
                alloc.free(handle)
            live[alloc.allocate(size)] = size
        assert alloc.used_bytes == sum(live.values())
        assert alloc.peak_usage >= alloc.used_bytes


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
class TestMetricProperties:
    @given(values=st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=1, max_size=10))
    @SETTINGS
    def test_geometric_mean_between_min_and_max(self, values):
        gm = geometric_mean(values)
        assert min(values) - 1e-9 <= gm <= max(values) + 1e-9

    @given(batch=st.integers(min_value=1, max_value=64),
           latency=st.floats(min_value=1.0, max_value=1e12))
    @SETTINGS
    def test_throughput_scales_linearly_with_batch(self, batch, latency):
        single = throughput_inferences_per_sec(1, latency)
        batched = throughput_inferences_per_sec(batch, latency)
        assert batched == pytest.approx(batch * single, rel=1e-9)
