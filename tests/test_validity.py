"""Tests for repro.core.validity.ValidityMap (Fig. 5)."""

import numpy as np
import pytest

from repro.core.decomposition import decompose_model
from repro.core.validity import ValidityMap
from repro.hardware import CHIP_L, CHIP_S


class TestMaxEnd:
    def test_max_end_monotone_nondecreasing(self, resnet18_decomposition_m):
        vm = ValidityMap(resnet18_decomposition_m)
        ends = [vm.max_end(i) for i in range(vm.num_units)]
        assert all(b >= a for a, b in zip(ends, ends[1:]))

    def test_max_end_greater_than_start(self, resnet18_decomposition_m):
        vm = ValidityMap(resnet18_decomposition_m)
        for i in range(vm.num_units):
            assert vm.max_end(i) > i

    def test_max_end_out_of_range(self, small_cnn_decomposition):
        vm = ValidityMap(small_cnn_decomposition)
        with pytest.raises(IndexError):
            vm.max_end(-1)
        with pytest.raises(IndexError):
            vm.max_end(vm.num_units)

    def test_spans_within_max_end_respect_capacity(self, resnet18_decomposition_m):
        d = resnet18_decomposition_m
        vm = ValidityMap(d)
        for start in range(0, vm.num_units, 7):
            end = vm.max_end(start)
            assert d.span_crossbars(start, end) <= d.chip.total_crossbars
            if end < vm.num_units:
                assert d.span_crossbars(start, end + 1) > d.chip.total_crossbars


class TestValidity:
    def test_is_valid_consistent_with_max_end(self, resnet18_decomposition_m):
        vm = ValidityMap(resnet18_decomposition_m)
        assert vm.is_valid(0, vm.max_end(0))
        if vm.max_end(0) < vm.num_units:
            assert not vm.is_valid(0, vm.max_end(0) + 1)

    def test_invalid_ranges(self, small_cnn_decomposition):
        vm = ValidityMap(small_cnn_decomposition)
        assert not vm.is_valid(0, 0)
        assert not vm.is_valid(2, 1)
        assert not vm.is_valid(-1, 1)
        assert not vm.is_valid(0, vm.num_units + 1)

    def test_fully_fitting_model_all_valid(self, squeezenet_decomposition_s):
        vm = ValidityMap(squeezenet_decomposition_s)
        assert vm.valid_fraction() == pytest.approx(1.0)
        assert vm.is_valid(0, vm.num_units)

    def test_small_chip_reduces_valid_fraction(self, vgg16_graph):
        """Fig. 5: more weights + smaller chip -> larger invalid portion."""
        frac_s = ValidityMap(decompose_model(vgg16_graph, CHIP_S)).valid_fraction()
        frac_l = ValidityMap(decompose_model(vgg16_graph, CHIP_L)).valid_fraction()
        assert frac_s < frac_l < 1.0

    def test_single_unit_too_big_raises(self, small_cnn_decomposition):
        with pytest.raises(ValueError):
            ValidityMap(small_cnn_decomposition, capacity_crossbars=0)


class TestMatrix:
    def test_matrix_shape_and_diagonal(self, small_cnn_decomposition):
        vm = ValidityMap(small_cnn_decomposition)
        matrix = vm.as_matrix()
        assert matrix.shape == (vm.num_units, vm.num_units)
        assert matrix.dtype == bool
        assert np.all(np.diagonal(matrix))  # every single-unit span is valid

    def test_matrix_row_prefix_property(self, resnet18_decomposition_m):
        """Each row is a prefix of True values starting at the diagonal."""
        vm = ValidityMap(resnet18_decomposition_m)
        matrix = vm.as_matrix()
        for i in range(vm.num_units):
            row = matrix[i]
            assert not row[:i].any()
            true_count = int(row.sum())
            assert row[i:i + true_count].all()
            assert not row[i + true_count:].any()

    def test_matrix_matches_valid_fraction(self, resnet18_decomposition_m):
        vm = ValidityMap(resnet18_decomposition_m)
        matrix = vm.as_matrix()
        n = vm.num_units
        assert vm.valid_fraction() == pytest.approx(matrix.sum() / (n * (n + 1) / 2))

    def test_matrix_is_cached_and_read_only(self, resnet18_decomposition_m):
        """The matrix is the DP's hot mask: built once, shared, immutable."""
        vm = ValidityMap(resnet18_decomposition_m)
        first = vm.as_matrix()
        assert vm.as_matrix() is first  # cached, not recomputed per call
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = False

    def test_matrix_pins_is_valid(self, resnet18_decomposition_m):
        """Cell [i, j] == is_valid(i, j + 1) over the whole triangle."""
        vm = ValidityMap(resnet18_decomposition_m)
        matrix = vm.as_matrix()
        for i in range(vm.num_units):
            for j in range(vm.num_units):
                assert matrix[i, j] == vm.is_valid(i, j + 1)


class TestRandomPartitioning:
    def test_random_boundaries_cover_model(self, resnet18_decomposition_m):
        vm = ValidityMap(resnet18_decomposition_m)
        rng = np.random.default_rng(1)
        for _ in range(20):
            bounds = vm.random_partition_boundaries(rng)
            assert bounds[-1] == vm.num_units
            assert all(b > a for a, b in zip(bounds, bounds[1:]))
            start = 0
            for end in bounds:
                assert vm.is_valid(start, end)
                start = end

    def test_random_boundaries_deterministic_with_seed(self, resnet18_decomposition_m):
        vm = ValidityMap(resnet18_decomposition_m)
        a = vm.random_partition_boundaries(np.random.default_rng(42))
        b = vm.random_partition_boundaries(np.random.default_rng(42))
        assert a == b
