"""Tests for the four mutation operators (Sec. III-C3)."""

import numpy as np
import pytest

from repro.core.decomposition import decompose_model
from repro.core.mutation import (
    MutationKind,
    apply_mutation,
    mutate_fixed_random,
    mutate_merge,
    mutate_move,
    mutate_split,
    mutation_targets,
)
from repro.core.partition import PartitionGroup
from repro.core.validity import ValidityMap


@pytest.fixture(scope="module")
def setup(resnet18_graph, chip_m):
    d = decompose_model(resnet18_graph, chip_m)
    vm = ValidityMap(d)
    return d, vm


def spans_of(boundaries):
    start = 0
    result = []
    for end in boundaries:
        result.append((start, end))
        start = end
    return result


def assert_valid_cover(d, vm, boundaries):
    assert boundaries[-1] == d.num_units
    assert all(b > a for a, b in zip(boundaries, boundaries[1:]))
    for start, end in spans_of(boundaries):
        assert vm.is_valid(start, end)


class TestMerge:
    def test_merge_reduces_partition_count(self, setup):
        d, vm = setup
        bounds = tuple(range(1, d.num_units + 1))  # fully split
        merged = mutate_merge(bounds, vm, pair_index=0)
        assert merged is not None
        assert len(merged) == len(bounds) - 1
        assert_valid_cover(d, vm, merged)

    def test_merge_invalid_pair_returns_none(self, setup):
        d, vm = setup
        greedy_bounds = []
        start = 0
        while start < d.num_units:
            end = vm.max_end(start)
            greedy_bounds.append(end)
            start = end
        if len(greedy_bounds) < 2:
            pytest.skip("model fits in one partition")
        # merging two maximal partitions must overflow the chip
        assert mutate_merge(tuple(greedy_bounds), vm, pair_index=0) is None

    def test_merge_out_of_range_pair(self, setup):
        d, vm = setup
        bounds = (d.num_units,)
        assert mutate_merge(bounds, vm, pair_index=0) is None
        assert mutate_merge(bounds, vm, pair_index=-1) is None


class TestSplit:
    def test_split_increases_partition_count(self, setup):
        d, vm = setup
        rng = np.random.default_rng(0)
        bounds = vm.random_partition_boundaries(rng)
        # pick a partition with more than one unit
        for index, (start, end) in enumerate(spans_of(bounds)):
            if end - start >= 2:
                result = mutate_split(tuple(bounds), vm, index, rng)
                assert result is not None
                assert len(result) == len(bounds) + 1
                assert_valid_cover(d, vm, result)
                return
        pytest.skip("no splittable partition")

    def test_split_single_unit_partition_returns_none(self, setup):
        d, vm = setup
        bounds = tuple(range(1, d.num_units + 1))
        rng = np.random.default_rng(0)
        assert mutate_split(bounds, vm, 0, rng) is None

    def test_split_out_of_range(self, setup):
        d, vm = setup
        rng = np.random.default_rng(0)
        assert mutate_split((d.num_units,), vm, 5, rng) is None


class TestMove:
    def test_move_preserves_partition_count(self, setup):
        d, vm = setup
        rng = np.random.default_rng(1)
        bounds = vm.random_partition_boundaries(rng)
        if len(bounds) < 2:
            pytest.skip("need at least two partitions")
        result = mutate_move(tuple(bounds), vm, 0, rng)
        if result is None:
            pytest.skip("no legal move for this boundary")
        assert len(result) == len(bounds)
        assert_valid_cover(d, vm, result)
        # exactly one boundary changed, by one unit
        diffs = [abs(a - b) for a, b in zip(result, bounds)]
        assert sum(1 for x in diffs if x) == 1
        assert max(diffs) == 1

    def test_move_out_of_range(self, setup):
        d, vm = setup
        rng = np.random.default_rng(1)
        assert mutate_move((d.num_units,), vm, 0, rng) is None


class TestFixedRandom:
    def test_fixed_partition_preserved(self, setup):
        d, vm = setup
        rng = np.random.default_rng(2)
        bounds = vm.random_partition_boundaries(rng)
        spans = spans_of(bounds)
        fixed_index = len(spans) // 2
        result = mutate_fixed_random(tuple(bounds), vm, fixed_index, rng)
        assert result is not None
        assert_valid_cover(d, vm, result)
        # the fixed span still exists as a partition in the result
        assert spans[fixed_index] in spans_of(result)

    def test_out_of_range_index(self, setup):
        d, vm = setup
        rng = np.random.default_rng(2)
        assert mutate_fixed_random((d.num_units,), vm, 7, rng) is None


class TestApplyMutation:
    @pytest.mark.parametrize("kind", list(MutationKind))
    def test_apply_each_kind_yields_valid_group_or_none(self, setup, kind):
        d, vm = setup
        rng = np.random.default_rng(3)
        bounds = vm.random_partition_boundaries(rng)
        group = PartitionGroup.from_boundaries(d, bounds)
        scores = list(rng.uniform(0.5, 1.5, size=group.num_partitions))
        result = apply_mutation(kind, group, vm, scores, rng)
        if result is not None:
            assert_valid_cover(d, vm, result)

    def test_scores_length_mismatch(self, setup):
        d, vm = setup
        rng = np.random.default_rng(3)
        group = PartitionGroup.from_boundaries(d, vm.random_partition_boundaries(rng))
        with pytest.raises(ValueError):
            apply_mutation(MutationKind.SPLIT, group, vm, [1.0], rng)

    def test_merge_single_partition_returns_none(self, squeezenet_decomposition_s):
        d = squeezenet_decomposition_s
        vm = ValidityMap(d)
        rng = np.random.default_rng(0)
        group = PartitionGroup.single_partition(d)
        assert apply_mutation(MutationKind.MERGE, group, vm, [1.0], rng) is None
        assert apply_mutation(MutationKind.MOVE, group, vm, [1.0], rng) is None

    def test_mutations_deterministic_given_seed(self, setup):
        d, vm = setup
        bounds = vm.random_partition_boundaries(np.random.default_rng(9))
        group = PartitionGroup.from_boundaries(d, bounds)
        scores = [1.0] * group.num_partitions
        a = apply_mutation(MutationKind.SPLIT, group, vm, scores, np.random.default_rng(5))
        b = apply_mutation(MutationKind.SPLIT, group, vm, scores, np.random.default_rng(5))
        assert a == b


# ----------------------------------------------------------------------
# reference oracles: the operators as first written, checking the whole
# group after every candidate and sampling one segment per method call
# ----------------------------------------------------------------------
def group_valid(vm, boundaries):
    """Whether every span of a boundary list forms a valid partition: the
    whole-group check the operators, which check only the spans they
    change, are held to."""
    start = 0
    for end in boundaries:
        if not vm.is_valid(start, end):
            return False
        start = end
    return True


def oracle_sampled_end(vm, start, uniform):
    size = vm.max_end(start) - start
    offset = int(uniform * size)
    if offset >= size:
        offset = size - 1
    return start + 1 + offset


def oracle_merge(boundaries, vm, pair_index):
    bounds = list(boundaries)
    if pair_index < 0 or pair_index >= len(bounds) - 1:
        return None
    merged = bounds[:pair_index] + bounds[pair_index + 1:]
    if not group_valid(vm, merged):
        return None
    return tuple(merged)


def oracle_split(boundaries, vm, partition_index, rng):
    bounds = list(boundaries)
    spans = spans_of(bounds)
    if not 0 <= partition_index < len(spans):
        return None
    start, end = spans[partition_index]
    if end - start < 2:
        return None
    cut = int(rng.integers(start + 1, end))
    new_bounds = sorted(set(bounds) | {cut})
    if not group_valid(vm, new_bounds):
        return None
    return tuple(new_bounds)


def oracle_move(boundaries, vm, pair_index, rng):
    bounds = list(boundaries)
    if pair_index < 0 or pair_index >= len(bounds) - 1:
        return None
    boundary = bounds[pair_index]
    left_start = bounds[pair_index - 1] if pair_index > 0 else 0
    right_end = bounds[pair_index + 1]
    directions = [1, -1] if rng.random() < 0.5 else [-1, 1]
    for direction in directions:
        candidate = boundary + direction
        if candidate <= left_start or candidate >= right_end:
            continue
        new_bounds = list(bounds)
        new_bounds[pair_index] = candidate
        if group_valid(vm, new_bounds):
            return tuple(new_bounds)
    return None


def oracle_fixed_random(boundaries, vm, fixed_partition_index, rng):
    spans = spans_of(boundaries)
    if not 0 <= fixed_partition_index < len(spans):
        return None
    fixed_start, fixed_end = spans[fixed_partition_index]
    num_units = vm.num_units
    limit = fixed_start + (num_units - fixed_end)
    uniform = rng.random(limit) if limit > 0 else None
    draw = 0
    new_bounds = []
    start = 0
    while start < fixed_start:
        end = min(oracle_sampled_end(vm, start, uniform[draw]), fixed_start)
        draw += 1
        new_bounds.append(end)
        start = end
    new_bounds.append(fixed_end)
    start = fixed_end
    while start < num_units:
        end = oracle_sampled_end(vm, start, uniform[draw])
        draw += 1
        new_bounds.append(end)
        start = end
    if not group_valid(vm, new_bounds):
        return None
    return tuple(new_bounds)


def oracle_apply(kind, group, vm, partition_scores, rng):
    bounds = group.boundaries
    scores = np.asarray(partition_scores, dtype=float)
    if len(scores) != group.num_partitions:
        raise ValueError("partition_scores length must match the number of partitions")
    if kind is MutationKind.FIXED_RANDOM:
        return oracle_fixed_random(bounds, vm, int(np.argmin(scores)), rng)
    if kind is MutationKind.SPLIT:
        for index in np.argsort(scores)[::-1]:
            result = oracle_split(bounds, vm, int(index), rng)
            if result is not None:
                return result
        return None
    if group.num_partitions < 2:
        return None
    operator = oracle_merge if kind is MutationKind.MERGE else oracle_move
    for index in np.argsort(scores[:-1] + scores[1:])[::-1]:
        result = (operator(bounds, vm, int(index)) if kind is MutationKind.MERGE
                  else operator(bounds, vm, int(index), rng))
        if result is not None:
            return result
    return None


#: the (model, chip) pairs of the repository benchmark's compile workloads
PAIRS = [(m, c) for m in ("vgg16", "resnet18", "squeezenet") for c in ("S", "M", "L")]


def parents_of(vm, seed):
    """Valid parents: random ones, the fully split one and the greedy maximal one."""
    rng = np.random.default_rng(seed)
    parents = [tuple(vm.random_partition_boundaries(rng)) for _ in range(3)]
    parents.append(tuple(range(1, vm.num_units + 1)))
    greedy, start = [], 0
    while start < vm.num_units:
        start = vm.max_end(start)
        greedy.append(start)
    parents.append(tuple(greedy))
    return parents


def same_draws(new, oracle, seed):
    """Run both with equally seeded generators; return both results and states."""
    rng_new, rng_oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    return (new(rng_new), rng_new.bit_generator.state,
            oracle(rng_oracle), rng_oracle.bit_generator.state)


@pytest.mark.parametrize("model,chip", PAIRS)
class TestOperatorsMatchOracles:
    """Checking only the changed spans returns what the whole-group check did,
    from the same draws: every operator, every index, valid parents."""

    def test_operators(self, model, chip):
        from repro.evaluation.registry import shared_decomposition

        _, vm = shared_decomposition(model, chip)
        for seed, parent in enumerate(parents_of(vm, 17)):
            for index in range(-1, len(parent) + 1):
                assert mutate_merge(parent, vm, index) == oracle_merge(parent, vm, index)
                for new, oracle in ((mutate_split, oracle_split), (mutate_move, oracle_move),
                                    (mutate_fixed_random, oracle_fixed_random)):
                    got, state, want, want_state = same_draws(
                        lambda rng: new(parent, vm, index, rng),
                        lambda rng: oracle(parent, vm, index, rng), seed * 1000 + index + 1)
                    assert got == want, (new.__name__, parent, index)
                    assert state == want_state, (new.__name__, parent, index)

    def test_apply_mutation(self, model, chip):
        from repro.evaluation.registry import shared_decomposition

        d, vm = shared_decomposition(model, chip)
        score_rng = np.random.default_rng(5)
        for seed, parent in enumerate(parents_of(vm, 23)):
            group = PartitionGroup.from_boundaries(d, parent)
            # coarse scores tie often, which pins the argsort tie order too
            for scores in (score_rng.uniform(0.5, 1.5, len(parent)),
                           np.round(score_rng.uniform(0.5, 1.5, len(parent)), 1)):
                for kind in MutationKind:
                    for given in (list(scores), mutation_targets(scores)):
                        got, state, want, want_state = same_draws(
                            lambda rng: apply_mutation(kind, group, vm, given, rng),
                            lambda rng: oracle_apply(kind, group, vm, scores, rng), seed)
                        assert got == want, (kind, parent)
                        assert state == want_state, (kind, parent)


@pytest.mark.parametrize("model,chip", PAIRS)
def test_fixed_random_output_is_valid_by_construction(model, chip):
    """Without a final check, fixed-random still yields a valid cover that keeps
    the fixed span, for every fixed index of valid parents."""
    from repro.evaluation.registry import shared_decomposition

    _, vm = shared_decomposition(model, chip)
    rng = np.random.default_rng(31)
    for parent in parents_of(vm, 29):
        for index, span in enumerate(spans_of(parent)):
            result = mutate_fixed_random(parent, vm, index, rng)
            assert group_valid(vm, result) and result[-1] == vm.num_units
            assert span in spans_of(result)


@pytest.mark.parametrize("model,chip", PAIRS)
def test_sample_ends_matches_per_segment_sampling(model, chip):
    """The one sampling kernel: same ends and draw count as one sampled end per
    segment, with the clip at ``stop`` and uniforms at the largest double
    below 1.0 (every segment then takes its longest valid end)."""
    from repro.evaluation.registry import shared_decomposition

    _, vm = shared_decomposition(model, chip)
    uniform = np.random.default_rng(41).random(vm.num_units)
    uniform[::7] = np.nextafter(1.0, 0.0)
    for start, stop, draw in ((0, vm.num_units, 0), (0, vm.num_units // 2, 3),
                              (vm.num_units // 3, vm.num_units, 5)):
        ends, position = [], draw
        cursor = start
        while cursor < stop:
            cursor = min(oracle_sampled_end(vm, cursor, uniform[position]), stop)
            position += 1
            ends.append(cursor)
        assert vm.sample_ends(start, stop, uniform, draw) == (ends, position)
