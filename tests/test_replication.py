"""Tests for repro.mapping.replication: pipeline-balancing replication.

The heap-ordered allocator is fuzzed against the linear-scan greedy it
replaced (kept here as :func:`reference_replication_factor_list`) over every
valid span geometry of the paper's nine (model, chip) pairs and over random
synthetic geometries.
"""

import math
import random

import pytest

from repro.evaluation.registry import shared_decomposition
from repro.mapping.replication import (
    ReplicationPlan,
    allocate_replication_arrays,
    replication_factor_list,
    replication_factors,
)


def allocate(layers, crossbar_budget, max_replication=64):
    """Replication plan of ``(name, crossbars per copy, windows)`` layers."""
    return allocate_replication_arrays(
        [name for name, _, _ in layers], [windows for _, _, windows in layers],
        [crossbars for _, crossbars, _ in layers],
        crossbar_budget=crossbar_budget, max_replication=max_replication,
    )


class TestAllocation:
    def test_empty_partition(self):
        plan = allocate([], crossbar_budget=16)
        assert plan.total_crossbars == 0
        assert plan.bottleneck_slots == 0

    def test_single_layer_gets_all_budget(self):
        layer = ("conv", 1, 100)
        plan = allocate([layer], crossbar_budget=10)
        assert plan.factor("conv") == 10
        assert plan.total_crossbars == 10
        assert plan.bottleneck_slots == 10

    def test_replication_capped_by_windows(self):
        layer = ("fc", 1, 1)
        plan = allocate([layer], crossbar_budget=100)
        assert plan.factor("fc") == 1  # replicating a 1-window layer is useless

    def test_budget_exhaustion_raises_when_single_copy_too_big(self):
        layer = ("huge", 20, 10)
        with pytest.raises(ValueError):
            allocate([layer], crossbar_budget=16)

    def test_bottleneck_layer_replicated_first(self):
        early = ("early", 1, 1000)  # bottleneck
        late = ("late", 1, 10)
        plan = allocate([early, late], crossbar_budget=8)
        assert plan.factor("early") > plan.factor("late")

    def test_balances_towards_equal_service_time(self):
        a = ("a", 1, 400)
        b = ("b", 1, 100)
        plan = allocate([a, b], crossbar_budget=10)
        slots_a = math.ceil(400 / plan.factor("a"))
        slots_b = math.ceil(100 / plan.factor("b"))
        # service times should be within a factor ~2 of each other
        assert max(slots_a, slots_b) <= 2 * min(slots_a, slots_b) + 1

    def test_respects_budget(self):
        layers = [(f"l{i}", 2, 500) for i in range(4)]
        plan = allocate(layers, crossbar_budget=20)
        assert plan.total_crossbars <= 20

    def test_crossbars_used_per_layer(self):
        layer = ("conv", 3, 50)
        plan = allocate([layer], crossbar_budget=9)
        assert plan.crossbars_used["conv"] == 3 * plan.factor("conv")

    def test_max_replication_limit(self):
        layer = ("conv", 1, 10_000)
        plan = allocate([layer], crossbar_budget=1000, max_replication=4)
        assert plan.factor("conv") <= 4

    def test_unknown_layer_factor_defaults_to_one(self):
        plan = ReplicationPlan()
        assert plan.factor("missing") == 1

    def test_bottleneck_slots_reported(self):
        a = ("a", 1, 100)
        plan = allocate([a], crossbar_budget=4)
        assert plan.bottleneck_slots == math.ceil(100 / plan.factor("a"))

    def test_more_budget_never_hurts_bottleneck(self):
        layers = [("a", 1, 784), ("b", 2, 196), ("c", 4, 49)]
        small = allocate(layers, crossbar_budget=16)
        large = allocate(layers, crossbar_budget=64)
        assert large.bottleneck_slots <= small.bottleneck_slots


def reference_replication_factor_list(names, windows, copies, crossbar_budget,
                                      max_replication=64):
    """Test oracle: the batched linear-scan greedy the heap allocator replaced.

    Each selection scans every layer for the bottleneck (most slots, ties to
    the lowest index, among layers below their limit whose next copy fits),
    then scans again for the runner-up, and advances the bottleneck's factor
    in one jump until its slots would drop below the runner-up's.
    """
    n = len(names)
    factors = [1] * n
    for name, copy in zip(names, copies):
        if copy < 1:
            raise ValueError(f"layer {name!r} needs no crossbars")
    if n == 0:
        return factors
    used = sum(copies)
    if used > crossbar_budget:
        raise ValueError("single copies exceed the budget")
    limits = [min(max_replication, max(w, 1)) for w in windows]
    if n == 1:
        if windows[0] > 0:
            factors[0] = min(limits[0], crossbar_budget // copies[0])
        return factors
    slots_cache = [math.ceil(w / 1) if w else 0 for w in windows]
    while True:
        best_index = -1
        best_slots = -1
        for i in range(n):
            if factors[i] >= limits[i]:
                continue
            if used + copies[i] > crossbar_budget:
                continue
            if slots_cache[i] > best_slots:
                best_slots = slots_cache[i]
                best_index = i
        if best_index < 0 or best_slots <= 1:
            break
        copy = copies[best_index]
        factor = factors[best_index]
        runner_up = 1
        for i in range(n):
            if i == best_index:
                continue
            if factors[i] >= limits[i]:
                continue
            if used + copies[i] > crossbar_budget:
                continue
            required = slots_cache[i] + 1 if i < best_index else slots_cache[i]
            if required > runner_up:
                runner_up = required
        threshold = runner_up if runner_up > 2 else 2
        w = windows[best_index]
        target_factor = -(-w // (threshold - 1))
        budget_factor = factor + (crossbar_budget - used) // copy
        new_factor = min(target_factor, limits[best_index], budget_factor)
        used += (new_factor - factor) * copy
        factors[best_index] = new_factor
        if w:
            slots_cache[best_index] = math.ceil(w / new_factor)
    return factors


def span_geometries(model, chip_name):
    """``(windows, copies)`` of every valid span of a (model, chip) pair, deduplicated."""
    decomposition, validity = shared_decomposition(model, chip_name)
    index = decomposition.index
    ranges = decomposition.layer_unit_ranges
    geometries = decomposition.geometries
    found = set()
    for start in range(decomposition.num_units):
        for end in range(start + 1, validity.max_end(start) + 1):
            windows, copies = [], []
            for layer in index.layers_in_span(start, end):
                layer_start, layer_end = ranges[layer]
                lo, hi = max(layer_start, start), min(layer_end, end)
                copies.append(index.crossbar_prefix[hi] - index.crossbar_prefix[lo])
                windows.append(geometries[layer].windows)
            found.add((tuple(windows), tuple(copies)))
    return decomposition.chip.total_crossbars, sorted(found)


PAPER_PAIRS = [(m, c) for m in ("vgg16", "resnet18", "squeezenet") for c in ("S", "M", "L")]


class TestHeapAllocatorMatchesOracle:
    @pytest.mark.parametrize("model,chip_name", PAPER_PAIRS,
                             ids=[f"{m}-{c}" for m, c in PAPER_PAIRS])
    def test_every_valid_span_geometry(self, model, chip_name):
        budget, signatures = span_geometries(model, chip_name)
        for windows, copies in signatures:
            names = [f"l{i}" for i in range(len(windows))]
            assert replication_factor_list(names, windows, copies, budget) == (
                reference_replication_factor_list(names, windows, copies, budget)
            ), (windows, copies)

    def test_random_geometries(self):
        """Zero windows, tied slots, small replication caps and tight budgets."""
        rng = random.Random(21)
        cases = 0
        while cases < 100_000:
            n = rng.randint(2, 9)
            names = [f"l{i}" for i in range(n)]
            if rng.random() < 0.3:  # few distinct window counts -> tied slots
                pool = [rng.choice((0, 1, 2, 3, 4, 8, 49, 196)) for _ in range(3)]
                windows = [rng.choice(pool) for _ in range(n)]
            else:
                windows = [rng.choice((0, rng.randint(1, 12), rng.randint(1, 3136)))
                           for _ in range(n)]
            copies = [rng.randint(1, 12) for _ in range(n)]
            # budgets from exactly the single copies up to ample headroom
            budget = sum(copies) + rng.choice((0, 1, 2, rng.randint(0, 20),
                                               rng.randint(0, 400)))
            max_replication = rng.choice((1, 2, 7, 64))
            assert replication_factor_list(
                names, windows, copies, budget, max_replication
            ) == reference_replication_factor_list(
                names, windows, copies, budget, max_replication
            ), (windows, copies, budget, max_replication)
            cases += 1

    def test_over_budget_raises_like_oracle(self):
        with pytest.raises(ValueError):
            replication_factor_list(["a", "b"], [4, 4], [3, 3], 5)
        with pytest.raises(ValueError):
            reference_replication_factor_list(["a", "b"], [4, 4], [3, 3], 5)

    @pytest.mark.parametrize("names,windows,copies", [
        (["a", "b"], [10, 5], [0, 1]),
        (["a"], [10], [0]),
        (["b", "a"], [5, 0], [1, 0]),
    ])
    def test_zero_copy_raises_naming_the_layer(self, names, windows, copies):
        for allocator in (replication_factor_list, reference_replication_factor_list):
            with pytest.raises(ValueError, match="'a'"):
                allocator(names, windows, copies, 4)
        with pytest.raises(ValueError, match="'a'"):
            allocate_replication_arrays(names, windows, copies, crossbar_budget=4)


def level_cost(windows, copies, level, max_replication=64):
    """Crossbars of the state where every layer is at slot level ``level``."""
    return sum(
        copy * min(max_replication, max(w, 1), max(1, -(-w // level)))
        for w, copy in zip(windows, copies)
    )


class TestLevelJump:
    """Fuzz the allocator's level jump against the linear-scan oracle.

    The allocator jumps to the deepest slot level whose cost fits and lets
    its heap settle the rest, so the cases aim at the jump's edges: huge
    window counts, budgets within one largest copy of a level's cost,
    layers tied at the final level, and a large-copy layer that stops
    replicating while small-copy layers go on.
    """

    @staticmethod
    def check(windows, copies, budget, max_replication=64):
        names = [f"l{i}" for i in range(len(windows))]
        assert replication_factor_list(
            names, windows, copies, budget, max_replication
        ) == reference_replication_factor_list(
            names, windows, copies, budget, max_replication
        ), (windows, copies, budget, max_replication)

    def test_large_windows_with_ample_budgets(self):
        rng = random.Random(31)
        for _ in range(3_000):
            n = rng.randint(2, 12)
            windows = [rng.choice((rng.randint(1, 50_176), 50_176, 12_544, 3_136, 784))
                       for _ in range(n)]
            copies = [rng.randint(1, 16) for _ in range(n)]
            budget = sum(copies) * rng.choice((2, 8, 64, 65)) + rng.randint(0, 50)
            self.check(windows, copies, budget, rng.choice((7, 64, 1_000)))

    def test_budgets_at_a_level_boundary(self):
        rng = random.Random(32)
        for _ in range(5_000):
            n = rng.randint(2, 9)
            windows = [rng.randint(0, 3_136) for _ in range(n)]
            copies = [rng.randint(1, 12) for _ in range(n)]
            max_replication = rng.choice((2, 7, 64))
            level = rng.randint(1, max(windows) + 1)
            cost = level_cost(windows, copies, level, max_replication)
            # the boundary: within one largest copy either side of the level
            budget = max(sum(copies), cost + rng.randint(-max(copies), max(copies)))
            self.check(windows, copies, budget, max_replication)

    def test_tied_slots_at_the_final_level(self):
        rng = random.Random(33)
        for _ in range(5_000):
            n = rng.randint(2, 9)
            pool = [rng.choice((49, 196, 784, 3_136, rng.randint(2, 400))) for _ in range(2)]
            windows = [rng.choice(pool) for _ in range(n)]
            copies = [rng.choice((1, 2, 3)) for _ in range(n)]
            level = rng.randint(2, max(windows))
            # enough for the level plus a few of the tied layers' next copies
            budget = level_cost(windows, copies, level) + rng.randint(0, 2 * n)
            self.check(windows, copies, budget)

    def test_large_copy_layer_drops_out(self):
        rng = random.Random(34)
        for _ in range(5_000):
            n = rng.randint(3, 9)
            big = rng.randrange(n)
            windows = [rng.randint(100, 5_000) for _ in range(n)]
            windows[big] = max(windows) + rng.randint(0, 2_000)
            copies = [rng.randint(1, 3) for _ in range(n)]
            copies[big] = rng.randint(20, 60)
            level = rng.randint(2, windows[big])
            # the big layer's next copy stops fitting before the small
            # layers' do, so they keep replicating without it
            budget = level_cost(windows, copies, level) + rng.randint(0, copies[big] - 1)
            self.check(windows, copies, budget)
        # a worked case: after the first level the big layer no longer fits
        names = ["big", "s1", "s2"]
        windows, copies, budget = [1_000, 900, 800], [40, 1, 1], 90
        factors = replication_factor_list(names, windows, copies, budget)
        assert factors == reference_replication_factor_list(names, windows, copies, budget)
        assert factors[0] == 2 and factors[1] > 2 and factors[2] > 2


class TestUniqueNames:
    def test_repeated_layer_names_raise(self):
        with pytest.raises(ValueError, match="unique"):
            replication_factors(["conv", "conv"], [10, 10], [1, 1], crossbar_budget=8)
        layers = [("conv", 1, 10), ("conv", 1, 10)]
        with pytest.raises(ValueError, match="unique"):
            allocate(layers, crossbar_budget=8)
