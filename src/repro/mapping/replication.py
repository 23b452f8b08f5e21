"""Weight-replication allocation within a partition.

Inside a partition the layers execute as a pipeline over the MVM window
stream, so the slowest layer (most sliding windows per replica) limits
throughput.  Replicating a layer's weights R times lets R windows be
processed in parallel, cutting its service time to ``ceil(windows / R)``
MVM slots.  The allocator spends the partition's leftover crossbar budget on
replicas of whichever layer is currently the bottleneck — the same
"replication balances pipelined layers" policy the paper inherits from
PipeLayer/PIMCOMP, here applied per partition (Sec. II-B).

Constraint 2 of Sec. III-B is honoured by construction: replication is
allocated per *layer*, so every partition unit originating from the same
kernel shares the replication count.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence


@dataclass(slots=True)
class ReplicationPlan:
    """Result of replication allocation for one partition."""

    #: replication factor per layer name (>= 1)
    factors: Dict[str, int] = field(default_factory=dict)
    #: crossbars consumed by each layer including replication
    crossbars_used: Dict[str, int] = field(default_factory=dict)
    #: total crossbars consumed by the partition
    total_crossbars: int = 0
    #: pipeline bottleneck: max over layers of ceil(windows / replication)
    bottleneck_slots: int = 0

    def factor(self, layer_name: str) -> int:
        """Replication factor of a layer (1 if the layer is not in the plan)."""
        return self.factors.get(layer_name, 1)


def replication_factor_list(
    names: Sequence[str],
    windows: Sequence[int],
    copies: Sequence[int],
    crossbar_budget: int,
    max_replication: int = 64,
) -> List[int]:
    """Per-geometry replication factors for *unique* layer names, as a list.

    The greedy allocator: repeatedly give one more replica to the bottleneck
    layer — the most MVM slots ``ceil(windows / factor)``, ties to the
    lowest index — among layers below their limit whose next copy fits the
    budget.  It is computed in two exact steps.

    *Level jump.*  At slot level ``T`` a layer's factor is
    ``min(limit, max(1, ceil(w / T)))``, the least that brings it to ``T``
    slots or to its limit.  The greedy passes through the level-``T`` state
    whenever that state's cost fits the budget: until then it only ever
    replicates a layer with more than ``T`` slots, every such replica stays
    within the level's cost, so no layer drops out on the way, and the
    replicas it adds are exactly the level's.  The cost only grows as ``T``
    falls, so a binary search finds the smallest such ``T`` (``T = 1`` is
    every layer at its limit) and the allocation starts there.

    *Heap settle.*  From that state the greedy runs on a heap of
    ``(-slots, index)`` candidates; the budget only shrinks, so a layer
    whose copy no longer fits is popped lazily and never returns.  The
    selected layer keeps being selected until its slots drop below the
    runner-up's (the cleaned heap top, which must be beaten strictly when
    its index is lower), so its factor advances in one batched jump per
    selection — an exact replay of the one-at-a-time loop: competitors'
    slots cannot change while the selected layer replicates, and a
    shrinking budget at worst ends a jump early, before the next
    reselection.

    Raises ``ValueError`` if a layer's copy needs no crossbars or the
    single copies exceed the budget.
    """
    n = len(names)
    factors = [1] * n
    for name, copy in zip(names, copies):
        if copy < 1:
            raise ValueError(
                f"layer {name!r} needs {copy} crossbars per copy; at least 1 is required"
            )
    if n == 0:
        return factors
    used = sum(copies)
    if used > crossbar_budget:
        raise ValueError(
            f"partition needs {used} crossbars for a single copy of each layer "
            f"but only {crossbar_budget} are available"
        )
    limits = [min(max_replication, max(w, 1)) for w in windows]
    if n == 1:
        # Closed form of the greedy loop for the (very common) single-layer
        # partition: the loop replicates its only candidate until the factor
        # hits the limit or the next copy would blow the budget.  The
        # service-time stop (slots <= 1) never fires first because the limit
        # is already capped at the window count.
        w = windows[0]
        if w > 0:
            factors[0] = min(limits[0], crossbar_budget // copies[0])
        return factors
    if used == crossbar_budget:  # no spare crossbar for any replica
        return factors
    # only layers with a limit above 1 (hence at least 2 windows) replicate
    levelled = [(i, windows[i], copies[i], limits[i]) for i in range(n) if limits[i] > 1]
    full_cost = used
    weighted = 0
    for _, w, copy, limit in levelled:
        full_cost += (limit - 1) * copy
        weighted += w * copy
    if full_cost <= crossbar_budget:
        return limits
    # level 1 does not fit.  Level ceil(weighted / spare) does: each layer's
    # cost there is below copy * (w / T + 1), so the total is below
    # used + weighted / T <= budget.
    low = 1
    high = -(-weighted // (crossbar_budget - used))
    while high - low > 1:
        level = (low + high) >> 1
        cost = used
        for _, w, copy, limit in levelled:
            factor = -(-w // level)
            cost += ((limit if factor > limit else factor) - 1) * copy
        if cost <= crossbar_budget:
            high = level
        else:
            low = level
    heap = []
    for i, w, copy, limit in levelled:
        factor = -(-w // high)
        if factor >= limit:
            factor = limit
        else:
            heap.append((-w // factor, i))
        factors[i] = factor
        used += (factor - 1) * copy
    heapq.heapify(heap)
    heappop = heapq.heappop
    while True:
        while heap and used + copies[heap[0][1]] > crossbar_budget:
            heappop(heap)
        if not heap:
            break
        neg_slots, best_index = heappop(heap)
        if neg_slots >= -1:  # best slots <= 1
            break
        while heap and used + copies[heap[0][1]] > crossbar_budget:
            heappop(heap)
        runner_up = 1
        if heap:
            neg_other, other_index = heap[0]
            runner_up = 1 - neg_other if other_index < best_index else -neg_other
        threshold = runner_up if runner_up > 2 else 2
        w = windows[best_index]
        copy = copies[best_index]
        factor = factors[best_index]
        # smallest factor whose slots drop below the threshold
        target_factor = -(-w // (threshold - 1))
        budget_factor = factor + (crossbar_budget - used) // copy
        new_factor = min(target_factor, limits[best_index], budget_factor)
        used += (new_factor - factor) * copy
        factors[best_index] = new_factor
        if new_factor < limits[best_index]:
            heapq.heappush(heap, (-w // new_factor, best_index))
    return factors


def replication_factors(
    names: Sequence[str],
    windows: Sequence[int],
    copies: Sequence[int],
    crossbar_budget: int,
    max_replication: int = 64,
) -> Dict[str, int]:
    """Per-layer replication factors as a name-keyed dict.

    Replication is allocated per layer and a partition holds one slice per
    layer, so the names must be unique; repeated names raise ``ValueError``.
    """
    if len(set(names)) != len(names):
        raise ValueError(f"layer names must be unique, got {list(names)}")
    return dict(zip(names, replication_factor_list(
        names, windows, copies, crossbar_budget, max_replication
    )))


def allocate_replication_arrays(
    names: Sequence[str],
    windows: Sequence[int],
    copies: Sequence[int],
    crossbar_budget: int,
    max_replication: int = 64,
) -> ReplicationPlan:
    """Allocate replication factors for the layers of one partition.

    Takes the three geometry attributes the allocator reads (layer name,
    window count, crossbars per copy) as parallel sequences, one entry per
    layer (or layer slice) of the partition; layers with zero windows keep
    one copy.  ``crossbar_budget`` is the crossbars available to the
    partition (normally the whole chip) and ``max_replication`` caps any
    one layer's factor, which never exceeds its window count either.

    Raises ``ValueError`` if even a single copy of every layer does not fit
    in the budget (the partition is invalid) or a layer's copy needs no
    crossbars.
    """
    factors = replication_factors(names, windows, copies, crossbar_budget, max_replication)
    if not names:
        return ReplicationPlan(factors={}, crossbars_used={}, total_crossbars=0, bottleneck_slots=0)

    crossbars_used = {
        name: copy * factors[name] for name, copy in zip(names, copies)
    }
    bottleneck = 0
    for name, w in zip(names, windows):
        slots = math.ceil(w / factors[name])
        if slots > bottleneck:
            bottleneck = slots
    return ReplicationPlan(
        factors=factors,
        crossbars_used=crossbars_used,
        total_crossbars=sum(crossbars_used.values()),
        bottleneck_slots=bottleneck,
    )

