"""Scheduling policies and dynamic batching for the serving simulator.

Two decisions happen at every dispatch opportunity, and this module owns
both:

* **Which batch size?** — :class:`DynamicBatcher` picks from the allowed
  batch sizes using the compiled plans' span-matrix latency curves
  ``WR + (FILL + (B-1)*BN)``: the weight-replacement cost ``WR`` amortises
  over the batch, so larger batches cost less *chip time per request* — but
  waiting to fill a larger batch delays the requests already queued.  The
  batcher compares per-request chip occupancy of dispatching now against
  waiting for the next larger batch size (estimated from the observed
  interarrival EMA) and holds only while waiting is provably favourable and
  within the batching-delay budget.
* **Which chip?** — a :class:`SchedulingPolicy`: FIFO (first idle chip),
  least-loaded (least cumulative busy time), latency-aware (fastest
  compiled plan for this model/batch — the policy that exploits
  heterogeneous S/M/L fleets), or fair (deficit-weighted round-robin
  across model queues for multi-tenant mixes, latency-aware chip choice).

When plan-switch cost is modelled (``REPRO_SERVE_SWITCH_COST``), the
latency-aware ranking uses the *effective* service latency
(:func:`~repro.serve.fleet.service_latency_ns`): a chip that would have
to switch plans pays the incoming plan's weight-replacement cost on top
of the compiled latency, so a slower chip whose crossbars already hold
the plan can beat a faster cold one.

Dispatch cost scales with the number of *pricing classes* in the fleet,
not the number of chips.  Chips with equal ``(chip class, DRAM factor,
straggler factor, resident plan)`` price every dispatch identically, so a
policy that ranks by price (``ranks_by_price``: ``latency`` and ``fair``)
is offered one representative per class — the member with the least
``(busy_ns, index)``, see :func:`pricing_classes` — and picks exactly the
chip a ranking of every idle chip would.  ``fifo`` and ``least_loaded``
see every idle chip.  Plans are priced through the run's
:class:`~repro.serve.plans.PriceTable`, which consults the plan cache
once per plan.  The simulator keeps the candidate chips and each
``(model, batch)`` route in a dispatch view that it rebuilds only after a
chip's dispatch state changes, so a dispatch attempt at an event that
changed no chip costs one length check and dictionary lookups.

A policy may also order the model queues competing for an idle chip
(:meth:`SchedulingPolicy.order_queues`).  The default is FIFO across
models — oldest head request first — which all policies except ``fair``
keep; ``fair`` serves the model with the largest deficit (fewest requests
served so far), breaking ties FIFO, so one tenant's burst cannot starve
another's queue.  Every ordering respects ``Request.priority`` first: a
final-attempt retry promoted by ``FaultTolerance.retry_priority`` is
served ahead of fresh arrivals (generators issue priority 0, so the knob
is inert unless enabled).

Policies are registered by name in :data:`POLICIES`; the CLI's
``repro serve --policy`` option routes here.  Everything is deterministic:
ties break on worker index, and the batcher consumes no randomness.
"""

from __future__ import annotations

import abc
import math
from bisect import bisect_right
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple, Type

from repro.serve.fleet import ChipWorker, plan_for, service_latency_ns
from repro.serve.plans import PlanCache
from repro.serve.traffic import Request


class SchedulingPolicy(abc.ABC):
    """Chooses the chip a batch is dispatched to (and orders model queues)."""

    #: registry name of the policy (the ``--policy`` value)
    name: str = "base"
    #: whether the policy ranks chips by (effective latency, busy time,
    #: index) — then the simulator offers it one chip per pricing class
    #: (:func:`pricing_classes`), which picks exactly the same chip
    ranks_by_price: bool = False

    @abc.abstractmethod
    def choose_worker(
        self,
        idle_workers: Sequence[ChipWorker],
        model: str,
        batch: int,
        plans: PlanCache,
        now_ns: float,
        switch_cost: bool = False,
    ) -> ChipWorker:
        """Pick one of the idle workers for a (model, batch) dispatch."""

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget any per-run state (called at the start of every run)."""

    def order_queues(self, queues: Dict[str, "Deque[Request]"]) -> List[str]:
        """Order of the non-empty model queues competing for an idle chip.

        The default is FIFO across models: oldest head request first, ties
        broken on request id — except that a queue whose head carries a
        raised :attr:`~repro.serve.traffic.Request.priority` (a retry on
        its final attempt under ``FaultTolerance.retry_priority``) is
        served before any plain queue regardless of arrival order.  All
        generator-issued requests carry priority 0, so without the
        retry-priority knob this is exactly the historical FIFO order.
        """
        names = [model for model, queue in queues.items() if queue]
        if len(names) > 1:
            names.sort(key=lambda m: (-queues[m][0].priority,
                                      queues[m][0].arrival_ns, queues[m][0].request_id))
        return names

    def note_dispatch(self, model: str, served: int) -> None:
        """Record that ``served`` requests of ``model`` were dispatched."""


class FifoPolicy(SchedulingPolicy):
    """First idle chip in fleet order — the baseline policy."""

    name = "fifo"

    def choose_worker(self, idle_workers, model, batch, plans, now_ns,
                      switch_cost=False):
        return idle_workers[0]


class LeastLoadedPolicy(SchedulingPolicy):
    """Idle chip with the least cumulative busy time (ties on index)."""

    name = "least_loaded"

    def choose_worker(self, idle_workers, model, batch, plans, now_ns,
                      switch_cost=False):
        return min(idle_workers, key=lambda w: (w.busy_ns, w.index))


class LatencyAwarePolicy(SchedulingPolicy):
    """Idle chip whose compiled plan serves this (model, batch) fastest.

    On a homogeneous fleet this degrades to least-loaded (all plans equal);
    on a heterogeneous fleet it routes work to the chip class with the
    shortest service latency, falling back to slower classes only when the
    fast ones are busy.  With plan-switch cost modelled the ranking uses
    the effective latency — a cold chip pays the incoming plan's
    weight-replacement term on top of the compiled latency — so a slower
    chip already holding the plan can win over a faster cold one.
    """

    name = "latency"
    ranks_by_price = True

    def choose_worker(self, idle_workers, model, batch, plans, now_ns,
                      switch_cost=False):
        # plan_for prices a degraded-DRAM chip on its scaled timings, and
        # service_latency_ns folds in straggler factors — so a faulted chip
        # competes at its true current speed, not its nominal one
        return min(
            idle_workers,
            key=lambda w: (
                service_latency_ns(plan_for(plans, w, model, batch), w,
                                   switch_cost),
                w.busy_ns, w.index,
            ),
        )


class FairPolicy(LatencyAwarePolicy):
    """Deficit-weighted round-robin across model queues (multi-tenant).

    Chip choice is latency-aware; *queue* choice serves the model with the
    fewest requests served so far this run (the largest deficit under
    equal per-model weights), breaking ties FIFO on the oldest head
    request.  A bursty tenant therefore cannot monopolise the fleet while
    another tenant's queue ages — the trade the per-model SLO attainment
    blocks in the serving report make visible.
    """

    name = "fair"

    def __init__(self) -> None:
        self._served: Dict[str, int] = {}

    def reset(self) -> None:
        self._served.clear()

    def order_queues(self, queues):
        # a raised head priority (final-attempt retry) still pre-empts the
        # deficit order: a request out of attempts beats fairness bookkeeping
        names = [model for model, queue in queues.items() if queue]
        if len(names) > 1:
            names.sort(key=lambda m: (-queues[m][0].priority, self._served.get(m, 0),
                                      queues[m][0].arrival_ns, queues[m][0].request_id))
        return names

    def note_dispatch(self, model, served):
        self._served[model] = self._served.get(model, 0) + served


def pricing_classes(idle_workers: Sequence[ChipWorker]) -> List[ChipWorker]:
    """One representative chip per pricing class of ``idle_workers``.

    Chips with equal ``(chip class, DRAM factor, straggler factor,
    resident plan)`` price every dispatch identically, so a ranking by
    ``(effective latency, busy_ns, index)`` can only pick the class member
    with the least ``(busy_ns, index)``.  That member represents the
    class.  Classes come out in order of first appearance.
    """
    classes: Dict[tuple, ChipWorker] = {}
    for worker in idle_workers:
        key = (worker.chip_name, worker.dram_factor, worker.latency_factor,
               worker.loaded_plan)
        best = classes.get(key)
        if best is None or worker.busy_ns < best.busy_ns or (
                worker.busy_ns == best.busy_ns and worker.index < best.index):
            classes[key] = worker
    return list(classes.values())


#: Scheduling policies by registry name (the ``--policy`` values).
POLICIES: Dict[str, Type[SchedulingPolicy]] = {
    FifoPolicy.name: FifoPolicy,
    LeastLoadedPolicy.name: LeastLoadedPolicy,
    LatencyAwarePolicy.name: LatencyAwarePolicy,
    FairPolicy.name: FairPolicy,
}


def validate_policy(policy: str) -> None:
    """Raise ``ValueError`` for a name not in :data:`POLICIES`."""
    if policy not in POLICIES:
        known = ", ".join(sorted(POLICIES))
        raise ValueError(f"unknown policy {policy!r}; expected one of: {known}")


def make_policy(policy: str) -> SchedulingPolicy:
    """Construct a scheduling policy by registry name."""
    validate_policy(policy)
    return POLICIES[policy]()


class DynamicBatcher:
    """Chooses batch sizes from the compiled plans' per-batch latency curves.

    ``batch_sizes`` is the allowed set (plans exist per size); ``max_wait_us``
    bounds how long the oldest queued request may be held back to fill a
    larger batch (0 disables holding: work-conserving greedy batching).
    """

    def __init__(self, batch_sizes: Sequence[int] = (1, 2, 4, 8, 16),
                 max_wait_us: float = 0.0) -> None:
        sizes = sorted(set(int(b) for b in batch_sizes))
        if not sizes or sizes[0] <= 0:
            raise ValueError("batch_sizes must be positive integers")
        if not max_wait_us >= 0:
            raise ValueError("max_wait_us must be non-negative")
        self.batch_sizes: Tuple[int, ...] = tuple(sizes)
        self.max_wait_ns = max_wait_us * 1e3

    # ------------------------------------------------------------------
    def dispatch_size(self, queue_len: int) -> int:
        """The batch size a forced dispatch uses for ``queue_len`` requests.

        The largest allowed size that the queue fills; when the queue is
        shorter than the smallest allowed size, the smallest size is used as
        a padded batch (the plan executes at its compiled batch size, the
        spare slots ride along empty).
        """
        sizes = self.batch_sizes
        return sizes[max(bisect_right(sizes, queue_len) - 1, 0)]

    def choose(
        self,
        queue_len: int,
        now_ns: float,
        oldest_arrival_ns: float,
        ema_interarrival_ns: float,
        latency_of: Callable[[int], float],
        more_arrivals: bool,
    ) -> Tuple[int, Optional[float]]:
        """Dispatch decision for one model queue with an idle chip available.

        Returns ``(batch, None)`` to dispatch now, or ``(0, deadline_ns)``
        to hold the queue: the simulator re-decides after every event it
        processes (not only arrivals) and forces a dispatch when the
        deadline passes.  ``latency_of(b)`` is
        the service latency of the candidate plan at batch ``b`` (from the
        plan cache, i.e. the span-matrix latency curve).
        """
        if queue_len <= 0:
            raise ValueError("choose() needs a non-empty queue")
        sizes = self.batch_sizes
        above = bisect_right(sizes, queue_len)  # the first size past the queue
        b_now = sizes[max(above - 1, 0)]
        if above == len(sizes) or not more_arrivals or self.max_wait_ns <= 0:
            return b_now, None
        deadline = oldest_arrival_ns + self.max_wait_ns
        if now_ns >= deadline:
            return b_now, None
        b_next = sizes[above]
        if not math.isfinite(ema_interarrival_ns):
            return b_now, None  # no rate estimate yet: stay work-conserving
        wait_ns = (b_next - queue_len) * ema_interarrival_ns
        if now_ns + wait_ns > deadline:
            return b_now, None
        # chip occupancy per request: hold only if filling the next batch
        # size is cheaper even counting the expected fill time
        served_now = min(b_now, queue_len)  # padded batches serve the queue only
        occupancy_now = latency_of(b_now) / served_now
        occupancy_next = (latency_of(b_next) + wait_ns) / b_next
        if occupancy_next < occupancy_now:
            return 0, deadline
        return b_now, None
