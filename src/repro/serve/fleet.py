"""Fleet model: the chips a serving deployment schedules onto.

A fleet is an ordered list of :class:`ChipWorker` instances — each one chip
running one partition plan at a time (partitions of a plan time-share the
chip's cores, so a chip serves one batch end to end before taking the next).
Fleets may be homogeneous (``M:4``) or heterogeneous S/M/L mixes
(``S:2,M:1,L:1``): heterogeneous fleets are where the latency-aware
scheduling policy earns its keep, because the same model compiles to very
different plans per chip class.

Workers carry their own occupancy counters (busy time, batches, requests,
energy); the simulator updates them as each batch completes and the serving
report reads them back as the per-chip utilisation table.

Each worker also remembers the compiled plan its crossbars currently hold
(``loaded_plan``).  When plan-switch cost modelling is enabled
(:func:`switch_cost_enabled`, the ``REPRO_SERVE_SWITCH_COST`` gate), a
dispatch that changes the chip's resident plan must first write the
incoming plan's weights onto the crossbars — charged as the incoming
plan's ``weight_replace_ns``, on top of the compiled latency whose own
``WR`` term covers the in-execution partition weight streaming — and is
counted as a plan switch.  A warm re-dispatch of the resident plan (and
the first dispatch after the prewarmed deployment start) pays the
compiled latency unchanged.

Workers also carry fault state (:mod:`repro.serve.faults`): ``up`` marks a
failed chip out of the dispatchable pool, ``latency_factor`` stretches
every service latency while the chip straggles, and ``dram_factor``
re-prices its plans on degraded DRAM timings (via :func:`plan_for`).  Lost
work (batches in flight when the chip died), failure counts and downtime
accumulate per worker for the report's availability accounting.  A chip's
``loaded_plan`` survives failure and recovery: crossbar weights are
non-volatile, so the restarted chip still holds the plan it had.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro import envflags
from repro.hardware.config import get_chip_config

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a runtime cycle
    from repro.serve.plans import CompiledPlan, PlanCache, PlanKey


def switch_cost_enabled() -> bool:
    """Whether serving models plan-switch weight-replacement cost.

    Controlled by the ``REPRO_SERVE_SWITCH_COST`` environment variable
    (default on; ``0`` or the empty string disables it).  With the cost
    disabled every dispatch pays the full compiled plan latency — exactly
    the pre-switch-cost serving model, pinned bit-identical in
    ``tests/test_serve.py``.
    """
    return envflags.serve_switch_cost_enabled()


def is_plan_switch(plan: "CompiledPlan", worker: "ChipWorker",
                   switch_cost: bool) -> bool:
    """Whether dispatching ``plan`` on ``worker`` replaces a resident plan.

    The single definition of "plan switch" shared by the latency charge
    (:func:`service_latency_ns`) and the per-chip switch counters, so the
    two can never drift apart.  The first dispatch on a freshly reset
    worker is not a switch — the prewarmed deployment staged its weights
    alongside the plan-cache warmup.
    """
    return (switch_cost and worker.loaded_plan is not None
            and worker.loaded_plan != plan.key)


def service_latency_ns(plan: "CompiledPlan", worker: "ChipWorker",
                       switch_cost: bool) -> float:
    """Service latency of dispatching ``plan`` on ``worker`` (ns).

    With switch-cost modelling on, a dispatch that changes the worker's
    resident plan pays the incoming plan's weight-replacement term
    ``WR`` *in addition to* the compiled latency curve
    ``WR + (FILL + (B-1)*BN)``: the new plan's weights must be written
    onto the crossbars before execution starts, while the curve's own
    ``WR`` covers the partition weight streaming *during* execution.  A
    warm re-dispatch of the resident plan — and the first dispatch on a
    freshly reset worker, whose weights the prewarmed deployment already
    staged — pays the compiled latency unchanged.  With modelling off,
    every dispatch pays the compiled latency: the switch-oblivious
    pre-switch-cost model, bit-exactly.

    A straggling worker stretches the whole charge by its
    ``latency_factor`` (1.0 on a healthy chip — an exact no-op in IEEE
    arithmetic, so fault-free runs stay bit-identical).
    """
    if is_plan_switch(plan, worker, switch_cost):
        return (plan.latency_ns + plan.weight_replace_ns) * worker.latency_factor
    return plan.latency_ns * worker.latency_factor


def plan_for(plans: "PlanCache", worker: "ChipWorker", model: str,
             batch: int) -> "CompiledPlan":
    """The compiled plan ``worker`` would run for a (model, batch) dispatch.

    On a healthy chip this is exactly ``plans.get(model, chip, batch)``;
    a chip whose DRAM is degraded (``dram_factor != 1``) instead prices
    the plan on the scaled DRAM timings — re-compiled through the full
    span-matrix stack on first use and cached like any other plan.  The
    single lookup point shared by the scheduler's latency ranking and the
    simulator's dispatch, so the two can never disagree on what a
    degraded chip costs.
    """
    if worker.dram_factor != 1.0:
        from repro.serve.plans import degraded_dram

        return plans.get(model, worker.chip_name, batch,
                         dram=degraded_dram(plans.dram_config, worker.dram_factor))
    return plans.get(model, worker.chip_name, batch)


@dataclass
class ChipWorker:
    """One chip of the fleet, with its occupancy counters."""

    index: int
    chip_name: str
    #: simulated time (ns) until which the chip is executing its current batch
    busy_until_ns: float = 0.0
    #: cumulative busy time (ns)
    busy_ns: float = 0.0
    #: batches dispatched to this chip
    batches_served: int = 0
    #: requests served (sum of dispatched batch occupancies)
    requests_served: int = 0
    #: cumulative energy of the batches served (pJ)
    energy_pj: float = 0.0
    #: key of the compiled plan whose weights the chip currently holds
    loaded_plan: Optional["PlanKey"] = None
    #: dispatches that replaced a previously loaded different plan
    plan_switches: int = 0
    #: cumulative weight-replacement time charged to plan switches (ns)
    switch_ns: float = 0.0
    #: whether the chip is alive (a failed chip takes no dispatches)
    up: bool = True
    #: bumped at every failure; stale completion events carry the old epoch
    epoch: int = 0
    #: straggler service-latency multiplier (1.0 = full speed)
    latency_factor: float = 1.0
    #: DRAM timing multiplier (1.0 = nominal; > 1 re-prices resident plans)
    dram_factor: float = 1.0
    #: failures suffered this run
    failures: int = 0
    #: when the current outage began (``None`` while up)
    down_since_ns: Optional[float] = None
    #: cumulative outage time (ns) — computed from ``outages`` at report
    #: time, clamped to the simulation horizon
    downtime_ns: float = 0.0
    #: closed outage windows ``(down_ns, up_ns)`` this run; the simulator
    #: appends one per recovery and :meth:`close_downtime` closes the open
    #: outage at end-of-run.  Kept as windows (not a running sum) so a
    #: recovery scheduled past the simulation horizon can be clamped to it
    #: — a chip can never report more downtime than the run's wall time
    outages: List[Tuple[float, float]] = field(default_factory=list)
    #: batches in flight when the chip died
    lost_batches: int = 0
    #: requests aboard those batches (re-queued or lost by the simulator)
    lost_requests: int = 0
    #: chip time wasted on killed batches (ns)
    lost_ns: float = 0.0

    @property
    def label(self) -> str:
        """Stable display name, e.g. ``M#2``."""
        return f"{self.chip_name}#{self.index}"

    def idle_at(self, now_ns: float) -> bool:
        """Whether the chip is free to take a batch at ``now_ns``."""
        return self.up and self.busy_until_ns <= now_ns

    def utilisation(self, makespan_ns: float) -> float:
        """Fraction of the run this chip spent executing batches."""
        return self.busy_ns / makespan_ns if makespan_ns > 0 else 0.0

    def close_downtime(self, end_ns: float) -> None:
        """Close the books at the simulation horizon ``end_ns``.

        An outage still open ends at ``end_ns``, and ``downtime_ns`` sums
        the outage windows clamped to the horizon: a chip whose scripted
        recovery lies beyond the last event reports at most the run's wall
        time as downtime, never more.
        """
        outages = list(self.outages)
        if not self.up and self.down_since_ns is not None:
            outages.append((self.down_since_ns, end_ns))
            self.down_since_ns = end_ns
        downtime_ns = 0.0
        for start_ns, stop_ns in outages:
            downtime_ns += max(0.0, min(stop_ns, end_ns) - min(start_ns, end_ns))
        self.downtime_ns = downtime_ns


class Fleet:
    """An ordered collection of chip workers."""

    def __init__(self, workers: Sequence[ChipWorker]) -> None:
        if not workers:
            raise ValueError("a fleet needs at least one chip")
        self.workers: List[ChipWorker] = list(workers)

    # ------------------------------------------------------------------
    @classmethod
    def homogeneous(cls, chip_name: str, count: int = 1) -> "Fleet":
        """A fleet of ``count`` identical chips."""
        return cls.from_counts([(chip_name, count)])

    @classmethod
    def from_counts(cls, counts: Sequence[Tuple[str, int]]) -> "Fleet":
        """A fleet from (chip name, count) pairs, in the given order."""
        workers: List[ChipWorker] = []
        for chip_name, count in counts:
            try:
                get_chip_config(chip_name)  # validate the name early
            except KeyError as error:
                raise ValueError(str(error).strip('"')) from None
            if count <= 0:
                raise ValueError(f"chip count must be positive, got {chip_name}:{count}")
            for _ in range(count):
                workers.append(ChipWorker(index=len(workers), chip_name=chip_name.upper()))
        return cls(workers)

    @classmethod
    def from_spec(cls, spec: str) -> "Fleet":
        """Parse a fleet spec string like ``"M"``, ``"M:4"`` or ``"S:2,M:1,L:1"``."""
        counts: List[Tuple[str, int]] = []
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if ":" in part:
                name, _, count = part.partition(":")
                try:
                    counts.append((name.strip(), int(count)))
                except ValueError:
                    raise ValueError(f"bad fleet spec entry {part!r}; expected CHIP:COUNT")
            else:
                counts.append((part, 1))
        if not counts:
            raise ValueError(f"empty fleet spec {spec!r}")
        return cls.from_counts(counts)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.workers)

    @property
    def spec(self) -> str:
        """Canonical spec string reproducing this fleet's exact worker order.

        Consecutive runs are grouped (``S,S,M`` → ``"S:2,M:1"``) but
        interleavings are preserved (``S,M,S`` → ``"S:1,M:1,S:1"``): worker
        order drives FIFO dispatch and tie-breaking, so
        ``Fleet.from_spec(fleet.spec)`` must rebuild an equivalent fleet.
        """
        runs: List[Tuple[str, int]] = []
        for worker in self.workers:
            if runs and runs[-1][0] == worker.chip_name:
                runs[-1] = (worker.chip_name, runs[-1][1] + 1)
            else:
                runs.append((worker.chip_name, 1))
        return ",".join(f"{name}:{count}" for name, count in runs)

    @property
    def chip_names(self) -> Tuple[str, ...]:
        """Distinct chip classes present, in worker order."""
        seen: Dict[str, None] = {}
        for worker in self.workers:
            seen.setdefault(worker.chip_name)
        return tuple(seen)

    def idle_workers(self, now_ns: float) -> List[ChipWorker]:
        """Workers free at ``now_ns``, in index order."""
        return [w for w in self.workers if w.idle_at(now_ns)]

    def gauges(self) -> Dict[str, object]:
        """Fleet-wide occupancy, energy and switch totals (a telemetry
        gauge source)."""
        workers = self.workers
        return {
            "chips": len(workers),
            "up": sum(1 for w in workers if w.up),
            "busy_ms": sum(w.busy_ns for w in workers) * 1e-6,
            "energy_mj": sum(w.energy_pj for w in workers) * 1e-9,
            "plan_switches": sum(w.plan_switches for w in workers),
        }

    def reset(self) -> None:
        """Zero every worker's occupancy counters (for re-running a fleet)."""
        for worker in self.workers:
            worker.busy_until_ns = 0.0
            worker.busy_ns = 0.0
            worker.batches_served = 0
            worker.requests_served = 0
            worker.energy_pj = 0.0
            worker.loaded_plan = None
            worker.plan_switches = 0
            worker.switch_ns = 0.0
            worker.up = True
            worker.epoch = 0
            worker.latency_factor = 1.0
            worker.dram_factor = 1.0
            worker.failures = 0
            worker.down_since_ns = None
            worker.downtime_ns = 0.0
            worker.outages = []
            worker.lost_batches = 0
            worker.lost_requests = 0
            worker.lost_ns = 0.0


def fleet_capacity_rps(
    cache: "PlanCache",
    fleet: Fleet,
    models: Sequence[str],
    batch_sizes: Sequence[int],
) -> float:
    """Best-case aggregate requests/second of a fleet for a model mix.

    Capacity of one chip = the best requests/second any allowed batch size
    of any served model achieves on it (plans come from the warm cache, so
    this is deterministic and free); the fleet capacity is the sum over
    chips, averaged over the served models.  The CLI's ``--utilization``
    auto-rate, the serving benchmark and the fixed-seed tests all derive
    their offered rates from this one number.
    """
    total = 0.0
    for worker in fleet.workers:
        per_model = [
            max(cache.get(model, worker.chip_name, batch).throughput_rps
                for batch in batch_sizes)
            for model in models
        ]
        total += sum(per_model) / len(per_model)
    return total
