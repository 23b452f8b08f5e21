"""Discrete-event serving simulator: request streams against a chip fleet.

The simulator replays a seed-deterministic request stream
(:mod:`repro.serve.traffic`) against a :class:`~repro.serve.fleet.Fleet` of
chips running compiled partition plans (:mod:`repro.serve.plans`), with a
:class:`~repro.serve.scheduler.SchedulingPolicy` choosing chips and a
:class:`~repro.serve.scheduler.DynamicBatcher` choosing batch sizes.  It
produces a :class:`ServingReport` with the quantities the paper's
single-inference metrics are a proxy for: sustained throughput, p50/p95/p99
request latency, queue depths, per-chip utilisation and energy.

Six event kinds drive the loop, in a deterministic total order
``(time, kind, tie, sequence)`` — the tie component is the chip index for
chip-bound events (completions, faults), so same-instant events resolve by
chip id instead of heap insertion order:

* **chip-free** — a chip finished its batch; its requests complete (and,
  under closed-loop traffic, their clients issue follow-up requests —
  arrivals are injected into the live event heap, they need not be known
  up front).
* **fault** — an injected fault event fires (:mod:`repro.serve.faults`):
  a chip fails (its in-flight batch is killed and the riders retried or
  lost), recovers, starts or stops straggling, or drops to degraded DRAM
  timings.  Ordered after chip-free at the same instant, so a batch
  completing exactly when its chip dies still completes.
* **arrival** — a request joins its model's FIFO queue (and updates the
  per-model interarrival EMA the batcher's wait estimates use; zero gaps
  from simultaneous arrivals are skipped — they carry no rate information
  and would collapse the EMA toward zero).  With admission control
  enabled, an arrival that finds the fleet over budget is shed instead.
  Retries re-enter here too, flagged by ``Request.attempt``.
* **timeout** — a queued request exhausted its wait budget; it abandons
  the queue and retries (deterministic exponential backoff) or counts as
  timed out.
* **batch-deadline** — a held queue's batching-delay budget expired; the
  next dispatch for that model is forced.
* **control tick** — the self-healing control plane
  (:mod:`repro.serve.control`) wakes on its fixed interval, last at any
  instant so it observes the settled state: it quarantines chips whose
  expected completions stalled or whose service-ratio EMA marks them as
  stragglers, hedges queued requests stuck past the latency-window
  percentile budget (first copy to complete wins; the loser is cancelled
  or goes uncounted), grows/shrinks the fleet against windowed SLO
  attainment and utilisation (new chips arrive cold and pay the
  plan-switch weight-replacement cost on first dispatch), and re-pins
  resident plans across the idle survivors after any topology change.
  The tick chain re-arms itself only while there is something left to
  control, so it never keeps a finished run alive.

After every event the simulator dispatches greedily: while an idle chip and
a non-empty queue exist (queues ordered by the policy — FIFO across models
by default, deficit round-robin under the ``fair`` policy), the batcher
picks a size, the policy picks a chip, and the batch occupies the chip for
the plan's service latency.  With plan-switch cost modelled
(:func:`~repro.serve.fleet.switch_cost_enabled`), the service latency
depends on what the chip's crossbars already hold: a plan switch pays the
incoming plan's weight-replacement term on top of the compiled latency
(and is counted per chip), a warm re-dispatch pays the compiled latency
unchanged.

Every batch has one completion path: it is recorded in flight at dispatch
and finalised at its chip-free event, so a chip that dies first kills the
batch instead (its riders retry or are lost).  A chip whose batch completes
at the current instant takes a new batch only after its own chip-free
event.  With faults injected or any
:class:`~repro.serve.faults.FaultTolerance` knob active, requests lost to
failures/timeouts re-enter as retries.  Nothing consumes randomness at
simulation time — chaos fault schedules are pre-drawn from their own
seed — so a fixed-seed scenario, faulty or not, replays to a bit-identical
``ServingReport.determinism_dict``.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import threading
from collections import deque
from dataclasses import dataclass, field, fields, replace
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.serve.control import COLD_PLAN, ControlConfig, Controller, place_plans
from repro.serve.faults import (
    ACTION_DRAM,
    ACTION_FAIL,
    ACTION_RECOVER,
    ACTION_STRAGGLE,
    FaultEvent,
    FaultTolerance,
    faults_enabled,
    materialize,
    parse_inject,
    validate_fault_targets,
)
from repro.serve.fleet import (
    ChipWorker,
    Fleet,
    is_plan_switch,
    plan_for,
    service_latency_ns,
    switch_cost_enabled,
)
from repro.serve.plans import CompiledPlan, PlanCache, PriceTable
from repro.serve.scheduler import (
    DynamicBatcher,
    SchedulingPolicy,
    make_policy,
    pricing_classes,
)
from repro.serve.telemetry import (
    CONTROL_COUNTERS,
    FLUSH_EVERY_BOUNDARIES,
    TelemetryConfig,
    TelemetrySession,
    telemetry_enabled,
)
from repro.serve.traffic import ClosedLoopTraffic, Request, retry_request
from repro.sim.metrics import nearest_rank_percentile

#: the controller's cumulative actuator counters, read in one call
_control_values = operator.attrgetter(*CONTROL_COUNTERS)

#: deterministic event ordering at one instant: completions free chips
#: first, then faults strike, then arrivals/retries queue, then timeouts
#: abandon, then batch deadlines force dispatches, then the control plane
#: ticks (so a tick always observes the settled state of its instant).
#: Telemetry boundary samples need no heap events at all — they are taken
#: lazily when the loop pops the first event *past* a window boundary,
#: reading exactly the state a dedicated tick at that boundary would see.
_EVENT_FREE, _EVENT_FAULT, _EVENT_ARRIVAL, _EVENT_TIMEOUT, _EVENT_DEADLINE = (
    0, 1, 2, 3, 4,
)
_EVENT_CONTROL = 5

#: smoothing factor of the per-model interarrival EMA
_EMA_ALPHA = 0.2


@dataclass(slots=True)
class _Inflight:
    """One dispatched batch that has not completed yet.

    Finalised at its chip-free event, or killed first by a chip failure:
    the record carries everything either handler needs.
    """

    epoch: int
    start_ns: float
    completion_ns: float
    service_ns: float
    plan: CompiledPlan
    batch: int
    served: int
    requests: List[Request]
    model: str
    #: nominal healthy-chip service time — compiled latency at nominal DRAM
    #: plus any switch weight-replacement — the controller's service-ratio
    #: baseline (0 when no controller runs)
    nominal_ns: float = 0.0
    #: speculative hedge duplicate: its lone rider is also queued or
    #: in flight elsewhere, and only the first copy to complete is counted
    hedge: bool = False


#: the percentiles the report prints
_REPORT_QS = (50.0, 95.0, 99.0)


class _SortedSamples:
    """Exact samples read like the percentile sketch (count, mean,
    quantiles, max), so the report renders either kind through one code
    path."""

    def __init__(self, values: List[float]) -> None:
        values.sort()
        self.values = values
        self.count = len(values)
        self.max = values[-1] if values else 0.0

    def mean(self) -> float:
        return sum(self.values) / self.count if self.count else 0.0

    def quantiles(self, qs: Sequence[float]) -> List[float]:
        return [nearest_rank_percentile(self.values, q) for q in qs]


class CommandQueue:
    """Thread-safe FIFO of mid-run commands for a live simulation.

    The observatory's control endpoints ``put`` command dictionaries from
    the service thread; the simulator ``drain``s the queue at its next
    event pop, so a command lands at a well-defined point in the
    deterministic event order (whatever instant the simulation had
    reached).  The *arrival point* of a command depends on wall-clock
    timing, so a commanded run is reproducible only given the same
    command schedule — the report's ``commands`` block records exactly
    when each one landed.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._items: List[Dict[str, object]] = []

    def put(self, command: Dict[str, object]) -> None:
        """Enqueue one command dict (see ``ServingSimulator.run``)."""
        with self._lock:
            self._items.append(dict(command))

    def drain(self) -> List[Dict[str, object]]:
        """Pop every queued command in FIFO order (empty list if none)."""
        if not self._items:  # racy peek: a late command drains next pop
            return []
        with self._lock:
            items = self._items
            self._items = []
        return items


@dataclass(frozen=True)
class _Slot:
    """Where :meth:`ServingReport.as_dict` writes one field."""

    #: the nested block holding the field (``None``: the top level)
    block: Optional[str] = None
    #: the boolean field that turns ``block`` on; the gate is not written
    gate: Optional[str] = None
    #: left out when empty
    optional: bool = False
    #: in ``determinism_dict`` (``False``: may differ between runs of a seed)
    core: bool = True
    #: a mapping written sorted by key, each key as a string
    sort_keys: bool = False


def _slot(slot: _Slot, **default: object) -> object:
    """A :class:`ServingReport` field laid out by ``slot``."""
    return field(metadata={"slot": slot}, **default)


_TOP = _Slot()
_SORTED = _Slot(sort_keys=True)
_SWITCH = _Slot("switch", "switch_cost")
_FAULTS = _Slot("faults", "fault_tolerance")
_OPTIONAL = _Slot(optional=True)
#: optional and outside the determinism core
_VOLATILE = _Slot(optional=True, core=False)


@dataclass
class ServingReport:
    """Outcome of one serving run (all quantities deterministic per seed).

    Two histograms describe the batching mix: ``batch_histogram`` counts
    the *nominal* compiled batch size of every dispatch (the plan that
    occupied the chip — padded slots included, which is what latency and
    energy are charged for), while ``served_histogram`` counts the
    requests each dispatch actually served.  They differ exactly on padded
    batches, and ``mean_batch`` is served requests per dispatch
    (``completed / batches``) — consistent with ``served_histogram``.

    Fault-aware runs (``fault_tolerance``) additionally account every
    request's fate — ``completed + shed + timeouts + lost`` covers the
    offered stream unless the run ended with requests still queued — plus
    lost work, retry counts and fleet availability (chip-uptime fraction
    over the makespan).

    Each field's :class:`_Slot` says where :meth:`as_dict` writes it, so a
    run with every feature off serializes with no optional block.
    """

    fleet: str
    policy: str
    traffic: Dict[str, object]
    models: Tuple[str, ...]
    optimizer: str
    mode: str
    batch_sizes: Tuple[int, ...]
    max_wait_us: float
    num_requests: int
    completed: int
    makespan_ms: float
    throughput_rps: float
    offered_rps: float
    latency_ms: Dict[str, float]
    wait_ms: Dict[str, float]
    queue_depth: Dict[str, float]
    batches: int
    mean_batch: float
    batch_histogram: Dict[int, int] = _slot(_SORTED)
    served_histogram: Dict[int, int] = _slot(_SORTED)
    padded_batches: int
    per_chip: List[Dict[str, object]]
    total_energy_mj: float
    energy_per_request_mj: float
    #: whether plan-switch weight-replacement cost was modelled
    switch_cost: bool = _slot(_SWITCH, default=False)
    #: total plan switches across the fleet
    plan_switches: int = _slot(_SWITCH, default=0)
    #: total weight-replacement time charged to switches (ms)
    switch_ms: float = _slot(_SWITCH, default=0.0)
    #: per-model SLO blocks (only for models given a target): target,
    #: p50/p95/p99 latency and the attained fraction
    slo: Dict[str, Dict[str, float]] = _slot(
        _Slot(optional=True, sort_keys=True), default_factory=dict)
    #: whether faults were injected or fault-tolerance machinery was active
    fault_tolerance: bool = _slot(_FAULTS, default=False)
    #: chip failures applied
    failures: int = _slot(_FAULTS, default=0)
    #: retry attempts injected (after chip failures and timeouts)
    retries: int = _slot(_FAULTS, default=0)
    #: requests abandoned by timeout with no attempts left
    timeouts: int = _slot(_FAULTS, default=0)
    #: arrivals rejected by admission control
    shed: int = _slot(_FAULTS, default=0)
    #: requests lost to chip failures with no attempts left
    lost: int = _slot(_FAULTS, default=0)
    #: chip time wasted on batches killed mid-flight (ms)
    lost_work_ms: float = _slot(_FAULTS, default=0.0)
    #: dispatches that bypassed batching because a model was behind SLO
    degraded_dispatches: int = _slot(_FAULTS, default=0)
    #: chip-uptime fraction over the makespan (1.0 = no downtime)
    availability: float = _slot(_FAULTS, default=1.0)
    #: control-plane block (detections vs injected truth, hedge outcomes,
    #: scale events, re-placements) — empty when no controller ran
    control: Dict[str, object] = _slot(_OPTIONAL, default_factory=dict)
    #: mid-run commands applied (or rejected) by a live observatory run,
    #: in application order with the simulation instant each one landed
    #: at; their arrival instants depend on wall-clock timing
    commands: List[Dict[str, object]] = _slot(_VOLATILE,
                                              default_factory=list)
    #: per-window metrics timeline rows (empty unless a timeline interval
    #: was configured)
    timeline: List[Dict[str, object]] = _slot(_OPTIONAL,
                                              default_factory=list)
    #: telemetry hub snapshot (counters/gauges/histograms + config echo);
    #: its gauges embed the plan-cache counters
    telemetry: Dict[str, object] = _slot(_VOLATILE, default_factory=dict)
    #: plan-cache counters after the run, warm-up included; they differ
    #: between cold- and warm-cache runs of one seed.  A run prices every
    #: dispatch from its :class:`~repro.serve.plans.PriceTable`, which
    #: consults the cache only on a table miss (once per distinct plan),
    #: so a run adds those consultations to hits and misses, not one
    #: lookup per dispatch
    plan_cache: Dict[str, float] = _slot(_Slot(core=False),
                                         default_factory=dict)

    # ------------------------------------------------------------------
    def determinism_dict(self) -> Dict[str, object]:
        """:meth:`as_dict` minus the fields outside the determinism core:
        what the fixed-seed replay tests compare."""
        return self._walk(core_only=True)

    def as_dict(self) -> Dict[str, object]:
        """Flat JSON-compatible dictionary (for serialization)."""
        return self._walk(core_only=False)

    def _walk(self, core_only: bool) -> Dict[str, object]:
        data: Dict[str, object] = {}
        for f in fields(self):
            name, slot = f.name, f.metadata.get("slot", _TOP)
            value = getattr(self, name)
            if (name == slot.gate or (core_only and not slot.core)
                    or (slot.gate and not getattr(self, slot.gate))
                    or (slot.optional and not value)):
                continue
            if slot.sort_keys:
                value = {str(key): _plain(item)
                         for key, item in sorted(value.items())}
            else:
                value = _plain(value)
            (data.setdefault(slot.block, {}) if slot.block else data)[name] = value
        return data

    def summary_row(self) -> Dict[str, object]:
        """One flat headline row (for tables and benchmarks)."""
        return {
            "fleet": self.fleet,
            "policy": self.policy,
            "traffic": str(self.traffic.get("traffic", "")),
            "requests": self.completed,
            "throughput_rps": self.throughput_rps,
            "p50_ms": self.latency_ms.get("p50", 0.0),
            "p95_ms": self.latency_ms.get("p95", 0.0),
            "p99_ms": self.latency_ms.get("p99", 0.0),
            "mean_batch": self.mean_batch,
            "plan_switches": self.plan_switches,
            "utilisation": (
                sum(float(row["utilisation"]) for row in self.per_chip) / len(self.per_chip)
                if self.per_chip else 0.0
            ),
            "energy_per_request_mj": self.energy_per_request_mj,
        }


def _plain(value: object) -> object:
    """A JSON-ready copy: a tuple becomes a list, dicts and dict rows are
    copied."""
    if isinstance(value, dict):
        return dict(value)
    if isinstance(value, (list, tuple)):
        return [dict(item) if isinstance(item, dict) else item for item in value]
    return value


class ServingSimulator:
    """Replays a request stream against a fleet of chips.

    ``switch_cost`` toggles plan-switch weight-replacement modelling
    (``None`` follows the ``REPRO_SERVE_SWITCH_COST`` environment default,
    which is on).  ``slos`` maps model names to latency targets in
    milliseconds; models with a target get a per-model percentile and
    attainment block in the report.

    ``faults`` is a sequence of :class:`~repro.serve.faults.FaultEvent`
    records to inject (materialised at construction, so an out-of-range
    chip index fails fast; dropped wholesale when ``REPRO_SERVE_FAULTS=0``),
    and ``fault_tolerance`` configures the survival machinery — timeouts,
    capped retries with deterministic backoff, admission control and
    SLO-driven degradation.  ``control`` configures the self-healing
    control plane (:class:`~repro.serve.control.ControlConfig`):
    quarantine-based failure detection, hedged requests, SLO-driven
    autoscaling and plan re-placement, all driven from a fixed control
    tick.

    ``telemetry`` configures the passive observability layer
    (:class:`~repro.serve.telemetry.TelemetryConfig`): a per-window
    metrics timeline, streaming percentile sketches and every-K-th
    request lifecycle tracing.  Telemetry is a **pure observer** — it
    reads simulation state and consumes no randomness, so a telemetry-on
    run replays the telemetry-off event order exactly (telemetry is
    dropped wholesale when ``REPRO_SERVE_TELEMETRY=0``).  The last run's
    :class:`~repro.serve.telemetry.TelemetrySession` is kept on
    ``telemetry_session`` so callers can export the Chrome trace.
    """

    def __init__(
        self,
        fleet: Fleet,
        plan_cache: PlanCache,
        policy: Union[str, SchedulingPolicy] = "latency",
        batcher: Optional[DynamicBatcher] = None,
        batch_sizes: Sequence[int] = (1, 2, 4, 8, 16),
        max_wait_us: float = 0.0,
        switch_cost: Optional[bool] = None,
        slos: Optional[Dict[str, float]] = None,
        faults: Optional[Sequence[FaultEvent]] = None,
        fault_tolerance: Optional[FaultTolerance] = None,
        control: Optional[ControlConfig] = None,
        telemetry: Optional[TelemetryConfig] = None,
    ) -> None:
        self.fleet = fleet
        self.plan_cache = plan_cache
        self.policy = make_policy(policy) if isinstance(policy, str) else policy
        self.batcher = (
            batcher if batcher is not None
            else DynamicBatcher(batch_sizes=batch_sizes, max_wait_us=max_wait_us)
        )
        self.switch_cost = (
            switch_cost_enabled() if switch_cost is None else bool(switch_cost)
        )
        self.slos: Dict[str, float] = dict(slos or {})
        for model, target_ms in self.slos.items():
            if not target_ms > 0:
                raise ValueError(
                    f"SLO target must be positive, got {model}={target_ms}"
                )
        self.fault_tolerance = (
            fault_tolerance if fault_tolerance is not None else FaultTolerance()
        )
        self.control = control if control is not None else ControlConfig()
        self.telemetry = (
            telemetry if telemetry is not None and telemetry_enabled()
            else TelemetryConfig()
        )
        #: the last run's telemetry session (trace export reads it)
        self.telemetry_session: Optional[TelemetrySession] = None
        #: live-stream sink ``sink(kind, payload)`` — the observatory
        #: attaches one before ``run`` so completed timeline windows,
        #: fault events and command receipts stream out mid-run.  ``None``
        #: (the default) keeps the pure batch path: telemetry renders the
        #: whole timeline once at the end of the run.
        self.stream_sink = None
        #: fleet size at construction — chips the autoscaler appended are
        #: dropped at the start of every run, so a simulator re-runs cleanly
        self._base_workers = len(fleet.workers)
        self.fault_events: Tuple[FaultEvent, ...] = tuple(faults or ())
        self._fault_schedule: List[Tuple[float, str, int, float]] = (
            materialize(self.fault_events, len(fleet.workers))
            if self.fault_events and faults_enabled() else []
        )

    # ------------------------------------------------------------------
    def run(
        self,
        requests: Union[Sequence[Request], ClosedLoopTraffic],
        traffic_info: Optional[Dict[str, object]] = None,
        commands: Optional[CommandQueue] = None,
    ) -> ServingReport:
        """Simulate serving the request stream; returns the full report.

        ``requests`` is either a pregenerated list (open-loop traffic,
        trace replay) or a :class:`~repro.serve.traffic.ClosedLoopTraffic`
        generator, whose clients issue each follow-up request only when
        the previous one completes — those arrivals are injected into the
        event heap mid-run.

        ``commands`` is an optional :class:`CommandQueue` another thread
        feeds while the run is live (the observatory's control
        endpoints).  Supported ops: ``inject_fault`` (``spec`` in
        ``parse_inject`` syntax, scheduled relative to the drain
        instant), ``set_policy`` (``policy`` name), and
        ``autoscale_bounds`` (``min_chips``/``max_chips``, requires an
        active control plane).  Commands drain at event pops, so each
        lands at a well-defined simulation instant recorded in the
        report's ``commands`` block; configuration mutations apply to
        this run only, so the simulator instance stays reusable.
        """
        state = _RunState(self, requests, traffic_info, commands)
        state.loop()
        return state.report()


class _RunState:
    """The mutable state of one :meth:`ServingSimulator.run`.

    :meth:`loop` pops events in ``(time, kind, tie, seq)`` order, hands
    each to the handler of its kind (``on_free``, ``on_fault``,
    ``on_arrival``, ``on_timeout``, ``on_deadline``, ``on_control``) and
    then dispatches greedily.  Every batch, dispatched or hedged, starts in
    :meth:`start_batch` and completes in :meth:`finalize`.  Mid-run
    commands swap this run's ``policy``/``control``, never the
    simulator's.
    """

    def __init__(
        self,
        sim: ServingSimulator,
        requests: Union[Sequence[Request], ClosedLoopTraffic],
        traffic_info: Optional[Dict[str, object]],
        commands: Optional[CommandQueue],
    ) -> None:
        session = None
        if isinstance(requests, ClosedLoopTraffic):
            if traffic_info is None:
                traffic_info = requests.describe()
            session = requests.session()
            initial = session.initial()
            expected = session.num_requests
            remaining: Dict[str, int] = session.model_counts()
        else:
            initial = sorted(requests, key=lambda r: (r.arrival_ns, r.request_id))
            expected = len(initial)
            remaining = {}
            for request in initial:
                remaining[request.model] = remaining.get(request.model, 0) + 1
        if not initial:
            raise ValueError("cannot simulate an empty request stream")
        fleet = sim.fleet
        del fleet.workers[sim._base_workers:]  # drop autoscaled chips
        fleet.reset()
        sim.policy.reset()
        self.sim = sim
        self.fleet = fleet
        self.workers = fleet.workers
        self.plan_cache = sim.plan_cache
        #: every plan this run prices, looked up in the cache once each
        self.prices = PriceTable(sim.plan_cache)
        self.batcher = sim.batcher
        self.smallest_batch = sim.batcher.batch_sizes[0]
        self.switch_cost = sim.switch_cost
        self.slos = sim.slos
        self.ft = sim.fault_tolerance
        self.shedding = self.ft.shed_queue_depth > 0 or self.ft.shed_wait_us > 0
        self.policy = sim.policy
        self.control = sim.control
        self.commands = commands
        self.session = session
        self.traffic_info = traffic_info
        self.expected = expected
        self.remaining = remaining
        ctrl = Controller(sim.control) if sim.control.active else None
        self.ctrl = ctrl
        #: the report's ``fault_tolerance``: runs with faults scheduled or
        #: any fault-tolerance/control knob set report per-chip fault
        #: columns, and only they accept injected faults
        self.use_ft = bool(sim._fault_schedule) or self.ft.active or ctrl is not None
        #: the passive telemetry session (None when every knob is off, so
        #: the hot path pays a single `is not None` check per hook site)
        tele = (
            TelemetrySession(sim.telemetry, slo_models=sorted(sim.slos),
                             counters=self.event_counters)
            if sim.telemetry.active else None
        )
        sim.telemetry_session = tele
        if tele is not None and sim.stream_sink is not None:
            tele.sink = sim.stream_sink
        self.tele = tele
        #: the dispatch hook only records traced service spans, so an
        #: untraced run skips the call
        self.tele_dispatch = (tele.dispatch if tele is not None
                              and tele.tracer is not None else None)
        #: under --streaming-percentiles the report reads the telemetry
        #: hub's sketches and no latency/wait samples are stored
        self.streaming = tele is not None and tele.config.streaming_percentiles
        self.applied_commands: List[Dict[str, object]] = []

        # --- event heap: (time, kind, tie, seq, payload) ----------------
        # tie is the chip index for chip-bound events (free/fault), so
        # same-instant chip events resolve by chip id, never by heap
        # insertion order; seq keeps arrival/deadline FIFO within a tie
        self.seq = itertools.count()
        self.events: List[Tuple[float, int, int, int, object]] = [
            (request.arrival_ns, _EVENT_ARRIVAL, 0, next(self.seq), request)
            for request in initial
        ]
        heapq.heapify(self.events)
        first_arrival = min(r.arrival_ns for r in initial)
        self.first_arrival = first_arrival
        for at_us, action, chip, factor in sim._fault_schedule:
            self.push(first_arrival + at_us * 1e3, _EVENT_FAULT, chip,
                      (action, chip, factor))
        self.interval_ns = self.control.interval_us * 1e3
        if ctrl is not None:
            self.push(first_arrival + self.interval_ns, _EVENT_CONTROL, 0, None)
        #: index of the *next* timeline boundary — boundary k closes window
        #: k - 1 at first_arrival + k * interval (multiplied out, never
        #: accumulated, so boundary times carry no float drift).  Boundaries
        #: are sampled lazily at event pops, never queued as heap events —
        #: ``inf`` keeps the per-pop check to one always-false comparison
        #: when the timeline is off.
        self.tele_k = 1
        self.tele_next_ns = math.inf
        self.tele_flush_k = 0
        self.tele_sample = self.tele_flush = None
        self.tele_interval_ns = sim.telemetry.timeline_interval_us * 1e3
        if tele is not None:
            tele.start(first_arrival)
            if self.tele_interval_ns > 0 and tele.timeline is not None:
                self.tele_next_ns = first_arrival + self.tele_interval_ns
                # the sampler feeds the accumulator directly; a live
                # observatory also gets each window streamed once final,
                # and a streaming-percentile run renders final windows as
                # it goes so its timeline notes stay bounded
                self.tele_sample = tele.timeline.sample
                if tele.sink is not None or self.streaming:
                    self.tele_flush = tele.flush_stream

        self.queues: Dict[str, Deque[Request]] = {}
        self.ema: Dict[str, float] = {}
        self.last_arrival: Dict[str, float] = {}
        self.pending_deadline: Dict[str, float] = {}
        self.forced: Dict[str, bool] = {}

        self.latencies: List[float] = []
        self.waits: List[float] = []
        #: per-model latencies, tracked only for models with an SLO target
        #: (the SLO blocks are the sole consumer)
        self.by_model: Dict[str, List[float]] = {}
        self.batch_histogram: Dict[int, int] = {}
        self.served_histogram: Dict[int, int] = {}
        self.padded_batches = 0
        self.batches = 0
        self.last_completion = 0.0
        self.last_arrival_ns = first_arrival

        #: chip index -> the batch it is executing, finalised at the
        #: batch's chip-free event (or killed by a chip failure)
        self.inflight: Dict[int, _Inflight] = {}
        #: (request id, attempt) of every queued request
        self.queued_keys: Set[Tuple[int, int]] = set()
        #: first-arrival time of every retried request id (end-to-end
        #: latency baseline across retries)
        self.origins: Dict[int, float] = {}
        #: running [attained, completed] per SLO model (degradation trigger)
        self.slo_running: Dict[str, List[int]] = {}
        #: event counts — the report's fate fields, and what the
        #: telemetry hub reads through :meth:`event_counters`
        self.failures = self.retries = self.timeouts = 0
        self.shed = self.lost = self.degraded = 0
        self.dispatches = self.recoveries = 0

        # hedging state (all of it empty unless the controller hedges):
        # request id -> chip its hedge copy is flying on; ids with a live
        # hedge; ids whose first copy completed (the late copy goes
        # uncounted); ids whose original died while the hedge flew
        self.hedge_outstanding: Dict[int, int] = {}
        self.hedged: Set[int] = set()
        self.winners: Set[int] = set()
        self.orphaned: Set[int] = set()

        # time-weighted queue depth accounting
        self.depth = 0
        self.depth_last_t = first_arrival
        self.depth_integral = 0.0
        self.depth_max = 0

        #: the dispatch view (see :meth:`chips_changed`): the candidate
        #: chips the policy chooses among, None until next needed, and the
        #: policy's (worker, plan, service_ns) route per (model, batch)
        self.view: Optional[List[ChipWorker]] = None
        self.routes: Dict[Tuple[str, int],
                          Tuple[ChipWorker, CompiledPlan, float]] = {}

        self.ctl_snapshot_key: Optional[Tuple[int, ...]] = None
        self.ctl_snapshot: Dict[str, object] = {}
        if tele is not None:
            # existing stat surfaces register as lazy gauge sources — the
            # hub re-reads them at every snapshot instead of copying state
            tele.hub.register_source("plan_cache",
                                     self.plan_cache.stats.as_dict)
            tele.hub.register_source("fleet", self.fleet.gauges)
            if self.use_ft:
                tele.hub.register_source("faults", self.fault_gauges)
            if ctrl is not None:
                tele.hub.register_source("control", self.control_counters)

    # --- small helpers ------------------------------------------------
    def push(self, time_ns: float, kind: int, tie: int, payload: object) -> None:
        heapq.heappush(self.events, (time_ns, kind, tie, next(self.seq), payload))

    def change_depth(self, now: float, delta: int) -> None:
        self.depth_integral += self.depth * (now - self.depth_last_t)
        self.depth_last_t = now
        self.depth += delta
        if self.depth > self.depth_max:
            self.depth_max = self.depth

    def idle_chips(self, now: float) -> List[ChipWorker]:
        """Chips that can take a batch at ``now``.

        :meth:`~repro.serve.fleet.ChipWorker.idle_at`, inlined on this hot
        path, plus two rules: a chip whose batch completes at ``now`` is
        idle only once its own chip-free event has finalised that batch,
        and a chip the controller quarantined or retired is never idle.
        """
        inflight = self.inflight
        ctrl = self.ctrl
        blocked, retired = ((ctrl.blocked, ctrl.retired) if ctrl is not None
                            else ((), ()))
        return [w for w in self.workers
                if w.busy_until_ns <= now and w.up and w.index not in inflight
                and w.index not in blocked and w.index not in retired]

    # --- dispatch view --------------------------------------------------
    def chips_changed(self) -> None:
        """Drop the dispatch view: a chip's dispatch state has changed.

        Called wherever what :meth:`idle_chips`, ``pricing_classes`` or the
        policy's ``choose_worker`` read may change: a batch starts, a chip
        frees (also a pre-warm's free with nothing in flight), a fault
        fires, the controller quarantines, re-admits, adds or retires a
        chip or re-pins plans, and a command swaps the policy.

        Between two calls the view is exact at any later ``now``.  A chip
        turns idle only at an event: every ``busy_until_ns`` assignment
        either queues a chip-free event at that time (kind 0, so it pops
        first at its instant and calls this) or sets it to the current
        ``now``.  So the idle set, and with it the pricing classes, cannot
        depend on ``now`` between calls.  No policy reads
        ``choose_worker``'s ``now_ns``, so neither can a route.
        """
        self.view = None
        self.routes.clear()

    def candidates(self, now: float) -> List[ChipWorker]:
        """The idle chips the policy chooses among at ``now``.

        A price-ranking policy sees one chip per pricing class
        (:func:`~repro.serve.scheduler.pricing_classes`), which picks the
        same chip as ranking every idle chip; other policies see them all.
        Cached until :meth:`chips_changed`.
        """
        view = self.view
        if view is None:
            idle = self.idle_chips(now)
            view = self.view = (pricing_classes(idle)
                                if self.policy.ranks_by_price else idle)
        return view

    def event_counters(self) -> Dict[str, int]:
        """The run's event counts by name, read at each hub snapshot.

        Arrivals, completions and hedge copies are derived from state the
        run keeps anyway; the rest are this run's own counters.
        """
        return {
            "arrivals": self.expected - sum(self.remaining.values()),
            "completions": (self.tele.latency_hist.count if self.streaming
                            else len(self.latencies)),
            "dispatches": self.dispatches,
            "hedge_dispatches": (self.ctrl.hedges if self.ctrl is not None
                                 else 0),
            "shed": self.shed,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "lost": self.lost,
            "failures": self.failures,
            "recoveries": self.recoveries,
        }

    def fault_gauges(self) -> Dict[str, object]:
        return {name: getattr(self, name)
                for name in ("failures", "retries", "timeouts", "shed", "lost")}

    def control_counters(self) -> Dict[str, object]:
        """Cumulative control actuator counters (timeline deltas these).

        Ticks where no counter moved get the *same dict object* back —
        the timeline's delta pass short-circuits on identity, and
        control actions are rare relative to tick frequency.
        """
        current = _control_values(self.ctrl)
        if current != self.ctl_snapshot_key:
            self.ctl_snapshot_key = current
            self.ctl_snapshot = dict(zip(CONTROL_COUNTERS, current))
        return self.ctl_snapshot

    def busy_fraction(self, at_ns: float) -> float:
        """Fraction of the up chips still busy past ``at_ns``."""
        up = busy = 0
        for w in self.workers:
            if w.up:
                up += 1
                if w.busy_until_ns > at_ns:
                    busy += 1
        return busy / up if up else 0.0

    # --- event loop -----------------------------------------------------
    def loop(self) -> None:
        events = self.events
        commands = self.commands
        handlers = (self.on_free, self.on_fault, self.on_arrival,
                    self.on_timeout, self.on_deadline, self.on_control)
        try_dispatch = self.try_dispatch
        heappop = heapq.heappop
        tele_next_ns = self.tele_next_ns
        while events:
            now, kind, _, _, payload = heappop(events)
            if now > tele_next_ns:
                tele_next_ns = self.sample_boundaries(now)
            if commands is not None:
                for command in commands.drain():
                    self.apply_command(command, now)
            handlers[kind](now, payload)
            try_dispatch(now)

    def sample_boundaries(self, now: float) -> float:
        """Sample every timeline boundary strictly before ``now``.

        State only changes when events process, and worker busy-until
        horizons are themselves future event times, so each boundary reads
        exactly the queue depth / utilisation / control counters a
        dedicated boundary tick would have seen — without the heap
        traffic.  Boundaries at exactly ``now`` wait: same-instant events
        settle first.  Returns the next boundary time.
        """
        ctl_snap = self.control_counters() if self.ctrl is not None else None
        sample = self.tele_sample
        k = self.tele_k
        next_ns = self.tele_next_ns
        while next_ns < now:
            sample(k - 1, self.depth, self.busy_fraction(next_ns), ctl_snap)
            k += 1
            next_ns = self.first_arrival + k * self.tele_interval_ns
        self.tele_k = k
        self.tele_next_ns = next_ns
        if self.tele_flush is not None:
            # every K-th boundary batch, stream the windows now provably
            # final against the current lower bound on the run end (the
            # counter lives here so skipped boundaries cost one compare)
            self.tele_flush_k += 1
            if self.tele_flush_k >= FLUSH_EVERY_BOUNDARIES:
                self.tele_flush_k = 0
                self.tele_flush(max(self.last_completion, self.last_arrival_ns))
        return next_ns

    # --- event handlers -------------------------------------------------
    def on_free(self, now: float, index: int) -> None:
        self.chips_changed()
        record = self.inflight.get(index)
        if record is None:
            return  # a plan pre-warm finished: nothing to finalise
        worker = self.workers[index]
        if record.completion_ns == now and record.epoch == worker.epoch:
            self.finalize(worker, record, now)
        # otherwise the event is stale: the chip died (and maybe
        # recovered) since this batch was dispatched

    def on_fault(self, now: float, payload: Tuple[str, int, float]) -> None:
        action, chip, factor = payload
        worker = self.workers[chip]
        tele = self.tele
        self.chips_changed()
        if action == ACTION_FAIL:
            if not worker.up:
                return
            worker.up = False
            worker.epoch += 1
            worker.failures += 1
            worker.down_since_ns = now
            self.failures += 1
            if tele is not None:
                tele.fault(now, "fail", chip)
            record = self.inflight.pop(chip, None)
            if record is None:
                return
            # the in-flight batch dies with the chip: its partial work is
            # wasted and every rider retries (with backoff) or is lost —
            # unless a hedge covers it, or its other copy already won
            worker.lost_batches += 1
            worker.lost_requests += record.served
            worker.lost_ns += now - record.start_ns
            if tele is not None:
                tele.batch_killed(now, record.requests, worker)
            ctrl = self.ctrl
            for request in record.requests:
                rid = request.request_id
                if ctrl is not None:
                    if rid in self.winners:
                        # already counted via the copy that completed first
                        self.winners.discard(rid)
                        self.hedge_outstanding.pop(rid, None)
                        continue
                    if record.hedge:
                        # the hedge died; the original still covers the
                        # request unless it was itself killed earlier
                        self.hedged.discard(rid)
                        self.hedge_outstanding.pop(rid, None)
                        if rid in self.orphaned:
                            self.orphaned.discard(rid)
                            self.retry_or_lose(request, now)
                        continue
                    if rid in self.hedged:
                        # the original died but its hedge is still flying:
                        # the hedge carries the request now
                        self.orphaned.add(rid)
                        continue
                self.retry_or_lose(request, now)
        elif action == ACTION_RECOVER:
            if not worker.up:
                self.recoveries += 1
                if tele is not None:
                    tele.fault(now, "recover", chip)
                worker.up = True
                # recorded as a window, not a running sum: the report
                # clamps every window to the simulation horizon, so a
                # recovery scheduled past the last event can never yield
                # downtime > wall time
                worker.outages.append((worker.down_since_ns, now))
                worker.down_since_ns = None
                worker.busy_until_ns = now
        elif action == ACTION_STRAGGLE:
            # in-flight batches keep their completion time; the new factor
            # prices every dispatch from here on
            worker.latency_factor = factor
        elif action == ACTION_DRAM:
            worker.dram_factor = factor

    def on_arrival(self, now: float, request: Request) -> None:
        model = request.model
        tele = self.tele
        if tele is not None:
            tele.arrival(now, request)
        if request.attempt == 0:
            last_arrival = self.last_arrival
            previous = last_arrival.get(model)
            if previous is not None:
                gap = request.arrival_ns - previous
                # simultaneous arrivals (duplicate trace timestamps, batch
                # completions under closed-loop traffic) carry no rate
                # information: a zero gap would drag the EMA toward 0 and
                # make the batcher hold to the deadline
                if gap > 0:
                    ema = self.ema
                    current = ema.get(model)
                    ema[model] = (
                        gap if current is None
                        else _EMA_ALPHA * gap + (1.0 - _EMA_ALPHA) * current
                    )
            last_arrival[model] = request.arrival_ns
            self.last_arrival_ns = request.arrival_ns  # pops in time order
            self.remaining[model] -= 1
            if self.shedding and self.should_shed(request):
                self.shed += 1
                if tele is not None:
                    tele.shed(now, request)
                self.finish_without_service(request, now)
                return
        # retries skip the rate bookkeeping above — a re-submission is not
        # new offered load — and bypass admission control (the request was
        # already admitted once)
        queue = self.queues.get(model)
        if queue is None:
            queue = self.queues[model] = deque()
        if request.priority > 0:
            # a promoted final-attempt retry queues ahead of plain
            # arrivals, behind earlier promoted ones (stable order)
            position = 0
            while (position < len(queue)
                   and queue[position].priority >= request.priority):
                position += 1
            queue.insert(position, request)
        else:
            queue.append(request)
        self.change_depth(now, +1)
        self.queued_keys.add((request.request_id, request.attempt))
        timeout_us = self.ft.timeout_us
        if timeout_us > 0:
            self.push(now + timeout_us * 1e3, _EVENT_TIMEOUT, 0, request)

    def on_timeout(self, now: float, request: Request) -> None:
        key = (request.request_id, request.attempt)
        if key not in self.queued_keys:
            return  # dispatched (or cancelled) before its budget ran out
        if request.request_id in self.hedge_outstanding:
            # a hedge is already racing for this request: the wait is
            # being mitigated, so the original keeps queueing instead of
            # burning a retry attempt
            return
        self.queued_keys.discard(key)
        self.queues[request.model].remove(request)
        self.change_depth(now, -1)
        tele = self.tele
        if tele is not None:
            tele.queue_exit(now, request, "timeout")
        if not self.try_retry(request, now):
            self.timeouts += 1
            if tele is not None:
                tele.timeout(now, request)
            self.finish_without_service(request, now)

    def on_deadline(self, now: float, model: str) -> None:
        if self.pending_deadline.get(model) == now and self.queues.get(model):
            self.forced[model] = True
            self.pending_deadline.pop(model, None)

    def on_control(self, now: float, payload: None) -> None:
        ctrl = self.ctrl
        workers = self.workers
        ctrl.ticks += 1
        ctrl.update_utilisation(now, workers)
        changed = ctrl.assess(now, workers)
        if changed:
            self.chips_changed()  # a quarantine or a re-admission
        budget_ns = ctrl.hedge_budget_ns()
        if budget_ns is not None:
            self.try_hedge(now, budget_ns)
        decision = ctrl.scale_decision(now, workers, self.depth)
        if decision > 0:
            self.add_chip(now)
            changed = True
        elif decision < 0:
            changed = self.retire_chip(now) or changed
        if changed and self.control.replace_plans:
            self.replace_resident_plans(now)
        self.try_dispatch(now)
        # re-arm the tick only while there is something left to control:
        # external events (the tick's own event is popped, so the whole
        # heap is external) or in-flight work still coming, or a queue that
        # quarantined/scalable capacity could yet serve.  A finished run
        # must not be kept alive by its own control ticks.  The tests run
        # cheapest first; none has side effects.
        if self.events or self.inflight or (self.depth > 0 and (
                any(w.up and w.index in ctrl.blocked for w in workers)
                or (self.control.autoscale and len(workers) - len(ctrl.retired)
                    < self.control.max_chips))):
            self.push(now + self.interval_ns, _EVENT_CONTROL, 0, None)

    # --- request fates --------------------------------------------------
    def finish_without_service(self, request: Request, now: float) -> None:
        """A request leaves the system unserved (shed, lost, timed out).

        Closed-loop clients still get their completion callback — the
        rejected client thinks and moves on to its next request, so one
        fault cannot deadlock the client population.
        """
        if self.session is not None:
            follow_up = self.session.on_complete(request, now)
            if follow_up is not None:
                self.push(follow_up.arrival_ns, _EVENT_ARRIVAL, 0, follow_up)

    def try_retry(self, request: Request, now: float) -> bool:
        """Re-inject a failed request if attempts remain."""
        ft = self.ft
        if request.attempt >= ft.max_retries:
            return False
        self.retries += 1
        self.origins.setdefault(request.request_id, request.arrival_ns)
        if self.tele is not None:
            self.tele.retry(now, request)
        # a retry entering its final attempt may jump the queue
        # (``retry_priority``): losing it again loses it for good
        priority = (
            1 if ft.retry_priority
            and request.attempt + 1 >= ft.max_retries else None
        )
        retry = retry_request(request, now + ft.backoff_ns(request.attempt),
                              priority=priority)
        self.push(retry.arrival_ns, _EVENT_ARRIVAL, 0, retry)
        return True

    def retry_or_lose(self, request: Request, now: float) -> None:
        """A rider of a killed batch retries, or counts as lost."""
        if not self.try_retry(request, now):
            self.lost += 1
            if self.tele is not None:
                self.tele.lost(now, request)
            self.finish_without_service(request, now)

    def should_shed(self, request: Request) -> bool:
        """Admission-control decision for a first-attempt arrival."""
        ft = self.ft
        if ft.shed_queue_depth > 0 and self.depth >= ft.shed_queue_depth:
            return True
        if ft.shed_wait_us > 0:
            up_chips = [w for w in self.workers if w.up]
            if not up_chips:
                return True
            # crude but deterministic wait estimate: the backlog spread
            # over the live chips, each request costing the fastest
            # single-request service this model has on any live class
            fastest = min(
                self.prices.plan(request.model, chip_name,
                                 self.smallest_batch).latency_ns
                for chip_name in dict.fromkeys(w.chip_name for w in up_chips)
            )
            estimated_wait = self.depth * fastest / len(up_chips)
            if estimated_wait > ft.shed_wait_us * 1e3:
                return True
        return False

    def behind_slo(self, model: str) -> bool:
        """Whether graceful degradation should kick in for ``model``."""
        degrade_below = self.ft.degrade_below
        running = self.slo_running.get(model)  # only SLO models have one
        return (degrade_below > 0 and running is not None
                and running[0] / running[1] < degrade_below)

    # --- batches --------------------------------------------------------
    def try_dispatch(self, now: float) -> None:
        """Dispatch greedily while an idle chip and a ready queue exist.

        Returns first thing when nothing is queued or the held dispatch
        view is empty: by the :meth:`chips_changed` contract an empty view
        stays empty until the next invalidation, so no chip can take a
        batch.  Most calls end here (every event calls this, and most
        events find every chip busy).
        """
        if not self.depth or self.view == []:
            return
        queues = self.queues
        batcher = self.batcher
        forced = self.forced
        pending_deadline = self.pending_deadline
        queued_keys = self.queued_keys
        policy = self.policy
        ctrl = self.ctrl
        # depth is the total queued count, so an empty system is one compare
        while self.depth:
            if not self.candidates(now):
                return
            progressed = False
            for model in policy.order_queues(queues):
                queue = queues[model]
                # cost each candidate batch size on the chip the policy
                # would actually dispatch it to — on a heterogeneous fleet
                # the next larger batch may route to a different chip class,
                # and with switch cost on a cold chip's switch charge counts
                def cost_of(b: int) -> float:
                    return self.route(model, b, now)[2]

                if forced.get(model):
                    batch = batcher.dispatch_size(len(queue))
                elif self.behind_slo(model):
                    # graceful degradation: the model is missing its SLO —
                    # skip the batching hold and take the latency-optimal
                    # dispatch for the queue we have
                    fitting = ([b for b in batcher.batch_sizes
                                if b <= len(queue)] or [self.smallest_batch])
                    batch = min(fitting, key=lambda b: (cost_of(b), b))
                    self.degraded += 1
                else:
                    batch, deadline = batcher.choose(
                        queue_len=len(queue),
                        now_ns=now,
                        oldest_arrival_ns=queue[0].arrival_ns,
                        ema_interarrival_ns=self.ema.get(model, math.inf),
                        latency_of=cost_of,
                        more_arrivals=self.remaining.get(model, 0) > 0,
                    )
                    if batch == 0:
                        if pending_deadline.get(model) != deadline:
                            pending_deadline[model] = deadline
                            self.push(deadline, _EVENT_DEADLINE, 0, model)
                        continue
                worker, plan, service_ns = self.route(model, batch, now)
                served = min(batch, len(queue))
                batch_requests = [queue.popleft() for _ in range(served)]
                forced.pop(model, None)
                pending_deadline.pop(model, None)
                for request in batch_requests:
                    queued_keys.discard((request.request_id, request.attempt))
                completion = self.start_batch(now, worker, model, batch,
                                              batch_requests, plan, service_ns)
                if ctrl is not None:
                    ctrl.note_dispatch(worker.index, model, batch,
                                       completion, worker.epoch)
                policy.note_dispatch(model, served)
                self.change_depth(now, -served)
                progressed = True
                break
            if not progressed:
                return

    def route(self, model: str, batch: int,
              now: float) -> Tuple[ChipWorker, CompiledPlan, float]:
        """The chip the policy picks for ``batch``, its plan and latency.

        Picks among :meth:`candidates` (which must not be empty) and is
        cached with them until :meth:`chips_changed`.
        """
        key = (model, batch)
        routed = self.routes.get(key)
        if routed is None:
            worker = self.policy.choose_worker(
                self.candidates(now), model, batch, self.prices, now,
                self.switch_cost)
            plan = plan_for(self.prices, worker, model, batch)
            routed = self.routes[key] = (
                worker, plan, service_latency_ns(plan, worker,
                                                 self.switch_cost))
        return routed

    def start_batch(self, now: float, worker: ChipWorker, model: str,
                    batch: int, requests: List[Request], plan: CompiledPlan,
                    service_ns: float, hedge: bool = False) -> float:
        """Occupy ``worker`` with one batch; returns its completion time.

        Charges a plan switch, queues the chip-free event and records the
        batch in flight — the one place a batch starts, for dispatches and
        hedge copies alike.
        """
        switched = is_plan_switch(plan, worker, self.switch_cost)
        if switched:
            worker.plan_switches += 1
            worker.switch_ns += plan.weight_replace_ns
        worker.loaded_plan = plan.key
        completion = now + service_ns
        worker.busy_until_ns = completion
        self.chips_changed()
        self.push(completion, _EVENT_FREE, worker.index, worker.index)
        if not hedge:
            self.dispatches += 1
        if self.tele_dispatch is not None:
            self.tele_dispatch(now, requests, worker, model, batch,
                               completion, switched, hedge)
        nominal_ns = 0.0
        if self.ctrl is not None:
            # ratio baseline: the *healthy-chip* price of this dispatch,
            # so stragglers and degraded DRAM both show up as ratio > 1
            nominal_plan = self.prices.plan(model, worker.chip_name, batch)
            nominal_ns = nominal_plan.latency_ns + (
                nominal_plan.weight_replace_ns if switched else 0.0
            )
        self.inflight[worker.index] = _Inflight(
            epoch=worker.epoch, start_ns=now, completion_ns=completion,
            service_ns=service_ns, plan=plan, batch=batch,
            served=len(requests), requests=requests, model=model,
            nominal_ns=nominal_ns, hedge=hedge)
        return completion

    def finalize(self, worker: ChipWorker, record: _Inflight, now: float) -> None:
        """Complete a batch at its chip-free event."""
        del self.inflight[worker.index]
        worker.busy_ns += record.service_ns
        worker.batches_served += 1
        worker.requests_served += record.served
        worker.energy_pj += record.plan.energy_pj
        self.batches += 1
        batch_histogram = self.batch_histogram
        batch_histogram[record.batch] = batch_histogram.get(record.batch, 0) + 1
        served_histogram = self.served_histogram
        served_histogram[record.served] = served_histogram.get(record.served, 0) + 1
        if record.served < record.batch:
            self.padded_batches += 1
        ctrl = self.ctrl
        if ctrl is not None and record.nominal_ns > 0:
            ctrl.note_completion(worker.index,
                                 record.service_ns / record.nominal_ns)
        tele = self.tele
        streaming = self.streaming
        session = self.session
        slos = self.slos
        origins = self.origins
        winners = self.winners
        hedged = self.hedged
        latencies = self.latencies
        waits = self.waits
        start_ns = record.start_ns
        for request in record.requests:
            rid = request.request_id
            if (rid in winners or rid in hedged) and not self.settle_hedge(
                    request, record, worker, now):
                continue
            total = now - origins.get(rid, request.arrival_ns)
            wait_ns = start_ns - request.arrival_ns
            slo_ok: Optional[bool] = None
            if request.model in slos:
                slo_ok = total <= slos[request.model] * 1e6
                running = self.slo_running.setdefault(request.model, [0, 0])
                running[1] += 1
                if slo_ok:
                    running[0] += 1
            if not streaming:
                latencies.append(total)
                waits.append(wait_ns)
                if slo_ok is not None:
                    self.by_model.setdefault(request.model, []).append(total)
            if tele is not None:
                tele.completion(now, request, total, wait_ns, slo_ok, worker)
            if ctrl is not None:
                ctrl.note_request(total, slo_ok)
            if session is not None:
                follow_up = session.on_complete(request, now)
                if follow_up is not None:
                    self.push(follow_up.arrival_ns, _EVENT_ARRIVAL, 0, follow_up)
        self.last_completion = max(self.last_completion, now)

    def settle_hedge(self, request: Request, record: _Inflight,
                     worker: ChipWorker, now: float) -> bool:
        """Resolve a completing rider of a hedge race.

        Returns whether this completion counts: the first copy of a hedged
        request to complete wins, and a later copy is uncounted.
        """
        rid = request.request_id
        ctrl = self.ctrl
        if rid in self.winners:
            # the other copy of this hedged request completed first and
            # was counted; this late copy is not a second completion (and
            # a losing hedge copy is wasted speculative work)
            self.winners.discard(rid)
            self.hedge_outstanding.pop(rid, None)
            if record.hedge:
                ctrl.hedges_wasted += 1
            if self.tele is not None:
                self.tele.end_service(now, request, worker, "uncounted")
            return False
        # first copy of a hedged request to complete wins
        self.hedged.discard(rid)
        if not record.hedge:
            # the original beat its hedge; the hedge finishes (or dies)
            # uncounted
            self.winners.add(rid)
            return True
        ctrl.hedges_won += 1
        key = (rid, request.attempt)
        if rid in self.orphaned:
            # the original died with its chip while the hedge flew;
            # nothing left to cancel
            self.orphaned.discard(rid)
            self.hedge_outstanding.pop(rid, None)
        elif key in self.queued_keys:
            # the original never dispatched: cancel it
            self.queued_keys.discard(key)
            self.queues[record.model].remove(request)
            self.change_depth(now, -1)
            self.hedge_outstanding.pop(rid, None)
            ctrl.hedges_cancelled += 1
            if self.tele is not None:
                self.tele.queue_exit(now, request, "cancelled")
        else:
            # the original is executing: when it completes it goes
            # uncounted
            self.winners.add(rid)
        return True

    # --- control-plane actuators (only called when ctrl is not None) -----
    def try_hedge(self, now: float, budget_ns: float) -> None:
        """Speculatively duplicate requests stuck past the hedge budget.

        Two kinds of victim: a rider *in flight* on a slow batch (the
        classic tail-tolerance hedge — duplicated only when a second chip
        could actually beat the original's completion) and a request still
        *queued* past the budget (possible while the batcher holds its
        queue; its timeout is suppressed while the hedge flies).  Every
        hedge is a single-request batch on an idle chip; whichever copy
        completes first is counted, the loser is cancelled if still queued
        or finishes uncounted.

        Returns at once when no chip is idle: every hedge would then fail
        to launch, and eligibility checks have no side effects.
        """
        if not self.candidates(now):
            return
        inflight = self.inflight
        for index in sorted(inflight):
            record = inflight[index]
            if record.hedge:
                continue
            for request in record.requests:
                if (self.hedge_eligible(request, now, budget_ns)
                        and not self.launch_hedge(now, request, record.model,
                                                  record.completion_ns)):
                    return
        for model in self.policy.order_queues(self.queues):
            for request in list(self.queues[model]):
                if (self.hedge_eligible(request, now, budget_ns)
                        and not self.launch_hedge(now, request, model, None)):
                    return

    def hedge_eligible(self, request: Request, now: float,
                       budget_ns: float) -> bool:
        rid = request.request_id
        waited = now - self.origins.get(rid, request.arrival_ns)
        return (waited > budget_ns and rid not in self.hedged
                and rid not in self.hedge_outstanding
                and rid not in self.winners and rid not in self.orphaned)

    def launch_hedge(self, now: float, request: Request, model: str,
                     beat_ns: Optional[float]) -> bool:
        """Fly one hedge copy; False when no chip is idle."""
        if not self.candidates(now):
            return False
        batch = self.smallest_batch
        worker, plan, service_ns = self.route(model, batch, now)
        if beat_ns is not None and now + service_ns >= beat_ns:
            return True  # the hedge cannot win: not worth chip time
        completion = self.start_batch(now, worker, model, batch, [request],
                                      plan, service_ns, hedge=True)
        # the original stays where it is — no depth change, no policy
        # bookkeeping: a hedge is extra chip work, not extra offered load
        self.hedged.add(request.request_id)
        self.hedge_outstanding[request.request_id] = worker.index
        ctrl = self.ctrl
        health = ctrl.health_for(worker.index)
        health.expected_ns = completion
        health.expected_epoch = worker.epoch
        ctrl.hedges += 1
        return True

    def add_chip(self, now: float) -> None:
        """Autoscale up: append a cold chip.

        Its ``loaded_plan`` is the :data:`~repro.serve.control.COLD_PLAN`
        sentinel, so (with switch cost modelled) the first dispatch is a
        plan switch and pays the incoming plan's weight-replacement — new
        capacity is not free capacity.
        """
        chip_name = (self.control.scale_chip
                     or self.workers[0].chip_name).upper()
        worker = ChipWorker(index=len(self.workers), chip_name=chip_name)
        worker.loaded_plan = COLD_PLAN
        worker.busy_until_ns = now
        self.workers.append(worker)
        self.chips_changed()
        self.ctrl.last_scale_ns = now
        self.ctrl.scale_ups += 1

    def retire_chip(self, now: float) -> bool:
        """Autoscale down: decommission the newest idle healthy chip."""
        candidates = self.idle_chips(now)
        if not candidates:
            return False
        ctrl = self.ctrl
        ctrl.retired.add(candidates[-1].index)
        self.chips_changed()
        ctrl.last_scale_ns = now
        ctrl.scale_downs += 1
        return True

    def replace_resident_plans(self, now: float) -> None:
        """Re-pin resident plans across the idle survivors.

        Runs after any topology change (quarantine, re-admission, scale
        event): a small assignment solve over the span-matrix prices,
        weighted by the observed traffic mix, decides which plan each idle
        available chip should hold; chips whose assignment differs
        pre-warm it, paying the weight-replacement cost up front so the
        next dispatch runs warm.

        Without switch-cost modelling there is no weight-replacement to
        pre-pay and ``loaded_plan`` never affects latency, so the whole
        pass is skipped.
        """
        if not self.switch_cost:
            return
        ctrl = self.ctrl
        weights = ctrl.model_weights()
        chips = self.idle_chips(now)
        if not weights or not chips:
            return
        by_index = {w.index: w for w in chips}
        prices = self.prices
        smallest_batch = self.smallest_batch

        def plan_of(worker: ChipWorker, model: str) -> CompiledPlan:
            batch = ctrl.preferred_batch(model, smallest_batch)
            return plan_for(prices, worker, model, batch)

        def price(index: int, model: str) -> float:
            worker = by_index[index]
            return plan_of(worker, model).latency_ns * worker.latency_factor

        def miss(model: str) -> float:
            return min(price(w.index, model)
                       + plan_of(w, model).weight_replace_ns
                       for w in chips)

        assignment = place_plans([w.index for w in chips],
                                 sorted(weights), weights, price, miss)
        applied = False
        for index in sorted(assignment):
            worker = by_index[index]
            plan = plan_of(worker, assignment[index])
            if worker.loaded_plan == plan.key:
                continue  # already warm: nothing to pay
            # pre-warming is a plan switch paid up front: the chip is busy
            # writing crossbar weights until it completes
            warm_ns = plan.weight_replace_ns * worker.latency_factor
            worker.plan_switches += 1
            worker.switch_ns += plan.weight_replace_ns
            worker.busy_ns += warm_ns
            worker.busy_until_ns = now + warm_ns
            ctrl.replacement_ns += warm_ns
            # a free event with no in-flight record re-triggers dispatch
            # when the warm-up completes
            self.push(now + warm_ns, _EVENT_FREE, worker.index, worker.index)
            worker.loaded_plan = plan.key
            applied = True
        if applied:
            self.chips_changed()
            ctrl.replacements += 1

    def apply_command(self, command: Dict[str, object], now: float) -> None:
        """Apply one observatory command at simulation instant ``now``.

        Every command is recorded (applied or rejected) with the instant it
        landed; rejections never raise — a bad command from a live client
        must not kill the run.
        """
        op = str(command.get("op", ""))
        entry: Dict[str, object] = {"op": op,
                                    "t_ms": (now - self.first_arrival) * 1e-6}
        try:
            if op == "inject_fault":
                if not self.use_ft:
                    raise ValueError(
                        "inject_fault needs a fault-aware run "
                        "(fault_tolerance or control active)")
                spec = str(command["spec"])
                fault_events = [parse_inject(spec)]
                validate_fault_targets(fault_events, len(self.workers))
                schedule = materialize(fault_events, len(self.workers))
                for at_us, action, chip, factor in schedule:
                    self.push(now + at_us * 1e3, _EVENT_FAULT, chip,
                              (action, chip, factor))
                entry["spec"] = spec
                entry["events"] = len(schedule)
            elif op == "set_policy":
                name = str(command["policy"])
                new_policy = make_policy(name)
                new_policy.reset()
                self.policy = new_policy
                self.chips_changed()
                entry["policy"] = name
            elif op == "autoscale_bounds":
                if self.ctrl is None:
                    raise ValueError(
                        "autoscale_bounds needs an active control plane")
                lo = int(command["min_chips"])
                hi = int(command["max_chips"])
                new_config = replace(self.control, autoscale=True,
                                     min_chips=lo, max_chips=hi)
                self.control = new_config
                self.ctrl.config = new_config
                entry["min_chips"] = lo
                entry["max_chips"] = hi
            else:
                raise ValueError(f"unknown command op {op!r}")
            entry["status"] = "applied"
        except (KeyError, TypeError, ValueError) as exc:
            entry["status"] = "rejected"
            entry["error"] = str(exc)
        self.applied_commands.append(entry)
        if self.tele is not None and self.tele.sink is not None:
            self.tele.sink("event", dict(entry, type="command"))

    # --- report -----------------------------------------------------------
    def report(self) -> ServingReport:
        """Close the books and build the report (the simulator's own
        configuration is echoed, not any command-driven swap)."""
        sim = self.sim
        workers = self.workers
        ctrl = self.ctrl
        tele = self.tele
        first_arrival = self.first_arrival
        # the clock starts at the first arrival, not t=0: replayed traces may
        # carry large epoch-style timestamps, and the idle prefix before the
        # first request exists must not dilute throughput/utilisation (the
        # queue-depth integral already starts there)
        end_ns = max(self.last_completion, self.last_arrival_ns)
        makespan_ns = end_ns - first_arrival
        span_s = makespan_ns * 1e-9
        offered_span_s = (self.last_arrival_ns - first_arrival) * 1e-9
        for worker in workers:
            worker.close_downtime(end_ns)
        total_downtime_ns = sum(w.downtime_ns for w in workers)
        availability = (
            max(0.0, min(1.0, 1.0 - total_downtime_ns
                         / (len(workers) * makespan_ns)))
            if makespan_ns > 0 else 1.0
        )
        if self.streaming:
            # the hub's sketches stand in for the exact nearest-rank
            # percentiles (within 2^-8, see :class:`~repro.serve.telemetry.
            # LogLinearHistogram`)
            lat, wait = tele.latency_hist, tele.wait_hist
            by_model = tele.slo_hists
        else:
            lat, wait = _SortedSamples(self.latencies), _SortedSamples(self.waits)
            by_model = {model: _SortedSamples(samples)
                        for model, samples in self.by_model.items()}
        total_energy_pj = sum(w.energy_pj for w in workers)
        completed = lat.count
        per_chip = []
        for worker in workers:
            row: Dict[str, object] = {
                "chip": worker.label,
                "class": worker.chip_name,
                "batches": worker.batches_served,
                "requests": worker.requests_served,
                "busy_ms": worker.busy_ns * 1e-6,
                "utilisation": worker.utilisation(makespan_ns),
                "energy_mj": worker.energy_pj * 1e-9,
            }
            if self.switch_cost:
                row["plan_switches"] = worker.plan_switches
                row["switch_ms"] = worker.switch_ns * 1e-6
            if self.use_ft:
                row["failures"] = worker.failures
                row["downtime_ms"] = worker.downtime_ns * 1e-6
                row["lost_requests"] = worker.lost_requests
            per_chip.append(row)
        slo_blocks: Dict[str, Dict[str, float]] = {}
        for model, target_ms in sorted(self.slos.items()):
            attained, count = self.slo_running.get(model, (0, 0))
            p50, p95, p99 = (by_model.get(model) or _SortedSamples([])
                             ).quantiles(_REPORT_QS)
            slo_blocks[model] = {
                "target_ms": target_ms,
                "completed": count,
                "p50_ms": p50 * 1e-6,
                "p95_ms": p95 * 1e-6,
                "p99_ms": p99 * 1e-6,
                "attainment": attained / count if count else 0.0,
            }
        p50, p95, p99 = lat.quantiles(_REPORT_QS)
        latency_ms = {
            "mean": lat.mean() * 1e-6,
            "p50": p50 * 1e-6,
            "p95": p95 * 1e-6,
            "p99": p99 * 1e-6,
            "max": lat.max * 1e-6,
        }
        wait_ms = {
            "mean": wait.mean() * 1e-6,
            "p95": wait.quantiles((95.0,))[0] * 1e-6,
            "max": wait.max * 1e-6,
        }
        timeline_rows: List[Dict[str, object]] = []
        telemetry_block: Dict[str, object] = {}
        if tele is not None:
            timeline_rows = tele.finish(
                end_ns, self.depth, self.busy_fraction(end_ns),
                self.control_counters() if ctrl is not None else None,
            )
            # exact-mode hub histograms are batch-folded from the sample
            # lists here rather than per completion (order-independent)
            tele.fill_histograms(self.latencies, self.waits)
            telemetry_block = tele.snapshot()
        plan_cache = self.plan_cache
        return ServingReport(
            fleet=self.fleet.spec,
            policy=sim.policy.name,
            traffic=dict(self.traffic_info or {}),
            models=tuple(sorted(self.last_arrival)),
            optimizer=plan_cache.optimizer,
            mode=plan_cache.mode.value,
            batch_sizes=self.batcher.batch_sizes,
            max_wait_us=self.batcher.max_wait_ns * 1e-3,
            num_requests=self.expected,
            completed=completed,
            makespan_ms=makespan_ns * 1e-6,
            throughput_rps=completed / span_s if span_s > 0 else 0.0,
            offered_rps=(self.expected / offered_span_s
                         if offered_span_s > 0 else 0.0),
            latency_ms=latency_ms,
            wait_ms=wait_ms,
            queue_depth={
                "mean": (self.depth_integral / makespan_ns
                         if makespan_ns > 0 else 0.0),
                "max": float(self.depth_max),
            },
            batches=self.batches,
            mean_batch=completed / self.batches if self.batches else 0.0,
            batch_histogram=self.batch_histogram,
            served_histogram=self.served_histogram,
            padded_batches=self.padded_batches,
            per_chip=per_chip,
            total_energy_mj=total_energy_pj * 1e-9,
            energy_per_request_mj=((total_energy_pj * 1e-9 / completed)
                                   if completed else 0.0),
            switch_cost=self.switch_cost,
            plan_switches=sum(w.plan_switches for w in workers),
            switch_ms=sum(w.switch_ns for w in workers) * 1e-6,
            slo=slo_blocks,
            fault_tolerance=self.use_ft,
            failures=self.failures,
            retries=self.retries,
            timeouts=self.timeouts,
            shed=self.shed,
            lost=self.lost,
            lost_work_ms=sum(w.lost_ns for w in workers) * 1e-6,
            degraded_dispatches=self.degraded,
            availability=availability,
            control=(ctrl.as_dict(workers, sim._base_workers)
                     if ctrl is not None else {}),
            commands=self.applied_commands,
            timeline=timeline_rows,
            telemetry=telemetry_block,
            plan_cache=plan_cache.stats.as_dict(),
        )
