"""Traffic-driven serving subsystem: plans, fleets, scheduling, simulation.

The paper evaluates single-inference latency and EDP of compiled partition
groups; this package turns those compiled plans into what such metrics are a
proxy for — sustained throughput and tail latency under real request
streams.  Four pieces, all deterministic for a fixed seed:

* :class:`PlanCache` — LRU cache of :class:`CompiledPlan` entries keyed by
  ``(model, chip, dram, batch, mode, optimizer)``, compiled through the
  shared registry / :mod:`repro.search` / span-matrix stack;
* :class:`Fleet` — homogeneous or heterogeneous (S/M/L) chip fleets with
  per-chip occupancy counters and a ``loaded_plan`` slot per chip — plan
  switches pay the incoming plan's weight-replacement cost when
  :func:`switch_cost_enabled` (the ``REPRO_SERVE_SWITCH_COST`` gate);
* :mod:`~repro.serve.scheduler` — FIFO / least-loaded / latency-aware /
  fair (deficit round-robin across model queues) chip policies plus
  :class:`DynamicBatcher`, which picks batch sizes from the span-matrix
  per-batch latency curves;
* :class:`ServingSimulator` — the discrete-event loop producing a
  :class:`ServingReport` (throughput, p50/p95/p99 latency, queue depths,
  per-chip utilisation and energy, per-model SLO attainment, plan-switch
  counts).  Open-loop streams are pregenerated; :class:`ClosedLoopTraffic`
  clients instead issue each follow-up request when the previous one
  completes, with arrivals injected into the live event loop;
* :mod:`~repro.serve.faults` — seed-deterministic fault injection
  (:class:`FaultEvent`: chip failure/recovery, stragglers, degraded DRAM,
  stochastic ``chaos`` schedules) and the :class:`FaultTolerance` knobs
  that survive them: request re-queue on chip death, per-request timeout +
  capped retry with deterministic backoff, admission control / load
  shedding, and SLO-driven graceful degradation.  Faulty or not, every
  batch completes through one accounting path, at its chip-free event.
* :mod:`~repro.serve.control` — the self-healing control plane: a
  :class:`Controller` (configured by :class:`ControlConfig`) runs on a
  fixed control tick inside the simulator's deterministic event order and
  closes the loop from observed health signals to actions — quarantine of
  stalled/straggling chips with flap-damped re-admission, hedged requests
  past a latency-window percentile budget, an SLO-driven autoscaler whose
  cold chips pay the plan-switch weight-replacement cost, and plan
  re-placement across survivors via a small assignment solve.  Detections
  are scored against the injected fault ground truth in the report's
  ``control`` block.  Controller-off runs stay bit-identical.
* :mod:`~repro.serve.telemetry` — the passive observability layer
  (:class:`TelemetryConfig`): a :class:`Telemetry` registry the existing
  stat surfaces plug into, a per-window metrics timeline sampled lazily
  at window boundaries, one percentile sketch (:class:`LogLinearHistogram`,
  within 2^-8 of the exact nearest-rank percentile), and every-K-th
  request lifecycle tracing exported as Chrome trace-event JSON
  (:class:`RequestTracer`).  Telemetry is a pure observer — telemetry-off
  runs stay bit-identical, and the ``REPRO_SERVE_TELEMETRY=0`` gate drops
  it wholesale.
* :mod:`~repro.serve.scenario` — the scenario spec: one JSON-shaped
  description of a serving run, parsed by :func:`parse_spec` and turned
  into a simulator and workload by :func:`build_scenario`.  ``repro
  serve`` and the observatory both build their runs this way.
* :mod:`~repro.serve.service` — the live observatory: an asyncio REST +
  WebSocket service (stdlib only) that runs scenarios on worker threads,
  streams each timeline window the moment it is provably final, exposes
  the telemetry hub as Prometheus text exposition at ``/metrics``, and
  accepts mid-run commands (fault injection, policy swap, autoscale
  bounds) through a thread-safe :class:`CommandQueue` drained inside the
  simulator's deterministic event order.  Service-off runs stay
  bit-identical — streaming only changes *when* windows render, never
  what they contain.

The CLI's ``repro serve`` and ``repro observe`` subcommands route here.
"""

from repro.serve.control import COLD_PLAN, ControlConfig, Controller, place_plans
from repro.serve.faults import (
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
    fleet_capacity_rps,
    plan_for,
    service_latency_ns,
    switch_cost_enabled,
)
from repro.serve.plans import (
    CompiledPlan,
    PlanCache,
    PlanCacheStats,
    PlanKey,
    degraded_dram,
)
from repro.serve.scheduler import (
    POLICIES,
    DynamicBatcher,
    SchedulingPolicy,
    make_policy,
    validate_policy,
)
from repro.serve.simulator import CommandQueue, ServingReport, ServingSimulator
from repro.serve.telemetry import (
    LogLinearHistogram,
    RequestTracer,
    Telemetry,
    TelemetryConfig,
    TelemetrySession,
    TimelineAccumulator,
    telemetry_enabled,
)
from repro.serve.traffic import (
    TRAFFIC_GENERATORS,
    BurstyTraffic,
    ClosedLoopSession,
    ClosedLoopTraffic,
    DiurnalTraffic,
    PoissonTraffic,
    Request,
    TraceTraffic,
    TrafficGenerator,
    retry_request,
    save_trace,
    validate_traffic,
)

__all__ = [
    "BurstyTraffic",
    "ChipWorker",
    "COLD_PLAN",
    "ClosedLoopSession",
    "ClosedLoopTraffic",
    "CommandQueue",
    "CompiledPlan",
    "ControlConfig",
    "Controller",
    "DiurnalTraffic",
    "DynamicBatcher",
    "FaultEvent",
    "FaultTolerance",
    "Fleet",
    "LogLinearHistogram",
    "POLICIES",
    "PlanCache",
    "PlanCacheStats",
    "PlanKey",
    "PoissonTraffic",
    "Request",
    "RequestTracer",
    "SchedulingPolicy",
    "ServingReport",
    "ServingSimulator",
    "TRAFFIC_GENERATORS",
    "Telemetry",
    "TelemetryConfig",
    "TelemetrySession",
    "TimelineAccumulator",
    "TraceTraffic",
    "TrafficGenerator",
    "degraded_dram",
    "faults_enabled",
    "fleet_capacity_rps",
    "make_policy",
    "materialize",
    "parse_inject",
    "place_plans",
    "plan_for",
    "retry_request",
    "save_trace",
    "service_latency_ns",
    "switch_cost_enabled",
    "telemetry_enabled",
    "validate_fault_targets",
    "validate_policy",
    "validate_traffic",
]
