"""Serving-throughput benchmarks (beyond the paper).

Five headliners ride with the quick-bench set:

* ``test_serving_throughput`` — a Poisson request stream for ResNet18
  against a two-chip M fleet, scheduled with dynamic batching and the
  latency-aware policy over a warm plan cache.  It measures the cost of
  the serving layer itself (event loop + scheduling + plan-cache lookups)
  — plan compilation is paid once in setup, exactly as a warmed-up
  production deployment would.
* ``test_serving_switch_cost`` — a multi-tenant ResNet18 + SqueezeNet mix
  on a heterogeneous S:2,M:1 fleet with plan-switch weight-replacement
  cost modelled, per-model SLO targets and the ``fair`` deficit
  round-robin policy: the switch-aware scheduling paths (effective-latency
  chip ranking, per-candidate-batch reference chips) under load.
* ``test_serving_faults`` — the same two-chip fleet under a chip failure
  with retries, a straggler window, a per-request timeout and admission
  control: the fault machinery (in-flight kill + retry, timeout
  bookkeeping) under load.
* ``test_serving_control`` — the same fault scenario with the
  self-healing control plane running on a 200 µs tick: health-signal
  bookkeeping at every dispatch/completion, detection + quarantine,
  hedged requests, the SLO-driven autoscaler and plan re-placement — the
  full per-tick controller overhead on top of the fault machinery.
* ``test_serving_telemetry`` — the control scenario with the full
  telemetry layer on: per-window timeline accumulation over 2 ms
  windows, log2-histogram sketch folds at every completion and
  every-10th request lifecycle tracing.  Asserts the pure-observer cost
  stays within 10% of the telemetry-off twin, measured in CPU time over
  alternating off/on pairs so scheduler noise hits both sides equally.

The captured output doubles as the experimental record: the summary rows
carry sustained throughput, p50/p95/p99 latency, batch mix, plan-switch
counts and per-chip utilisation for the fixed seed.
"""

from __future__ import annotations

import gc
import time

from repro.serve import (
    ControlConfig,
    FaultTolerance,
    Fleet,
    PlanCache,
    PoissonTraffic,
    ServingSimulator,
    TelemetryConfig,
    fleet_capacity_rps,
    parse_inject,
)
from repro.sim.report import format_table

MODEL = "resnet18"
BATCHES = (1, 2, 4, 8, 16)
NUM_REQUESTS = 400
SEED = 0


def _setup():
    fleet = Fleet.from_spec("M:2")
    cache = PlanCache(optimizer="dp")
    cache.warmup((MODEL,), fleet.chip_names, BATCHES)
    rate = 0.7 * fleet_capacity_rps(cache, fleet, (MODEL,), BATCHES)
    traffic = PoissonTraffic(MODEL, num_requests=NUM_REQUESTS, seed=SEED,
                             rate_rps=rate)
    return fleet, cache, traffic, traffic.generate()


def test_serving_throughput(benchmark):
    fleet, cache, traffic, requests = _setup()

    def serve():
        simulator = ServingSimulator(fleet, cache, policy="latency",
                                     batch_sizes=BATCHES, max_wait_us=200.0)
        return simulator.run(requests, traffic_info=traffic.describe())

    report = benchmark(serve)
    assert report.completed == NUM_REQUESTS
    assert report.throughput_rps > 0
    assert report.latency_ms["p50"] <= report.latency_ms["p99"]
    print(f"\nServing {MODEL} on {report.fleet_spec} "
          f"({report.traffic['rate_rps']:.0f} req/s offered, seed {SEED}):")
    print(format_table([report.summary_row()]))
    print(f"batch histogram: {dict(sorted(report.batch_histogram.items()))}; "
          f"mean queue depth {report.queue_depth['mean']:.2f} "
          f"(max {report.queue_depth['max']:.0f})")


def _setup_switch():
    fleet = Fleet.from_spec("S:2,M:1")
    models = (MODEL, "squeezenet")
    cache = PlanCache(optimizer="dp")
    cache.warmup(models, fleet.chip_names, BATCHES)
    rate = 0.7 * fleet_capacity_rps(cache, fleet, models, BATCHES)
    traffic = PoissonTraffic(models, num_requests=NUM_REQUESTS, seed=SEED,
                             rate_rps=rate, model_weights=(0.7, 0.3))
    return fleet, cache, traffic, traffic.generate()


def test_serving_switch_cost(benchmark):
    fleet, cache, traffic, requests = _setup_switch()
    slos = {MODEL: 10.0, "squeezenet": 3.0}

    def serve():
        simulator = ServingSimulator(fleet, cache, policy="fair",
                                     batch_sizes=BATCHES, max_wait_us=200.0,
                                     switch_cost=True, slos=slos)
        return simulator.run(requests, traffic_info=traffic.describe())

    report = benchmark(serve)
    assert report.completed == NUM_REQUESTS
    assert report.plan_switches > 0
    assert set(report.slo) == set(slos)
    print(f"\nServing {'+'.join(report.models)} on {report.fleet_spec} "
          f"(switch cost on, fair policy, seed {SEED}):")
    print(format_table([report.summary_row()]))
    print(f"plan switches: {report.plan_switches} "
          f"({report.switch_ms:.3f} ms weight replacement); SLO attainment: "
          + ", ".join(f"{m} {b['attainment']:.1%}"
                      for m, b in sorted(report.slo.items())))


def test_serving_faults(benchmark):
    fleet, cache, traffic, requests = _setup()
    # pin the fault window to the offered stream: the chip dies a fifth of
    # the way in and recovers at the midpoint, then the survivor straggles
    span_us = NUM_REQUESTS / traffic.rate_rps * 1e6
    faults = [
        parse_inject(f"chip_fail@{0.2 * span_us:.0f}:chip=0,"
                     f"until={0.5 * span_us:.0f}"),
        parse_inject(f"straggler@{0.5 * span_us:.0f}:chip=1,factor=1.5,"
                     f"until={0.8 * span_us:.0f}"),
    ]
    fault_tolerance = FaultTolerance(timeout_us=0.5 * span_us, max_retries=2,
                                    shed_queue_depth=64)

    def serve():
        simulator = ServingSimulator(fleet, cache, policy="latency",
                                     batch_sizes=BATCHES, max_wait_us=200.0,
                                     faults=faults,
                                     fault_tolerance=fault_tolerance)
        return simulator.run(requests, traffic_info=traffic.describe())

    report = benchmark(serve)
    assert report.fault_tolerance
    assert report.failures == 1
    assert report.completed + report.shed + report.timeouts + report.lost \
        == NUM_REQUESTS
    assert report.availability < 1.0
    print(f"\nServing {MODEL} on {report.fleet_spec} under faults "
          f"(chip failure + straggler, retries + shedding, seed {SEED}):")
    print(format_table([report.summary_row()]))
    print(f"failures: {report.failures}, retries: {report.retries}, "
          f"timeouts: {report.timeouts}, shed: {report.shed}, "
          f"lost: {report.lost}; availability {report.availability:.2%} "
          f"({report.lost_work_ms:.3f} ms lost work)")


def test_serving_control(benchmark):
    fleet, cache, traffic, requests = _setup()
    # the fault scenario of test_serving_faults, now supervised: the
    # controller must detect the failure, hedge the straggler's slow
    # requests, and autoscale through the capacity dip
    span_us = NUM_REQUESTS / traffic.rate_rps * 1e6
    faults = [
        parse_inject(f"chip_fail@{0.2 * span_us:.0f}:chip=0,"
                     f"until={0.5 * span_us:.0f}"),
        parse_inject(f"straggler@{0.5 * span_us:.0f}:chip=1,factor=1.5,"
                     f"until={0.8 * span_us:.0f}"),
    ]
    fault_tolerance = FaultTolerance(timeout_us=0.5 * span_us, max_retries=2,
                                     retry_priority=True)
    control = ControlConfig(interval_us=200.0, hedge_after_pct=90.0,
                            autoscale=True, min_chips=2, max_chips=4,
                            cooldown_us=1000.0)

    def serve():
        simulator = ServingSimulator(fleet, cache, policy="latency",
                                     batch_sizes=BATCHES, max_wait_us=200.0,
                                     slos={MODEL: 12.0}, switch_cost=True,
                                     faults=faults,
                                     fault_tolerance=fault_tolerance,
                                     control=control)
        return simulator.run(requests, traffic_info=traffic.describe())

    report = benchmark(serve)
    control_block = report.control
    assert control_block["ticks"] > 0
    assert report.completed + report.shed + report.timeouts + report.lost \
        == NUM_REQUESTS
    print(f"\nServing {MODEL} on {report.fleet_spec} self-healing "
          f"(control tick 200 us, hedging + autoscale, seed {SEED}):")
    print(format_table([report.summary_row()]))
    print(f"ticks: {control_block['ticks']}, detections: "
          f"{control_block['detections']} "
          f"({control_block['true_detections']} true), quarantines: "
          f"{control_block['quarantines']}, hedges: {control_block['hedges']}, "
          f"scale: +{control_block['scale_ups']}/-{control_block['scale_downs']}, "
          f"re-placements: {control_block['replacements']}; SLO attainment "
          f"{report.slo[MODEL]['attainment']:.1%}")


def test_serving_telemetry(benchmark):
    fleet, cache, traffic, requests = _setup()
    # the self-healing scenario of test_serving_control with the full
    # telemetry layer on top: per-window timeline accumulation over 2 ms
    # windows, sketch folds at every completion, and every-10th
    # request traced — the whole observability hot path under load
    span_us = NUM_REQUESTS / traffic.rate_rps * 1e6
    faults = [
        parse_inject(f"chip_fail@{0.2 * span_us:.0f}:chip=0,"
                     f"until={0.5 * span_us:.0f}"),
        parse_inject(f"straggler@{0.5 * span_us:.0f}:chip=1,factor=1.5,"
                     f"until={0.8 * span_us:.0f}"),
    ]
    fault_tolerance = FaultTolerance(timeout_us=0.5 * span_us, max_retries=2,
                                     retry_priority=True)
    control = ControlConfig(interval_us=200.0, hedge_after_pct=90.0,
                            autoscale=True, min_chips=2, max_chips=4,
                            cooldown_us=1000.0)

    def serve(telemetry):
        # the autoscaler mutates its Fleet in place (added chips persist
        # after the run), so every run builds a fresh fleet — otherwise
        # the timed on/off twins would not start from the same state
        simulator = ServingSimulator(Fleet.from_spec("M:2"), cache,
                                     policy="latency",
                                     batch_sizes=BATCHES, max_wait_us=200.0,
                                     slos={MODEL: 12.0}, switch_cost=True,
                                     faults=faults,
                                     fault_tolerance=fault_tolerance,
                                     control=control, telemetry=telemetry)
        return simulator.run(requests, traffic_info=traffic.describe())

    telemetry = TelemetryConfig(timeline_interval_us=2000.0, trace_every=10)
    report = benchmark(serve, telemetry)
    assert report.timeline
    assert report.telemetry["counters"]["arrivals"] == NUM_REQUESTS
    # telemetry must stay a cheap observer: <= 10% overhead vs the
    # telemetry-off twin.  The twins are timed in CPU time (immune to
    # preemption by other processes) with the collector parked, over
    # alternating off/on pairs so machine drift hits both sides equally;
    # a min-of-N estimator converges from above, so once the running
    # estimate clears the bar more pairs cannot change the verdict
    on_s = off_s = float("inf")
    overhead = float("inf")
    for pair in range(16):
        off_s = min(off_s, _timed_cpu(serve, None))
        on_s = min(on_s, _timed_cpu(serve, telemetry))
        overhead = on_s / off_s - 1.0
        if pair >= 4 and overhead <= 0.10:
            break
    assert overhead <= 0.10, f"telemetry overhead {overhead:.1%}"
    print(f"\nServing {MODEL} on {report.fleet_spec} with telemetry "
          f"(timeline 2 ms, trace every 10th, seed {SEED}):")
    print(format_table([report.summary_row()]))
    print(f"windows: {len(report.timeline)}, completions counted: "
          f"{report.telemetry['counters'].get('completions', 0)}, "
          f"overhead vs telemetry-off: {overhead:+.1%}")


def _timed_cpu(fn, *args):
    gc.collect()
    gc.disable()
    start = time.process_time()
    try:
        fn(*args)
    finally:
        gc.enable()
    return time.process_time() - start
