"""Streaming telemetry: watching a fault and its recovery on the timeline.

PR 7 gave the serving stack a self-healing control plane; this example
turns on :mod:`repro.serve.telemetry` and *watches* it work.  One fixed
Poisson stream runs on a three-chip fleet while chip 0 dies for the
middle third of the run.  The telemetry layer — a pure observer, the
simulated outcome is bit-identical with it on or off — records:

1. a metrics timeline (``--timeline-us`` on the CLI): per-window
   arrivals, throughput, latency percentiles from log-linear histogram
   sketches, queue depth, utilisation, SLO attainment, and per-window
   deltas of the controller's actions;
2. sketch percentiles for the terminal report
   (``--streaming-percentiles``): log-linear histogram estimates of
   p50/p95/p99, compared below against the exact nearest-rank values;
3. request lifecycle traces (``--trace-requests K``): every K-th
   request's queued/service spans, exportable as Chrome trace-event
   JSON via ``--trace-out``.

The timeline tells the whole story in one table: attainment dips when
the chip dies, the controller quarantines the corpse and scales up, and
attainment recovers while the fault is still active.

Run with::

    PYTHONPATH=src python examples/telemetry.py
"""

from repro.evaluation.registry import shared_plan_cache
from repro.serve import (
    ControlConfig,
    FaultTolerance,
    Fleet,
    PoissonTraffic,
    ServingSimulator,
    TelemetryConfig,
    fleet_capacity_rps,
    parse_inject,
)
from repro.sim.report import format_table, render_timeline

MODEL = "resnet18"
BATCHES = (1, 2, 4, 8)
REQUESTS = 240
SEED = 0
SLO_MS = 12.0


def main() -> None:
    cache = shared_plan_cache("dp")
    base_fleet = Fleet.from_spec("M:3")
    cache.warmup((MODEL,), base_fleet.chip_names, BATCHES)
    rate = 0.9 * fleet_capacity_rps(cache, base_fleet, (MODEL,), BATCHES)

    # chip 0 dies for the middle third of the stream
    span_us = REQUESTS / rate * 1e6
    fail_at, fail_until = 0.33 * span_us, 0.66 * span_us
    faults = [parse_inject(f"chip_fail@{fail_at:.0f}:chip=0,"
                           f"until={fail_until:.0f}")]
    ft = FaultTolerance(timeout_us=0.4 * span_us, max_retries=2,
                        retry_priority=True)
    control = ControlConfig(interval_us=200.0, hedge_after_pct=85.0,
                            autoscale=True, min_chips=3, max_chips=5,
                            cooldown_us=1000.0)
    interval_us = span_us / 24  # ~24 timeline windows across the run

    def serve(telemetry):
        traffic = PoissonTraffic(MODEL, num_requests=REQUESTS, seed=SEED,
                                 rate_rps=rate)
        simulator = ServingSimulator(Fleet.from_spec("M:3"), cache,
                                     policy="latency", batch_sizes=BATCHES,
                                     max_wait_us=200.0, slos={MODEL: SLO_MS},
                                     faults=faults, fault_tolerance=ft,
                                     control=control, telemetry=telemetry)
        return simulator.run(traffic.generate(),
                             traffic_info=traffic.describe())

    report = serve(TelemetryConfig(timeline_interval_us=interval_us,
                                   trace_every=10))
    print(f"offered rate {rate:.0f} req/s on M:3, chip M#0 down "
          f"{fail_at / 1e3:.1f} .. {fail_until / 1e3:.1f} ms "
          f"(from window {fail_at / interval_us:.0f}), "
          f"SLO {MODEL}={SLO_MS:g} ms\n")
    print(render_timeline(report.timeline))

    # read the story back out of the rows: the dip, the reaction, the
    # recovery — all within the fault window
    rows = report.timeline
    fault_w = int(fail_at / interval_us)
    dip = min((r for r in rows[fault_w:] if r["completed"]),
              key=lambda r: r["attainment"])
    stalled = [r["window"] for r in rows[fault_w:fault_w + 4]
               if not r["completed"]]
    reaction = next(r for r in rows[fault_w:]
                    if any(r.get(k, 0) for k in ("quarantines", "hedges",
                                                 "scale_ups")))
    recovered = next(r for r in rows if r["window"] > dip["window"]
                     and r["completed"] and r["attainment"] >= 0.99)
    stall_note = (f" (window {stalled[0]} completed nothing at all)"
                  if stalled else "")
    print(f"\nwindow {dip['window']}: attainment dips to "
          f"{dip['attainment']:.1%} after the chip failure{stall_note}; "
          f"window {reaction['window']}: first controller reaction "
          f"(quarantine/hedge/scale-up deltas above); "
          f"window {recovered['window']}: attainment back to "
          f"{recovered['attainment']:.1%} — before the chip returns.")

    # terminal percentiles: exact nearest-rank vs the log-linear
    # histogram sketch (each estimate is its bucket's midpoint, within
    # 2^-8 = 0.4% of exact)
    sketch = serve(TelemetryConfig(streaming_percentiles=True))
    exact = report.latency_ms
    estimate = sketch.latency_ms
    print("\nexact terminal percentiles vs log-linear histogram "
          "sketches (--streaming-percentiles):")
    print(format_table([{
        "percentile": name,
        "exact_ms": exact[name],
        "sketch_ms": estimate[name],
        "error": abs(estimate[name] - exact[name]) / exact[name]
        if exact[name] else 0.0,
    } for name in ("p50", "p95", "p99")]))

    counters = report.telemetry["counters"]
    print(f"\ntelemetry counters: {counters['arrivals']} arrivals, "
          f"{counters['completions']} completions, "
          f"{counters.get('retries', 0)} retries; every 10th request "
          "traced (export the spans with --trace-out trace.json)")


if __name__ == "__main__":
    main()
