"""The key layout of a serving report's ``as_dict``/``determinism_dict``.

Two fixed scenarios pin the order of the top-level keys and of the keys
inside every nested block: a plain run, and a run that grows every
optional block (switch cost, an SLO, faults with retries, a control plane
with hedging, a timeline with tracing and one queued ``set_policy``
command).  ``--output`` files and the observatory's terminal report are
this dictionary, so a change here changes what users parse.
"""

import pytest

from repro.serve import (
    CommandQueue,
    ControlConfig,
    FaultTolerance,
    Fleet,
    PlanCache,
    PoissonTraffic,
    ServingSimulator,
    TelemetryConfig,
    fleet_capacity_rps,
)
from repro.serve.faults import parse_inject

MODEL = "resnet18"
BATCHES = (1, 2, 4)

TOP_LEVEL = [
    "fleet", "policy", "traffic", "models", "optimizer", "mode",
    "batch_sizes", "max_wait_us", "num_requests", "completed",
    "makespan_ms", "throughput_rps", "offered_rps", "latency_ms", "wait_ms",
    "queue_depth", "batches", "mean_batch", "batch_histogram",
    "served_histogram", "padded_batches", "per_chip", "total_energy_mj",
    "energy_per_request_mj",
]
OPTIONAL_BLOCKS = ["switch", "slo", "faults", "control", "commands",
                   "timeline", "telemetry"]
PLAIN_CHIP = ["chip", "class", "batches", "requests", "busy_ms",
              "utilisation", "energy_mj"]
#: the ordered keys of each dict-valued block (list-valued blocks: of
#: their first row)
BLOCKS = {
    "traffic": ["traffic", "models", "num_requests", "seed", "rate_rps"],
    "latency_ms": ["mean", "p50", "p95", "p99", "max"],
    "wait_ms": ["mean", "p95", "max"],
    "queue_depth": ["mean", "max"],
    "batch_histogram": ["1", "2", "4"],
    "served_histogram": ["1", "2", "4"],
    "plan_cache": ["misses", "hits", "hit_rate", "evictions",
                   "warmup_compiles", "size", "capacity"],
}
FULL_BLOCKS = {
    **BLOCKS,
    "per_chip": PLAIN_CHIP + ["plan_switches", "switch_ms", "failures",
                              "downtime_ms", "lost_requests"],
    "switch": ["plan_switches", "switch_ms"],
    "slo": [MODEL],
    "faults": ["failures", "retries", "timeouts", "shed", "lost",
               "lost_work_ms", "degraded_dispatches", "availability"],
    "control": ["interval_us", "ticks", "detections", "true_detections",
                "false_detections", "quarantines", "readmissions", "hedges",
                "hedges_won", "hedges_wasted", "hedges_cancelled",
                "scale_ups", "scale_downs", "base_chips", "final_chips",
                "replacements", "replacement_ms"],
    "commands": ["op", "t_ms", "policy", "status"],
    "timeline": ["window", "t_ms", "arrivals", "completed", "throughput_rps",
                 "p50_ms", "p95_ms", "p99_ms", "queue_depth", "utilisation",
                 "attainment", "shed", "timeouts", "lost", "retries",
                 "failures", "recoveries", "slo", "quarantines",
                 "readmissions", "hedges", "scale_ups", "scale_downs",
                 "replacements"],
    "telemetry": ["counters", "gauges", "histograms", "config"],
}
PLAIN_BLOCKS = {**BLOCKS, "per_chip": PLAIN_CHIP}


def _run(full):
    fleet = Fleet.from_spec("M:2")
    cache = PlanCache(optimizer="dp")
    cache.warmup((MODEL,), fleet.chip_names, BATCHES)
    rate = 0.9 * fleet_capacity_rps(cache, fleet, (MODEL,), BATCHES)
    traffic = PoissonTraffic(MODEL, num_requests=60, seed=5, rate_rps=rate)
    options, commands = {"switch_cost": False}, None
    if full:
        commands = CommandQueue()
        commands.put({"op": "set_policy", "policy": "fifo"})
        options = dict(
            switch_cost=True, slos={MODEL: 12.0},
            faults=[parse_inject("chip_fail@500:chip=0,until=3000"),
                    parse_inject("straggler@0:chip=1,factor=6")],
            fault_tolerance=FaultTolerance(max_retries=2),
            control=ControlConfig(interval_us=200.0, hedge_after_pct=70.0,
                                  hedge_min_samples=8),
            telemetry=TelemetryConfig(timeline_interval_us=500.0,
                                      trace_every=5))
    simulator = ServingSimulator(fleet, cache, policy="latency",
                                 batch_sizes=BATCHES, max_wait_us=200.0,
                                 **options)
    return simulator.run(traffic.generate(), traffic_info=traffic.describe(),
                         commands=commands)


@pytest.fixture(scope="module")
def reports():
    return {"plain": _run(False), "full": _run(True)}


@pytest.mark.parametrize("name, top, blocks", [
    ("plain", TOP_LEVEL + ["plan_cache"], PLAIN_BLOCKS),
    ("full", TOP_LEVEL + OPTIONAL_BLOCKS + ["plan_cache"], FULL_BLOCKS),
])
def test_key_order(reports, name, top, blocks):
    data = reports[name].as_dict()
    assert list(data) == top
    for block, keys in blocks.items():
        value = data[block]
        first = value[0] if isinstance(value, list) else value
        assert list(first) == keys, block
    if name == "full":
        assert list(data["slo"][MODEL]) == [
            "target_ms", "completed", "p50_ms", "p95_ms", "p99_ms",
            "attainment"]
        assert list(data["telemetry"]["config"]) == [
            "timeline_interval_us", "trace_every", "streaming_percentiles"]


def test_full_run_exercises_every_block(reports):
    report = reports["full"]
    assert report.retries > 0
    assert report.control["hedges"] > 0
    assert report.commands[0]["status"] == "applied"


@pytest.mark.parametrize("name, excluded", [
    ("plain", {"plan_cache"}),
    ("full", {"commands", "telemetry", "plan_cache"}),
])
def test_determinism_core_excludes(reports, name, excluded):
    report = reports[name]
    core = report.determinism_dict()
    assert set(report.as_dict()) - set(core) == excluded
    assert list(core) == [key for key in report.as_dict()
                          if key not in excluded]
