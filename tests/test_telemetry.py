"""Tests of the streaming telemetry layer (:mod:`repro.serve.telemetry`).

Four contracts: the percentile sketches stay within their documented error
bounds vs the exact nearest-rank percentile (P² exactly below five
samples); the metrics timeline renders 0.0 — never NaN — for windows with
zero completions or zero elapsed time and is byte-identically
reproducible; the request tracer emits valid, deterministic Chrome
trace-event JSON with memory bounded by the sampling stride; and telemetry
as a whole is a **pure observer** — a telemetry-on run replays the
telemetry-off event order bit-identically (pinned against
``tests/data/serving_pins.json``).
"""

import json
import math
import os

import pytest

from repro.serialization import (
    dump_chrome_trace,
    dump_metrics_timeline,
    timeline_to_csv,
)
from repro.serve import (
    ControlConfig,
    FaultTolerance,
    Fleet,
    Log2Histogram,
    P2Quantile,
    PlanCache,
    PoissonTraffic,
    ServingSimulator,
    StreamingQuantiles,
    Telemetry,
    TelemetryConfig,
    TelemetrySession,
    TimelineAccumulator,
    fleet_capacity_rps,
    parse_inject,
    telemetry_enabled,
)
from repro.serve.traffic import (
    BurstyTraffic,
    ClosedLoopTraffic,
    DiurnalTraffic,
)
from repro.sim.metrics import nearest_rank_percentile
from repro.sim.report import render_timeline

from test_serve import _load_pins, pre_pr7_scenarios

BATCHES = (1, 2, 4, 8, 16)

#: documented P² accuracy contract on this repo's latency-like
#: distributions (n >= 50): relative error vs exact nearest rank
P2_BOUND = 0.15
#: log2 histogram quantiles are geometric bin midpoints: within sqrt(2)
LOG2_BOUND = math.sqrt(2.0)


def _interarrival_gaps(traffic):
    """Latency-shaped sample stream: a generator's interarrival gaps."""
    requests = traffic.generate()
    arrivals = [r.arrival_ns for r in requests]
    return [b - a for a, b in zip(arrivals, arrivals[1:]) if b > a]


def _distributions():
    return {
        "poisson": _interarrival_gaps(
            PoissonTraffic("resnet18", num_requests=400, seed=11,
                           rate_rps=4000.0)),
        "bursty": _interarrival_gaps(
            BurstyTraffic("resnet18", num_requests=400, seed=12,
                          rate_rps=4000.0)),
        "diurnal": _interarrival_gaps(
            DiurnalTraffic("resnet18", num_requests=400, seed=13,
                           base_rate_rps=4000.0)),
    }


# ----------------------------------------------------------------------
# shared nearest-rank percentile (the dedup satellite)
# ----------------------------------------------------------------------
class TestSharedPercentile:
    def test_simulator_and_controller_share_one_function(self):
        from repro.serve import control, simulator

        # both import the one definition; neither keeps a private alias
        assert simulator.nearest_rank_percentile is nearest_rank_percentile
        assert control.nearest_rank_percentile is nearest_rank_percentile
        assert not hasattr(simulator, "_percentile")
        assert not hasattr(control, "percentile")

    def test_nearest_rank_definition(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        assert nearest_rank_percentile(values, 50) == 5.0
        assert nearest_rank_percentile(values, 95) == 10.0
        assert nearest_rank_percentile(values, 1) == 1.0
        assert nearest_rank_percentile([], 95) == 0.0
        assert nearest_rank_percentile([7.5], 99) == 7.5


# ----------------------------------------------------------------------
# streaming percentile sketches
# ----------------------------------------------------------------------
class TestP2Quantile:
    # p99 of the *bursty* gap stream is excluded: burst/idle interarrival
    # gaps are bimodal with a sparse extreme tail, which is outside the
    # documented contract (serving *latency* distributions — covered end to
    # end by TestStreamingReport across all four traffic shapes); the
    # distribution-free guarantee lives in Log2Histogram
    @pytest.mark.parametrize("name", ["poisson", "bursty", "diurnal"])
    @pytest.mark.parametrize("q", [50.0, 90.0, 95.0])
    def test_within_documented_bound(self, name, q):
        samples = _distributions()[name]
        assert len(samples) >= 50
        sketch = P2Quantile(q)
        for value in samples:
            sketch.add(value)
        exact = nearest_rank_percentile(sorted(samples), q)
        assert sketch.count == len(samples)
        assert abs(sketch.value() - exact) <= P2_BOUND * exact

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_tiny_samples_fall_back_exactly(self, n):
        # below five samples P² cannot place its markers: the estimate
        # must be the *exact* nearest-rank percentile, not an extrapolation
        samples = [3.0, 1.0, 4.0, 1.5][:n]
        for q in (50.0, 95.0, 99.0):
            sketch = P2Quantile(q)
            for value in samples:
                sketch.add(value)
            assert sketch.value() == nearest_rank_percentile(
                sorted(samples), q)

    def test_empty_returns_zero(self):
        assert P2Quantile(95.0).value() == 0.0

    def test_exactly_five_initialises_markers(self):
        sketch = P2Quantile(50.0)
        for value in (5.0, 1.0, 3.0, 2.0, 4.0):
            sketch.add(value)
        assert sketch.value() == 3.0

    def test_rejects_degenerate_quantiles(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(100.0)


class TestLog2Histogram:
    @pytest.mark.parametrize("name", ["poisson", "bursty", "diurnal"])
    @pytest.mark.parametrize("q", [50.0, 95.0, 99.0])
    def test_within_sqrt2_of_exact(self, name, q):
        samples = _distributions()[name]
        histogram = Log2Histogram()
        for value in samples:
            histogram.add(value)
        exact = nearest_rank_percentile(sorted(samples), q)
        estimate = histogram.quantile(q)
        # the estimate is the geometric midpoint of the bin holding the
        # exact nearest-rank sample: a guaranteed factor-sqrt(2) bound
        assert exact / LOG2_BOUND <= estimate <= exact * LOG2_BOUND

    def test_exact_mean_max_count(self):
        histogram = Log2Histogram()
        for value in (1.0, 10.0, 100.0):
            histogram.add(value)
        assert histogram.count == 3
        assert histogram.mean() == pytest.approx(37.0)
        assert histogram.max == 100.0

    def test_as_dict_only_nonempty_bins(self):
        histogram = Log2Histogram()
        histogram.add(5.0)  # bin 2: [4, 8)
        data = histogram.as_dict()
        assert data["bins"] == {"2": 1}
        assert data["count"] == 1

    def test_empty_quantile_zero(self):
        assert Log2Histogram().quantile(95.0) == 0.0


class TestStreamingQuantiles:
    def test_tracks_count_mean_max_and_percentiles(self):
        samples = _distributions()["poisson"]
        summary = StreamingQuantiles((50.0, 95.0, 99.0))
        for value in samples:
            summary.add(value)
        assert summary.count == len(samples)
        assert summary.mean() == pytest.approx(sum(samples) / len(samples))
        assert summary.max == max(samples)
        exact = nearest_rank_percentile(sorted(samples), 95.0)
        assert abs(summary.percentile(95.0) - exact) <= P2_BOUND * exact


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
class TestTelemetryHub:
    def test_counters_sources_histograms_snapshot(self):
        hub = Telemetry()
        hub.inc("b")
        hub.inc("a", 2)
        hub.inc("a")
        hub.register_source("gauges_z", lambda: {"x": 1})
        hub.register_source("gauges_a", lambda: {"y": 2.5})
        hub.histogram("lat").add(12.0)
        snap = hub.snapshot()
        assert snap["counters"] == {"a": 3, "b": 1}
        assert list(snap["counters"]) == ["a", "b"]
        assert list(snap["gauges"]) == ["gauges_a", "gauges_z"]
        assert snap["histograms"]["lat"]["count"] == 1
        assert hub.counter("a") == 3
        assert hub.counter("never") == 0

    def test_sources_are_lazy(self):
        hub = Telemetry()
        state = {"v": 1}
        hub.register_source("s", lambda: dict(state))
        state["v"] = 7
        assert hub.snapshot()["gauges"]["s"] == {"v": 7}


# ----------------------------------------------------------------------
# metrics timeline: window-rate guards (the bugfix satellite)
# ----------------------------------------------------------------------
class TestTimelineWindowGuards:
    def test_zero_completion_window_renders_zero_not_nan(self):
        timeline = TimelineAccumulator(1000.0, slo_models=("m",))
        timeline.start(0.0)
        timeline.note_arrival(100.0)
        timeline.note_completion(500.0, 400.0, "m", True)
        # window 1 (1000..2000 ns) sees arrivals but zero completions —
        # e.g. fully inside a chip-outage stall
        timeline.note_arrival(1500.0)
        rows = timeline.rows(2500.0, queue_depth=1, utilisation=0.0)
        assert len(rows) == 3
        stalled = rows[1]
        assert stalled["completed"] == 0
        assert stalled["throughput_rps"] == 0.0
        assert stalled["attainment"] == 0.0
        assert stalled["slo"]["m"] == 0.0
        for row in rows:
            for key, value in row.items():
                if isinstance(value, float):
                    assert not math.isnan(value), (row["window"], key)

    def test_zero_elapsed_window_renders_zero_not_crash(self):
        # the accumulator takes any timestamp, so a completion can land
        # past the rendered span: that window has completions but zero
        # elapsed time inside the span and must render 0.0, not raise
        # ZeroDivisionError or emit inf
        timeline = TimelineAccumulator(1000.0)
        timeline.start(0.0)
        timeline.note_completion(3500.0, 100.0)
        rows = timeline.rows(1000.0, queue_depth=0, utilisation=0.0)
        tail = rows[-1]
        assert tail["window"] == 3
        assert tail["completed"] == 1
        assert tail["throughput_rps"] == 0.0
        assert all(not math.isnan(v) for v in tail.values()
                   if isinstance(v, float))

    def test_normal_window_rate(self):
        timeline = TimelineAccumulator(1000.0)
        timeline.start(0.0)
        timeline.note_completion(200.0, 50.0)
        timeline.note_completion(800.0, 70.0)
        rows = timeline.rows(1000.0, queue_depth=0, utilisation=0.5)
        assert rows[0]["completed"] == 2
        # 2 completions in a 1000 ns (1e-6 s) window = 2e6 req/s
        assert rows[0]["throughput_rps"] == pytest.approx(2e6)

    def test_samples_forward_fill(self):
        timeline = TimelineAccumulator(1000.0)
        timeline.start(0.0)
        timeline.note_arrival(100.0)
        timeline.sample(0, queue_depth=4, utilisation=1.0)
        timeline.note_arrival(3100.0)
        rows = timeline.rows(3500.0, queue_depth=2, utilisation=0.25)
        # window 0 takes its boundary sample; 1 and 2 forward-fill it;
        # the last window takes the end-of-run flush
        assert [row["queue_depth"] for row in rows] == [4, 4, 4, 2]
        assert rows[0]["utilisation"] == 1.0
        assert rows[-1]["utilisation"] == 0.25

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            TimelineAccumulator(0.0)


# ----------------------------------------------------------------------
# full-stack scenario helpers
# ----------------------------------------------------------------------
def _fault_scenario(telemetry=None, control=False, sink=None):
    """The PR 7 ``fault_retry_latency`` pin scenario, telemetry optional."""
    model = "resnet18"
    fleet = Fleet.from_spec("M:2")
    cache = PlanCache(optimizer="dp")
    cache.warmup((model,), fleet.chip_names, BATCHES)
    rate = 0.9 * fleet_capacity_rps(cache, fleet, (model,), BATCHES)
    traffic = PoissonTraffic(model, num_requests=60, seed=3, rate_rps=rate)
    span_us = 60 / rate * 1e6
    faults = [
        parse_inject(f"chip_fail@{0.2 * span_us:.0f}:chip=0,"
                     f"until={0.6 * span_us:.0f}"),
        parse_inject(f"straggler@{0.3 * span_us:.0f}:chip=1,factor=2.0,"
                     f"until={0.7 * span_us:.0f}"),
    ]
    ft = FaultTolerance(timeout_us=0.4 * span_us, max_retries=2,
                        shed_queue_depth=24)
    ctrl = (ControlConfig(interval_us=200.0, hedge_after_pct=90.0)
            if control else None)
    simulator = ServingSimulator(
        fleet, cache, policy="latency", batch_sizes=BATCHES,
        max_wait_us=200.0, switch_cost=True, slos={model: 12.0},
        faults=faults, fault_tolerance=ft, control=ctrl,
        telemetry=telemetry,
    )
    if sink is not None:
        simulator.stream_sink = sink
    report = simulator.run(traffic.generate(),
                           traffic_info=traffic.describe())
    return simulator, report


def _closed_hedge_scenario(telemetry=None):
    """Closed-loop clients over a straggling fleet with hedging active —
    the hardest accounting regime: arrivals are injected live by the
    clients, stragglers trip timeouts/retries, and hedged duplicates must
    still complete each request exactly once."""
    model = "squeezenet"
    fleet = Fleet.from_spec("M:3")
    cache = PlanCache(optimizer="dp")
    cache.warmup((model,), fleet.chip_names, (1, 2, 4, 8))
    traffic = ClosedLoopTraffic(model, num_requests=150, seed=4,
                                clients=12, concurrency=2)
    simulator = ServingSimulator(
        fleet, cache, policy="fifo", batch_sizes=(1, 2, 4, 8),
        max_wait_us=100.0,
        faults=[parse_inject("straggler@0:chip=0,factor=10")],
        fault_tolerance=FaultTolerance(max_retries=1, timeout_us=800.0,
                                       shed_queue_depth=10),
        control=ControlConfig(interval_us=200.0, hedge_after_pct=60.0,
                              hedge_min_samples=8),
        telemetry=telemetry,
    )
    report = simulator.run(traffic, traffic_info=traffic.describe())
    return simulator, report


def _hedge_scenario(telemetry=None):
    """A straggler scenario tuned so hedges actually fire (see
    tests/test_control.py::TestHedging)."""
    model = "squeezenet"
    fleet = Fleet.from_spec("M:3")
    cache = PlanCache(optimizer="dp")
    cache.warmup((model,), fleet.chip_names, (1, 2, 4, 8))
    rate = 0.8 * fleet_capacity_rps(cache, fleet, (model,), (1, 2, 4, 8))
    traffic = PoissonTraffic(model, num_requests=120, seed=0, rate_rps=rate)
    simulator = ServingSimulator(
        fleet, cache, policy="fifo", batch_sizes=(1, 2, 4, 8),
        max_wait_us=100.0,
        faults=[parse_inject("straggler@0:chip=0,factor=6")],
        fault_tolerance=FaultTolerance(max_retries=1),
        control=ControlConfig(interval_us=200.0, hedge_after_pct=70.0,
                              hedge_min_samples=8),
        telemetry=telemetry,
    )
    report = simulator.run(traffic.generate(),
                           traffic_info=traffic.describe())
    return simulator, report


def _traffic_scenario(kind, telemetry=None):
    """Fault-free run of one model under each traffic shape."""
    model = "squeezenet"
    fleet = Fleet.from_spec("M:2")
    cache = PlanCache(optimizer="dp")
    cache.warmup((model,), fleet.chip_names, BATCHES)
    rate = 0.8 * fleet_capacity_rps(cache, fleet, (model,), BATCHES)
    if kind == "poisson":
        traffic = PoissonTraffic(model, num_requests=120, seed=2,
                                 rate_rps=rate)
    elif kind == "bursty":
        traffic = BurstyTraffic(model, num_requests=120, seed=2,
                                rate_rps=rate)
    elif kind == "diurnal":
        traffic = DiurnalTraffic(model, num_requests=120, seed=2,
                                 base_rate_rps=rate)
    else:
        traffic = ClosedLoopTraffic(model, num_requests=120, seed=2,
                                    clients=6)
    simulator = ServingSimulator(
        fleet, cache, policy="latency", batch_sizes=BATCHES,
        max_wait_us=200.0, slos={model: 5.0}, telemetry=telemetry,
    )
    if kind == "closed":
        report = simulator.run(traffic, traffic_info=traffic.describe())
    else:
        report = simulator.run(traffic.generate(),
                               traffic_info=traffic.describe())
    return report


# ----------------------------------------------------------------------
# pure-observer contract
# ----------------------------------------------------------------------
class TestPureObserver:
    def test_telemetry_on_keeps_pre_pr7_pin(self):
        # ``_fault_scenario`` is a verbatim clone of the pinned
        # ``fault_retry_latency`` builder (cross-checked below): running it
        # with full telemetry on must still match the pre-telemetry capture
        # bit for bit once the new (additive) blocks are removed
        expected = _load_pins()["fault_retry_latency"]
        baseline = pre_pr7_scenarios()["fault_retry_latency"]()
        assert baseline.determinism_dict() == expected
        _, on = _fault_scenario(TelemetryConfig(
            timeline_interval_us=500.0, trace_every=5,
            streaming_percentiles=False))
        d_on = on.determinism_dict()
        d_on.pop("timeline")
        assert d_on == expected

    def test_telemetry_on_bit_identical_minus_new_blocks(self):
        _, off = _fault_scenario()
        _, on = _fault_scenario(TelemetryConfig(
            timeline_interval_us=500.0, trace_every=5))
        d_on = on.determinism_dict()
        timeline = d_on.pop("timeline")
        assert timeline  # the new block is present...
        assert d_on == off.determinism_dict()  # ...and everything else equal
        assert "telemetry" not in d_on  # hub snapshot is non-deterministic

    def test_telemetry_on_matches_pin_under_control_plane(self):
        _, off = _fault_scenario(control=True)
        _, on = _fault_scenario(
            TelemetryConfig(timeline_interval_us=500.0, trace_every=5),
            control=True)
        d_on = on.determinism_dict()
        d_on.pop("timeline")
        assert d_on == off.determinism_dict()

    def test_env_gate_drops_telemetry_wholesale(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_TELEMETRY", "0")
        assert not telemetry_enabled()
        simulator, report = _fault_scenario(TelemetryConfig(
            timeline_interval_us=500.0, trace_every=5))
        assert not report.timeline
        assert not report.telemetry
        assert simulator.telemetry_session is None
        assert not simulator.telemetry.active


# ----------------------------------------------------------------------
# timeline block: determinism, serialization, rendering
# ----------------------------------------------------------------------
class TestTimelineBlock:
    def test_fixed_seed_timeline_is_deterministic(self):
        cfg = TelemetryConfig(timeline_interval_us=500.0)
        _, first = _fault_scenario(cfg)
        _, second = _fault_scenario(cfg)
        assert first.timeline == second.timeline
        assert first.timeline  # non-trivial
        # the fault window is visible: some window saw the chip failure
        assert any(row["failures"] for row in first.timeline)
        assert any(row["recoveries"] for row in first.timeline)

    def test_timeline_in_as_dict_but_telemetry_popped_from_core(self):
        cfg = TelemetryConfig(timeline_interval_us=500.0)
        _, report = _fault_scenario(cfg)
        data = report.as_dict()
        assert "timeline" in data
        assert "telemetry" in data
        core = report.determinism_dict()
        assert "timeline" in core
        assert "telemetry" not in core
        assert "plan_cache" not in core

    def test_metrics_artifacts_byte_identical(self, tmp_path):
        cfg = TelemetryConfig(timeline_interval_us=500.0)
        _, first = _fault_scenario(cfg)
        _, second = _fault_scenario(cfg)
        blobs = []
        for run, report in enumerate((first, second)):
            json_path = str(tmp_path / f"metrics_{run}.json")
            csv_path = str(tmp_path / f"metrics_{run}.csv")
            dump_metrics_timeline(report.timeline, json_path)
            dump_metrics_timeline(report.timeline, csv_path)
            with open(json_path, "rb") as handle:
                json_bytes = handle.read()
            with open(csv_path, "rb") as handle:
                csv_bytes = handle.read()
            blobs.append((json_bytes, csv_bytes))
        assert blobs[0] == blobs[1]
        reloaded = json.loads(blobs[0][0])
        assert reloaded == first.timeline

    def test_csv_flattens_slo_block(self):
        rows = [{"window": 0, "t_ms": 0.0, "slo": {"b": 0.5, "a": 1.0}}]
        text = timeline_to_csv(rows)
        header, body = text.strip().splitlines()
        assert header == "window,t_ms,slo_a,slo_b"
        assert body == "0,0.000000,1.000000,0.500000"

    def test_csv_column_order_is_canonical_not_dict_order(self):
        # rows whose dict insertion order is scrambled still serialize in
        # the canonical column order with explicit float formatting
        rows = [
            {"p95_ms": 2.5, "window": 1, "arrivals": 3, "t_ms": 0.5,
             "completed": 2},
            {"completed": 4, "t_ms": 1.0, "window": 2, "p95_ms": 1.25,
             "arrivals": 5},
        ]
        text = timeline_to_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == "window,t_ms,arrivals,completed,p95_ms"
        assert lines[1] == "1,0.500000,3,2,2.500000"
        assert lines[2] == "2,1.000000,5,4,1.250000"

    def test_render_timeline_table(self):
        cfg = TelemetryConfig(timeline_interval_us=500.0)
        _, report = _fault_scenario(cfg)
        text = render_timeline(report.timeline)
        header = text.splitlines()[0]
        for column in ("window", "throughput_rps", "p95_ms", "attainment"):
            assert column in header
        # event columns appear because this scenario has faults/retries
        assert "failures" in header
        # but control columns stay hidden on a controller-off run
        assert "quarantines" not in header
        assert render_timeline([]) == "(empty timeline)"

    def test_control_columns_are_deltas(self):
        cfg = TelemetryConfig(timeline_interval_us=500.0)
        _, report = _fault_scenario(cfg, control=True)
        rows = report.timeline
        assert all("hedges" in row for row in rows)
        # per-window deltas sum back to the cumulative controller counter
        assert sum(row["hedges"] for row in rows) == \
            report.control["hedges"]

    def test_window_percentiles_track_exact_report(self):
        # sanity: the timeline's sketch percentiles live in the same
        # range as the terminal report's exact percentiles; windows use
        # the log2 histogram, so the bound is the factor-sqrt(2) one
        cfg = TelemetryConfig(timeline_interval_us=2000.0)
        _, report = _fault_scenario(cfg)
        busy = [row for row in report.timeline if row["completed"] >= 5]
        assert busy
        for row in busy:
            assert 0.0 < row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"]
            assert row["p99_ms"] <= report.latency_ms["max"] * LOG2_BOUND


# ----------------------------------------------------------------------
# streaming terminal report
# ----------------------------------------------------------------------
class TestStreamingReport:
    def test_streaming_report_within_bound_of_exact(self):
        _, exact = _fault_scenario()
        _, stream = _fault_scenario(TelemetryConfig(
            streaming_percentiles=True))
        assert stream.completed == exact.completed
        assert stream.throughput_rps == exact.throughput_rps
        assert stream.latency_ms["mean"] == pytest.approx(
            exact.latency_ms["mean"])
        assert stream.latency_ms["max"] == exact.latency_ms["max"]
        for key in ("p50", "p95", "p99"):
            assert abs(stream.latency_ms[key] - exact.latency_ms[key]) <= \
                P2_BOUND * exact.latency_ms[key]
        block_s = stream.slo["resnet18"]
        block_e = exact.slo["resnet18"]
        # attainment counts are exact (only percentiles are sketched)
        assert block_s["attainment"] == block_e["attainment"]
        assert block_s["completed"] == block_e["completed"]
        for key in ("p50_ms", "p95_ms", "p99_ms"):
            assert abs(block_s[key] - block_e[key]) <= P2_BOUND * block_e[key]

    @pytest.mark.parametrize("kind", ["poisson", "bursty", "diurnal",
                                      "closed"])
    def test_streaming_bound_holds_across_traffic_shapes(self, kind):
        # the documented P² contract, end to end on real serving latency
        # streams from every traffic generator (including closed-loop,
        # whose arrivals are response-dependent)
        exact = _traffic_scenario(kind)
        stream = _traffic_scenario(kind, TelemetryConfig(
            streaming_percentiles=True))
        assert stream.completed == exact.completed
        assert stream.throughput_rps == exact.throughput_rps
        for key in ("p50", "p95", "p99"):
            assert abs(stream.latency_ms[key] - exact.latency_ms[key]) <= \
                P2_BOUND * exact.latency_ms[key], (kind, key)
        assert stream.slo["squeezenet"]["attainment"] == \
            exact.slo["squeezenet"]["attainment"]

    def test_default_path_untouched_by_streaming_code(self):
        # the exact path is the default: no TelemetryConfig means no
        # sketches anywhere near the report floats
        simulator, report = _fault_scenario()
        assert simulator.telemetry_session is None
        assert not report.timeline


# ----------------------------------------------------------------------
# request lifecycle tracing
# ----------------------------------------------------------------------
class TestRequestTracing:
    def _trace(self, every=5, control=False):
        simulator, report = _fault_scenario(
            TelemetryConfig(trace_every=every), control=control)
        session = simulator.telemetry_session
        return session.tracer, report

    def test_fixed_seed_trace_byte_identical(self, tmp_path):
        blobs = []
        for run in range(2):
            tracer, _ = self._trace()
            path = str(tmp_path / f"trace_{run}.json")
            dump_chrome_trace(tracer.chrome_trace(), path)
            with open(path, "rb") as handle:
                blobs.append(handle.read())
        assert blobs[0] == blobs[1]

    def test_chrome_trace_schema(self):
        tracer, _ = self._trace()
        trace = tracer.chrome_trace()
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        assert events
        timestamps = [event["ts"] for event in events]
        assert timestamps == sorted(timestamps)
        for event in events:
            assert event["ph"] in ("X", "i")  # complete spans + instants
            assert event["ts"] >= 0.0
            assert isinstance(event["tid"], int)
            assert event["pid"] == 0
            if event["ph"] == "X":
                assert event["dur"] >= 0.0
        # span names and attributes carry the lifecycle detail
        names = {event["name"] for event in events}
        assert "queued" in names and "service" in names
        service = [e for e in events if e["name"] == "service"]
        for event in service:
            for key in ("chip", "model", "batch", "plan_switch"):
                assert key in event["args"]

    def test_sampling_memory_bound(self):
        num_requests = 60
        for every in (1, 5, 7, 60):
            tracer, report = self._trace(every=every)
            bound = math.ceil(num_requests / every)
            assert len(tracer.traced_requests) <= bound
            assert all(rid % every == 0 for rid in tracer.traced_requests)

    def test_queue_span_outcomes(self):
        tracer, report = self._trace(every=1)
        queued = [e for e in tracer.chrome_trace()["traceEvents"]
                  if e["name"] == "queued"]
        outcomes = {event["args"]["outcome"] for event in queued}
        assert "dispatched" in outcomes
        # this scenario sheds under its queue-depth cap
        assert report.shed > 0
        assert "shed" in outcomes

    def test_hedge_spans_marked(self):
        simulator, report = _hedge_scenario(TelemetryConfig(trace_every=1))
        assert report.control["hedges"] > 0
        tracer = simulator.telemetry_session.tracer
        hedge_spans = [e for e in tracer.chrome_trace()["traceEvents"]
                       if e["name"] == "service"
                       and e["args"].get("hedge")]
        assert len(hedge_spans) > 0

    def test_rejects_nonpositive_stride(self):
        from repro.serve import RequestTracer

        with pytest.raises(ValueError):
            RequestTracer(0)


# ----------------------------------------------------------------------
# config + session plumbing
# ----------------------------------------------------------------------
class TestTelemetryConfig:
    def test_default_inactive(self):
        config = TelemetryConfig()
        assert not config.active

    def test_each_knob_activates(self):
        assert TelemetryConfig(timeline_interval_us=100.0).active
        assert TelemetryConfig(trace_every=3).active
        assert TelemetryConfig(streaming_percentiles=True).active

    def test_validation(self):
        with pytest.raises(ValueError):
            TelemetryConfig(timeline_interval_us=-1.0)
        with pytest.raises(ValueError):
            TelemetryConfig(trace_every=-2)

    def test_session_parts_follow_config(self):
        session = TelemetrySession(TelemetryConfig(trace_every=4))
        assert session.tracer is not None
        assert session.timeline is None
        assert session.stream is None
        full = TelemetrySession(TelemetryConfig(
            timeline_interval_us=10.0, trace_every=2,
            streaming_percentiles=True), slo_models=("m",))
        assert full.timeline is not None
        assert full.tracer is not None
        assert full.stream is not None

    def test_report_telemetry_block_shape(self):
        _, report = _fault_scenario(TelemetryConfig(
            timeline_interval_us=500.0, trace_every=5))
        block = report.telemetry
        assert set(block) == {"counters", "gauges", "histograms", "config"}
        assert block["counters"]["arrivals"] == 60
        assert block["counters"]["completions"] == report.completed
        assert block["gauges"]["fleet"]["chips"] == 2
        assert "plan_cache" in block["gauges"]
        assert block["gauges"]["faults"]["failures"] == report.failures
        assert block["histograms"]["latency_ns"]["count"] == report.completed
        assert block["config"]["timeline_interval_us"] == 500.0


# ----------------------------------------------------------------------
# incremental window streaming (the observatory's flush path)
# ----------------------------------------------------------------------
class TestIncrementalFlush:
    def _feed(self, timeline):
        """A note/sample schedule spanning several windows, with a stall
        (no completions) in window 2 and a dispatch-time future
        completion landing past the current instant."""
        timeline.start(0.0)
        timeline.note_arrival(100.0)
        timeline.note_completion(400.0, 300.0, "m", True)
        timeline.note_completion(2600.0, 700.0, "m", False)  # future ts
        timeline.sample(0, queue_depth=3, utilisation=0.9)
        timeline.note_arrival(1200.0)
        timeline.sample(1, queue_depth=2, utilisation=0.6)
        timeline.note_arrival(2300.0)
        timeline.sample(2, queue_depth=1, utilisation=0.4)
        timeline.note_arrival(3400.0)
        timeline.note_completion(3600.0, 500.0, "m", True)

    def test_flush_ready_then_rows_matches_one_shot(self):
        batch = TimelineAccumulator(1000.0, slo_models=("m",))
        self._feed(batch)
        expected = batch.rows(4000.0, queue_depth=0, utilisation=0.1)

        streamed = TimelineAccumulator(1000.0, slo_models=("m",))
        streamed.start(0.0)
        streamed.note_arrival(100.0)
        streamed.note_completion(400.0, 300.0, "m", True)
        streamed.note_completion(2600.0, 700.0, "m", False)
        streamed.sample(0, queue_depth=3, utilisation=0.9)
        early = streamed.flush_ready(400.0)  # floor too low: nothing final
        assert early == []
        streamed.note_arrival(1200.0)
        streamed.sample(1, queue_depth=2, utilisation=0.6)
        first = streamed.flush_ready(1500.0)
        assert [row["window"] for row in first] == [0]
        streamed.note_arrival(2300.0)
        streamed.sample(2, queue_depth=1, utilisation=0.4)
        second = streamed.flush_ready(2600.0)
        assert [row["window"] for row in second] == [1]
        streamed.note_arrival(3400.0)
        streamed.note_completion(3600.0, 500.0, "m", True)
        rows = streamed.rows(4000.0, queue_depth=0, utilisation=0.1)
        assert json.dumps(rows, sort_keys=True) == \
            json.dumps(expected, sort_keys=True)
        # the mid-run flushes streamed a strict prefix, exactly once each
        assert rows[:2] == first + second

    def test_flushed_windows_are_dropped_from_memory(self):
        timeline = TimelineAccumulator(1000.0)
        timeline.start(0.0)
        for k in range(6):
            timeline.note_arrival(k * 1000.0 + 100.0)
            timeline.sample(k, queue_depth=0, utilisation=0.0)
        timeline.flush_ready(6000.0)
        # every flushed window's accumulator is gone (bounded memory)
        assert all(index >= 5 for index in timeline._windows)
        # ...and a late note after the flush still lands correctly
        timeline.note_arrival(6100.0)
        rows = timeline.rows(6200.0, queue_depth=0, utilisation=0.0)
        assert rows[6]["arrivals"] == 1

    def test_streamed_windows_equal_final_timeline(self):
        # full stack: a sink-attached fault scenario with a fine window —
        # the streamed rows, concatenated, are byte-identical to the
        # report's end-of-run timeline block
        streamed = []
        kinds = []

        def sink(kind, payload):
            kinds.append(kind)
            if kind == "window":
                streamed.append(payload)

        _, report = _fault_scenario(
            TelemetryConfig(timeline_interval_us=150.0), sink=sink)
        assert json.dumps(streamed, sort_keys=True) == \
            json.dumps(report.timeline, sort_keys=True)
        # windows flushed mid-run, not just at finish: every mid-run
        # flush batch is chased by a hub snapshot, and at least one
        # window message precedes the last hub message
        assert kinds.count("hub") >= 1
        assert kinds.index("window") < len(kinds) - 1
        # fault events streamed live too (this scenario injects two)
        assert kinds.count("event") >= 2

    def test_sink_attached_run_is_bit_identical(self):
        cfg = TelemetryConfig(timeline_interval_us=150.0)
        _, off = _fault_scenario(cfg)
        _, on = _fault_scenario(cfg, sink=lambda kind, payload: None)
        assert on.determinism_dict() == off.determinism_dict()


# ----------------------------------------------------------------------
# per-window conservation under the hardest accounting regime
# ----------------------------------------------------------------------
class TestWindowConservation:
    def test_closed_loop_hedged_windows_conserve_fates(self):
        cfg = TelemetryConfig(timeline_interval_us=300.0)
        _, report = _closed_hedge_scenario(cfg)
        rows = report.timeline
        assert len(rows) >= 2
        # the scenario actually exercises the hard paths
        assert report.control["hedges"] > 0
        assert report.timeouts + report.retries > 0

        def total(key):
            return sum(row[key] for row in rows)

        # window sums reproduce the report's fate counters exactly:
        # hedged requests complete once, retries are not re-arrivals
        assert total("arrivals") == report.num_requests
        assert total("completed") == report.completed
        assert total("shed") == report.shed
        assert total("timeouts") == report.timeouts
        assert total("lost") == report.lost
        assert total("hedges") == report.control["hedges"]
        # every offered request met exactly one fate (closed-loop runs
        # drain completely: nothing is left queued at the end)
        assert (report.completed + report.shed + report.timeouts
                + report.lost) == report.num_requests

    def test_cumulative_fates_never_exceed_cumulative_arrivals(self):
        cfg = TelemetryConfig(timeline_interval_us=300.0)
        _, report = _closed_hedge_scenario(cfg)
        seen = fated = 0
        for row in report.timeline:
            seen += row["arrivals"]
            fated += (row["completed"] + row["shed"] + row["timeouts"]
                      + row["lost"])
            # a request's fate can only land at or after its arrival
            # (a completion is keyed by its chip-free timestamp, which is
            # >= the arrival's)
            assert fated <= seen, row["window"]


# ----------------------------------------------------------------------
# timeline rendering at terminal width: middle elision
# ----------------------------------------------------------------------
class TestRenderTimelineElision:
    def _rows(self, count):
        return [
            {"window": k, "t_ms": 0.5 * k, "arrivals": k, "completed": k,
             "throughput_rps": 1.0, "p50_ms": 1.0, "p95_ms": 2.0,
             "p99_ms": 3.0, "queue_depth": 0, "utilisation": 0.5,
             "attainment": 1.0}
            for k in range(count)
        ]

    def test_elides_middle_keeps_head_and_tail(self):
        text = render_timeline(self._rows(20), max_rows=6)
        lines = text.splitlines()
        # header + separator + 6 kept rows + 1 marker
        assert len(lines) == 9
        assert lines[5].strip() == "... 14 windows elided ..."
        body = [line for line in lines[2:] if "elided" not in line]
        first_windows = [int(line.split()[0]) for line in body]
        assert first_windows == [0, 1, 2, 17, 18, 19]

    def test_odd_budget_favours_the_head(self):
        text = render_timeline(self._rows(10), max_rows=5)
        lines = text.splitlines()
        assert lines[2 + 3].strip() == "... 5 windows elided ..."
        body = [line for line in lines[2:] if "elided" not in line]
        assert [int(line.split()[0]) for line in body] == [0, 1, 2, 8, 9]

    def test_no_elision_when_rows_fit(self):
        rows = self._rows(6)
        assert render_timeline(rows, max_rows=6) == render_timeline(rows)
        assert render_timeline(rows, max_rows=10) == render_timeline(rows)
        assert "elided" not in render_timeline(rows, max_rows=6)

    def test_zero_disables_and_tiny_budget_keeps_two(self):
        rows = self._rows(12)
        assert "elided" not in render_timeline(rows, max_rows=0)
        text = render_timeline(rows, max_rows=1)
        body = [line for line in text.splitlines()[2:]
                if "elided" not in line]
        # a budget below two still shows the first and last window
        assert [int(line.split()[0]) for line in body] == [0, 11]


# ----------------------------------------------------------------------
# golden CSV artifact
# ----------------------------------------------------------------------
class TestGoldenCsv:
    def test_fault_scenario_csv_matches_golden_file(self):
        # the committed golden file pins column order *and* cell
        # formatting: a drift in either (dict iteration order, float
        # repr, a renamed column) fails here byte-for-byte
        path = os.path.join(os.path.dirname(__file__), "data",
                            "timeline_golden.csv")
        with open(path, "r", encoding="utf-8", newline="") as handle:
            golden = handle.read()
        _, report = _fault_scenario(
            TelemetryConfig(timeline_interval_us=500.0), control=True)
        assert timeline_to_csv(report.timeline) == golden
