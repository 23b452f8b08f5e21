"""Tests for fault injection and fault-tolerant serving (:mod:`repro.serve.faults`).

Covers the declarative fault surface (``parse_inject``/``materialize``), the
:class:`FaultTolerance` knobs, and the simulator's survival machinery: chip
failure + retry, stragglers, degraded DRAM re-pricing, timeouts, admission
control, SLO-driven degradation, and the request-conservation invariant.
The captured fault-free and controller-off reports are pinned separately in
``tests/test_serve.py``.
"""

import dataclasses

import pytest

from repro.core.fitness import FitnessMode
from repro.hardware.dram import LPDDR3_8GB
from repro.serve import (
    ClosedLoopTraffic,
    CompiledPlan,
    FaultEvent,
    FaultTolerance,
    Fleet,
    PlanCache,
    PlanCacheStats,
    PlanKey,
    PoissonTraffic,
    Request,
    ServingSimulator,
    degraded_dram,
    faults_enabled,
    fleet_capacity_rps,
    materialize,
    parse_inject,
    retry_request,
)
from repro.serve.faults import (
    ACTION_DRAM,
    ACTION_FAIL,
    ACTION_RECOVER,
    ACTION_STRAGGLE,
)

BATCHES = (1, 2, 4, 8, 16)


class _ModelStubCache:
    """Hand-built plans keyed by (model, chip, batch) — for event-order tests.

    Duck-types the slice of :class:`PlanCache` the simulator consumes, like
    ``test_serve._StubPlanCache`` but model-aware, so two models can have
    different latency profiles on the same chip class.
    """

    def __init__(self, latencies, energy_pj=1000.0):
        self.optimizer = "stub"
        self.mode = FitnessMode.LATENCY
        self._plans = {}
        for (model, chip, batch), latency in latencies.items():
            key = PlanKey(model=model, chip=chip, dram=LPDDR3_8GB, batch=batch,
                          mode=FitnessMode.LATENCY, optimizer="stub")
            self._plans[(model, chip, batch)] = CompiledPlan(
                key=key, boundaries=(0,), num_partitions=1,
                latency_ns=float(latency), energy_pj=energy_pj,
                weight_replace_ns=0.0, fill_ns=float(latency),
                bottleneck_ns=0.0, best_fitness=float(latency),
                exact=True, evaluations=0,
            )

    def get(self, model, chip, batch):
        return self._plans[(model, chip, batch)]

    @property
    def stats(self):
        return PlanCacheStats()


def _fault_run(faults=None, ft=None, fleet_spec="S:2", model="squeezenet",
               requests=60, seed=0, policy="latency", max_wait_us=100.0,
               rate_scale=0.7, cache=None, slos=None, switch_cost=False):
    cache = cache if cache is not None else PlanCache(optimizer="dp")
    fleet = Fleet.from_spec(fleet_spec)
    cache.warmup([model], fleet.chip_names, BATCHES)
    rate = rate_scale * fleet_capacity_rps(cache, fleet, (model,), BATCHES)
    traffic = PoissonTraffic(model, num_requests=requests, seed=seed,
                             rate_rps=rate)
    simulator = ServingSimulator(fleet, cache, policy=policy,
                                 batch_sizes=BATCHES, max_wait_us=max_wait_us,
                                 switch_cost=switch_cost, slos=slos,
                                 faults=faults, fault_tolerance=ft)
    return simulator.run(traffic.generate(), traffic_info=traffic.describe())


# ----------------------------------------------------------------------
# --inject parsing and event validation
# ----------------------------------------------------------------------
class TestParseInject:
    def test_chip_fail_window(self):
        event = parse_inject("chip_fail@500:chip=0,until=1500")
        assert event.kind == "chip_fail"
        assert event.at_us == 500.0
        assert event.chip == 0
        assert event.until_us == 1500.0

    def test_straggler_factor(self):
        event = parse_inject("straggler@200:chip=1,factor=2.5,until=900")
        assert event.kind == "straggler"
        assert event.chip == 1
        assert event.factor == 2.5

    def test_chaos(self):
        event = parse_inject("chaos@0:seed=7,count=3,mtbf_us=3000,mttr_us=500")
        assert event.kind == "chaos"
        assert event.seed == 7
        assert event.count == 3
        assert event.mtbf_us == 3000.0
        assert event.mttr_us == 500.0
        assert event.chip == -1  # drawn uniformly

    @pytest.mark.parametrize("spec", [
        "chip_fail",                          # no @time
        "@500:chip=0",                        # no kind
        "chip_fail@soon:chip=0",              # time not a number
        "chip_fail@500:chip",                 # not key=value
        "chip_fail@500:chip=zero",            # value not a number
        "chip_fail@500:color=red",            # unknown key
        "bogus@500:chip=0",                   # unknown kind
        "chip_fail@500",                      # missing chip=
        "chip_fail@-5:chip=0",                # negative time
        "chip_fail@500:chip=0,until=100",     # window ends before it starts
        "straggler@500:chip=0,factor=0",      # non-positive factor
        "chaos@0:seed=7",                     # chaos without count/mtbf/mttr
        "chaos@0:count=3,mtbf_us=0,mttr_us=5",
    ])
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_inject(spec)

    def test_error_messages_are_actionable(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            parse_inject("bogus@500:chip=0")
        with pytest.raises(ValueError, match="unknown key"):
            parse_inject("chip_fail@500:color=red")
        with pytest.raises(ValueError, match="not a number"):
            parse_inject("chip_fail@soon:chip=0")


# ----------------------------------------------------------------------
# Schedule materialisation
# ----------------------------------------------------------------------
class TestMaterialize:
    def test_window_becomes_recover_entry(self):
        schedule = materialize(
            [parse_inject("chip_fail@500:chip=1,until=1500")], num_chips=2)
        assert schedule == [(500.0, ACTION_FAIL, 1, 1.0),
                            (1500.0, ACTION_RECOVER, 1, 1.0)]

    def test_straggler_and_dram_windows_restore(self):
        schedule = materialize(
            [parse_inject("straggler@100:chip=0,factor=3,until=200"),
             parse_inject("dram_degrade@150:chip=0,factor=2,until=400")],
            num_chips=1)
        assert schedule == [
            (100.0, ACTION_STRAGGLE, 0, 3.0),
            (150.0, ACTION_DRAM, 0, 2.0),
            (200.0, ACTION_STRAGGLE, 0, 1.0),
            (400.0, ACTION_DRAM, 0, 1.0),
        ]

    def test_sorted_by_time_then_chip(self):
        schedule = materialize(
            [parse_inject("chip_fail@500:chip=1"),
             parse_inject("chip_fail@500:chip=0"),
             parse_inject("chip_fail@100:chip=1")], num_chips=2)
        assert [(t, c) for t, _, c, _ in schedule] == [
            (100.0, 1), (500.0, 0), (500.0, 1)]

    def test_chip_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            materialize([parse_inject("chip_fail@500:chip=9")], num_chips=2)

    def test_chaos_is_seed_deterministic(self):
        events = [parse_inject("chaos@0:seed=7,count=3,mtbf_us=3000,mttr_us=500")]
        first = materialize(events, num_chips=4)
        second = materialize(events, num_chips=4)
        assert first == second
        # every drawn failure pairs with its recovery
        assert len(first) == 6
        assert sorted(a for _, a, _, _ in first) == \
            [ACTION_FAIL] * 3 + [ACTION_RECOVER] * 3
        other = materialize(
            [parse_inject("chaos@0:seed=8,count=3,mtbf_us=3000,mttr_us=500")],
            num_chips=4)
        assert other != first

    def test_chaos_respects_pinned_chip(self):
        schedule = materialize(
            [parse_inject("chaos@0:seed=7,count=4,mtbf_us=100,mttr_us=10,chip=1")],
            num_chips=3)
        assert {chip for _, _, chip, _ in schedule} == {1}


# ----------------------------------------------------------------------
# FaultTolerance knobs
# ----------------------------------------------------------------------
class TestFaultTolerance:
    def test_defaults_inactive(self):
        assert not FaultTolerance().active

    @pytest.mark.parametrize("kwargs", [
        {"timeout_us": 1.0}, {"max_retries": 1}, {"shed_queue_depth": 4},
        {"shed_wait_us": 10.0}, {"degrade_below": 0.9},
    ])
    def test_any_knob_activates(self, kwargs):
        assert FaultTolerance(**kwargs).active

    @pytest.mark.parametrize("kwargs", [
        {"timeout_us": -1.0}, {"max_retries": -1}, {"retry_backoff_us": -1.0},
        {"shed_queue_depth": -1}, {"shed_wait_us": -1.0},
        {"degrade_below": -0.1}, {"degrade_below": 1.5},
    ])
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultTolerance(**kwargs)

    def test_backoff_doubles_per_attempt(self):
        ft = FaultTolerance(retry_backoff_us=50.0)
        assert ft.backoff_ns(0) == 50_000.0
        assert ft.backoff_ns(1) == 100_000.0
        assert ft.backoff_ns(2) == 200_000.0

    def test_retry_request_preserves_identity(self):
        request = Request(request_id=7, model="squeezenet", arrival_ns=100.0)
        retried = retry_request(request, 5_000.0)
        assert retried.request_id == 7
        assert retried.model == "squeezenet"
        assert retried.arrival_ns == 5_000.0
        assert retried.attempt == 1
        assert retry_request(retried, 9_000.0).attempt == 2


# ----------------------------------------------------------------------
# Chip failure and retry
# ----------------------------------------------------------------------
class TestChipFailure:
    FAULTS = [parse_inject("chip_fail@300:chip=0,until=3000")]

    def test_retries_complete_every_request(self):
        report = _fault_run(faults=self.FAULTS, ft=FaultTolerance(max_retries=2))
        assert report.fault_tolerance
        assert report.failures == 1
        assert report.lost == 0
        assert report.completed == report.num_requests == 60
        assert report.retries >= 1
        assert report.lost_work_ms > 0.0
        assert report.availability < 1.0
        row = report.per_chip[0]
        assert row["failures"] == 1
        assert row["downtime_ms"] > 0.0

    def test_fifo_without_retry_loses_riders(self):
        # the acceptance scenario: same failure, no retry budget — the
        # batch in flight when the chip dies takes its riders down with it
        report = _fault_run(faults=self.FAULTS, policy="fifo")
        assert report.failures == 1
        assert report.lost >= 1
        assert report.completed < report.num_requests
        assert report.completed + report.lost == report.num_requests
        assert report.per_chip[0]["lost_requests"] == report.lost

    def test_failure_at_start_halves_availability(self):
        # chip 0 is down before anything is dispatched (fault orders before
        # the same-instant arrival) and never recovers: the survivor serves
        # everything and fleet availability sits at ~1/2
        report = _fault_run(faults=[parse_inject("chip_fail@0:chip=0")],
                            ft=FaultTolerance(max_retries=1))
        assert report.completed == report.num_requests == 60
        assert report.lost == 0
        assert report.per_chip[0]["requests"] == 0
        assert report.per_chip[0]["downtime_ms"] == \
            pytest.approx(report.makespan_ms)
        assert 0.45 <= report.availability <= 0.55

    def test_fixed_seed_fault_scenario_replays_identically(self):
        first = _fault_run(faults=self.FAULTS, ft=FaultTolerance(max_retries=2))
        second = _fault_run(faults=self.FAULTS, ft=FaultTolerance(max_retries=2))
        assert first.determinism_dict() == second.determinism_dict()

    def test_chaos_run_replays_identically(self):
        faults = [parse_inject("chaos@0:seed=7,count=2,mtbf_us=3000,mttr_us=500")]
        ft = FaultTolerance(max_retries=2)
        first = _fault_run(faults=faults, ft=ft)
        second = _fault_run(faults=faults, ft=ft)
        assert first.determinism_dict() == second.determinism_dict()
        assert first.failures >= 1
        other = _fault_run(
            faults=[parse_inject("chaos@0:seed=8,count=2,mtbf_us=3000,mttr_us=500")],
            ft=ft)
        assert other.determinism_dict() != first.determinism_dict()

    def test_closed_loop_clients_survive_failure(self):
        # a failure mid-run must not deadlock the client population: lost
        # riders retry, and their eventual completion re-arms the client
        cache = PlanCache(optimizer="dp")
        fleet = Fleet.from_spec("S:2")
        cache.warmup(["squeezenet"], fleet.chip_names, BATCHES)
        traffic = ClosedLoopTraffic("squeezenet", num_requests=30, seed=5,
                                    clients=3, concurrency=1,
                                    mean_think_s=0.0002)
        simulator = ServingSimulator(
            fleet, cache, policy="latency", batch_sizes=BATCHES,
            max_wait_us=100.0, switch_cost=False,
            faults=[parse_inject("chip_fail@200:chip=0,until=2000")],
            fault_tolerance=FaultTolerance(max_retries=2),
        )
        report = simulator.run(traffic)
        assert report.completed == report.num_requests == 30
        assert report.traffic["traffic"] == "closed"

    def test_out_of_range_chip_fails_at_construction(self):
        cache = PlanCache(optimizer="dp")
        with pytest.raises(ValueError, match="out of range"):
            ServingSimulator(Fleet.homogeneous("S"), cache,
                             faults=[parse_inject("chip_fail@100:chip=5")])


# ----------------------------------------------------------------------
# Stragglers and degraded DRAM
# ----------------------------------------------------------------------
class TestSlowdownFaults:
    def test_straggler_raises_latency(self):
        slow = _fault_run(fleet_spec="S:1",
                          faults=[parse_inject("straggler@0:chip=0,factor=2")])
        clean = _fault_run(fleet_spec="S:1")
        assert slow.failures == 0
        assert slow.availability == 1.0
        assert slow.latency_ms["mean"] > clean.latency_ms["mean"]
        assert slow.completed == clean.completed == 60

    def test_straggler_window_restores_speed(self):
        forever = _fault_run(fleet_spec="S:1",
                             faults=[parse_inject("straggler@0:chip=0,factor=4")])
        windowed = _fault_run(
            fleet_spec="S:1",
            faults=[parse_inject("straggler@0:chip=0,factor=4,until=500")])
        assert windowed.latency_ms["mean"] < forever.latency_ms["mean"]

    def test_degraded_dram_config_scales_timings(self):
        degraded = degraded_dram(LPDDR3_8GB, 2.0)
        assert degraded.name == LPDDR3_8GB.name + "@x2"
        assert degraded.clock_ns == 2 * LPDDR3_8GB.clock_ns
        assert degraded.t_cas_ns == 2 * LPDDR3_8GB.t_cas_ns
        assert degraded.capacity_bytes == LPDDR3_8GB.capacity_bytes
        # factor 1 is the identity, not a new config (and a new cache key)
        assert degraded_dram(LPDDR3_8GB, 1.0) is LPDDR3_8GB
        with pytest.raises(ValueError):
            degraded_dram(LPDDR3_8GB, 0.0)

    def test_degraded_dram_reprices_plan_through_cache(self):
        cache = PlanCache(optimizer="dp")
        base = cache.get("lenet5", "S", 1)
        slow = cache.get("lenet5", "S", 1, dram=degraded_dram(LPDDR3_8GB, 4.0))
        assert slow.key != base.key
        assert slow.key.dram.name.endswith("@x4")
        # slower DRAM means slower weight loads: the recompiled plan's
        # latency must reflect it
        assert slow.latency_ns > base.latency_ns

    def test_dram_fault_slows_serving(self):
        slow = _fault_run(
            fleet_spec="S:1",
            faults=[parse_inject("dram_degrade@0:chip=0,factor=4")])
        clean = _fault_run(fleet_spec="S:1")
        assert slow.latency_ms["mean"] > clean.latency_ms["mean"]
        assert slow.completed == 60


# ----------------------------------------------------------------------
# Timeouts, shedding, degradation
# ----------------------------------------------------------------------
class TestOverloadControl:
    def test_timeouts_account_every_request(self):
        report = _fault_run(fleet_spec="S:1", rate_scale=3.0,
                            ft=FaultTolerance(timeout_us=1000.0))
        assert report.timeouts > 0
        assert report.completed + report.timeouts == report.num_requests

    def test_timed_out_requests_retry_first(self):
        no_retry = _fault_run(fleet_spec="S:1", rate_scale=3.0,
                              ft=FaultTolerance(timeout_us=1000.0))
        with_retry = _fault_run(
            fleet_spec="S:1", rate_scale=3.0,
            ft=FaultTolerance(timeout_us=1000.0, max_retries=3))
        assert with_retry.retries > 0
        assert with_retry.completed + with_retry.timeouts == \
            with_retry.num_requests
        # a retry budget can only improve on abandoning outright
        assert with_retry.completed >= no_retry.completed

    def test_queue_depth_shedding(self):
        report = _fault_run(fleet_spec="S:1", rate_scale=3.0,
                            ft=FaultTolerance(shed_queue_depth=4))
        assert report.shed > 0
        assert report.completed + report.shed == report.num_requests
        # admission control bounds the backlog it polices
        assert report.queue_depth["max"] <= 4

    def test_wait_budget_shedding(self):
        report = _fault_run(fleet_spec="S:1", rate_scale=3.0,
                            ft=FaultTolerance(shed_wait_us=200.0))
        assert report.shed > 0
        assert report.completed + report.shed == report.num_requests

    def test_all_chips_down_sheds_everything(self):
        report = _fault_run(fleet_spec="S:1",
                            faults=[parse_inject("chip_fail@0:chip=0")],
                            ft=FaultTolerance(shed_wait_us=500.0))
        assert report.completed == 0
        assert report.shed == report.num_requests == 60
        assert report.availability < 0.1

    def test_conservation_under_combined_faults(self):
        # every offered request has exactly one fate
        report = _fault_run(
            fleet_spec="S:1", rate_scale=2.5,
            faults=[parse_inject("chip_fail@500:chip=0,until=1500")],
            ft=FaultTolerance(timeout_us=1500.0, max_retries=1,
                              shed_queue_depth=8))
        assert report.completed + report.shed + report.timeouts + \
            report.lost == report.num_requests
        assert min(report.completed, report.shed) >= 0

    def test_slo_degradation_bypasses_batching(self):
        report = _fault_run(fleet_spec="S:1", max_wait_us=500.0,
                            slos={"squeezenet": 1e-6},
                            ft=FaultTolerance(degrade_below=0.9))
        # a picosecond target is never attained: after the first completion
        # the model is behind SLO and dispatches degrade to latency-optimal
        assert report.degraded_dispatches > 0
        assert report.completed == report.num_requests == 60


# ----------------------------------------------------------------------
# Downtime accounting: outage windows clamp to the simulation horizon
# ----------------------------------------------------------------------
class TestDowntimeClamp:
    def test_recovery_past_horizon_clamps_downtime(self):
        # the recovery is scheduled long after the last request completes:
        # the naive (recover - fail) charge would dwarf the makespan, but
        # a chip can never be down for longer than the run existed
        report = _fault_run(
            faults=[parse_inject("chip_fail@500:chip=0,until=10000000")],
            ft=FaultTolerance(max_retries=2))
        assert report.completed == report.num_requests
        row = report.per_chip[0]
        assert row["downtime_ms"] > 0.0
        assert row["downtime_ms"] <= report.makespan_ms
        assert 0.0 <= report.availability <= 1.0

    def test_downtime_never_exceeds_wall_time(self):
        # chaos schedules can also straddle the horizon; the invariant
        # holds for every chip whatever the window mix
        report = _fault_run(
            faults=[parse_inject(
                "chaos@0:seed=3,count=4,mtbf_us=2000,mttr_us=8000")],
            ft=FaultTolerance(max_retries=3, shed_wait_us=4000.0))
        for row in report.per_chip:
            assert 0.0 <= row["downtime_ms"] <= report.makespan_ms

    def test_within_horizon_windows_sum_exactly(self):
        # both outage windows close before the run ends: downtime is the
        # plain sum of the scripted windows, untouched by the clamp
        report = _fault_run(
            faults=[parse_inject("chip_fail@300:chip=0,until=800"),
                    parse_inject("chip_fail@2000:chip=0,until=2600")],
            ft=FaultTolerance(max_retries=2))
        assert report.per_chip[0]["downtime_ms"] == pytest.approx(1.1)
        assert report.per_chip[0]["failures"] == 2


# ----------------------------------------------------------------------
# Retry-aware queue priority
# ----------------------------------------------------------------------
class TestRetryPriority:
    SCENARIO = dict(fleet_spec="S:1", rate_scale=2.0, policy="fifo",
                    faults=[parse_inject("chip_fail@300:chip=0,until=2500")])

    def test_defaults_off(self):
        assert not FaultTolerance().retry_priority
        # the knob alone doesn't make the config active: it only changes
        # how retries (granted by other knobs) are ordered
        assert not FaultTolerance(retry_priority=True).active

    def test_final_attempt_jumps_the_queue(self):
        # a single chip fails mid-backlog and recovers into a full queue:
        # plain FIFO re-queues the retried requests behind fresh arrivals
        # and their timeout clocks (started at first arrival) expire in
        # line; priority ordering serves final attempts first, so more of
        # them complete instead of being abandoned
        ft = FaultTolerance(timeout_us=1500.0, max_retries=2)
        plain = _fault_run(ft=ft, **self.SCENARIO)
        prio = _fault_run(ft=dataclasses.replace(ft, retry_priority=True),
                          **self.SCENARIO)
        abandoned_plain = plain.timeouts + plain.lost
        abandoned_prio = prio.timeouts + prio.lost
        assert abandoned_prio < abandoned_plain
        assert prio.completed > plain.completed
        for report in (plain, prio):
            assert report.completed + report.shed + report.timeouts + \
                report.lost == report.num_requests

    def test_priority_run_replays_identically(self):
        ft = FaultTolerance(timeout_us=1500.0, max_retries=2,
                            retry_priority=True)
        first = _fault_run(ft=ft, **self.SCENARIO)
        second = _fault_run(ft=ft, **self.SCENARIO)
        assert first.determinism_dict() == second.determinism_dict()


# ----------------------------------------------------------------------
# Same-instant determinism: chip-id tie-break for chip-bound events
# ----------------------------------------------------------------------
class TestEventTieBreak:
    def test_same_instant_frees_resolve_by_chip_id(self):
        # Regression: two chips free at the same instant with one queued
        # request.  Model "a" routes to M#1 first (faster there), model "b"
        # then takes S#0; both dispatch at t=0 and free at t=100µs — but
        # M#1's chip-free event was PUSHED first.  The total order must
        # resolve the tie by chip id (S#0 first), not by heap insertion
        # order, so the waiting request lands on S#0 deterministically.
        cache = _ModelStubCache({
            ("a", "S", 1): 150_000.0, ("a", "M", 1): 100_000.0,
            ("b", "S", 1): 100_000.0, ("b", "M", 1): 100_000.0,
        })
        fleet = Fleet.from_spec("S:1,M:1")
        requests = [
            Request(request_id=0, model="a", arrival_ns=0.0),
            Request(request_id=1, model="b", arrival_ns=0.0),
            Request(request_id=2, model="b", arrival_ns=50_000.0),
        ]
        simulator = ServingSimulator(
            fleet, cache, policy="latency", batch_sizes=(1,),
            max_wait_us=0.0, switch_cost=False,
            # any active knob forces the fault-aware path, where chips are
            # redispatched at their chip-free event — the order-sensitive case
            fault_tolerance=FaultTolerance(max_retries=1),
        )
        report = simulator.run(requests, traffic_info={"traffic": "unit"})
        assert report.completed == 3
        assert report.per_chip[0]["chip"] == "S#0"
        assert report.per_chip[0]["requests"] == 2
        assert report.per_chip[1]["requests"] == 1


# ----------------------------------------------------------------------
# Environment gate and report shape
# ----------------------------------------------------------------------
class TestFaultGateAndReport:
    def test_env_gate(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE_FAULTS", raising=False)
        assert faults_enabled()
        monkeypatch.setenv("REPRO_SERVE_FAULTS", "1")
        assert faults_enabled()
        monkeypatch.setenv("REPRO_SERVE_FAULTS", "0")
        assert not faults_enabled()

    def test_env_gate_drops_injection(self, monkeypatch):
        # REPRO_SERVE_FAULTS=0 is the fault-free twin of a scenario: the
        # injected events vanish and the run is bit-identical to one that
        # never specified them (including the legacy report shape)
        monkeypatch.setenv("REPRO_SERVE_FAULTS", "0")
        gated = _fault_run(faults=[parse_inject("chip_fail@300:chip=0")])
        monkeypatch.delenv("REPRO_SERVE_FAULTS")
        clean = _fault_run()
        assert gated.determinism_dict() == clean.determinism_dict()
        assert not gated.fault_tolerance
        assert "faults" not in gated.as_dict()

    def test_fault_free_report_keeps_legacy_shape(self):
        report = _fault_run()
        data = report.as_dict()
        assert "faults" not in data
        assert all("downtime_ms" not in row for row in data["per_chip"])

    def test_fault_report_renders_and_round_trips(self, tmp_path):
        from repro.serialization import dump_serving_report, load_result_dict
        from repro.sim.report import render_serving_report

        report = _fault_run(faults=[parse_inject("chip_fail@300:chip=0,until=3000")],
                            ft=FaultTolerance(max_retries=2))
        text = render_serving_report(report)
        assert "chip failures" in text
        assert "availability" in text
        assert "downtime_ms" in text
        path = str(tmp_path / "faults.json")
        dump_serving_report(report, path)
        loaded = load_result_dict(path)
        assert loaded == report.as_dict()
        assert loaded["faults"]["failures"] == 1
        assert loaded["faults"]["availability"] == report.availability
        assert "downtime_ms" in loaded["per_chip"][0]

    def test_fault_event_is_frozen(self):
        event = parse_inject("chip_fail@500:chip=0")
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.chip = 1
