"""Tests for the traffic-driven serving subsystem (:mod:`repro.serve`)."""

import json
import math
import os
from collections import deque

import pytest

from repro.core.fitness import FitnessEvaluator, FitnessMode
from repro.evaluation.registry import shared_decomposition
from repro.hardware.dram import LPDDR3_8GB
from repro.search import DPOptimalSearch
from repro.serve import (
    BurstyTraffic,
    ClosedLoopTraffic,
    CompiledPlan,
    DiurnalTraffic,
    DynamicBatcher,
    FaultTolerance,
    Fleet,
    PlanCache,
    PlanCacheStats,
    PlanKey,
    PoissonTraffic,
    Request,
    ServingSimulator,
    TraceTraffic,
    fleet_capacity_rps,
    make_policy,
    parse_inject,
    save_trace,
    service_latency_ns,
    switch_cost_enabled,
    validate_policy,
    validate_traffic,
)
from repro.serve.scheduler import (
    FairPolicy,
    LatencyAwarePolicy,
    LeastLoadedPolicy,
)
from repro.serve.traffic import load_trace
from repro.sim.metrics import nearest_rank_percentile

BATCHES = (1, 2, 4, 8, 16)


class _StubPlanCache:
    """Hand-built plans keyed by (chip, batch) — for scheduling unit tests.

    Duck-types the slice of :class:`PlanCache` the simulator and policies
    consume (``get``/``optimizer``/``mode``/``stats``), so tests can
    engineer latency curves that real compiled models do not exhibit.
    """

    def __init__(self, latencies, weight_replace=None, energy_pj=4000.0):
        self.optimizer = "stub"
        self.mode = FitnessMode.LATENCY
        self._plans = {}
        for (chip, batch), latency in latencies.items():
            wr = (weight_replace or {}).get((chip, batch), 0.0)
            key = PlanKey(model="stub", chip=chip, dram=LPDDR3_8GB, batch=batch,
                          mode=FitnessMode.LATENCY, optimizer="stub")
            self._plans[(chip, batch)] = CompiledPlan(
                key=key, boundaries=(0,), num_partitions=1,
                latency_ns=float(latency), energy_pj=energy_pj,
                weight_replace_ns=wr, fill_ns=float(latency) - wr,
                bottleneck_ns=0.0, best_fitness=float(latency),
                exact=True, evaluations=0,
            )

    def get(self, model, chip, batch):
        return self._plans[(chip, batch)]

    @property
    def stats(self):
        return PlanCacheStats()


# ----------------------------------------------------------------------
# Plan cache
# ----------------------------------------------------------------------
class TestPlanCache:
    def test_miss_then_hit(self):
        cache = PlanCache(optimizer="dp")
        first = cache.get("squeezenet", "S", 4)
        second = cache.get("squeezenet", "S", 4)
        assert first is second
        stats = cache.stats
        assert stats.misses == 1
        assert stats.hits == 1
        assert stats.hit_rate == pytest.approx(0.5)
        assert stats.evictions == 0
        assert stats.size == 1

    def test_plan_matches_exact_search(self):
        cache = PlanCache(optimizer="dp")
        plan = cache.get("squeezenet", "S", 8)
        decomposition, validity = shared_decomposition("squeezenet", "S")
        evaluator = FitnessEvaluator(decomposition, batch_size=8)
        result = DPOptimalSearch(decomposition, evaluator, validity).run()
        assert plan.boundaries == tuple(result.best_group.boundaries)
        # the plan's latency is the bit-exact sequential span sum, i.e. the
        # search engine's fitness in latency mode
        assert plan.latency_ns == result.best_fitness
        assert plan.exact
        assert plan.energy_pj > 0

    def test_latency_curve_matches_compiled_batch(self):
        cache = PlanCache(optimizer="dp")
        plan = cache.get("squeezenet", "S", 8)
        assert plan.latency_at(8) == pytest.approx(plan.latency_ns, rel=1e-12)
        # the affine curve grows by the bottleneck per extra sample
        assert plan.latency_at(9) - plan.latency_at(8) == pytest.approx(
            plan.bottleneck_ns, rel=1e-12
        )

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2, optimizer="dp")
        cache.get("squeezenet", "S", 1)
        cache.get("squeezenet", "S", 2)
        cache.get("squeezenet", "S", 1)  # refresh batch-1: batch-2 becomes LRU
        cache.get("squeezenet", "S", 4)  # evicts batch-2
        assert cache.stats.evictions == 1
        assert cache.contains("squeezenet", "S", 1)
        assert not cache.contains("squeezenet", "S", 2)
        assert cache.contains("squeezenet", "S", 4)
        # the evicted plan recompiles to the identical deterministic plan
        before = cache.get("squeezenet", "S", 1)
        evicted = cache.get("squeezenet", "S", 2)  # miss again, evicts batch-4
        assert cache.stats.misses == 4
        assert evicted.boundaries == before.boundaries or evicted.key != before.key

    def test_warmup_stats(self):
        cache = PlanCache(optimizer="dp")
        compiled = cache.warmup(["squeezenet"], ["S"], [1, 4])
        assert compiled == 2
        stats = cache.stats
        assert stats.warmup_compiles == 2
        assert stats.misses == 2
        assert stats.hits == 0
        # a second warmup is all hits: nothing new compiled
        assert cache.warmup(["squeezenet"], ["S"], [1, 4]) == 0
        assert cache.stats.warmup_compiles == 2
        assert cache.stats.hits == 2
        # misses after warmup are not counted as warmup compiles
        cache.get("squeezenet", "S", 2)
        assert cache.stats.warmup_compiles == 2
        assert cache.stats.misses == 3

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)
        with pytest.raises(ValueError, match="unknown optimizer"):
            PlanCache(optimizer="magic")


# ----------------------------------------------------------------------
# Traffic generators
# ----------------------------------------------------------------------
class TestTraffic:
    def test_poisson_deterministic(self):
        first = PoissonTraffic("squeezenet", num_requests=50, seed=7, rate_rps=500).generate()
        second = PoissonTraffic("squeezenet", num_requests=50, seed=7, rate_rps=500).generate()
        assert first == second
        third = PoissonTraffic("squeezenet", num_requests=50, seed=8, rate_rps=500).generate()
        assert first != third

    def test_arrivals_sorted_and_positive(self):
        for traffic in (
            PoissonTraffic("squeezenet", num_requests=40, seed=0, rate_rps=300),
            BurstyTraffic("squeezenet", num_requests=40, seed=0, rate_rps=300),
            DiurnalTraffic("squeezenet", num_requests=40, seed=0, base_rate_rps=300),
        ):
            requests = traffic.generate()
            assert len(requests) == 40
            arrivals = [r.arrival_ns for r in requests]
            assert arrivals == sorted(arrivals)
            assert arrivals[0] > 0

    def test_model_mix(self):
        traffic = PoissonTraffic(("squeezenet", "lenet5"), num_requests=200,
                                 seed=0, rate_rps=300)
        models = {r.model for r in traffic.generate()}
        assert models == {"squeezenet", "lenet5"}

    def test_trace_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.json")
        original = BurstyTraffic("squeezenet", num_requests=30, seed=5,
                                 rate_rps=400).generate()
        save_trace(original, path)
        assert load_trace(path) == original
        replay = TraceTraffic(path)
        assert replay.generate() == original
        assert replay.num_requests == 30

    def test_malformed_trace_raises_value_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"requests": [{"id": 0, "model": "squeezenet"}]}')
        with pytest.raises(ValueError, match="malformed trace"):
            load_trace(str(path))
        path.write_text('{"no_requests_key": []}')
        with pytest.raises(ValueError, match="malformed trace"):
            load_trace(str(path))

    def test_validate_traffic(self):
        validate_traffic("poisson")
        with pytest.raises(ValueError, match="unknown traffic"):
            validate_traffic("magic")


# ----------------------------------------------------------------------
# Dynamic batcher and policies
# ----------------------------------------------------------------------
class TestDynamicBatcher:
    @staticmethod
    def _latency(batch):
        # big weight-replacement intercept: batching amortises heavily
        return 1000.0 + 10.0 * batch

    def test_greedy_without_wait_budget(self):
        batcher = DynamicBatcher(batch_sizes=BATCHES, max_wait_us=0.0)
        batch, deadline = batcher.choose(
            queue_len=5, now_ns=0.0, oldest_arrival_ns=0.0,
            ema_interarrival_ns=10.0, latency_of=self._latency, more_arrivals=True,
        )
        assert (batch, deadline) == (4, None)

    def test_padded_when_queue_below_smallest(self):
        batcher = DynamicBatcher(batch_sizes=(4, 8), max_wait_us=0.0)
        assert batcher.dispatch_size(3) == 4
        assert batcher.dispatch_size(9) == 8

    @staticmethod
    def _choose_oracle(sizes, max_wait_ns, queue_len, now_ns, oldest_ns,
                       ema_ns, latency_of):
        """``choose`` written with the fitting/larger list scans."""
        fitting = [b for b in sizes if b <= queue_len]
        b_now = fitting[-1] if fitting else sizes[0]
        larger = [b for b in sizes if b > queue_len]
        deadline = oldest_ns + max_wait_ns
        if not larger or now_ns >= deadline or not math.isfinite(ema_ns):
            return b_now, None
        wait_ns = (larger[0] - queue_len) * ema_ns
        if now_ns + wait_ns > deadline:
            return b_now, None
        occupancy_now = latency_of(b_now) / min(b_now, queue_len)
        if (latency_of(larger[0]) + wait_ns) / larger[0] < occupancy_now:
            return 0, deadline
        return b_now, None

    @pytest.mark.parametrize("sizes", [
        (1,), (4,), (1, 2, 4, 8, 16), (3, 5, 32), (2, 3, 4, 5, 6, 7), (8, 40)])
    def test_bisect_matches_list_scans(self, sizes):
        batcher = DynamicBatcher(batch_sizes=sizes, max_wait_us=0.05)
        holds = 0
        for queue_len in range(1, 41):
            fitting = [b for b in sizes if b <= queue_len]
            assert batcher.dispatch_size(queue_len) == (
                fitting[-1] if fitting else sizes[0])
            for ema_ns in (0.5, 2.0, 9.0, math.inf):
                args = (queue_len, 1000.0, 990.0, ema_ns, self._latency)
                decision = batcher.choose(*args, more_arrivals=True)
                assert decision == self._choose_oracle(
                    sizes, batcher.max_wait_ns, *args), (queue_len, ema_ns)
                holds += decision[0] == 0
        # both outcomes are exercised wherever a larger size exists
        assert holds > 0 or sizes == (1,)

    def test_holds_when_amortisation_wins(self):
        batcher = DynamicBatcher(batch_sizes=BATCHES, max_wait_us=100.0)
        # cheap wait (tight arrivals) + huge amortisation: hold for 8
        batch, deadline = batcher.choose(
            queue_len=5, now_ns=1000.0, oldest_arrival_ns=900.0,
            ema_interarrival_ns=1.0, latency_of=self._latency, more_arrivals=True,
        )
        assert batch == 0
        assert deadline == pytest.approx(900.0 + 100e3)

    def test_dispatches_when_wait_exceeds_budget(self):
        batcher = DynamicBatcher(batch_sizes=BATCHES, max_wait_us=0.001)  # 1 ns
        batch, deadline = batcher.choose(
            queue_len=5, now_ns=1000.0, oldest_arrival_ns=999.5,
            ema_interarrival_ns=1.0, latency_of=self._latency, more_arrivals=True,
        )
        assert (batch, deadline) == (4, None)

    def test_dispatches_without_future_arrivals(self):
        batcher = DynamicBatcher(batch_sizes=BATCHES, max_wait_us=100.0)
        batch, deadline = batcher.choose(
            queue_len=5, now_ns=0.0, oldest_arrival_ns=0.0,
            ema_interarrival_ns=1.0, latency_of=self._latency, more_arrivals=False,
        )
        assert (batch, deadline) == (4, None)

    def test_no_rate_estimate_is_work_conserving(self):
        batcher = DynamicBatcher(batch_sizes=BATCHES, max_wait_us=100.0)
        batch, deadline = batcher.choose(
            queue_len=5, now_ns=0.0, oldest_arrival_ns=0.0,
            ema_interarrival_ns=math.inf, latency_of=self._latency, more_arrivals=True,
        )
        assert (batch, deadline) == (4, None)


class TestPolicies:
    def test_registry(self):
        validate_policy("fifo")
        validate_policy("least_loaded")
        validate_policy("latency")
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("magic")

    def test_least_loaded_prefers_idle_history(self):
        fleet = Fleet.homogeneous("S", 2)
        fleet.workers[0].busy_ns = 100.0
        policy = LeastLoadedPolicy()
        chosen = policy.choose_worker(fleet.workers, "squeezenet", 1, None, 0.0)
        assert chosen.index == 1

    def test_latency_aware_prefers_faster_chip(self):
        cache = PlanCache(optimizer="dp")
        fleet = Fleet.from_spec("S:1,M:1")
        policy = LatencyAwarePolicy()
        chosen = policy.choose_worker(fleet.workers, "squeezenet", 4, cache, 0.0)
        latencies = {
            w.index: cache.get("squeezenet", w.chip_name, 4).latency_ns
            for w in fleet.workers
        }
        assert latencies[chosen.index] == min(latencies.values())


# ----------------------------------------------------------------------
# Fleet
# ----------------------------------------------------------------------
class TestFleet:
    def test_spec_parsing(self):
        fleet = Fleet.from_spec("S:2,M:1")
        assert [w.chip_name for w in fleet.workers] == ["S", "S", "M"]
        assert fleet.spec == "S:2,M:1"
        assert fleet.chip_names == ("S", "M")
        assert Fleet.from_spec("M").spec == "M:1"

    def test_spec_round_trips_interleaved_order(self):
        # worker order drives FIFO dispatch and tie-breaks, so the reported
        # spec must rebuild the same order, not collapse S,M,S into S:2,M:1
        fleet = Fleet.from_spec("S:1,M:1,S:1")
        assert fleet.spec == "S:1,M:1,S:1"
        rebuilt = Fleet.from_spec(fleet.spec)
        assert [w.chip_name for w in rebuilt.workers] == \
            [w.chip_name for w in fleet.workers]
        assert Fleet.from_spec("S:2,M:1").spec == "S:2,M:1"

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            Fleet.from_spec("")
        with pytest.raises(ValueError):
            Fleet.from_spec("Z:2")
        with pytest.raises(ValueError):
            Fleet.from_spec("M:0")
        with pytest.raises(ValueError):
            Fleet.from_spec("M:x")

    def test_idle_workers(self):
        fleet = Fleet.homogeneous("S", 2)
        fleet.workers[0].busy_until_ns = 50.0
        assert [w.index for w in fleet.idle_workers(10.0)] == [1]
        assert [w.index for w in fleet.idle_workers(50.0)] == [0, 1]


# ----------------------------------------------------------------------
# Serving simulator: fixed-seed determinism and accounting
# ----------------------------------------------------------------------
def _run_once(cache=None, policy="latency", max_wait_us=200.0, seed=0,
              fleet_spec="S:2", model="squeezenet", requests=80):
    cache = cache if cache is not None else PlanCache(optimizer="dp")
    fleet = Fleet.from_spec(fleet_spec)
    cache.warmup([model], fleet.chip_names, BATCHES)
    rate = 0.7 * fleet_capacity_rps(cache, fleet, (model,), BATCHES)
    traffic = PoissonTraffic(model, num_requests=requests, seed=seed, rate_rps=rate)
    simulator = ServingSimulator(fleet, cache, policy=policy,
                                 batch_sizes=BATCHES, max_wait_us=max_wait_us)
    return simulator.run(traffic.generate(), traffic_info=traffic.describe())


class TestServingSimulator:
    def test_fixed_seed_replay_identical(self):
        first = _run_once(seed=0)
        second = _run_once(seed=0)
        assert first.as_dict() == second.as_dict()

    def test_warm_cache_replay_identical(self):
        cold = _run_once(seed=0)
        cache = PlanCache(optimizer="dp")
        warm_once = _run_once(cache=cache, seed=0)
        warm_twice = _run_once(cache=cache, seed=0)
        # the deterministic core is cache-temperature independent ...
        assert cold.determinism_dict() == warm_once.determinism_dict()
        assert warm_once.determinism_dict() == warm_twice.determinism_dict()
        # ... while the cache counters legitimately differ
        assert cold.plan_cache["misses"] == warm_twice.plan_cache["misses"]
        assert cold.plan_cache["hits"] < warm_twice.plan_cache["hits"]

    def test_different_seed_differs(self):
        assert _run_once(seed=0).as_dict() != _run_once(seed=1).as_dict()

    def test_all_requests_complete(self):
        report = _run_once(seed=0)
        assert report.completed == report.num_requests == 80
        assert report.throughput_rps > 0
        assert report.batches >= 1
        assert sum(report.batch_histogram.values()) == report.batches
        assert report.mean_batch == pytest.approx(80 / report.batches)

    def test_latency_percentiles_ordered(self):
        report = _run_once(seed=0)
        latency = report.latency_ms
        assert latency["p50"] <= latency["p95"] <= latency["p99"] <= latency["max"]
        assert latency["mean"] > 0
        # a request's sojourn includes its service time: the fastest
        # single-sample plan bounds every percentile from below
        assert latency["p50"] > 0

    def test_per_chip_accounting(self):
        report = _run_once(seed=0, fleet_spec="S:2")
        assert len(report.per_chip) == 2
        assert sum(row["requests"] for row in report.per_chip) == report.completed
        assert sum(row["batches"] for row in report.per_chip) == report.batches
        for row in report.per_chip:
            assert 0.0 <= row["utilisation"] <= 1.0
        total = sum(row["energy_mj"] for row in report.per_chip)
        assert total == pytest.approx(report.total_energy_mj)
        assert report.energy_per_request_mj == pytest.approx(total / report.completed)

    def test_policies_all_serve_everything(self):
        for policy in ("fifo", "least_loaded", "latency"):
            report = _run_once(seed=0, policy=policy)
            assert report.completed == 80
            assert report.policy == policy

    def test_greedy_vs_batched_tradeoff(self):
        greedy = _run_once(seed=0, max_wait_us=0.0)
        batched = _run_once(seed=0, max_wait_us=500.0)
        # holding can only raise the mean batch size
        assert batched.mean_batch >= greedy.mean_batch
        assert greedy.padded_batches == 0

    def test_heterogeneous_fleet(self):
        report = _run_once(seed=0, fleet_spec="S:1,M:1")
        assert report.fleet == "S:1,M:1"
        assert report.completed == 80
        assert {row["class"] for row in report.per_chip} == {"S", "M"}

    def test_trace_replay_reproduces_run(self, tmp_path):
        cache = PlanCache(optimizer="dp")
        fleet = Fleet.from_spec("S:2")
        cache.warmup(["squeezenet"], fleet.chip_names, BATCHES)
        traffic = BurstyTraffic("squeezenet", num_requests=60, seed=4, rate_rps=2000)
        requests = traffic.generate()
        path = str(tmp_path / "trace.json")
        save_trace(requests, path)
        simulator = ServingSimulator(fleet, cache, policy="fifo",
                                     batch_sizes=BATCHES, max_wait_us=100.0)
        live = simulator.run(requests, traffic_info={"traffic": "bursty"})
        replayed = ServingSimulator(
            Fleet.from_spec("S:2"), cache, policy="fifo",
            batch_sizes=BATCHES, max_wait_us=100.0,
        ).run(TraceTraffic(path).generate(), traffic_info={"traffic": "bursty"})
        assert live.determinism_dict() == replayed.determinism_dict()

    def test_empty_stream_rejected(self):
        cache = PlanCache(optimizer="dp")
        simulator = ServingSimulator(Fleet.homogeneous("S"), cache)
        with pytest.raises(ValueError):
            simulator.run([])

    def test_offset_timestamps_do_not_dilute_metrics(self):
        # replayed real-world traces carry epoch-style timestamps: the clock
        # must start at the first arrival, not t=0, or the idle prefix
        # swamps throughput/utilisation/queue depth
        cache = PlanCache(optimizer="dp")
        fleet_spec = "S:2"
        cache.warmup(["squeezenet"], Fleet.from_spec(fleet_spec).chip_names, BATCHES)
        traffic = PoissonTraffic("squeezenet", num_requests=40, seed=2, rate_rps=2000)
        requests = traffic.generate()
        offset = 1e12  # ~17 minutes into an epoch-style clock
        shifted = [
            Request(request_id=r.request_id, model=r.model,
                    arrival_ns=r.arrival_ns + offset)
            for r in requests
        ]

        def run(stream):
            simulator = ServingSimulator(Fleet.from_spec(fleet_spec), cache,
                                         policy="fifo", batch_sizes=BATCHES,
                                         max_wait_us=100.0)
            return simulator.run(stream)

        base, moved = run(requests), run(shifted)
        assert moved.throughput_rps == pytest.approx(base.throughput_rps, rel=1e-6)
        assert moved.makespan_ms == pytest.approx(base.makespan_ms, rel=1e-6)
        assert moved.queue_depth["mean"] == pytest.approx(
            base.queue_depth["mean"], rel=1e-6)
        for row_base, row_moved in zip(base.per_chip, moved.per_chip):
            assert row_moved["utilisation"] == pytest.approx(
                row_base["utilisation"], rel=1e-6)

    def test_single_request_rates_are_finite(self):
        cache = PlanCache(optimizer="dp")
        fleet = Fleet.homogeneous("S")
        cache.warmup(["squeezenet"], fleet.chip_names, BATCHES)
        simulator = ServingSimulator(fleet, cache, batch_sizes=BATCHES)
        report = simulator.run([Request(request_id=0, model="squeezenet",
                                        arrival_ns=50.0)])
        # a single arrival spans no time: the offered rate is undefined and
        # must read 0, not 1/1e-12
        assert report.offered_rps == 0.0
        assert report.completed == 1
        assert report.throughput_rps > 0.0

    def test_edp_mode_plans(self):
        cache = PlanCache(optimizer="dp", mode=FitnessMode.EDP)
        plan = cache.get("lenet5", "S", 4)
        assert plan.key.mode is FitnessMode.EDP
        assert plan.energy_pj > 0


def test_shared_plan_cache_is_shared_and_guards_capacity():
    from repro.evaluation.registry import clear_registry, shared_plan_cache

    clear_registry()
    try:
        cache = shared_plan_cache("dp", capacity=32)
        assert shared_plan_cache("dp", capacity=32) is cache
        # a second consumer asking for different eviction behaviour must not
        # silently receive the existing cache
        with pytest.raises(ValueError, match="capacity"):
            shared_plan_cache("dp", capacity=8)
        plan = cache.get("lenet5", "S", 1)
        assert shared_plan_cache("dp", capacity=32).get("lenet5", "S", 1) is plan
    finally:
        clear_registry()


def test_request_ordering_is_stable():
    requests = [
        Request(request_id=1, model="a", arrival_ns=5.0),
        Request(request_id=0, model="a", arrival_ns=5.0),
    ]
    ordered = sorted(requests, key=lambda r: (r.arrival_ns, r.request_id))
    assert [r.request_id for r in ordered] == [0, 1]


# ----------------------------------------------------------------------
# Nearest-rank percentile semantics
# ----------------------------------------------------------------------
class TestPercentile:
    def test_empty(self):
        assert nearest_rank_percentile([], 50) == 0.0
        assert nearest_rank_percentile([], 99) == 0.0

    def test_singleton(self):
        assert nearest_rank_percentile([7.0], 1) == 7.0
        assert nearest_rank_percentile([7.0], 50) == 7.0
        assert nearest_rank_percentile([7.0], 99) == 7.0

    def test_even_length_p50_is_lower_median(self):
        # nearest rank: ceil(0.5 * 4) = 2 -> the second element
        assert nearest_rank_percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0

    def test_tails(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert nearest_rank_percentile(values, 95) == 4.0
        assert nearest_rank_percentile(values, 99) == 4.0
        assert nearest_rank_percentile(values, 25) == 1.0
        assert nearest_rank_percentile(values, 100) == 4.0


# ----------------------------------------------------------------------
# Captured serving reports (bit-identity pins)
# ----------------------------------------------------------------------
def _load_pins():
    """Every pinned ``determinism_dict()``, keyed by scenario name.

    ``tests/data/serving_pins.json`` holds the captures of three eras in
    one file: the pre-switch-cost runs (``homogeneous_hold``,
    ``heterogeneous_greedy``), the pre-fault runs (``open_latency_switch_on``,
    ``hetero_fair_slo_switch_on``, ``closed_fair_switch_off``) and the
    pre-control-plane runs (``fault_retry_latency``, ``hetero_fair_chaos``,
    ``plain_open_latency``).
    """
    path = os.path.join(os.path.dirname(__file__), "data", "serving_pins.json")
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Plan-switch weight-replacement cost
# ----------------------------------------------------------------------
def _run_mix(switch_cost, fleet_spec="S:1,M:1", seed=3, max_wait_us=200.0,
             policy="latency", slos=None):
    cache = PlanCache(optimizer="dp")
    fleet = Fleet.from_spec(fleet_spec)
    models = ["squeezenet", "lenet5"]
    cache.warmup(models, fleet.chip_names, BATCHES)
    rate = 0.7 * fleet_capacity_rps(cache, fleet, models, BATCHES)
    traffic = PoissonTraffic(models, num_requests=60, seed=seed, rate_rps=rate)
    simulator = ServingSimulator(fleet, cache, policy=policy,
                                 batch_sizes=BATCHES, max_wait_us=max_wait_us,
                                 switch_cost=switch_cost, slos=slos)
    return simulator.run(traffic.generate(), traffic_info=traffic.describe())


class TestSwitchCost:
    def test_off_path_bit_identical_to_pre_pr_homogeneous(self):
        # the pinned pre-switch-cost report: every pre-existing key is
        # bit-identical; served_histogram is the only addition (and equals
        # batch_histogram because the pinned run has no padded batches)
        expected = _load_pins()["homogeneous_hold"]
        cache = PlanCache(optimizer="dp")
        fleet = Fleet.from_spec("S:2")
        cache.warmup(["squeezenet"], fleet.chip_names, BATCHES)
        rate = 0.7 * fleet_capacity_rps(cache, fleet, ("squeezenet",), BATCHES)
        traffic = PoissonTraffic("squeezenet", num_requests=80, seed=0,
                                 rate_rps=rate)
        simulator = ServingSimulator(fleet, cache, policy="latency",
                                     batch_sizes=BATCHES, max_wait_us=200.0,
                                     switch_cost=False)
        data = simulator.run(traffic.generate(),
                             traffic_info=traffic.describe()).determinism_dict()
        assert set(data) - set(expected) == {"served_histogram"}
        for key in expected:
            assert data[key] == expected[key], key
        assert expected["padded_batches"] == 0
        assert data["served_histogram"] == data["batch_histogram"]

    def test_off_path_bit_identical_to_pre_pr_heterogeneous(self):
        expected = _load_pins()["heterogeneous_greedy"]
        data = _run_mix(switch_cost=False, max_wait_us=0.0).determinism_dict()
        assert set(data) - set(expected) == {"served_histogram"}
        for key in expected:
            assert data[key] == expected[key], key
        assert data["served_histogram"] == data["batch_histogram"]

    def test_env_var_gates_default(self, monkeypatch):
        cache = PlanCache(optimizer="dp")
        monkeypatch.setenv("REPRO_SERVE_SWITCH_COST", "0")
        assert not switch_cost_enabled()
        assert not ServingSimulator(Fleet.homogeneous("S"), cache).switch_cost
        monkeypatch.setenv("REPRO_SERVE_SWITCH_COST", "1")
        assert switch_cost_enabled()
        assert ServingSimulator(Fleet.homogeneous("S"), cache).switch_cost
        # the explicit parameter overrides the environment
        assert not ServingSimulator(Fleet.homogeneous("S"), cache,
                                    switch_cost=False).switch_cost

    def test_multi_model_switches_raise_tail_latency(self):
        off = _run_mix(switch_cost=False)
        on = _run_mix(switch_cost=True)
        assert on.plan_switches > 0
        assert on.switch_ms > 0.0
        assert on.latency_ms["p99"] > off.latency_ms["p99"]
        assert on.throughput_rps <= off.throughput_rps
        data = on.as_dict()
        assert data["switch"]["plan_switches"] == on.plan_switches
        assert sum(row["plan_switches"] for row in data["per_chip"]) == \
            on.plan_switches
        assert "switch" not in off.as_dict()

    def test_same_plan_homogeneous_run_has_zero_switches(self):
        def run(switch_cost):
            cache = PlanCache(optimizer="dp")
            fleet = Fleet.from_spec("S:2")
            cache.warmup(["squeezenet"], fleet.chip_names, (4,))
            rate = 0.7 * fleet_capacity_rps(cache, fleet, ("squeezenet",), (4,))
            traffic = PoissonTraffic("squeezenet", num_requests=40, seed=0,
                                     rate_rps=rate)
            simulator = ServingSimulator(fleet, cache, policy="latency",
                                         batch_sizes=(4,), max_wait_us=0.0,
                                         switch_cost=switch_cost)
            return simulator.run(traffic.generate())

        on, off = run(True), run(False)
        assert on.plan_switches == 0
        assert on.switch_ms == 0.0
        # with no switches the charge never applies: every metric matches
        # the switch-oblivious run (only the switch bookkeeping is extra)
        on_dict, off_dict = on.determinism_dict(), off.determinism_dict()
        on_dict.pop("switch")
        on_chips = on_dict.pop("per_chip")
        off_chips = off_dict.pop("per_chip")
        assert on_dict == off_dict
        for row_on, row_off in zip(on_chips, off_chips):
            assert {k: v for k, v in row_on.items()
                    if k not in ("plan_switches", "switch_ms")} == row_off

    def test_service_latency_helper(self):
        cache = _StubPlanCache({("S", 4): 100.0, ("S", 8): 500.0},
                               weight_replace={("S", 4): 30.0, ("S", 8): 60.0})
        worker = Fleet.homogeneous("S").workers[0]
        plan4 = cache.get("stub", "S", 4)
        plan8 = cache.get("stub", "S", 8)
        # prewarmed first dispatch: no charge
        assert service_latency_ns(plan4, worker, True) == 100.0
        worker.loaded_plan = plan4.key
        # warm re-dispatch: no charge; plan switch: + incoming WR
        assert service_latency_ns(plan4, worker, True) == 100.0
        assert service_latency_ns(plan8, worker, True) == 560.0
        # modelling off: always the compiled latency
        assert service_latency_ns(plan8, worker, False) == 500.0

    def test_latency_policy_prefers_warm_chip(self):
        cache = _StubPlanCache(
            {("S", 4): 120.0, ("M", 4): 100.0, ("M", 8): 300.0},
            weight_replace={("S", 4): 30.0, ("M", 4): 50.0, ("M", 8): 40.0},
        )
        fleet = Fleet.from_spec("S:1,M:1")
        s, m = fleet.workers
        policy = LatencyAwarePolicy()
        # both prewarmed-cold: M is the faster class
        assert policy.choose_worker([s, m], "stub", 4, cache, 0.0, True) is m
        # S holds the batch-4 plan, M holds batch-8: M would pay its
        # 50 ns switch charge (150 effective) — the warm slower S (120) wins
        s.loaded_plan = cache.get("stub", "S", 4).key
        m.loaded_plan = cache.get("stub", "M", 8).key
        assert policy.choose_worker([s, m], "stub", 4, cache, 0.0, True) is s
        # with switch cost off the faster class wins regardless
        assert policy.choose_worker([s, m], "stub", 4, cache, 0.0, False) is m


# ----------------------------------------------------------------------
# Batcher reference-chip regression (heterogeneous hold-vs-dispatch)
# ----------------------------------------------------------------------
class TestBatcherReferenceChip:
    def test_hold_decision_costs_each_batch_on_its_own_chip(self):
        # On S:1,M:1 the latency policy routes batch 4 to M but batch 8 to
        # S (the per-size plans re-optimise partitioning: S's batch-8 plan
        # amortises so well it beats even its batch-4 plan, while M's
        # batch-8 plan is pathological).  When both chips are idle with 7
        # queued requests, the hold-vs-dispatch comparison must cost
        # b_next=8 on S — costing it on the chip chosen for b_now=4 (M)
        # made holding look hopeless and split the queue into two batch-4
        # dispatches instead of accumulating one full batch 8.
        cache = _StubPlanCache({
            ("S", 4): 200_000.0, ("S", 8): 150_000.0,
            ("M", 4): 100_000.0, ("M", 8): 10_000_000.0,
        })
        fleet = Fleet.from_spec("S:1,M:1")
        # r0 occupies M until t=100k while r1..r7 queue behind the held S;
        # at t=100k both chips are idle with the queue at 7; r8 lands last
        requests = (
            [Request(request_id=0, model="stub", arrival_ns=0.0)]
            + [Request(request_id=i, model="stub", arrival_ns=i * 1_000.0)
               for i in range(1, 8)]
            + [Request(request_id=8, model="stub", arrival_ns=300_000.0)]
        )
        simulator = ServingSimulator(fleet, cache, policy="latency",
                                     batch_sizes=(4, 8), max_wait_us=1_000.0,
                                     switch_cost=False)
        report = simulator.run(requests)
        assert report.completed == 9
        # fixed: [r0 padded on M], [r1-r8 as one batch 8 on S] — the buggy
        # reference chip dispatched [r1-r4] and [r5-r8] as two batch 4s
        assert report.batches == 2
        assert report.padded_batches == 1
        assert report.batch_histogram == {4: 1, 8: 1}
        assert report.served_histogram == {1: 1, 8: 1}


# ----------------------------------------------------------------------
# Zero-gap interarrival EMA (duplicate trace timestamps)
# ----------------------------------------------------------------------
class TestZeroGapEMA:
    def test_simultaneous_arrivals_do_not_collapse_wait_estimate(self):
        # six requests share one timestamp (trace replay with duplicate
        # stamps); the zero gaps must not drag the EMA to ~0, where the
        # batcher concludes the next batch fills instantly and holds the
        # queue to the deadline on every decision
        cache = _StubPlanCache({("S", 1): 10_000.0, ("S", 8): 11_000.0})
        fleet = Fleet.homogeneous("S")
        requests = [Request(request_id=i, model="stub", arrival_ns=0.0)
                    for i in range(6)]
        requests.append(Request(request_id=6, model="stub",
                                arrival_ns=50_000_000.0))
        simulator = ServingSimulator(fleet, cache, policy="fifo",
                                     batch_sizes=(1, 8), max_wait_us=1_000.0,
                                     switch_cost=False)
        report = simulator.run(requests)
        assert report.completed == 7
        # zero gaps are skipped: no rate estimate exists, batching stays
        # work-conserving and the queue drains back to back — the broken
        # EMA held every request to the 1 ms deadline
        assert report.batches == 7
        assert report.wait_ms["max"] < 0.1
        assert report.batch_histogram == {1: 7}

    def test_duplicate_timestamp_trace_round_trips(self, tmp_path):
        path = str(tmp_path / "dup.json")
        requests = [Request(request_id=i, model="squeezenet", arrival_ns=5.0)
                    for i in range(3)]
        save_trace(requests, path)
        assert load_trace(path) == requests


# ----------------------------------------------------------------------
# Padded-batch accounting
# ----------------------------------------------------------------------
class TestPaddedBatchAccounting:
    def test_served_histogram_and_padded_energy_latency(self):
        # nominal batch 4 executes twice (once with 1 request, once with
        # 3): latency and energy are charged at the compiled batch size,
        # while served_histogram and mean_batch count actual requests
        cache = _StubPlanCache({("S", 4): 100_000.0, ("S", 8): 900_000.0},
                               energy_pj=4000.0)
        fleet = Fleet.homogeneous("S")
        requests = [Request(request_id=0, model="stub", arrival_ns=0.0)] + [
            Request(request_id=i, model="stub", arrival_ns=float(i))
            for i in range(1, 4)
        ]
        simulator = ServingSimulator(fleet, cache, policy="fifo",
                                     batch_sizes=(4, 8), max_wait_us=0.0,
                                     switch_cost=False)
        report = simulator.run(requests)
        assert report.completed == 4
        assert report.batches == 2
        assert report.padded_batches == 2
        assert report.batch_histogram == {4: 2}
        assert report.served_histogram == {1: 1, 3: 1}
        assert report.mean_batch == pytest.approx(2.0)
        # energy and chip time charge the nominal plan, spare slots included
        assert report.total_energy_mj == pytest.approx(2 * 4000.0 * 1e-9)
        assert report.per_chip[0]["busy_ms"] == pytest.approx(0.2)
        assert report.latency_ms["max"] == pytest.approx((200_000.0 - 1.0) * 1e-6)
        # the two histograms agree once padded slots are excluded
        assert sum(b * n for b, n in report.served_histogram.items()) == \
            report.completed
        assert sum(report.served_histogram.values()) == \
            sum(report.batch_histogram.values()) == report.batches

    def test_unpadded_runs_keep_histograms_equal(self):
        report = _run_once(seed=0)
        assert report.padded_batches == 0
        assert report.served_histogram == report.batch_histogram


# ----------------------------------------------------------------------
# Closed-loop traffic
# ----------------------------------------------------------------------
class TestClosedLoopTraffic:
    @staticmethod
    def _run(seed=5, clients=3, concurrency=1, requests=30, policy="latency",
             mean_think_s=0.0002, fleet_spec="S:1", models=("squeezenet",)):
        cache = PlanCache(optimizer="dp")
        fleet = Fleet.from_spec(fleet_spec)
        cache.warmup(models, fleet.chip_names, BATCHES)
        traffic = ClosedLoopTraffic(models, num_requests=requests, seed=seed,
                                    clients=clients, concurrency=concurrency,
                                    mean_think_s=mean_think_s)
        simulator = ServingSimulator(fleet, cache, policy=policy,
                                     batch_sizes=BATCHES, max_wait_us=100.0)
        return simulator.run(traffic), traffic

    def test_replay_is_bit_identical(self):
        first, _ = self._run(seed=5)
        second, _ = self._run(seed=5)
        assert first.determinism_dict() == second.determinism_dict()
        third, _ = self._run(seed=6)
        assert first.determinism_dict() != third.determinism_dict()

    def test_all_requests_complete(self):
        report, traffic = self._run(requests=30, clients=3)
        assert report.completed == report.num_requests == 30
        assert report.traffic["traffic"] == "closed"
        assert report.traffic["clients"] == 3
        assert report.traffic["concurrency"] == 1

    def test_outstanding_bounded_by_client_windows(self):
        # a closed loop can never queue more than clients * concurrency
        # requests — the defining difference from open-loop generators
        report, _ = self._run(requests=40, clients=3, concurrency=2,
                              mean_think_s=0.0)
        assert report.queue_depth["max"] <= 6
        report, _ = self._run(requests=40, clients=2, concurrency=1,
                              mean_think_s=0.0)
        assert report.queue_depth["max"] <= 2

    def test_generate_raises(self):
        traffic = ClosedLoopTraffic("squeezenet", num_requests=10, seed=0)
        with pytest.raises(ValueError, match="closed-loop"):
            traffic.generate()

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            ClosedLoopTraffic("squeezenet", clients=0)
        with pytest.raises(ValueError):
            ClosedLoopTraffic("squeezenet", concurrency=0)
        with pytest.raises(ValueError):
            ClosedLoopTraffic("squeezenet", mean_think_s=-1.0)

    def test_session_issue_order_and_clients(self):
        traffic = ClosedLoopTraffic("squeezenet", num_requests=7, seed=1,
                                    clients=3, concurrency=2)
        session = traffic.session()
        initial = session.initial()
        # 3 clients x 2 outstanding = 6 initial issues, round-robin tagged
        assert [r.client for r in initial] == [0, 1, 2, 0, 1, 2]
        follow = session.on_complete(initial[1], 1_000_000.0)
        assert follow.client == 1
        assert follow.arrival_ns >= 1_000_000.0
        assert follow.request_id == 6
        assert session.on_complete(follow, 2_000_000.0) is None
        assert len(session.issued) == 7
        assert sum(session.model_counts().values()) == 7

    def test_realised_stream_replays_as_trace(self, tmp_path):
        report, traffic = self._run(requests=25, clients=2)
        issued = traffic.last_session.issued
        assert len(issued) == 25
        path = str(tmp_path / "closed.json")
        save_trace(issued, path)
        loaded = load_trace(path)
        # client tags survive the round trip
        assert sorted(loaded, key=lambda r: r.request_id) == \
            sorted(issued, key=lambda r: r.request_id)
        cache = PlanCache(optimizer="dp")
        fleet = Fleet.homogeneous("S")
        cache.warmup(["squeezenet"], fleet.chip_names, BATCHES)
        replay = ServingSimulator(fleet, cache, policy="latency",
                                  batch_sizes=BATCHES, max_wait_us=100.0)
        replayed = replay.run(TraceTraffic(path).generate())
        assert replayed.completed == 25


# ----------------------------------------------------------------------
# Per-model SLOs
# ----------------------------------------------------------------------
class TestSLOs:
    def test_blocks_and_attainment_bounds(self):
        report = _run_mix(switch_cost=True,
                          slos={"squeezenet": 1000.0, "lenet5": 1e-6})
        data = report.as_dict()
        assert set(report.slo) == {"squeezenet", "lenet5"}
        generous = report.slo["squeezenet"]
        hopeless = report.slo["lenet5"]
        # a 1-second target on a ms-scale workload is always attained; a
        # 1-picosecond target never is
        assert generous["attainment"] == 1.0
        assert hopeless["attainment"] == 0.0
        for block in report.slo.values():
            assert block["p50_ms"] <= block["p95_ms"] <= block["p99_ms"]
            assert block["completed"] > 0
        assert sum(b["completed"] for b in report.slo.values()) == \
            report.completed
        assert data["slo"]["squeezenet"] == generous

    def test_no_slos_no_block(self):
        report = _run_mix(switch_cost=True)
        assert report.slo == {}
        assert "slo" not in report.as_dict()

    def test_invalid_target_rejected(self):
        cache = PlanCache(optimizer="dp")
        with pytest.raises(ValueError, match="SLO target"):
            ServingSimulator(Fleet.homogeneous("S"), cache,
                             slos={"squeezenet": 0.0})

    def test_slo_run_is_deterministic(self):
        slos = {"squeezenet": 2.0, "lenet5": 1.0}
        first = _run_mix(switch_cost=True, slos=slos)
        second = _run_mix(switch_cost=True, slos=slos)
        assert first.determinism_dict() == second.determinism_dict()


# ----------------------------------------------------------------------
# Fair (deficit round-robin) policy
# ----------------------------------------------------------------------
class TestFairPolicy:
    def test_registered(self):
        validate_policy("fair")
        assert isinstance(make_policy("fair"), FairPolicy)

    def test_order_queues_serves_deficit_first(self):
        policy = FairPolicy()
        queues = {
            "a": deque([Request(request_id=0, model="a", arrival_ns=5.0)]),
            "b": deque([Request(request_id=1, model="b", arrival_ns=10.0)]),
        }
        # equal deficit: FIFO tie-break on the oldest head
        assert policy.order_queues(queues) == ["a", "b"]
        policy.note_dispatch("a", 4)
        assert policy.order_queues(queues) == ["b", "a"]
        policy.note_dispatch("b", 8)
        assert policy.order_queues(queues) == ["a", "b"]
        # reset() forgets the deficits (a new run starts clean)
        policy.reset()
        assert policy.order_queues(queues) == ["a", "b"]
        assert policy.order_queues({"a": queues["a"], "b": deque()}) == ["a"]

    def test_default_policies_keep_fifo_order(self):
        queues = {
            "a": deque([Request(request_id=1, model="a", arrival_ns=10.0)]),
            "b": deque([Request(request_id=0, model="b", arrival_ns=5.0)]),
        }
        for name in ("fifo", "least_loaded", "latency"):
            assert make_policy(name).order_queues(queues) == ["b", "a"]

    def test_fair_run_is_deterministic_and_complete(self):
        first = _run_mix(switch_cost=True, policy="fair")
        second = _run_mix(switch_cost=True, policy="fair")
        assert first.policy == "fair"
        assert first.completed == first.num_requests
        assert first.determinism_dict() == second.determinism_dict()

    def test_fair_bounds_minority_queue_wait(self):
        # one tenant floods the fleet while the other trickles: deficit
        # round-robin must not let the minority model's queue age behind
        # the flood (FIFO order would interleave strictly by arrival)
        cache = _StubPlanCache({("S", 1): 100_000.0, ("S", 4): 130_000.0})
        requests = [Request(request_id=i, model="flood", arrival_ns=float(i))
                    for i in range(12)]
        requests += [Request(request_id=12 + i, model="drip",
                             arrival_ns=100.0 + i) for i in range(2)]

        def run(policy):
            fleet = Fleet.homogeneous("S")
            simulator = ServingSimulator(fleet, cache, policy=policy,
                                         batch_sizes=(1, 4), max_wait_us=0.0,
                                         switch_cost=False)
            report = simulator.run(requests, traffic_info={"traffic": "unit"})
            return report

        fair = run("fair")
        fifo = run("fifo")
        assert fair.completed == fifo.completed == 14
        # the drip tenant is served strictly earlier under fair scheduling
        fair_slo = ServingSimulator(
            Fleet.homogeneous("S"), cache, policy="fair", batch_sizes=(1, 4),
            max_wait_us=0.0, switch_cost=False, slos={"drip": 1.0},
        ).run(requests)
        fifo_slo = ServingSimulator(
            Fleet.homogeneous("S"), cache, policy="fifo", batch_sizes=(1, 4),
            max_wait_us=0.0, switch_cost=False, slos={"drip": 1.0},
        ).run(requests)
        assert fair_slo.slo["drip"]["p99_ms"] < fifo_slo.slo["drip"]["p99_ms"]


# ----------------------------------------------------------------------
# Serving-report serialization round trip
# ----------------------------------------------------------------------
class TestServingReportRoundTrip:
    def test_dump_and_reload(self, tmp_path):
        from repro.serialization import dump_serving_report, load_result_dict

        report = _run_mix(switch_cost=True,
                          slos={"squeezenet": 2.0, "lenet5": 1.0})
        path = str(tmp_path / "serving.json")
        dump_serving_report(report, path)
        loaded = load_result_dict(path)
        assert loaded == report.as_dict()
        # histogram keys are stringified for JSON
        assert all(isinstance(k, str) for k in loaded["batch_histogram"])
        assert all(isinstance(k, str) for k in loaded["served_histogram"])
        assert loaded["switch"]["plan_switches"] == report.plan_switches
        assert loaded["slo"]["lenet5"]["target_ms"] == 1.0
        assert loaded["slo"]["squeezenet"]["attainment"] == \
            report.slo["squeezenet"]["attainment"]

    def test_switch_off_dump_keeps_legacy_shape(self, tmp_path):
        from repro.serialization import dump_serving_report, load_result_dict

        report = _run_mix(switch_cost=False, max_wait_us=0.0)
        path = str(tmp_path / "legacy.json")
        dump_serving_report(report, path)
        loaded = load_result_dict(path)
        assert "switch" not in loaded
        assert "slo" not in loaded
        assert all("plan_switches" not in row for row in loaded["per_chip"])


# ----------------------------------------------------------------------
# Fault-free bit-identity against the pre-fault simulator (PR 6 pins)
# ----------------------------------------------------------------------
def _replay_capture(expected, switch_cost_from_env=False):
    """Re-run a pinned scenario from its own stored report.

    Every knob the run needs is recoverable from the capture (fleet, policy,
    batching, traffic parameters, SLO targets, whether switch cost was on),
    so the pin cannot drift from the scenario it describes.  With
    ``switch_cost_from_env`` the simulator takes switch-cost modelling
    from ``REPRO_SERVE_SWITCH_COST`` instead of from the capture.
    """
    traffic_info = expected["traffic"]
    models = list(traffic_info["models"])
    fleet = Fleet.from_spec(expected["fleet"])
    cache = PlanCache(optimizer=expected["optimizer"])
    batch_sizes = tuple(expected["batch_sizes"])
    cache.warmup(models, fleet.chip_names, batch_sizes)
    slos = {model: block["target_ms"]
            for model, block in expected.get("slo", {}).items()} or None
    simulator = ServingSimulator(
        fleet, cache, policy=expected["policy"], batch_sizes=batch_sizes,
        max_wait_us=expected["max_wait_us"],
        switch_cost=None if switch_cost_from_env else "switch" in expected,
        slos=slos,
    )
    if traffic_info["traffic"] == "closed":
        traffic = ClosedLoopTraffic(
            models, num_requests=traffic_info["num_requests"],
            seed=traffic_info["seed"], clients=traffic_info["clients"],
            concurrency=traffic_info["concurrency"],
            mean_think_s=traffic_info["mean_think_s"],
        )
        return simulator.run(traffic)
    traffic = PoissonTraffic(models, num_requests=traffic_info["num_requests"],
                             seed=traffic_info["seed"],
                             rate_rps=traffic_info["rate_rps"])
    return simulator.run(traffic.generate(), traffic_info=traffic.describe())


class TestPrePr6Pins:
    """The fault-machinery PR's no-fault contract: with no faults injected
    and no fault-tolerance knob set, every report key is bit-identical to
    its capture — no ``faults`` block, no per-chip downtime columns, same
    accounting to the last float.  ``closed_fair_switch_off`` was
    re-captured when completions moved to the chip-free event: closed-loop
    clients draw think times in completion order, not dispatch order."""

    @pytest.mark.parametrize("scenario", [
        "open_latency_switch_on",
        "hetero_fair_slo_switch_on",
        "closed_fair_switch_off",
    ])
    def test_bit_identical(self, scenario):
        expected = _load_pins()[scenario]
        report = _replay_capture(expected)
        assert not report.fault_tolerance
        assert report.determinism_dict() == expected

    def test_closed_fair_switch_env_off_matches_pin(self, monkeypatch):
        # REPRO_SERVE_SWITCH_COST=0 with the fair policy under closed-loop
        # traffic: the env default must reproduce the explicit
        # switch_cost=False capture bit-for-bit
        expected = _load_pins()["closed_fair_switch_off"]
        monkeypatch.setenv("REPRO_SERVE_SWITCH_COST", "0")
        report = _replay_capture(expected, switch_cost_from_env=True)
        assert not report.switch_cost
        assert report.policy == "fair"
        assert report.determinism_dict() == expected


class TestSingleCompletionPath:
    """Plain and fault-aware runs share one accounting path: every batch
    is finalised at its chip-free event, so an inert fault-tolerance knob
    changes the report's shape (the ``faults`` block and per-chip fault
    columns), never a number in it."""

    @staticmethod
    def _closed_hetero(fault_tolerance):
        # heterogeneous fleet + closed loop: dispatch order and completion
        # order differ, and closed-loop clients draw their think times in
        # completion-callback order — a second accounting path would show
        models = ["squeezenet", "lenet5"]
        fleet = Fleet.from_spec("S:1,M:1")
        cache = PlanCache(optimizer="dp")
        cache.warmup(models, fleet.chip_names, BATCHES)
        traffic = ClosedLoopTraffic(models, num_requests=50, seed=5, clients=4,
                                    concurrency=2, mean_think_s=0.0002)
        simulator = ServingSimulator(
            fleet, cache, policy="fair", batch_sizes=BATCHES,
            max_wait_us=100.0, switch_cost=True,
            fault_tolerance=fault_tolerance)
        return simulator.run(traffic).determinism_dict()

    def test_inert_fault_tolerance_matches_plain_run(self):
        plain = self._closed_hetero(None)
        inert = self._closed_hetero(FaultTolerance(max_retries=1))
        assert "faults" not in plain
        faults = inert.pop("faults")
        assert faults["failures"] == faults["retries"] == faults["lost"] == 0
        for row in inert["per_chip"]:
            assert row.pop("failures") == 0
            assert row.pop("downtime_ms") == 0.0
            assert row.pop("lost_requests") == 0
        assert inert == plain


# ----------------------------------------------------------------------
# Controller-off bit-identity against the pre-control-plane simulator
# (PR 7 pins) — unlike the PR 6 pins these scenarios *do* exercise the
# fault machinery (injected failures, stragglers, retries, timeouts,
# shedding): the control plane must leave every one of those code paths
# bit-identical when it is not enabled.
# ----------------------------------------------------------------------
def pre_pr7_scenarios():
    """Scenario builders for the PR 7 pins, keyed by capture name.

    Each builder runs one controller-off scenario from scratch and returns
    its report; ``tests/data/serving_pins.json`` holds the
    ``determinism_dict()`` these produced before the control plane existed.
    The capture was generated by calling exactly these builders (see the
    CHANGES entry), so the pin and the scenario cannot drift apart silently
    — a mismatch means the controller-off path changed behaviour.
    """

    def fault_retry_latency():
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
        simulator = ServingSimulator(
            fleet, cache, policy="latency", batch_sizes=BATCHES,
            max_wait_us=200.0, switch_cost=True, slos={model: 12.0},
            faults=faults, fault_tolerance=ft,
        )
        return simulator.run(traffic.generate(),
                             traffic_info=traffic.describe())

    def hetero_fair_chaos():
        models = ("resnet18", "squeezenet")
        fleet = Fleet.from_spec("S:2,M:1")
        cache = PlanCache(optimizer="dp")
        cache.warmup(models, fleet.chip_names, BATCHES)
        rate = 0.8 * fleet_capacity_rps(cache, fleet, models, BATCHES)
        traffic = PoissonTraffic(models, num_requests=60, seed=5,
                                 rate_rps=rate, model_weights=(0.6, 0.4))
        faults = [parse_inject("chaos@0:seed=11,count=2,"
                               "mtbf_us=4000,mttr_us=800")]
        ft = FaultTolerance(timeout_us=9000.0, max_retries=1,
                            retry_backoff_us=80.0)
        simulator = ServingSimulator(
            fleet, cache, policy="fair", batch_sizes=BATCHES,
            max_wait_us=200.0, switch_cost=True,
            slos={"resnet18": 10.0, "squeezenet": 3.0},
            faults=faults, fault_tolerance=ft,
        )
        return simulator.run(traffic.generate(),
                             traffic_info=traffic.describe())

    def plain_open_latency():
        model = "squeezenet"
        fleet = Fleet.from_spec("M:2")
        cache = PlanCache(optimizer="dp")
        cache.warmup((model,), fleet.chip_names, BATCHES)
        rate = 0.7 * fleet_capacity_rps(cache, fleet, (model,), BATCHES)
        traffic = PoissonTraffic(model, num_requests=50, seed=7, rate_rps=rate)
        simulator = ServingSimulator(
            fleet, cache, policy="latency", batch_sizes=BATCHES,
            max_wait_us=200.0, switch_cost=True,
        )
        return simulator.run(traffic.generate(),
                             traffic_info=traffic.describe())

    return {
        "fault_retry_latency": fault_retry_latency,
        "hetero_fair_chaos": hetero_fair_chaos,
        "plain_open_latency": plain_open_latency,
    }


class TestPrePr7Pins:
    """The control-plane PR's controller-off contract: with no
    ``ControlConfig`` no controller runs, and every report key — fault
    accounting included — is bit-identical to the pre-control capture."""

    @pytest.mark.parametrize("scenario", [
        "fault_retry_latency",
        "hetero_fair_chaos",
        "plain_open_latency",
    ])
    def test_bit_identical(self, scenario):
        expected = _load_pins()[scenario]
        report = pre_pr7_scenarios()[scenario]()
        assert report.determinism_dict() == expected


# ----------------------------------------------------------------------
# Many-chip and mixed-class routing pins.  The scenarios above run on
# 2-3 chips; these pin the tie-break among many equal chips and a fleet
# whose chips change pricing class mid-run (straggler, degraded DRAM,
# failure and recovery), so a dispatch change that groups chips by class
# cannot move a routing decision unnoticed.
# ----------------------------------------------------------------------
def fleet_scale_scenarios():
    """Scenario builders for the fleet-scale pins, keyed by capture name.

    ``tests/data/serving_pins.json`` holds the ``determinism_dict()`` each
    builder produced when the pins were captured, with every idle chip
    priced one by one through the plan cache.
    """

    def many_equal_chips(policy):
        def build():
            models = ("resnet18", "squeezenet")
            fleet = Fleet.from_spec("M:16")
            cache = PlanCache(optimizer="dp")
            cache.warmup(models, fleet.chip_names, BATCHES)
            # light load: most chips sit idle, so every dispatch breaks
            # ties among many equal candidates (and the policies differ)
            rate = 0.2 * fleet_capacity_rps(cache, fleet, models, BATCHES)
            traffic = PoissonTraffic(models, num_requests=300, seed=11,
                                     rate_rps=rate, model_weights=(0.7, 0.3))
            simulator = ServingSimulator(
                fleet, cache, policy=policy, batch_sizes=BATCHES,
                max_wait_us=200.0, switch_cost=True,
            )
            return simulator.run(traffic.generate(),
                                 traffic_info=traffic.describe())
        return build

    def interleaved_classes_faults():
        models = ("resnet18", "squeezenet")
        # worker order: S0 S1 M2 M3 S4 L5 L6
        fleet = Fleet.from_spec("S:2,M:2,S:1,L:2")
        cache = PlanCache(optimizer="dp")
        cache.warmup(models, fleet.chip_names, BATCHES)
        rate = 0.3 * fleet_capacity_rps(cache, fleet, models, BATCHES)
        traffic = PoissonTraffic(models, num_requests=240, seed=13,
                                 rate_rps=rate, model_weights=(0.6, 0.4))
        span_us = 240 / rate * 1e6
        faults = [
            parse_inject(f"straggler@{0.15 * span_us:.0f}:chip=4,factor=2.5,"
                         f"until={0.55 * span_us:.0f}"),
            parse_inject(f"dram_degrade@{0.25 * span_us:.0f}:chip=3,"
                         f"factor=2,until={0.7 * span_us:.0f}"),
            parse_inject(f"chip_fail@{0.35 * span_us:.0f}:chip=5,"
                         f"until={0.6 * span_us:.0f}"),
        ]
        ft = FaultTolerance(max_retries=2)
        simulator = ServingSimulator(
            fleet, cache, policy="latency", batch_sizes=BATCHES,
            max_wait_us=200.0, switch_cost=True, faults=faults,
            fault_tolerance=ft,
        )
        return simulator.run(traffic.generate(),
                             traffic_info=traffic.describe())

    return {
        "m16_latency_switch_on": many_equal_chips("latency"),
        "m16_fifo_switch_on": many_equal_chips("fifo"),
        "m16_least_loaded_switch_on": many_equal_chips("least_loaded"),
        "interleaved_latency_faults": interleaved_classes_faults,
    }


class TestFleetScalePins:
    """Routing among many equal chips, and among chips whose pricing
    class changes mid-run, is bit-identical to the per-chip capture."""

    @pytest.mark.parametrize("scenario", [
        "m16_latency_switch_on",
        "m16_fifo_switch_on",
        "m16_least_loaded_switch_on",
        "interleaved_latency_faults",
    ])
    def test_bit_identical(self, scenario):
        expected = _load_pins()[scenario]
        report = fleet_scale_scenarios()[scenario]()
        assert report.determinism_dict() == expected
