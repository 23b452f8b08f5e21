"""Fleet-scale dispatch: the per-run price table and pricing classes.

The simulator prices every plan through a :class:`PriceTable` that
consults the plan cache once per plan, and a price-ranking policy ranks
one chip per pricing class instead of every idle chip.  These tests hold
both to the per-chip ranking they replace: a seeded oracle over random
idle sets, a deterministic lookup counter, plan-cache eviction, and the
cached :class:`PlanKey` hash the table's class keys rely on.
"""

import math
import pickle
import random

import pytest

from repro.hardware.dram import LPDDR3_8GB
from repro.serve import (
    COLD_PLAN,
    POLICIES,
    Fleet,
    PlanCache,
    PoissonTraffic,
    Request,
    ServingSimulator,
    fleet_capacity_rps,
    make_policy,
    service_latency_ns,
)
from repro.serve.plans import PriceTable, degraded_dram
from repro.serve.scheduler import pricing_classes
from repro.serve.simulator import _RunState

BATCHES = (1, 2, 4, 8, 16)


def _naive_plan(cache, worker, model, batch):
    """The plan a chip runs, priced straight through the cache (the
    per-chip lookup every dispatch made before the price table)."""
    if worker.dram_factor != 1.0:
        return cache.get(model, worker.chip_name, batch,
                         dram=degraded_dram(cache.dram_config,
                                            worker.dram_factor))
    return cache.get(model, worker.chip_name, batch)


def _oracle_chip(policy, idle, cache, model, batch, switch_cost):
    """Each policy's chip choice, ranking every idle chip one by one."""
    if policy == "fifo":
        return idle[0]
    if policy == "least_loaded":
        return min(idle, key=lambda w: (w.busy_ns, w.index))
    return min(idle, key=lambda w: (
        service_latency_ns(_naive_plan(cache, w, model, batch), w,
                           switch_cost),
        w.busy_ns, w.index))


class TestRoutingOracle:
    MODELS = ("squeezenet", "lenet5")
    # interleaved classes: S0 S1 S2 M3 M4 M5 M6 L7 L8 S9 S10 M11 M12 M13
    FLEET = "S:3,M:4,L:2,S:2,M:3"

    @pytest.fixture(scope="class")
    def cache(self):
        cache = PlanCache(optimizer="dp")
        cache.warmup(self.MODELS, ("S", "M", "L"), BATCHES)
        return cache

    def test_classes_pick_the_per_chip_choice(self, cache):
        rng = random.Random(20261017)
        fleet = Fleet.from_spec(self.FLEET)
        resident = [None, COLD_PLAN] + [
            cache.get(model, chip, batch).key
            for model in self.MODELS for chip in ("S", "M") for batch in (1, 4)
        ] + [cache.get("squeezenet", "M", 4,
                       dram=degraded_dram(LPDDR3_8GB, 2.0)).key]
        checked = 0
        for trial in range(500):
            switch_cost = trial % 4 != 0
            simulator = ServingSimulator(fleet, cache, switch_cost=switch_cost)
            state = _RunState(simulator, [Request(0, "squeezenet", 0.0)],
                              None, None)
            for worker in fleet.workers:
                # few distinct values, so busy times tie and classes repeat
                worker.busy_ns = rng.choice((0.0, 0.0, 1e6, 2.5e6))
                worker.latency_factor = rng.choice((1.0, 1.0, 1.0, 2.5))
                worker.dram_factor = rng.choice((1.0, 1.0, 1.0, 2.0))
                worker.loaded_plan = rng.choice(resident)
                worker.busy_until_ns = rng.choice((0.0, 0.0, math.inf))
            idle = [w for w in fleet.workers if w.busy_until_ns <= 0.0]
            if not idle:
                continue
            for name in sorted(POLICIES):
                state.policy = make_policy(name)
                candidates = state.candidates(0.0)
                for model in self.MODELS:
                    for batch in BATCHES:
                        expected = _oracle_chip(name, idle, cache, model,
                                                batch, switch_cost)
                        worker, plan, cost = state.route(candidates, model,
                                                         batch, 0.0)
                        assert worker is expected, (trial, name, model, batch)
                        naive = _naive_plan(cache, expected, model, batch)
                        assert plan is naive
                        assert cost == service_latency_ns(naive, expected,
                                                          switch_cost)
                        checked += 1
        assert checked > 500 * len(POLICIES) * len(BATCHES)

    def test_representative_is_least_busy_then_lowest_index(self):
        fleet = Fleet.from_spec("M:4,S:1")
        m0, m1, m2, m3, s4 = fleet.workers
        m0.busy_ns, m1.busy_ns, m2.busy_ns, m3.busy_ns = 5.0, 2.0, 2.0, 1.0
        m3.latency_factor = 2.0  # a straggler is a class of its own
        assert pricing_classes([m0, m1, m2, m3, s4]) == [m1, m3, s4]
        # the index breaks a busy-time tie whatever the input order
        assert pricing_classes([m2, m1]) == [m1]


class TestPlanLookups:
    def test_run_consults_the_cache_once_per_plan(self):
        class KeyRecordingCache(PlanCache):
            def get(self, model, chip, batch, dram=None):
                self.touched.add(self.key_for(model, chip, batch, dram))
                return super().get(model, chip, batch, dram)

        fleet = Fleet.from_spec("M:64")
        cache = KeyRecordingCache(optimizer="dp")
        cache.touched = set()
        cache.warmup(("resnet18",), fleet.chip_names, BATCHES)
        rate = 0.7 * fleet_capacity_rps(cache, fleet, ("resnet18",), BATCHES)
        requests = PoissonTraffic("resnet18", num_requests=1000, seed=1,
                                  rate_rps=rate).generate()
        simulator = ServingSimulator(fleet, cache, policy="latency",
                                     batch_sizes=BATCHES, max_wait_us=200.0)
        before = cache.stats
        cache.touched = set()
        report = simulator.run(requests)
        after = cache.stats
        lookups = after.hits + after.misses - before.hits - before.misses
        assert report.completed == 1000
        assert 0 < lookups <= len(cache.touched)

    def test_table_keeps_plans_the_cache_evicts(self):
        cache = PlanCache(capacity=1, optimizer="dp")
        table = PriceTable(cache)
        first = table.plan("lenet5", "S", 1)
        table.plan("lenet5", "S", 2)
        assert cache.stats.evictions == 1
        assert table.plan("lenet5", "S", 1) is first
        assert cache.stats.misses == 2

    def test_eviction_cannot_change_outcomes(self):
        def run(capacity):
            fleet = Fleet.from_spec("S:2,M:2")
            cache = PlanCache(capacity=capacity, optimizer="dp")
            cache.warmup(("squeezenet",), fleet.chip_names, BATCHES)
            rate = 0.6 * fleet_capacity_rps(cache, fleet, ("squeezenet",),
                                            BATCHES)
            traffic = PoissonTraffic("squeezenet", num_requests=200, seed=4,
                                     rate_rps=rate)
            simulator = ServingSimulator(fleet, cache, policy="latency",
                                         batch_sizes=BATCHES,
                                         max_wait_us=200.0, switch_cost=True)
            return simulator.run(traffic.generate(),
                                 traffic_info=traffic.describe())

        small, large = run(2), run(64)
        assert small.plan_cache["evictions"] > 0
        assert large.plan_cache["evictions"] == 0
        assert small.determinism_dict() == large.determinism_dict()


class TestPlanKeyHash:
    def test_equal_keys_hash_equal(self):
        cache = PlanCache(optimizer="dp")
        first = cache.key_for("resnet18", "M", 4)
        second = cache.key_for("resnet18", "M", 4)
        assert first is not second
        assert first == second and hash(first) == hash(second)
        copied = pickle.loads(pickle.dumps(first))
        assert copied == first and hash(copied) == hash(first)

    def test_degraded_dram_key_differs(self):
        cache = PlanCache(optimizer="dp")
        nominal = cache.key_for("resnet18", "M", 4)
        degraded = cache.key_for("resnet18", "M", 4,
                                 dram=degraded_dram(LPDDR3_8GB, 2.0))
        assert degraded != nominal
        assert len({nominal, degraded}) == 2
        assert COLD_PLAN != nominal
