"""Fleet-scale dispatch: the price table, pricing classes and the view.

The simulator prices every plan through a :class:`PriceTable` that
consults the plan cache once per plan, and a price-ranking policy ranks
one chip per pricing class instead of every idle chip.  These tests hold
both to the per-chip ranking they replace: a seeded oracle over random
idle sets, a deterministic lookup counter, plan-cache eviction, and the
cached :class:`PlanKey` hash the table's class keys rely on.  The run's
dispatch view caches candidates and routes until a chip changes; a
checking run holds every cached answer to a fresh fleet scan.
"""

import math
import pickle
import random

import pytest

from repro.hardware.dram import LPDDR3_8GB
from repro.serve import (
    COLD_PLAN,
    POLICIES,
    CommandQueue,
    ControlConfig,
    FaultTolerance,
    Fleet,
    PlanCache,
    PoissonTraffic,
    Request,
    ServingSimulator,
    fleet_capacity_rps,
    make_policy,
    parse_inject,
    plan_for,
    service_latency_ns,
)
from repro.serve import simulator as simulator_module
from repro.serve.plans import PriceTable, degraded_dram
from repro.serve.scheduler import pricing_classes
from repro.serve.simulator import _RunState
from test_serve import (
    _load_pins,
    _replay_capture,
    fleet_scale_scenarios,
    pre_pr7_scenarios,
)

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
                state.chips_changed()  # the pokes and the swap bypass the loop
                for model in self.MODELS:
                    for batch in BATCHES:
                        expected = _oracle_chip(name, idle, cache, model,
                                                batch, switch_cost)
                        worker, plan, cost = state.route(model, batch, 0.0)
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


class _CheckingRunState(_RunState):
    """A run that holds every dispatch-view answer to a fresh computation.

    Each :meth:`candidates` list must be the very chips a fresh
    ``pricing_classes(idle_chips(now))`` scan gives (or the idle list,
    for a policy that sees every idle chip), and each :meth:`route` must
    be the worker, plan and latency of an uncached ``choose_worker``.
    Every dispatch attempt first checks whatever view is held, so a
    missed invalidation shows even where the loop would not read it.

    It also counts the two early exits that read the view: a
    ``try_dispatch`` with requests queued and an empty view held, and a
    ``try_hedge`` with no candidate.  At each, a fresh ``idle_chips``
    scan must find no chip.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.cached_answers = 0
        self.fresh_answers = 0
        self.empty_view_exits = 0
        self.no_idle_hedge_exits = 0

    def fresh_candidates(self, now):
        idle = self.idle_chips(now)
        return pricing_classes(idle) if self.policy.ranks_by_price else idle

    def check_candidates(self, view, now):
        fresh = self.fresh_candidates(now)
        assert len(view) == len(fresh), now
        assert all(a is b for a, b in zip(view, fresh)), now

    def check_route(self, routed, model, batch, now):
        worker, plan, service_ns = routed
        expected = self.policy.choose_worker(
            self.fresh_candidates(now), model, batch, self.prices, now,
            self.switch_cost)
        assert worker is expected, (now, model, batch)
        assert plan is plan_for(self.prices, expected, model, batch)
        assert service_ns == service_latency_ns(plan, expected,
                                                self.switch_cost)

    def candidates(self, now):
        cached = self.view is not None
        view = super().candidates(now)
        self.check_candidates(view, now)
        if cached:
            self.cached_answers += 1
        else:
            self.fresh_answers += 1
        return view

    def route(self, model, batch, now):
        cached = (model, batch) in self.routes
        routed = super().route(model, batch, now)
        self.check_route(routed, model, batch, now)
        if cached:
            self.cached_answers += 1
        else:
            self.fresh_answers += 1
        return routed

    def try_dispatch(self, now):
        if self.view is not None:
            self.check_candidates(self.view, now)
            for (model, batch), routed in self.routes.items():
                self.check_route(routed, model, batch, now)
            if self.depth and not self.view:
                assert not self.idle_chips(now), now
                self.empty_view_exits += 1
        super().try_dispatch(now)

    def try_hedge(self, now, budget_ns):
        if not self.candidates(now):
            assert not self.idle_chips(now), now
            self.no_idle_hedge_exits += 1
        super().try_hedge(now, budget_ns)


class _CommandsAt(CommandQueue):
    """Hands ``schedule[n]`` to the run at its ``n``-th event pop."""

    def __init__(self, schedule):
        super().__init__()
        self.schedule = schedule
        self.pops = 0

    def drain(self):
        self.pops += 1
        return self.schedule.get(self.pops, [])


def _chaos_run(policy, commands=None, replace_plans=True):
    """Chaos, a straggler and degraded DRAM under hedging, autoscale and
    plan re-placement: every site that changes a chip's dispatch state."""
    models = ("resnet18", "squeezenet")
    fleet = Fleet.from_spec("S:2,M:2")
    cache = PlanCache(optimizer="dp")
    cache.warmup(models, ("S", "M"), BATCHES)
    rate = 0.6 * fleet_capacity_rps(cache, fleet, models, BATCHES)
    traffic = PoissonTraffic(models, num_requests=400, seed=9, rate_rps=rate,
                             model_weights=(0.6, 0.4))
    span_us = 400 / rate * 1e6
    faults = [
        parse_inject("chaos@0:seed=7,count=4,"
                     f"mtbf_us={0.2 * span_us:.0f},mttr_us={0.05 * span_us:.0f}"),
        parse_inject(f"straggler@{0.1 * span_us:.0f}:chip=1,factor=3,"
                     f"until={0.6 * span_us:.0f}"),
        parse_inject(f"dram_degrade@{0.3 * span_us:.0f}:chip=2,factor=2,"
                     f"until={0.8 * span_us:.0f}"),
    ]
    slos = {model: 30 * cache.get(model, "S", 1).latency_ns * 1e-6
            for model in models}
    simulator = ServingSimulator(
        fleet, cache, policy=policy, batch_sizes=BATCHES, max_wait_us=200.0,
        switch_cost=True, slos=slos, faults=faults,
        fault_tolerance=FaultTolerance(timeout_us=0.3 * span_us,
                                       max_retries=2, degrade_below=0.5),
        control=ControlConfig(interval_us=0.005 * span_us,
                              hedge_after_pct=70.0, autoscale=True,
                              min_chips=2, max_chips=6,
                              cooldown_us=0.01 * span_us, scale_chip="S",
                              replace_plans=replace_plans),
    )
    return simulator.run(traffic.generate(), traffic_info=traffic.describe(),
                         commands=commands)


class TestDispatchView:
    """Every cached candidate list and route equals a fresh computation."""

    @pytest.fixture(autouse=True)
    def checking(self, monkeypatch):
        self.runs = []

        def checking_state(*args):
            state = _CheckingRunState(*args)
            self.runs.append(state)
            return state

        monkeypatch.setattr(simulator_module, "_RunState", checking_state)

    def checked_run(self, early_exits=False):
        (state,) = self.runs
        assert state.cached_answers > 0 and state.fresh_answers > 0
        if early_exits:
            assert state.empty_view_exits > 0
            assert state.no_idle_hedge_exits > 0

    @pytest.mark.parametrize("scenario", sorted(_load_pins()))
    def test_serving_pins(self, scenario):
        expected = _load_pins()[scenario]
        builders = {**pre_pr7_scenarios(), **fleet_scale_scenarios()}
        if scenario in builders:
            report = builders[scenario]()
        else:
            report = _replay_capture(expected)
        data = report.determinism_dict()
        # the two oldest captures predate served_histogram
        assert {key: data[key] for key in expected} == expected
        self.checked_run()

    @pytest.mark.parametrize("replace_plans", [True, False])
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_chaos_hedging_autoscale(self, policy, replace_plans):
        report = _chaos_run(policy, replace_plans=replace_plans)
        control = report.control
        assert report.failures > 0 and control["quarantines"] > 0
        assert control["scale_ups"] > 0 and control["scale_downs"] > 0
        assert (control["replacements"] > 0) == replace_plans
        if replace_plans:
            assert control["hedges"] > 0
        self.checked_run(early_exits=True)

    def test_mid_run_set_policy(self):
        # a policy swap every 5 pops, round the registry, while the view
        # may still hold the previous policy's candidates and routes
        names = sorted(POLICIES)
        schedule = {
            5 * (k + 1): [{"op": "set_policy", "policy": names[k % 4]}]
            for k in range(200)
        }
        report = _chaos_run("fifo", commands=_CommandsAt(schedule))
        applied = [entry for entry in report.commands
                   if entry["status"] == "applied"]
        assert len(applied) == 200 and applied[0]["t_ms"] > 0
        self.checked_run(early_exits=True)


class TestInvalidationSites:
    """Each control-plane or command action drops a view it outdates.

    Whole runs rarely hold a non-empty view when these actions land (the
    loop reads the view only while a queue waits), so each is driven
    directly on an all-idle fleet with a view held for every policy.
    """

    @staticmethod
    def held_view(policy):
        fleet = Fleet.from_spec("S:2,M:2")
        cache = PlanCache(optimizer="dp")
        cache.warmup(("squeezenet",), ("S", "M"), BATCHES)
        simulator = ServingSimulator(
            fleet, cache, policy=policy, batch_sizes=BATCHES,
            switch_cost=True,
            control=ControlConfig(interval_us=100.0, autoscale=True,
                                  max_chips=6, scale_chip="M"))
        state = _CheckingRunState(simulator, [Request(0, "squeezenet", 0.0)],
                                  None, None)
        state.ctrl.note_dispatch(0, "squeezenet", 4, 0.0)
        state.route("squeezenet", 4, 0.0)
        return state

    @pytest.mark.parametrize("action", [
        lambda state: state.add_chip(0.0),
        lambda state: state.retire_chip(0.0),
        lambda state: state.replace_resident_plans(0.0),
        lambda state: state.apply_command(
            {"op": "set_policy",
             "policy": "fifo" if state.policy.ranks_by_price else "latency"},
            0.0),
    ], ids=["add_chip", "retire_chip", "replace_resident_plans",
            "set_policy"])
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_view_follows_the_action(self, policy, action):
        state = self.held_view(policy)
        action(state)
        # both answers are checked against a fresh computation
        if state.candidates(0.0):
            state.route("squeezenet", 4, 0.0)


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
