"""Tests for the self-healing control plane (:mod:`repro.serve.control`).

Covers the :class:`ControlConfig` surface, the pure helpers (nearest-rank
percentile, the plan re-placement solve), the :class:`Controller` decision
logic against hand-built workers, and the four actuators end to end inside
the simulator: failure detection + quarantine scored against injected
ground truth, hedged requests (with the request-conservation invariant),
the SLO-driven autoscaler, and plan re-placement.  Controller-off
bit-identity against the pre-control simulator is pinned separately in
``tests/test_serve.py``.
"""

import dataclasses

import pytest

from repro.serve import (
    COLD_PLAN,
    ControlConfig,
    Controller,
    FaultTolerance,
    Fleet,
    PlanCache,
    PoissonTraffic,
    ServingSimulator,
    fleet_capacity_rps,
    parse_inject,
    place_plans,
)
from repro.sim.metrics import nearest_rank_percentile
from repro.serve.fleet import ChipWorker

BATCHES = (1, 2, 4, 8)


def _control_run(control, faults=None, ft=None, fleet_spec="M:3",
                 model="squeezenet", requests=80, seed=0, policy="latency",
                 max_wait_us=100.0, rate_scale=0.8, slos=None,
                 switch_cost=False, simulator_out=None):
    cache = PlanCache(optimizer="dp")
    fleet = Fleet.from_spec(fleet_spec)
    cache.warmup([model], fleet.chip_names, BATCHES)
    rate = rate_scale * fleet_capacity_rps(cache, fleet, (model,), BATCHES)
    traffic = PoissonTraffic(model, num_requests=requests, seed=seed,
                             rate_rps=rate)
    simulator = ServingSimulator(fleet, cache, policy=policy,
                                 batch_sizes=BATCHES, max_wait_us=max_wait_us,
                                 switch_cost=switch_cost, slos=slos,
                                 faults=faults, fault_tolerance=ft,
                                 control=control)
    if simulator_out is not None:
        simulator_out.append(simulator)
    return simulator.run(traffic.generate(), traffic_info=traffic.describe())


def _conserved(report):
    return (report.completed + report.shed + report.timeouts + report.lost
            == report.num_requests)


# ----------------------------------------------------------------------
# ControlConfig surface
# ----------------------------------------------------------------------
class TestControlConfig:
    def test_defaults_inactive(self):
        config = ControlConfig()
        assert config.interval_us == 0.0
        assert not config.active

    def test_interval_activates(self):
        assert ControlConfig(interval_us=100.0).active

    @pytest.mark.parametrize("kwargs", [
        {"interval_us": -1.0},
        {"quarantine_after": 0},
        {"straggler_ratio": 1.0},
        {"straggler_ratio": 0.5},
        {"probation_us": 0.0},
        {"hedge_after_pct": -1.0},
        {"hedge_after_pct": 100.0},
        {"hedge_min_samples": 0},
        {"min_chips": 0},
        {"min_chips": 4, "max_chips": 2},
        {"scale_up_below": 0.0},
        {"scale_up_below": 1.5},
        {"scale_up_depth": 0.0},
        {"scale_down_util": 1.0},
        {"cooldown_us": -1.0},
        {"window": 0},
    ])
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ControlConfig(**kwargs)

    def test_frozen(self):
        config = ControlConfig(interval_us=100.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.interval_us = 50.0

    def test_cold_plan_never_matches_a_real_plan(self):
        cache = PlanCache(optimizer="dp")
        plan = cache.get("squeezenet", "S", 1)
        assert COLD_PLAN != plan.key


# ----------------------------------------------------------------------
# Pure helpers
# ----------------------------------------------------------------------
class TestPercentile:
    def test_empty_is_zero(self):
        assert nearest_rank_percentile([], 99) == 0.0

    def test_nearest_rank(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert nearest_rank_percentile(values, 50) == 20.0
        assert nearest_rank_percentile(values, 75) == 30.0
        assert nearest_rank_percentile(values, 99) == 40.0
        # rank never falls below 1, even at q=0
        assert nearest_rank_percentile(values, 0) == 10.0

    def test_single_sample(self):
        assert nearest_rank_percentile([7.0], 95) == 7.0


class TestPlacePlans:
    PRICES = {  # (chip, model) -> warm service price
        (0, "a"): 10.0, (0, "b"): 50.0,
        (1, "a"): 40.0, (1, "b"): 20.0,
    }

    def price(self, chip, model):
        return self.PRICES[(chip, model)]

    def test_exact_solve_covers_both_models(self):
        assignment = place_plans(
            [0, 1], ["a", "b"], {"a": 1.0, "b": 1.0},
            self.price, miss=lambda m: 1000.0)
        # covering both beats doubling up on either chip's favourite
        assert assignment == {0: "a", 1: "b"}

    def test_weights_steer_the_assignment(self):
        # model "a" dominates traffic and chip 1 runs it much faster:
        # both chips pin "a" (chip 1's price wins the cover), "b" eats
        # its miss price instead of occupying a chip
        prices = {(0, "a"): 10.0, (0, "b"): 50.0,
                  (1, "a"): 2.0, (1, "b"): 50.0}
        assignment = place_plans(
            [0, 1], ["a", "b"], {"a": 100.0, "b": 1.0},
            lambda c, m: prices[(c, m)], miss=lambda m: 30.0)
        assert assignment == {0: "a", 1: "a"}

    def test_empty_inputs(self):
        assert place_plans([], ["a"], {}, self.price, lambda m: 0.0) == {}
        assert place_plans([0], [], {}, self.price, lambda m: 0.0) == {}

    def test_greedy_fallback_is_deterministic_and_covers(self):
        # 2 models on 13 chips = 8192 assignments > the exhaustive budget
        chips = list(range(13))
        models = ["a", "b"]
        weights = {"a": 5.0, "b": 3.0}

        def price(chip, model):
            return 10.0 + chip + (5.0 if model == "b" else 0.0)

        first = place_plans(chips, models, weights, price, lambda m: 100.0)
        second = place_plans(chips, models, weights, price, lambda m: 100.0)
        assert first == second
        assert set(first) == set(chips)
        assert set(first.values()) == {"a", "b"}


# ----------------------------------------------------------------------
# Controller decision logic against hand-built workers
# ----------------------------------------------------------------------
def _workers(n, **overrides):
    return [ChipWorker(index=i, chip_name="M", **overrides) for i in range(n)]


class TestControllerDecisions:
    def test_stalled_completion_quarantines(self):
        ctrl = Controller(ControlConfig(interval_us=100.0))
        workers = _workers(2)
        ctrl.note_dispatch(0, "m", 4, completion_ns=1000.0, epoch=0)
        workers[0].up = False  # the chip died mid-batch
        assert ctrl.assess(2000.0, workers)
        assert 0 in ctrl.blocked
        assert ctrl.detections == ctrl.true_detections == 1
        assert ctrl.false_detections == 0

    def test_epoch_move_scores_true_even_after_recovery(self):
        # the chip died and already recovered by the tick — the moved
        # epoch still proves the dispatched batch was killed
        ctrl = Controller(ControlConfig(interval_us=100.0))
        workers = _workers(1)
        ctrl.note_dispatch(0, "m", 4, completion_ns=1000.0, epoch=0)
        workers[0].epoch = 1  # failure bumped it; chip is up again
        assert ctrl.assess(2000.0, workers)
        assert ctrl.true_detections == 1

    def test_healthy_stall_scores_false_positive(self):
        ctrl = Controller(ControlConfig(interval_us=100.0))
        workers = _workers(1)
        ctrl.note_dispatch(0, "m", 4, completion_ns=1000.0, epoch=0)
        # chip is up, same epoch: the controller still quarantines on the
        # missing completion, but truth scores it a false positive
        assert ctrl.assess(2000.0, workers)
        assert ctrl.false_detections == 1

    def test_straggler_needs_consecutive_strikes(self):
        ctrl = Controller(ControlConfig(interval_us=100.0, quarantine_after=2))
        workers = _workers(3)
        workers[0].latency_factor = 4.0
        ctrl.note_completion(0, 4.0)  # far above the 1.0 fleet median
        ctrl.note_completion(1, 1.0)
        ctrl.note_completion(2, 1.0)
        assert not ctrl.assess(1000.0, workers)  # first strike only
        assert ctrl.assess(2000.0, workers)      # second strike quarantines
        assert 0 in ctrl.blocked
        assert ctrl.true_detections == 1

    def test_probation_readmits_and_doubles_on_flap(self):
        config = ControlConfig(interval_us=100.0, probation_us=1000.0)
        ctrl = Controller(config)
        workers = _workers(1)
        ctrl._quarantine(0, now=0.0, genuine=True)
        first_probation = ctrl.health_for(0).quarantined_until
        assert first_probation == pytest.approx(1_000_000.0)
        assert not ctrl.assess(first_probation - 1.0, workers)  # still serving
        assert ctrl.assess(first_probation, workers)
        assert 0 not in ctrl.blocked
        assert ctrl.readmissions == 1
        # flap: the second quarantine's probation is twice as long
        ctrl._quarantine(0, now=first_probation, genuine=True)
        assert ctrl.health_for(0).quarantined_until == \
            pytest.approx(first_probation + 2_000_000.0)

    def test_scale_up_on_bad_attainment(self):
        config = ControlConfig(interval_us=100.0, autoscale=True,
                               min_chips=1, max_chips=4)
        ctrl = Controller(config)
        for _ in range(10):
            ctrl.note_request(1000.0, slo_ok=False)
        assert ctrl.scale_decision(0.0, _workers(2), queued=3) == +1

    def test_scale_respects_bounds_and_cooldown(self):
        config = ControlConfig(interval_us=100.0, autoscale=True,
                               min_chips=1, max_chips=2, cooldown_us=1000.0)
        ctrl = Controller(config)
        for _ in range(10):
            ctrl.note_request(1000.0, slo_ok=False)
        assert ctrl.scale_decision(0.0, _workers(2), queued=3) == 0  # at max
        workers = _workers(1)
        assert ctrl.scale_decision(0.0, workers, queued=3) == +1
        ctrl.last_scale_ns = 0.0
        assert ctrl.scale_decision(500_000.0, workers, queued=3) == 0  # cooling
        assert ctrl.scale_decision(1_000_000.0, workers, queued=3) == +1

    def test_scale_down_needs_idle_fleet_and_healthy_slo(self):
        config = ControlConfig(interval_us=100.0, autoscale=True,
                               min_chips=1, max_chips=4, scale_down_util=0.3)
        ctrl = Controller(config)
        workers = _workers(2)
        for _ in range(10):
            ctrl.note_request(1000.0, slo_ok=True)
            ctrl.update_utilisation(1000.0, workers)  # everyone idle
        assert ctrl.scale_decision(0.0, workers, queued=0) == -1
        assert ctrl.scale_decision(0.0, workers, queued=5) == 0  # backlog
        assert ctrl.scale_decision(0.0, _workers(1), queued=0) == 0  # at min

    def test_emergency_scale_up_when_nothing_can_serve(self):
        config = ControlConfig(interval_us=100.0, autoscale=True, max_chips=4)
        ctrl = Controller(config)
        workers = _workers(2)
        ctrl.blocked.update({0, 1})
        assert ctrl.scale_decision(0.0, workers, queued=1) == +1

    def test_preferred_batch_tracks_the_dispatch_mix(self):
        ctrl = Controller(ControlConfig(interval_us=100.0))
        assert ctrl.preferred_batch("m", fallback=4) == 4
        for _ in range(3):
            ctrl.note_dispatch(0, "m", 8, completion_ns=1.0)
        ctrl.note_dispatch(0, "m", 2, completion_ns=1.0)
        assert ctrl.preferred_batch("m", fallback=4) == 8


# ----------------------------------------------------------------------
# Failure detection + quarantine, end to end
# ----------------------------------------------------------------------
class TestDetectionEndToEnd:
    FAULTS = [parse_inject("chip_fail@1000:chip=0,until=20000")]

    def test_chip_death_is_detected_and_scored_true(self):
        report = _control_run(
            ControlConfig(interval_us=200.0),
            faults=self.FAULTS, ft=FaultTolerance(max_retries=2))
        control = report.control
        assert control["ticks"] > 0
        assert control["detections"] >= 1
        assert control["true_detections"] >= 1
        assert control["quarantines"] >= 1
        assert control["detections"] == \
            control["true_detections"] + control["false_detections"]
        assert _conserved(report)

    def test_recovered_chip_is_readmitted_and_serves_again(self):
        report = _control_run(
            ControlConfig(interval_us=200.0, probation_us=500.0),
            faults=self.FAULTS, ft=FaultTolerance(max_retries=2),
            requests=160, rate_scale=0.6)
        assert report.control["readmissions"] >= 1
        # after probation the chip takes work again
        assert report.per_chip[0]["requests"] > 0

    def test_quarantine_routes_around_the_straggler(self):
        faults = [parse_inject("straggler@0:chip=0,factor=6")]
        plain = _control_run(None, faults=faults, requests=200,
                             ft=FaultTolerance(max_retries=1), policy="fifo")
        healed = _control_run(
            ControlConfig(interval_us=200.0, probation_us=50_000.0),
            faults=faults, requests=200,
            ft=FaultTolerance(max_retries=1), policy="fifo")
        assert healed.control["quarantines"] >= 1
        assert healed.control["true_detections"] >= 1
        # with the straggler drained, tail latency improves materially
        assert healed.latency_ms["p99"] < plain.latency_ms["p99"]

    def test_clean_run_raises_no_false_alarms(self):
        report = _control_run(ControlConfig(interval_us=200.0))
        assert report.control["detections"] == 0
        assert report.control["quarantines"] == 0
        assert report.completed == report.num_requests


# ----------------------------------------------------------------------
# Hedged requests
# ----------------------------------------------------------------------
class TestHedging:
    CONFIG = ControlConfig(interval_us=200.0, hedge_after_pct=70.0,
                           hedge_min_samples=8)
    FAULTS = [parse_inject("straggler@0:chip=0,factor=6")]

    def _run(self, seed=0):
        return _control_run(self.CONFIG, faults=self.FAULTS,
                            ft=FaultTolerance(max_retries=1), policy="fifo",
                            seed=seed, requests=120)

    def test_hedges_fire_and_win(self):
        report = self._run()
        control = report.control
        assert control["hedges"] >= 1
        assert control["hedges_won"] >= 1
        assert control["hedges_won"] + control["hedges_wasted"] \
            <= control["hedges"]

    def test_hedges_do_not_inflate_fate_counters(self):
        # the conservation invariant with hedging on: every offered
        # request has exactly one fate, duplicates notwithstanding
        report = self._run()
        assert _conserved(report)
        assert report.completed <= report.num_requests

    def test_fixed_seed_hedged_run_replays_bit_identically(self):
        first = self._run()
        second = self._run()
        assert first.determinism_dict() == second.determinism_dict()
        assert first.control == second.control

    def test_different_seed_changes_the_run(self):
        assert self._run().determinism_dict() != \
            self._run(seed=3).determinism_dict()

    def test_hedging_cuts_tail_latency_under_stragglers(self):
        unhedged = _control_run(
            ControlConfig(interval_us=200.0), faults=self.FAULTS,
            ft=FaultTolerance(max_retries=1), policy="fifo", requests=120)
        hedged = self._run()
        assert hedged.latency_ms["p99"] <= unhedged.latency_ms["p99"]


# ----------------------------------------------------------------------
# SLO-driven autoscaler
# ----------------------------------------------------------------------
class TestAutoscale:
    def test_overload_grows_the_fleet(self):
        simulators = []
        report = _control_run(
            ControlConfig(interval_us=200.0, autoscale=True,
                          min_chips=2, max_chips=6, cooldown_us=500.0),
            fleet_spec="M:2", rate_scale=2.5, requests=160,
            slos={"squeezenet": 6.0}, ft=FaultTolerance(max_retries=1),
            simulator_out=simulators)
        control = report.control
        assert control["scale_ups"] >= 1
        assert control["base_chips"] == 2
        assert control["final_chips"] > 2
        assert control["final_chips"] <= 6
        # the fleet object really grew (retired chips stay listed)
        assert len(simulators[0].fleet.workers) >= control["final_chips"]
        assert _conserved(report)

    def test_autoscaling_improves_attainment(self):
        kwargs = dict(fleet_spec="M:2", rate_scale=2.5, requests=160,
                      slos={"squeezenet": 6.0},
                      ft=FaultTolerance(max_retries=1))
        static = _control_run(ControlConfig(interval_us=200.0), **kwargs)
        scaled = _control_run(
            ControlConfig(interval_us=200.0, autoscale=True,
                          min_chips=2, max_chips=6, cooldown_us=500.0),
            **kwargs)
        assert scaled.slo["squeezenet"]["attainment"] > \
            static.slo["squeezenet"]["attainment"]

    def test_cold_chips_pay_the_plan_switch(self):
        report = _control_run(
            ControlConfig(interval_us=200.0, autoscale=True,
                          min_chips=2, max_chips=6, cooldown_us=500.0,
                          replace_plans=False),
            fleet_spec="M:2", rate_scale=2.5, requests=160,
            slos={"squeezenet": 6.0}, ft=FaultTolerance(max_retries=1),
            switch_cost=True)
        assert report.control["scale_ups"] >= 1
        # an autoscaled chip starts on COLD_PLAN: its first dispatch is a
        # plan switch even in a single-model run
        grown = report.per_chip[2:]
        assert any(row["plan_switches"] >= 1 for row in grown
                   if row["requests"] > 0)

    def test_idle_fleet_scales_down_within_bounds(self):
        report = _control_run(
            ControlConfig(interval_us=200.0, autoscale=True,
                          min_chips=1, max_chips=4, cooldown_us=500.0,
                          scale_down_util=0.5),
            fleet_spec="M:4", rate_scale=0.1, requests=80,
            ft=FaultTolerance(max_retries=1))
        control = report.control
        assert control["scale_downs"] >= 1
        assert control["final_chips"] >= 1
        assert _conserved(report)

    def test_rerunning_the_simulator_resets_the_fleet(self):
        simulators = []
        config = ControlConfig(interval_us=200.0, autoscale=True,
                               min_chips=2, max_chips=6, cooldown_us=500.0)
        first = _control_run(config, fleet_spec="M:2", rate_scale=2.5,
                             requests=160, slos={"squeezenet": 6.0},
                             ft=FaultTolerance(max_retries=1),
                             simulator_out=simulators)
        assert first.control["scale_ups"] >= 1
        traffic = PoissonTraffic("squeezenet", num_requests=160, seed=0,
                                 rate_rps=first.offered_rps)
        second = simulators[0].run(traffic.generate(),
                                   traffic_info=traffic.describe())
        # the autoscaled chips of the first run were truncated away
        assert second.control["base_chips"] == 2


# ----------------------------------------------------------------------
# Plan re-placement
# ----------------------------------------------------------------------
class TestReplacement:
    def test_quarantine_triggers_replacement(self):
        report = _control_run(
            ControlConfig(interval_us=200.0),
            faults=[parse_inject("chip_fail@1000:chip=0,until=20000")],
            ft=FaultTolerance(max_retries=2), switch_cost=True)
        control = report.control
        assert control["quarantines"] >= 1
        assert control["replacements"] >= 1
        assert control["replacement_ms"] > 0.0

    def test_replace_plans_off_suppresses_rounds(self):
        report = _control_run(
            ControlConfig(interval_us=200.0, replace_plans=False),
            faults=[parse_inject("chip_fail@1000:chip=0,until=20000")],
            ft=FaultTolerance(max_retries=2), switch_cost=True)
        assert report.control["quarantines"] >= 1
        assert report.control["replacements"] == 0
        assert report.control["replacement_ms"] == 0.0

    def test_replacement_without_switch_cost_is_free(self):
        # without switch-cost modelling there is no WR to pre-pay, so the
        # controller skips re-placement entirely
        report = _control_run(
            ControlConfig(interval_us=200.0),
            faults=[parse_inject("chip_fail@1000:chip=0,until=20000")],
            ft=FaultTolerance(max_retries=2), switch_cost=False)
        assert report.control["replacements"] == 0


# ----------------------------------------------------------------------
# Report shape, rendering, serialization
# ----------------------------------------------------------------------
class TestControlReport:
    def test_controller_off_keeps_legacy_shape(self):
        report = _control_run(None)
        assert report.control == {}
        assert "control" not in report.as_dict()

    def test_inactive_config_matches_no_config(self):
        off = _control_run(None)
        default = _control_run(ControlConfig())
        assert off.determinism_dict() == default.determinism_dict()
        assert "control" not in default.as_dict()

    def test_control_block_in_determinism_dict(self):
        report = _control_run(ControlConfig(interval_us=200.0))
        data = report.determinism_dict()
        assert data["control"]["ticks"] == report.control["ticks"]
        assert data["control"]["interval_us"] == 200.0

    def test_render_and_round_trip(self, tmp_path):
        from repro.serialization import dump_serving_report, load_result_dict
        from repro.sim.report import render_serving_report

        report = _control_run(
            ControlConfig(interval_us=200.0, hedge_after_pct=70.0,
                          autoscale=True, min_chips=2, max_chips=6,
                          cooldown_us=500.0),
            faults=[parse_inject("straggler@0:chip=0,factor=6")],
            ft=FaultTolerance(max_retries=1), policy="fifo",
            rate_scale=1.5, requests=160, slos={"squeezenet": 8.0},
            switch_cost=True)
        text = render_serving_report(report)
        assert "control plane" in text
        assert "quarantines" in text
        path = str(tmp_path / "control.json")
        dump_serving_report(report, path)
        loaded = load_result_dict(path)
        assert loaded == report.as_dict()
        assert loaded["control"]["ticks"] == report.control["ticks"]

    def test_self_healing_beats_uncontrolled_attainment(self):
        # the headline acceptance scenario: chip death + straggler under
        # load, identical traffic — the controller materially lifts SLO
        # attainment by routing around the sick chips and growing capacity
        kwargs = dict(
            fleet_spec="M:3", rate_scale=1.0, requests=200,
            faults=[parse_inject("chip_fail@1000:chip=0,until=25000"),
                    parse_inject("straggler@500:chip=1,factor=6")],
            ft=FaultTolerance(max_retries=2, timeout_us=30_000.0),
            slos={"squeezenet": 10.0},
        )
        plain = _control_run(None, **kwargs)
        healed = _control_run(
            ControlConfig(interval_us=200.0, hedge_after_pct=80.0,
                          autoscale=True, min_chips=2, max_chips=6,
                          cooldown_us=500.0, probation_us=5000.0),
            **kwargs)
        assert _conserved(plain) and _conserved(healed)
        assert healed.slo["squeezenet"]["attainment"] >= \
            plain.slo["squeezenet"]["attainment"] + 0.1
