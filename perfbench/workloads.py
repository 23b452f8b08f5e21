"""The four benchmark workloads, driven through ``repro``'s public APIs.

Each workload has the same shape:

* ``setup()`` builds the inputs and warms what a user would have warm.
  It is repeatable, so ``setup_s`` can be a median.
* ``units`` lists the independently timed pieces of one cycle.
  ``prepare_unit(unit)`` runs untimed before each (it drops caches that a
  cold unit must not find); ``run_unit(unit)`` is the timed region and
  returns raw outputs, neither checked nor summarised.
* ``evaluate({unit: output})`` runs untimed.  It checks every output and
  returns an :class:`Outcome` with the ``sim_*`` figures.
* ``unit_counters(unit, after)`` reads the program's span counters for
  the traced run's cross-checks; ``call_checks`` pairs wrapper call
  counts with program counters.

Sizes, traffic, chaos and GA seeds all derive from the benchmark seed;
the program only ever sees the generated inputs.
"""

from __future__ import annotations

import math
import random
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from arith import attainment, geomean, ratio

MODELS = ("vgg16", "resnet18", "squeezenet")
CHIPS = ("S", "M", "L")
PAPER_BATCHES = (1, 2, 4, 8, 16)
SERVE_BATCHES = (1, 2, 4, 8, 16)

#: serve-fleet: open-loop Poisson resnet18 on 64 M chips
FLEET_SPEC = "M:64"
FLEET_REQUESTS = 10_000
FLEET_LOAD = 0.7
FLEET_SLO_MS = 8.5

#: serve-faults: closed-loop mixed traffic under chaos on S:2,M:2
FAULTS_SPEC = "S:2,M:2"
FAULTS_MODELS = ("resnet18", "squeezenet")
FAULTS_WEIGHTS = (0.7, 0.3)
FAULTS_REQUESTS = 30_000
FAULTS_CLIENTS = 32
FAULTS_THINK_S = 500e-6
FAULTS_SLOS = {"resnet18": 12.0, "squeezenet": 6.0}
#: simulated length of a serve-faults run (about 5 s for 30k requests);
#: the fault schedule is laid out over it
FAULTS_SPAN_US = 5e6


@dataclass
class Outcome:
    """What one cycle produced, after checking."""

    attempted: int
    failed: int
    #: human-readable descriptions of failed output checks
    problems: List[str]
    #: end-to-end simulated figures (deterministic per seed)
    sim: Dict[str, float]
    #: per-layer counters read from the program's stats objects
    counters: Dict[str, float] = field(default_factory=dict)
    #: raw program counters the traced run checks wrapper counts against
    program: Dict[str, int] = field(default_factory=dict)
    #: extra lines for the human-readable report
    notes: List[str] = field(default_factory=list)


def derived_seeds(seed: int, count: int) -> List[int]:
    """``count`` independent 31-bit seeds drawn from the benchmark seed."""
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


def group_problems(group, validity) -> List[str]:
    """Why a partition group is not a valid contiguous cover (empty if it is)."""
    problems = []
    spans = group.spans()
    units = group.decomposition.num_units
    if not spans or spans[0][0] != 0 or spans[-1][1] != units:
        problems.append(f"spans {spans[:1]}..{spans[-1:]} do not cover 0..{units}")
    for (_, end), (start, _) in zip(spans, spans[1:]):
        if start != end:
            problems.append(f"gap or overlap at unit {end}/{start}")
    for start, end in spans:
        if not start < end <= validity.max_end(start):
            problems.append(f"span [{start}, {end}) fails the validity map")
    return problems


#: the ``SpanTableStats`` counters the traced run checks its wrappers against
COUNTERS = ("matrix_fills", "matrix_hits", "profiles_computed", "latencies_computed")


def span_counters(pairs: Sequence[Tuple[str, str]]) -> Dict[str, int]:
    """Sum of ``SpanTableStats`` over the shared tables of the given pairs."""
    from repro.evaluation.registry import shared_span_matrix

    total = dict.fromkeys(COUNTERS, 0)
    for model, chip in pairs:
        stats = shared_span_matrix(model, chip).table.stats
        for key in total:
            total[key] += getattr(stats, key)
    return total


def _run_op(label: str, fn):
    """Run one op; an exception is the op's failure, recorded, not raised."""
    try:
        return fn()
    except Exception as exc:  # one failed op must not end the run
        traceback.print_exc()
        return OpError(label, exc)


@dataclass
class OpError:
    label: str
    error: Exception


# ----------------------------------------------------------------------
# compile-cold
# ----------------------------------------------------------------------
class CompileCold:
    """Fig. 6 sweep plus an EDP pass, from an empty registry every cycle."""

    name = "compile-cold"
    loop = "batch: a fixed sweep of compile points, no arrival process"
    op_name = "compiled plan"
    cold_matrices = True
    EDP_MODELS = ("resnet18", "squeezenet")

    def __init__(self, seed: int) -> None:
        # the paper's batch sizes plus one drawn above them: large batches
        # sit on the flat part of the throughput curve, so the draw varies
        # the figures per seed without swinging their geometric means
        rng = random.Random(seed)
        extra = rng.randrange(17, 33)
        self.batches = tuple(sorted(PAPER_BATCHES + (extra,)))
        self.pairs = [(m, c) for m in MODELS for c in CHIPS]
        #: one unit per (model, chip) pair, each compiled from an empty
        #: registry: pairs share nothing but the model graph
        self.units = self.pairs
        self.ops_per_cycle = (len(MODELS) * len(CHIPS) * len(self.batches) * 3
                              + len(self.EDP_MODELS) * len(CHIPS) * len(self.batches))

    def setup(self) -> None:
        from repro.evaluation.registry import clear_registry

        clear_registry()

    def prepare_unit(self, pair) -> None:
        from repro.evaluation.registry import clear_registry

        clear_registry()

    def unit_counters(self, pair, after: bool) -> Dict[str, int]:
        # before the unit the registry is empty; reading it would build
        # the very decomposition the unit must build cold
        return span_counters([pair]) if after else dict.fromkeys(COUNTERS, 0)

    def run_unit(self, pair):
        from repro.core.fitness import FitnessMode
        from repro.evaluation.sweeps import SweepPoint, SweepRunner

        model, chip = pair
        latency = SweepRunner(optimizer="dp")
        outputs = {}
        for batch in self.batches:
            for scheme in ("greedy", "layerwise", "compass"):
                point = SweepPoint(model, chip, scheme, batch)
                outputs[("latency", model, chip, scheme, batch)] = _run_op(
                    point.label, lambda p=point: latency.run_point(p))
        if model in self.EDP_MODELS:
            edp = SweepRunner(optimizer="dp", fitness_mode=FitnessMode.EDP)
            for batch in self.batches:
                point = SweepPoint(model, chip, "compass", batch)
                outputs[("edp", model, chip, "compass", batch)] = _run_op(
                    point.label, lambda p=point: edp.run_point(p))
        return outputs

    def evaluate(self, units) -> Outcome:
        outputs = {key: result for unit in units.values() for key, result in unit.items()}
        problems: List[str] = []
        failed = set()
        for key, result in outputs.items():
            if isinstance(result, OpError):
                failed.add(key)
                problems.append(f"{key}: raised {result.error!r}")
                continue
            found = group_problems(result.group, result.validity)
            report = result.report
            values = (report.throughput, report.total_latency_ns,
                      report.energy_per_inference_mj)
            if not all(math.isfinite(v) and v > 0 for v in values):
                found.append(f"non-finite or non-positive report {values}")
            if found:
                failed.add(key)
                problems.extend(f"{key}: {p}" for p in found)

        throughput, latency_ms, energy, quality, edp_gain = [], [], [], [], []
        for key, result in outputs.items():
            mode, model, chip, scheme, batch = key
            if scheme != "compass" or key in failed:
                continue
            report = result.report
            throughput.append(report.throughput)
            latency_ms.append(report.total_latency_ns * 1e-6)
            energy.append(report.energy_per_inference_mj)
            baselines = [outputs.get(("latency", model, chip, s, batch))
                         for s in ("greedy", "layerwise")]
            if any(b is None or isinstance(b, OpError) for b in baselines):
                continue
            if mode == "latency":
                slower = [b.options.scheme for b in baselines
                          if report.total_latency_ns > b.report.total_latency_ns]
                if slower:
                    failed.add(key)
                    problems.append(f"{key}: COMPASS slower than {slower}")
                quality.append(report.throughput
                               / max(b.report.throughput for b in baselines))
            else:
                edp_gain.append(min(b.report.edp_per_inference for b in baselines)
                                / report.edp_per_inference)
        sim = {
            "sim_throughput": geomean(throughput),
            "sim_latency_ms": geomean(latency_ms),
            "sim_energy_mj": geomean(energy),
            "sim_quality": geomean(quality),
        }
        notes = [
            f"batch sizes {list(self.batches)}; COMPASS throughput / best baseline "
            f"(latency mode, {len(quality)} points): {sim['sim_quality']:.3f}x "
            f"(paper reports 1.78x)",
            f"best baseline EDP / COMPASS EDP (EDP mode, {len(edp_gain)} points): "
            f"{geomean(edp_gain):.3f}x (paper reports 1.28x)" if edp_gain else
            "no EDP points completed",
        ]
        return Outcome(attempted=len(outputs), failed=len(failed), problems=problems,
                       sim=sim, notes=notes)

    def call_checks(self, calls, outcome):
        compass = (len(MODELS) + len(self.EDP_MODELS)) * len(CHIPS) * len(self.batches)
        return [
            ("core.compiler calls == compile results returned",
             calls["core.compiler"], outcome.attempted),
            ("sim calls == compile results returned", calls["sim"], outcome.attempted),
            ("search.dp calls == COMPASS points", calls["search.dp"], compass),
            ("core.decomposition calls == (model, chip) pairs",
             calls["core.decomposition"], len(self.pairs)),
        ]


# ----------------------------------------------------------------------
# compile-ga
# ----------------------------------------------------------------------
class CompileGA:
    """The paper's GA on every paper (model, chip) pair and batch size."""

    name = "compile-ga"
    loop = "batch: 45 GA compiles over warm span matrices, no arrival process"
    op_name = "compiled plan"
    cold_matrices = False

    def __init__(self, seed: int) -> None:
        self.points = [(m, c, b) for m in MODELS for c in CHIPS for b in PAPER_BATCHES]
        self.pairs = [(m, c) for m in MODELS for c in CHIPS]
        self.ga_seeds = dict(zip(self.points, derived_seeds(seed, len(self.points))))
        self.ops_per_cycle = len(self.points)
        self.optimum: Dict[Tuple[str, str, int], float] = {}
        self._simulated: Dict[Tuple, Tuple[float, float, float]] = {}

    def setup(self) -> None:
        """One DP solve per point: fills every pair's span matrix and gives
        the exact optimum each GA result is scored against."""
        from repro.evaluation.registry import clear_registry, shared_search

        clear_registry()
        self._simulated.clear()
        self.optimum = {
            point: shared_search(point[0], point[1], "dp", batch_size=point[2]).run().best_fitness
            for point in self.points
        }

    @property
    def units(self):
        """One unit per GA compile."""
        return self.points

    def prepare_unit(self, point) -> None:
        pass

    def unit_counters(self, point, after: bool) -> Dict[str, int]:
        return span_counters([point[:2]])

    def run_unit(self, point):
        from repro.core.ga import GAConfig
        from repro.evaluation.registry import shared_search

        return _run_op(str(point), lambda: shared_search(
            point[0], point[1], "ga", batch_size=point[2],
            ga_config=GAConfig(seed=self.ga_seeds[point])).run())

    def _simulate(self, point, group) -> Tuple[float, float, float]:
        """(throughput, latency ms, energy mJ) of a plan on the simulator."""
        key = (point, group.boundaries)
        if key not in self._simulated:
            from repro.hardware.config import get_chip_config
            from repro.perf.spantable import span_table_for
            from repro.sim.simulator import ExecutionSimulator

            model, chip, batch = point
            report = ExecutionSimulator(get_chip_config(chip), batch_size=batch).simulate(
                group, span_table=span_table_for(group.decomposition))
            self._simulated[key] = (report.throughput, report.total_latency_ns * 1e-6,
                                    report.energy_per_inference_mj)
        return self._simulated[key]

    def evaluate(self, outputs) -> Outcome:
        from repro.evaluation.registry import shared_decomposition

        problems: List[str] = []
        failed = 0
        figures, quality = [], []
        evaluations = dedup = unique = 0
        for point, result in outputs.items():
            if isinstance(result, OpError):
                failed += 1
                problems.append(f"{point}: raised {result.error!r}")
                continue
            _, validity = shared_decomposition(point[0], point[1])
            found = group_problems(result.best_group, validity)
            optimum = self.optimum[point]
            if result.best_fitness < optimum:
                found.append(f"GA {result.best_fitness} beats the DP optimum {optimum}")
            if found:
                failed += 1
                problems.extend(f"{point}: {p}" for p in found)
                continue
            quality.append(optimum / result.best_fitness)
            figures.append(self._simulate(point, result.best_group))
            ga = result.ga_result
            evaluations += ga.evaluations
            dedup += ga.dedup_hits
            unique += ga.unique_evaluations
        sim = {
            "sim_throughput": geomean(f[0] for f in figures),
            "sim_latency_ms": geomean(f[1] for f in figures),
            "sim_energy_mj": geomean(f[2] for f in figures),
            "sim_quality": geomean(quality),
        }
        counters = {
            "search.ga.evaluations": evaluations,
            "search.ga.dedup_hits": dedup,
            "search.ga.useful_ratio": ratio(unique, evaluations),
        }
        notes = [f"DP optimum / GA latency over {len(quality)} points: "
                 f"{sim['sim_quality']:.4f} (1.0 = optimal); worst "
                 f"{min(quality):.4f}" if quality else "no GA point completed"]
        return Outcome(attempted=len(outputs), failed=failed, problems=problems,
                       sim=sim, counters=counters, notes=notes)

    def call_checks(self, calls, outcome):
        return [
            ("search.ga calls == GA results returned", calls["search.ga"], outcome.attempted),
            ("search.dp calls == 0 over warm matrices", calls["search.dp"], 0),
        ]


# ----------------------------------------------------------------------
# serving workloads
# ----------------------------------------------------------------------
def serve_outcome(report, offered: int, plan_delta: Dict[str, int]) -> Outcome:
    """Checks and ``sim_*`` figures shared by both serving workloads."""
    problems: List[str] = []
    fates = report.completed + report.shed + report.timeouts + report.lost
    if fates != offered:
        problems.append(f"completed+shed+timeouts+lost = {fates} != offered {offered}")
    p50, p99 = report.latency_ms["p50"], report.latency_ms["p99"]
    if not p50 <= p99:
        problems.append(f"p50 {p50} > p99 {p99}")
    attained = sum(round(block["attainment"] * block["completed"])
                   for block in report.slo.values())
    sim = {
        "sim_throughput": report.throughput_rps,
        "sim_latency_ms": p99,
        "sim_energy_mj": report.energy_per_request_mj,
        "sim_quality": attainment(attained, offered),
    }
    control = report.control
    lookups = plan_delta["hits"] + plan_delta["misses"]
    counters = {
        "serve.plans.hit_ratio": ratio(plan_delta["hits"], lookups),
        "serve.plans.lookups_per_request": lookups / offered,
        "serve.scheduler.dispatches": report.batches,
        "serve.scheduler.mean_batch": report.mean_batch,
        "serve.control.ticks": control.get("ticks", 0),
        "serve.control.hedge_win_ratio": ratio(control.get("hedges_won", 0),
                                               control.get("hedges", 0)),
        "serve.control.true_detection_ratio": ratio(control.get("true_detections", 0),
                                                    control.get("detections", 0)),
        "serve.faults.retries": report.retries,
        "serve.faults.timeouts": report.timeouts,
        "serve.faults.shed": report.shed,
        "serve.faults.lost": report.lost,
        "serve.telemetry.windows": len(report.timeline),
    }
    return Outcome(attempted=offered, failed=report.shed + report.timeouts + report.lost,
                   problems=problems, sim=sim, counters=counters,
                   program={"plan_lookups": lookups, "ticks": control.get("ticks", 0),
                            "retries": report.retries})


class _Serving:
    """Shared plumbing: plan-cache counter deltas around each cycle."""

    cold_matrices = False
    op_name = "offered request"
    #: one unit: the whole simulation run
    units = ("run",)

    def prepare_unit(self, key) -> None:
        self._plans_before = self.cache.stats

    def unit_counters(self, key, after: bool) -> Dict[str, int]:
        return span_counters(self.pairs)

    def evaluate(self, units) -> Outcome:
        return self.outcome(units["run"])

    def call_checks(self, calls, outcome):
        program = outcome.program
        schedules = 1 if getattr(self, "faults", None) else 0
        return [
            ("serve.plans calls == PlanCacheStats hits + misses",
             calls["serve.plans"], program["plan_lookups"]),
            ("serve.control calls == report control ticks",
             calls["serve.control"], program["ticks"]),
            ("serve.faults calls == report retries + fault schedules",
             calls["serve.faults"], program["retries"] + schedules),
            ("serve.simulator calls == one run per cycle", calls["serve.simulator"], 1),
        ]

    def plan_delta(self) -> Dict[str, int]:
        after = self.cache.stats
        return {"hits": after.hits - self._plans_before.hits,
                "misses": after.misses - self._plans_before.misses}


class ServeFleet(_Serving):
    """Open-loop Poisson resnet18 at 70% of capacity on 64 M chips."""

    name = "serve-fleet"

    def __init__(self, seed: int) -> None:
        self.traffic_seed = derived_seeds(seed, 1)[0]
        self.pairs = [("resnet18", "M")]
        self.ops_per_cycle = FLEET_REQUESTS

    @property
    def loop(self) -> str:
        return (f"open: Poisson {self.rate_rps:.0f} req/s ({FLEET_LOAD:.0%} of fleet "
                f"capacity), {FLEET_REQUESTS} requests.  Arrivals are generated in "
                f"advance and timed in simulated time, so generator lag cannot occur")

    def setup(self) -> None:
        from repro.evaluation.registry import clear_registry
        from repro.serve import Fleet, PlanCache, PoissonTraffic, fleet_capacity_rps

        clear_registry()
        self.fleet = Fleet.from_spec(FLEET_SPEC)
        self.cache = PlanCache(optimizer="dp")
        self.cache.warmup(("resnet18",), self.fleet.chip_names, SERVE_BATCHES)
        self.rate_rps = FLEET_LOAD * fleet_capacity_rps(
            self.cache, self.fleet, ("resnet18",), SERVE_BATCHES)
        self.traffic = PoissonTraffic("resnet18", num_requests=FLEET_REQUESTS,
                                      seed=self.traffic_seed, rate_rps=self.rate_rps)
        self.requests = self.traffic.generate()

    def run_unit(self, key):
        from repro.serve import ServingSimulator

        simulator = ServingSimulator(self.fleet, self.cache, policy="latency",
                                     batch_sizes=SERVE_BATCHES, max_wait_us=200.0,
                                     slos={"resnet18": FLEET_SLO_MS})
        return simulator.run(self.requests, traffic_info=self.traffic.describe())

    def outcome(self, report) -> Outcome:
        return serve_outcome(report, FLEET_REQUESTS, self.plan_delta())


class ServeFaults(_Serving):
    """Closed-loop mixed traffic under chaos, with fault tolerance,
    the control plane and telemetry all on."""

    name = "serve-faults"
    loop = (f"closed: {FAULTS_CLIENTS} clients x concurrency 1, "
            f"{FAULTS_THINK_S * 1e6:.0f} us mean think time, {FAULTS_REQUESTS} requests")

    def __init__(self, seed: int) -> None:
        self.traffic_seed, self.chaos_seed = derived_seeds(seed, 2)
        self.pairs = [(m, c) for m in FAULTS_MODELS for c in ("S", "M")]
        self.ops_per_cycle = FAULTS_REQUESTS

    def setup(self) -> None:
        from repro.evaluation.registry import clear_registry
        from repro.serve import (ClosedLoopTraffic, ControlConfig, FaultTolerance,
                                 PlanCache, TelemetryConfig, parse_inject)

        clear_registry()
        self.cache = PlanCache(optimizer="dp")
        self.cache.warmup(FAULTS_MODELS, ("S", "M"), SERVE_BATCHES)
        self.traffic = ClosedLoopTraffic(
            FAULTS_MODELS, num_requests=FAULTS_REQUESTS, seed=self.traffic_seed,
            clients=FAULTS_CLIENTS, concurrency=1, mean_think_s=FAULTS_THINK_S,
            model_weights=FAULTS_WEIGHTS)
        # many short outages spread over the run: the p99 then averages
        # over dozens of fault episodes instead of hinging on a few, and
        # varies across seeds by under a tenth
        span = FAULTS_SPAN_US
        self.faults = [
            parse_inject(f"chaos@0:seed={self.chaos_seed},count=64,"
                         f"mtbf_us={span / 65:.0f},mttr_us=300"),
            parse_inject(f"straggler@{0.4 * span:.0f}:chip=1,factor=3,"
                         f"until={0.6 * span:.0f}"),
        ]
        self.fault_tolerance = FaultTolerance(timeout_us=5000.0, max_retries=2,
                                              shed_queue_depth=64, retry_priority=True)
        self.control = ControlConfig(interval_us=500.0, hedge_after_pct=60.0,
                                     autoscale=True, min_chips=4, max_chips=8,
                                     cooldown_us=2000.0)
        self.telemetry = TelemetryConfig(timeline_interval_us=2000.0,
                                         streaming_percentiles=True)

    def run_unit(self, key):
        from repro.serve import Fleet, ServingSimulator

        simulator = ServingSimulator(
            Fleet.from_spec(FAULTS_SPEC), self.cache, policy="latency",
            batch_sizes=SERVE_BATCHES, max_wait_us=200.0, switch_cost=True,
            slos=FAULTS_SLOS, faults=self.faults,
            fault_tolerance=self.fault_tolerance, control=self.control,
            telemetry=self.telemetry)
        return simulator.run(self.traffic)

    def outcome(self, report) -> Outcome:
        outcome = serve_outcome(report, FAULTS_REQUESTS, self.plan_delta())
        control = report.control
        outcome.notes.append(
            f"chip failures {report.failures}, retries {report.retries}, hedges "
            f"{control.get('hedges', 0)}, quarantines {control.get('quarantines', 0)}, "
            f"scale-ups {control.get('scale_ups', 0)}")
        return outcome


WORKLOADS = {cls.name: cls for cls in (CompileCold, CompileGA, ServeFleet, ServeFaults)}
