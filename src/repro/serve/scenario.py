"""Scenario specs: the one way to build a serving run.

A scenario spec is one JSON-shaped dict describing a serving run: models,
fleet, scheduling, traffic, SLOs, faults, fault tolerance, control plane
and telemetry.  ``repro serve`` translates its flags into one, and the
live observatory (:mod:`repro.serve.service`) accepts one per submission.
Both go through the same two steps:

* :func:`parse_spec` — validation into a :class:`ScenarioSpec` (model
  names, fleet spec, fault targets, config blocks, strictly typed and
  bounded knobs), raising ``ValueError`` with a message naming the bad
  key before any plan is compiled.  It is cheap, except that ``trace``
  traffic reads its file (once: the build step replays what was read);
* :func:`build_scenario` — the expensive part: plan-cache warmup, rate
  auto-derivation and stream generation.

The observatory adds its own rules on top (no trace replay, a default
streaming window): see :func:`repro.serve.service.jobs.validate_spec`.

Example spec::

    {
      "models": ["resnet18"],
      "fleet": "M:2",
      "policy": "latency",
      "batches": [1, 2, 4, 8],
      "seed": 0,
      "traffic": {"kind": "poisson", "requests": 120, "utilization": 0.8},
      "slo": {"resnet18": 12.0},
      "inject": ["chip_fail@500:chip=0,until=2000"],
      "fault_tolerance": {"timeout_us": 4000, "max_retries": 2},
      "control": {"interval_us": 200, "autoscale": "1:4"},
      "telemetry": {"timeline_us": 500}
    }

``{"kind": "trace", "path": FILE}`` replays a recorded trace instead; the
trace then sets the models.

Knobs.  Each typed scalar of a spec is a :class:`~repro.serve.knobs.Knob`
described once (key, type, default, bound, ``repro serve`` flag, help):
the ``fault_tolerance``, ``control`` and ``telemetry`` knobs are the
fields of :class:`FaultTolerance`, :class:`ControlConfig` and
:class:`TelemetryConfig`, declared with :func:`~repro.serve.knobs.knob`;
the top-level and ``traffic`` knobs are :data:`SPEC_KNOBS` and
:data:`TRAFFIC_KNOBS` below.  The spec walk, the config bound checks and
the ``repro serve`` options are generated from them, so adding a knob is
one field (or one table row) plus the code that uses its value.  Named
code remains for ``models``, the fleet flags, ``slo``, ``inject``,
``autoscale`` given as ``"MIN:MAX"`` and the flag couplings in
:mod:`repro.cli`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.fitness import FitnessMode
from repro.core.ga import GAConfig
from repro.models import list_models
from repro.search import OPTIMIZERS, validate_optimizer
from repro.serve import (
    POLICIES,
    TRAFFIC_GENERATORS,
    ClosedLoopTraffic,
    ControlConfig,
    FaultEvent,
    FaultTolerance,
    Fleet,
    PlanCache,
    ServingSimulator,
    TelemetryConfig,
    TraceTraffic,
    fleet_capacity_rps,
    parse_inject,
    validate_fault_targets,
)
from repro.serve.knobs import Knob, knobs_of, read_block
from repro.serve.traffic import Request

#: the spec's top-level knobs
SPEC_KNOBS: Tuple[Knob, ...] = (
    Knob("fleet", str, "M:1", help="fleet spec, e.g. S:2,M:1,L:1"),
    Knob("policy", str, "latency", tuple(sorted(POLICIES)), "--policy",
         "chip scheduling policy"),
    Knob("batches", int, [1, 2, 4, 8, 16], "> 0", "--batches",
         "allowed dynamic batch sizes", many=True),
    Knob("max_wait_us", float, 200.0, ">= 0", "--max-wait-us",
         "batching-delay budget in us; 0 disables holding"),
    Knob("optimizer", str, "dp", validate_optimizer, "--optimizer",
         "plan search engine: " + ", ".join(sorted(OPTIMIZERS))),
    Knob("mode", str, "latency", tuple(mode.value for mode in FitnessMode),
         "--mode", "plan-compilation fitness mode"),
    Knob("cache_capacity", int, 64, ">= 1", "--cache-capacity",
         "plan-cache capacity in plans"),
    Knob("seed", int, 0, ">= 0", "--seed", "random seed (GA and traffic)"),
)
#: the served models, read by name: a replayed trace replaces them
MODELS = Knob("models", str, ["resnet18"], tuple(list_models()), "--model",
              "model(s) the traffic requests", many=True)
#: the ``traffic`` block's knobs; :func:`traffic_knobs` picks one kind's
TRAFFIC_KNOBS: Tuple[Knob, ...] = (
    Knob("kind", str, "poisson", tuple(sorted(TRAFFIC_GENERATORS)),
         "--traffic", "traffic generator"),
    Knob("requests", int, 200, "> 0", "--requests",
         "number of requests to simulate"),
    Knob("rate_rps", float, None, "> 0", "--rate",
         "offered request rate in req/s (default: auto from fleet capacity)"),
    Knob("utilization", float, 0.7, "> 0", "--utilization",
         "target utilisation for the auto rate"),
    Knob("clients", int, 4, "> 0", "--clients",
         "closed-loop clients (--traffic closed)"),
    Knob("concurrency", int, 1, "> 0", "--concurrency",
         "outstanding requests per closed-loop client"),
    Knob("think_us", float, 200.0, ">= 0", "--think-us",
         "mean closed-loop think time in us"),
    Knob("path", str, None, None, "--trace",
         "trace file to replay (with --traffic trace)"),
)
_OPEN_LOOP_KEYS = ("requests", "rate_rps", "utilization")
#: the traffic keys each kind reads besides ``kind``
_TRAFFIC_KEYS = {"trace": ("path",), "closed": _OPEN_LOOP_KEYS + (
    "clients", "concurrency", "think_us")}
#: top-level keys read by name in :func:`parse_spec`
_NAMED_KEYS = ("models", "traffic", "slo", "inject", "fault_tolerance",
               "control", "telemetry")
#: an SLO target's type (its bound has its own message)
_SLO_TARGET = Knob("slo", float, 0.0)


def traffic_knobs(kind: str) -> Tuple[Knob, ...]:
    """The ``traffic`` knobs traffic ``kind`` reads, ``kind`` first."""
    names = _TRAFFIC_KEYS.get(kind, _OPEN_LOOP_KEYS)
    return TRAFFIC_KNOBS[:1] + tuple(k for k in TRAFFIC_KNOBS if k.name in names)


def _check_models(models: Sequence[object]) -> None:
    available = set(list_models())
    for model in models:
        if not isinstance(model, str) or model not in available:
            raise ValueError(
                f"unknown model {model!r}; available: "
                + ", ".join(sorted(available)))


def _config_from(cls, block: object, label: str):
    """A config dataclass read from a spec block through its knobs."""
    return cls(**read_block(block, knobs_of(cls), label))


def _control_from(block: Dict[str, object]) -> ControlConfig:
    """Control block; ``autoscale`` accepts the CLI's ``"MIN:MAX"`` form."""
    autoscale = block.get("autoscale") if isinstance(block, dict) else None
    if isinstance(autoscale, str):
        lo, sep, hi = autoscale.partition(":")
        try:
            if not sep:
                raise ValueError(autoscale)
            block = dict(block, autoscale=True, min_chips=int(lo),
                         max_chips=int(hi))
        except ValueError:
            raise ValueError(
                f"bad control.autoscale {autoscale!r}; expected MIN:MAX "
                "chip counts") from None
    return _config_from(ControlConfig, block, "control")


def _telemetry_from(block: Dict[str, object]) -> Optional[TelemetryConfig]:
    """Telemetry block (``timeline_us`` aliases ``timeline_interval_us``);
    ``None`` when every part is off."""
    if isinstance(block, dict) and "timeline_us" in block:
        block = dict(block)
        block["timeline_interval_us"] = block.pop("timeline_us")
    config = _config_from(TelemetryConfig, block, "telemetry")
    return config if config.active else None


@dataclass
class ScenarioSpec:
    """A validated (but not yet built) scenario."""

    models: List[str]
    # the SPEC_KNOBS values, under their spec keys
    fleet: str
    policy: str
    #: sorted and deduplicated
    batches: List[int]
    max_wait_us: float
    optimizer: str
    mode: FitnessMode
    cache_capacity: int
    seed: int
    traffic_kind: str
    #: generator kwargs, minus ``models`` and the rate (``build_scenario``
    #: adds those); empty for ``trace`` traffic
    traffic_kwargs: Dict[str, object]
    slos: Dict[str, float]
    #: the parsed ``inject`` entries
    faults: List[FaultEvent]
    fault_tolerance: FaultTolerance
    control: Optional[ControlConfig]
    telemetry: Optional[TelemetryConfig]
    #: rate auto-derivation target when the spec gave no explicit rate
    utilization: float
    rate_rps: Optional[float]
    #: GA sizes and seed for ``optimizer: "ga"`` plans (no JSON key: the
    #: CLI sets it from ``--population/--generations/--seed``)
    ga_config: GAConfig = dataclasses.field(default_factory=GAConfig)
    #: the replayed trace for ``trace`` traffic, read once by parse_spec
    trace: Optional[TraceTraffic] = None


@dataclass
class BuiltScenario:
    """A fully built scenario, ready for ``simulator.run``."""

    simulator: ServingSimulator
    #: either the pregenerated request list or the closed-loop generator
    workload: Union[Sequence[Request], ClosedLoopTraffic]
    traffic_info: Dict[str, object]


def _block(raw: Dict[str, object], key: str, default: object) -> object:
    """Spec block ``key``, or ``default`` when absent; ``null`` is an error
    (as it is for every knob), not a spelling of the default."""
    if key not in raw:
        return default
    if raw[key] is None:
        raise ValueError(f"{key} must not be null; omit it for the default")
    return raw[key]


def parse_spec(raw: Dict[str, object]) -> ScenarioSpec:
    """Validate a scenario spec (raises ``ValueError`` with a
    presentable message, ``OSError`` for an unreadable trace file)."""
    if not isinstance(raw, dict):
        raise ValueError("scenario spec must be a JSON object")
    top = read_block(raw, SPEC_KNOBS, "spec", also_known=_NAMED_KEYS)
    models = raw.get("models", MODELS.default)
    if not isinstance(models, list) or not models:
        raise ValueError("models must be a non-empty list of model names")
    _check_models(models)
    fleet = Fleet.from_spec(top["fleet"])  # raises ValueError on a bad spec

    traffic = _block(raw, "traffic", {})
    if not isinstance(traffic, dict):
        raise ValueError("traffic must be an object")
    kind = TRAFFIC_KNOBS[0].read(traffic.get("kind", TRAFFIC_KNOBS[0].default),
                                 "traffic.kind")
    values = {k.name: k.default for k in TRAFFIC_KNOBS}
    values.update(read_block(traffic, traffic_knobs(kind), "traffic"))
    kwargs: Dict[str, object] = {}
    trace: Optional[TraceTraffic] = None
    if kind == "trace":
        if not values["path"]:
            raise ValueError("trace traffic needs a \"path\" to a trace file")
        trace = TraceTraffic(values["path"])
        models = list(trace.models)
        _check_models(models)
    else:
        kwargs = {"num_requests": values["requests"], "seed": top["seed"]}
        if kind == "closed":
            kwargs.update(clients=values["clients"],
                          concurrency=values["concurrency"],
                          mean_think_s=values["think_us"] * 1e-6)

    slo_block = _block(raw, "slo", {})
    if not isinstance(slo_block, dict):
        raise ValueError("slo must be an object of MODEL: target_ms")
    slos: Dict[str, float] = {}
    for model, target in slo_block.items():
        if model not in models:
            raise ValueError(
                f"slo names unknown model {model!r}; served models: "
                + ", ".join(sorted(models)))
        slos[model] = _SLO_TARGET.read(target, f"slo.{model}")
        if not slos[model] > 0:
            raise ValueError(
                f"SLO target must be positive, got {model}={slos[model]}")

    inject = _block(raw, "inject", [])
    if not isinstance(inject, list):
        raise ValueError("inject must be a list of fault spec strings")
    faults = [parse_inject(str(spec)) for spec in inject]
    validate_fault_targets(faults, len(fleet.workers))

    control_block = _block(raw, "control", None)
    top.update(batches=sorted(set(top["batches"])),
               mode=FitnessMode(top["mode"]))
    return ScenarioSpec(
        models=list(models),
        **top,
        traffic_kind=kind,
        traffic_kwargs=kwargs,
        slos=slos,
        faults=faults,
        fault_tolerance=_config_from(
            FaultTolerance, _block(raw, "fault_tolerance", {}),
            "fault_tolerance"),
        control=_control_from(control_block) if control_block else None,
        telemetry=_telemetry_from(_block(raw, "telemetry", {})),
        utilization=values["utilization"],
        rate_rps=values["rate_rps"],
        trace=trace,
    )


def build_scenario(spec: ScenarioSpec) -> BuiltScenario:
    """Build the simulator + workload (expensive: plan-cache warmup)."""
    fleet = Fleet.from_spec(spec.fleet)
    cache = PlanCache(capacity=spec.cache_capacity, optimizer=spec.optimizer,
                      mode=spec.mode, ga_config=spec.ga_config)
    cache.warmup(spec.models, fleet.chip_names, spec.batches)
    if spec.trace is not None:
        generator = spec.trace
    else:
        kwargs = dict(spec.traffic_kwargs, models=spec.models)
        if spec.traffic_kind != "closed":
            rate = (spec.rate_rps if spec.rate_rps is not None
                    else spec.utilization * fleet_capacity_rps(
                        cache, fleet, spec.models, spec.batches))
            kwargs["base_rate_rps" if spec.traffic_kind == "diurnal"
                   else "rate_rps"] = rate
        generator = TRAFFIC_GENERATORS[spec.traffic_kind](**kwargs)
    simulator = ServingSimulator(
        fleet,
        cache,
        policy=spec.policy,
        batch_sizes=spec.batches,
        max_wait_us=spec.max_wait_us,
        slos=spec.slos,
        faults=spec.faults,
        fault_tolerance=spec.fault_tolerance,
        control=spec.control,
        telemetry=spec.telemetry,
    )
    workload: Union[Sequence[Request], ClosedLoopTraffic] = (
        generator if isinstance(generator, ClosedLoopTraffic)
        else generator.generate())
    return BuiltScenario(
        simulator=simulator,
        workload=workload,
        traffic_info=generator.describe(),
    )
