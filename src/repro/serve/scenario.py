"""Scenario specs: the one way to build a serving run.

A scenario spec is one JSON-shaped dict describing a serving run: models,
fleet, scheduling, traffic, SLOs, faults, fault tolerance, control plane
and telemetry.  ``repro serve`` translates its flags into one, and the
live observatory (:mod:`repro.serve.service`) accepts one per submission.
Both go through the same two steps:

* :func:`parse_spec` — validation into a :class:`ScenarioSpec` (model
  names, fleet spec, fault targets, traffic/policy names, config blocks,
  typed and range-checked scalars), raising ``ValueError`` with a
  presentable message before any plan is compiled.  It
  is cheap, except that ``trace`` traffic reads its file (once: the
  build step replays what was read);
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
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.core.fitness import FitnessMode
from repro.core.ga import GAConfig
from repro.models import list_models
from repro.search import validate_optimizer
from repro.serve import (
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
    validate_policy,
)
from repro.serve.traffic import Request, validate_traffic


def _coerce(value: object, kind: type, key: str):
    """``kind(value)``, or a ``ValueError`` naming ``key`` (never a
    ``TypeError`` for a null, list or object)."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        expected = "an integer" if kind is int else "a number"
        raise ValueError(f"{key} must be {expected}, got {value!r}") from None


def _check_models(models: Sequence[object]) -> None:
    available = set(list_models())
    for model in models:
        if not isinstance(model, str) or model not in available:
            raise ValueError(
                f"unknown model {model!r}; available: "
                + ", ".join(sorted(available)))


def _config_from(cls, block: Dict[str, object], label: str):
    """Instantiate a config dataclass from a JSON block, strictly.

    Unknown keys are an error (a typo'd knob must not silently no-op);
    the dataclass's own ``__post_init__`` validation supplies the value
    checks.
    """
    if not isinstance(block, dict):
        raise ValueError(f"{label} must be an object")
    known = {field.name for field in dataclasses.fields(cls)}
    unknown = sorted(set(block) - known)
    if unknown:
        raise ValueError(
            f"unknown {label} key(s): {', '.join(unknown)}; "
            f"known: {', '.join(sorted(known))}")
    try:
        return cls(**block)
    except TypeError as exc:
        raise ValueError(f"bad {label} block: {exc}") from None


def _control_from(block: Dict[str, object]) -> ControlConfig:
    """Control block; ``autoscale`` accepts the CLI's ``"MIN:MAX"`` form."""
    autoscale = block.get("autoscale") if isinstance(block, dict) else None
    if isinstance(autoscale, str):
        block = dict(block)
        lo, sep, hi = autoscale.partition(":")
        try:
            if not sep:
                raise ValueError(autoscale)
            block["min_chips"], block["max_chips"] = int(lo), int(hi)
        except ValueError:
            raise ValueError(
                f"bad control.autoscale {autoscale!r}; expected MIN:MAX "
                "chip counts") from None
        block["autoscale"] = True
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
    fleet_spec: str
    policy: str
    batch_sizes: List[int]
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


def parse_spec(raw: Dict[str, object]) -> ScenarioSpec:
    """Validate a scenario spec (raises ``ValueError`` with a
    presentable message, ``OSError`` for an unreadable trace file)."""
    if not isinstance(raw, dict):
        raise ValueError("scenario spec must be a JSON object")
    known_keys = {
        "models", "fleet", "policy", "batches", "max_wait_us", "optimizer",
        "mode", "cache_capacity", "seed", "traffic", "slo", "inject",
        "fault_tolerance", "control", "telemetry",
    }
    unknown = sorted(set(raw) - known_keys)
    if unknown:
        raise ValueError(
            f"unknown spec key(s): {', '.join(unknown)}; "
            f"known: {', '.join(sorted(known_keys))}")

    models = raw.get("models") or ["resnet18"]
    if not isinstance(models, list) or not models:
        raise ValueError("models must be a non-empty list of model names")
    _check_models(models)

    fleet_spec = str(raw.get("fleet", "M:1"))
    fleet = Fleet.from_spec(fleet_spec)  # raises ValueError on a bad spec

    policy = str(raw.get("policy", "latency"))
    validate_policy(policy)

    optimizer = str(raw.get("optimizer", "dp"))
    validate_optimizer(optimizer)

    mode_name = str(raw.get("mode", "latency"))
    if mode_name not in ("latency", "edp"):
        raise ValueError(f"mode must be 'latency' or 'edp', got {mode_name!r}")
    mode = FitnessMode.EDP if mode_name == "edp" else FitnessMode.LATENCY

    batches = raw.get("batches") or [1, 2, 4, 8, 16]
    if (not isinstance(batches, list)
            or not all(isinstance(b, int) and b > 0 for b in batches)):
        raise ValueError("batches must be a list of positive integers")
    batch_sizes = sorted(set(batches))

    cache_capacity = _coerce(raw.get("cache_capacity", 64), int,
                             "cache_capacity")
    seed = _coerce(raw.get("seed", 0), int, "seed")
    max_wait_us = _coerce(raw.get("max_wait_us", 200.0), float, "max_wait_us")
    if not max_wait_us >= 0:
        raise ValueError("max_wait_us must be non-negative")

    traffic = raw.get("traffic") or {}
    if not isinstance(traffic, dict):
        raise ValueError("traffic must be an object")
    traffic = dict(traffic)
    kind = str(traffic.pop("kind", "poisson"))
    validate_traffic(kind)
    rate_rps: Optional[float] = None
    utilization = 0.7
    kwargs: Dict[str, object] = {}
    trace: Optional[TraceTraffic] = None
    if kind == "trace":
        path = traffic.pop("path", None)
        if not isinstance(path, str) or not path:
            raise ValueError("trace traffic needs a \"path\" to a trace file")
        trace = TraceTraffic(path)
        models = list(trace.models)
        _check_models(models)
    else:
        num_requests = _coerce(traffic.pop("requests", 200), int,
                               "traffic.requests")
        if num_requests <= 0:
            raise ValueError("traffic.requests must be positive")
        rate = traffic.pop("rate_rps", None)
        if rate is not None:
            rate_rps = _coerce(rate, float, "traffic.rate_rps")
            if not rate_rps > 0:
                raise ValueError("rate_rps must be positive")
        utilization = _coerce(traffic.pop("utilization", utilization), float,
                              "traffic.utilization")
        if not utilization > 0:
            raise ValueError("utilization must be positive")
        kwargs = {"num_requests": num_requests, "seed": seed}
        if kind == "closed":
            kwargs["clients"] = _coerce(traffic.pop("clients", 4), int,
                                        "traffic.clients")
            if kwargs["clients"] <= 0:
                raise ValueError("clients must be positive")
            kwargs["concurrency"] = _coerce(traffic.pop("concurrency", 1),
                                            int, "traffic.concurrency")
            if kwargs["concurrency"] <= 0:
                raise ValueError("concurrency must be positive")
            kwargs["mean_think_s"] = _coerce(
                traffic.pop("think_us", 200.0), float,
                "traffic.think_us") * 1e-6
            if not kwargs["mean_think_s"] >= 0:
                raise ValueError("mean_think_s must be non-negative")
    if traffic:
        raise ValueError(
            "unknown traffic key(s): " + ", ".join(sorted(traffic)))

    slo_block = raw.get("slo") or {}
    if not isinstance(slo_block, dict):
        raise ValueError("slo must be an object of MODEL: target_ms")
    slos: Dict[str, float] = {}
    for model, target in slo_block.items():
        if model not in models:
            raise ValueError(
                f"slo names unknown model {model!r}; served models: "
                + ", ".join(sorted(models)))
        slos[model] = _coerce(target, float, f"slo.{model}")
        if not slos[model] > 0:
            raise ValueError(
                f"SLO target must be positive, got {model}={slos[model]}")

    inject = raw.get("inject") or []
    if not isinstance(inject, list):
        raise ValueError("inject must be a list of fault spec strings")
    faults = [parse_inject(str(spec)) for spec in inject]
    validate_fault_targets(faults, len(fleet.workers))

    fault_tolerance = _config_from(
        FaultTolerance, raw.get("fault_tolerance") or {}, "fault_tolerance")
    control_block = raw.get("control")
    control = _control_from(control_block) if control_block else None

    return ScenarioSpec(
        models=[str(m) for m in models],
        fleet_spec=fleet_spec,
        policy=policy,
        batch_sizes=batch_sizes,
        max_wait_us=max_wait_us,
        optimizer=optimizer,
        mode=mode,
        cache_capacity=cache_capacity,
        seed=seed,
        traffic_kind=kind,
        traffic_kwargs=kwargs,
        slos=slos,
        faults=faults,
        fault_tolerance=fault_tolerance,
        control=control,
        telemetry=_telemetry_from(raw.get("telemetry") or {}),
        utilization=utilization,
        rate_rps=rate_rps,
        trace=trace,
    )


def build_scenario(spec: ScenarioSpec) -> BuiltScenario:
    """Build the simulator + workload (expensive: plan-cache warmup)."""
    fleet = Fleet.from_spec(spec.fleet_spec)
    cache = PlanCache(capacity=spec.cache_capacity, optimizer=spec.optimizer,
                      mode=spec.mode, ga_config=spec.ga_config)
    cache.warmup(spec.models, fleet.chip_names, spec.batch_sizes)
    if spec.trace is not None:
        generator = spec.trace
    else:
        kwargs = dict(spec.traffic_kwargs, models=spec.models)
        if spec.traffic_kind != "closed":
            rate = (spec.rate_rps if spec.rate_rps is not None
                    else spec.utilization * fleet_capacity_rps(
                        cache, fleet, spec.models, spec.batch_sizes))
            kwargs["base_rate_rps" if spec.traffic_kind == "diurnal"
                   else "rate_rps"] = rate
        generator = TRAFFIC_GENERATORS[spec.traffic_kind](**kwargs)
    simulator = ServingSimulator(
        fleet,
        cache,
        policy=spec.policy,
        batch_sizes=spec.batch_sizes,
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
