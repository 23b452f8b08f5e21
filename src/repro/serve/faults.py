"""Fault injection and fault-tolerance configuration for the serving layer.

Real fleets are not immortal: chips fail and come back, individual chips
straggle (thermal throttling, shared-resource contention), and a chip's
external DRAM can drop to a degraded configuration.  This module is the
declarative surface for injecting those events into a serving run — and the
configuration knobs for the machinery that survives them (per-request
timeout, capped retry with deterministic exponential backoff, admission
control / load shedding, SLO-driven graceful degradation).

Two kinds of specification, both seed-deterministic:

* **Scheduled** — a concrete :class:`FaultEvent` pins one event to one
  simulated instant (microseconds after the first arrival):
  ``chip_fail@500:chip=0,until=1500``, ``straggler@200:chip=1,factor=2.5,
  until=900``, ``dram_degrade@100:chip=0,factor=2``.
* **Stochastic** — a ``chaos`` event expands into a schedule of chip
  failures drawn from its own seeded PCG64 stream
  (``chaos@0:seed=7,count=3,mtbf_us=3000,mttr_us=500``): exponential gaps
  with mean ``mtbf_us``, exponential outages with mean ``mttr_us``, chips
  uniform (or pinned with ``chip=``).  The stream is pre-drawn at
  materialisation, so the simulator itself still consumes no randomness and
  a fixed seed replays to a bit-identical :class:`~repro.serve.simulator.
  ServingReport`.

The CLI's repeatable ``repro serve --inject SPEC`` flag routes through
:func:`parse_inject`; :func:`materialize` turns the event list into the flat
``(at_us, action, chip, factor)`` schedule the simulator replays.  The
``REPRO_SERVE_FAULTS`` environment variable (default on; ``0`` disables)
gates injection globally, so a scenario can be A/B-ed against its fault-free
twin without editing the spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import envflags
from repro.serve.knobs import check_knobs, knob

#: recognised ``--inject`` event kinds
FAULT_KINDS = ("chip_fail", "chip_recover", "straggler", "dram_degrade", "chaos")

#: materialised schedule actions the simulator applies
ACTION_FAIL, ACTION_RECOVER, ACTION_STRAGGLE, ACTION_DRAM = (
    "fail", "recover", "straggle", "dram",
)


def faults_enabled() -> bool:
    """Whether fault injection is globally enabled.

    Controlled by the ``REPRO_SERVE_FAULTS`` environment variable (default
    on; ``0`` or the empty string disables it).  Disabling drops every
    injected event while keeping the fault-tolerance knobs (timeout, retry,
    shedding) active — the fault-free twin of a scenario.
    """
    return envflags.serve_faults_enabled()


@dataclass(frozen=True)
class FaultEvent:
    """One declarative fault event (times in µs after the first arrival).

    ``chip`` is a worker index into the fleet (``-1`` means "drawn
    uniformly" and is only meaningful for ``chaos``).  ``until_us`` closes
    a window: a failed chip recovers, a straggler returns to full speed, a
    degraded DRAM is restored; without it the condition lasts for the rest
    of the run.  ``factor`` is the straggler latency multiplier or the DRAM
    timing multiplier (> 1 slows the chip down).
    """

    kind: str
    at_us: float
    chip: int = -1
    until_us: Optional[float] = None
    factor: float = 1.0
    #: chaos only: stream seed, number of failures, mean time between
    #: failures and mean time to repair (µs)
    seed: int = 0
    count: int = 0
    mtbf_us: float = 0.0
    mttr_us: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of: "
                + ", ".join(FAULT_KINDS)
            )
        if not self.at_us >= 0:
            raise ValueError(f"fault time must be non-negative, got {self.at_us}")
        if self.until_us is not None and not self.until_us > self.at_us:
            raise ValueError(
                f"fault window must end after it starts ({self.at_us} .. {self.until_us})"
            )
        if (self.kind in ("straggler", "dram_degrade")
                and not 0 < self.factor < math.inf):
            raise ValueError(
                f"fault factor must be positive and finite, got {self.factor}")
        if self.kind == "chaos":
            if self.count <= 0:
                raise ValueError("chaos needs count > 0 failures to draw")
            if not (0 < self.mtbf_us < math.inf and 0 < self.mttr_us < math.inf):
                raise ValueError(
                    "chaos needs positive, finite mtbf_us and mttr_us, got "
                    f"{self.mtbf_us} and {self.mttr_us}")
        elif self.chip < 0:
            raise ValueError(f"{self.kind} needs an explicit chip=<index>")


_INT_FIELDS = ("chip", "seed", "count")
_FLOAT_FIELDS = ("until", "factor", "mtbf_us", "mttr_us")


def parse_inject(spec: str) -> FaultEvent:
    """Parse one ``--inject`` spec string into a :class:`FaultEvent`.

    Format: ``KIND@AT_US[:key=value,...]`` — e.g.
    ``chip_fail@500:chip=0,until=1500`` or
    ``chaos@0:seed=7,count=3,mtbf_us=3000,mttr_us=500``.  Raises
    ``ValueError`` (the CLI's friendly exit-2 path) for anything malformed.
    """
    head, _, tail = spec.partition(":")
    kind, sep, at = head.partition("@")
    kind = kind.strip()
    if not sep or not kind:
        raise ValueError(f"bad --inject {spec!r}; expected KIND@AT_US[:key=value,...]")
    try:
        at_us = float(at)
    except ValueError:
        raise ValueError(f"bad --inject {spec!r}; fault time {at!r} is not a number") from None
    kwargs: Dict[str, object] = {}
    if tail:
        for part in tail.split(","):
            key, eq, value = part.partition("=")
            key = key.strip()
            if not eq or not key:
                raise ValueError(f"bad --inject {spec!r}; expected key=value, got {part!r}")
            try:
                if key in _INT_FIELDS:
                    kwargs[key] = int(value)
                elif key in _FLOAT_FIELDS:
                    kwargs["until_us" if key == "until" else key] = float(value)
                else:
                    raise KeyError(key)
            except KeyError:
                known = ", ".join(_INT_FIELDS + _FLOAT_FIELDS)
                raise ValueError(
                    f"bad --inject {spec!r}; unknown key {key!r} (known: {known})"
                ) from None
            except ValueError:
                raise ValueError(f"bad --inject {spec!r}; {key}={value!r} is not a number") from None
    try:
        return FaultEvent(kind=kind, at_us=at_us, **kwargs)
    except TypeError:
        raise ValueError(f"bad --inject {spec!r}") from None


def validate_fault_targets(events: Sequence[FaultEvent], num_chips: int) -> None:
    """Check every explicit fault chip index against the fleet size.

    The CLI calls this right after parsing ``--inject`` specs — before plan
    compilation, traffic generation or simulator construction — so a typo'd
    chip index exits with the friendly message immediately instead of after
    seconds of warmup.  Unlike :func:`materialize` this runs regardless of
    the ``REPRO_SERVE_FAULTS`` gate: a spec naming a chip the fleet does not
    have is wrong input even when injection is disabled.  Chaos events with
    ``chip=-1`` (drawn uniformly) are always in range by construction.
    """
    for event in events:
        if event.chip >= num_chips:
            raise ValueError(
                f"--inject {event.kind}@{event.at_us:g} targets chip "
                f"{event.chip}, out of range for a {num_chips}-chip fleet "
                f"(valid indices 0..{num_chips - 1})"
            )


def materialize(
    events: Sequence[FaultEvent], num_chips: int
) -> List[Tuple[float, str, int, float]]:
    """Flatten fault events into the concrete schedule a simulator replays.

    Chaos events expand into chip failures drawn from their own seeded
    stream; window ends (``until_us``) become explicit recover/restore
    entries.  Returns ``(at_us, action, chip, factor)`` tuples sorted by
    ``(at_us, chip)`` — the same deterministic total order the event heap
    keeps.  Raises ``ValueError`` for chip indices outside the fleet.
    """
    schedule: List[Tuple[float, str, int, float]] = []

    def add(at_us: float, action: str, chip: int, factor: float = 1.0) -> None:
        if not 0 <= chip < num_chips:
            raise ValueError(
                f"fault chip index {chip} out of range for a {num_chips}-chip fleet"
            )
        schedule.append((at_us, action, chip, factor))

    for event in events:
        if event.kind == "chaos":
            rng = np.random.default_rng(event.seed)
            t = event.at_us
            for _ in range(event.count):
                t += float(rng.exponential(event.mtbf_us))
                chip = event.chip if event.chip >= 0 else int(rng.integers(num_chips))
                outage = float(rng.exponential(event.mttr_us))
                add(t, ACTION_FAIL, chip)
                add(t + outage, ACTION_RECOVER, chip)
        elif event.kind == "chip_fail":
            add(event.at_us, ACTION_FAIL, event.chip)
            if event.until_us is not None:
                add(event.until_us, ACTION_RECOVER, event.chip)
        elif event.kind == "chip_recover":
            add(event.at_us, ACTION_RECOVER, event.chip)
        elif event.kind == "straggler":
            add(event.at_us, ACTION_STRAGGLE, event.chip, event.factor)
            if event.until_us is not None:
                add(event.until_us, ACTION_STRAGGLE, event.chip, 1.0)
        elif event.kind == "dram_degrade":
            add(event.at_us, ACTION_DRAM, event.chip, event.factor)
            if event.until_us is not None:
                add(event.until_us, ACTION_DRAM, event.chip, 1.0)
    schedule.sort(key=lambda entry: (entry[0], entry[2]))
    return schedule


@dataclass(frozen=True)
class FaultTolerance:
    """Fault-tolerance knobs of one serving run (all off by default).

    Each knob's help says what it does.  A timeout never interrupts a
    dispatched batch: the chip finishes what it starts, and in-flight loss
    comes from chip failures only.  The retry backoff has no jitter
    because determinism is the contract here.  ``degrade_below`` matters
    only for models with an SLO target, and ``retry_priority`` only with
    ``max_retries > 0``: a final-attempt retry goes first so it is served
    before its last timeout budget burns down, instead of aging behind
    new offered load.
    """

    timeout_us: float = knob(
        0.0, ">= 0", "--timeout-us",
        "per-request queueing timeout in us: a request queued this long is "
        "abandoned, and retried if attempts remain; the clock restarts at "
        "every attempt and dispatch cancels it; 0 disables")
    max_retries: int = knob(
        0, ">= 0", "--retries", "max retry attempts for requests lost to chip "
        "failures or timeouts; 0 makes failures final", dest="max_retries")
    retry_backoff_us: float = knob(
        50.0, ">= 0", "--retry-backoff-us", "base of the deterministic "
        "exponential retry backoff in us: attempt k re-arrives base * 2**k "
        "after its failure, with no jitter")
    shed_queue_depth: int = knob(
        0, ">= 0", "--shed-queue-depth",
        "shed arrivals once this many requests are queued; 0 disables")
    shed_wait_us: float = knob(
        0.0, ">= 0", "--shed-wait-us", "shed arrivals whose estimated "
        "queueing wait exceeds this budget in us; 0 disables")
    degrade_below: float = knob(
        0.0, "[0, 1]", "--degrade-below", "when a model's running SLO "
        "attainment drops below this fraction, dispatch it without the "
        "batching hold on its latency-optimal plan until attainment "
        "recovers (models with an SLO only); 0 disables")
    retry_priority: bool = knob(
        False, None, "--retry-priority", "serve a retry on its final attempt "
        "ahead of fresh arrivals (its queue first in the policy's order) "
        "instead of plain FIFO")

    def __post_init__(self) -> None:
        check_knobs(self)

    @property
    def active(self) -> bool:
        """Whether any fault-tolerance mechanism is switched on."""
        return bool(
            self.timeout_us > 0
            or self.max_retries > 0
            or self.shed_queue_depth > 0
            or self.shed_wait_us > 0
            or self.degrade_below > 0
        )

    def backoff_ns(self, attempt: int) -> float:
        """Deterministic exponential backoff before retry attempt ``attempt``."""
        return self.retry_backoff_us * 1e3 * (2.0 ** attempt)
