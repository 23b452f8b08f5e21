"""Self-healing serving control plane: detection, hedging, autoscaling.

PR 6 made fleets mortal and gave individual requests survival tools
(timeouts, retries, shedding); this module closes the loop from the
metrics the serving report computes to *actions* on the running fleet.  A
:class:`Controller` runs on a fixed control-interval tick — a dedicated
``CONTROL`` event kind in the simulator's deterministic ``(time, kind,
tie, seq)`` total order — observes windowed per-chip / per-model health
signals, and drives four actuators:

* **Failure detection + quarantine** — the controller tracks, per chip,
  the completion it *expects* from the last dispatched batch and an EMA of
  the observed-over-nominal service-time ratio.  A chip whose expected
  completion has passed with no completion observed (its batch died with
  the chip — the tick notices before any scripted recovery does) or whose
  service ratio exceeds :attr:`ControlConfig.straggler_ratio` times the
  fleet median for :attr:`ControlConfig.quarantine_after` consecutive
  ticks is quarantined: drained from the dispatchable pool and routed
  around.  Re-admission is probation with flap damping — each time the
  same chip is re-quarantined its next probation doubles.  Detections are
  scored against injected ground truth (the chip's actual ``up`` /
  ``latency_factor`` state) into true/false-positive counters.
* **Hedged requests** — the classic tail-tolerance move: a queued request
  that has waited past the :attr:`ControlConfig.hedge_after_pct`
  percentile of the recent completed-latency window is speculatively
  duplicated onto a second chip as a single-request batch.  First
  completion wins; the loser is cancelled if still queued, or counted
  (never double-charged into any request-fate counter) if already
  executing.
* **SLO-driven autoscaler** — grows the fleet when windowed SLO
  attainment drops below :attr:`ControlConfig.scale_up_below` (or queue
  depth per available chip exceeds :attr:`ControlConfig.scale_up_depth`,
  or nothing can serve a non-empty queue), shrinks it when the fleet idles
  below :attr:`ControlConfig.scale_down_util`, between
  ``min_chips``/``max_chips`` bounds with a per-direction cooldown.  New
  chips arrive *cold*: their ``loaded_plan`` is the :data:`COLD_PLAN`
  sentinel, so the first dispatch pays the plan-switch weight-replacement
  cost through the existing ``loaded_plan`` machinery.
* **Plan re-placement** — on quarantine/readmission/scale events the
  resident plans are re-pinned across the surviving chips by a small
  assignment solve over the span-matrix prices (compiled plan latency +
  weight-replacement), weighted by the observed model mix: each idle
  survivor pre-warms the plan the assignment gives it, paying the WR cost
  up front so the next dispatch of that model runs warm.

Everything is deterministic: the controller consumes no randomness, every
window and EMA is driven by simulated-time events, and ties break on chip
index / model name.  With no :class:`ControlConfig` (or
``interval_us == 0``) the simulator never creates a controller, and its
reports stay pinned bit-identical in ``tests/test_serve.py`` against
the captures in ``tests/data/serving_pins.json``.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.serve.fleet import ChipWorker
from repro.serve.plans import PlanKey
from repro.sim.metrics import nearest_rank_percentile

#: ``loaded_plan`` sentinel for a chip the autoscaler just added: unequal
#: to every real :class:`PlanKey`, so the chip's first dispatch is a plan
#: switch and pays the incoming plan's weight-replacement cost (a cold
#: chip has nothing staged on its crossbars).
COLD_PLAN = PlanKey(model="<cold>", chip="", dram=None, batch=0,
                    mode=None, optimizer="")

#: smoothing factor of the per-chip service-ratio EMA and the fleet
#: utilisation EMA (heavier than the batcher's interarrival EMA — health
#: signals should react within a few ticks)
_HEALTH_ALPHA = 0.3

#: exhaustive placement search budget: assignments enumerated exactly up
#: to this many combinations, greedy regret-matching beyond
_PLACEMENT_EXHAUSTIVE_LIMIT = 4096


@dataclass(frozen=True)
class ControlConfig:
    """Knobs of the self-healing control plane (all times in µs).

    ``interval_us`` is the master switch: 0 (the default) disables the
    controller entirely — no control tick ever runs.  Hedging additionally
    needs ``hedge_after_pct > 0`` and the autoscaler ``autoscale=True`` —
    detection/quarantine and plan re-placement are on whenever the
    controller runs (re-placement can be switched off with
    ``replace_plans=False``).
    """

    #: control tick interval; 0 disables the controller
    interval_us: float = 0.0
    # --- failure detection / quarantine --------------------------------
    #: consecutive suspect ticks before a straggling chip is quarantined
    quarantine_after: int = 2
    #: service-ratio EMA threshold vs the fleet median (suspicion trigger)
    straggler_ratio: float = 1.6
    #: quarantine duration before re-admission; doubles per flap
    probation_us: float = 2000.0
    # --- hedged requests -----------------------------------------------
    #: latency percentile of the observed window a queued request must
    #: outwait before it is hedged; 0 disables hedging
    hedge_after_pct: float = 0.0
    #: completed-latency samples required before hedging arms
    hedge_min_samples: int = 8
    # --- SLO-driven autoscaler -----------------------------------------
    #: whether the autoscaler may grow/shrink the fleet
    autoscale: bool = False
    min_chips: int = 1
    max_chips: int = 8
    #: windowed SLO attainment below which the fleet grows
    scale_up_below: float = 0.9
    #: queued requests per available chip above which the fleet grows
    scale_up_depth: float = 4.0
    #: fleet-utilisation EMA below which the fleet shrinks
    scale_down_util: float = 0.3
    #: minimum simulated time between scale events
    cooldown_us: float = 2000.0
    #: chip class the autoscaler adds (default: the fleet's first class)
    scale_chip: Optional[str] = None
    # --- plan re-placement ---------------------------------------------
    #: re-pin resident plans across survivors on quarantine/scale events
    replace_plans: bool = True
    #: sliding-window length of the latency / attainment / mix windows
    window: int = 64

    def __post_init__(self) -> None:
        if self.interval_us < 0:
            raise ValueError(
                f"control interval must be non-negative, got {self.interval_us}")
        if self.quarantine_after < 1:
            raise ValueError(
                f"quarantine_after must be at least 1, got {self.quarantine_after}")
        if self.straggler_ratio <= 1.0:
            raise ValueError(
                f"straggler_ratio must exceed 1, got {self.straggler_ratio}")
        if self.probation_us <= 0:
            raise ValueError(
                f"probation_us must be positive, got {self.probation_us}")
        if not 0.0 <= self.hedge_after_pct < 100.0:
            raise ValueError(
                f"hedge_after_pct must be in [0, 100), got {self.hedge_after_pct}")
        if self.hedge_min_samples < 1:
            raise ValueError(
                f"hedge_min_samples must be at least 1, got {self.hedge_min_samples}")
        if self.min_chips < 1:
            raise ValueError(f"min_chips must be at least 1, got {self.min_chips}")
        if self.max_chips < self.min_chips:
            raise ValueError(
                f"max_chips ({self.max_chips}) must be >= min_chips "
                f"({self.min_chips})")
        if not 0.0 < self.scale_up_below <= 1.0:
            raise ValueError(
                f"scale_up_below must be a fraction in (0, 1], got "
                f"{self.scale_up_below}")
        if self.scale_up_depth <= 0:
            raise ValueError(
                f"scale_up_depth must be positive, got {self.scale_up_depth}")
        if not 0.0 <= self.scale_down_util < 1.0:
            raise ValueError(
                f"scale_down_util must be a fraction in [0, 1), got "
                f"{self.scale_down_util}")
        if self.cooldown_us < 0:
            raise ValueError(
                f"cooldown_us must be non-negative, got {self.cooldown_us}")
        if self.window < 1:
            raise ValueError(f"window must be at least 1, got {self.window}")

    @property
    def active(self) -> bool:
        """Whether the control plane runs at all."""
        return self.interval_us > 0


@dataclass
class _ChipHealth:
    """The controller's per-chip view — observations, not ground truth."""

    #: EMA of observed/nominal service-time ratio (None until a completion)
    ratio_ema: Optional[float] = None
    #: completion time of the outstanding dispatched batch (None when idle)
    expected_ns: Optional[float] = None
    #: worker epoch at that dispatch — a moved epoch at detection time
    #: proves the chip died mid-batch even if it has since recovered
    expected_epoch: int = 0
    #: consecutive ticks the chip looked like a straggler
    strikes: int = 0
    #: probation end of the current quarantine (None when not quarantined)
    quarantined_until: Optional[float] = None
    #: times this chip has been quarantined (doubles the next probation)
    flaps: int = 0


def place_plans(
    chips: Sequence[int],
    models: Sequence[str],
    weights: Dict[str, float],
    price: Callable[[int, str], float],
    miss: Callable[[str], float],
) -> Dict[int, str]:
    """Assign one resident model plan to each chip (the re-placement solve).

    Minimises the expected warm service cost of the observed traffic mix:
    ``sum_m weights[m] * (best price(c, m) over chips assigned m)``, with
    an uncovered model paying ``miss(m)`` (its best cold price, i.e. plan
    latency plus the weight-replacement its first dispatch would pay).
    ``price(c, m)`` is the span-matrix service price of model ``m`` warm
    on chip ``c``.

    With ``len(models) ** len(chips)`` assignments within the exhaustive
    budget the solve is exact (fleet-sized instances — a handful of chips,
    a few models — always are); larger instances fall back to a greedy
    regret pass: chips in index order take the model with the largest
    weighted saving over its current best cover.  Deterministic either
    way: ties break on enumeration order / model order.
    """
    chips = list(chips)
    models = list(models)
    if not chips or not models:
        return {}

    def cost_of(assignment: Sequence[str]) -> float:
        total = 0.0
        for model in models:
            best = min(
                (price(chip, assigned_model)
                 for chip, assigned_model in zip(chips, assignment)
                 if assigned_model == model),
                default=None,
            )
            total += weights.get(model, 0.0) * (miss(model) if best is None
                                                else best)
        return total

    if len(models) ** len(chips) <= _PLACEMENT_EXHAUSTIVE_LIMIT:
        best_assignment = min(
            itertools.product(models, repeat=len(chips)), key=cost_of,
        )
        return dict(zip(chips, best_assignment))

    # greedy regret: every chip starts on its cheapest model, then chips
    # switch (in index order) to whichever uncovered model saves the most
    assignment = {chip: min(models, key=lambda m: (price(chip, m), m))
                  for chip in chips}
    for chip in chips:
        covered = set(assignment.values())
        uncovered = [m for m in models if m not in covered]
        if not uncovered:
            break
        current = list(assignment.items())

        def regret(model: str) -> float:
            saving = weights.get(model, 0.0) * (miss(model) - price(chip, model))
            return saving

        candidate = max(uncovered, key=lambda m: (regret(m), m))
        if regret(candidate) > 0 and sum(
            1 for c, m in current if m == assignment[chip]
        ) > 1:
            assignment[chip] = candidate
    return assignment


class Controller:
    """Per-run control-plane state: health views, windows and counters.

    One controller is created per :meth:`ServingSimulator.run` when the
    configured :class:`ControlConfig` is active; the simulator feeds it
    observations (dispatches, completions, per-request outcomes) and calls
    its decision methods at every ``CONTROL`` tick.  The controller owns
    the quarantine (``blocked``) and decommission (``retired``) sets the
    dispatch path consults, plus every counter the report's ``control``
    block surfaces.  It consumes no randomness.
    """

    def __init__(self, config: ControlConfig) -> None:
        self.config = config
        self.blocked: Set[int] = set()
        self.retired: Set[int] = set()
        self.health: Dict[int, _ChipHealth] = {}
        #: end-to-end latencies (ns) of recent completions — hedge budget
        self.lat_window: Deque[float] = deque(maxlen=config.window)
        #: 0/1 SLO outcomes of recent completions — autoscale signal
        self.slo_window: Deque[int] = deque(maxlen=config.window)
        #: models of recent dispatches — re-placement traffic weights
        self.model_window: Deque[str] = deque(maxlen=config.window)
        #: batch sizes of recent dispatches per model — re-placement batch
        self.batch_counts: Dict[str, Dict[int, int]] = {}
        self.util_ema: Optional[float] = None
        self.last_scale_ns: Optional[float] = None
        # --- report counters -------------------------------------------
        self.ticks = 0
        self.detections = 0
        self.true_detections = 0
        self.false_detections = 0
        self.quarantines = 0
        self.readmissions = 0
        self.hedges = 0
        self.hedges_won = 0
        self.hedges_wasted = 0
        self.hedges_cancelled = 0
        self.scale_ups = 0
        self.scale_downs = 0
        self.replacements = 0
        self.replacement_ns = 0.0

    # --- observation hooks (called by the simulator) -------------------
    def health_for(self, index: int) -> _ChipHealth:
        return self.health.setdefault(index, _ChipHealth())

    def available(self, worker: ChipWorker) -> bool:
        """Whether the controller lets this chip take dispatches."""
        return (worker.index not in self.blocked
                and worker.index not in self.retired)

    def note_dispatch(self, index: int, model: str, batch: int,
                      completion_ns: float, epoch: int = 0) -> None:
        """A batch was dispatched: remember the completion we expect."""
        health = self.health_for(index)
        health.expected_ns = completion_ns
        health.expected_epoch = epoch
        self.model_window.append(model)
        per_model = self.batch_counts.setdefault(model, {})
        per_model[batch] = per_model.get(batch, 0) + 1

    def note_completion(self, index: int, ratio: float) -> None:
        """The expected completion arrived; fold its service ratio in."""
        health = self.health_for(index)
        health.expected_ns = None
        health.ratio_ema = (
            ratio if health.ratio_ema is None
            else _HEALTH_ALPHA * ratio + (1.0 - _HEALTH_ALPHA) * health.ratio_ema
        )

    def note_request(self, latency_ns: float,
                     slo_ok: Optional[bool]) -> None:
        """One request completed end to end (hedge winners count once)."""
        self.lat_window.append(latency_ns)
        if slo_ok is not None:
            self.slo_window.append(1 if slo_ok else 0)

    # --- decisions (called at every CONTROL tick) ----------------------
    def _quarantine(self, index: int, now: float, genuine: bool) -> None:
        health = self.health_for(index)
        self.detections += 1
        if genuine:
            self.true_detections += 1
        else:
            self.false_detections += 1
        self.quarantines += 1
        self.blocked.add(index)
        # flap damping: each re-quarantine of the same chip doubles its
        # probation, so a flapping chip is readmitted ever more cautiously
        probation_ns = self.config.probation_us * 1e3 * (2.0 ** health.flaps)
        health.quarantined_until = now + probation_ns
        health.flaps += 1
        health.strikes = 0
        health.expected_ns = None

    def assess(self, now: float, workers: Sequence[ChipWorker]) -> bool:
        """Detection / quarantine / re-admission pass; True when changed.

        Ground truth (``worker.up``, ``latency_factor``) is read *only* to
        score a detection as true/false positive — the detection signals
        themselves are the controller's own observations.
        """
        changed = False
        ratios = sorted(
            health.ratio_ema
            for index, health in self.health.items()
            if health.ratio_ema is not None and index not in self.retired
        )
        median_ratio = nearest_rank_percentile(ratios, 50) if ratios else None
        for worker in workers:
            index = worker.index
            if index in self.retired:
                continue
            health = self.health_for(index)
            if index in self.blocked:
                # re-admission probation: the chip must be up again and
                # have served its (flap-damped) quarantine
                if (health.quarantined_until is not None
                        and now >= health.quarantined_until and worker.up):
                    self.blocked.discard(index)
                    health.quarantined_until = None
                    health.ratio_ema = None  # fresh start on probation
                    health.strikes = 0
                    self.readmissions += 1
                    changed = True
                continue
            # stalled completion: the batch we dispatched should have
            # finished by now and no completion was observed — the chip
            # died mid-batch (detected before any scripted recovery)
            if health.expected_ns is not None and now > health.expected_ns:
                genuine = (not worker.up
                           or worker.epoch != health.expected_epoch)
                self._quarantine(index, now, genuine=genuine)
                changed = True
                continue
            # straggler suspicion: service ratio EMA far above the fleet
            # median, for quarantine_after consecutive ticks
            if (median_ratio is not None and median_ratio > 0
                    and health.ratio_ema is not None
                    and health.ratio_ema
                    > self.config.straggler_ratio * median_ratio):
                health.strikes += 1
                if health.strikes >= self.config.quarantine_after:
                    genuine = (worker.latency_factor > 1.0
                               or worker.dram_factor > 1.0 or not worker.up)
                    self._quarantine(index, now, genuine=genuine)
                    changed = True
            else:
                health.strikes = 0
        return changed

    def update_utilisation(self, now: float,
                           workers: Sequence[ChipWorker]) -> None:
        """Fold one busy-fraction sample of the available chips in."""
        available = [w for w in workers if self.available(w) and w.up]
        if not available:
            return
        busy = sum(1 for w in available if w.busy_until_ns > now)
        sample = busy / len(available)
        self.util_ema = (
            sample if self.util_ema is None
            else _HEALTH_ALPHA * sample + (1.0 - _HEALTH_ALPHA) * self.util_ema
        )

    def hedge_budget_ns(self) -> Optional[float]:
        """Current hedge wait budget, or ``None`` while hedging is unarmed."""
        if (self.config.hedge_after_pct <= 0
                or len(self.lat_window) < self.config.hedge_min_samples):
            return None
        return nearest_rank_percentile(sorted(self.lat_window),
                                       self.config.hedge_after_pct)

    def attainment(self) -> Optional[float]:
        """Windowed SLO attainment (``None`` without samples)."""
        if not self.slo_window:
            return None
        return sum(self.slo_window) / len(self.slo_window)

    def scale_decision(self, now: float, workers: Sequence[ChipWorker],
                       queued: int) -> int:
        """+1 to grow, -1 to shrink, 0 to hold (bounds + cooldown aware)."""
        cfg = self.config
        if not cfg.autoscale:
            return 0
        active = [w for w in workers if w.index not in self.retired]
        available = [w for w in active if w.up and w.index not in self.blocked]
        cooled = (self.last_scale_ns is None
                  or now - self.last_scale_ns >= cfg.cooldown_us * 1e3)
        if not cooled:
            return 0
        if len(active) < cfg.max_chips:
            if queued > 0 and not available:
                return +1  # nothing can serve: emergency capacity
            attainment = self.attainment()
            if attainment is not None and attainment < cfg.scale_up_below \
                    and queued > 0:
                return +1
            if available and queued / len(available) > cfg.scale_up_depth:
                return +1
        if len(active) > cfg.min_chips and queued == 0 and available:
            attainment = self.attainment()
            if (self.util_ema is not None
                    and self.util_ema < cfg.scale_down_util
                    and (attainment is None
                         or attainment >= cfg.scale_up_below)):
                return -1
        return 0

    def model_weights(self) -> Dict[str, float]:
        """Observed traffic mix over the dispatch window (re-placement)."""
        weights: Dict[str, float] = {}
        for model in self.model_window:
            weights[model] = weights.get(model, 0.0) + 1.0
        return weights

    def preferred_batch(self, model: str, fallback: int) -> int:
        """The batch size this model is most often dispatched at."""
        counts = self.batch_counts.get(model)
        if not counts:
            return fallback
        return max(sorted(counts), key=lambda b: counts[b])

    # --- report --------------------------------------------------------
    def as_dict(self, workers: Sequence[ChipWorker],
                base_chips: int) -> Dict[str, object]:
        """The report's ``control`` block (all quantities deterministic)."""
        return {
            "interval_us": self.config.interval_us,
            "ticks": self.ticks,
            "detections": self.detections,
            "true_detections": self.true_detections,
            "false_detections": self.false_detections,
            "quarantines": self.quarantines,
            "readmissions": self.readmissions,
            "hedges": self.hedges,
            "hedges_won": self.hedges_won,
            "hedges_wasted": self.hedges_wasted,
            "hedges_cancelled": self.hedges_cancelled,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "base_chips": base_chips,
            "final_chips": len(workers) - len(self.retired),
            "replacements": self.replacements,
            "replacement_ms": self.replacement_ns * 1e-6,
        }
