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
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.hardware.config import get_chip_config
from repro.serve.fleet import ChipWorker
from repro.serve.knobs import check_knobs, knob
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

    interval_us: float = knob(
        0.0, ">= 0", "--control-interval-us", "self-healing control-plane "
        "tick interval in us; 0 disables the controller")
    # --- failure detection / quarantine --------------------------------
    quarantine_after: int = knob(
        2, ">= 1", "--quarantine-after", "consecutive suspect control ticks "
        "before a straggling chip is quarantined")
    straggler_ratio: float = knob(
        1.6, "> 1", "--straggler-ratio",
        "service-ratio EMA vs fleet median above which a chip is suspected")
    probation_us: float = knob(
        2000.0, "> 0", "--probation-us",
        "quarantine duration before re-admission, doubling per flap")
    # --- hedged requests -----------------------------------------------
    hedge_after_pct: float = knob(
        0.0, "[0, 100)", "--hedge-after-pct", "hedge requests stuck past this "
        "percentile of the observed latency window; 0 disables")
    hedge_min_samples: int = knob(
        8, ">= 1", help="completed-latency samples required before hedging arms")
    # --- SLO-driven autoscaler -----------------------------------------
    autoscale: bool = knob(
        False, help="whether the autoscaler may grow/shrink the fleet")
    min_chips: int = knob(1, ">= 1", help="fewest chips the autoscaler keeps")
    max_chips: int = knob(8, ">= 1", help="most chips the autoscaler adds up to")
    scale_up_below: float = knob(
        0.9, "(0, 1]", "--scale-up-below",
        "windowed SLO attainment below which the fleet grows")
    scale_up_depth: float = knob(
        4.0, "> 0", help="queued requests per available chip above which the "
        "fleet grows")
    scale_down_util: float = knob(
        0.3, "[0, 1)", "--scale-down-util",
        "utilisation EMA below which the fleet shrinks")
    cooldown_us: float = knob(
        2000.0, ">= 0", "--cooldown-us",
        "minimum simulated time between scale events in us")
    scale_chip: Optional[str] = knob(
        None, get_chip_config, "--scale-chip", "chip class the autoscaler "
        "adds (default: the fleet's first class)", kind=str)
    # --- plan re-placement ---------------------------------------------
    replace_plans: bool = knob(
        True, None, "--no-replace-plans",
        "disable plan re-placement after quarantine/scale events")
    window: int = knob(
        64, ">= 1", help="sliding-window length of the latency, attainment "
        "and model-mix windows")

    def __post_init__(self) -> None:
        check_knobs(self)
        if not self.max_chips >= self.min_chips:
            raise ValueError(
                f"max_chips ({self.max_chips}) must be >= min_chips "
                f"({self.min_chips})")

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
        #: ``lat_window`` kept ascending, so a tick reads the budget unsorted
        self.lat_sorted: List[float] = []
        #: 0/1 SLO outcomes of recent completions — autoscale signal
        self.slo_window: Deque[int] = deque(maxlen=config.window)
        #: ``sum(slo_window)``, kept as samples enter and leave
        self.slo_hits = 0
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
        health = self.health.get(index)
        if health is None:
            health = self.health[index] = _ChipHealth()
        return health

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
        window = self.lat_window
        lat_sorted = self.lat_sorted
        if len(window) == window.maxlen:
            # the append below evicts the oldest sample: drop one equal value
            del lat_sorted[bisect_left(lat_sorted, window[0])]
        window.append(latency_ns)
        insort(lat_sorted, latency_ns)
        if slo_ok is not None:
            hit = 1 if slo_ok else 0
            slo_window = self.slo_window
            if len(slo_window) == slo_window.maxlen:
                self.slo_hits -= slo_window[0]  # evicted by the append
            slo_window.append(hit)
            self.slo_hits += hit

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
        themselves are the controller's own observations.  A chip with no
        health record yet (never dispatched to) has nothing to assess.
        """
        changed = False
        healths = self.health
        blocked, retired = self.blocked, self.retired
        ratios = sorted(
            health.ratio_ema
            for index, health in healths.items()
            if health.ratio_ema is not None and index not in retired
        )
        median_ratio = nearest_rank_percentile(ratios, 50) if ratios else None
        suspect_above = (self.config.straggler_ratio * median_ratio
                         if median_ratio is not None and median_ratio > 0
                         else None)
        for worker in workers:
            index = worker.index
            health = healths.get(index)
            if health is None or index in retired:
                continue
            if index in blocked:
                # re-admission probation: the chip must be up again and
                # have served its (flap-damped) quarantine
                if (health.quarantined_until is not None
                        and now >= health.quarantined_until and worker.up):
                    blocked.discard(index)
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
            if (suspect_above is not None and health.ratio_ema is not None
                    and health.ratio_ema > suspect_above):
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
        blocked, retired = self.blocked, self.retired
        available = busy = 0
        for w in workers:
            if w.up and w.index not in blocked and w.index not in retired:
                available += 1
                if w.busy_until_ns > now:
                    busy += 1
        if not available:
            return
        sample = busy / available
        self.util_ema = (
            sample if self.util_ema is None
            else _HEALTH_ALPHA * sample + (1.0 - _HEALTH_ALPHA) * self.util_ema
        )

    def hedge_budget_ns(self) -> Optional[float]:
        """Current hedge wait budget, or ``None`` while hedging is unarmed."""
        if (self.config.hedge_after_pct <= 0
                or len(self.lat_window) < self.config.hedge_min_samples):
            return None
        return nearest_rank_percentile(self.lat_sorted,
                                       self.config.hedge_after_pct)

    def attainment(self) -> Optional[float]:
        """Windowed SLO attainment (``None`` without samples)."""
        if not self.slo_window:
            return None
        return self.slo_hits / len(self.slo_window)

    def scale_decision(self, now: float, workers: Sequence[ChipWorker],
                       queued: int) -> int:
        """+1 to grow, -1 to shrink, 0 to hold (bounds + cooldown aware)."""
        cfg = self.config
        cooled = (self.last_scale_ns is None
                  or now - self.last_scale_ns >= cfg.cooldown_us * 1e3)
        if not cfg.autoscale or not cooled:
            return 0
        blocked, retired = self.blocked, self.retired
        active = available = 0
        for w in workers:
            if w.index not in retired:
                active += 1
                if w.up and w.index not in blocked:
                    available += 1
        if active < cfg.max_chips:
            if queued > 0 and not available:
                return +1  # nothing can serve: emergency capacity
            attainment = self.attainment()
            if attainment is not None and attainment < cfg.scale_up_below \
                    and queued > 0:
                return +1
            if available and queued / available > cfg.scale_up_depth:
                return +1
        if active > cfg.min_chips and queued == 0 and available:
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
