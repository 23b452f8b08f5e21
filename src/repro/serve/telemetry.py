"""Streaming telemetry for the serving simulator: registry, timeline, tracing.

The serving stack up to PR 7 is a black box until the terminal
:class:`~repro.serve.simulator.ServingReport`: attainment can collapse
during a fault window, the autoscaler can react, and none of it is visible
until the run ends.  This module adds a **passive observability layer** —
four pieces, all pure observers of the simulator's deterministic event
order (they read state, never change it, and consume no randomness):

* **Metrics registry** — :class:`Telemetry`, one hub of named counters,
  gauge *sources* (callables returning a stats dictionary, e.g.
  ``PlanCacheStats.as_dict`` or the fleet's occupancy/energy totals) and
  :class:`Log2Histogram` histograms, snapshot-able at any instant in the
  :class:`~repro.perf.spantable.SpanTableStats` counter style.
* **Metrics timeline** — :class:`TimelineAccumulator` buckets every
  arrival/completion/fault/control observation into fixed windows of
  ``timeline_interval_us`` and renders one row per window: throughput,
  window p50/p95/p99 (from per-window :class:`Log2Histogram` sketches,
  not stored samples — factor-sqrt(2) bound), queue depth and
  utilisation sampled at each window boundary (lazily, at the simulator's
  first event pop past the boundary — between events state cannot change,
  so the sample is exactly what a dedicated boundary tick would read),
  per-model SLO attainment, and fault/control event counts.  Windows
  with zero completions or zero elapsed time report 0.0 rates — never NaN.
* **Streaming percentile sketches** — :class:`P2Quantile` (the classic
  piecewise-parabolic P² estimator: five markers, O(1) memory and update)
  and :class:`Log2Histogram` (fixed power-of-two bins).  Error contracts:
  P² is *exact* below 5 samples (it falls back to nearest rank) and stays
  within **15% relative error** of the exact nearest-rank percentile on
  the latency distributions the test suite pins (Poisson / bursty /
  diurnal / closed-loop, n >= 50); the log2 histogram's quantile is always
  within a **factor of sqrt(2)** of the exact nearest-rank sample (the
  estimate is the geometric midpoint of the bin holding that sample).
  ``TelemetryConfig.streaming_percentiles`` opts the *terminal* report
  into constant-memory sketches; the default path stores samples and
  stays bit-identical to the pre-telemetry simulator.
* **Request lifecycle tracing** — :class:`RequestTracer` samples every
  K-th request id (deterministic, no reservoirs) and records its span
  events — queued (arrival -> dispatch/shed/timeout), service (dispatch ->
  completion/kill, with chip/model/batch/plan-switch attributes), and
  instants for retries/hedges — exported as Chrome trace-event JSON
  (``chrome_trace()``), loadable in Perfetto / chrome://tracing.  Memory
  is bounded by ceil(N / K) request traces.

:class:`TelemetrySession` bundles the four per run and is what the
simulator threads through its event loop.  Telemetry-off runs take the
exact pre-telemetry code path (pinned bit-identical in
``tests/test_serve.py``); telemetry-on runs add ``timeline`` and
``telemetry`` report blocks and byte-identical artifacts for a fixed
seed.  Gate globally with ``REPRO_SERVE_TELEMETRY=0``.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro import envflags

from repro.sim.metrics import nearest_rank_percentile

_SQRT2 = math.sqrt(2.0)


def telemetry_enabled() -> bool:
    """Global telemetry gate (``REPRO_SERVE_TELEMETRY``; default on).

    Mirrors :func:`~repro.serve.faults.faults_enabled`: set the variable
    to ``0`` to drop every telemetry config wholesale — the simulator then
    takes the exact telemetry-off code path regardless of flags.
    """
    return envflags.serve_telemetry_enabled()


@dataclass(frozen=True)
class TelemetryConfig:
    """Knobs of the passive telemetry layer (all observers, no actuators).

    The default config is fully off and the simulator takes the exact
    pre-telemetry code path.  Each part arms independently:
    ``timeline_interval_us > 0`` buckets metrics into fixed windows,
    ``trace_every > 0`` traces every K-th request's lifecycle, and
    ``streaming_percentiles`` swaps the terminal report's sample-storing
    percentiles for constant-memory P² sketches (approximate — see the
    documented error bound on :class:`P2Quantile`).
    """

    #: metrics-timeline window in µs; 0 disables the timeline
    timeline_interval_us: float = 0.0
    #: trace every K-th request id; 0 disables lifecycle tracing
    trace_every: int = 0
    #: constant-memory terminal-report percentiles (approximate)
    streaming_percentiles: bool = False

    def __post_init__(self) -> None:
        if self.timeline_interval_us < 0:
            raise ValueError(
                f"timeline interval must be non-negative, got "
                f"{self.timeline_interval_us}")
        if self.trace_every < 0:
            raise ValueError(
                f"trace_every must be non-negative, got {self.trace_every}")

    @property
    def active(self) -> bool:
        """Whether any telemetry part runs at all."""
        return (self.timeline_interval_us > 0 or self.trace_every > 0
                or self.streaming_percentiles)


# ----------------------------------------------------------------------
# streaming percentile sketches
# ----------------------------------------------------------------------
class P2Quantile:
    """Streaming quantile via the P² (piecewise-parabolic) algorithm.

    Five markers track the running estimate of one quantile in O(1) memory
    and O(1) per-sample work (Jain & Chlamtac, 1985).  The first five
    samples are stored and the estimate is the **exact** nearest-rank
    percentile until the marker invariant can be established — so tiny
    windows degrade gracefully to the exact answer.  From the sixth sample
    on, marker heights move by parabolic (falling back to linear)
    interpolation; the tested accuracy contract on this repository's
    serving latency distributions is <= 15% relative error vs the exact
    nearest-rank percentile (see ``tests/test_telemetry.py``).
    """

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 100.0:
            raise ValueError(f"quantile must be in (0, 100), got {q}")
        self.q = float(q)
        p = self.q / 100.0
        self._increments: Tuple[float, ...] = (
            0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0)
        self.count = 0
        self._heights: List[float] = []
        self._positions: List[int] = []
        self._desired: List[float] = []

    # ------------------------------------------------------------------
    def add(self, value: float) -> None:
        """Fold one sample into the sketch."""
        value = float(value)
        self.count += 1
        if self.count <= 5:
            # exact phase: keep the samples sorted; on the fifth they
            # become the initial marker heights
            lo, hi = 0, len(self._heights)
            while lo < hi:
                mid = (lo + hi) // 2
                if self._heights[mid] < value:
                    lo = mid + 1
                else:
                    hi = mid
            self._heights.insert(lo, value)
            if self.count == 5:
                self._positions = [1, 2, 3, 4, 5]
                self._desired = [1.0 + 4.0 * inc for inc in self._increments]
            return
        heights, positions = self._heights, self._positions
        # locate the cell and stretch the extremes
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            for i in range(1, 4):
                if value >= heights[i]:
                    cell = i
        for i in range(cell + 1, 5):
            positions[i] += 1
        for i in range(5):
            self._desired[i] += self._increments[i]
        # nudge the three interior markers toward their desired positions
        for i in range(1, 4):
            drift = self._desired[i] - positions[i]
            if ((drift >= 1.0 and positions[i + 1] - positions[i] > 1)
                    or (drift <= -1.0 and positions[i - 1] - positions[i] < -1)):
                step = 1 if drift >= 1.0 else -1
                candidate = self._parabolic(i, step)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, step)
                positions[i] += step

    def _parabolic(self, i: int, step: int) -> float:
        q, n = self._heights, self._positions
        return q[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, step: int) -> float:
        q, n = self._heights, self._positions
        return q[i] + step * (q[i + step] - q[i]) / (n[i + step] - n[i])

    # ------------------------------------------------------------------
    def value(self) -> float:
        """Current estimate (0.0 with no samples; exact below 5 samples)."""
        if self.count == 0:
            return 0.0
        if self.count < 5:
            return nearest_rank_percentile(self._heights, self.q)
        return self._heights[2]


class Log2Histogram:
    """Fixed-bin power-of-two latency histogram (constant memory).

    Bin ``b`` covers values in ``[2**b, 2**(b+1))`` (values below 1 fold
    into bin 0, values past the last bin into the last).  A quantile
    estimate is the geometric midpoint ``2**(b + 0.5)`` of the bin holding
    the exact nearest-rank sample, so for in-range positive samples it is
    guaranteed within a factor of ``sqrt(2)`` of the exact value — the
    documented (and tested) error bound.
    """

    def __init__(self, num_bins: int = 64) -> None:
        if num_bins < 1:
            raise ValueError(f"num_bins must be positive, got {num_bins}")
        self._bins = [0] * num_bins
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def _bucket(self, value: float) -> int:
        if value < 1.0:
            return 0
        # frexp's exponent is float-exact where floor(log2(...)) can
        # round wrong just below a power of two — and it is cheaper, which
        # matters: every completion feeds two of these histograms
        bucket = math.frexp(value)[1] - 1
        limit = len(self._bins) - 1
        return bucket if bucket < limit else limit

    def add(self, value: float) -> None:
        """Fold one sample into the histogram (same binning as _bucket)."""
        value = float(value)
        bins = self._bins
        if value < 1.0:
            bucket = 0
        else:
            bucket = math.frexp(value)[1] - 1
            limit = len(bins) - 1
            if bucket > limit:
                bucket = limit
        bins[bucket] += 1
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value

    def extend(self, values: Sequence[float]) -> None:
        """Fold many samples in one pass (same binning as :meth:`add`).

        Histogram contents are order-independent, so batch-folding a
        sample list after the fact yields the same state as one
        :meth:`add` per event — at a fraction of the call overhead.
        """
        bins = self._bins
        limit = len(bins) - 1
        frexp = math.frexp
        count = 0
        total = 0.0
        peak = self.max
        for value in values:
            value = float(value)
            if value < 1.0:
                bucket = 0
            else:
                bucket = frexp(value)[1] - 1
                if bucket > limit:
                    bucket = limit
            bins[bucket] += 1
            count += 1
            total += value
            if value > peak:
                peak = value
        self.count += count
        self.total += total
        self.max = peak

    def quantile(self, q: float) -> float:
        """Geometric midpoint of the bin holding the nearest-rank sample."""
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q / 100.0 * self.count))
        seen = 0
        for b, n in enumerate(self._bins):
            if n:
                seen += n
                if seen >= rank:
                    return _SQRT2 * (2.0 ** b)
        return _SQRT2 * (2.0 ** (len(self._bins) - 1))

    def quantiles(self, qs: Sequence[float]) -> List[float]:
        """Several quantiles in one bin scan (``qs`` ascending).

        Bin-for-bin identical to calling :meth:`quantile` per ``q`` — the
        timeline renders three per window, so the shared scan matters.
        """
        if self.count == 0:
            return [0.0] * len(qs)
        count = self.count
        ranks = [max(1, math.ceil(q / 100.0 * count)) for q in qs]
        results: List[float] = []
        n_q = len(ranks)
        i = 0
        seen = 0
        for b, n in enumerate(self._bins):
            if n:
                seen += n
                while i < n_q and seen >= ranks[i]:
                    results.append(_SQRT2 * (2.0 ** b))
                    i += 1
                if i == n_q:
                    return results
        top = _SQRT2 * (2.0 ** (len(self._bins) - 1))
        while i < n_q:
            results.append(top)
            i += 1
        return results

    def mean(self) -> float:
        """Exact running mean (sums are cheap; only quantiles are binned)."""
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, object]:
        """Snapshot: count/mean/max plus the non-empty bins and quantiles."""
        return {
            "count": self.count,
            "mean": self.mean(),
            "max": self.max,
            "p50": self.quantile(50.0),
            "p95": self.quantile(95.0),
            "p99": self.quantile(99.0),
            "bins": {str(b): n for b, n in enumerate(self._bins) if n},
        }


class StreamingQuantiles:
    """Constant-memory summary: count, mean, max and P² percentiles."""

    def __init__(self, quantiles: Sequence[float] = (50.0, 95.0, 99.0)) -> None:
        self._estimators = {float(q): P2Quantile(q) for q in quantiles}
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value
        for estimator in self._estimators.values():
            estimator.add(value)

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Sketch estimate of the ``q``-th percentile (0.0 when empty)."""
        return self._estimators[float(q)].value()


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
class Telemetry:
    """One hub of named counters, gauge sources and histograms.

    Existing stat surfaces *register* rather than being re-implemented: a
    gauge source is any zero-argument callable returning a dictionary of
    numbers (``PlanCacheStats.as_dict``, a fleet occupancy/energy lambda,
    the controller's counter view, ...) evaluated lazily at
    :meth:`snapshot` time.  Counters are plain monotonic integers;
    histograms are :class:`Log2Histogram` created on first use.  Snapshots
    are deterministic: every mapping is emitted in sorted-key order.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._sources: Dict[str, Callable[[], Dict[str, object]]] = {}
        self._histograms: Dict[str, Log2Histogram] = {}

    def inc(self, name: str, delta: int = 1) -> None:
        """Increment the named counter (created at zero on first use)."""
        self._counters[name] = self._counters.get(name, 0) + delta

    def counter(self, name: str) -> int:
        """Current value of the named counter (0 if never incremented)."""
        return self._counters.get(name, 0)

    def register_source(self, name: str,
                        source: Callable[[], Dict[str, object]]) -> None:
        """Register (or replace) a gauge source evaluated at snapshot time."""
        self._sources[name] = source

    def histogram(self, name: str) -> Log2Histogram:
        """The named histogram, created on first use."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Log2Histogram()
        return histogram

    def snapshot(self) -> Dict[str, object]:
        """Instantaneous view of every registered surface (sorted keys)."""
        return {
            "counters": {name: self._counters[name]
                         for name in sorted(self._counters)},
            "gauges": {name: dict(self._sources[name]())
                       for name in sorted(self._sources)},
            "histograms": {name: self._histograms[name].as_dict()
                           for name in sorted(self._histograms)},
        }


# ----------------------------------------------------------------------
# metrics timeline
# ----------------------------------------------------------------------
class _TimelineWindow:
    """Event-side accumulators of one timeline window."""

    __slots__ = ("arrivals", "completions", "shed", "timeouts", "lost",
                 "retries", "failures", "recoveries", "latency", "slo")

    def __init__(self) -> None:
        self.arrivals = 0
        self.completions = 0
        self.shed = 0
        self.timeouts = 0
        self.lost = 0
        self.retries = 0
        self.failures = 0
        self.recoveries = 0
        # windows use the log2 histogram sketch: one bucket increment per
        # completion (vs 3 P2 marker updates) keeps the per-event observer
        # cheap, and its factor-sqrt(2) bound is distribution-free — safe
        # for the handful-of-samples windows a fine-grained timeline has
        self.latency = Log2Histogram()
        #: per-model [attained, completed] for models with an SLO target
        self.slo: Dict[str, List[int]] = {}


#: control counters the timeline rows carry as per-window deltas
_CONTROL_KEYS = ("quarantines", "readmissions", "hedges",
                 "scale_ups", "scale_downs", "replacements")

#: attempt a mid-run flush every K-th window boundary, not every one —
#: per-boundary fold/scan call overhead on fine windows costs more than
#: the flush itself, and an observatory is just as live receiving its
#: windows a few simulated milliseconds later in small batches.  The
#: simulator holds the counter (an integer compare per boundary beats a
#: method call that early-returns); :meth:`TelemetrySession.finish`
#: always drains whatever the cadence left behind.
FLUSH_EVERY_BOUNDARIES = 32

#: stream a hub snapshot alongside every K-th mid-run window flush — a
#: peek materialises every gauge source and histogram, which on fine
#: timeline windows would dwarf the flush itself if paid per batch
_HUB_PEEK_EVERY = 16


class TimelineAccumulator:
    """Buckets observations into fixed windows and renders one row each.

    Event-side notes (arrivals, completions, faults, ...) are keyed by
    their own timestamp — ``window = floor((ts - origin) / interval)`` —
    so every event lands in the right window regardless of processing
    order.  State-side samples (queue depth, utilisation, cumulative
    control counters) are taken at each window boundary after
    same-instant events settle — the simulator
    samples lazily when it pops the first event past a boundary, which
    between events reads the identical state a dedicated tick would have;
    windows no sample reached forward-fill the last sample, and the final
    window takes the end-of-run flush.

    Per-window rates carry the zero guards the report contract requires:
    a window with **zero completions or zero elapsed time renders 0.0**
    throughput and attainment — never NaN, never a ZeroDivisionError.
    """

    def __init__(self, interval_ns: float,
                 slo_models: Sequence[str] = ()) -> None:
        if interval_ns <= 0:
            raise ValueError(
                f"timeline interval must be positive, got {interval_ns}")
        self.interval_ns = float(interval_ns)
        self.slo_models: Tuple[str, ...] = tuple(slo_models)
        self.origin_ns: Optional[float] = None
        self._windows: Dict[int, _TimelineWindow] = {}
        #: boundary samples as (queue_depth, utilisation, control) tuples
        self._samples: Dict[int, Tuple[int, float, Dict[str, object]]] = {}
        #: last (index, window) the hot notes touched — consecutive events
        #: usually land in the same window, so the common case is one
        #: integer compare instead of a dict probe
        self._last_index = -1
        self._last_window: Optional[_TimelineWindow] = None
        # --- incremental rendering state ------------------------------
        # rows() used to render every window in one end-of-run pass with
        # the carry/delta bookkeeping in locals.  The same bookkeeping now
        # lives on the instance so :meth:`flush_ready` can render finalised
        # windows mid-run and :meth:`rows` renders only the remainder —
        # the concatenation is byte-identical to the old single pass.
        #: every row rendered so far, in window order
        self._rendered: List[Dict[str, object]] = []
        #: index of the next window to render
        self._next_render = 0
        #: windows strictly below this index were closed by a boundary
        #: sample — the simulator samples boundary k only after popping an
        #: event strictly past it, and every note is keyed at its event's
        #: own timestamp (>= that pop time), so closed windows can never
        #: receive another note
        self._closed_upto = 0
        self._carry_depth = 0
        self._carry_util = 0.0
        self._carry_control: Dict[str, object] = {}
        self._previous_control: Dict[str, object] = self._carry_control
        self._previous_values: Tuple[int, ...] = (0,) * len(_CONTROL_KEYS)
        self._zero_deltas = dict.fromkeys(_CONTROL_KEYS, 0)
        #: whether the run carries control-counter columns — constant per
        #: run (the simulator passes the controller snapshot to *every*
        #: boundary sample or to none), decided at the first render
        self._has_control: Optional[bool] = None
        self._empty_slo_block = {model: 0.0 for model in self.slo_models}
        # quiet windows (the drain tail of a long run can have hundreds)
        # share one read-only empty window instead of paying a fresh
        # sketch construction each
        self._empty_window = _TimelineWindow()

    # ------------------------------------------------------------------
    def start(self, origin_ns: float) -> None:
        """Anchor window 0 at the first arrival."""
        self.origin_ns = float(origin_ns)

    def _window_at(self, ts_ns: float) -> _TimelineWindow:
        index = int((ts_ns - self.origin_ns) // self.interval_ns)
        if index == self._last_index:
            return self._last_window
        if index < 0:
            index = 0
        window = self._windows.get(index)
        if window is None:
            window = self._windows[index] = _TimelineWindow()
        self._last_index = index
        self._last_window = window
        return window

    # --- event-side notes (keyed by the event's own timestamp) ---------
    def note_arrival(self, ts_ns: float) -> None:
        self._window_at(ts_ns).arrivals += 1

    def note_completion(self, ts_ns: float, latency_ns: float,
                        model: Optional[str] = None,
                        slo_ok: Optional[bool] = None) -> None:
        window = self._window_at(ts_ns)
        window.completions += 1
        # window.latency.add inlined — this is the single hottest observer
        # statement (one histogram fold per completed request)
        value = float(latency_ns)
        hist = window.latency
        bins = hist._bins
        if value < 1.0:
            bucket = 0
        else:
            bucket = math.frexp(value)[1] - 1
            limit = len(bins) - 1
            if bucket > limit:
                bucket = limit
        bins[bucket] += 1
        hist.count += 1
        hist.total += value
        if value > hist.max:
            hist.max = value
        if model is not None and slo_ok is not None:
            running = window.slo.get(model)
            if running is None:
                running = window.slo[model] = [0, 0]
            running[1] += 1
            if slo_ok:
                running[0] += 1

    def note_shed(self, ts_ns: float) -> None:
        self._window_at(ts_ns).shed += 1

    def note_timeout(self, ts_ns: float) -> None:
        self._window_at(ts_ns).timeouts += 1

    def note_lost(self, ts_ns: float) -> None:
        self._window_at(ts_ns).lost += 1

    def note_retry(self, ts_ns: float) -> None:
        self._window_at(ts_ns).retries += 1

    def note_fault(self, ts_ns: float, action: str) -> None:
        window = self._window_at(ts_ns)
        if action == "recover":
            window.recoveries += 1
        else:
            window.failures += 1

    # --- state-side samples (taken at window boundaries) ---------------
    def sample(self, index: int, queue_depth: int, utilisation: float,
               control: Optional[Dict[str, object]] = None) -> None:
        """Boundary sample closing window ``index`` (control = cumulative).

        The ``control`` dictionary is kept by reference, not copied —
        callers hand over a snapshot the sampled values never mutate
        (ticks where nothing changed may legally share one object;
        :meth:`rows` exploits that identity to skip zero deltas).
        """
        index = int(index)
        self._samples[index] = (
            int(queue_depth), float(utilisation), control or {})
        if index >= self._closed_upto:
            self._closed_upto = index + 1

    # ------------------------------------------------------------------
    def _render_one(self, index: int, span_ns: float) -> Dict[str, object]:
        """Render window ``index`` as one report row (carry state advances).

        ``span_ns`` only matters through ``min(window_end, span_ns)`` in
        the throughput clip; every caller guarantees the window end is at
        or below the span it passes, so a mid-run flush (which sees a
        *lower bound* on the final span) renders the identical row the
        end-of-run pass would have.
        """
        interval_ns = self.interval_ns
        window = self._windows.get(index, self._empty_window)
        sampled = self._samples.get(index)
        if sampled is not None:
            self._carry_depth, self._carry_util, self._carry_control = sampled
        start_ns = index * interval_ns
        completed = window.completions
        # the window-rate guard: zero completions or zero elapsed time
        # renders 0.0, never NaN / ZeroDivisionError
        if completed:
            elapsed_s = max(
                0.0, min(start_ns + interval_ns, span_ns) - start_ns
            ) * 1e-9
            throughput = completed / elapsed_s if elapsed_s > 0 else 0.0
            p50, p95, p99 = window.latency.quantiles((50.0, 95.0, 99.0))
            p50 *= 1e-6
            p95 *= 1e-6
            p99 *= 1e-6
        else:
            throughput = 0.0
            p50 = p95 = p99 = 0.0
        if window.slo:
            attained = sum(a for a, _ in window.slo.values())
            measured = sum(c for _, c in window.slo.values())
            attainment = attained / measured if measured else 0.0
        else:
            attainment = 0.0
        row: Dict[str, object] = {
            "window": index,
            "t_ms": start_ns * 1e-6,
            "arrivals": window.arrivals,
            "completed": completed,
            "throughput_rps": throughput,
            "p50_ms": p50,
            "p95_ms": p95,
            "p99_ms": p99,
            "queue_depth": self._carry_depth,
            "utilisation": self._carry_util,
            "attainment": attainment,
            "shed": window.shed,
            "timeouts": window.timeouts,
            "lost": window.lost,
            "retries": window.retries,
            "failures": window.failures,
            "recoveries": window.recoveries,
        }
        slo_models = self.slo_models
        if slo_models:
            if window.slo:
                block: Dict[str, float] = {}
                for model in slo_models:
                    attained_m, measured_m = window.slo.get(model, (0, 0))
                    block[model] = (attained_m / measured_m
                                    if measured_m else 0.0)
                row["slo"] = block
            else:
                row["slo"] = dict(self._empty_slo_block)
        if self._has_control:
            # delta bookkeeping: forward-filled rows (and ticks where the
            # simulator handed back the same unchanged snapshot object)
            # carry the identical cumulative dict, so identity alone proves
            # every delta is zero — only a *new* snapshot pays the per-key
            # reads
            if self._carry_control is self._previous_control:
                row.update(self._zero_deltas)
            else:
                current = self._carry_control
                values = tuple(int(current.get(key, 0))
                               for key in _CONTROL_KEYS)
                for key, value, prev in zip(_CONTROL_KEYS, values,
                                            self._previous_values):
                    row[key] = value - prev
                self._previous_values = values
                self._previous_control = current
        self._rendered.append(row)
        self._next_render = index + 1
        return row

    def flush_ready(self, end_floor_ns: float) -> List[Dict[str, object]]:
        """Render every window that can no longer change (mid-run flush).

        ``end_floor_ns`` is the simulator's current ``max(last_completion,
        last_arrival)`` — a monotone **lower bound** on the final run end.
        A window is safe to flush when it is (a) closed by a boundary
        sample (no further notes can land in it) and (b) strictly below
        ``ceil(span_floor / interval) - 1`` — a lower bound on the final
        row count, so the end-of-run flush can never overwrite it and its
        elapsed time is a full interval either way.  Flushed rows are
        final: :meth:`rows` renders only the remainder, and the
        concatenation is byte-identical to one end-of-run pass.
        """
        if self.origin_ns is None:
            return []
        span_floor = float(end_floor_ns) - self.origin_ns
        if span_floor <= 0:
            return []
        last_floor = int(math.ceil(span_floor / self.interval_ns)) - 1
        limit = min(self._closed_upto, last_floor)
        if self._next_render >= limit:
            return []
        if self._has_control is None:
            self._has_control = any(s[2] for s in self._samples.values())
        flushed: List[Dict[str, object]] = []
        append = flushed.append
        render = self._render_one
        drop_window = self._windows.pop
        drop_sample = self._samples.pop
        for index in range(self._next_render, limit):
            append(render(index, span_floor))
            # a flushed window can never be touched again — drop its
            # accumulators so a long streamed run stays bounded-memory
            drop_window(index, None)
            drop_sample(index, None)
        # the note fast-path cache may point at a dropped window
        self._last_index = -1
        self._last_window = None
        return flushed

    def rows(self, end_ns: float, queue_depth: int, utilisation: float,
             control: Optional[Dict[str, object]] = None
             ) -> List[Dict[str, object]]:
        """Render every window through the end of the run as report rows.

        Returns the **complete** timeline — any rows already streamed out
        by :meth:`flush_ready` plus the freshly rendered remainder.
        """
        if self.origin_ns is None:
            return []
        span_ns = max(0.0, float(end_ns) - self.origin_ns)
        interval_ns = self.interval_ns
        last = (int(math.ceil(span_ns / interval_ns)) - 1
                if span_ns > 0 else 0)
        # event windows can land past the span (dispatch-time completion
        # timestamps); boundary samples past both are drain-tail ticks kept
        # alive by armed-but-stale timeout events — the timeline stops at
        # the run span, it does not stretch to cover them
        if self._windows:
            last = max(last, max(self._windows))
        # the end-of-run flush is the final window's boundary sample
        # (flush_ready's span floor guarantees every flushed window sits
        # strictly below the final ``last``, so this never collides)
        self._samples[last] = (
            int(queue_depth), float(utilisation), control or {})
        if self._has_control is None:
            self._has_control = any(s[2] for s in self._samples.values())
        for index in range(self._next_render, last + 1):
            self._render_one(index, span_ns)
        return self._rendered


# ----------------------------------------------------------------------
# request lifecycle tracing
# ----------------------------------------------------------------------
class RequestTracer:
    """Chrome trace-event recorder for every K-th request's lifecycle.

    Sampling is deterministic — request ids divisible by ``every`` are
    traced, everything else is ignored at the hook, so memory is bounded
    by ``ceil(N / K)`` request traces regardless of retries or hedges
    (all attempts and copies of one request share its id, and its trace
    row).  Spans are emitted as complete ``X`` events (queued and service
    phases, with model/attempt/chip/batch/plan-switch attributes) plus
    ``i`` instants for point actions (retry scheduled, request lost);
    :meth:`chrome_trace` returns the standard trace-event JSON object —
    ``ts``-sorted, loadable in Perfetto / chrome://tracing.  Timestamps
    are microseconds relative to the first arrival.
    """

    def __init__(self, every: int) -> None:
        if every < 1:
            raise ValueError(f"trace sampling must be >= 1, got {every}")
        self.every = int(every)
        self.origin_ns = 0.0
        #: compact (ts_us, tid, ph, name, dur_us, args) records — the hot
        #: hooks append tuples and :meth:`chrome_trace` materialises the
        #: trace-event dictionaries once at export
        self._events: List[Tuple[float, int, str, str, float,
                                 Dict[str, object]]] = []
        self._queue_open: Dict[Tuple[int, int], Tuple[float, Dict[str, object]]] = {}
        self._service_open: Dict[Tuple[int, int], Tuple[float, Dict[str, object]]] = {}
        #: distinct request ids with any recorded activity (memory bound)
        self.traced_requests: Set[int] = set()

    # ------------------------------------------------------------------
    def start(self, origin_ns: float) -> None:
        self.origin_ns = float(origin_ns)

    def sampled(self, request_id: int) -> bool:
        """Whether this request id is in the deterministic K-sample."""
        return request_id % self.every == 0

    def _ts_us(self, ts_ns: float) -> float:
        return (ts_ns - self.origin_ns) * 1e-3

    def _span(self, name: str, request_id: int, start_ns: float,
              stop_ns: float, args: Dict[str, object]) -> None:
        self._events.append((
            (start_ns - self.origin_ns) * 1e-3,
            request_id,
            "X",
            name,
            max(0.0, (stop_ns - start_ns) * 1e-3),
            args,
        ))

    # --- queued phase ---------------------------------------------------
    def begin_queue(self, request_id: int, attempt: int, ts_ns: float,
                    model: str) -> None:
        if not self.sampled(request_id):
            return
        self.traced_requests.add(request_id)
        self._queue_open[(request_id, attempt)] = (
            ts_ns, {"model": model, "attempt": attempt})

    def end_queue(self, request_id: int, attempt: int, ts_ns: float,
                  outcome: str) -> None:
        opened = self._queue_open.pop((request_id, attempt), None)
        if opened is None:
            return
        start_ns, args = opened
        self._span("queued", request_id, start_ns, ts_ns,
                   {**args, "outcome": outcome})

    # --- service phase --------------------------------------------------
    def begin_service(self, request_id: int, chip_index: int, ts_ns: float,
                      args: Dict[str, object]) -> None:
        if not self.sampled(request_id):
            return
        self.traced_requests.add(request_id)
        self._service_open[(request_id, chip_index)] = (ts_ns, dict(args))

    def end_service(self, request_id: int, chip_index: int, ts_ns: float,
                    outcome: str) -> None:
        opened = self._service_open.pop((request_id, chip_index), None)
        if opened is None:
            return
        start_ns, args = opened
        self._span("service", request_id, start_ns, ts_ns,
                   {**args, "outcome": outcome})

    # --- instants -------------------------------------------------------
    def instant(self, request_id: int, ts_ns: float, name: str,
                args: Optional[Dict[str, object]] = None) -> None:
        if not self.sampled(request_id):
            return
        self.traced_requests.add(request_id)
        self._events.append((
            (ts_ns - self.origin_ns) * 1e-3,
            request_id,
            "i",
            name,
            0.0,
            dict(args or {}),
        ))

    # ------------------------------------------------------------------
    def chrome_trace(self) -> Dict[str, object]:
        """The trace-event JSON object (``ts``-sorted, deterministic)."""
        events: List[Dict[str, object]] = []
        # records sort exactly like the old per-dict key; the stable sort
        # keeps append order for full ties, as before
        for ts, tid, ph, name, dur, args in sorted(
                self._events, key=lambda e: e[:4]):
            event: Dict[str, object] = {
                "name": name,
                "cat": "request",
                "ph": ph,
                "ts": ts,
            }
            if ph == "X":
                event["dur"] = dur
            else:
                event["s"] = "t"
            event["pid"] = 0
            event["tid"] = tid
            event["args"] = args
            events.append(event)
        return {"displayTimeUnit": "ms", "traceEvents": events}


# ----------------------------------------------------------------------
# per-run session: what the simulator threads through its event loop
# ----------------------------------------------------------------------
class _StreamingReportStats:
    """Constant-memory substitutes for the report's sample lists."""

    def __init__(self) -> None:
        self.lat = StreamingQuantiles((50.0, 95.0, 99.0))
        self.wait = StreamingQuantiles((95.0,))
        self.by_model: Dict[str, StreamingQuantiles] = {}
        self.attained: Dict[str, int] = {}

    def note(self, latency_ns: float, wait_ns: float, model: str,
             slo_ok: Optional[bool]) -> None:
        self.lat.add(latency_ns)
        self.wait.add(wait_ns)
        if slo_ok is not None:
            per_model = self.by_model.get(model)
            if per_model is None:
                per_model = self.by_model[model] = StreamingQuantiles(
                    (50.0, 95.0, 99.0))
            per_model.add(latency_ns)
            if slo_ok:
                self.attained[model] = self.attained.get(model, 0) + 1


class TelemetrySession:
    """Per-run telemetry state: hub + timeline + tracer + stream sketches.

    One session is created per :meth:`ServingSimulator.run` when the
    configured :class:`TelemetryConfig` is active; the simulator calls the
    observer hooks below from its event sites.  Every hook only *reads*
    simulation state — a telemetry-on run replays the telemetry-off event
    order exactly and produces a bit-identical report minus the new
    ``timeline``/``telemetry`` blocks.
    """

    def __init__(self, config: TelemetryConfig,
                 slo_models: Sequence[str] = ()) -> None:
        self.config = config
        self.hub = Telemetry()
        self.timeline = (
            TimelineAccumulator(config.timeline_interval_us * 1e3,
                                slo_models=slo_models)
            if config.timeline_interval_us > 0 else None
        )
        self.tracer = (RequestTracer(config.trace_every)
                       if config.trace_every > 0 else None)
        self.stream = (_StreamingReportStats()
                       if config.streaming_percentiles else None)
        # the two hub histograms every completion feeds, bound once — the
        # completion hook is the hottest observer site
        self._latency_hist = self.hub.histogram("latency_ns")
        self._wait_hist = self.hub.histogram("wait_ns")
        # in exact mode the simulator keeps every latency/wait sample for
        # the report anyway, so the hub histograms are batch-folded from
        # those lists at snapshot time (fold order is irrelevant to a
        # histogram) instead of two .add() calls per completion on the
        # hot path; streaming mode keeps no sample lists, so it feeds
        # the histograms live
        self._live_hists = self.stream is not None
        #: tracer sampling stride (0 = tracing off) — hooks check the
        #: modulo inline so untraced requests pay one comparison, not a
        #: method call into the tracer
        self._trace_every = self.tracer.every if self.tracer else 0
        # exact-mode note buffering: the arrival/completion hooks append
        # one compact record here and the fold into timeline windows
        # happens once inside finish() — per-window additions commute, so
        # the rendered rows are identical to per-event notes at a
        # fraction of the hot-path cost.  The buffers are O(completed),
        # the same class of memory as the exact report's sample lists;
        # streaming runs fold per event to keep their constant-memory
        # contract
        self._buffer_notes = self.timeline is not None and self.stream is None
        self._pending_arrivals: List[float] = []
        self._pending_completions: List[
            Tuple[float, float, Optional[str], Optional[bool]]] = []
        # event counters are plain attributes, not hub.inc() calls — the
        # hooks fire once per event and an attribute increment is ~3x
        # cheaper than a dict-backed counter bump; snapshot() materialises
        # them into the hub, where they are indistinguishable from live
        # increments
        self._n_arrivals = 0
        self._n_completions = 0
        self._n_dispatches = 0
        self._n_hedge_dispatches = 0
        self._n_shed = 0
        self._n_retries = 0
        self._n_timeouts = 0
        self._n_lost = 0
        self._n_failures = 0
        self._n_recoveries = 0
        #: live-stream sink — the simulator attaches a callable
        #: ``sink(kind, payload)`` when an observatory is watching the
        #: run; completed windows, fault events and hub snapshots are
        #: pushed through it mid-run.  ``None`` (the default) keeps the
        #: pure batch end-of-run path.
        self.sink: Optional[Callable[[str, Dict[str, object]], None]] = None
        #: flush batches streamed so far — hub peeks ride along every
        #: :data:`_HUB_PEEK_EVERY`-th batch (see :meth:`flush_stream`)
        self._flush_batches = 0
        # snapshot() drains the attribute counters into the hub while
        # peek() merges them without draining; the lock keeps a hub read
        # from another thread from seeing a half-drained state
        self._counter_lock = threading.Lock()

    # ------------------------------------------------------------------
    def start(self, origin_ns: float) -> None:
        """Anchor the timeline and trace clock at the first arrival."""
        if self.timeline is not None:
            self.timeline.start(origin_ns)
        if self.tracer is not None:
            self.tracer.start(origin_ns)

    # --- observer hooks (called by the simulator's event sites) --------
    def arrival(self, ts_ns: float, request) -> None:
        if request.attempt == 0:
            self._n_arrivals += 1
            if self._buffer_notes:
                self._pending_arrivals.append(ts_ns)
            elif self.timeline is not None:
                self.timeline.note_arrival(ts_ns)
        if self._trace_every and request.request_id % self._trace_every == 0:
            self.tracer.begin_queue(request.request_id, request.attempt,
                                    ts_ns, request.model)

    def shed(self, ts_ns: float, request) -> None:
        self._n_shed += 1
        if self.timeline is not None:
            self.timeline.note_shed(ts_ns)
        if self.tracer is not None:
            self.tracer.end_queue(request.request_id, request.attempt,
                                  ts_ns, "shed")

    def retry(self, ts_ns: float, request) -> None:
        self._n_retries += 1
        if self.timeline is not None:
            self.timeline.note_retry(ts_ns)
        if self.tracer is not None:
            self.tracer.instant(request.request_id, ts_ns, "retry",
                                {"attempt": request.attempt + 1})

    def queue_exit(self, ts_ns: float, request, outcome: str) -> None:
        """A queued request left without dispatch (timeout / cancelled)."""
        if self._trace_every and request.request_id % self._trace_every == 0:
            self.tracer.end_queue(request.request_id, request.attempt,
                                  ts_ns, outcome)

    def timeout(self, ts_ns: float, request) -> None:
        self._n_timeouts += 1
        if self.timeline is not None:
            self.timeline.note_timeout(ts_ns)

    def lost(self, ts_ns: float, request) -> None:
        self._n_lost += 1
        if self.timeline is not None:
            self.timeline.note_lost(ts_ns)
        if self.tracer is not None:
            self.tracer.instant(request.request_id, ts_ns, "lost", {})

    def fault(self, ts_ns: float, action: str, chip_index: int) -> None:
        if action == "recover":
            self._n_recoveries += 1
        else:
            self._n_failures += 1
        if self.timeline is not None:
            self.timeline.note_fault(ts_ns, action)
        if self.sink is not None:
            self.sink("event", {"type": "fault", "ts_ms": ts_ns * 1e-6,
                                "action": action, "chip": chip_index})

    def dispatch(self, ts_ns: float, requests, worker, model: str,
                 batch: int, completion_ns: float, switched: bool,
                 hedge: bool = False) -> None:
        if hedge:
            self._n_hedge_dispatches += 1
        else:
            self._n_dispatches += 1
        every = self._trace_every
        if every:
            # the args dict is only built once a sampled rider turns up —
            # most batches carry none (begin_service copies it per span)
            args: Optional[Dict[str, object]] = None
            for request in requests:
                if request.request_id % every:
                    continue
                if args is None:
                    args = {
                        "chip": worker.index,
                        "class": worker.chip_name,
                        "model": model,
                        "batch": batch,
                        "plan_switch": bool(switched),
                    }
                    if hedge:
                        args["hedge"] = True
                if not hedge:
                    # a hedge copy leaves the original queued: its queue
                    # span stays open until the race resolves
                    self.tracer.end_queue(request.request_id,
                                          request.attempt, ts_ns,
                                          "dispatched")
                self.tracer.begin_service(request.request_id, worker.index,
                                          ts_ns, args)

    def completion(self, ts_ns: float, request, latency_ns: float,
                   wait_ns: float, slo_ok: Optional[bool], worker) -> None:
        """One request completed end to end (counted exactly once)."""
        self._n_completions += 1
        if self._live_hists:
            self._latency_hist.add(latency_ns)
            self._wait_hist.add(wait_ns)
        # ``stream`` is fed by the simulator's accounting sites directly
        # (it *replaces* the sample lists there); feeding it here too
        # would double-count
        if self._buffer_notes:
            self._pending_completions.append(
                (ts_ns, latency_ns, request.model, slo_ok))
        elif self.timeline is not None:
            self.timeline.note_completion(ts_ns, latency_ns, request.model,
                                          slo_ok)
        if self._trace_every and request.request_id % self._trace_every == 0:
            self.tracer.end_service(request.request_id, worker.index, ts_ns,
                                    "completed")

    def end_service(self, ts_ns: float, request, worker,
                    outcome: str) -> None:
        """A service span ended without a counted completion."""
        if self._trace_every and request.request_id % self._trace_every == 0:
            self.tracer.end_service(request.request_id, worker.index, ts_ns,
                                    outcome)

    def batch_killed(self, ts_ns: float, requests, worker) -> None:
        """A chip died mid-batch; its riders' service spans end killed."""
        if self.tracer is not None:
            for request in requests:
                self.tracer.end_service(request.request_id, worker.index,
                                        ts_ns, "killed")

    def tick(self, index: int, queue_depth: int, utilisation: float,
             control: Optional[Dict[str, object]] = None) -> None:
        """The boundary sample closing window ``index``."""
        if self.timeline is not None:
            self.timeline.sample(index, queue_depth, utilisation, control)

    # ------------------------------------------------------------------
    def _fold_pending(self) -> None:
        """Fold the buffered exact-mode notes into the timeline windows.

        Order is irrelevant: every per-window update is an addition, so
        folding at a mid-run flush boundary and folding once at finish
        render the identical rows.
        """
        if not (self._pending_arrivals or self._pending_completions):
            return
        timeline = self.timeline
        note_arrival = timeline.note_arrival
        for ts_ns in self._pending_arrivals:
            note_arrival(ts_ns)
        note_completion = timeline.note_completion
        for record in self._pending_completions:
            note_completion(*record)
        self._pending_arrivals.clear()
        self._pending_completions.clear()

    def flush_stream(self, end_floor_ns: float) -> None:
        """Push every newly-final window (and a hub peek) through the sink.

        Called by the simulator at boundary-sample time when a sink is
        attached.  ``end_floor_ns`` is the current lower bound on the run
        end (``max(last_completion, last_arrival)``); windows the
        accumulator proves final against that bound are rendered now and
        streamed — the rendered rows are the exact objects the end-of-run
        timeline block will contain.  The simulator only calls this every
        :data:`FLUSH_EVERY_BOUNDARIES`-th boundary: the cadence shapes
        *when* batches stream, never their content, and :meth:`finish`
        always drains whatever remains.
        """
        timeline = self.timeline
        sink = self.sink
        if timeline is None or sink is None:
            return
        self._fold_pending()
        flushed = timeline.flush_ready(end_floor_ns)
        if not flushed:
            return
        for row in flushed:
            sink("window", row)
        # a hub peek walks every gauge source and histogram — per flush
        # batch that would cost more than the flush itself on fine
        # windows, so peeks ride along every K-th batch (the first one
        # immediately, so a watcher sees counters as soon as windows
        # flow; the report's telemetry block supplies the final state)
        if self._flush_batches % _HUB_PEEK_EVERY == 0:
            sink("hub", self.peek())
        self._flush_batches += 1

    def finish(self, end_ns: float, queue_depth: int, utilisation: float,
               control: Optional[Dict[str, object]] = None
               ) -> List[Dict[str, object]]:
        """Flush the final window and render the timeline rows."""
        timeline = self.timeline
        if timeline is None:
            return []
        self._fold_pending()
        already = timeline._next_render
        rows = timeline.rows(end_ns, queue_depth, utilisation, control)
        sink = self.sink
        if sink is not None:
            # stream the tail so subscribers saw every window exactly once
            for row in rows[already:]:
                sink("window", row)
        return rows

    def fill_histograms(self, latencies: Sequence[float],
                        waits: Sequence[float]) -> None:
        """Batch-fold the report's sample lists into the hub histograms.

        Exact-mode runs keep every latency/wait sample for the report, so
        the simulator hands the finished lists over here once instead of
        the completion hook paying two histogram folds per event.  A
        streaming run kept no lists and fed the histograms live — this is
        a no-op there.
        """
        if self._live_hists:
            return
        self._latency_hist.extend(latencies)
        self._wait_hist.extend(waits)

    def _event_counter_items(self) -> Tuple[Tuple[str, int], ...]:
        return (
            ("arrivals", self._n_arrivals),
            ("completions", self._n_completions),
            ("dispatches", self._n_dispatches),
            ("hedge_dispatches", self._n_hedge_dispatches),
            ("shed", self._n_shed),
            ("retries", self._n_retries),
            ("timeouts", self._n_timeouts),
            ("lost", self._n_lost),
            ("failures", self._n_failures),
            ("recoveries", self._n_recoveries),
        )

    def _config_echo(self) -> Dict[str, object]:
        return {
            "timeline_interval_us": self.config.timeline_interval_us,
            "trace_every": self.config.trace_every,
            "streaming_percentiles": self.config.streaming_percentiles,
        }

    def snapshot(self) -> Dict[str, object]:
        """The report's ``telemetry`` block: hub snapshot + config echo."""
        # drain the attribute-backed event counters into the hub so the
        # snapshot (and any later hub read) sees them; draining keeps a
        # second snapshot() call from double-counting
        with self._counter_lock:
            counters = self.hub._counters
            for name, value in self._event_counter_items():
                if value:
                    counters[name] = counters.get(name, 0) + value
            self._n_arrivals = self._n_completions = 0
            self._n_dispatches = self._n_hedge_dispatches = 0
            self._n_shed = self._n_retries = self._n_timeouts = 0
            self._n_lost = self._n_failures = self._n_recoveries = 0
            snap = self.hub.snapshot()
        snap["config"] = self._config_echo()
        return snap

    def peek(self) -> Dict[str, object]:
        """Non-destructive mid-run hub view (same shape as :meth:`snapshot`).

        The attribute-backed event counters are merged into the snapshot
        *copy* instead of drained into the hub, so a later ``snapshot()``
        (or another ``peek()``) never double-counts.
        """
        with self._counter_lock:
            snap = self.hub.snapshot()
            counters = snap["counters"]
            for name, value in self._event_counter_items():
                if value:
                    counters[name] = counters.get(name, 0) + value
        # merged names may be new — re-emit in sorted order to keep the
        # hub's deterministic-snapshot contract
        snap["counters"] = {name: counters[name]
                            for name in sorted(counters)}
        snap["config"] = self._config_echo()
        return snap
