"""Streaming telemetry for the serving simulator: registry, timeline, tracing.

The serving stack up to PR 7 is a black box until the terminal
:class:`~repro.serve.simulator.ServingReport`: attainment can collapse
during a fault window, the autoscaler can react, and none of it is visible
until the run ends.  This module adds a **passive observability layer** —
four pieces, all pure observers of the simulator's deterministic event
order (they read state, never change it, and consume no randomness):

* **Metrics registry** — :class:`Telemetry`, one hub that reads the
  run's event counts and gauge *sources* (callables returning a stats
  dictionary, e.g. ``PlanCacheStats.as_dict`` or the fleet's totals) and
  keeps :class:`LogLinearHistogram` histograms, snapshot-able at any
  instant in the :class:`~repro.perf.spantable.SpanTableStats` style.
* **Metrics timeline** — :class:`TimelineAccumulator` buckets every
  arrival/completion/fault/control observation into fixed windows of
  ``timeline_interval_us`` and renders one row per window: throughput,
  window p50/p95/p99 (the :class:`LogLinearHistogram` answer on the
  window's latencies), queue depth and utilisation sampled at each window
  boundary (lazily, at the simulator's first event pop past the boundary
  — between events state cannot change, so the sample is exactly what a
  dedicated boundary tick would read), per-model SLO attainment, and
  fault/control event counts.  Windows with zero completions or zero
  elapsed time report 0.0 rates — never NaN.
* **One percentile sketch** — :class:`LogLinearHistogram`, a sparse
  histogram with 128 linear sub-buckets per power of two.  Its quantiles
  are within a relative **2^-8 (0.4%)** of the exact nearest-rank
  percentile on any positive samples.  The hub histograms, every
  timeline window's percentiles and the streaming terminal report all
  use it.
  ``TelemetryConfig.streaming_percentiles`` has the *terminal* report
  read its percentiles from the hub's sketches instead of stored sample
  lists; the default path stores samples and stays bit-identical to the
  pre-telemetry simulator.
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

import functools
import math
from bisect import bisect_left
from dataclasses import asdict, dataclass
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import envflags
from repro.serve.knobs import check_knobs, knob


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
    pre-telemetry code path; each part arms independently.
    """

    timeline_interval_us: float = knob(
        0.0, ">= 0", "--timeline-us", "emit a metrics timeline with this "
        "window interval in us; 0 disables")
    trace_every: int = knob(
        0, ">= 0", "--trace-requests",
        "trace the lifecycle of every K-th request; 0 disables")
    streaming_percentiles: bool = knob(
        False, None, "--streaming-percentiles", "terminal-report percentiles "
        "from log-linear histogram sketches (within 2^-8 = 0.4%% of exact; "
        "memory grows with distinct buckets) instead of every latency sample")

    def __post_init__(self) -> None:
        check_knobs(self)

    @property
    def active(self) -> bool:
        """Whether any telemetry part runs at all."""
        return (self.timeline_interval_us > 0 or self.trace_every > 0
                or self.streaming_percentiles)


# ----------------------------------------------------------------------
# the percentile sketch
# ----------------------------------------------------------------------
#: the one bucket every zero or negative sample shares; it sorts below
#: every positive key (the smallest subnormal, 2**-1074, has key -1073 << 7)
_ZERO_KEY = -(1 << 20)


def _bucket_point(key: int, half_widths: int) -> float:
    """Bucket ``key``'s lower edge plus ``half_widths`` half bucket widths.

    Bucket ``(e << 7) + s`` spans ``[(128 + s) * 2**(e-8), (129 + s) *
    2**(e-8))``, so 1 gives its midpoint and 2 its exclusive upper edge;
    the zero bucket reads as 0.0.
    """
    if key == _ZERO_KEY:
        return 0.0
    return math.ldexp(2 * (key & 127) + 256 + half_widths, (key >> 7) - 9)


def _bucket_key(value: float) -> int:
    """The bucket key of one sample (see :class:`LogLinearHistogram`)."""
    if value > 0.0:
        mantissa, exponent = math.frexp(value)
        return (exponent << 7) + int(mantissa * 256.0) - 128
    return _ZERO_KEY


@functools.lru_cache(maxsize=4096)
def _edge_label(key: int) -> str:
    """``repr`` of bucket ``key``'s exclusive upper edge, the snapshot's bin
    label (memoised: every snapshot labels every non-empty bucket, and a
    process's runs keep landing in the same few thousand buckets)."""
    return repr(_bucket_point(key, 2))


class LogLinearHistogram:
    """Sparse log-linear histogram: the serving layer's percentile sketch.

    A positive sample ``value = m * 2**e`` (``math.frexp``, ``m`` in
    ``[0.5, 1)``) lands in bucket ``(e << 7) + s`` with ``s = int(m * 256)
    - 128``: one of 128 equal-width sub-buckets of the octave
    ``[2**(e-1), 2**e)``.  Zero and negative samples share one zero
    bucket.  Buckets live in a dict, so memory grows with the number of
    distinct buckets touched, never with the sample count, and positive
    floats of any magnitude need no clamp.

    A quantile reads as the midpoint of the bucket holding the exact
    nearest-rank sample (0.0 for the zero bucket), so it is within a
    relative ``2**-8`` (0.4%) of :func:`~repro.sim.metrics.
    nearest_rank_percentile` on the same samples.  ``count``, ``total``
    and ``max`` are exact.
    """

    __slots__ = ("_bins", "count", "total", "max")

    def __init__(self) -> None:
        self._bins: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def add(self, value: float, key: Optional[int] = None) -> None:
        """Fold one sample into its bucket (``key``: its known
        :func:`_bucket_key`, when the caller already computed it)."""
        if key is None:
            key = _bucket_key(value)
        bins = self._bins
        bins[key] = bins.get(key, 0) + 1
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value

    def extend(self, values: Sequence[float]) -> None:
        """Fold many samples at once, bucket for bucket as :meth:`add`.

        Bucket counts are order-independent, so folding a finished sample
        list leaves the same buckets as one :meth:`add` per sample.
        """
        samples = np.asarray(values, dtype=np.float64)
        if not samples.size:
            return
        mantissas, exponents = np.frexp(samples)
        keys = ((exponents.astype(np.int64) << 7)
                + (mantissas * 256.0).astype(np.int64) - 128)
        keys[~(samples > 0.0)] = _ZERO_KEY
        uniques, counts = np.unique(keys, return_counts=True)
        bins = self._bins
        if bins:
            for key, n in zip(uniques.tolist(), counts.tolist()):
                bins[key] = bins.get(key, 0) + n
        else:  # the exact-mode end-of-run fold starts from no bins
            bins.update(zip(uniques.tolist(), counts.tolist()))
        self.count += int(samples.size)
        self.total += float(samples.sum())
        self.max = max(self.max, float(samples.max()))

    def quantiles(self, qs: Sequence[float]) -> List[float]:
        """Nearest-rank estimates of the percentiles ``qs``, from one
        cumulative scan over the sorted keys."""
        keys = sorted(self._bins)
        return self._quantiles(keys, list(map(self._bins.__getitem__, keys)),
                               qs)

    def _quantiles(self, keys: List[int], counts: List[int],
                   qs: Sequence[float]) -> List[float]:
        count = self.count
        if not count:
            return [0.0] * len(qs)
        seen = list(accumulate(counts))
        return [_bucket_point(keys[bisect_left(
                    seen, max(1, math.ceil(q / 100.0 * count)))], 1)
                for q in qs]

    def mean(self) -> float:
        """Exact running mean (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, object]:
        """Snapshot: count/mean/max, p50/p95/p99 and the non-empty bins,
        each keyed by its bucket's exclusive upper edge (``"0.0"`` for the
        zero bucket)."""
        # one sort serves both the percentile scan and the bin listing
        keys = sorted(self._bins)
        counts = list(map(self._bins.__getitem__, keys))
        p50, p95, p99 = self._quantiles(keys, counts, (50.0, 95.0, 99.0))
        return {
            "count": self.count,
            "mean": self.mean(),
            "max": self.max,
            "p50": p50,
            "p95": p95,
            "p99": p99,
            "bins": dict(zip(map(_edge_label, keys), counts)),
        }


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
class Telemetry:
    """One hub of event counts, gauge sources and histograms.

    Existing stat surfaces *register* rather than being re-implemented: a
    gauge source is any zero-argument callable returning a dictionary of
    numbers (``PlanCacheStats.as_dict``, a fleet occupancy/energy lambda,
    the controller's counter view, ...) evaluated lazily at
    :meth:`snapshot` time.  ``counters`` is one more such callable — the
    run's monotonic event counts by name, which the hub reads rather than
    keeps; histograms are :class:`LogLinearHistogram` created on first
    use.  Snapshots are deterministic: every mapping is emitted in
    sorted-key order, and zero counts are left out.
    """

    def __init__(self,
                 counters: Callable[[], Dict[str, int]] = dict) -> None:
        self._read_counters = counters
        self._sources: Dict[str, Callable[[], Dict[str, object]]] = {}
        self._histograms: Dict[str, LogLinearHistogram] = {}

    def register_source(self, name: str,
                        source: Callable[[], Dict[str, object]]) -> None:
        """Register (or replace) a gauge source evaluated at snapshot time."""
        self._sources[name] = source

    def histogram(self, name: str) -> LogLinearHistogram:
        """The named histogram, created on first use."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = LogLinearHistogram()
        return histogram

    def snapshot(self) -> Dict[str, object]:
        """Instantaneous view of every registered surface (sorted keys)."""
        counts = self._read_counters()
        return {
            "counters": {name: counts[name]
                         for name in sorted(counts) if counts[name]},
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

    __slots__ = ("arrivals", "shed", "timeouts", "lost", "retries",
                 "failures", "recoveries", "latencies", "slo")

    def __init__(self) -> None:
        self.arrivals = 0
        self.shed = 0
        self.timeouts = 0
        self.lost = 0
        self.retries = 0
        self.failures = 0
        self.recoveries = 0
        #: latency of every completion in the window (sorted by the render)
        self.latencies: List[float] = []
        #: per-model [attained, completed] for models with an SLO target
        self.slo: Dict[str, List[int]] = {}


#: cumulative control counters the timeline rows carry as per-window deltas
CONTROL_COUNTERS = ("quarantines", "readmissions", "hedges",
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
#: snapshot materialises every gauge source and histogram, which on fine
#: timeline windows would dwarf the flush itself if paid per batch
_HUB_SNAPSHOT_EVERY = 16


#: a timeline row's percentiles as nearest-rank fractions (``q / 100.0``)
_ROW_FRACTIONS = (0.5, 0.95, 0.99)


def _sorted_midpoints(samples: List[float], count: int) -> List[float]:
    """A timeline row's p50/p95/p99 of ``count`` ``samples`` (sorted in
    place): the :class:`LogLinearHistogram` answer, the midpoint of the
    bucket of each nearest-rank sample — bucket keys grow with the value,
    so the bucket holding the rank-th sample is the rank-th bucket.  The
    midpoint is ``_bucket_point(_bucket_key(value), 1)`` with the key's
    sub-bucket and exponent left unpacked."""
    samples.sort()
    points = []
    for fraction in _ROW_FRACTIONS:
        # every fraction is >= 0.5, so the rank is at least 1 for count >= 1
        value = samples[math.ceil(fraction * count) - 1]
        if value > 0.0:
            mantissa, exponent = math.frexp(value)
            points.append(math.ldexp(2 * int(mantissa * 256.0) + 1,
                                     exponent - 9))
        else:
            points.append(0.0)
    return points


class TimelineAccumulator:
    """Buckets observations into fixed windows and renders one row each.

    Event-side notes (arrivals, completions, faults, ...) are keyed by
    their own timestamp — ``window = floor((ts - origin) / interval)`` —
    so every event lands in the right window regardless of processing
    order.  Arrival and completion notes — one per request — are only
    appended to :attr:`arrival_notes` / :attr:`completion_notes`; a
    render first folds the buffered notes of the windows it renders into
    them, one pass over the buffers, and keeps the later windows' notes
    buffered.  A window's p50/p95/p99 is the :class:`LogLinearHistogram`
    answer on its completions: the midpoint of the bucket holding the
    nearest-rank latency (bucket keys grow with the value, so that is
    the bucket of the nearest-rank sample itself).

    State-side samples (queue depth, utilisation, cumulative control
    counters) are taken at each window boundary after same-instant events
    settle — the simulator samples lazily when it pops the first event
    past a boundary, which between events reads the identical state a
    dedicated tick would have; windows no sample reached forward-fill the
    last sample, and the final window takes the end-of-run flush.

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
        #: timestamps of the arrivals no render has counted yet
        self.arrival_notes: List[float] = []
        #: ``(ts, latency, model, slo_ok)`` of the completions no render
        #: has counted yet (``slo_ok`` None: no SLO target)
        self.completion_notes: List[
            Tuple[float, float, Optional[str], Optional[bool]]] = []
        self._windows: Dict[int, _TimelineWindow] = {}
        #: boundary samples as (queue_depth, utilisation, control) tuples
        self._samples: Dict[int, Tuple[int, float, Dict[str, object]]] = {}
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
        self._previous_values: Tuple[int, ...] = (0,) * len(CONTROL_COUNTERS)
        self._zero_deltas = dict.fromkeys(CONTROL_COUNTERS, 0)
        #: whether the run carries control-counter columns — constant per
        #: run (the simulator passes the controller snapshot to *every*
        #: boundary sample or to none), decided at the first render
        self._has_control: Optional[bool] = None
        self._empty_slo_block = {model: 0.0 for model in self.slo_models}
        # quiet windows (the drain tail of a long run can have hundreds)
        # share one read-only empty window instead of paying a fresh
        # window each
        self._empty_window = _TimelineWindow()

    # ------------------------------------------------------------------
    def start(self, origin_ns: float) -> None:
        """Anchor window 0 at the first arrival."""
        self.origin_ns = float(origin_ns)

    def _window(self, index: int) -> _TimelineWindow:
        if index < 0:
            index = 0
        window = self._windows.get(index)
        if window is None:
            window = self._windows[index] = _TimelineWindow()
        return window

    def _window_at(self, ts_ns: float) -> _TimelineWindow:
        return self._window(int((ts_ns - self.origin_ns) // self.interval_ns))

    # --- event-side notes (keyed by the event's own timestamp) ---------
    def note_arrival(self, ts_ns: float) -> None:
        self.arrival_notes.append(ts_ns)

    def note_completion(self, ts_ns: float, latency_ns: float,
                        model: Optional[str] = None,
                        slo_ok: Optional[bool] = None) -> None:
        self.completion_notes.append((ts_ns, latency_ns, model, slo_ok))

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
    def _fold_notes(self, stop: float) -> None:
        """Fold the buffered arrival/completion notes of every window below
        ``stop`` into its window; later windows' notes stay buffered."""
        origin_ns = self.origin_ns
        interval_ns = self.interval_ns
        later: List = []
        current = None
        for ts_ns in self.arrival_notes:
            index = int((ts_ns - origin_ns) // interval_ns)
            if index >= stop:
                later.append(ts_ns)
                continue
            # notes arrive in time order: consecutive ones share windows
            if index != current:
                current = index
                window = self._window(index)
            window.arrivals += 1
        self.arrival_notes[:] = later
        later = []
        current = None
        for note in self.completion_notes:
            ts_ns, latency_ns, model, slo_ok = note
            index = int((ts_ns - origin_ns) // interval_ns)
            if index >= stop:
                later.append(note)
                continue
            if index != current:
                current = index
                window = self._window(index)
            window.latencies.append(latency_ns)
            if model is not None and slo_ok is not None:
                running = window.slo.get(model)
                if running is None:
                    running = window.slo[model] = [0, 0]
                running[1] += 1
                if slo_ok:
                    running[0] += 1
        self.completion_notes[:] = later

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
        latencies = window.latencies
        completed = len(latencies)
        # the window-rate guard: zero completions or zero elapsed time
        # renders 0.0, never NaN / ZeroDivisionError
        if completed:
            elapsed_s = max(
                0.0, min(start_ns + interval_ns, span_ns) - start_ns
            ) * 1e-9
            throughput = completed / elapsed_s if elapsed_s > 0 else 0.0
            p50, p95, p99 = _sorted_midpoints(latencies, completed)
            p50 *= 1e-6
            p95 *= 1e-6
            p99 *= 1e-6
        else:
            throughput = 0.0
            p50 = p95 = p99 = 0.0
        attainment = 0.0
        if window.slo:
            attained = measured = 0
            for attained_m, measured_m in window.slo.values():
                attained += attained_m
                measured += measured_m
            if measured:
                attainment = attained / measured
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
                               for key in CONTROL_COUNTERS)
                for key, value, prev in zip(CONTROL_COUNTERS, values,
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
        self._fold_notes(limit)
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
        self._fold_notes(math.inf)
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
class TelemetrySession:
    """Per-run telemetry state: hub + timeline + tracer.

    One session is created per :meth:`ServingSimulator.run` when the
    configured :class:`TelemetryConfig` is active; the simulator calls the
    observer hooks below from its event sites.  Every hook only *reads*
    simulation state — a telemetry-on run replays the telemetry-off event
    order exactly and produces a bit-identical report minus the new
    ``timeline``/``telemetry`` blocks.
    """

    def __init__(self, config: TelemetryConfig,
                 slo_models: Sequence[str] = (),
                 counters: Callable[[], Dict[str, int]] = dict) -> None:
        self.config = config
        #: the hub reads ``counters``, the run's event counts, per snapshot
        self.hub = Telemetry(counters)
        self.timeline = (
            TimelineAccumulator(config.timeline_interval_us * 1e3,
                                slo_models=slo_models)
            if config.timeline_interval_us > 0 else None
        )
        self.tracer = (RequestTracer(config.trace_every)
                       if config.trace_every > 0 else None)
        #: the hub's latency/wait sketches — under streaming percentiles
        #: the terminal report reads its figures from these
        self.latency_hist = self.hub.histogram("latency_ns")
        self.wait_hist = self.hub.histogram("wait_ns")
        #: per-model latency sketches of SLO'd models (streaming only)
        self.slo_hists: Dict[str, LogLinearHistogram] = {}
        # in exact mode the simulator keeps every latency/wait sample for
        # the report anyway, so the hub histograms are batch-folded from
        # those lists at snapshot time (fold order is irrelevant to a
        # histogram) instead of two .add() calls per completion on the
        # hot path; streaming mode keeps no sample lists, so it feeds
        # the histograms live
        self._live_hists = config.streaming_percentiles
        #: tracer sampling stride (0 = tracing off) — hooks check the
        #: modulo inline so untraced requests pay one comparison, not a
        #: method call into the tracer
        self._trace_every = self.tracer.every if self.tracer else 0
        # the timeline's per-request notes are one list append each (the
        # accumulator buckets them when their windows render)
        self._note_arrival = (self.timeline.arrival_notes.append
                              if self.timeline is not None else None)
        self._note_completion = (self.timeline.completion_notes.append
                                 if self.timeline is not None else None)
        #: live-stream sink — the simulator attaches a callable
        #: ``sink(kind, payload)`` when an observatory is watching the
        #: run; completed windows, fault events and hub snapshots are
        #: pushed through it mid-run.  ``None`` (the default) keeps the
        #: pure batch end-of-run path.
        self.sink: Optional[Callable[[str, Dict[str, object]], None]] = None
        #: flush batches streamed so far — hub snapshots ride along every
        #: :data:`_HUB_SNAPSHOT_EVERY`-th batch (see :meth:`flush_stream`)
        self._flush_batches = 0

    # ------------------------------------------------------------------
    def start(self, origin_ns: float) -> None:
        """Anchor the timeline and trace clock at the first arrival."""
        if self.timeline is not None:
            self.timeline.start(origin_ns)
        if self.tracer is not None:
            self.tracer.start(origin_ns)

    # --- observer hooks (called by the simulator's event sites) --------
    def arrival(self, ts_ns: float, request) -> None:
        if request.attempt == 0 and self._note_arrival is not None:
            self._note_arrival(ts_ns)
        if self._trace_every and request.request_id % self._trace_every == 0:
            self.tracer.begin_queue(request.request_id, request.attempt,
                                    ts_ns, request.model)

    def shed(self, ts_ns: float, request) -> None:
        if self.timeline is not None:
            self.timeline.note_shed(ts_ns)
        if self.tracer is not None:
            self.tracer.end_queue(request.request_id, request.attempt,
                                  ts_ns, "shed")

    def retry(self, ts_ns: float, request) -> None:
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
        if self.timeline is not None:
            self.timeline.note_timeout(ts_ns)

    def lost(self, ts_ns: float, request) -> None:
        if self.timeline is not None:
            self.timeline.note_lost(ts_ns)
        if self.tracer is not None:
            self.tracer.instant(request.request_id, ts_ns, "lost", {})

    def fault(self, ts_ns: float, action: str, chip_index: int) -> None:
        if self.timeline is not None:
            self.timeline.note_fault(ts_ns, action)
        if self.sink is not None:
            self.sink("event", {"type": "fault", "ts_ms": ts_ns * 1e-6,
                                "action": action, "chip": chip_index})

    def dispatch(self, ts_ns: float, requests, worker, model: str,
                 batch: int, completion_ns: float, switched: bool,
                 hedge: bool = False) -> None:
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
        if self._live_hists:
            key = _bucket_key(latency_ns)
            self.latency_hist.add(latency_ns, key)
            self.wait_hist.add(wait_ns)
            if slo_ok is not None:
                sketch = self.slo_hists.get(request.model)
                if sketch is None:
                    sketch = LogLinearHistogram()
                    self.slo_hists[request.model] = sketch
                sketch.add(latency_ns, key)
        if self._note_completion is not None:
            self._note_completion((ts_ns, latency_ns, request.model, slo_ok))
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
    def flush_stream(self, end_floor_ns: float) -> None:
        """Render every newly-final window; push them (and a hub snapshot)
        through the sink when one is attached.

        Called by the simulator at boundary-sample time when a sink is
        attached or the run streams its percentiles (whose notes must not
        pile up for the whole run).  ``end_floor_ns`` is the current lower
        bound on the run end (``max(last_completion, last_arrival)``);
        windows the accumulator proves final against that bound are
        rendered now and their notes and counters dropped — the rendered
        rows are the exact objects the end-of-run timeline block will
        contain.  The simulator only calls this every
        :data:`FLUSH_EVERY_BOUNDARIES`-th boundary: the cadence shapes
        *when* batches render and stream, never their content, and
        :meth:`finish` always drains whatever remains.
        """
        timeline = self.timeline
        if timeline is None:
            return
        flushed = timeline.flush_ready(end_floor_ns)
        sink = self.sink
        if not flushed or sink is None:
            return
        for row in flushed:
            sink("window", row)
        # a hub snapshot walks every gauge source and histogram — per
        # flush batch that would cost more than the flush itself on fine
        # windows, so snapshots ride along every K-th batch (the first one
        # immediately, so a watcher sees counters as soon as windows
        # flow; the report's telemetry block supplies the final state)
        if self._flush_batches % _HUB_SNAPSHOT_EVERY == 0:
            sink("hub", self.snapshot())
        self._flush_batches += 1

    def finish(self, end_ns: float, queue_depth: int, utilisation: float,
               control: Optional[Dict[str, object]] = None
               ) -> List[Dict[str, object]]:
        """Flush the final window and render the timeline rows."""
        timeline = self.timeline
        if timeline is None:
            return []
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
        self.latency_hist.extend(latencies)
        self.wait_hist.extend(waits)

    def snapshot(self) -> Dict[str, object]:
        """The hub snapshot plus a config echo: the report's ``telemetry``
        block at the end of the run, and a ``hub`` stream message mid-run.

        Only the simulation thread calls this (the report, and
        :meth:`flush_stream` through the sink); other threads only ever
        see the fresh dict it returns.
        """
        snap = self.hub.snapshot()
        snap["config"] = asdict(self.config)
        return snap
