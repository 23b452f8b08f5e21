"""The benchmark's own arithmetic: means, attainment, span self time, spreads.

Pure functions over plain numbers and arrays, kept apart from the
workloads so ``test_arith.py`` can pin them without running the program.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Sequence

import numpy as np


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (the mean used for ratios)."""
    values = list(values)
    if not values:
        raise ValueError("geometric mean of no values")
    if any(v <= 0 or not math.isfinite(v) for v in values):
        raise ValueError(f"geometric mean needs finite positive values, got {values}")
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def attainment(attained: int, offered: int) -> float:
    """SLO attainment over *offered* requests.

    A request that was shed, timed out or lost never completed, so it
    counts as a miss: the denominator is everything offered, not only
    what completed.
    """
    if offered <= 0:
        raise ValueError("attainment needs at least one offered request")
    if not 0 <= attained <= offered:
        raise ValueError(f"attained {attained} outside [0, {offered}]")
    return attained / offered


def self_times(names: Sequence[int], starts: Sequence[int], ends: Sequence[int],
               parents: Sequence[int], num_layers: int):
    """Per-layer (calls, self time) of a span tree.

    Span ``i`` belongs to layer ``names[i]`` and lasts ``ends[i] -
    starts[i]``; ``parents[i]`` is the index of the enclosing span or -1.
    A span's self time is its duration minus the durations of its direct
    children, so each instant is charged to exactly one layer: the
    innermost span open at that instant.  Returns two arrays of length
    ``num_layers``: call counts and summed self time (in the unit of the
    inputs).
    """
    names = np.asarray(names, dtype=np.int64)
    duration = np.asarray(ends, dtype=np.float64) - np.asarray(starts, dtype=np.float64)
    parents = np.asarray(parents, dtype=np.int64)
    child = np.zeros(len(duration))
    nested = parents >= 0
    np.add.at(child, parents[nested], duration[nested])
    own = duration - child
    calls = np.bincount(names, minlength=num_layers)
    self_time = np.bincount(names, weights=own, minlength=num_layers)
    return calls, self_time


def overhead_pct(untraced_rate: float, traced_rate: float) -> float:
    """Tracing overhead: how much slower the traced run served ops, in %.

    Rates are ops per CPU-second; ``untraced / traced - 1`` is the extra
    CPU each op cost under tracing.
    """
    if untraced_rate <= 0 or traced_rate <= 0:
        raise ValueError("rates must be positive")
    return 100.0 * (untraced_rate / traced_rate - 1.0)


def nominal_cpu(cpu: float, probe_cpu: float, probe_times: Sequence[float],
                nominal: float) -> float:
    """CPU seconds a unit would have taken on the host at nominal speed.

    ``cpu`` is the unit's measured CPU time, ``probe_cpu`` the part of it
    spent in probe kernels, and ``probe_times`` the CPU time of each probe
    run around and inside it (``nominal`` on an uncontended host).  Probes
    are spread evenly over the unit, so the mean of ``nominal / t`` is the
    share of the unit's CPU time the work would have needed at full speed.
    """
    if not probe_times or min(probe_times) <= 0:
        raise ValueError(f"need positive probe times, got {list(probe_times)}")
    speed = math.fsum(nominal / t for t in probe_times) / len(probe_times)
    return (cpu - probe_cpu) * speed


def ratio(useful: float, attempted: float) -> float:
    """Useful outcomes per attempt (0 when nothing was attempted)."""
    return useful / attempted if attempted else 0.0


def relative_iqr(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median.

    Quartiles as ``statistics.quantiles(values, n=4)`` gives them (its
    default exclusive method), which is how the benchmark's steadiness is
    judged across runs.
    """
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def all_finite(metrics: Dict[str, float]) -> List[str]:
    """Names of metrics whose value is not a finite number."""
    return [name for name, value in metrics.items()
            if not isinstance(value, (int, float)) or not math.isfinite(value)]
