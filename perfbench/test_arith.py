"""Unit tests of the benchmark's own arithmetic (``arith.py``)."""

import math
import statistics

import pytest

from arith import (all_finite, attainment, geomean, nominal_cpu, overhead_pct, ratio,
                   relative_iqr, self_times)


def test_geomean_of_ratios():
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert geomean([1.5]) == pytest.approx(1.5)
    # a ratio and its inverse cancel, which an arithmetic mean would not do
    assert geomean([0.5, 2.0]) == pytest.approx(1.0)


@pytest.mark.parametrize("values", [[], [1.0, 0.0], [1.0, -2.0], [1.0, math.inf]])
def test_geomean_rejects_non_positive_or_empty(values):
    with pytest.raises(ValueError):
        geomean(values)


def test_attainment_counts_failures_as_misses():
    # 90 of 100 offered requests met the target; 5 more completed late and
    # 5 were shed, timed out or lost: the failures are misses, not ignored
    assert attainment(90, 100) == pytest.approx(0.90)
    assert attainment(90, 95) != attainment(90, 100)
    with pytest.raises(ValueError):
        attainment(101, 100)
    with pytest.raises(ValueError):
        attainment(0, 0)


def test_self_time_of_nested_spans():
    # layer 0 spans [0, 100); inside it layer 1 spans [10, 40) and
    # [50, 60); inside the first layer-1 span layer 2 spans [20, 25)
    names = [0, 1, 2, 1]
    starts = [0, 10, 20, 50]
    ends = [100, 40, 25, 60]
    parents = [-1, 0, 1, 0]
    calls, own = self_times(names, starts, ends, parents, num_layers=4)
    assert calls.tolist() == [1, 2, 1, 0]
    assert own.tolist() == [60.0, 35.0, 5.0, 0.0]
    # every instant is charged to exactly one layer
    assert own.sum() == 100.0


def test_self_time_of_recursive_layer():
    # a layer nested in itself is not double-counted
    calls, own = self_times([0, 0], [0, 2], [10, 6], [-1, 0], num_layers=1)
    assert calls.tolist() == [2]
    assert own.tolist() == [10.0]


def test_overhead_pct():
    # untraced 100 ops/s, traced 80 ops/s: each op costs 25% more CPU
    assert overhead_pct(100.0, 80.0) == pytest.approx(25.0)
    assert overhead_pct(100.0, 100.0) == 0.0
    with pytest.raises(ValueError):
        overhead_pct(100.0, 0.0)


def test_nominal_cpu_undoes_a_host_slowdown():
    # 1.2 s measured, 0.2 s of it in probes; the host ran the probe twice
    # as slow as nominal throughout: the work needs 0.5 s at full speed
    assert nominal_cpu(1.2, 0.2, [2e-3, 2e-3, 2e-3], nominal=1e-3) == pytest.approx(0.5)
    # at nominal speed only the probes' own time comes off
    assert nominal_cpu(1.0, 0.1, [1e-3, 1e-3], nominal=1e-3) == pytest.approx(0.9)
    # a slow half and a full-speed half: each half counts for its length
    assert nominal_cpu(1.0, 0.0, [2e-3, 1e-3], nominal=1e-3) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        nominal_cpu(1.0, 0.0, [], nominal=1e-3)


def test_ratio_and_finite_checks():
    assert ratio(3, 4) == 0.75
    assert ratio(3, 0) == 0.0
    assert all_finite({"a": 1.0, "b": math.nan, "c": math.inf, "d": 2}) == ["b", "c"]


def test_relative_iqr_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 10.4, 9.9]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert relative_iqr(values) == pytest.approx((q3 - q1) / median)
