"""Partition score used to select mutation targets (Sec. III-C2).

For a partition ``P = {x_i | a <= i < b}``:

* the partition-unit fitness is ``m(x_i) = f(P) / |P|`` — the partition's
  fitness spread evenly over its units;
* ``F[p, q]`` is the *expected* fitness of the span ``[p, q)``: the
  population mean of ``sum_{i in [p,q)} m(x_i)``;
* the partition score is ``R = f(P) / F[a, b]``.

A score above one means these units perform worse here than they do on
average across the population, so the partition is a good mutation target;
Algorithm 1 sorts partitions ascending by R and mutates the last (worst) one.

The implementations operate on the population's span arrays in one shot:
every partition group tiles ``[0, num_units)``, so the whole population's
unit-fitness profiles are a single ``np.repeat`` of the concatenated
``f / |P|`` values reshaped to ``(population, num_units)``, and the R
scores of many groups are gathers into one prefix-sum of the expectation.
Element values (and hence all downstream sorts) are bit-identical to the
historical per-group loops.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.fitness import GroupEvaluation


def population_unit_expectation(
    evaluations: Sequence[GroupEvaluation], num_units: int
) -> np.ndarray:
    """Population mean of m(x_i) for every unit index (the E[...] of the paper).

    Every group tiles ``[0, num_units)``, so the whole population's
    profiles are one repeat of the concatenated ``f / |P|`` values,
    reshaped to ``(population, num_units)`` — no per-group Python beyond
    collecting each group's span and fitness arrays.
    """
    if not evaluations:
        raise ValueError("population is empty")
    starts = np.concatenate([ev.span_bounds[0] for ev in evaluations])
    ends = np.concatenate([ev.span_bounds[1] for ev in evaluations])
    sizes = ends - starts
    values = np.concatenate([ev.fitness_array for ev in evaluations]) / sizes
    profiles = np.repeat(values, sizes).reshape(len(evaluations), num_units)
    return profiles.mean(axis=0)


def partition_scores(
    evaluation: GroupEvaluation,
    expectation: np.ndarray,
) -> List[float]:
    """Score R of every partition in a group against the population expectation.

    ``expectation`` is the array returned by
    :func:`population_unit_expectation`.  A small epsilon guards against a
    zero expected fitness (cannot happen with physical latencies, but keeps
    the math total).
    """
    prefix = np.concatenate(([0.0], np.cumsum(expectation)))
    starts, ends = evaluation.span_bounds
    expected = prefix[ends] - prefix[starts]
    scores = evaluation.fitness_array / np.maximum(expected, 1e-12)
    return scores.tolist()


def population_partition_scores(
    evaluations: Sequence[GroupEvaluation],
    expectation: np.ndarray,
) -> List[np.ndarray]:
    """R scores of many groups against one expectation, as float64 arrays.

    The expectation prefix sum is built once and every group's scores are a
    pair of gathers — this is what lets the GA score all survivors once per
    generation instead of re-deriving scores per mutation draw.  Values are
    bit-identical to :func:`partition_scores` per group.
    """
    prefix = np.concatenate(([0.0], np.cumsum(expectation)))
    scores: List[np.ndarray] = []
    for evaluation in evaluations:
        starts, ends = evaluation.span_bounds
        expected = prefix[ends] - prefix[starts]
        scores.append(evaluation.fitness_array / np.maximum(expected, 1e-12))
    return scores
