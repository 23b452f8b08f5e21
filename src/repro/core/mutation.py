"""Mutation operators of the COMPASS genetic algorithm (Sec. III-C3).

Four schemes operate on a partition group's boundary list:

* **Merge** joins the worst-performing pair of neighbouring partitions into
  one (removing small, inefficient partitions).
* **Split** cuts a selected partition into two at a random internal position
  (breaking up ill-performing partitions with too many layers and low
  replication).
* **Move** shifts one partition unit across the boundary between a partition
  and its neighbour (fine-grained boundary search).
* **FixedRandom** keeps the best-scoring partition fixed and randomly
  regenerates everything before and after it (global exploration to escape
  local optima).

All operators return a *new* boundary tuple and never produce a partition
that violates the validity map; if an operator cannot apply (e.g. a merge
would overflow the chip), it returns ``None`` and the caller picks another
scheme.

Precondition: the parent group is valid (every span within the validity
map), as every group the GA and :mod:`repro.search.anneal` hold is.
``max_end`` is non-decreasing, so every sub-span of a valid span is valid,
and an operator only checks the spans it changed: merge its merged span,
move its two shifted spans and split its two new sub-spans.  Fixed-random
is valid by construction (its regenerated spans come from the validity
map's sampler and the fixed span is the parent's).
"""

from __future__ import annotations

import enum
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.partition import PartitionGroup
from repro.core.validity import ValidityMap


class MutationKind(enum.Enum):
    """The four mutation schemes of the COMPASS algorithm."""

    MERGE = "merge"
    SPLIT = "split"
    MOVE = "move"
    FIXED_RANDOM = "fixed_random"


def mutate_merge(
    boundaries: Sequence[int],
    validity: ValidityMap,
    pair_index: int,
) -> Optional[Tuple[int, ...]]:
    """Merge partitions ``pair_index`` and ``pair_index + 1``.

    Returns ``None`` if there is no such pair or the merged span is invalid.
    """
    if not 0 <= pair_index < len(boundaries) - 1:
        return None
    start = boundaries[pair_index - 1] if pair_index else 0
    if not validity.is_valid(start, boundaries[pair_index + 1]):
        return None
    bounds = tuple(boundaries)
    return bounds[:pair_index] + bounds[pair_index + 1:]


def mutate_split(
    boundaries: Sequence[int],
    validity: ValidityMap,
    partition_index: int,
    rng: np.random.Generator,
) -> Optional[Tuple[int, ...]]:
    """Split the selected partition at a random internal position."""
    if not 0 <= partition_index < len(boundaries):
        return None
    start = boundaries[partition_index - 1] if partition_index else 0
    end = boundaries[partition_index]
    if end - start < 2:
        return None  # single-unit partitions cannot be split
    cut = int(rng.integers(start + 1, end))
    if not (validity.is_valid(start, cut) and validity.is_valid(cut, end)):
        return None
    bounds = tuple(boundaries)
    return bounds[:partition_index] + (cut,) + bounds[partition_index:]


def mutate_move(
    boundaries: Sequence[int],
    validity: ValidityMap,
    pair_index: int,
    rng: np.random.Generator,
) -> Optional[Tuple[int, ...]]:
    """Move one unit across the boundary between partitions ``pair_index`` and +1."""
    if not 0 <= pair_index < len(boundaries) - 1:
        return None
    boundary = boundaries[pair_index]
    left_start = boundaries[pair_index - 1] if pair_index else 0
    right_end = boundaries[pair_index + 1]
    directions = (1, -1) if rng.random() < 0.5 else (-1, 1)
    for direction in directions:
        candidate = boundary + direction
        if candidate <= left_start or candidate >= right_end:
            continue
        if validity.is_valid(left_start, candidate) and validity.is_valid(candidate, right_end):
            bounds = list(boundaries)
            bounds[pair_index] = candidate
            return tuple(bounds)
    return None


def mutate_fixed_random(
    boundaries: Sequence[int],
    validity: ValidityMap,
    fixed_partition_index: int,
    rng: np.random.Generator,
) -> Optional[Tuple[int, ...]]:
    """Keep the best partition fixed; randomly regenerate all others.

    Randomness is consumed as one block of uniform doubles (worst case: one
    per regenerated unit) instead of one generator call per segment — this
    operator dominates the GA's random-number overhead otherwise.  Each
    segment end remains uniform over its valid range.
    """
    if not 0 <= fixed_partition_index < len(boundaries):
        return None
    fixed_start = boundaries[fixed_partition_index - 1] if fixed_partition_index else 0
    fixed_end = boundaries[fixed_partition_index]

    num_units = validity.num_units
    limit = fixed_start + (num_units - fixed_end)
    uniform = rng.random(limit) if limit > 0 else np.empty(0)
    # random prefix covering [0, fixed_start), the fixed partition, then a
    # random suffix covering [fixed_end, num_units)
    prefix, draw = validity.sample_ends(0, fixed_start, uniform)
    suffix, _ = validity.sample_ends(fixed_end, num_units, uniform, draw)
    return tuple(prefix + [fixed_end] + suffix)


class MutationTargets(NamedTuple):
    """Mutation target orders of one group, derived once from its R scores."""

    #: neighbouring-pair indices, worst (highest summed score) first
    pairs: List[int]
    #: partition indices, worst (highest score) first
    partitions: List[int]
    #: the best (lowest-scoring) partition, the one fixed-random keeps
    best: int


def mutation_targets(partition_scores: Sequence[float]) -> MutationTargets:
    """The merge/move, split and fixed-random targets of a group's R scores.

    Array methods, not the ``np.argsort`` wrappers: this runs once per
    survivor and generation, where the wrapper overhead is the cost.
    """
    scores = np.asarray(partition_scores, dtype=float)  # no copy for float64 arrays
    return MutationTargets(
        (scores[:-1] + scores[1:]).argsort()[::-1].tolist(),
        scores.argsort()[::-1].tolist(),
        int(scores.argmin()),
    )


def apply_mutation(
    kind: MutationKind,
    group: PartitionGroup,
    validity: ValidityMap,
    partition_scores: Union[Sequence[float], MutationTargets],
    rng: np.random.Generator,
) -> Optional[Tuple[int, ...]]:
    """Apply one mutation scheme to a group, guided by partition scores.

    ``partition_scores`` are the per-partition R values (higher = worse) as
    any sequence, or the :class:`MutationTargets` derived from them (the GA
    derives them once per survivor and generation, not once per draw).
    Merge targets the worst-scoring *pair*; split/move target the worst
    partition; fixed-random keeps the *best* partition.
    """
    targets = (partition_scores if isinstance(partition_scores, MutationTargets)
               else mutation_targets(partition_scores))
    bounds = group.boundaries
    if len(targets.partitions) != len(bounds):
        raise ValueError("partition_scores length must match the number of partitions")

    if kind is MutationKind.MERGE:
        for pair_index in targets.pairs:
            result = mutate_merge(bounds, validity, pair_index)
            if result is not None:
                return result
        return None

    if kind is MutationKind.SPLIT:
        for partition_index in targets.partitions:
            result = mutate_split(bounds, validity, partition_index, rng)
            if result is not None:
                return result
        return None

    if kind is MutationKind.MOVE:
        for pair_index in targets.pairs:
            result = mutate_move(bounds, validity, pair_index, rng)
            if result is not None:
                return result
        return None

    if kind is MutationKind.FIXED_RANDOM:
        return mutate_fixed_random(bounds, validity, targets.best, rng)

    raise ValueError(f"unknown mutation kind {kind!r}")
