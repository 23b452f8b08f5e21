"""Partition validity map (Sec. III-B1, Fig. 5).

A partition is a span ``[i, j)`` of consecutive partition units.  It is valid
when a single copy of every unit in the span fits on chip simultaneously
(validity condition 3 with replication factor 1; replication only ever *adds*
copies, so a span that fails at one copy can never be made valid).

Randomly choosing span boundaries would mostly produce invalid partitions for
large models on small chips, so the validity map pre-computes, for every
start position ``i``, the largest end position ``max_end(i)`` such that
``[i, max_end(i))`` still fits.  Because unit sizes are positive, validity is
monotone: every ``j <= max_end(i)`` is also valid, which makes sampling a
valid random partition O(1).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.decomposition import ModelDecomposition

#: uniform doubles :meth:`ValidityMap.sample_ends` converts per block read
_SAMPLE_CHUNK = 32


class ValidityMap:
    """Pre-computed valid partition spans for a decomposed model.

    The on-chip constraint is expressed in *crossbars*: a span is valid when
    a single copy of every unit in it fits within the chip's crossbar count.
    (Byte capacity is exactly ``crossbars x 8 KiB``, but counting crossbars
    also accounts for the fragmentation of units that do not fill their last
    crossbar, which is the constraint the mapper actually faces.)
    """

    def __init__(self, decomposition: ModelDecomposition,
                 capacity_crossbars: Optional[int] = None) -> None:
        self.decomposition = decomposition
        self.capacity_crossbars = (
            capacity_crossbars if capacity_crossbars is not None
            else decomposition.chip.total_crossbars
        )
        self._max_end = self._compute_max_end()
        self._num_units = len(self._max_end)
        self._matrix: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def _compute_max_end(self) -> List[int]:
        units = self.decomposition.units
        n = len(units)
        sizes = [u.crossbars for u in units]
        max_end: List[int] = [0] * n
        end = 0
        running = 0
        # two-pointer sweep: O(n)
        for start in range(n):
            if end < start:
                end = start
                running = 0
            while end < n and running + sizes[end] <= self.capacity_crossbars:
                running += sizes[end]
                end += 1
            if end == start:
                raise ValueError(
                    f"partition unit {start} ({units[start].layer_name}) alone exceeds "
                    f"the chip capacity of {self.capacity_crossbars} crossbars"
                )
            max_end[start] = end
            running -= sizes[start]
        return max_end

    # ------------------------------------------------------------------
    @property
    def num_units(self) -> int:
        """Number of partition units (matrix dimension M in Fig. 5)."""
        return self._num_units

    def max_end(self, start: int) -> int:
        """Largest valid end position for a partition starting at ``start``."""
        if not 0 <= start < self._num_units:
            raise IndexError(f"start position {start} out of range [0, {self._num_units})")
        return self._max_end[start]

    def is_valid(self, start: int, end: int) -> bool:
        """Whether the span ``[start, end)`` forms a valid partition."""
        if not 0 <= start < end <= self.num_units:
            return False
        return end <= self._max_end[start]

    def valid_fraction(self) -> float:
        """Fraction of (start < end) position pairs that are valid.

        This is the quantity visualised in Fig. 5: it shrinks as the model
        grows or the chip shrinks.
        """
        n = self.num_units
        total_pairs = n * (n + 1) // 2
        valid_pairs = sum(self._max_end[i] - i for i in range(n))
        return valid_pairs / total_pairs if total_pairs else 0.0

    def as_matrix(self) -> np.ndarray:
        """Boolean matrix ``V[i, j]`` = span ``[i, j+1)`` is valid (Fig. 5).

        Built once and cached: beyond Fig. 5 this is the transition mask of
        every :mod:`repro.search` DP/beam run on the decomposition, which may
        consult it thousands of times.  The returned array is marked
        read-only since all callers share it.
        """
        matrix = self._matrix
        if matrix is None:
            n = self.num_units
            matrix = np.zeros((n, n), dtype=bool)
            for i in range(n):
                matrix[i, i:self._max_end[i]] = True
            matrix.setflags(write=False)
            self._matrix = matrix
        return matrix

    def sample_ends(self, start: int, stop: int, uniform: np.ndarray,
                    draw: int = 0) -> Tuple[List[int], int]:
        """Random valid partition ends covering ``[start, stop)``.

        The one segment-sampling kernel of the repository, shared by
        :meth:`random_partition_boundaries` and the fixed-random mutation
        operator.  Callers draw uniform doubles in one block (one
        ``Generator.random(k)`` call instead of ``k`` ``integers`` calls,
        whose per-call overhead dominates the GA's samplers); segment ``k``
        consumes ``uniform[draw + k]`` and its end is uniform over
        ``[s + 1, max_end(s)]``, clipped to ``stop``.  A block is sized for
        the worst case of one segment per unit, but a draw reads far fewer,
        so the doubles are converted ``_SAMPLE_CHUNK`` at a time as they
        are consumed.  Returns the ends and the next unused draw index.
        """
        max_end = self._max_end
        ends: List[int] = []
        while start < stop:
            chunk = uniform[draw:draw + _SAMPLE_CHUNK].tolist()
            if not chunk:
                raise IndexError(f"uniform block exhausted at draw {draw}")
            for u in chunk:
                size = max_end[start] - start
                offset = int(u * size)
                if offset >= size:  # guard the u -> 1.0 rounding edge
                    offset = size - 1
                draw += 1
                start += 1 + offset
                if start >= stop:
                    ends.append(stop)
                    return ends, draw
                ends.append(start)
        return ends, draw

    def random_partition_boundaries(self, rng: np.random.Generator) -> List[int]:
        """Sample a random valid partitioning of the whole unit string.

        Returns the list of partition end positions (the last one is always
        ``num_units``).  Every partition respects the validity map.
        Randomness is consumed as one block of uniform doubles
        (``rng.random(num_units)``, the worst-case number of segments)
        converted through :meth:`sample_ends`.
        """
        num_units = self._num_units
        return self.sample_ends(0, num_units, rng.random(num_units))[0]
