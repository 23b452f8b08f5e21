"""Dense span-matrix engine: whole-population span scoring in array form.

The :class:`~repro.perf.spantable.SpanTable` removed *recomputation* from
partition-span estimation; the :class:`SpanMatrix` removes per-span Python
from fitness lookups: for a decomposition of L units every contiguous span
``[s, e)`` is one cell of an ``(L+1) × (L+1)`` float64 matrix, so scoring a
whole population — or one group — is a fancy-indexed gather over flat
start/end index arrays followed by elementwise math.  The matrices are the
only store of slim latency and energy records; the table computes them and
keeps none.

Three layers of matrices, all filled lazily and only for spans actually
requested:

* **slim latency components** — ``weight_replace_ns``, ``fill_ns`` and
  ``bottleneck_ns`` per span, filled from the shared span table's exact
  :meth:`~repro.perf.spantable.SpanTable.slim_record` or, for cells an
  energy fill reached first, from the energy record's slim triple (both
  bit-identical to the full profile's fields by construction);
* **per-batch latency** — ``WR + (FILL + (B-1)·BN)`` materialised once per
  batch size and invalidated by a version counter when new spans fill in;
  the elementwise expression matches ``PartitionEstimate.latency_ns``'s
  association (``replace + pipeline``) exactly;
* **per-batch energy** (EDP mode) — the per-sample/per-batch-constant energy
  terms of each span's exact energy record
  (:meth:`~repro.perf.spantable.SpanTable.energy_record`) plus a
  static-power coefficient, combined in the exact field order of
  ``EnergyBreakdown.total_pj``.

**Fills are grouped by span geometry.**  Spans whose
:meth:`~repro.core.decomposition.DecompositionIndex.span_keys` rows are
equal have equal layer slices, owned nodes and I/O, hence equal records;
most of a model's spans are slices of one layer with near-equal units, so
the nine paper pairs' 52,032 valid spans have only 11,191 geometries.  A
fill therefore takes one record per geometry from the table (from the
group's first cell in row-major order) and scatters it to the group's
other cells with one fancy assignment per matrix.

**Delta re-scoring** falls out of the representation: a mutation changes at
most a few cut points, so a child's spans are almost all already-filled
matrix cells — ``ensure_spans`` profiles only the set difference (the few
spans the mutation actually touched) and everything else is a pure gather.
The final per-group fitness *sums* deliberately stay sequential Python sums
over the gathered values: NumPy reductions use pairwise summation, which is
not bit-identical to the naive path's left-to-right ``sum``; the sums are
O(#partitions) and cheap, the per-span math is the hot part.

Fills and gathers are accounted on the shared table's counters
(``matrix_fills`` counts every filled cell, ``matrix_hits`` every gathered
one; gathers, scattered cells and cells an energy fill wrote are folded
into ``latency_hits``), so ``SpanTable.stats`` never silently reads zero
when the dense path is engaged, and ``latencies_computed + latency_hits``
is the cells passed to :meth:`SpanMatrix.ensure_spans`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np
import numpy.ma  # noqa: F401  (np.unique touches np.ma lazily; load at import,
#                  not inside the first timed population gather)

from repro.core.decomposition import ModelDecomposition
from repro.hardware.dram import DRAMConfig, LPDDR3_8GB
from repro.onchip.estimator import EnergyRecord
from repro.perf.spantable import SpanTable, span_table_for

#: per-span energy component matrices, in the exact summation order of
#: ``EnergyBreakdown.total_pj`` (static and dram-background are handled
#: separately because they scale with total latency, not batch size)
_PER_SAMPLE_PARTS = (
    "mvm_pj_per_sample",
    "data_load_pj_per_sample",
    "data_store_pj_per_sample",
    "vfu_pj_per_sample",
    "interconnect_pj_per_sample",
    "local_memory_pj_per_sample",
)
_CONSTANT_PARTS = ("weight_write_pj", "weight_load_pj")
#: column of each energy part in an array of EnergyRecord rows
_RECORD_COLUMN = {name: EnergyRecord._fields.index(name)
                  for name in _PER_SAMPLE_PARTS + _CONSTANT_PARTS}
_CORES_COLUMN = EnergyRecord._fields.index("cores_used")
_TRIPLE_COLUMNS = [EnergyRecord._fields.index(name)
                   for name in ("weight_replace_ns", "fill_ns", "bottleneck_ns")]


class SpanMatrix:
    """Dense O(L²) span matrices over one decomposition's span table.

    Values are bit-identical to the span table's estimates — the matrix
    stores span records as dense float64 cells and lets consumers read
    thousands of spans per call with NumPy gathers.
    """

    def __init__(self, table: SpanTable) -> None:
        self.table = table
        self.decomposition: ModelDecomposition = table.decomposition
        n = self.decomposition.num_units
        self.num_units = n
        shape = (n + 1, n + 1)
        self._have_slim = np.zeros(shape, dtype=bool)
        self._weight_replace = np.zeros(shape)
        self._fill = np.zeros(shape)
        self._bottleneck = np.zeros(shape)
        self._slim_version = 0
        #: batch -> (slim version, dense latency matrix)
        self._latency_cache: Dict[int, Tuple[int, np.ndarray]] = {}
        # energy matrices (EDP mode), allocated on first use
        self._have_energy: Optional[np.ndarray] = None
        self._energy_parts: Optional[Dict[str, np.ndarray]] = None
        self._static_coeff: Optional[np.ndarray] = None
        self._energy_version = 0
        #: batch -> (energy version, slim version, dense total-energy matrix)
        self._energy_cache: Dict[int, Tuple[int, int, np.ndarray]] = {}

    # ------------------------------------------------------------------
    @property
    def num_spans(self) -> int:
        """Number of spans materialised in the dense latency matrices."""
        return int(self._have_slim.sum())

    def _missing_cells(
        self, have: np.ndarray, starts: np.ndarray, ends: np.ndarray
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """The distinct requested cells missing from ``have``, in row-major
        order, as ``(cell_starts, cell_ends)``; ``None`` when none is."""
        missing = ~have[starts, ends]
        if not missing.any():
            return None
        stride = self.num_units + 1
        return np.divmod(np.unique(starts[missing] * stride + ends[missing]), stride)

    def _geometry_records(
        self, fetch: Callable[[int, int], tuple],
        cell_starts: np.ndarray, cell_ends: np.ndarray,
    ) -> Tuple[list, np.ndarray]:
        """One record per span geometry of the cells, and each cell's row.

        Cells of one group share a
        :meth:`~repro.core.decomposition.DecompositionIndex.span_keys` row,
        so every record of theirs is equal: ``fetch`` runs on each group's
        first cell in row-major order, and row ``i`` of the returned array
        is the record of cell ``i``'s group.
        """
        keys = self.decomposition.index.span_keys(cell_starts, cell_ends)
        # one opaque row per key: np.unique then sorts raw bytes, several
        # times faster than its axis=0 field-by-field compare; return_index
        # sorts stably, so each group's first cell is its first in row order
        rows = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
        _, first, group = np.unique(rows, return_index=True, return_inverse=True)
        records = [fetch(s, e) for s, e in
                   zip(cell_starts[first].tolist(), cell_ends[first].tolist())]
        return records, np.array(records)[group]

    # ------------------------------------------------------------------
    # slim (latency) layer
    # ------------------------------------------------------------------
    def _write_slim(self, cell_starts: np.ndarray, cell_ends: np.ndarray,
                    triples: np.ndarray) -> None:
        self._weight_replace[cell_starts, cell_ends] = triples[:, 0]
        self._fill[cell_starts, cell_ends] = triples[:, 1]
        self._bottleneck[cell_starts, cell_ends] = triples[:, 2]

    def ensure_spans(self, starts: np.ndarray, ends: np.ndarray) -> None:
        """Materialise every requested span's slim record in the matrices.

        This is the delta step: only spans missing from the matrix — for GA
        children, the few spans their mutation introduced — are filled, and
        every other lookup is counted as a matrix-served hit.  A missing
        cell whose slim triple an energy fill already wrote is marked filled
        as it is.  The others are profiled once per span geometry (each
        group's first cell takes its record from the table) and the record
        is scattered to the rest of the group.  Every filled cell counts in
        ``matrix_fills``; only the table's profiled records are latency
        misses.
        """
        table = self.table
        fills = 0
        fetched = 0
        cells = self._missing_cells(self._have_slim, starts, ends)
        if cells is not None:
            cell_starts, cell_ends = cells
            fresh_starts, fresh_ends = cell_starts, cell_ends
            if self._have_energy is not None:
                fresh = ~self._have_energy[cell_starts, cell_ends]
                fresh_starts, fresh_ends = cell_starts[fresh], cell_ends[fresh]
            if fresh_starts.size:
                records, values = self._geometry_records(
                    table.slim_record, fresh_starts, fresh_ends)
                self._write_slim(fresh_starts, fresh_ends, values)
                fetched = len(records)
            self._have_slim[cell_starts, cell_ends] = True
            fills = len(cell_starts)
            self._slim_version += 1
            table._matrix_fills += fills
        served = int(starts.size) - fills
        table._matrix_hits += served
        table._latency_hits += served + fills - fetched

    def latency_matrix(self, batch_size: int) -> np.ndarray:
        """Dense total-latency matrix for one batch size (version-cached).

        Cell ``[s, e]`` equals ``SpanTable.estimate(s, e, batch_size).latency_ns``
        for every filled span (same elementwise association); unfilled cells
        are meaningless and must not be gathered.
        """
        entry = self._latency_cache.get(batch_size)
        if entry is not None and entry[0] == self._slim_version:
            return entry[1]
        matrix = self._weight_replace + (
            self._fill + (batch_size - 1) * self._bottleneck
        )
        self._latency_cache[batch_size] = (self._slim_version, matrix)
        return matrix

    def gather_latency(self, starts: np.ndarray, ends: np.ndarray,
                       batch_size: int) -> np.ndarray:
        """Latencies of many spans at once: fill the deltas, then gather."""
        self.ensure_spans(starts, ends)
        return self.latency_matrix(batch_size)[starts, ends]

    def gather_components(
        self, starts: np.ndarray, ends: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(weight_replace, fill, bottleneck) ns of many spans at once.

        The slim components behind the per-batch latency curve
        ``WR + (FILL + (B-1)*BN)`` — the serving layer's plan cache stores
        their per-group totals so ``CompiledPlan.latency_at`` can evaluate a
        group at any batch size without touching the matrices again.
        """
        self.ensure_spans(starts, ends)
        return (
            self._weight_replace[starts, ends],
            self._fill[starts, ends],
            self._bottleneck[starts, ends],
        )

    # ------------------------------------------------------------------
    # energy (EDP) layer
    # ------------------------------------------------------------------
    def _allocate_energy(self) -> None:
        shape = self._have_slim.shape
        self._have_energy = np.zeros(shape, dtype=bool)
        self._energy_parts = {
            name: np.zeros(shape) for name in _PER_SAMPLE_PARTS + _CONSTANT_PARTS
        }
        self._static_coeff = np.zeros(shape)

    def ensure_energy(self, starts: np.ndarray, ends: np.ndarray) -> None:
        """Materialise the energy component matrices for the given spans.

        Energy fills read one energy record per span geometry from the
        shared table — the fields of a cached full profile, else the
        estimator's exact energy-only replay, which builds no plan — and
        scatter it to every missing cell of the geometry.  The record's slim
        latency triple is scattered into the slim matrices as well, so a
        follow-up :meth:`ensure_spans` marks these cells filled without
        profiling them.
        """
        if self._have_energy is None:
            self._allocate_energy()
        cells = self._missing_cells(self._have_energy, starts, ends)
        if cells is None:
            return
        cell_starts, cell_ends = cells
        _, values = self._geometry_records(self.table.energy_record, cell_starts, cell_ends)
        parts = self._energy_parts
        for name in _PER_SAMPLE_PARTS + _CONSTANT_PARTS:
            parts[name][cell_starts, cell_ends] = values[:, _RECORD_COLUMN[name]]
        chip = self.decomposition.chip
        # same first product as PowerModel.static_energy_pj
        active_cores = np.clip(values[:, _CORES_COLUMN], 0, chip.num_cores)
        self._static_coeff[cell_starts, cell_ends] = chip.core.static_power_mw * active_cores
        self._have_energy[cell_starts, cell_ends] = True
        self._write_slim(cell_starts, cell_ends, values[:, _TRIPLE_COLUMNS])
        self._energy_version += 1

    def energy_matrix(self, batch_size: int) -> np.ndarray:
        """Dense total-energy matrix for one batch size (version-cached).

        Replicates ``PartitionEstimator.estimate_from_profile`` +
        ``EnergyBreakdown.total_pj`` term for term, in the exact field order
        and association, so cell ``[s, e]`` is bit-identical to
        ``estimate(s, e, batch_size).energy_pj`` for every filled span.
        """
        entry = self._energy_cache.get(batch_size)
        if entry is not None and entry[0] == self._energy_version and entry[1] == self._slim_version:
            return entry[2]
        parts = self._energy_parts
        batch = batch_size
        total_ns = self.latency_matrix(batch)
        dram_background_mw = self.table.estimator.dram.config.background_power_mw
        # EnergyBreakdown.total_pj sums its fields left to right:
        # mvm, weight_write, weight_load, data_load, data_store, vfu,
        # interconnect, local_memory, static, dram_background
        matrix = (
            parts["mvm_pj_per_sample"] * batch
            + parts["weight_write_pj"]
            + parts["weight_load_pj"]
            + batch * parts["data_load_pj_per_sample"]
            + batch * parts["data_store_pj_per_sample"]
            + parts["vfu_pj_per_sample"] * batch
            + parts["interconnect_pj_per_sample"] * batch
            + parts["local_memory_pj_per_sample"] * batch
            + self._static_coeff * np.maximum(total_ns, 0.0)
            + dram_background_mw * total_ns
        )
        self._energy_cache[batch] = (self._energy_version, self._slim_version, matrix)
        return matrix

    def gather_energy_latency(
        self, starts: np.ndarray, ends: np.ndarray, batch_size: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(energy_pj, latency_ns) of many spans at once, for EDP fitness."""
        self.ensure_energy(starts, ends)
        self.ensure_spans(starts, ends)
        latency = self.latency_matrix(batch_size)[starts, ends]
        energy = self.energy_matrix(batch_size)[starts, ends]
        return energy, latency


def span_matrix_for(
    decomposition: ModelDecomposition,
    dram_config: DRAMConfig = LPDDR3_8GB,
) -> SpanMatrix:
    """The shared :class:`SpanMatrix` of a (decomposition, DRAM config) pair.

    Wraps the same shared table as :func:`~repro.perf.spantable.span_table_for`
    and is attached to the decomposition alongside it, so matrix fills, slim
    records and full profiles all amortise against every consumer of the
    decomposition.
    """
    matrices: Dict[DRAMConfig, SpanMatrix] = decomposition.__dict__.setdefault(
        "_span_matrices", {}
    )
    matrix = matrices.get(dram_config)
    if matrix is None:
        matrix = SpanMatrix(span_table_for(decomposition, dram_config))
        matrices[dram_config] = matrix
    return matrix
