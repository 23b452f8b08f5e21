"""Span-table evaluation engine: memoised partition-span estimation.

For a model decomposed into L partition units there are only O(L²)
contiguous spans, and the COMPASS genetic algorithm re-visits the same spans
thousands of times — across generations, across chromosomes, across batch
sizes and across the baseline partitioners.  The :class:`SpanTable` exploits
this twice:

* each span's batch-independent :class:`~repro.onchip.estimator.SpanProfile`
  (partition plan, global-memory I/O, per-sample pipeline stages and energy
  terms) is computed exactly once per (model, chip, DRAM config);
* each concrete (span, batch) :class:`~repro.onchip.estimator.PartitionEstimate`
  is O(1) arithmetic over the profile and is itself memoised.

The table also computes the records that fill the dense
:class:`~repro.perf.spanmatrix.SpanMatrix` (:meth:`SpanTable.slim_record`,
:meth:`SpanTable.energy_record`) but keeps none of them: the matrix cells
are their only store, and every fitness lookup is a matrix gather.

Every layer keeps hit/miss statistics so benchmarks can assert the engine
is actually engaged.  Tables are shared through :func:`span_table_for`,
which attaches them to the decomposition; every consumer — the fitness
evaluator, the execution simulator, the compiler and the baselines —
therefore reads from the same cache.  The table is filled lazily, span by
span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.decomposition import ModelDecomposition
from repro.core.partition import Partition, PartitionGroup
from repro.hardware.dram import DRAMConfig, LPDDR3_8GB
from repro.onchip.estimator import (
    EnergyRecord, PartitionEstimate, PartitionEstimator, SpanProfile,
)
from repro.onchip.plan import PartitionPlan


@dataclass
class SpanTableStats:
    """Hit/miss counters of one span table (a snapshot, see ``SpanTable.stats``)."""

    #: spans whose batch-independent profile was computed (unique spans seen)
    profiles_computed: int = 0
    #: profile requests served from the table
    profile_hits: int = 0
    #: (span, batch) estimates finalised from a profile
    estimates_computed: int = 0
    #: (span, batch) estimate requests served from the table
    estimate_hits: int = 0
    #: slim latency records computed by ``slim_profile`` for a dense fill
    latencies_computed: int = 0
    #: span cells requested from the dense span matrix that computed no
    #: slim record: gathers of filled cells (``matrix_hits``), cells that
    #: share a profiled cell's geometry, cells an energy fill already wrote
    #: and triples read from cached full profiles; ``latencies_computed +
    #: latency_hits`` is every cell passed to ``SpanMatrix.ensure_spans``
    latency_hits: int = 0
    #: cells materialised into the dense latency matrices (first requests)
    matrix_fills: int = 0
    #: cell requests served by a gather of a filled cell (sub-count of latency_hits)
    matrix_hits: int = 0
    #: spans whose energy record was computed for a dense energy fill (spans
    #: with a cached full profile reuse its fields and are not counted)
    energy_records_computed: int = 0

    # ------------------------------------------------------------------
    @property
    def profile_requests(self) -> int:
        """Total profile lookups (hits + misses)."""
        return self.profiles_computed + self.profile_hits

    @property
    def estimate_requests(self) -> int:
        """Total estimate lookups (hits + misses)."""
        return self.estimates_computed + self.estimate_hits

    @property
    def latency_requests(self) -> int:
        """Total span-latency lookups (hits + misses)."""
        return self.latencies_computed + self.latency_hits

    @property
    def profile_hit_rate(self) -> float:
        """Fraction of profile lookups served from the table."""
        requests = self.profile_requests
        return self.profile_hits / requests if requests else 0.0

    @property
    def estimate_hit_rate(self) -> float:
        """Fraction of estimate lookups served from the table."""
        requests = self.estimate_requests
        return self.estimate_hits / requests if requests else 0.0

    @property
    def latency_hit_rate(self) -> float:
        """Fraction of span-latency lookups that computed no slim record."""
        requests = self.latency_requests
        return self.latency_hits / requests if requests else 0.0

    @property
    def matrix_requests(self) -> int:
        """Total dense-matrix span lookups (fills + gather-served)."""
        return self.matrix_fills + self.matrix_hits

    @property
    def matrix_hit_rate(self) -> float:
        """Fraction of dense-matrix lookups served without a fill."""
        requests = self.matrix_requests
        return self.matrix_hits / requests if requests else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary for reports and benchmark assertions."""
        return {
            "profiles_computed": self.profiles_computed,
            "profile_hits": self.profile_hits,
            "profile_hit_rate": self.profile_hit_rate,
            "estimates_computed": self.estimates_computed,
            "estimate_hits": self.estimate_hits,
            "estimate_hit_rate": self.estimate_hit_rate,
            "latencies_computed": self.latencies_computed,
            "latency_hits": self.latency_hits,
            "latency_hit_rate": self.latency_hit_rate,
            "matrix_fills": self.matrix_fills,
            "matrix_hits": self.matrix_hits,
            "matrix_hit_rate": self.matrix_hit_rate,
            "energy_records_computed": self.energy_records_computed,
        }


def stats_delta(current: Dict[str, float], baseline: Dict[str, float]) -> Dict[str, float]:
    """One consumer's share of a shared table's (cumulative) statistics.

    The span table is shared per decomposition, so its counters accumulate
    across every consumer in the process; a single run's contribution is the
    difference between a snapshot taken before the run (``baseline``) and the
    counters afterwards (``current``).  Rates are recomputed over the delta —
    differencing the cumulative rates would be meaningless.  Used by the GA
    and every :mod:`repro.search` engine to report per-run span statistics.
    """
    if not current:
        return {}
    delta = {
        key: value - baseline.get(key, 0)
        for key, value in current.items()
        if not key.endswith("_rate")
    }
    for kind, computed_key in (
        ("profile", "profiles_computed"),
        ("estimate", "estimates_computed"),
        ("latency", "latencies_computed"),
        ("matrix", "matrix_fills"),
    ):
        computed = delta.get(computed_key, 0)
        hits = delta.get(f"{kind}_hits", 0)
        requests = computed + hits
        delta[f"{kind}_hit_rate"] = hits / requests if requests else 0.0
    return delta


class SpanTable:
    """Memoised span → (profile, estimate) table for one decomposition.

    Produces values bit-identical to calling
    :meth:`~repro.onchip.estimator.PartitionEstimator.estimate` directly —
    the table only removes repeated work, never changes arithmetic.
    """

    def __init__(
        self,
        decomposition: ModelDecomposition,
        dram_config: DRAMConfig = LPDDR3_8GB,
    ) -> None:
        self.decomposition = decomposition
        self.dram_config = dram_config
        self.estimator = PartitionEstimator(decomposition.chip, dram_config, batch_size=1)
        self._profiles: Dict[Tuple[int, int], SpanProfile] = {}
        self._estimates: Dict[Tuple[int, int, int], PartitionEstimate] = {}
        # hit/miss counters (plain ints: incremented on the hottest paths);
        # the matrix counters are bumped by the dense SpanMatrix layer so a
        # matrix-served GA run never reports zero span-table activity
        self._profile_hits = 0
        self._profile_misses = 0
        self._estimate_hits = 0
        self._estimate_misses = 0
        self._latency_hits = 0
        self._latency_misses = 0
        self._matrix_fills = 0
        self._matrix_hits = 0
        self._energy_records = 0

    # ------------------------------------------------------------------
    @property
    def stats(self) -> SpanTableStats:
        """Snapshot of the table's hit/miss counters."""
        return SpanTableStats(
            profiles_computed=self._profile_misses,
            profile_hits=self._profile_hits,
            estimates_computed=self._estimate_misses,
            estimate_hits=self._estimate_hits,
            latencies_computed=self._latency_misses,
            latency_hits=self._latency_hits,
            matrix_fills=self._matrix_fills,
            matrix_hits=self._matrix_hits,
            energy_records_computed=self._energy_records,
        )

    @property
    def num_estimates(self) -> int:
        """Number of distinct (span, batch) estimates materialised so far."""
        return len(self._estimates)

    # ------------------------------------------------------------------
    def _compute_profile(self, start: int, end: int) -> SpanProfile:
        partition = Partition(self.decomposition, start, end)
        return self.estimator.profile(partition)

    def profile(self, start: int, end: int) -> SpanProfile:
        """Batch-independent profile of the span ``[start, end)`` (cached)."""
        key = (start, end)
        profile = self._profiles.get(key)
        if profile is None:
            profile = self._compute_profile(start, end)
            self._profiles[key] = profile
            self._profile_misses += 1
        else:
            self._profile_hits += 1
        return profile

    def plan(self, start: int, end: int) -> PartitionPlan:
        """On-chip plan of the span ``[start, end)`` (cached via the profile)."""
        return self.profile(start, end).plan

    def estimate(self, start: int, end: int, batch_size: int) -> PartitionEstimate:
        """Latency/energy estimate of ``[start, end)`` for a batch (cached)."""
        key = (start, end, batch_size)
        estimate = self._estimates.get(key)
        if estimate is None:
            profile = self.profile(start, end)
            estimate = self.estimator.estimate_from_profile(profile, batch_size)
            self._estimates[key] = estimate
            self._estimate_misses += 1
        else:
            self._estimate_hits += 1
        return estimate

    def slim_record(self, start: int, end: int) -> Tuple[float, float, float]:
        """Slim latency record ``(weight_replace_ns, fill_ns, bottleneck_ns)``.

        The latency fill primitive of the dense
        :class:`~repro.perf.spanmatrix.SpanMatrix`, which is the only store
        of slim records: the table keeps none.  A cached full profile
        supplies the triple (a latency hit); otherwise the estimator's
        latency-only replay
        (:meth:`~repro.onchip.estimator.PartitionEstimator.slim_profile`)
        computes it (a latency miss) and builds no plan, I/O analysis or
        energy breakdown.
        """
        profile = self._profiles.get((start, end))
        if profile is not None:
            self._latency_hits += 1
            return profile.weight_replace_ns, profile.fill_ns, profile.bottleneck_ns
        self._latency_misses += 1
        return self.estimator.slim_profile(Partition(self.decomposition, start, end))

    def energy_record(self, start: int, end: int) -> EnergyRecord:
        """Energy terms, ``cores_used`` and slim triple of ``[start, end)``.

        The fill primitive of the dense energy matrices.  A cached full
        profile supplies the fields; otherwise the estimator's energy-only
        replay (:meth:`~repro.onchip.estimator.PartitionEstimator.energy_record`)
        computes them and nothing is retained.
        """
        profile = self._profiles.get((start, end))
        if profile is not None:
            return EnergyRecord._make(getattr(profile, name) for name in EnergyRecord._fields)
        self._energy_records += 1
        return self.estimator.energy_record(Partition(self.decomposition, start, end))

    def estimate_group(self, group: PartitionGroup,
                       batch_size: int) -> List[PartitionEstimate]:
        """Estimates of every partition of a group, in order."""
        return [self.estimate(s, e, batch_size) for s, e in group.spans()]


def span_table_for(
    decomposition: ModelDecomposition,
    dram_config: DRAMConfig = LPDDR3_8GB,
) -> SpanTable:
    """The shared :class:`SpanTable` of a (decomposition, DRAM config) pair.

    The table is attached to the decomposition object, so its lifetime —
    and the lifetime of everything it caches — is exactly the lifetime of
    the decomposition.  All consumers holding the same decomposition (GA
    fitness evaluator, baselines, simulator, compiler, sweep runner) share
    one table and therefore one set of span profiles.
    """
    tables: Dict[DRAMConfig, SpanTable] = decomposition.__dict__.setdefault(
        "_span_tables", {}
    )
    table = tables.get(dram_config)
    if table is None:
        table = SpanTable(decomposition, dram_config)
        tables[dram_config] = table
    return table
