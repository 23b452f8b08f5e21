"""Compiled-plan cache: the serving layer's interface to the compiler stack.

A serving fleet does not re-run partition search per request — it reuses
compiled partition plans.  The :class:`PlanCache` memoises one
:class:`CompiledPlan` per :class:`PlanKey` ``(model, chip, dram, batch,
mode, optimizer)`` with LRU eviction, and keeps hit/miss/eviction statistics
in the style of :class:`~repro.perf.spantable.SpanTableStats` so serving
reports can show how hard the cache worked.

Plan compilation routes through the shared stack end to end: the
process-wide registry (:func:`~repro.evaluation.registry.shared_decomposition`)
provides the decomposition + validity map, any :mod:`repro.search` engine
(``dp`` by default — exact and deterministic) chooses the partition group,
and the dense span matrix serves the plan's latency/energy numbers.  Because
decompositions are shared process-wide, warming one plan warms the span
triangle for every other plan of the same (model, chip) pair — a cache miss
for batch 16 is almost free after batch 1 was compiled.

A serving run does not query the cache per dispatch: its
:class:`PriceTable` looks each plan up once and answers the run's
repeated pricing from a dict.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.core.fitness import FitnessEvaluator, FitnessMode
from repro.core.ga import GAConfig
from repro.evaluation.registry import shared_decomposition
from repro.hardware.dram import DRAMConfig, LPDDR3_8GB


@dataclass(frozen=True)
class PlanKey:
    """Identity of one compiled plan.

    The hash is computed once, at construction: the generated one would
    re-hash every :class:`DRAMConfig` field on each cache lookup.
    Equality stays the generated field-by-field comparison.
    """

    model: str
    chip: str
    dram: DRAMConfig
    batch: int
    mode: FitnessMode
    optimizer: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(self._fields()))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild through __init__ so a copy re-hashes its fields: string
        # hashes differ between processes
        return (PlanKey, self._fields())

    def _fields(self) -> Tuple[object, ...]:
        return (self.model, self.chip, self.dram, self.batch, self.mode,
                self.optimizer)


def degraded_dram(config: DRAMConfig, factor: float) -> DRAMConfig:
    """A DRAM configuration with every core timing scaled by ``factor``.

    Models a chip whose external DRAM dropped to a slower operating point
    (thermal throttling, a failed rank forcing a conservative profile):
    clock and tRCD/tRP/tRAS/tCAS all stretch by ``factor`` (> 1 is slower).
    Because :class:`DRAMConfig` is frozen and hashable, the degraded
    variant is its own :class:`PlanKey` dimension — re-pricing a model on
    degraded DRAM routes through the full shared-decomposition /
    search / span-matrix stack, exactly like any other cache miss.
    ``factor == 1`` returns the configuration unchanged.
    """
    if factor <= 0:
        raise ValueError(f"DRAM degradation factor must be positive, got {factor}")
    if factor == 1.0:
        return config
    return dataclasses.replace(
        config,
        name=f"{config.name}@x{factor:g}",
        clock_ns=config.clock_ns * factor,
        t_rcd_ns=config.t_rcd_ns * factor,
        t_rp_ns=config.t_rp_ns * factor,
        t_ras_ns=config.t_ras_ns * factor,
        t_cas_ns=config.t_cas_ns * factor,
    )


@dataclass(frozen=True)
class CompiledPlan:
    """One served plan: the chosen partition group plus its serving numbers.

    ``latency_ns`` / ``energy_pj`` are the service latency and energy of one
    batch of ``key.batch`` samples, summed sequentially over the group's
    spans exactly like :class:`~repro.core.fitness.GroupEvaluation` — in
    latency mode ``latency_ns`` is bit-identical to the search engine's
    ``best_fitness``.  The slim component totals carry the span-matrix
    per-batch latency curve ``WR + (FILL + (B-1)*BN)``, so
    :meth:`latency_at` can evaluate what this group would cost at *other*
    batch sizes in O(1) — a what-if curve for capacity analysis.  (The
    dynamic batcher itself compares the cache's per-size compiled plans,
    which re-optimise the partitioning for each batch size.)
    """

    key: PlanKey
    boundaries: Tuple[int, ...]
    num_partitions: int
    latency_ns: float
    energy_pj: float
    weight_replace_ns: float
    fill_ns: float
    bottleneck_ns: float
    best_fitness: float
    exact: bool
    evaluations: int

    # ------------------------------------------------------------------
    def latency_at(self, batch_size: int) -> float:
        """Latency curve of this group at another batch size (ns).

        The affine span-matrix curve: total weight-replacement cost plus the
        pipeline fill and ``batch_size - 1`` bottleneck iterations.
        """
        return self.weight_replace_ns + (
            self.fill_ns + (batch_size - 1) * self.bottleneck_ns
        )

    @property
    def throughput_rps(self) -> float:
        """Peak throughput of one chip running this plan back to back."""
        return self.key.batch / (self.latency_ns * 1e-9) if self.latency_ns else 0.0


@dataclass
class PlanCacheStats:
    """Hit/miss counters of one plan cache (a snapshot, see ``PlanCache.stats``)."""

    #: plans compiled (cache misses)
    misses: int = 0
    #: requests served from the cache
    hits: int = 0
    #: plans evicted by the LRU policy
    evictions: int = 0
    #: plans compiled during :meth:`PlanCache.warmup` prefill
    warmup_compiles: int = 0
    #: plans currently resident
    size: int = 0
    #: maximum resident plans
    capacity: int = 0

    @property
    def requests(self) -> int:
        """Total plan lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of plan lookups served from the cache."""
        requests = self.requests
        return self.hits / requests if requests else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary for reports and serving-report serialization."""
        return {
            "misses": self.misses,
            "hits": self.hits,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "warmup_compiles": self.warmup_compiles,
            "size": self.size,
            "capacity": self.capacity,
        }


class PriceTable:
    """One serving run's plans, each looked up in the plan cache once.

    Dispatch prices the same few plans over and over: every candidate
    chip, at every candidate batch size, on every dispatch attempt.  The
    table keys a plan by ``(model, chip class, DRAM factor, batch)``,
    consults the :class:`PlanCache` on the first request for a key and
    answers every later one from a dict.  Every input that changes a plan
    is in the key, so the table never needs invalidating; the per-chip
    inputs (straggler factor, resident plan) are applied by the caller
    (:func:`~repro.serve.fleet.service_latency_ns`).  Plans the cache's LRU
    evicts stay in the table, so eviction cannot change what a run prices.
    """

    def __init__(self, cache: "PlanCache") -> None:
        self.cache = cache
        self._plans: Dict[Tuple[str, str, float, int], CompiledPlan] = {}

    def plan(self, model: str, chip: str, batch: int,
             dram_factor: float = 1.0) -> CompiledPlan:
        """The plan of ``model`` on a ``chip``-class chip whose DRAM runs
        at ``dram_factor`` times the nominal timings (1.0 = healthy)."""
        key = (model, chip, dram_factor, batch)
        plan = self._plans.get(key)
        if plan is None:
            cache = self.cache
            if dram_factor == 1.0:
                plan = cache.get(model, chip, batch)
            else:
                plan = cache.get(model, chip, batch, dram=degraded_dram(
                    cache.dram_config, dram_factor))
            self._plans[key] = plan
        return plan


class PlanCache:
    """LRU cache of compiled partition plans, keyed by :class:`PlanKey`."""

    def __init__(
        self,
        capacity: int = 64,
        optimizer: str = "dp",
        mode: FitnessMode = FitnessMode.LATENCY,
        dram_config: DRAMConfig = LPDDR3_8GB,
        optimizer_options: Optional[Dict[str, object]] = None,
        ga_config: Optional[GAConfig] = None,
        input_size: int = 224,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        from repro.search import validate_optimizer

        validate_optimizer(optimizer)
        self.capacity = capacity
        self.optimizer = optimizer
        self.mode = mode
        self.dram_config = dram_config
        self.optimizer_options: Dict[str, object] = dict(optimizer_options or {})
        self.ga_config = ga_config if ga_config is not None else GAConfig()
        self.input_size = input_size
        self._plans: "OrderedDict[PlanKey, CompiledPlan]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._warmup_compiles = 0
        self._in_warmup = False

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._plans)

    def key_for(self, model: str, chip: str, batch: int,
                dram: Optional[DRAMConfig] = None) -> PlanKey:
        """The cache key of a (model, chip, batch) plan under this config.

        ``dram`` overrides the cache-wide DRAM configuration — the hook the
        fault layer uses to price a chip's plans on degraded DRAM (see
        :func:`degraded_dram`) without a second cache.
        """
        return PlanKey(model=model, chip=chip,
                       dram=self.dram_config if dram is None else dram,
                       batch=batch, mode=self.mode, optimizer=self.optimizer)

    def contains(self, model: str, chip: str, batch: int,
                 dram: Optional[DRAMConfig] = None) -> bool:
        """Whether a plan is resident (does not touch stats or LRU order)."""
        return self.key_for(model, chip, batch, dram) in self._plans

    @property
    def stats(self) -> PlanCacheStats:
        """Snapshot of the cache's hit/miss/eviction counters."""
        return PlanCacheStats(
            misses=self._misses,
            hits=self._hits,
            evictions=self._evictions,
            warmup_compiles=self._warmup_compiles,
            size=len(self._plans),
            capacity=self.capacity,
        )

    # ------------------------------------------------------------------
    def get(self, model: str, chip: str, batch: int,
            dram: Optional[DRAMConfig] = None) -> CompiledPlan:
        """The compiled plan of a (model, chip, batch) triple (LRU-tracked).

        A hit moves the plan to the most-recently-used position; a miss
        compiles the plan through the shared registry / search / span-matrix
        stack and may evict the least-recently-used resident plan.  ``dram``
        overrides the cache-wide DRAM configuration (degraded-DRAM faults).
        """
        key = self.key_for(model, chip, batch, dram)
        plan = self._plans.get(key)
        if plan is not None:
            self._hits += 1
            self._plans.move_to_end(key)
            return plan
        self._misses += 1
        if self._in_warmup:
            self._warmup_compiles += 1
        plan = self._compile(key)
        self._plans[key] = plan
        while len(self._plans) > self.capacity:
            self._plans.popitem(last=False)
            self._evictions += 1
        return plan

    def warmup(
        self,
        models: Iterable[str],
        chips: Iterable[str],
        batch_sizes: Iterable[int],
    ) -> int:
        """Prefill the cache for a cross product; returns plans compiled.

        Warmup misses are counted separately (``warmup_compiles``) so a
        serving report can distinguish prefill work from misses under load.
        """
        self._in_warmup = True
        before = self._warmup_compiles
        try:
            for model in models:
                for chip in chips:
                    for batch in batch_sizes:
                        self.get(model, chip, batch)
        finally:
            self._in_warmup = False
        return self._warmup_compiles - before

    # ------------------------------------------------------------------
    def _compile(self, key: PlanKey) -> CompiledPlan:
        """Compile one plan: shared decomposition -> search -> span numbers."""
        from repro.search import make_search

        decomposition, validity = shared_decomposition(
            key.model, key.chip, input_size=self.input_size
        )
        evaluator = FitnessEvaluator(
            decomposition, batch_size=key.batch, mode=key.mode,
            dram_config=key.dram,
        )
        kwargs = dict(self.optimizer_options)
        if key.optimizer == "ga":
            kwargs.setdefault("ga_config", self.ga_config)
        result = make_search(
            key.optimizer, decomposition, evaluator, validity, **kwargs
        ).run()
        group = result.best_group
        spans = group.spans()
        starts = np.fromiter((s for s, _ in spans), dtype=np.int64, count=len(spans))
        ends = np.fromiter((e for _, e in spans), dtype=np.int64, count=len(spans))

        matrix = evaluator.span_matrix
        latencies = matrix.gather_latency(starts, ends, key.batch).tolist()
        weight_replace, fill, bottleneck = (
            part.tolist() for part in matrix.gather_components(starts, ends)
        )
        energies = matrix.gather_energy_latency(starts, ends, key.batch)[0].tolist()

        # sequential sums, matching the evaluator's fitness association
        return CompiledPlan(
            key=key,
            boundaries=tuple(group.boundaries),
            num_partitions=group.num_partitions,
            latency_ns=float(sum(latencies)),
            energy_pj=float(sum(energies)),
            weight_replace_ns=float(sum(weight_replace)),
            fill_ns=float(sum(fill)),
            bottleneck_ns=float(sum(bottleneck)),
            best_fitness=result.best_fitness,
            exact=result.exact,
            evaluations=result.evaluations,
        )
