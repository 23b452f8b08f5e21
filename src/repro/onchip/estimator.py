"""Latency and energy estimation of one partition's execution.

Model (Sec. II of the paper):

* Weight-replace phase: a single copy of the partition's weights is streamed
  from DRAM and broadcast-written into the crossbars of all replicas.  DRAM
  streaming and crossbar programming overlap, so the phase takes the maximum
  of the two.
* Weight-reuse (compute) phase: the partition's layers execute as a pipeline
  over the batch.  Each layer-slice stage needs
  ``ceil(windows / replication) x ceil(tile_ops / crossbars) x t_mvm`` of
  matrix-unit time per sample plus VFU time for its attached layers; entry
  loads and exit stores form extra pipeline stages bound by DRAM bandwidth.
  Pipeline latency for a batch of B samples is ``fill + (B-1) x bottleneck``.

The estimator returns both a per-phase latency breakdown (used for Fig. 7)
and a full :class:`~repro.hardware.power.EnergyBreakdown` (Figs. 8 and 9).

Estimation is split in two stages so the span-table engine
(:mod:`repro.perf`) can amortise work across batch sizes:

* :meth:`PartitionEstimator.profile` walks the partition once and produces a
  :class:`SpanProfile` — every batch-independent quantity (plan, I/O, the
  per-sample pipeline stage latencies and per-sample energy terms).
* :meth:`PartitionEstimator.estimate_from_profile` turns a profile into a
  :class:`PartitionEstimate` for a concrete batch size with O(1) arithmetic.
* :meth:`PartitionEstimator.slim_profile` and
  :meth:`PartitionEstimator.energy_record` are exact replays of ``profile``
  that return only the latency triple, or the energy terms, that the dense
  span matrices fill from, without building plan objects.

``estimate()`` composes the two, so the single-call path is unchanged and
the split is bit-identical to the historical monolithic implementation.

All three profilers read the span's
:class:`~repro.core.decomposition.SpanTemplate`, built once per layer
range: its whole-layer slices, each layer's inter-core time, input bytes
and attached-layer elements, and its I/O bytes with the terms that scale
with an edge layer's fraction.  Per span only the partial edge slices, the
I/O fraction terms, the memoised allocation and the stage arithmetic that
depends on the replication factors are computed; no graph is walked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.core.decomposition import LayerSlice, SpanTemplate
from repro.core.partition import Partition, PartitionIO
from repro.hardware.chip import ChipConfig
from repro.hardware.dram import DRAMConfig, DRAMModel, LPDDR3_8GB
from repro.hardware.power import EnergyBreakdown, PowerModel
from repro.mapping.core_mapping import max_core_crossbars_only
from repro.mapping.replication import replication_factor_list
from repro.onchip.plan import PartitionPlan, build_partition_plan, layer_slices


@dataclass(slots=True)
class PhaseLatency:
    """Latency of each execution phase of one partition, in nanoseconds."""

    weight_load_ns: float = 0.0
    weight_write_ns: float = 0.0
    weight_replace_ns: float = 0.0
    input_load_ns: float = 0.0
    compute_ns: float = 0.0
    output_store_ns: float = 0.0
    pipeline_ns: float = 0.0

    @property
    def total_ns(self) -> float:
        """End-to-end latency of the partition: weight replace + pipeline."""
        return self.weight_replace_ns + self.pipeline_ns


@dataclass(slots=True)
class SpanProfile:
    """Batch-independent performance profile of one partition span.

    Everything here depends only on (partition, chip, DRAM config): the
    on-chip plan, the global-memory I/O, the per-sample pipeline stage
    latencies, the weight-replace phase, and the per-sample/per-batch-constant
    energy terms.  A :class:`PartitionEstimate` for any batch size is pure
    O(1) arithmetic over this profile.
    """

    plan: PartitionPlan
    io: PartitionIO
    #: per-sample service time of every pipeline stage, keyed by stage name
    stage_latency_ns: Dict[str, float]
    #: sum of all per-sample stage latencies (pipeline fill time)
    fill_ns: float
    #: slowest per-sample stage (pipeline bottleneck)
    bottleneck_ns: float
    #: per-sample entry-load and exit-store stage latencies
    load_ns: float
    store_ns: float
    #: weight-replace phase (batch independent)
    weight_load_ns: float
    weight_write_ns: float
    weight_replace_ns: float
    #: active cores (for static energy)
    cores_used: int
    #: batch-independent energies
    weight_write_pj: float
    weight_load_pj: float
    #: per-sample energies (multiplied by the batch size)
    mvm_pj_per_sample: float
    vfu_pj_per_sample: float
    local_memory_pj_per_sample: float
    interconnect_pj_per_sample: float
    data_load_pj_per_sample: float
    data_store_pj_per_sample: float

    @property
    def partition(self) -> Partition:
        """The partition this profile describes."""
        return self.plan.partition


class EnergyRecord(NamedTuple):
    """What a dense energy-matrix fill reads from one span.

    The eight energy terms and ``cores_used`` of :class:`SpanProfile`, plus
    its slim latency triple; field names match the profile's, so a cached
    profile converts field by field.
    """

    mvm_pj_per_sample: float
    data_load_pj_per_sample: float
    data_store_pj_per_sample: float
    vfu_pj_per_sample: float
    interconnect_pj_per_sample: float
    local_memory_pj_per_sample: float
    weight_write_pj: float
    weight_load_pj: float
    cores_used: int
    weight_replace_ns: float
    fill_ns: float
    bottleneck_ns: float


@dataclass(slots=True)
class PartitionEstimate:
    """Complete performance/energy estimate for one partition."""

    plan: PartitionPlan
    io: PartitionIO
    batch_size: int
    latency: PhaseLatency
    energy: EnergyBreakdown
    #: per-sample service time of every pipeline stage, keyed by stage name
    stage_latency_ns: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def partition(self) -> Partition:
        """The partition this estimate describes."""
        return self.plan.partition

    @property
    def latency_ns(self) -> float:
        """Total latency of the partition for the whole batch."""
        return self.latency.total_ns

    @property
    def energy_pj(self) -> float:
        """Total energy of the partition for the whole batch."""
        return self.energy.total_pj

    @property
    def edp(self) -> float:
        """Energy-delay product of this partition (pJ * ns)."""
        return self.energy_pj * self.latency_ns

    @property
    def latency_per_sample_ns(self) -> float:
        """Amortised latency per sample."""
        return self.latency_ns / self.batch_size

    @property
    def energy_per_sample_pj(self) -> float:
        """Amortised energy per sample."""
        return self.energy_pj / self.batch_size


class PartitionEstimator:
    """Estimates latency/energy of partitions on a given chip.

    A single estimator instance memoises only pure allocator results (the
    replication factors, max per-core occupancy and occupied-core count of
    a ``(windows, copies)`` geometry signature — many distinct spans clip
    their edge layers the same way) and is safe to reuse for many
    partitions; per-span caching lives in :class:`repro.perf.SpanTable`.
    """

    def __init__(
        self,
        chip: ChipConfig,
        dram_config: DRAMConfig = LPDDR3_8GB,
        batch_size: int = 1,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.chip = chip
        self.batch_size = batch_size
        self.dram = DRAMModel(dram_config)
        self.power = PowerModel(chip)
        #: (windows..., copies...) -> (factor list, (max core crossbars,
        #: cores used)); the allocators are pure functions of these (layer
        #: names only key the returned dict in the legacy API), so sharing
        #: across spans is exact
        self._allocation_memo: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]],
                                    Tuple[List[int], Tuple[int, int]]] = {}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def profile(self, partition: Partition,
                plan: Optional[PartitionPlan] = None) -> SpanProfile:
        """Walk one partition and compute its batch-independent profile.

        Builds the on-chip plan (unless one is given) and runs the shared
        stage-latency and energy arithmetic over its slices.
        :meth:`slim_profile` and :meth:`energy_record` run the same
        arithmetic over the same slices with a memoised plan-free
        allocation, so the three agree bit for bit whenever the plan's
        replication and core mapping are the default ones.
        """
        plan = plan if plan is not None else build_partition_plan(partition, self.chip)
        template = partition.template()
        slices = plan.slices
        factors = [plan.replication.factor(s.layer_name) for s in slices]
        stage_values, weight_load_ns, weight_write_ns, weight_replace_ns = (
            self._latency_phases(template, slices, factors,
                                 plan.core_mapping.max_core_crossbars)
        )
        energy = self._energy_terms(partition, template, slices, factors)
        stage_names = ("__load__", *(s.layer_name for s in slices), "__store__")
        return SpanProfile(
            plan=plan,
            io=partition.io(),
            stage_latency_ns=dict(zip(stage_names, stage_values)),
            fill_ns=sum(stage_values),
            bottleneck_ns=max(stage_values),
            load_ns=stage_values[0],
            store_ns=stage_values[-1],
            weight_load_ns=weight_load_ns,
            weight_write_ns=weight_write_ns,
            weight_replace_ns=weight_replace_ns,
            cores_used=plan.core_mapping.cores_used,
            **dict(zip(EnergyRecord._fields, energy)),
        )

    def slim_profile(self, partition: Partition) -> "Tuple[float, float, float]":
        """Latency-only profile: ``(weight_replace_ns, fill_ns, bottleneck_ns)``.

        An exact replay of :meth:`profile` restricted to the three floats a
        dense span-matrix latency cell needs: no plan or core-mapping
        objects are built and every energy term is skipped.
        Bit-identical to ``profile(partition)`` and reading the same three
        fields — pinned by the perf equivalence tests.
        """
        template = partition.template()
        slices = layer_slices(partition)
        factors, (max_core_crossbars, _) = self._allocation(template, slices)
        stage_values, _, _, weight_replace_ns = self._latency_phases(
            template, slices, factors, max_core_crossbars
        )
        return (weight_replace_ns, sum(stage_values), max(stage_values))

    def energy_record(self, partition: Partition) -> EnergyRecord:
        """Energy-only profile: what a dense energy-matrix fill reads.

        An exact replay of :meth:`profile` returning its eight per-sample and
        per-batch-constant energy terms, ``cores_used`` and the slim latency
        triple, built without plan objects as :meth:`slim_profile` is.
        Every field equals the full profile's — pinned by the perf
        equivalence tests.
        """
        template = partition.template()
        slices = layer_slices(partition)
        factors, (max_core_crossbars, cores_used) = self._allocation(template, slices)
        stage_values, _, _, weight_replace_ns = self._latency_phases(
            template, slices, factors, max_core_crossbars
        )
        return EnergyRecord(
            *self._energy_terms(partition, template, slices, factors),
            cores_used=cores_used,
            weight_replace_ns=weight_replace_ns,
            fill_ns=sum(stage_values),
            bottleneck_ns=max(stage_values),
        )

    # ------------------------------------------------------------------
    # allocation and arithmetic shared by profile and the slim replays
    # ------------------------------------------------------------------
    def _allocation(self, template: SpanTemplate,
                    slices: List[LayerSlice]) -> Tuple[List[int], Tuple[int, int]]:
        """``(factors, (max core crossbars, cores used))`` of a span's slices.

        The plan-free equivalent of ``build_partition_plan``'s replication
        and core mapping.  The allocators read only each slice's windows and
        per-copy crossbars, so the result is memoised by those two tuples:
        the windows are the template's, and spans over one layer range that
        clip their edge layers to the same crossbar counts, or distinct
        ranges with equal tuples, share one allocation.  Layers in a span
        are distinct, so the unique-names allocator applies.
        """
        windows = template.windows
        copies = tuple([s.crossbars for s in slices])
        allocation = self._allocation_memo.get((windows, copies))
        if allocation is None:
            names = [s.layer_name for s in slices]
            factors = replication_factor_list(
                names, windows, copies, crossbar_budget=self.chip.total_crossbars
            )
            allocation = (factors, max_core_crossbars_only(names, copies, factors, self.chip))
            self._allocation_memo[(windows, copies)] = allocation
        return allocation

    def _latency_phases(self, template: SpanTemplate, slices: List[LayerSlice],
                        factors: List[int],
                        max_core_crossbars: int) -> Tuple[List[float], float, float, float]:
        """Per-sample stage latencies and the weight-replace phase.

        Returns ``(stage latencies, weight_load_ns, weight_write_ns,
        weight_replace_ns)``; the stages are the entry load, one per slice
        in order, and the exit store.  The span's I/O bytes and each layer's
        inter-core time come from its template; the chip constants are
        hoisted to locals — this is the innermost loop of span profiling.
        """
        chip = self.chip
        core = chip.core
        xbar = core.crossbar
        mvm_latency_ns = xbar.mvm_latency_ns
        weight_rows = xbar.weight_rows
        vfu_throughput = core.vfu_count * core.vfu_elements_per_ns
        bus_latency_ns = chip.interconnect.transfer_latency_ns
        ceil = math.ceil
        dram = self.dram
        load_bytes, store_bytes = template.io_bytes(slices[0].fraction, slices[-1].fraction)

        load_ns = dram.bulk_transfer_latency_ns(load_bytes, sequential=True)
        # several entry nodes mean scattered accesses; add a per-entry penalty
        load_ns += max(0, len(template.entries) - 1) * bus_latency_ns
        stage_values = [load_ns]
        single_copy_bytes = 0
        for layer_slice, replication, intercore_ns, attached in zip(
            slices, factors, template.intercore_ns, template.attached_elements
        ):
            windows = layer_slice.windows
            single_copy_bytes += layer_slice.weight_bytes
            # matrix-unit time: windows round-robin over replicas, tile ops
            # serialised over the slice's crossbars
            windows_per_replica = ceil(windows / max(1, replication))
            serial_factor = ceil(
                layer_slice.tile_ops_per_window / max(1, layer_slice.crossbars)
            )
            stage_ns = windows_per_replica * serial_factor * mvm_latency_ns
            # partial-sum accumulation across row tiles
            row_tiles = ceil(layer_slice.rows / weight_rows)
            if row_tiles > 1:
                vfu_elements = (row_tiles - 1) * layer_slice.cols * windows
                if vfu_elements > 0:
                    stage_ns += vfu_elements / vfu_throughput
            # attached non-crossbar layers: this partition processes its share
            shared_elements = int(attached * max(layer_slice.fraction, 0.0))
            if shared_elements > 0:
                stage_ns += shared_elements / vfu_throughput
            # bus time to gather on-chip inputs from producer cores (inputs
            # coming from DRAM are accounted in the load stage)
            stage_ns += intercore_ns
            stage_values.append(stage_ns)
        store_ns = dram.bulk_transfer_latency_ns(store_bytes, sequential=True)
        store_ns += max(0, len(template.exits) - 1) * bus_latency_ns
        stage_values.append(store_ns)

        # a single copy is streamed from DRAM and broadcast to every replica
        weight_load_ns = dram.bulk_transfer_latency_ns(single_copy_bytes, sequential=True)
        weight_write_ns = max_core_crossbars * xbar.write_latency_full_ns
        return stage_values, weight_load_ns, weight_write_ns, max(weight_load_ns, weight_write_ns)

    def _energy_terms(self, partition: Partition, template: SpanTemplate,
                      slices: List[LayerSlice], factors: List[int]) -> Tuple[float, ...]:
        """The eight energy terms, in :class:`EnergyRecord` field order."""
        core = self.chip.core
        xbar = core.crossbar
        power = self.power
        dram = self.dram
        sizes = partition.decomposition.index.node_size_bytes
        weight_rows = xbar.weight_rows
        vfu_energy_per_element = core.vfu_energy_per_element_pj
        local_energy_per_byte = core.local_memory_energy_per_byte_pj
        bus_energy_per_byte = self.chip.interconnect.energy_per_byte_pj

        single_copy_bytes = 0
        replicated_bytes = 0
        mvm_pj = 0.0
        vfu_pj = 0.0
        local_pj = 0.0
        intercore_pj = 0.0
        for layer_slice, replication, in_bytes, attached in zip(
            slices, factors, template.in_bytes, template.attached_elements
        ):
            fraction = layer_slice.fraction
            single_copy_bytes += layer_slice.weight_bytes
            replicated_bytes += layer_slice.weight_bytes * replication
            tile_mvms = layer_slice.windows * layer_slice.tile_ops_per_window
            active_rows = layer_slice.rows
            if active_rows > weight_rows:
                active_rows = weight_rows
            mvm_pj += tile_mvms * xbar.mvm_energy_for_rows(active_rows)
            vfu_pj += max(int(attached * fraction), 0) * vfu_energy_per_element
            out_bytes = int(sizes[layer_slice.layer_name] * fraction)
            local_pj += max(in_bytes + out_bytes, 0) * local_energy_per_byte
            intercore_pj += max(in_bytes, 0) * bus_energy_per_byte

        replicated_weights = (replicated_bytes * 8) // partition.decomposition.weight_bits
        load_bytes, store_bytes = template.io_bytes(slices[0].fraction, slices[-1].fraction)
        return (
            mvm_pj,
            dram.bulk_transfer_energy_pj(load_bytes, is_write=False, sequential=True)
            + power.interconnect_energy_pj(load_bytes),
            dram.bulk_transfer_energy_pj(store_bytes, is_write=True, sequential=True)
            + power.interconnect_energy_pj(store_bytes),
            vfu_pj,
            intercore_pj,
            local_pj,
            power.weight_write_energy_pj(replicated_weights),
            dram.bulk_transfer_energy_pj(single_copy_bytes, is_write=False, sequential=True)
            + power.interconnect_energy_pj(single_copy_bytes),
        )

    def estimate_from_profile(self, profile: SpanProfile, batch_size: int) -> PartitionEstimate:
        """Finalise a batch-independent profile into an estimate — O(1)."""
        batch = batch_size
        if batch <= 0:
            raise ValueError("batch_size must be positive")
        load_ns = profile.load_ns
        store_ns = profile.store_ns
        pipeline_ns = profile.fill_ns + (batch - 1) * profile.bottleneck_ns

        latency = PhaseLatency(
            weight_load_ns=profile.weight_load_ns,
            weight_write_ns=profile.weight_write_ns,
            weight_replace_ns=profile.weight_replace_ns,
            input_load_ns=load_ns * batch,
            compute_ns=pipeline_ns - (load_ns + store_ns) * batch
            if pipeline_ns > (load_ns + store_ns) * batch
            else pipeline_ns,
            output_store_ns=store_ns * batch,
            pipeline_ns=pipeline_ns,
        )

        total_ns = latency.total_ns
        energy = EnergyBreakdown(
            mvm_pj=profile.mvm_pj_per_sample * batch,
            weight_write_pj=profile.weight_write_pj,
            weight_load_pj=profile.weight_load_pj,
            data_load_pj=batch * profile.data_load_pj_per_sample,
            data_store_pj=batch * profile.data_store_pj_per_sample,
            vfu_pj=profile.vfu_pj_per_sample * batch,
            interconnect_pj=profile.interconnect_pj_per_sample * batch,
            local_memory_pj=profile.local_memory_pj_per_sample * batch,
            static_pj=self.power.static_energy_pj(total_ns, profile.cores_used),
            dram_background_pj=self.dram.config.background_power_mw * total_ns,
        )

        return PartitionEstimate(
            plan=profile.plan,
            io=profile.io,
            batch_size=batch,
            latency=latency,
            energy=energy,
            stage_latency_ns=dict(profile.stage_latency_ns),
        )

    def estimate(self, partition: Partition, plan: Optional[PartitionPlan] = None,
                 batch_size: Optional[int] = None) -> PartitionEstimate:
        """Estimate latency and energy of one partition for a batch."""
        batch = batch_size if batch_size is not None else self.batch_size
        if batch <= 0:
            raise ValueError("batch_size must be positive")
        return self.estimate_from_profile(self.profile(partition, plan=plan), batch)
