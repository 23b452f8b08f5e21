"""Whole-model execution simulation of a partition group.

Partitions execute sequentially (Fig. 2): weight replacement, then pipelined
execution of the batch, then the next partition.  The simulator aggregates
the per-partition estimates, optionally replays the scheduler's DRAM trace
through the LPDDR3 model, and produces an :class:`ExecutionReport` with all
quantities the paper's figures use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.partition import PartitionGroup
from repro.hardware.chip import ChipConfig
from repro.hardware.dram import DRAMConfig, DRAMModel, DRAMStats, LPDDR3_8GB
from repro.hardware.power import EnergyBreakdown
from repro.onchip.estimator import PartitionEstimate
from repro.perf.spantable import SpanTable, span_table_for
from repro.sim.metrics import edp_mj_ms, energy_per_inference_mj, throughput_inferences_per_sec


@dataclass
class ExecutionReport:
    """Latency/energy summary of executing a partition group once."""

    model_name: str
    chip_name: str
    scheme: str
    batch_size: int
    group: PartitionGroup
    estimates: List[PartitionEstimate]
    dram_stats: Optional[DRAMStats] = None

    # ------------------------------------------------------------------
    @property
    def num_partitions(self) -> int:
        """Number of partitions executed."""
        return len(self.estimates)

    @property
    def total_latency_ns(self) -> float:
        """End-to-end latency of the whole batch."""
        return sum(e.latency_ns for e in self.estimates)

    @property
    def latency_per_inference_ms(self) -> float:
        """Amortised latency per inference, in milliseconds."""
        return (self.total_latency_ns / self.batch_size) * 1e-6

    @property
    def throughput(self) -> float:
        """Throughput in inferences per second."""
        return throughput_inferences_per_sec(self.batch_size, self.total_latency_ns)

    @property
    def total_energy_pj(self) -> float:
        """Total energy of the whole batch."""
        return sum(e.energy_pj for e in self.estimates)

    @property
    def energy_per_inference_mj(self) -> float:
        """Energy per inference, in millijoules."""
        return energy_per_inference_mj(self.total_energy_pj, self.batch_size)

    @property
    def edp_per_inference(self) -> float:
        """Energy-delay product per inference (mJ x ms)."""
        return edp_mj_ms(self.total_energy_pj, self.total_latency_ns, self.batch_size)

    @property
    def energy_breakdown(self) -> EnergyBreakdown:
        """Aggregate energy breakdown over all partitions."""
        total = EnergyBreakdown()
        for estimate in self.estimates:
            total.add(estimate.energy)
        return total

    def partition_latencies_ns(self) -> List[float]:
        """Per-partition latency (for the Fig. 7 breakdown)."""
        return [e.latency_ns for e in self.estimates]

    def weight_traffic_bytes(self) -> int:
        """Weight bytes loaded from DRAM over the whole execution."""
        return sum(e.plan.single_copy_weight_bytes for e in self.estimates)

    def feature_traffic_bytes(self) -> int:
        """Activation bytes moved to/from DRAM over the whole execution."""
        return sum(
            (e.io.load_bytes + e.io.store_bytes) * self.batch_size for e in self.estimates
        )

    def summary_row(self) -> Dict[str, float]:
        """Flat dictionary used by the evaluation harness tables."""
        return {
            "model": self.model_name,
            "chip": self.chip_name,
            "scheme": self.scheme,
            "batch": self.batch_size,
            "partitions": self.num_partitions,
            "latency_ms": self.total_latency_ns * 1e-6,
            "throughput_ips": self.throughput,
            "energy_per_inf_mj": self.energy_per_inference_mj,
            "edp_mj_ms": self.edp_per_inference,
        }


class ExecutionSimulator:
    """Simulates sequential execution of a partition group on a chip."""

    def __init__(
        self,
        chip: ChipConfig,
        batch_size: int = 1,
        dram_config: DRAMConfig = LPDDR3_8GB,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.chip = chip
        self.batch_size = batch_size
        self.dram_config = dram_config

    # ------------------------------------------------------------------
    def simulate(
        self,
        group: PartitionGroup,
        model_name: str = "",
        scheme: str = "",
        dram_trace=None,
        span_table: Optional[SpanTable] = None,
    ) -> ExecutionReport:
        """Simulate one partition group and return the execution report.

        Estimation goes through the decomposition's shared span table
        (:mod:`repro.perf`), or through ``span_table`` when one is passed,
        which reuses any plan and profile work done by the partition
        optimiser.  ``dram_trace`` (an iterable of
        :class:`~repro.hardware.dram.DRAMRequest`) is replayed through the
        LPDDR3 model when provided, populating ``dram_stats``.
        """
        if span_table is None:
            span_table = span_table_for(group.decomposition, self.dram_config)
        estimates = span_table.estimate_group(group, self.batch_size)

        dram_stats = None
        if dram_trace is not None:
            dram_model = DRAMModel(self.dram_config)
            dram_stats = dram_model.process_trace(dram_trace)

        return ExecutionReport(
            model_name=model_name or group.decomposition.graph.name,
            chip_name=self.chip.name,
            scheme=scheme,
            batch_size=self.batch_size,
            group=group,
            estimates=estimates,
            dram_stats=dram_stats,
        )
