"""Trace-driven LPDDR3 DRAM model.

The paper feeds memory traces generated from the scheduled instruction stream
into DRAMsim3 to obtain DRAM latency and energy.  DRAMsim3 itself is a large
C++ cycle simulator; this module provides a faithful-enough Python
replacement: a bank-state (row-buffer) timing model with LPDDR3-class
parameters, processing an ordered request trace and reporting per-request
latency plus aggregate bandwidth and energy.

What the compiler consumes from this model:

* latency of weight-load bursts between partitions,
* latency of activation load/store at partition boundaries,
* DRAM energy (activate/read/write/background) for the energy figures.

The model is deliberately simpler than DRAMsim3 (no command-queue
reordering, single channel, closed-form refresh overhead) but captures the
row-locality and bandwidth effects the evaluation depends on: large
sequential weight reads achieve near-peak bandwidth while scattered feature
accesses pay activate/precharge penalties.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple


@dataclass(frozen=True)
class DRAMConfig:
    """Timing and energy parameters of the external DRAM.

    Defaults model an 8 GB LPDDR3-1600 part (Table I: "LPDDR3 8GB,
    trace-based").  Times are nanoseconds, energies picojoules.
    """

    name: str = "LPDDR3-1600-8GB"
    capacity_bytes: int = 8 * 1024 ** 3
    num_channels: int = 1
    num_banks: int = 8
    row_size_bytes: int = 2048
    bus_width_bits: int = 32
    burst_length: int = 8
    clock_ns: float = 1.25  # 800 MHz DDR -> 1600 MT/s

    # core timing parameters (ns)
    t_rcd_ns: float = 18.0
    t_rp_ns: float = 18.0
    t_ras_ns: float = 42.0
    t_cas_ns: float = 15.0
    t_refresh_overhead: float = 0.05  # fraction of time lost to refresh

    # energy parameters (pJ)
    e_activate_pj: float = 1500.0
    e_precharge_pj: float = 1200.0
    e_read_per_byte_pj: float = 40.0
    e_write_per_byte_pj: float = 45.0
    background_power_mw: float = 80.0

    def __post_init__(self) -> None:
        if self.num_banks <= 0 or self.num_channels <= 0:
            raise ValueError("DRAM needs at least one channel and one bank")
        if self.row_size_bytes <= 0 or self.burst_length <= 0:
            raise ValueError("row size and burst length must be positive")

    @property
    def bytes_per_burst(self) -> int:
        """Bytes transferred by one burst."""
        return (self.bus_width_bits // 8) * self.burst_length

    @property
    def burst_time_ns(self) -> float:
        """Data-bus occupancy of one burst (DDR: burst_length/2 cycles)."""
        return (self.burst_length / 2.0) * self.clock_ns

    @property
    def peak_bandwidth_bytes_per_ns(self) -> float:
        """Peak data-bus bandwidth per channel."""
        return self.bytes_per_burst / self.burst_time_ns


#: Default DRAM used in the paper's evaluation.
LPDDR3_8GB = DRAMConfig()


@dataclass(frozen=True)
class DRAMRequest:
    """One memory request in the trace."""

    issue_time_ns: float
    address: int
    size_bytes: int
    is_write: bool
    tag: str = ""

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("DRAM request size must be positive")
        if self.address < 0:
            raise ValueError("DRAM request address must be non-negative")


@dataclass
class DRAMStats:
    """Aggregate statistics over a processed trace."""

    num_requests: int = 0
    read_bytes: int = 0
    write_bytes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    total_latency_ns: float = 0.0
    busy_time_ns: float = 0.0
    finish_time_ns: float = 0.0
    energy_pj: float = 0.0

    @property
    def total_bytes(self) -> int:
        """Total bytes moved."""
        return self.read_bytes + self.write_bytes

    @property
    def average_latency_ns(self) -> float:
        """Mean per-request latency."""
        return self.total_latency_ns / self.num_requests if self.num_requests else 0.0

    @property
    def row_hit_rate(self) -> float:
        """Fraction of bursts that hit an open row."""
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0

    @property
    def achieved_bandwidth_bytes_per_ns(self) -> float:
        """Observed bandwidth over the busy window."""
        if self.finish_time_ns <= 0:
            return 0.0
        return self.total_bytes / self.finish_time_ns


class DRAMModel:
    """Bank-state DRAM timing/energy model processing an ordered trace."""

    def __init__(self, config: DRAMConfig = LPDDR3_8GB) -> None:
        self.config = config
        # the closed forms below run once per span estimate; the config is
        # frozen, so its burst geometry is read once here
        self._burst_bytes = config.bytes_per_burst
        self._burst_time_ns = (config.burst_time_ns
                               * (1.0 + config.t_refresh_overhead))
        # open row per (channel, bank); None means the bank is precharged
        self._open_rows: Dict[Tuple[int, int], Optional[int]] = {}
        # time at which each channel's data bus becomes free
        self._channel_free_at: Dict[int, float] = {}
        self.reset()

    def reset(self) -> None:
        """Clear all bank and channel state."""
        cfg = self.config
        self._open_rows = {
            (ch, bank): None for ch in range(cfg.num_channels) for bank in range(cfg.num_banks)
        }
        self._channel_free_at = {ch: 0.0 for ch in range(cfg.num_channels)}

    # ------------------------------------------------------------------
    # address mapping
    # ------------------------------------------------------------------
    def _map_address(self, address: int) -> Tuple[int, int, int]:
        """Map a byte address to (channel, bank, row)."""
        cfg = self.config
        row_index = address // cfg.row_size_bytes
        channel = row_index % cfg.num_channels
        bank = (row_index // cfg.num_channels) % cfg.num_banks
        row = row_index // (cfg.num_channels * cfg.num_banks)
        return channel, bank, row

    # ------------------------------------------------------------------
    # trace processing
    # ------------------------------------------------------------------
    def access(self, request: DRAMRequest, stats: Optional[DRAMStats] = None) -> float:
        """Process one request; returns its completion time in ns.

        The request is split into bursts; each burst pays the row-activation
        cost if it touches a closed or different row in its bank, then
        occupies the channel data bus for the burst time.
        """
        cfg = self.config
        stats = stats if stats is not None else DRAMStats()
        remaining = request.size_bytes
        address = request.address
        start = request.issue_time_ns
        completion = start

        while remaining > 0:
            channel, bank, row = self._map_address(address)
            chunk = min(remaining, cfg.bytes_per_burst,
                        cfg.row_size_bytes - (address % cfg.row_size_bytes))

            ready = max(start, self._channel_free_at[channel])
            open_row = self._open_rows[(channel, bank)]
            if open_row == row:
                access_latency = cfg.t_cas_ns
                stats.row_hits += 1
            elif open_row is None:
                access_latency = cfg.t_rcd_ns + cfg.t_cas_ns
                stats.row_misses += 1
                stats.energy_pj += cfg.e_activate_pj
            else:
                access_latency = cfg.t_rp_ns + cfg.t_rcd_ns + cfg.t_cas_ns
                stats.row_misses += 1
                stats.energy_pj += cfg.e_precharge_pj + cfg.e_activate_pj
            self._open_rows[(channel, bank)] = row

            burst_time = cfg.burst_time_ns * (1.0 + cfg.t_refresh_overhead)
            burst_end = ready + access_latency + burst_time
            self._channel_free_at[channel] = burst_end
            completion = max(completion, burst_end)
            stats.busy_time_ns += access_latency + burst_time

            per_byte = cfg.e_write_per_byte_pj if request.is_write else cfg.e_read_per_byte_pj
            stats.energy_pj += chunk * per_byte

            address += chunk
            remaining -= chunk

        stats.num_requests += 1
        if request.is_write:
            stats.write_bytes += request.size_bytes
        else:
            stats.read_bytes += request.size_bytes
        stats.total_latency_ns += completion - start
        stats.finish_time_ns = max(stats.finish_time_ns, completion)
        return completion

    def process_trace(self, trace: Iterable[DRAMRequest]) -> DRAMStats:
        """Process an entire trace (in issue order) and return statistics.

        Background energy is added for the full span of the trace.
        """
        stats = DRAMStats()
        self.reset()
        ordered = sorted(trace, key=lambda r: r.issue_time_ns)
        for request in ordered:
            self.access(request, stats)
        stats.energy_pj += self.config.background_power_mw * stats.finish_time_ns
        return stats

    # ------------------------------------------------------------------
    # closed-form helpers used by the analytic latency estimator
    # ------------------------------------------------------------------
    def bulk_transfer_latency_ns(self, num_bytes: int, sequential: bool = True) -> float:
        """Closed-form latency of a bulk transfer without mutating state.

        Sequential transfers (weight streaming) pay one activation per row;
        non-sequential transfers pay one activation per burst.  This is used
        by the fitness estimator, which needs a fast approximation; the full
        trace model is used by the simulator for the reported numbers.
        """
        if num_bytes <= 0:
            return 0.0
        cfg = self.config
        burst_bytes = self._burst_bytes
        bursts = (num_bytes + burst_bytes - 1) // burst_bytes
        if sequential:
            rows = (num_bytes + cfg.row_size_bytes - 1) // cfg.row_size_bytes
            activations = rows
        else:
            activations = bursts
        activation_time = activations * (cfg.t_rp_ns + cfg.t_rcd_ns)
        # activations on different banks overlap with data transfer except for
        # the first one; keep the first activation plus a small per-activation
        # residual to model imperfect overlap.
        overlap_residual = 0.15
        return (
            cfg.t_rcd_ns
            + cfg.t_cas_ns
            + bursts * self._burst_time_ns
            + activation_time * overlap_residual
        )

    def bulk_transfer_energy_pj(self, num_bytes: int, is_write: bool, sequential: bool = True) -> float:
        """Closed-form energy of a bulk transfer (no background power)."""
        if num_bytes <= 0:
            return 0.0
        cfg = self.config
        rows = (num_bytes + cfg.row_size_bytes - 1) // cfg.row_size_bytes
        burst_bytes = self._burst_bytes
        bursts = (num_bytes + burst_bytes - 1) // burst_bytes
        activations = rows if sequential else bursts
        per_byte = cfg.e_write_per_byte_pj if is_write else cfg.e_read_per_byte_pj
        return activations * (cfg.e_activate_pj + cfg.e_precharge_pj) + num_bytes * per_byte
