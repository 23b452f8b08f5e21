"""PIM core model.

A core bundles a matrix unit (several crossbar macros), a set of vector
functional units (VFUs), core-local data memory and an instruction store
(Fig. 1).  Per-core power numbers follow Table I of the paper: 12 VFUs at
22.8 mW, 64 kB local memory at 18.0 mW and an 8.0 mW control unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.crossbar import CrossbarConfig


@dataclass(frozen=True)
class CoreConfig:
    """Configuration of a single PIM core."""

    crossbars_per_core: int = 16
    crossbar: CrossbarConfig = field(default_factory=CrossbarConfig)

    #: number of vector functional units in the core
    vfu_count: int = 12
    #: VFU throughput, elements processed per ns per VFU
    vfu_elements_per_ns: float = 1.0
    #: VFU energy per processed element, picojoules
    vfu_energy_per_element_pj: float = 0.1
    #: total VFU block power (Table I), milliwatts
    vfu_power_mw: float = 22.8

    #: core-local data memory size in bytes (64 kB in Table I)
    local_memory_bytes: int = 64 * 1024
    #: local memory read/write bandwidth in bytes per ns
    local_memory_bw_bytes_per_ns: float = 32.0
    #: local memory energy per byte accessed, picojoules
    local_memory_energy_per_byte_pj: float = 0.5
    #: local memory power (Table I), milliwatts
    local_memory_power_mw: float = 18.0

    #: control unit power (Table I), milliwatts
    control_power_mw: float = 8.0

    #: instruction memory size in bytes
    instruction_memory_bytes: int = 32 * 1024

    def __post_init__(self) -> None:
        if self.crossbars_per_core <= 0:
            raise ValueError("a core needs at least one crossbar")
        if self.vfu_count <= 0:
            raise ValueError("a core needs at least one VFU")
        if self.local_memory_bytes <= 0:
            raise ValueError("local memory size must be positive")

    # ------------------------------------------------------------------
    @property
    def weight_capacity_bytes(self) -> int:
        """Total crossbar weight capacity of the core, in bytes."""
        return self.crossbars_per_core * self.crossbar.capacity_bytes

    @property
    def static_power_mw(self) -> float:
        """Static/background power of the whole core, milliwatts."""
        return (
            self.vfu_power_mw
            + self.local_memory_power_mw
            + self.control_power_mw
            + self.crossbars_per_core * self.crossbar.static_power_mw
        )

    def vfu_energy_pj(self, elements: int) -> float:
        """Energy for the VFU block to process ``elements`` scalars."""
        return max(elements, 0) * self.vfu_energy_per_element_pj

    def local_memory_latency_ns(self, num_bytes: int) -> float:
        """Latency to move ``num_bytes`` through core-local memory."""
        if num_bytes <= 0:
            return 0.0
        return num_bytes / self.local_memory_bw_bytes_per_ns

    def local_memory_energy_pj(self, num_bytes: int) -> float:
        """Energy to move ``num_bytes`` through core-local memory."""
        return max(num_bytes, 0) * self.local_memory_energy_per_byte_pj
