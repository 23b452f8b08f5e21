"""Tests for core/chip/interconnect configs and the Table I presets."""

import pytest

from repro.hardware import (
    CHIP_L,
    CHIP_M,
    CHIP_S,
    CHIP_PRESETS,
    get_chip_config,
    hardware_configuration_table,
)
from repro.hardware.chip import ChipConfig, InterconnectConfig
from repro.hardware.core import CoreConfig
from repro.hardware.crossbar import CrossbarConfig


class TestCoreConfig:
    def test_weight_capacity(self):
        core = CoreConfig(crossbars_per_core=9)
        assert core.weight_capacity_bytes == 9 * 8 * 1024

    def test_static_power_includes_table1_components(self):
        core = CoreConfig()
        assert core.static_power_mw >= 22.8 + 18.0 + 8.0

    def test_vfu_energy(self):
        core = CoreConfig(vfu_count=12, vfu_elements_per_ns=1.0)
        assert core.vfu_energy_pj(100) == pytest.approx(100 * core.vfu_energy_per_element_pj)

    def test_local_memory_helpers(self):
        core = CoreConfig()
        assert core.local_memory_latency_ns(0) == 0.0
        assert core.local_memory_latency_ns(320) == pytest.approx(10.0)
        assert core.local_memory_energy_pj(64) == pytest.approx(32.0)

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            CoreConfig(crossbars_per_core=0)
        with pytest.raises(ValueError):
            CoreConfig(vfu_count=0)
        with pytest.raises(ValueError):
            CoreConfig(local_memory_bytes=0)


class TestInterconnect:
    def test_transfer_time_has_fixed_and_variable_part(self):
        bus = InterconnectConfig(bandwidth_bytes_per_ns=16.0, transfer_latency_ns=10.0)
        assert bus.transfer_time_ns(0) == 0.0
        assert bus.transfer_time_ns(160) == pytest.approx(20.0)

    def test_transfer_energy(self):
        bus = InterconnectConfig(energy_per_byte_pj=0.2)
        assert bus.transfer_energy_pj(100) == pytest.approx(20.0)
        assert bus.transfer_energy_pj(-5) == 0.0


class TestChipPresets:
    def test_table1_capacities(self):
        """Table I: 1.125 / 2.0 / 4.5 MB."""
        assert CHIP_S.weight_capacity_mb == pytest.approx(1.125)
        assert CHIP_M.weight_capacity_mb == pytest.approx(2.0)
        assert CHIP_L.weight_capacity_mb == pytest.approx(4.5)

    def test_table1_core_counts(self):
        assert (CHIP_S.num_cores, CHIP_S.core.crossbars_per_core) == (16, 9)
        assert (CHIP_M.num_cores, CHIP_M.core.crossbars_per_core) == (16, 16)
        assert (CHIP_L.num_cores, CHIP_L.core.crossbars_per_core) == (36, 16)

    def test_total_crossbars(self):
        assert CHIP_S.total_crossbars == 144
        assert CHIP_M.total_crossbars == 256
        assert CHIP_L.total_crossbars == 576

    def test_capacity_ordering(self):
        assert CHIP_S.weight_capacity_bytes < CHIP_M.weight_capacity_bytes < CHIP_L.weight_capacity_bytes

    def test_fits_on_chip(self):
        assert CHIP_S.fits_on_chip(1024 * 1024)
        assert not CHIP_S.fits_on_chip(3 * 1024 * 1024)

    def test_get_chip_config_case_insensitive(self):
        assert get_chip_config("s") is CHIP_S
        assert get_chip_config(" M ") is CHIP_M

    def test_get_chip_config_unknown(self):
        with pytest.raises(KeyError):
            get_chip_config("XL")

    def test_presets_dict(self):
        assert set(CHIP_PRESETS) == {"S", "M", "L"}

    def test_describe_mentions_capacity(self):
        assert "1.125" in CHIP_S.describe()

    def test_invalid_chip(self):
        with pytest.raises(ValueError):
            ChipConfig(name="bad", num_cores=0)


class TestHardwareTable:
    def test_three_rows(self):
        rows = hardware_configuration_table()
        assert len(rows) == 3
        assert [r["chip"] for r in rows] == ["L", "M", "S"]

    def test_row_contents_match_table1(self):
        rows = {r["chip"]: r for r in hardware_configuration_table()}
        assert rows["S"]["capacity_mb"] == pytest.approx(1.125)
        assert rows["M"]["num_cores"] == 16
        assert rows["L"]["crossbars_per_core"] == 16
        assert rows["S"]["vfu_power_mw"] == pytest.approx(22.8)
        assert rows["S"]["local_memory_kb"] == 64
        assert rows["S"]["control_power_mw"] == pytest.approx(8.0)
