"""Tests for the trace-driven LPDDR3 DRAM model."""

import pytest

from repro.hardware.dram import DRAMConfig, DRAMModel, DRAMRequest, DRAMStats, LPDDR3_8GB


class TestConfig:
    def test_default_is_lpddr3_8gb(self):
        assert LPDDR3_8GB.capacity_bytes == 8 * 1024 ** 3
        assert "LPDDR3" in LPDDR3_8GB.name

    def test_bytes_per_burst(self):
        # 32-bit bus, burst length 8 -> 32 bytes
        assert LPDDR3_8GB.bytes_per_burst == 32

    def test_peak_bandwidth_reasonable(self):
        # LPDDR3-1600 x32 peak is 6.4 GB/s = 6.4 bytes/ns
        assert LPDDR3_8GB.peak_bandwidth_bytes_per_ns == pytest.approx(6.4, rel=0.01)

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            DRAMConfig(num_banks=0)
        with pytest.raises(ValueError):
            DRAMConfig(row_size_bytes=0)


class TestRequest:
    def test_valid_request(self):
        r = DRAMRequest(issue_time_ns=0.0, address=0, size_bytes=64, is_write=False)
        assert r.size_bytes == 64

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            DRAMRequest(0.0, 0, 0, False)

    def test_invalid_address(self):
        with pytest.raises(ValueError):
            DRAMRequest(0.0, -4, 64, False)


class TestAccessTiming:
    def test_single_read_latency_includes_activation(self):
        model = DRAMModel()
        stats = DRAMStats()
        done = model.access(DRAMRequest(0.0, 0, 32, False), stats)
        cfg = model.config
        assert done >= cfg.t_rcd_ns + cfg.t_cas_ns
        assert stats.row_misses == 1
        assert stats.row_hits == 0

    def test_second_access_same_row_hits(self):
        model = DRAMModel()
        stats = DRAMStats()
        model.access(DRAMRequest(0.0, 0, 32, False), stats)
        model.access(DRAMRequest(1000.0, 32, 32, False), stats)
        assert stats.row_hits == 1

    def test_access_different_row_same_bank_misses(self):
        model = DRAMModel()
        cfg = model.config
        stats = DRAMStats()
        model.access(DRAMRequest(0.0, 0, 32, False), stats)
        # jump one full row * channels * banks to land in the same bank, new row
        stride = cfg.row_size_bytes * cfg.num_channels * cfg.num_banks
        model.access(DRAMRequest(1000.0, stride, 32, False), stats)
        assert stats.row_misses == 2

    def test_large_request_split_into_bursts(self):
        model = DRAMModel()
        stats = DRAMStats()
        model.access(DRAMRequest(0.0, 0, 1024, False), stats)
        assert stats.read_bytes == 1024
        assert stats.row_hits + stats.row_misses == 1024 // model.config.bytes_per_burst

    def test_sequential_stream_mostly_row_hits(self):
        model = DRAMModel()
        stats = DRAMStats()
        for i in range(64):
            model.access(DRAMRequest(float(i), i * 32, 32, False), stats)
        assert stats.row_hit_rate > 0.9


class TestTraceProcessing:
    def test_process_trace_orders_by_time(self):
        model = DRAMModel()
        trace = [
            DRAMRequest(100.0, 4096, 64, True, tag="late"),
            DRAMRequest(0.0, 0, 64, False, tag="early"),
        ]
        stats = model.process_trace(trace)
        assert stats.num_requests == 2
        assert stats.read_bytes == 64
        assert stats.write_bytes == 64

    def test_trace_energy_positive_and_monotonic(self):
        model = DRAMModel()
        small = model.process_trace([DRAMRequest(0.0, 0, 256, False)])
        large = model.process_trace([DRAMRequest(0.0, 0, 256 * 1024, False)])
        assert 0 < small.energy_pj < large.energy_pj

    def test_achieved_bandwidth_below_peak(self):
        model = DRAMModel()
        trace = [DRAMRequest(float(i), i * 32, 32, False) for i in range(1000)]
        stats = model.process_trace(trace)
        assert 0 < stats.achieved_bandwidth_bytes_per_ns <= model.config.peak_bandwidth_bytes_per_ns

    def test_empty_trace(self):
        stats = DRAMModel().process_trace([])
        assert stats.num_requests == 0
        assert stats.total_bytes == 0
        assert stats.average_latency_ns == 0.0
        assert stats.row_hit_rate == 0.0

    def test_reset_clears_row_buffer_state(self):
        model = DRAMModel()
        stats1 = DRAMStats()
        model.access(DRAMRequest(0.0, 0, 32, False), stats1)
        model.reset()
        stats2 = DRAMStats()
        model.access(DRAMRequest(0.0, 0, 32, False), stats2)
        assert stats2.row_misses == 1  # the open row was forgotten


class TestClosedFormHelpers:
    def test_bulk_latency_zero_bytes(self):
        assert DRAMModel().bulk_transfer_latency_ns(0) == 0.0

    def test_bulk_latency_monotonic_in_size(self):
        model = DRAMModel()
        assert (
            model.bulk_transfer_latency_ns(1024)
            < model.bulk_transfer_latency_ns(64 * 1024)
            < model.bulk_transfer_latency_ns(1024 * 1024)
        )

    def test_sequential_faster_than_random(self):
        model = DRAMModel()
        size = 256 * 1024
        assert model.bulk_transfer_latency_ns(size, sequential=True) < model.bulk_transfer_latency_ns(
            size, sequential=False
        )

    def test_bulk_latency_close_to_peak_bandwidth_for_large_sequential(self):
        model = DRAMModel()
        size = 8 * 1024 * 1024
        latency = model.bulk_transfer_latency_ns(size, sequential=True)
        effective_bw = size / latency
        assert effective_bw > 0.5 * model.config.peak_bandwidth_bytes_per_ns

    def test_bulk_energy_write_more_than_read(self):
        model = DRAMModel()
        size = 1 << 20
        assert model.bulk_transfer_energy_pj(size, is_write=True) > model.bulk_transfer_energy_pj(
            size, is_write=False
        )

    def test_bulk_energy_zero(self):
        assert DRAMModel().bulk_transfer_energy_pj(0, is_write=False) == 0.0

    def test_closed_form_tracks_trace_model(self):
        """The analytic estimate should be within 2x of the trace model."""
        model = DRAMModel()
        size = 512 * 1024
        closed = model.bulk_transfer_latency_ns(size, sequential=True)
        trace = [
            DRAMRequest(0.0, i * model.config.bytes_per_burst, model.config.bytes_per_burst, False)
            for i in range(size // model.config.bytes_per_burst)
        ]
        stats = DRAMModel().process_trace(trace)
        assert closed == pytest.approx(stats.finish_time_ns, rel=1.0)


def _bulk_latency_oracle(cfg, num_bytes, sequential):
    """The bulk-transfer latency written against the config's properties."""
    if num_bytes <= 0:
        return 0.0
    bursts = (num_bytes + cfg.bytes_per_burst - 1) // cfg.bytes_per_burst
    burst_time = cfg.burst_time_ns * (1.0 + cfg.t_refresh_overhead)
    rows = (num_bytes + cfg.row_size_bytes - 1) // cfg.row_size_bytes
    activations = rows if sequential else bursts
    activation_time = activations * (cfg.t_rp_ns + cfg.t_rcd_ns)
    return (cfg.t_rcd_ns + cfg.t_cas_ns + bursts * burst_time
            + activation_time * 0.15)


def _bulk_energy_oracle(cfg, num_bytes, is_write, sequential):
    """The bulk-transfer energy written against the config's properties."""
    if num_bytes <= 0:
        return 0.0
    rows = (num_bytes + cfg.row_size_bytes - 1) // cfg.row_size_bytes
    bursts = (num_bytes + cfg.bytes_per_burst - 1) // cfg.bytes_per_burst
    activations = rows if sequential else bursts
    per_byte = cfg.e_write_per_byte_pj if is_write else cfg.e_read_per_byte_pj
    return (activations * (cfg.e_activate_pj + cfg.e_precharge_pj)
            + num_bytes * per_byte)


class TestCachedBurstGeometry:
    """The closed forms read the burst geometry cached at construction;
    they stay bit-equal to the config's property expressions."""

    @pytest.mark.parametrize("factor", [1.0, 1.7, 3.0])
    def test_bulk_transfer_bit_equal_to_properties(self, factor):
        from repro.serve.plans import degraded_dram

        cfg = degraded_dram(LPDDR3_8GB, factor)
        model = DRAMModel(cfg)
        sizes = list(range(-1, 300)) + [
            (1 << shift) + delta for shift in range(9, 27, 3)
            for delta in (-1, 0, 1)]
        for size in sizes:
            for sequential in (True, False):
                assert model.bulk_transfer_latency_ns(size, sequential) == \
                    _bulk_latency_oracle(cfg, size, sequential), size
                for is_write in (True, False):
                    assert model.bulk_transfer_energy_pj(
                        size, is_write, sequential) == _bulk_energy_oracle(
                            cfg, size, is_write, sequential), size
