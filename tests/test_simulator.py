"""Tests for the whole-model execution simulator."""

import pytest

from repro.core.baselines import greedy_partition, layerwise_partition
from repro.isa.scheduler import InstructionScheduler
from repro.onchip.estimator import PartitionEstimator
from repro.onchip.plan import build_partition_plan
from repro.perf import SpanTable
from repro.sim.report import render_execution_report
from repro.sim.simulator import ExecutionSimulator


@pytest.fixture(scope="module")
def simulated(resnet18_decomposition_m, chip_m):
    d = resnet18_decomposition_m
    simulator = ExecutionSimulator(chip_m, batch_size=4)
    group = greedy_partition(d)
    report = simulator.simulate(group, model_name="resnet18", scheme="greedy")
    return d, group, report


class TestExecutionReport:
    def test_basic_fields(self, simulated):
        _, group, report = simulated
        assert report.model_name == "resnet18"
        assert report.chip_name == "M"
        assert report.scheme == "greedy"
        assert report.batch_size == 4
        assert report.num_partitions == group.num_partitions

    def test_totals_are_sums_over_partitions(self, simulated):
        _, _, report = simulated
        assert report.total_latency_ns == pytest.approx(
            sum(e.latency_ns for e in report.estimates)
        )
        assert report.total_energy_pj == pytest.approx(
            sum(e.energy_pj for e in report.estimates)
        )

    def test_throughput_consistent_with_latency(self, simulated):
        _, _, report = simulated
        expected = report.batch_size / (report.total_latency_ns * 1e-9)
        assert report.throughput == pytest.approx(expected)

    def test_energy_breakdown_aggregates(self, simulated):
        _, _, report = simulated
        breakdown = report.energy_breakdown
        assert breakdown.total_pj == pytest.approx(report.total_energy_pj)

    def test_weight_traffic_covers_model(self, simulated):
        d, _, report = simulated
        assert report.weight_traffic_bytes() >= d.total_weight_bytes() * 0.99

    def test_feature_traffic_scales_with_batch(self, resnet18_decomposition_m, chip_m):
        d = resnet18_decomposition_m
        group = greedy_partition(d)
        small = ExecutionSimulator(chip_m, batch_size=1).simulate(group)
        large = ExecutionSimulator(chip_m, batch_size=8).simulate(group)
        assert large.feature_traffic_bytes() == 8 * small.feature_traffic_bytes()

    def test_summary_row_keys(self, simulated):
        _, _, report = simulated
        row = report.summary_row()
        assert {"model", "chip", "scheme", "batch", "partitions", "latency_ms",
                "throughput_ips", "energy_per_inf_mj", "edp_mj_ms"} <= set(row)

    def test_render_report_text(self, simulated):
        _, _, report = simulated
        text = render_execution_report(report)
        assert "resnet18" in text
        assert "throughput" in text
        assert "per-partition latency" in text


class TestSimulatorOptions:
    def test_table_estimates_match_built_plans(self, resnet18_decomposition_m, chip_m):
        d = resnet18_decomposition_m
        group = greedy_partition(d)
        report = ExecutionSimulator(chip_m, batch_size=2).simulate(group)
        estimator = PartitionEstimator(chip_m)
        assert report.num_partitions == group.num_partitions
        for estimate, partition in zip(report.estimates, group.partitions()):
            expected = estimator.estimate(
                partition, plan=build_partition_plan(partition, chip_m), batch_size=2
            )
            assert estimate.latency_ns == expected.latency_ns
            assert estimate.energy_pj == expected.energy_pj
            assert (estimate.plan.single_copy_weight_bytes
                    == expected.plan.single_copy_weight_bytes)

    def test_explicit_span_table_is_used(self, resnet18_decomposition_m, chip_m):
        d = resnet18_decomposition_m
        group = greedy_partition(d)
        simulator = ExecutionSimulator(chip_m, batch_size=2)
        table = SpanTable(d)
        report = simulator.simulate(group, span_table=table)
        assert table.stats.estimates_computed == group.num_partitions
        shared = simulator.simulate(group)
        assert report.partition_latencies_ns() == shared.partition_latencies_ns()
        assert report.total_energy_pj == shared.total_energy_pj

    def test_dram_trace_replay_populates_stats(self, resnet18_decomposition_m, chip_m):
        d = resnet18_decomposition_m
        group = greedy_partition(d)
        plans = [build_partition_plan(p, chip_m) for p in group.partitions()]
        schedule = InstructionScheduler(chip_m, batch_size=2).schedule_model(plans)
        report = ExecutionSimulator(chip_m, batch_size=2).simulate(
            group, dram_trace=schedule.dram_trace()
        )
        assert report.dram_stats is not None
        assert report.dram_stats.num_requests == len(schedule.dram_trace())
        assert report.dram_stats.energy_pj > 0
        assert "DRAM trace" in render_execution_report(report)

    def test_invalid_batch(self, chip_m):
        with pytest.raises(ValueError):
            ExecutionSimulator(chip_m, batch_size=0)

    def test_scheme_comparison_on_same_model(self, resnet18_decomposition_m, chip_m):
        """Different partitionings of the same model yield different reports."""
        d = resnet18_decomposition_m
        sim = ExecutionSimulator(chip_m, batch_size=8)
        greedy_report = sim.simulate(greedy_partition(d), scheme="greedy")
        layerwise_report = sim.simulate(layerwise_partition(d), scheme="layerwise")
        assert greedy_report.total_latency_ns != pytest.approx(
            layerwise_report.total_latency_ns
        )
