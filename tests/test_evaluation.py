"""Tests for the evaluation harness (tables/figures experiment functions)."""

import numpy as np
import pytest

from repro.core.ga import GAConfig
from repro.evaluation import experiments
from repro.evaluation.experiments import (
    ExperimentConfig,
    fig5_validity_maps,
    fig6_speedups,
    fig6_throughput_comparison,
    fig7_latency_breakdown,
    fig8_energy_and_edp,
    fig9_weight_energy_vs_batch,
    fig10_ga_convergence,
    optimality_gap,
    table1_hardware_configuration,
    table2_model_support,
)
from repro.evaluation.sweeps import SweepPoint, SweepRunner

TINY_GA = GAConfig(population_size=8, generations=3, n_select=3, n_mutate=5, seed=0)


class TestTables:
    def test_table1_matches_paper(self):
        rows = {r["chip"]: r for r in table1_hardware_configuration()}
        assert rows["S"]["capacity_mb"] == pytest.approx(1.125)
        assert rows["M"]["capacity_mb"] == pytest.approx(2.0)
        assert rows["L"]["capacity_mb"] == pytest.approx(4.5)

    def test_table2_sizes_and_support(self):
        rows = {r["network"]: r for r in table2_model_support()}
        assert rows["vgg16"]["total_mb"] == pytest.approx(65.97, rel=0.01)
        assert rows["resnet18"]["total_mb"] == pytest.approx(5.569, rel=0.01)
        assert rows["squeezenet"]["total_mb"] == pytest.approx(0.587, abs=0.01)
        # Table II: previous compilers only support SqueezeNet; COMPASS supports all
        assert not rows["vgg16"]["prev"]
        assert not rows["resnet18"]["prev"]
        assert rows["squeezenet"]["prev"]
        assert all(rows[m]["ours"] for m in ("vgg16", "resnet18", "squeezenet"))


class TestFig5:
    def test_rows_and_monotonicity(self):
        rows = fig5_validity_maps(models=("squeezenet", "resnet18"), chips=("S", "L"))
        assert len(rows) == 4
        by_key = {(r["model"], r["chip"]): r for r in rows}
        # larger chip -> valid fraction does not decrease
        for model in ("squeezenet", "resnet18"):
            assert by_key[(model, "L")]["valid_fraction"] >= by_key[(model, "S")]["valid_fraction"]
        for row in rows:
            assert isinstance(row["matrix"], np.ndarray)
            assert row["matrix"].shape == (row["num_units"], row["num_units"])


class TestSweepRunner:
    def test_point_label(self):
        point = SweepPoint(model="resnet18", chip="S", scheme="compass", batch_size=4)
        assert point.label == "resnet18-S-4"

    def test_runner_caches_results(self):
        runner = SweepRunner(ga_config=TINY_GA)
        point = SweepPoint(model="squeezenet", chip="S", scheme="greedy", batch_size=1)
        first = runner.run_point(point)
        second = runner.run_point(point)
        assert first is second

    def test_run_produces_rows(self):
        runner = SweepRunner(ga_config=TINY_GA)
        rows = runner.run(models=["squeezenet"], chips=["S"], schemes=["greedy", "layerwise"],
                          batch_sizes=[1, 4])
        assert len(rows) == 4
        assert {r["scheme"] for r in rows} == {"greedy", "layerwise"}
        assert all(r["throughput_ips"] > 0 for r in rows)

    def test_rows_in_sweep_order(self):
        # model, then chip, then batch, then scheme: the Fig. 6 table order
        models, chips, batches, schemes = ("lenet5",), ("S", "M"), (1, 4), ("greedy", "compass")
        rows = SweepRunner(ga_config=TINY_GA).run(models, chips, schemes, batches)
        keys = [(r["model"], r["chip"], r["batch"], r["scheme"]) for r in rows]
        assert keys == [(model, chip, batch, scheme)
                        for model in models for chip in chips
                        for batch in batches for scheme in schemes]


class TestFig6:
    CONFIG = ExperimentConfig(models=("lenet5",), chips=("S",), batch_sizes=(1,),
                              schemes=("greedy", "compass"), ga_config=TINY_GA,
                              input_size=32)

    def test_default_runner_built_from_config(self, monkeypatch):
        built = []

        class RecordingRunner(SweepRunner):
            def __init__(self, **kwargs):
                built.append(kwargs)
                super().__init__(**kwargs)

        monkeypatch.setattr(experiments, "SweepRunner", RecordingRunner)
        rows = fig6_throughput_comparison(self.CONFIG)
        assert built == [{"ga_config": TINY_GA, "input_size": 32}]
        assert [r["scheme"] for r in rows] == ["greedy", "compass"]

    def test_given_runner_is_used(self):
        runner = SweepRunner(ga_config=TINY_GA, input_size=32)
        points = []
        run_point = runner.run_point
        runner.run_point = lambda point: points.append(point) or run_point(point)
        rows = fig6_throughput_comparison(self.CONFIG, runner=runner)
        assert points == [SweepPoint(model="lenet5", chip="S", scheme=scheme, batch_size=1)
                          for scheme in ("greedy", "compass")]
        assert [r["label"] for r in rows] == ["lenet5-S-1", "lenet5-S-1"]


class TestFigures:
    def test_fig6_speedups_helper(self):
        rows = [
            {"model": "m", "chip": "S", "batch": 1, "scheme": "greedy", "throughput_ips": 100.0},
            {"model": "m", "chip": "S", "batch": 1, "scheme": "layerwise", "throughput_ips": 50.0},
            {"model": "m", "chip": "S", "batch": 1, "scheme": "compass", "throughput_ips": 200.0},
        ]
        speedups = fig6_speedups(rows)
        assert speedups[0]["speedup_vs_greedy"] == pytest.approx(2.0)
        assert speedups[0]["speedup_vs_layerwise"] == pytest.approx(4.0)

    def test_fig7_breakdown_structure(self):
        breakdown = fig7_latency_breakdown(model="squeezenet", chip_name="S", batch_size=2,
                                           ga_config=TINY_GA)
        assert set(breakdown) == {"greedy", "layerwise", "compass"}
        for scheme, data in breakdown.items():
            assert len(data["latencies_ms"]) == data["num_partitions"]
            assert data["total_ms"] == pytest.approx(sum(data["latencies_ms"]))
            assert 0 < data["first_partition_share"] <= 1.0

    def test_fig8_rows(self):
        rows = fig8_energy_and_edp(model="squeezenet", chip_name="S", batch_sizes=(1, 4),
                                   ga_config=TINY_GA)
        assert len(rows) == 2 * 3
        assert all(r["energy_per_inf_mj"] > 0 for r in rows)
        assert all(r["edp_mj_ms"] > 0 for r in rows)

    def test_fig9_amortisation_trend(self):
        rows = fig9_weight_energy_vs_batch(model="squeezenet", chips=("S",),
                                           batch_sizes=(1, 16), scheme="greedy",
                                           ga_config=TINY_GA)
        by_batch = {r["batch"]: r for r in rows}
        assert by_batch[16]["weight_load_rel"] < by_batch[1]["weight_load_rel"]
        assert by_batch[16]["weight_write_rel"] < by_batch[1]["weight_write_rel"]

    def test_fig10_history(self):
        result = fig10_ga_convergence(model="squeezenet", chip_name="S", batch_size=2,
                                      ga_config=TINY_GA)
        assert result.history
        best = [rec.best_fitness for rec in result.history]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(best, best[1:]))


class TestOptimalityGap:
    def test_rows_and_floor(self):
        rows = optimality_gap(
            models=("lenet5", "squeezenet"), chips=("S",), batch_sizes=(1,),
            ga_config=TINY_GA,
        )
        assert len(rows) == 2
        for row in rows:
            assert row["supported"]
            # the DP result is the exact optimum: the GA cannot beat it
            assert row["gap_pct"] >= 0.0
            assert row["dp_latency_ns"] <= row["ga_latency_ns"]
            assert row["dp_partitions"] >= 1

    def test_unsupported_pair_flagged(self):
        rows = optimality_gap(
            models=("vgg16",), chips=("S",), batch_sizes=(1,),
            ga_config=TINY_GA, input_size=4096,  # blows past any chip
        )
        assert rows and all(row["supported"] is False for row in rows)


class TestExperimentConfig:
    def test_fast_preset_smaller_than_paper(self):
        fast = ExperimentConfig.fast()
        paper = ExperimentConfig()
        assert fast.ga_config.population_size < paper.ga_config.population_size
        assert fast.ga_config.generations < paper.ga_config.generations
        assert set(fast.batch_sizes) <= set(paper.batch_sizes)

    def test_paper_defaults_match_section_iv(self):
        config = ExperimentConfig()
        assert config.models == ("vgg16", "resnet18", "squeezenet")
        assert config.chips == ("S", "M", "L")
        assert config.batch_sizes == (1, 2, 4, 8, 16)
        assert config.ga_config.population_size == 100
        assert config.ga_config.generations == 30


class TestEDPFrontierSizes:
    def test_small_registry_subset_is_exact(self):
        from repro.evaluation.experiments import edp_frontier_sizes
        from repro.search.dp import DEFAULT_MAX_FRONTIER

        rows = edp_frontier_sizes(models=("lenet5", "squeezenet"), chips=("S", "M"),
                                  batch_sizes=(1, 4))
        assert len(rows) == 2 * 2 * 2
        supported = [row for row in rows if row["supported"]]
        assert supported
        for row in supported:
            assert row["exact"]  # uncapped runs are always exact
            assert row["fits_default_cap"]
            assert 1 <= row["max_frontier_size"] <= DEFAULT_MAX_FRONTIER
            assert row["mean_frontier_size"] <= row["max_frontier_size"]
            assert row["edp_optimum"] > 0

    def test_row_shape(self):
        from repro.evaluation.experiments import edp_frontier_sizes

        rows = edp_frontier_sizes(models=("lenet5",), chips=("S",), batch_sizes=(1,))
        assert len(rows) == 1
        assert {"model", "chip", "batch", "supported", "num_units",
                "max_frontier_size", "mean_frontier_size", "exact",
                "fits_default_cap", "edp_optimum", "partitions"} <= set(rows[0])
