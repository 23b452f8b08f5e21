"""End-to-end integration tests: whole-compiler flows matching the paper's claims."""

import pytest

from repro.core.compiler import compile_model
from repro.core.ga import GAConfig
from repro.hardware import CHIP_L, CHIP_M, CHIP_S
from repro.isa.instructions import Opcode
from repro.models import build_model

GA = GAConfig(population_size=12, generations=5, n_select=4, n_mutate=8,
              early_stop_patience=4, seed=0)


class TestAllPaperWorkloadsCompile:
    """Table II: COMPASS supports all three models on all three chips."""

    @pytest.mark.parametrize("model", ["vgg16", "resnet18", "squeezenet"])
    @pytest.mark.parametrize("chip", [CHIP_S, CHIP_M, CHIP_L], ids=["S", "M", "L"])
    def test_greedy_compiles_everywhere(self, model, chip):
        graph = build_model(model)
        result = compile_model(graph, chip, scheme="greedy", batch_size=2,
                               generate_instructions=False)
        assert result.supported
        assert result.throughput > 0
        assert result.group.is_valid(chip.total_crossbars)

    def test_models_exceeding_capacity_get_multiple_partitions(self):
        graph = build_model("vgg16")
        result = compile_model(graph, CHIP_L, scheme="greedy", batch_size=1,
                               generate_instructions=False)
        assert result.num_partitions > 1

    def test_model_fitting_on_chip_single_partition(self):
        graph = build_model("squeezenet")
        result = compile_model(graph, CHIP_L, scheme="greedy", batch_size=1,
                               generate_instructions=False)
        assert result.num_partitions == 1


class TestHeadlineClaims:
    """Directional checks of the paper's Sec. IV-B results."""

    def test_compass_throughput_gain_over_baselines(self):
        """Fig. 6: COMPASS improves throughput over greedy and layerwise."""
        graph = build_model("resnet18")
        kwargs = dict(batch_size=16, generate_instructions=False)
        compass = compile_model(graph, CHIP_M, scheme="compass", ga_config=GA, **kwargs)
        greedy = compile_model(graph, CHIP_M, scheme="greedy", **kwargs)
        layerwise = compile_model(graph, CHIP_M, scheme="layerwise", **kwargs)
        assert compass.throughput > greedy.throughput
        assert compass.throughput > layerwise.throughput

    def test_greedy_first_partition_dominates_latency(self):
        """Fig. 7: greedy's first partition takes the lion's share of the time."""
        graph = build_model("resnet18")
        result = compile_model(graph, CHIP_M, scheme="greedy", batch_size=16,
                               generate_instructions=False)
        latencies = result.report.partition_latencies_ns()
        assert latencies[0] / sum(latencies) > 0.5

    def test_layerwise_moves_more_dram_feature_traffic_than_greedy(self):
        """Sec. IV-B1: layerwise increases DRAM access for intermediate features."""
        graph = build_model("resnet18")
        kwargs = dict(batch_size=4, generate_instructions=False)
        greedy = compile_model(graph, CHIP_M, scheme="greedy", **kwargs)
        layerwise = compile_model(graph, CHIP_M, scheme="layerwise", **kwargs)
        assert layerwise.report.feature_traffic_bytes() > greedy.report.feature_traffic_bytes()

    def test_compass_edp_no_worse_than_layerwise(self):
        """Fig. 8: COMPASS wins EDP against layerwise by a wide margin."""
        graph = build_model("resnet18")
        kwargs = dict(batch_size=8, generate_instructions=False)
        compass = compile_model(graph, CHIP_S, scheme="compass", ga_config=GA, **kwargs)
        layerwise = compile_model(graph, CHIP_S, scheme="layerwise", **kwargs)
        assert compass.edp_per_inference < layerwise.edp_per_inference

    def test_weight_energy_amortised_by_batching(self):
        """Fig. 9: weight load energy dominates at batch 1, amortised by batch 16."""
        graph = build_model("resnet18")
        small = compile_model(graph, CHIP_M, scheme="greedy", batch_size=1,
                              generate_instructions=False)
        large = compile_model(graph, CHIP_M, scheme="greedy", batch_size=16,
                              generate_instructions=False)
        small_ratio = (
            small.report.energy_breakdown.weight_load_pj
            / small.report.energy_breakdown.mvm_pj
        )
        large_ratio = (
            large.report.energy_breakdown.weight_load_pj
            / large.report.energy_breakdown.mvm_pj
        )
        assert small_ratio > 1.0  # dominates compute at batch 1
        assert large_ratio < small_ratio / 4  # sufficiently amortised at batch 16

    def test_ga_converges_within_budget(self):
        """Fig. 10: the GA improves fitness and stabilises within the run."""
        graph = build_model("resnet18")
        result = compile_model(graph, CHIP_M, scheme="compass", batch_size=16,
                               ga_config=GAConfig(population_size=16, generations=8,
                                                  n_select=4, n_mutate=12, seed=3),
                               generate_instructions=False)
        history = result.ga_result.history
        assert history[-1].best_fitness <= history[0].best_fitness


class TestInstructionLevelConsistency:
    def test_schedule_covers_model_weights_and_outputs(self):
        graph = build_model("squeezenet")
        result = compile_model(graph, CHIP_S, scheme="greedy", batch_size=2)
        schedule = result.schedule
        counts = schedule.count_by_opcode()
        assert counts[Opcode.WRITE_WEIGHT] >= sum(
            plan.crossbars_used for plan in result.plans
        )
        assert counts[Opcode.MVMUL] > 0
        assert counts[Opcode.STORE_DATA] > 0

    def test_extra_models_also_compile(self):
        for name in ["alexnet", "mobilenet_v1", "lenet5"]:
            graph = build_model(name)
            result = compile_model(graph, CHIP_M, scheme="greedy", batch_size=1,
                                   generate_instructions=False)
            assert result.throughput > 0
