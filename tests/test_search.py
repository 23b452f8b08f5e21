"""Tests for the partition-search subsystem (``repro.search``).

The load-bearing contracts:

* ``DPOptimalSearch`` is *exact* in latency mode — equal to brute-force
  enumeration on a small model, and never beaten by any other engine on any
  registry model (the optimum is a hard floor, asserted with ``<=`` on raw
  floats: the DP's left-to-right accumulation is bit-identical to the
  evaluator's sequential sums, so no tolerance is needed).
* ``GASearch`` is a *transparent* adapter: fixed-seed results are
  bit-identical to driving ``CompassGA`` directly.
* The EDP-mode Pareto DP is exact while its frontier is not truncated.
"""

import numpy as np
import pytest

from repro.core.fitness import FitnessEvaluator, FitnessMode
from repro.core.decomposition import decompose_model
from repro.core.ga import CompassGA, GAConfig
from repro.core.partition import PartitionGroup
from repro.evaluation.registry import shared_decomposition
from repro.hardware.config import get_chip_config
from repro.models import build_model, list_models
from repro.perf import span_matrix_for
from repro.search import (
    BeamSearch,
    DPOptimalSearch,
    GASearch,
    OPTIMIZERS,
    SimulatedAnnealing,
    make_search,
)
from repro.sim.report import render_search_summary
from test_mutation import group_valid
from test_perf_equivalence import NaiveFitnessEvaluator

FAST_GA = GAConfig(
    population_size=24, generations=8, n_select=6, n_mutate=18,
    early_stop_patience=4, seed=0,
)


def enumerate_boundary_groups(validity, start=0):
    """All valid boundary tuples of a decomposition (exponential; tiny models)."""
    if start == validity.num_units:
        yield ()
        return
    for end in range(start + 1, validity.max_end(start) + 1):
        for rest in enumerate_boundary_groups(validity, end):
            yield (end,) + rest


class TestDPOptimalSearch:
    def test_matches_brute_force_on_small_model(self):
        decomposition, validity = shared_decomposition("lenet5", "S")
        assert decomposition.num_units <= 12
        evaluator = FitnessEvaluator(decomposition, batch_size=2)
        brute = min(
            evaluator.evaluate(
                PartitionGroup.from_boundaries(decomposition, bounds)
            ).fitness
            for bounds in enumerate_boundary_groups(validity)
        )
        result = DPOptimalSearch(decomposition, evaluator, validity).run()
        assert result.exact
        assert result.best_fitness == brute

    def test_edp_pareto_dp_matches_brute_force(self):
        decomposition, validity = shared_decomposition("lenet5", "S")
        evaluator = FitnessEvaluator(decomposition, batch_size=2, mode=FitnessMode.EDP)
        result = DPOptimalSearch(decomposition, evaluator, validity).run()
        assert result.exact  # lenet5 frontiers are far below the cap

        def group_edp(bounds):
            estimates = evaluator.span_table.estimate_group(
                PartitionGroup.from_boundaries(decomposition, bounds), 2
            )
            return (
                sum(e.energy_pj for e in estimates)
                * sum(e.latency_ns for e in estimates)
            )

        brute = min(group_edp(b) for b in enumerate_boundary_groups(validity))
        best = result.best_evaluation
        assert best.total_energy_pj * best.total_latency_ns == brute

    def test_dp_equals_fitness_of_reconstructed_group(self):
        decomposition, validity = shared_decomposition("squeezenet", "S")
        evaluator = FitnessEvaluator(decomposition, batch_size=4)
        result = DPOptimalSearch(decomposition, evaluator, validity).run()
        # the DP's accumulated optimum IS the evaluator's fitness, bit for bit
        assert result.best_fitness == evaluator.evaluate(result.best_group).fitness
        # history records one step per cut position
        assert result.steps_run == decomposition.num_units
        assert result.history[-1].best_fitness == result.best_fitness

    def test_dp_identical_with_and_without_span_matrix(self):
        """The DP's matrix-gathered optimum equals the naive oracle's fitness."""
        decomposition, validity = shared_decomposition("squeezenet", "M")
        result = DPOptimalSearch(
            decomposition, FitnessEvaluator(decomposition, batch_size=4), validity,
        ).run()
        oracle = NaiveFitnessEvaluator(decomposition, batch_size=4)
        assert result.best_fitness == oracle.evaluate(result.best_group).fitness

    def test_rejects_mismatched_evaluator(self):
        decomposition, _ = shared_decomposition("lenet5", "S")
        other, _ = shared_decomposition("squeezenet", "S")
        with pytest.raises(ValueError, match="different decomposition"):
            DPOptimalSearch(decomposition, FitnessEvaluator(other))


class TestOptimumIsFloor:
    """DP fitness <= every heuristic engine, on every registry model."""

    @pytest.mark.parametrize("model", list_models())
    @pytest.mark.parametrize("chip", ["S", "L"])
    def test_dp_below_all_heuristics(self, model, chip):
        try:
            decomposition, validity = shared_decomposition(model, chip)
        except Exception:
            pytest.skip(f"{model} does not decompose on chip {chip}")
        evaluator = FitnessEvaluator(decomposition, batch_size=4)
        optimum = DPOptimalSearch(decomposition, evaluator, validity).run()
        assert optimum.exact
        heuristics = {
            "ga": GASearch(decomposition, evaluator, validity, ga_config=FAST_GA),
            "beam": BeamSearch(decomposition, evaluator, validity, width=6),
            "anneal": SimulatedAnnealing(
                decomposition, evaluator, validity, steps=150, seed=0
            ),
        }
        for name, engine in heuristics.items():
            result = engine.run()
            assert optimum.best_fitness <= result.best_fitness, (
                f"{name} beat the 'exact' DP on {model}-{chip}"
            )
            # every engine returns a full, valid partitioning
            assert result.best_group.boundaries[-1] == decomposition.num_units
            assert group_valid(validity, result.best_group.boundaries)


class TestGASearchAdapter:
    def test_bit_identical_to_compass_ga(self):
        decomposition, validity = shared_decomposition("squeezenet", "S")
        evaluator = FitnessEvaluator(decomposition, batch_size=4)
        direct = CompassGA(decomposition, evaluator, FAST_GA, validity).run()
        adapted = GASearch(
            decomposition, evaluator, validity, ga_config=FAST_GA
        ).run()
        assert adapted.best_fitness == direct.best_fitness
        assert adapted.best_group.boundaries == direct.best_group.boundaries
        assert adapted.ga_result is not None
        assert adapted.ga_result.generations_run == direct.generations_run
        assert len(adapted.ga_result.history) == len(direct.history)
        for ours, theirs in zip(adapted.ga_result.history, direct.history):
            assert ours.fitnesses == theirs.fitnesses
            assert ours.num_partitions == theirs.num_partitions
            assert ours.selected_mask == theirs.selected_mask
        # the search-level history mirrors the GA generations
        assert [s.step for s in adapted.history] == [
            r.generation for r in direct.history
        ]
        assert [s.best_fitness for s in adapted.history] == [
            r.best_fitness for r in direct.history
        ]


class TestHeuristicEngines:
    def test_beam_deterministic_and_width_validated(self):
        decomposition, validity = shared_decomposition("squeezenet", "M")
        evaluator = FitnessEvaluator(decomposition, batch_size=2)
        first = BeamSearch(decomposition, evaluator, validity, width=4).run()
        second = BeamSearch(decomposition, evaluator, validity, width=4).run()
        assert first.best_group.boundaries == second.best_group.boundaries
        assert first.best_fitness == second.best_fitness
        with pytest.raises(ValueError, match="width"):
            BeamSearch(decomposition, evaluator, validity, width=0)

    def test_anneal_fixed_seed_reproducible(self):
        decomposition, validity = shared_decomposition("squeezenet", "M")
        evaluator = FitnessEvaluator(decomposition, batch_size=2)
        first = SimulatedAnnealing(
            decomposition, evaluator, validity, steps=100, seed=7
        ).run()
        second = SimulatedAnnealing(
            decomposition, evaluator, validity, steps=100, seed=7
        ).run()
        assert first.best_group.boundaries == second.best_group.boundaries
        assert first.best_fitness == second.best_fitness
        assert first.steps_run == 100
        assert len(first.history) == 100
        # best-so-far trace is monotonically non-increasing
        trace = [step.best_fitness for step in first.history]
        assert all(b <= a for a, b in zip(trace, trace[1:]))

    def test_edp_dp_fills_energy_from_records_not_profiles(self):
        """A fresh table's EDP DP builds one energy record per span geometry
        of its energy cells.

        The search and its final evaluation of the best group (a span-matrix
        gather) build no full profile; the best group's estimates build one
        per partition when they are first read.
        """
        decomposition = decompose_model(build_model("squeezenet"), get_chip_config("M"))
        evaluator = FitnessEvaluator(decomposition, batch_size=4, mode=FitnessMode.EDP)
        result = DPOptimalSearch(decomposition, evaluator).run()
        matrix = span_matrix_for(decomposition)
        starts, ends = np.nonzero(matrix._have_energy)
        assert len(starts) > 0
        geometries = len(np.unique(decomposition.index.span_keys(starts, ends), axis=0))
        assert result.span_stats["energy_records_computed"] == geometries
        assert result.span_stats["profiles_computed"] == 0
        assert (f"0 computed, {geometries} energy records"
                in render_search_summary(result))
        assert len(result.best_evaluation.estimates) == result.best_group.num_partitions
        assert evaluator.span_table.stats.profiles_computed == result.best_group.num_partitions

    def test_search_results_report_span_stats(self):
        decomposition, validity = shared_decomposition("squeezenet", "M")
        evaluator = FitnessEvaluator(decomposition, batch_size=2)
        result = BeamSearch(decomposition, evaluator, validity, width=2).run()
        assert result.span_stats  # span table engaged -> per-run delta stats
        assert result.evaluations > 0


class TestFactory:
    def test_all_registered_engines_construct(self):
        decomposition, validity = shared_decomposition("lenet5", "S")
        for name in OPTIMIZERS:
            evaluator = FitnessEvaluator(decomposition, batch_size=1)
            engine = make_search(name, decomposition, evaluator, validity)
            assert engine.name == name
            result = engine.run()
            assert result.optimizer == name
            assert result.best_group.boundaries[-1] == decomposition.num_units

    def test_unknown_optimizer_raises(self):
        decomposition, validity = shared_decomposition("lenet5", "S")
        evaluator = FitnessEvaluator(decomposition)
        with pytest.raises(ValueError, match="unknown optimizer 'magic'"):
            make_search("magic", decomposition, evaluator, validity)


class TestEDPFrontierInstrumentation:
    def test_frontier_sizes_recorded(self):
        decomposition, validity = shared_decomposition("lenet5", "S")
        evaluator = FitnessEvaluator(decomposition, batch_size=4, mode=FitnessMode.EDP)
        search = DPOptimalSearch(decomposition, evaluator, validity)
        assert search.frontier_sizes is None
        result = search.run()
        assert result.exact
        assert len(search.frontier_sizes) == decomposition.num_units
        assert all(size >= 1 for size in search.frontier_sizes)

    def test_latency_mode_leaves_frontier_unset(self):
        decomposition, validity = shared_decomposition("lenet5", "S")
        evaluator = FitnessEvaluator(decomposition, batch_size=4)
        search = DPOptimalSearch(decomposition, evaluator, validity)
        search.run()
        assert search.frontier_sizes is None

    def test_uncapped_matches_default_cap(self):
        decomposition, validity = shared_decomposition("squeezenet", "S")
        evaluator = FitnessEvaluator(decomposition, batch_size=4, mode=FitnessMode.EDP)
        capped = DPOptimalSearch(decomposition, evaluator, validity).run()
        uncapped = DPOptimalSearch(
            decomposition, evaluator, validity, max_frontier=0
        ).run()
        assert capped.exact and uncapped.exact
        assert capped.best_group.boundaries == uncapped.best_group.boundaries
        assert capped.best_fitness == uncapped.best_fitness

    def test_max_frontier_validation(self):
        decomposition, validity = shared_decomposition("lenet5", "S")
        evaluator = FitnessEvaluator(decomposition, batch_size=1, mode=FitnessMode.EDP)
        with pytest.raises(ValueError, match="max_frontier"):
            DPOptimalSearch(decomposition, evaluator, validity, max_frontier=1)
        # 0 is the documented "uncapped" setting
        DPOptimalSearch(decomposition, evaluator, validity, max_frontier=0).run()

    def test_tight_cap_thins_and_reports_inexact(self):
        decomposition, validity = shared_decomposition("mobilenet_v1", "S")
        evaluator = FitnessEvaluator(decomposition, batch_size=4, mode=FitnessMode.EDP)
        search = DPOptimalSearch(decomposition, evaluator, validity, max_frontier=2)
        result = search.run()
        # mobilenet's real frontiers exceed 2 states, so thinning must engage
        assert max(search.frontier_sizes) > 2
        assert not result.exact
