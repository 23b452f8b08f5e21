"""Tests for the COMPASS genetic algorithm (Algorithm 1)."""

import pytest

from repro.core.baselines import greedy_partition, layerwise_partition
from repro.core.fitness import FitnessEvaluator
from repro.core.ga import CompassGA, GAConfig
from repro.core.mutation import MutationKind
from repro.core.validity import ValidityMap


SMALL_GA = GAConfig(population_size=12, generations=5, n_select=4, n_mutate=8,
                    early_stop_patience=10, seed=0)


@pytest.fixture(scope="module")
def ga_result(resnet18_decomposition_m):
    d = resnet18_decomposition_m
    evaluator = FitnessEvaluator(d, batch_size=8)
    ga = CompassGA(d, evaluator, SMALL_GA)
    return d, evaluator, ga.run()


class TestGAConfig:
    def test_paper_defaults(self):
        config = GAConfig()
        assert config.population_size == 100
        assert config.generations == 30
        assert config.n_select == 20
        assert config.n_mutate == 80

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            GAConfig(population_size=0)
        with pytest.raises(ValueError):
            GAConfig(n_select=0)
        with pytest.raises(ValueError):
            GAConfig(n_select=200, population_size=100)
        with pytest.raises(ValueError):
            GAConfig(n_mutate=-1)


class TestGARun:
    def test_result_group_is_valid(self, ga_result):
        d, _, result = ga_result
        assert result.best_group.boundaries[-1] == d.num_units
        assert result.best_group.is_valid(d.chip.total_crossbars)

    def test_history_recorded(self, ga_result):
        _, _, result = ga_result
        assert 1 <= len(result.history) <= SMALL_GA.generations
        assert result.generations_run == len(result.history)
        for record in result.history:
            assert len(record.fitnesses) >= SMALL_GA.n_select
            assert len(record.fitnesses) == len(record.num_partitions)
            assert len(record.fitnesses) == len(record.selected_mask)

    def test_best_fitness_never_increases(self, ga_result):
        """Fig. 10: elitist selection keeps the best fitness monotone."""
        _, _, result = ga_result
        best = [record.best_fitness for record in result.history]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(best, best[1:]))

    def test_final_best_at_least_as_good_as_initial(self, ga_result):
        _, _, result = ga_result
        assert result.best_fitness <= result.history[0].best_fitness * (1 + 1e-9)

    def test_best_evaluation_matches_group(self, ga_result):
        _, _, result = ga_result
        assert result.best_evaluation.group.boundaries == result.best_group.boundaries

    def test_evaluation_count_positive(self, ga_result):
        _, _, result = ga_result
        assert result.evaluations >= SMALL_GA.population_size

    def test_ga_beats_or_matches_baselines(self, ga_result):
        """The headline claim: COMPASS finds a partitioning no worse than either baseline."""
        d, evaluator, result = ga_result
        greedy_fitness = evaluator.evaluate(greedy_partition(d)).fitness
        layerwise_fitness = evaluator.evaluate(layerwise_partition(d)).fitness
        assert result.best_fitness <= greedy_fitness * 1.001
        assert result.best_fitness <= layerwise_fitness * 1.001

    def test_deterministic_given_seed(self, resnet18_decomposition_m):
        d = resnet18_decomposition_m
        config = GAConfig(population_size=8, generations=3, n_select=3, n_mutate=5, seed=7)
        r1 = CompassGA(d, FitnessEvaluator(d, batch_size=4), config).run()
        r2 = CompassGA(d, FitnessEvaluator(d, batch_size=4), config).run()
        assert r1.best_group.boundaries == r2.best_group.boundaries
        assert r1.best_fitness == pytest.approx(r2.best_fitness)

    def test_different_seeds_explore_differently(self, resnet18_decomposition_m):
        d = resnet18_decomposition_m
        base = dict(population_size=8, generations=3, n_select=3, n_mutate=5)
        r1 = CompassGA(d, FitnessEvaluator(d, batch_size=4), GAConfig(seed=1, **base)).run()
        r2 = CompassGA(d, FitnessEvaluator(d, batch_size=4), GAConfig(seed=2, **base)).run()
        # not required to differ, but their initial populations should
        assert r1.history[0].fitnesses != r2.history[0].fitnesses


class TestMutationStats:
    # with all four kinds a child never falls back (split and fixed-random
    # always apply); merge alone falls back often, and a repeated kind sums
    @pytest.mark.parametrize("kinds", [None, [MutationKind.MERGE],
                                       [MutationKind.MERGE, MutationKind.MOVE, MutationKind.MERGE]],
                             ids=["all", "merge", "repeated"])
    def test_counts_match_the_mutations_made(self, resnet18_decomposition_m, monkeypatch, kinds):
        """Per kind, tried >= failed; the successes of all kinds are the
        children that did not fall back to their parent, counted here
        independently by watching every ``apply_mutation`` call."""
        import repro.core.ga as ga_module

        outcomes = []  # one list of per-attempt "returned None" flags per child
        real_mutate_one, real_apply = CompassGA._mutate_one, ga_module.apply_mutation

        def mutate_one(self, *args):
            outcomes.append([])
            return real_mutate_one(self, *args)

        def apply(*args):
            result = real_apply(*args)
            outcomes[-1].append(result is None)
            return result

        monkeypatch.setattr(CompassGA, "_mutate_one", mutate_one)
        monkeypatch.setattr(ga_module, "apply_mutation", apply)
        d = resnet18_decomposition_m
        result = CompassGA(d, FitnessEvaluator(d, batch_size=8), SMALL_GA,
                           mutation_kinds=kinds).run()

        stats = result.mutation_stats
        assert sorted(stats) == sorted({kind.value for kind in kinds or MutationKind})
        assert all(counts["tried"] >= counts["failed"] for counts in stats.values())
        successes = sum(counts["tried"] - counts["failed"] for counts in stats.values())
        children = sum(1 for flags in outcomes if not all(flags))
        assert successes == children
        assert sum(counts["tried"] for counts in stats.values()) == sum(map(len, outcomes))
        assert len(outcomes) == result.evaluations - SMALL_GA.population_size


class TestEarlyStopping:
    def test_early_stop_limits_generations(self, squeezenet_decomposition_s):
        """On a model that fits on chip the optimum is found immediately."""
        d = squeezenet_decomposition_s
        config = GAConfig(population_size=8, generations=25, n_select=3, n_mutate=5,
                          early_stop_patience=2, seed=0)
        result = CompassGA(d, FitnessEvaluator(d, batch_size=4), config).run()
        assert result.generations_run < 25

    def test_fully_fitting_model_prefers_few_partitions(self, squeezenet_decomposition_s):
        d = squeezenet_decomposition_s
        config = GAConfig(population_size=16, generations=8, n_select=4, n_mutate=12, seed=0)
        result = CompassGA(d, FitnessEvaluator(d, batch_size=8), config).run()
        # SqueezeNet fits on chip: the GA should not shatter it into dozens of partitions
        assert result.best_group.num_partitions <= 6
