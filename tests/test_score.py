"""Tests for repro.core.score: partition score R (Sec. III-C2)."""

import numpy as np
import pytest

import repro.core.ga as ga_module
import repro.search.anneal as anneal_module
from repro.core.baselines import greedy_partition, layerwise_partition
from repro.core.fitness import FitnessEvaluator
from repro.core.score import partition_scores, population_unit_expectation
from test_ga_pins import RUNS, _load_pins, summarize


def unit_fitness_profile(evaluation, num_units):
    """Oracle: per-unit fitness m(x_i) of one group, one partition at a time."""
    profile = np.zeros(num_units, dtype=float)
    for (start, end), fitness in zip(evaluation.group.spans(), evaluation.partition_fitness):
        profile[start:end] = fitness / (end - start)
    return profile


def naive_expectation(evaluations, num_units):
    """Oracle: the axis-0 mean of a stack of per-group profiles."""
    return np.stack([unit_fitness_profile(ev, num_units) for ev in evaluations]).mean(axis=0)


@pytest.fixture(scope="module")
def evaluated_population(resnet18_decomposition_m):
    d = resnet18_decomposition_m
    evaluator = FitnessEvaluator(d, batch_size=4)
    groups = [greedy_partition(d), layerwise_partition(d)]
    return d, [evaluator.evaluate(g) for g in groups]


class TestUnitProfile:
    def test_profile_length(self, evaluated_population):
        d, evals = evaluated_population
        profile = unit_fitness_profile(evals[0], d.num_units)
        assert profile.shape == (d.num_units,)

    def test_profile_sum_equals_group_fitness(self, evaluated_population):
        """sum_i m(x_i) over all units equals the PGF by construction."""
        d, evals = evaluated_population
        for ev in evals:
            profile = unit_fitness_profile(ev, d.num_units)
            assert profile.sum() == pytest.approx(ev.fitness)

    def test_profile_constant_within_partition(self, evaluated_population):
        d, evals = evaluated_population
        ev = evals[0]
        profile = unit_fitness_profile(ev, d.num_units)
        for (start, end), fitness in zip(ev.group.spans(), ev.partition_fitness):
            assert np.allclose(profile[start:end], fitness / (end - start))


class TestExpectation:
    def test_expectation_is_mean_of_profiles(self, evaluated_population):
        d, evals = evaluated_population
        expectation = population_unit_expectation(evals, d.num_units)
        assert np.array_equal(expectation, naive_expectation(evals, d.num_units))

    def test_empty_population_rejected(self, evaluated_population):
        d, _ = evaluated_population
        with pytest.raises(ValueError):
            population_unit_expectation([], d.num_units)


class TestScores:
    def test_one_score_per_partition(self, evaluated_population):
        d, evals = evaluated_population
        expectation = population_unit_expectation(evals, d.num_units)
        for ev in evals:
            scores = partition_scores(ev, expectation)
            assert len(scores) == ev.group.num_partitions
            assert all(s > 0 for s in scores)

    def test_identical_population_scores_are_one(self, evaluated_population):
        """If every individual is the same group, every score R is exactly 1."""
        d, evals = evaluated_population
        ev = evals[0]
        expectation = population_unit_expectation([ev, ev, ev], d.num_units)
        scores = partition_scores(ev, expectation)
        assert np.allclose(scores, 1.0)

    def test_worse_partition_scores_higher(self, evaluated_population):
        """A partition whose units do better elsewhere in the population gets R > 1."""
        d, evals = evaluated_population
        expectation = population_unit_expectation(evals, d.num_units)
        all_scores = [s for ev in evals for s in partition_scores(ev, expectation)]
        assert max(all_scores) > 1.0
        assert min(all_scores) < 1.0 + 1e-9


@pytest.mark.parametrize("name", sorted(RUNS))
def test_pinned_runs_match_naive_expectation(name, monkeypatch):
    """Every expectation of every pinned GA generation (and the annealer's
    one) equals the naive profile stack bit for bit, on the pinned
    trajectory."""
    checked = []

    def checking(evaluations, num_units):
        expectation = population_unit_expectation(evaluations, num_units)
        assert np.array_equal(expectation, naive_expectation(evaluations, num_units))
        checked.append(len(evaluations))
        return expectation

    monkeypatch.setattr(ga_module, "population_unit_expectation", checking)
    monkeypatch.setattr(anneal_module, "population_unit_expectation", checking)
    result = RUNS[name]()
    assert summarize(result) == _load_pins()[name]
    # the GA scores every generation but an early-stopped last one
    assert checked
    if result.ga_result is not None:
        assert len(checked) >= len(result.ga_result.history) - 1
