"""Fixed-seed GA and annealing trajectories pinned against captured results.

``TestGAEquivalence`` compares two evaluators that share one GA, so a
change to the GA's own code (mutation operators, sampling, dedup) that
moved its trajectory would pass it.  These pins hold the search code
itself still: for each run, the best boundaries, the ``repr`` of the best
fitness, the evaluation and dedup counts, and a sha256 over every
``GenerationRecord`` field (every ``SearchStep`` for annealing).

``tests/data/ga_pins.json`` was written by this module's own builders::

    PYTHONPATH=src python tests/test_ga_pins.py --capture

Re-capture only in a commit of its own that explains why the trajectory
moved.
"""

import hashlib
import json
import os
import sys

import pytest

from repro.core.fitness import FitnessMode
from repro.core.ga import GAConfig
from repro.evaluation.registry import shared_search

PIN_PATH = os.path.join(os.path.dirname(__file__), "data", "ga_pins.json")


def _ga(model, chip, batch, mode=FitnessMode.LATENCY):
    return lambda: shared_search(model, chip, "ga", batch_size=batch, mode=mode,
                                 ga_config=GAConfig(seed=7)).run()


def _anneal(model, chip, batch):
    return lambda: shared_search(model, chip, "anneal", batch_size=batch, seed=3).run()


#: capture name -> builder returning a ``SearchResult``
RUNS = {
    "ga_vgg16_S_b1": _ga("vgg16", "S", 1),
    "ga_vgg16_S_b16": _ga("vgg16", "S", 16),
    "ga_resnet18_M_b1": _ga("resnet18", "M", 1),
    "ga_resnet18_M_b16": _ga("resnet18", "M", 16),
    "ga_squeezenet_L_b1": _ga("squeezenet", "L", 1),
    "ga_squeezenet_L_b16": _ga("squeezenet", "L", 16),
    "ga_edp_squeezenet_S_b4": _ga("squeezenet", "S", 4, FitnessMode.EDP),
    "anneal_resnet18_M_b4": _anneal("resnet18", "M", 4),
}


def _digest(rows):
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()


def summarize(result):
    """The pinned fields of one search result, as JSON-ready values."""
    ga = result.ga_result
    if ga is not None:
        rows = [[r.generation, repr(r.best_fitness), repr(r.mean_fitness),
                 [repr(f) for f in r.fitnesses], r.num_partitions, r.selected_mask]
                for r in ga.history]
        counts = {"evaluations": ga.evaluations,
                  "unique_evaluations": ga.unique_evaluations,
                  "dedup_hits": ga.dedup_hits}
    else:
        rows = [[s.step, repr(s.best_fitness), repr(s.candidate_fitness),
                 s.accepted, s.num_partitions] for s in result.history]
        counts = {"evaluations": result.evaluations}
    return {"best_boundaries": list(result.best_group.boundaries),
            "best_fitness": repr(result.best_fitness),
            **counts,
            "history_sha256": _digest(rows)}


def _load_pins():
    with open(PIN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_pins_cover_every_run():
    assert sorted(_load_pins()) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_search_matches_pin(name):
    assert summarize(RUNS[name]()) == _load_pins()[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: python tests/test_ga_pins.py --capture")
    pins = {name: summarize(build()) for name, build in sorted(RUNS.items())}
    with open(PIN_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
