"""Process-wide registry of model graphs and decompositions.

Every experiment, benchmark and sweep that works on the paper's workloads
needs the same handful of (model, chip) decompositions.  Decompositions are
where the span-table engine (:mod:`repro.perf`) attaches its caches, so
sharing them process-wide means a partition span profiled by *any* consumer
— an ablation benchmark, the Fig. 6 sweep, a GA convergence run — is free
for every later consumer in the same process.

Graphs and decompositions are immutable after construction, so sharing is
safe; failed decompositions (model too large for the chip) are not cached
and re-raise for every caller, preserving ``decompose_model`` semantics.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.decomposition import ModelDecomposition, decompose_model
from repro.core.validity import ValidityMap
from repro.graph.graph import Graph
from repro.hardware.config import get_chip_config
from repro.models import build_model

_GRAPHS: Dict[Tuple[str, int], Graph] = {}
_DECOMPOSITIONS: Dict[Tuple[str, int, str, int, int],
                      Tuple[ModelDecomposition, ValidityMap]] = {}


def shared_graph(model: str, input_size: int = 224) -> Graph:
    """Build (and cache process-wide) the graph of a named model."""
    key = (model, input_size)
    graph = _GRAPHS.get(key)
    if graph is None:
        kwargs = {} if model == "lenet5" else {"input_size": input_size}
        graph = build_model(model, **kwargs)
        _GRAPHS[key] = graph
    return graph


def shared_decomposition(
    model: str,
    chip_name: str,
    input_size: int = 224,
    weight_bits: int = 4,
    activation_bits: int = 4,
) -> Tuple[ModelDecomposition, ValidityMap]:
    """Decomposition + validity map of a (model, chip) pair, cached process-wide.

    The returned decomposition carries the shared span table, so all callers
    amortise partition-span profiling against each other.
    """
    key = (model, input_size, chip_name, weight_bits, activation_bits)
    entry = _DECOMPOSITIONS.get(key)
    if entry is None:
        chip = get_chip_config(chip_name)
        decomposition = decompose_model(
            shared_graph(model, input_size), chip,
            weight_bits=weight_bits, activation_bits=activation_bits,
        )
        entry = (decomposition, ValidityMap(decomposition))
        _DECOMPOSITIONS[key] = entry
    return entry


def shared_span_matrix(
    model: str,
    chip_name: str,
    input_size: int = 224,
    weight_bits: int = 4,
    activation_bits: int = 4,
):
    """The dense :class:`~repro.perf.spanmatrix.SpanMatrix` of a shared pair.

    Convenience accessor for benchmarks and experiments that want to warm or
    inspect the dense engine directly; the matrix (and the span table under
    it) is attached to the shared decomposition, so it is the same object
    every evaluator on that decomposition uses.
    """
    from repro.perf.spanmatrix import span_matrix_for

    decomposition, _ = shared_decomposition(
        model, chip_name, input_size=input_size,
        weight_bits=weight_bits, activation_bits=activation_bits,
    )
    return span_matrix_for(decomposition)


def shared_search(
    model: str,
    chip_name: str,
    optimizer: str = "dp",
    batch_size: int = 1,
    mode=None,
    input_size: int = 224,
    weight_bits: int = 4,
    activation_bits: int = 4,
    **search_kwargs,
):
    """A :class:`~repro.search.base.PartitionSearch` over the shared pair.

    Builds the engine on the process-wide decomposition + validity map, so
    every search on a (model, chip) pair — whatever the engine — routes
    through the same shared span table and dense span matrix: the DP's full
    triangle fill makes every later GA / beam / annealing run on the pair
    pure gathers.
    """
    from repro.core.fitness import FitnessEvaluator, FitnessMode
    from repro.search import make_search

    decomposition, validity = shared_decomposition(
        model, chip_name, input_size=input_size,
        weight_bits=weight_bits, activation_bits=activation_bits,
    )
    evaluator = FitnessEvaluator(
        decomposition, batch_size=batch_size,
        mode=mode if mode is not None else FitnessMode.LATENCY,
    )
    return make_search(optimizer, decomposition, evaluator, validity, **search_kwargs)


_PLAN_CACHES: Dict[Tuple[str, object], object] = {}


def shared_plan_cache(optimizer: str = "dp", mode=None, capacity: int = 256):
    """A process-wide :class:`~repro.serve.plans.PlanCache` per configuration.

    Serving experiments and benchmarks that run in one process share plans
    the same way they share decompositions: a plan compiled by any consumer
    (for one ``(optimizer, fitness mode)`` configuration) is a cache hit for
    every later consumer.  The cache compiles through
    :func:`shared_decomposition`, so its misses also warm the span engine
    for everything else in the process.

    The first call for a configuration fixes the cache's capacity; a later
    call asking for a different capacity raises rather than silently handing
    back a cache with different eviction behaviour than requested.
    """
    from repro.core.fitness import FitnessMode
    from repro.serve.plans import PlanCache

    mode = mode if mode is not None else FitnessMode.LATENCY
    key = (optimizer, mode)
    cache = _PLAN_CACHES.get(key)
    if cache is None:
        cache = PlanCache(capacity=capacity, optimizer=optimizer, mode=mode)
        _PLAN_CACHES[key] = cache
    elif cache.capacity != capacity:
        raise ValueError(
            f"shared plan cache for {key} already exists with capacity "
            f"{cache.capacity}; requested {capacity}"
        )
    return cache


def clear_registry() -> None:
    """Drop all cached graphs, decompositions and plan caches (mainly for tests).

    Span tables and matrices attach to the decompositions and refer back to
    them, so each decomposition's caches are detached first: the matrices
    are freed here, not whenever the cycle collector next runs.
    """
    for decomposition, _ in _DECOMPOSITIONS.values():
        decomposition.__dict__.pop("_span_tables", None)
        decomposition.__dict__.pop("_span_matrices", None)
    _GRAPHS.clear()
    _DECOMPOSITIONS.clear()
    _PLAN_CACHES.clear()
