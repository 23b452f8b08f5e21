"""Layer spans recorded from the benchmark's side of each public call.

The traced run wraps the public entry points of every layer named in
``LAYERS`` and records one span per call: layer, start, end and the
enclosing span.  Spans live in flat ``array`` columns (a few bytes each,
so a 700k-span serving cycle stays small) and are written out once, at
the end of the run.  Nothing inside ``src/`` changes: a wrapper replaces
the function wherever a ``repro`` module holds a reference to it, which
also catches ``from module import name`` bindings (the on-chip estimator
imports the mapping functions that way, so patching only their home
module would miss every call).

The fill wrapper also keeps its own record of which span-matrix cells it
has seen requested, so the number of cells filled can be checked against
the program's ``SpanTableStats.matrix_fills`` without reading it.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Callable, Dict, List, Tuple

import numpy as np

from arith import self_times


def layer_targets() -> List[Tuple[str, list]]:
    """``(layer, [targets])`` for every traced layer, in report order.

    A target is a function (wrapped at every module binding) or a
    ``(class, method name)`` pair (wrapped on the class).
    """
    from repro.core import baselines
    from repro.core.compiler import CompassCompiler
    from repro.core.decomposition import decompose_model
    from repro.core.fitness import FitnessEvaluator
    from repro.evaluation.registry import shared_graph
    from repro.mapping.core_mapping import max_core_crossbars_only
    from repro.mapping.replication import replication_factor_list
    from repro.onchip.estimator import PartitionEstimator
    from repro.perf.spanmatrix import SpanMatrix
    from repro.search.dp import DPOptimalSearch
    from repro.search.ga_adapter import GASearch
    from repro.serve import faults, traffic
    from repro.serve.control import Controller
    from repro.serve.plans import PlanCache
    from repro.serve.scheduler import DynamicBatcher, SchedulingPolicy
    from repro.serve.simulator import ServingSimulator
    from repro.serve.telemetry import TelemetrySession, TimelineAccumulator
    from repro.sim.simulator import ExecutionSimulator

    policies = [(cls, "choose_worker") for cls in _subclasses(SchedulingPolicy)
                if "choose_worker" in cls.__dict__
                and not getattr(cls.__dict__["choose_worker"], "__isabstractmethod__", False)]
    telemetry_hooks = ("arrival", "shed", "retry", "queue_exit", "timeout", "lost",
                       "fault", "dispatch", "completion", "end_service",
                       "batch_killed", "tick", "finish", "fill_histograms", "snapshot")
    return [
        ("models", [shared_graph]),
        ("core.decomposition", [decompose_model]),
        ("perf.fill", [(SpanMatrix, "ensure_spans")]),
        ("onchip.slim_profile", [(PartitionEstimator, "slim_profile")]),
        ("onchip.profile", [(PartitionEstimator, "profile")]),
        ("mapping.replication", [replication_factor_list]),
        ("mapping.core_mapping", [max_core_crossbars_only]),
        ("search.dp", [(DPOptimalSearch, "run")]),
        ("search.ga", [(GASearch, "run")]),
        ("core.fitness", [(FitnessEvaluator, "evaluate_many")]),
        ("core.baselines", [baselines.greedy_partition, baselines.layerwise_partition]),
        ("core.compiler", [(CompassCompiler, "compile")]),
        ("sim", [(ExecutionSimulator, "simulate")]),
        ("serve.plans", [(PlanCache, "get")]),
        ("serve.scheduler", policies + [(DynamicBatcher, "choose")]),
        ("serve.simulator", [(ServingSimulator, "run")]),
        ("serve.control", [(Controller, "assess")]),
        ("serve.faults", [faults.materialize, traffic.retry_request]),
        ("serve.telemetry", [(TelemetrySession, hook) for hook in telemetry_hooks]
         + [(TimelineAccumulator, "sample")]),
        ("serve.traffic", [(cls, "generate") for cls in _subclasses(traffic.TrafficGenerator)
                           if "generate" in cls.__dict__]
         + [(traffic.TrafficGenerator, "generate"),
            (traffic.ClosedLoopSession, "initial"),
            (traffic.ClosedLoopSession, "on_complete")]),
    ]


def _subclasses(cls) -> list:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


class Tracer:
    """Span recorder plus the patches that feed it.

    ``install()`` wraps every target and ``uninstall()`` puts the
    originals back, so the untraced cycles of a traced run execute the
    program exactly as an untraced run does.  ``active`` gates recording
    while the patches are in place.

    The fill wrapper counts cells on its own: ``fill_requests`` is every
    cell requested and ``fill_new`` every cell requested for the first
    time since ``reset()``.  On matrices created after the reset, the
    first requests are exactly the fills.
    """

    def __init__(self) -> None:
        self.layers: List[str] = []
        self.active = False
        self.names = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self._stack = [-1]
        self._restore: List[Callable[[], None]] = []
        #: fill wrapper's own counts: cells requested and first requests
        self.fill_requests = 0
        self.fill_new = 0
        #: largest EDP Pareto frontier any DP run reported
        self.frontier_max = 0
        self._seen: Dict[int, np.ndarray] = {}
        self._matrices: list = []

    # ------------------------------------------------------------------
    def install(self) -> None:
        self.layers = []
        for layer, targets in layer_targets():
            index = len(self.layers)
            self.layers.append(layer)
            for target in targets:
                if isinstance(target, tuple):
                    self._patch_method(index, *target)
                else:
                    self._patch_function(index, target)

    def uninstall(self) -> None:
        for restore in reversed(self._restore):
            restore()
        self._restore.clear()

    def _wrap(self, index: int, fn: Callable) -> Callable:
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = len(names)
            names.append(index)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(span)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()

        return traced

    def _patch_function(self, index: int, fn: Callable) -> None:
        wrapper = self._wrap(index, fn)
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")) or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._restore.append(
                        functools.partial(setattr, module, attr, fn))

    def _patch_method(self, index: int, cls, name: str) -> None:
        original = getattr(cls, name)
        own = cls.__dict__.get(name)
        fn = original
        if cls.__name__ == "SpanMatrix" and name == "ensure_spans":
            fn = self._counting_fill(original)
        elif cls.__name__ == "DPOptimalSearch" and name == "run":
            fn = self._frontier_watch(original)
        setattr(cls, name, self._wrap(index, fn))
        if own is None:
            self._restore.append(functools.partial(delattr, cls, name))
        else:
            self._restore.append(functools.partial(setattr, cls, name, own))

    def _counting_fill(self, ensure_spans: Callable) -> Callable:
        """``ensure_spans`` that also counts, on its own, the cells it fills."""
        tracer = self

        @functools.wraps(ensure_spans)
        def counted(matrix, starts, ends):
            if tracer.active:
                seen = tracer._seen.get(id(matrix))
                if seen is None:
                    size = matrix.num_units + 1
                    seen = np.zeros((size, size), dtype=bool)
                    tracer._seen[id(matrix)] = seen
                    tracer._matrices.append(matrix)  # keeps the id unique
                starts_arr = np.asarray(starts)
                ends_arr = np.asarray(ends)
                fresh = ~seen[starts_arr, ends_arr]
                tracer.fill_requests += int(starts_arr.size)
                if fresh.any():
                    cells = np.unique(np.stack([starts_arr[fresh], ends_arr[fresh]]), axis=1)
                    tracer.fill_new += int(cells.shape[1])
                    seen[cells[0], cells[1]] = True
            return ensure_spans(matrix, starts, ends)

        return counted

    def _frontier_watch(self, run: Callable) -> Callable:
        """``DPOptimalSearch.run`` that records the largest EDP frontier."""
        tracer = self

        @functools.wraps(run)
        def watched(search):
            result = run(search)
            if tracer.active and search.frontier_sizes:
                tracer.frontier_max = max(tracer.frontier_max, max(search.frontier_sizes))
            return result

        return watched

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop recorded spans and counts (the patches stay)."""
        for column in (self.names, self.starts, self.ends, self.parents):
            del column[:]
        self._stack[:] = [-1]
        self.fill_requests = 0
        self.fill_new = 0
        self.frontier_max = 0
        self._seen.clear()
        self._matrices.clear()

    def per_layer(self) -> Dict[str, Tuple[int, float]]:
        """``layer -> (calls, self seconds)`` over the recorded spans."""
        calls, self_ns = self_times(self.names, self.starts, self.ends,
                                    self.parents, len(self.layers))
        return {layer: (int(calls[i]), float(self_ns[i]) * 1e-9)
                for i, layer in enumerate(self.layers)}

    def dump(self, path: str) -> None:
        """Write the recorded spans (compressed NumPy archive)."""
        np.savez_compressed(
            path,
            layers=np.array(self.layers),
            name=np.frombuffer(self.names, dtype=np.int32),
            start_ns=np.frombuffer(self.starts, dtype=np.int64),
            end_ns=np.frombuffer(self.ends, dtype=np.int64),
            parent=np.frombuffer(self.parents, dtype=np.int64),
        )
