"""Parameter-sweep runner used by the figure experiments.

A sweep point is one (model, chip, scheme, batch size) combination; the
runner compiles it, simulates the execution and returns the flat summary row
used by the figures.  Model graphs, decompositions and validity maps are
cached per (model, chip), so every scheme and batch size of a pair shares
one decomposition — and therefore one span table and one dense span matrix
(:mod:`repro.perf`): a partition span profiled while optimising batch 1 is
free for batch 16, whichever engine requested it first.

Compass points route through the **exact DP engine by default**
(``optimizer="dp"``): in latency mode the DP optimum is provably the best
partition group, so every compass sweep point is exact and deterministic —
no GA seed sensitivity.  Equivalence: the GA lands within a measured ~0.1%
of the DP optimum on the paper's configurations
(:func:`repro.evaluation.experiments.optimality_gap`), so DP-powered sweep
rows bound the GA rows from above on throughput while removing search noise.
Pass ``optimizer="ga"`` for the paper's original search; the Fig. 10
convergence path (:func:`~repro.evaluation.experiments.fig10_ga_convergence`)
keeps the GA unconditionally, as its subject *is* the GA.

For multi-core fan-out of independent sweep points see
:class:`repro.evaluation.parallel.ParallelSweepRunner`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.compiler import CompilationResult, CompilerOptions, CompassCompiler
from repro.core.decomposition import ModelDecomposition
from repro.core.fitness import FitnessMode
from repro.core.ga import GAConfig
from repro.core.validity import ValidityMap
from repro.evaluation.registry import shared_decomposition, shared_graph
from repro.graph.graph import Graph
from repro.hardware.config import get_chip_config


@dataclass(frozen=True)
class SweepPoint:
    """One configuration of a sweep: Network-ChipConfig-BatchSize + scheme."""

    model: str
    chip: str
    scheme: str
    batch_size: int

    @property
    def label(self) -> str:
        """Paper-style label, e.g. ``ResNet18-S-4``."""
        return f"{self.model}-{self.chip}-{self.batch_size}"


class SweepRunner:
    """Compiles and simulates sweep points, caching model graphs."""

    def __init__(
        self,
        ga_config: GAConfig = GAConfig(),
        fitness_mode: FitnessMode = FitnessMode.LATENCY,
        generate_instructions: bool = False,
        input_size: int = 224,
        optimizer: str = "dp",
        optimizer_options: Optional[Dict[str, object]] = None,
    ) -> None:
        self.ga_config = ga_config
        self.fitness_mode = fitness_mode
        self.generate_instructions = generate_instructions
        self.input_size = input_size
        #: partition-search engine for ``compass`` points (``ga``, ``dp``,
        #: ``beam``, ``anneal``); the default DP engine makes every compass
        #: point one exact shortest-path solve over the shared span matrix
        #: instead of a GA run (see the module docstring)
        self.optimizer = optimizer
        self.optimizer_options: Dict[str, object] = dict(optimizer_options or {})
        self._graphs: Dict[str, Graph] = {}
        self._results: Dict[SweepPoint, CompilationResult] = {}
        self._decompositions: Dict[Tuple[str, str], Tuple[ModelDecomposition, ValidityMap]] = {}

    # ------------------------------------------------------------------
    def graph(self, model: str) -> Graph:
        """Model graph for a model name (shared process-wide)."""
        if model not in self._graphs:
            self._graphs[model] = shared_graph(model, self.input_size)
        return self._graphs[model]

    def decomposition(self, model: str, chip_name: str) -> Tuple[ModelDecomposition, ValidityMap]:
        """Decomposition + validity map of a pair (shared process-wide).

        Sharing one decomposition across all schemes and batch sizes of a
        (model, chip) pair — and across runners in the same process — is
        what lets the span table amortise partition profiling across the
        whole sweep.
        """
        key = (model, chip_name)
        if key not in self._decompositions:
            self._decompositions[key] = shared_decomposition(
                model, chip_name, input_size=self.input_size
            )
        return self._decompositions[key]

    def run_point(self, point: SweepPoint) -> CompilationResult:
        """Compile and simulate one sweep point (cached)."""
        if point in self._results:
            return self._results[point]
        chip = get_chip_config(point.chip)
        options = CompilerOptions(
            scheme=point.scheme,
            batch_size=point.batch_size,
            optimizer=self.optimizer,
            optimizer_options=dict(self.optimizer_options),
            ga_config=self.ga_config,
            fitness_mode=self.fitness_mode,
            generate_instructions=self.generate_instructions,
        )
        decomposition, validity = self.decomposition(point.model, point.chip)
        result = CompassCompiler(chip, options).compile(
            self.graph(point.model), decomposition=decomposition, validity=validity,
        )
        self._results[point] = result
        return result

    def run(
        self,
        models: Iterable[str],
        chips: Iterable[str],
        schemes: Iterable[str],
        batch_sizes: Iterable[int],
    ) -> List[Dict[str, object]]:
        """Run the full cross product and return summary rows."""
        rows: List[Dict[str, object]] = []
        for model in models:
            for chip in chips:
                for batch in batch_sizes:
                    for scheme in schemes:
                        point = SweepPoint(model=model, chip=chip, scheme=scheme, batch_size=batch)
                        result = self.run_point(point)
                        row = result.report.summary_row()
                        row["label"] = point.label
                        rows.append(row)
        return rows
