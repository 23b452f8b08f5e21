"""End-to-end COMPASS compiler driver.

Ties the three components of Fig. 3 together:

1. **Partition generator** — decompose the model into partition units and
   build the validity map.
2. **Partition optimizer** — run a :mod:`repro.search` engine (the COMPASS
   GA by default; the exact DP, beam search or simulated annealing via
   ``optimizer=``) or a baseline scheme to choose the partition group, using
   the on-chip estimator as fitness oracle.
3. **Scheduler** — build per-partition execution plans and generate the
   per-core instruction streams, then simulate the execution to obtain the
   final latency/energy report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.baselines import greedy_partition, layerwise_partition
from repro.core.decomposition import ModelDecomposition, decompose_model
from repro.core.fitness import FitnessEvaluator, FitnessMode
from repro.core.ga import CompassGA, GAConfig, GAResult
from repro.core.partition import PartitionGroup
from repro.core.validity import ValidityMap
from repro.graph.graph import Graph
from repro.hardware.chip import ChipConfig
from repro.hardware.dram import DRAMConfig, LPDDR3_8GB
from repro.isa.scheduler import InstructionScheduler, ModelSchedule
from repro.onchip.plan import PartitionPlan
from repro.perf.spantable import span_table_for
from repro.sim.simulator import ExecutionReport, ExecutionSimulator

if TYPE_CHECKING:
    from repro.search import SearchResult

# repro.search is imported lazily inside the functions below:
# ``repro.core.__init__`` imports this module eagerly, and the search
# package imports ``repro.core`` submodules, so a top-level import here
# would close an import cycle.

#: Recognised partitioning schemes.
SCHEMES = ("compass", "greedy", "layerwise")


@dataclass(frozen=True)
class CompilerOptions:
    """User-facing knobs of the COMPASS compiler."""

    scheme: str = "compass"
    batch_size: int = 1
    weight_bits: int = 4
    activation_bits: int = 4
    fitness_mode: FitnessMode = FitnessMode.LATENCY
    #: partition-search engine for the ``compass`` scheme: one of the
    #: :data:`repro.search.OPTIMIZERS` names (``ga``, ``dp``, ``beam``,
    #: ``anneal``)
    optimizer: str = "ga"
    #: extra engine constructor arguments (e.g. ``{"width": 16}`` for beam,
    #: ``{"steps": 1000}`` for annealing, ``{"max_frontier": 0}`` for DP)
    optimizer_options: Dict[str, object] = field(default_factory=dict)
    ga_config: GAConfig = field(default_factory=GAConfig)
    dram_config: DRAMConfig = LPDDR3_8GB
    #: generate per-core instruction streams (slower; off for pure estimation)
    generate_instructions: bool = True
    #: replay the scheduler's DRAM trace through the LPDDR3 model
    simulate_dram_trace: bool = False

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.optimizer != "ga":  # defer the search import for the default
            from repro.search import validate_optimizer

            validate_optimizer(self.optimizer)


@dataclass
class CompilationResult:
    """Everything the compiler produces for one (model, chip, options) triple."""

    graph: Graph
    chip: ChipConfig
    options: CompilerOptions
    decomposition: ModelDecomposition
    validity: ValidityMap
    group: PartitionGroup
    plans: List[PartitionPlan]
    report: ExecutionReport
    schedule: Optional[ModelSchedule] = None
    ga_result: Optional[GAResult] = None
    #: full search outcome when a :mod:`repro.search` engine chose the group
    #: (``None`` for the greedy/layerwise baseline schemes)
    search_result: Optional["SearchResult"] = None

    # ------------------------------------------------------------------
    @property
    def supported(self) -> bool:
        """Whether the model could be compiled for this chip at all."""
        return self.group is not None

    @property
    def num_partitions(self) -> int:
        """Number of partitions in the chosen group."""
        return self.group.num_partitions

    @property
    def throughput(self) -> float:
        """Throughput of the compiled execution (inferences/s)."""
        return self.report.throughput

    @property
    def edp_per_inference(self) -> float:
        """EDP per inference of the compiled execution (mJ x ms)."""
        return self.report.edp_per_inference

    def summary(self) -> str:
        """One-paragraph text summary."""
        lines = [
            f"COMPASS compilation of {self.graph.name} for Chip-{self.chip.name} "
            f"({self.options.scheme}, batch {self.options.batch_size})",
            f"  model weights        : {self.decomposition.total_weight_bytes() / 1e6:.2f} MB "
            f"(chip capacity {self.chip.weight_capacity_mb:.3f} MB)",
            f"  partition units      : {self.decomposition.num_units}",
            f"  partitions           : {self.num_partitions}",
            f"  throughput           : {self.report.throughput:.1f} inf/s",
            f"  energy per inference : {self.report.energy_per_inference_mj:.3f} mJ",
            f"  EDP per inference    : {self.report.edp_per_inference:.4f} mJ*ms",
        ]
        if self.schedule is not None:
            lines.append(f"  instructions         : {self.schedule.total_instructions:,}")
        if self.ga_result is not None:
            lines.append(
                f"  GA generations       : {self.ga_result.generations_run} "
                f"({self.ga_result.evaluations} evaluations)"
            )
        elif self.search_result is not None:
            result = self.search_result
            exactness = "exact optimum" if result.exact else "heuristic"
            lines.append(
                f"  optimizer            : {result.optimizer} ({exactness}, "
                f"{result.evaluations} evaluations)"
            )
        return "\n".join(lines)


class CompassCompiler:
    """Compiles a DNN graph onto a resource-constrained crossbar PIM chip."""

    def __init__(self, chip: ChipConfig, options: CompilerOptions = CompilerOptions()) -> None:
        self.chip = chip
        self.options = options

    # ------------------------------------------------------------------
    def _choose_group(
        self,
        decomposition: ModelDecomposition,
        validity: ValidityMap,
    ) -> (PartitionGroup, Optional[GAResult], "Optional[SearchResult]"):
        options = self.options
        if options.scheme == "greedy":
            return greedy_partition(decomposition, validity), None, None
        if options.scheme == "layerwise":
            return layerwise_partition(decomposition, validity), None, None
        from repro.search import make_search

        evaluator = FitnessEvaluator(
            decomposition,
            batch_size=options.batch_size,
            mode=options.fitness_mode,
            dram_config=options.dram_config,
        )
        kwargs = dict(options.optimizer_options)
        if options.optimizer == "ga":
            kwargs.setdefault("ga_config", options.ga_config)
        search = make_search(
            options.optimizer, decomposition, evaluator, validity, **kwargs
        )
        result = search.run()
        return result.best_group, result.ga_result, result

    # ------------------------------------------------------------------
    def compile(
        self,
        graph: Graph,
        decomposition: Optional[ModelDecomposition] = None,
        validity: Optional[ValidityMap] = None,
    ) -> CompilationResult:
        """Compile a model graph and return the full compilation result.

        A ``decomposition`` (and its ``validity`` map) built elsewhere may be
        passed in to reuse them across compilations — the sweep runner does
        this so all schemes and batch sizes of one (model, chip) pair share
        one decomposition and hence one span table.  The caller must ensure
        they were built for the same graph, chip and precisions.
        """
        options = self.options
        if decomposition is None:
            decomposition = decompose_model(
                graph, self.chip, weight_bits=options.weight_bits,
                activation_bits=options.activation_bits,
            )
        if validity is None:
            validity = ValidityMap(decomposition)
        group, ga_result, search_result = self._choose_group(decomposition, validity)

        # Plans come from the shared span table: spans already profiled by the
        # partition optimiser (or by a previous compilation on the same
        # decomposition) are not re-planned.
        span_table = span_table_for(decomposition, options.dram_config)
        plans = [span_table.plan(s, e) for s, e in group.spans()]

        schedule: Optional[ModelSchedule] = None
        dram_trace = None
        if options.generate_instructions:
            scheduler = InstructionScheduler(self.chip, batch_size=options.batch_size)
            schedule = scheduler.schedule_model(plans)
            if options.simulate_dram_trace:
                dram_trace = schedule.dram_trace()

        simulator = ExecutionSimulator(
            self.chip, batch_size=options.batch_size, dram_config=options.dram_config
        )
        report = simulator.simulate(
            group,
            model_name=graph.name,
            scheme=options.scheme,
            dram_trace=dram_trace,
        )

        return CompilationResult(
            graph=graph,
            chip=self.chip,
            options=options,
            decomposition=decomposition,
            validity=validity,
            group=group,
            plans=plans,
            report=report,
            schedule=schedule,
            ga_result=ga_result,
            search_result=search_result,
        )


def compile_model(
    graph: Graph,
    chip: ChipConfig,
    scheme: str = "compass",
    batch_size: int = 1,
    **option_overrides,
) -> CompilationResult:
    """Convenience wrapper: compile ``graph`` for ``chip`` with default options.

    Extra keyword arguments override fields of :class:`CompilerOptions`
    (e.g. ``ga_config=GAConfig(generations=10)``).
    """
    options = CompilerOptions(scheme=scheme, batch_size=batch_size, **option_overrides)
    return CompassCompiler(chip, options).compile(graph)
