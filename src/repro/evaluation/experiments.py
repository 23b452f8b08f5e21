"""Experiment definitions: one function per table/figure of the paper.

All functions return plain Python data structures (rows of dictionaries or
numpy arrays) so that benchmarks can assert on them and examples can print
them.  The heavyweight sweeps (Fig. 6) accept an :class:`ExperimentConfig`
whose ``fast`` preset shrinks the GA and the batch-size list to keep CI fast;
the paper-scale settings are the defaults of :class:`GAConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.compiler import CompilerOptions, CompassCompiler
from repro.core.decomposition import decompose_model
from repro.core.fitness import FitnessEvaluator, FitnessMode
from repro.core.ga import CompassGA, GAConfig, GAResult
from repro.evaluation.registry import shared_decomposition, shared_graph
from repro.evaluation.sweeps import SweepRunner
from repro.hardware.config import get_chip_config, hardware_configuration_table

#: The three benchmark networks of the paper (Table II).
PAPER_MODELS = ("vgg16", "resnet18", "squeezenet")
#: The three chip configurations of the paper (Table I).
PAPER_CHIPS = ("S", "M", "L")
#: Batch sizes evaluated in the paper (Figs. 6, 8, 9).
PAPER_BATCH_SIZES = (1, 2, 4, 8, 16)
#: Partitioning schemes compared in the paper.
PAPER_SCHEMES = ("greedy", "layerwise", "compass")


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared configuration for the experiment suite."""

    models: Sequence[str] = PAPER_MODELS
    chips: Sequence[str] = PAPER_CHIPS
    batch_sizes: Sequence[int] = PAPER_BATCH_SIZES
    schemes: Sequence[str] = PAPER_SCHEMES
    ga_config: GAConfig = field(default_factory=GAConfig)
    input_size: int = 224
    seed: int = 0

    @classmethod
    def fast(cls) -> "ExperimentConfig":
        """Reduced configuration for CI and pytest-benchmark runs.

        The GA population/generation counts are scaled down (the paper uses
        100x30); the qualitative ordering between schemes is preserved, only
        the search is shallower.
        """
        return cls(
            batch_sizes=(1, 4, 16),
            ga_config=GAConfig(
                population_size=24, generations=8, n_select=6, n_mutate=18,
                early_stop_patience=4, seed=0,
            ),
            input_size=224,
        )


# ----------------------------------------------------------------------
# Table I
# ----------------------------------------------------------------------
def table1_hardware_configuration() -> List[Dict[str, object]]:
    """Rows of Table I: the S/M/L chip configurations."""
    return hardware_configuration_table()


# ----------------------------------------------------------------------
# Table II
# ----------------------------------------------------------------------
def table2_model_support(
    models: Sequence[str] = PAPER_MODELS,
    chips: Sequence[str] = PAPER_CHIPS,
    weight_bits: int = 4,
) -> List[Dict[str, object]]:
    """Rows of Table II: per-model weight sizes and compiler support.

    "prev" reproduces the all-on-chip compilers (PUMA/PIMCOMP): a model is
    supported only if a single copy of all its weights fits on the chip.
    "ours" is COMPASS: supported whenever the model can be decomposed into
    partition units (i.e. every unit fits within one core).
    """
    rows: List[Dict[str, object]] = []
    for model in models:
        graph = shared_graph(model)
        linear_mb = graph.linear_weight_bytes(weight_bits) / 2 ** 20
        conv_mb = graph.conv_weight_bytes(weight_bits) / 2 ** 20
        total_mb = graph.crossbar_weight_bytes(weight_bits) / 2 ** 20
        row: Dict[str, object] = {
            "network": model,
            "linear_mb": round(linear_mb, 3),
            "conv_mb": round(conv_mb, 3),
            "total_mb": round(total_mb, 3),
        }
        for chip_name in chips:
            chip = get_chip_config(chip_name)
            fits_fully = graph.crossbar_weight_bytes(weight_bits) <= chip.weight_capacity_bytes
            try:
                decompose_model(graph, chip, weight_bits=weight_bits)
                ours = True
            except Exception:
                ours = False
            row[f"prev_{chip_name}"] = fits_fully
            row[f"ours_{chip_name}"] = ours
        row["prev"] = all(row[f"prev_{c}"] for c in chips)
        row["ours"] = all(row[f"ours_{c}"] for c in chips)
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Fig. 5
# ----------------------------------------------------------------------
def fig5_validity_maps(
    models: Sequence[str] = PAPER_MODELS,
    chips: Sequence[str] = ("S", "L"),
) -> List[Dict[str, object]]:
    """Validity-map statistics for every (model, chip) pair of Fig. 5.

    Returns one row per pair with the number of partition units (M), the
    valid fraction of the (start, end) triangle and the boolean matrix
    itself (under the ``matrix`` key) for plotting.
    """
    rows: List[Dict[str, object]] = []
    for model in models:
        for chip_name in chips:
            decomposition, validity = shared_decomposition(model, chip_name)
            matrix = validity.as_matrix()
            rows.append(
                {
                    "model": model,
                    "chip": chip_name,
                    "num_units": decomposition.num_units,
                    "valid_fraction": validity.valid_fraction(),
                    "matrix": matrix,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Fig. 6
# ----------------------------------------------------------------------
def fig6_throughput_comparison(config: ExperimentConfig = ExperimentConfig.fast(),
                               runner: Optional[SweepRunner] = None) -> List[Dict[str, object]]:
    """Throughput of COMPASS vs greedy vs layerwise across the sweep (Fig. 6)."""
    if runner is None:
        runner = SweepRunner(ga_config=config.ga_config, input_size=config.input_size)
    return runner.run(config.models, config.chips, config.schemes, config.batch_sizes)


def fig6_speedups(rows: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """Per-configuration COMPASS speed-up over each baseline (from Fig. 6 rows)."""
    by_key: Dict[tuple, Dict[str, float]] = {}
    for row in rows:
        key = (row["model"], row["chip"], row["batch"])
        by_key.setdefault(key, {})[str(row["scheme"])] = float(row["throughput_ips"])
    speedups: List[Dict[str, object]] = []
    for (model, chip, batch), schemes in sorted(by_key.items()):
        if "compass" not in schemes:
            continue
        entry: Dict[str, object] = {"model": model, "chip": chip, "batch": batch}
        for baseline in ("greedy", "layerwise"):
            if baseline in schemes and schemes[baseline] > 0:
                entry[f"speedup_vs_{baseline}"] = schemes["compass"] / schemes[baseline]
        speedups.append(entry)
    return speedups


# ----------------------------------------------------------------------
# Fig. 7
# ----------------------------------------------------------------------
def fig7_latency_breakdown(
    model: str = "resnet18",
    chip_name: str = "M",
    batch_size: int = 16,
    ga_config: Optional[GAConfig] = None,
    input_size: int = 224,
) -> Dict[str, Dict[str, object]]:
    """Per-partition latency breakdown of "ResNet18-M-16" for every scheme.

    Returns a mapping scheme -> {"latencies_ms": [...], "total_ms": float,
    "first_partition_share": float}.
    """
    graph = shared_graph(model, input_size)
    chip = get_chip_config(chip_name)
    decomposition, validity = shared_decomposition(model, chip_name, input_size)
    ga_config = ga_config if ga_config is not None else ExperimentConfig.fast().ga_config
    breakdown: Dict[str, Dict[str, object]] = {}
    for scheme in PAPER_SCHEMES:
        options = CompilerOptions(
            scheme=scheme, batch_size=batch_size, ga_config=ga_config,
            generate_instructions=False,
        )
        result = CompassCompiler(chip, options).compile(
            graph, decomposition=decomposition, validity=validity)
        latencies = result.report.partition_latencies_ns()
        total = sum(latencies)
        breakdown[scheme] = {
            "latencies_ms": [v * 1e-6 for v in latencies],
            "total_ms": total * 1e-6,
            "num_partitions": len(latencies),
            "first_partition_share": (latencies[0] / total) if total else 0.0,
        }
    return breakdown


# ----------------------------------------------------------------------
# Fig. 8
# ----------------------------------------------------------------------
def fig8_energy_and_edp(
    model: str = "resnet18",
    chip_name: str = "S",
    batch_sizes: Sequence[int] = PAPER_BATCH_SIZES,
    ga_config: Optional[GAConfig] = None,
    input_size: int = 224,
) -> List[Dict[str, object]]:
    """Inference energy and EDP per sample for "ResNet18-S" (Fig. 8)."""
    graph = shared_graph(model, input_size)
    chip = get_chip_config(chip_name)
    decomposition, validity = shared_decomposition(model, chip_name, input_size)
    ga_config = ga_config if ga_config is not None else ExperimentConfig.fast().ga_config
    rows: List[Dict[str, object]] = []
    for batch in batch_sizes:
        for scheme in PAPER_SCHEMES:
            options = CompilerOptions(
                scheme=scheme, batch_size=batch, ga_config=ga_config,
                generate_instructions=False,
            )
            result = CompassCompiler(chip, options).compile(
                graph, decomposition=decomposition, validity=validity)
            rows.append(
                {
                    "label": f"{model}-{chip_name}-{batch}",
                    "scheme": scheme,
                    "batch": batch,
                    "energy_per_inf_mj": result.report.energy_per_inference_mj,
                    "edp_mj_ms": result.report.edp_per_inference,
                    "throughput_ips": result.report.throughput,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Fig. 9
# ----------------------------------------------------------------------
def fig9_weight_energy_vs_batch(
    model: str = "resnet18",
    chips: Sequence[str] = PAPER_CHIPS,
    batch_sizes: Sequence[int] = PAPER_BATCH_SIZES,
    scheme: str = "compass",
    ga_config: Optional[GAConfig] = None,
    input_size: int = 224,
) -> List[Dict[str, object]]:
    """Weight write/load energy relative to MVMUL energy (Fig. 9).

    One row per "Chip-Batch" combination with the energy of weight loads and
    weight writes normalised to the MVM energy of the same execution.
    """
    graph = shared_graph(model, input_size)
    ga_config = ga_config if ga_config is not None else ExperimentConfig.fast().ga_config
    rows: List[Dict[str, object]] = []
    for chip_name in chips:
        chip = get_chip_config(chip_name)
        decomposition, validity = shared_decomposition(model, chip_name, input_size)
        for batch in batch_sizes:
            options = CompilerOptions(
                scheme=scheme, batch_size=batch, ga_config=ga_config,
                generate_instructions=False,
            )
            result = CompassCompiler(chip, options).compile(
                graph, decomposition=decomposition, validity=validity)
            breakdown = result.report.energy_breakdown
            mvm = max(breakdown.mvm_pj, 1e-9)
            rows.append(
                {
                    "label": f"{chip_name}-{batch}",
                    "chip": chip_name,
                    "batch": batch,
                    "weight_load_rel": breakdown.weight_load_pj / mvm,
                    "weight_write_rel": breakdown.weight_write_pj / mvm,
                    "total_overhead_rel": (breakdown.weight_load_pj + breakdown.weight_write_pj) / mvm,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Fig. 10
# ----------------------------------------------------------------------
def fig10_ga_convergence(
    model: str = "resnet18",
    chip_name: str = "M",
    batch_size: int = 16,
    ga_config: Optional[GAConfig] = None,
    input_size: int = 224,
) -> GAResult:
    """Run the COMPASS GA for "ResNet18-M-16" and return its full history.

    The :class:`~repro.core.ga.GAResult` history carries, per generation, the
    fitness of every individual, its partition count and whether it was a
    selected survivor — exactly the data plotted in Fig. 10.
    """
    ga_config = ga_config if ga_config is not None else GAConfig(
        population_size=40, generations=20, n_select=10, n_mutate=30, seed=0
    )
    decomposition, validity = shared_decomposition(model, chip_name, input_size)
    evaluator = FitnessEvaluator(decomposition, batch_size=batch_size, mode=FitnessMode.LATENCY)
    ga = CompassGA(decomposition, evaluator, ga_config, validity)
    return ga.run()


def ga_paper_scale(
    model: str = "resnet18",
    chip_name: str = "M",
    batch_size: int = 16,
    mode: FitnessMode = FitnessMode.LATENCY,
    input_size: int = 224,
) -> GAResult:
    """Run the COMPASS GA at the paper's full scale (Sec. IV-A3 defaults).

    Population 100 over 30 generations — the search the paper actually ran,
    as opposed to the reduced presets the figure benchmarks use.  This is
    the workload of the full-size GA benchmark
    (``benchmarks/test_ga_fullsize.py``), exercising the dense span-matrix
    engine at realistic chromosome volumes.
    """
    decomposition, validity = shared_decomposition(model, chip_name, input_size)
    evaluator = FitnessEvaluator(decomposition, batch_size=batch_size, mode=mode)
    ga = CompassGA(decomposition, evaluator, GAConfig(), validity)
    return ga.run()


# ----------------------------------------------------------------------
# Optimality gap (beyond the paper): exact DP vs the GA
# ----------------------------------------------------------------------
def optimality_gap(
    models: Optional[Sequence[str]] = None,
    chips: Sequence[str] = PAPER_CHIPS,
    batch_sizes: Optional[Sequence[int]] = None,
    ga_config: Optional[GAConfig] = None,
    input_size: int = 224,
) -> List[Dict[str, object]]:
    """How far the GA lands from the true latency optimum, per configuration.

    The paper can only compare the GA against heuristic baselines; with the
    dense span matrix the latency-mode problem is solvable *exactly*
    (:class:`~repro.search.DPOptimalSearch`), so the GA's optimality gap is
    measurable.  One row per (model, chip, batch): the DP optimum, the GA
    best, and ``gap_pct = (ga / dp - 1) * 100``.  Both engines share one
    evaluator, so the DP's full triangle fill makes the GA run almost pure
    gathers.  Models that do not decompose on a chip yield a row with
    ``supported=False``.

    Defaults cover every registry model x the paper's three chips x the fast
    batch list; benchmarks pass subsets.
    """
    from repro.models import list_models
    from repro.search import DPOptimalSearch, GASearch

    models = list(list_models()) if models is None else list(models)
    batch_sizes = (
        tuple(ExperimentConfig.fast().batch_sizes)
        if batch_sizes is None else tuple(batch_sizes)
    )
    ga_config = ga_config if ga_config is not None else ExperimentConfig.fast().ga_config
    rows: List[Dict[str, object]] = []
    for model in models:
        for chip_name in chips:
            try:
                decomposition, validity = shared_decomposition(
                    model, chip_name, input_size=input_size
                )
            except Exception:
                for batch in batch_sizes:
                    rows.append(
                        {
                            "model": model, "chip": chip_name, "batch": batch,
                            "supported": False,
                        }
                    )
                continue
            for batch in batch_sizes:
                evaluator = FitnessEvaluator(
                    decomposition, batch_size=batch, mode=FitnessMode.LATENCY
                )
                dp = DPOptimalSearch(decomposition, evaluator, validity).run()
                ga = GASearch(
                    decomposition, evaluator, validity, ga_config=ga_config
                ).run()
                dp_fitness = dp.best_fitness
                rows.append(
                    {
                        "model": model,
                        "chip": chip_name,
                        "batch": batch,
                        "supported": True,
                        "dp_latency_ns": dp_fitness,
                        "ga_latency_ns": ga.best_fitness,
                        "gap_pct": (ga.best_fitness / dp_fitness - 1.0) * 100.0
                        if dp_fitness else 0.0,
                        "dp_partitions": dp.best_group.num_partitions,
                        "ga_partitions": ga.best_group.num_partitions,
                        "dp_span_evals": dp.evaluations,
                        "ga_evaluations": ga.evaluations,
                    }
                )
    return rows


# ----------------------------------------------------------------------
# EDP Pareto-frontier sizes (beyond the paper): is the EDP DP exact?
# ----------------------------------------------------------------------
def edp_frontier_sizes(
    models: Optional[Sequence[str]] = None,
    chips: Sequence[str] = PAPER_CHIPS,
    batch_sizes: Sequence[int] = (1, 16),
    max_frontier: int = 0,
    input_size: int = 224,
) -> List[Dict[str, object]]:
    """Real Pareto-frontier sizes of the EDP DP across the registry.

    The EDP engine (:class:`~repro.search.DPOptimalSearch`) is exact while
    no per-position ``(latency, energy)`` frontier exceeds ``max_frontier``.
    This experiment runs the DP **uncapped** by default (``max_frontier=0``)
    and reports, per (model, chip, batch), the largest and mean frontier the
    problem really produces — closing the measurement half of the "EDP
    exactness" question: as long as every ``max_frontier_size`` stays below
    :data:`repro.search.dp.DEFAULT_MAX_FRONTIER`, the default-configured
    EDP DP is a certificate, not a heuristic, for the whole registry.

    One row per (model, chip, batch); models that do not decompose on a
    chip yield ``supported=False`` rows, mirroring :func:`optimality_gap`.
    """
    from repro.models import list_models
    from repro.search import DPOptimalSearch
    from repro.search.dp import DEFAULT_MAX_FRONTIER

    models = list(list_models()) if models is None else list(models)
    rows: List[Dict[str, object]] = []
    for model in models:
        for chip_name in chips:
            try:
                decomposition, validity = shared_decomposition(
                    model, chip_name, input_size=input_size
                )
            except Exception:
                for batch in batch_sizes:
                    rows.append(
                        {
                            "model": model, "chip": chip_name, "batch": batch,
                            "supported": False,
                        }
                    )
                continue
            for batch in batch_sizes:
                evaluator = FitnessEvaluator(
                    decomposition, batch_size=batch, mode=FitnessMode.EDP
                )
                search = DPOptimalSearch(
                    decomposition, evaluator, validity, max_frontier=max_frontier,
                )
                result = search.run()
                sizes = search.frontier_sizes or [0]
                largest = max(sizes)
                rows.append(
                    {
                        "model": model,
                        "chip": chip_name,
                        "batch": batch,
                        "supported": True,
                        "num_units": decomposition.num_units,
                        "max_frontier_size": largest,
                        "mean_frontier_size": sum(sizes) / len(sizes),
                        "exact": result.exact,
                        "fits_default_cap": largest <= DEFAULT_MAX_FRONTIER,
                        "edp_optimum": result.best_fitness,
                        "partitions": result.best_group.num_partitions,
                    }
                )
    return rows
