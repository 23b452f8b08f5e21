"""Evaluation harness: reproduce every table and figure of the paper.

Each experiment is a function returning plain data (lists of dict rows or
numpy arrays) so the same code serves the benchmarks and the examples.
:class:`ExperimentConfig` holds the shared configuration (GA size, batch
sizes, chips) and a ``fast`` preset for CI.
"""

from repro.evaluation.experiments import (
    ExperimentConfig,
    table1_hardware_configuration,
    table2_model_support,
    fig5_validity_maps,
    fig6_throughput_comparison,
    fig7_latency_breakdown,
    fig8_energy_and_edp,
    fig9_weight_energy_vs_batch,
    fig10_ga_convergence,
    optimality_gap,
)
from repro.evaluation.registry import shared_decomposition, shared_graph, shared_search
from repro.evaluation.sweeps import SweepRunner, SweepPoint

__all__ = [
    "ExperimentConfig",
    "table1_hardware_configuration",
    "table2_model_support",
    "fig5_validity_maps",
    "fig6_throughput_comparison",
    "fig7_latency_breakdown",
    "fig8_energy_and_edp",
    "fig9_weight_energy_vs_batch",
    "fig10_ga_convergence",
    "optimality_gap",
    "SweepRunner",
    "SweepPoint",
    "shared_decomposition",
    "shared_graph",
    "shared_search",
]
