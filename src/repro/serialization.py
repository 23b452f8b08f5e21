"""Serialization of compilation results to plain JSON-compatible dictionaries.

The compiler produces rich nested objects (plans, estimates, GA history);
this module flattens them into dictionaries of built-in types so results can
be dumped to JSON, compared across runs, or post-processed by plotting
scripts without importing the whole library.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.core.compiler import CompilationResult
from repro.core.ga import GAResult
from repro.onchip.estimator import PartitionEstimate
from repro.search import SearchResult
from repro.serve.simulator import ServingReport
from repro.sim.simulator import ExecutionReport


def partition_estimate_to_dict(estimate: PartitionEstimate) -> Dict[str, Any]:
    """Flatten one partition estimate (latency phases, energy, plan summary)."""
    plan = estimate.plan
    latency = estimate.latency
    return {
        "span": [plan.partition.start, plan.partition.end],
        "num_units": plan.partition.num_units,
        "layers": plan.partition.layer_names(),
        "weight_bytes": plan.single_copy_weight_bytes,
        "replicated_weight_bytes": plan.replicated_weight_bytes,
        "crossbars_used": plan.crossbars_used,
        "cores_used": plan.core_mapping.cores_used,
        "replication": dict(plan.replication.factors),
        "batch_size": estimate.batch_size,
        "io": {
            "load_bytes": estimate.io.load_bytes,
            "store_bytes": estimate.io.store_bytes,
            "num_entries": estimate.io.num_entries,
            "num_exits": estimate.io.num_exits,
        },
        "latency_ns": {
            "weight_load": latency.weight_load_ns,
            "weight_write": latency.weight_write_ns,
            "weight_replace": latency.weight_replace_ns,
            "pipeline": latency.pipeline_ns,
            "total": latency.total_ns,
        },
        "energy_pj": estimate.energy.as_dict(),
        "total_energy_pj": estimate.energy_pj,
    }


def execution_report_to_dict(report: ExecutionReport) -> Dict[str, Any]:
    """Flatten an execution report (the whole-model summary plus partitions)."""
    result: Dict[str, Any] = {
        "model": report.model_name,
        "chip": report.chip_name,
        "scheme": report.scheme,
        "batch_size": report.batch_size,
        "num_partitions": report.num_partitions,
        "total_latency_ns": report.total_latency_ns,
        "latency_per_inference_ms": report.latency_per_inference_ms,
        "throughput_ips": report.throughput,
        "total_energy_pj": report.total_energy_pj,
        "energy_per_inference_mj": report.energy_per_inference_mj,
        "edp_per_inference_mj_ms": report.edp_per_inference,
        "energy_breakdown_pj": report.energy_breakdown.as_dict(),
        "weight_traffic_bytes": report.weight_traffic_bytes(),
        "feature_traffic_bytes": report.feature_traffic_bytes(),
        "partitions": [partition_estimate_to_dict(e) for e in report.estimates],
    }
    if report.dram_stats is not None:
        stats = report.dram_stats
        result["dram"] = {
            "num_requests": stats.num_requests,
            "read_bytes": stats.read_bytes,
            "write_bytes": stats.write_bytes,
            "row_hit_rate": stats.row_hit_rate,
            "average_latency_ns": stats.average_latency_ns,
            "energy_pj": stats.energy_pj,
        }
    return result


def ga_result_to_dict(ga_result: GAResult) -> Dict[str, Any]:
    """Flatten a GA run: best group and full per-generation history (Fig. 10)."""
    return {
        "best_boundaries": list(ga_result.best_group.boundaries),
        "best_fitness": ga_result.best_fitness,
        "generations_run": ga_result.generations_run,
        "evaluations": ga_result.evaluations,
        "history": [
            {
                "generation": record.generation,
                "best_fitness": record.best_fitness,
                "mean_fitness": record.mean_fitness,
                "fitnesses": list(record.fitnesses),
                "num_partitions": list(record.num_partitions),
                "selected_mask": list(record.selected_mask),
            }
            for record in ga_result.history
        ],
    }


def search_result_to_dict(result: SearchResult,
                          include_history: bool = True) -> Dict[str, Any]:
    """Flatten a partition-search outcome (any :mod:`repro.search` engine)."""
    data: Dict[str, Any] = {
        "optimizer": result.optimizer,
        "best_boundaries": list(result.best_group.boundaries),
        "best_fitness": result.best_fitness,
        "steps_run": result.steps_run,
        "evaluations": result.evaluations,
        "exact": result.exact,
        "span_stats": dict(result.span_stats),
    }
    if include_history:
        data["history"] = [
            {
                "step": step.step,
                "best_fitness": step.best_fitness,
                "candidate_fitness": step.candidate_fitness,
                "accepted": step.accepted,
                "num_partitions": step.num_partitions,
            }
            for step in result.history
        ]
    return data


def compilation_result_to_dict(result: CompilationResult,
                               include_ga_history: bool = True) -> Dict[str, Any]:
    """Flatten a full compilation result."""
    data: Dict[str, Any] = {
        "model": result.graph.name,
        "chip": result.chip.name,
        "scheme": result.options.scheme,
        "optimizer": result.options.optimizer,
        "batch_size": result.options.batch_size,
        "weight_bits": result.options.weight_bits,
        "num_units": result.decomposition.num_units,
        "model_weight_bytes": result.decomposition.total_weight_bytes(),
        "chip_capacity_bytes": result.chip.weight_capacity_bytes,
        "boundaries": list(result.group.boundaries),
        "num_partitions": result.num_partitions,
        "valid_fraction": result.validity.valid_fraction(),
        "report": execution_report_to_dict(result.report),
    }
    if result.schedule is not None:
        data["instructions"] = {
            opcode.value: count
            for opcode, count in result.schedule.count_by_opcode().items()
        }
        data["total_instructions"] = result.schedule.total_instructions
    if include_ga_history and result.ga_result is not None:
        data["ga"] = ga_result_to_dict(result.ga_result)
    if result.search_result is not None:
        # the GA's per-generation history is already under "ga"; the search
        # block then carries only the engine-level summary, not a mirror
        data["search"] = search_result_to_dict(
            result.search_result,
            include_history=include_ga_history and result.ga_result is None,
        )
    return data


def dump_compilation_result(result: CompilationResult, path: str,
                            include_ga_history: bool = True) -> None:
    """Write a compilation result to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(compilation_result_to_dict(result, include_ga_history), handle, indent=2)


def dump_serving_report(report: ServingReport, path: str) -> None:
    """Write a serving report to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report.as_dict(), handle, indent=2)


#: canonical timeline CSV column order: headline metrics, then event
#: counters, then control deltas — the flattened ``slo_<model>`` columns
#: slot in after ``attainment``; keys outside this list append sorted at
#: the end (a forward-compatibility safety net, not an expected case)
_TIMELINE_CSV_COLUMNS = [
    "window", "t_ms", "arrivals", "completed", "throughput_rps",
    "p50_ms", "p95_ms", "p99_ms", "queue_depth", "utilisation",
    "attainment", "shed", "timeouts", "lost", "retries", "failures",
    "recoveries", "quarantines", "readmissions", "hedges", "scale_ups",
    "scale_downs", "replacements",
]


def _csv_cell(value: Any) -> str:
    """One CSV cell: floats get a fixed ``.6f`` so the artifact is
    byte-stable across platforms and float-repr changes; everything else
    renders with ``str``."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def timeline_to_csv(timeline: List[Dict[str, Any]]) -> str:
    """Render a metrics timeline as CSV text (deterministic column order).

    Columns follow the canonical timeline order (headline metrics, event
    counters, control deltas), restricted to keys some row actually has —
    never the rows' dict-iteration order; the nested per-model ``slo``
    block flattens to one ``slo_<model>`` column each, placed after
    ``attainment``.  Floats are formatted with an explicit ``.6f`` so a
    fixed seed yields a byte-identical artifact.
    """
    flat: List[Dict[str, Any]] = []
    slo_columns: List[str] = []
    for row in timeline:
        out: Dict[str, Any] = {}
        for key, value in row.items():
            if key == "slo" and isinstance(value, dict):
                for model in sorted(value):
                    column = f"slo_{model}"
                    out[column] = value[model]
                    if column not in slo_columns:
                        slo_columns.append(column)
            else:
                out[key] = value
        flat.append(out)
    slo_columns.sort()
    present = set()
    for row in flat:
        present.update(row)
    columns: List[str] = []
    for column in _TIMELINE_CSV_COLUMNS:
        if column in present:
            columns.append(column)
        if column == "attainment":
            columns.extend(slo_columns)
    columns.extend(sorted(present - set(columns)))
    lines = [",".join(columns)]
    for row in flat:
        lines.append(",".join(
            _csv_cell(row[col]) if col in row else ""
            for col in columns))
    return "\n".join(lines) + "\n"


def dump_metrics_timeline(timeline: List[Dict[str, Any]], path: str) -> None:
    """Write a serving report's ``timeline`` block to JSON or CSV.

    The format follows the extension: ``.csv`` gets the flat table from
    :func:`timeline_to_csv`, anything else a sorted-key JSON array — both
    byte-identical for a fixed seed (``repro serve --metrics-out``).
    """
    with open(path, "w", encoding="utf-8") as handle:
        if path.lower().endswith(".csv"):
            handle.write(timeline_to_csv(timeline))
        else:
            json.dump(timeline, handle, indent=2, sort_keys=True)


def dump_chrome_trace(trace: Dict[str, Any], path: str) -> None:
    """Write a Chrome trace-event object to a JSON file.

    ``trace`` is :meth:`~repro.serve.telemetry.RequestTracer.chrome_trace`'s
    return value; the dump is sorted-key and indented, so a fixed seed
    produces a byte-identical artifact (``repro serve --trace-out``), and
    the file loads directly in Perfetto / chrome://tracing.
    """
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, indent=2, sort_keys=True)


def load_result_dict(path: str) -> Dict[str, Any]:
    """Read back a previously dumped result."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
