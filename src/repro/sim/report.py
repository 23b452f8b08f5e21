"""Plain-text reporting helpers for execution results and benchmark tables."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence

from repro.sim.simulator import ExecutionReport

if TYPE_CHECKING:
    from repro.search import SearchResult
    from repro.serve import ServingReport


def format_table(rows: Sequence[Dict[str, object]], columns: Sequence[str] = None,
                 float_format: str = "{:.3f}") -> str:
    """Render a list of dictionaries as an aligned text table.

    ``columns`` selects and orders the columns; by default the keys of the
    first row are used.  Floats are formatted with ``float_format``.
    """
    if not rows:
        return "(empty table)"
    columns = list(columns) if columns is not None else list(rows[0].keys())

    def fmt(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(str(col)), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)
    ]
    header = "  ".join(str(col).ljust(widths[i]) for i, col in enumerate(columns))
    separator = "  ".join("-" * widths[i] for i in range(len(columns)))
    body = [
        "  ".join(r[i].ljust(widths[i]) for i in range(len(columns))) for r in rendered
    ]
    return "\n".join([header, separator] + body)


def render_execution_report(report: ExecutionReport) -> str:
    """Multi-line human-readable summary of one execution report."""
    lines = [
        f"Execution of {report.model_name} on Chip-{report.chip_name} "
        f"({report.scheme or 'unspecified scheme'}, batch {report.batch_size})",
        f"  partitions            : {report.num_partitions}",
        f"  total latency         : {report.total_latency_ns * 1e-6:.3f} ms",
        f"  throughput            : {report.throughput:.1f} inferences/s",
        f"  energy per inference  : {report.energy_per_inference_mj:.3f} mJ",
        f"  EDP per inference     : {report.edp_per_inference:.4f} mJ*ms",
        f"  DRAM weight traffic   : {report.weight_traffic_bytes() / 1e6:.2f} MB",
        f"  DRAM feature traffic  : {report.feature_traffic_bytes() / 1e6:.2f} MB",
    ]
    breakdown = report.energy_breakdown
    lines.append("  energy breakdown (uJ):")
    for key, value in breakdown.as_dict().items():
        if value:
            lines.append(f"    {key:<20s}: {value / 1e6:.2f}")
    if report.dram_stats is not None:
        stats = report.dram_stats
        lines.append(
            f"  DRAM trace: {stats.num_requests} requests, "
            f"row-hit rate {stats.row_hit_rate:.2f}, "
            f"avg latency {stats.average_latency_ns:.1f} ns"
        )
    lines.append("  per-partition latency (ms): "
                 + ", ".join(f"{v * 1e-6:.3f}" for v in report.partition_latencies_ns()))
    return "\n".join(lines)


def render_search_summary(result: "SearchResult") -> str:
    """Multi-line summary of a :mod:`repro.search` run.

    Printed by ``repro compile --optimizer ...`` for the non-GA engines (the
    GA keeps its historical summary line); shows what the engine did and how
    hard the shared span engine worked for it.
    """
    lines = [
        f"Partition search ({result.optimizer}"
        f"{', exact optimum' if result.exact else ''})",
        f"  best fitness          : {result.best_fitness:.6g}",
        f"  partitions            : {result.best_group.num_partitions}",
        f"  steps                 : {result.steps_run}",
        f"  evaluations           : {result.evaluations}",
    ]
    stats = result.span_stats
    if stats:
        fills = int(stats.get("matrix_fills", 0))
        hits = int(stats.get("matrix_hits", 0))
        if fills or hits:
            lines.append(
                f"  span matrix           : {fills} fills, {hits} gather-served "
                f"({stats.get('matrix_hit_rate', 0.0):.1%} hit rate)"
            )
        profiles = int(stats.get("profiles_computed", 0))
        records = int(stats.get("energy_records_computed", 0))
        if profiles or records:
            lines.append(f"  span profiles         : {profiles} computed, "
                         f"{records} energy records")
    return "\n".join(lines)


def render_serving_report(report: "ServingReport") -> str:
    """Multi-line human-readable summary of one serving run.

    Printed by ``repro serve``: the headline lines, a section for each of
    the ``switch``, ``slo``, ``faults`` and ``control`` blocks the report
    writes, the per-chip utilisation table, the plan-cache counters and a
    telemetry summary.
    """
    traffic = report.traffic
    batches_line = (
        f"  batches               : {report.batches} "
        f"(mean size {report.mean_batch:.2f}, {report.padded_batches} padded); "
        "histogram "
        + ", ".join(f"{b}x{n}" for b, n in sorted(report.batch_histogram.items()))
    )
    if report.served_histogram != report.batch_histogram:
        # nominal sizes above (what occupied the chip); actually-served
        # counts only differ on padded batches
        batches_line += ("; served " + ", ".join(
            f"{b}x{n}" for b, n in sorted(report.served_histogram.items())))
    lines = [
        f"Serving {', '.join(report.models)} on fleet {report.fleet} "
        f"({traffic.get('traffic', 'unspecified')} traffic, policy {report.policy}, "
        f"optimizer {report.optimizer})",
        f"  requests              : {report.completed}/{report.num_requests} served"
        f" (seed {traffic.get('seed', '?')})",
        f"  makespan              : {report.makespan_ms:.3f} ms",
        f"  offered load          : {report.offered_rps:.1f} req/s",
        f"  throughput            : {report.throughput_rps:.1f} req/s",
        f"  latency (ms)          : mean {report.latency_ms['mean']:.3f}, "
        f"p50 {report.latency_ms['p50']:.3f}, p95 {report.latency_ms['p95']:.3f}, "
        f"p99 {report.latency_ms['p99']:.3f}, max {report.latency_ms['max']:.3f}",
        f"  queueing wait (ms)    : mean {report.wait_ms['mean']:.3f}, "
        f"p95 {report.wait_ms['p95']:.3f}, max {report.wait_ms['max']:.3f}",
        f"  queue depth           : mean {report.queue_depth['mean']:.2f}, "
        f"max {report.queue_depth['max']:.0f}",
        batches_line,
        f"  energy                : {report.total_energy_mj:.3f} mJ total, "
        f"{report.energy_per_request_mj:.4f} mJ/request",
    ]
    if report.switch_cost:
        lines.append(
            f"  plan switches         : {report.plan_switches} "
            f"({report.switch_ms:.3f} ms weight replacement)"
        )
    for model, block in sorted(report.slo.items()):
        lines.append(
            f"  SLO {model:<17s} : target {block['target_ms']:.3f} ms, "
            f"attainment {block['attainment']:.1%} "
            f"(p50 {block['p50_ms']:.3f}, p95 {block['p95_ms']:.3f}, "
            f"p99 {block['p99_ms']:.3f})"
        )
    if report.fault_tolerance:
        lines.append(
            f"  faults                : {report.failures} chip failures, "
            f"{report.retries} retries, {report.timeouts} timeouts, "
            f"{report.shed} shed, {report.lost} lost"
        )
        lines.append(
            f"  availability          : {report.availability:.2%} "
            f"({report.lost_work_ms:.3f} ms lost work, "
            f"{report.degraded_dispatches} degraded dispatches)"
        )
    control = report.control
    if control:
        lines.append(
            f"  control plane         : {int(control.get('ticks', 0))} ticks "
            f"every {control.get('interval_us', 0.0):g} us; "
            f"{int(control.get('detections', 0))} detections "
            f"({int(control.get('true_detections', 0))} true, "
            f"{int(control.get('false_detections', 0))} false), "
            f"{int(control.get('quarantines', 0))} quarantines, "
            f"{int(control.get('readmissions', 0))} re-admissions"
        )
        if control.get("hedges"):
            lines.append(
                f"  hedging               : {int(control['hedges'])} hedges "
                f"({int(control.get('hedges_won', 0))} won, "
                f"{int(control.get('hedges_wasted', 0))} wasted, "
                f"{int(control.get('hedges_cancelled', 0))} originals cancelled)"
            )
        if control.get("scale_ups") or control.get("scale_downs"):
            lines.append(
                f"  autoscale             : {int(control.get('scale_ups', 0))} up, "
                f"{int(control.get('scale_downs', 0))} down "
                f"({int(control.get('base_chips', 0))} -> "
                f"{int(control.get('final_chips', 0))} chips)"
            )
        if control.get("replacements"):
            lines.append(
                f"  plan re-placement     : {int(control['replacements'])} rounds, "
                f"{control.get('replacement_ms', 0.0):.3f} ms weight replacement"
            )
    if report.per_chip:
        lines.append("  per-chip utilisation:")
        columns = [key for key in report.per_chip[0] if key != "class"]
        table = format_table(report.per_chip, columns=columns)
        lines.extend("    " + row for row in table.splitlines())
    cache = report.plan_cache
    if cache:
        lines.append(
            f"  plan cache            : {int(cache.get('hits', 0))} hits, "
            f"{int(cache.get('misses', 0))} misses "
            f"({cache.get('hit_rate', 0.0):.1%} hit rate), "
            f"{int(cache.get('warmup_compiles', 0))} warmed, "
            f"{int(cache.get('evictions', 0))} evicted, "
            f"{int(cache.get('size', 0))}/{int(cache.get('capacity', 0))} resident"
        )
    telemetry = report.telemetry
    if telemetry:
        config = telemetry.get("config", {})
        parts = []
        if config.get("timeline_interval_us"):
            parts.append(
                f"{len(report.timeline)} windows every "
                f"{config['timeline_interval_us']:g} us")
        if config.get("trace_every"):
            parts.append(f"tracing every {int(config['trace_every'])}th request")
        if config.get("streaming_percentiles"):
            parts.append("streaming percentiles (log-linear sketch)")
        lines.append("  telemetry             : " + (", ".join(parts) or "on"))
    return "\n".join(lines)


#: timeline columns always rendered, in order
_TIMELINE_COLUMNS = [
    "window", "t_ms", "arrivals", "completed", "throughput_rps",
    "p50_ms", "p95_ms", "p99_ms", "queue_depth", "utilisation", "attainment",
]
#: event columns rendered only when some window has a nonzero count
_TIMELINE_EVENT_COLUMNS = [
    "failures", "recoveries", "shed", "timeouts", "lost", "retries",
    "quarantines", "readmissions", "hedges", "scale_ups", "scale_downs",
    "replacements",
]


def render_timeline(timeline: Sequence[Dict[str, object]],
                    max_rows: int = 0) -> str:
    """Render a serving report's metrics timeline as an aligned table.

    One row per window (headline metrics first); fault/control event
    columns appear only when some window actually saw such an event, so a
    quiet run prints a compact table.  Printed by ``repro serve`` under
    ``--timeline-us``.

    ``max_rows`` caps the table for long runs (a fine-grained timeline
    can have thousands of windows): when the timeline is longer, the
    middle is elided with a marker row and the first/last windows are
    kept — the head shows ramp-up, the tail shows the drain.  0 (the
    default) renders everything.
    """
    if not timeline:
        return "(empty timeline)"
    columns = list(_TIMELINE_COLUMNS)
    columns += [col for col in _TIMELINE_EVENT_COLUMNS
                if any(row.get(col) for row in timeline)]
    rows = list(timeline)
    elided = 0
    if max_rows > 0 and len(rows) > max_rows:
        # keep at least one head and one tail row whatever the cap
        keep = max(2, max_rows)
        head = (keep + 1) // 2
        tail = keep - head
        elided = len(rows) - keep
        rows = rows[:head] + rows[len(rows) - tail:]
        table_lines = format_table(rows, columns=columns).splitlines()
        # line 0 is the header, line 1 the separator; the marker replaces
        # the seam between the kept head and tail body rows
        marker = f"... {elided} windows elided ..."
        table_lines.insert(2 + head, marker)
        return "\n".join(table_lines)
    return format_table(rows, columns=columns)
