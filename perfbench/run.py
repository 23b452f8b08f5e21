"""Run one benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 15 --trace 0

Every workload first sets up (three times; ``setup_s`` is the import CPU
plus the median set-up), then repeats its timed cycle until ``--seconds``
of wall time have passed.  A cycle is a fixed list of units (one compile
pair, one GA compile, one simulation run), each timed on its own.  On a
shared host the CPU time of identical work swings by tens of percent, so
every CPU time is corrected to the host's nominal speed by a probe that
samples it around and inside the unit (``probe.py``), and
``ops_per_cpu_s`` divides a cycle's ops by the sum of each unit's median
corrected CPU time.  ``--trace 0``
prints the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
alternates traced and untraced cycles and prints the per-layer metrics,
including the tracing overhead.  The traced run also writes its spans and
per-layer figures under ``.perfbench/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The run exits with status 2,
printing no result, when the tree holds no ``repro`` source to measure.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from probe import NOMINAL_S, HostProbe
from workloads import COUNTERS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3

MODEL_NOTE = (
    "sim_* figures come from the repository's analytical chip and serving "
    "model, which no hardware measurement validates; for orientation the "
    "paper reports 1.78x throughput and 1.28x EDP over baseline "
    "partitioning.  No error figure against the paper is claimed.")

#: per-layer counters a workload that does not exercise them reports as 0
IDLE_COUNTERS = (
    "search.ga.evaluations", "search.ga.dedup_hits", "search.ga.useful_ratio",
    "serve.plans.hit_ratio", "serve.plans.lookups_per_request",
    "serve.scheduler.dispatches", "serve.scheduler.mean_batch",
    "serve.control.ticks", "serve.control.hedge_win_ratio",
    "serve.control.true_detection_ratio", "serve.faults.retries",
    "serve.faults.timeouts", "serve.faults.shed", "serve.faults.lost",
    "serve.telemetry.windows",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def timed_cycle(workload, unit_cpu, tracer=None, probe=None):
    """One cycle: every unit once (untimed prepare, timed run), then checks.

    Appends each unit's CPU seconds to ``unit_cpu[unit]`` (corrected for
    host speed when a probe is given) and returns ``(ops per CPU-second
    of the cycle, outcome, span-counter deltas)``; the span counters are
    read only when tracing.
    """
    gc.collect()
    outputs, delta, total = {}, dict.fromkeys(COUNTERS, 0), 0.0
    for unit in workload.units:
        workload.prepare_unit(unit)
        before = workload.unit_counters(unit, after=False) if tracer else None
        if tracer:
            tracer.active = True
        if probe:
            probe.arm()
        start = time.process_time()
        outputs[unit] = workload.run_unit(unit)
        cpu = time.process_time() - start
        if probe:
            cpu = probe.corrected(cpu)
        if tracer:
            tracer.active = False
            after = workload.unit_counters(unit, after=True)
            for key in delta:
                delta[key] += after[key] - before[key]
        unit_cpu.setdefault(unit, []).append(cpu)
        total += cpu
    return workload.ops_per_cycle / total, workload.evaluate(outputs), delta


def check_outcomes(outcomes):
    """Problems across cycles: per-cycle check failures plus replay drift."""
    problems = [p for outcome in outcomes for p in outcome.problems]
    if any(outcome.sim != outcomes[0].sim for outcome in outcomes[1:]):
        problems.append("sim figures differ between cycles of one seed")
    return problems


def plain_run(workload, seconds, probe):
    rates, outcomes, unit_cpu = [], [], {}
    probe.history.clear()
    deadline = time.perf_counter() + seconds
    while not rates or time.perf_counter() < deadline:
        rate, outcome, _ = timed_cycle(workload, unit_cpu, probe=probe)
        rates.append(rate)
        outcomes.append(outcome)
    cycle = sum(statistics.median(times) for times in unit_cpu.values())
    metrics = {"ops_per_cpu_s": workload.ops_per_cycle / cycle,
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    metrics.update(outcomes[0].sim)
    q1, median, q3 = statistics.quantiles([NOMINAL_S / t for t in probe.history], n=4)
    lines = [f"cycles: {len(rates)}; ops per nominal CPU-second by cycle: "
             + ", ".join(f"{r:.4g}" for r in rates),
             f"host speed from {len(probe.history)} probes (1 = nominal): median "
             f"{median:.3f}, quartiles {q1:.3f}-{q3:.3f}"]
    return metrics, outcomes, lines


def traced_run(workload, seconds):
    from arith import overhead_pct, ratio
    from tracing import Tracer

    tracer = Tracer()
    traced, plain, outcomes, self_s = [], [], [], {}
    first = None
    deadline = time.perf_counter() + seconds
    while not plain or time.perf_counter() < deadline:
        tracer.install()
        tracer.reset()
        wall = time.perf_counter()
        rate, outcome, delta = timed_cycle(workload, {}, tracer)
        wall = time.perf_counter() - wall
        tracer.uninstall()
        layers = tracer.per_layer()
        traced.append(rate)
        outcomes.append(outcome)
        for layer, (_, seconds_in) in layers.items():
            self_s.setdefault(layer, []).append(seconds_in)
        if first is None:
            first = (layers, outcome, delta, tracer.fill_requests,
                     tracer.fill_new, tracer.frontier_max, wall)
            OUT_DIR.mkdir(exist_ok=True)
            tracer.dump(str(OUT_DIR / f"{workload.name}.spans.npz"))
        tracer.reset()
        rate, outcome, _ = timed_cycle(workload, {})
        plain.append(rate)
        outcomes.append(outcome)

    layers, outcome, delta, requests, new, frontier, wall = first
    calls = {layer: count for layer, (count, _) in layers.items()}
    metrics = {}
    for layer in layers:
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.self_s"] = statistics.median(self_s[layer])
    fills, hits = delta["matrix_fills"], delta["matrix_hits"]
    metrics.update({
        "perf.matrix_fills": fills,
        "perf.matrix_hits": hits,
        "perf.hit_ratio": ratio(hits, fills + hits),
        "perf.profiles_computed": delta["profiles_computed"],
        "search.dp.frontier_max": frontier,
    })
    metrics.update(dict.fromkeys(IDLE_COUNTERS, 0))
    metrics.update(outcome.counters)
    metrics["trace.overhead_pct"] = overhead_pct(statistics.median(plain),
                                                 statistics.median(traced))

    checks = [
        ("perf.fill cells requested == SpanTableStats matrix_fills + matrix_hits",
         requests, fills + hits),
        ("onchip.slim_profile calls == SpanTableStats.latencies_computed",
         calls["onchip.slim_profile"], delta["latencies_computed"]),
        ("onchip.profile calls == SpanTableStats.profiles_computed",
         calls["onchip.profile"], delta["profiles_computed"]),
        ("mapping.replication called iff slim profiles were computed",
         calls["mapping.replication"] > 0, delta["latencies_computed"] > 0),
    ]
    if workload.cold_matrices:
        checks.append(("perf.fill first requests == SpanTableStats.matrix_fills",
                       new, fills))
    checks.extend(workload.call_checks(calls, outcome))
    lines = [f"traced cycles: {len(traced)}, untraced: {len(plain)}; traced cycle "
             f"wall {wall:.3f} s", "wrapper count vs program counter:"]
    for label, wrapped, program in checks:
        verdict = "ok" if wrapped == program else "MISMATCH"
        lines.append(f"  {verdict:8s} {label}: {wrapped} vs {program}")
    problems = [f"cross-check failed: {label} ({wrapped} != {program})"
                for label, wrapped, program in checks if wrapped != program]
    (OUT_DIR / f"{workload.name}.layers.json").write_text(json.dumps({
        "workload": workload.name,
        "cycle_wall_s": wall,
        "metrics": metrics,
        "checks": [{"label": label, "wrapper": wrapped, "program": program}
                   for label, wrapped, program in checks],
    }, indent=1, sort_keys=True, default=int))
    outcomes[0].problems.extend(problems)
    return metrics, outcomes, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} lacks src/repro or BENCHMARK.json; nothing to measure",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              + ", ".join(WORKLOADS), file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    probe = HostProbe()
    try:
        return measure(args, spec, probe)
    finally:
        probe.close()


def measure(args, spec, probe) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    # import everything the workloads touch before the set-up clock splits
    probe.arm()
    import repro.evaluation.sweeps  # noqa: F401
    import repro.search  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.sim.simulator  # noqa: F401
    from arith import all_finite

    workload = WORKLOADS[args.workload](args.seed)
    import_cpu = probe.corrected(time.process_time())
    setup_cpu = []
    for _ in range(SETUP_REPEATS):
        probe.arm()
        start = time.process_time()
        workload.setup()
        setup_cpu.append(probe.corrected(time.process_time() - start))

    if args.trace:
        metrics, outcomes, lines = traced_run(workload, args.seconds)
        wanted = spec["per_layer"]
    else:
        metrics, outcomes, lines = plain_run(workload, args.seconds, probe)
        metrics["setup_s"] = import_cpu + statistics.median(setup_cpu)
        wanted = spec["end_to_end"]
    names = [entry["name"] for entry in wanted]
    if set(names) != set(metrics):
        raise RuntimeError(f"metrics computed {sorted(metrics)} do not match "
                           f"BENCHMARK.json {sorted(names)}")
    problems = check_outcomes(outcomes)
    problems += [f"metric {name} is not finite" for name in all_finite(metrics)]

    print(f"workload {workload.name} (seed {args.seed}): {workload.loop}")
    print(f"op: one {workload.op_name}; {workload.ops_per_cycle} ops per cycle")
    print(f"setup CPU at nominal speed: import {import_cpu:.3f} s + runs "
          + ", ".join(f"{s:.3f}" for s in setup_cpu) + " s")
    for line in lines + outcomes[0].notes:
        print(line)
    from repro.sim.report import format_table

    print(format_table([{"metric": entry["name"], "value": metrics[entry["name"]],
                         "unit": entry["unit"]} for entry in wanted],
                       float_format="{:.6g}"))
    print(MODEL_NOTE)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": sum(outcome.attempted for outcome in outcomes),
        "failed": sum(outcome.failed for outcome in outcomes),
        "metrics": {entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
                    for entry in wanted},
    }
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
