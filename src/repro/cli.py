"""Command-line interface for the COMPASS reproduction.

Subcommands
-----------

``compile``
    Compile one model for one chip with a chosen partitioning scheme and
    print the execution summary (optionally dumping the full result to JSON).
``sweep``
    Run a throughput sweep (Fig. 6 style) over models / chips / batch sizes.
``serve``
    Simulate serving a request stream against a chip fleet using compiled
    partition plans (plan cache + dynamic batching + scheduling policy).
``observe``
    Run the live serving observatory: an asyncio REST + WebSocket service
    that accepts scenario submissions, streams per-window telemetry while
    they run, exposes Prometheus ``/metrics`` and takes mid-run commands.
    ``--follow ID`` turns the same command into a terminal stream client.
``lint``
    Run the AST-based invariant linter (:mod:`repro.analysis`) over the
    given paths: determinism (wall clock, unseeded RNG, unordered
    iteration, identity sort keys), sequential-sum bit-identity,
    telemetry purity, async-safety of the observatory, and the
    ``repro.envflags`` env-gate registry.  Exits 1 on non-baselined
    findings.
``models``
    List the models available in the zoo with their weight footprints.
``chips``
    Print the Table I chip configurations.

Examples
--------

::

    python -m repro compile resnet18 --chip M --scheme compass --batch 16
    python -m repro compile resnet18 --chip M --optimizer dp --batch 16
    python -m repro sweep --models squeezenet resnet18 --chips S M --batches 1 4 16
    python -m repro serve --model resnet18 --chip M --optimizer dp --traffic poisson --seed 0
    python -m repro serve --model resnet18 --fleet S:2,M:1 --traffic bursty --policy latency
    python -m repro serve --model resnet18 --traffic closed --clients 8 --think-us 100
    python -m repro serve --model resnet18 lenet5 --fleet S:2,M:1 --policy fair \
        --slo resnet18=8 --slo lenet5=2
    python -m repro serve --model resnet18 --fleet M:2 \
        --inject chip_fail@500:chip=0,until=2000 --retries 2 --timeout-us 5000
    python -m repro observe --port 8787
    python -m repro observe --submit scenario.json --and-follow
    python -m repro lint src/ --stats
    python -m repro models
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from typing import List, Optional, Sequence

from repro import analysis
from repro.core.compiler import compile_model
from repro.core.fitness import FitnessMode
from repro.core.ga import GAConfig
from repro.evaluation.sweeps import SweepRunner
from repro.hardware.config import get_chip_config, hardware_configuration_table
from repro.models import build_model, list_models
from repro.search import OPTIMIZERS, validate_optimizer
from repro.serialization import (
    dump_chrome_trace,
    dump_compilation_result,
    dump_metrics_timeline,
    dump_serving_report,
)
from repro.serve import (
    POLICIES,
    TRAFFIC_GENERATORS,
    ClosedLoopTraffic,
    ControlConfig,
    FaultTolerance,
    Fleet,
    PlanCache,
    ServingSimulator,
    TelemetryConfig,
    TraceTraffic,
    fleet_capacity_rps,
    parse_inject,
    save_trace,
    validate_fault_targets,
    validate_policy,
)
from repro.sim.report import (
    format_table,
    render_execution_report,
    render_search_summary,
    render_serving_report,
    render_timeline,
)


def _ga_config_from_args(args: argparse.Namespace) -> GAConfig:
    return GAConfig(
        population_size=args.population,
        generations=args.generations,
        n_select=max(1, args.population // 5),
        n_mutate=args.population - max(1, args.population // 5),
        seed=args.seed,
    )


def _chip_name(value: str) -> str:
    """argparse type: a chip preset name (S, M or L, any case)."""
    try:
        get_chip_config(value)
    except KeyError as error:
        raise argparse.ArgumentTypeError(str(error).strip('"')) from None
    return value


def _positive_int(value: str) -> int:
    """argparse type: an integer of at least 1 (batch sizes)."""
    try:
        number = int(value)
    except ValueError:
        number = 0
    if number < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value!r}")
    return number


def _check_optimizer(name: str) -> Optional[str]:
    """Error message for an unrecognised ``--optimizer`` value, else ``None``."""
    try:
        validate_optimizer(name)
    except ValueError as error:
        return f"error: {error}"
    return None


def _cmd_compile(args: argparse.Namespace) -> int:
    error = _check_optimizer(args.optimizer)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    graph = build_model(args.model)
    chip = get_chip_config(args.chip)
    result = compile_model(
        graph,
        chip,
        scheme=args.scheme,
        batch_size=args.batch,
        optimizer=args.optimizer,
        ga_config=_ga_config_from_args(args),
        generate_instructions=not args.no_instructions,
    )
    print(result.summary())
    print()
    print(render_execution_report(result.report))
    if result.search_result is not None and args.optimizer != "ga":
        print()
        print(render_search_summary(result.search_result))
    if args.output:
        dump_compilation_result(result, args.output)
        print(f"\nfull result written to {args.output}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    error = _check_optimizer(args.optimizer)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    runner = SweepRunner(ga_config=_ga_config_from_args(args), optimizer=args.optimizer)
    rows = runner.run(
        models=args.models,
        chips=args.chips,
        schemes=args.schemes,
        batch_sizes=args.batches,
    )
    print(format_table(rows, columns=["label", "scheme", "partitions", "throughput_ips",
                                      "latency_ms", "energy_per_inf_mj", "edp_mj_ms"]))
    return 0


def _auto_rate(cache: PlanCache, fleet: Fleet, models: Sequence[str],
               batch_sizes: Sequence[int], utilization: float) -> float:
    """Offered rate targeting a utilisation fraction of the fleet's capacity."""
    return utilization * fleet_capacity_rps(cache, fleet, models, batch_sizes)


def _parse_slos(entries: Optional[Sequence[str]],
                models: Sequence[str]) -> dict:
    """Parse repeated ``--slo model=ms`` options into ``{model: target_ms}``."""
    slos: dict = {}
    for entry in entries or ():
        model, sep, value = entry.partition("=")
        model = model.strip()
        if not sep or not model:
            raise ValueError(f"bad --slo {entry!r}; expected MODEL=MS")
        if model not in models:
            raise ValueError(
                f"--slo names unknown model {model!r}; served models: "
                + ", ".join(sorted(models))
            )
        try:
            slos[model] = float(value)
        except ValueError:
            raise ValueError(f"bad --slo {entry!r}; expected MODEL=MS") from None
    return slos


def _parse_control(args: argparse.Namespace) -> Optional[ControlConfig]:
    """Build the control-plane config from the serve flags (None = off).

    ``--control-interval-us`` is the master switch; asking for any control
    feature (hedging, autoscaling) without it is an error rather than a
    silent no-op.
    """
    autoscale = args.autoscale is not None
    if args.control_interval_us <= 0:
        if args.hedge_after_pct > 0 or autoscale:
            raise ValueError(
                "--hedge-after-pct/--autoscale need the control plane: "
                "set --control-interval-us to a positive interval"
            )
        return None
    min_chips, max_chips = 1, 8
    if autoscale:
        spec = str(args.autoscale)
        lo, sep, hi = spec.partition(":")
        try:
            if not sep:
                raise ValueError(spec)
            min_chips, max_chips = int(lo), int(hi)
        except ValueError:
            raise ValueError(
                f"bad --autoscale {spec!r}; expected MIN:MAX chip counts"
            ) from None
    return ControlConfig(
        interval_us=args.control_interval_us,
        quarantine_after=args.quarantine_after,
        straggler_ratio=args.straggler_ratio,
        probation_us=args.probation_us,
        hedge_after_pct=args.hedge_after_pct,
        autoscale=autoscale,
        min_chips=min_chips,
        max_chips=max_chips,
        scale_up_below=args.scale_up_below,
        scale_down_util=args.scale_down_util,
        cooldown_us=args.cooldown_us,
        scale_chip=args.scale_chip,
        replace_plans=not args.no_replace_plans,
    )


def _parse_telemetry(args: argparse.Namespace) -> Optional[TelemetryConfig]:
    """Build the telemetry config from the serve flags (None = off).

    The export flags need their producer armed: ``--metrics-out`` without a
    ``--timeline-us`` interval (or ``--trace-out`` without
    ``--trace-requests``) is an error rather than a silently empty file.
    """
    if args.metrics_out and args.timeline_us <= 0:
        raise ValueError(
            "--metrics-out needs a metrics timeline: set --timeline-us "
            "to a positive window interval"
        )
    if args.trace_out and args.trace_requests <= 0:
        raise ValueError(
            "--trace-out needs request tracing: set --trace-requests "
            "to a positive sampling stride"
        )
    config = TelemetryConfig(
        timeline_interval_us=args.timeline_us,
        trace_every=args.trace_requests,
        streaming_percentiles=args.streaming_percentiles,
    )
    return config if config.active else None


def _cmd_serve(args: argparse.Namespace) -> int:
    error = _check_optimizer(args.optimizer)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    try:
        validate_policy(args.policy)
        fleet = Fleet.from_spec(args.fleet or f"{args.chip}:{args.num_chips}")
        # parse and target-check fault specs at parse time, before the
        # expensive plan-cache warmup: a typo'd chip index fails in
        # milliseconds, not after compiling a fleet's worth of plans —
        # and regardless of the REPRO_SERVE_FAULTS gate
        faults = [parse_inject(spec) for spec in (args.inject or ())]
        validate_fault_targets(faults, len(fleet.workers))
        control = _parse_control(args)
        telemetry = _parse_telemetry(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.traffic == "trace" and not args.trace:
        print("error: --traffic trace requires --trace <file>", file=sys.stderr)
        return 2

    mode = FitnessMode.EDP if args.mode == "edp" else FitnessMode.LATENCY
    # bad numeric inputs (--requests 0, --rate -5, --cache-capacity 0, a
    # non-positive --slo target, ...), unreadable or malformed trace files
    # and unknown model names surface as ValueError/OSError/KeyError from
    # the serve constructors — same friendly exit-2 contract as the checks
    # above
    try:
        cache = PlanCache(
            capacity=args.cache_capacity,
            optimizer=args.optimizer,
            mode=mode,
            ga_config=_ga_config_from_args(args),
        )
        models = list(args.model)
        batch_sizes = sorted(set(args.batches))
        requests = None
        if args.traffic == "trace":
            traffic = TraceTraffic(args.trace)
            models = list(traffic.models)
            cache.warmup(models, fleet.chip_names, batch_sizes)
        elif args.traffic == "closed":
            cache.warmup(models, fleet.chip_names, batch_sizes)
            traffic = ClosedLoopTraffic(
                models,
                num_requests=args.requests,
                seed=args.seed,
                clients=args.clients,
                concurrency=args.concurrency,
                mean_think_s=args.think_us * 1e-6,
            )
        else:
            cache.warmup(models, fleet.chip_names, batch_sizes)
            rate = args.rate if args.rate is not None else _auto_rate(
                cache, fleet, models, batch_sizes, args.utilization
            )
            kwargs = {
                "models": models,
                "num_requests": args.requests,
                "seed": args.seed,
            }
            if args.traffic == "diurnal":
                kwargs["base_rate_rps"] = rate
            else:
                kwargs["rate_rps"] = rate
            traffic = TRAFFIC_GENERATORS[args.traffic](**kwargs)

        slos = _parse_slos(args.slo, models)
        # negative fault-tolerance knobs raise ValueError here — same
        # friendly exit-2 contract as the other inputs (--inject specs
        # were already validated before warmup)
        fault_tolerance = FaultTolerance(
            timeout_us=args.timeout_us,
            max_retries=args.retries,
            retry_backoff_us=args.retry_backoff_us,
            shed_queue_depth=args.shed_queue_depth,
            shed_wait_us=args.shed_wait_us,
            degrade_below=args.degrade_below,
            retry_priority=args.retry_priority,
        )
        if args.traffic != "closed":
            requests = traffic.generate()
            if args.record_trace:
                save_trace(requests, args.record_trace)
                print(f"trace recorded to {args.record_trace}")
        simulator = ServingSimulator(
            fleet,
            cache,
            policy=args.policy,
            batch_sizes=batch_sizes,
            max_wait_us=args.max_wait_us,
            slos=slos,
            faults=faults,
            fault_tolerance=fault_tolerance,
            control=control,
            telemetry=telemetry,
        )
        report = simulator.run(
            traffic if args.traffic == "closed" else requests,
            traffic_info=traffic.describe(),
        )
        if args.traffic == "closed" and args.record_trace:
            # the realised closed-loop stream exists only after the run
            save_trace(traffic.last_session.issued, args.record_trace)
            print(f"trace recorded to {args.record_trace}")
    except (ValueError, OSError, KeyError) as err:
        # KeyError messages carry repr quotes (unknown model/missing field)
        print(f"error: {str(err).strip(chr(34))}", file=sys.stderr)
        return 2
    print(render_serving_report(report))
    if report.timeline:
        print("\nMetrics timeline:")
        print(render_timeline(report.timeline, max_rows=args.timeline_rows))
    if args.output:
        dump_serving_report(report, args.output)
        print(f"\nfull serving report written to {args.output}")
    # the export guards re-check the report, not just the flags: under
    # REPRO_SERVE_TELEMETRY=0 the producers never ran and the artifacts
    # would be empty shells, so the exports are skipped with a notice
    if args.metrics_out:
        if report.timeline:
            dump_metrics_timeline(report.timeline, args.metrics_out)
            print(f"metrics timeline written to {args.metrics_out}")
        else:
            print("telemetry disabled by REPRO_SERVE_TELEMETRY=0; "
                  "no metrics written", file=sys.stderr)
    if args.trace_out:
        session = simulator.telemetry_session
        if session is not None and session.tracer is not None:
            dump_chrome_trace(session.tracer.chrome_trace(), args.trace_out)
            print(f"request trace written to {args.trace_out} "
                  f"(load in Perfetto / chrome://tracing)")
        else:
            print("telemetry disabled by REPRO_SERVE_TELEMETRY=0; "
                  "no trace written", file=sys.stderr)
    return 0


async def _observe_serve(host: str, port: int) -> int:
    """Run the observatory server until interrupted."""
    from repro.serve.service import ObservatoryServer

    server = ObservatoryServer(host=host, port=port)
    bound_host, bound_port = await server.start()
    base = f"http://{bound_host}:{bound_port}"
    print(f"observatory listening on {base}")
    print(f"  submit : curl -s -X POST --data @scenario.json {base}/scenarios")
    print(f"  status : curl -s {base}/scenarios")
    print(f"  follow : repro observe --host {bound_host} "
          f"--port {bound_port} --follow <id>")
    print(f"  metrics: curl -s {base}/metrics")
    try:
        await asyncio.Event().wait()  # serve until cancelled
    finally:
        await server.close()
    return 0


def _observe_follow(host: str, port: int, job_id: str,
                    timeline_rows: int) -> int:
    """Stream one scenario's windows to the terminal, then the report."""
    from repro.serve.service import WebSocketClient, request_json

    try:
        client = WebSocketClient(host, port,
                                 f"/scenarios/{job_id}/stream")
    except (ConnectionError, OSError) as err:
        print(f"error: cannot reach scenario {job_id!r} at "
              f"{host}:{port}: {err}", file=sys.stderr)
        return 2
    windows: List[dict] = []
    failed = False
    try:
        for message in client.messages():
            kind = message.get("type")
            data = message.get("data") or {}
            if kind == "window":
                windows.append(data)
                print(f"  window {data.get('window'):>4}  "
                      f"t={data.get('t_ms', 0.0):9.3f} ms  "
                      f"arrivals={data.get('arrivals', 0):>4}  "
                      f"completed={data.get('completed', 0):>4}  "
                      f"p95={data.get('p95_ms', 0.0):7.3f} ms  "
                      f"util={data.get('utilisation', 0.0):5.2f}")
            elif kind == "event":
                print(f"  event: {json.dumps(data, sort_keys=True)}")
            elif kind == "error":
                print(f"error: scenario failed:\n{data.get('error')}",
                      file=sys.stderr)
                failed = True
            elif kind == "status":
                print(f"  scenario {job_id} is {data.get('state')}")
    finally:
        client.close()
    if failed:
        return 1
    print(f"\nstream closed after {len(windows)} windows; final timeline:")
    status, payload = request_json(host, port, "GET",
                                   f"/scenarios/{job_id}/report")
    if status == 200 and isinstance(payload, dict):
        timeline = payload.get("report", {}).get("timeline", [])
        print(render_timeline(timeline, max_rows=timeline_rows))
    else:
        print(render_timeline(windows, max_rows=timeline_rows))
    return 0


def _cmd_observe(args: argparse.Namespace) -> int:
    if args.submit:
        from repro.serve.service import request_json

        try:
            with open(args.submit, "r", encoding="utf-8") as handle:
                spec = json.load(handle)
        except (OSError, json.JSONDecodeError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        status, payload = request_json(args.host, args.port, "POST",
                                       "/scenarios", spec)
        print(json.dumps(payload, indent=2, sort_keys=True))
        if status != 201:
            return 1
        if args.follow is None and not args.and_follow:
            return 0
        job_id = payload["id"]
        return _observe_follow(args.host, args.port, job_id,
                               args.timeline_rows)
    if args.follow is not None:
        return _observe_follow(args.host, args.port, args.follow,
                               args.timeline_rows)
    try:
        return asyncio.run(_observe_serve(args.host, args.port))
    except KeyboardInterrupt:
        print("\nobservatory stopped")
        return 0


def _cmd_models(_: argparse.Namespace) -> int:
    rows = []
    for name in list_models():
        graph = build_model(name)
        rows.append(
            {
                "model": name,
                "layers": len(graph),
                "conv_mb": graph.conv_weight_bytes(4) / 2**20,
                "linear_mb": graph.linear_weight_bytes(4) / 2**20,
                "total_mb": graph.crossbar_weight_bytes(4) / 2**20,
            }
        )
    print(format_table(rows))
    return 0


def _cmd_chips(_: argparse.Namespace) -> int:
    print(format_table(hardware_configuration_table()))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    try:
        rule_classes = analysis.select_rules(args.rule)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    paths = args.paths or (["src"] if os.path.isdir("src") else ["."])
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2
    # repo-relative finding paths anchor at the project root (the nearest
    # ancestor with ROADMAP.md) so baseline keys don't depend on the cwd
    anchor = analysis.find_baseline(paths[0])
    root = (os.path.dirname(anchor) if anchor
            else analysis.find_project_root(paths[0])) or os.getcwd()

    baseline_path = args.baseline
    if baseline_path is None and not args.no_baseline:
        baseline_path = analysis.find_baseline(paths[0])
    try:
        baseline = ({} if args.no_baseline or args.write_baseline
                    else analysis.load_baseline(baseline_path))
    except (ValueError, OSError, KeyError) as error:
        print(f"error: bad baseline file: {error}", file=sys.stderr)
        return 2

    run = analysis.run_lint(paths, rule_classes, root=root, baseline=baseline)

    if args.write_baseline:
        target = baseline_path or os.path.join(root, analysis.BASELINE_FILENAME)
        analysis.save_baseline(target, run.reported)
        print(f"baseline with {len(run.reported)} finding(s) written to {target}")
        return 0

    if args.format == "json":
        print(analysis.render_json(run))
    else:
        print(analysis.render_text(run))
    if args.stats:
        stats = analysis.lint_stats(run, rule_classes)
        out = sys.stderr if args.format == "json" else sys.stdout
        print(stats.render(), file=out)
    return 1 if run.reported else 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="COMPASS: compiler for resource-constrained crossbar PIM accelerators",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_ga_options(p: argparse.ArgumentParser, default_optimizer: str = "ga") -> None:
        p.add_argument("--population", type=int, default=30, help="GA population size")
        p.add_argument("--generations", type=int, default=10, help="GA generations")
        p.add_argument("--seed", type=int, default=0, help="random seed (GA and traffic)")
        p.add_argument(
            "--optimizer", default=default_optimizer, metavar="ENGINE",
            help="partition-search engine for the compass scheme: "
                 + ", ".join(sorted(OPTIMIZERS))
                 + f" (default: {default_optimizer})",
        )

    compile_parser = subparsers.add_parser("compile", help="compile one model for one chip")
    compile_parser.add_argument("model", choices=list_models())
    compile_parser.add_argument("--chip", default="M", type=_chip_name,
                                help="chip configuration: S, M or L")
    compile_parser.add_argument("--scheme", default="compass",
                                choices=["compass", "greedy", "layerwise"])
    compile_parser.add_argument("--batch", type=_positive_int, default=1, help="batch size")
    compile_parser.add_argument("--no-instructions", action="store_true",
                                help="skip instruction generation (faster)")
    compile_parser.add_argument("--output", help="write the full result to this JSON file")
    add_ga_options(compile_parser)
    compile_parser.set_defaults(func=_cmd_compile)

    sweep_parser = subparsers.add_parser("sweep", help="run a Fig. 6 style sweep")
    sweep_parser.add_argument("--models", nargs="+", default=["squeezenet", "resnet18"],
                              choices=list_models())
    sweep_parser.add_argument("--chips", nargs="+", default=["S", "M", "L"], type=_chip_name)
    sweep_parser.add_argument("--schemes", nargs="+",
                              default=["greedy", "layerwise", "compass"],
                              choices=["greedy", "layerwise", "compass"])
    sweep_parser.add_argument("--batches", nargs="+", type=_positive_int, default=[1, 4, 16])
    # sweeps default to the exact DP engine: every compass point is the true
    # latency optimum and the sweep is deterministic (pass --optimizer ga
    # for the paper's original search)
    add_ga_options(sweep_parser, default_optimizer="dp")
    sweep_parser.set_defaults(func=_cmd_sweep)

    serve_parser = subparsers.add_parser(
        "serve", help="simulate serving a request stream on a chip fleet"
    )
    serve_parser.add_argument("--model", nargs="+", default=["resnet18"],
                              choices=list_models(), metavar="MODEL",
                              help="model(s) the traffic requests (default: resnet18)")
    serve_parser.add_argument("--chip", default="M",
                              help="chip configuration for a homogeneous fleet: S, M or L")
    serve_parser.add_argument("--num-chips", type=int, default=1,
                              help="fleet size when using --chip (default: 1)")
    serve_parser.add_argument("--fleet", default=None, metavar="SPEC",
                              help="heterogeneous fleet spec, e.g. S:2,M:1,L:1 "
                                   "(overrides --chip/--num-chips)")
    serve_parser.add_argument("--traffic", default="poisson",
                              choices=sorted(TRAFFIC_GENERATORS),
                              help="traffic generator (default: poisson)")
    serve_parser.add_argument("--rate", type=float, default=None,
                              help="offered request rate in req/s "
                                   "(default: auto from fleet capacity)")
    serve_parser.add_argument("--utilization", type=float, default=0.7,
                              help="target utilisation for the auto rate (default: 0.7)")
    serve_parser.add_argument("--clients", type=int, default=4,
                              help="closed-loop clients (--traffic closed; default: 4)")
    serve_parser.add_argument("--concurrency", type=int, default=1,
                              help="outstanding requests per closed-loop client "
                                   "(default: 1)")
    serve_parser.add_argument("--think-us", type=float, default=200.0,
                              help="mean closed-loop think time in microseconds "
                                   "(default: 200)")
    serve_parser.add_argument("--slo", action="append", metavar="MODEL=MS",
                              help="per-model latency SLO target in ms (repeatable); "
                                   "adds a per-model attainment block to the report")
    serve_parser.add_argument("--requests", type=int, default=200,
                              help="number of requests to simulate (default: 200)")
    serve_parser.add_argument("--policy", default="latency", choices=sorted(POLICIES),
                              help="chip scheduling policy (default: latency)")
    serve_parser.add_argument("--batches", nargs="+", type=int, default=[1, 2, 4, 8, 16],
                              help="allowed dynamic batch sizes (default: 1 2 4 8 16)")
    serve_parser.add_argument("--max-wait-us", type=float, default=200.0,
                              help="batching-delay budget in microseconds; "
                                   "0 disables holding (default: 200)")
    serve_parser.add_argument("--cache-capacity", type=int, default=64,
                              help="plan-cache capacity in plans (default: 64)")
    serve_parser.add_argument("--mode", default="latency", choices=["latency", "edp"],
                              help="plan-compilation fitness mode (default: latency)")
    serve_parser.add_argument("--inject", action="append", metavar="SPEC",
                              help="inject a fault event (repeatable): "
                                   "KIND@AT_US[:key=value,...], e.g. "
                                   "chip_fail@500:chip=0,until=1500 or "
                                   "chaos@0:seed=7,count=3,mtbf_us=3000,mttr_us=500")
    serve_parser.add_argument("--timeout-us", type=float, default=0.0,
                              help="per-request queueing timeout in microseconds; "
                                   "0 disables (default: 0)")
    serve_parser.add_argument("--retries", type=int, default=0,
                              help="max retry attempts for requests lost to chip "
                                   "failures or timeouts (default: 0)")
    serve_parser.add_argument("--retry-backoff-us", type=float, default=50.0,
                              help="base of the deterministic exponential retry "
                                   "backoff in microseconds (default: 50)")
    serve_parser.add_argument("--shed-queue-depth", type=int, default=0,
                              help="shed arrivals once this many requests are "
                                   "queued; 0 disables (default: 0)")
    serve_parser.add_argument("--shed-wait-us", type=float, default=0.0,
                              help="shed arrivals whose estimated queueing wait "
                                   "exceeds this budget in microseconds; "
                                   "0 disables (default: 0)")
    serve_parser.add_argument("--degrade-below", type=float, default=0.0,
                              help="fall back to latency-optimal dispatches when a "
                                   "model's running SLO attainment drops below this "
                                   "fraction; 0 disables (default: 0)")
    serve_parser.add_argument("--retry-priority", action="store_true",
                              help="serve a retry on its final attempt ahead of "
                                   "fresh arrivals instead of plain FIFO")
    serve_parser.add_argument("--control-interval-us", type=float, default=0.0,
                              help="self-healing control-plane tick interval in "
                                   "microseconds; 0 disables the controller "
                                   "(default: 0)")
    serve_parser.add_argument("--quarantine-after", type=int, default=2,
                              help="consecutive suspect control ticks before a "
                                   "straggling chip is quarantined (default: 2)")
    serve_parser.add_argument("--straggler-ratio", type=float, default=1.6,
                              help="service-ratio EMA vs fleet median above which "
                                   "a chip is suspected (default: 1.6)")
    serve_parser.add_argument("--probation-us", type=float, default=2000.0,
                              help="quarantine duration before re-admission, "
                                   "doubling per flap (default: 2000)")
    serve_parser.add_argument("--hedge-after-pct", type=float, default=0.0,
                              help="hedge requests stuck past this percentile of "
                                   "the observed latency window; 0 disables "
                                   "(default: 0)")
    serve_parser.add_argument("--autoscale", default=None, metavar="MIN:MAX",
                              help="enable the SLO-driven autoscaler between "
                                   "MIN and MAX chips (needs "
                                   "--control-interval-us)")
    serve_parser.add_argument("--scale-up-below", type=float, default=0.9,
                              help="windowed SLO attainment below which the "
                                   "fleet grows (default: 0.9)")
    serve_parser.add_argument("--scale-down-util", type=float, default=0.3,
                              help="utilisation EMA below which the fleet "
                                   "shrinks (default: 0.3)")
    serve_parser.add_argument("--cooldown-us", type=float, default=2000.0,
                              help="minimum simulated time between scale events "
                                   "(default: 2000)")
    serve_parser.add_argument("--scale-chip", default=None,
                              help="chip class the autoscaler adds (default: "
                                   "the fleet's first class)")
    serve_parser.add_argument("--no-replace-plans", action="store_true",
                              help="disable plan re-placement after "
                                   "quarantine/scale events")
    serve_parser.add_argument("--timeline-us", type=float, default=0.0,
                              help="emit a metrics timeline with this window "
                                   "interval in microseconds; 0 disables "
                                   "(default: 0)")
    serve_parser.add_argument("--timeline-rows", type=int, default=60,
                              help="cap the printed timeline table at this "
                                   "many rows, eliding the middle (exports "
                                   "keep every window); 0 prints everything "
                                   "(default: 60)")
    serve_parser.add_argument("--metrics-out", default=None, metavar="PATH",
                              help="write the metrics timeline to this file "
                                   "(.json or .csv; needs --timeline-us)")
    serve_parser.add_argument("--streaming-percentiles", action="store_true",
                              help="constant-memory P^2 percentile sketches for "
                                   "the terminal report instead of storing "
                                   "every latency sample (approximate)")
    serve_parser.add_argument("--trace-requests", type=int, default=0,
                              metavar="K",
                              help="trace the lifecycle of every K-th request; "
                                   "0 disables (default: 0)")
    serve_parser.add_argument("--trace-out", default=None, metavar="PATH",
                              help="write sampled request traces as Chrome "
                                   "trace-event JSON (needs --trace-requests)")
    serve_parser.add_argument("--trace", default=None,
                              help="trace file to replay (with --traffic trace)")
    serve_parser.add_argument("--record-trace", default=None, metavar="PATH",
                              help="record the generated request stream to a trace file")
    serve_parser.add_argument("--output", help="write the full serving report to this JSON file")
    add_ga_options(serve_parser, default_optimizer="dp")
    serve_parser.set_defaults(func=_cmd_serve)

    observe_parser = subparsers.add_parser(
        "observe",
        help="run the live serving observatory (or follow / submit to one)",
    )
    observe_parser.add_argument("--host", default="127.0.0.1",
                                help="bind / connect address "
                                     "(default: 127.0.0.1)")
    observe_parser.add_argument("--port", type=int, default=8787,
                                help="service port; 0 binds an ephemeral "
                                     "port (default: 8787)")
    observe_parser.add_argument("--follow", default=None, metavar="ID",
                                help="follow a running scenario's window "
                                     "stream instead of serving")
    observe_parser.add_argument("--submit", default=None, metavar="SPEC.json",
                                help="submit a scenario spec file to a "
                                     "running observatory")
    observe_parser.add_argument("--and-follow", action="store_true",
                                help="with --submit: follow the submitted "
                                     "scenario's stream")
    observe_parser.add_argument("--timeline-rows", type=int, default=60,
                                help="cap the final timeline table at this "
                                     "many rows (0 = everything; "
                                     "default: 60)")
    observe_parser.set_defaults(func=_cmd_observe)

    lint_parser = subparsers.add_parser(
        "lint",
        help="statically check the repo's determinism/purity/concurrency "
             "invariants",
    )
    lint_parser.add_argument("paths", nargs="*", metavar="PATH",
                             help="files/directories to lint "
                                  "(default: src/ if present, else .)")
    lint_parser.add_argument("--format", default="text",
                             choices=["text", "json"],
                             help="finding output format (default: text)")
    lint_parser.add_argument("--rule", action="append", metavar="ID",
                             help="restrict to this rule id (repeatable); "
                                  "see README 'Static analysis' for the list")
    lint_parser.add_argument("--baseline", default=None, metavar="PATH",
                             help="baseline file of grandfathered findings "
                                  "(default: nearest lint_baseline.json "
                                  "above the first path)")
    lint_parser.add_argument("--no-baseline", action="store_true",
                             help="ignore any baseline file (report "
                                  "everything)")
    lint_parser.add_argument("--write-baseline", action="store_true",
                             help="write the current findings as the new "
                                  "baseline instead of reporting them")
    lint_parser.add_argument("--stats", action="store_true",
                             help="print per-rule finding/suppression "
                                  "counts (SpanTable.stats house style)")
    lint_parser.set_defaults(func=_cmd_lint)

    models_parser = subparsers.add_parser("models", help="list available models")
    models_parser.set_defaults(func=_cmd_models)

    chips_parser = subparsers.add_parser("chips", help="print the Table I chip configurations")
    chips_parser.set_defaults(func=_cmd_chips)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by ``python -m repro`` and the ``compass-repro`` script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
