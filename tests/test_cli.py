"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_compile_defaults(self):
        args = build_parser().parse_args(["compile", "squeezenet"])
        assert args.model == "squeezenet"
        assert args.chip == "M"
        assert args.scheme == "compass"
        assert args.batch == 1

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compile", "not_a_model"])

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compile", "resnet18", "--scheme", "magic"])

    def test_sweep_arguments(self):
        args = build_parser().parse_args(
            ["sweep", "--models", "squeezenet", "--chips", "S", "--batches", "1", "4"]
        )
        assert args.models == ["squeezenet"]
        assert args.batches == [1, 4]

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("argv, message", [
        (["compile", "resnet18", "--chip", "Q"], "unknown chip configuration 'Q'"),
        (["sweep", "--chips", "Q"], "unknown chip configuration 'Q'"),
        (["compile", "resnet18", "--batch", "0"], "expected a positive integer, got '0'"),
        (["sweep", "--batches", "0"], "expected a positive integer, got '0'"),
    ])
    def test_bad_chip_or_batch_exits_2(self, capsys, argv, message):
        # rejected at parse time with an ``error:`` line, before any
        # compile work starts — never a KeyError/ValueError traceback
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert message in err
        assert "Traceback" not in err


class TestCommands:
    def test_models_command(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "vgg16" in out
        assert "squeezenet" in out

    def test_chips_command(self, capsys):
        assert main(["chips"]) == 0
        out = capsys.readouterr().out
        assert "1.125" in out
        assert "4.5" in out

    def test_compile_command_greedy(self, capsys):
        code = main(["compile", "squeezenet", "--chip", "S", "--scheme", "greedy",
                     "--batch", "2", "--no-instructions"])
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "Chip-S" in out

    def test_compile_command_writes_json(self, capsys, tmp_path):
        output = tmp_path / "out.json"
        code = main(["compile", "lenet5", "--chip", "S", "--scheme", "greedy",
                     "--batch", "1", "--no-instructions", "--output", str(output)])
        assert code == 0
        data = json.loads(output.read_text())
        assert data["model"] == "lenet5"
        assert data["scheme"] == "greedy"

    def test_sweep_command(self, capsys):
        code = main(["sweep", "--models", "squeezenet", "--chips", "S",
                     "--schemes", "greedy", "layerwise", "--batches", "1",
                     "--population", "8", "--generations", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "squeezenet" in out
        assert "greedy" in out

    def test_compile_compass_small_ga(self, capsys):
        code = main(["compile", "squeezenet", "--chip", "S", "--scheme", "compass",
                     "--batch", "2", "--no-instructions",
                     "--population", "8", "--generations", "2"])
        assert code == 0
        assert "GA generations" in capsys.readouterr().out

    def test_compile_optimizer_dp_end_to_end(self, capsys, tmp_path):
        output = tmp_path / "dp.json"
        code = main(["compile", "squeezenet", "--chip", "S", "--optimizer", "dp",
                     "--batch", "2", "--no-instructions", "--output", str(output)])
        assert code == 0
        out = capsys.readouterr().out
        assert "optimizer            : dp (exact optimum" in out
        assert "Partition search (dp, exact optimum)" in out
        data = json.loads(output.read_text())
        assert data["optimizer"] == "dp"
        assert data["search"]["optimizer"] == "dp"
        assert data["search"]["exact"] is True
        assert data["search"]["best_boundaries"] == data["boundaries"]

    def test_compile_optimizer_beam_and_anneal(self, capsys):
        for optimizer in ("beam", "anneal"):
            code = main(["compile", "lenet5", "--chip", "S", "--optimizer", optimizer,
                         "--batch", "1", "--no-instructions"])
            assert code == 0
            assert f"Partition search ({optimizer})" in capsys.readouterr().out

    def test_compile_unknown_optimizer_message(self, capsys):
        code = main(["compile", "squeezenet", "--chip", "S", "--optimizer", "magic",
                     "--batch", "1", "--no-instructions"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown optimizer 'magic'" in err
        assert "anneal, beam, dp, ga" in err

    def test_sweep_unknown_optimizer_message(self, capsys):
        code = main(["sweep", "--models", "squeezenet", "--chips", "S",
                     "--batches", "1", "--optimizer", "nope"])
        assert code == 2
        assert "unknown optimizer 'nope'" in capsys.readouterr().err

    def test_sweep_with_dp_optimizer(self, capsys):
        code = main(["sweep", "--models", "squeezenet", "--chips", "S",
                     "--schemes", "compass", "--batches", "1",
                     "--optimizer", "dp"])
        assert code == 0
        assert "squeezenet" in capsys.readouterr().out


class TestServeCommand:
    SERVE_ARGS = ["serve", "--model", "squeezenet", "--chip", "S", "--optimizer", "dp",
                  "--traffic", "poisson", "--seed", "0", "--requests", "60"]

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.model == ["resnet18"]
        assert args.chip == "M"
        assert args.optimizer == "dp"
        assert args.traffic == "poisson"
        assert args.policy == "latency"
        assert args.seed == 0

    def test_sweep_defaults_to_dp(self):
        assert build_parser().parse_args(["sweep"]).optimizer == "dp"
        assert build_parser().parse_args(["compile", "lenet5"]).optimizer == "ga"

    def test_serve_fixed_seed_is_deterministic(self, capsys, tmp_path):
        """The acceptance pin: one seed, bit-identical serving reports."""
        first_json = tmp_path / "first.json"
        second_json = tmp_path / "second.json"
        assert main(self.SERVE_ARGS + ["--output", str(first_json)]) == 0
        first_out = capsys.readouterr().out
        assert main(self.SERVE_ARGS + ["--output", str(second_json)]) == 0
        second_out = capsys.readouterr().out
        first_out = first_out.replace(str(first_json), "<out>")
        second_out = second_out.replace(str(second_json), "<out>")
        assert first_out == second_out
        first = json.loads(first_json.read_text())
        second = json.loads(second_json.read_text())
        assert first == second
        assert first["completed"] == 60
        assert first["throughput_rps"] > 0
        assert first["optimizer"] == "dp"
        for key in ("p50", "p95", "p99"):
            assert first["latency_ms"][key] > 0
        assert first["per_chip"][0]["utilisation"] > 0
        assert first["total_energy_mj"] > 0

    def test_serve_report_sections(self, capsys):
        assert main(self.SERVE_ARGS) == 0
        out = capsys.readouterr().out
        assert "Serving squeezenet on fleet S:1" in out
        assert "throughput" in out
        assert "p99" in out
        assert "plan cache" in out
        assert "per-chip utilisation" in out

    def test_serve_heterogeneous_fleet(self, capsys):
        code = main(["serve", "--model", "squeezenet", "--fleet", "S:1,M:1",
                     "--traffic", "bursty", "--policy", "latency",
                     "--seed", "1", "--requests", "40"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet S:1,M:1" in out
        assert "S#0" in out and "M#1" in out

    def test_serve_trace_record_and_replay(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        out_live = tmp_path / "live.json"
        out_replay = tmp_path / "replay.json"
        assert main(self.SERVE_ARGS + ["--record-trace", str(trace),
                                       "--output", str(out_live)]) == 0
        capsys.readouterr()
        assert main(["serve", "--traffic", "trace", "--trace", str(trace),
                     "--chip", "S", "--optimizer", "dp",
                     "--output", str(out_replay)]) == 0
        capsys.readouterr()
        live = json.loads(out_live.read_text())
        replay = json.loads(out_replay.read_text())
        for key in ("completed", "throughput_rps", "latency_ms", "batches",
                    "batch_histogram", "total_energy_mj"):
            assert live[key] == replay[key]

    def test_serve_bad_inputs(self, capsys):
        assert main(["serve", "--model", "squeezenet", "--optimizer", "magic"]) == 2
        assert "unknown optimizer" in capsys.readouterr().err
        assert main(["serve", "--model", "squeezenet", "--fleet", "Z:1"]) == 2
        assert "unknown chip" in capsys.readouterr().err
        assert main(["serve", "--model", "squeezenet", "--traffic", "trace"]) == 2
        assert "requires --trace" in capsys.readouterr().err
        # bad numeric inputs and unreadable traces take the same friendly
        # error + exit-2 path, not a raw traceback
        assert main(["serve", "--model", "squeezenet", "--requests", "0"]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["serve", "--model", "squeezenet", "--rate", "-5"]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["serve", "--model", "squeezenet", "--cache-capacity", "0"]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["serve", "--traffic", "trace",
                     "--trace", "/nonexistent/trace.json"]) == 2
        assert "error:" in capsys.readouterr().err
        # an explicit --rate 0 is an error, not silently replaced by auto-rate
        assert main(["serve", "--model", "squeezenet", "--rate", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_bad_trace_contents(self, capsys, tmp_path):
        malformed = tmp_path / "bad.json"
        malformed.write_text('{"requests": [{"id": 0}]}')
        assert main(["serve", "--traffic", "trace", "--trace", str(malformed)]) == 2
        assert "malformed trace" in capsys.readouterr().err
        unknown = tmp_path / "unknown.json"
        unknown.write_text(
            '{"requests": [{"id": 0, "model": "notamodel", "arrival_ns": 1.0}]}'
        )
        assert main(["serve", "--traffic", "trace", "--trace", str(unknown)]) == 2
        assert "unknown model" in capsys.readouterr().err

    def test_serve_timeline_prints_and_dumps(self, capsys, tmp_path):
        metrics_json = tmp_path / "metrics.json"
        metrics_csv = tmp_path / "metrics.csv"
        assert main(self.SERVE_ARGS + ["--timeline-us", "500",
                                       "--metrics-out", str(metrics_json)]) == 0
        out = capsys.readouterr().out
        assert "Metrics timeline:" in out
        assert "throughput_rps" in out
        assert "telemetry" in out
        timeline = json.loads(metrics_json.read_text())
        assert timeline and timeline[0]["window"] == 0
        assert main(self.SERVE_ARGS + ["--timeline-us", "500",
                                       "--metrics-out", str(metrics_csv)]) == 0
        capsys.readouterr()
        header = metrics_csv.read_text().splitlines()[0]
        assert header.startswith("window,t_ms,")

    def test_serve_trace_requests_dumps_chrome_trace(self, capsys, tmp_path):
        trace_out = tmp_path / "requests.json"
        assert main(self.SERVE_ARGS + ["--trace-requests", "5",
                                       "--trace-out", str(trace_out)]) == 0
        capsys.readouterr()
        trace = json.loads(trace_out.read_text())
        assert trace["displayTimeUnit"] == "ms"
        assert trace["traceEvents"]
        assert all(event["ph"] in ("X", "i")
                   for event in trace["traceEvents"])

    def test_serve_streaming_percentiles_flag(self, capsys):
        assert main(self.SERVE_ARGS + ["--streaming-percentiles"]) == 0
        out = capsys.readouterr().out
        assert "streaming percentiles" in out
        assert "p99" in out

    def test_serve_telemetry_bad_inputs(self, capsys, tmp_path):
        # output flags without the matching telemetry knob are exit-2
        # config errors, not silently empty files
        assert main(self.SERVE_ARGS +
                    ["--metrics-out", str(tmp_path / "m.json")]) == 2
        assert "--timeline-us" in capsys.readouterr().err
        assert main(self.SERVE_ARGS +
                    ["--trace-out", str(tmp_path / "t.json")]) == 2
        assert "--trace-requests" in capsys.readouterr().err
        assert main(self.SERVE_ARGS + ["--timeline-us", "-10"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_telemetry_env_off(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_TELEMETRY", "0")
        metrics = tmp_path / "metrics.json"
        assert main(self.SERVE_ARGS + ["--timeline-us", "500",
                                       "--metrics-out", str(metrics)]) == 0
        captured = capsys.readouterr()
        assert "telemetry disabled" in captured.err
        assert not metrics.exists()
        assert "Metrics timeline:" not in captured.out

    def test_serve_switch_cost_sections(self, capsys, tmp_path):
        # switch cost is on by default: multiple batch sizes force plan
        # switches, which the report and the JSON dump must surface
        output = tmp_path / "switch.json"
        assert main(self.SERVE_ARGS + ["--output", str(output)]) == 0
        out = capsys.readouterr().out
        assert "plan switches" in out
        data = json.loads(output.read_text())
        assert data["switch"]["plan_switches"] >= 0
        assert "plan_switches" in data["per_chip"][0]

    def test_serve_switch_cost_env_off(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_SWITCH_COST", "0")
        output = tmp_path / "legacy.json"
        assert main(self.SERVE_ARGS + ["--output", str(output)]) == 0
        out = capsys.readouterr().out
        assert "plan switches" not in out
        data = json.loads(output.read_text())
        assert "switch" not in data
        assert "plan_switches" not in data["per_chip"][0]

    def test_serve_slo_report_and_dump(self, capsys, tmp_path):
        output = tmp_path / "slo.json"
        code = main(["serve", "--model", "squeezenet", "lenet5",
                     "--fleet", "S:1,M:1", "--policy", "fair",
                     "--optimizer", "dp", "--seed", "0", "--requests", "40",
                     "--slo", "squeezenet=5", "--slo", "lenet5=2",
                     "--output", str(output)])
        assert code == 0
        out = capsys.readouterr().out
        assert "SLO squeezenet" in out
        assert "SLO lenet5" in out
        assert "attainment" in out
        data = json.loads(output.read_text())
        assert set(data["slo"]) == {"squeezenet", "lenet5"}
        assert data["slo"]["squeezenet"]["target_ms"] == 5.0
        assert 0.0 <= data["slo"]["lenet5"]["attainment"] <= 1.0
        assert data["policy"] == "fair"

    def test_serve_slo_bad_inputs(self, capsys):
        base = ["serve", "--model", "squeezenet", "--chip", "S",
                "--optimizer", "dp", "--requests", "10"]
        assert main(base + ["--slo", "resnet18=5"]) == 2
        assert "unknown model" in capsys.readouterr().err
        assert main(base + ["--slo", "squeezenet"]) == 2
        assert "expected MODEL=MS" in capsys.readouterr().err
        assert main(base + ["--slo", "squeezenet=abc"]) == 2
        assert "expected MODEL=MS" in capsys.readouterr().err
        assert main(base + ["--slo", "squeezenet=0"]) == 2
        assert "SLO target" in capsys.readouterr().err

    def test_serve_closed_loop_deterministic(self, capsys, tmp_path):
        args = ["serve", "--model", "squeezenet", "--chip", "S",
                "--optimizer", "dp", "--traffic", "closed", "--clients", "3",
                "--concurrency", "2", "--think-us", "100", "--seed", "4",
                "--requests", "30"]
        first_json = tmp_path / "c1.json"
        second_json = tmp_path / "c2.json"
        assert main(args + ["--output", str(first_json)]) == 0
        first_out = capsys.readouterr().out
        assert main(args + ["--output", str(second_json)]) == 0
        capsys.readouterr()
        first = json.loads(first_json.read_text())
        second = json.loads(second_json.read_text())
        first.pop("plan_cache"), second.pop("plan_cache")
        assert first == second
        assert first["completed"] == 30
        assert first["traffic"]["traffic"] == "closed"
        assert first["traffic"]["clients"] == 3
        assert "closed traffic" in first_out

    def test_serve_closed_loop_records_replayable_trace(self, capsys, tmp_path):
        trace = tmp_path / "closed-trace.json"
        assert main(["serve", "--model", "squeezenet", "--chip", "S",
                     "--optimizer", "dp", "--traffic", "closed",
                     "--clients", "2", "--requests", "20",
                     "--record-trace", str(trace)]) == 0
        assert "trace recorded" in capsys.readouterr().out
        replay = tmp_path / "replay.json"
        assert main(["serve", "--traffic", "trace", "--trace", str(trace),
                     "--chip", "S", "--optimizer", "dp",
                     "--output", str(replay)]) == 0
        capsys.readouterr()
        assert json.loads(replay.read_text())["completed"] == 20

    def test_serve_closed_loop_bad_inputs(self, capsys):
        base = ["serve", "--model", "squeezenet", "--chip", "S",
                "--optimizer", "dp", "--traffic", "closed"]
        assert main(base + ["--clients", "0"]) == 2
        assert "clients" in capsys.readouterr().err
        assert main(base + ["--think-us", "-1"]) == 2
        assert "think" in capsys.readouterr().err

    def test_serve_fair_policy_accepted(self):
        args = build_parser().parse_args(["serve", "--policy", "fair"])
        assert args.policy == "fair"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--policy", "magic"])


class TestServeFaultCLI:
    BASE = ["serve", "--model", "squeezenet", "--chip", "S", "--optimizer", "dp",
            "--traffic", "poisson", "--seed", "0", "--requests", "40"]

    def test_inject_chip_fail_with_retries(self, capsys, tmp_path):
        output = tmp_path / "faults.json"
        assert main(self.BASE + ["--fleet", "S:2",
                                 "--inject", "chip_fail@300:chip=0,until=3000",
                                 "--retries", "2", "--timeout-us", "8000",
                                 "--output", str(output)]) == 0
        out = capsys.readouterr().out
        assert "chip failures" in out
        assert "availability" in out
        data = json.loads(output.read_text())
        assert data["faults"]["failures"] == 1
        assert data["completed"] == 40
        assert "downtime_ms" in data["per_chip"][0]

    def test_no_fault_run_keeps_legacy_output(self, capsys, tmp_path):
        output = tmp_path / "clean.json"
        assert main(self.BASE + ["--output", str(output)]) == 0
        out = capsys.readouterr().out
        assert "chip failures" not in out
        assert "availability" not in out
        assert "faults" not in json.loads(output.read_text())

    def test_inject_repeatable(self, capsys):
        assert main(self.BASE + ["--inject", "straggler@100:chip=0,factor=2",
                                 "--inject", "dram_degrade@200:chip=0,factor=2"]) == 0
        assert "availability" in capsys.readouterr().out

    def test_malformed_inject_rejected(self, capsys):
        assert main(self.BASE + ["--inject", "bogus@500:chip=0"]) == 2
        assert "unknown fault kind" in capsys.readouterr().err
        assert main(self.BASE + ["--inject", "chip_fail@soon:chip=0"]) == 2
        assert "not a number" in capsys.readouterr().err
        assert main(self.BASE + ["--inject", "chip_fail@500:color=red"]) == 2
        assert "unknown key" in capsys.readouterr().err
        assert main(self.BASE + ["--inject", "chip_fail"]) == 2
        assert "expected KIND@AT_US" in capsys.readouterr().err

    def test_out_of_range_chip_rejected(self, capsys):
        assert main(self.BASE + ["--inject", "chip_fail@500:chip=9"]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_negative_knobs_rejected(self, capsys):
        assert main(self.BASE + ["--retries", "-1"]) == 2
        assert "max_retries" in capsys.readouterr().err
        assert main(self.BASE + ["--timeout-us", "-1"]) == 2
        assert "timeout_us" in capsys.readouterr().err
        assert main(self.BASE + ["--retry-backoff-us", "-1"]) == 2
        assert "retry_backoff_us" in capsys.readouterr().err
        assert main(self.BASE + ["--shed-queue-depth", "-1"]) == 2
        assert "shed_queue_depth" in capsys.readouterr().err
        assert main(self.BASE + ["--shed-wait-us", "-1"]) == 2
        assert "shed_wait_us" in capsys.readouterr().err
        assert main(self.BASE + ["--degrade-below", "1.5"]) == 2
        assert "degrade_below" in capsys.readouterr().err
        # pre-existing knobs keep the same friendly exit-2 contract
        assert main(self.BASE + ["--max-wait-us", "-5"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_shedding_flags_end_to_end(self, capsys, tmp_path):
        output = tmp_path / "shed.json"
        assert main(self.BASE + ["--rate", "50000",
                                 "--shed-queue-depth", "4",
                                 "--output", str(output)]) == 0
        capsys.readouterr()
        data = json.loads(output.read_text())
        assert data["faults"]["shed"] > 0
        assert data["completed"] + data["faults"]["shed"] == 40

    def test_out_of_range_chip_rejected_at_parse_time(self, capsys, monkeypatch):
        # fault targets are validated before the plan-cache warmup — and
        # before the env gate could drop the schedule, so a typo'd chip
        # index is caught even in a REPRO_SERVE_FAULTS=0 dry run
        monkeypatch.setenv("REPRO_SERVE_FAULTS", "0")
        assert main(self.BASE + ["--inject", "straggler@0:chip=9,factor=2"]) == 2
        assert "out of range" in capsys.readouterr().err
        assert main(self.BASE + ["--inject", "chip_recover@100:chip=3"]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_retry_priority_flag(self, capsys, tmp_path):
        output = tmp_path / "prio.json"
        assert main(self.BASE + ["--fleet", "S:2",
                                 "--inject", "chip_fail@300:chip=0,until=3000",
                                 "--retries", "2", "--retry-priority",
                                 "--output", str(output)]) == 0
        capsys.readouterr()
        data = json.loads(output.read_text())
        assert data["completed"] + data["faults"]["lost"] == 40


class TestServeControlCLI:
    BASE = ["serve", "--model", "squeezenet", "--chip", "S", "--optimizer", "dp",
            "--traffic", "poisson", "--seed", "0", "--requests", "40"]

    def test_control_plane_end_to_end(self, capsys, tmp_path):
        output = tmp_path / "control.json"
        assert main(self.BASE + ["--fleet", "S:2",
                                 "--inject", "chip_fail@300:chip=0,until=5000",
                                 "--retries", "2",
                                 "--control-interval-us", "200",
                                 "--output", str(output)]) == 0
        out = capsys.readouterr().out
        assert "control plane" in out
        assert "quarantines" in out
        data = json.loads(output.read_text())
        assert data["control"]["ticks"] > 0
        assert data["control"]["interval_us"] == 200.0
        assert data["control"]["detections"] == \
            data["control"]["true_detections"] + \
            data["control"]["false_detections"]

    def test_hedge_and_autoscale_flags(self, capsys, tmp_path):
        output = tmp_path / "healing.json"
        assert main(self.BASE + ["--fleet", "S:2", "--rate", "30000",
                                 "--slo", "squeezenet=8",
                                 "--retries", "1",
                                 "--control-interval-us", "200",
                                 "--hedge-after-pct", "80",
                                 "--autoscale", "2:5",
                                 "--cooldown-us", "500",
                                 "--output", str(output)]) == 0
        capsys.readouterr()
        data = json.loads(output.read_text())
        control = data["control"]
        assert control["base_chips"] == 2
        assert 2 <= control["final_chips"] <= 5

    def test_controller_off_keeps_legacy_output(self, capsys, tmp_path):
        output = tmp_path / "off.json"
        assert main(self.BASE + ["--output", str(output)]) == 0
        assert "control plane" not in capsys.readouterr().out
        assert "control" not in json.loads(output.read_text())

    def test_control_features_need_the_interval(self, capsys):
        assert main(self.BASE + ["--hedge-after-pct", "90"]) == 2
        assert "--control-interval-us" in capsys.readouterr().err
        assert main(self.BASE + ["--autoscale", "1:4"]) == 2
        assert "--control-interval-us" in capsys.readouterr().err

    def test_bad_autoscale_spec_rejected(self, capsys):
        base = self.BASE + ["--control-interval-us", "200"]
        assert main(base + ["--autoscale", "four"]) == 2
        assert "expected MIN:MAX" in capsys.readouterr().err
        assert main(base + ["--autoscale", "4"]) == 2
        assert "expected MIN:MAX" in capsys.readouterr().err
        assert main(base + ["--autoscale", "5:2"]) == 2
        assert "min_chips" in capsys.readouterr().err

    def test_bad_control_knobs_rejected(self, capsys):
        base = self.BASE + ["--control-interval-us", "200"]
        assert main(base + ["--straggler-ratio", "1.0"]) == 2
        assert "straggler_ratio" in capsys.readouterr().err
        assert main(base + ["--quarantine-after", "0"]) == 2
        assert "quarantine_after" in capsys.readouterr().err
        assert main(base + ["--probation-us", "0"]) == 2
        assert "probation_us" in capsys.readouterr().err
        assert main(base + ["--hedge-after-pct", "100"]) == 2
        assert "hedge_after_pct" in capsys.readouterr().err

    def test_unknown_scale_chip_rejected(self, capsys):
        assert main(self.BASE + ["--control-interval-us", "200",
                                 "--autoscale", "1:4",
                                 "--scale-chip", "Z"]) == 2
        assert "unknown chip" in capsys.readouterr().err

    def test_control_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--control-interval-us", "250", "--autoscale", "2:6",
             "--hedge-after-pct", "85", "--no-replace-plans",
             "--retry-priority"])
        assert args.control_interval_us == 250.0
        assert args.autoscale == "2:6"
        assert args.hedge_after_pct == 85.0
        assert args.no_replace_plans is True
        assert args.retry_priority is True
