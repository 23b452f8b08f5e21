"""The serve knob table: one description per knob, no drift between the
``repro serve`` options, the scenario spec and the config dataclasses."""

import dataclasses

import pytest

from repro.cli import _serve_spec, build_parser
from repro.serve import ControlConfig, FaultTolerance, TelemetryConfig
from repro.serve.knobs import Knob, knobs_of, read_block
from repro.serve.scenario import MODELS, SPEC_KNOBS, TRAFFIC_KNOBS, parse_spec

CONFIGS = (FaultTolerance, ControlConfig, TelemetryConfig)

#: serve options written by hand: flags that build a spec value by name
#: (fleet, SLOs, faults, the autoscaler range) and flags that only steer
#: the CLI (exports, the printed timeline, GA sizes)
CLI_ONLY = {
    "--chip", "--num-chips", "--fleet", "--slo", "--inject", "--autoscale",
    "--output", "--record-trace", "--metrics-out", "--trace-out",
    "--timeline-rows", "--population", "--generations",
}


def _serve_parser():
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action.choices, dict))
    return subparsers.choices["serve"]


@pytest.mark.parametrize("cls", CONFIGS, ids=lambda cls: cls.__name__)
def test_every_config_field_is_a_knob(cls):
    for field in dataclasses.fields(cls):
        assert isinstance(field.metadata.get("knob"), Knob), field.name
    assert [k.name for k in knobs_of(cls)] == [
        f.name for f in dataclasses.fields(cls)]


def test_every_serve_option_is_a_knob_or_cli_only():
    knob_flags = [k.flag for k in (MODELS,) + SPEC_KNOBS + TRAFFIC_KNOBS
                  + sum((knobs_of(cls) for cls in CONFIGS), ())
                  if k.flag is not None]
    assert len(knob_flags) == len(set(knob_flags))
    options = {option for action in _serve_parser()._actions
               for option in action.option_strings} - {"-h", "--help"}
    assert options == set(knob_flags) | CLI_ONLY


def test_default_argv_parses_to_the_default_spec():
    args = build_parser().parse_args(["serve"])
    assert parse_spec(_serve_spec(args)) == parse_spec({})


def test_option_defaults_are_the_knob_defaults():
    args = build_parser().parse_args(["serve"])
    for knob in (MODELS,) + SPEC_KNOBS + TRAFFIC_KNOBS:
        if knob.flag is not None:
            assert getattr(args, knob.arg_dest) == knob.default, knob.name


def test_bool_flags_flip_their_default():
    args = build_parser().parse_args(
        ["serve", "--control-interval-us", "100", "--no-replace-plans",
         "--retry-priority", "--streaming-percentiles"])
    spec = _serve_spec(args)
    assert spec["control"]["replace_plans"] is False
    assert spec["fault_tolerance"]["retry_priority"] is True
    assert spec["telemetry"]["streaming_percentiles"] is True


@pytest.mark.parametrize("bound, inside, outside", [
    (">= 0", [0, 3.5], [-1e-9]),
    ("> 0", [1e-9], [0, -2]),
    ("> 1", [1.5], [1]),
    ("[0, 1]", [0, 1], [-0.1, 1.1]),
    ("(0, 1]", [0.5, 1], [0]),
    ("[0, 100)", [0, 99.9], [100]),
])
def test_numeric_bounds(bound, inside, outside):
    knob = Knob("x", float, 0.0, bound)
    for value in inside:
        knob.check(float(value), "x")
    for value in outside + [float("nan"), float("inf")]:
        with pytest.raises(ValueError, match="^x must be"):
            knob.check(float(value), "x")


def test_read_block_defaults_unknown_keys_and_paths():
    knobs = (Knob("n", int, 3, ">= 1"), Knob("on", bool, False))
    assert read_block({}, knobs, "blk") == {"n": 3, "on": False}
    assert read_block({"n": 5, "on": True}, knobs, "blk") == {"n": 5, "on": True}
    with pytest.raises(ValueError, match="unknown blk key"):
        read_block({"m": 1}, knobs, "blk")
    with pytest.raises(ValueError, match="blk.n must be >= 1, got 0"):
        read_block({"n": 0}, knobs, "blk")
    with pytest.raises(ValueError, match="blk.on must be a boolean, got 1"):
        read_block({"on": 1}, knobs, "blk")


def test_direct_construction_runs_the_shared_check():
    with pytest.raises(ValueError, match="^timeout_us must be finite"):
        FaultTolerance(timeout_us=float("inf"))
    with pytest.raises(ValueError, match="^scale_chip: unknown chip"):
        ControlConfig(scale_chip="Q")
    with pytest.raises(ValueError, match="max_chips"):
        ControlConfig(min_chips=4, max_chips=2)
    assert ControlConfig(scale_chip="m").scale_chip == "m"
