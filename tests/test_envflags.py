"""Tests of the central env-flag registry (:mod:`repro.envflags`).

The accessors replaced ~27 scattered ``os.environ`` reads in PR 10; these
tests pin the three deliberately distinct gate semantics so the
centralisation can never silently normalise them:

* ``not in ("", "0")`` — default-on gates where ``""`` *disables*
  (switch cost, faults) and the default-off sweep opt-in;
* ``!= "0"`` — telemetry: the empty string keeps it ON;
* truthiness — plain opt-ins where any non-empty value enables.
"""

import pytest

from repro import envflags


def _sweep(monkeypatch, name, accessor, cases):
    for value, expected in cases.items():
        if value is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, value)
        assert accessor() is expected, f"{name}={value!r}"


class TestDefaultOnGates:
    """``not in ("", "0")``: unset and any other value ON, ""/"0" OFF."""

    CASES = {None: True, "1": True, "yes": True, "0": False, "": False}

    def test_serve_switch_cost(self, monkeypatch):
        _sweep(monkeypatch, "REPRO_SERVE_SWITCH_COST",
               envflags.serve_switch_cost_enabled, self.CASES)

    def test_serve_faults(self, monkeypatch):
        _sweep(monkeypatch, "REPRO_SERVE_FAULTS",
               envflags.serve_faults_enabled, self.CASES)


class TestTelemetryGate:
    """``!= "0"``: ONLY the literal "0" disables — "" keeps telemetry on."""

    def test_serve_telemetry(self, monkeypatch):
        _sweep(monkeypatch, "REPRO_SERVE_TELEMETRY",
               envflags.serve_telemetry_enabled,
               {None: True, "1": True, "": True, "0": False})


class TestOptIns:
    def test_parallel_sweeps(self, monkeypatch):
        # default-off variant of the not-in-("","0") gate
        _sweep(monkeypatch, "REPRO_PARALLEL_SWEEPS",
               envflags.parallel_sweeps_enabled,
               {None: False, "": False, "0": False, "1": True, "4": True})

    def test_truthiness_opt_ins(self, monkeypatch):
        cases = {None: False, "": False, "1": True, "0": True}
        _sweep(monkeypatch, "REPRO_BENCH_QUICK",
               envflags.bench_quick_enabled, cases)
        _sweep(monkeypatch, "REPRO_CHECK_BENCH",
               envflags.check_bench_enabled, cases)
        _sweep(monkeypatch, "COMPASS_PAPER_SCALE",
               envflags.paper_scale_enabled, cases)


class TestValueAccessors:
    def test_bench_out(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_OUT", raising=False)
        assert envflags.bench_out() is None
        monkeypatch.setenv("REPRO_BENCH_OUT", "")
        assert envflags.bench_out() is None  # empty string = dated default
        monkeypatch.setenv("REPRO_BENCH_OUT", "out.json")
        assert envflags.bench_out() == "out.json"

    def test_bench_regression_pct(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_REGRESSION_PCT", raising=False)
        assert envflags.bench_regression_pct() == 20.0
        monkeypatch.setenv("REPRO_BENCH_REGRESSION_PCT", "7.5")
        assert envflags.bench_regression_pct() == 7.5
        monkeypatch.setenv("REPRO_BENCH_REGRESSION_PCT", "junk")
        with pytest.raises(ValueError):
            envflags.bench_regression_pct()


class TestRegistry:
    def test_registry_covers_every_accessor(self):
        assert envflags.REGISTERED_NAMES == (
            "REPRO_PARALLEL_SWEEPS", "REPRO_BENCH_QUICK", "REPRO_BENCH_OUT",
            "REPRO_CHECK_BENCH", "REPRO_BENCH_REGRESSION_PCT", "REPRO_SERVE_SWITCH_COST",
            "REPRO_SERVE_FAULTS", "REPRO_SERVE_TELEMETRY",
            "COMPASS_PAPER_SCALE")
        assert len(set(envflags.REGISTERED_NAMES)) == len(envflags.REGISTRY)
        for flag in envflags.REGISTRY:
            assert flag.description
