"""Tests of the central env-flag registry (:mod:`repro.envflags`).

The accessors replaced ~27 scattered ``os.environ`` reads in PR 10; these
tests pin the three deliberately distinct gate semantics so the
centralisation can never silently normalise them:

* ``not in ("", "0")`` — default-on gates where ``""`` *disables*
  (switch cost, faults);
* ``!= "0"`` — telemetry: the empty string keeps it ON;
* truthiness — the plain opt-in where any non-empty value enables.
"""

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
    def test_truthiness_opt_ins(self, monkeypatch):
        _sweep(monkeypatch, "COMPASS_PAPER_SCALE", envflags.paper_scale_enabled,
               {None: False, "": False, "1": True, "0": True})


class TestRegistry:
    def test_registry_covers_every_accessor(self):
        assert envflags.REGISTERED_NAMES == (
            "REPRO_SERVE_SWITCH_COST", "REPRO_SERVE_FAULTS",
            "REPRO_SERVE_TELEMETRY", "COMPASS_PAPER_SCALE")
        assert len(set(envflags.REGISTERED_NAMES)) == len(envflags.REGISTRY)
        for flag in envflags.REGISTRY:
            assert flag.description
