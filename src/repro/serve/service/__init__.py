"""Live serving observatory: asyncio REST + WebSocket telemetry service.

``repro.serve.service`` turns the serving simulator's passive telemetry
into a live surface, with zero new dependencies (stdlib ``asyncio`` and a
hand-rolled minimal HTTP/WebSocket layer):

* **scenarios in** — POST a JSON scenario spec (fleet, traffic, SLOs,
  faults, control plane) and it runs on a worker thread
  (:mod:`~repro.serve.service.jobs`).  The spec format and its builder
  are the ones ``repro serve`` uses (:mod:`repro.serve.scenario`); the
  service adds only its own rules: no trace replay and a default
  streaming window;
* **windows out** — the simulator streams each timeline window the
  moment it is provably final, fanned out to WebSocket subscribers with
  per-client bounded queues and slow-consumer drop counters
  (:mod:`~repro.serve.service.broadcast`);
* **state cached** — rolling timeline, fault/command events and hub
  snapshots are poll-able over REST, and ``/metrics`` renders the
  telemetry hub in Prometheus text exposition format
  (:mod:`~repro.serve.service.routes`,
  :mod:`~repro.serve.service.prometheus`);
* **control in** — POST mid-run commands (inject a fault, change the
  scheduling policy, set autoscale bounds) that enter the simulator's
  deterministic event order through a
  :class:`~repro.serve.simulator.CommandQueue`.

Start one with ``repro observe`` (or embed :class:`ServerThread` in
tests) and follow a run with ``repro observe --follow <id>``.
"""

from repro.serve.service.broadcast import BroadcastHub, Subscription
from repro.serve.service.client import WebSocketClient, request_json
from repro.serve.service.jobs import Observatory, ScenarioJob, validate_spec
from repro.serve.service.prometheus import render_prometheus
from repro.serve.service.routes import ObservatoryServer, ServerThread

__all__ = [
    "BroadcastHub",
    "Observatory",
    "ObservatoryServer",
    "ScenarioJob",
    "ServerThread",
    "Subscription",
    "WebSocketClient",
    "render_prometheus",
    "request_json",
    "validate_spec",
]
