"""Central registry of the repository's environment flags.

Every ``REPRO_*`` / ``COMPASS_*`` environment variable the codebase reacts
to is declared here, once, as a typed accessor plus a :data:`REGISTRY`
entry.  Reading :data:`os.environ` anywhere else in ``src/`` is a lint
finding (the ``env-gate`` rule of :mod:`repro.analysis`), and the same rule
cross-checks this module against the environment-variable table in
``ROADMAP.md`` — a flag cannot ship undocumented, and a documented flag
cannot silently lose its implementation.

The accessors preserve the exact semantics of the scattered reads they
replaced; the three gate styles in use are deliberately kept distinct:

``not in ("", "0")``
    default-on gates where the empty string *disables*
    (``REPRO_SERVE_SWITCH_COST``, ``REPRO_SERVE_FAULTS``).
``!= "0"``
    ``REPRO_SERVE_TELEMETRY`` — default on, the empty string keeps it on;
    only a literal ``0`` drops the telemetry layer.
truthiness
    the opt-in where any non-empty value enables (``COMPASS_PAPER_SCALE``).

These distinctions are pinned by ``tests/test_envflags.py`` and by the
env-gate bit-identity pins in ``tests/test_serve.py`` /
``tests/test_telemetry.py``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class EnvFlag:
    """One declared environment flag (name, default and documentation)."""

    name: str
    default: str
    description: str


#: every environment flag the repository reads, in ROADMAP table order
REGISTRY: Tuple[EnvFlag, ...] = (
    EnvFlag("REPRO_SERVE_SWITCH_COST", "on",
            "0 disables plan-switch weight-replacement cost in serving"),
    EnvFlag("REPRO_SERVE_FAULTS", "on",
            "0 drops every injected fault event (fault-free twin)"),
    EnvFlag("REPRO_SERVE_TELEMETRY", "on",
            "0 drops the telemetry layer wholesale"),
    EnvFlag("COMPASS_PAPER_SCALE", "off",
            "1 runs the benchmarks/ figure tests with the paper-scale GA"),
)

#: flag names, for registry/doc cross-checks
REGISTERED_NAMES: Tuple[str, ...] = tuple(flag.name for flag in REGISTRY)


# ----------------------------------------------------------------------
# typed accessors (the only sanctioned os.environ reads in src/)
# ----------------------------------------------------------------------

def serve_switch_cost_enabled() -> bool:
    """Plan-switch cost modelling gate (default on; ``""``/``"0"`` disable)."""
    return os.environ.get("REPRO_SERVE_SWITCH_COST", "1") not in ("", "0")


def serve_faults_enabled() -> bool:
    """Fault-injection gate (default on; ``""``/``"0"`` disable)."""
    return os.environ.get("REPRO_SERVE_FAULTS", "1") not in ("", "0")


def serve_telemetry_enabled() -> bool:
    """Telemetry-layer gate (default on; only a literal ``"0"`` disables)."""
    return os.environ.get("REPRO_SERVE_TELEMETRY", "1") != "0"


def paper_scale_enabled() -> bool:
    """Paper-scale GA benchmark opt-in (any non-empty value enables)."""
    return bool(os.environ.get("COMPASS_PAPER_SCALE"))
