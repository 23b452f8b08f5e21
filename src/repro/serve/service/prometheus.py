"""Prometheus text exposition rendering of telemetry hub snapshots.

The ``/metrics`` endpoint turns the per-job ``Telemetry`` hub snapshots
(the same ``counters`` / ``gauges`` / ``histograms`` mapping the report's
``telemetry`` block carries) into the Prometheus text exposition format
(version 0.0.4): one ``# TYPE`` line per metric family, counter families
suffixed ``_total``, and each :class:`~repro.serve.telemetry.
LogLinearHistogram` exposed as a cumulative ``le``-bucketed classic
histogram.  The snapshot keys each bin by its bucket's upper edge and
that key becomes the bucket's ``le``, so only the telemetry module knows
the bucket layout.

No external client library — the format is plain text and the writer
below emits nothing outside the spec's grammar (a test parses the output
back with a strict grammar check).
"""

from __future__ import annotations

import re
from typing import Dict, List, Mapping, Tuple

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")

#: every metric this module emits lives under one namespace
PREFIX = "repro_serve"


def _name(*parts: str) -> str:
    """Join and sanitise into a legal Prometheus metric name."""
    joined = "_".join([PREFIX] + [part for part in parts if part])
    cleaned = _SANITIZE.sub("_", joined)
    if not _NAME_OK.match(cleaned):
        cleaned = "_" + cleaned
    return cleaned


def _label_value(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace('"', r"\"")
            .replace("\n", r"\n"))


def _labels(pairs: Mapping[str, str]) -> str:
    if not pairs:
        return ""
    inner = ",".join(f'{key}="{_label_value(value)}"'
                     for key, value in pairs.items())
    return "{" + inner + "}"


def _number(value: object) -> str:
    # repr keeps full float precision; integers stay integral
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


class _Family:
    """One metric family: a ``# TYPE`` header plus its sample lines."""

    def __init__(self, name: str, kind: str) -> None:
        self.name = name
        self.kind = kind
        self.samples: List[str] = []

    def add(self, labels: Mapping[str, str], value: object,
            suffix: str = "") -> None:
        self.samples.append(
            f"{self.name}{suffix}{_labels(labels)} {_number(value)}")

    def render(self) -> List[str]:
        return [f"# TYPE {self.name} {self.kind}"] + self.samples


def render_prometheus(
    jobs: Mapping[str, Mapping[str, object]],
    service: Mapping[str, object],
) -> str:
    """Render per-job hub snapshots + service totals as exposition text.

    ``jobs`` maps job id -> hub snapshot (``counters``/``gauges``/
    ``histograms``); ``service`` is a flat mapping of observatory-level
    gauges (scenario states, broadcast totals).  Families are emitted in
    sorted-name order so the output is deterministic.
    """
    families: Dict[Tuple[str, str], _Family] = {}

    def family(name: str, kind: str) -> _Family:
        key = (name, kind)
        existing = families.get(key)
        if existing is None:
            existing = families[key] = _Family(name, kind)
        return existing

    for key in sorted(service):
        family(_name("service", key), "gauge").add({}, service[key])

    for job_id in sorted(jobs):
        snapshot = jobs[job_id]
        base = {"job": str(job_id)}
        counters = snapshot.get("counters") or {}
        events = family(_name("events_total"), "counter")
        for counter_name in sorted(counters):
            events.add(dict(base, event=str(counter_name)),
                       counters[counter_name])
        gauges = snapshot.get("gauges") or {}
        gauge_family = family(_name("gauge"), "gauge")
        for source in sorted(gauges):
            block = gauges[source]
            if not isinstance(block, Mapping):
                continue
            for key in sorted(block):
                value = block[key]
                if not isinstance(value, (int, float)):
                    continue
                gauge_family.add(
                    dict(base, source=str(source), key=str(key)), value)
        histograms = snapshot.get("histograms") or {}
        for hist_name in sorted(histograms):
            block = histograms[hist_name]
            if not isinstance(block, Mapping):
                continue
            hist_family = family(_name(str(hist_name)), "histogram")
            bins = block.get("bins") or {}
            cumulative = 0
            for upper in sorted(bins, key=float):
                cumulative += int(bins[upper])
                hist_family.add(dict(base, le=upper), cumulative,
                                suffix="_bucket")
            count = int(block.get("count", 0))
            hist_family.add(dict(base, le="+Inf"), count, suffix="_bucket")
            total = float(block.get("mean", 0.0)) * count
            hist_family.add(base, total, suffix="_sum")
            hist_family.add(base, count, suffix="_count")

    lines: List[str] = []
    for key in sorted(families):
        lines.extend(families[key].render())
    return "\n".join(lines) + "\n"
