#!/usr/bin/env python
"""Diff two perfbench ``BENCH_<date>.json`` records against the benchmark's bounds.

Usage::

    python benchmarks/compare_bench.py BENCH_<old>.json BENCH_<new>.json

Reads two records written by ``benchmarks/run_bench.py`` and prints, per
workload, each end-to-end metric of ``BENCHMARK.json`` old and new.  Exits
1 when a workload of the new record reads ``correct: false``, fails a
larger share of its operations, or has an end-to-end metric worse than
the old value by more than the metric's ``bound`` (in the direction its
``better`` names).  Per-layer ``count`` counters are deterministic, so a
changed count is listed exactly, but never fails.  Workloads and metrics
present in only one record are listed and never fail either.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: value of a record's ``harness`` key; older pytest-benchmark files lack it
HARNESS = "perfbench"


def load_spec() -> dict:
    """The repository's ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_record(path) -> dict:
    """Workload name -> entry of one perfbench record.

    Raises ``ValueError`` for any other JSON, such as the pytest-benchmark
    records the repository kept before perfbench.
    """
    with open(path) as handle:
        data = json.load(handle)
    if data.get("harness") != HARNESS:
        raise ValueError(f"{path} is not a {HARNESS} record")
    return data["workloads"]


def relative_change(old: float, new: float) -> float:
    """``(new - old) / |old|``; infinite when only ``old`` is zero."""
    if old == new:
        return 0.0
    return (new - old) / abs(old) if old else math.copysign(math.inf, new - old)


def compare_workload(old: dict, new: dict, spec: dict) -> list:
    """Print one workload's diff; return its failures."""
    old_share, new_share = (e["failed"] / max(e["attempted"], 1) for e in (old, new))
    failures = []
    if new_share > old_share:
        failures.append(f"failed share rose from {old_share:.3%} to {new_share:.3%}")
    print(f"  {'metric':<16}  {'old':>12}  {'new':>12}  {'change':>8}  bound")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if name not in old["metrics"] or name not in new["metrics"]:
            print(f"  {name:<16}  only in one record")
            continue
        before, after = old["metrics"][name], new["metrics"][name]
        change = relative_change(before, after)
        worse = change if metric["better"] == "lower" else -change
        marker = ""
        if worse > metric["bound"]:
            marker = "  << REGRESSION"
            failures.append(f"{name} worse by {worse:.1%} (bound {metric['bound']:.0%})")
        print(f"  {name:<16}  {before:>12.6g}  {after:>12.6g}  {change:>+8.1%}  "
              f"{metric['bound']:.0%} {metric['better']}{marker}")
    old_layers, new_layers = old["layers"], new["layers"]
    for metric in spec["per_layer"]:
        name = metric["name"]
        if metric["unit"] == "count" and name in old_layers and name in new_layers \
                and old_layers[name] != new_layers[name]:
            print(f"  counter changed: {name} {old_layers[name]} -> {new_layers[name]}")
    return failures


def compare(old_path, new_path, spec: dict) -> int:
    """Print the diff of two records; 1 if the new one fails the check, else 0."""
    old, new = load_record(old_path), load_record(new_path)
    failures = [f"{name}: correct is false" for name, entry in sorted(new.items())
                if not entry["correct"]]
    common = [name for name in new if name in old]
    for name in common:
        print(name)
        failures += [f"{name}: {failure}"
                     for failure in compare_workload(old[name], new[name], spec)]
    if not common:
        print("no workloads in common; nothing to compare")
    for name in sorted(set(old) - set(new)):
        print(f"only in {old_path}: {name}")
    for name in sorted(set(new) - set(old)):
        print(f"only in {new_path}: {name}")
    for failure in failures:
        print(f"FAILED {failure}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="baseline BENCH_<date>.json")
    parser.add_argument("new", help="candidate BENCH_<date>.json")
    args = parser.parse_args(argv)
    try:
        return compare(args.old, args.new, load_spec())
    except ValueError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
