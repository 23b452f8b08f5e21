#!/usr/bin/env python
"""Fail when the current tree regresses against the newest committed perfbench record.

Usage::

    python scripts/check_bench_regression.py

Records the current tree with ``benchmarks/run_bench.py`` into a temporary
file and diffs it with ``benchmarks/compare_bench.py`` against the newest
``BENCH_<date>.json`` or ``BENCH_<date>_<n>.json`` in the repository root
that is a perfbench record (older pytest-benchmark files are skipped);
exits 1 when that diff fails.
perfbench corrects CPU time for host speed, but the check is still most
telling on the host that wrote the baseline.
"""

from __future__ import annotations

import re
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from compare_bench import compare, load_record, load_spec  # noqa: E402
from run_bench import record  # noqa: E402


RECORD_NAME = re.compile(r"BENCH_(\d{8})(?:_(\d+))?\.json")


def record_order(path: Path) -> tuple:
    """``(date, n)`` of a record name; the unsuffixed record of a day is 1."""
    date, n = RECORD_NAME.fullmatch(path.name).groups()
    return date, int(n or 1)


def latest_baseline(root: Path = REPO_ROOT) -> Path:
    """Newest perfbench record in ``root``, by filename date then suffix."""
    named = [path for path in root.glob("BENCH_*.json")
             if RECORD_NAME.fullmatch(path.name)]
    for path in sorted(named, key=record_order, reverse=True):
        try:
            load_record(path)
        except ValueError:
            continue
        return path
    raise SystemExit(f"no perfbench BENCH_<date>.json baseline in {root}")


def main() -> int:
    baseline = latest_baseline()
    print(f"recording the current tree against baseline {baseline.name}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        current = Path(tmp) / "bench_current.json"
        record(current)
        return compare(baseline, current, load_spec())


if __name__ == "__main__":
    sys.exit(main())
