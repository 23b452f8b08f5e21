#!/usr/bin/env python
"""Run the benchmark suite and store a dated pytest-benchmark JSON record.

Usage::

    python benchmarks/run_bench.py [extra pytest args...]

Writes ``BENCH_<YYYYMMDD>.json`` (pytest-benchmark's ``--benchmark-json``
format) into the repository root, so successive runs leave a consistent
performance trajectory in the repo.  Full runs include the full-size GA
benchmark (``test_ga_fullsize.py``: paper-default population 100 x 30
generations).  Compare two records with::

    python benchmarks/compare_bench.py BENCH_<old>.json BENCH_<new>.json

and guard against regressions with ``scripts/check_bench_regression.py``
(or ``REPRO_CHECK_BENCH=1 pytest tests/test_bench_regression.py``).

Environment variables:

``REPRO_BENCH_QUICK=1``
    Quick mode: run only the headline benchmarks
    (``test_fig6_throughput_comparison``, ``test_fig10_ga_convergence``,
    the partition-search headliners ``test_dp_optimal_search`` /
    ``test_optimality_gap_experiment``, and the serving headliners
    ``test_serving_throughput`` / ``test_serving_switch_cost`` /
    ``test_serving_faults`` / ``test_serving_control``).
``REPRO_BENCH_OUT=<path>``
    Override the output JSON path.
``COMPASS_PAPER_SCALE=1``
    Forwarded to the harness (paper-scale GA instead of the fast preset,
    see ``benchmarks/conftest.py``).
"""

from __future__ import annotations

import datetime
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro import envflags  # noqa: E402


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    date = datetime.date.today().strftime("%Y%m%d")
    out = envflags.bench_out() or os.path.join(REPO_ROOT, f"BENCH_{date}.json")

    cmd = [
        sys.executable, "-m", "pytest",
        os.path.join(REPO_ROOT, "benchmarks"),
        "-q",
        f"--benchmark-json={out}",
    ]
    if envflags.bench_quick_enabled():
        cmd += ["-k", "fig6_throughput or fig10_ga or dp_optimal or optimality_gap"
                      " or serving_throughput or serving_switch_cost"
                      " or serving_faults or serving_control"
                      " or serving_telemetry or serving_service"]
    cmd += argv

    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )

    print("running:", " ".join(cmd))
    result = subprocess.run(cmd, env=env, cwd=REPO_ROOT)
    if result.returncode == 0:
        print(f"benchmark record written to {out}")
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
