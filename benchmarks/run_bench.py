#!/usr/bin/env python
"""Run the repository benchmark and write a dated perfbench record.

Usage::

    python benchmarks/run_bench.py

Runs the command of ``BENCHMARK.json`` (``perfbench/run.py``) twice on each
of its workloads, seed 1, for ``run_seconds`` each: ``--trace 0`` gives the
end-to-end metrics and the host-speed probe's quartiles, ``--trace 1`` the
per-layer split and its wrapper-versus-program checks, read back from
``.perfbench/<workload>.layers.json``.  Writes ``BENCH_<YYYYMMDD>.json``
into the repository root, or ``BENCH_<YYYYMMDD>_<n>.json`` with the next
free ``n`` when a record of that date exists (a record is never
overwritten), and exits 1 unless every workload reads ``correct: true``.
``benchmarks/compare_bench.py`` diffs two records.
"""

from __future__ import annotations

import datetime
import json
import re
import subprocess
import sys
from pathlib import Path
from typing import Optional

from compare_bench import HARNESS, ROOT, load_spec

SEED = 1
HOST_SPEED = re.compile(r"host speed from (\d+) probes .*: median ([\d.]+), "
                        r"quartiles ([\d.]+)-([\d.]+)")


def run_perfbench(spec, workload: str, trace: int) -> str:
    """Standard output of one perfbench run; raises if the run fails."""
    command = [*spec["command"], "--workload", workload, "--seed", str(SEED),
               "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    return subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout


def workload_entry(plain_stdout: str, traced_stdout: str, layers_text: str) -> dict:
    """One workload's record entry from its two runs and the traced layers file."""
    plain = json.loads(plain_stdout.splitlines()[-1])
    traced = json.loads(traced_stdout.splitlines()[-1])
    layers = json.loads(layers_text)
    probes, median, q1, q3 = HOST_SPEED.search(plain_stdout).groups()
    return {
        "correct": plain["correct"] and traced["correct"],
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "metrics": {name: m["value"] for name, m in plain["metrics"].items()},
        "host_speed": {"probes": int(probes), "median": float(median),
                       "q1": float(q1), "q3": float(q3)},
        "layers": layers["metrics"],
        "checks": layers["checks"],
    }


def record(path) -> dict:
    """Run every workload of ``BENCHMARK.json`` and write the record to ``path``."""
    spec = load_spec()
    workloads = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        plain = run_perfbench(spec, name, 0)
        traced = run_perfbench(spec, name, 1)
        layers = (ROOT / ".perfbench" / f"{name}.layers.json").read_text()
        workloads[name] = workload_entry(plain, traced, layers)
        print(f"{name}: correct {workloads[name]['correct']}", flush=True)
    data = {"harness": HARNESS, "seed": SEED, "run_seconds": spec["run_seconds"],
            "workloads": workloads}
    with open(path, "x") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return data


def record_path(root: Path = ROOT,
                day: Optional[datetime.date] = None) -> Path:
    """The first free record name of ``day`` (default today) in ``root``."""
    stamp = f"{day or datetime.date.today():%Y%m%d}"
    path = root / f"BENCH_{stamp}.json"
    n = 2
    while path.exists():
        path = root / f"BENCH_{stamp}_{n}.json"
        n += 1
    return path


def main() -> int:
    path = record_path()
    data = record(path)
    print(f"benchmark record written to {path}")
    return 0 if all(entry["correct"] for entry in data["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
