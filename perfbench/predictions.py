"""Score the layer -> workload predictions against the traced runs.

Run the traced benchmark on every workload first (``run.py --trace 1``
writes ``.perfbench/<workload>.layers.json``), then, from the repository
root:

    python3 perfbench/predictions.py

A layer "does the work" in a workload when its self time is at least
``SHARE`` of that workload's traced cycle; it is "predicted unchanged" on
a workload when its self time there is below ``SHARE``, so even making
the layer free could not move that workload's ``ops_per_cpu_s`` by more.
Each prediction prints as confirmed or refuted.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHARE = 0.01

COMPILE = ("compile-cold", "compile-ga")
SERVE = ("serve-fleet", "serve-faults")
ON_CHIP_UNCHANGED = ("compile-ga",) + SERVE

#: layer -> (workloads it does the work in, workloads predicted unchanged)
PREDICTIONS = {
    "models": (("compile-cold",), SERVE),
    "core.decomposition": (("compile-cold",), ("compile-ga",)),
    "perf.fill": (("compile-cold",), ("compile-ga",)),
    "onchip.slim_profile": (("compile-cold",), ON_CHIP_UNCHANGED),
    "onchip.profile": (("compile-cold",), ON_CHIP_UNCHANGED),
    "mapping.replication": (("compile-cold",), ON_CHIP_UNCHANGED),
    "mapping.core_mapping": (("compile-cold",), ON_CHIP_UNCHANGED),
    "search.dp": (("compile-cold",), SERVE),
    "search.ga": (("compile-ga",), ("compile-cold",)),
    "core.fitness": (("compile-ga",), ("compile-cold",)),
    "core.baselines": (("compile-cold",), SERVE),
    "core.compiler": (("compile-cold",), SERVE),
    "sim": (("compile-cold",), SERVE),
    "serve.plans": (("serve-fleet",), ("serve-faults",)),
    "serve.scheduler": (("serve-fleet",), ("serve-faults",)),
    "serve.simulator": (SERVE, COMPILE),
    "serve.control": (("serve-faults",), ("serve-fleet",)),
    "serve.faults": (("serve-faults",), ("serve-fleet",)),
    "serve.telemetry": (("serve-faults",), ("serve-fleet",)),
    "serve.traffic": (SERVE, COMPILE),
}


def main() -> int:
    shares = {}
    for workload in COMPILE + SERVE:
        path = ROOT / ".perfbench" / f"{workload}.layers.json"
        if not path.is_file():
            print(f"error: {path} missing; run run.py --trace 1 on {workload} first",
                  file=sys.stderr)
            return 2
        record = json.loads(path.read_text())
        wall = record["cycle_wall_s"]
        shares[workload] = {layer: record["metrics"][f"{layer}.self_s"] / wall
                            for layer in PREDICTIONS}
    print("| layer | prediction | workload | self-time share | verdict |")
    print("| --- | --- | --- | --- | --- |")
    for layer, (work_in, unchanged_on) in PREDICTIONS.items():
        for kind, workloads, holds in (("does the work", work_in, lambda s: s >= SHARE),
                                       ("unchanged", unchanged_on, lambda s: s < SHARE)):
            for workload in workloads:
                share = shares[workload][layer]
                verdict = "confirmed" if holds(share) else "refuted"
                print(f"| `{layer}` | {kind} | {workload} | {share:.2%} | {verdict} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
