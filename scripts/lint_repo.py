#!/usr/bin/env python
"""Fail when ``src/`` violates the repo's statically-checkable invariants.

Runs the invariant linter (:mod:`repro.analysis`, the same engine behind
``repro lint``) over ``src/`` against the committed ``lint_baseline.json``
and exits non-zero on any non-baselined, non-suppressed finding — or on a
stale baseline entry, so the grandfathered set shrinks monotonically
instead of fossilising.  The per-rule stats table is always printed, so CI
logs show suppression/baseline drift even on green runs.

``python scripts/lint_repo.py`` locally is exactly what CI's lint step
runs; unlike ``repro lint src/`` it also fails on a stale baseline entry.
Its dynamic counterpart is ``scripts/check_bench_regression.py``, the
perfbench regression gate.  Pass extra paths to lint more than ``src/``
(e.g. ``benchmarks/ scripts/``).
"""

from __future__ import annotations

import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro import analysis  # noqa: E402


def main(argv: list) -> int:
    paths = [os.path.join(REPO_ROOT, p) for p in argv] or \
        [os.path.join(REPO_ROOT, "src")]
    baseline_path = os.path.join(REPO_ROOT, analysis.BASELINE_FILENAME)
    baseline = analysis.load_baseline(baseline_path)
    run = analysis.run_lint(paths, analysis.ALL_RULES, root=REPO_ROOT,
                            baseline=baseline)
    print(analysis.render_text(run))
    print(analysis.lint_stats(run, analysis.ALL_RULES).render())
    if run.stale_baseline:
        for file, rule, message in run.stale_baseline:
            print(f"stale baseline entry (already fixed — prune it): "
                  f"{file}: [{rule}] {message}")
        return 1
    return 1 if run.reported else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
