"""``repro.analysis``: the AST-based invariant linter (``repro lint``).

A stdlib-``ast`` static-analysis pass that machine-checks the *static
preconditions* of the repo's runtime contracts — fixed-seed bit-identity,
sequential left-to-right sums, telemetry purity, the serve/service
thread/asyncio boundary, and the central env-flag registry — on every
commit, before a seed-dependent flake can reach the test suite.

One parse + one visitor walk per file; rules are pluggable classes
producing :class:`Finding` records.  See :mod:`repro.analysis.rules` for
the rule set, :mod:`repro.analysis.baseline` for grandfathering and
``README.md`` ("Static analysis") for the CLI tour::

    repro lint src/                       # text findings, exit 1 if any
    repro lint src/ --format json         # machine-readable
    repro lint src/ --rule unseeded-rng   # one rule only
    repro lint src/ --stats               # per-rule counter table
    repro lint src/ --write-baseline      # grandfather current findings

Inline suppression::

    np.random.default_rng()  # repro-lint: disable=unseeded-rng
"""

from repro.analysis.baseline import (
    BASELINE_FILENAME,
    find_baseline,
    load_baseline,
    save_baseline,
)
from repro.analysis.engine import (
    Finding,
    LintContext,
    LintRun,
    PARSE_ERROR_RULE,
    Rule,
    find_project_root,
    iter_python_files,
    lint_file,
    path_matches,
    run_lint,
    scan_suppressions,
)
from repro.analysis.report import LintStats, lint_stats, render_json, render_text
from repro.analysis.rules import ALL_RULES, RULES_BY_ID, select_rules

__all__ = [
    "ALL_RULES",
    "BASELINE_FILENAME",
    "Finding",
    "LintContext",
    "LintRun",
    "LintStats",
    "PARSE_ERROR_RULE",
    "Rule",
    "RULES_BY_ID",
    "find_baseline",
    "find_project_root",
    "iter_python_files",
    "lint_file",
    "lint_stats",
    "load_baseline",
    "path_matches",
    "render_json",
    "render_text",
    "run_lint",
    "save_baseline",
    "scan_suppressions",
    "select_rules",
]
