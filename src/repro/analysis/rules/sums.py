"""``sequential-sum``: pinned modules must sum left-to-right.

The fitness/span accumulation modules — and the on-chip estimator and
mapping allocators whose per-span sums feed them — are pinned bit-identical
to the naive path, whose group fitness is a naive left-to-right Python
``sum``.
``np.sum`` uses pairwise summation and ``math.fsum`` compensated
summation — both are *better* numerically and precisely therefore not
bit-identical to the pin.  Inside the scoped modules any NumPy/fsum
reduction over floats is a finding; integer *counts* are exempt when
wrapped in ``int(...)`` (the house idiom, e.g.
``int(self._have_slim.sum())``), which also documents intent at the call
site.
"""

from __future__ import annotations

import ast
from typing import Iterable, Set

from repro.analysis.engine import Finding, LintContext, Rule

_REDUCTIONS = frozenset({"numpy.sum", "math.fsum"})


def _is_sum_call(node: ast.AST, ctx: LintContext) -> bool:
    if not isinstance(node, ast.Call):
        return False
    if ctx.resolve_call(node) in _REDUCTIONS:
        return True
    # any method call named .sum() — in the scoped modules receivers are
    # ndarrays, whose .sum() is the pairwise reduction
    return isinstance(node.func, ast.Attribute) and node.func.attr == "sum"


class SequentialSumRule(Rule):
    rule_id = "sequential-sum"
    description = ("np.sum/math.fsum/.sum() over fitness or span "
                   "accumulations in modules pinned to sequential "
                   "left-to-right sums; wrap counts in int(...)")
    scopes = ("repro/core", "repro/search", "repro/perf", "repro/onchip",
              "repro/mapping")

    def __init__(self) -> None:
        #: sum calls sanctioned as counts by a direct ``int(...)`` wrapper
        self._count_calls: Set[int] = set()

    def visit(self, node: ast.AST, ctx: LintContext) -> Iterable[Finding]:
        if not isinstance(node, ast.Call):
            return
        # pre-order: the int(...) wrapper is visited before its argument,
        # so sanctioning here is seen when the inner sum call is visited
        if (ctx.resolve_call(node) == "int" and len(node.args) == 1
                and _is_sum_call(node.args[0], ctx)):
            self._count_calls.add(id(node.args[0]))
            return
        if _is_sum_call(node, ctx) and id(node) not in self._count_calls:
            dotted = ctx.resolve_call(node) or ".sum()"
            yield Finding(
                ctx.rel_path, node.lineno, self.rule_id,
                f"{dotted} reduction in a module pinned to sequential "
                "left-to-right sums (pairwise summation is not "
                "bit-identical); use a Python sum loop, or wrap in "
                "int(...) if this is a count",
            )
