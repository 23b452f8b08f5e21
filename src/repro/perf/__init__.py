"""Performance layer: the span-table + dense span-matrix evaluation engine.

This package holds the cross-cutting performance machinery described in the
"Performance architecture" section of ROADMAP.md:

* :class:`~repro.perf.spantable.SpanTable` — memoised per-span partition
  profiles and (span, batch) estimates with hit/miss statistics, plus the
  slim and energy records that fill the matrices (computed, not kept);
* :class:`~repro.perf.spanmatrix.SpanMatrix` — dense ``(L+1)×(L+1)``
  float64 span matrices over the table, the only store of slim latency and
  energy records: every fitness lookup, of a whole GA population or of one
  group, is a fancy-indexed gather instead of per-span Python;
* :func:`~repro.perf.spantable.span_table_for` /
  :func:`~repro.perf.spanmatrix.span_matrix_for` — the per-decomposition
  registries through which the fitness evaluator, the baselines, the
  execution simulator and the compiler share one cache hierarchy.

The engine is an exact accelerator: every value it returns is bit-identical
to the naive per-call estimation path (enforced by
``tests/test_perf_equivalence.py``).
"""

from repro.perf.spanmatrix import SpanMatrix, span_matrix_for
from repro.perf.spantable import SpanTable, SpanTableStats, span_table_for

__all__ = [
    "SpanMatrix",
    "SpanTable",
    "SpanTableStats",
    "span_matrix_for",
    "span_table_for",
]
