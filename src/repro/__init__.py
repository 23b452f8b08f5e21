"""COMPASS reproduction: a compiler framework for resource-constrained
crossbar-array based in-memory deep learning accelerators.

Public API highlights
---------------------

* :func:`repro.models.build_model` — build a benchmark DNN graph by name.
* :data:`repro.hardware.CHIP_S` / ``CHIP_M`` / ``CHIP_L`` — the Table I chips.
* :func:`repro.core.compile_model` — one-call compilation of a model for a
  chip with the COMPASS GA or a baseline partitioning scheme.
* :mod:`repro.evaluation` — one function per table and figure of the
  paper (``table1_hardware_configuration`` ... ``fig10_ga_convergence``).
"""

from repro.core import (
    CompassCompiler,
    CompilationResult,
    CompilerOptions,
    compile_model,
)
from repro.hardware import CHIP_L, CHIP_M, CHIP_S, get_chip_config
from repro.models import build_model, list_models

__version__ = "1.0.0"

__all__ = [
    "CompassCompiler",
    "CompilationResult",
    "CompilerOptions",
    "compile_model",
    "CHIP_S",
    "CHIP_M",
    "CHIP_L",
    "get_chip_config",
    "build_model",
    "list_models",
    "__version__",
]
