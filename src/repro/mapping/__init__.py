"""Weight-to-crossbar mapping: geometry, replication and core assignment.

This package answers three questions the compiler asks about every
Conv/Linear layer:

1. How many crossbars does one copy of the layer's weight matrix occupy?
   (:mod:`repro.mapping.geometry`)
2. How many copies (replicas) should be programmed to balance the pipeline,
   given the crossbar budget of a partition? (:mod:`repro.mapping.replication`)
3. Which physical cores hold which crossbar tiles?
   (:mod:`repro.mapping.core_mapping`)
"""

from repro.mapping.geometry import WeightMatrixGeometry, layer_geometry
from repro.mapping.replication import ReplicationPlan
from repro.mapping.core_mapping import CoreAssignment, CoreMapping

__all__ = [
    "WeightMatrixGeometry",
    "layer_geometry",
    "ReplicationPlan",
    "CoreAssignment",
    "CoreMapping",
]
