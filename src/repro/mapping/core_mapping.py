"""Assignment of crossbar tiles to physical PIM cores.

After replication is decided, every (layer, replica) pair owns a number of
crossbar tiles.  The mapper packs these tiles onto cores, trying to keep all
tiles of one replica on as few cores as possible (so that partial-sum
reduction stays core-local) while spreading different layers across cores
(so the pipeline stages run on different cores and can overlap).

The resulting :class:`CoreMapping` is consumed by the instruction scheduler
(to emit SEND/RECV between producer and consumer cores) and by the latency
estimator (core utilisation and inter-core traffic).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hardware.chip import ChipConfig
from repro.mapping.replication import ReplicationPlan


@dataclass(slots=True)
class CoreAssignment:
    """Crossbar tiles placed on one physical core."""

    core_id: int
    #: (layer_name, replica_index, num_crossbar_tiles) entries on this core
    entries: List[Tuple[str, int, int]] = field(default_factory=list)

    @property
    def crossbars_used(self) -> int:
        """Total crossbar tiles occupied on this core."""
        return sum(tiles for _, _, tiles in self.entries)

    @property
    def layers(self) -> List[str]:
        """Distinct layer names present on this core."""
        seen: List[str] = []
        for layer, _, _ in self.entries:
            if layer not in seen:
                seen.append(layer)
        return seen


@dataclass(slots=True)
class CoreMapping:
    """Complete core mapping for one partition."""

    assignments: List[CoreAssignment] = field(default_factory=list)
    #: layer name -> list of core ids hosting at least one of its tiles
    layer_cores: Dict[str, List[int]] = field(default_factory=dict)
    #: crossbars available per core (from the chip config)
    crossbars_per_core: int = 0
    #: stats precomputed by the mapper (None -> derived from assignments)
    _cores_used: Optional[int] = field(default=None, repr=False, compare=False)
    _max_core_crossbars: Optional[int] = field(default=None, repr=False, compare=False)

    @property
    def cores_used(self) -> int:
        """Number of cores holding at least one tile."""
        if self._cores_used is not None:
            return self._cores_used
        return sum(1 for a in self.assignments if a.entries)

    @property
    def total_crossbars_used(self) -> int:
        """Crossbar tiles occupied across all cores."""
        return sum(a.crossbars_used for a in self.assignments)

    @property
    def max_core_crossbars(self) -> int:
        """Largest number of crossbar tiles occupied on any single core."""
        if self._max_core_crossbars is not None:
            return self._max_core_crossbars
        return max((a.crossbars_used for a in self.assignments), default=0)

    def utilization(self) -> float:
        """Fraction of crossbars used on the cores that are active."""
        active = [a for a in self.assignments if a.entries]
        if not active or self.crossbars_per_core == 0:
            return 0.0
        capacity = len(active) * self.crossbars_per_core
        return self.total_crossbars_used / capacity

    def cores_for_layer(self, layer_name: str) -> List[int]:
        """Cores hosting tiles of the given layer."""
        return self.layer_cores.get(layer_name, [])


class MappingError(ValueError):
    """Raised when a partition's tiles do not fit on the chip's cores."""


def map_tiles_to_cores(
    names: Sequence[str],
    copies: Sequence[int],
    replication: ReplicationPlan,
    chip: ChipConfig,
) -> CoreMapping:
    """Pack the (replicated) crossbar tiles of a partition onto cores.

    A first-fit-decreasing bin packing is used at replica granularity:
    replicas with many tiles are placed first, each on the core with the most
    free crossbars (splitting across cores only when a replica is larger than
    a whole core).  Only cores that receive tiles appear in the returned
    mapping's ``assignments`` (in core-id order); idle cores carry no
    information.  Takes the two geometry attributes the packer reads (layer
    name and crossbars per copy) as parallel sequences.
    """
    per_core = chip.core.crossbars_per_core
    num_cores = chip.num_cores
    n = len(names)
    factors = [replication.factor(name) for name in names]

    uniform_tiles = -1
    for tiles in copies:
        if uniform_tiles in (-1, tiles):
            uniform_tiles = tiles
        else:
            uniform_tiles = -2
            break

    # Fast path: when every replica has the same tile count t <= per-core
    # capacity and the replicas fit without splitting any of them, the
    # max-free-core policy degenerates to exact round-robin: replica k lands
    # on core k % C.  This is the overwhelmingly common case for spans whose
    # layers were decomposed into equal-size units.
    num_replicas = sum(factors)
    if (
        uniform_tiles > 0
        and per_core >= uniform_tiles
        and num_replicas <= num_cores * (per_core // uniform_tiles)
        and (n == 1 or len(set(names)) == n)
    ):
        # uniform tiles -> the largest-first sort is a no-op, so replicas sit
        # in geometry order, each layer's replicas one contiguous run
        replicas: List[Tuple[str, int, int]] = []
        for name, tiles, factor in zip(names, copies, factors):
            for replica_index in range(factor):
                replicas.append((name, replica_index, tiles))
        touched = min(num_replicas, num_cores)
        assignments = [
            CoreAssignment(core_id=core_id, entries=replicas[core_id::num_cores])
            for core_id in range(touched)
        ]
        # a layer run starting at global position run_start visits cores
        # (run_start + j) % num_cores chronologically — possibly wrapping
        layer_cores: Dict[str, List[int]] = {}
        run_start = 0
        for name, factor in zip(names, factors):
            if factor > 0:
                layer_cores[name] = [
                    (run_start + j) % num_cores for j in range(min(factor, num_cores))
                ]
            run_start += factor
        return CoreMapping(
            assignments=assignments,
            layer_cores=layer_cores,
            crossbars_per_core=per_core,
            _cores_used=touched,
            _max_core_crossbars=(
                uniform_tiles * len(assignments[0].entries) if assignments else 0
            ),
        )

    free = [per_core] * num_cores
    entries_by_core: Dict[int, List[Tuple[str, int, int]]] = {}
    layer_cores = {}
    layer_core_seen: Dict[str, set] = {}

    # Place replicas largest-first (stable order among equal sizes), without
    # materialising the flat replica list: geometry runs are placed whole.
    order = sorted(range(n), key=copies.__getitem__, reverse=True)
    for geom_index in order:
        layer_name = names[geom_index]
        tiles = copies[geom_index]
        for replica_index in range(factors[geom_index]):
            remaining = tiles
            # Prefer the core with the largest free space (keeps replicas
            # together).
            while remaining > 0:
                # first core with the maximum free space
                best_free = max(free)
                if best_free == 0:
                    raise MappingError(
                        f"partition does not fit: layer {layer_name!r} replica "
                        f"{replica_index} needs {remaining} more crossbars but "
                        f"all cores are full"
                    )
                best_core = free.index(best_free)
                placed = remaining if remaining < best_free else best_free
                core_entries = entries_by_core.get(best_core)
                if core_entries is None:
                    core_entries = entries_by_core[best_core] = []
                core_entries.append((layer_name, replica_index, placed))
                free[best_core] = best_free - placed
                remaining -= placed
                seen = layer_core_seen.get(layer_name)
                if seen is None:
                    seen = layer_core_seen[layer_name] = set()
                    layer_cores[layer_name] = []
                if best_core not in seen:
                    seen.add(best_core)
                    layer_cores[layer_name].append(best_core)

    assignments = [
        CoreAssignment(core_id=core_id, entries=entries_by_core[core_id])
        for core_id in sorted(entries_by_core)
    ]
    return CoreMapping(
        assignments=assignments,
        layer_cores=layer_cores,
        crossbars_per_core=per_core,
        _cores_used=len(assignments),
        _max_core_crossbars=(per_core - min(free)) if assignments else 0,
    )


def max_core_crossbars_only(
    names: Sequence[str],
    copies: Sequence[int],
    factors: Sequence[int],
    chip: ChipConfig,
) -> Tuple[int, int]:
    """``(max_core_crossbars, cores_used)`` of ``map_tiles_to_cores(...)``.

    The slim span profilers need exactly two numbers from the core mapping —
    the largest per-core crossbar occupancy, which bounds the weight-write
    phase, and the number of occupied cores, which scales static energy — so
    this replays the packer's placement decisions (the round-robin fast path
    and the max-free-core greedy loop) while tracking only the per-core free
    counts.  ``factors`` is the per-geometry replication factor
    (``replication.factor(name)`` for each name).  It is an exact replay:
    the bookkeeping skipped here (entries, layer→core lists) never
    influences where a tile lands.  Pinned against the full mapper by the
    perf equivalence tests.
    """
    per_core = chip.core.crossbars_per_core
    num_cores = chip.num_cores
    n = len(names)

    uniform_tiles = -1
    for tiles in copies:
        if uniform_tiles in (-1, tiles):
            uniform_tiles = tiles
        else:
            uniform_tiles = -2
            break

    num_replicas = sum(factors)
    if (
        uniform_tiles > 0
        and per_core >= uniform_tiles
        and num_replicas <= num_cores * (per_core // uniform_tiles)
        and (n == 1 or len(set(names)) == n)
    ):
        # round-robin: core 0 receives ceil(num_replicas / num_cores) replicas
        return (uniform_tiles * (-(-num_replicas // num_cores)),
                min(num_replicas, num_cores))

    # Fresh-core fast path: replicas are placed largest-first, and a touched
    # core's free space (per_core - tiles, tiles >= 1) is always below an
    # untouched core's, so while empty cores remain every non-empty replica
    # lands alone on a fresh core.  When all of them fit that way, the
    # fullest core simply holds the largest replica and every non-empty
    # replica occupies a core of its own.
    max_tiles = 0
    nonzero_replicas = 0
    for tiles, factor in zip(copies, factors):
        if tiles > 0:
            nonzero_replicas += factor
            if tiles > max_tiles:
                max_tiles = tiles
    if max_tiles <= per_core and nonzero_replicas <= num_cores:
        return max_tiles, nonzero_replicas

    # The greedy packer's state is fully described by the *multiset* of
    # per-core free counts: every placement takes from a core with the
    # maximum free space, and which of several equally-free cores is chosen
    # never changes the multiset that results.  Simulating value counts
    # instead of a core list turns each placement into O(1) bucket updates
    # (the max-value pointer only ever moves down).  A replica that fits
    # whole in the freest cores lands on one of them and leaves it less
    # free, so the layer's next replicas take the other cores of that
    # bucket one each: they are placed as one batch.
    free_counts = [0] * (per_core + 1)
    free_counts[per_core] = num_cores
    max_free = per_core
    order = sorted(range(n), key=copies.__getitem__, reverse=True)
    for geom_index in order:
        tiles = copies[geom_index]
        replicas = factors[geom_index]
        replica_index = 0
        while tiles > 0 and replica_index < replicas:
            while max_free > 0 and free_counts[max_free] == 0:
                max_free -= 1
            if tiles <= max_free:
                batch = min(free_counts[max_free], replicas - replica_index)
                free_counts[max_free] -= batch
                free_counts[max_free - tiles] += batch
                replica_index += batch
                continue
            remaining = tiles
            while remaining > 0:
                while max_free > 0 and free_counts[max_free] == 0:
                    max_free -= 1
                if max_free == 0:
                    raise MappingError(
                        f"partition does not fit: layer {names[geom_index]!r} replica "
                        f"{replica_index} needs {remaining} more crossbars but "
                        f"all cores are full"
                    )
                best_free = max_free
                placed = remaining if remaining < best_free else best_free
                free_counts[best_free] -= 1
                free_counts[best_free - placed] += 1
                remaining -= placed
            replica_index += 1
    # every placement leaves its core below full, so untouched cores are
    # exactly those still at per_core free
    min_free = 0
    while free_counts[min_free] == 0:
        min_free += 1
    return per_core - min_free, num_cores - free_counts[per_core]

