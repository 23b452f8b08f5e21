"""Exact dynamic-programming partition search.

The paper treats partitioning as a black-box search and attacks it with the
GA of Algorithm 1.  But with the dense span matrix of :mod:`repro.perf`
every span cost is an O(1) gather, and in latency mode the partition-group
fitness is *additive* over spans — so the problem is a shortest path over
the ``L + 1`` cut positions of the unit string and can be solved exactly:

    best[0] = 0
    best[j] = min over valid spans [i, j) of  best[i] + cost(i, j)

with the validity map masking the transitions.  ``best[L]`` is the provable
optimum, which is what lets :func:`repro.evaluation.experiments.optimality_gap`
quantify how far the GA lands from it.

The accumulation ``best[i] + cost(i, j)`` associates left to right, exactly
like the sequential Python ``sum`` that defines
:attr:`~repro.core.fitness.GroupEvaluation.fitness` — so the DP optimum is
bit-identical to evaluating the reconstructed group, not merely close.

EDP mode is *not* additive (group EDP is ``sum(energy) × sum(latency)``), so
no scalar DP applies.  Instead the engine runs a Pareto-frontier DP over
``(latency, energy)`` prefix states: both coordinates are additive and the
final objective is monotone in both, so dominated prefixes can never win and
pruning them is lossless.  The result is exact while the frontier fits in
``max_frontier`` states per cut position; if a frontier ever overflows, it
is thinned evenly and the result is reported with ``exact=False`` (a strong
heuristic and a lower-bound witness rather than a certificate).

The per-position frontier sizes of the last EDP run are recorded in
:attr:`DPOptimalSearch.frontier_sizes`, and
:func:`repro.evaluation.experiments.edp_frontier_sizes` measures them across
the registry.  Measured maxima (batch 1 and 16, uncapped): ≤ 7 on the
ResNet family, ≤ 500 on alexnet/mobilenet/squeezenet, and 4166 at worst on
vgg11-S — which sizes :data:`DEFAULT_MAX_FRONTIER` (8192) with ~2x headroom,
so the EDP DP is exact for every registry model on every chip.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.decomposition import ModelDecomposition
from repro.core.fitness import FitnessEvaluator, FitnessMode
from repro.core.partition import PartitionGroup
from repro.core.validity import ValidityMap
from repro.search.base import PartitionSearch, SearchResult, SearchStep, SpanCostModel

#: default Pareto states kept per cut position in EDP mode; sized so no
#: registry model's real frontier overflows it (see the module docstring)
DEFAULT_MAX_FRONTIER = 8192


class DPOptimalSearch(PartitionSearch):
    """Exact Bellman DP over the validity-masked span matrix."""

    name = "dp"

    def __init__(
        self,
        decomposition: ModelDecomposition,
        evaluator: FitnessEvaluator,
        validity: Optional[ValidityMap] = None,
        max_frontier: int = DEFAULT_MAX_FRONTIER,
    ) -> None:
        super().__init__(decomposition, evaluator, validity)
        if max_frontier != 0 and max_frontier < 2:
            raise ValueError("max_frontier must be 0 (uncapped) or at least 2")
        #: Pareto states kept per cut position in EDP mode (0 disables the cap)
        self.max_frontier = max_frontier
        #: per-position Pareto frontier sizes of the last EDP run (after
        #: pruning/thinning); ``None`` until an EDP search has run
        self.frontier_sizes: Optional[List[int]] = None

    # ------------------------------------------------------------------
    def _run(self) -> SearchResult:
        if self.evaluator.mode is FitnessMode.LATENCY:
            return self._run_latency()
        return self._run_edp()

    # ------------------------------------------------------------------
    # latency mode: scalar shortest-path DP (provably exact)
    # ------------------------------------------------------------------
    def _run_latency(self) -> SearchResult:
        n = self.decomposition.num_units
        starts, ends = self._valid_spans()
        cost_model = SpanCostModel(self.evaluator)
        costs = cost_model.latency_costs(starts, ends)

        span_cost = np.full((n + 1, n + 1), np.inf)
        span_cost[starts, ends] = costs

        best = np.full(n + 1, np.inf)
        best[0] = 0.0
        choice = np.zeros(n + 1, dtype=np.int64)
        depth = np.zeros(n + 1, dtype=np.int64)
        history: List[SearchStep] = []
        for j in range(1, n + 1):
            # every prefix in best[:j] is finite: [j-1, j) is always valid
            # (a unit that does not fit alone fails ValidityMap construction)
            totals = best[:j] + span_cost[:j, j]
            i = int(np.argmin(totals))
            best[j] = totals[i]
            choice[j] = i
            depth[j] = depth[i] + 1
            history.append(
                SearchStep(
                    step=j,
                    best_fitness=float(best[n]) if j == n else float("inf"),
                    candidate_fitness=float(best[j]),
                    num_partitions=int(depth[j]),
                )
            )

        boundaries: List[int] = []
        j = n
        while j > 0:
            boundaries.append(j)
            j = int(choice[j])
        boundaries.reverse()

        group = PartitionGroup.from_boundaries(self.decomposition, boundaries)
        evaluation = self.evaluator.evaluate(group)
        return SearchResult(
            optimizer=self.name,
            best_group=group,
            best_evaluation=evaluation,
            history=history,
            steps_run=n,
            evaluations=cost_model.spans_costed,
            exact=True,
        )

    # ------------------------------------------------------------------
    # EDP mode: Pareto-frontier DP over (latency, energy) prefix states
    # ------------------------------------------------------------------
    def _run_edp(self) -> SearchResult:
        n = self.decomposition.num_units
        starts, ends = self._valid_spans()
        cost_model = SpanCostModel(self.evaluator)
        energy, latency = cost_model.energy_latency_costs(starts, ends)

        span_energy = np.full((n + 1, n + 1), np.inf)
        span_latency = np.full((n + 1, n + 1), np.inf)
        span_energy[starts, ends] = energy
        span_latency[starts, ends] = latency
        valid = np.zeros((n + 1, n + 1), dtype=bool)
        valid[starts, ends] = True

        # state: (latency_sum, energy_sum, predecessor position, state index
        # there, partitions so far); position 0 holds the empty prefix
        states: List[List[Tuple[float, float, int, int, int]]] = [[] for _ in range(n + 1)]
        states[0] = [(0.0, 0.0, -1, -1, 0)]
        exact = True
        self.frontier_sizes = []
        history: List[SearchStep] = []
        for j in range(1, n + 1):
            candidates: List[Tuple[float, float, int, int, int]] = []
            rows = np.nonzero(valid[:j, j])[0]
            # Python floats: the same IEEE sums as float64 scalars, cheaper
            # to add and to compare in the sort below
            for i, lat_ij, en_ij in zip(rows.tolist(), span_latency[rows, j].tolist(),
                                        span_energy[rows, j].tolist()):
                for idx, (lat, en, _, _, parts) in enumerate(states[i]):
                    candidates.append(
                        (lat + lat_ij, en + en_ij, i, idx, parts + 1)
                    )
            # Pareto prune: sort by (latency, energy); keep strictly
            # decreasing energy.  Dominated prefixes can never produce a
            # better final EDP because both coordinates only ever grow.
            # Candidates are built in (i, idx) order and (i, idx) is unique,
            # so the plain tuple sort orders (latency, energy) ties exactly
            # as a stable sort on (latency, energy) would.
            candidates.sort()
            frontier: List[Tuple[float, float, int, int, int]] = []
            best_energy = float("inf")
            for state in candidates:
                if state[1] < best_energy:
                    frontier.append(state)
                    best_energy = state[1]
            # record the true (pre-thinning) frontier size: this is what the
            # edp_frontier_sizes experiment measures against the cap
            self.frontier_sizes.append(len(frontier))
            if self.max_frontier and len(frontier) > self.max_frontier:
                # thin evenly along the frontier, keeping both extremes
                keep = np.linspace(0, len(frontier) - 1, self.max_frontier)
                frontier = [frontier[int(k)] for k in np.round(keep)]
                exact = False
            states[j] = frontier
            prefix_best = min(
                frontier, key=lambda state: (state[1] * state[0]) * 1e-12
            )
            history.append(
                SearchStep(
                    step=j,
                    best_fitness=float("inf"),
                    candidate_fitness=(prefix_best[1] * prefix_best[0]) * 1e-12,
                    num_partitions=prefix_best[4],
                )
            )

        # same association as GroupEvaluation's EDP fitness:
        # (sum energies) * (sum latencies) * 1e-12, energies first
        final = min(
            range(len(states[n])),
            key=lambda k: (states[n][k][1] * states[n][k][0]) * 1e-12,
        )
        boundaries: List[int] = []
        j, idx = n, final
        while j > 0:
            boundaries.append(j)
            _, _, j, idx, _ = states[j][idx]
        boundaries.reverse()

        group = PartitionGroup.from_boundaries(self.decomposition, boundaries)
        evaluation = self.evaluator.evaluate(group)
        if history:
            history[-1].best_fitness = evaluation.fitness
        return SearchResult(
            optimizer=self.name,
            best_group=group,
            best_evaluation=evaluation,
            history=history,
            steps_run=n,
            evaluations=cost_model.spans_costed,
            exact=exact,
        )
