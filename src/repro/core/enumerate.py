"""Plan enumeration: bushy DP over csg-cmp pairs (DPccp).

Every query is planned with bushy dynamic programming over connected
subgraphs without cartesian products — the System R lineage the paper
describes (§II-B). The DP visits only csg-cmp pairs: a connected
subgraph (csg) and a connected complement (cmp) adjacent to it, as
enumerated by :class:`~repro.core.query.JoinGraph` with the DPccp
algorithm of Moerkotte & Neumann (VLDB 2006), so each join considered is
a valid one.

Every distinct connected subset whose cardinality the planner requests
is **one cardinality estimate** — that is exactly what the paper's
Table I counts, so :class:`PlannerResult` tallies estimates by subset
size.
"""
from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

from .cost import CostModel
from .plans import Join, Leaf, Plan, PlanNode
from .query import QuerySpec, connected_subset_masks


@dataclass
class PlannerResult:
    """A chosen plan plus planning telemetry."""

    plan: Plan
    est_by_size: Counter
    planning_time: float
    #: csg-cmp pairs the DP priced (unordered).
    n_pairs: int

    @property
    def n_estimates(self) -> int:
        return sum(self.est_by_size.values())


def plan_query(spec: QuerySpec, estimator, cost: CostModel) -> PlannerResult:
    """Plan ``spec`` with ``estimator``'s cardinalities and ``cost``."""
    t0 = time.perf_counter()
    plan, est_by_size, n_pairs = _dp_plan(spec, estimator, cost)
    return PlannerResult(
        plan=plan,
        est_by_size=est_by_size,
        planning_time=time.perf_counter() - t0,
        n_pairs=n_pairs,
    )


def _dp_plan(
    spec: QuerySpec, estimator, cost: CostModel
) -> tuple[Plan, Counter, int]:
    g = spec.graph
    subsets = connected_subset_masks(spec)

    est: dict[int, float] = {}
    est_by_size: Counter = Counter()
    for m, s in subsets.items():
        est[m] = estimator.card(spec, s)
        est_by_size[len(s)] += 1

    # DPccp emits pairs in no size order, so collect each csg's splits
    # (by their numerically lower half) and price a csg only after all
    # smaller ones: `subsets` runs by size.
    lows: dict[int, list[int]] = {m: [] for m in subsets}
    for s1 in subsets:
        for s2 in g.cmps(s1):
            lows[s1 | s2].append(min(s1, s2))

    best: dict[int, tuple[float, PlanNode]] = {}
    for m, s in subsets.items():
        if m & (m - 1) == 0:
            leaf = Leaf(alias=next(iter(s)), est_card=est[m])
            best[m] = (cost.scan_cost(est[m]), leaf)
            continue
        winner: tuple[float, PlanNode] | None = None
        # Descending lower half, first strict minimum: at equal cost the
        # split whose lower half is numerically largest wins.
        for s1 in sorted(lows[m], reverse=True):
            s2 = m ^ s1
            c1, p1 = best[s1]
            c2, p2 = best[s2]
            total = c1 + c2 + cost.join_cost(est[s1], est[s2], est[m])
            if winner is None or total < winner[0]:
                build, probe = (p1, p2) if est[s1] <= est[s2] else (p2, p1)
                winner = (total, Join(build, probe, est[m]))
        assert winner is not None, f"no plan for {sorted(s)}"
        best[m] = winner

    total_cost, root = best[(1 << len(g.aliases)) - 1]
    n_pairs = sum(map(len, lows.values()))
    return Plan(root=root, est_cost=total_cost), est_by_size, n_pairs
