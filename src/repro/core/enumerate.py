"""Plan enumeration: bushy DP over csg-cmp pairs (DPccp).

Every query is planned with bushy dynamic programming over connected
subgraphs without cartesian products — the System R lineage the paper
describes (§II-B). The DP visits only csg-cmp pairs: a connected
subgraph (csg) and a connected complement (cmp) adjacent to it, as
enumerated by :class:`~repro.core.query.JoinGraph` with the DPccp
algorithm of Moerkotte & Neumann (VLDB 2006), so each join considered is
a valid one. The DP table holds only a cost and a winning split per
connected subset; plan nodes are built for the winning tree alone.

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
    #: seconds spent obtaining cardinality estimates; under perfect-(n)
    #: this includes the oracle's counting of subsets of <= n relations.
    estimate_time: float
    #: seconds spent enumerating subsets and pricing the DP's pairs.
    enumerate_time: float
    #: csg-cmp pairs the DP priced (unordered).
    n_pairs: int

    @property
    def n_estimates(self) -> int:
        return sum(self.est_by_size.values())

    @property
    def planning_time(self) -> float:
        return self.estimate_time + self.enumerate_time


def plan_query(spec: QuerySpec, estimator, cost: CostModel) -> PlannerResult:
    """Plan ``spec`` with ``estimator``'s cardinalities and ``cost``."""
    t0 = time.perf_counter()
    g = spec.graph
    subsets = connected_subset_masks(spec)

    t1 = time.perf_counter()
    est: dict[int, float] = {}
    est_by_size: Counter = Counter()
    for m, s in subsets.items():
        est[m] = estimator.card(spec, s)
        est_by_size[len(s)] += 1
    t2 = time.perf_counter()

    # DPccp emits pairs in no size order, so collect each csg's splits
    # (by their numerically lower half) and price a csg only after all
    # smaller ones: `subsets` runs by size.
    lows: dict[int, list[int]] = {m: [] for m in subsets}
    for s1 in subsets:
        for s2 in g.cmps(s1):
            lows[s1 | s2].append(s1 if s1 < s2 else s2)

    # The DP keeps only each csg's best cost and winning lower half; the
    # plan tree is built once, for the winner, at the end.
    join_cost = cost.join_cost
    best: dict[int, float] = {}
    split: dict[int, int] = {}
    for m, splits in lows.items():
        if m & (m - 1) == 0:
            best[m] = cost.scan_cost(est[m])
            continue
        out = est[m]
        win_cost, win_lo = float("inf"), 0
        for lo in splits:
            hi = m ^ lo
            total = best[lo] + best[hi] + join_cost(est[lo], est[hi], out)
            # At equal cost the numerically largest lower half wins.
            if total < win_cost or (total == win_cost and lo > win_lo):
                win_cost, win_lo = total, lo
        assert win_lo, f"no plan for {sorted(subsets[m])}"
        best[m], split[m] = win_cost, win_lo

    def tree(m: int) -> PlanNode:
        if m not in split:
            return Leaf(alias=g.aliases[m.bit_length() - 1], est_card=est[m])
        lo = split[m]
        hi = m ^ lo
        p_lo, p_hi = tree(lo), tree(hi)
        build, probe = (p_lo, p_hi) if est[lo] <= est[hi] else (p_hi, p_lo)
        return Join(build, probe, est[m])

    full = (1 << len(g.aliases)) - 1
    plan = Plan(root=tree(full), est_cost=best[full])
    t3 = time.perf_counter()
    return PlannerResult(
        plan=plan,
        est_by_size=est_by_size,
        estimate_time=t2 - t1,
        enumerate_time=(t1 - t0) + (t3 - t2),
        n_pairs=sum(map(len, lows.values())),
    )
