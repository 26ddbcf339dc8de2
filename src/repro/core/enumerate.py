"""Plan enumeration: bushy DP over csg-cmp pairs, priced level by level.

Every query is planned with bushy dynamic programming over connected
subgraphs without cartesian products — the System R lineage the paper
describes (§II-B). The DP visits only csg-cmp pairs: a connected
subgraph (csg) and a connected complement (cmp) adjacent to it, so each
join considered is a valid one. On a tree-shaped join graph — every
JOB-lite query, and every spec re-optimization rewrites one into — the
pairs of a csg are exactly its internal edges: cutting edge ``e`` splits
it into two connected halves (:meth:`JoinGraph.tree_cuts`), so all pairs
come from a few array operations over the csgs and the edges. A graph
with a cycle gets its pairs from DPccp's EnumerateCmp
(:meth:`JoinGraph.cmps`; Moerkotte & Neumann, VLDB 2006). Both feed one
pricing routine.

The planner asks the estimator for every csg's cardinality in one
``cards`` call and prices all pairs with numpy: join costs once for all
pairs, then, for each subset size from 2 up, ``best[lo] + best[hi] +
join_cost`` and the minimum per csg. Plan nodes are built for the
winning tree alone; at equal cost the numerically largest lower half
wins, and the smaller estimate is the build side.

Every distinct connected subset whose cardinality the planner requests
is **one cardinality estimate** — that is exactly what the paper's
Table I counts, so :class:`PlannerResult` tallies estimates by subset
size.
"""
from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .cost import CostModel
from .plans import Join, Leaf, Plan, PlanNode
from .query import JoinGraph, QuerySpec


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


#: popcount of each byte value.
_POP8 = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _pairs(g: JoinGraph, csgs: np.ndarray, pos):
    """Every csg-cmp pair, ordered by union: the position of its union in
    ``csgs``, its numerically lower half and its higher half."""
    cuts = g.tree_cuts()
    if cuts is not None:
        edge, side = np.array(cuts, dtype=np.int64).reshape(-1, 2).T
        u, e = np.nonzero((csgs[:, None] & edge) == edge)
        union = csgs[u]
        half = union & side[e]
        rest = union ^ half
        return u, np.minimum(half, rest), np.maximum(half, rest)
    pairs = [(s1 | s2, s1, s2) for s1 in csgs.tolist() for s2 in g.cmps(s1)]
    union, s1, s2 = np.array(pairs, dtype=np.int64).T
    u = pos(union)
    by_union = np.argsort(u, kind="stable")
    s1, s2 = s1[by_union], s2[by_union]
    return u[by_union], np.minimum(s1, s2), np.maximum(s1, s2)


def plan_query(spec: QuerySpec, estimator, cost: CostModel) -> PlannerResult:
    """Plan ``spec`` with ``estimator``'s cardinalities and ``cost``."""
    t0 = time.perf_counter()
    g = spec.graph
    n = len(g.aliases)
    # The csgs in level order (by size, then mask); `pos` maps masks to
    # level-order positions through the mask-sorted `ms`.
    ms = np.sort(np.array(g.csgs(), dtype=np.int64))
    sizes = _POP8[ms & 255]
    for shift in range(8, n, 8):
        sizes += _POP8[ms >> shift & 255]
    order = np.argsort(sizes, kind="stable")
    csgs = ms[order]
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))

    def pos(masks: np.ndarray) -> np.ndarray:
        return rank[np.searchsorted(ms, masks)]

    # Level s holds positions ends[s - 1]..ends[s] - 1.
    ends = np.cumsum(np.bincount(sizes)).tolist()

    t1 = time.perf_counter()
    est = np.asarray(estimator.cards(spec, csgs), dtype=np.float64)
    t2 = time.perf_counter()

    u, lo, hi = _pairs(g, csgs, pos)
    # Row 0: the lower half's position; row 1: the higher half's.
    halves = pos(np.array((lo, hi)))
    # Join costs do not depend on the DP: price every pair at once.
    jc = cost.join_cost(*est[halves], est[u])
    # The pairs of the csg at position p are first[p]..first[p + 1] - 1.
    first = np.searchsorted(u, np.arange(len(csgs) + 1))
    no_plan = csgs[n:][first[n + 1:] == first[n:-1]].tolist()
    assert not no_plan, f"no plan for {[sorted(g.subset(m)) for m in no_plan]}"

    # Price level by level: a pair's halves are smaller than its union.
    best = np.empty(len(csgs))
    best[:n] = cost.scan_cost(est[:n])
    total = np.empty(len(u))
    level_first = first[ends].tolist()
    for s in range(2, n + 1):
        c0, c1 = ends[s - 1], ends[s]
        a, b = level_first[s - 1], level_first[s]
        t = np.add.reduce(best[halves[:, a:b]], axis=0, out=total[a:b])
        t += jc[a:b]
        best[c0:c1] = np.minimum.reduceat(total[:b], first[c0:c1])

    def tree(p: int) -> PlanNode:
        if p < n:
            return Leaf(alias=g.aliases[p], est_card=float(est[p]))
        k0, k1 = first[p:p + 2].tolist()
        totals, lows = total[k0:k1].tolist(), lo[k0:k1].tolist()
        # At equal cost the numerically largest lower half wins.
        win = min(totals)
        ties = enumerate(zip(totals, lows), k0)
        _, k = max((low, k) for k, (tot, low) in ties if tot == win)
        p_lo, p_hi = halves[:, k].tolist()
        build, probe = (p_lo, p_hi) if est[p_lo] <= est[p_hi] else (p_hi, p_lo)
        return Join(tree(build), tree(probe), float(est[p]))

    plan = Plan(root=tree(len(csgs) - 1), est_cost=float(best[-1]))
    t3 = time.perf_counter()
    return PlannerResult(
        plan=plan,
        est_by_size=Counter({s: ends[s] - ends[s - 1] for s in range(1, n + 1)}),
        estimate_time=t2 - t1,
        enumerate_time=(t1 - t0) + (t3 - t2),
        n_pairs=len(u),
    )
