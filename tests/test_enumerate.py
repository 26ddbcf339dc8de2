"""Plan enumeration tests: DP optimality, csg-cmp pair counts against
DPccp, telemetry."""
import itertools
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.cost import CostModel
from repro.core.enumerate import _pairs, plan_query
from repro.core.estimator import PerfectEstimator, PostgresEstimator
from repro.core.plans import Join, Leaf, Plan, walk
from repro.core.query import JoinEdge, JoinGraph, QuerySpec, Relation, connected_subsets
from repro.imdb import workload


@pytest.fixture(scope="module")
def q6d():
    return workload.q6d_lite()


def plan_is_valid(spec, root):
    """Covers all aliases exactly once; every join has a cross edge."""
    leaves = [n for n in walk(root) if isinstance(n, Leaf)]
    assert sorted(l.alias for l in leaves) == sorted(spec.aliases)
    for n in walk(root):
        if isinstance(n, Join):
            assert spec.edges_between(n.left.aliases, n.right.aliases)


def prefixes_connected(spec: QuerySpec, order: list[str]) -> bool:
    """True iff every prefix of the join order induces a connected set."""
    g = spec.graph
    cur = g.mask([order[0]])
    for a in order[1:]:
        if not (g.nbr[g.index[a]] & cur):
            return False
        cur |= g.mask([a])
    return True


def left_deep_cost(spec, est, cost, order):
    """Reference cost of one left-deep order (mirrors the planner)."""
    cur = frozenset({order[0]})
    total = cost.scan_cost(est.card(spec, cur))
    for a in order[1:]:
        nxt = cur | {a}
        right = est.card(spec, frozenset({a}))
        total += cost.scan_cost(right)
        total += cost.join_cost(est.card(spec, cur), right, est.card(spec, nxt))
        cur = nxt
    return total


def test_dp_plan_valid(q6d, pg_est, cost_model):
    pr = plan_query(q6d, pg_est, cost_model)
    plan_is_valid(q6d, pr.plan.root)


def test_dp_not_worse_than_any_left_deep_order(q6d, pg_est, cost_model):
    aliases = sorted(q6d.aliases)
    best = min(
        left_deep_cost(q6d, pg_est, cost_model, list(p))
        for p in itertools.permutations(aliases)
        if prefixes_connected(q6d, list(p))
    )
    pr = plan_query(q6d, pg_est, cost_model)
    assert pr.plan.est_cost <= best + 1e-6


def test_dp_estimate_count_equals_connected_subsets(q6d, pg_est, cost_model):
    pr = plan_query(q6d, pg_est, cost_model)
    subs = connected_subsets(q6d)
    assert pr.n_estimates == len(subs)
    assert pr.est_by_size == Counter(len(s) for s in subs)


def test_dp_deterministic(q6d, pg_est, cost_model):
    a = plan_query(q6d, pg_est, cost_model)
    b = plan_query(q6d, pg_est, cost_model)
    assert a.plan == b.plan


def test_planning_time_recorded(q6d, pg_est, cost_model):
    pr = plan_query(q6d, pg_est, cost_model)
    assert pr.planning_time > 0


def test_planning_time_splits_into_estimate_and_enumerate(q6d, catalog, cost_model):
    pr = plan_query(q6d, PostgresEstimator(catalog), cost_model)
    assert pr.estimate_time > 0 and pr.enumerate_time > 0
    assert pr.estimate_time + pr.enumerate_time == pr.planning_time


class SlowOracle:
    """An oracle whose every ``cards`` batch takes at least ``delay`` s."""

    def __init__(self, oracle, delay):
        self.oracle, self.delay = oracle, delay

    def cards(self, spec, masks):
        time.sleep(self.delay)
        return self.oracle.cards(spec, masks)


def test_oracle_time_is_kept_out_of_planning_time(q6d, oracle, catalog, cost_model):
    est = PerfectEstimator(17, SlowOracle(oracle, 0.2), catalog)
    pr = plan_query(q6d, est, cost_model)
    assert pr.oracle_time >= 0.2 and pr.oracle_time == est.oracle_time
    assert 0 < pr.estimate_time < 0.2
    assert pr.estimate_time + pr.enumerate_time == pr.planning_time


def test_perfect_estimator_changes_plan_cost(q6d, pg_est, perfect_est, cost_model):
    pg_cost = plan_query(q6d, pg_est, cost_model).plan.est_cost
    pf_cost = plan_query(q6d, perfect_est, cost_model).plan.est_cost
    # perfect estimates see the true (larger) intermediates on q6d.
    assert pf_cost > pg_cost


def test_dp_plans_query_of_twelve_or_more_relations(specs, pg_est, cost_model):
    big = next(s for s in specs if len(s.relations) >= 12)
    pr = plan_query(big, pg_est, cost_model)
    plan_is_valid(big, pr.plan.root)


def test_prefixes_connected():
    q = workload.q_nasdaq()
    assert prefixes_connected(q, ["k", "mk"])
    assert prefixes_connected(q, ["mk", "k"])


@pytest.mark.parametrize("i", [0, 3, 25, 50, 75, 103, 112])
def test_workload_plans_valid(specs, pg_est, cost_model, i):
    pr = plan_query(specs[i], pg_est, cost_model)
    plan_is_valid(specs[i], pr.plan.root)


def test_build_side_is_smaller_estimate(q6d, pg_est, cost_model):
    pr = plan_query(q6d, pg_est, cost_model)
    for n in walk(pr.plan.root):
        if isinstance(n, Join):
            assert n.left.est_card <= n.right.est_card


# -- DPccp: csg-cmp pair counts and a brute-force reference -------------

def graph_spec(n: int, edges, order=None) -> QuerySpec:
    """Spec over aliases ``r0``..``r{n-1}`` (relations in ``order``)."""
    order = order if order is not None else range(n)
    return QuerySpec(
        name=f"g{n}_{len(edges)}",
        relations=tuple(Relation(f"r{i}", "title") for i in order),
        joins=tuple(JoinEdge(f"r{i}", "id", f"r{j}", "id") for i, j in edges),
    )


SHAPES = {
    # Moerkotte & Neumann (VLDB 2006): csg-cmp pairs, unordered.
    "chain": (lambda n: [(i, i + 1) for i in range(n - 1)],
              lambda n: (n**3 - n) // 6),
    "star": (lambda n: [(0, i) for i in range(1, n)],
             lambda n: (n - 1) * 2 ** (n - 2)),
    # A tree only at n = 2.
    "clique": (lambda n: list(itertools.combinations(range(n), 2)),
               lambda n: (3**n - 2 ** (n + 1) + 1) // 2),
}


class StubEstimator:
    """Integer cardinalities in 1..``top`` per subset: plans tie often."""

    def __init__(self, seed: int = 0, top: int = 3):
        self.seed, self.top = seed, top
        self.calls: Counter = Counter()

    def card(self, spec, subset):
        self.calls[subset] += 1
        key = f"{self.seed}:{','.join(sorted(subset))}"
        return float(random.Random(key).randint(1, self.top))

    def cards(self, spec, masks):
        return [self.card(spec, spec.graph.subset(m)) for m in masks.tolist()]


@pytest.mark.parametrize(
    "shape,n",
    [(s, n) for s in sorted(SHAPES) for n in range(2, 3 if s == "clique" else 9)],
)
def test_n_pairs_matches_closed_form(shape, n):
    edges, pairs = SHAPES[shape]
    pr = plan_query(graph_spec(n, edges(n)), StubEstimator(), CostModel())
    assert pr.n_pairs == pairs(n)


def reference_dp(spec, estimator, cost):
    """The submask-scanning bushy DP: every split of every connected set."""
    aliases = sorted(spec.aliases)
    n = len(aliases)
    adj = {a: set() for a in aliases}
    for j in spec.joins:
        adj[j.left_alias].add(j.right_alias)
        adj[j.right_alias].add(j.left_alias)

    def to_set(m):
        return frozenset(a for i, a in enumerate(aliases) if m >> i & 1)

    def connected(s):
        seen, todo = set(), [min(s)]
        while todo:
            a = todo.pop()
            if a not in seen:
                seen.add(a)
                todo += adj[a] & s
        return seen == s

    masks = [m for m in range(1, 1 << n) if connected(to_set(m))]
    masks.sort(key=lambda m: (bin(m).count("1"), sorted(to_set(m))))
    subsets = [to_set(m) for m in masks]
    est = {m: estimator.card(spec, to_set(m)) for m in masks}
    best = {}
    for m in masks:
        if m & (m - 1) == 0:
            best[m] = (cost.scan_cost(est[m]), Leaf(aliases[m.bit_length() - 1], est[m]))
            continue
        winner = None
        s1 = (m - 1) & m
        while s1:
            s2 = m ^ s1
            if s1 < s2 and s1 in best and s2 in best:
                (c1, p1), (c2, p2) = best[s1], best[s2]
                total = c1 + c2 + cost.join_cost(est[s1], est[s2], est[m])
                if winner is None or total < winner[0]:
                    build, probe = (p1, p2) if est[s1] <= est[s2] else (p2, p1)
                    winner = (total, Join(build, probe, est[m]))
            s1 = (s1 - 1) & m
        best[m] = winner
    total, root = best[(1 << n) - 1]
    return Plan(root, total), Counter(len(s) for s in subsets), subsets


@st.composite
def trees(draw, max_n=17):
    """Random trees over 1-``max_n`` relations, in shuffled relation order."""
    n = draw(st.integers(1, max_n))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    return graph_spec(n, edges, draw(st.permutations(range(n))))


@settings(max_examples=150, deadline=None)
@given(trees(max_n=9), st.integers(0, 10**6), st.integers(1, 4))
def test_dpccp_matches_submask_dp(spec, seed, top):
    cost = CostModel()
    ref_plan, ref_sizes, ref_subsets = reference_dp(spec, StubEstimator(seed, top), cost)
    est = StubEstimator(seed, top)
    pr = plan_query(spec, est, cost)
    assert pr.plan == ref_plan
    assert repr(pr.plan.est_cost) == repr(ref_plan.est_cost)
    assert pr.est_by_size == ref_sizes
    assert set(est.calls.values()) == {1}  # one estimate per connected set
    assert connected_subsets(spec) == ref_subsets


class DPccpGraph(JoinGraph):
    """The reference enumeration: EnumerateCsg/EnumerateCmp of Moerkotte &
    Neumann, "Analysis of Two Existing and One New Dynamic Programming
    Algorithm for the Generation of Optimal Bushy Join Trees without Cross
    Products" (VLDB 2006), which works on any join graph."""

    def csgs(self) -> list[int]:
        """Every connected subgraph (EnumerateCsg), in no fixed order."""
        out: list[int] = []
        for i in reversed(range(len(self.nbr))):
            out.append(1 << i)
            self._grow(1 << i, self.nbr[i], (2 << i) - 1, out)
        return out

    def cmps(self, s1: int) -> list[int]:
        """Every connected complement of the csg ``s1`` (EnumerateCmp).

        Each is a csg disjoint from and adjacent to ``s1`` whose lowest
        member is above ``s1``'s, so every unordered csg-cmp pair is
        reached from exactly one of its halves.
        """
        x = s1 | (((s1 & -s1) << 1) - 1)
        n = self.neighborhood(s1) & ~x
        out: list[int] = []
        for i in reversed(range(n.bit_length())):
            if n >> i & 1:
                out.append(1 << i)
                self._grow(1 << i, self.nbr[i], x | (n & ((2 << i) - 1)), out)
        return out

    def _grow(self, s: int, s_nbr: int, x: int, out: list[int]) -> None:
        """EnumerateCsgRec: append each connected ``s | sub`` for non-empty
        ``sub`` drawn from ``s``'s neighbours outside ``x``, recursively.

        ``s_nbr`` is ``neighborhood(s)``; a subset's neighbourhood is
        built from the one without its lowest bit, so each costs one OR.
        """
        n = s_nbr & ~x
        if not n:
            return
        grown = {0: s_nbr}
        sub = n & -n
        while sub:  # non-empty subsets of n in increasing order
            low = sub & -sub
            grown[sub] = grown[sub ^ low] | self.nbr[low.bit_length() - 1]
            out.append(s | sub)
            sub = (sub - n) & n
        del grown[0]
        x |= n
        for sub, sub_nbr in grown.items():
            self._grow(s | sub, sub_nbr, x, out)


def cmp_pairs(spec):
    """DPccp's unordered csg-cmp pairs as (union, lower half) masks."""
    g = DPccpGraph(spec)
    return {(s1 | s2, min(s1, s2)) for s1 in g.csgs() for s2 in g.cmps(s1)}


def edge_cut_pairs(g):
    """The planner's pairs of a tree as (union, lower half) masks."""
    csgs = np.array(g.csgs(), dtype=np.int64)
    u, lo, _ = _pairs(g, csgs)
    return set(zip(csgs[u].tolist(), lo.tolist()))


def assert_csgs_equal_enumerate_csg(spec):
    """The rooted-subtree csgs are EnumerateCsg's, each once."""
    assert sorted(spec.graph.csgs()) == sorted(DPccpGraph(spec).csgs()), spec.name


@settings(max_examples=60, deadline=None)
@given(trees())
def test_edge_cut_pairs_equal_dpccp_pairs_on_trees(spec):
    pairs = edge_cut_pairs(spec.graph)
    assert pairs == cmp_pairs(spec)
    pr = plan_query(spec, StubEstimator(), CostModel())
    assert pr.n_pairs == len(pairs)
    assert pr.n_pairs == sum(len(s) - 1 for s in connected_subsets(spec))
    assert_csgs_equal_enumerate_csg(spec)


def test_edge_cut_pairs_equal_dpccp_pairs_on_job_lite(specs):
    for spec in specs:
        assert edge_cut_pairs(spec.graph) == cmp_pairs(spec), spec.name
        assert_csgs_equal_enumerate_csg(spec)


def test_tree_cuts_only_for_trees():
    assert graph_spec(3, [(0, 1), (1, 2)]).graph.tree_cuts() == [(0b011, 0b110), (0b110, 0b100)]


def test_cyclic_spec_rejected():
    with pytest.raises(ValueError, match="cycle"):
        graph_spec(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError, match="cycle"):  # one join twice
        graph_spec(2, [(0, 1), (0, 1)])


# -- plans do not depend on PYTHONHASHSEED ------------------------------

_PLANS = """
from repro.bench import harness
from repro.core import stats
from repro.core.enumerate import plan_query
from repro.imdb import gen, workload
ds = gen.generate(sf=0.01, seed=42)
h = harness.Harness(ds, stats.analyze_pandas(ds))
specs = workload.job_lite_workload()
results = [plan_query(s, h.estimator(None), h.cost) for s in specs]
q097 = next(s for s in specs if s.name == "q097")
results += h.run_query(q097, harness.REOPT32).outcome.planner_results
for pr in results:
    print(repr(pr.plan.est_cost), sorted(pr.est_by_size.items()))
    print(pr.plan.pretty())
"""


def test_plans_do_not_depend_on_hash_seed():
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        out = subprocess.run([sys.executable, "-c", _PLANS], env=env,
                             capture_output=True, text=True, check=True)
        outputs.append(out.stdout)
    assert outputs[0].count("cost=") == 113 + 3  # q097 re-plans twice
    assert outputs[0] == outputs[1]
