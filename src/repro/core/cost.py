"""Cost models: what the optimizer minimizes, and how "runtime" is simulated.

Two deliberately *different* models, mirroring the paper's observation
(§II-A) that cost models are imperfect but cardinality errors dominate:

* :class:`CostModel` — what the planner minimizes. A textbook in-memory
  hash-join cost over *estimated* cardinalities.
* :class:`ExecutionSimulator` — the deterministic stand-in for wall-clock
  execution time, evaluated over *true* cardinalities, with different
  constants, a per-join fixed overhead (Spark stage/scheduling overhead —
  short queries all cost about the same, as in the paper's Fig. 9 tail),
  and a superlinear penalty once a build side exceeds the memory budget
  (hash table spill). Because the two models differ, a plan chosen with
  perfect estimates can still lose to the PostgreSQL plan occasionally —
  the paper's Table II bucket "0.1–0.8" (7 queries where PG beats
  perfect-(17)).

Units are abstract "work units"; the harness only ever compares ratios
and totals, as the paper does.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .plans import Leaf, PlanNode, walk


@dataclass(frozen=True)
class CostModel:
    """Planner-side cost over estimated cardinalities.

    Deliberately close to :class:`ExecutionSimulator` — the paper's
    position is that cost-model error is second-order next to
    cardinality error (§II-A) — but blind to two things the simulator
    charges for: the full per-operator overhead (planner assumes half)
    and the hash-build spill penalty. Those blind spots are what let a
    perfect-(17) plan occasionally lose to the PG plan (paper Table II
    bucket 0.1–0.8).
    """

    c_scan: float = 0.4
    c_build: float = 3.5
    c_probe: float = 1.0
    c_out: float = 1.2
    c_overhead: float = 250.0

    # Both take floats or equal-length arrays (the planner prices all of
    # a query's pairs in one call).
    def scan_cost(self, card):
        return self.c_overhead + self.c_scan * card

    def join_cost(self, left, right, out):
        """Hash join: build the smaller side, probe the larger."""
        build, probe = np.minimum(left, right), np.maximum(left, right)
        return (
            self.c_overhead
            + self.c_build * build
            + self.c_probe * probe
            + self.c_out * out
        )


@dataclass(frozen=True)
class ExecutionSimulator:
    """Deterministic "runtime" of a plan at its true cardinalities."""

    c_scan: float = 0.4
    c_build: float = 3.5
    c_probe: float = 1.0
    c_out: float = 2.0
    #: fixed per-operator overhead (stage launch, shuffle setup).
    c_overhead: float = 500.0
    #: rows of build side that fit in memory before the spill penalty.
    mem_rows: float = 20_000.0
    spill_factor: float = 3.0
    #: cost per row to materialize + rescan a temp table (re-optimization).
    c_mat: float = 1.5

    def join_time(self, left: float, right: float, out: float) -> float:
        build, probe = min(left, right), max(left, right)
        build_cost = self.c_build * build
        if build > self.mem_rows:
            build_cost *= self.spill_factor
        return (
            self.c_overhead
            + build_cost
            + self.c_probe * probe
            + self.c_out * out
        )

    def scan_time(self, card: float) -> float:
        return self.c_overhead + self.c_scan * card

    def plan_time(self, root: PlanNode, true_card) -> float:
        """Simulated runtime of a join tree.

        ``true_card`` maps a node's alias frozenset to its true
        cardinality (the executor/oracle supplies it).
        """
        total = 0.0
        for node in walk(root):
            if isinstance(node, Leaf):
                total += self.scan_time(true_card[node.aliases])
            else:
                total += self.join_time(
                    true_card[node.left.aliases],
                    true_card[node.right.aliases],
                    true_card[node.aliases],
                )
        return total

    def materialize_time(self, card: float) -> float:
        """Extra cost of writing a temp table and scanning it back."""
        return self.c_overhead + self.c_mat * card
