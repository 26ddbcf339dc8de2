"""The paper's core contribution: mid-query re-optimization (§V).

The scheme, exactly as simulated in the paper (their Fig. 6):

1. Plan the query with the estimator under test.
2. Compare each join operator's estimated cardinality to its true
   cardinality (our ``EXPLAIN ANALYZE`` stand-in: the DuckDB oracle).
3. Take the **lowest** join whose Q-error is ≥ the threshold, rewrite
   that sub-join as a ``CREATE TEMP TABLE``, replace its relations in
   the remaining query with the temp table (whose statistics are now
   exact), and re-plan the remainder.
4. Repeat until no join operator trips the threshold.

``reoptimize`` is engine-agnostic: it plans, consults the oracle, and
records every round (specs, sub-plans, temp tables). The harness then
prices the outcome either with the deterministic execution simulator
(``simulated_exec_time``) or by replaying the materializations + final
query in Spark (``run_reoptimized_spark``).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .cost import CostModel, ExecutionSimulator
from .enumerate import PlannerResult, plan_query
from .executor import SparkExecutor, true_cards
from .plans import Join, PlanNode, join_nodes_bottom_up
from .qerror import qerror, triggers
from .query import JoinEdge, QuerySpec, Relation
from .truecard import TrueCardinalityOracle


@dataclass
class ReoptStep:
    """One materialize-and-replan round."""

    round: int
    spec_before: QuerySpec
    sub_node: Join
    subset: frozenset[str]
    temp_name: str
    est_card: float
    true_card: int
    rows: int

    @property
    def qerr(self) -> float:
        return qerror(self.est_card, self.true_card)


@dataclass
class ReoptOutcome:
    """Everything a round of re-optimization produced."""

    original_spec: QuerySpec
    final_spec: QuerySpec
    steps: list[ReoptStep]
    planner_results: list[PlannerResult] = field(default_factory=list)

    @property
    def final_plan(self) -> PlannerResult:
        return self.planner_results[-1]

    @property
    def n_replans(self) -> int:
        return len(self.steps)

    @property
    def planning_time(self) -> float:
        """Original planning + every re-planning round (paper §V)."""
        return sum(p.planning_time for p in self.planner_results)


def _materialize_cols(
    spec: QuerySpec, subset: frozenset[str]
) -> list[tuple[str, str]]:
    """(alias, col) pairs the remainder query needs from the temp table."""
    cols: list[tuple[str, str]] = []
    for j in spec.joins:
        inside = j.aliases & subset
        if len(inside) == 1:
            a = next(iter(inside))
            cols.append((a, j.side(a)[0]))
    for a, c in spec.min_cols:
        if a in subset:
            cols.append((a, c))
    return list(dict.fromkeys(cols))


def rewrite_with_temp(
    spec: QuerySpec, subset: frozenset[str], temp_name: str, new_name: str
) -> tuple[QuerySpec, list[tuple[str, str]]]:
    """Replace ``subset``'s relations with one temp relation.

    Returns the rewritten spec and the (alias, col) projection the temp
    table must carry. Mirrors the paper's Fig. 6 rewrite.
    """
    cols = _materialize_cols(spec, subset)
    keep = tuple(r for r in spec.relations if r.alias not in subset)
    temp_rel = Relation(alias=temp_name, table=temp_name)
    new_joins: list[JoinEdge] = []
    for j in spec.joins:
        inside = j.aliases & subset
        if len(inside) == 2:
            continue  # internal to the materialized sub-join
        if not inside:
            new_joins.append(j)
            continue
        a = next(iter(inside))
        col, other = j.side(a)
        other_col, _ = j.side(other)
        new_joins.append(
            JoinEdge(temp_name, f"{a}__{col}", other, other_col)
        )
    new_min_cols = tuple(
        (temp_name, f"{a}__{c}") if a in subset else (a, c)
        for a, c in spec.min_cols
    )
    new_spec = QuerySpec(
        name=new_name,
        relations=keep + (temp_rel,),
        joins=tuple(dict.fromkeys(new_joins)),
        min_cols=new_min_cols,
    )
    return new_spec, cols


def _lowest_triggered(
    spec: QuerySpec,
    root: PlanNode,
    oracle: TrueCardinalityOracle,
    threshold: float,
) -> tuple[Join, int] | None:
    """Lowest non-root join whose Q-error trips the threshold."""
    for node in join_nodes_bottom_up(root):
        if node.aliases == spec.aliases:
            continue  # materializing the root would *be* the query
        truth = oracle.card(spec, node.aliases)
        if triggers(node.est_card, truth, threshold):
            return node, truth
    return None


def reoptimize(
    spec: QuerySpec,
    estimator,
    cost: CostModel,
    oracle: TrueCardinalityOracle,
    *,
    threshold: float = 32.0,
    tag: str = "r",
    max_rounds: int | None = None,
) -> ReoptOutcome:
    """Run the full re-optimization loop (engine-agnostic).

    ``tag`` namespaces temp tables so different configurations sharing
    one oracle never collide. ``estimator`` may be the PostgreSQL
    estimator or perfect-(n) (paper Fig. 8 combines both).
    """
    outcome = ReoptOutcome(original_spec=spec, final_spec=spec, steps=[])
    cur = spec
    pr = plan_query(cur, estimator, cost)
    outcome.planner_results.append(pr)
    max_rounds = max_rounds if max_rounds is not None else len(spec.relations)
    for rnd in range(max_rounds):
        hit = _lowest_triggered(cur, pr.plan.root, oracle, threshold)
        if hit is None:
            break
        node, truth = hit
        temp_name = f"{spec.name}_{tag}_t{rnd}"
        new_spec, cols = rewrite_with_temp(
            cur, node.aliases, temp_name, f"{spec.name}@{tag}{rnd + 1}"
        )
        rows = oracle.register_temp(temp_name, cur, node.aliases, cols)
        # Exact statistics for the materialized table — the mechanism by
        # which re-optimization corrects the estimator.
        estimator.catalog.stats[temp_name] = oracle.temp_stats(temp_name)
        outcome.steps.append(
            ReoptStep(
                round=rnd,
                spec_before=cur,
                sub_node=node,
                subset=node.aliases,
                temp_name=temp_name,
                est_card=node.est_card,
                true_card=truth,
                rows=rows,
            )
        )
        cur = new_spec
        pr = plan_query(cur, estimator, cost)
        outcome.planner_results.append(pr)
    outcome.final_spec = cur
    return outcome


# ---------------------------------------------------------------------
# Pricing an outcome.
# ---------------------------------------------------------------------

def simulated_exec_time(
    outcome: ReoptOutcome,
    sim: ExecutionSimulator,
    oracle: TrueCardinalityOracle,
) -> float:
    """Deterministic runtime: each CREATE TEMP step + the final SELECT."""
    total = 0.0
    for step in outcome.steps:
        cards = true_cards(step.spec_before, step.sub_node, oracle)
        total += sim.plan_time(step.sub_node, cards)
        total += sim.materialize_time(step.rows)
    final = outcome.final_plan.plan.root
    cards = true_cards(outcome.final_spec, final, oracle)
    total += sim.plan_time(final, cards)
    return total


def run_reoptimized_spark(
    outcome: ReoptOutcome, executor: SparkExecutor
) -> tuple[float, "object"]:
    """Replay the outcome in Spark: timed materializations + final query.

    Returns (total wall seconds, one-row pandas result of the final
    SELECT). The caller is responsible for ``cleanup``.
    """
    total = 0.0
    for step in outcome.steps:
        cols = _materialize_cols(step.spec_before, step.subset)
        _, wall = executor.materialize(
            step.spec_before, step.sub_node, step.temp_name, cols
        )
        total += wall
    res = executor.run(
        outcome.final_spec, outcome.final_plan.plan.root
    )
    total += res.wall_s
    return total, res.row


def cleanup(
    outcome: ReoptOutcome,
    oracle: TrueCardinalityOracle,
    executor: SparkExecutor | None = None,
) -> None:
    """Drop every temp table the outcome created (both engines)."""
    for step in outcome.steps:
        oracle.drop_temp(step.temp_name)
        if executor is not None:
            executor.drop_temp(step.temp_name)
