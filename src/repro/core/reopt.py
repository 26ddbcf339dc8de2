"""The paper's core contribution: mid-query re-optimization (§V).

The scheme, exactly as simulated in the paper (their Fig. 6):

1. Plan the query with the estimator under test.
2. Read the true cardinality of every operator of the plan (our
   ``EXPLAIN ANALYZE`` stand-in: :func:`~repro.core.executor.true_cards`
   over the exact oracle), and compare each join's estimate to it.
3. Take the **lowest** join whose Q-error is ≥ the threshold, rewrite
   that sub-join as a ``CREATE TEMP TABLE``, replace its relations in
   the remaining query with the temp table (whose statistics are now
   exact), and re-plan the remainder.
4. Repeat until no join operator trips the threshold.

Every run of a query is an outcome of this loop, and each planning
round's truths are read once and kept on the outcome. Without a
threshold the loop makes zero rounds: it reads its plan's truths once,
runs no trigger check, and the outcome is the ordinary plan. The loop
ends by itself: each round replaces ≥ 2 relations by one temp table,
and the root join is never materialized.

``reoptimize`` is engine-agnostic: it plans, reads the truths, and
records every round (specs, sub-plans, temp tables, truths). The
harness then prices the outcome from those truths with the
deterministic execution simulator (``simulated_exec_time``), and may
replay the materializations and the final query in Spark
(``run_reoptimized_spark``).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .cost import CostModel, ExecutionSimulator
from .enumerate import PlannerResult, plan_query
from .executor import SparkExecutor, true_cards
from .plans import Join, join_nodes_bottom_up
from .qerror import qerror, triggers
from .query import JoinEdge, QuerySpec, Relation
from .truecard import TrueCardinalityOracle


@dataclass
class ReoptStep:
    """One materialize-and-replan round: ``sub_node`` of the plan of
    ``spec_before`` becomes temp table ``temp_name``, carrying the
    (alias, col) pairs ``cols``; ``rows`` is its true cardinality."""

    spec_before: QuerySpec
    sub_node: Join
    temp_name: str
    cols: list[tuple[str, str]]
    rows: int

    @property
    def qerr(self) -> float:
        return qerror(self.sub_node.est_card, self.rows)


@dataclass
class ReoptOutcome:
    """Everything a run of the re-optimization loop produced.

    ``truths[i]`` maps every node of ``planner_results[i]``'s plan,
    leaves and root included, to its true cardinality.
    """

    final_spec: QuerySpec
    steps: list[ReoptStep] = field(default_factory=list)
    planner_results: list[PlannerResult] = field(default_factory=list)
    truths: list[dict[frozenset[str], int]] = field(default_factory=list)

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


def reoptimize(
    spec: QuerySpec,
    estimator,
    cost: CostModel,
    oracle: TrueCardinalityOracle,
    *,
    threshold: float | None = 32.0,
    tag: str = "r",
) -> ReoptOutcome:
    """Run the full re-optimization loop (engine-agnostic).

    ``threshold=None`` makes zero rounds: the outcome is the plain plan.
    ``tag`` namespaces temp tables so different configurations sharing
    one oracle never collide. ``estimator`` may be the PostgreSQL
    estimator or perfect-(n) (paper Fig. 8 combines both).
    """
    outcome = ReoptOutcome(final_spec=spec)
    while True:
        cur = outcome.final_spec
        pr = plan_query(cur, estimator, cost)
        truths = true_cards(cur, pr.plan.root, oracle)
        outcome.planner_results.append(pr)
        outcome.truths.append(truths)
        if threshold is None:
            return outcome
        tripped = [
            n
            for n in join_nodes_bottom_up(pr.plan.root)
            # Materializing the root would *be* the query.
            if n.aliases != cur.aliases
            and triggers(n.est_card, truths[n.aliases], threshold)
        ]
        if not tripped:
            return outcome
        node = tripped[0]
        rnd = len(outcome.steps)
        temp_name = f"{spec.name}_{tag}_t{rnd}"
        new_spec, cols = rewrite_with_temp(
            cur, node.aliases, temp_name, f"{spec.name}@{tag}{rnd + 1}"
        )
        oracle.register_temp(temp_name, cur, node.aliases, cols)
        # Exact statistics for the materialized table — the mechanism by
        # which re-optimization corrects the estimator.
        estimator.catalog.stats[temp_name] = oracle.temp_stats(temp_name)
        outcome.steps.append(
            ReoptStep(cur, node, temp_name, cols, truths[node.aliases])
        )
        outcome.final_spec = new_spec


# ---------------------------------------------------------------------
# Pricing an outcome.
# ---------------------------------------------------------------------

def simulated_exec_time(outcome: ReoptOutcome, sim: ExecutionSimulator) -> float:
    """Deterministic runtime: each CREATE TEMP step + the final SELECT,
    priced at the truths the loop kept."""
    total = 0.0
    for step, truths in zip(outcome.steps, outcome.truths):
        total += sim.plan_time(step.sub_node, truths)
        total += sim.materialize_time(step.rows)
    total += sim.plan_time(outcome.final_plan.plan.root, outcome.truths[-1])
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
        _, wall = executor.materialize(
            step.spec_before, step.sub_node, step.temp_name, step.cols
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
