"""Workload harness: run JOB-lite under estimator/re-optimization configs.

One :class:`Harness` owns the dataset, statistics, oracle, cost model
and execution simulator, and runs the 113-query workload under any
number of configurations:

* ``pg``          — PostgreSQL-style estimates (the paper's baseline)
* ``perfect-(n)`` — the oracle for joins of ≤ n relations (§III-B)
* ``reopt(τ)``    — any of the above plus the §V re-optimization loop

Per query and config it records planning time (real, our planner),
simulated execution time (deterministic; see
:class:`~repro.core.cost.ExecutionSimulator`), the chosen plan, and the
re-optimization trace. Spark wall-clock execution is a separate,
optional pass (:meth:`Harness.execute_spark`) because the simulated
metric is what the full-workload tables use (DESIGN.md §3.5).

Configs run query-by-query (queries outer, configs inner) so the
oracle's per-query caches are shared across configs and released as
soon as the query is done.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..core.cost import CostModel, ExecutionSimulator
from ..core.enumerate import PlannerResult, plan_query
from ..core.estimator import PerfectEstimator, PostgresEstimator
from ..core.executor import SparkExecutor, true_cards
from ..core.query import QuerySpec
from ..core.reopt import (
    ReoptOutcome,
    cleanup,
    reoptimize,
    run_reoptimized_spark,
    simulated_exec_time,
)
from ..core.stats import Catalog
from ..core.truecard import TrueCardinalityOracle
from ..imdb.gen import Dataset


@dataclass(frozen=True)
class Config:
    """One workload configuration.

    ``perfect_n``: None → PostgreSQL estimates; n → perfect-(n).
    ``reopt_threshold``: None → no re-optimization; τ → §V loop at τ.
    """

    name: str
    perfect_n: int | None = None
    reopt_threshold: float | None = None


PG = Config("pg")
PERFECT = Config("perfect-17", perfect_n=17)
REOPT32 = Config("reopt-32", reopt_threshold=32.0)


@dataclass
class QueryRun:
    """One (query, config) execution record."""

    name: str
    n_tables: int
    config: str
    sim_time: float
    planning_time: float
    n_replans: int = 0
    plan: PlannerResult | None = None
    outcome: ReoptOutcome | None = None
    wall_time: float | None = None


class Harness:
    """Runs the workload; accumulates :class:`QueryRun` records."""

    def __init__(self, ds: Dataset, catalog: Catalog):
        self.ds = ds
        self.catalog = catalog
        self.oracle = TrueCardinalityOracle(ds)
        self.cost = CostModel()
        self.sim = ExecutionSimulator()
        self._estimators: dict[int | None, object] = {}

    # -- estimators (shared across queries, built lazily) --------------
    def estimator(self, perfect_n: int | None):
        if perfect_n not in self._estimators:
            self._estimators[perfect_n] = (
                PostgresEstimator(self.catalog)
                if perfect_n is None
                else PerfectEstimator(perfect_n, self.oracle, self.catalog)
            )
        return self._estimators[perfect_n]

    # -- running -------------------------------------------------------
    def run_query(
        self, spec: QuerySpec, config: Config, *, keep_temps: bool = False
    ) -> QueryRun:
        """Run one query under one config (simulated execution)."""
        est = self.estimator(config.perfect_n)
        if config.reopt_threshold is None:
            pr = plan_query(spec, est, self.cost)
            cards = true_cards(spec, pr.plan.root, self.oracle)
            return QueryRun(
                name=spec.name,
                n_tables=len(spec.relations),
                config=config.name,
                sim_time=self.sim.plan_time(pr.plan.root, cards),
                planning_time=pr.planning_time,
                plan=pr,
            )
        outcome = reoptimize(
            spec,
            est,
            self.cost,
            self.oracle,
            threshold=config.reopt_threshold,
            tag=config.name.replace("-", "").replace(".", "p"),
        )
        run = QueryRun(
            name=spec.name,
            n_tables=len(spec.relations),
            config=config.name,
            sim_time=simulated_exec_time(outcome, self.sim, self.oracle),
            planning_time=outcome.planning_time,
            n_replans=outcome.n_replans,
            outcome=outcome,
        )
        if not keep_temps:
            cleanup(outcome, self.oracle)
        return run

    def run_workload(
        self, specs: list[QuerySpec], configs: list[Config]
    ) -> dict[str, dict[str, QueryRun]]:
        """All queries × all configs → ``{config: {query: run}}``."""
        out: dict[str, dict[str, QueryRun]] = {c.name: {} for c in configs}
        for spec in specs:
            for config in configs:
                out[config.name][spec.name] = self.run_query(spec, config)
            self.oracle.release(spec.name)
        return out

    # -- optional Spark wall-clock pass --------------------------------
    def execute_spark(
        self,
        spec: QuerySpec,
        run: QueryRun,
        executor: SparkExecutor,
    ) -> QueryRun:
        """Fill ``run.wall_time`` by actually executing in Spark."""
        if run.outcome is not None:
            outcome = run.outcome
            wall, _ = run_reoptimized_spark(outcome, executor)
            cleanup(outcome, self.oracle, executor)
            run.wall_time = wall
            return run
        res = executor.run(spec, run.plan.plan.root)
        run.wall_time = res.wall_s
        return run


def total_times(runs: dict[str, QueryRun]) -> tuple[float, float]:
    """(total simulated execution, total planning) over a config's runs."""
    return (
        sum(r.sim_time for r in runs.values()),
        sum(r.planning_time for r in runs.values()),
    )
