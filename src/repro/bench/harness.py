"""Workload harness: run JOB-lite under estimator/re-optimization configs.

One :class:`Harness` owns the dataset, statistics, oracle, cost model
and execution simulator, and runs the 113-query workload under any
number of configurations:

* ``pg``          — PostgreSQL-style estimates (the paper's baseline)
* ``perfect-(n)`` — the oracle for joins of ≤ n relations (§III-B)
* ``reopt(τ)``    — any of the above plus the §V re-optimization loop

Every (query, config) run has one shape: a
:class:`~repro.core.reopt.ReoptOutcome`. A config without τ is the
loop's zero-round case, whose outcome is the plain plan. Per query and
config the harness records planning time (real, our planner) and
simulated execution time (deterministic; see
:class:`~repro.core.cost.ExecutionSimulator`), both read from the
outcome. Spark wall-clock execution is a separate, optional pass
(:meth:`Harness.execute_spark`) because the simulated metric is what
the full-workload tables use (DESIGN.md §3.5).

Configs run query-by-query (queries outer, configs inner) so the
oracle's per-query caches are shared across configs and released as
soon as the query is done. The configs of one query also share round 0:
the re-optimization loop starts from the plain run (paper §V, Fig. 6),
so a query is planned, and its plan's truths read, once per estimator
however many configs use it and in whatever order they run. The harness
keeps those rounds for the last spec object it ran only, and an
outcome's planning time counts its round 0's one measurement.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..core.cost import CostModel, ExecutionSimulator
from ..core.estimator import PerfectEstimator, PostgresEstimator
from ..core.executor import SparkExecutor
from ..core.query import QuerySpec
from ..core.reopt import (
    ReoptOutcome,
    Round,
    cleanup,
    plan_round,
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
    ``reopt_threshold``: None → zero rounds (the plain plan); τ → §V loop at τ.
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
    config: str
    sim_time: float
    outcome: ReoptOutcome
    wall_time: float | None = None

    @property
    def planning_time(self) -> float:
        return self.outcome.planning_time

    @property
    def n_replans(self) -> int:
        return self.outcome.n_replans


class Harness:
    """Runs the workload; accumulates :class:`QueryRun` records."""

    def __init__(self, ds: Dataset, catalog: Catalog):
        self.ds = ds
        self.catalog = catalog
        self.oracle = TrueCardinalityOracle(ds)
        self.cost = CostModel()
        self.sim = ExecutionSimulator()
        self._estimators: dict[int | None, object] = {}
        #: round 0 of ``_first_spec`` under each estimator (``perfect_n``).
        self._first_spec: QuerySpec | None = None
        self._first: dict[int | None, Round] = {}

    # -- estimators (shared across queries, built lazily) --------------
    def estimator(self, perfect_n: int | None):
        if perfect_n not in self._estimators:
            self._estimators[perfect_n] = (
                PostgresEstimator(self.catalog)
                if perfect_n is None
                else PerfectEstimator(perfect_n, self.oracle, self.catalog)
            )
        return self._estimators[perfect_n]

    def _first_round(self, spec: QuerySpec, perfect_n: int | None) -> Round:
        """Round 0 of ``spec`` under ``estimator(perfect_n)``, planned once
        for all the configs that run ``spec`` next to each other.

        Sound because a name's PG factors and the oracle's truths are fixed
        after a spec's first estimate, and temp statistics only add names.
        """
        if spec is not self._first_spec:
            self._first_spec, self._first = spec, {}
        if perfect_n not in self._first:
            self._first[perfect_n] = plan_round(
                spec, self.estimator(perfect_n), self.cost, self.oracle)
        return self._first[perfect_n]

    # -- running -------------------------------------------------------
    def run_query(
        self, spec: QuerySpec, config: Config, *, keep_temps: bool = False
    ) -> QueryRun:
        """Run one query under one config (simulated execution)."""
        outcome = reoptimize(
            spec,
            self.estimator(config.perfect_n),
            self.cost,
            self.oracle,
            threshold=config.reopt_threshold,
            tag=config.name.replace("-", "").replace(".", "p"),
            first=self._first_round(spec, config.perfect_n),
        )
        run = QueryRun(
            name=spec.name,
            config=config.name,
            sim_time=simulated_exec_time(outcome, self.sim),
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
        """Fill ``run.wall_time`` by replaying ``run.outcome`` of ``spec``
        in Spark: its materializations, then its final plan."""
        run.wall_time, _ = run_reoptimized_spark(run.outcome, executor)
        cleanup(run.outcome, self.oracle, executor)
        return run


def total_times(runs: dict[str, QueryRun]) -> tuple[float, float]:
    """(total simulated execution, total planning) over a config's runs."""
    return (
        sum(r.sim_time for r in runs.values()),
        sum(r.planning_time for r in runs.values()),
    )
