"""Spark execution of chosen plans.

Turns a :class:`~repro.core.plans.Plan` into a DataFrame join tree:
filters are applied at the leaves (Catalyst pushes them into the scan),
joins follow the plan's shape exactly (Catalyst does not reorder joins
with CBO off, and ``conftest.py`` disables broadcast joins, so the
chosen order is what actually shuffles). Every column is prefixed with
its alias (``alias__col``) so self-joins (``it1``/``it2``) and temp
tables compose without ambiguity.

Wall-clock timing wraps a single action (collecting the one-row
COUNT/MIN aggregate), which is how the paper times executions (they
exclude planning, §III-A).
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..imdb.gen import Dataset
from .plans import Leaf, PlanNode, walk
from .query import QuerySpec
from .truecard import TrueCardinalityOracle


def qualified(alias: str, col: str) -> str:
    """The executor-wide column naming scheme."""
    return f"{alias}__{col}"


@dataclass
class ExecutionResult:
    """One timed Spark execution: the single result row + wall seconds."""

    row: pd.DataFrame
    wall_s: float


class SparkExecutor:
    """Builds and runs plan join trees over one IMDB-lite dataset."""

    def __init__(self, spark: SparkSession, ds: Dataset):
        self.spark = spark
        self.ds = ds
        #: materialized temp tables (re-optimization), raw column names.
        self.temp: dict[str, DataFrame] = {}

    # -- DataFrame construction ---------------------------------------
    def _table_df(self, table: str) -> DataFrame:
        if table in self.temp:
            return self.temp[table]
        return self.ds.spark_df(self.spark, table)

    def leaf_df(self, spec: QuerySpec, alias: str) -> DataFrame:
        """Filtered scan of one aliased relation, columns prefixed."""
        rel = spec.relation(alias)
        df = self._table_df(rel.table)
        for f in rel.filters:
            df = df.where(f.mask(df[f.col]))
        return df.select(
            *[F.col(c).alias(qualified(alias, c)) for c in df.columns]
        )

    def node_df(self, spec: QuerySpec, node: PlanNode) -> DataFrame:
        """DataFrame for a plan subtree (join order = tree shape)."""
        if isinstance(node, Leaf):
            return self.leaf_df(spec, node.alias)
        left = self.node_df(spec, node.left)
        right = self.node_df(spec, node.right)
        edges = spec.edges_between(node.left.aliases, node.right.aliases)
        if not edges:
            raise ValueError(
                f"cartesian join {sorted(node.left.aliases)} x "
                f"{sorted(node.right.aliases)}"
            )
        cond = None
        for e in edges:
            lq = qualified(e.left_alias, e.left_col)
            rq = qualified(e.right_alias, e.right_col)
            lcol = left[lq] if lq in left.columns else right[lq]
            rcol = right[rq] if rq in right.columns else left[rq]
            c = lcol == rcol
            cond = c if cond is None else (cond & c)
        return left.join(right, on=cond, how="inner")

    def result_df(self, spec: QuerySpec, root: PlanNode) -> DataFrame:
        """The query's one-row COUNT + MIN aggregate over the join tree."""
        joined = self.node_df(spec, root)
        aggs = [F.count(F.lit(1)).alias("cnt")] + [
            F.min(qualified(a, c)).alias(f"min_{a}_{c}")
            for a, c in spec.min_cols
        ]
        return joined.agg(*aggs)

    # -- execution -----------------------------------------------------
    def run(self, spec: QuerySpec, root: PlanNode) -> ExecutionResult:
        """Execute the plan, timing the single collecting action."""
        df = self.result_df(spec, root)
        t0 = time.perf_counter()
        row = df.toPandas()
        return ExecutionResult(row=row, wall_s=time.perf_counter() - t0)

    def materialize(
        self, spec: QuerySpec, node: PlanNode, name: str, cols: list[tuple[str, str]]
    ) -> tuple[DataFrame, float]:
        """Materialize a subtree as temp table ``name`` (timed).

        ``cols`` are (alias, col) pairs to keep; stored column names are
        ``alias__col`` — the same names the mirrored DuckDB temp table
        uses, so rewritten specs mean the same thing in both engines.
        """
        df = self.node_df(spec, node).select(
            *dict.fromkeys(qualified(a, c) for a, c in cols)
        )
        t0 = time.perf_counter()
        df = df.persist()
        df.count()  # force materialization, like CREATE TEMP TABLE
        wall = time.perf_counter() - t0
        self.temp[name] = df
        return df, wall

    def drop_temp(self, name: str) -> None:
        if name in self.temp:
            self.temp.pop(name).unpersist()


def true_cards(
    spec: QuerySpec, root: PlanNode, oracle: TrueCardinalityOracle
) -> dict[frozenset[str], int]:
    """True cardinality of every node of a plan (leaves included).

    This is the reproduction's ``EXPLAIN ANALYZE``: the per-operator
    actual row counts the re-optimizer compares against estimates.
    """
    nodes = list(walk(root))
    counts = oracle.cards(spec, [spec.graph.mask(n.aliases) for n in nodes])
    return {n.aliases: c for n, c in zip(nodes, counts)}
