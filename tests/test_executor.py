"""Spark executor tests — every result is checked against DuckDB."""
import pytest
from pyspark.sql import functions as F

from repro.core.enumerate import plan_query
from repro.core.executor import SparkExecutor, qualified, true_cards
from repro.core.plans import Join, Leaf
from repro.core.query import Filter, JoinEdge, QuerySpec, Relation
from repro.imdb import workload
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def executor(spark, ds):
    return SparkExecutor(spark, ds)


def test_qualified_naming():
    assert qualified("it1", "id") == "it1__id"


def test_leaf_df_applies_filters_and_prefixes(executor, ds):
    spec = QuerySpec(
        name="leaf",
        relations=(Relation("k", "keyword", (Filter("keyword_group", "=", 1),)),),
        joins=(),
    )
    df = executor.leaf_df(spec, "k")
    assert set(df.columns) == {"k__id", "k__keyword_group"}
    pdf = ds.tables["keyword"]
    assert df.count() == (pdf.keyword_group == 1).sum()


@pytest.mark.parametrize("op,col,val", [
    ("=", "keyword_group", 3),
    ("in", "keyword_group", (1, 4)),
    ("<", "id", 50),
    ("<=", "id", 50),
    (">", "id", 150),
    (">=", "id", 150),
])
def test_leaf_df_filter_ops(executor, ds, op, col, val):
    spec = QuerySpec(
        name=f"leaf_{op}_{col}",
        relations=(Relation("k", "keyword", (Filter(col, op, val),)),),
        joins=(),
    )
    got = executor.leaf_df(spec, "k").count()
    pdf = ds.tables["keyword"]
    expected = {
        "=": lambda: (pdf[col] == val).sum(),
        "in": lambda: pdf[col].isin(val).sum(),
        "<": lambda: (pdf[col] < val).sum(),
        "<=": lambda: (pdf[col] <= val).sum(),
        ">": lambda: (pdf[col] > val).sum(),
        ">=": lambda: (pdf[col] >= val).sum(),
    }[op]()
    assert got == expected
    assert Filter(col, op, val).mask(pdf[col]).sum() == expected


def test_node_df_counts_match_oracle(executor, oracle):
    q = workload.q_nasdaq()
    plan = Join(
        Leaf("k", 1), Leaf("mk", 1), 1
    )
    assert executor.node_df(q, plan).count() == oracle.card(q)


def test_node_df_rejects_cartesian(executor):
    q = workload.q6d_lite()
    bad = Join(Leaf("k", 1), Leaf("n", 1), 1)  # no edge k-n
    with pytest.raises(ValueError, match="cartesian"):
        executor.node_df(q, bad)


@pytest.mark.parametrize("qname", ["q6d_lite", "q18a_lite", "q_nasdaq"])
def test_result_df_equivalent_to_duckdb(executor, ds, pg_est, cost_model, qname):
    q = getattr(workload, qname)()
    pr = plan_query(q, pg_est, cost_model)
    df = executor.result_df(q, pr.plan.root)
    assert_equivalent(df, q.result_sql(), **ds.tables)


def test_self_join_aliases_disambiguated(executor, ds):
    """it1 and it2 are the same base table under different aliases."""
    q = workload.q18a_lite()
    df = executor.leaf_df(q, "it1")
    df2 = executor.leaf_df(q, "it2")
    assert "it1__id" in df.columns and "it2__id" in df2.columns


def test_plan_shape_is_preserved_in_spark_plan(executor, pg_est, cost_model):
    """Catalyst must not reorder our joins (CBO off, broadcast off)."""
    q = workload.q6d_lite()
    pr = plan_query(q, pg_est, cost_model)
    df = executor.node_df(q, pr.plan.root)
    physical = df._jdf.queryExecution().executedPlan().toString()
    assert "Join" in physical
    assert "BroadcastHashJoin" not in physical


def test_run_times_and_returns_row(executor, oracle):
    q = workload.q_nasdaq()
    plan = Join(Leaf("k", 1), Leaf("mk", 1), 1)
    res = executor.run(q, plan)
    assert res.wall_s > 0
    assert int(res.row["cnt"].iloc[0]) == oracle.card(q)


def test_materialize_and_reuse(executor, ds, oracle):
    q = workload.q_nasdaq()
    plan = Join(Leaf("k", 1), Leaf("mk", 1), 1)
    df, wall = executor.materialize(q, plan, "mat_test", [("mk", "movie_id")])
    assert wall > 0
    assert df.columns == ["mk__movie_id"]
    assert df.count() == oracle.card(q)
    assert "mat_test" in executor.temp
    executor.drop_temp("mat_test")
    assert "mat_test" not in executor.temp


def test_true_cards_covers_all_nodes(oracle):
    q = workload.q_nasdaq()
    plan = Join(Leaf("k", 1), Leaf("mk", 1), 1)
    cards = true_cards(q, plan, oracle)
    assert set(cards) == {
        frozenset({"k"}), frozenset({"mk"}), frozenset({"k", "mk"})
    }
    assert cards[frozenset({"k", "mk"})] == oracle.card(q)


def test_workload_query_spark_matches_duckdb(executor, ds, pg_est, cost_model, specs):
    q = specs[5]  # a 5-relation query — cheap but non-trivial
    pr = plan_query(q, pg_est, cost_model)
    df = executor.result_df(q, pr.plan.root)
    assert_equivalent(df, q.result_sql(), **ds.tables)
