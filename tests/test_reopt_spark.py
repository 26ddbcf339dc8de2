"""End-to-end re-optimization in Spark: the paper's Fig. 6 rewrite,
physically executed (timed materializations + final query), checked
bit-for-bit against the un-rewritten query in DuckDB."""
import pytest

from repro.core.cost import CostModel
from repro.core.estimator import PostgresEstimator
from repro.core.executor import SparkExecutor
from repro.core.reopt import cleanup, reoptimize, run_reoptimized_spark
from repro.core.stats import Catalog
from repro.core.truecard import TrueCardinalityOracle
from repro.imdb import workload


@pytest.fixture(scope="module")
def executor(spark, ds):
    return SparkExecutor(spark, ds)


@pytest.fixture()
def own_oracle(ds):
    return TrueCardinalityOracle(ds)


@pytest.fixture()
def own_pg(catalog):
    # reopt adds temp stats to its catalog, so give each test its own copy.
    return PostgresEstimator(Catalog(dict(catalog.stats)))


@pytest.mark.parametrize("qname,threshold", [
    ("q6d_lite", 8.0),
    ("q18a_lite", 8.0),
    ("q6d_lite", 32.0),
])
def test_reoptimized_spark_matches_original(
    ds, executor, own_oracle, own_pg, qname, threshold
):
    q = getattr(workload, qname)()
    out = reoptimize(
        q, own_pg, CostModel(), own_oracle,
        threshold=threshold, tag=f"sp{int(threshold)}",
    )
    wall, row = run_reoptimized_spark(out, executor)
    assert wall > 0
    expected = own_oracle.result(q)
    assert int(row["cnt"].iloc[0]) == int(expected["cnt"].iloc[0])
    assert list(row.iloc[0])[1:] == list(expected.iloc[0])[1:]
    cleanup(out, own_oracle, executor)
    assert not executor.temp


def test_workload_query_reopt_spark(ds, executor, own_oracle, own_pg, specs):
    # A nasty mid-size workload query that actually triggers.
    q = next(s for s in specs if s.name == "q024")
    out = reoptimize(q, own_pg, CostModel(), own_oracle, threshold=16, tag="spw")
    wall, row = run_reoptimized_spark(out, executor)
    expected = own_oracle.result(q)
    assert int(row["cnt"].iloc[0]) == int(expected["cnt"].iloc[0])
    cleanup(out, own_oracle, executor)


def test_zero_round_outcome_runs_plain_query(ds, executor, own_oracle, own_pg):
    q = workload.q_nasdaq()  # single join: root never triggers
    out = reoptimize(q, own_pg, CostModel(), own_oracle, threshold=2, tag="spz")
    assert out.n_replans == 0
    wall, row = run_reoptimized_spark(out, executor)
    assert int(row["cnt"].iloc[0]) == own_oracle.card(q)
