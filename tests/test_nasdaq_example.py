"""The paper's §IV-C companies/trades example (Tables IV/V).

A filter selecting few-but-popular symbols makes the uniformity
assumption underestimate the join size by an order of magnitude or
more. Reproduced on IMDB-lite (keyword ≙ companies, movie_keyword ≙
trades) and on a literal companies/trades pair whose trades draw
company ids from a Zipf-like distribution.
"""
import numpy as np
import pandas as pd
import pytest

from repro.core.estimator import PostgresEstimator
from repro.core.qerror import qerror
from repro.core.query import Filter, JoinEdge, QuerySpec, Relation
from repro.core.stats import Catalog, analyze_pandas_table
from repro.imdb import workload


def test_imdb_nasdaq_underestimate(pg_est, oracle):
    spec = workload.q_nasdaq()
    est = pg_est.card(spec, spec.aliases)
    true = oracle.card(spec)
    assert qerror(est, true) > 8
    assert est < true  # specifically an UNDERestimate


def test_literal_companies_trades():
    g = np.random.default_rng(0)
    n_companies, n_trades = 1000, 100_000
    companies = pd.DataFrame(
        {
            "id": np.arange(1, n_companies + 1),
            # symbol group 1 = the 'APPL'/'GOOG' tier (popular ids).
            "tier": np.minimum(50, 1 + (50 * (np.arange(n_companies)) // n_companies)),
        }
    )
    ranks = np.arange(1, n_companies + 1)
    w = 1.0 / ranks**1.1
    w /= w.sum()
    trades = pd.DataFrame(
        {"company_id": g.choice(ranks, size=n_trades, p=w), "shares": g.integers(1, 1000, n_trades)}
    )
    catalog = Catalog(
        {
            "companies": analyze_pandas_table(companies, "companies"),
            "trades": analyze_pandas_table(trades, "trades"),
        }
    )
    est = PostgresEstimator(catalog)
    spec = QuerySpec(
        name="nasdaq",
        relations=(
            Relation("c", "companies", (Filter("tier", "=", 1),)),
            Relation("t", "trades"),
        ),
        joins=(JoinEdge("t", "company_id", "c", "id"),),
    )
    predicted = est.card(spec, spec.aliases)
    top_ids = set(companies.loc[companies.tier == 1, "id"])
    actual = trades["company_id"].isin(top_ids).sum()
    # "the cardinality estimator significantly underestimates" (§IV-C)
    assert actual > 5 * predicted


def test_base_table_estimate_is_fine_under_skew(pg_est, ds):
    """§IV-C: the error is at the join; the base estimate is accurate."""
    rel = workload.q_nasdaq().relation("k")
    est = pg_est.base_card(rel)
    true = (ds.tables["keyword"]["keyword_group"] == 1).sum()
    assert qerror(est, true) < 1.5
