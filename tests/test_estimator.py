"""Cardinality estimator tests: PG-style formulas and perfect-(n)."""
import numpy as np
import pytest

from repro.core.estimator import PerfectEstimator, PostgresEstimator, _removable
from repro.core.query import Filter, JoinEdge, QuerySpec, Relation, connected_subsets
from repro.core.reopt import rewrite_with_temp
from repro.core.stats import Catalog
from repro.core.truecard import TrueCardinalityOracle
from repro.imdb import workload


@pytest.fixture(scope="module")
def q6d():
    return workload.q6d_lite()


# -- base-table estimates ----------------------------------------------

def test_base_card_no_filters_is_row_count(ds, pg_est):
    rel = Relation("t", "title")
    assert pg_est.base_card(rel) == len(ds.tables["title"])


def test_base_card_eq_filter_uses_mcv(ds, pg_est):
    rel = Relation("kt", "kind_type", (Filter("id", "=", 1),))
    # id is unique: selectivity 1/ndv.
    n = len(ds.tables["kind_type"])
    assert pg_est.base_card(rel) == pytest.approx(n * (1.0 / n))


def test_base_card_independence_multiplies(ds, pg_est):
    r1 = Relation("n", "name", (Filter("gender", "=", "m"),))
    r2 = Relation(
        "n", "name",
        (Filter("gender", "=", "m"), Filter("name_group", "in", (1, 2))),
    )
    c1 = pg_est.base_card(r1)
    c2 = pg_est.base_card(r2)
    assert c2 < c1  # extra predicate shrinks the estimate


def test_base_card_clamped_at_one(ds, pg_est):
    rel = Relation(
        "k", "keyword",
        (Filter("keyword_group", "=", 1), Filter("id", "=", 1)),
    )
    assert pg_est.base_card(rel) >= 1.0


def test_range_filter_estimate_reasonable(ds, pg_est):
    rel = Relation("t", "title", (Filter("production_year", ">", 1990),))
    true = (ds.tables["title"]["production_year"] > 1990).sum()
    est = pg_est.base_card(rel)
    assert 0.5 * true <= est <= 2.0 * true


# -- join estimates ----------------------------------------------------

def test_join_selectivity_one_over_max_ndv(ds, pg_est):
    sel = pg_est.join_selectivity("movie_keyword", "keyword_id", "keyword", "id")
    ndv_k = len(ds.tables["keyword"])
    ndv_mk = ds.tables["movie_keyword"]["keyword_id"].nunique()
    assert sel == pytest.approx(1.0 / max(ndv_k, ndv_mk))


def test_unfiltered_pk_fk_join_estimated_well(ds, pg_est, oracle):
    spec = QuerySpec(
        name="pkfk",
        relations=(Relation("mk", "movie_keyword"), Relation("k", "keyword")),
        joins=(JoinEdge("mk", "keyword_id", "k", "id"),),
    )
    est = pg_est.card(spec, spec.aliases)
    true = oracle.card(spec)
    # Without filters, uniformity is harmless on a PK-FK join.
    assert est == pytest.approx(true, rel=0.05)


def test_nasdaq_skew_underestimated(pg_est, oracle):
    """The §IV-C phenomenon: popular-group filter breaks uniformity."""
    spec = workload.q_nasdaq()
    est = pg_est.card(spec, spec.aliases)
    true = oracle.card(spec)
    assert true > 8 * est


def test_card_equals_cards(catalog, q6d):
    est = PostgresEstimator(catalog)
    subsets = connected_subsets(q6d)
    batch = est.cards(q6d, [q6d.graph.mask(s) for s in subsets])
    assert batch.dtype == np.float64
    assert batch.tolist() == [est.card(q6d, s) for s in subsets]


def reference_pg(spec, pg, subset):
    """The PG estimate of ``subset`` as one scalar product: base
    cardinalities in ``spec.relations`` order, then join selectivities in
    ``spec.joins`` order, clamped at 1."""
    card = 1.0
    for r in spec.relations:
        if r.alias in subset:
            card *= pg.base_card(r)
    for j in spec.joins:
        if j.aliases <= subset:
            card *= pg.join_selectivity(
                spec.relation(j.left_alias).table, j.left_col,
                spec.relation(j.right_alias).table, j.right_col,
            )
    return max(card, 1.0)


def assert_cards_match_reference(spec, est):
    subsets = connected_subsets(spec)
    got = est.cards(spec, [spec.graph.mask(s) for s in subsets]).tolist()
    ref = [reference_pg(spec, est, s) for s in subsets]
    assert [x.hex() for x in got] == [x.hex() for x in ref], spec.name


def test_pg_cards_match_reference_product_bit_for_bit(catalog, specs):
    est = PostgresEstimator(catalog)
    for spec in specs:
        assert_cards_match_reference(spec, est)


def test_pg_cards_of_rewritten_spec_match_reference_product(ds, catalog, q6d):
    catalog = Catalog(dict(catalog.stats))
    own_oracle = TrueCardinalityOracle(ds)
    sub = frozenset({"k", "mk"})
    new_spec, cols = rewrite_with_temp(q6d, sub, "q6d_tmp", "q6d@1")
    own_oracle.register_temp("q6d_tmp", q6d, sub, cols)
    catalog.stats["q6d_tmp"] = own_oracle.temp_stats("q6d_tmp")
    assert_cards_match_reference(new_spec, PostgresEstimator(catalog))


def test_join_estimate_at_least_one(pg_est, q6d):
    for s in connected_subsets(q6d):
        assert pg_est.card(q6d, s) >= 1.0


# -- perfect-(n) -------------------------------------------------------

def test_perfect_zero_equals_pg(catalog, oracle, pg_est, q6d):
    p0 = PerfectEstimator(0, oracle, catalog)
    for s in connected_subsets(q6d):
        assert p0.card(q6d, s) == pytest.approx(pg_est.card(q6d, s))


def test_perfect_n_exact_up_to_n(catalog, oracle, q6d):
    p2 = PerfectEstimator(2, oracle, catalog)
    for s in connected_subsets(q6d, max_size=2):
        assert p2.card(q6d, s) == max(oracle.card(q6d, s), 1)


def test_perfect_full_exact_everywhere(perfect_est, oracle, q6d):
    for s in connected_subsets(q6d):
        assert perfect_est.card(q6d, s) == max(oracle.card(q6d, s), 1)


def test_perfect_hierarchy_improves_on_average(catalog, oracle, q6d):
    """perfect-(n) errors on the full join shrink as n grows (on q6d)."""
    from repro.core.qerror import qerror

    true = oracle.card(q6d)
    errs = []
    for n in (0, 1, 2, 3, 4, 5):
        est = PerfectEstimator(n, oracle, catalog).card(q6d, q6d.aliases)
        errs.append(qerror(est, true))
    assert errs[-1] == 1.0
    assert errs[0] == max(errs)
    assert errs[3] <= errs[0]


def test_perfect_rejects_negative_n(catalog, oracle):
    with pytest.raises(ValueError):
        PerfectEstimator(-1, oracle, catalog)


def test_perfect_catalog_property(perfect_est, catalog):
    assert perfect_est.catalog is catalog


def test_removable_keeps_connectivity(specs):
    for spec in specs[::10]:
        g = spec.graph
        for m in g.csgs():
            if m.bit_count() < 2:
                continue
            r = _removable(g, m)
            assert r & m and r.bit_count() == 1 and g.is_connected(m ^ r)
            assert not any(
                g.is_connected(m ^ b) for b in (1 << i for i in range(m.bit_length()))
                if b > r and b & m
            )


@pytest.mark.parametrize("n", [0, 2, 17])
def test_perfect_cards_equal_card_per_mask_bit_for_bit(catalog, oracle, specs, n):
    # A lone mask above n is estimated through its own closure.
    est = PerfectEstimator(n, oracle, catalog)
    for spec in specs[::8]:
        masks = sorted(spec.graph.csgs())
        batch = est.cards(spec, masks).tolist()
        single = [est.card(spec, spec.graph.subset(m)) for m in masks]
        oracle.release(spec.name)
        assert [x.hex() for x in batch] == [x.hex() for x in single], spec.name


def reference_perfect(n, spec, oracle, pg):
    """perfect-(n) for every connected subset of ``spec``, by the plain
    recursion: the oracle up to n relations; above n, the estimate
    without the largest alias that keeps the rest connected, times that
    alias's base cardinality, times each selectivity of an edge from it
    into the subset in ``spec.joins`` order, clamped at 1."""
    rel = {r.alias: r for r in spec.relations}
    base = {a: pg.base_card(r) for a, r in rel.items()}
    sel = [
        pg.join_selectivity(
            rel[j.left_alias].table, j.left_col, rel[j.right_alias].table, j.right_col
        )
        for j in spec.joins
    ]
    out: dict[frozenset[str], float] = {}
    for s in connected_subsets(spec):
        if len(s) <= n:
            out[s] = float(max(oracle.card(spec, s), 1))
            continue
        if len(s) == 1:
            out[s] = base[next(iter(s))]
            continue
        r = next(a for a in sorted(s, reverse=True) if spec.is_connected(s - {a}))
        card = out[s - {r}] * base[r]
        for j, js in zip(spec.joins, sel):
            if r in j.aliases and j.aliases <= s:
                card *= js
        out[s] = max(card, 1.0)
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_perfect_n_matches_reference_recursion_bit_for_bit(
    catalog, oracle, pg_est, specs, n
):
    est = PerfectEstimator(n, oracle, catalog)
    for spec in specs:
        ref = reference_perfect(n, spec, oracle, pg_est)
        got = {s: est.card(spec, s) for s in ref}
        oracle.release(spec.name)
        assert got == ref, spec.name


def test_rewritten_spec_sees_temp_stats_added_after_first_estimate(ds, catalog, q6d):
    catalog = Catalog(dict(catalog.stats))
    est = PostgresEstimator(catalog)
    est.card(q6d, q6d.aliases)  # q6d's factors exist before the temp does
    own_oracle = TrueCardinalityOracle(ds)
    sub = frozenset({"k", "mk"})
    new_spec, cols = rewrite_with_temp(q6d, sub, "q6d_tmp", "q6d@1")
    own_oracle.register_temp("q6d_tmp", q6d, sub, cols)
    catalog.stats["q6d_tmp"] = own_oracle.temp_stats("q6d_tmp")
    rows = catalog.table("q6d_tmp").n_rows
    assert rows > 1
    assert est.card(new_spec, frozenset({"q6d_tmp"})) == float(rows)
