"""True-cardinality oracle tests.

The Yannakakis tree count is the load-bearing piece of the whole
reproduction (perfect-(n) and re-optimization both depend on it), so
it is cross-checked against plain DuckDB SQL on many real sub-joins.
"""
import dataclasses
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import duckdb
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.bench.harness import REOPT32, Config, Harness
from repro.core.query import Filter, JoinEdge, QuerySpec, Relation, connected_subsets
from repro.core.reopt import cleanup, rewrite_with_temp
from repro.core.stats import MCV_TARGET, Catalog, ColumnStats, TableStats, _pynative
from repro.core import truecard
from repro.core.truecard import TrueCardinalityOracle
from repro.imdb import workload
from repro.imdb.gen import Dataset


def duck_count(ds, sql: str) -> int:
    con = duckdb.connect()
    try:
        for name, pdf in ds.tables.items():
            con.register(name, pdf)
        return int(con.execute(sql).fetchone()[0])
    finally:
        con.close()


@pytest.fixture(scope="module")
def q6d():
    return workload.q6d_lite()


# -- tree count vs SQL on real queries ---------------------------------

@pytest.mark.parametrize("qname", ["q6d_lite", "q18a_lite", "q_nasdaq"])
def test_full_count_matches_duckdb(ds, oracle, qname):
    spec = getattr(workload, qname)()
    assert oracle.card(spec) == duck_count(ds, spec.count_sql())


def test_every_subset_of_q6d_matches_duckdb(ds, oracle, q6d):
    for s in connected_subsets(q6d):
        assert oracle.card(q6d, s) == duck_count(ds, q6d.count_sql(s)), s


@pytest.mark.parametrize("i", [0, 5, 23, 40, 60, 80, 95, 104, 112])
def test_workload_subsets_match_duckdb(ds, oracle, specs, i):
    spec = specs[i]
    subs = connected_subsets(spec, max_size=4)
    for s in subs[:: max(1, len(subs) // 8)]:
        assert oracle.card(spec, s) == duck_count(ds, spec.count_sql(s)), s


def test_count_memoized(ds, q6d):
    orc = TrueCardinalityOracle(ds)
    orc.card(q6d)
    n = orc.n_counts
    orc.card(q6d)
    assert orc.n_counts == n


def test_empty_filter_subset_counts_zero(ds, oracle):
    spec = QuerySpec(
        name="empty",
        relations=(
            Relation("k", "keyword", (Filter("keyword_group", "=", 9999),)),
            Relation("mk", "movie_keyword"),
        ),
        joins=(JoinEdge("mk", "keyword_id", "k", "id"),),
    )
    assert oracle.card(spec) == 0


# triangle: ci-t via movie_id, mk-t via movie_id, ci-mk via movie_id
CYCLIC = QuerySpec(
    name="cyc",
    relations=(
        Relation("t", "title", (Filter("production_year", ">", 2010),)),
        Relation("ci", "cast_info"),
        Relation("mk", "movie_keyword"),
    ),
    joins=(
        JoinEdge("ci", "movie_id", "t", "id"),
        JoinEdge("mk", "movie_id", "t", "id"),
        JoinEdge("ci", "movie_id", "mk", "movie_id"),
    ),
)


def test_cyclic_subset_falls_back_to_duckdb(ds, oracle):
    assert oracle.card(CYCLIC) == duck_count(ds, CYCLIC.count_sql())


def test_leaves_match_sequential_pandas_filtering(ds, specs):
    orc = TrueCardinalityOracle(ds)
    seen = set()
    for spec in specs:
        g, _ = orc._flat(spec, 0)
        for rel in spec.relations:
            keys = {j.side(rel.alias)[0] for j in spec.joins if rel.alias in j.aliases}
            if (rel.table, rel.filters, frozenset(keys)) in seen:
                continue
            seen.add((rel.table, rel.filters, frozenset(keys)))
            pdf = ds.tables[rel.table]
            for f in rel.filters:
                pdf = pdf[f.mask(pdf[f.col])]
            assert orc._leaf(rel)[1] == len(pdf), rel
            for c in keys:
                got = orc._col(g, g.graph.index[rel.alias], c)
                want = pdf[c].to_numpy()
                assert got.dtype == want.dtype and np.array_equal(got, want), (rel, c)
        orc.release(spec.name)
    assert len(seen) > 100


def test_leaf_rows_equal_series_filter_masks(ds, specs):
    """A leaf's row indices, from numpy filter masks, equal the rows the
    pandas ``Series`` form of ``Filter.mask`` passes, on every (table,
    filters) of the workload and on ``in`` filters over string columns."""
    leaves = {(r.table, r.filters) for spec in specs for r in spec.relations}
    for table, pdf in ds.tables.items():
        for col in pdf.columns[pdf.dtypes == object]:
            vals = tuple(pdf[col].drop_duplicates().head(2)) + ("no such value",)
            leaves.add((table, (Filter(col, "in", vals),)))
            leaves.add((table, (Filter(col, "in", vals[:1]), Filter("id", ">", 3))))
    assert sum(f.op == "in" and ds.tables[t][f.col].dtype == object
               for t, fs in leaves for f in fs) >= 12
    orc = TrueCardinalityOracle(ds)
    for table, filters in leaves:
        pdf = ds.tables[table]
        # The all-true mask stands for an unfiltered relation.
        want = np.flatnonzero(np.logical_and.reduce(
            [f.mask(pdf[f.col]).to_numpy() for f in filters] + [np.ones(len(pdf), bool)]))
        idx, n = orc._leaf(Relation("x", table, filters))
        got = np.arange(len(pdf)) if idx is None else idx
        assert n == len(want) and np.array_equal(got, want), (table, filters)
    assert len(leaves) > 100


def test_group_counts_match_sql(ds, oracle, q6d):
    s = frozenset({"k", "mk"})
    gc = oracle.group_counts(q6d, s, "mk", "movie_id")
    con = duckdb.connect()
    for name, pdf in ds.tables.items():
        con.register(name, pdf)
    rows = con.execute(
        f"SELECT mk.movie_id, COUNT(*) FROM {q6d.from_sql(s)} "
        f"WHERE {q6d.where_sql(s)} GROUP BY 1"
    ).fetchall()
    con.close()
    expected = {v: c for v, c in rows}
    assert dict(gc.astype(int)) == expected


def test_group_counts_total_equals_card(oracle, q6d):
    s = frozenset({"k", "mk", "t"})
    gc = oracle.group_counts(q6d, s, "t", "id")
    assert int(round(gc.sum())) == oracle.card(q6d, s)


# -- virtual temp tables -----------------------------------------------

@pytest.fixture()
def own_oracle(ds):
    return TrueCardinalityOracle(ds)


def test_registered_temp_counts_its_subjoin(ds, own_oracle, q6d):
    sub = frozenset({"k", "mk"})
    new_spec, cols = rewrite_with_temp(q6d, sub, "tt0", "q6d@1")
    own_oracle.register_temp("tt0", q6d, sub, cols)
    assert own_oracle.card(new_spec, frozenset({"tt0"})) == duck_count(
        ds, q6d.count_sql(sub)
    )


def test_reregistering_a_live_name_counts_the_new_definition(ds, own_oracle, q6d):
    sub = frozenset({"k", "mk"})
    new_spec, cols = rewrite_with_temp(q6d, sub, "tt2", "q6d@1")
    own_oracle.register_temp("tt2", q6d, sub, cols)
    s = frozenset({"tt2", "t"})
    old = own_oracle.card(new_spec, s)  # flattens new_spec on the first definition
    # Same name and columns; the temp now drops keyword's filter.
    unfiltered = QuerySpec(
        q6d.name,
        tuple(Relation(r.alias, r.table) if r.alias == "k" else r for r in q6d.relations),
        q6d.joins,
    )
    own_oracle.register_temp("tt2", unfiltered, sub, cols)
    want = duck_count(ds, unfiltered.count_sql(sub | {"t"}))
    assert want != old
    assert own_oracle.card(new_spec, s) == want


def test_rewritten_spec_counts_match_original(ds, own_oracle, q6d):
    sub = frozenset({"k", "mk"})
    new_spec, cols = rewrite_with_temp(q6d, sub, "tt1", "q6d@1")
    own_oracle.register_temp("tt1", q6d, sub, cols)
    # the rewritten full query has the same cardinality as the original
    assert own_oracle.card(new_spec) == own_oracle.card(q6d)
    # a subset containing the temp expands correctly
    s = frozenset({"tt1", "t"})
    assert own_oracle.card(new_spec, s) == duck_count(
        ds, q6d.count_sql(frozenset({"k", "mk", "t"}))
    )


def test_nested_temp_expansion(ds, own_oracle, q6d):
    sub1 = frozenset({"k", "mk"})
    spec1, cols1 = rewrite_with_temp(q6d, sub1, "n0", "q6d@1")
    own_oracle.register_temp("n0", q6d, sub1, cols1)
    sub2 = frozenset({"n0", "t"})
    spec2, cols2 = rewrite_with_temp(spec1, sub2, "n1", "q6d@2")
    own_oracle.register_temp("n1", spec1, sub2, cols2)
    assert own_oracle.card(spec2) == own_oracle.card(q6d)


def test_temp_stats_exact(ds, own_oracle, q6d):
    sub = frozenset({"k", "mk"})
    _, cols = rewrite_with_temp(q6d, sub, "ts0", "q6d@1")
    own_oracle.register_temp("ts0", q6d, sub, cols)
    ts = own_oracle.temp_stats("ts0")
    # materialize for real in DuckDB and compare
    con = duckdb.connect()
    for name, pdf in ds.tables.items():
        con.register(name, pdf)
    outs = ", ".join(f"{a}.{c} AS {a}__{c}" for a, c in cols)
    mat = con.execute(
        f"SELECT {outs} FROM {q6d.from_sql(sub)} WHERE {q6d.where_sql(sub)}"
    ).fetchdf()
    con.close()
    assert ts.n_rows == len(mat)
    for cname in ts.columns:
        assert ts.columns[cname].ndv == mat[cname].nunique()
        top_val, top_cnt = mat[cname].value_counts().head(1).reset_index().iloc[0]
        got = dict(ts.columns[cname].mcvs)
        assert got[top_val] == pytest.approx(top_cnt / len(mat))


def pandas_temp_stats(orc, name):
    """The pandas summary of a temp's group counts that ``temp_stats``
    replaced (``Series.sort_values``, index min/max), as a reference."""
    td = orc._temps[name]
    n = orc.card(td.spec, td.subset)
    cols = {}
    for cname, (a, c) in td.cols.items():
        s = orc.group_counts(td.spec, td.subset, *orc._base_col(td.spec, a, c))
        top = s.sort_values(ascending=False).head(MCV_TARGET)
        cols[cname] = ColumnStats(
            n_rows=n,
            ndv=int(len(s)),
            min_val=(_pynative(s.index.min()) if len(s) else None),
            max_val=(_pynative(s.index.max()) if len(s) else None),
            mcvs=tuple((_pynative(v), cnt / n) for v, cnt in top.items() if n),
            hist=None,
        )
    return TableStats(table=name, n_rows=n, columns=cols)


def test_temp_stats_equal_pandas_reference_on_every_reopt_temp(ds, catalog, specs):
    h = Harness(ds, Catalog(dict(catalog.stats)))
    n_temps = 0
    for spec in specs:
        run = h.run_query(spec, REOPT32, keep_temps=True)
        for step in run.outcome.steps:
            want = repr(pandas_temp_stats(h.oracle, step.temp_name))
            assert repr(h.catalog.stats[step.temp_name]) == want, step.temp_name
            n_temps += 1
        cleanup(run.outcome, h.oracle)
        h.oracle.release(spec.name)
    assert n_temps > 100


def test_temp_stats_deterministic_on_cyclic_spec(ds):
    cols = [("t", "id"), ("ci", "person_id"), ("mk", "keyword_id")]
    got = []
    for _ in range(2):
        orc = TrueCardinalityOracle(ds)
        orc.register_temp("cy0", CYCLIC, CYCLIC.aliases, cols)
        got.append(repr(orc.temp_stats("cy0")))
        assert orc._con is not None  # the DuckDB fallback counted it
        orc.close()
    assert got[0] == got[1]


def test_result_on_rewritten_spec_matches_original(ds, own_oracle, q6d):
    sub = frozenset({"k", "mk", "t"})
    new_spec, cols = rewrite_with_temp(q6d, sub, "tr0", "q6d@1")
    own_oracle.register_temp("tr0", q6d, sub, cols)
    a = own_oracle.result(q6d)
    b = own_oracle.result(new_spec)
    assert a["cnt"].iloc[0] == b["cnt"].iloc[0]
    # same MIN values (column names differ by provenance)
    assert list(a.iloc[0])[1:] == list(b.iloc[0])[1:]


def test_drop_temp_forgets(own_oracle, q6d):
    sub = frozenset({"k", "mk"})
    _, cols = rewrite_with_temp(q6d, sub, "td0", "q6d@1")
    own_oracle.register_temp("td0", q6d, sub, cols)
    own_oracle.drop_temp("td0")
    assert "td0" not in own_oracle._temps


def test_cards_on_rewritten_spec_reuse_original_counts(ds, own_oracle, q6d):
    sub = frozenset({"k", "mk"})
    new_spec, cols = rewrite_with_temp(q6d, sub, "tc0", "q6d@1")
    own_oracle.register_temp("tc0", q6d, sub, cols)
    own_oracle.cards(q6d, q6d.graph.csgs())
    n = own_oracle.n_counts
    # Every connected subset of the rewritten spec is, flattened, one of
    # the original's: one batch counts nothing new.
    masks = new_spec.graph.csgs()
    got = own_oracle.cards(new_spec, masks)
    assert own_oracle.n_counts == n
    one = TrueCardinalityOracle(ds)
    one.register_temp("tc0", q6d, sub, cols)
    assert got == [one.card(new_spec, new_spec.graph.subset(m)) for m in masks]


def test_rewritten_specs_take_their_source_flattening(ds, catalog, specs):
    """Every spec reopt-32 and reopt-2 rewrite the workload into takes its
    source's flat graph, with the flat masks the expansion gives."""
    h = Harness(ds, Catalog(dict(catalog.stats)))
    orc = h.oracle
    n_rewrites = n_two_temps = 0
    for spec in specs:
        runs = [h.run_query(spec, cfg, keep_temps=True)
                for cfg in (REOPT32, Config("reopt-2", reopt_threshold=2.0))]
        for run in runs:
            steps = run.outcome.steps
            for cur in [s.spec_before for s in steps[1:]] + [run.outcome.final_spec] * bool(steps):
                g, parts = orc._rewrite_flattening(cur)
                ge, want = orc._expand_flattening(cur)
                assert g is ge and g.key == ge.key and parts == want, cur.name
                n_rewrites += 1
                n_two_temps += sum(r.table in orc._temps for r in cur.relations) >= 2
        for run in runs:
            cleanup(run.outcome, orc)
        orc.release(spec.name)
    assert n_rewrites > 200 and n_two_temps > 20


def test_spec_not_made_by_a_rewrite_is_expanded(own_oracle, q6d):
    sub = frozenset({"k", "mk"})
    new_spec, cols = rewrite_with_temp(q6d, sub, "tx0", "q6d@1")
    own_oracle.register_temp("tx0", q6d, sub, cols)
    assert own_oracle._rewrite_flattening(new_spec) is not None
    # Same relations, one join twice: not the rewrite of q6d.
    twice = dataclasses.replace(new_spec, joins=new_spec.joins + new_spec.joins[:1])
    assert own_oracle._rewrite_flattening(twice) is None
    g, parts = own_oracle._flattening(twice)
    assert (g, parts) == own_oracle._expand_flattening(twice)
    assert len(g.spec.joins) == len(q6d.joins) + 1


def test_count_memo_per_flat_graph(own_oracle, q6d):
    masks = q6d.graph.csgs()
    first = own_oracle.cards(q6d, masks)
    g, _ = own_oracle._flat(q6d, 0)
    assert len(g.counts) == len(masks)
    assert sorted(g.counts.values()) == sorted(first)
    assert own_oracle.cards(q6d, masks) == first


def _leaf_state(orc):
    """The oracle's leaf state, with arrays as lists for comparison."""
    def plain(v):
        if isinstance(v, tuple):
            return tuple(map(plain, v))
        return v.tolist() if isinstance(v, np.ndarray) else v
    return [{k: plain(v) for k, v in d.items()}
            for d in (orc._leaf_cache, orc._col_cache, orc._leaf_msgs)]


def test_release_frees_query_state_and_keeps_leaf_state(ds, own_oracle, q6d, monkeypatch):
    masks = q6d.graph.csgs()
    first = own_oracle.cards(q6d, masks)
    own_oracle.release(q6d.name)
    for state in (own_oracle._msg_cache, own_oracle._looked, own_oracle._graphs, own_oracle._specs):
        assert not state
    fresh = TrueCardinalityOracle(ds)
    assert fresh.cards(q6d, masks) == first
    kept = _leaf_state(own_oracle)
    assert all(kept) and kept == _leaf_state(fresh)

    # Two specs sharing a (table, filters) leaf, under different aliases,
    # evaluate its filters once and share one leaf message.
    calls = []
    mask = Filter.mask
    monkeypatch.setattr(Filter, "mask", lambda f, col: calls.append(f) or mask(f, col))
    kw = Relation("k", "keyword", (Filter("keyword_group", "=", 2),))
    a = QuerySpec("a", (kw, Relation("mk", "movie_keyword")),
                  (JoinEdge("mk", "keyword_id", "k", "id"),))
    b = QuerySpec("b", (dataclasses.replace(kw, alias="k2"), Relation("m", "movie_keyword"),
                        Relation("t", "title")),
                  (JoinEdge("m", "keyword_id", "k2", "id"), JoinEdge("m", "movie_id", "t", "id")))
    leaf_msgs = []
    for spec, alias, nbr in ((a, "k", "mk"), (b, "k2", "m")):
        own_oracle.cards(spec, spec.graph.csgs())
        g, _ = own_oracle._flat(spec, 0)
        x, y = g.graph.index[alias], g.graph.index[nbr]
        leaf_msgs.append(own_oracle._msg_cache[g, 1 << x, x, y][0])
        own_oracle.release(spec.name)
    assert calls == [kw.filters[0]]
    assert leaf_msgs[0] is leaf_msgs[1]


def test_temp_stats_sort_each_leaf_column_once(ds, own_oracle, q6d, monkeypatch):
    """Two queries whose temps read the same (table, filters, col) sort
    that column once, and the sort outlives ``release``."""
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **kw: calls.append(a) or unique(*a, **kw))
    sub = frozenset({"k", "mk", "t"})
    other = dataclasses.replace(q6d, name="q6d_again")
    got = []
    for i, spec in enumerate((q6d, other)):
        _, cols = rewrite_with_temp(spec, sub, f"tu{i}", f"{spec.name}@1")
        own_oracle.register_temp(f"tu{i}", spec, sub, cols)
        got.append(repr(own_oracle.temp_stats(f"tu{i}")))
        own_oracle.release(spec.name)
        if i == 0:
            n_sorts = len(calls)
    leaf_cols = {(q6d.relation(a).table, q6d.relation(a).filters, c) for a, c in cols}
    assert n_sorts == len(leaf_cols) == len(calls) > 1
    assert all(not a.flags.writeable for v in own_oracle._col_sorts.values() for a in v)

    fresh = TrueCardinalityOracle(ds)
    for i, spec in enumerate((q6d, other)):
        _, cols = rewrite_with_temp(spec, sub, f"tu{i}", f"{spec.name}@1")
        fresh.register_temp(f"tu{i}", spec, sub, cols)
    assert got == [repr(fresh.temp_stats(f"tu{i}")) for i in range(2)]


def test_batch_flat_masks_equal_per_mask_flattening(ds, own_oracle, q6d):
    """``cards`` maps a batch to flat masks in one vector operation; on a
    rewrite that names a nested temp its counts equal the per-mask
    ``_count(*_flat(spec, m))`` of a fresh oracle."""
    sub1 = frozenset({"k", "mk"})
    spec1, cols1 = rewrite_with_temp(q6d, sub1, "nb0", "q6d@1")
    sub2 = frozenset({"nb0", "t"})
    spec2, cols2 = rewrite_with_temp(spec1, sub2, "nb1", "q6d@2")
    fresh = TrueCardinalityOracle(ds)
    for orc in (own_oracle, fresh):
        orc.register_temp("nb0", q6d, sub1, cols1)
        orc.register_temp("nb1", spec1, sub2, cols2)
    _, parts = own_oracle._flattening(spec2)
    assert parts != [1 << i for i in range(len(parts))]
    masks = spec2.graph.csgs()
    got = own_oracle.cards(spec2, masks)
    assert got == [fresh._count(*fresh._flat(spec2, m)) for m in masks]
    assert len(set(got)) > len(got) // 2


def test_result_matches_duckdb_reference(ds, oracle, q6d):
    con = duckdb.connect()
    for name, pdf in ds.tables.items():
        con.register(name, pdf)
    expected = con.execute(q6d.result_sql()).fetchdf()
    con.close()
    pd.testing.assert_frame_equal(oracle.result(q6d), expected)


# -- exact integer counts ----------------------------------------------

@pytest.mark.parametrize("shape", ["chain", "star"])
@pytest.mark.parametrize("n_rel", [5, 6, 7])
def test_counts_are_exact_past_float_and_int64_range(shape, n_rel):
    # Every row carries the same key, so the join is the full cross
    # product: 3001**5 > 2**53 (float64 sums round), 3001**6 > 2**63
    # (int64 sums wrap), and a 7-way star's per-row products pass 2**63.
    n = 3001
    tables = {f"r{i}": pd.DataFrame({"k": np.zeros(n, dtype=np.int64)})
              for i in range(n_rel)}
    rels = tuple(Relation(f"a{i}", f"r{i}") for i in range(n_rel))
    joins = tuple(
        JoinEdge(f"a{i}", "k", f"a{i - 1 if shape == 'chain' else 0}", "k")
        for i in range(1, n_rel)
    )
    spec = QuerySpec(name="big", relations=rels, joins=joins)
    orc = TrueCardinalityOracle(Dataset(sf=0.0, seed=0, tables=tables))
    assert orc.card(spec) == n**n_rel
    for r in rels:
        gc = orc.group_counts(spec, spec.aliases, r.alias, "k")
        assert list(gc.index) == [0] and gc.sum() == n**n_rel
    # Object-array counts summarize as the pandas reference does.
    orc.register_temp("big0", spec, spec.aliases, [(r.alias, "k") for r in rels])
    vals, counts = orc._value_counts(spec, spec.aliases, "a0", "k")
    assert vals.tolist() == [0] and counts.tolist() == [n**n_rel]
    assert (counts.dtype == object) == (n**n_rel >= 2**63)
    assert repr(orc.temp_stats("big0")) == repr(pandas_temp_stats(orc, "big0"))
    assert orc._con is None  # no DuckDB fallback
    # Every connected subset of k relations counts n**k, in one batch.
    batch = TrueCardinalityOracle(Dataset(sf=0.0, seed=0, tables=tables))
    masks = spec.graph.csgs()
    got = batch.cards(spec, masks)
    assert got == [n ** m.bit_count() for m in masks]
    assert all(type(c) is int for c in got) and batch._con is None


def _chain_oracle(cols):
    """An oracle over a chain a0 - a1 - ... of one-table relations, where
    ``cols[i]`` maps a column of table ``r{i}`` to its values; consecutive
    relations join on the one column name they share."""
    tables = {f"r{i}": pd.DataFrame({c: np.asarray(v, dtype=np.int64) for c, v in cs.items()})
              for i, cs in enumerate(cols)}
    rels = tuple(Relation(f"a{i}", f"r{i}") for i in range(len(cols)))
    joins = tuple(JoinEdge(f"a{i}", c, f"a{i - 1}", c)
                  for i in range(1, len(cols)) for c in cols[i] if c in cols[i - 1])
    spec = QuerySpec(name="chain", relations=rels, joins=joins)
    return TrueCardinalityOracle(Dataset(sf=0.0, seed=0, tables=tables)), spec


def _chain_reference(cols, mask) -> int:
    """Python-int count of the sub-chain on ``mask`` (bit i: a{i}): left
    to right, each row weighted by the rows it joins on its left."""
    lo, hi = (mask & -mask).bit_length() - 1, mask.bit_length() - 1
    w = [1] * len(next(iter(cols[lo].values())))
    for i in range(lo + 1, hi + 1):
        on = next(c for c in cols[i] if c in cols[i - 1])
        left: dict[int, int] = {}
        for v, x in zip(cols[i - 1][on].tolist(), w):
            left[v] = left.get(v, 0) + x
        w = [left.get(v, 0) for v in cols[i][on].tolist()]
    return sum(w)


@pytest.mark.parametrize("d", [-1, 0, 1])
@pytest.mark.parametrize("split", [False, True])
def test_bincount_exact_at_float_limit(d, split):
    """A total of 2**53 + d, in one bin or split over two."""
    w = np.array([2.0**52, 2**52 + d])
    out, total, top = truecard._bincount(np.array([1, 2 if split else 1]), w, 2**52 + 1, 4)
    want = [0, 2**52, 2**52 + d, 0] if split else [0, 2**53 + d, 0, 0]
    assert truecard._ints(out).tolist() == want
    assert (total, top) == (2**53 + d, max(want))
    assert (out.dtype == np.float64) == (total < 2**53)


@pytest.mark.parametrize("d", [-1, 0, 1])
def test_dot_exact_at_float_limit(d):
    a = (np.array([2.0, 1.0]), 3, 2)
    b = (np.array([2.0**52 - 1, 2 + d]), 2**52 + 1 + d, 2**52 - 1)
    got = truecard._dot(a, b)
    assert type(got) is int and got == 2**53 + d


@pytest.mark.parametrize("d", [-1, 0, 1])
def test_counts_exact_at_float_limit(d):
    """A 5-chain on one key whose count, and a message's total, is 2**53 + d:
    each value v has ``rows[v][i]`` rows in relation i."""
    p = 2**13
    rows = {1: [(p, p, p, 2 * p, 1), (1, 1, 1, 1, 1)],
            0: [(p, p, p, 2 * p, 1)],
            -1: [(p, p, p, 2 * p - 1, 1), (p - 1, p, p, 1, 1),
                 (p - 1, p, 1, 1, 1), (p - 1, 1, 1, 1, 1)]}[d]
    cols = [{"k": np.repeat(np.arange(len(rows)), [r[i] for r in rows])} for i in range(5)]
    orc, spec = _chain_oracle(cols)
    masks = spec.graph.csgs()
    assert orc.cards(spec, masks) == [_chain_reference(cols, m) for m in masks]
    assert orc.card(spec) == 2**53 + d
    for a in spec.graph.aliases:
        gc = orc.group_counts(spec, spec.aliases, a, "k")
        assert gc.to_dict() == {v: math.prod(r) for v, r in enumerate(rows)}
    assert orc._con is None


def test_totals_past_int64_with_small_maxima_stay_off_object_arrays(monkeypatch):
    """b0 -k- b1 -k- b2 -j- c -j- d2 -k- d1 -k- d0 with n rows each, every k
    zero and each j once per relation: the messages across c's edges total
    n**3 but peak at n**2, so totals multiply to n**6 > 2**63 while maxima
    multiply to at most n**5 < 2**53."""
    n = 1500
    zero, ids = np.zeros(n, dtype=np.int64), np.arange(n)
    cols = [{"k": zero}, {"k": zero}, {"k": zero, "j": ids}, {"j": ids},
            {"j": ids, "k": zero}, {"k": zero}, {"k": zero}]
    assert n**6 > 2**63 and n**5 < 2**53
    seen = []
    for name in ("_bincount", "_dot", "_sum"):
        fn = getattr(truecard, name)

        def spy(*args, fn=fn):
            seen.extend(a.dtype for a in (x[0] if isinstance(x, tuple) else x for x in args)
                        if isinstance(a, np.ndarray))
            return fn(*args)
        monkeypatch.setattr(truecard, name, spy)
    orc, spec = _chain_oracle(cols)
    masks = spec.graph.csgs()
    assert orc.cards(spec, masks) == [_chain_reference(cols, m) for m in masks]
    assert orc.card(spec) == n**5
    gc = orc.group_counts(spec, spec.aliases, "a3", "j")
    assert gc.tolist() == [n**4] * n
    assert seen and object not in seen
    assert all(m[0].dtype == np.float64 for m in orc._msg_cache.values())


# -- rooted counting -----------------------------------------------------

def _rooted_at(r: int):
    """Root every flat graph built inside at relation ``r``."""
    return mock.patch.object(truecard, "_best_root", lambda nbr, rows: r)


@pytest.mark.parametrize("d", [-1, 0, 1])
def test_counts_exact_at_float_limit_from_every_root(d):
    """test_counts_exact_at_float_limit's 5-chain, rooted at each relation."""
    p = 2**13
    rows = {1: [(p, p, p, 2 * p, 1), (1, 1, 1, 1, 1)],
            0: [(p, p, p, 2 * p, 1)],
            -1: [(p, p, p, 2 * p - 1, 1), (p - 1, p, p, 1, 1),
                 (p - 1, p, 1, 1, 1), (p - 1, 1, 1, 1, 1)]}[d]
    cols = [{"k": np.repeat(np.arange(len(rows)), [r[i] for r in rows])} for i in range(5)]
    for r in range(5):
        with _rooted_at(r):
            orc, spec = _chain_oracle(cols)
            masks = spec.graph.csgs()
            assert orc.cards(spec, masks) == [_chain_reference(cols, m) for m in masks], r
            assert orc._flattening(spec)[0].root == r
            for a in spec.graph.aliases:
                gc = orc.group_counts(spec, spec.aliases, a, "k")
                assert gc.to_dict() == {v: math.prod(x) for v, x in enumerate(rows)}, (r, a)


def test_star_counts_past_int64_from_every_root():
    """test_counts_are_exact_past_float_and_int64_range's 7-way star (a
    count of 3001**7 > 2**63), rooted at each relation."""
    n, n_rel = 3001, 7
    tables = {f"r{i}": pd.DataFrame({"k": np.zeros(n, dtype=np.int64)})
              for i in range(n_rel)}
    rels = tuple(Relation(f"a{i}", f"r{i}") for i in range(n_rel))
    joins = tuple(JoinEdge(f"a{i}", "k", "a0", "k") for i in range(1, n_rel))
    spec = QuerySpec(name="big", relations=rels, joins=joins)
    masks = spec.graph.csgs()
    for r in range(n_rel):
        with _rooted_at(r):
            orc = TrueCardinalityOracle(Dataset(sf=0.0, seed=0, tables=tables))
            got = orc.cards(spec, masks)
            assert orc._flattening(spec)[0].root == r
        assert got == [n ** m.bit_count() for m in masks], r
        assert all(type(c) is int for c in got)
        for a in spec.graph.aliases:
            gc = orc.group_counts(spec, spec.aliases, a, "k")
            assert gc.to_dict() == {0: n**n_rel}, (r, a)
        assert orc._con is None


def _tree_graphs():
    """Join graphs of trees of 1 to 9 relations (chains, stars and random
    shapes), relation i being ``a{i}``."""
    rnd = random.Random(17)
    shapes = [[], [0], [0, 1, 2, 3], [0, 0, 0, 0, 0]]
    shapes += [[rnd.randrange(i + 1) for i in range(n - 1)] for n in range(3, 10) for _ in range(4)]
    for parents in shapes:
        rels = tuple(Relation(f"a{i}", f"r{i}") for i in range(len(parents) + 1))
        joins = tuple(JoinEdge(f"a{i + 1}", "k", f"a{p}", "k") for i, p in enumerate(parents))
        yield QuerySpec(name="tree", relations=rels, joins=joins).graph


def _distances(nbr, r):
    """Each relation's number of edges from ``r``."""
    dist, frontier, k = {r: 0}, [r], 0
    while frontier:
        k += 1
        frontier = [c for v in frontier for c in range(len(nbr))
                    if nbr[v] >> c & 1 and c not in dist]
        dist.update(dict.fromkeys(frontier, k))
    return dist


def test_rooted_subtree_counts_equal_csgs_by_top_relation():
    """D(x) is the number of connected subsets whose relation nearest the
    root is x, for every root of every tree."""
    for g in _tree_graphs():
        nbr, csgs = g.nbr, g.csgs()
        rows = [1] * len(nbr)
        for r in range(len(nbr)):
            dist = _distances(nbr, r)
            tops = [min((v for v in range(len(nbr)) if m >> v & 1), key=dist.get) for m in csgs]
            for x in range(len(nbr)):
                up = next((1 << y for y in range(len(nbr))
                           if nbr[x] >> y & 1 and dist[y] < dist[x]), 0)
                assert truecard._rooted(nbr, rows, x, up, {})[0] == tops.count(x), (g.aliases, r, x)


def test_best_root_minimizes_enumerated_cost():
    """_best_root's closed form against a cost read off every connected
    subset: a subset without the root, of two or more relations, reads its
    top relation's rows; one holding the root and k >= 2 of its neighbours
    reads _ROOT_SUM_COST * k rows per root row."""
    rnd = random.Random(5)
    for g in _tree_graphs():
        nbr, csgs = g.nbr, g.csgs()
        for _ in range(3):
            rows = [rnd.choice([1, 10, 1000, 100_000]) for _ in nbr]
            costs = []
            for r in range(len(nbr)):
                dist = _distances(nbr, r)
                cost = 0
                for m in csgs:
                    if not m >> r & 1 and m & (m - 1):
                        cost += rows[min((v for v in range(len(nbr)) if m >> v & 1), key=dist.get)]
                    elif m >> r & 1 and (nbr[r] & m).bit_count() >= 2:
                        cost += truecard._ROOT_SUM_COST * rows[r] * (nbr[r] & m).bit_count()
                costs.append(cost)
            assert truecard._best_root(nbr, rows) == costs.index(min(costs)), (g.aliases, rows)


_ROOTS = """
from repro.core.truecard import TrueCardinalityOracle
from repro.imdb import gen, workload
orc = TrueCardinalityOracle(gen.generate(sf=0.01, seed=42))
print([orc._flattening(s)[0].root for s in workload.job_lite_workload()])
"""


def test_roots_do_not_depend_on_hash_seed():
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    roots = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        out = subprocess.run([sys.executable, "-c", _ROOTS], env=env,
                             capture_output=True, text=True, check=True)
        roots.add(out.stdout.strip())
    assert len(roots) == 1, roots


# -- canonical count memo ----------------------------------------------

_N_COUNTS = """
from repro.bench import harness
from repro.core import stats
from repro.imdb import gen, workload
ds = gen.generate(sf=0.01, seed=42)
h = harness.Harness(ds, stats.analyze_pandas(ds))
specs = {s.name: s for s in workload.job_lite_workload()}
for name in ("q025", "q039", "q051"):
    for cfg in (harness.PERFECT, harness.REOPT32):
        h.run_query(specs[name], cfg)
print(h.oracle.n_counts)
"""


def test_count_memo_does_not_depend_on_hash_seed():
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    counts = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        out = subprocess.run([sys.executable, "-c", _N_COUNTS], env=env,
                             capture_output=True, text=True, check=True)
        counts.add(int(out.stdout.split()[-1]))
    assert len(counts) == 1, counts


# -- fast path: no DuckDB for the workload -----------------------------

def test_workload_subsets_never_open_duckdb(ds, specs):
    orc = TrueCardinalityOracle(ds)
    for spec in specs:
        for s in connected_subsets(spec, max_size=4):
            orc.card(spec, s)
        orc.release(spec.name)
    assert orc.n_counts > 0 and orc._con is None
    orc.close()  # safe when DuckDB was never opened
    orc.close()


# -- property: tree counts equal DuckDB on random small trees ----------

@st.composite
def random_trees(draw):
    """Random tree specs over random int-key tables (``k0``, ``k1``)."""
    n = draw(st.integers(2, 4))
    cols = []
    for _ in range(n):
        rows = draw(st.integers(2, 7))
        cells = st.lists(st.integers(0, 4), min_size=rows, max_size=rows)
        cols.append({c: np.array(draw(cells)) for c in ("k0", "k1", "v")})
    # One key column may be negative or non-integer: DuckDB must count it.
    bad = draw(st.sampled_from([None, "negative", "float"]))
    if bad == "negative":
        cols[0]["k0"][0] = -1
    elif bad == "float":
        cols[0]["k0"] = cols[0]["k0"].astype(float)
    tables = {f"r{i}": pd.DataFrame(c) for i, c in enumerate(cols)}
    rels = tuple(
        Relation(f"a{i}", f"r{i}",
                 (Filter("v", "<=", draw(st.integers(-1, 4))),)  # -1: empty
                 if draw(st.booleans()) else ())
        for i in range(n)
    )
    keys = st.sampled_from(["k0", "k1"])
    joins = tuple(
        JoinEdge(f"a{i}", draw(keys), f"a{draw(st.integers(0, i - 1))}", draw(keys))
        for i in range(1, n)
    )
    return tables, QuerySpec(name="rand", relations=rels, joins=joins), bad


@settings(max_examples=60, deadline=None)
@given(random_trees(), st.randoms(use_true_random=False))
def test_tree_counts_match_duckdb_on_random_trees(case, rnd):
    tables, spec, bad = case
    orc = TrueCardinalityOracle(Dataset(sf=0.0, seed=0, tables=tables))
    one = TrueCardinalityOracle(Dataset(sf=0.0, seed=0, tables=tables))
    masks = spec.graph.csgs()
    rnd.shuffle(masks)
    batch = dict(zip(masks, orc.cards(spec, masks)))
    con = duckdb.connect()
    try:
        for name, pdf in tables.items():
            con.register(name, pdf)
        for s in connected_subsets(spec):
            expected = con.execute(spec.count_sql(s)).fetchone()[0]
            assert batch[spec.graph.mask(s)] == orc.card(spec, s) == expected, s
            assert one.card(spec, s) == expected, s
        for a in sorted(spec.aliases):
            rows = con.execute(
                f"SELECT {a}.v, COUNT(*) FROM {spec.from_sql()} "
                f"WHERE {spec.where_sql()} GROUP BY 1"
            ).fetchall()
            gc = orc.group_counts(spec, spec.aliases, a, "v")
            assert {int(v): int(c) for v, c in gc.items()} == dict(rows), a
    finally:
        con.close()
    bad_key_joined = bad is not None and any(
        j.side(x)[0] == "k0" and x == "a0" for j in spec.joins for x in j.aliases
    )
    assert (orc._con is not None) == bad_key_joined
    orc.close()


@settings(max_examples=30, deadline=None)
@given(random_trees())
def test_tree_counts_match_duckdb_from_every_root(case):
    """The random tree specs, counted and grouped with each relation as root."""
    tables, spec, _ = case
    masks = spec.graph.csgs()
    con = duckdb.connect()
    try:
        for name, pdf in tables.items():
            con.register(name, pdf)
        want = [con.execute(spec.count_sql(spec.graph.subset(m))).fetchone()[0] for m in masks]
        groups = {a: dict(con.execute(
            f"SELECT {a}.v, COUNT(*) FROM {spec.from_sql()} "
            f"WHERE {spec.where_sql()} GROUP BY 1").fetchall()) for a in spec.aliases}
    finally:
        con.close()
    for r in range(len(spec.relations)):
        with _rooted_at(r):
            orc = TrueCardinalityOracle(Dataset(sf=0.0, seed=0, tables=tables))
            assert orc.cards(spec, masks) == want, r
            g = orc._flattening(spec)[0]
        if g.tree:
            assert g.root == r
            # Counting sends messages toward the root only.
            assert all(y == g.parent[x] for _, _, x, y in orc._msg_cache if x != r), r
        for a in sorted(spec.aliases):
            gc = orc.group_counts(spec, spec.aliases, a, "v")
            assert {int(v): int(c) for v, c in gc.items()} == groups[a], (r, a)
        orc.close()
