"""True-cardinality oracle tests.

The Yannakakis tree count is the load-bearing piece of the whole
reproduction (perfect-(n) and re-optimization both depend on it), so
it is cross-checked against plain DuckDB SQL on many real sub-joins.
"""
import os
import subprocess
import sys
from pathlib import Path

import duckdb
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.bench.harness import REOPT32, Harness
from repro.core.query import Filter, JoinEdge, QuerySpec, Relation, connected_subsets
from repro.core.reopt import cleanup, rewrite_with_temp
from repro.core.stats import MCV_TARGET, Catalog, ColumnStats, TableStats, _pynative
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


def test_release_clears_caches(own_oracle, q6d):
    own_oracle.card(q6d)
    own_oracle.release(q6d.name)
    assert not own_oracle._leaf_cache and not own_oracle._msg_cache


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
