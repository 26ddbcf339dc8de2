"""Unit tests for the logical query model (repro.core.query)."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.query import (
    Filter,
    JoinEdge,
    QuerySpec,
    Relation,
    connected_subsets,
)


def chain(n: int) -> QuerySpec:
    """r1 - r2 - ... - rn chain query over the same base table."""
    rels = tuple(Relation(f"r{i}", "movie_keyword") for i in range(1, n + 1))
    joins = tuple(
        JoinEdge(f"r{i}", "movie_id", f"r{i+1}", "movie_id")
        for i in range(1, n)
    )
    return QuerySpec(name=f"chain{n}", relations=rels, joins=joins)


def star(n_leaves: int) -> QuerySpec:
    rels = (Relation("hub", "title"),) + tuple(
        Relation(f"l{i}", "cast_info") for i in range(1, n_leaves + 1)
    )
    joins = tuple(
        JoinEdge(f"l{i}", "movie_id", "hub", "id")
        for i in range(1, n_leaves + 1)
    )
    return QuerySpec(name=f"star{n_leaves}", relations=rels, joins=joins)


# -- Filter ------------------------------------------------------------

@pytest.mark.parametrize("op", ["=", "<", "<=", ">", ">=", "in"])
def test_filter_accepts_ops(op):
    value = (1, 2) if op == "in" else 1
    assert Filter("c", op, value).op == op


@pytest.mark.parametrize("op", ["!=", "like", "between", ""])
def test_filter_rejects_unknown_ops(op):
    with pytest.raises(ValueError):
        Filter("c", op, 1)


def test_filter_in_requires_tuple():
    with pytest.raises(ValueError):
        Filter("c", "in", [1, 2])


def test_filter_sql_int():
    assert Filter("c", "=", 5).sql("t") == "t.c = 5"


def test_filter_sql_string_quoting():
    assert Filter("c", "=", "x'y").sql("t") == "t.c = 'x''y'"


def test_filter_sql_in():
    assert Filter("c", "in", (1, 2)).sql("t") == "t.c IN (1, 2)"


def test_filter_sql_range():
    assert Filter("c", "<=", 3).sql("t") == "t.c <= 3"


#: Per column kind: the numpy dtype and the pool its cells and ``in``
#: values come from. Values are drawn from a wider pool than the cells,
#: so some are absent from the column; both may repeat.
_IN_KINDS = {
    "int": (np.int64, [-2, 0, 1, 3, 7], [-5, 2, 9]),
    "float": (np.float64, [-1.5, 0.0, 0.5, 2.0, 1e9], [3.25, -7.0, 1.0]),
    "object": (object, ["a", "b", "x'y", "", None], ["zz", "A"]),
}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_IN_KINDS)), st.data())
def test_in_mask_on_numpy_equals_isin(kind, data):
    dtype, cells, absent = _IN_KINDS[kind]
    col = np.array(data.draw(st.lists(st.sampled_from(cells), max_size=40)), dtype=dtype)
    values = data.draw(st.lists(
        st.sampled_from([v for v in cells + absent if v is not None]), max_size=6))
    got = Filter("c", "in", tuple(values)).mask(col)
    want = np.isin(col, np.array(values, dtype=dtype))
    assert got.dtype == bool and got.shape == col.shape
    assert np.array_equal(got, want), (col, values)


# -- JoinEdge ----------------------------------------------------------

def test_joinedge_rejects_self_edge():
    with pytest.raises(ValueError):
        JoinEdge("a", "x", "a", "y")


def test_joinedge_aliases_and_sql():
    j = JoinEdge("a", "x", "b", "y")
    assert j.aliases == frozenset({"a", "b"})
    assert j.sql() == "a.x = b.y"


def test_joinedge_side():
    j = JoinEdge("a", "x", "b", "y")
    assert j.side("a") == ("x", "b")
    assert j.side("b") == ("y", "a")
    with pytest.raises(KeyError):
        j.side("c")


# -- QuerySpec validation ----------------------------------------------

def test_spec_rejects_duplicate_aliases():
    with pytest.raises(ValueError, match="duplicate"):
        QuerySpec(
            name="bad",
            relations=(Relation("a", "title"), Relation("a", "keyword")),
            joins=(),
        )


def test_spec_rejects_unknown_join_alias():
    with pytest.raises(ValueError, match="unknown alias"):
        QuerySpec(
            name="bad",
            relations=(Relation("a", "title"), Relation("b", "cast_info")),
            joins=(JoinEdge("a", "id", "c", "movie_id"),),
        )


def test_spec_rejects_disconnected_graph():
    with pytest.raises(ValueError, match="disconnected"):
        QuerySpec(
            name="bad",
            relations=(Relation("a", "title"), Relation("b", "cast_info")),
            joins=(),
        )


def test_spec_rejects_unknown_min_col_alias():
    with pytest.raises(ValueError, match="min_col"):
        QuerySpec(
            name="bad",
            relations=(Relation("a", "title"),),
            joins=(),
            min_cols=(("zz", "id"),),
        )


def test_single_relation_spec_is_connected():
    q = QuerySpec(name="one", relations=(Relation("a", "title"),), joins=())
    assert q.aliases == frozenset({"a"})


# -- graph helpers -----------------------------------------------------

def neighbors(q, alias):
    g = q.graph
    return g.subset(g.nbr[g.index[alias]])


def test_neighbors_chain():
    q = chain(4)
    assert neighbors(q, "r1") == frozenset({"r2"})
    assert neighbors(q, "r2") == frozenset({"r1", "r3"})


def test_neighbors_star():
    q = star(3)
    assert neighbors(q, "hub") == frozenset({"l1", "l2", "l3"})
    assert neighbors(q, "l1") == frozenset({"hub"})


def test_edges_between():
    q = chain(4)
    edges = q.edges_between(frozenset({"r1", "r2"}), frozenset({"r3", "r4"}))
    assert len(edges) == 1
    assert edges[0].aliases == frozenset({"r2", "r3"})


def test_edges_between_none():
    q = chain(4)
    assert q.edges_between(frozenset({"r1"}), frozenset({"r3"})) == ()


@pytest.mark.parametrize(
    "subset,expected",
    [
        ({"r1"}, True),
        ({"r1", "r2"}, True),
        ({"r1", "r3"}, False),
        ({"r1", "r2", "r3", "r4"}, True),
        (set(), False),
    ],
)
def test_is_connected_chain(subset, expected):
    assert chain(4).is_connected(frozenset(subset)) is expected


def test_is_connected_star_leaves_only():
    assert star(3).is_connected(frozenset({"l1", "l2"})) is False
    assert star(3).is_connected(frozenset({"hub", "l1", "l3"})) is True


# -- connected_subsets -------------------------------------------------

def test_connected_subsets_chain_count():
    # A chain of n has n*(n+1)/2 connected subsets (contiguous ranges).
    for n in (2, 3, 4, 5, 6):
        assert len(connected_subsets(chain(n))) == n * (n + 1) // 2


def test_connected_subsets_star_count():
    # hub+any leaf subset (2^n) plus n singleton leaves.
    for n in (2, 3, 4):
        assert len(connected_subsets(star(n))) == 2**n + n


def test_connected_subsets_max_size():
    subs = connected_subsets(chain(5), max_size=2)
    assert max(len(s) for s in subs) == 2
    assert len(subs) == 5 + 4


def test_connected_subsets_max_size_zero_is_empty():
    assert connected_subsets(chain(3), max_size=0) == []


def test_connected_subsets_sorted_by_size():
    subs = connected_subsets(chain(4))
    sizes = [len(s) for s in subs]
    assert sizes == sorted(sizes)


def test_connected_subsets_all_connected():
    q = star(4)
    for s in connected_subsets(q):
        assert q.is_connected(s)


# -- SQL rendering -----------------------------------------------------

def test_count_sql_full():
    q = chain(2)
    sql = q.count_sql()
    assert sql.startswith("SELECT COUNT(*) AS cnt FROM ")
    assert "movie_keyword AS r1" in sql and "r1.movie_id = r2.movie_id" in sql


def test_count_sql_subset_restricts_tables_and_conds():
    q = chain(3)
    sql = q.count_sql(frozenset({"r1", "r2"}))
    assert "r3" not in sql
    assert "r1.movie_id = r2.movie_id" in sql


def test_where_sql_includes_filters():
    rels = (
        Relation("a", "title", (Filter("kind_id", "=", 2),)),
        Relation("b", "cast_info"),
    )
    q = QuerySpec(
        name="f",
        relations=rels,
        joins=(JoinEdge("b", "movie_id", "a", "id"),),
    )
    assert "a.kind_id = 2" in q.where_sql()


def test_where_sql_empty_is_true():
    q = QuerySpec(name="t", relations=(Relation("a", "title"),), joins=())
    assert q.where_sql() == "TRUE"


def test_result_sql_has_count_and_mins():
    q = QuerySpec(
        name="m",
        relations=(Relation("a", "title"),),
        joins=(),
        min_cols=(("a", "id"),),
    )
    sql = q.result_sql()
    assert "COUNT(*) AS cnt" in sql and "MIN(a.id) AS min_a_id" in sql


def test_relation_lookup():
    q = chain(3)
    assert q.relation("r2").table == "movie_keyword"
    with pytest.raises(KeyError):
        q.relation("zz")

