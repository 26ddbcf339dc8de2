"""JOB-lite workload tests: shape, validity, determinism."""
import pytest

from repro.bench.tables import PAPER_TABLE3, table3
from repro.imdb import schema, workload


def test_workload_has_113_queries(specs):
    assert len(specs) == 113


def test_table_count_distribution_matches_paper(specs):
    assert table3(specs) == PAPER_TABLE3


def test_deterministic(specs):
    again = workload.job_lite_workload()
    assert [s.name for s in again] == [s.name for s in specs]
    assert all(a == b for a, b in zip(again, specs))


def test_different_seed_differs():
    a = workload.job_lite_workload(seed=7)
    b = workload.job_lite_workload(seed=8)
    assert any(x != y for x, y in zip(a, b))


def test_names_unique(specs):
    names = [s.name for s in specs]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("i", range(113))
def test_query_structurally_valid(specs, i):
    """Constructor already checks connectivity; verify the rest."""
    s = specs[i]
    known_tables = set(schema.TABLES)
    for r in s.relations:
        assert r.table in known_tables
        for f in r.filters:
            assert f.col in schema.FILTERABLE.get(r.table, {}), (r.table, f.col)
    # tree-shaped join graph: |E| = |V| - 1, no duplicate edges
    assert len(s.joins) == len(s.relations) - 1
    assert len({frozenset((j.left_alias, j.left_col, j.right_alias, j.right_col))
                for j in s.joins}) == len(s.joins)
    # min aggregates present and valid
    assert 1 <= len(s.min_cols) <= 2
    for a, c in s.min_cols:
        assert c == schema.MIN_COL[s.relation(a).table]


def test_every_query_contains_title(specs):
    for s in specs:
        assert any(r.table == "title" for r in s.relations)


def test_join_columns_exist_in_schema(specs, ds):
    for s in specs:
        for j in s.joins:
            lt = s.relation(j.left_alias).table
            rt = s.relation(j.right_alias).table
            assert j.left_col in ds.tables[lt].columns
            assert j.right_col in ds.tables[rt].columns


def test_fact_cap_respected(specs):
    for s in specs:
        n = len(s.relations)
        n_facts = sum(1 for r in s.relations if r.table in schema.FACTS)
        # cap + possible fallback facts when dim slots run out
        assert n_facts <= 1 + (n + 2) // 4 + 3


def test_some_queries_have_in_filters(specs):
    assert any(
        f.op == "in" for s in specs for r in s.relations for f in r.filters
    )


def test_nasty_rate_in_expected_band(specs):
    """~55% of queries should carry at least one skew-correlated filter."""
    def is_nasty(s):
        for r in s.relations:
            for f in r.filters:
                if r.table == "keyword" and f.op == "=" and f.value == 1:
                    return True
                if r.table == "info_type" and f.op == "=" and f.value == 99:
                    return True
                if (
                    r.table == "title"
                    and f.col == "production_year"
                    and f.op == ">"
                    and f.value >= 2005
                ):
                    return True
                if (
                    r.table in ("movie_info", "movie_info_idx")
                    and f.op == "="
                    and f.value in (1, 2)
                ):
                    return True
                if f.col == "name_group" and f.op == "in" and f.value == (1, 2):
                    return True
                if r.table == "company_name" and f.op == "=" and f.value == "[us]":
                    return True
        return False

    frac = sum(map(is_nasty, specs)) / len(specs)
    assert 0.35 <= frac <= 0.75


def test_named_queries_valid():
    for q in (workload.q6d_lite(), workload.q18a_lite(), workload.q_nasdaq()):
        assert q.aliases  # constructor validations passed


def test_q18a_has_two_info_type_aliases():
    q = workload.q18a_lite()
    its = [r for r in q.relations if r.table == "info_type"]
    assert len(its) == 2


def test_build_query_direct():
    q = workload.build_query("x", 8, seed=123)
    assert len(q.relations) == 8
    assert q.name == "x"
