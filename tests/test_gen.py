"""Generator tests: determinism, scaling, planted skew and correlation."""
import numpy as np
import pytest

from repro.imdb import gen, schema


@pytest.fixture(scope="module")
def small():
    return gen.generate(sf=0.01, seed=42)


def test_deterministic_in_seed():
    a = gen.generate(sf=0.005, seed=3)
    b = gen.generate(sf=0.005, seed=3)
    for t in schema.TABLES:
        assert a.tables[t].equals(b.tables[t])


def test_different_seed_differs():
    a = gen.generate(sf=0.005, seed=3)
    b = gen.generate(sf=0.005, seed=4)
    assert not a.tables["cast_info"].equals(b.tables["cast_info"])


@pytest.mark.parametrize("table", schema.TABLES)
def test_row_counts_match_schema(small, table):
    assert len(small.tables[table]) == schema.n_rows(table, 0.01)


def test_zipf_ranks_in_domain():
    g = np.random.default_rng(0)
    r = gen.zipf_ranks(g, 10_000, 50, 1.0)
    assert r.min() >= 1 and r.max() <= 50


def test_zipf_ranks_skewed():
    g = np.random.default_rng(0)
    r = gen.zipf_ranks(g, 50_000, 100, 1.0)
    top = (r == 1).mean()
    assert top > 3.0 / 100  # far above uniform 1%


def test_movie_id_skew_present(small):
    ci = small.tables["cast_info"]["movie_id"]
    top_share = ci.value_counts().iloc[0] / len(ci)
    n_movies = schema.n_rows("title", 0.01)
    assert top_share > 5.0 / n_movies


def test_popularity_shared_across_facts(small):
    """Join-crossing correlation: same movies popular in ci and mk."""
    ci_top = set(small.tables["cast_info"]["movie_id"].value_counts().head(20).index)
    mk_top = set(small.tables["movie_keyword"]["movie_id"].value_counts().head(20).index)
    assert len(ci_top & mk_top) >= 10


def test_keyword_group1_owns_large_mk_share(small):
    kw = small.tables["keyword"]
    mk = small.tables["movie_keyword"]
    g1 = set(kw.loc[kw.keyword_group == 1, "id"])
    share = mk["keyword_id"].isin(g1).mean()
    # group 1 is 5% of keywords but the zipf head of mk rows.
    assert share > 0.3


def test_info_type_99_correlates_with_popularity(small):
    midx = small.tables["movie_info_idx"]
    n_title = schema.n_rows("title", 0.01)
    popular = midx[midx.movie_id <= n_title // 10]
    unpopular = midx[midx.movie_id > n_title // 2]
    assert (popular.info_type_id == 99).mean() > (
        unpopular.info_type_id == 99
    ).mean() + 0.2


def test_recent_years_correlate_with_popularity(small):
    t = small.tables["title"]
    n = len(t)
    assert (
        t.loc[t.id <= n // 10, "production_year"].mean()
        > t.loc[t.id > n // 2, "production_year"].mean() + 5
    )


def test_us_companies_correlate_with_popularity(small):
    cn = small.tables["company_name"]
    n = len(cn)
    top = (cn.loc[cn.id <= n // 10, "country_code"] == "[us]").mean()
    rest = (cn.loc[cn.id > n // 2, "country_code"] == "[us]").mean()
    assert top > rest + 0.15


def test_name_group_is_rank_bucketed(small):
    nm = small.tables["name"]
    assert nm.loc[nm.id <= len(nm) // 50, "name_group"].max() <= 2
    assert set(nm.name_group) <= set(range(1, 51))


def test_enum_tables_fixed(small):
    for t, n in schema.FIXED_SIZES.items():
        assert list(small.tables[t]["id"]) == list(range(1, n + 1))


def test_gender_domain(small):
    assert set(small.tables["name"]["gender"]) <= {"m", "f", ""}


def test_spark_df_cache_and_views(spark, small):
    df1 = small.spark_df(spark, "keyword")
    df2 = small.spark_df(spark, "keyword")
    assert df1 is df2
    assert df1.count() == len(small.tables["keyword"])
