"""IMDB-lite data generator: zipfian skew + join-crossing correlations.

Two properties of real IMDB make JOB hard for uniformity/independence
estimators (paper §IV-B, §IV-C), and both are planted here:

* **Skew**: every fact table's ``movie_id`` is zipfian — a few popular
  movies account for a large share of cast/keyword/info rows (the
  Nasdaq companies/trades example of §IV-C).
* **Join-crossing correlation**: *the same* movies are popular in every
  fact table (popularity is rank-by-id everywhere), popular keywords
  live in low ``keyword_group`` buckets, and popular movies are recent
  and disproportionately carry ``info_type`` 99. A filter on one side
  of a join therefore shifts the distribution on the other side —
  exactly what the independence assumption cannot see.

Everything is deterministic in ``seed``; pandas frames are the ground
truth, Spark DataFrames are created lazily from them (so the DuckDB
oracle and Spark run on bit-identical input).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from . import schema


def zipf_ranks(
    g: np.random.Generator, n: int, k: int, alpha: float
) -> np.ndarray:
    """``n`` draws from ranks ``1..k`` with P(r) ∝ 1/r**alpha."""
    ranks = np.arange(1, k + 1)
    w = 1.0 / ranks.astype(np.float64) ** alpha
    w /= w.sum()
    return g.choice(ranks, size=n, p=w)


def _gen_title(g: np.random.Generator, n: int) -> pd.DataFrame:
    ids = np.arange(1, n + 1)
    # Correlation: popular movies (low id) skew recent. Year drawn from
    # a popularity-dependent window.
    pop = 1.0 - (ids - 1) / max(n - 1, 1)  # 1.0 for id=1, →0 for last
    year = (1930 + (60 + 30 * pop) * g.random(n)).astype(np.int64)
    return pd.DataFrame(
        {
            "id": ids,
            "kind_id": zipf_ranks(g, n, schema.FIXED_SIZES["kind_type"], 1.0),
            "production_year": year,
        }
    )


def _rank_group(ids: np.ndarray, n_groups: int) -> np.ndarray:
    """Bucket ids into ``n_groups`` equal groups by popularity rank.

    Fact-table FKs are zipfian in the id, so group 1 (the lowest ids)
    owns a far larger share of fact rows than 1/n_groups — a filter on
    a group column is misestimated at the *join*, not at the base
    table (the §IV-C skew mechanism, planted on every dimension).
    """
    n = len(ids)
    return np.minimum(n_groups, 1 + (n_groups * (ids - 1)) // max(n, 1))


def _gen_name(g: np.random.Generator, n: int) -> pd.DataFrame:
    ids = np.arange(1, n + 1)
    return pd.DataFrame(
        {
            "id": ids,
            "gender": g.choice(["m", "f", ""], n, p=[0.6, 0.35, 0.05]),
            "name_group": _rank_group(ids, 50),
        }
    )


def _gen_char_name(g: np.random.Generator, n: int) -> pd.DataFrame:
    ids = np.arange(1, n + 1)
    return pd.DataFrame({"id": ids, "name_group": _rank_group(ids, 50)})


def _gen_keyword(g: np.random.Generator, n: int) -> pd.DataFrame:
    # keyword_group buckets keywords by popularity rank into 20 equal
    # groups: group 1 holds the top-5% most popular keywords (zipf
    # head, ~60% of movie_keyword rows), so a filter
    # ``keyword_group = 1`` selects few keywords but many
    # movie_keyword rows — the §IV-C underestimate.
    ids = np.arange(1, n + 1)
    group = np.minimum(20, 1 + (20 * (ids - 1) // max(n, 1)))
    return pd.DataFrame({"id": ids, "keyword_group": group})


def _gen_company_name(g: np.random.Generator, n: int) -> pd.DataFrame:
    # Correlation: popular companies (low id ⇒ zipf head of
    # movie_companies.company_id) are mostly US — a country filter
    # selects a biased share of movie_companies rows.
    ids = np.arange(1, n + 1)
    pop = 1.0 - (ids - 1) / max(n - 1, 1)
    base = g.choice(
        ["[us]", "[gb]", "[de]", "[fr]", "[jp]", "[in]", "[xx]"],
        n,
        p=[0.35, 0.17, 0.12, 0.09, 0.09, 0.09, 0.09],
    )
    country = np.where(g.random(n) < 0.5 * pop, "[us]", base)
    return pd.DataFrame({"id": ids, "country_code": country})


def _gen_cast_info(g: np.random.Generator, n: int, sf: float) -> pd.DataFrame:
    return pd.DataFrame(
        {
            "id": np.arange(1, n + 1),
            "movie_id": zipf_ranks(g, n, schema.n_rows("title", sf), 0.75),
            "person_id": zipf_ranks(g, n, schema.n_rows("name", sf), 0.8),
            "person_role_id": zipf_ranks(
                g, n, schema.n_rows("char_name", sf), 0.8
            ),
            "role_id": zipf_ranks(g, n, schema.FIXED_SIZES["role_type"], 1.0),
        }
    )


def _gen_movie_keyword(
    g: np.random.Generator, n: int, sf: float
) -> pd.DataFrame:
    return pd.DataFrame(
        {
            "id": np.arange(1, n + 1),
            "movie_id": zipf_ranks(g, n, schema.n_rows("title", sf), 0.75),
            "keyword_id": zipf_ranks(g, n, schema.n_rows("keyword", sf), 1.05),
        }
    )


def _gen_movie_companies(
    g: np.random.Generator, n: int, sf: float
) -> pd.DataFrame:
    return pd.DataFrame(
        {
            "id": np.arange(1, n + 1),
            "movie_id": zipf_ranks(g, n, schema.n_rows("title", sf), 0.75),
            "company_id": zipf_ranks(
                g, n, schema.n_rows("company_name", sf), 1.0
            ),
            "company_type_id": zipf_ranks(
                g, n, schema.FIXED_SIZES["company_type"], 1.2
            ),
        }
    )


def _corr_info_type(
    g: np.random.Generator, movie_id: np.ndarray, n_title: int, base: int
) -> np.ndarray:
    """info_type_id correlated with movie popularity.

    Popular movies (low movie_id) draw info_type 99 with high
    probability; unpopular ones draw uniformly from ``base..113``. A
    filter ``info_type.id = 99`` thus selects rows of popular movies —
    the §IV-D query-18a correlation (it2 ⋈ mi_idx underestimated).
    """
    pop = 1.0 - (movie_id - 1) / max(n_title - 1, 1)
    take99 = g.random(len(movie_id)) < 0.15 + 0.7 * pop
    uniform = g.integers(base, 114, len(movie_id))
    return np.where(take99, 99, uniform)


def _corr_group(
    g: np.random.Generator,
    movie_id: np.ndarray,
    n_title: int,
    n_groups: int,
    head: int,
) -> np.ndarray:
    """A group column whose low values correlate with movie popularity."""
    pop = 1.0 - (movie_id - 1) / max(n_title - 1, 1)
    low = g.integers(1, head + 1, len(movie_id))
    rest = zipf_ranks(g, len(movie_id), n_groups, 1.0)
    return np.where(g.random(len(movie_id)) < 0.05 + 0.5 * pop, low, rest)


def _gen_movie_info(g: np.random.Generator, n: int, sf: float) -> pd.DataFrame:
    movie_id = zipf_ranks(g, n, schema.n_rows("title", sf), 0.75)
    it = _corr_info_type(g, movie_id, schema.n_rows("title", sf), 1)
    return pd.DataFrame(
        {
            "id": np.arange(1, n + 1),
            "movie_id": movie_id,
            "info_type_id": it,
            "info_group": _corr_group(
                g, movie_id, schema.n_rows("title", sf), 100, 2
            ),
        }
    )


def _gen_movie_info_idx(
    g: np.random.Generator, n: int, sf: float
) -> pd.DataFrame:
    movie_id = zipf_ranks(g, n, schema.n_rows("title", sf), 0.75)
    it = _corr_info_type(g, movie_id, schema.n_rows("title", sf), 99)
    return pd.DataFrame(
        {
            "id": np.arange(1, n + 1),
            "movie_id": movie_id,
            "info_type_id": it,
            "info_group": _corr_group(
                g, movie_id, schema.n_rows("title", sf), 20, 1
            ),
        }
    )


def _gen_enum(name: str) -> pd.DataFrame:
    n = schema.FIXED_SIZES[name]
    return pd.DataFrame(
        {"id": np.arange(1, n + 1), "label": [f"{name}_{i}" for i in range(1, n + 1)]}
    )


@dataclass
class Dataset:
    """One generated IMDB-lite database (pandas truth + lazy Spark views)."""

    sf: float
    seed: int
    tables: dict[str, pd.DataFrame]
    _spark_cache: dict[str, DataFrame] = field(default_factory=dict, repr=False)

    def spark_df(self, spark: SparkSession, table: str) -> DataFrame:
        """Spark DataFrame for ``table`` (created once, then reused)."""
        if table not in self._spark_cache:
            self._spark_cache[table] = spark.createDataFrame(self.tables[table])
        return self._spark_cache[table]


def generate(sf: float = 0.01, seed: int = 42) -> Dataset:
    """Generate the full IMDB-lite database at scale factor ``sf``."""
    g = np.random.default_rng(seed)
    n = {t: schema.n_rows(t, sf) for t in schema.TABLES}
    tables: dict[str, pd.DataFrame] = {
        "title": _gen_title(g, n["title"]),
        "name": _gen_name(g, n["name"]),
        "char_name": _gen_char_name(g, n["char_name"]),
        "keyword": _gen_keyword(g, n["keyword"]),
        "company_name": _gen_company_name(g, n["company_name"]),
        "cast_info": _gen_cast_info(g, n["cast_info"], sf),
        "movie_keyword": _gen_movie_keyword(g, n["movie_keyword"], sf),
        "movie_companies": _gen_movie_companies(g, n["movie_companies"], sf),
        "movie_info": _gen_movie_info(g, n["movie_info"], sf),
        "movie_info_idx": _gen_movie_info_idx(g, n["movie_info_idx"], sf),
    }
    for t in schema.FIXED_SIZES:
        tables[t] = _gen_enum(t)
    return Dataset(sf=sf, seed=seed, tables=tables)
