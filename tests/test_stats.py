"""Statistics (ANALYZE) tests: pandas path + selectivity arithmetic."""
import numpy as np
import pandas as pd
import pytest

from repro.core.stats import (
    ColumnStats,
    analyze_pandas,
    analyze_pandas_table,
    eq_selectivity,
    in_selectivity,
    range_selectivity,
)


@pytest.fixture(scope="module")
def skewed_ts():
    pdf = pd.DataFrame(
        {
            "k": [1] * 50 + [2] * 30 + [3] * 10 + list(range(4, 14)),
            "u": list(range(100)),
        }
    )
    return analyze_pandas_table(pdf, "t", mcv_target=3)


def test_n_rows_and_ndv(skewed_ts):
    assert skewed_ts.n_rows == 100
    assert skewed_ts.columns["k"].ndv == 13
    assert skewed_ts.columns["u"].ndv == 100


def test_mcvs_are_top_frequencies(skewed_ts):
    cs = skewed_ts.columns["k"]
    assert cs.mcvs[0] == (1, 0.5)
    assert cs.mcvs[1] == (2, 0.3)
    assert cs.mcvs[2] == (3, 0.1)
    assert cs.mcv_frac == pytest.approx(0.9)


def test_min_max(skewed_ts):
    cs = skewed_ts.columns["u"]
    assert cs.min_val == 0 and cs.max_val == 99


def test_histogram_over_non_mcv_remainder(skewed_ts):
    cs = skewed_ts.columns["k"]
    assert cs.hist is not None
    assert cs.hist[0] >= 4 and cs.hist[-1] <= 13


def test_eq_selectivity_mcv_hit(skewed_ts):
    assert eq_selectivity(skewed_ts.columns["k"], 1) == pytest.approx(0.5)


def test_eq_selectivity_non_mcv_uniform_remainder(skewed_ts):
    cs = skewed_ts.columns["k"]
    # 10% mass over 10 remaining values -> 1% each.
    assert eq_selectivity(cs, 7) == pytest.approx(0.01)


def test_in_selectivity_sums_and_caps(skewed_ts):
    cs = skewed_ts.columns["k"]
    assert in_selectivity(cs, (1, 2)) == pytest.approx(0.8)
    assert in_selectivity(cs, tuple(range(1, 14))) <= 1.0


def test_range_selectivity_uniform():
    pdf = pd.DataFrame({"x": np.arange(1000)})
    cs = analyze_pandas_table(pdf, "t", mcv_target=0).columns["x"]
    assert range_selectivity(cs, "<", 500) == pytest.approx(0.5, abs=0.05)
    assert range_selectivity(cs, ">", 900) == pytest.approx(0.1, abs=0.05)


def test_range_selectivity_extremes():
    pdf = pd.DataFrame({"x": np.arange(100)})
    cs = analyze_pandas_table(pdf, "t", mcv_target=0).columns["x"]
    assert range_selectivity(cs, "<", -5) == pytest.approx(0.0, abs=0.01)
    assert range_selectivity(cs, ">", 1000) == pytest.approx(0.0, abs=0.01)
    assert range_selectivity(cs, "<=", 1000) == pytest.approx(1.0, abs=0.01)


def test_range_selectivity_includes_mcv_mass(skewed_ts):
    cs = skewed_ts.columns["k"]
    sel = range_selectivity(cs, "<=", 2)
    assert sel == pytest.approx(0.8, abs=0.02)


def test_range_on_constant_column():
    pdf = pd.DataFrame({"x": [7] * 10})
    cs = analyze_pandas_table(pdf, "t", mcv_target=0).columns["x"]
    assert range_selectivity(cs, "<=", 7) == pytest.approx(1.0)
    assert range_selectivity(cs, "<", 7) == pytest.approx(0.0)


def test_analyze_pandas_covers_all_tables(ds, catalog):
    # The shared session catalog never gains temp-table statistics.
    assert set(ds.tables) == set(catalog.stats)
    for t, pdf in ds.tables.items():
        assert catalog.table(t).n_rows == len(pdf)


def test_catalog_column_accessor(catalog):
    cs = catalog.column("title", "id")
    assert isinstance(cs, ColumnStats)
    assert cs.ndv == cs.n_rows  # id is unique


def test_ndv_exact_for_group_columns(ds, catalog):
    assert catalog.column("keyword", "keyword_group").ndv == int(
        ds.tables["keyword"]["keyword_group"].nunique()
    )


def test_empty_frame_stats():
    ts = analyze_pandas_table(pd.DataFrame({"x": []}), "e")
    assert ts.n_rows == 0
    assert ts.columns["x"].mcvs == ()
