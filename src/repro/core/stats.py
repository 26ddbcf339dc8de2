"""ANALYZE: per-table / per-column statistics, PostgreSQL-style.

Mirrors what ``ANALYZE`` with a high ``default_statistics_target``
gives the PostgreSQL planner (paper §III-A): row count, n_distinct,
a most-common-values (MCV) list with frequencies, an equi-depth
histogram over the non-MCV remainder, and min/max. Built with pandas
from the generator's ground-truth frames, the same rows the Spark
executor joins and the oracle counts.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass

from ..imdb.gen import Dataset


@dataclass(frozen=True)
class ColumnStats:
    """Statistics for one column of one table."""

    n_rows: int
    ndv: int
    min_val: object
    max_val: object
    #: (value, fraction-of-rows) for the most common values.
    mcvs: tuple[tuple[object, float], ...]
    #: Equi-depth histogram bounds over non-MCV rows (numeric cols only).
    hist: tuple[float, ...] | None

    @property
    def mcv_frac(self) -> float:
        return sum(f for _, f in self.mcvs)


@dataclass(frozen=True)
class TableStats:
    table: str
    n_rows: int
    columns: dict[str, ColumnStats]


class Catalog:
    """All table statistics for one dataset; what the optimizer reads."""

    def __init__(self, stats: dict[str, TableStats]):
        self.stats = stats

    def table(self, name: str) -> TableStats:
        return self.stats[name]

    def column(self, table: str, col: str) -> ColumnStats:
        return self.stats[table].columns[col]


#: Equi-depth histogram buckets per column.
HIST_BINS = 100
#: Most common values kept per column.
MCV_TARGET = 100


def analyze_pandas_table(pdf, table: str) -> TableStats:
    """Compute :class:`TableStats` for one pandas DataFrame.

    ``MCV_TARGET`` and ``HIST_BINS`` play the role of PostgreSQL's
    ``default_statistics_target`` (the paper maxes it out; 100 is
    plenty for IMDB-lite's value domains).
    """
    import pandas as pd

    n = len(pdf)
    cols: dict[str, ColumnStats] = {}
    for c in pdf.columns:
        if pd.api.types.is_datetime64_any_dtype(pdf[c]):
            continue
        top = pdf[c].value_counts().head(MCV_TARGET)
        numeric = pd.api.types.is_numeric_dtype(pdf[c])
        ndv = int(pdf[c].nunique())
        mcvs = (
            tuple((_pynative(v), cnt / n) for v, cnt in top.items()) if n else ()
        )
        hist = None
        if numeric and n and ndv > len(mcvs):
            rest = pdf.loc[~pdf[c].isin({v for v, _ in mcvs}), c]
            if len(rest):
                qs = rest.quantile([i / HIST_BINS for i in range(HIST_BINS + 1)])
                hist = tuple(float(q) for q in qs)
        cols[c] = ColumnStats(
            n_rows=n,
            ndv=ndv,
            min_val=_pynative(pdf[c].min()) if n else None,
            max_val=_pynative(pdf[c].max()) if n else None,
            mcvs=mcvs,
            hist=hist,
        )
    return TableStats(table=table, n_rows=n, columns=cols)


def _pynative(v):
    """numpy scalar → python scalar, so stats compare cleanly to values."""
    return v.item() if hasattr(v, "item") else v


def analyze_pandas(ds: Dataset) -> Catalog:
    """ANALYZE every table of an IMDB-lite dataset."""
    return Catalog({t: analyze_pandas_table(ds.tables[t], t) for t in ds.tables})


# ---------------------------------------------------------------------
# Selectivity arithmetic over ColumnStats (used by the estimator).
# ---------------------------------------------------------------------

def eq_selectivity(cs: ColumnStats, value: object) -> float:
    """P(col = value): MCV frequency if listed, else uniform remainder."""
    for v, f in cs.mcvs:
        if v == value:
            return f
    rest_ndv = max(cs.ndv - len(cs.mcvs), 1)
    return max(0.0, (1.0 - cs.mcv_frac)) / rest_ndv


def in_selectivity(cs: ColumnStats, values: tuple) -> float:
    return min(1.0, sum(eq_selectivity(cs, v) for v in values))


def range_selectivity(cs: ColumnStats, op: str, value: float) -> float:
    """P(col op value) for ``<, <=, >, >=`` via MCVs + histogram."""
    def lt(a, b):  # how the predicate reads a stored value
        return a < b if op in ("<", "<=") else a > b

    if op in ("<=", ">="):
        def keep(a):
            return lt(a, value) or a == value
    else:
        def keep(a):
            return lt(a, value)

    sel = sum(f for v, f in cs.mcvs if keep(v))
    rest = max(0.0, 1.0 - cs.mcv_frac)
    if rest > 0 and cs.hist and len(cs.hist) > 1:
        sel += rest * _hist_frac(cs.hist, op, float(value))
    elif rest > 0 and cs.min_val is not None and cs.max_val is not None:
        lo, hi = float(cs.min_val), float(cs.max_val)
        if hi > lo:
            frac = min(1.0, max(0.0, (float(value) - lo) / (hi - lo)))
            sel += rest * (frac if op in ("<", "<=") else 1.0 - frac)
        else:
            sel += rest * (1.0 if keep(lo) else 0.0)
    return min(1.0, max(0.0, sel))


def _hist_frac(hist: tuple[float, ...], op: str, value: float) -> float:
    """Fraction of histogram mass below/above ``value`` (interpolated)."""
    bins = len(hist) - 1
    inclusive = op in ("<=", ">=")
    if (value < hist[0]) or (not inclusive and value <= hist[0]):
        below = 0.0
    elif (value > hist[-1]) or (inclusive and value >= hist[-1]):
        below = 1.0
    else:
        i = bisect.bisect_right(hist, value) - 1
        i = min(i, bins - 1)
        lo, hi = hist[i], hist[i + 1]
        within = 0.5 if hi == lo else (value - lo) / (hi - lo)
        below = (i + within) / bins
    return below if op in ("<", "<=") else 1.0 - below
