"""True-cardinality oracle: exact counts of any connected sub-join.

The paper reads true per-operator cardinalities out of PostgreSQL's
``EXPLAIN ANALYZE`` (§V); perfect-(n) feeds those truths back into the
planner (§III-B). Cardinality is a property of the *data*, not the
engine, so we obtain the identical numbers from the generator's pandas
ground truth.

Naively ``COUNT(*)``-ing a sub-join enumerates it — a bad 5-fact join
has combinatorially many rows, which is precisely why bad plans are
slow. So for **acyclic** join subgraphs (every JOB-lite query is a
tree) the oracle counts by Yannakakis message passing (VLDB 1981): each
subtree sends its parent a dense ``join_key → #rows`` array
(``np.bincount`` over the key column), the parent indexes it with its
own keys, and the count is a sum of products — linear in input size,
never in output size. Join keys must be ints in [0, dataset rows], as
dense surrogate IDs (all IMDB-lite keys) are. Counts are exact: int64
products and sums are used only where a Python-int bound proves they
fit (float64 ``bincount`` sums only below 2**53), else they promote to
Python ints. Cyclic subsets and non-dense keys fall back to DuckDB SQL,
whose connection is opened on first use.

Re-optimization temp tables are **virtual** here: ``register_temp``
records which sub-join a temp stands for, counting on a rewritten
query transparently expands temps back to base relations, and
``temp_stats`` derives the temp's exact column statistics from the
same message passing (grouped by the column) — so the simulation path
never materializes an intermediate, no matter how large. The *Spark*
replay of a re-optimized query does materialize, which is the honest
execution cost.

The oracle memoizes counts per canonical (sorted) sub-join; one harness
run shares a single oracle across PG / perfect-(n) / re-optimization
configs, so each distinct sub-join is counted once.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
import pandas as pd

import duckdb

from ..imdb.gen import Dataset
from .query import Filter, JoinEdge, QuerySpec, Relation

_I64_MAX = 2**63 - 1
#: float64 holds every integer below this, so ``bincount`` sums are exact.
_F64_EXACT = 2**53


_CMP = {"=": operator.eq, "<": operator.lt, "<=": operator.le,
        ">": operator.gt, ">=": operator.ge}


def _apply_filter(pdf: pd.DataFrame, f: Filter) -> pd.DataFrame:
    col = pdf[f.col]
    return pdf[col.isin(f.value) if f.op == "in" else _CMP[f.op](col, f.value)]


@dataclass(frozen=True)
class _TempDef:
    """What a re-optimization temp table stands for."""

    spec: QuerySpec  # the spec the temp was carved out of
    subset: frozenset[str]
    #: temp column name ("a__c") → (alias, col) in ``spec``.
    cols: dict


@dataclass(frozen=True)
class _Flat:
    """A fully base-level (temp-free) conjunctive sub-query."""

    relations: tuple[Relation, ...]
    joins: tuple[JoinEdge, ...]


class TrueCardinalityOracle:
    """Exact cardinalities of any connected sub-join of any query."""

    def __init__(self, ds: Dataset):
        self._tables: dict[str, pd.DataFrame] = dict(ds.tables)
        #: the tree path's join keys are ints in [0, _key_bound].
        self._key_bound = sum(len(pdf) for pdf in ds.tables.values())
        self._con: duckdb.DuckDBPyConnection | None = None  # see _duck
        self._memo: dict[tuple, int] = {}
        self._temps: dict[str, _TempDef] = {}
        #: filtered per-(table, filters) frames.
        self._leaf_cache: dict[tuple, pd.DataFrame] = {}
        #: subtree messages: (subtree, root, col, size) → count array.
        self._msg_cache: dict[tuple, np.ndarray] = {}
        #: (table, col) → max value of a dense key column, else None.
        self._key_max: dict[tuple[str, str], int | None] = {}
        self.n_counts = 0  # cache misses (actual counting work)

    def _duck(self) -> duckdb.DuckDBPyConnection:
        """DuckDB over the dataset's tables, opened on first use."""
        if self._con is None:
            self._con = duckdb.connect()
            for name, pdf in self._tables.items():
                self._con.register(name, pdf)
        return self._con

    # -- expansion of virtual temps ------------------------------------
    def _expand(self, spec: QuerySpec, subset: frozenset[str] | None) -> _Flat:
        """Resolve temp relations in ``subset`` (default: all) to base tables."""
        subset = spec.aliases if subset is None else subset
        relations: list[Relation] = []
        joins: list[JoinEdge] = []
        for a in subset:
            rel = spec.relation(a)
            if rel.table in self._temps:
                td = self._temps[rel.table]
                inner = self._expand(td.spec, td.subset)
                relations.extend(inner.relations)
                joins.extend(inner.joins)
            else:
                relations.append(rel)
        joins += [
            JoinEdge(*self._base_col(spec, j.left_alias, j.left_col),
                     *self._base_col(spec, j.right_alias, j.right_col))
            for j in spec.joins if j.aliases <= subset
        ]
        return _Flat(relations=tuple(relations), joins=tuple(joins))

    def _base_col(self, spec: QuerySpec, alias: str, col: str) -> tuple[str, str]:
        """``alias.col`` of ``spec`` traced through (nested) temps to a base
        ``(alias, col)``."""
        table = spec.relation(alias).table
        if table not in self._temps:
            return alias, col
        td = self._temps[table]
        return self._base_col(td.spec, *td.cols[col])

    # -- counting ------------------------------------------------------
    def card(self, spec: QuerySpec, subset: frozenset[str] | None = None) -> int:
        """True row count of ``spec`` restricted to ``subset`` aliases."""
        flat = self._expand(spec, subset)
        key = _canon(flat.relations, flat.joins)
        if key not in self._memo:
            self.n_counts += 1
            self._memo[key] = self._count(flat)
        return self._memo[key]

    def _count(self, flat: _Flat) -> int:
        if not self._is_tree(flat):
            return int(self._duck().execute(_flat_sql(flat, "COUNT(*)")).fetchone()[0])
        root = min(flat.relations, key=lambda r: r.alias)
        w = self._root_weights(flat, root.alias)
        return len(self._leaf(root)) if w is None else _total(w)

    def _is_tree(self, flat: _Flat) -> bool:
        """Whether ``flat`` is acyclic and joined on dense integer keys."""
        pairs = {j.aliases for j in flat.joins}
        if not len(pairs) == len(flat.joins) == len(flat.relations) - 1:
            return False
        table = {r.alias: r.table for r in flat.relations}
        return all(self._dense_max(table[a], j.side(a)[0]) is not None
                   for j in flat.joins for a in j.aliases)

    def _dense_max(self, table: str, col: str) -> int | None:
        """Max of ``table.col`` if all its values are ints in [0, key bound]."""
        if (table, col) not in self._key_max:
            v = self._tables[table][col].to_numpy()
            hi = int(v.max(initial=0)) if v.dtype.kind == "i" else None
            dense = hi is not None and hi <= self._key_bound and v.min(initial=0) >= 0
            self._key_max[(table, col)] = hi if dense else None
        return self._key_max[(table, col)]

    def result(self, spec: QuerySpec) -> pd.DataFrame:
        """Full query result (COUNT + MINs) via DuckDB, temps expanded.

        Enumerates the join (unlike :meth:`card`), so only call it on
        queries whose true result is materializable — tests do.
        """
        flat = self._expand(spec, None)
        outs = ["COUNT(*) AS cnt"]
        for a, c in spec.min_cols:
            ba, bc = self._base_col(spec, a, c)
            outs.append(f"MIN({ba}.{bc}) AS min_{a}_{c}")
        return self._duck().execute(_flat_sql(flat, ", ".join(outs))).fetchdf()

    # -- Yannakakis counting over tree-shaped flats --------------------
    def _leaf(self, rel: Relation) -> pd.DataFrame:
        key = (rel.table, rel.filters)
        if key not in self._leaf_cache:
            pdf = self._tables[rel.table]
            for f in rel.filters:
                pdf = _apply_filter(pdf, f)
            self._leaf_cache[key] = pdf
        return self._leaf_cache[key]

    def _root_weights(self, flat: _Flat, root: str) -> np.ndarray | None:
        """Per-row join multiplicities of ``root``'s filtered rows (None:
        all ones)."""
        rels = {r.alias: r for r in flat.relations}
        adj: dict[str, list[tuple[str, JoinEdge]]] = {a: [] for a in rels}
        for j in flat.joins:
            adj[j.left_alias].append((j.right_alias, j))
            adj[j.right_alias].append((j.left_alias, j))

        def subtree(alias: str, parent: str | None):
            rs, js = [rels[alias]], []
            for child, edge in adj[alias]:
                if child != parent:
                    crs, cjs = subtree(child, alias)
                    rs += crs
                    js += cjs + [edge]
            return rs, js

        def weights(alias: str, parent: str | None) -> np.ndarray | None:
            pdf = self._leaf(rels[alias])
            w = None  # all ones
            for child, edge in adj[alias]:
                if child != parent:
                    msg = message(child, alias, edge)
                    w = _mul(w, msg[pdf[edge.side(alias)[0]].to_numpy()])
            return w

        def message(alias: str, parent: str, edge: JoinEdge) -> np.ndarray:
            col, parent_col = edge.side(alias)[0], edge.side(parent)[0]
            # Long enough for the parent's keys too, so none reads past it.
            size = 1 + max(self._dense_max(rels[alias].table, col),
                           self._dense_max(rels[parent].table, parent_col))
            key = (_canon(*subtree(alias, parent)), alias, col, size)
            if key not in self._msg_cache:
                keys = self._leaf(rels[alias])[col].to_numpy()
                self._msg_cache[key] = _bincount(keys, weights(alias, parent), size)
            return self._msg_cache[key]

        return weights(root, None)

    def group_counts(
        self, spec: QuerySpec, subset: frozenset[str], alias: str, col: str
    ) -> pd.Series:
        """``value → #join-rows`` of ``alias.col`` within the sub-join.

        The exact value distribution of one column of the (virtual)
        join result — linear time, never enumerates the join.
        """
        flat = self._expand(spec, subset)
        if not self._is_tree(flat):
            sql = _flat_sql(flat, f"{alias}.{col} AS v, COUNT(*) AS c") + " GROUP BY 1"
            pdf = self._duck().execute(sql).fetchdf()
            return pd.Series(pdf["c"].to_numpy(), index=pdf["v"].to_numpy())
        w = self._root_weights(flat, alias)
        rel = next(r for r in flat.relations if r.alias == alias)
        vals, inv = np.unique(self._leaf(rel)[col].to_numpy(), return_inverse=True)
        s = pd.Series(_bincount(inv, w, len(vals)), index=vals)
        return s[s > 0]

    # -- virtual temp tables (re-optimization support) -----------------
    def register_temp(self, name: str, spec: QuerySpec, subset: frozenset[str],
                      cols: list[tuple[str, str]]) -> int:
        """Declare temp ``name`` := the sub-join; return its row count."""
        temp_cols = {f"{a}__{c}": (a, c) for a, c in cols}
        self._temps[name] = _TempDef(spec=spec, subset=subset, cols=temp_cols)
        return self.card(spec, subset)

    def temp_stats(self, name: str):
        """Exact :class:`~repro.core.stats.TableStats` for a virtual temp.

        PostgreSQL gets temp-table statistics as a side effect of
        materialization; we get the same numbers from grouped tree
        counts — n_rows, per-column NDV and MCVs are exact.
        """
        from .stats import ColumnStats, TableStats

        td = self._temps[name]
        n = self.card(td.spec, td.subset)
        cols: dict[str, ColumnStats] = {}
        for cname, (a, c) in td.cols.items():
            ba, bc = self._base_col(td.spec, a, c)
            s = self.group_counts(td.spec, td.subset, ba, bc)
            top = s.sort_values(ascending=False).head(100)
            cols[cname] = ColumnStats(
                n_rows=n,
                ndv=int(len(s)),
                min_val=(s.index.min() if len(s) else None),
                max_val=(s.index.max() if len(s) else None),
                mcvs=tuple(
                    (_py(v), cnt / n) for v, cnt in top.items() if n
                ),
                hist=None,
            )
        return TableStats(table=name, n_rows=n, columns=cols)

    def drop_temp(self, name: str) -> None:
        self._temps.pop(name, None)

    def release(self, spec_name: str) -> None:
        """Free caches tied to one query's relations (keep count memo)."""
        # Leaf/message cache keys are content-addressed (table, filters;
        # canonical subtree), so they are naturally shared; dropping
        # everything for a spec is only a memory valve.
        self._leaf_cache.clear()
        self._msg_cache.clear()

    def close(self) -> None:
        if self._con is not None:
            self._con.close()
            self._con = None


def _py(v):
    return v.item() if hasattr(v, "item") else v


def _total(w: np.ndarray) -> int:
    """Exact sum of non-negative integer weights, as a Python int."""
    if w.dtype != object and len(w) and int(w.max()) * len(w) > _I64_MAX:
        w = w.astype(object)
    return int(w.sum())


def _mul(w: np.ndarray | None, looked: np.ndarray) -> np.ndarray:
    """Exact ``w * looked``: int64 while it provably fits, else Python ints."""
    if w is None:
        return looked
    if w.dtype == object or looked.dtype == object or (
        len(w) and int(w.max()) * int(looked.max()) > _I64_MAX
    ):
        return w.astype(object) * looked.astype(object)
    return w * looked


def _bincount(keys: np.ndarray, w: np.ndarray | None, size: int) -> np.ndarray:
    """Exact per-key sums (``size`` bins) of non-negative integer weights."""
    if w is None:
        return np.bincount(keys, minlength=size)
    if w.dtype != object and _total(w) < _F64_EXACT:
        return np.bincount(keys, weights=w, minlength=size).astype(np.int64)
    out = np.zeros(size, dtype=object)
    np.add.at(out, keys, w.astype(object))
    return out


def _canon(relations, joins) -> tuple:
    """Order-free identity of a sub-query: relations sorted by alias, join
    edges with sorted endpoints, sorted."""
    rels = sorted((r.alias, r.table, r.filters) for r in relations)
    edges = sorted(tuple(sorted((a, j.side(a)[0]) for a in j.aliases)) for j in joins)
    return tuple(rels), tuple(edges)


def _flat_sql(flat: _Flat, select: str) -> str:
    """``SELECT select`` over the sub-query, for DuckDB."""
    rels = ", ".join(f"{r.table} AS {r.alias}" for r in flat.relations)
    conds = [f.sql(r.alias) for r in flat.relations for f in r.filters]
    conds += [j.sql() for j in flat.joins]
    return f"SELECT {select} FROM {rels} WHERE {' AND '.join(conds) or 'TRUE'}"
