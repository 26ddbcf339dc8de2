"""True-cardinality oracle: exact counts of any connected sub-join.

The paper reads true per-operator cardinalities out of PostgreSQL's
``EXPLAIN ANALYZE`` (§V); perfect-(n) feeds those truths back into the
planner (§III-B). Cardinality is a property of the *data*, not the
engine, so we obtain the identical numbers from the generator's pandas
ground truth.

Naively ``COUNT(*)``-ing a sub-join enumerates it — a bad 5-fact join
has combinatorially many rows, which is precisely why bad plans are
slow. So for **acyclic** join graphs (every JOB-lite query is a tree)
the oracle counts by Yannakakis message passing (VLDB 1981), one
message per directed edge. For a connected T holding relation c but not
its neighbour p, msg(T, c→p) is a dense ``join_key → #rows`` array: the
``np.bincount`` over c's key column on edge (c, p) of c's rows, each
weighted by the product of msg(T_c′, c′→c) over c's neighbours c′ in T
(T_c′ is c′'s side of T). A connected S of two or more relations is one
dot product across one of its edges (u, v), msg(S_u, u→v) · msg(S_v,
v→u); the edge chosen is the one whose messages not yet cached read the
fewest rows. Messages are memoized per (flat graph, T, c, p), so a
``cards(spec, masks)`` batch shares them. All of this is linear in
input size, never in output size. Join keys must be ints in [0, dataset
rows], as dense surrogate IDs (all IMDB-lite keys) are.

Counts are exact Python ints. A message travels with its total (the
count of T) and its largest entry, both Python ints, and is float64
when its total is below 2**53. The arithmetic rests on one fact: on
non-negative integers below 2**53, which float64 holds exactly, a
rounded sum or product is exact while the exact result is below 2**53,
and is at least 2**53 once the exact result is (rounding is monotone
and 2**53 is a float). So a float64 ``bincount`` or dot product whose
result is below 2**53 is exact, in any summation order and with or
without FMA; one that reaches 2**53 is done again in int64, or in
Python-int object arrays where the exact total or the bound
min(total_a * max_b, total_b * max_a) passes 2**63. A row's weight,
the product of the entries coming into it, is at most the product of
their maxima: float64 while that bound is below 2**53, int64 while it
fits, else Python ints. Whether a spec is a tree on dense keys is
decided once per spec; cyclic graphs and non-dense keys fall back to
DuckDB SQL, whose connection is opened on first use.

Leaf state lives as long as the oracle: a relation's filters are
evaluated on the whole table once per (table, filters) and kept as the
row indices they pass (none for an unfiltered relation) with their
count, a column is gathered through those indices once and sorted once
(its distinct values and each row's position among them, for temp
statistics), and a leaf's own message (T is the relation alone) is kept
per (table, filters, column, length), so every query and graph on the
same leaf shares it. Within a query, a message read at its receiver's rows is
kept too, as several messages out of that receiver multiply it in.
``release`` frees one query's messages and reads, flat graphs (with
their counts) and flattenings only. All of it is filled on first use;
constructing the oracle fills none of it.

Re-optimization temp tables are **virtual** here: ``register_temp``
only records which sub-join a temp stands for. Each spec is flattened
to base relations once, and that flattening holds for as long as the
temps it names stay registered: registering a new temp cannot change
it (a spec naming a temp cannot be flattened before the temp exists);
dropping one, or registering a live name again, does. ``temp_stats`` derives the temp's exact column
statistics from the same messages (one weighted bincount per column,
summarized in numpy) — so the simulation path never materializes an
intermediate, no matter how large. The *Spark* replay of a
re-optimized query does materialize, which is the honest execution
cost.

A rewritten spec takes the flat graph and flat masks of the spec it was
rewritten from directly, the temp's mask being its subset's, so it
reuses that spec's counts and messages without expanding its temps or
building a graph. Any other spec is expanded, and equal flattenings are
interned to one graph: an original is flattened again after
``drop_temp``.

Counts are memoized per flat graph by flat mask, and a ``cards`` batch
maps all its masks to flat masks in one vector operation. Graph and leaf
keys are built of interned ints: each flat graph maps its relations'
(alias, table, filters), its leaves' (table, filters) and its edge keys
to small ints once, through one dict kept for the oracle's lifetime, so
a lookup hashes ints, never nested filters. One harness run shares a
single oracle across PG / perfect-(n) / re-optimization configs, so a
query's configs share its counts.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

import duckdb

from ..imdb.gen import Dataset
from .query import JoinEdge, QuerySpec, Relation, result_select, select_sql
from .stats import MCV_TARGET, ColumnStats, TableStats, _pynative

_I64_MAX = 2**63 - 1
#: float64 holds every integer below this exactly.
_F64_EXACT = 2**53
#: A message: the array, its total and its largest entry (Python ints).
_Msg = tuple[np.ndarray, int, int]


@dataclass(frozen=True)
class _TempDef:
    """What a re-optimization temp table stands for."""

    spec: QuerySpec  # the spec the temp was carved out of
    subset: frozenset[str]
    #: temp column name ("a__c") → (alias, col) in ``spec``.
    cols: dict


class _FlatGraph:
    """A spec with its temps flattened to base relations.

    ``spec.graph`` numbers the relations by sorted alias, and the join
    edges are sorted by their key, their endpoints sorted. ``intern`` maps
    each relation's (alias, table, filters), each leaf's (table, filters)
    and each edge's key to a small int once per graph: ``key``, the
    relations' ints and the edges' ints in that order, interns equal
    flattenings to one graph, and ``leaf`` keys the oracle's leaf state.
    On a tree joined on dense keys, ``rows`` holds each relation's
    filtered row count, and ``side``, ``col`` and ``size`` hold, per
    directed edge (x, y), x's side of the tree, x's key column and the
    length of a message along the edge.
    """

    def __init__(self, relations, joins, intern, dense_max, n_rows):
        edges = sorted(((tuple(sorted(((j.left_alias, j.left_col),
                                       (j.right_alias, j.right_col)))), j)
                        for j in joins), key=lambda e: e[0])
        self.spec = QuerySpec("flat", tuple(sorted(relations, key=lambda r: r.alias)),
                              tuple(j for _, j in edges))
        self.graph = g = self.spec.graph
        self.key = (tuple(intern((r.alias, r.table, r.filters)) for r in self.spec.relations),
                    tuple(intern(k) for k, _ in edges))
        self.leaf = tuple(intern((r.table, r.filters)) for r in self.spec.relations)
        self.ends = tuple((g.index[a], g.index[b]) for ((a, _), (b, _)), _ in edges)
        self.edge_mask = tuple(1 << x | 1 << y for x, y in self.ends)
        full = (1 << len(g.aliases)) - 1
        cuts = dict(g.tree_cuts() or ())
        self.tree = len(cuts) == len(joins) == len(g.aliases) - 1
        self.side, self.col, self.size = {}, {}, {}
        for (x, y), (((_, cx), (_, cy)), _), m in zip(self.ends, edges, self.edge_mask):
            hi = [dense_max(self.spec.relations[v].table, c) for v, c in ((x, cx), (y, cy))]
            self.tree = self.tree and None not in hi
            if self.tree:
                self.col[x, y], self.col[y, x] = cx, cy
                # Long enough for both endpoints' keys, so no lookup reads past it.
                self.size[x, y] = self.size[y, x] = 1 + max(hi)
                self.side[x, y] = cuts[m] if cuts[m] >> x & 1 else full ^ cuts[m]
                self.side[y, x] = full ^ self.side[x, y]
        if self.tree:
            self.rows = [n_rows(r) for r in self.spec.relations]
        #: flat mask → count: the oracle's one count memo.
        self.counts: dict[int, int] = {}


class TrueCardinalityOracle:
    """Exact cardinalities of any connected sub-join of any query."""

    def __init__(self, ds: Dataset):
        self._tables: dict[str, pd.DataFrame] = dict(ds.tables)
        #: the tree path's join keys are ints in [0, _key_bound].
        self._key_bound = sum(len(pdf) for pdf in ds.tables.values())
        self._con: duckdb.DuckDBPyConnection | None = None  # see _duck
        #: (alias, table, filters), (table, filters) and edge keys → small
        #: ints, for the oracle's lifetime; graph and leaf keys are built of them.
        self._ids: dict[tuple, int] = {}
        self._temps: dict[str, _TempDef] = {}
        #: Leaf state, kept for the oracle's lifetime, keyed by the leaf's
        #: (table, filters) id: (indices of the rows the filters pass, None
        #: for no filters; their count), the gathered columns and their
        #: sorts (distinct values, each row's position among them) by (leaf,
        #: col), and a leaf's message by (leaf, col, message length).
        self._leaf_cache: dict[int, tuple[np.ndarray | None, int]] = {}
        self._col_cache: dict[tuple, np.ndarray] = {}
        self._col_sorts: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        self._leaf_msgs: dict[tuple, _Msg] = {}
        #: flat graphs by their key, so equal flattenings share counts and messages.
        self._graphs: dict[tuple, _FlatGraph] = {}
        #: id(spec) → (spec, its flat graph, flat mask of each spec.graph bit).
        self._specs: dict[int, tuple] = {}
        #: (flat graph, T, c, p) → msg(T, c→p), and that message read at
        #: each of p's rows through p's key column on the edge.
        self._msg_cache: dict[tuple, _Msg] = {}
        self._looked: dict[tuple, np.ndarray] = {}
        #: (table, col) → max value of a dense key column, else None.
        self._key_max: dict[tuple[str, str], int | None] = {}
        self.n_counts = 0  # per-graph misses (actual counting work)

    def _duck(self) -> duckdb.DuckDBPyConnection:
        """DuckDB over the dataset's tables, opened on first use."""
        if self._con is None:
            self._con = duckdb.connect()
            for name, pdf in self._tables.items():
                self._con.register(name, pdf)
        return self._con

    def _id(self, key: tuple) -> int:
        """The small int standing for ``key`` in this oracle."""
        return self._ids.setdefault(key, len(self._ids))

    # -- expansion of virtual temps ------------------------------------
    def _expand(self, spec: QuerySpec, subset: frozenset[str] | None = None):
        """Relations and joins of ``subset`` (default: all), temps
        resolved to base tables, and the alias of ``spec`` that each
        relation stands in for."""
        relations: list[Relation] = []
        joins: list[JoinEdge] = []
        owners: list[str] = []
        temps = set()
        for rel in spec.relations:
            if subset is None or rel.alias in subset:
                td = self._temps.get(rel.table)
                if td is None:
                    relations.append(rel)
                    owners.append(rel.alias)
                    continue
                temps.add(rel.alias)
                inner_rels, inner_joins, _ = self._expand(td.spec, td.subset)
                relations += inner_rels
                joins += inner_joins
                owners += [rel.alias] * len(inner_rels)
        for j in spec.joins:
            if subset is None or j.left_alias in subset and j.right_alias in subset:
                if j.left_alias in temps or j.right_alias in temps:
                    j = JoinEdge(*self._base_col(spec, j.left_alias, j.left_col),
                                 *self._base_col(spec, j.right_alias, j.right_col))
                joins.append(j)
        return relations, joins, owners

    def _base_col(self, spec: QuerySpec, alias: str, col: str) -> tuple[str, str]:
        """``alias.col`` of ``spec`` traced through (nested) temps to a base
        ``(alias, col)``."""
        table = spec.relation(alias).table
        if table not in self._temps:
            return alias, col
        td = self._temps[table]
        return self._base_col(td.spec, *td.cols[col])

    def _flat(self, spec: QuerySpec, mask: int) -> tuple[_FlatGraph, int]:
        """``spec``'s flat graph and the flat mask of its ``spec.graph``
        mask ``mask``."""
        g, parts = self._flattening(spec)
        return g, sum(p for i, p in enumerate(parts) if mask >> i & 1)

    def _flattening(self, spec: QuerySpec) -> tuple[_FlatGraph, list[int]]:
        """``spec``'s flat graph and the flat mask of each ``spec.graph``
        bit, built once per spec."""
        hit = self._specs.get(id(spec))  # the entry holds spec: no id reuse
        if hit is None:
            g, parts = self._rewrite_flattening(spec) or self._expand_flattening(spec)
            hit = self._specs[id(spec)] = (spec, g, parts)
        return hit[1], hit[2]

    def _expand_flattening(self, spec: QuerySpec) -> tuple[_FlatGraph, list[int]]:
        """Build ``spec``'s flat graph from its temps' expansion."""
        relations, joins, owners = self._expand(spec)
        g = _FlatGraph(relations, joins, self._id, self._dense_max,
                       lambda rel: self._leaf(rel)[1])
        g = self._graphs.setdefault(g.key, g)
        part = dict.fromkeys(spec.graph.aliases, 0)
        for r, a in zip(relations, owners):
            part[a] |= 1 << g.graph.index[r.alias]
        return g, list(part.values())

    def _rewrite_flattening(
        self, spec: QuerySpec
    ) -> tuple[_FlatGraph, list[int]] | None:
        """The flattening of the temp's source spec if ``spec`` is that
        source rewritten around its last relation, a temp, as
        ``rewrite_with_temp`` makes it (else None): the source's
        relations outside the temp's subset, then the temp, and the
        source's joins outside the subset with the crossing ones moved
        onto the temp. The temp's flat mask is its subset's."""
        temp = spec.relations[-1]
        td = self._temps.get(temp.table)
        if td is None or spec.relations[:-1] != tuple(
                r for r in td.spec.relations if r.alias not in td.subset):
            return None

        def ends(j: JoinEdge) -> tuple:
            """The join's endpoints in the source's terms, sorted."""
            return tuple(sorted(td.cols.get(c, (a, c)) if a == temp.alias else (a, c)
                                for a, c in ((j.left_alias, j.left_col),
                                             (j.right_alias, j.right_col))))

        if sorted(map(ends, spec.joins)) != sorted(
                ends(j) for j in td.spec.joins if not j.aliases <= td.subset):
            return None
        g, parts = self._flattening(td.spec)
        of = dict(zip(td.spec.graph.aliases, parts))
        of[temp.alias] = sum(of[a] for a in td.subset)
        return g, [of[a] for a in spec.graph.aliases]

    # -- counting ------------------------------------------------------
    def cards(self, spec: QuerySpec, masks) -> list[int]:
        """True row counts of connected subsets of ``spec`` given as
        ``spec.graph`` masks."""
        g, parts = self._flattening(spec)
        masks = np.asarray(masks, dtype=np.int64)
        if parts != [1 << i for i in range(len(parts))]:
            # Each flat mask is the sum of the parts of its mask's bits.
            bits = masks[:, None] >> np.arange(len(parts)) & 1
            masks = bits @ np.array(parts, dtype=np.int64)
        counts = g.counts
        return [counts[f] if f in counts else self._count(g, f) for f in masks.tolist()]

    def card(self, spec: QuerySpec, subset: frozenset[str] | None = None) -> int:
        """True row count of ``spec`` restricted to ``subset`` aliases."""
        subset = spec.aliases if subset is None else subset
        return self.cards(spec, [spec.graph.mask(subset)])[0]

    def _count(self, g: _FlatGraph, f: int) -> int:
        n = g.counts.get(f)
        if n is None:
            self.n_counts += 1
            if g.tree:
                n = self._tree_count(g, f)
            else:
                sql = g.spec.count_sql(g.graph.subset(f))
                n = int(self._duck().execute(sql).fetchone()[0])
            g.counts[f] = n
        return n

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
        outs = result_select(
            spec.min_cols, lambda a, c: self._base_col(spec, a, c)
        )
        sql = select_sql(outs, *self._expand(spec)[:2])
        return self._duck().execute(sql).fetchdf()

    # -- Yannakakis counting over tree-shaped flat graphs ----------------
    def _leaf(self, rel: Relation) -> tuple[np.ndarray | None, int]:
        """Indices of ``rel``'s filtered rows (None: all rows) and their count."""
        key = self._id((rel.table, rel.filters))
        if key not in self._leaf_cache:
            pdf = self._tables[rel.table]
            if rel.filters:
                idx = np.flatnonzero(np.logical_and.reduce(
                    [f.mask(pdf[f.col].to_numpy()) for f in rel.filters]))
                self._leaf_cache[key] = idx, len(idx)
            else:
                self._leaf_cache[key] = None, len(pdf)
        return self._leaf_cache[key]

    def _col(self, g: _FlatGraph, x: int, col: str) -> np.ndarray:
        """Column ``col`` of relation ``x``'s filtered rows."""
        key = g.leaf[x], col
        if key not in self._col_cache:
            rel = g.spec.relations[x]
            idx, _ = self._leaf(rel)
            v = self._tables[rel.table][col].to_numpy()
            self._col_cache[key] = v if idx is None else v[idx]
        return self._col_cache[key]

    def _col_sort(self, g: _FlatGraph, x: int, col: str) -> tuple[np.ndarray, np.ndarray]:
        """Distinct values of ``_col(g, x, col)``, sorted, and each row's
        position among them (read-only)."""
        key = g.leaf[x], col
        if key not in self._col_sorts:
            vals, inv = np.unique(self._col(g, x, col), return_inverse=True)
            vals.flags.writeable = inv.flags.writeable = False
            self._col_sorts[key] = vals, inv
        return self._col_sorts[key]

    def _tree_count(self, g: _FlatGraph, f: int) -> int:
        """Count of the connected sub-join on ``f``: a dot product across
        the first edge whose messages not yet cached read the fewest
        rows. Pricing stops at an edge whose messages are both cached."""
        if f & (f - 1) == 0:
            return g.rows[f.bit_length() - 1]
        cache, rows, side = self._msg_cache, g.rows, g.side
        best = None
        for (x, y), m in zip(g.ends, g.edge_mask):
            if f & m == m:
                fx = f & side[x, y]
                c = ((g, fx, x, y) not in cache) * rows[x] + (
                    (g, f ^ fx, y, x) not in cache) * rows[y]
                if best is None or c < best[0]:
                    best = c, fx, x, y
                    if not c:  # both messages cached: no edge is cheaper
                        break
        _, fx, x, y = best
        return _dot(self._msg(g, fx, x, y), self._msg(g, f ^ fx, y, x))

    def _msg(self, g: _FlatGraph, T: int, x: int, y: int) -> _Msg:
        """msg(T, x→y) with its total, the count of T, and its largest entry.
        A leaf's message (T is x alone) is the same in every graph."""
        key = (g, T, x, y)
        msg = self._msg_cache.get(key)
        if msg is None:
            col, size = g.col[x, y], g.size[x, y]
            if T == 1 << x:
                leaf = g.leaf[x], col, size
                msg = self._leaf_msgs.get(leaf)
                if msg is None:
                    msg = self._leaf_msgs[leaf] = _bincount(
                        self._col(g, x, col), None, 1, size)
            else:
                msg = _bincount(self._col(g, x, col), *self._weights(g, T, x), size)
            self._msg_cache[key] = msg
        return msg

    def _weights(self, g: _FlatGraph, T: int, x: int) -> tuple[np.ndarray | None, int]:
        """Per-row product of the messages into ``x`` from its neighbours
        in ``T`` (None: all ones), and the product of their maxima, which
        bounds every row's product."""
        w, bound = None, 1
        nbrs = g.graph.nbr[x] & T
        while nbrs:
            low = nbrs & -nbrs
            nbrs ^= low
            z = low.bit_length() - 1
            key = (g, T & g.side[z, x], z, x)
            m, _, top = self._msg(*key)
            looked = self._looked.get(key)
            if looked is None:
                looked = self._looked[key] = m[self._col(g, x, g.col[x, z])]
                looked.flags.writeable = False  # shared by every product using it
            bound *= top
            if w is None:
                w = looked
            elif w.dtype == object or looked.dtype == object or bound > _I64_MAX:
                w = _ints(w).astype(object) * _ints(looked).astype(object)
            elif bound < _F64_EXACT:
                w = w * looked  # float64 unless both are int64
            else:
                w = _ints(w) * _ints(looked)
        return w, bound

    def _value_counts(
        self, spec: QuerySpec, subset: frozenset[str], alias: str, col: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """Distinct values of ``alias.col`` within the sub-join, sorted,
        and each one's ``#join-rows`` (never 0).

        The exact value distribution of one column of the (virtual)
        join result — one bincount of the alias's rows weighted by its
        incoming messages; never enumerates the join. ``alias`` is a
        base alias of the flattened spec.
        """
        g, f = self._flat(spec, spec.graph.mask(subset))
        if not g.tree:
            s = g.graph.subset(f)
            sql = (f"SELECT {alias}.{col} AS v, COUNT(*) AS c FROM "
                   f"{g.spec.from_sql(s)} WHERE {g.spec.where_sql(s)} "
                   "GROUP BY 1 ORDER BY 1")
            pdf = self._duck().execute(sql).fetchdf()
            return pdf["v"].to_numpy(), pdf["c"].to_numpy()
        x = g.graph.index[alias]
        w, bound = self._weights(g, f, x)
        vals, inv = self._col_sort(g, x, col)
        counts = _ints(_bincount(inv, w, bound, len(vals))[0])
        seen = counts > 0
        return vals[seen], counts[seen]

    def group_counts(
        self, spec: QuerySpec, subset: frozenset[str], alias: str, col: str
    ) -> pd.Series:
        """``value → #join-rows`` of ``alias.col`` within the sub-join
        (see :meth:`_value_counts`)."""
        vals, counts = self._value_counts(spec, subset, alias, col)
        return pd.Series(counts, index=vals)

    # -- virtual temp tables (re-optimization support) -----------------
    def register_temp(self, name: str, spec: QuerySpec, subset: frozenset[str],
                      cols: list[tuple[str, str]]) -> None:
        """Declare temp ``name`` := the sub-join of ``subset`` in ``spec``."""
        if name in self._temps:
            # Specs flattened since may have expanded the old definition.
            self._specs.clear()
        temp_cols = {f"{a}__{c}": (a, c) for a, c in cols}
        self._temps[name] = _TempDef(spec=spec, subset=subset, cols=temp_cols)

    def temp_stats(self, name: str):
        """Exact :class:`~repro.core.stats.TableStats` for a virtual temp.

        PostgreSQL gets temp-table statistics as a side effect of
        materialization; we get the same numbers from grouped tree
        counts — n_rows, per-column NDV and MCVs are exact. MCVs come in
        the order of pandas' ``sort_values(ascending=False)`` over the
        sorted values, ties included.
        """
        td = self._temps[name]
        n = self.card(td.spec, td.subset)
        cols: dict[str, ColumnStats] = {}
        for cname, (a, c) in td.cols.items():
            vals, counts = self._value_counts(
                td.spec, td.subset, *self._base_col(td.spec, a, c))
            # pandas' descending quicksort (nargsort): reverse, argsort,
            # reverse back.
            top = (len(counts) - 1 - counts[::-1].argsort(kind="quicksort"))[::-1]
            top = top[:MCV_TARGET]
            cols[cname] = ColumnStats(
                n_rows=n,
                ndv=len(vals),
                min_val=(_pynative(vals[0]) if len(vals) else None),
                max_val=(_pynative(vals[-1]) if len(vals) else None),
                mcvs=tuple(
                    (v, cnt / n)
                    for v, cnt in zip(vals[top].tolist(), counts[top].tolist()) if n
                ),
                hist=None,
            )
        return TableStats(table=name, n_rows=n, columns=cols)

    def drop_temp(self, name: str) -> None:
        self._temps.pop(name, None)
        self._specs.clear()

    def release(self, spec_name: str) -> None:
        """Free the state of the query just counted: its messages and their
        reads, flat graphs (with their counts) and flattenings. The leaf
        state, which any later query on the same (table, filters) reuses,
        is kept."""
        # Flat graphs, their counts and messages are interned by content, so a
        # later query could share them too; dropping them after each query
        # is only a memory valve.
        self._msg_cache.clear()
        self._looked.clear()
        self._graphs.clear()
        self._specs.clear()

    def close(self) -> None:
        if self._con is not None:
            self._con.close()
            self._con = None


def _ints(a: np.ndarray) -> np.ndarray:
    """``a`` as int64 if it is float64 (whose entries are exact integers
    below 2**53 here), else unchanged."""
    return a.astype(np.int64) if a.dtype == np.float64 else a


def _total(w: np.ndarray, bound: int) -> int:
    """Exact sum of non-negative integer weights (int64 or Python ints),
    each at most ``bound``."""
    step = _I64_MAX // max(bound, 1)
    if w.dtype == object or step >= len(w):
        return int(w.sum())
    # Each chunk of `step` weights sums exactly in int64.
    return sum(np.add.reduceat(w, np.arange(0, len(w), step)).tolist())


def _bincount(keys: np.ndarray, w: np.ndarray | None, bound: int,
              size: int) -> _Msg:
    """Exact per-key sums (``size`` bins) of non-negative integer weights,
    each at most ``bound`` (None: all ones), with their total and largest
    sum; float64 when the total is below 2**53."""
    if w is None:
        out = np.bincount(keys, minlength=size).astype(np.float64)
        return out, len(keys), int(out.max(initial=0))
    total = None
    if w.dtype == object or bound >= _F64_EXACT:
        total = _total(w, bound)
    if total is None or total < _F64_EXACT:
        # Every weight is below 2**53, so the sums are exact unless the
        # float total reaches 2**53 (see the module docstring).
        out = np.bincount(keys, weights=w.astype(np.float64, copy=False), minlength=size)
        sums = out.sum()
        if sums < _F64_EXACT:
            return out, int(sums), int(out.max(initial=0))
        w = _ints(w)
        total = _total(w, bound)
    out = np.zeros(size, dtype=np.int64 if total <= _I64_MAX else object)
    np.add.at(out, keys, w.astype(out.dtype))
    return out, total, int(out.max(initial=0))


def _dot(a_msg: _Msg, b_msg: _Msg) -> int:
    """Exact dot product of two messages, each ``(array, total, top)``."""
    (a, ta, ha), (b, tb, hb) = a_msg, b_msg
    if a.dtype == b.dtype == np.float64:
        # BLAS: exact unless it reaches 2**53 (see the module docstring).
        d = a @ b
        if d < _F64_EXACT:
            return int(d)
    a, b = _ints(a), _ints(b)
    if min(ta * hb, tb * ha) <= _I64_MAX and a.dtype != object and b.dtype != object:
        return int(a @ b)
    return int(a.astype(object) @ b.astype(object))
