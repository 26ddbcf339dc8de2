"""Logical query model: relations, predicates, equi-join edges.

A :class:`QuerySpec` is the select-project-join shape the paper studies
(JOB queries are all SPJ with equi-joins only, §III-A). It is engine
neutral: the optimizer plans over it, the DuckDB oracle counts over it,
and the Spark executor builds a DataFrame join tree from it.

Aliases are first-class (JOB reuses tables under several aliases, e.g.
``it1``/``it2`` for ``info_type``), so a 17-relation query does not need
17 distinct base tables.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

_CMP = {"=": operator.eq, "<": operator.lt, "<=": operator.le,
        ">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class Filter:
    """A base-table predicate ``col op value``.

    ``op`` is one of ``=``, ``<``, ``<=``, ``>``, ``>=``, ``in``.
    ``value`` is a python scalar (or tuple of scalars for ``in``).
    """

    col: str
    op: str
    value: object

    def __post_init__(self) -> None:
        if self.op not in _CMP and self.op != "in":
            raise ValueError(f"unsupported op {self.op!r}")
        if self.op == "in" and not isinstance(self.value, tuple):
            raise ValueError("'in' filter value must be a tuple")

    def sql(self, alias: str) -> str:
        """Render as a SQL condition qualified with ``alias``."""
        if self.op == "in":
            vals = ", ".join(_sql_literal(v) for v in self.value)
            return f"{alias}.{self.col} IN ({vals})"
        return f"{alias}.{self.col} {self.op} {_sql_literal(self.value)}"

    def mask(self, col):
        """``col op value`` on a pandas ``Series`` or a Spark ``Column``."""
        if self.op == "in":
            return col.isin(list(self.value))
        return _CMP[self.op](col, self.value)


def _sql_literal(v: object) -> str:
    if isinstance(v, str):
        escaped = v.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(v, bool):
        return "TRUE" if v else "FALSE"
    return repr(v)


@dataclass(frozen=True)
class Relation:
    """One FROM-list entry: ``table AS alias`` plus its local filters."""

    alias: str
    table: str
    filters: tuple[Filter, ...] = ()


@dataclass(frozen=True)
class JoinEdge:
    """Equi-join predicate ``left_alias.left_col = right_alias.right_col``."""

    left_alias: str
    left_col: str
    right_alias: str
    right_col: str

    def __post_init__(self) -> None:
        if self.left_alias == self.right_alias:
            raise ValueError("self-join edge within one alias is not a join")

    @property
    def aliases(self) -> frozenset[str]:
        return frozenset((self.left_alias, self.right_alias))

    def sql(self) -> str:
        return (
            f"{self.left_alias}.{self.left_col} = "
            f"{self.right_alias}.{self.right_col}"
        )

    def side(self, alias: str) -> tuple[str, str]:
        """Return ``(col_on_alias, other_alias)`` for one endpoint."""
        if alias == self.left_alias:
            return self.left_col, self.right_alias
        if alias == self.right_alias:
            return self.right_col, self.left_alias
        raise KeyError(alias)


@dataclass(frozen=True)
class QuerySpec:
    """An SPJ query: relations, equi-join edges, and an output aggregate.

    ``name`` identifies the query in the workload (like JOB's "6d").
    The output is always ``COUNT(*)`` plus ``MIN``s of ``min_cols``
    (JOB queries all emit ``MIN`` aggregates) so results are single-row
    and trivially comparable across engines and rewrites.
    """

    name: str
    relations: tuple[Relation, ...]
    joins: tuple[JoinEdge, ...]
    min_cols: tuple[tuple[str, str], ...] = ()  # (alias, col) pairs

    def __post_init__(self) -> None:
        aliases = [r.alias for r in self.relations]
        if len(set(aliases)) != len(aliases):
            raise ValueError(f"duplicate aliases in {self.name}")
        known = set(aliases)
        for j in self.joins:
            if not j.aliases <= known:
                raise ValueError(f"join {j} references unknown alias")
        for a, _ in self.min_cols:
            if a not in known:
                raise ValueError(f"min_col alias {a} unknown")
        if not self.is_connected(frozenset(known)):
            raise ValueError(f"query {self.name} join graph is disconnected")

    # -- graph helpers -------------------------------------------------
    @property
    def aliases(self) -> frozenset[str]:
        return frozenset(r.alias for r in self.relations)

    def relation(self, alias: str) -> Relation:
        for r in self.relations:
            if r.alias == alias:
                return r
        raise KeyError(alias)

    @cached_property
    def graph(self) -> "JoinGraph":
        """The join graph as bitmask adjacency, built once per spec."""
        return JoinGraph(self)

    def edges_between(
        self, left: frozenset[str], right: frozenset[str]
    ) -> tuple[JoinEdge, ...]:
        """All join edges with one endpoint in ``left``, one in ``right``."""
        return tuple(
            j
            for j in self.joins
            if (j.left_alias in left and j.right_alias in right)
            or (j.left_alias in right and j.right_alias in left)
        )

    def is_connected(self, subset: frozenset[str]) -> bool:
        """True iff ``subset`` induces a connected join subgraph."""
        g = self.graph
        return subset <= g.index.keys() and g.is_connected(g.mask(subset))

    # -- SQL rendering (DuckDB, the tests' reference) -----------------
    def _part(self, subset: frozenset[str] | None):
        """Relations and join edges within ``subset`` (default: all)."""
        subset = self.aliases if subset is None else subset
        return (tuple(r for r in self.relations if r.alias in subset),
                tuple(j for j in self.joins if j.aliases <= subset))

    def from_sql(self, subset: frozenset[str] | None = None) -> str:
        return _from_sql(self._part(subset)[0])

    def where_sql(self, subset: frozenset[str] | None = None) -> str:
        """WHERE clause (filters + join conds) restricted to ``subset``."""
        return _where_sql(*self._part(subset))

    def count_sql(self, subset: frozenset[str] | None = None) -> str:
        """``SELECT COUNT(*)`` over the (sub)query."""
        return select_sql("COUNT(*) AS cnt", *self._part(subset))

    def result_sql(self) -> str:
        """The query's full output SQL (COUNT + MINs)."""
        outs = ["COUNT(*) AS cnt"] + [
            f"MIN({a}.{c}) AS min_{a}_{c}" for a, c in self.min_cols
        ]
        return select_sql(", ".join(outs), self.relations, self.joins)


def select_sql(select: str, relations, joins) -> str:
    """``SELECT select`` over ``relations`` (with their filters) joined on
    ``joins``: the one SQL rendering of a conjunctive query."""
    return (f"SELECT {select} FROM {_from_sql(relations)} "
            f"WHERE {_where_sql(relations, joins)}")


def _from_sql(relations) -> str:
    return ", ".join(f"{r.table} AS {r.alias}" for r in relations)


def _where_sql(relations, joins) -> str:
    conds = [f.sql(r.alias) for r in relations for f in r.filters]
    return " AND ".join(conds + [j.sql() for j in joins]) or "TRUE"


class JoinGraph:
    """Bitmask adjacency of a query's join graph.

    Aliases are numbered in sorted order: bit ``i`` of a mask stands for
    ``aliases[i]`` and ``nbr[i]`` is the mask of its join neighbours.
    The connected-subgraph enumeration is EnumerateCsg/EnumerateCmp of
    Moerkotte & Neumann, "Analysis of Two Existing and One New Dynamic
    Programming Algorithm for the Generation of Optimal Bushy Join Trees
    without Cross Products" (VLDB 2006).
    """

    def __init__(self, spec: QuerySpec):
        self.aliases = tuple(sorted(spec.aliases))
        self.index = {a: i for i, a in enumerate(self.aliases)}
        nbr = [0] * len(self.aliases)
        for j in spec.joins:
            left, right = self.index[j.left_alias], self.index[j.right_alias]
            nbr[left] |= 1 << right
            nbr[right] |= 1 << left
        self.nbr = tuple(nbr)

    def mask(self, subset) -> int:
        return sum(1 << self.index[a] for a in subset)

    def subset(self, mask: int) -> frozenset[str]:
        return frozenset(a for i, a in enumerate(self.aliases) if mask >> i & 1)

    def neighborhood(self, mask: int) -> int:
        """Union of the neighbours of ``mask``'s members (may overlap it)."""
        out = 0
        while mask:
            low = mask & -mask
            out |= self.nbr[low.bit_length() - 1]
            mask ^= low
        return out

    def is_connected(self, mask: int) -> bool:
        seen = frontier = mask & -mask
        while frontier:
            frontier = self.neighborhood(frontier) & mask & ~seen
            seen |= frontier
        return bool(mask) and seen == mask

    def csgs(self) -> list[int]:
        """Every connected subgraph (EnumerateCsg), in no fixed order."""
        out: list[int] = []
        for i in reversed(range(len(self.nbr))):
            out.append(1 << i)
            self._grow(1 << i, self.nbr[i], (2 << i) - 1, out)
        return out

    def cmps(self, s1: int) -> list[int]:
        """Every connected complement of the csg ``s1`` (EnumerateCmp).

        Each is a csg disjoint from and adjacent to ``s1`` whose lowest
        member is above ``s1``'s, so every unordered csg-cmp pair is
        reached from exactly one of its halves.
        """
        x = s1 | (((s1 & -s1) << 1) - 1)
        n = self.neighborhood(s1) & ~x
        out: list[int] = []
        for i in reversed(range(n.bit_length())):
            if n >> i & 1:
                out.append(1 << i)
                self._grow(1 << i, self.nbr[i], x | (n & ((2 << i) - 1)), out)
        return out

    def tree_cuts(self) -> list[tuple[int, int]] | None:
        """``(edge, side)`` masks of every edge if the graph is a tree, else None.

        ``edge`` holds the edge's two endpoints and ``side`` one endpoint's
        component of the tree with that edge removed, so a connected
        subset ``m`` holding both endpoints splits into the connected
        halves ``m & side`` and ``m & ~side``.
        """
        n = len(self.nbr)
        if sum(m.bit_count() for m in self.nbr) != 2 * (n - 1):
            return None
        # Root the tree at relation 0; each edge's side is its child's subtree.
        parent = [0] * n
        order, seen = [0], 1
        for v in order:
            new = self.nbr[v] & ~seen
            seen |= new
            while new:
                low = new & -new
                parent[low.bit_length() - 1] = v
                order.append(low.bit_length() - 1)
                new ^= low
        below = [1 << v for v in range(n)]
        for v in reversed(order[1:]):
            below[parent[v]] |= below[v]
        return [(1 << v | 1 << parent[v], below[v]) for v in order[1:]]

    def _grow(self, s: int, s_nbr: int, x: int, out: list[int]) -> None:
        """EnumerateCsgRec: append each connected ``s | sub`` for non-empty
        ``sub`` drawn from ``s``'s neighbours outside ``x``, recursively.

        ``s_nbr`` is ``neighborhood(s)``; a subset's neighbourhood is
        built from the one without its lowest bit, so each costs one OR.
        """
        n = s_nbr & ~x
        if not n:
            return
        grown = {0: s_nbr}
        sub = n & -n
        while sub:  # non-empty subsets of n in increasing order
            low = sub & -sub
            grown[sub] = grown[sub ^ low] | self.nbr[low.bit_length() - 1]
            out.append(s | sub)
            sub = (sub - n) & n
        del grown[0]
        x |= n
        for sub, sub_nbr in grown.items():
            self._grow(s | sub, sub_nbr, x, out)


def connected_subsets(
    spec: QuerySpec, max_size: int | None = None
) -> list[frozenset[str]]:
    """Every connected alias subset of ``spec``'s join graph, by size.

    Deterministic order (sorted within each size). This is the set of
    "joinrels" a Selinger-style DP considers — one cardinality estimate
    each.
    """
    g = spec.graph
    n = len(g.aliases)
    max_size = n if max_size is None else max_size

    def order(m: int) -> tuple[int, int]:
        # Within one size, sorted alias tuples compare at the lowest
        # member the two sets do not share: the set holding it comes
        # first. Reversing the bits makes that member the highest bit.
        return m.bit_count(), -int(f"{m:0{n}b}"[::-1], 2)

    masks = sorted((m for m in g.csgs() if m.bit_count() <= max_size), key=order)
    return [g.subset(m) for m in masks]
