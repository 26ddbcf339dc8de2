"""JOB-lite: 113 synthetic select-project-join queries on IMDB-lite.

The real Join Order Benchmark is 113 hand-written queries over IMDB
with 4–17 relations each (paper Table III). We generate a deterministic
workload with **exactly** that table-count distribution. Queries are
snowflake-ish trees rooted at ``title`` (as in JOB), reuse tables under
multiple aliases (JOB's ``it1``/``it2``), carry 1–4 filter predicates,
and emit ``COUNT(*)`` plus ``MIN`` aggregates (JOB queries are all
``SELECT MIN(...)``).

About half of the queries draw at least one "nasty" filter that lands on a
skew-correlated value (popular keyword group, ``info_type`` 99, recent
years) — reproducing the paper's finding that *most* queries are
planned fine and a minority are catastrophically misestimated.
"""
from __future__ import annotations

import numpy as np

from ..core.query import Filter, JoinEdge, QuerySpec, Relation
from . import schema

#: Paper Table III — number of JOB queries per relation count.
TABLE_COUNT_DISTRIBUTION: dict[int, int] = {
    4: 3,
    5: 20,
    6: 2,
    7: 16,
    8: 21,
    9: 14,
    10: 7,
    11: 10,
    12: 11,
    14: 6,
    17: 3,
}

_ABBREV = {
    "title": "t",
    "name": "n",
    "char_name": "chn",
    "keyword": "k",
    "company_name": "cn",
    "cast_info": "ci",
    "movie_keyword": "mk",
    "movie_companies": "mc",
    "movie_info": "mi",
    "movie_info_idx": "midx",
    "info_type": "it",
    "kind_type": "kt",
    "role_type": "rt",
    "company_type": "ct",
}

#: FKs hanging off each fact table besides movie_id.
_FACT_DIMS: dict[str, tuple[tuple[str, str], ...]] = {
    "cast_info": (
        ("person_id", "name"),
        ("person_role_id", "char_name"),
        ("role_id", "role_type"),
    ),
    "movie_keyword": (("keyword_id", "keyword"),),
    "movie_companies": (
        ("company_id", "company_name"),
        ("company_type_id", "company_type"),
    ),
    "movie_info": (("info_type_id", "info_type"),),
    "movie_info_idx": (("info_type_id", "info_type"),),
}


class _Builder:
    """Grows one connected query graph, alias by alias."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.relations: list[tuple[str, str]] = []  # (alias, table)
        self.edges: list[JoinEdge] = []
        self._n_by_abbrev: dict[str, int] = {}
        self._dims_used: set[tuple[str, str]] = set()  # (alias, fk_col)

    def add(self, table: str) -> str:
        ab = _ABBREV[table]
        self._n_by_abbrev[ab] = self._n_by_abbrev.get(ab, 0) + 1
        i = self._n_by_abbrev[ab]
        alias = ab if i == 1 else f"{ab}{i}"
        self.relations.append((alias, table))
        return alias

    def dim_moves(self) -> list[tuple]:
        """Open dimension-attachment slots (one per fact FK, plus kind)."""
        out: list[tuple] = []
        for alias, table in self.relations:
            if table == "title":
                if ("kind", alias) not in self._dims_used:
                    out.append(("kind", alias, "kind_type", 1.0))
            elif table in schema.FACTS:
                for fk_col, dim in _FACT_DIMS[table]:
                    if (alias, fk_col) not in self._dims_used:
                        out.append(("dim", alias, fk_col, dim, 2.0))
        return out

    def fact_moves(self) -> list[tuple]:
        """Fact attachments: to title (usual) or fact-fact (m-n chain)."""
        out: list[tuple] = []
        for alias, table in self.relations:
            if table == "title":
                for fact in schema.FACTS:
                    out.append(("fact", alias, fact, 3.0))
            elif table in schema.FACTS:
                for fact in schema.FACTS:
                    out.append(("factfact", alias, fact, 0.4))
        return out

    def apply(self, move: tuple) -> None:
        kind = move[0]
        if kind == "fact":
            _, t_alias, fact, _ = move
            f_alias = self.add(fact)
            self.edges.append(JoinEdge(f_alias, "movie_id", t_alias, "id"))
        elif kind == "kind":
            _, t_alias, _, _ = move
            kt = self.add("kind_type")
            self.edges.append(JoinEdge(t_alias, "kind_id", kt, "id"))
            self._dims_used.add(("kind", t_alias))
        elif kind == "dim":
            _, f_alias, fk_col, dim, _ = move
            d_alias = self.add(dim)
            self.edges.append(JoinEdge(f_alias, fk_col, d_alias, "id"))
            self._dims_used.add((f_alias, fk_col))
        elif kind == "factfact":
            _, f_alias, fact, _ = move
            g_alias = self.add(fact)
            self.edges.append(JoinEdge(g_alias, "movie_id", f_alias, "movie_id"))
        else:  # pragma: no cover - defensive
            raise ValueError(kind)

    def _pick(self, moves: list[tuple]) -> None:
        w = np.array([m[-1] for m in moves], dtype=float)
        w /= w.sum()
        self.apply(moves[int(self.rng.choice(len(moves), p=w))])

    def grow_to(self, n_tables: int) -> None:
        """title + a bounded number of facts, the rest dimensions.

        JOB queries keep the fact (m-n link) count low relative to the
        relation count — e.g. the 17-relation queries use ~6 link
        tables and ~10 dimensions. Without this cap, many-fact queries
        have combinatorial true result sizes no engine could execute.
        """
        self.add("title")
        n_facts = min(1 + (n_tables + 2) // 4, n_tables - 1)
        for _ in range(n_facts):
            self._pick(self.fact_moves())
        while len(self.relations) < n_tables:
            dims = self.dim_moves()
            if dims:
                self._pick(dims)
            else:  # every FK slot used — fall back to one more fact
                self._pick(self.fact_moves())


# -- filter value generators ------------------------------------------

def _in_values(rng: np.random.Generator, lo: int, hi: int, k: int) -> tuple:
    """k distinct ints from [lo, hi) as an IN-list (sorted, deterministic)."""
    vals = rng.choice(np.arange(lo, hi), size=min(k, hi - lo), replace=False)
    return tuple(sorted(int(v) for v in vals))


def _benign_filter(rng: np.random.Generator, table: str, col: str) -> Filter:
    r = rng.integers
    if table == "title" and col == "production_year":
        op = "<=" if rng.random() < 0.5 else ">"
        return Filter(col, op, int(r(1950, 2006)))
    if table == "title" and col == "kind_id":
        return Filter(col, "=", int(r(1, 8)))
    if table == "name" and col == "gender":
        return Filter(col, "=", "m" if rng.random() < 0.6 else "f")
    if col == "name_group":
        return Filter(col, "in", _in_values(rng, 1, 51, 5))
    if table == "keyword":
        return Filter(col, "in", _in_values(rng, 2, 21, 3))
    if table == "company_name":
        return Filter(col, "=", str(rng.choice(["[us]", "[gb]", "[de]", "[fr]"])))
    if table in ("info_type",):
        return Filter(col, "in", _in_values(rng, 1, 99, 8))
    if table in ("role_type", "kind_type", "company_type"):
        return Filter(col, "=", int(r(1, schema.FIXED_SIZES[table] + 1)))
    if table == "cast_info":
        return Filter(col, "=", int(r(1, 13)))
    if table == "movie_companies":
        return Filter(col, "=", int(r(1, 5)))
    if table == "movie_info":
        return Filter(col, "in", _in_values(rng, 3, 101, 5))
    if table == "movie_info_idx":
        return Filter(col, "in", _in_values(rng, 2, 21, 3))
    raise KeyError((table, col))  # pragma: no cover


def _nasty_filter(rng: np.random.Generator, table: str, col: str) -> Filter | None:
    """A filter landing on a skew-correlated value, if one exists."""
    if table == "keyword":
        return Filter(col, "=", 1)
    if table == "info_type":
        return Filter(col, "=", 99)
    if table == "title" and col == "production_year":
        return Filter(col, ">", int(rng.integers(2005, 2016)))
    if table == "movie_info_idx":
        return Filter(col, "=", 1)
    if table == "movie_info":
        return Filter(col, "=", int(rng.integers(1, 3)))
    if col == "name_group":
        return Filter(col, "in", (1, 2))
    if table == "company_name":
        return Filter(col, "=", "[us]")
    return None


def _add_filters(
    rng: np.random.Generator, b: _Builder, nasty: bool
) -> dict[str, tuple[Filter, ...]]:
    """JOB-style predicate placement.

    In JOB, every fact table in a query is effectively restricted
    through a selective dimension predicate (a specific keyword,
    company country, info type, …) — that is what keeps result sizes
    small despite deep m-n join chains. We mirror it: each fact alias
    is restricted via one of its attached dimensions (or directly, if
    it has none attached), ``title`` optionally gets a year/kind
    predicate, and "nasty" queries convert one of those predicates to
    a skew-correlated value.
    """
    rels = b.relations
    tbl = dict(rels)
    # dim alias -> owning fact alias (via the single attaching edge).
    dims_of: dict[str, list[str]] = {a: [] for a, _ in rels}
    for e in b.edges:
        for a, other in ((e.left_alias, e.right_alias), (e.right_alias, e.left_alias)):
            if tbl[a] in schema.FACTS and tbl[other] not in schema.FACTS and tbl[other] != "title":
                dims_of[a].append(other)
    filters: dict[str, list[Filter]] = {}

    def put(alias: str, f: Filter) -> None:
        existing = filters.setdefault(alias, [])
        if all(e.col != f.col for e in existing):
            existing.append(f)

    nasty_candidates: list[tuple[str, str, str]] = []  # (alias, table, col)
    for alias, table in rels:
        if table == "title":
            if rng.random() < 0.4:
                put(alias, _benign_filter(rng, "title", "production_year"))
                nasty_candidates.append((alias, "title", "production_year"))
            if rng.random() < 0.15:
                put(alias, _benign_filter(rng, "title", "kind_id"))
    # Facts are restricted, as in JOB: through one of their dimensions
    # when one is attached, else directly. At most ONE fact per query
    # deliberately stays unrestricted (moderate fan-out survives) —
    # several unrestricted m-n links multiply into result sizes no
    # engine could execute.
    fact_aliases = [a for a, t in rels if t in schema.FACTS]
    may_skip = rng.random() < 0.4 and len(rels) < 12
    skip_idx = int(rng.integers(len(fact_aliases))) if fact_aliases else -1
    for idx, alias in enumerate(fact_aliases):
        table = tbl[alias]
        if may_skip and idx == skip_idx:
            continue
        dims = sorted(dims_of[alias])
        if dims:
            d = dims[int(rng.integers(len(dims)))]
            dt = tbl[d]
            col = sorted(schema.FILTERABLE[dt])[
                int(rng.integers(len(schema.FILTERABLE[dt])))
            ]
            put(d, _benign_filter(rng, dt, col))
            nasty_candidates.append((d, dt, col))
        elif table in schema.FILTERABLE:
            col = sorted(schema.FILTERABLE[table])[0]
            put(alias, _benign_filter(rng, table, col))
            nasty_candidates.append((alias, table, col))
    if nasty:
        # Replace one predicate (sometimes two — errors compound, like
        # the double skew in JOB 6d, §IV-D1) with its skew-correlated
        # variant; the alias keeps its position so the join shape is
        # unchanged.
        # Compound errors (two skewed predicates, like JOB 6d's double
        # skew) only on small/mid queries — on the deepest join chains
        # even one skewed predicate produces a huge true result, and
        # two would make the query inexecutable at any plan.
        budget = 2 if (rng.random() < 0.7 and len(rels) < 12) else 1
        converted = 0
        order = list(rng.permutation(len(nasty_candidates)))
        for i in order:
            alias, table, col = nasty_candidates[i]
            f = _nasty_filter(rng, table, col)
            if f is not None:
                filters[alias] = [
                    e for e in filters.get(alias, []) if e.col != f.col
                ] + [f]
                converted += 1
                if converted >= budget:
                    break
        if not converted:
            # No convertible predicate — force one on a keyword/info
            # dimension if present, else on title's year.
            for alias, table in rels:
                f = None
                for col in schema.FILTERABLE.get(table, {}):
                    f = _nasty_filter(rng, table, col)
                    if f is not None:
                        break
                if f is not None:
                    filters[alias] = [
                        e for e in filters.get(alias, []) if e.col != f.col
                    ] + [f]
                    break
    return {a: tuple(fs) for a, fs in filters.items() if fs}


def build_query(name: str, n_tables: int, seed: int) -> QuerySpec:
    """One deterministic JOB-lite query with ``n_tables`` relations."""
    rng = np.random.default_rng(seed)
    b = _Builder(rng)
    b.grow_to(n_tables)
    nasty = rng.random() < 0.55
    fmap = _add_filters(rng, b, nasty)
    relations = tuple(
        Relation(alias=a, table=t, filters=fmap.get(a, ()))
        for a, t in b.relations
    )
    n_mins = int(rng.integers(1, 3))
    idxs = rng.choice(len(b.relations), size=n_mins, replace=False)
    min_cols = tuple(
        (b.relations[i][0], schema.MIN_COL[b.relations[i][1]]) for i in idxs
    )
    return QuerySpec(
        name=name, relations=relations, joins=tuple(b.edges), min_cols=min_cols
    )


def job_lite_workload(seed: int = 7) -> list[QuerySpec]:
    """The full 113-query JOB-lite workload (deterministic in ``seed``)."""
    specs: list[QuerySpec] = []
    i = 0
    for n_tables in sorted(TABLE_COUNT_DISTRIBUTION):
        for _ in range(TABLE_COUNT_DISTRIBUTION[n_tables]):
            i += 1
            specs.append(
                build_query(f"q{i:03d}", n_tables, seed * 100_000 + i)
            )
    return specs


# -- hand-built analogues of the paper's deep-dive queries -------------

def q6d_lite() -> QuerySpec:
    """Analogue of JOB 6d (§IV-D1): popular-keyword skew compounds."""
    return QuerySpec(
        name="q6d_lite",
        relations=(
            Relation("t", "title"),
            Relation("ci", "cast_info"),
            Relation("mk", "movie_keyword"),
            Relation("k", "keyword", (Filter("keyword_group", "=", 1),)),
            Relation("n", "name", (Filter("gender", "=", "m"),)),
        ),
        joins=(
            JoinEdge("ci", "movie_id", "t", "id"),
            JoinEdge("mk", "movie_id", "t", "id"),
            JoinEdge("mk", "keyword_id", "k", "id"),
            JoinEdge("ci", "person_id", "n", "id"),
        ),
        min_cols=(("t", "production_year"),),
    )


def q18a_lite() -> QuerySpec:
    """Analogue of JOB 18a (§IV-D2): it2 ⋈ mi_idx correlation."""
    return QuerySpec(
        name="q18a_lite",
        relations=(
            Relation("t", "title"),
            Relation("ci", "cast_info"),
            Relation("mi", "movie_info"),
            Relation("midx", "movie_info_idx"),
            Relation("it1", "info_type", (Filter("id", "=", 5),)),
            Relation("it2", "info_type", (Filter("id", "=", 99),)),
            Relation("n", "name", (Filter("gender", "=", "m"),)),
        ),
        joins=(
            JoinEdge("ci", "movie_id", "t", "id"),
            JoinEdge("mi", "movie_id", "t", "id"),
            JoinEdge("midx", "movie_id", "t", "id"),
            JoinEdge("mi", "info_type_id", "it1", "id"),
            JoinEdge("midx", "info_type_id", "it2", "id"),
            JoinEdge("ci", "person_id", "n", "id"),
        ),
        min_cols=(("t", "production_year"), ("n", "id")),
    )


def q_nasdaq() -> QuerySpec:
    """The §IV-C companies/trades skew example, on IMDB-lite tables.

    ``keyword`` plays companies (filter selects few but *popular*
    symbols), ``movie_keyword`` plays trades: uniformity underestimates
    the join by orders of magnitude.
    """
    return QuerySpec(
        name="q_nasdaq",
        relations=(
            Relation("k", "keyword", (Filter("keyword_group", "=", 1),)),
            Relation("mk", "movie_keyword"),
        ),
        joins=(JoinEdge("mk", "keyword_id", "k", "id"),),
        min_cols=(("mk", "movie_id"),),
    )
