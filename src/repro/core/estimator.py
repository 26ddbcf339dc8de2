"""Cardinality estimators: PostgreSQL-style and perfect-(n).

:class:`PostgresEstimator` reproduces the textbook clause-based scheme
the paper studies (§II-C): per-column statistics for base predicates,
**independence** across predicates, and **uniformity** for equi-join
selectivity (``1/max(ndv_left, ndv_right)``). Join estimates are the
product of filtered base cardinalities and all join-edge selectivities
within the subset — so errors compound exponentially with the number
of joins, as in the paper.

:class:`PerfectEstimator` is the paper's perfect-(n) construct
(§III-B): an oracle supplies the *true* cardinality of every connected
subset of ≤ n relations; larger subsets are estimated with the default
technique, seeded by the (perfect) estimate of a size-(k-1) sub-subset
— so perfect-(n+1) strictly refines perfect-(n), and perfect-(0) is
exactly the PostgreSQL estimator.

Both memoize per ``(spec.name, subset)``; one estimate per "joinrel",
as in PostgreSQL — which is what the paper's Table I counts.
"""
from __future__ import annotations

from .query import QuerySpec, Relation
from .stats import (
    Catalog,
    eq_selectivity,
    in_selectivity,
    range_selectivity,
)
from .truecard import TrueCardinalityOracle


class PostgresEstimator:
    """Uniformity + independence estimator over ANALYZE statistics."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self._memo: dict[tuple[str, frozenset[str]], float] = {}

    # -- public API ----------------------------------------------------
    def card(self, spec: QuerySpec, subset: frozenset[str]) -> float:
        """Estimated cardinality of the connected subset ``subset``."""
        key = (spec.name, subset)
        if key not in self._memo:
            self._memo[key] = self._estimate(spec, subset)
        return self._memo[key]

    # -- internals -----------------------------------------------------
    def _estimate(self, spec: QuerySpec, subset: frozenset[str]) -> float:
        card = 1.0
        for r in spec.relations:  # spec order: the product is hash-seed free
            if r.alias in subset:
                card *= self.base_card(r)
        for j in spec.joins:
            if j.aliases <= subset:
                card *= self.join_selectivity(
                    spec.relation(j.left_alias).table,
                    j.left_col,
                    spec.relation(j.right_alias).table,
                    j.right_col,
                )
        return max(card, 1.0)

    def base_card(self, rel: Relation) -> float:
        """|table| × ∏ filter selectivities (independence)."""
        ts = self.catalog.table(rel.table)
        card = float(ts.n_rows)
        for f in rel.filters:
            cs = ts.columns[f.col]
            if f.op == "=":
                card *= eq_selectivity(cs, f.value)
            elif f.op == "in":
                card *= in_selectivity(cs, f.value)
            else:
                card *= range_selectivity(cs, f.op, f.value)
        return max(card, 1.0)

    def join_selectivity(
        self, ltable: str, lcol: str, rtable: str, rcol: str
    ) -> float:
        """Equi-join selectivity 1/max(ndv, ndv) — the uniformity rule."""
        lndv = max(self.catalog.column(ltable, lcol).ndv, 1)
        rndv = max(self.catalog.column(rtable, rcol).ndv, 1)
        return 1.0 / max(lndv, rndv)


class PerfectEstimator:
    """perfect-(n): true cardinalities for subsets of ≤ n relations.

    ``n = 0`` degenerates to the plain PostgreSQL estimator;
    ``n >= len(query)`` is the paper's perfect-(17).
    """

    def __init__(
        self, n: int, oracle: TrueCardinalityOracle, catalog: Catalog
    ):
        if n < 0:
            raise ValueError("n must be >= 0")
        self.n = n
        self.oracle = oracle
        self.pg = PostgresEstimator(catalog)
        self._memo: dict[tuple[str, frozenset[str]], float] = {}

    @property
    def catalog(self) -> Catalog:
        return self.pg.catalog

    def card(self, spec: QuerySpec, subset: frozenset[str]) -> float:
        key = (spec.name, subset)
        if key not in self._memo:
            self._memo[key] = self._estimate(spec, subset)
        return self._memo[key]

    def _estimate(self, spec: QuerySpec, subset: frozenset[str]) -> float:
        if len(subset) <= self.n:
            return float(max(self.oracle.card(spec, subset), 1))
        if len(subset) == 1:
            return self.pg.base_card(spec.relation(next(iter(subset))))
        # Default technique above n: extend a (recursively estimated)
        # sub-subset by one relation with uniformity join selectivity.
        r = self._removable(spec, subset)
        rest = subset - {r}
        card = self.card(spec, rest) * self.pg.base_card(spec.relation(r))
        for j in spec.joins:
            if r in j.aliases and j.aliases <= subset:
                card *= self.pg.join_selectivity(
                    spec.relation(j.left_alias).table,
                    j.left_col,
                    spec.relation(j.right_alias).table,
                    j.right_col,
                )
        return max(card, 1.0)

    def _removable(self, spec: QuerySpec, subset: frozenset[str]) -> str:
        """Deterministic alias whose removal keeps ``subset`` connected."""
        g = spec.graph
        m = g.mask(subset)
        for a in sorted(subset, reverse=True):
            if len(subset) == 1 or g.is_connected(m ^ (1 << g.index[a])):
                return a
        raise AssertionError(f"no removable alias in {sorted(subset)}")
