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

The planner asks for all of a query's estimates at once:
``cards(spec, masks)`` returns one float64 per connected subset, where
bit ``i`` of a mask stands for ``spec.graph.aliases[i]``; ``card(spec,
subset)`` is the one-subset form. Every distinct connected subset the
planner requests is one estimate, as one "joinrel" is in PostgreSQL —
which is what the paper's Table I counts.

Like PostgreSQL's ``set_baserel_size_estimates``, the PG estimator sizes
each base relation once per query: on the first estimate for a
``spec.name`` it builds that spec's :class:`Factors` (every base
cardinality and join selectivity), and each estimate, under either
estimator, multiplies factors from it. ``cards`` multiplies the factor
table for a whole batch of masks with numpy, in the order the scalar
product used. The factor table relies on one condition: within one
estimator, a name always stands for the same spec, and the statistics
of its tables do not change after its first estimate. Re-optimization
keeps it: every rewritten spec gets a fresh name, and its temp table's
statistics are in the catalog before that name is first estimated.
perfect-(n) keeps no state of its own: each ``cards`` call reads its
truths from the oracle, whose count memo is the one cache of them.
"""
from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

from .query import JoinGraph, QuerySpec, Relation
from .stats import (
    Catalog,
    eq_selectivity,
    in_selectivity,
    range_selectivity,
)
from .truecard import TrueCardinalityOracle


class Factors(NamedTuple):
    """The factors of a spec's PG estimates, computed once per spec."""

    #: the ``spec.graph`` mask each factor needs in a subset, and the
    #: factors: base cardinalities in ``spec.relations`` order, then join
    #: selectivities in ``spec.joins`` order.
    need: np.ndarray
    value: np.ndarray


class PostgresEstimator:
    """Uniformity + independence estimator over ANALYZE statistics."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self._factors: dict[str, Factors] = {}

    # -- public API ----------------------------------------------------
    def card(self, spec: QuerySpec, subset: frozenset[str]) -> float:
        """Estimated cardinality of the connected subset ``subset``."""
        return float(self.cards(spec, [spec.graph.mask(subset)])[0])

    def cards(self, spec: QuerySpec, masks) -> np.ndarray:
        """Estimated cardinalities of connected subsets given as
        ``spec.graph`` masks."""
        f = self.factors(spec)
        # Row i multiplies base cardinalities, then selectivities, each in
        # spec order, with an exact 1.0 for a factor outside mask i: bit
        # for bit the scalar product over the subset, and hash-seed free.
        masks = np.asarray(masks, dtype=np.int64)[:, None]
        factors = np.where((masks & f.need) == f.need, f.value, 1.0)
        return np.maximum(np.multiply.reduce(factors, axis=1), 1.0)

    def factors(self, spec: QuerySpec) -> Factors:
        """``spec``'s base cardinalities and join selectivities, built on
        the first call for ``spec.name``."""
        f = self._factors.get(spec.name)
        if f is None:
            bit = {a: 1 << i for i, a in enumerate(spec.graph.aliases)}
            f = self._factors[spec.name] = Factors(
                need=np.array(
                    [bit[r.alias] for r in spec.relations]
                    + [bit[j.left_alias] | bit[j.right_alias] for j in spec.joins],
                    dtype=np.int64,
                ),
                value=np.array(
                    [self.base_card(r) for r in spec.relations]
                    + [
                        self.join_selectivity(
                            spec.relation(j.left_alias).table,
                            j.left_col,
                            spec.relation(j.right_alias).table,
                            j.right_col,
                        )
                        for j in spec.joins
                    ]
                ),
            )
        return f

    # -- internals -----------------------------------------------------
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
        #: seconds spent inside ``oracle.cards``, summed over all calls.
        self.oracle_time = 0.0

    @property
    def catalog(self) -> Catalog:
        return self.pg.catalog

    def card(self, spec: QuerySpec, subset: frozenset[str]) -> float:
        return float(self.cards(spec, [spec.graph.mask(subset)])[0])

    def cards(self, spec: QuerySpec, masks) -> np.ndarray:
        """Estimates of ``spec.graph`` masks, computed level by level.

        A mask of ≤ n relations is its truth; all of them come from one
        ``oracle.cards`` call, smallest first. A larger mask takes the
        default technique: the estimate of the mask without its
        :func:`_removable` relation r, times r's base cardinality, times
        each selectivity of an edge from r into the mask, clamped at 1.
        """
        g, f = spec.graph, self.pg.factors(spec)
        k = len(spec.relations)
        base = dict(zip(f.need[:k].tolist(), f.value[:k].tolist()))
        joins = list(zip(f.need[k:].tolist(), f.value[k:].tolist()))
        masks = np.asarray(masks, dtype=np.int64).tolist()
        # Close the request under dropping the removable relation.
        drop: dict[int, int] = {}
        todo = list(masks)
        while todo:
            m = todo.pop()
            if m not in drop:
                drop[m] = r = _removable(g, m) if m.bit_count() > max(self.n, 1) else 0
                if r:
                    todo.append(m ^ r)
        order = sorted(drop, key=lambda m: (m.bit_count(), m))
        small = [m for m in order if m.bit_count() <= self.n]
        est = {m: float(max(t, 1)) for m, t in zip(small, self._truths(spec, small))}
        for m in order[len(small):]:
            r = drop[m]
            if not r:  # one relation above n
                est[m] = base[m]
                continue
            card = est[m ^ r] * base[r]
            for need, sel in joins:
                if need & r and need & m == need:
                    card *= sel
            est[m] = max(card, 1.0)
        return np.array([est[m] for m in masks])

    def _truths(self, spec: QuerySpec, masks: list[int]) -> list[int]:
        """``oracle.cards``, timed into :attr:`oracle_time`."""
        t0 = time.perf_counter()
        truths = self.oracle.cards(spec, masks)
        self.oracle_time += time.perf_counter() - t0
        return truths


def _removable(g: JoinGraph, m: int) -> int:
    """Bit of the highest relation whose removal keeps the connected
    ``g`` mask ``m`` (≥ 2 relations) connected."""
    return next(
        1 << i
        for i in reversed(range(m.bit_length()))
        if m >> i & 1 and g.is_connected(m ^ 1 << i)
    )
