"""Reproductions of the paper's evaluation tables (I, II, III, VI).

Each ``tableN`` function computes our numbers; ``PAPER_TABLEN`` holds
the published numbers, and :func:`render` lays the two out side by side
for ``python -m repro.bench`` and ``benchmarks/`` (the substrate
differs, so the *shape* — not the absolute values — is the claim under
test; see EXPERIMENTS.md).
"""
from __future__ import annotations

import math
from collections import Counter

from ..core.cost import CostModel
from ..core.enumerate import plan_query
from ..core.query import QuerySpec
from .harness import QueryRun

# -- Table I: # cardinality estimates on joins of N tables -------------

PAPER_TABLE1: dict[int, int] = {
    1: 977, 2: 1346, 3: 2676, 4: 4493, 5: 6510, 6: 8387, 7: 9781,
    8: 10326, 9: 9732, 10: 8019, 11: 5665, 12: 3357, 13: 1630,
    14: 624, 15: 177, 16: 33, 17: 3,
}


def table1(specs: list[QuerySpec], estimator, cost: CostModel) -> dict[int, int]:
    """Plan every query; count cardinality estimates by subset size."""
    total: Counter = Counter()
    for spec in specs:
        total.update(plan_query(spec, estimator, cost).est_by_size)
    return dict(sorted(total.items()))


# -- Tables II / VI: runtime relative to perfect-(17), bucketed --------

BUCKETS: tuple[tuple[float, float], ...] = (
    (0.1, 0.8),
    (0.8, 1.2),
    (1.2, 2.0),
    (2.0, 5.0),
    (5.0, math.inf),
)

BUCKET_LABELS: tuple[str, ...] = (
    "0.1 - 0.8", "0.8 - 1.2", "1.2 - 2.0", "2.0 - 5.0", "> 5.0",
)

PAPER_TABLE2: dict[str, int] = {
    "0.1 - 0.8": 7, "0.8 - 1.2": 32, "1.2 - 2.0": 28,
    "2.0 - 5.0": 32, "> 5.0": 14,
}

PAPER_TABLE6: dict[str, int] = {
    "0.1 - 0.8": 6, "0.8 - 1.2": 47, "1.2 - 2.0": 21,
    "2.0 - 5.0": 29, "> 5.0": 10,
}


def relative_runtimes(
    runs: dict[str, QueryRun], baseline: dict[str, QueryRun]
) -> dict[str, float]:
    """Per-query execution time relative to the baseline config."""
    out: dict[str, float] = {}
    for name, r in runs.items():
        b = baseline[name]
        out[name] = r.sim_time / max(b.sim_time, 1e-12)
    return out


def bucketize(ratios: dict[str, float]) -> dict[str, int]:
    """The paper's five relative-runtime buckets."""
    counts = dict.fromkeys(BUCKET_LABELS, 0)
    for ratio in ratios.values():
        for (lo, hi), label in zip(BUCKETS, BUCKET_LABELS):
            if lo <= ratio < hi or (label == "0.1 - 0.8" and ratio < 0.1):
                counts[label] += 1
                break
    return counts


def table2(
    pg_runs: dict[str, QueryRun], perfect_runs: dict[str, QueryRun]
) -> dict[str, int]:
    """PG-estimate runtimes relative to perfect-(17), bucketed."""
    return bucketize(relative_runtimes(pg_runs, perfect_runs))


def table6(
    reopt_runs: dict[str, QueryRun], perfect_runs: dict[str, QueryRun]
) -> dict[str, int]:
    """Re-optimized runtimes relative to perfect-(17), bucketed."""
    return bucketize(relative_runtimes(reopt_runs, perfect_runs))


# -- Table III: # queries per relation count ---------------------------

PAPER_TABLE3: dict[int, int] = {
    4: 3, 5: 20, 6: 2, 7: 16, 8: 21, 9: 14, 10: 7, 11: 10, 12: 11,
    14: 6, 17: 3,
}


def table3(specs: list[QuerySpec]) -> dict[int, int]:
    out: Counter = Counter(len(s.relations) for s in specs)
    return dict(sorted(out.items()))


# -- rendering ---------------------------------------------------------

def render(title: str, ours: dict, paper: dict, key_header: str) -> str:
    """Side-by-side 'paper vs ours' fixed-width table."""
    keys = list(dict.fromkeys(list(paper) + list(ours)))
    lines = [
        title,
        f"{key_header:>16} | {'paper':>8} | {'ours':>8}",
        "-" * 40,
    ]
    for k in keys:
        lines.append(
            f"{str(k):>16} | {str(paper.get(k, '-')):>8} | "
            f"{str(ours.get(k, '-')):>8}"
        )
    lines.append(
        f"{'total':>16} | {sum(paper.values()):>8} | {sum(ours.values()):>8}"
    )
    return "\n".join(lines)
