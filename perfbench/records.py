"""Per-unit output records and their comparison.

A record maps a unit id (``query/config``) to what the program chose
and predicted for it: the plan of every planning round
(``Plan.pretty()``), the number of cardinality estimates, the number of
re-optimization rounds and the simulated execution time. The records
for the default data and workload seeds are stored beside the benchmark
in ``expected/``; for other data or workload seeds the first pass
writes one to the output directory, so later runs and other commits can
be diffed against it.

Plans compare by their text with every number taken out, which is
their tree shape, and by those numbers at a relative tolerance. The
tolerance lets an exact count replace a float64 one (the estimates and
costs printed for sub-joins above 2**53 shift in their last digits)
without reporting a unit as failed, unless the plan itself changes.
"""
from __future__ import annotations

import json
import math
import re
from pathlib import Path

REL_TOL = 1e-9
#: the numbers ``Plan.pretty()`` prints: ``cost=%.1f`` and ``est=%.0f``.
_NUM = re.compile(r"\b(est|cost)=(\S+)")


def plan_record(planner_results, n_replans: int, sim_time: float) -> dict:
    """The record of one simulated unit."""
    return {
        "plans": [pr.plan.pretty() for pr in planner_results],
        "n_estimates": sum(pr.n_estimates for pr in planner_results),
        "n_replans": n_replans,
        "sim_time": sim_time,
    }


def _close(a: float, b: float, decimals: int) -> bool:
    # A printed number is rounded to ``decimals`` places, so two values
    # that agree to REL_TOL may still print one unit of the last place
    # apart.
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=10.0**-decimals)


def _same_text(a: str, b: str) -> bool:
    if _NUM.sub(r"\1=#", a) != _NUM.sub(r"\1=#", b):
        return False
    return all(
        _close(float(x), float(y), len(x.partition(".")[2]))
        for (_, x), (_, y) in zip(_NUM.findall(a), _NUM.findall(b))
    )


def _cost(plan_text: str) -> float:
    return float(_NUM.match(plan_text).group(2))


def diff(expected: dict, got: dict) -> tuple[list[str], list[str]]:
    """``(problems, ties)`` between two unit records; both empty: equal.

    A round whose plan differs but whose estimated cost agrees, in a
    unit whose other fields all match, is a tie rather than a problem:
    the DP broke an exact cost tie the other way. That happens when
    estimates are multiplied in frozenset iteration order, which
    follows ``PYTHONHASHSEED``; ties are reported on their own so the
    defect shows without making the failure count depend on the hash
    seed.
    """
    problems, ties = [], []
    for key in sorted(set(expected) | set(got)):
        e, g = expected.get(key), got.get(key)
        if key == "plans":
            if e is None or g is None or len(e) != len(g):
                problems.append(f"plans: {len(e or [])} rounds vs {len(g or [])}")
                continue
            for i, (x, y) in enumerate(zip(e, g)):
                if _same_text(x, y):
                    continue
                if _close(_cost(x), _cost(y), 1):
                    ties.append(f"plans[{i}] differs at equal cost")
                else:
                    problems.append(f"plans[{i}] differs")
        elif isinstance(e, float) or isinstance(g, float):
            if e is None or g is None or not math.isclose(e, g, rel_tol=REL_TOL):
                problems.append(f"{key}: {e!r} vs {g!r}")
        elif e != g:
            problems.append(f"{key}: {e!r} vs {g!r}")
    if problems:
        return problems + ties, []
    return problems, ties


class RecordBook:
    """Expected unit records for one (workload, data seed, workload seed)."""

    def __init__(self, stored: Path, written: Path):
        self.stored = stored
        self.written = written
        self.source: Path | None = None
        self.expected: dict[str, dict] = {}
        for path in (stored, written):
            if path.exists():
                self.expected = json.loads(path.read_text())["units"]
                self.source = path
                break

    def check(self, unit: str, record: dict) -> tuple[list[str], list[str]]:
        """``diff`` against the expected record; adopts unseen units."""
        if unit not in self.expected:
            if self.source == self.stored:
                return [f"{unit}: no stored record"], []
            self.expected[unit] = record
            return [], []
        return diff(self.expected[unit], record)

    def write_if_new(self, header: dict) -> None:
        """Write the adopted records for seeds that had none stored."""
        if self.source is None:
            self.written.parent.mkdir(parents=True, exist_ok=True)
            body = dict(header, units=self.expected)
            self.written.write_text(json.dumps(body, indent=1, sort_keys=True))
            self.source = self.written
