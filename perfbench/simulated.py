"""Simulated workloads: a unit is one ``Harness.run_query`` call.

Queries run in the outer loop and configs in the inner loop, with
``oracle.release`` after each query, as ``Harness.run_workload`` does.
Every pass builds a fresh ``Harness`` so the oracle's count memo and the
estimators' memos start empty, as they do for anyone running the
workload once.
"""
from __future__ import annotations

import random
import time
import traceback
from dataclasses import dataclass, field

from repro.bench import harness
from repro.core import stats
from repro.imdb import gen, workload

from records import plan_record

CONFIGS = {c.name: c for c in (harness.PG, harness.PERFECT, harness.REOPT32)}
#: How many times a run repeats its set-up to report a median setup_s.
SETUP_REPEATS = 3


@dataclass(frozen=True)
class SimWorkload:
    name: str
    sf: float
    #: queries with more relations than this are left out of a pass.
    max_relations: int
    configs: tuple[str, ...]


@dataclass
class Context:
    workload: SimWorkload
    ds: object
    catalog: object
    specs: list
    harness: object = None


@dataclass
class Unit:
    uid: str
    seconds: float
    record: dict | None = None
    error: str | None = None


@dataclass
class Pass:
    run_s: float
    units: list[Unit]
    counters: dict[str, float] = field(default_factory=dict)
    traced: bool = False
    #: per span name statistics of a traced pass (Tracer.stats).
    stats: dict | None = None


def setup(wl: SimWorkload, data_seed: int, workload_seed: int,
          order_seed: int, out=None) -> Context:
    """Generate, ANALYZE and build the workload (module-qualified calls,
    so a tracer that wrapped them sees them)."""
    ds = gen.generate(sf=wl.sf, seed=data_seed)
    catalog = stats.analyze_pandas(ds)
    specs = [
        q for q in workload.job_lite_workload(workload_seed)
        if len(q.relations) <= wl.max_relations
    ]
    random.Random(order_seed).shuffle(specs)
    ctx = Context(wl, ds, catalog, specs)
    ctx.harness = _new_harness(ctx)
    return ctx


def _new_harness(ctx: Context):
    # Re-optimization adds temp-table statistics to the catalog it is
    # given; a copy keeps every pass's starting catalog the same.
    return harness.Harness(ctx.ds, stats.Catalog(dict(ctx.catalog.stats)))


def run_pass(ctx: Context, tracer=None) -> Pass:
    h = ctx.harness
    configs = [CONFIGS[c] for c in ctx.workload.configs]
    units: list[Unit] = []
    runs: list = []
    t0 = time.perf_counter()
    for spec in ctx.specs:
        for cfg in configs:
            uid = f"{spec.name}/{cfg.name}"
            if tracer is not None:
                tracer.unit = uid
            u0 = time.perf_counter()
            run, error = None, None
            try:
                run = h.run_query(spec, cfg)
            except Exception:  # a failed unit is counted, the pass goes on
                error = traceback.format_exc(limit=3)
            units.append(Unit(uid, time.perf_counter() - u0, error=error))
            runs.append(run)
        if tracer is not None:
            tracer.unit = None
        h.oracle.release(spec.name)
    run_s = time.perf_counter() - t0

    n_estimates = rounds = 0
    for unit, run in zip(units, runs):
        if run is None:
            continue
        prs = run.outcome.planner_results if run.outcome else [run.plan]
        unit.record = plan_record(prs, run.n_replans, run.sim_time)
        n_estimates += unit.record["n_estimates"]
        rounds += run.n_replans
    counters = {
        "enumerate.n_estimates": n_estimates,
        "reopt.rounds": rounds,
        "truecard.n_counts": h.oracle.n_counts,
    }
    close(ctx)
    ctx.harness = _new_harness(ctx)
    return Pass(run_s, units, counters)


def finish(ctx: Context) -> dict:
    """Metrics that are not per pass (none here)."""
    return {}


def close(ctx: Context) -> None:
    ctx.harness.oracle.close()
