"""Runtime benchmark of the re-optimization reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload plan-sf0.01 --seed 1 \\
        --seconds 55 --trace 0

The workloads are defined on the IMDB-lite data of ``--data-seed``
(default 42) and the JOB-lite queries of ``--workload-seed`` (default
7). ``--seed`` shuffles the order in which the queries reach the
program (configs stay in the inner loop); the program only ever sees
the data and queries generated from these seeds. The benchmark
drives the program through its public entry points, times whole passes
over the workload's units until ``--seconds`` are used up, checks every
unit's output, and prints as its last line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of untraced passes:
``run_s``, the median wall time of a pass over all units; ``unit_p50_s``
and ``unit_tail_s``, percentiles over the units of each unit's median
time; ``peak_rss_mb`` of this process; and ``setup_s``, the time to
import the program plus the median of repeated set-ups (generate,
ANALYZE, build the workload, construct the Harness).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, with the tracing overhead. Spans,
the full result with its provenance, and output records for data and
workload seeds that have none stored go to ``perfbench/out/``.

``BENCHMARK.json`` lists the two simulated workloads. The Spark replay
(``--workload spark-replay-sf0.1``) is run by hand: its Spark start-up,
ranking and warm-up alone take about a minute on a 4-core machine, and
one pass of its 9 units about 30 s. ``python3 perfbench/selftest.py``
tests the benchmark itself.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
EXPECTED = HERE / "expected"

#: Why each workload exists and the layer it isolates. Each run must
#: fit several passes into the driver's time budget, so both simulated
#: workloads leave out their largest queries: the three 17-relation
#: queries alone take about 60% of a full 113-query pg + reopt-32 pass,
#: and perfect-17 at SF=0.1 spends about 250 s on the full workload.
WORKLOADS = {
    # The planner does most of the work: bushy DP and the PG estimator
    # take over half of a pass, the oracle the rest. reopt-32's rounds
    # exercise the oracle's write path (temp registration, temp
    # statistics, catalog insert, re-plan).
    "plan-sf0.01": dict(kind="sim", sf=0.01, max_relations=14,
                        configs=("pg", "reopt-32")),
    # The mirror image: the true-cardinality oracle's counting takes
    # nearly all of a pass and the DP about 1%. Its leaf and message
    # caches make memory-for-speed trades show in peak_rss_mb.
    "oracle-sf0.1": dict(kind="sim", sf=0.1, max_relations=8,
                         configs=("perfect-17",)),
    # The only workload where core.executor and Spark do the work;
    # reopt-32 units add physical materialization beside plain reads.
    "spark-replay-sf0.1": dict(kind="replay", sf=0.1, top_n=3, max_rows=5e5,
                               configs=("pg", "perfect-17", "reopt-32"),
                               warmup_passes=1),
}

#: unit_tail_s is the highest whole percentile with at least this many
#: samples above it.
TAIL_BEYOND = 10
LAYERS = ("harness", "reopt", "enumerate", "estimator", "truecard",
          "executor", "spark")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0,
                   help="order in which the queries run (default 0)")
    p.add_argument("--data-seed", type=int, default=42,
                   help="IMDB-lite data seed (default 42)")
    p.add_argument("--workload-seed", type=int, default=7,
                   help="JOB-lite workload seed (default 7)")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measure for this long (whole passes)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=OUT)
    return p.parse_args(argv)


# ---------------------------------------------------------------------
# Statistics.
# ---------------------------------------------------------------------

def nearest_rank(values, p):
    """The ``p``-quantile by nearest rank (an observed value)."""
    vals = sorted(values)
    k = math.ceil(p * len(vals) - 1e-9)
    return vals[min(max(k, 1), len(vals)) - 1]


def tail_percentile(n):
    """p95 for 220 samples, p83 for 62; p50 when there are too few."""
    return max(math.floor(100 * (1 - TAIL_BEYOND / n)), 50) / 100


def median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------
# Provenance.
# ---------------------------------------------------------------------

def provenance(spark_conf=None):
    import duckdb
    import pyspark

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "spark": pyspark.__version__,
        "duckdb": duckdb.__version__,
        "spark_master": (spark_conf or {}).get("master"),
        "spark_driver_memory": (spark_conf or {}).get("driver_memory"),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
    }


# ---------------------------------------------------------------------
# Per-layer metrics from the spans of one traced pass.
# ---------------------------------------------------------------------

def layer_metrics(st, counters):
    """Per-layer metrics of one traced pass (``st``: Tracer.stats())."""
    def calls(n):
        return st[n].calls if n in st else 0

    def total(n):
        return st[n].total_s if n in st else 0.0

    def self_s(*names):
        return sum(st[n].self_s for n in names if n in st)

    layer_self = {
        layer: sum(s.self_s for n, s in st.items() if n.split(".")[0] == layer)
        for layer in LAYERS
    }
    card_calls = calls("truecard.card")
    n_counts = counters.get("truecard.n_counts", 0)
    m = {
        "enumerate.calls": calls("enumerate.plan_query"),
        "enumerate.self_s": layer_self["enumerate"],
        "enumerate.n_estimates": counters.get("enumerate.n_estimates", 0),
        "estimator.pg.calls": calls("estimator.pg.card"),
        "estimator.pg.card_s": total("estimator.pg.card"),
        "estimator.perfect.calls": calls("estimator.perfect.card"),
        "estimator.perfect.self_s": self_s("estimator.perfect.card"),
        "estimator.calls": calls("estimator.pg.card") + calls("estimator.perfect.card"),
        "estimator.self_s": layer_self["estimator"],
        "planning.self_s": layer_self["enumerate"] + layer_self["estimator"],
        "truecard.card_calls": card_calls,
        "truecard.card_s": total("truecard.card"),
        "truecard.n_counts": n_counts,
        "truecard.hit_ratio": 1 - n_counts / card_calls if card_calls else 0.0,
        "truecard.register_temp_s": total("truecard.register_temp"),
        "truecard.temp_stats_s": total("truecard.temp_stats"),
        "truecard.self_s": layer_self["truecard"],
        "reopt.rounds": counters.get("reopt.rounds", 0),
        "reopt.self_s": layer_self["reopt"],
        "reopt.simulate_s": total("reopt.simulated_exec_time"),
        "executor.true_cards_s": total("executor.true_cards"),
        "executor.build_s": self_s("executor.result_df", "executor.node_df"),
        "executor.action_s": total("spark.collect"),
        "executor.materialize_s": total("executor.materialize"),
        "executor.materialize_rows": counters.get("executor.materialize_rows", 0),
        "executor.drop_temp_s": total("executor.drop_temp"),
        "executor.self_s": layer_self["executor"],
        "spark.jobs": counters.get("spark.jobs", 0),
        "spark.stages": counters.get("spark.stages", 0),
        "spark.tasks": counters.get("spark.tasks", 0),
        "spark.self_s": layer_self["spark"],
        "harness.self_s": layer_self["harness"],
        "trace.self_sum_s": sum(layer_self.values()),
    }
    return m


# ---------------------------------------------------------------------
# Tracing targets: the program's public functions, wrapped from here.
# ---------------------------------------------------------------------

def trace_targets():
    """``(owner, attr, span name[, skip_nested])`` for Tracer.install.

    A function imported by name into other modules is wrapped in every
    ``repro`` module that bound it, so each call site is seen.
    """
    from repro.bench import harness
    from repro.core import enumerate as enum
    from repro.core import estimator, executor, reopt, stats, truecard
    from repro.imdb import gen, workload
    from pyspark.sql.classic.dataframe import DataFrame

    oracle, sx = truecard.TrueCardinalityOracle, executor.SparkExecutor
    targets = [
        (harness.Harness, "run_query", "harness.run_query"),
        (harness.Harness, "execute_spark", "harness.execute_spark"),
        (estimator.PostgresEstimator, "card", "estimator.pg.card"),
        (estimator.PerfectEstimator, "card", "estimator.perfect.card"),
        (oracle, "card", "truecard.card"),
        (oracle, "register_temp", "truecard.register_temp"),
        (oracle, "temp_stats", "truecard.temp_stats"),
        (oracle, "release", "truecard.release"),
        (sx, "run", "executor.run"),
        (sx, "result_df", "executor.result_df"),
        (sx, "node_df", "executor.node_df", True),
        (sx, "materialize", "executor.materialize"),
        (sx, "drop_temp", "executor.drop_temp"),
        # The Spark actions a unit waits on: the collect of a result and
        # the count that forces a temp table's materialization.
        (DataFrame, "toPandas", "spark.collect"),
        (DataFrame, "count", "spark.count"),
    ]
    functions = [
        (enum.plan_query, "enumerate.plan_query"),
        (reopt.reoptimize, "reopt.reoptimize"),
        (reopt.simulated_exec_time, "reopt.simulated_exec_time"),
        (reopt.run_reoptimized_spark, "reopt.run_reoptimized_spark"),
        (reopt.cleanup, "reopt.cleanup"),
        (executor.true_cards, "executor.true_cards"),
        (gen.generate, "gen.generate"),
        (stats.analyze_pandas, "stats.analyze_pandas"),
        (workload.job_lite_workload, "workload.job_lite_workload"),
    ]
    for fn, name in functions:
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro")
                    and getattr(mod, fn.__name__, None) is fn):
                targets.append((mod, fn.__name__, name))
    return targets


# ---------------------------------------------------------------------
# The run.
# ---------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} is missing; run the "
              "benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = dict(WORKLOADS[args.workload])
    kind = spec.pop("kind")
    if kind == "sim":
        import simulated as wlmod
        wl = wlmod.SimWorkload(args.workload, **spec)
    else:
        import replay as wlmod
        wl = wlmod.ReplayWorkload(args.workload, **spec)
    from records import RecordBook
    from tracer import Tracer

    import_s = time.perf_counter() - T_START
    tracer = Tracer()
    targets = trace_targets()
    args.out.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-d{args.data_seed}-w{args.workload_seed}"
    book = RecordBook(EXPECTED / f"{tag}.json", args.out / "records" / f"{tag}.json")
    run_tag = f"{tag}-s{args.seed}"

    ctx = None
    try:
        setup_s, setup_stats = [], []
        for _ in range(wlmod.SETUP_REPEATS):
            if ctx is not None:
                wlmod.close(ctx)
            first = len(tracer.spans)
            t0 = time.perf_counter()
            if args.trace:
                with tracer.installed(targets):
                    ctx = wlmod.setup(wl, args.data_seed, args.workload_seed,
                                      args.seed, args.out)
            else:
                ctx = wlmod.setup(wl, args.data_seed, args.workload_seed,
                                  args.seed, args.out)
            setup_s.append(time.perf_counter() - t0)
            setup_stats.append(tracer.stats(first))

        passes, failures, ties = [], [], []
        attempted = failed = 0
        t_meas = time.perf_counter()
        while True:
            # Untraced and traced passes alternate as U T T U U T T U ...,
            # so neither kind always runs first or last.
            traced = bool(args.trace) and len(passes) % 4 in (1, 2)
            first = len(tracer.spans)
            if traced:
                with tracer.installed(targets):
                    p = wlmod.run_pass(ctx, tracer)
                p.stats = tracer.stats(first)
            else:
                p = wlmod.run_pass(ctx, None)
            p.traced = traced
            for u in p.units:
                attempted += 1
                if u.error:
                    problems, tied = [u.error], []
                elif u.record is not None:
                    problems, tied = book.check(u.uid, u.record)
                else:
                    problems, tied = [], []
                if tied:
                    ties.append({"pass": len(passes), "unit": u.uid,
                                 "ties": tied})
                if problems:
                    failed += 1
                    failures.append({"pass": len(passes), "unit": u.uid,
                                     "problems": problems})
            book.write_if_new({"workload": args.workload,
                               "data_seed": args.data_seed,
                               "workload_seed": args.workload_seed})
            passes.append(p)
            elapsed = time.perf_counter() - t_meas
            typical = median([q.run_s for q in passes])
            if elapsed + typical > args.seconds and (
                not args.trace or len(passes) >= 2
            ):
                break
        prov = provenance(getattr(ctx, "spark_conf", None))
        extra = wlmod.finish(ctx)
    finally:
        if ctx is not None:
            wlmod.close(ctx)

    plain = [p for p in passes if not p.traced]
    result = {
        "workload": args.workload, "seed": args.seed,
        "data_seed": args.data_seed, "workload_seed": args.workload_seed,
        "trace": args.trace,
        "provenance": prov, "record_source": str(book.source),
        "passes": [{"run_s": p.run_s, "traced": p.traced, "counters": p.counters,
                    "unit_s": {u.uid: u.seconds for u in p.units}}
                   for p in passes],
        "failures": failures[:50],
        "failed_ratio": failed / attempted,
        "ties": ties,
    }
    if not args.trace:
        # A unit's latency is its median over the passes, so a burst of
        # noise in one pass does not move the percentiles.
        latency = [median([p.units[i].seconds for p in plain])
                   for i in range(len(plain[0].units))]
        pct = tail_percentile(len(latency))
        metrics = {
            "setup_s": (import_s + median(setup_s), "s"),
            "run_s": (median([p.run_s for p in plain]), "s"),
            "unit_p50_s": (median(latency), "s"),
            "unit_tail_s": (nearest_rank(latency, pct), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }
        result["unit_samples"] = len(latency)
        result["unit_tail_percentile"] = pct
        result["import_s"] = import_s
        result["setup_repeats_s"] = setup_s
    else:
        metrics = traced_metrics(passes, setup_stats, extra)
        tracer.dump(args.out / f"spans-{run_tag}.jsonl")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (args.out / f"result-{run_tag}-t{args.trace}.json").write_text(
        json.dumps(result, indent=1, default=str))
    report(result, passes, metrics)
    declared = declared_metrics(args.trace)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: result["metrics"][k] for k in declared or result["metrics"]},
    }))
    return 0


def declared_metrics(trace: int) -> list[str] | None:
    """The metric names BENCHMARK.json declares for this mode, if present.

    The summary above prints every metric; the final line carries the
    declared ones. The others stay zero on some workload (a layer it
    does not use, or Spark outside the replay).
    """
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    bench = json.loads(path.read_text())
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def traced_metrics(passes, setup_stats, extra):
    """Per-layer metrics: medians over the traced passes."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    per_pass = []
    for p in traced:
        m = layer_metrics(p.stats, p.counters)
        m["trace.unaccounted_s"] = p.run_s - m["trace.self_sum_s"]
        per_pass.append(m)
    # Counts stay whole numbers: they repeat exactly from pass to pass.
    out = {k: (statistics.median_low if isinstance(v, int) else median)(
               [m[k] for m in per_pass])
           for k, v in per_pass[0].items()}
    traced_s = median([p.run_s for p in traced])
    plain_s = median([p.run_s for p in plain])
    out["trace.run_s"] = traced_s
    out["trace.untraced_run_s"] = plain_s
    out["trace.overhead_s"] = traced_s - plain_s
    for span, metric in (("gen.generate", "gen.generate_s"),
                         ("stats.analyze_pandas", "stats.analyze_s"),
                         ("workload.job_lite_workload", "workload.build_s")):
        out[metric] = median([st[span].total_s for st in setup_stats if span in st])
    out.update(extra)
    return {k: (v, METRIC_UNITS.get(k, "s" if k.endswith("_s") else "count"))
            for k, v in out.items()}


METRIC_UNITS = {"truecard.hit_ratio": "ratio", "spark.jvm_peak_rss_mb": "MB"}


def report(result, passes, metrics):
    """Human-readable summary (everything before the final JSON line)."""
    print(f"workload {result['workload']} seed={result['seed']} "
          f"data_seed={result['data_seed']} "
          f"workload_seed={result['workload_seed']} trace={result['trace']}")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    print("passes run_s " + " ".join(
        f"{p.run_s:.3f}{'T' if p.traced else ''}" for p in passes))
    print("truecard.n_counts per pass (varies with PYTHONHASHSEED) " + " ".join(
        str(p.counters.get("truecard.n_counts", 0)) for p in passes))
    if "unit_samples" in result:
        print(f"units per pass {result['unit_samples']}; unit_tail_s is "
              f"p{round(result['unit_tail_percentile'] * 100)}")
    print(f"failed_ratio {result['failed_ratio']:.4f} "
          f"(records: {result['record_source']})")
    for f in result["failures"][:5]:
        print(f"  FAILED pass {f['pass']} {f['unit']}: {f['problems'][:3]}")
    print(f"plan ties {len(result['ties'])} (a plan that differs from the "
          "record at equal estimated cost; not counted as failed)")
    for t in result["ties"][:5]:
        print(f"  TIE pass {t['pass']} {t['unit']}: {t['ties']}")
    for k, (v, u) in metrics.items():
        print(f"  {k:28s} {v:14.6g} {u}")
    if result["trace"]:
        m = {k: v for k, (v, _) in metrics.items()}
        print("self time along the blocking path: " + " -> ".join(
            f"{layer} {m[f'{layer}.self_s']:.3f}s" for layer in LAYERS))
        print(f"sum of self times {m['trace.self_sum_s']:.3f}s; traced run_s "
              f"{m['trace.run_s']:.3f}s; untraced run_s "
              f"{m['trace.untraced_run_s']:.3f}s; tracing overhead "
              f"{m['trace.overhead_s']:+.3f}s; outside spans "
              f"{m['trace.unaccounted_s']:.3f}s")
        print(f"self times cover the traced pass to within "
              f"{m['trace.unaccounted_s'] / m['trace.run_s']:.3%}; they differ "
              f"from untraced run_s by the overhead plus that remainder")


if __name__ == "__main__":
    sys.exit(main())
