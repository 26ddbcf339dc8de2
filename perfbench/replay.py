"""Spark replay workload: a unit is one ``Harness.execute_spark`` call.

Set-up starts a local Spark session configured as the test suite's
``conftest.py`` configures it (``local[nproc]``, 64 shuffle partitions,
broadcast joins off, Arrow on), generates the data, builds the
base-table DataFrames, ranks the executable queries (true result at
most ``max_rows`` rows) by PG simulated time as
``benchmarks/bench_top20_spark.py`` does, and chooses the plans of the
top ``top_n`` under every config. Warm-up passes follow, because the
JVM's pass times keep falling for several passes.

A unit executes an already chosen plan; under reopt-32 it also
materializes every temp table (``persist`` + ``count``). Its result row
is checked against ``TrueCardinalityOracle.result`` of the original
query, computed in DuckDB during set-up.
"""
from __future__ import annotations

import math
import os
import random
import subprocess
import tempfile
import time
import traceback
from dataclasses import dataclass

from repro.bench import harness
from repro.core import executor, stats
from repro.imdb import gen, workload

from simulated import CONFIGS, Pass, Unit

#: Spark start-up, ranking and planning are too slow to repeat.
SETUP_REPEATS = 1


@dataclass(frozen=True)
class ReplayWorkload:
    name: str
    sf: float
    top_n: int
    max_rows: float
    configs: tuple[str, ...]
    warmup_passes: int


@dataclass
class Context:
    workload: ReplayWorkload
    spark: object
    harness: object
    executor: object
    #: (unit id, spec, QueryRun with the chosen plan, expected row)
    units: list
    spark_conf: dict
    n_passes: int = 0


def _start_spark(out):
    from pyspark.sql import SparkSession

    tmp = (out / "tmp").resolve()
    tmp.mkdir(parents=True, exist_ok=True)
    # py4j's connection file and the JVM's temp files stay in the
    # checkout, as do Spark's shuffle and spill files.
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    os.environ["PYSPARK_SUBMIT_ARGS"] = "pyspark-shell"
    conf = {
        "master": f"local[{len(os.sched_getaffinity(0))}]",
        "driver_memory": os.environ.get("SPARK_DRIVER_MEM", "2g"),
    }
    spark = (
        SparkSession.builder.appName("perfbench")
        .master(conf["master"])
        .config("spark.driver.memory", conf["driver_memory"])
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.local.dir", str(tmp))
        .config("spark.driver.extraJavaOptions",
                f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark, conf


class _RowKeepingExecutor(executor.SparkExecutor):
    """Keeps the row of every ``run``; ``execute_spark`` returns only the
    wall time, and the row is what the check compares."""

    def __init__(self, spark, ds):
        super().__init__(spark, ds)
        self.rows: list = []

    def run(self, spec, root):
        res = super().run(spec, root)
        self.rows.append(res.row)
        return res


def setup(wl: ReplayWorkload, data_seed: int, workload_seed: int,
          order_seed: int, out) -> Context:
    spark, conf = _start_spark(out)
    ds = gen.generate(sf=wl.sf, seed=data_seed)
    catalog = stats.analyze_pandas(ds)
    specs = workload.job_lite_workload(workload_seed)
    h = harness.Harness(ds, catalog)
    for table in ds.tables:
        ds.spark_df(spark, table)

    executable = [q for q in specs if h.oracle.card(q) <= wl.max_rows]
    pg_time = {}
    for q in executable:
        pg_time[q.name] = h.run_query(q, CONFIGS["pg"]).sim_time
        h.oracle.release(q.name)
    top = sorted(executable, key=lambda q: -pg_time[q.name])[: wl.top_n]
    random.Random(order_seed).shuffle(top)

    units = []
    for q in top:
        expected = h.oracle.result(q)
        for name in wl.configs:
            run = h.run_query(q, CONFIGS[name], keep_temps=True)
            units.append((f"{q.name}/{name}", q, run, expected))
        h.oracle.release(q.name)

    ctx = Context(wl, spark, h, _RowKeepingExecutor(spark, ds), units, conf)
    for _ in range(wl.warmup_passes):
        run_pass(ctx)
    return ctx


def _row_problems(got, expected) -> list[str]:
    """Compare one result row by position: COUNT, then each MIN."""
    g = list(got.iloc[0]) if len(got) else []
    e = list(expected.iloc[0]) if len(expected) else []
    if len(g) != len(e):
        return [f"result has {len(g)} columns, expected {len(e)}"]
    out = []
    for i, (x, y) in enumerate(zip(g, e)):
        x_null = x is None or (isinstance(x, float) and math.isnan(x))
        y_null = y is None or (isinstance(y, float) and math.isnan(y))
        if x_null and y_null:
            continue
        if x_null != y_null or not math.isclose(float(x), float(y), rel_tol=1e-9):
            out.append(f"column {i} ({expected.columns[i]}): {x!r} vs {y!r}")
    return out


def run_pass(ctx: Context, tracer=None) -> Pass:
    sc = ctx.spark.sparkContext
    ctx.n_passes += 1
    groups = []
    units: list[Unit] = []
    t0 = time.perf_counter()
    for uid, spec, run, expected in ctx.units:
        group = f"pass{ctx.n_passes}:{uid}"
        groups.append(group)
        sc.setJobGroup(group, uid)
        if tracer is not None:
            tracer.unit = uid
        ctx.executor.rows.clear()
        u0 = time.perf_counter()
        try:
            ctx.harness.execute_spark(spec, run, ctx.executor)
            seconds = time.perf_counter() - u0
            problems = _row_problems(ctx.executor.rows[-1], expected)
            error = "; ".join(problems) if problems else None
        except Exception:  # a failed unit is counted, the pass goes on
            seconds = time.perf_counter() - u0
            error = traceback.format_exc(limit=3)
        units.append(Unit(uid, seconds, error=error))
    run_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.unit = None

    # Spark keeps the last 1000 stages; a pass of the top 3 queries has
    # about 360, so every stage of this pass is still there.
    tracker = sc.statusTracker()
    jobs = [j for g in groups for j in tracker.getJobIdsForGroup(g)]
    stage_ids = [s for j in jobs for s in tracker.getJobInfo(j).stageIds]
    infos = [tracker.getStageInfo(s) for s in stage_ids]
    counters = {
        "spark.jobs": len(jobs),
        "spark.stages": len(stage_ids),
        "spark.tasks": sum(i.numTasks for i in infos if i is not None),
        "executor.materialize_rows": sum(
            step.rows for _, _, run, _ in ctx.units if run.outcome
            for step in run.outcome.steps
        ),
    }
    return Pass(run_s, units, counters)


def finish(ctx: Context) -> dict:
    pid = ctx.spark.sparkContext._gateway.proc.pid
    with open(f"/proc/{pid}/status") as fh:
        kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return {"spark.jvm_peak_rss_mb": kb / 1024}


def close(ctx: Context) -> None:
    """Stop Spark and wait for its JVM to exit."""
    gateway = ctx.spark.sparkContext._gateway
    ctx.spark.stop()
    gateway.shutdown()
    gateway.proc.stdin.close()
    try:
        gateway.proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        gateway.proc.kill()
        gateway.proc.wait(timeout=60)
