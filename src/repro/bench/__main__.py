"""Reproduce one of the paper's tables or sweeps and print it.

    python -m repro.bench table {1,2,3,6} [--sf SF] [--seed SEED]
    python -m repro.bench sweep {threshold,perfect} [--sf SF] [--seed SEED]

``--sf`` is the IMDB-lite scale factor (tests use 0.01, benchmarks 0.1)
and ``--seed`` the data seed; the output is deterministic in both,
except the threshold sweep's wall-clock planning seconds. Tables print
the paper's numbers next to ours. The Spark wall-clock top-N replay is
``benchmarks/bench_top20_spark.py``.
"""
from __future__ import annotations

import argparse

from ..core.stats import analyze_pandas
from ..imdb import gen, workload
from . import tables as T
from .harness import PERFECT, PG, REOPT32, Config, Harness, total_times


def table1(h: Harness, specs) -> None:
    """Table I: plan every query with PG estimates and count one estimate
    per connected subset, by subset size (a hump around 8-way joins)."""
    ours = T.table1(specs, h.estimator(None), h.cost)
    print(T.render("TABLE I — cardinality estimates by join size",
                   ours, T.PAPER_TABLE1, "# tables in join"))


def table2(h: Harness, specs) -> None:
    """Table II: PG runtimes relative to perfect-(17), bucketed."""
    res = h.run_workload(specs, [PG, PERFECT])
    pg, pf = res["pg"], res["perfect-17"]
    print(T.render("TABLE II — PG runtime relative to perfect-(17)",
                   T.table2(pg, pf), T.PAPER_TABLE2, "rel. runtime"))
    tot_pg, tot_pf = total_times(pg)[0], total_times(pf)[0]
    print(
        f"\nwhole-benchmark simulated execution: pg={tot_pg:.4g} "
        f"perfect-17={tot_pf:.4g} ({tot_pg / tot_pf:.2f}x; paper: ~2x)"
    )


def table3(h: Harness, specs) -> None:
    """Table III: queries per relation count, re-derived from the specs."""
    print(T.render("TABLE III — queries per relation count",
                   T.table3(specs), T.PAPER_TABLE3, "# tables"))


def table6(h: Harness, specs) -> None:
    """Table VI: re-optimized (τ=32) runtimes relative to perfect-(17),
    with Table II for contrast."""
    res = h.run_workload(specs, [PG, PERFECT, REOPT32])
    pg, pf, ro = res["pg"], res["perfect-17"], res["reopt-32"]
    print(T.render("TABLE VI — re-optimized runtime relative to perfect-(17)",
                   T.table6(ro, pf), T.PAPER_TABLE6, "rel. runtime"))
    print(T.render("\n(for contrast) TABLE II — PG relative to perfect-(17)",
                   T.table2(pg, pf), T.PAPER_TABLE2, "rel. runtime"))
    tot_pg, tot_pf, tot_ro = (total_times(r)[0] for r in (pg, pf, ro))
    print(
        f"\nreopt improves the whole benchmark by "
        f"{100 * (1 - tot_ro / tot_pg):.1f}% over PG (paper: 45%), "
        f"capturing {(tot_pg - tot_ro) / (tot_pg - tot_pf):.0%} of the "
        f"benefit of perfect estimates (paper: 'more than half')"
    )


def threshold_sweep(h: Harness, specs) -> None:
    """Fig. 7: execution + planning time vs re-optimization threshold τ,
    against PG and perfect-(17) (τ=2 near the best, high τ → PG)."""
    thresholds = [2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]
    configs = [PG, PERFECT] + [
        Config(f"reopt-{int(t)}", reopt_threshold=t) for t in thresholds
    ]
    res = h.run_workload(specs, configs)
    tot_pg = total_times(res["pg"])[0]
    print(f"{'config':>12} | {'exec (sim units)':>16} | {'planning s':>10} | vs PG")
    print("-" * 60)
    for c in configs:
        ex, pl = total_times(res[c.name])
        print(
            f"{c.name:>12} | {ex:>16.4g} | {pl:>10.2f} | "
            f"{100 * (1 - ex / tot_pg):+.1f}%"
        )
    best = min(
        (c.name for c in configs if c.name.startswith("reopt")),
        key=lambda n: total_times(res[n])[0],
    )
    print(f"\nbest threshold: {best} (paper: τ=32 best, τ=2 within ~10%)")


def perfect_sweep(h: Harness, specs) -> None:
    """Figs. 2 and 8: execution time under perfect-(n), with and without
    re-optimization (τ=32); a marked drop only from perfect-(4)."""
    ns = [0, 1, 2, 3, 4, 5, 6, 8, 10, 13, 17]
    configs = []
    for n in ns:
        configs.append(Config(f"perfect-{n}", perfect_n=n))
        configs.append(
            Config(f"perfect-{n}+reopt", perfect_n=n, reopt_threshold=32.0)
        )
    res = h.run_workload(specs, configs)
    print(f"{'n':>4} | {'perfect-(n)':>14} | {'+reopt(32)':>14} | reopt gain")
    print("-" * 56)
    for n in ns:
        a = total_times(res[f"perfect-{n}"])[0]
        b = total_times(res[f"perfect-{n}+reopt"])[0]
        print(f"{n:>4} | {a:>14.4g} | {b:>14.4g} | {100 * (1 - b / a):+.1f}%")


EXPERIMENTS = {
    ("table", "1"): table1,
    ("table", "2"): table2,
    ("table", "3"): table3,
    ("table", "6"): table6,
    ("sweep", "threshold"): threshold_sweep,
    ("sweep", "perfect"): perfect_sweep,
}


def main(argv: list[str] | None = None) -> None:
    p = argparse.ArgumentParser(
        prog="python -m repro.bench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("kind", choices=["table", "sweep"])
    p.add_argument("which", help="1, 2, 3 or 6 (table); threshold or perfect (sweep)")
    p.add_argument("--sf", type=float, default=0.01, help="scale factor")
    p.add_argument("--seed", type=int, default=42, help="data seed")
    args = p.parse_args(argv)
    run = EXPERIMENTS.get((args.kind, args.which))
    if run is None:
        p.error(f"unknown experiment: {args.kind} {args.which}")
    ds = gen.generate(sf=args.sf, seed=args.seed)
    run(Harness(ds, analyze_pandas(ds)), workload.job_lite_workload())


if __name__ == "__main__":
    main()
