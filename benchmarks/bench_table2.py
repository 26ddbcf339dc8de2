"""Benchmark + reproduction of paper Table II.

The full 2×113-query experiment lives in the shared ``full_results``
session fixture; this test times one representative (query, config)
unit — planning + simulated execution of the longest query under
perfect-(17) — and prints the whole table, paper vs ours. Its shape
assertions run in tier-1, in tests/test_endtoend_claims.py.
"""
import dataclasses

from repro.bench import tables as T
from repro.bench.harness import PERFECT


def test_table2_pg_vs_perfect(
    benchmark, bench_harness, bench_specs, full_results, capsys
):
    pg, pf = full_results["pg"], full_results["perfect-17"]
    longest = max(bench_specs, key=lambda q: pg[q.name].sim_time)

    benchmark.pedantic(
        # A new spec object each round: the harness would reuse the
        # round 0 it planned for the same object last time.
        lambda: bench_harness.run_query(dataclasses.replace(longest), PERFECT),
        rounds=3,
        iterations=1,
    )

    ours = T.table2(pg, pf)
    with capsys.disabled():
        print()
        print(
            T.render(
                "TABLE II — PG runtime relative to perfect-(17)",
                ours,
                T.PAPER_TABLE2,
                "rel. runtime",
            )
        )
