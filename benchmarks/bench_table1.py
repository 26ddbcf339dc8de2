"""Benchmark + reproduction of paper Table I.

Times the full planning pass (113 queries, PG-style estimator, bushy
DP) that produces the estimate-count table, then prints paper vs ours.
Its shape assertions run in tier-1, in tests/test_endtoend_claims.py.
"""
from repro.bench import tables as T


def test_table1_estimate_counts(benchmark, bench_harness, bench_specs, capsys):
    est = bench_harness.estimator(None)

    ours = benchmark.pedantic(
        lambda: T.table1(bench_specs, est, bench_harness.cost),
        rounds=1,
        iterations=1,
    )
    with capsys.disabled():
        print()
        print(
            T.render(
                "TABLE I — cardinality estimates by join size",
                ours,
                T.PAPER_TABLE1,
                "# tables in join",
            )
        )
