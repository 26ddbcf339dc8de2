"""Benchmark + reproduction of paper Table III.

Times the generation of the full 113-query JOB-lite workload and prints
its relation-count distribution; tier-1 checks that it is exactly the
paper's, in tests/test_endtoend_claims.py.
"""
from repro.bench import tables as T
from repro.imdb import workload


def test_table3_workload_distribution(benchmark, capsys):
    specs = benchmark(workload.job_lite_workload)
    ours = T.table3(specs)
    with capsys.disabled():
        print()
        print(
            T.render(
                "TABLE III — queries per relation count",
                ours,
                T.PAPER_TABLE3,
                "# tables",
            )
        )
