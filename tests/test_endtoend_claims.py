"""End-to-end reproduction of the paper's headline claims (simulated).

Runs the full 113-query JOB-lite workload under PG estimates,
perfect-(17), and re-optimization(τ=32) — the same run the Table II /
Table VI benchmarks report — and asserts the paper's *qualitative*
claims hold on our substrate:

* perfect estimates substantially beat PG estimates end-to-end (§III);
* re-optimization recovers most of that benefit (§V-C, abstract);
* the top-20 longest queries dominate and improve by tens of percent
  (Fig. 1: 27% reopt / ~35% perfect);
* re-optimization shifts the Table II distribution toward 0.8–1.2 and
  shrinks the > 5 tail (Table VI).

It also pins the run's outputs, unit by unit, against a golden file, so a
speed-up that moves any plan, cost or simulated time fails here. A second
golden file pins the same run at SF=0.1, the bench scale, where counts and
messages are ten times larger. After a deliberate output change,
regenerate both with ``PYTHONPATH=src python -m tests.test_endtoend_claims``
and explain the difference in CHANGES.md.
"""
import hashlib
import json
from pathlib import Path

import pytest

from repro.bench import tables as T
from repro.bench.harness import PG, PERFECT, REOPT32, Harness, total_times
from repro.core.stats import analyze_pandas
from repro.imdb import gen, workload

from .conftest import SEED, SF

#: SF=0.1 is the bench scale; it is pinned by its digests alone.
BENCH_SF = 0.1
GOLDEN, GOLDEN_BENCH = (
    Path(__file__).parent / "golden" / f"endtoend_sf{sf}_seed{SEED}.json"
    for sf in (SF, BENCH_SF)
)


@pytest.fixture(scope="session")
def full_results(harness, specs):
    return harness.run_workload(specs, [PG, PERFECT, REOPT32])


def run_full(sf: float):
    """The 113 queries under pg, perfect-17 and reopt-32 on fresh data of
    scale ``sf``."""
    ds = gen.generate(sf=sf, seed=SEED)
    return Harness(ds, analyze_pandas(ds)).run_workload(
        workload.job_lite_workload(), [PG, PERFECT, REOPT32]
    )


@pytest.fixture(scope="session")
def bench_results():
    return run_full(BENCH_SF)


def unit_digest(run) -> str:
    """SHA-256 of a run's outputs: every planning round's plan tree,
    exact estimated cost and estimates by subset size, then the
    simulated time."""
    parts = []
    for pr in run.outcome.planner_results:
        parts += [
            pr.plan.pretty(),
            repr(pr.plan.est_cost),
            repr(sorted(pr.est_by_size.items())),
        ]
    parts.append(repr(run.sim_time))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def unit_digests(results) -> dict[str, str]:
    """``{"query/config": digest}`` for every unit of a workload run."""
    return {
        f"{name}/{config}": unit_digest(run)
        for config, runs in results.items()
        for name, run in runs.items()
    }


def assert_matches_golden(results, path: Path) -> None:
    golden = json.loads(path.read_text())
    got = unit_digests(results)
    assert sorted(got) == sorted(golden)
    drifted = sorted(u for u in golden if got[u] != golden[u])
    assert not drifted, f"outputs differ from {path.name} for {drifted}"


def test_outputs_match_golden(full_results):
    assert_matches_golden(full_results, GOLDEN)


def test_bench_scale_outputs_match_golden(bench_results):
    assert_matches_golden(bench_results, GOLDEN_BENCH)


def test_perfect_beats_pg_substantially(full_results):
    pg = total_times(full_results["pg"])[0]
    pf = total_times(full_results["perfect-17"])[0]
    assert pg / pf > 1.4  # paper: ~2x


def test_reopt_recovers_most_of_perfect_benefit(full_results):
    pg = total_times(full_results["pg"])[0]
    pf = total_times(full_results["perfect-17"])[0]
    ro = total_times(full_results["reopt-32"])[0]
    frac = (pg - ro) / (pg - pf)
    assert frac > 0.5  # paper: "more than half of the benefit"


def test_reopt_improves_whole_benchmark(full_results):
    pg = total_times(full_results["pg"])[0]
    ro = total_times(full_results["reopt-32"])[0]
    assert 1 - ro / pg > 0.2  # paper: 45%


def test_top20_improvement_band(full_results, specs):
    pg = full_results["pg"]
    top20 = sorted(specs, key=lambda q: -pg[q.name].sim_time)[:20]
    s_pg = sum(pg[q.name].sim_time for q in top20)
    s_ro = sum(full_results["reopt-32"][q.name].sim_time for q in top20)
    s_pf = sum(full_results["perfect-17"][q.name].sim_time for q in top20)
    assert 0.15 < 1 - s_ro / s_pg < 0.75  # paper: 27%
    assert 0.15 < 1 - s_pf / s_pg < 0.75  # paper: ~35%


def test_top20_dominates_benchmark(full_results, specs):
    """'Just 20 sub-optimal queries slow execution time by 2x' (§I)."""
    pg = full_results["pg"]
    total = total_times(pg)[0]
    top20 = sorted(pg.values(), key=lambda r: -r.sim_time)[:20]
    assert sum(r.sim_time for r in top20) / total > 0.5


def test_table2_has_heavy_tail(full_results):
    t2 = T.table2(full_results["pg"], full_results["perfect-17"])
    assert t2["> 5.0"] >= 5  # paper: 14
    assert t2["2.0 - 5.0"] + t2["> 5.0"] >= 20  # paper: 46


def test_table6_shifts_mass_toward_optimal(full_results):
    t2 = T.table2(full_results["pg"], full_results["perfect-17"])
    t6 = T.table6(full_results["reopt-32"], full_results["perfect-17"])
    assert t6["0.8 - 1.2"] > t2["0.8 - 1.2"]
    tail2 = t2["2.0 - 5.0"] + t2["> 5.0"]
    tail6 = t6["2.0 - 5.0"] + t6["> 5.0"]
    assert tail6 < tail2


def test_most_queries_within_2x_of_perfect(full_results):
    """§IV: 'nearly 60% of queries within two times of perfect'."""
    t2 = T.table2(full_results["pg"], full_results["perfect-17"])
    within = t2["0.1 - 0.8"] + t2["0.8 - 1.2"] + t2["1.2 - 2.0"]
    assert within / 113 > 0.5


def test_reopt_planning_time_overhead_is_modest(full_results):
    """§V-A: re-optimizing increases planning time by well under 2x."""
    pg_plan = total_times(full_results["pg"])[1]
    ro_plan = total_times(full_results["reopt-32"])[1]
    assert ro_plan < 3 * pg_plan


def test_reopt_rarely_catastrophic(full_results):
    """§V-D: a few queries get slower, none dominate the benchmark."""
    worse = [
        n
        for n in full_results["pg"]
        if full_results["reopt-32"][n].sim_time
        > 2 * full_results["pg"][n].sim_time
    ]
    assert len(worse) <= 15


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    for sf, path in ((SF, GOLDEN), (BENCH_SF, GOLDEN_BENCH)):
        path.write_text(json.dumps(unit_digests(run_full(sf)), indent=1, sort_keys=True) + "\n")
