"""Harness tests on a small workload slice (simulation + Spark pass)."""
import pytest

from repro.bench.harness import PG, PERFECT, REOPT32, Config, Harness, total_times
from repro.core.estimator import PerfectEstimator, PostgresEstimator
from repro.core.executor import SparkExecutor, true_cards


@pytest.fixture(scope="module")
def slice_specs(specs):
    # 6 queries spanning sizes, including known-nasty ones.
    names = {"q001", "q004", "q024", "q040", "q069", "q094"}
    return [s for s in specs if s.name in names]


@pytest.fixture(scope="module")
def results(harness, slice_specs):
    return harness.run_workload(slice_specs, [PG, PERFECT, REOPT32])


def test_configs_and_queries_covered(results, slice_specs):
    assert set(results) == {"pg", "perfect-17", "reopt-32"}
    for runs in results.values():
        assert set(runs) == {s.name for s in slice_specs}


def test_run_fields(results):
    for cfg, runs in results.items():
        for r in runs.values():
            assert r.sim_time > 0
            assert r.planning_time > 0
            assert r.config == cfg


def test_plain_runs_are_zero_round_outcomes(harness, results, slice_specs):
    for cfg in ("pg", "perfect-17"):
        for spec in slice_specs:
            r = results[cfg][spec.name]
            assert r.n_replans == 0 and len(r.outcome.planner_results) == 1
            root = r.outcome.final_plan.plan.root
            cards = true_cards(spec, root, harness.oracle)
            assert r.sim_time == harness.sim.plan_time(root, cards)


def test_perfect_not_slower_than_pg_on_slice_total(results):
    assert total_times(results["perfect-17"])[0] <= total_times(results["pg"])[0]


def test_reopt_replans_only_on_misestimated(results):
    assert any(r.n_replans > 0 for r in results["reopt-32"].values())
    assert all(r.n_replans == 0 for r in results["pg"].values())


def test_estimator_cache(harness):
    assert isinstance(harness.estimator(None), PostgresEstimator)
    e = harness.estimator(3)
    assert isinstance(e, PerfectEstimator) and e.n == 3
    assert harness.estimator(3) is e


def test_total_times_sum(results):
    exec_t, plan_t = total_times(results["pg"])
    assert exec_t == pytest.approx(sum(r.sim_time for r in results["pg"].values()))
    assert plan_t == pytest.approx(
        sum(r.planning_time for r in results["pg"].values())
    )


def test_config_dataclass_defaults():
    c = Config("x")
    assert c.perfect_n is None and c.reopt_threshold is None
    assert PG.name == "pg" and PERFECT.perfect_n == 17
    assert REOPT32.reopt_threshold == 32.0


def test_execute_spark_fills_wall_time(spark, harness, slice_specs, results):
    ex = SparkExecutor(spark, harness.ds)
    spec = slice_specs[0]
    run = results["pg"][spec.name]
    out = harness.execute_spark(spec, run, ex)
    assert out.wall_time is not None and out.wall_time > 0


def test_execute_spark_reopt_run(spark, harness, slice_specs, results):
    ex = SparkExecutor(spark, harness.ds)
    spec = next(
        s for s in slice_specs if results["reopt-32"][s.name].n_replans > 0
    )
    run = results["reopt-32"][spec.name]
    out = harness.execute_spark(spec, run, ex)
    assert out.wall_time is not None and out.wall_time > 0
    assert not ex.temp  # cleaned up
