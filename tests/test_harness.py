"""Harness tests on a small workload slice (simulation + Spark pass)."""
import dataclasses

import pytest

from repro.bench.harness import PG, PERFECT, REOPT32, Config, Harness, total_times
from repro.core.estimator import PerfectEstimator, PostgresEstimator
from repro.core.executor import SparkExecutor, true_cards
from repro.core.reopt import cleanup, reoptimize, simulated_exec_time
from repro.core.stats import Catalog


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


# -- round 0 shared across the configs of a query ----------------------

def test_reopt_after_pg_equals_a_fresh_loop(ds, catalog, specs):
    """On every query, reopt-32 run after pg starts from pg's round and
    equals the whole loop run on a fresh harness, round by round; the pg
    outcome keeps its one round."""
    h = Harness(ds, Catalog(dict(catalog.stats)))
    fresh = Harness(ds, Catalog(dict(catalog.stats)))
    n_replans = 0
    for spec in specs:
        pg = h.run_query(spec, PG)
        ro = h.run_query(spec, REOPT32)
        want = reoptimize(spec, fresh.estimator(None), fresh.cost, fresh.oracle,
                          threshold=32.0, tag="reopt32")
        got = ro.outcome
        assert len(pg.outcome.planner_results) == len(pg.outcome.truths) == 1
        assert got.planner_results[0] is pg.outcome.final_plan
        assert got.truths[0] is pg.outcome.truths[0]
        assert len(got.planner_results) == len(want.planner_results), spec.name
        for a, b in zip(got.planner_results, want.planner_results):
            assert a.plan.pretty() == b.plan.pretty(), spec.name
            assert repr(a.plan.est_cost) == repr(b.plan.est_cost), spec.name
        assert got.truths == want.truths, spec.name
        assert got.steps == want.steps, spec.name
        assert ro.sim_time == simulated_exec_time(want, fresh.sim), spec.name
        n_replans += ro.n_replans
        cleanup(want, fresh.oracle)
        for o in (h.oracle, fresh.oracle):
            o.release(spec.name)
    assert n_replans > 50


def test_round_zero_shared_whatever_the_config_order(ds, catalog, slice_specs):
    h = Harness(ds, Catalog(dict(catalog.stats)))
    res = h.run_workload(slice_specs, [REOPT32, PG, PERFECT])
    for spec in slice_specs:
        ro, pg, pf = (res[c][spec.name].outcome for c in ("reopt-32", "pg", "perfect-17"))
        assert pg.planner_results == [ro.planner_results[0]]
        assert pg.truths[0] is ro.truths[0]
        # perfect-17 has its own round 0.
        assert pf.planner_results[0] is not pg.planner_results[0]


def test_round_zero_is_kept_for_one_spec_object_only(ds, catalog, slice_specs):
    h = Harness(ds, Catalog(dict(catalog.stats)))
    a, b = slice_specs[:2]
    pr_a = h.run_query(a, PG).outcome.final_plan
    assert h.run_query(a, REOPT32).outcome.planner_results[0] is pr_a
    # An equal spec that is another object gets its own round 0.
    twin = dataclasses.replace(a)
    pr_twin = h.run_query(twin, PG).outcome.final_plan
    assert pr_twin is not pr_a and pr_twin.plan.pretty() == pr_a.plan.pretty()
    pr_b = h.run_query(b, PG).outcome.final_plan
    assert pr_b.plan.root.aliases == b.aliases
    assert h._first_spec is b and list(h._first) == [None]
    assert h._first[None][0] is pr_b
    # Back to a: planned again, not b's round.
    again = h.run_query(a, PG).outcome.final_plan
    assert again is not pr_a and again is not pr_b
    assert again.plan.root.aliases == a.aliases


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
