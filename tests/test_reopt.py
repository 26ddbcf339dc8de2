"""Re-optimization core tests (simulation path, no Spark)."""
import pandas as pd
import pytest

from repro.bench.harness import REOPT32, Harness
from repro.core.cost import CostModel
from repro.core.enumerate import plan_query
from repro.core.estimator import PerfectEstimator, PostgresEstimator
from repro.core.executor import true_cards
from repro.core.plans import join_nodes_bottom_up, walk
from repro.core.qerror import qerror
from repro.core.reopt import (
    _materialize_cols,
    cleanup,
    reoptimize,
    rewrite_with_temp,
    simulated_exec_time,
)
from repro.core.stats import Catalog
from repro.core.truecard import TrueCardinalityOracle
from repro.imdb import workload


@pytest.fixture()
def q6d():
    return workload.q6d_lite()


@pytest.fixture()
def own_oracle(ds):
    return TrueCardinalityOracle(ds)


@pytest.fixture()
def own_pg(catalog):
    # reopt adds temp stats to its catalog, so give each test its own copy.
    return PostgresEstimator(Catalog(dict(catalog.stats)))


# -- rewrite_with_temp -------------------------------------------------

def test_rewrite_replaces_subset_with_temp(q6d):
    sub = frozenset({"k", "mk"})
    new_spec, cols = rewrite_with_temp(q6d, sub, "tmp", "q6d@1")
    assert "tmp" in new_spec.aliases
    assert not (sub & new_spec.aliases)
    assert len(new_spec.relations) == len(q6d.relations) - 1


def test_rewrite_remaps_crossing_edges(q6d):
    sub = frozenset({"k", "mk"})
    new_spec, cols = rewrite_with_temp(q6d, sub, "tmp", "q6d@1")
    crossing = [j for j in new_spec.joins if "tmp" in j.aliases]
    assert len(crossing) == 1
    j = crossing[0]
    assert j.side("tmp")[0] == "mk__movie_id"
    assert ("mk", "movie_id") in cols


def test_rewrite_drops_internal_edges(q6d):
    sub = frozenset({"k", "mk"})
    new_spec, _ = rewrite_with_temp(q6d, sub, "tmp", "q6d@1")
    assert len(new_spec.joins) == len(q6d.joins) - 1


def test_rewrite_remaps_min_cols(q6d):
    sub = frozenset({"t", "ci", "n"})
    new_spec, cols = rewrite_with_temp(q6d, sub, "tmp", "q6d@1")
    assert ("tmp", "t__production_year") in new_spec.min_cols
    assert ("t", "production_year") in cols


def test_rewrite_keeps_remaining_filters(q6d):
    sub = frozenset({"t", "ci"})
    new_spec, _ = rewrite_with_temp(q6d, sub, "tmp", "q6d@1")
    k = new_spec.relation("k")
    assert k.filters  # keyword_group filter survived


def test_materialize_cols_deduped(q6d):
    sub = frozenset({"t", "mk"})
    cols = _materialize_cols(q6d, sub)
    assert len(cols) == len(set(cols))


# -- trigger selection -------------------------------------------------

def test_lowest_triggered_picks_smallest_subtree(own_pg, own_oracle, q6d, cost_model):
    out = reoptimize(q6d, own_pg, cost_model, own_oracle, threshold=32.0, tag="lo")
    assert out.n_replans >= 1
    node = out.steps[0].sub_node
    root = out.planner_results[0].plan.root
    tripped = [
        n for n in join_nodes_bottom_up(root)
        if n.aliases != q6d.aliases
        and qerror(n.est_card, own_oracle.card(q6d, n.aliases)) >= 32
    ]
    assert node is tripped[0]
    assert len(node.aliases) == min(len(n.aliases) for n in tripped)
    assert out.steps[0].rows == own_oracle.card(q6d, node.aliases)
    cleanup(out, own_oracle)


def test_root_join_never_triggers(own_pg, own_oracle, cost_model):
    spec = workload.q_nasdaq()  # single join == root
    out = reoptimize(spec, own_pg, cost_model, own_oracle, threshold=2.0)
    root = out.final_plan.plan.root
    assert qerror(root.est_card, out.truths[0][root.aliases]) >= 2.0
    assert out.n_replans == 0


def test_huge_threshold_never_triggers(ds, own_pg, own_oracle, q6d, cost_model):
    out = reoptimize(q6d, own_pg, CostModel(), own_oracle, threshold=1e12)
    assert out.n_replans == 0
    assert out.final_spec is q6d


# -- the full loop -----------------------------------------------------

def test_reoptimize_q6d_triggers_and_terminates(own_pg, own_oracle, q6d):
    out = reoptimize(q6d, own_pg, CostModel(), own_oracle, threshold=32, tag="t1")
    assert 1 <= out.n_replans < len(q6d.relations)
    assert len(out.planner_results) == out.n_replans + 1
    cleanup(out, own_oracle)


def test_reoptimize_final_plan_has_no_triggers(own_pg, own_oracle, q6d):
    out = reoptimize(q6d, own_pg, CostModel(), own_oracle, threshold=32, tag="t2")
    spec, root = out.final_spec, out.final_plan.plan.root
    for n in join_nodes_bottom_up(root):
        if n.aliases != spec.aliases:
            assert qerror(n.est_card, own_oracle.card(spec, n.aliases)) < 32
    cleanup(out, own_oracle)


def test_reoptimize_result_equals_original(own_pg, own_oracle, q6d):
    out = reoptimize(q6d, own_pg, CostModel(), own_oracle, threshold=32, tag="t3")
    a = own_oracle.result(q6d)
    b = own_oracle.result(out.final_spec)
    assert a["cnt"].iloc[0] == b["cnt"].iloc[0]
    assert list(a.iloc[0])[1:] == list(b.iloc[0])[1:]
    cleanup(out, own_oracle)


def _row(result) -> list:
    """A one-row result by position, with NULL/NaN as None."""
    return [None if pd.isna(v) else v for v in result.iloc[0]]


def test_rewrite_preserves_result_across_workload(ds, catalog, specs):
    """DuckDB returns the same row for the rewritten query as for the
    original, on every query that re-optimizes under reopt-32 and whose
    join has at most 1e5 rows. Positions, not names, are compared: the
    rewrite renames the MIN columns."""
    h = Harness(ds, Catalog(dict(catalog.stats)))
    checked = []
    for spec in specs:
        run = h.run_query(spec, REOPT32, keep_temps=True)
        if run.n_replans and h.oracle.card(spec) <= 1e5:
            want = _row(h.oracle.result(spec))
            assert _row(h.oracle.result(run.outcome.final_spec)) == want, spec.name
            checked.append(spec.name)
        cleanup(run.outcome, h.oracle)
        h.oracle.release(spec.name)
    h.oracle.close()
    assert len(checked) >= 50


def test_reoptimize_registers_temp_stats(own_pg, own_oracle, q6d):
    out = reoptimize(q6d, own_pg, CostModel(), own_oracle, threshold=32, tag="t4")
    for step in out.steps:
        ts = own_pg.catalog.stats[step.temp_name]
        assert ts.n_rows == step.rows
    cleanup(out, own_oracle)


def test_step_qerror_above_threshold(own_pg, own_oracle, q6d):
    out = reoptimize(q6d, own_pg, CostModel(), own_oracle, threshold=32, tag="t5")
    for step in out.steps:
        assert step.qerr >= 32.0
    cleanup(out, own_oracle)


def test_planning_time_accumulates(own_pg, own_oracle, q6d):
    out = reoptimize(q6d, own_pg, CostModel(), own_oracle, threshold=32, tag="t6")
    assert out.planning_time >= out.planner_results[0].planning_time
    assert out.planning_time == pytest.approx(
        sum(p.planning_time for p in out.planner_results)
    )
    cleanup(out, own_oracle)


def test_loop_ends_by_itself_at_tau_one(own_pg, own_oracle, q6d):
    # Every Q-error is >= 1, so at τ=1 every non-root join trips: each
    # round takes the lowest join, until only the root join is left.
    out = reoptimize(q6d, own_pg, CostModel(), own_oracle, threshold=1.0, tag="t7")
    assert len(q6d.relations) == 5
    assert 1 <= out.n_replans <= 3
    assert len(out.final_spec.relations) == 2
    for step, pr in zip(out.steps, out.planner_results):
        assert step.sub_node == join_nodes_bottom_up(pr.plan.root)[0]
    cleanup(out, own_oracle)


class SpyOracle:
    """An oracle that records which of its methods were called."""

    def __init__(self, oracle):
        self.oracle, self.calls = oracle, []

    def __getattr__(self, name):
        method = getattr(self.oracle, name)

        def spy(*args):
            self.calls.append((name, args))
            return method(*args)

        return spy


def test_no_threshold_reads_the_plan_truths_once(own_pg, own_oracle, q6d, cost_model):
    spy = SpyOracle(own_oracle)
    # At τ=1 q6d-lite re-optimizes; without τ there is no trigger check.
    out = reoptimize(q6d, own_pg, cost_model, spy, threshold=None)
    assert out.n_replans == 0 and out.final_spec is q6d
    assert out.final_plan.plan == plan_query(q6d, own_pg, cost_model).plan
    nodes = list(walk(out.final_plan.plan.root))
    assert spy.calls == [("cards", (q6d, [q6d.graph.mask(n.aliases) for n in nodes]))]
    assert out.truths == [true_cards(q6d, out.final_plan.plan.root, own_oracle)]


def test_kept_truths_are_each_plans_true_rows(ds, catalog, specs):
    """On every reopt-32 run of the workload, each round keeps the true
    rows of every node of its plan, and each step's rows are the truth
    of its sub-join."""
    h = Harness(ds, Catalog(dict(catalog.stats)))
    for spec in specs:
        out = h.run_query(spec, REOPT32, keep_temps=True).outcome
        specs_of_rounds = [s.spec_before for s in out.steps] + [out.final_spec]
        assert len(out.truths) == len(out.planner_results) == len(specs_of_rounds)
        for cur, pr, truths in zip(specs_of_rounds, out.planner_results, out.truths):
            nodes = list(walk(pr.plan.root))
            want = h.oracle.cards(cur, [cur.graph.mask(n.aliases) for n in nodes])
            assert truths == dict(zip((n.aliases for n in nodes), want)), spec.name
        for step, truths in zip(out.steps, out.truths):
            assert step.rows == truths[step.sub_node.aliases]
        cleanup(out, h.oracle)
        h.oracle.release(spec.name)
    h.oracle.close()


def test_simulated_exec_time_decomposes(own_pg, own_oracle, q6d, sim):
    out = reoptimize(q6d, own_pg, CostModel(), own_oracle, threshold=32, tag="t8")
    total = simulated_exec_time(out, sim)
    parts = 0.0
    for step in out.steps:
        parts += sim.plan_time(
            step.sub_node, true_cards(step.spec_before, step.sub_node, own_oracle)
        )
        parts += sim.materialize_time(step.rows)
    parts += sim.plan_time(
        out.final_plan.plan.root,
        true_cards(out.final_spec, out.final_plan.plan.root, own_oracle),
    )
    assert total == parts
    cleanup(out, own_oracle)


def test_reopt_with_perfect_estimator_is_noop(ds, catalog, own_oracle, q6d):
    pf = PerfectEstimator(17, own_oracle, catalog)
    out = reoptimize(q6d, pf, CostModel(), own_oracle, threshold=2, tag="t9")
    assert out.n_replans == 0


def test_reopt_improves_q6d_simulated_time(own_pg, own_oracle, q6d, sim, cost_model):
    """τ=8 on q6d-lite: the (k ⋈ mk) skew is ~11×, so the trigger fires
    at the *bottom* of the plan, where re-optimization pays off (the
    paper's §IV-D1 story). At τ=32 only a near-root join trips, which
    the paper's §V-D identifies as the losing case."""
    pr = plan_query(q6d, own_pg, cost_model)
    t_pg = sim.plan_time(pr.plan.root, true_cards(q6d, pr.plan.root, own_oracle))
    out = reoptimize(q6d, own_pg, cost_model, own_oracle, threshold=8, tag="t10")
    t_re = simulated_exec_time(out, sim)
    assert out.n_replans >= 1
    assert t_re < t_pg
    cleanup(out, own_oracle)


def test_lower_threshold_not_fewer_replans(catalog, own_oracle, q6d):
    outs = {}
    for th in (2.0, 32.0, 1e6):
        est = PostgresEstimator(Catalog(dict(catalog.stats)))
        out = reoptimize(
            q6d, est, CostModel(), own_oracle, threshold=th, tag=f"th{int(th)}"
        )
        outs[th] = out.n_replans
        cleanup(out, own_oracle)
    assert outs[2.0] >= outs[32.0] >= outs[1e6]
