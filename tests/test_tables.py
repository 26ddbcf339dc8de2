"""Table-reproduction machinery tests (repro.bench.tables)."""
import pytest

from repro.bench import tables as T
from repro.bench.harness import QueryRun


def run(name, sim):
    return QueryRun(name=name, config="x", sim_time=sim, outcome=None)


def test_paper_tables_sum_to_113():
    assert sum(T.PAPER_TABLE2.values()) == 113
    assert sum(T.PAPER_TABLE3.values()) == 113
    assert sum(T.PAPER_TABLE6.values()) == 113


def test_paper_table1_totals():
    assert T.PAPER_TABLE1[1] == 977
    assert sum(T.PAPER_TABLE1.values()) == 73736


def test_relative_runtimes():
    runs = {"a": run("a", 200.0)}
    base = {"a": run("a", 100.0)}
    assert T.relative_runtimes(runs, base) == {"a": 2.0}


@pytest.mark.parametrize("ratio,label", [
    (0.05, "0.1 - 0.8"),   # below 0.1 folds into the lowest bucket
    (0.5, "0.1 - 0.8"),
    (0.8, "0.8 - 1.2"),
    (1.0, "0.8 - 1.2"),
    (1.19, "0.8 - 1.2"),
    (1.2, "1.2 - 2.0"),
    (2.0, "2.0 - 5.0"),
    (4.99, "2.0 - 5.0"),
    (5.0, "> 5.0"),
    (100.0, "> 5.0"),
])
def test_bucketize_boundaries(ratio, label):
    counts = T.bucketize({"q": ratio})
    assert counts[label] == 1
    assert sum(counts.values()) == 1


def test_table2_and_table6_bucketize():
    runs = {"a": run("a", 100.0), "b": run("b", 1000.0)}
    base = {"a": run("a", 100.0), "b": run("b", 100.0)}
    t = T.table2(runs, base)
    assert t["0.8 - 1.2"] == 1 and t["> 5.0"] == 1
    assert T.table6(runs, base) == t


def test_table3_from_specs(specs):
    assert T.table3(specs) == T.PAPER_TABLE3


def test_table1_shape(specs, pg_est, cost_model):
    ours = T.table1(specs[:10], pg_est, cost_model)
    assert ours[1] == sum(len(s.relations) for s in specs[:10])
    assert all(v > 0 for v in ours.values())


def test_render_side_by_side():
    text = T.render("TABLE X", {1: 5}, {1: 7, 2: 3}, "n")
    assert "TABLE X" in text and "paper" in text and "ours" in text
    assert "total" in text
    lines = text.splitlines()
    assert any("7" in l and "5" in l for l in lines)


def test_bucket_labels_match_buckets():
    assert len(T.BUCKETS) == len(T.BUCKET_LABELS) == 5


def printed_counts(text):
    """``key → ours`` over the integer-keyed rows of a rendered table."""
    rows = [line.split("|") for line in text.splitlines() if line.count("|") == 2]
    return {int(k): int(ours) for k, _, ours in rows
            if k.strip().isdigit() and ours.strip() != "-"}


def test_cli_prints_tables_1_and_3(capsys, specs, pg_est, cost_model):
    from repro.bench.__main__ import main

    main(["table", "3", "--sf", "0.01"])
    assert printed_counts(capsys.readouterr().out) == T.table3(specs)
    main(["table", "1", "--sf", "0.01", "--seed", "42"])
    out = capsys.readouterr().out
    assert out.startswith("TABLE I —")
    assert printed_counts(out) == T.table1(specs, pg_est, cost_model)
