"""Self-tests of the benchmark itself.

Run from the root of a checkout::

    python3 perfbench/selftest.py [--replay]

1. The output check catches a changed plan: one real pass of
   ``plan-sf0.01`` at the default seeds matches the stored records, and
   the same pass checked against a copy of the records with one plan
   replaced by another unit's plan reports exactly that unit as failed.
   A plan whose shape alone differs, at equal cost, is reported as a
   tie and not as equal.
2. Counts repeat exactly across two traced runs (two processes) of one
   commit: estimates, estimator and oracle calls and re-optimization
   rounds, and with ``--replay`` also Spark's jobs, stages and tasks.

Exits 1 if any check fails.
"""
from __future__ import annotations

import argparse
import copy
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from records import RecordBook, diff  # noqa: E402

REPEATING = ("enumerate.n_estimates", "enumerate.calls", "estimator.pg.calls",
             "estimator.perfect.calls", "reopt.rounds", "truecard.card_calls")
SPARK_REPEATING = ("spark.jobs", "spark.stages", "spark.tasks")


def check_altered_plan(out: Path) -> list[str]:
    import simulated

    name = "plan-sf0.01"
    spec = dict(run.WORKLOADS[name])
    spec.pop("kind")
    ctx = simulated.setup(simulated.SimWorkload(name, **spec), 42, 7, 0)
    units = simulated.run_pass(ctx).units
    simulated.close(ctx)

    stored = run.EXPECTED / f"{name}-d42-w7.json"
    book = RecordBook(stored, out / "unused.json")
    errors = []
    failed = [u.uid for u in units if book.check(u.uid, u.record)[0]]
    if failed:
        errors.append(f"stored records: {len(failed)} units differ: {failed[:3]}")

    altered = copy.deepcopy(book.expected)
    victim, donor = "q050/pg", "q051/pg"
    altered[victim]["plans"][0] = altered[donor]["plans"][0]
    path = out / "altered.json"
    path.write_text(json.dumps({"units": altered}))
    book = RecordBook(path, out / "unused.json")
    failed = [u.uid for u in units if book.check(u.uid, u.record)[0]]
    if failed != [victim]:
        errors.append(f"altered record: failed units {failed}, expected [{victim}]")

    # Same cost, other shape: swap the two children of the root join.
    rec = book.expected[donor]
    lines = rec["plans"][0].splitlines()
    kids = [i for i, ln in enumerate(lines) if ln.startswith("  ") and not ln.startswith("   ")]
    swapped = lines[:2] + lines[kids[1]:] + lines[kids[0]:kids[1]]
    tie = dict(rec, plans=["\n".join(swapped)])
    problems, ties = diff(rec, tie)
    if problems or not ties:
        errors.append(f"shape-only change: problems {problems}, ties {ties}")
    return errors


def traced_counts(workload: str, seconds: int, out: Path) -> dict:
    """Every metric of one traced run (the result file holds them all)."""
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seconds", str(seconds), "--trace", "1", "--out", str(out)],
        capture_output=True, text=True, check=True,
    )
    result = json.loads((out / f"result-{workload}-d42-w7-s0-t1.json").read_text())
    return {k: v["value"] for k, v in result["metrics"].items()}


def check_counts_repeat(workload: str, seconds: int, names, out: Path) -> list[str]:
    a = traced_counts(workload, seconds, out)
    b = traced_counts(workload, seconds, out)
    return [f"{workload} {n}: {a[n]} then {b[n]}" for n in names if a[n] != b[n]]


def main() -> int:
    p = argparse.ArgumentParser(description="Self-tests of the benchmark.")
    p.add_argument("--replay", action="store_true",
                   help="also check Spark counts on the replay (slow)")
    args = p.parse_args()
    out = run.OUT / "selftest"
    out.mkdir(parents=True, exist_ok=True)
    errors = check_altered_plan(out)
    errors += check_counts_repeat("plan-sf0.01", 5, REPEATING, out)
    errors += check_counts_repeat("oracle-sf0.1", 5, REPEATING, out)
    if args.replay:
        errors += check_counts_repeat("spark-replay-sf0.1", 5, SPARK_REPEATING, out)
    for e in errors:
        print("FAIL", e)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
