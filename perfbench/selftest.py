#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

Usage: python3 perfbench/selftest.py

Shows that:
  - oracle.rank agrees with the dense naive_rank of tests/oracle_naive.py
    over Q, and tells GF(p) apart from Q;
  - every workload passes its checks at tiny sizes, and its checker
    rejects deliberately wrong answers: a dimension off by one, a
    representative that is not a cycle, a report that is not ok;
  - a round re-makes, from the recipes `workloads.choose` keeps, exactly
    the inputs the seeded scan selected;
  - tracing puts every wrapped function back and repeats its counts, and
    run.py flags counts that differ between traced rounds;
  - run.py fails without a result in a directory that holds only
    BENCHMARK.json and perfbench/.
Prints one line per check and exits 1 if any fails.
"""

import copy
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hochschild import complexes, linalg, morita  # noqa: E402
from oracle_naive import naive_rank  # noqa: E402

SEED = 1
FAILURES = []


def claim(label, ok):
    print(f"[{'ok' if ok else 'FAIL'}] {label}")
    if not ok:
        FAILURES.append(label)


def tiny_round(workload):
    cases = workloads.base_cases(workload, SEED, workloads.TINY)
    items = workloads.prepare(workload, cases, workloads.TINY)
    expected = oracle.expected(workload, cases, workloads.TINY)
    return items, expected


def rejected(record, expected):
    """The checker, or the failure test, flags this record."""
    return workloads.failed(record) or bool(
        workloads.check(record, expected[(record["op"], record["case"], record["field"])])
    )


def off_by_one(record, expected):
    """Wrong copies of a correct record, one per checked part of its answer."""
    answer = record["answer"]
    checked = expected[(record["op"], record["case"], record["field"])].get("details", {})
    wrong = []
    if "dims" in answer:
        for n in range(len(answer["dims"])):
            bad = copy.deepcopy(record)
            bad["answer"]["dims"][n] += 1
            wrong.append((f"H_{n} off by one", bad))
    if "reps_ok" in answer:
        bad = copy.deepcopy(record)
        bad["answer"]["reps_ok"] = False
        wrong.append(("a representative is not a cycle", bad))
    if "ok" in answer:
        bad = copy.deepcopy(record)
        bad["answer"]["ok"] = False
        wrong.append(("report not ok", bad))
    for label in checked:
        detail = answer["details"][label]
        if detail.isdigit():
            bad = copy.deepcopy(record)
            bad["answer"]["details"][label] = str(int(detail) + 1)
            wrong.append((f"{label} off by one", bad))
    agree = answer.get("details", {}).get("homology dims agree")
    if agree is not None:
        bad = copy.deepcopy(record)
        bad["answer"]["details"]["homology dims agree"] = agree.replace("[", "[1", 1)
        wrong.append(("Morita source dims wrong", bad))
    return wrong


def test_rank():
    rng = random.Random(SEED)
    agree = True
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        dense = [[Fraction(rng.choice((0, 0, 1, -1, 2, Fraction(1, 3)))) for _ in range(cols)] for _ in range(rows)]
        vectors = [{c: v for c, v in enumerate(row) if v} for row in dense]
        agree &= oracle.rank(vectors) == naive_rank(dense)
    claim("oracle.rank equals naive_rank on 40 random matrices over Q", agree)
    p = workloads.P
    vectors = [{0: 1, 1: 2}, {0: 2, 1: 4 + p}]
    claim("oracle.rank tells GF(p) from Q", oracle.rank(vectors) == 2 and oracle.rank(vectors, p) == 1)


def test_workload(workload):
    items, expected = tiny_round(workload)
    records = workloads.run_operations(workload, items, workloads.TINY)
    clean = all(not rejected(r, expected) for r in records)
    claim(f"{workload}: {len(records)} operations pass their checks", clean and records)
    caught = []
    for record in records:
        for label, bad in off_by_one(record, expected):
            caught.append((label, rejected(bad, expected)))
    kinds = sorted({label for label, _ in caught})
    claim(
        f"{workload}: checker rejects {len(caught)} wrong answers ({', '.join(kinds)})",
        caught and all(ok for _, ok in caught),
    )


def test_cycle_property():
    items, _ = tiny_round("lift-homology")
    item = next(i for i in items if i.label == "FIX-P3" and i.field == "Q")
    cx = complexes.build_secondary_complex(item.triple, item.module, 3)
    results = [complexes.homology(cx, n, with_reps=True) for n in range(3)]
    before = workloads.reps_are_cycles(cx, results)
    # add to a degree-2 representative a chain whose boundary is nonzero
    d2 = cx.boundary(2)
    j = next(j for j in range(d2.cols) if d2.column(j) and j not in results[2].reps[0])
    results[2].reps[0][j] = 1
    claim("the cycle check passes true representatives and catches a non-cycle",
          before and not workloads.reps_are_cycles(cx, results))


def test_tracing():
    originals = (complexes.secondary_boundary, linalg.rank, morita.psi_chain_map, linalg.SparseMatrix.__matmul__)
    bound = {mod: dict(vars(mod)) for mod in (complexes, morita)}
    counts = []
    for _ in range(2):
        items, _ = tiny_round("many-small")
        tracer = tracing.Tracer().install()
        try:
            workloads.run_operations("many-small", items, workloads.TINY)
        finally:
            tracer.restore()
        metrics = tracer.layer_metrics(lambda start, end: end - start)
        counts.append({k: metrics[k] for k in tracing.COUNTS})
    claim("tracing reports every per-layer metric", sorted(metrics) == sorted(tracing.ROUND_METRICS))
    claim("tracing saw boundaries, elimination and d.d", metrics["complexes.columns"] > 0
          and metrics["linalg.rank_s"] > 0 and metrics["checks.dd_s"] > 0)
    claim("tracing counts repeat exactly", counts[0] == counts[1])
    now = (complexes.secondary_boundary, linalg.rank, morita.psi_chain_map, linalg.SparseMatrix.__matmul__)
    same = all(a is b for a, b in zip(originals, now)) and all(
        dict(vars(mod)) == names for mod, names in bound.items()
    )
    claim("tracing restores every wrapped function", same)


def test_choose():
    def key(case):
        t, m = case.triple, case.module
        return case.label, t.A.table, t.B.table, t.eps.matrix, m.left, m.right

    same = True
    for workload in ("rational-cycles", "many-small"):
        picks = workloads.choose(workload, SEED, workloads.TINY)
        labels = {label for label, _ in picks}
        scanned = {}
        for case, _ in workloads.random_stream(SEED):
            if case.label in labels:
                scanned[case.label] = case
                if len(scanned) == len(labels):
                    break
        same &= [key(c) for c in workloads.make(picks)] == [key(scanned[label]) for label, _ in picks]
    claim("make(choose(...)) re-makes exactly the inputs the seeded scan selected", same)


def test_runner():
    sys.path.insert(0, str(HERE))
    import run

    def fake(columns):
        layers = {name: 1.0 for name in tracing.ROUND_METRICS}
        layers["complexes.columns"] = columns
        return {"layers": layers, "ops": [{"field": f, "ref_seconds": 1.0} for f in workloads.FIELDS]}

    _, steady = run.layer_metrics([fake(5)], [fake(5), fake(5)], tracing, workloads.FIELDS[1])
    _, unsteady = run.layer_metrics([fake(5)], [fake(5), fake(6)], tracing, workloads.FIELDS[1])
    claim("run.py flags a count that differs between traced rounds", not steady and len(unsteady) == 1)
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "morita", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare)
    claim("run.py fails without a result where the engine is missing", proc.returncode != 0 and not proc.stdout.strip())


def main():
    test_rank()
    for workload in workloads.WORKLOADS:
        test_workload(workload)
    test_cycle_property()
    test_choose()
    test_tracing()
    test_runner()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
