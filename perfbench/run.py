#!/usr/bin/env python3
"""Benchmark of the exact verifier: four workloads over Q and GF(1009).

Usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: lift-homology, morita, rational-cycles, many-small (see
perfbench/README.md).  The expected answers are computed first, apart
from the engine (oracle.py).  Then rounds of the workload run, each in a
fresh interpreter (round.py), until S seconds have passed; every round
runs the same operations.  Every answer is checked.  The last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: with --trace 0 the end-to-end metrics (medians over rounds),
with --trace 1 the per-layer metrics, from at least two traced rounds
that alternate with untraced ones; a count that differs between traced
rounds makes the run incorrect.  Set-up and solve times are in reference seconds
(calibrate.py); the median wall seconds go to stderr.  The exit code is
0 only when every operation succeeded and every answer was right.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 11  # set-up times per run, topped up with set-up-only rounds
ROUND_TIMEOUT_S = 150
SPANS_DIR = HERE / "out"


def run_round(args, mode):
    cmd = [
        sys.executable,
        str(HERE / "round.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--mode",
        mode,
    ]
    if mode == "traced":
        cmd += ["--spans", str(SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json")]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"round ({mode}) exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def solve_s(result, field, key="ref_seconds"):
    return sum(r[key] for r in result["ops"] if r["field"] == field)


def audit(rounds, expected, workloads):
    """(attempted, failed, problems): problems are wrong answers of
    operations that did not fail, and the failures themselves."""
    attempted = failed = 0
    problems = []
    for result in rounds:
        for rec in result["ops"]:
            attempted += 1
            where = f"{rec['op']} {rec['case']} {rec['field']}"
            if workloads.failed(rec):
                failed += 1
                problems.append(f"FAILED {where}: {rec['error'] or rec['answer'].get('failed_checks')}")
                continue
            want = expected.get((rec["op"], rec["case"], rec["field"]))
            if want is None:
                problems.append(f"WRONG {where}: no expected answer")
                continue
            problems += [f"WRONG {where}: {p}" for p in workloads.check(rec, want)]
    return attempted, failed, problems


def layer_metrics(timed, traced, tracing, fp):
    """(metrics, problems): per-layer metrics as medians of the traced
    rounds, the Q/GF(p) ratio of the untraced rounds, and the tracing
    overhead as traced minus untraced solve time; problems name the counts
    that differ between traced rounds."""
    out, problems = {}, []
    for name in tracing.ROUND_METRICS:
        values = [r["layers"][name] for r in traced]
        if name in tracing.COUNTS:
            if len(set(values)) != 1:
                problems.append(f"WRONG {name} differs between traced rounds: {values}")
            out[name] = values[-1]
        else:
            out[name] = statistics.median(values)
    q = statistics.median(solve_s(r, "Q") for r in timed)
    out["fields.q_fp_ratio"] = q / statistics.median(solve_s(r, fp) for r in timed)
    traced_total = statistics.median(solve_s(r, "Q") + solve_s(r, fp) for r in traced)
    timed_total = statistics.median(solve_s(r, "Q") + solve_s(r, fp) for r in timed)
    out["trace.overhead_s"] = traced_total - timed_total
    return out, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        import oracle
        import tracing
        import workloads
    except (ImportError, OSError) as exc:
        print(f"run.py: the engine, its oracle or BENCHMARK.json is missing: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    cases = workloads.base_cases(args.workload, args.seed)
    expected = oracle.expected(args.workload, cases, workloads.FULL)

    modes = ("timed", "traced") if args.trace else ("timed",)
    min_rounds = 2 if args.trace else 1  # two traced rounds, to compare their counts
    rounds = {mode: [] for mode in modes}
    start = time.perf_counter()
    while len(rounds["timed"]) < min_rounds or time.perf_counter() - start < args.seconds:
        for mode in modes:
            rounds[mode].append(run_round(args, mode))
    all_rounds = [r for mode in modes for r in rounds[mode]]
    attempted, failed, problems = audit(all_rounds, expected, workloads)

    timed = rounds["timed"]
    fp = f"Fp:{workloads.P}"
    if args.trace:
        values, unsteady = layer_metrics(timed, rounds["traced"], tracing, fp)
        problems += unsteady
        declared = spec["per_layer"]
    else:
        setups = [r["setup_ref_s"] for r in timed]
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_round(args, "setup")["setup_ref_s"])
        wall = {f: statistics.median(solve_s(r, f, "seconds") for r in timed) for f in ("Q", fp)}
        print(f"run.py: {len(timed)} rounds, median wall seconds {wall}", file=sys.stderr)
        values = {
            "setup_s": statistics.median(setups),
            "solve_q_s": statistics.median(solve_s(r, "Q") for r in timed),
            "solve_fp_s": statistics.median(solve_s(r, fp) for r in timed),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        }
        declared = spec["end_to_end"]
    if sorted(values) != sorted(m["name"] for m in declared):
        raise RuntimeError("computed metrics differ from BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for line in problems:
        print(line, file=sys.stderr)
    correct = not any(p.startswith("WRONG") for p in problems)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
