#!/usr/bin/env python3
"""Print the make-up of the benchmark's inputs for some seeds, as Markdown.

Usage: python3 perfbench/describe.py [--seeds 1-10]

For every workload: which inputs the seed selects, their chain dims per
degree and their homology dims from oracle.py (the values each answer is
checked against).
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import oracle  # noqa: E402
import workloads  # noqa: E402
from workloads import FULL  # noqa: E402


def chain_dims(a_dim, b_dim, m_dim, top, lift=1):
    a, m = a_dim * lift * lift, m_dim * lift * lift
    return [m * a**n * b_dim ** (n * (n - 1) // 2) for n in range(top + 2)]


def relation(a):
    """lam and mu of x^2 = lam*x + mu in a dim-2 algebra."""
    mu, lam = a.table[1][1]
    return f"λ = {lam}, μ = {mu}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="first-last")
    first, last = map(int, parser.parse_args().seeds.split("-"))
    seeds = range(first, last + 1)

    print("lift-homology and morita (every seed; the seed only orders them):\n")
    print("| input | chain dims of the lift, degrees 0..3 | H_0..H_2 over Q and GF(1009) |")
    print("|---|---|---|")
    for case in workloads.base_cases("lift-homology", 0):
        t, m = case.triple, case.module
        dims = oracle.secondary_dims(t, m, FULL.top, fields=("Q",))["Q"]
        lifted = chain_dims(t.A.dim, t.B.dim, m.dim, FULL.top, FULL.lift_n)
        print(f"| {case.label}-M2 | {lifted} | {dims} |")

    print("\nrational-cycles:\n")
    print("| seed | stream index | A = B = Q[x]/(x² − λx − μ) | chain dims of the lift | H_0..H_2 over Q | over GF(1009) |")
    print("|---|---|---|---|---|---|")
    for seed in seeds:
        for case in workloads.base_cases("rational-cycles", seed):
            t, m = case.triple, case.module
            dims = oracle.secondary_dims(t, m, FULL.top)
            lifted = chain_dims(t.A.dim, t.B.dim, m.dim, FULL.top, FULL.lift_n)
            index = case.label.split("#")[1]
            print(f"| {seed} | {index} | {relation(t.A)} | {lifted} | {dims['Q']} | {dims['Fp:1009']} |")

    print("\nmany-small (stream indices per stratum: dims (A, B, M), how B is presented,")
    print("whether the Kähler verifiers run):\n")
    print("| seed | " + " | ".join(_stratum_name(key) for key, _ in FULL.small_quota) + " |")
    print("|---|" + "---|" * len(FULL.small_quota))
    for seed in seeds:
        cells = {key: [] for key, _ in FULL.small_quota}
        for case in workloads.base_cases("many-small", seed):
            cells[workloads.stratum(case)].append(case.label.split("#")[1])
        print(f"| {seed} | " + " | ".join(" ".join(c) for c in cells.values()) + " |")
    print("\nchain dims, degrees 0..4: " + "; ".join(
        f"{dims}: {chain_dims(*dims, FULL.small_top)}" for dims in sorted({k[0] for k, _ in FULL.small_quota})
    ))


def _stratum_name(key):
    dims, presented, kahler = key
    return f"{dims} {presented}{' K' if kahler else ''}"


if __name__ == "__main__":
    main()
