"""The four benchmark workloads: seeded inputs, set-up, operations and checks.

Every input is made over Q from the engine's own generators (the named
fixtures and the seeded `random_triple`/`random_bimodule` stream), then
takes the path an instance file takes: `serialize_instance`, then
`parse_instance` once as written and once with the field overridden to
GF(1009), as `--field Fp:1009` does.  The operations call the engine
through module attributes, so that the wrappers of `tracing.py` see them.

An operation is one homology pass on one instance in one field, or one
`verify_*` report.  `check` compares an operation's answer with the
independent values of `oracle.py` and with properties of the answer.
"""

from __future__ import annotations

import gc
import random
import re
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction

from hochschild import algebra, complexes, fixtures, kahler, morita, sequences
from hochschild.fields import QQ, field_from_name
from hochschild.serialize import Instance, parse_instance, serialize_instance

P = 1009
FIELDS = ("Q", f"Fp:{P}")
WORKLOADS = ("lift-homology", "morita", "rational-cycles", "many-small")
FIXTURE_NAMES = ("FIX-DD", "FIX-P3")
STREAM_LIMIT = 20000  # draws scanned for seeded triples before giving up


@dataclass(frozen=True)
class Sizes:
    lift_n: int  # matrix size of the lifts and of the Morita context
    top: int  # homology degrees 0..top; complexes are built to top + 1
    small_top: int  # many-small: homology degrees 0..small_top
    small_quota: tuple  # many-small: (stratum, count) pairs


FULL = Sizes(
    lift_n=2,
    top=2,
    small_top=3,
    small_quota=(
        (((2, 2, 2), "B=A", True), 1),
        (((2, 2, 1), "B=A", True), 2),
        (((2, 2, 1), "B=sub", True), 2),
        (((2, 1, 2), "B=k", True), 5),
        (((2, 1, 2), "B=k", False), 4),
        (((2, 1, 1), "B=k", True), 2),
        (((1, 1, 1), "B=A", True), 4),
    ),
)
TINY = Sizes(
    lift_n=1,
    top=1,
    small_top=2,
    small_quota=(
        (((2, 2, 1), "B=sub", True), 1),
        (((2, 1, 2), "B=k", False), 1),
        (((1, 1, 1), "B=A", True), 1),
    ),
)


@dataclass(frozen=True)
class Case:
    """One base input over Q, before lifting and serialization."""

    label: str
    triple: object
    module: object


def structure_constants(t, m):
    vals = [v for a in (t.A, t.B) for plane in a.table for row in plane for v in row]
    vals += [v for row in t.eps.matrix for v in row]
    vals += [v for ten in (m.left, m.right) for plane in ten for row in plane for v in row]
    return vals


def has_non_integer(t, m):
    return any(Fraction(v).denominator != 1 for v in structure_constants(t, m))


def shape(case):
    return (case.triple.A.dim, case.triple.B.dim, case.module.dim)


def kahler_applies(case):
    """A commutative and M symmetric, read off the tables directly."""
    a, m = case.triple.A, case.module
    commutative = all(a.table[i][j] == a.table[j][i] for i in range(a.dim) for j in range(a.dim))
    return commutative and m.left == m.right


def is_standard_square(case):
    """B = A with eps = id, M = A, and x^2 = lam*x + mu with lam, mu != 0.

    Such triples cost about the same whatever lam and mu are: 4.5 %
    variation over 12 seeds, against 14.5 % for dim-2 triples whose B has
    another generator and 22 % when lam or mu is 0.
    """
    t, m = case.triple, case.module
    a = t.A
    identity = tuple(tuple(int(r == c) for c in range(a.dim)) for r in range(a.dim))
    return (
        a.dim == 2
        and t.B.table == a.table
        and t.eps.matrix == identity
        and m.dim == a.dim
        and all(v != 0 for v in a.table[1][1])
    )


def is_rational_candidate(case):
    """dim B = 2 with a non-integer structure constant, of the standard
    square kind, so that the triples of different seeds cost about the same."""
    return is_standard_square(case) and has_non_integer(case.triple, case.module)


def stratum(case):
    """The many-small quota a triple counts against, or None: its dims, how
    B is presented, and whether the Kaehler verifiers apply.  These fix
    which operations run and how large they are.  Of the largest triples,
    dims (2, 2, 2), only the standard square kind counts."""
    t = case.triple
    if t.B.table == t.A.table:
        presented = "B=A"
    else:
        presented = "B=k" if t.B.dim == 1 else "B=sub"
    if shape(case) == (2, 2, 2) and not is_standard_square(case):
        return None
    return shape(case), presented, kahler_applies(case)


def random_stream(seed):
    """The stream `fixtures.random_instances(seed, n)` lists, drawn lazily,
    each draw with the generator state it was drawn from."""
    rng = random.Random(seed)
    for i in range(STREAM_LIMIT):
        state = rng.getstate()
        t = fixtures.random_triple(rng)
        yield Case(f"seed{seed}#{i}", t, fixtures.random_bimodule(rng, t)), state


def choose(workload, seed, sizes=FULL):
    """The inputs a seed selects, as recipes for `make`: fixture names, or
    the labels and generator states of the chosen draws.  Choosing scans
    the seeded stream, so its cost depends on the seed; a round does it
    before its set-up clock runs."""
    if workload in ("lift-homology", "morita"):
        # fixed inputs; the seed only orders them
        names = list(FIXTURE_NAMES)
        random.Random(seed).shuffle(names)
        return [(name, None) for name in names]
    if workload == "rational-cycles":
        for case, state in random_stream(seed):
            if is_rational_candidate(case):
                return [(case.label, state)]
        raise RuntimeError(f"seed {seed}: no rational-cycles triple")
    if workload == "many-small":
        wanted = dict(sizes.small_quota)
        found = {key: [] for key in wanted}
        for case, state in random_stream(seed):
            key = stratum(case)
            bucket = found.get(key)
            if bucket is not None and len(bucket) < wanted[key]:
                bucket.append((case.label, state))
                if all(len(found[k]) == n for k, n in wanted.items()):
                    return [pick for key, _ in sizes.small_quota for pick in found[key]]
        raise RuntimeError(f"seed {seed}: quota {wanted} not met")
    raise ValueError(f"unknown workload {workload!r}")


def make(picks):
    """The base cases of `choose`'s recipes, made afresh."""
    cases = []
    for label, state in picks:
        if state is None:
            cases.append(Case(label, *fixtures.NAMED_FIXTURES[label]()))
        else:
            rng = random.Random()
            rng.setstate(state)
            t = fixtures.random_triple(rng)
            cases.append(Case(label, t, fixtures.random_bimodule(rng, t)))
    return cases


def base_cases(workload, seed, sizes=FULL):
    return make(choose(workload, seed, sizes))


# ---------------------------------------------------------------------------
# set-up: lifts, instance files, Morita contexts


@dataclass(frozen=True)
class Item:
    """One input of one round, ready for its operations in one field."""

    label: str
    field: str
    triple: object
    module: object
    context: object = None  # Morita data, on the morita workload
    kahler: bool = False


def instance_text(workload, case, sizes):
    t, m = case.triple, case.module
    if workload in ("lift-homology", "rational-cycles"):
        lifted, lift = algebra.matrix_triple(t, sizes.lift_n)
        return serialize_instance(Instance(QQ, lifted, lift(m)))
    if workload == "morita":
        spec = {"kind": "matrix", "n": sizes.lift_n}
        return serialize_instance(Instance(QQ, t, m, morita=spec))
    return serialize_instance(Instance(QQ, t, m))


def prepare(workload, cases, sizes=FULL):
    """Set-up of a round: the items, all over Q first, then over GF(p)."""
    texts = [(case, instance_text(workload, case, sizes)) for case in cases]
    items = []
    for fname in FIELDS:
        field = field_from_name(fname)
        for case, text in texts:
            inst = parse_instance(text, field_override=field)
            context = None
            if workload == "morita":
                context = morita.standard_matrix_morita(inst.triple, inst.morita["n"])
            items.append(
                Item(case.label, fname, inst.triple, inst.module, context, kahler_applies(case))
            )
    return items


# ---------------------------------------------------------------------------
# operations: each returns (answer, verify) where verify() checks properties
# of the answer outside the timed region and adds them to the answer


def reps_are_cycles(cx, results):
    """One nonzero representative per dimension, each with zero boundary."""
    ok = True
    for n, res in enumerate(results):
        reps = res.reps or ()
        ok &= len(reps) == res.dim and all(reps)
        if n > 0:
            ok &= all(not cx.boundary(n).apply(rep) for rep in reps)
    return bool(ok)


def _homology_with_reps(item, top):
    cx = complexes.build_secondary_complex(item.triple, item.module, top + 1)
    results = [complexes.homology(cx, n, with_reps=True) for n in range(top + 1)]
    return {"dims": [r.dim for r in results]}, lambda: {"reps_ok": reps_are_cycles(cx, results)}


def _dims(cx, top):
    return {"dims": [complexes.homology(cx, n).dim for n in range(top + 1)]}


def _report(rep):
    return {
        "ok": rep.ok,
        "failed_checks": [i.label for i in rep.violations],
        "details": {i.label: i.detail for i in rep.items},
    }


def operations(workload, item, sizes=FULL):
    """(name, thunk) pairs; a thunk returns (answer, verify or None)."""
    t, m = item.triple, item.module
    if workload in ("lift-homology", "rational-cycles"):
        return [("homology", lambda: _homology_with_reps(item, sizes.top))]
    if workload == "morita":
        return [
            (
                "morita",
                lambda: (_report(morita.verify_morita_invariance(item.context, m, sizes.top)), None),
            )
        ]
    top = sizes.small_top
    ops = [
        ("secondary", lambda: (_dims(complexes.build_secondary_complex(t, m, top + 1), top), None)),
        ("classical", lambda: (_dims(complexes.build_classical_complex(t.A, m, top + 1), top), None)),
        ("exactseq", lambda: (_report(sequences.verify_exact_sequence(t, m)), None)),
    ]
    if item.kahler:
        ops += [
            ("h1_kahler", lambda: (_report(kahler.verify_h1_kahler(t, m)), None)),
            ("fundamental", lambda: (_report(kahler.verify_fundamental_sequence(t)), None)),
        ]
    return ops


def run_operations(workload, items, sizes=FULL):
    """Run every operation of a round; one record per operation.

    Only the operation itself is timed; the property checks of its answer
    run after the clock stops.  Each operation starts from a collected
    heap, as in a fresh `hochschild` process, so that a collection of the
    previous operation's garbage is not charged to it.  Call `add_seconds`
    once the round is over.
    """
    records = []
    for item in items:
        for name, thunk in operations(workload, item, sizes):
            record = {"op": name, "case": item.label, "field": item.field, "error": None}
            gc.collect()
            start = time.perf_counter()
            try:
                answer, verify = thunk()
            except Exception as exc:  # the engine failed this operation
                record["interval"] = (start, time.perf_counter())
                record["error"] = traceback.format_exception_only(exc)[-1].strip()
                record["answer"] = {}
            else:
                record["interval"] = (start, time.perf_counter())
                if verify is not None:
                    answer.update(verify())
                record["answer"] = answer
            records.append(record)
    return records


def add_seconds(records, sampler):
    """Replace each record's interval by its wall and reference seconds."""
    for record in records:
        record["seconds"], record["ref_seconds"] = sampler.measure(*record.pop("interval"))


# ---------------------------------------------------------------------------
# checks


def failed(record):
    """The program itself reported failure: it raised, or a report is not ok."""
    if record["error"]:
        return True
    answer = record["answer"]
    return "ok" in answer and not answer["ok"]


def _lists_in(text):
    return [[int(x) for x in re.findall(r"-?\d+", part)] for part in re.findall(r"\[[^\]]*\]", text)]


def check(record, expected):
    """Problems with one non-failed operation's answer, as strings."""
    op, answer = record["op"], record["answer"]
    problems = []

    def expect(what, got, want):
        if got != want:
            problems.append(f"{what}: got {got}, want {want}")

    if op == "homology":
        expect("dims", answer["dims"], expected["dims"])
        expect("representatives are cycles, one per dimension", answer.get("reps_ok"), True)
    elif op == "morita":
        agree = answer["details"].get("homology dims agree", "")
        found = _lists_in(agree)
        expect("source dims", found[0] if found else None, expected["dims"])
        expect("target dims", found[1] if len(found) > 1 else None, expected["dims"])
    elif op in ("secondary", "classical"):
        expect("dims", answer["dims"], expected["dims"])
        expect("H_0 against the coinvariants formula", answer["dims"][0], expected["h0"])
    elif op in ("exactseq", "h1_kahler"):
        for label, want in expected["details"].items():
            expect(label, answer["details"].get(label), str(want))
    return problems
