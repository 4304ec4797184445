"""Command-line interface.

Subcommands: validate, homology, exactseq, morita, kahler, fixtures.
Reports go to stdout (deterministic bytes for identical inputs); a
machine-readable JSON copy can be written with --output.  Exit codes:
0 success, 1 mathematical verification failure, 2 input error,
3 resource guard exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from .algebra import (
    AlgebraMorphism,
    matrix_triple,
    trivial_triple,
    validate_bimodule,
    validate_triple,
)
from .complexes import (
    DEFAULT_GUARD_BYTES,
    ENTRY_BYTES,
    ChainIndexScheme,
    build_secondary_complex,
    check_size_guard,
    estimate_build_bytes,
    homology,
    secondary_scheme,
)
from .errors import (
    BudgetExceededError,
    HochschildError,
    InstanceFormatError,
    PreconditionError,
    ScalarError,
    SizeGuardError,
)
from .fields import field_from_name
from .fixtures import NAMED_FIXTURES
from .kahler import verify_kahler
from .morita import (
    corner_morita,
    standard_matrix_morita,
    validate_morita,
    verify_morita_invariance,
)
from .report import Report
from .sequences import TripleMorphism, validate_triple_morphism, verify_exact_sequence
from .serialize import Instance, parse_instance, serialize_instance

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_INPUT = 2
EXIT_GUARD = 3


def _read_instance(args):
    try:
        text = Path(args.path).read_text()
    except OSError as exc:
        raise InstanceFormatError(f"cannot read {args.path}: {exc}") from None
    override = field_from_name(args.field) if args.field else None
    return parse_instance(text, field_override=override)


def _write_text(path, text):
    """Write text to path; a path that cannot be written is an input error."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InstanceFormatError(f"cannot write {path}: {exc}") from None


def _check_writable(path):
    """An input error, raised before any work, unless path can be
    written: an existing file must open for writing, and the directory
    of a new one must take a file (a temporary one, removed at once)."""
    target = Path(path)
    try:
        if target.exists():
            os.close(os.open(target, os.O_WRONLY))
        else:
            with tempfile.TemporaryFile(dir=target.parent):
                pass
    except OSError as exc:
        raise InstanceFormatError(f"cannot write {path}: {exc.strerror}") from None


def _instance_report(inst):
    report = Report("instance validation")
    report.extend(validate_triple(inst.triple))
    report.extend(validate_bimodule(inst.module, inst.triple))
    return report


def _require_valid(report):
    """An input error (exit 2) naming the failed checks, unless report is ok."""
    if not report.ok:
        failed = "; ".join(
            f"{item.label}: {item.detail}" if item.detail else item.label
            for item in report.violations
        )
        raise PreconditionError(f"{report.title} failed: {failed}")


def _read_valid_instance(args):
    """The instance, checked before any complex is built from it."""
    inst = _read_instance(args)
    _require_valid(_instance_report(inst))
    return inst


def _emit(report, args):
    sys.stdout.write(report.render())
    output = getattr(args, "output", None)
    if output:
        text = json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
        _write_text(output, text)
    return EXIT_OK if report.ok else EXIT_MATH_FAIL


def cmd_validate(args):
    inst = _read_instance(args)
    report = _instance_report(inst)
    if inst.morphism is not None:
        tm = TripleMorphism(
            inst.triple,
            inst.triple,
            AlgebraMorphism.from_data(inst.triple.A, inst.triple.A, inst.morphism[0]),
            AlgebraMorphism.from_data(inst.triple.B, inst.triple.B, inst.morphism[1]),
        )
        report.extend(validate_triple_morphism(tm))
    return _emit(report, args)


def _format_chain(scheme, labels_m, labels_a, labels_b, vec, field):
    terms = []
    for idx in sorted(vec):
        mu, alphas, betas = scheme.decode(idx)
        parts = [labels_m[mu]]
        if alphas:
            parts.append(",".join(labels_a[a] for a in alphas))
        if betas:
            parts.append(",".join(labels_b[b] for b in betas))
        terms.append(f"{field.format(vec[idx])}*({' ; '.join(parts)})")
    return " + ".join(terms) if terms else "0"


def cmd_homology(args):
    inst = _read_valid_instance(args)
    t, m = inst.triple, inst.module
    if args.kind == "classical":  # the secondary complex of (A, k, unit)
        t = trivial_triple(t.A)
    cx = build_secondary_complex(t, m, args.max_degree, guard_bytes=args.guard_bytes)
    report = Report(f"homology ({args.kind})")
    report.info("chain dims", str(list(cx.dims)))
    labels_m = [f"m{i}" for i in range(m.dim)]
    for n in range(args.max_degree):
        res = homology(cx, n, with_reps=args.reps)
        report.info(f"H_{n}", f"dim {res.dim}")
        if args.reps:
            for k, rep in enumerate(res.reps):
                report.info(
                    f"H_{n} rep {k}",
                    _format_chain(
                        secondary_scheme(t, m, n),
                        labels_m,
                        t.A.basis_labels,
                        t.B.basis_labels,
                        rep,
                        inst.field,
                    ),
                )
    return _emit(report, args)


def cmd_exactseq(args):
    inst = _read_valid_instance(args)
    report = verify_exact_sequence(
        inst.triple, inst.module, guard_bytes=args.guard_bytes
    )
    return _emit(report, args)


def cmd_morita(args):
    inst = _read_valid_instance(args)
    spec = inst.morita or {"kind": "matrix", "n": args.n}
    if spec["kind"] == "matrix":
        n = spec.get("n", args.n)
        if n >= 1:  # guard the target complex and M_n(A) before either is built
            t, m = inst.triple, inst.module
            dims = [
                ChainIndexScheme(k, n * n * m.dim, n * n * t.A.dim, t.B.dim).total
                for k in range(args.max_degree + 2)
            ]
            # (n^2 dim A)^3 scalars bound from above both the context's
            # balancing-relation columns (n^4 dim A^3) and the product
            # columns of M_n(A)
            scalars = (n * n * t.A.dim) ** 3
            check_size_guard(
                estimate_build_bytes(dims) + ENTRY_BYTES * scalars, args.guard_bytes
            )
        data = standard_matrix_morita(inst.triple, n)
    else:
        e = {
            i: v
            for i, v in enumerate(
                inst.field.parse(s) for s in spec["idempotent"]
            )
            if v != inst.field.zero
        }
        data = corner_morita(inst.triple, e)
    _require_valid(validate_morita(data))
    report = verify_morita_invariance(
        data, inst.module, args.max_degree, guard_bytes=args.guard_bytes
    )
    return _emit(report, args)


def cmd_kahler(args):
    inst = _read_valid_instance(args)
    report = verify_kahler(inst.triple, inst.module, guard_bytes=args.guard_bytes)
    return _emit(report, args)


def cmd_fixtures(args):
    outdir = Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InstanceFormatError(f"cannot write {outdir}: {exc}") from None
    written = []
    for name, fn in NAMED_FIXTURES.items():
        t, m = fn()
        morita = {"kind": "matrix", "n": 2}
        inst = Instance(t.A.field, t, m, morita=morita)
        path = outdir / f"{name}.json"
        _write_text(path, serialize_instance(inst))
        written.append(path)
    for name in ("FIX-D", "FIX-DD"):
        t, m = NAMED_FIXTURES[name]()
        lifted, lift = matrix_triple(t, 2)
        inst = Instance(t.A.field, lifted, lift(m))
        path = outdir / f"{name}-M2.json"
        _write_text(path, serialize_instance(inst))
        written.append(path)
    for path in written:
        sys.stdout.write(f"wrote {path}\n")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hochschild",
        description="Exact classical and secondary Hochschild homology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("path", help="instance file")
        p.add_argument(
            "--field",
            help="override the scalar field (Q or Fp:<prime>) for cross-checks",
        )
        p.add_argument("--output", help="write a JSON report to this path")
        p.add_argument(
            "--guard-bytes",
            type=int,
            default=DEFAULT_GUARD_BYTES,
            help="memory guard for complex construction",
        )

    p = sub.add_parser("validate", help="run all validity checks on an instance")
    add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("homology", help="homology dimensions per degree")
    add_common(p)
    p.add_argument(
        "--kind", choices=("classical", "secondary"), default="secondary"
    )
    p.add_argument("--max-degree", type=int, default=3)
    p.add_argument(
        "--reps", action="store_true", help="print representative cycles"
    )
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("exactseq", help="verify the five-term exact sequence")
    add_common(p)
    p.set_defaults(func=cmd_exactseq)

    p = sub.add_parser("morita", help="verify Morita invariance for the instance")
    add_common(p)
    p.add_argument(
        "--n", type=int, default=2, help="matrix size when no morita section exists"
    )
    p.add_argument("--max-degree", type=int, default=1)
    p.set_defaults(func=cmd_morita)

    p = sub.add_parser("kahler", help="verify the Kaehler-differential facts")
    add_common(p)
    p.set_defaults(func=cmd_kahler)

    p = sub.add_parser("fixtures", help="emit the built-in instances as files")
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_fixtures)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "output", None):
            _check_writable(args.output)
        return args.func(args)
    except (InstanceFormatError, ScalarError, PreconditionError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except (SizeGuardError, BudgetExceededError) as exc:
        sys.stderr.write(f"resource guard: {exc}\n")
        return EXIT_GUARD
    except HochschildError as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return EXIT_MATH_FAIL


if __name__ == "__main__":
    sys.exit(main())
