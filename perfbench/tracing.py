"""Per-layer spans of the engine, recorded from outside it.

`Tracer.install` replaces the layers' public functions with timing
wrappers in every `hochschild` module namespace that binds them (so
`rank` is wrapped in `complexes`, `sequences`, `kahler` and `linalg`
alike), and wraps a few methods on their classes: the arithmetic of
`SparseMatrix`, `HomologyBasis.__init__`, the row inserts of the two
echelon classes and `Echelon.rref_rows`.  `restore` puts every original
back.  Spans are kept in memory with parent links and written out by
`write`; `layer_metrics` reduces them to the per-layer metrics.  Both
take the clock that turns a span's start and end into seconds; the
benchmark passes reference seconds (calibrate.py), the unit of its
end-to-end times.

A span's self time is its duration minus the durations of its child
spans.  Sizes are read from a wrapped call's result after its span has
ended, so they add to the tracing overhead, not to the span.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from hochschild import complexes, kahler, linalg, morita, sequences

ARITHMETIC = "sparse.arith"
BUILD = "complexes.build"
MORITA_VERIFY = "morita.verify"

# span name -> metric that sums the spans' self time
SELF_TIME = {
    "linalg.rank": "linalg.rank_s",
    "linalg.kernel": "linalg.kernel_s",
    "linalg.image": "linalg.image_s",
    "linalg.homology_basis": "linalg.homology_basis_s",
    "linalg.quotient_map": "linalg.quotient_map_s",
    "morita.psi": "morita.psi_s",
    "morita.phi": "morita.phi_s",
    "morita.homotopy": "morita.homotopy_s",
    "sequences.exactseq": "sequences.exactseq_s",
    "kahler.verify": "kahler.verify_s",
}

# metrics of a traced round, in report order; every one is always present
ROUND_METRICS = (
    "complexes.build_s",
    "complexes.columns",
    "complexes.nnz",
    "complexes.nonzero_col_ratio",
    "checks.dd_s",
    "checks.identity_s",
    "linalg.rank_s",
    "linalg.kernel_s",
    "linalg.image_s",
    "linalg.homology_basis_s",
    "linalg.quotient_map_s",
    "linalg.rows_in",
    "linalg.rref_nnz",
    "linalg.max_bits",
    "morita.psi_s",
    "morita.phi_s",
    "morita.homotopy_s",
    "morita.columns",
    "sequences.exactseq_s",
    "kahler.verify_s",
)
COUNTS = (
    "complexes.columns",
    "complexes.nnz",
    "complexes.nonzero_col_ratio",
    "linalg.rows_in",
    "linalg.rref_nnz",
    "linalg.max_bits",
    "morita.columns",
)


def _matrix_size(m):
    return {"columns": m.cols, "nnz": m.nnz, "nonzero_columns": sum(1 for c in m.columns() if c)}


def _columns(m):
    return {"columns": m.cols}


# (module, function name, span name, size of the result or None)
FUNCTIONS = (
    (complexes, "secondary_boundary", "complexes.boundary", _matrix_size),
    (complexes, "classical_boundary", "complexes.boundary", _matrix_size),
    (complexes, "build_secondary_complex", BUILD, None),
    (complexes, "build_classical_complex", BUILD, None),
    (linalg, "rank", "linalg.rank", None),
    (linalg, "kernel_basis", "linalg.kernel", None),
    (linalg, "image_basis", "linalg.image", None),
    (linalg, "induced_quotient_map", "linalg.quotient_map", None),
    (morita, "psi_chain_map", "morita.psi", _columns),
    (morita, "phi_chain_map", "morita.phi", _columns),
    (morita, "homotopy_h", "morita.homotopy", _columns),
    (morita, "homotopy_l", "morita.homotopy", _columns),
    (morita, "verify_morita_invariance", MORITA_VERIFY, None),
    (sequences, "verify_exact_sequence", "sequences.exactseq", None),
    (kahler, "verify_h1_kahler", "kahler.verify", None),
    (kahler, "verify_fundamental_sequence", "kahler.verify", None),
)

# (class, method name, span name)
METHODS = (
    (linalg.SparseMatrix, "__matmul__", ARITHMETIC),
    (linalg.SparseMatrix, "__add__", ARITHMETIC),
    (linalg.SparseMatrix, "__sub__", ARITHMETIC),
    (linalg.SparseMatrix, "__eq__", ARITHMETIC),
    (linalg.HomologyBasis, "__init__", "linalg.homology_basis"),
)


class Tracer:
    def __init__(self):
        self.spans = []  # dicts: name, parent (index or None), start, end, size
        self._stack = []
        self.rows_in = 0
        self.rref_nnz = 0
        self.max_bits = 0
        self._saved = []  # (owner, attribute, original)

    # -- recording -------------------------------------------------------

    def _timed(self, name, fn, size=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else None, "size": None}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if size is not None:
                span["size"] = size(result)
            return result

        return wrapper

    def _counted_insert(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.rows_in += 1
            return fn(*args, **kwargs)

        return wrapper

    def _measured_rref(self, fn):
        @functools.wraps(fn)
        def wrapper(ech):
            pivots, rows = fn(ech)
            self.rref_nnz += sum(len(r) for r in rows)
            if ech.rational:
                for r in rows:
                    for v in r.values():
                        bits = max(abs(v.numerator).bit_length(), v.denominator.bit_length())
                        if bits > self.max_bits:
                            self.max_bits = bits
            return pivots, rows

        return wrapper

    # -- patching ----------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        engine = [
            mod for name, mod in sys.modules.items() if name == "hochschild" or name.startswith("hochschild.")
        ]
        for module, attr, name, size in FUNCTIONS:
            original = getattr(module, attr)
            wrapper = self._timed(name, original, size)
            for mod in engine:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapper)
        for cls, attr, name in METHODS:
            self._replace(cls, attr, self._timed(name, getattr(cls, attr)))
        for cls in (linalg.Echelon, linalg.TaggedEchelon):
            self._replace(cls, "insert", self._counted_insert(cls.insert))
        self._replace(linalg.Echelon, "rref_rows", self._measured_rref(linalg.Echelon.rref_rows))
        return self

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def layer_metrics(self, seconds):
        """The per-layer metrics; seconds(start, end) times a span."""
        spans = self.spans
        duration = [seconds(s["start"], s["end"]) for s in spans]
        in_children = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s["parent"] is not None:
                in_children[s["parent"]] += duration[i]
        out = dict.fromkeys(ROUND_METRICS, 0)
        columns = nonzero = 0
        for i, s in enumerate(spans):
            name, size = s["name"], s["size"]
            if name == ARITHMETIC:
                owner = s["parent"]
                if owner is not None and spans[owner]["name"] == ARITHMETIC:
                    continue  # inside another product or sum
                while owner is not None and spans[owner]["name"] not in (BUILD, MORITA_VERIFY):
                    owner = spans[owner]["parent"]
                if owner is not None:
                    key = "checks.dd_s" if spans[owner]["name"] == BUILD else "checks.identity_s"
                    out[key] += duration[i]
            elif name == "complexes.boundary":
                out["complexes.build_s"] += duration[i]
                out["complexes.nnz"] += size["nnz"]
                columns += size["columns"]
                nonzero += size["nonzero_columns"]
            elif name in SELF_TIME:
                out[SELF_TIME[name]] += duration[i] - in_children[i]
                if name.startswith("morita."):
                    out["morita.columns"] += size["columns"]
        out["complexes.columns"] = columns
        out["complexes.nonzero_col_ratio"] = nonzero / columns if columns else 0
        out["linalg.rows_in"] = self.rows_in
        out["linalg.rref_nnz"] = self.rref_nnz
        out["linalg.max_bits"] = self.max_bits
        return out

    def write(self, path, seconds):
        """Spans as JSON: wall start and end from the first span, and
        seconds(start, end) as `seconds`."""
        base = self.spans[0]["start"] if self.spans else 0.0
        records = [
            {
                "name": s["name"],
                "parent": s["parent"],
                "start_s": s["start"] - base,
                "end_s": s["end"] - base,
                "seconds": seconds(s["start"], s["end"]),
                "size": s["size"],
            }
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": records, "metrics": self.layer_metrics(seconds)}) + "\n")
