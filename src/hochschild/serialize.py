"""Instance files: one self-describing JSON text format.

Scalars are strings ("3/2", "-1") so exact values survive the round
trip in any field.  An instance holds the scalar field, the triple
(A, B, epsilon), the coefficient bimodule, and optionally a morita
section (a constructive description: the matrix context or a corner
context) and a morphism section (a self-morphism (f, g) of the triple).
Serialization is canonical, so equal instances produce identical bytes.
Parsing reads each distinct literal text once per file, through a table
local to the `parse_instance` call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .algebra import AlgebraMorphism, Bimodule, FiniteAlgebra, Triple
from .errors import InstanceFormatError, ScalarError
from .fields import field_from_name, field_name


@dataclass
class Instance:
    field: object
    triple: Triple
    module: Bimodule
    morita: dict | None = None
    morphism: tuple | None = None  # (f_matrix, g_matrix) over the triple


class _Literals(dict):
    """The values of one file's scalar literals, by text: `field.parse`
    runs once per distinct text, at its first occurrence."""

    def __init__(self, field):
        self.field = field

    def __missing__(self, s):
        value = self[s] = self.field.parse(s)
        return value


def _parse_scalar(literals, s):
    if not isinstance(s, str):  # before the lookup: a list is unhashable
        raise InstanceFormatError(f"scalar must be a string, got {s!r}")
    return literals[s]


def _is_list(data, length):
    """Whether data is a JSON list (not a string) of the given length."""
    return isinstance(data, list) and len(data) == length


def _parse_matrix(literals, data, rows, cols, what):
    if not _is_list(data, rows) or not all(_is_list(r, cols) for r in data):
        raise InstanceFormatError(f"{what}: expected {rows}x{cols} matrix")
    return tuple(tuple(_parse_scalar(literals, v) for v in row) for row in data)


def _parse_tensor(literals, data, d0, d1, d2, what):
    if not _is_list(data, d0) or not all(
        _is_list(p, d1) and all(_is_list(r, d2) for r in p) for p in data
    ):
        raise InstanceFormatError(f"{what}: expected {d0}x{d1}x{d2} tensor")
    return tuple(
        tuple(tuple(_parse_scalar(literals, v) for v in row) for row in plane)
        for plane in data
    )


def _parse_dim(value, what):
    """A dimension from the file: a non-negative int (JSON true is not one)."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise InstanceFormatError(f"{what}: dim must be a non-negative integer")
    return value


def _parse_algebra(literals, data, what):
    try:
        basis = data["basis"]
        dim = _parse_dim(data.get("dim", len(basis)), what)
        table = data["table"]
        unit = data["unit"]
    except (KeyError, TypeError) as exc:
        raise InstanceFormatError(f"{what}: missing field {exc}") from None
    if not isinstance(basis, list) or not isinstance(unit, list):
        raise InstanceFormatError(f"{what}: basis and unit must be lists")
    if not all(isinstance(label, str) for label in basis):
        raise InstanceFormatError(f"{what}: basis labels must be strings")
    if dim != len(basis):
        raise InstanceFormatError(f"{what}: dim does not match basis length")
    if len(unit) != dim:
        raise InstanceFormatError(f"{what}: unit length does not match dim")
    return FiniteAlgebra.from_data(
        literals.field,
        tuple(basis),
        _parse_tensor(literals, table, dim, dim, dim, f"{what}.table"),
        tuple(_parse_scalar(literals, v) for v in unit),
    )


def parse_instance(text, field_override=None):
    """Parse an instance file; field_override re-reads every scalar in
    another field (the cross-checking path behind --field)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise InstanceFormatError("not valid JSON: nested too deeply") from None
    if not isinstance(data, dict):
        raise InstanceFormatError("top level must be an object")
    try:
        field = field_override or field_from_name(data.get("field", "Q"))
        literals = _Literals(field)
        a = _parse_algebra(literals, data["A"], "A")
        b = _parse_algebra(literals, data["B"], "B")
        eps_mat = _parse_matrix(literals, data["epsilon"], a.dim, b.dim, "epsilon")
        eps = AlgebraMorphism.from_data(b, a, eps_mat)
        mod_data = data["module"]
        dim = _parse_dim(mod_data["dim"], "module")
        module = Bimodule.from_data(
            field,
            dim,
            _parse_tensor(literals, mod_data["left"], a.dim, dim, dim, "module.left"),
            _parse_tensor(literals, mod_data["right"], a.dim, dim, dim, "module.right"),
        )
    except ScalarError as exc:
        raise InstanceFormatError(str(exc)) from None
    except (KeyError, TypeError) as exc:
        raise InstanceFormatError(f"missing or malformed section: {exc}") from None
    morita = data.get("morita")
    if morita is not None:
        if not isinstance(morita, dict) or morita.get("kind") not in (
            "matrix",
            "corner",
        ):
            raise InstanceFormatError(
                "morita section must be {'kind': 'matrix'|'corner', ...}"
            )
        n = morita.get("n", 2)
        if morita["kind"] == "matrix" and (
            isinstance(n, bool) or not isinstance(n, int)
        ):
            raise InstanceFormatError("morita.n must be an integer")
        if morita["kind"] == "corner":
            idem = morita.get("idempotent")
            if not isinstance(idem, list) or len(idem) != a.dim:
                raise InstanceFormatError(
                    f"corner morita needs an idempotent: a list of {a.dim} scalars"
                )
            try:
                for v in idem:
                    _parse_scalar(literals, v)
            except ScalarError as exc:
                raise InstanceFormatError(f"morita.idempotent: {exc}") from None
    morphism = None
    if data.get("morphism") is not None:
        mdata = data["morphism"]
        try:
            f_mat = _parse_matrix(literals, mdata["f"], a.dim, a.dim, "morphism.f")
            g_mat = _parse_matrix(literals, mdata["g"], b.dim, b.dim, "morphism.g")
        except ScalarError as exc:
            raise InstanceFormatError(str(exc)) from None
        except (KeyError, TypeError) as exc:
            raise InstanceFormatError(f"morphism section: {exc}") from None
        morphism = (f_mat, g_mat)
    return Instance(field, Triple(a, b, eps), module, morita, morphism)


def _fmt_matrix(field, mat):
    return [[field.format(v) for v in row] for row in mat]


def _fmt_tensor(field, tensor):
    return [[[field.format(v) for v in row] for row in plane] for plane in tensor]


def _algebra_dict(field, a):
    return {
        "dim": a.dim,
        "basis": list(a.basis_labels),
        "table": _fmt_tensor(field, a.table),
        "unit": [field.format(v) for v in a.unit],
    }


def serialize_instance(inst):
    field = inst.field
    t = inst.triple
    data = {
        "field": field_name(field),
        "A": _algebra_dict(field, t.A),
        "B": _algebra_dict(field, t.B),
        "epsilon": _fmt_matrix(field, t.eps.matrix),
        "module": {
            "dim": inst.module.dim,
            "left": _fmt_tensor(field, inst.module.left),
            "right": _fmt_tensor(field, inst.module.right),
        },
    }
    if inst.morita is not None:
        data["morita"] = inst.morita
    if inst.morphism is not None:
        data["morphism"] = {
            "f": _fmt_matrix(field, inst.morphism[0]),
            "g": _fmt_matrix(field, inst.morphism[1]),
        }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
