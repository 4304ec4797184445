"""Test-side constructors and accessors the engine itself does not need."""

import dataclasses
from fractions import Fraction

from hochschild.algebra import Triple
from hochschild.complexes import build_classical_complex, build_secondary_complex
from hochschild.errors import PreconditionError
from hochschild.linalg import (
    Echelon,
    SparseMatrix,
    Subspace,
    kernel_basis,
    tensor_bilinear,
    vec_add_scaled,
)


def from_entries(field, rows, cols, entries):
    """SparseMatrix from a dict {(row, col): scalar}, zeros dropped."""
    columns = [{} for _ in range(cols)]
    for (r, c), v in entries.items():
        if not (0 <= r < rows and 0 <= c < cols):
            raise ValueError(f"entry index {(r, c)} out of range")
        if v != field.zero:
            columns[c][r] = v
    return SparseMatrix(field, rows, cols, columns)


def entry(m, r, c):
    """Entry (r, c) of a SparseMatrix."""
    return m.column(c).get(r, m.field.zero)


def encode(scheme, mu, alphas, betas):
    """Linear index of the chain (mu; alphas; betas) under a
    ChainIndexScheme, the inverse of its `decode`."""
    idx = mu
    for a in alphas:
        idx = idx * scheme.dim_a + a
    for b in betas:
        idx = idx * scheme.dim_b + b
    return idx


def subspace_leq(u, v):
    return u.leq(v)


def build_complex(kind, t, m, max_degree, **kwargs):
    if kind == "classical":
        return build_classical_complex(t.A, m, max_degree, **kwargs)
    if kind == "secondary":
        return build_secondary_complex(t, m, max_degree, **kwargs)
    raise PreconditionError(f"unknown complex kind {kind!r}")


def center(a):
    """Solution space of [z, e_i] = 0 for all i, inside k^dim."""
    field = a.field
    cols = []
    for j in range(a.dim):
        col = {}
        for i in range(a.dim):
            diff = a.mul(a.basis_vec(j), a.basis_vec(i))
            vec_add_scaled(
                field, diff, field.neg(field.one), a.mul(a.basis_vec(i), a.basis_vec(j))
            )
            for k, v in diff.items():
                col[i * a.dim + k] = v
        cols.append(col)
    m = SparseMatrix(field, a.dim * a.dim, a.dim, cols)
    return kernel_basis(m)


def from_dense(field, rows_data):
    """SparseMatrix from a list of dense rows, zeros dropped."""
    rows = len(rows_data)
    cols = len(rows_data[0]) if rows else 0
    entries = {
        (r, c): v
        for r, row in enumerate(rows_data)
        for c, v in enumerate(row)
        if v != field.zero
    }
    return from_entries(field, rows, cols, entries)


def apply_basis(linear_map, j):
    """Image of the j-th source basis vector under an algebra or
    bimodule morphism."""
    return linear_map.sparse.column(j)


def act_left_basis(bimodule, i, m):
    """e_i . m_m, the left action on two basis vectors."""
    return bimodule.left_action.column(i * bimodule.dim + m)


def null_space_vectors(m):
    """A basis of the null space of m in closed form from the RREF of its
    rows in natural column order: e_f - sum_r r[f] e_pivot(r) for each
    free column f.  Its least index is a pivot, not f, so these vectors
    are not the canonical RREF basis until they are spanned."""
    field = m.field
    ech = Echelon(field)
    for row in m.transpose().columns():
        ech.insert(row)
    pivots, rows = ech.rref_rows()
    vectors = []
    for f in range(m.cols):
        if f in pivots:
            continue
        v = {f: field.one}
        for p, row in zip(pivots, rows):
            if f in row:
                v[p] = field.neg(row[f])
        vectors.append(v)
    return vectors


def dense_rref(field, cols, vectors):
    """The canonical RREF of the span of vectors (sparse, in k^cols) as
    (pivots, rows), by dense Gauss-Jordan elimination on `Fraction`s over
    Q and on residues over GF(p); a reference that shares no code with
    `Echelon`.  Rows come back as sparse vectors of field scalars."""
    p = getattr(field, "p", None)

    def exact(x):
        return Fraction(x) if p is None else x % p

    def div(x, y):
        return x / y if p is None else x * pow(y, -1, p) % p

    def sub_mul(x, f, y):
        return x - f * y if p is None else (x - f * y) % p

    rows = [[exact(v.get(j, 0)) for j in range(cols)] for v in vectors]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        found = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if found is None:
            continue
        rows[r], rows[found] = rows[found], rows[r]
        lead = rows[r][c]
        rows[r] = [div(x, lead) for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                f = row[c]
                rows[i] = [sub_mul(x, f, y) for x, y in zip(row, rows[r])]
        pivots.append(c)
    return pivots, [
        {j: field.from_rational(x) for j, x in enumerate(row) if x}
        for row in rows[: len(pivots)]
    ]


def dense_product(field, a, b):
    """The columns of a @ b by schoolbook multiplication of dense rows on
    `Fraction`s over Q and on residues over GF(p); a reference that shares
    no code with `SparseMatrix` arithmetic.  Columns come back as sparse
    vectors of field scalars, an integral rational as an `int`."""
    p = getattr(field, "p", None)
    left = [[Fraction(col.get(i, 0)) for col in a.columns()] for i in range(a.rows)]
    out = []
    for col in b.columns():
        right = [Fraction(col.get(k, 0)) for k in range(b.rows)]
        entries = {}
        for i, row in enumerate(left):
            x = sum((u * v for u, v in zip(row, right)), Fraction(0))
            x = x.numerator % p if p is not None else x
            if x:
                entries[i] = x.numerator if x.denominator == 1 else x
        out.append(entries)
    return out


def two_step_closure(a, vectors, gen_count):
    """A-module closure of a vector family in A^gen_count in two steps: the
    span of the family, then, if the images of its basis under the basis
    of A leave it, a second span with them; a reference for
    `kahler.module_closure`."""
    field, ambient = a.field, gen_count * a.dim
    current = Subspace.span(field, ambient, vectors)
    ident = SparseMatrix.identity
    g, da = gen_count, a.dim
    act = tensor_bilinear(ident(field, g), 1, g, a.products, da, da)
    basis = SparseMatrix(field, ambient, current.dim, current.basis)
    images = act @ ident(field, da).kron(basis)
    extra = [img for img in images.columns() if not current.contains(img)]
    if not extra:
        return current
    return Subspace.span(field, ambient, [*current.basis, *extra])


def renamed_b(t):
    """t with the basis labels of B renamed: equal to t in every number,
    but no longer equal to a triple whose B is the ground field or A."""
    labels = tuple(f"b:{label}" for label in t.B.basis_labels)
    b = dataclasses.replace(t.B, basis_labels=labels)
    return Triple(t.A, b, dataclasses.replace(t.eps, source=b))


def counting_builds(monkeypatch, module):
    """The list of complexes built through the two builders' names in
    module, in build order; it grows as they are built."""
    built = []
    for name in ("build_secondary_complex", "build_classical_complex"):

        def recording(*args, _build=getattr(module, name), **kwargs):
            built.append(_build(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(module, name, recording)
    return built
