"""Test-side constructors and accessors the engine itself does not need."""

from fractions import Fraction

from hochschild.linalg import Echelon, SparseMatrix


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
    return SparseMatrix.from_entries(field, rows, cols, entries)


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
