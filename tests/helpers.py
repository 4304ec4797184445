"""Test-side constructors and accessors the engine itself does not need."""

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
