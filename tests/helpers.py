"""Test-side constructors and accessors the engine itself does not need."""

from hochschild.linalg import SparseMatrix


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
