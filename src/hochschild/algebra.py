"""Finite-dimensional algebras by structure constants, triples, bimodules.

An algebra is held as its products, the dim x dim^2 matrix whose column
i*dim + j is e_i e_j, plus the coordinates of its unit.  A triple
(A, B, eps) packages an associative algebra A, a commutative algebra B
and a morphism eps: B -> A with central image.  A bimodule is held as
its two action matrices (column i*dim + m is e_i . v_m, resp.
v_m . e_i), a morphism as its matrix.  These `SparseMatrix` forms are
the only stored ones, so every object is immutable and hashable.  The
dense tensors of the instance-file format are read-only views, built on
first use: `table[i][j][k]`, the coefficient of e_k in e_i e_j, the
actions `left` and `right` in the same layout, and a morphism's
`matrix[r][c]`.  `from_data` is the one way in from dense data.

Products and actions are `linalg.bilinear` on the sparse forms, and
every axiom (algebra, morphism, triple, bimodule) is checked as a
matrix identity between them, with `linalg.commutation` where the two
sides take their arguments in different orders; a failure names the
basis tuples of the columns that differ.

Tensor products over the ground field are built from these forms by
`linalg.tensor_bilinear`: `tensor_algebra` and `tensor_bimodule`, and
through them the matrix triple M_n(A) = M_n(k) (x) A with its lift
M -> M_n(k) (x) M.  The corner triple reads its products back from A
through `column_coordinates`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import FieldMismatchError, PreconditionError
from .linalg import (
    SparseMatrix,
    Subspace,
    TaggedEchelon,
    bilinear,
    commutation,
    tensor_bilinear,
)
from .report import Report


def _from_dense_columns(field, cols, dim):
    """The matrix whose columns are the dense cols.  It has as many rows
    as each of them (dim when there are none), and one more than the
    longest when their lengths differ, so a tensor of the wrong shape
    shows in the matrix's shape."""
    widths = {len(col) for col in cols} or {dim}
    return SparseMatrix.from_columns(field, max(widths) + (len(widths) > 1), cols)


def _tensor_view(m, count):
    """m as count planes of dense columns, the layout [i][j][k] of a
    structure tensor: entry k of column i * (m.cols / count) + j."""
    zero = m.field.zero
    cols = [tuple(col.get(k, zero) for k in range(m.rows)) for col in m.columns()]
    size = m.cols // count if count else 0
    return tuple(tuple(cols[i * size : (i + 1) * size]) for i in range(count))


@dataclass(frozen=True)
class FiniteAlgebra:
    field: object
    dim: int
    basis_labels: tuple
    products: SparseMatrix  # dim x dim^2, column i*dim + j is e_i e_j
    unit: tuple  # coordinates of 1

    @classmethod
    def from_data(cls, field, basis_labels, table, unit):
        """The algebra with dense structure constants table[i][j][k],
        sized from the rows of table, so a table that is not dim^3 shows
        in the shape of the products."""
        dim, cols = len(basis_labels), [row for plane in table for row in plane]
        products = _from_dense_columns(field, cols, dim)
        return cls(field, dim, tuple(basis_labels), products, tuple(unit))

    @functools.cached_property
    def table(self):
        """table[i][j][k], the coefficient of e_k in e_i e_j (a view)."""
        return _tensor_view(self.products, self.dim)

    def unit_vec(self):
        zero = self.field.zero
        return {i: v for i, v in enumerate(self.unit) if v != zero}

    def mul(self, x, y):
        """Product of two coordinate vectors (dicts)."""
        return bilinear(self.products, self.dim, x, y)

    def is_commutative(self):
        """P = PK, K the swap of the two factors."""
        swap = commutation(self.field, self.dim, self.dim)
        return self.products == self.products @ swap

    def over(self, field):
        unit = tuple(field.from_rational(c) for c in self.unit)
        return FiniteAlgebra(
            field, self.dim, self.basis_labels, self.products.over(field), unit
        )


class _LinearMap:
    """A linear map from source to target (objects with `field` and
    `dim`), held as its target_dim x source_dim matrix `sparse`."""

    @classmethod
    def from_data(cls, source, target, matrix):
        """The map whose dense matrix is matrix[r][c]."""
        cols = [[row[c] for row in matrix] for c in range(source.dim)]
        sparse = SparseMatrix.from_columns(source.field, target.dim, cols)
        return cls(source, target, sparse)

    @functools.cached_property
    def matrix(self):
        """matrix[r][c], target_dim x source_dim (a view)."""
        return tuple(map(tuple, self.sparse.to_dense()))

    def apply(self, vec):
        return self.sparse.apply(vec)


@dataclass(frozen=True)
class AlgebraMorphism(_LinearMap):
    source: FiniteAlgebra
    target: FiniteAlgebra
    sparse: SparseMatrix

    @classmethod
    def identity(cls, a):
        return cls(a, a, SparseMatrix.identity(a.field, a.dim))

    def compose(self, other):
        """self after other."""
        if other.target.dim != self.source.dim:
            raise PreconditionError("morphism composition shape mismatch")
        return AlgebraMorphism(other.source, self.target, self.sparse @ other.sparse)

    def inverse(self):
        field = self.source.field
        n = self.source.dim
        if self.target.dim != n:
            raise PreconditionError("only square morphisms can be inverted")
        te = TaggedEchelon(field, n, n)
        for j, col in enumerate(self.sparse.columns()):
            te.insert(col, {j: field.one})
        if te.rank != n:
            raise PreconditionError("morphism is not invertible")
        inv = SparseMatrix(field, n, n, [te.express({j: field.one}) for j in range(n)])
        return AlgebraMorphism(self.target, self.source, inv)

    def over(self, field):
        return AlgebraMorphism(
            self.source.over(field), self.target.over(field), self.sparse.over(field)
        )


@dataclass(frozen=True)
class Triple:
    A: FiniteAlgebra
    B: FiniteAlgebra
    eps: AlgebraMorphism

    def over(self, field):
        return Triple(self.A.over(field), self.B.over(field), self.eps.over(field))


@dataclass(frozen=True)
class Bimodule:
    """Module with a left action and a right action, stored as matrices.

    Column i*dim + m of left_action is e_i . v_m, and of right_action
    v_m . e_i.  The two acting algebras may differ (P and Q of a Morita
    context use this).  Their dimensions are stored, since a module of
    dim 0 has no columns to show them.
    """

    left_action: SparseMatrix  # dim x (left_alg_dim * dim)
    right_action: SparseMatrix  # dim x (right_alg_dim * dim)
    left_alg_dim: int
    right_alg_dim: int

    @classmethod
    def from_data(cls, field, dim, left, right):
        """The bimodule with dense action tensors left[i][m][m'], the
        coefficient of v_m' in e_i . v_m, and right likewise for v_m . e_i.
        The action matrices are sized from the rows of the tensors, as the
        products of `FiniteAlgebra.from_data` are, so a row of the wrong
        length shows in their shape."""

        def action(tensor):
            cols = [row for plane in tensor for row in plane]
            return _from_dense_columns(field, cols, dim)

        return cls(action(left), action(right), len(left), len(right))

    @property
    def field(self):
        return self.left_action.field

    @property
    def dim(self):
        return self.left_action.rows

    @functools.cached_property
    def left(self):
        """left[i][m][m'], the coefficient of v_m' in e_i . v_m (a view)."""
        return _tensor_view(self.left_action, self.left_alg_dim)

    @functools.cached_property
    def right(self):
        """right[i][m][m'], the coefficient of v_m' in v_m . e_i (a view)."""
        return _tensor_view(self.right_action, self.right_alg_dim)

    def act_left(self, avec, mvec):
        return bilinear(self.left_action, self.dim, avec, mvec)

    def act_right(self, mvec, avec):
        return bilinear(self.right_action, self.dim, avec, mvec)

    def over(self, field):
        return Bimodule(
            self.left_action.over(field),
            self.right_action.over(field),
            self.left_alg_dim,
            self.right_alg_dim,
        )


@dataclass(frozen=True)
class BimoduleMorphism(_LinearMap):
    source: Bimodule
    target: Bimodule
    sparse: SparseMatrix  # target_dim x source_dim


# ---------------------------------------------------------------------------
# constructors for common algebras and modules


def field_algebra(field, label="1"):
    """The ground field as a one-dimensional algebra."""
    return FiniteAlgebra.from_data(field, (label,), (((field.one,),),), (field.one,))


def truncated_polynomial_algebra(field, degree, var="x"):
    """k[x]/(x^degree) on the monomial basis 1, x, ..., x^(degree-1)."""
    zero, one = field.zero, field.one
    labels = tuple("1" if d == 0 else f"{var}^{d}" if d > 1 else var for d in range(degree))
    table = [
        [
            [one if i + j == k else zero for k in range(degree)]
            for j in range(degree)
        ]
        for i in range(degree)
    ]
    unit = tuple(one if d == 0 else zero for d in range(degree))
    return FiniteAlgebra.from_data(field, labels, table, unit)


def matrix_algebra(field, n):
    """M_n(k) on the matrix-unit basis e_rc, index r*n + c: column
    (r*n + c)*n^2 + c*n + c' of its products is e_rc'."""
    zero, one = field.zero, field.one
    dim = n * n
    labels = tuple(f"e{r}{c}" for r in range(n) for c in range(n))
    cols = [{} for _ in range(dim * dim)]
    for r in range(n):
        for c in range(n):
            for cp in range(n):
                cols[(r * n + c) * dim + c * n + cp] = {r * n + cp: one}
    unit = tuple(one if r == c else zero for r in range(n) for c in range(n))
    products = SparseMatrix(field, dim, dim * dim, cols)
    return FiniteAlgebra(field, dim, labels, products, unit)


def unit_morphism(k_alg, a):
    """Inclusion of the ground field algebra into a along the unit."""
    return AlgebraMorphism(k_alg, a, SparseMatrix(a.field, a.dim, 1, [a.unit_vec()]))


def trivial_triple(a):
    """(A, k, unit inclusion)."""
    k = field_algebra(a.field)
    return Triple(a, k, unit_morphism(k, a))


def regular_bimodule(a):
    """A as an A-bimodule under multiplication: actions P and PK, K the
    swap of the two factors."""
    swap = commutation(a.field, a.dim, a.dim)
    return Bimodule(a.products, a.products @ swap, a.dim, a.dim)


def pullback_bimodule(phi, m):
    """Actions of phi's source composed through phi; dimension unchanged:
    each action matrix times phi (x) I_M."""
    lift = phi.sparse.kron(SparseMatrix.identity(m.field, m.dim))
    count = phi.source.dim
    return Bimodule(m.left_action @ lift, m.right_action @ lift, count, count)


def tensor_algebra(x, y):
    """X (x) Y on the basis pairs (index i*dim Y + j, labels "p*q"): its
    products are `tensor_bilinear` of the products of X and Y, its unit
    u_X (x) u_Y."""
    field, dim = x.field, x.dim * y.dim
    prods = tensor_bilinear(x.products, x.dim, x.dim, y.products, y.dim, y.dim)
    ux, uy = (SparseMatrix(field, z.dim, 1, [z.unit_vec()]) for z in (x, y))
    unit = ux.kron(uy).column(0)
    return FiniteAlgebra(
        field,
        dim,
        tuple(f"{p}*{q}" for p in x.basis_labels for q in y.basis_labels),
        prods,
        tuple(unit.get(k, field.zero) for k in range(dim)),
    )


def tensor_bimodule(x, y):
    """X (x) Y on the basis pairs (index i*dim Y + j), a bimodule over the
    tensor algebras of the algebras acting on X and Y: each action is
    `tensor_bilinear` of the two factors' actions."""
    left = tensor_bilinear(
        x.left_action, x.left_alg_dim, x.dim, y.left_action, y.left_alg_dim, y.dim
    )
    right = tensor_bilinear(
        x.right_action, x.right_alg_dim, x.dim, y.right_action, y.right_alg_dim, y.dim
    )
    return Bimodule(
        left, right, x.left_alg_dim * y.left_alg_dim, x.right_alg_dim * y.right_alg_dim
    )


# ---------------------------------------------------------------------------
# validation


def _differing_columns(lhs, rhs):
    return [c for c, (x, y) in enumerate(zip(lhs.columns(), rhs.columns())) if x != y]


def morphism_defects(phi):
    """Whether phi preserves the unit, and the basis pairs (i, j) with
    phi(e_i e_j) != phi(e_i) phi(e_j): the columns where phi P and
    P' (phi (x) phi) differ, P and P' the products of source and target."""
    src, tgt = phi.source, phi.target
    unit_ok = phi.apply(src.unit_vec()) == tgt.unit_vec()
    f = phi.sparse
    bad = _differing_columns(f @ src.products, tgt.products @ f.kron(f))
    return unit_ok, [divmod(c, src.dim) for c in bad]


def validate_algebra(a):
    """Shapes, then the unit law P(u (x) I) = I = P(I (x) u) and
    associativity P(P (x) I) = P(I (x) P) for the products P of a; a
    failure names the basis indices of the columns that differ."""
    report = Report(f"algebra({','.join(a.basis_labels)})")
    if a.products.shape != (a.dim, a.dim * a.dim):
        report.check("table shape", False, "structure constants are not dim^3")
        return report
    if len(a.unit) != a.dim:
        report.check("unit shape", False, "unit vector has wrong length")
        return report
    d, p = a.dim, a.products
    ident = SparseMatrix.identity(a.field, d)
    unit = SparseMatrix(a.field, d, 1, [a.unit_vec()])
    bad_unit = sorted(
        set(_differing_columns(p @ unit.kron(ident), ident))
        | set(_differing_columns(p @ ident.kron(unit), ident))
    )
    report.check(
        "unit law",
        not bad_unit,
        "" if not bad_unit else f"fails at basis indices {bad_unit}",
    )
    bad_assoc = [
        (c // (d * d), c // d % d, c % d)
        for c in _differing_columns(p @ p.kron(ident), p @ ident.kron(p))
    ]
    report.check(
        "associativity",
        not bad_assoc,
        "" if not bad_assoc else f"fails at triples {bad_assoc[:8]}",
    )
    report.info("dim", str(a.dim))
    return report


def validate_triple(t):
    """Algebra reports, eps a morphism, and centrality P(E (x) I) =
    P(I (x) E)K, E the matrix of eps and K the factor swap.  A table or
    unit of the wrong shape ends the report: the later checks use them."""
    report = Report("triple")
    report.extend(validate_algebra(t.A))
    report.extend(validate_algebra(t.B))
    if t.A.field != t.B.field:
        raise FieldMismatchError("A and B over different fields")
    if any(v.label.endswith("shape") for v in report.violations):
        return report
    report.check("B commutative", t.B.is_commutative())
    eps = t.eps
    unit_ok, bad_mult = morphism_defects(eps)
    report.check("eps preserves unit", unit_ok)
    report.check(
        "eps multiplicative",
        not bad_mult,
        "" if not bad_mult else f"fails at pairs {bad_mult[:8]}",
    )
    a, e = t.A, eps.sparse
    ident = SparseMatrix.identity(a.field, a.dim)
    swap = commutation(a.field, t.B.dim, a.dim)
    bad_central = [
        divmod(c, a.dim)
        for c in _differing_columns(
            a.products @ e.kron(ident), a.products @ ident.kron(e) @ swap
        )
    ]
    report.check(
        "centrality eps(B) in Z(A)",
        not bad_central,
        "" if not bad_central else f"fails at (beta, a) pairs {bad_central[:8]}",
    )
    return report


def validate_bimodule(m, t):
    """For the actions L, R of m: L(u (x) I) = I = R(u (x) I), the action
    identities left, right and commute below (P the products of A, K the
    swap of two A-factors), and B-symmetry L(E (x) I) = R(E (x) I).
    Failures are listed by column, and by kind within a column."""
    report = Report("bimodule")
    a = t.A
    shape = (m.dim, a.dim * m.dim)
    if (
        m.left_alg_dim != a.dim
        or m.right_alg_dim != a.dim
        or m.left_action.shape != shape
        or m.right_action.shape != shape
    ):
        report.check("action shape", False, "action tensors are not dim A x dim M x dim M")
        return report
    field, dm = m.field, m.dim
    left, right = m.left_action, m.right_action
    ident = SparseMatrix.identity(field, dm)
    ident_a = SparseMatrix.identity(field, a.dim)
    unit = SparseMatrix(field, a.dim, 1, [a.unit_vec()]).kron(ident)
    report.check("actions unital", left @ unit == ident and right @ unit == ident)
    swap = commutation(field, a.dim, a.dim).kron(ident)
    identities = (
        ("left", left @ a.products.kron(ident), left @ ident_a.kron(left)),
        ("right", right @ a.products.kron(ident), right @ ident_a.kron(right) @ swap),
        ("commute", right @ ident_a.kron(left) @ swap, left @ ident_a.kron(right)),
    )
    failures = sorted(
        (c, k, kind)
        for k, (kind, lhs, rhs) in enumerate(identities)
        for c in _differing_columns(lhs, rhs)
    )
    bad = [(kind, *divmod(c // dm, a.dim), c % dm) for c, _, kind in failures]
    report.check(
        "associativity of actions",
        not bad,
        "" if not bad else f"fails at {bad[:8]}",
    )
    eps = t.eps.sparse.kron(ident)
    bad_sym = [divmod(c, dm) for c in _differing_columns(left @ eps, right @ eps)]
    report.check(
        "B-symmetry",
        not bad_sym,
        "" if not bad_sym else f"fails at (beta, m) pairs {bad_sym[:8]}",
    )
    return report


def is_a_symmetric(m, a):
    """Whether left and right actions of a agree on m entirely."""
    shapes_ok = m.left_alg_dim == m.right_alg_dim == a.dim
    return shapes_ok and m.left_action == m.right_action


# ---------------------------------------------------------------------------
# derived subspaces


def commutator_subspace(m, a):
    """span{ v.e_i - e_i.v } over all basis pairs, as a Subspace of M."""
    if m.left_alg_dim != a.dim or m.right_alg_dim != a.dim:
        raise PreconditionError("bimodule actions do not match the algebra")
    return Subspace.span(m.field, m.dim, (m.right_action - m.left_action).columns())


# ---------------------------------------------------------------------------
# the matrix triple and the corner triple


def matrix_triple(t, n):
    """(M_n(A), I_n(B), eps_*), plus a lift taking M to M_n(M), each a
    tensor product with M_n(k): M_n(A) = M_n(k) (x) A, eps_* = [sum E_rr]
    (x) eps and M_n(M) = M_n(k) (x) M as bimodules.

    The matrix unit is major: the basis index of M_n(A) is
    (r*n + c)*dim_A + u, with label "erc*u".  I_n(B) is identified with
    B itself (the identification is the eta of the standard Morita
    data), so the returned triple reuses B.
    """
    if n < 1:
        raise PreconditionError("matrix triple needs n >= 1")
    field = t.A.field
    mn = matrix_algebra(field, n)
    big_a = tensor_algebra(mn, t.A)
    eps_star = SparseMatrix(field, n * n, 1, [mn.unit_vec()]).kron(t.eps.sparse)
    eps_star = AlgebraMorphism(t.B, big_a, eps_star)
    lift = functools.partial(tensor_bimodule, regular_bimodule(mn))
    return Triple(big_a, t.B, eps_star), lift


def column_coordinates(space, m):
    """The matrix whose column j holds the coordinates of column j of m on
    the basis of the Subspace space, which must contain it."""
    zero = space.field.zero
    cols = []
    for col in m.columns():
        coords = space.coordinates(col)
        if coords is None:
            raise PreconditionError("an element left its subspace")
        cols.append({k: v for k, v in enumerate(coords) if v != zero})
    return SparseMatrix(space.field, space.dim, m.cols, cols)


def corner_triple(t, e):
    """(eAe, B, eps_e) for a full idempotent e, eAe on its echelon basis:
    products and eps_e = e eps e are products of A on Kronecker products
    of the basis matrix C of eAe, read back in coordinates on C."""
    a = t.A
    field = a.field
    if a.mul(e, e) != e:
        raise PreconditionError("not idempotent")
    ident = SparseMatrix.identity(field, a.dim)
    e_col = SparseMatrix(field, a.dim, 1, [e])

    def mul(x, y):  # column i*y.cols + j is x_i y_j
        return a.products @ x.kron(y)

    aea = Subspace.span(field, a.dim, mul(mul(ident, e_col), ident).columns())
    if aea.dim != a.dim:
        raise PreconditionError("AeA != A: corner data would be invalid")
    corner = Subspace.span(field, a.dim, mul(mul(e_col, ident), e_col).columns())
    d = corner.dim
    cb = SparseMatrix(field, a.dim, d, corner.basis)
    prods = column_coordinates(corner, mul(cb, cb))
    unit = column_coordinates(corner, e_col).column(0)
    corner_alg = FiniteAlgebra(
        field,
        d,
        tuple(f"c{i}" for i in range(d)),
        prods,
        tuple(unit.get(k, field.zero) for k in range(d)),
    )
    eps_e = column_coordinates(corner, mul(mul(e_col, t.eps.sparse), e_col))
    return Triple(corner_alg, t.B, AlgebraMorphism(t.B, corner_alg, eps_e))
