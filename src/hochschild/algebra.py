"""Finite-dimensional algebras by structure constants, triples, bimodules.

An algebra is a basis-indexed table c[i][j][k] with e_i * e_j =
sum_k c[i][j][k] e_k plus the coordinates of its unit.  A triple
(A, B, eps) packages an associative algebra A, a commutative algebra B
and a morphism eps: B -> A with central image.  A bimodule stores its
two action tensors separately, mirroring left/right notation.

All data is held in nested tuples, so these objects are immutable and
hashable.  Each structure tensor also has one sparse form, a
SparseMatrix built on first use and kept on its object: the products
of an algebra (column i*dim + j is e_i e_j), the two actions of a
bimodule (column i*dim + m is e_i . v_m, resp. v_m . e_i) and the
matrix of a morphism.  Products and actions are `linalg.bilinear` on
these forms, and every axiom (algebra, morphism, triple, bimodule) is
checked as a matrix identity between them, with `linalg.commutation`
where the two sides take their arguments in different orders; a
failure names the basis tuples of the columns that differ.

Tensor products over the ground field are built from these forms by
`linalg.tensor_bilinear`: `tensor_algebra` and `tensor_bimodule`, and
through them the matrix triple M_n(A) = M_n(k) (x) A with its lift
M -> M_n(k) (x) M.  A bimodule whose actions are computed as matrices
is made by `Bimodule.from_actions`; the corner triple reads its
products back from A through `column_coordinates`.
"""

from __future__ import annotations

import functools
import itertools
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


def _freeze(tensor):
    if isinstance(tensor, (list, tuple)):
        return tuple(_freeze(t) for t in tensor)
    return tensor


@dataclass(frozen=True)
class FiniteAlgebra:
    field: object
    dim: int
    basis_labels: tuple
    table: tuple  # table[i][j][k]
    unit: tuple  # coordinates of 1

    @classmethod
    def from_data(cls, field, basis_labels, table, unit):
        return cls(field, len(basis_labels), tuple(basis_labels), _freeze(table), tuple(unit))

    def unit_vec(self):
        zero = self.field.zero
        return {i: v for i, v in enumerate(self.unit) if v != zero}

    def basis_vec(self, i):
        return {i: self.field.one}

    @functools.cached_property
    def products(self):
        """dim x dim^2 matrix whose column i*dim + j is e_i e_j."""
        return SparseMatrix.from_columns(
            self.field, self.dim, [row for plane in self.table for row in plane]
        )

    def mul(self, x, y):
        """Product of two coordinate vectors (dicts)."""
        return bilinear(self.products, self.dim, x, y)

    def is_commutative(self):
        return all(
            self.table[i][j] == self.table[j][i]
            for i in range(self.dim)
            for j in range(i + 1, self.dim)
        )

    def over(self, field):
        conv = field.from_rational
        table = tuple(
            tuple(tuple(conv(c) for c in row) for row in plane) for plane in self.table
        )
        return FiniteAlgebra(
            field, self.dim, self.basis_labels, table, tuple(conv(c) for c in self.unit)
        )


class _LinearMap:
    """A linear map from source to target (objects with `field` and
    `dim`), held as its dense matrix[r][c], target_dim x source_dim."""

    @classmethod
    def from_data(cls, source, target, matrix):
        return cls(source, target, _freeze(matrix))

    @functools.cached_property
    def sparse(self):
        return SparseMatrix.from_columns(
            self.source.field,
            self.target.dim,
            [[row[c] for row in self.matrix] for c in range(self.source.dim)],
        )

    def apply(self, vec):
        return self.sparse.apply(vec)


@dataclass(frozen=True)
class AlgebraMorphism(_LinearMap):
    source: FiniteAlgebra
    target: FiniteAlgebra
    matrix: tuple  # matrix[r][c], target_dim x source_dim

    @classmethod
    def identity(cls, a):
        one, zero = a.field.one, a.field.zero
        mat = tuple(
            tuple(one if r == c else zero for c in range(a.dim)) for r in range(a.dim)
        )
        return cls(a, a, mat)

    def compose(self, other):
        """self after other."""
        if other.target.dim != self.source.dim:
            raise PreconditionError("morphism composition shape mismatch")
        product = self.sparse @ other.sparse
        return AlgebraMorphism.from_data(other.source, self.target, product.to_dense())

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
        return AlgebraMorphism.from_data(self.target, self.source, inv.to_dense())

    def over(self, field):
        conv = field.from_rational
        return AlgebraMorphism(
            self.source.over(field),
            self.target.over(field),
            tuple(tuple(conv(c) for c in row) for row in self.matrix),
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
    """Module with a left action and a right action, stored as tensors.

    left[i][m][m'] is the coefficient of v_m' in e_i . v_m; right is the
    analogous tensor for v_m . e_i.  The two acting algebras may differ
    (P and Q of a Morita context use this); their dimensions are the
    leading axes of the tensors.
    """

    field: object
    dim: int
    left: tuple
    right: tuple

    @classmethod
    def from_data(cls, field, dim, left, right):
        return cls(field, dim, _freeze(left), _freeze(right))

    @classmethod
    def from_actions(cls, left, right, left_alg_dim, right_alg_dim):
        """The bimodule whose action matrices are left and right (the
        forms `left_action` and `right_action` have) for acting algebras
        of the given dimensions."""
        field, dim = left.field, left.rows

        def tensor(action, count):
            return action_tensor(
                field, count, dim, lambda i, m: action.column(i * dim + m)
            )

        return cls(field, dim, tensor(left, left_alg_dim), tensor(right, right_alg_dim))

    @property
    def left_alg_dim(self):
        return len(self.left)

    @property
    def right_alg_dim(self):
        return len(self.right)

    @functools.cached_property
    def left_action(self):
        """dim x (left_alg_dim * dim) matrix; column i*dim + m is e_i . v_m."""
        return self._action_matrix(self.left)

    @functools.cached_property
    def right_action(self):
        """dim x (right_alg_dim * dim) matrix; column i*dim + m is v_m . e_i."""
        return self._action_matrix(self.right)

    def _action_matrix(self, tensor):
        return SparseMatrix.from_columns(
            self.field, self.dim, [row for plane in tensor for row in plane]
        )

    def act_left(self, avec, mvec):
        return bilinear(self.left_action, self.dim, avec, mvec)

    def act_right(self, mvec, avec):
        return bilinear(self.right_action, self.dim, avec, mvec)

    def over(self, field):
        conv = field.from_rational
        conv3 = lambda t: tuple(
            tuple(tuple(conv(c) for c in row) for row in plane) for plane in t
        )
        return Bimodule(field, self.dim, conv3(self.left), conv3(self.right))


@dataclass(frozen=True)
class BimoduleMorphism(_LinearMap):
    source: Bimodule
    target: Bimodule
    matrix: tuple  # target_dim x source_dim


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
    """M_n(k) on the matrix-unit basis e_rc, index r*n + c."""
    zero, one = field.zero, field.one
    dim = n * n
    labels = tuple(f"e{r}{c}" for r in range(n) for c in range(n))

    def idx(r, c):
        return r * n + c

    table = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for r, c, rp, cp in itertools.product(range(n), repeat=4):
        if c == rp:
            table[idx(r, c)][idx(rp, cp)][idx(r, cp)] = one
    unit = tuple(one if r == c else zero for r in range(n) for c in range(n))
    return FiniteAlgebra.from_data(field, labels, table, unit)


def unit_morphism(k_alg, a):
    """Inclusion of the ground field algebra into a along the unit."""
    mat = tuple((c,) for c in a.unit)
    return AlgebraMorphism(k_alg, a, mat)


def trivial_triple(a):
    """(A, k, unit inclusion)."""
    k = field_algebra(a.field)
    return Triple(a, k, unit_morphism(k, a))


def regular_bimodule(a):
    """A as an A-bimodule under multiplication."""
    left = tuple(tuple(a.table[i][m] for m in range(a.dim)) for i in range(a.dim))
    right = tuple(tuple(a.table[m][i] for m in range(a.dim)) for i in range(a.dim))
    return Bimodule(a.field, a.dim, left, right)


def action_tensor(field, count, dim, act):
    """Action tensor [i][b][k]: the coefficient of basis k in act(i, b)."""
    zero = field.zero
    return tuple(
        tuple(
            tuple(vec.get(k, zero) for k in range(dim))
            for vec in (act(i, b) for b in range(dim))
        )
        for i in range(count)
    )


def pullback_bimodule(phi, m):
    """Actions of phi's source composed through phi; dimension unchanged:
    each action matrix times phi (x) I_M."""
    lift = phi.sparse.kron(SparseMatrix.identity(m.field, m.dim))
    count = phi.source.dim
    return Bimodule.from_actions(
        m.left_action @ lift, m.right_action @ lift, count, count
    )


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
        action_tensor(field, dim, dim, lambda i, j: prods.column(i * dim + j)),
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
    return Bimodule.from_actions(
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
    if len(a.table) != a.dim or any(
        len(plane) != a.dim or any(len(row) != a.dim for row in plane)
        for plane in a.table
    ):
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
    if m.left_alg_dim != a.dim or m.right_alg_dim != a.dim:
        report.check("action shape", False, "action tensors do not match dim A")
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
    eps_star = AlgebraMorphism.from_data(t.B, big_a, eps_star.to_dense())
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
        action_tensor(field, d, d, lambda i, j: prods.column(i * d + j)),
        tuple(unit.get(k, field.zero) for k in range(d)),
    )
    eps_e = column_coordinates(corner, mul(mul(e_col, t.eps.sparse), e_col))
    eps_e = AlgebraMorphism.from_data(t.B, corner_alg, eps_e.to_dense())
    return Triple(corner_alg, t.B, eps_e)
