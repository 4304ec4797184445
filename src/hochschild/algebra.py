"""Finite-dimensional algebras by structure constants, triples, bimodules.

An algebra is a basis-indexed table c[i][j][k] with e_i * e_j =
sum_k c[i][j][k] e_k plus the coordinates of its unit.  A triple
(A, B, eps) packages an associative algebra A, a commutative algebra B
and a morphism eps: B -> A with central image.  A bimodule stores its
two action tensors separately, mirroring left/right notation.

All data is held in nested tuples, so these objects are immutable and
hashable; structure-constant access in hot loops goes through the
sparse_* helpers, which return plain list tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import FieldMismatchError, PreconditionError
from .linalg import SparseMatrix, Subspace, kernel_basis, vec_add_scaled
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

    def mul(self, x, y):
        """Product of two coordinate vectors (dicts)."""
        field = self.field
        zero = field.zero
        out = {}
        for i, xi in x.items():
            for j, yj in y.items():
                coeff = field.mul(xi, yj)
                if coeff != zero:
                    row = self.table[i][j]
                    terms = {k: c for k, c in enumerate(row) if c != zero}
                    vec_add_scaled(field, out, coeff, terms)
        return out

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


def sparse_products(a):
    """table[i][j] -> list of (k, coeff) with coeff nonzero."""
    zero = a.field.zero
    return [
        [[(k, c) for k, c in enumerate(row) if c != zero] for row in plane]
        for plane in a.table
    ]


@dataclass(frozen=True)
class AlgebraMorphism:
    source: FiniteAlgebra
    target: FiniteAlgebra
    matrix: tuple  # matrix[r][c], target_dim x source_dim

    @classmethod
    def from_data(cls, source, target, matrix):
        return cls(source, target, _freeze(matrix))

    @classmethod
    def identity(cls, a):
        one, zero = a.field.one, a.field.zero
        mat = tuple(
            tuple(one if r == c else zero for c in range(a.dim)) for r in range(a.dim)
        )
        return cls(a, a, mat)

    def apply_basis(self, j):
        zero = self.source.field.zero
        return {r: row[j] for r, row in enumerate(self.matrix) if row[j] != zero}

    def apply(self, vec):
        field = self.source.field
        out = {}
        for j, coeff in vec.items():
            vec_add_scaled(field, out, coeff, self.apply_basis(j))
        return out

    def compose(self, other):
        """self after other."""
        if other.target.dim != self.source.dim:
            raise PreconditionError("morphism composition shape mismatch")
        field = self.source.field
        cols = []
        for j in range(other.source.dim):
            cols.append(self.apply(other.apply_basis(j)))
        mat = tuple(
            tuple(cols[j].get(r, field.zero) for j in range(other.source.dim))
            for r in range(self.target.dim)
        )
        return AlgebraMorphism(other.source, self.target, mat)

    def inverse(self):
        field = self.source.field
        m = SparseMatrix.from_dense(field, [list(r) for r in self.matrix])
        n = self.source.dim
        if self.target.dim != n:
            raise PreconditionError("only square morphisms can be inverted")
        te_cols = []
        from .linalg import solve

        for j in range(n):
            x = solve(m, {j: field.one})
            if x is None:
                raise PreconditionError("morphism is not invertible")
            te_cols.append(x)
        mat = tuple(
            tuple(te_cols[j].get(r, field.zero) for j in range(n)) for r in range(n)
        )
        return AlgebraMorphism(self.target, self.source, mat)

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

    @property
    def left_alg_dim(self):
        return len(self.left)

    @property
    def right_alg_dim(self):
        return len(self.right)

    def act_left_basis(self, i, m):
        zero = self.field.zero
        row = self.left[i][m]
        return {k: c for k, c in enumerate(row) if c != zero}

    def act_right_basis(self, i, m):
        zero = self.field.zero
        row = self.right[i][m]
        return {k: c for k, c in enumerate(row) if c != zero}

    def act_left(self, avec, mvec):
        field = self.field
        out = {}
        for i, ai in avec.items():
            for m, mm in mvec.items():
                coeff = field.mul(ai, mm)
                if coeff != field.zero:
                    vec_add_scaled(field, out, coeff, self.act_left_basis(i, m))
        return out

    def act_right(self, mvec, avec):
        field = self.field
        out = {}
        for i, ai in avec.items():
            for m, mm in mvec.items():
                coeff = field.mul(ai, mm)
                if coeff != field.zero:
                    vec_add_scaled(field, out, coeff, self.act_right_basis(i, m))
        return out

    def over(self, field):
        conv = field.from_rational
        conv3 = lambda t: tuple(
            tuple(tuple(conv(c) for c in row) for row in plane) for plane in t
        )
        return Bimodule(field, self.dim, conv3(self.left), conv3(self.right))


@dataclass(frozen=True)
class BimoduleMorphism:
    source: Bimodule
    target: Bimodule
    matrix: tuple  # target_dim x source_dim

    @classmethod
    def from_data(cls, source, target, matrix):
        return cls(source, target, _freeze(matrix))

    def apply_basis(self, j):
        zero = self.source.field.zero
        return {r: row[j] for r, row in enumerate(self.matrix) if row[j] != zero}


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


def pullback_bimodule(phi, m):
    """Actions of phi's source composed through phi; dimension unchanged."""
    field = m.field
    src = phi.source
    zero = field.zero

    def pulled(tensor_action):
        planes = []
        for i in range(src.dim):
            img = phi.apply_basis(i)
            plane = []
            for mm in range(m.dim):
                acc = {}
                for u, cu in img.items():
                    vec_add_scaled(field, acc, cu, {
                        k: c for k, c in enumerate(tensor_action[u][mm]) if c != zero
                    })
                plane.append(tuple(acc.get(k, zero) for k in range(m.dim)))
            planes.append(tuple(plane))
        return tuple(planes)

    return Bimodule(field, m.dim, pulled(m.left), pulled(m.right))


# ---------------------------------------------------------------------------
# validation


def morphism_defects(phi):
    """Whether phi preserves the unit, and the basis pairs (i, j) with
    phi(e_i e_j) != phi(e_i) phi(e_j)."""
    src, tgt = phi.source, phi.target
    unit_ok = phi.apply(src.unit_vec()) == tgt.unit_vec()
    bad_pairs = [
        (i, j)
        for i in range(src.dim)
        for j in range(src.dim)
        if phi.apply(src.mul(src.basis_vec(i), src.basis_vec(j)))
        != tgt.mul(phi.apply_basis(i), phi.apply_basis(j))
    ]
    return unit_ok, bad_pairs


def validate_algebra(a):
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
    unit = a.unit_vec()
    bad_unit = []
    for i in range(a.dim):
        e = a.basis_vec(i)
        if a.mul(unit, e) != e or a.mul(e, unit) != e:
            bad_unit.append(i)
    report.check(
        "unit law",
        not bad_unit,
        "" if not bad_unit else f"fails at basis indices {bad_unit}",
    )
    bad_assoc = []
    for i, j, k in itertools.product(range(a.dim), repeat=3):
        lhs = a.mul(a.mul(a.basis_vec(i), a.basis_vec(j)), a.basis_vec(k))
        rhs = a.mul(a.basis_vec(i), a.mul(a.basis_vec(j), a.basis_vec(k)))
        if lhs != rhs:
            bad_assoc.append((i, j, k))
    report.check(
        "associativity",
        not bad_assoc,
        "" if not bad_assoc else f"fails at triples {bad_assoc[:8]}",
    )
    report.info("dim", str(a.dim))
    return report


def validate_triple(t):
    report = Report("triple")
    rep_a = validate_algebra(t.A)
    rep_b = validate_algebra(t.B)
    report.extend(rep_a)
    report.extend(rep_b)
    if t.A.field != t.B.field:
        raise FieldMismatchError("A and B over different fields")
    report.check("B commutative", t.B.is_commutative())
    eps = t.eps
    unit_ok, bad_mult = morphism_defects(eps)
    report.check("eps preserves unit", unit_ok)
    report.check(
        "eps multiplicative",
        not bad_mult,
        "" if not bad_mult else f"fails at pairs {bad_mult[:8]}",
    )
    bad_central = [
        (j, i)
        for j in range(t.B.dim)
        for i in range(t.A.dim)
        if t.A.mul(eps.apply_basis(j), t.A.basis_vec(i))
        != t.A.mul(t.A.basis_vec(i), eps.apply_basis(j))
    ]
    report.check(
        "centrality eps(B) in Z(A)",
        not bad_central,
        "" if not bad_central else f"fails at (beta, a) pairs {bad_central[:8]}",
    )
    return report


def validate_bimodule(m, t):
    report = Report("bimodule")
    a = t.A
    if m.left_alg_dim != a.dim or m.right_alg_dim != a.dim:
        report.check("action shape", False, "action tensors do not match dim A")
        return report
    unit = a.unit_vec()
    ok_unital = all(
        m.act_left(unit, m_basis) == m_basis and m.act_right(m_basis, unit) == m_basis
        for m_basis in ({i: m.field.one} for i in range(m.dim))
    )
    report.check("actions unital", ok_unital)
    bad = []
    for i, j in itertools.product(range(a.dim), repeat=2):
        prod = a.mul(a.basis_vec(i), a.basis_vec(j))
        for mm in range(m.dim):
            v = {mm: m.field.one}
            if m.act_left(prod, v) != m.act_left(a.basis_vec(i), m.act_left(a.basis_vec(j), v)):
                bad.append(("left", i, j, mm))
            if m.act_right(v, prod) != m.act_right(m.act_right(v, a.basis_vec(i)), a.basis_vec(j)):
                bad.append(("right", i, j, mm))
            if m.act_right(m.act_left(a.basis_vec(i), v), a.basis_vec(j)) != m.act_left(
                a.basis_vec(i), m.act_right(v, a.basis_vec(j))
            ):
                bad.append(("commute", i, j, mm))
    report.check(
        "associativity of actions",
        not bad,
        "" if not bad else f"fails at {bad[:8]}",
    )
    bad_sym = []
    for j in range(t.B.dim):
        eb = t.eps.apply_basis(j)
        for mm in range(m.dim):
            v = {mm: m.field.one}
            if m.act_left(eb, v) != m.act_right(v, eb):
                bad_sym.append((j, mm))
    report.check(
        "B-symmetry",
        not bad_sym,
        "" if not bad_sym else f"fails at (beta, m) pairs {bad_sym[:8]}",
    )
    return report


def is_a_symmetric(m, a):
    """Whether left and right actions of a agree on m entirely."""
    return all(
        m.act_left(a.basis_vec(i), {mm: m.field.one})
        == m.act_right({mm: m.field.one}, a.basis_vec(i))
        for i in range(a.dim)
        for mm in range(m.dim)
    )


# ---------------------------------------------------------------------------
# derived subspaces


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


def commutator_subspace(m, a):
    """span{ v.e_i - e_i.v } over all basis pairs, as a Subspace of M."""
    vectors = []
    field = m.field
    for i in range(a.dim):
        for mm in range(m.dim):
            v = {mm: field.one}
            diff = m.act_right(v, a.basis_vec(i))
            vec_add_scaled(field, diff, field.neg(field.one), m.act_left(a.basis_vec(i), v))
            vectors.append(diff)
    return Subspace.span(field, m.dim, vectors)


# ---------------------------------------------------------------------------
# the matrix triple and the corner triple


def matrix_triple(t, n):
    """(M_n(A), I_n(B), eps_*), plus a lift taking M to M_n(M).

    The basis of M_n(A) is (matrix unit, A-basis) pairs ordered with the
    matrix unit major: index (r*n + c)*dim_A + u.  I_n(B) is identified
    with B itself (the identification is the eta of the standard Morita
    data), so the returned triple reuses B.
    """
    if n < 1:
        raise PreconditionError("matrix triple needs n >= 1")
    a, b, eps = t.A, t.B, t.eps
    field = a.field
    zero = field.zero
    da = a.dim
    dim = n * n * da

    def idx(r, c, u):
        return (r * n + c) * da + u

    labels = tuple(
        f"e{r}{c}*{a.basis_labels[u]}"
        for r in range(n)
        for c in range(n)
        for u in range(da)
    )
    table = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for r, c, rp, cp in itertools.product(range(n), repeat=4):
        if c != rp:
            continue
        for u, v in itertools.product(range(da), repeat=2):
            row = a.table[u][v]
            for k in range(da):
                if row[k] != zero:
                    table[idx(r, c, u)][idx(rp, cp, v)][idx(r, cp, k)] = row[k]
    unit = [zero] * dim
    for r in range(n):
        for u in range(da):
            if a.unit[u] != zero:
                unit[idx(r, r, u)] = a.unit[u]
    big_a = FiniteAlgebra.from_data(field, labels, table, unit)

    eps_mat = [[zero] * b.dim for _ in range(dim)]
    for j in range(b.dim):
        img = eps.apply_basis(j)
        for u, cu in img.items():
            for r in range(n):
                eps_mat[idx(r, r, u)][j] = cu
    eps_star = AlgebraMorphism.from_data(b, big_a, eps_mat)
    lifted = Triple(big_a, b, eps_star)

    def lift_bimodule(m):
        dm = m.dim
        dim_m = n * n * dm

        def midx(r, c, mu):
            return (r * n + c) * dm + mu

        left = [[[zero] * dim_m for _ in range(dim_m)] for _ in range(dim)]
        right = [[[zero] * dim_m for _ in range(dim_m)] for _ in range(dim)]
        for r, c, rp, cp in itertools.product(range(n), repeat=4):
            for u in range(da):
                for mu in range(m.dim):
                    if c == rp:
                        for k, cv in enumerate(m.left[u][mu]):
                            if cv != zero:
                                left[idx(r, c, u)][midx(rp, cp, mu)][midx(r, cp, k)] = cv
                    if cp == r:
                        for k, cv in enumerate(m.right[u][mu]):
                            if cv != zero:
                                right[idx(r, c, u)][midx(rp, cp, mu)][midx(rp, c, k)] = cv
        return Bimodule(field, dim_m, left, right)

    return lifted, lift_bimodule


def _left_right_products(a, e):
    """span{ a_i e a_j } and the maps needed around a corner idempotent."""
    vectors = []
    for i in range(a.dim):
        for j in range(a.dim):
            vectors.append(a.mul(a.mul(a.basis_vec(i), e), a.basis_vec(j)))
    return Subspace.span(a.field, a.dim, vectors)


def corner_triple(t, e):
    """(eAe, B, eps_e) for a full idempotent e, eAe on its echelon basis."""
    a = t.A
    field = a.field
    if a.mul(e, e) != e:
        raise PreconditionError("not idempotent")
    if _left_right_products(a, e).dim != a.dim:
        raise PreconditionError("AeA != A: corner data would be invalid")
    corner = Subspace.span(
        field,
        a.dim,
        [a.mul(a.mul(e, a.basis_vec(i)), e) for i in range(a.dim)],
    )
    d = corner.dim
    zero = field.zero

    def coords(vec):
        c = corner.coordinates(vec)
        if c is None:
            raise PreconditionError("product left the corner subalgebra")
        return c

    table = [[[zero] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(d):
            prod = a.mul(dict(corner.basis[i]), dict(corner.basis[j]))
            for k, cv in enumerate(coords(prod)):
                table[i][j][k] = cv
    labels = tuple(f"c{i}" for i in range(d))
    unit = tuple(coords(e))
    corner_alg = FiniteAlgebra.from_data(field, labels, table, unit)
    eps_mat = [[zero] * t.B.dim for _ in range(d)]
    for j in range(t.B.dim):
        img = a.mul(a.mul(e, t.eps.apply_basis(j)), e)
        for k, cv in enumerate(coords(img)):
            eps_mat[k][j] = cv
    eps_e = AlgebraMorphism.from_data(t.B, corner_alg, eps_mat)
    return Triple(corner_alg, t.B, eps_e)
