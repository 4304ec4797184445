import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    dense_product,
    dense_rref,
    entry,
    from_dense,
    from_entries,
    null_space_vectors,
    subspace_leq,
)

from hochschild.errors import (
    AmbientMismatchError,
    BudgetExceededError,
    FieldMismatchError,
    NotAChainMapError,
    PreconditionError,
)
from hochschild.fields import GF, QQ
from hochschild.linalg import (
    Echelon,
    HomologyBasis,
    SparseMatrix,
    Subspace,
    TaggedEchelon,
    bilinear,
    commutation,
    image_basis,
    induced_quotient_map,
    kernel_basis,
    rank,
    solve,
    tensor_bilinear,
    vec_add_scaled,
)

F1009 = GF(1009)


def mat(rows, field=QQ):
    return from_dense(
        field, [[field.from_rational(Fraction(v)) for v in row] for row in rows]
    )


class TestRank:
    def test_empty(self):
        assert rank(SparseMatrix.zero(QQ, 0, 0)) == 0

    def test_identity(self):
        assert rank(SparseMatrix.identity(QQ, 3)) == 3

    def test_dependent_rows(self):
        assert rank(mat([[1, 2], [2, 4]])) == 1

    def test_rectangular(self):
        assert rank(mat([[1, 0, 2], [0, 1, 3]])) == 2


class TestKernel:
    def test_identity_has_zero_kernel(self):
        assert kernel_basis(SparseMatrix.identity(QQ, 2)).dim == 0

    def test_zero_matrix_full_kernel(self):
        ker = kernel_basis(SparseMatrix.zero(QQ, 2, 3))
        assert ker.dim == 3
        assert ker == Subspace.full(QQ, 3)

    def test_one_relation(self):
        ker = kernel_basis(mat([[1, 1]]))
        assert ker.dim == 1
        assert ker.contains({0: Fraction(1), 1: Fraction(-1)})


class TestImage:
    def test_zero(self):
        assert image_basis(SparseMatrix.zero(QQ, 3, 2)).dim == 0

    def test_identity(self):
        assert image_basis(SparseMatrix.identity(QQ, 4)) == Subspace.full(QQ, 4)

    def test_single_column(self):
        img = image_basis(mat([[1], [2]]))
        assert img.dim == 1
        assert img.contains({0: Fraction(1), 1: Fraction(2)})


class TestSubspace:
    def test_zero_below_everything(self):
        z = Subspace.zero(QQ, 2)
        assert subspace_leq(z, Subspace.span(QQ, 2, [{0: Fraction(1)}]))

    def test_full_not_below_proper(self):
        full = Subspace.full(QQ, 2)
        line = Subspace.span(QQ, 2, [{0: Fraction(1)}])
        assert not subspace_leq(full, line)
        assert subspace_leq(line, full)

    def test_membership_by_solving(self):
        u = Subspace.span(QQ, 2, [{0: Fraction(1), 1: Fraction(1)}])
        v = Subspace.span(
            QQ, 2, [{0: Fraction(1), 1: Fraction(1)}, {0: Fraction(1)}]
        )
        assert subspace_leq(u, v)

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatchError):
            subspace_leq(Subspace.zero(QQ, 2), Subspace.zero(QQ, 3))

    def test_canonical_form_is_span_invariant(self):
        vecs = [
            {0: Fraction(1), 1: Fraction(2), 2: Fraction(3)},
            {0: Fraction(2), 1: Fraction(1)},
        ]
        mixed = [
            {k: 3 * v for k, v in vecs[0].items()},
            {
                k: vecs[0].get(k, Fraction(0)) + vecs[1].get(k, Fraction(0))
                for k in set(vecs[0]) | set(vecs[1])
            },
        ]
        assert Subspace.span(QQ, 3, vecs) == Subspace.span(QQ, 3, mixed)


class TestFieldMismatch:
    def test_matmul_rejects_mixed_fields(self):
        a = SparseMatrix.identity(QQ, 2)
        b = SparseMatrix.identity(F1009, 2)
        with pytest.raises(FieldMismatchError):
            a @ b

    def test_subspace_rejects_mixed_fields(self):
        with pytest.raises(FieldMismatchError):
            subspace_leq(Subspace.zero(QQ, 2), Subspace.zero(F1009, 2))


class TestSolve:
    def test_particular_solution(self):
        m = mat([[1, 2], [0, 1]])
        x = solve(m, {0: Fraction(5), 1: Fraction(2)})
        assert m.apply(x) == {0: Fraction(5), 1: Fraction(2)}

    def test_infeasible(self):
        m = mat([[1, 1], [1, 1]])
        assert solve(m, {0: Fraction(1)}) is None

    def test_solution_over_q_is_exact(self):
        m = from_dense(QQ, [[2, 0], [0, 3]])
        x = solve(m, {0: 1, 1: 1})
        assert x == {0: Fraction(1, 2), 1: Fraction(1, 3)}
        assert not any(isinstance(v, float) for v in x.values())


def test_int_and_fraction_forms_of_a_scalar_are_interchangeable():
    """An integral rational may be an int or a Fraction: vectors, matrices
    and subspaces built from either form are equal, and keys hash alike."""
    assert {0: 2} == {0: Fraction(2)}
    assert hash(2) == hash(Fraction(2)) and hash(-1) == hash(Fraction(-1))
    assert {Fraction(2): "two"}[2] == "two"
    ints = [[2, 0, -1], [4, 0, -2], [0, 3, 1]]
    fracs = [[Fraction(v) for v in row] for row in ints]
    assert from_dense(QQ, ints) == from_dense(QQ, fracs)
    assert image_basis(from_dense(QQ, ints)) == image_basis(from_dense(QQ, fracs))
    half = Fraction(1, 2)
    assert Subspace(QQ, 2, [{0: 1, 1: half}], [0]) == Subspace(
        QQ, 2, [{0: Fraction(1), 1: half}], [0]
    )
    spanned = Subspace.span(QQ, 2, [{0: 2, 1: 1}])
    assert spanned == Subspace(QQ, 2, [{0: 1, 1: half}], [0])


class TestInducedQuotientMap:
    def _setup(self):
        cycles = Subspace.full(QQ, 2)
        boundaries = Subspace.span(QQ, 2, [{0: Fraction(1)}])
        return cycles, boundaries

    def test_identity_induces_identity(self):
        cycles, boundaries = self._setup()
        f = SparseMatrix.identity(QQ, 2)
        g = induced_quotient_map(f, cycles, boundaries, cycles, boundaries)
        assert g == SparseMatrix.identity(QQ, 1)

    def test_zero_induces_zero(self):
        cycles, boundaries = self._setup()
        f = SparseMatrix.zero(QQ, 2, 2)
        g = induced_quotient_map(f, cycles, boundaries, cycles, boundaries)
        assert g.is_zero()

    def test_rejects_non_chain_map(self):
        cycles, boundaries = self._setup()
        small = Subspace.span(QQ, 2, [{1: Fraction(1)}])
        f = SparseMatrix.identity(QQ, 2)
        with pytest.raises(NotAChainMapError):
            induced_quotient_map(f, cycles, boundaries, small, Subspace.zero(QQ, 2))


small_entries = st.integers(min_value=-4, max_value=4)


@st.composite
def dense_matrices(draw, max_dim=5):
    rows = draw(st.integers(min_value=0, max_value=max_dim))
    cols = draw(st.integers(min_value=0, max_value=max_dim))
    data = draw(
        st.lists(
            st.lists(small_entries, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return data


@given(dense_matrices())
@settings(max_examples=120, deadline=None)
def test_rank_equals_rank_of_transpose(data):
    m = mat(data)
    assert rank(m) == rank(m.transpose())


@given(dense_matrices())
@settings(max_examples=120, deadline=None)
def test_rank_nullity(data):
    m = mat(data)
    assert m.cols == rank(m) + kernel_basis(m).dim


@given(dense_matrices())
@settings(max_examples=100, deadline=None)
def test_prime_field_rank_bounded_by_rational_rank(data):
    mq = mat(data)
    mp = mat(data, F1009)
    assert rank(mp) <= rank(mq)


both_fields = st.sampled_from([QQ, F1009])


def vectors(data, field):
    return [
        {i: field.from_rational(Fraction(v)) for i, v in enumerate(row) if v}
        for row in data
    ]


@given(dense_matrices(max_dim=4), st.randoms(use_true_random=False), both_fields)
@settings(max_examples=120, deadline=None)
def test_echelon_canonicalization(data, rng, field):
    vecs = vectors(data, field)
    cols = len(data[0]) if data else 0
    shuffled = list(vecs)
    rng.shuffle(shuffled)
    assert Subspace.span(field, cols, vecs) == Subspace.span(field, cols, shuffled)


@given(dense_matrices(), both_fields, st.integers(min_value=0, max_value=3))
@settings(max_examples=120, deadline=None)
def test_a_rank_bound_at_or_above_the_rank_changes_nothing(data, field, slack):
    m = mat(data, field)
    bound = rank(m) + slack
    assert rank(m, bound=bound) == rank(m)
    assert image_basis(m, bound=bound) == image_basis(m)


@given(dense_matrices(), both_fields)
@settings(max_examples=120, deadline=None)
def test_rref_rows_have_lead_one_and_clear_pivot_columns(data, field):
    ech = Echelon(field)
    for v in vectors(data, field):
        ech.insert(v)
    pivots, rows = ech.rref_rows()
    assert list(pivots) == sorted(pivots) and len(rows) == ech.rank
    for p, row in zip(pivots, rows):
        assert min(row) == p and row[p] == field.one
        assert all(v != field.zero for v in row.values())
        assert not any(q in row for q in pivots if q != p)


_SCALARS = st.sampled_from(
    [0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]
)


@st.composite
def rational_rows(draw, max_dim=6):
    """(cols, rows): a list of dense rational rows of length cols."""
    rows, cols = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    return cols, [[draw(_SCALARS) for _ in range(cols)] for _ in range(rows)]


def field_vectors(rows, field):
    return [
        {j: field.from_rational(Fraction(v)) for j, v in enumerate(row) if v}
        for row in rows
    ]


@given(rational_rows(), st.randoms(use_true_random=False), both_fields)
@settings(max_examples=150, deadline=None)
def test_rref_rows_equal_a_dense_gauss_jordan_in_any_insertion_order(data, rng, field):
    """The RREF, scalar types included, is that of an independent dense
    elimination, whatever order the rows go in."""
    cols, rows = data
    vecs = field_vectors(rows, field)
    shuffled = list(vecs)
    rng.shuffle(shuffled)
    ech = Echelon(field)
    for v in shuffled:
        ech.insert(v)
    pivots, rref = ech.rref_rows()
    expected = dense_rref(field, cols, vecs)
    assert (pivots, rref) == expected

    def types(rows):
        return [{k: type(v) for k, v in row.items()} for row in rows]

    assert types(rref) == types(expected[1])


@given(rational_rows(), st.data(), both_fields)
@settings(max_examples=150, deadline=None)
def test_stored_rows_stay_zero_at_every_other_pivot(data, draw, field):
    """After every insert, plain or tagged, each stored row leads at its
    pivot, is zero at every other pivot, and is normalized: gcd 1 with a
    positive lead over Q, lead 1 over GF(p)."""
    cols, rows = data
    tagged = draw.draw(st.booleans())
    ech = TaggedEchelon(field, cols, len(rows)) if tagged else Echelon(field)
    for i, vec in enumerate(field_vectors(rows, field)):
        if tagged:
            ech.insert(vec, {i: field.one} if draw.draw(st.booleans()) else {})
        else:
            ech.insert(vec)
        for c, row in ech.by_pivot.items():
            assert min(row) == c < cols
            assert not any(q in row for q in ech.by_pivot if q != c)
            if field == QQ:
                assert all(type(v) is int for v in row.values())
                assert row[c] > 0 and gcd(*row.values()) == 1
            else:
                assert row[c] == 1


@pytest.mark.parametrize("field", [QQ, F1009])
def test_an_insert_past_the_deadline_leaves_the_echelon_as_it_was(field):
    """A new pivot row that would step into every stored row raises on
    a past deadline before any stored row changes; the echelon then
    goes on as if the raise had never happened."""
    rows = [[1, 0, 2, 0], [0, 1, 3, 0], [0, 0, 1, 4]]
    vecs = field_vectors(rows, field)
    ech = Echelon(field)
    for v in vecs[:2]:
        ech.insert(v)
    before = {c: dict(row) for c, row in ech.by_pivot.items()}
    ech.deadline = 0.0
    with pytest.raises(BudgetExceededError):
        ech.insert(vecs[2])  # rows 0 and 1 hold column 2
    assert ech.by_pivot == before
    ech.deadline = None
    ech.insert(vecs[2])
    ech.insert(field_vectors([[0, 0, 0, 1]], field)[0])
    assert ech.rref_rows() == dense_rref(field, 4, vecs + field_vectors([[0, 0, 0, 1]], field))
    assert all(len(row) == 1 for row in ech.by_pivot.values())


@given(dense_matrices(), st.data(), both_fields)
@settings(max_examples=120, deadline=None)
def test_reduce_clears_the_pivots_and_stays_in_the_coset(data, draw, field):
    """reduce(v) has no pivot entries, v - reduce(v) lies in the span, and
    the residue equals a pass over every pivot in order."""
    cols = len(data[0]) if data else 0
    space = Subspace.span(field, cols, vectors(data, field))
    entries = draw.draw(st.lists(small_entries, min_size=cols, max_size=cols))
    (vec,) = vectors([entries], field)
    residue = space.reduce(vec)
    assert not any(p in residue for p in space.pivots)
    moved = dict(vec)
    vec_add_scaled(field, moved, field.neg(field.one), residue)
    assert Subspace.span(field, cols, list(space.basis) + [moved]) == space
    expected = dict(vec)  # one pass over every pivot in order
    for p, row in zip(space.pivots, space.basis):
        if p in expected:
            vec_add_scaled(field, expected, field.neg(expected[p]), row)
    assert residue == expected


@given(dense_matrices(max_dim=4), st.data(), both_fields)
@settings(max_examples=120, deadline=None)
def test_solve_finds_solutions(data, draw, field):
    """solve finds a solution of m x = m x', the one whose x_j is nonzero
    only where column j is not in the span of the columns before it
    (free variables 0), and returns None exactly when rhs is outside the
    column space."""
    m = mat(data, field)
    x, other = (
        vectors([draw.draw(st.lists(small_entries, min_size=n, max_size=n))], field)[0]
        for n in (m.cols, m.rows)
    )
    cols = m.columns()
    for rhs in (m.apply(x), other):
        sol = solve(m, rhs)
        if not Subspace.span(field, m.rows, cols).contains(rhs):
            assert sol is None
            continue
        assert sol is not None and m.apply(sol) == rhs
        for j, v in sol.items():
            assert v != field.zero
            assert not Subspace.span(field, m.rows, cols[:j]).contains(cols[j])


@given(dense_matrices(max_dim=4), dense_matrices(max_dim=4), st.data(), both_fields)
@settings(max_examples=120, deadline=None)
def test_class_coordinates_recover_the_class(bdata, edata, draw, field):
    """For cycles (the span of boundaries and extra vectors) containing
    boundaries, vec - sum_k class_coordinates(vec)_k reps_k is a boundary
    for every cycle vec, and a vector outside the cycles raises."""
    dim = draw.draw(st.integers(min_value=1, max_value=4))

    def cut(data):
        return [{k: v for k, v in vec.items() if k < dim} for vec in vectors(data, field)]

    bvecs = cut(bdata)
    boundaries = Subspace.span(field, dim, bvecs)
    cycles = Subspace.span(field, dim, bvecs + cut(edata))
    basis = HomologyBasis(cycles, boundaries)
    assert basis.dim == cycles.dim - boundaries.dim
    entries = st.lists(small_entries, min_size=dim, max_size=dim)
    for vec in vectors(draw.draw(st.lists(entries, max_size=3)), field):
        if not cycles.contains(vec):
            with pytest.raises(PreconditionError):
                basis.class_coordinates(vec)
            continue
        coords = basis.class_coordinates(vec)
        assert all(0 <= k < basis.dim and v != field.zero for k, v in coords.items())
        rest = dict(vec)
        for k, v in coords.items():
            vec_add_scaled(field, rest, field.neg(v), basis.reps[k])
        assert boundaries.contains(rest)


@st.composite
def kron_factors(draw):
    """(field, A, C, B, D) with A C and B D defined, dims 0..3."""
    field = draw(both_fields)
    r1, c1, k1, r2, c2, k2 = (draw(st.integers(min_value=0, max_value=3)) for _ in range(6))

    def shaped(rows, cols):
        data = draw(
            st.lists(
                st.lists(small_entries, min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            )
        )
        entries = {
            (r, c): field.from_rational(Fraction(v))
            for r, row in enumerate(data)
            for c, v in enumerate(row)
        }
        return from_entries(field, rows, cols, entries)

    return field, shaped(r1, c1), shaped(c1, k1), shaped(r2, c2), shaped(c2, k2)


@given(kron_factors())
@settings(max_examples=120, deadline=None)
def test_kron_entries_and_mixed_product(factors):
    field, a, c, b, d = factors
    ab = a.kron(b)
    assert ab.shape == (a.rows * b.rows, a.cols * b.cols)
    for i, j, k, l in itertools.product(
        range(a.rows), range(a.cols), range(b.rows), range(b.cols)
    ):
        expected = field.mul(entry(a, i, j), entry(b, k, l))
        assert entry(ab, i * b.rows + k, j * b.cols + l) == expected
    assert all(v != field.zero for _, v in ab.entries())
    assert (a @ c).kron(b @ d) == ab @ c.kron(d)


@given(
    both_fields,
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_commutation_swaps_the_factors(field, m, n, draw):
    """K(x (x) y) = y (x) x, and K_(n,m) K_(m,n) = I."""
    x, y = (
        vectors([draw.draw(st.lists(small_entries, min_size=k, max_size=k))], field)[0]
        for k in (m, n)
    )

    def tensor(u, u_dim, v, v_dim):
        column = SparseMatrix(field, u_dim, 1, [u]).kron(SparseMatrix(field, v_dim, 1, [v]))
        return column.column(0)

    k = commutation(field, m, n)
    assert k.shape == (m * n, m * n)
    assert k.apply(tensor(x, m, y, n)) == tensor(y, n, x, m)
    assert commutation(field, n, m) @ k == SparseMatrix.identity(field, m * n)


@given(both_fields, st.data())
@settings(max_examples=100, deadline=None)
def test_tensor_bilinear_is_the_product_of_the_two_maps(field, draw):
    """T(u1 (x) u2, v1 (x) v2) = m1(u1, v1) (x) m2(u2, v2) for
    T = tensor_bilinear(m1, x1, y1, m2, x2, y2), each map applied by
    `bilinear`."""
    x1, y1, x2, y2, r1, r2 = (
        draw.draw(st.integers(min_value=0, max_value=3)) for _ in range(6)
    )

    def vector(k):
        return vectors([draw.draw(st.lists(small_entries, min_size=k, max_size=k))], field)[0]

    def column(vec, dim):
        return SparseMatrix(field, dim, 1, [vec])

    def matrix(rows, cols):
        return SparseMatrix(field, rows, cols, [vector(rows) for _ in range(cols)])

    m1, m2 = matrix(r1, x1 * y1), matrix(r2, x2 * y2)
    u1, v1, u2, v2 = vector(x1), vector(y1), vector(x2), vector(y2)
    t = tensor_bilinear(m1, x1, y1, m2, x2, y2)
    assert t.shape == (r1 * r2, x1 * x2 * y1 * y2)
    lhs = bilinear(
        t,
        y1 * y2,
        column(u1, x1).kron(column(u2, x2)).column(0),
        column(v1, y1).kron(column(v2, y2)).column(0),
    )
    rhs = column(bilinear(m1, y1, u1, v1), r1).kron(column(bilinear(m2, y2, u2, v2), r2))
    assert lhs == rhs.column(0)


_SPARSE_ENTRIES = st.sampled_from(
    [0, 0, 0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]
)


@st.composite
def sparse_matrices(draw, field):
    """Mostly-zero matrices, with some rows repeated as sums of others so
    that the rank falls short of the row count."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 9))
    dense = [[Fraction(draw(_SPARSE_ENTRIES)) for _ in range(cols)] for _ in range(rows)]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        dense.append([x + y for x, y in zip(dense[i], dense[j])])
    entries = {
        (r, c): field.from_rational(v)
        for r, row in enumerate(dense)
        for c, v in enumerate(row)
        if field.from_rational(v) != field.zero
    }
    return from_entries(field, len(dense), cols, entries)


def _typed(subspace):
    return [{k: (type(v), v) for k, v in b.items()} for b in subspace.basis]


@given(st.data(), both_fields)
@settings(max_examples=200, deadline=None)
def test_kernel_basis_is_the_canonical_null_space(data, field):
    """The closed-form kernel equals the span of the null-space vectors
    written down from the natural-order RREF, with the same scalar types;
    it is annihilated by m and has dimension cols - rank; and any bound
    at or above the rank changes nothing."""
    m = data.draw(sparse_matrices(field))
    ker = kernel_basis(m)
    spanned = Subspace.span(field, m.cols, null_space_vectors(m))
    assert ker == spanned
    assert _typed(ker) == _typed(spanned)
    assert all(not m.apply(v) for v in ker.basis)
    r = rank(m)
    assert ker.dim == m.cols - r
    bounded = kernel_basis(m, bound=r + data.draw(st.integers(0, 3)))
    assert bounded == ker and _typed(bounded) == _typed(ker)


_KERNEL_FIELDS = [QQ, GF(2), GF(3), F1009]
_Q_SCALARS = [0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(-5, 6)]


@st.composite
def product_factors(draw):
    """(field, a, b) with a @ b defined; over Q both factors mix ints and
    Fractions, over GF(p) entries are residues near 0 and p, so that sums
    often cancel."""
    field = draw(st.sampled_from(_KERNEL_FIELDS))
    if field == QQ:
        scalars = st.sampled_from(_Q_SCALARS)
    else:
        p = field.p
        scalars = st.sampled_from([0, 0, 1, p - 1, 2 % p, (p - 2) % p, p // 2])
    r, s, c = (draw(st.integers(0, 4)) for _ in range(3))

    def matrix(rows, cols):
        columns = [
            {i: v for i in range(rows) if (v := draw(scalars))} for _ in range(cols)
        ]
        return SparseMatrix(field, rows, cols, columns)

    return field, matrix(r, s), matrix(s, c)


def _canonical(field, columns):
    """No zero is stored, and an integral rational is an int."""
    return all(
        v != 0 and (field != QQ or type(v) is int or v.denominator != 1)
        for col in columns
        for v in col.values()
    )


@given(product_factors())
@settings(max_examples=300, deadline=None)
def test_sparse_product_equals_the_dense_product(factors):
    """a @ b and a.apply(col) agree with a dense product on Fractions or
    residues, over Q, GF(2), GF(3) and GF(1009), in canonical scalars."""
    field, a, b = factors
    expected = dense_product(field, a, b)
    product = a @ b
    assert list(product.columns()) == expected
    assert _canonical(field, product.columns())
    applied = [a.apply(col) for col in b.columns()]
    assert applied == expected
    assert _canonical(field, applied)


@pytest.mark.parametrize(
    "field, left, right, expected",
    [
        (QQ, [{0: 1}, {0: 1}], [{0: Fraction(1, 2), 1: Fraction(-1, 2)}], [{}]),
        (QQ, [{0: Fraction(1, 3)}, {0: Fraction(2, 3)}], [{0: 1, 1: 1}], [{0: 1}]),
        (QQ, [{0: Fraction(1, 2)}, {0: 3}], [{0: 3, 1: Fraction(1, 2)}], [{0: 3}]),
        (GF(2), [{0: 1}, {0: 1}], [{0: 1, 1: 1}], [{}]),
        (GF(3), [{0: 1}, {0: 1}, {0: 1}], [{0: 1, 1: 1, 2: 1}], [{}]),
        (GF(3), [{0: 2}, {0: 2}], [{0: 2, 1: 1}], [{}]),
        (F1009, [{0: 1}, {0: 1}], [{0: 1, 1: 1008}, {0: 2, 1: 1008}], [{}, {0: 1}]),
    ],
)
def test_sparse_product_drops_sums_that_cancel(field, left, right, expected):
    """A sum that cancels stores nothing, an integral sum of fractions is
    an int, and a sum reduced once mod p is the sum of the residues."""
    a = SparseMatrix(field, 1, len(left), left)
    b = SparseMatrix(field, len(left), len(right), right)
    product = a @ b
    assert list(product.columns()) == expected
    assert [a.apply(col) for col in right] == expected
    assert _canonical(field, product.columns())


@st.composite
def wide_left_products(draw):
    """(a, b) over Q: a has up to 12 columns of ints and Fractions.  A
    narrow b has at most 2 columns, which read at most 2 of a's 5 or
    more; a wide b has up to 4 columns, which read any of a's."""
    narrow = draw(st.booleans())
    r, s = draw(st.integers(1, 4)), draw(st.integers(5 if narrow else 1, 12))
    scalars = st.sampled_from(_Q_SCALARS)
    a = SparseMatrix(
        QQ, r, s, [{i: v for i in range(r) if (v := draw(scalars))} for _ in range(s)]
    )
    read, c = range(s), draw(st.integers(0, 4))
    if narrow:
        read = draw(st.lists(st.integers(0, s - 1), min_size=1, max_size=2, unique=True))
        c = draw(st.integers(0, 2))
    b = SparseMatrix(
        QQ, s, c, [{k: v for k in read if (v := draw(scalars))} for _ in range(c)]
    )
    return a, b


@given(wide_left_products())
@settings(max_examples=300, deadline=None)
def test_a_product_over_q_clears_only_the_columns_it_reads(factors):
    """Over Q, a @ b equals the dense product on Fractions whether b reads
    a few columns of a or all of them; the columns it does not read,
    fractions or not, change nothing."""
    a, b = factors
    product = a @ b
    assert product == SparseMatrix(QQ, a.rows, b.cols, dense_product(QQ, a, b))
    assert _canonical(QQ, product.columns())
