import random
from fractions import Fraction

import pytest

from helpers import act_left_basis, center
from oracle_naive import act_left as naive_act_left
from oracle_naive import act_right as naive_act_right
from oracle_naive import alg_mul as naive_mul

from hochschild.algebra import (
    AlgebraMorphism,
    Bimodule,
    FiniteAlgebra,
    Triple,
    commutator_subspace,
    corner_triple,
    field_algebra,
    matrix_algebra,
    matrix_triple,
    morphism_defects,
    pullback_bimodule,
    regular_bimodule,
    trivial_triple,
    truncated_polynomial_algebra,
    unit_morphism,
    validate_algebra,
    validate_bimodule,
    validate_triple,
)
from hochschild.errors import PreconditionError, ScalarError
from hochschild.fields import GF, QQ
from hochschild.fixtures import NAMED_FIXTURES, fix_d, fix_dd, random_instances


def _frac(data):
    if isinstance(data, list):
        return tuple(_frac(x) for x in data)
    return Fraction(data)


def test_validate_ground_field():
    assert validate_algebra(field_algebra(QQ)).ok


def test_validate_dual_numbers():
    a = truncated_polynomial_algebra(QQ, 2)
    assert validate_algebra(a).ok


def test_unit_law_violation_reported():
    # e1*e1 = e1 but the unit is claimed to be e1 while e0 is missing
    one, zero = QQ.one, QQ.zero
    a = FiniteAlgebra.from_data(
        QQ,
        ("a", "b"),
        [[[one, zero], [zero, zero]], [[zero, zero], [zero, one]]],
        (zero, one),
    )
    rep = validate_algebra(a)
    assert not rep.ok
    assert any("unit" in item.label for item in rep.violations)


class TestFailureDetails:
    """The axioms are checked as matrix identities; a failure names the
    basis tuples of the columns that differ, in index order."""

    def test_associativity_names_its_triples(self):
        a = truncated_polynomial_algebra(QQ, 3)
        table = [[list(row) for row in plane] for plane in a.table]
        table[1][2] = [QQ.zero, QQ.one, QQ.zero]  # x * x^2 = x
        broken = FiniteAlgebra.from_data(QQ, a.basis_labels, table, a.unit)
        triples = "[(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2)]"
        assert [(v.label, v.detail) for v in validate_algebra(broken).violations] == [
            ("associativity", f"fails at triples {triples}")
        ]

    def test_unit_law_names_its_basis_indices(self):
        a = truncated_polynomial_algebra(QQ, 3)
        unit = (QQ.from_rational(2), QQ.zero, QQ.zero)
        broken = FiniteAlgebra.from_data(QQ, a.basis_labels, a.table, unit)
        assert [(v.label, v.detail) for v in validate_algebra(broken).violations] == [
            ("unit law", "fails at basis indices [0, 1, 2]")
        ]

    def test_non_multiplicative_eps_names_its_pairs(self):
        a = truncated_polynomial_algebra(QQ, 2)
        two = QQ.from_rational(2)
        eps = AlgebraMorphism.from_data(a, a, ((two, QQ.zero), (QQ.zero, QQ.one)))
        assert morphism_defects(eps) == (False, [(0, 0), (0, 1), (1, 0)])
        rep = validate_triple(Triple(a, a, eps))
        assert [(v.label, v.detail) for v in rep.violations] == [
            ("eps preserves unit", ""),
            ("eps multiplicative", "fails at pairs [(0, 0), (0, 1), (1, 0)]"),
        ]


def test_random_perturbation_fails_validation():
    rng = random.Random(7)
    a = truncated_polynomial_algebra(QQ, 3)
    for _ in range(10):
        table = [[list(row) for row in plane] for plane in a.table]
        i, j, k = (rng.randrange(3) for _ in range(3))
        table[i][j][k] += Fraction(1)
        perturbed = FiniteAlgebra.from_data(QQ, a.basis_labels, table, a.unit)
        assert not validate_algebra(perturbed).ok


class TestValidateTriple:
    def test_ground_field_triple(self):
        t = trivial_triple(field_algebra(QQ))
        assert validate_triple(t).ok

    def test_dual_numbers_identity_triple(self):
        t, _ = fix_dd()
        assert validate_triple(t).ok

    def test_centrality_violation(self):
        # eps(y) = e01 in M_2(Q) does not commute with e10
        a = matrix_algebra(QQ, 2)
        b = truncated_polynomial_algebra(QQ, 2, var="y")
        zero, one = QQ.zero, QQ.one
        eps_mat = [[zero] * 2 for _ in range(4)]
        eps_mat[0][0] = one  # unit of M_2
        eps_mat[3][0] = one
        eps_mat[1][1] = one  # y -> e01 (nilpotent, so a morphism)
        eps = AlgebraMorphism.from_data(b, a, eps_mat)
        rep = validate_triple(Triple(a, b, eps))
        assert not rep.ok
        assert any("centrality" in item.label for item in rep.violations)

    def test_centrality_names_its_pairs(self):
        # the triple above: eps(y) = e01 fails to commute with e00, e10, e11
        a = matrix_algebra(QQ, 2)
        b = truncated_polynomial_algebra(QQ, 2, var="y")
        zero, one = QQ.zero, QQ.one
        eps_mat = [[zero] * 2 for _ in range(4)]
        eps_mat[0][0] = eps_mat[3][0] = eps_mat[1][1] = one
        eps = AlgebraMorphism.from_data(b, a, eps_mat)
        rep = validate_triple(Triple(a, b, eps))
        assert [(v.label, v.detail) for v in rep.violations] == [
            ("centrality eps(B) in Z(A)", "fails at (beta, a) pairs [(1, 0), (1, 2), (1, 3)]")
        ]

    @pytest.mark.parametrize(
        "table, unit, label",
        [
            ([[[1, 0], [0, 1]]], [1, 0], "table shape"),  # one plane for dim 2
            ([[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [1], "unit shape"),
            ([[[1, 0, 0], [0, 1]], [[0, 1], [0, 0]]], [1, 0], "table shape"),  # row of 3
            ([[[1, 0], [0, 1]], [[0, 1], [0]]], [1, 0], "table shape"),  # row of 1
        ],
    )
    def test_shape_failure_ends_the_report(self, table, unit, label):
        # built through the API: instance files cannot carry these shapes
        a = FiniteAlgebra.from_data(QQ, ("1", "x"), _frac(table), _frac(unit))
        rep = validate_triple(trivial_triple(a))
        assert [v.label for v in rep.violations] == [f"algebra(1,x): {label}"]
        assert rep.items[-1].label.startswith("algebra(1): ")


class TestValidateBimodule:
    def test_regular_module(self):
        t, m = fix_dd()
        assert validate_bimodule(m, t).ok

    def test_matrix_algebra_over_scalars(self):
        a = matrix_algebra(QQ, 2)
        t = trivial_triple(a)
        assert validate_bimodule(regular_bimodule(a), t).ok

    def test_diagonal_pair_base_symmetric_iff_scalar(self):
        # B = Q x Q acting on M_2(Q) through the diagonal embedding is
        # B-symmetric only when eps lands in the scalars
        a = matrix_algebra(QQ, 2)
        zero, one = QQ.zero, QQ.one
        b = FiniteAlgebra.from_data(
            QQ,
            ("u", "v"),
            [[[one, zero], [zero, zero]], [[zero, zero], [zero, one]]],
            (one, one),
        )
        assert validate_algebra(b).ok
        m = regular_bimodule(a)
        diag = [[one, zero], [zero, zero], [zero, zero], [zero, one]]
        eps_diag = AlgebraMorphism.from_data(b, a, diag)
        t_diag = Triple(a, b, eps_diag)
        rep = validate_bimodule(m, t_diag)
        assert any("B-symmetry" in item.label for item in rep.violations)
        # the same embedding also breaks centrality at the triple level
        assert not validate_triple(t_diag).ok
        # u -> 1, v -> 0 is a unital morphism into the scalars
        eps_scalar = AlgebraMorphism.from_data(
            b, a, [[one, zero], [zero, zero], [zero, zero], [one, zero]]
        )
        t_scalar = Triple(a, b, eps_scalar)
        rep2 = validate_bimodule(m, t_scalar)
        assert not any("B-symmetry" in item.label for item in rep2.violations)

    def test_symmetry_violation_reported(self):
        # B generated by x inside the dual numbers, but M twisted so the
        # right action of eps(B) differs from the left action.
        a = truncated_polynomial_algebra(QQ, 2)
        t = Triple(a, a, AlgebraMorphism.identity(a))
        reg = regular_bimodule(a)
        phi = AlgebraMorphism.from_data(
            a, a, ((QQ.one, QQ.zero), (QQ.zero, -QQ.one))
        )
        twisted = Bimodule.from_data(QQ, 2, reg.left, pullback_bimodule(phi, reg).right)
        rep = validate_bimodule(twisted, t)
        assert not rep.ok
        assert any("B-symmetry" in item.label for item in rep.violations)

    def test_failures_of_all_kinds_in_column_order(self):
        # dual numbers whose left x . 1 and right x . x each gain a 1: the
        # failures are listed by column, and within a column in the order
        # left, right, commute
        a = truncated_polynomial_algebra(QQ, 2)
        t = Triple(a, a, AlgebraMorphism.identity(a))
        reg = regular_bimodule(a)
        left = [[list(row) for row in plane] for plane in reg.left]
        right = [[list(row) for row in plane] for plane in reg.right]
        left[1][0][0] += 1
        right[1][1][0] += 1
        m = Bimodule.from_data(QQ, 2, left, right)
        bad = (
            "[('left', 1, 1, 0), ('right', 1, 1, 0), ('commute', 1, 1, 0), "
            "('right', 1, 1, 1), ('commute', 1, 1, 1)]"
        )
        assert [(v.label, v.detail) for v in validate_bimodule(m, t).violations] == [
            ("associativity of actions", f"fails at {bad}"),
            ("B-symmetry", "fails at (beta, m) pairs [(1, 0), (1, 1)]"),
        ]


    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("where", [0, -1])
    def test_an_action_row_of_the_wrong_length_is_an_action_shape(self, side, extra, where):
        # built through the API: instance files cannot carry these shapes.
        # A row of FIX-DD's regular module one entry too long, or one too
        # short, shows in the shape of its action matrix
        t, m = fix_dd()
        tensors = {
            s: [[list(row) for row in plane] for plane in getattr(m, s)]
            for s in ("left", "right")
        }
        row = tensors[side][where][where]
        if extra:
            row.append(QQ.one)
        else:
            row.pop()
        bad = Bimodule.from_data(QQ, m.dim, tensors["left"], tensors["right"])
        assert [(v.label, v.detail) for v in validate_bimodule(bad, t).violations] == [
            ("action shape", "action tensors are not dim A x dim M x dim M")
        ]


class TestCenter:
    def test_commutative_algebra_is_its_own_center(self):
        a = truncated_polynomial_algebra(QQ, 3)
        assert center(a).dim == 3

    def test_matrix_algebra_center_is_scalars(self):
        a = matrix_algebra(QQ, 2)
        z = center(a)
        assert z.dim == 1
        assert z.contains(a.unit_vec())

    def test_upper_triangular_center(self):
        # basis e00, e01, e11 of upper-triangular 2x2 matrices
        zero, one = QQ.zero, QQ.one
        table = [[[zero] * 3 for _ in range(3)] for _ in range(3)]
        # e00*e00=e00, e00*e01=e01, e01*e11=e01, e11*e11=e11
        table[0][0][0] = one
        table[0][1][1] = one
        table[1][2][1] = one
        table[2][2][2] = one
        a = FiniteAlgebra.from_data(QQ, ("e00", "e01", "e11"), table, (one, zero, one))
        assert validate_algebra(a).ok
        z = center(a)
        assert z.dim == 1
        assert z.contains(a.unit_vec())


class TestCommutatorSubspace:
    def test_commutative_regular_module(self):
        a = truncated_polynomial_algebra(QQ, 2)
        assert commutator_subspace(regular_bimodule(a), a).dim == 0

    def test_matrix_algebra_trace_zero(self):
        a = matrix_algebra(QQ, 2)
        c = commutator_subspace(regular_bimodule(a), a)
        assert c.dim == 3
        # H_0 = M/[M, A] is then one-dimensional
        assert a.dim - c.dim == 1


class TestMatrixTriple:
    def test_n1_is_isomorphic(self):
        t, _ = fix_d()
        lifted, _ = matrix_triple(t, 1)
        assert lifted.A.table == t.A.table
        assert lifted.A.unit == t.A.unit

    def test_dimensions(self):
        t, _ = fix_d()
        lifted, _ = matrix_triple(t, 2)
        assert lifted.A.dim == 8
        assert lifted.B.dim == 1
        t, _ = fix_dd()
        lifted, _ = matrix_triple(t, 2)
        assert lifted.A.dim == 8
        assert lifted.B.dim == 2

    def test_output_is_a_valid_triple(self):
        t, m = fix_dd()
        lifted, lift = matrix_triple(t, 2)
        assert validate_triple(lifted).ok
        assert validate_bimodule(lift(m), lifted).ok

    def test_lifted_module_is_frozen_and_hashable(self):
        t, m = fix_d()
        _, lift = matrix_triple(t, 2)
        lifted = lift(m)
        assert isinstance(lifted.left[0][0], tuple)
        assert isinstance(lifted.right[0][0], tuple)
        assert hash(lifted) == hash(lift(m))

    def test_rejects_n0(self):
        t, _ = fix_d()
        with pytest.raises(PreconditionError):
            matrix_triple(t, 0)

    def test_matrix_unit_is_major(self):
        """Index (r*n + c)*dim + u, the order of the emitted -M2 fixture
        files: in FIX-D lifted to 2x2, (e01*x)(e10*1) = e00*x, in the
        algebra and in the lifted module alike."""
        t, m = fix_d()
        lifted, lift = matrix_triple(t, 2)
        labels = lifted.A.basis_labels
        assert (labels[1], labels[3], labels[4]) == ("e00*x", "e01*x", "e10*1")
        assert lifted.A.mul({3: QQ.one}, {4: QQ.one}) == {1: QQ.one}
        assert act_left_basis(lift(m), 3, 4) == {1: QQ.one}


class TestCornerTriple:
    def test_identity_idempotent(self):
        t, _ = fix_d()
        out = corner_triple(t, t.A.unit_vec())
        assert out.A.dim == t.A.dim
        assert validate_triple(out).ok

    def test_matrix_corner_is_scalar(self):
        a = matrix_algebra(QQ, 2)
        t = trivial_triple(a)
        out = corner_triple(t, {0: QQ.one})  # e00
        assert out.A.dim == 1
        assert validate_triple(out).ok

    def test_zero_idempotent_rejected(self):
        a = matrix_algebra(QQ, 2)
        t = trivial_triple(a)
        with pytest.raises(PreconditionError, match="AeA"):
            corner_triple(t, {})

    def test_non_idempotent_rejected(self):
        t, _ = fix_d()
        with pytest.raises(PreconditionError, match="idempotent"):
            corner_triple(t, {1: QQ.one})

    def test_corner_morphism_is_central(self):
        # eps_e is unital into eAe with central image: validate_triple checks both
        a = matrix_algebra(QQ, 2)
        b = field_algebra(QQ)
        t = Triple(a, b, unit_morphism(b, a))
        out = corner_triple(t, {0: QQ.one})
        rep = validate_triple(out)
        assert rep.ok


def test_random_instances_are_valid():
    for t, m in random_instances(seed=11, count=12):
        assert validate_triple(t).ok
        assert validate_bimodule(m, t).ok


# random_instances(7, 6) as drawn when the coefficient pool held Fractions:
# per instance, the A table | B table | eps | M left | M right, flattened
RANDOM_7_6 = [
    "1 0 0 1 0 1 1 -1 | 1 | 1 0 | 1 0 0 1 0 1 1 -1 | 1 0 0 1 0 1 1 -1",
    "1 | 1 | 1 | 1 | 1",
    "1 0 0 1 0 1 0 0 | 1 | 1 0 | 1 0 0 1 0 1 0 0 | 1 0 0 1 0 1 0 0",
    "1 | 1 | 1 | 1 | 1",
    "1 0 0 1 0 1 -3 1 | 1 0 0 1 0 1 -103/4 -2 | 1 1/2 0 -3 | 1 0 0 1 0 1 -3 1"
    " | 1 0 0 1 0 1 -3 1",
    "1 | 1 | 1 | 1 | 1",
]


def test_random_instances_draw_a_pinned_stream():
    """Canonical int scalars leave the seeded draws, and so the triples
    that the benchmark and the tests pick, unchanged."""
    def flat(x):
        if not isinstance(x, tuple):
            return [x]
        return [v for row in x for v in flat(row)]

    got = [
        [flat(x) for x in (t.A.table, t.B.table, t.eps.matrix, m.left, m.right)]
        for t, m in random_instances(7, 6)
    ]
    pinned = [
        [[Fraction(v) for v in part.split()] for part in line.split("|")]
        for line in RANDOM_7_6
    ]
    assert got == pinned


def test_center_always_contains_the_unit():
    for t, _ in random_instances(seed=17, count=8):
        assert center(t.A).contains(t.A.unit_vec())
    from hochschild.algebra import matrix_algebra as _ma

    assert center(_ma(QQ, 3)).contains(_ma(QQ, 3).unit_vec())


def _instances_over(field):
    """The named fixtures, their 2x2 lifts and random_instances(7, 6) in
    field; those whose literals have no image there are left out."""
    base = [fn() for fn in NAMED_FIXTURES.values()] + random_instances(7, 6)
    lifts = []
    for t, m in base[: len(NAMED_FIXTURES)]:
        lifted, lift = matrix_triple(t, 2)
        lifts.append((lifted, lift(m)))
    out = []
    for t, m in base + lifts:
        try:
            out.append((t.over(field), m.over(field)))
        except ScalarError:
            pass
    assert len(out) >= len(base + lifts) - 1
    return out


def _random_vec(rng, field, dim):
    """A dense Fraction list and the same vector in sparse form in field."""
    pool = (0, 0, 1, -1, 2, -3)
    if field is QQ:
        pool += (Fraction(1, 2), Fraction(2, 3))
    dense = [Fraction(rng.choice(pool)) for _ in range(dim)]
    conv = field.from_rational
    return dense, {i: conv(v) for i, v in enumerate(dense) if conv(v) != field.zero}


def _naive_in(field, dense):
    """A dense Fraction result of the oracle as a sparse vector: residues
    mod p over GF(p); over Q an integral value as an int."""
    p = getattr(field, "p", None)
    out = {}
    for i, v in enumerate(dense):
        if p is not None:
            v = v.numerator * pow(v.denominator, -1, p) % p
        if v:
            out[i] = v.numerator if v.denominator == 1 else v
    return out


def _same_typed(got, expected):
    assert got == expected
    assert all(type(got[k]) is type(expected[k]) for k in expected)


@pytest.mark.parametrize(
    "field", [QQ, GF(2), GF(3), GF(1009)], ids=["Q", "GF2", "GF3", "GF1009"]
)
def test_products_and_actions_match_the_dense_oracle(field):
    """FiniteAlgebra.mul, act_left and act_right (one `apply` of the
    Kronecker vector each) equal the oracle's dense loops, in value and
    in scalar type: an int wherever the value is integral."""
    rng = random.Random(5)
    for t, m in _instances_over(field):
        a = t.A
        for _ in range(4):
            xd, x = _random_vec(rng, field, a.dim)
            yd, y = _random_vec(rng, field, a.dim)
            _same_typed(a.mul(x, y), _naive_in(field, naive_mul(a, xd, yd)))
            vd, v = _random_vec(rng, field, m.dim)
            _same_typed(m.act_left(x, v), _naive_in(field, naive_act_left(m, xd, vd)))
            _same_typed(m.act_right(v, x), _naive_in(field, naive_act_right(m, vd, xd)))
