import copy
import functools
import itertools
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import apply_basis, build_complex, encode, entry, from_dense
from oracle_naive import (
    naive_classical_boundary,
    naive_rank,
    naive_secondary_boundary,
    naive_secondary_face,
)

from hochschild import complexes
from hochschild.algebra import (
    AlgebraMorphism,
    Bimodule,
    FiniteAlgebra,
    Triple,
    commutator_subspace,
    matrix_algebra,
    matrix_triple,
    regular_bimodule,
    trivial_triple,
    truncated_polynomial_algebra,
)
from hochschild.complexes import (
    ChainComplex,
    ChainIndexScheme,
    PeirceSplit,
    TopColumns,
    _verify_dd_zero,
    build_classical_complex,
    build_secondary_complex,
    classical_boundary,
    homology,
    pair_layout,
    secondary_boundary,
    secondary_scheme,
)
from hochschild.errors import (
    BudgetExceededError,
    ComplexInconsistencyError,
    InstanceFormatError,
    PreconditionError,
    ScalarError,
    SizeGuardError,
)
from hochschild.fields import GF, QQ
from hochschild.fixtures import (
    fix_d,
    fix_dd,
    fix_ext,
    fix_k,
    fix_kb,
    fix_p3,
    random_instances,
)
from hochschild.linalg import (
    Echelon,
    HomologyBasis,
    SparseMatrix,
    TaggedEchelon,
    _clear_rows,
    image_basis,
    induced_quotient_map,
    kernel_basis,
    rank,
    vec_add_scaled,
)
from hochschild.morita import standard_matrix_morita, verify_morita_invariance
from hochschild.serialize import Instance, parse_instance, serialize_instance

F1009 = GF(1009)


class TestIndexScheme:
    def test_counts(self):
        s = ChainIndexScheme(3, 2, 2, 2)
        assert s.total == 2 * 8 * 8
        assert s.pairs == ((1, 2), (1, 3), (2, 3))

    @pytest.mark.parametrize("dims", [(1, 1, 1), (2, 2, 2), (2, 3, 2), (3, 1, 2)])
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_round_trip_exhaustive(self, dims, degree):
        s = ChainIndexScheme(degree, *dims)
        for idx in range(s.total):
            mu, alphas, betas = s.decode(idx)
            assert encode(s, mu, alphas, betas) == idx

    @pytest.mark.parametrize("degree", [0, 1, 3])
    def test_an_index_out_of_range_is_refused(self, degree):
        s = ChainIndexScheme(degree, 2, 3, 2)
        for idx in (s.total, -1):
            with pytest.raises(ValueError, match="chain index out of range"):
                s.decode(idx)

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_round_trip_random(self, degree, dm, da, db, data):
        s = ChainIndexScheme(degree, dm, da, db)
        mu = data.draw(st.integers(min_value=0, max_value=dm - 1))
        alphas = tuple(
            data.draw(st.integers(min_value=0, max_value=da - 1))
            for _ in range(degree)
        )
        betas = tuple(
            data.draw(st.integers(min_value=0, max_value=db - 1))
            for _ in range(s.num_pairs)
        )
        idx = encode(s, mu, alphas, betas)
        assert 0 <= idx < s.total
        assert s.decode(idx) == (mu, alphas, betas)


def _typed(entries):
    """Each scalar with its type: `from_rational` gives a scalar its one
    form (over Q an int exactly when integral, over GF(p) an int in
    [0, p)), and Fraction(2, 1) == 2, so values alone would not show a
    scalar in another form."""
    return {key: (type(v), v) for key, v in entries}


def _naive_secondary_matrix_agrees(t, m, n, field=QQ):
    """The engine's boundary over field equals the Q oracle's, reduced
    into field through `from_rational` (entries that vanish there drop),
    in value and in form."""
    engine = secondary_boundary(t.over(field), m.over(field), n)
    src = secondary_scheme(t, m, n)
    tgt = secondary_scheme(t, m, n - 1)
    expected = {}
    for (skey, tkey), coeff in naive_secondary_boundary(t, m, n).items():
        col = encode(src, skey[0], skey[1], tuple(v for _, v in skey[2]))
        row = encode(tgt, tkey[0], tkey[1], tuple(v for _, v in tkey[2]))
        if (c := field.from_rational(coeff)) != field.zero:
            expected[(row, col)] = c
    assert _typed(engine.entries()) == _typed(expected.items())


def _naive_classical_matrix_agrees(a, m, n, field=QQ):
    engine = classical_boundary(a.over(field), m.over(field), n)
    src = ChainIndexScheme(n, m.dim, a.dim, 1)
    tgt = ChainIndexScheme(n - 1, m.dim, a.dim, 1)
    expected = {}
    for (skey, tkey), coeff in naive_classical_boundary(a, m, n).items():
        col = encode(src, skey[0], skey[1], ())
        row = encode(tgt, tkey[0], tkey[1], ())
        if (c := field.from_rational(coeff)) != field.zero:
            expected[(row, col)] = c
    assert _typed(engine.entries()) == _typed(expected.items())


class TestClassicalBoundary:
    def test_commutative_degree_one_is_zero(self):
        t, m = fix_k()
        assert classical_boundary(t.A, m, 1).is_zero()

    def test_matrix_algebra_degree_one_image(self):
        a = matrix_algebra(QQ, 2)
        m = regular_bimodule(a)
        d1 = classical_boundary(a, m, 1)
        assert image_basis(d1) == commutator_subspace(m, a)

    def test_degree_two_against_oracle(self):
        t, m = fix_d()
        _naive_classical_matrix_agrees(t.A, m, 2)

    def test_degree_zero_rejected(self):
        t, m = fix_d()
        with pytest.raises(PreconditionError):
            classical_boundary(t.A, m, 0)


class TestSecondaryBoundary:
    def test_degree_one_commutator_formula(self):
        a = matrix_algebra(QQ, 2)
        t = trivial_triple(a)
        m = regular_bimodule(a)
        assert secondary_boundary(t, m, 1) == classical_boundary(a, m, 1)

    def test_degree_two_formula_on_dual_numbers(self):
        # d(m (x) (a, b; alpha)) = m a eps(alpha) (x) b
        #                          - m (x) a eps(alpha) b + b eps(alpha) m (x) a
        t, m = fix_dd()
        d2 = secondary_boundary(t, m, 2)
        src = secondary_scheme(t, m, 2)
        tgt = secondary_scheme(t, m, 1)
        a = t.A
        for idx in range(src.total):
            mu, (a1, a2), (beta,) = src.decode(idx)
            expected = {}
            eb = apply_basis(t.eps, beta)
            for k, c in m.act_right({mu: QQ.one}, a.mul({a1: QQ.one}, eb)).items():
                for j, cj in [(a2, c)]:
                    key = encode(tgt, k, (j,), ())
                    expected[key] = expected.get(key, Fraction(0)) + cj
            for k, c in a.mul(a.mul({a1: QQ.one}, eb), {a2: QQ.one}).items():
                key = encode(tgt, mu, (k,), ())
                expected[key] = expected.get(key, Fraction(0)) - c
            for k, c in m.act_left(a.mul({a2: QQ.one}, eb), {mu: QQ.one}).items():
                key = encode(tgt, k, (a1,), ())
                expected[key] = expected.get(key, Fraction(0)) + c
            expected = {k: v for k, v in expected.items() if v}
            assert dict(d2.column(idx)) == expected

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_oracle_agreement_on_fixtures(self, degree, named_instances):
        for name, (t, m) in named_instances.items():
            if secondary_scheme(t, m, degree).total <= 200:
                _naive_secondary_matrix_agrees(t, m, degree)

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_oracle_agreement_on_random_instances(self, degree):
        for t, m in random_instances(seed=23, count=6):
            if secondary_scheme(t, m, degree).total <= 200:
                _naive_secondary_matrix_agrees(t, m, degree)

    def test_ground_base_collapse_is_bitwise(self, named_instances):
        for name, (t, m) in named_instances.items():
            if t.B.dim != 1:
                continue
            for n in (1, 2, 3):
                assert secondary_boundary(t, m, n) == classical_boundary(t.A, m, n)


class TestOracleModP:
    """GF(1009) boundaries against the Q oracle reduced mod 1009: a face's
    compiled terms may cancel mod p where they do not over Q."""

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_fixtures_and_random_instances(self, degree, named_instances):
        cases = list(named_instances.values()) + random_instances(seed=23, count=6)
        for t, m in cases:
            if secondary_scheme(t, m, degree).total <= 2048:
                _naive_secondary_matrix_agrees(t, m, degree, F1009)
            if ChainIndexScheme(degree, m.dim, t.A.dim, 1).total <= 2048:
                _naive_classical_matrix_agrees(t.A, m, degree, F1009)

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    @pytest.mark.parametrize("field", [GF(2), GF(3)], ids=["GF2", "GF3"])
    def test_fixtures_in_small_characteristic(self, field, degree, named_instances):
        """Over GF(2) each face's sign -1 is 1, and over GF(3) other
        terms cancel than over Q or GF(1009)."""
        for t, m in named_instances.values():
            if secondary_scheme(t, m, degree).total <= 2048:
                _naive_secondary_matrix_agrees(t, m, degree, field)
            if ChainIndexScheme(degree, m.dim, t.A.dim, 1).total <= 2048:
                _naive_classical_matrix_agrees(t.A, m, degree, field)

    def test_two_merges_at_degree_four(self):
        """Degree 4 of FIX-DD, where each interior face merges two
        b-pairs, over Q (the test above covers it over GF(1009))."""
        t, m = fix_dd()
        assert secondary_scheme(t, m, 4).total == 2048
        for i in (1, 2, 3):
            sources = [[k] for k in range(1, i)] + [[i, i + 1]]
            sources += [[k] for k in range(i + 2, 5)]
            layout = pair_layout(sources, 4)
            assert sum(len(ps) == 2 for ps in layout) == 2
        _naive_secondary_matrix_agrees(t, m, 4)


FIELDS = [QQ, GF(2), GF(3), F1009]
FIELD_IDS = ["Q", "GF2", "GF3", "GF1009"]


class TestScalarForm:
    """Every entry of a boundary equals the oracle's in value and in
    form: over Q an int exactly when its value is integral, over GF(p) an
    int in [0, p).  The oracle helpers compare both, so `TestOracleModP`
    checks the fixtures over GF(p) and this class adds the rest."""

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    def test_fixtures_and_random_instances(self, field, degree, named_instances):
        cases = random_instances(7, 6)
        if field == QQ:
            cases += list(named_instances.values())
        for t, m in cases:
            try:
                t.over(field), m.over(field)
            except ScalarError:  # a literal with no image in field
                continue
            if secondary_scheme(t, m, degree).total <= 2048:
                _naive_secondary_matrix_agrees(t, m, degree, field)
            if ChainIndexScheme(degree, m.dim, t.A.dim, 1).total <= 2048:
                _naive_classical_matrix_agrees(t.A, m, degree, field)

    @pytest.mark.parametrize("kind", ["secondary", "classical"])
    def test_masked_tops_of_a_lift(self, kind):
        """d_n of FIX-DD-M2 built at its `TopColumns`, n <= 3, against the
        oracle's faces at the flagged chains (those of `trivial_triple(A)`
        for the classical kind)."""
        t, m = _lifted(fix_dd)
        u = t if kind == "secondary" else trivial_triple(t.A)
        oracle = {}  # (n, chain): the oracle's column over Q
        for field in FIELDS:
            uf, mf = u.over(field), m.over(field)
            for n in (1, 2, 3):
                if kind == "secondary":
                    build = functools.partial(secondary_boundary, uf, mf, n)
                else:
                    build = functools.partial(classical_boundary, uf.A, mf, n)
                top = TopColumns.of(PeirceSplit.of(uf.A, uf.B, uf.eps.sparse, mf, n), build)
                chains = list(itertools.compress(range(len(top.mask)), top.mask))
                assert 0 < len(chains) < len(top.mask)
                for j, col in zip(chains, top.matrix.columns(), strict=True):
                    if (n, j) not in oracle:
                        oracle[(n, j)] = _naive_column(u, m, n, j)
                    want = {r: c for r, v in oracle[n, j].items() if (c := field.from_rational(v))}
                    assert _typed(col.items()) == _typed(want.items()), (field, n, j)


def _naive_column(t, m, n, j):
    """Column j of the secondary d_n over Q, summed from the oracle's faces."""
    src, tgt = secondary_scheme(t, m, n), secondary_scheme(t, m, n - 1)
    mu, alphas, betas = src.decode(j)
    key, col = (mu, alphas, tuple(zip(src.pairs, betas))), Counter()
    for face in range(n + 1):
        for (nu, gammas, deltas), c in naive_secondary_face(t, m, key, face).items():
            col[encode(tgt, nu, gammas, [v for _, v in deltas])] += (-1) ** face * c
    return col


def _lifted(fixture):
    t, m = fixture()
    lifted, lift = matrix_triple(t, 2)
    return lifted, lift(m)


class TestFaceLayout:
    """`_face_layout` depends on the degree alone: its cache is bounded
    and keeps no dims, so a boundary built with it warm, after instances
    of other dims, equals one built with it cold."""

    def test_the_cache_is_bounded(self):
        assert complexes._face_layout.cache_info().maxsize is not None

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    def test_cold_and_warm_layouts_build_equal_boundaries(self, field, named_instances):
        builds = []
        for t, m in list(named_instances.values()) + random_instances(7, 6):
            try:
                t, m = t.over(field), m.over(field)
            except ScalarError:  # a literal with no image in field
                continue
            for n in (1, 2, 3, 4):
                builds.append(functools.partial(secondary_boundary, t, m, n))
                builds.append(functools.partial(classical_boundary, t.A, m, n))
        t, m = (x.over(field) for x in _lifted(fix_dd))
        for n in (1, 2, 3):
            build = functools.partial(secondary_boundary, t, m, n)
            top = TopColumns.of(PeirceSplit.of(t.A, t.B, t.eps.sparse, m, n), build)
            builds.append(functools.partial(build, top.mask))
        cold = []
        for build in builds:
            complexes._face_layout.cache_clear()
            cold.append(build())
        assert complexes._face_layout.cache_info().currsize == 1
        for build, want in zip(builds, cold, strict=True):
            got = build()
            assert (got.rows, got.cols) == (want.rows, want.cols)
            assert [_typed(col.items()) for col in got.columns()] == [
                _typed(col.items()) for col in want.columns()
            ]
        assert complexes._face_layout.cache_info().hits > 0


class TestOracleOnNonCommutativeA:
    """2x2 lifts: faces merge b-slots while A is non-commutative."""

    def test_secondary_dd_m2_degree_two(self):
        _naive_secondary_matrix_agrees(*_lifted(fix_dd), 2)

    def test_secondary_kb_m2_degree_three(self):
        _naive_secondary_matrix_agrees(*_lifted(fix_kb), 3)

    def test_classical_d_m2_degree_two(self):
        t, m = _lifted(fix_d)
        _naive_classical_matrix_agrees(t.A, m, 2)


class TestBuildComplex:
    def test_ground_field_dims(self):
        t, m = fix_k()
        c = build_complex("classical", t, m, 3)
        assert c.dims == (1, 1, 1, 1)
        # alternating sum of n+1 unit faces: zero in odd degree, the
        # identity in even degree
        assert c.boundaries[1].is_zero()
        assert entry(c.boundaries[2], 0, 0) == QQ.one
        assert c.boundaries[3].is_zero()
        assert [homology(c, n).dim for n in range(3)] == [1, 0, 0]

    def test_dual_number_dims(self):
        t, m = fix_d()
        c = build_complex("secondary", t, m, 3)
        assert c.dims == (2, 4, 8, 16)

    def test_secondary_dims_grow_with_pairs(self):
        t, m = fix_dd()
        c = build_secondary_complex(t, m, 3)
        assert c.dims == (2, 4, 16, 128)

    def test_boundary_squared_zero_on_random_instances(self):
        # asking for every boundary raises if any composite is nonzero
        for t, m in random_instances(seed=5, count=8):
            build_secondary_complex(t, m, 3).boundaries

    @pytest.mark.parametrize(
        "field", [QQ, GF(2), GF(3), F1009], ids=["Q", "GF2", "GF3", "GF1009"]
    )
    def test_full_degree_four_tops_pass_the_dd_check(self, monkeypatch, field):
        """Homology builds d_4 only as far as it reads it; asking for
        every boundary of FIX-DD, FIX-P3 and FIX-EXT to degree 4, whose
        interior faces merge two b-pairs, checks d_3 d_4 = 0 on all of
        d_4."""
        checked = []
        verify = complexes._verify_dd_zero

        def recording(boundaries, start=1):
            checked.append((start, boundaries[-1].cols))
            return verify(boundaries, start)

        monkeypatch.setattr(complexes, "_verify_dd_zero", recording)
        for fixture in (fix_dd, fix_p3, fix_ext):
            t, m = (x.over(field) for x in fixture())
            checked.clear()
            cx = build_secondary_complex(t, m, 4)
            assert cx.boundaries[4] == secondary_boundary(t, m, 4)
            assert checked == [(1, 0), (3, cx.dims[4])]

    def test_size_guard(self):
        t, m = fix_dd()
        with pytest.raises(SizeGuardError):
            build_secondary_complex(t, m, 3, guard_bytes=100)

    def test_degree_cap(self):
        t, m = fix_k()
        with pytest.raises(PreconditionError):
            build_secondary_complex(t, m, 5)
        build_secondary_complex(t, m, 5, degree_cap=6)


class TestHomology:
    def test_h0_formula(self, named_instances):
        for name, (t, m) in named_instances.items():
            c = build_secondary_complex(t, m, 1)
            expected = m.dim - commutator_subspace(m, t.A).dim
            assert homology(c, 0).dim == expected

    def test_h1_vanishes_for_identity_base(self):
        t, m = fix_dd()
        c = build_secondary_complex(t, m, 2)
        assert homology(c, 1).dim == 0

    def test_classical_h1_of_dual_numbers(self):
        t, m = fix_d()
        c = build_classical_complex(t.A, m, 2)
        res = homology(c, 1, with_reps=True)
        # frozen from the dense elimination oracle on the same matrices
        d1 = classical_boundary(t.A, m, 1)
        d2 = classical_boundary(t.A, m, 2)
        oracle_dim = (
            d1.cols - naive_rank(d1.to_dense()) - naive_rank(d2.to_dense())
        )
        assert oracle_dim == 1
        assert res.dim == 1
        assert len(res.reps) == 1

    def test_reps_are_independent_cycles(self):
        t, m = fix_p3()
        c = build_secondary_complex(t, m, 2)
        res = homology(c, 1, with_reps=True)
        d1 = c.boundary(1)
        for rep in res.reps:
            assert not d1.apply(rep)
        assert res.dim == len(res.reps) == 2

    def test_reps_eliminate_each_boundary_once(self, monkeypatch):
        """No boundary column is inserted twice, and spanning d_n stops
        once its image fills ker d_(n-1): only 28 of d_3's 128 columns
        of FIX-DD are inserted."""
        t, m = fix_dd()
        c = build_secondary_complex(t, m, 3)
        owner = {id(col): n for n in (1, 2, 3) for col in c.boundary(n).columns()}
        assert len(owner) == sum(c.boundary(n).cols for n in (1, 2, 3))
        inserted = Counter()
        insert = Echelon.insert

        def counting_insert(self, vec):
            if id(vec) in owner:
                inserted[id(vec)] += 1
            return insert(self, vec)

        monkeypatch.setattr(Echelon, "insert", counting_insert)
        dims = [homology(c, n, with_reps=True).dim for n in range(3)]
        assert set(inserted.values()) == {1}
        assert Counter(owner[k] for k in inserted) == {1: 4, 2: 4, 3: 28}
        assert c.boundary(3).cols == 128
        fresh = build_secondary_complex(t, m, 3)
        assert dims == [homology(fresh, n).dim for n in range(3)]

    def test_homology_basis_honours_the_deadline(self):
        """With the full cycles and boundaries of FIX-DD-M2 at degree 2
        already built, a basis over them still reduces 966 dependent
        cycles against 966 boundary rows, more row steps than the 512
        between deadline checks, and `homology` with representatives,
        which reads C^s only, still eliminates the 128 cyclic columns of
        d_2 for its kernel: a past deadline stops the basis, `homology`
        with representatives and `induced_quotient_map`, and a later call
        without one succeeds."""
        c = build_secondary_complex(*_lifted(fix_dd), 3)
        cycles, image = c.cycle_space(2), c.boundary_image(3)
        assert cycles.dim == image.dim == 966
        past = time.monotonic() - 1
        with pytest.raises(BudgetExceededError):
            HomologyBasis(cycles, image, deadline=past)
        with pytest.raises(BudgetExceededError):
            homology(c, 2, with_reps=True, deadline=past)
        ident = SparseMatrix.identity(c.field, c.dims[2])
        with pytest.raises(BudgetExceededError):
            induced_quotient_map(ident, cycles, image, cycles, image, deadline=past)
        assert homology(c, 2, with_reps=True).dim == 0

    def test_homology_basis_is_kept_per_degree(self):
        t, m = fix_p3()
        c = build_secondary_complex(t, m, 2)
        basis = c.homology_basis(1)
        assert c.homology_basis(1) is basis
        assert homology(c, 1, with_reps=True).reps == basis.reps

    def test_degree_out_of_range(self):
        t, m = fix_k()
        c = build_secondary_complex(t, m, 2)
        with pytest.raises(PreconditionError):
            homology(c, 2)
        with pytest.raises(PreconditionError):
            homology(c, -1)

    def test_prime_field_dims_match_rational_dims(self, named_instances):
        for name, (t, m) in named_instances.items():
            cq = build_secondary_complex(t, m, 3)
            cp = build_secondary_complex(t.over(F1009), m.over(F1009), 3)
            dims_q = [homology(cq, n).dim for n in range(3)]
            dims_p = [homology(cp, n).dim for n in range(3)]
            assert dims_q == dims_p


class TestClosedForms:
    """Homology with a closed form, past the default degree cap."""

    @pytest.mark.parametrize(
        "nil, top, field",
        [(2, 8, QQ), (2, 8, GF(2)), (2, 8, F1009)]
        + [(3, 6, QQ), (3, 6, GF(3)), (3, 6, F1009)],
        ids=["N2-Q", "N2-GF2", "N2-GF1009", "N3-Q", "N3-GF3", "N3-GF1009"],
    )
    def test_classical_truncated_polynomials(self, nil, top, field):
        """HH_n(k[x]/(x^N), A) has dim N at n = 0, and above it N - 1, or
        N when the characteristic divides N."""
        a = truncated_polynomial_algebra(field, nil)
        m = regular_bimodule(a)
        cx = build_classical_complex(a, m, top + 1, degree_cap=top + 1)
        higher = nil if field != QQ and nil % field.p == 0 else nil - 1
        assert [homology(cx, n).dim for n in range(top + 1)] == [nil] + [higher] * top

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=["Q", "GF2", "GF3"])
    @pytest.mark.parametrize(
        "fixture, top",
        [(fix_k, 3), (fix_d, 3), (fix_dd, 3), (fix_p3, 3), (fix_ext, 2)],
        ids=["FIX-K", "FIX-D", "FIX-DD", "FIX-P3", "FIX-EXT"],
    )
    def test_secondary_with_identity_base(self, fixture, top, field):
        """For (A, A, id) and the regular M = A (A commutative), H_0 is
        M and every higher group vanishes."""
        a = fixture()[0].A.over(field)
        t, m = Triple(a, a, AlgebraMorphism.identity(a)), regular_bimodule(a)
        cx = build_secondary_complex(t, m, top + 1, degree_cap=top + 1)
        assert [homology(cx, n).dim for n in range(top + 1)] == [m.dim] + [0] * top


def _lifts(named_instances):
    """The 2x2 matrix lifts of the named fixtures and of random_instances(7, 6)."""
    bases = list(named_instances.items())
    bases += [(f"random {i}", tm) for i, tm in enumerate(random_instances(7, 6))]
    lifts = {}
    for name, (t, m) in bases:
        lifted, lift = matrix_triple(t, 2)
        lifts[f"{name}-M2"] = (lifted, lift(m))
    return lifts


def _build_kind(kind, t, m, top):
    if kind == "classical":
        return build_classical_complex(t.A, m, top)
    return build_secondary_complex(t, m, top)


class TestPeirceSplit:
    """A complex whose unit has several coordinates eliminates only its
    cyclic block paths; a checked contracting homotopy covers the rest."""

    @pytest.mark.parametrize("kind", ["secondary", "classical"])
    @pytest.mark.parametrize(
        "field", [QQ, GF(2), GF(3), F1009], ids=["Q", "GF2", "GF3", "GF1009"]
    )
    def test_split_answers_equal_full_elimination(self, named_instances, field, kind):
        """On every lift, images, ranks, cycle spaces and representatives
        equal `image_basis`, `rank` and `kernel_basis` of the full
        boundaries.  Homology is taken to degree 2, or to degree 1 where
        degree 3 has more than 10^4 chains."""
        for name, (t, m) in _lifts(named_instances).items():
            try:
                t, m = t.over(field), m.over(field)
            except ScalarError:  # a literal with no image in field
                continue
            degree_3 = m.dim * t.A.dim**3 * (t.B.dim**3 if kind == "secondary" else 1)
            top = 2 if degree_3 <= 10**4 else 1
            cx, fresh = (_build_kind(kind, t, m, top + 1) for _ in range(2))
            assert cx.split is not None, name
            d = cx.boundaries
            for n in range(top + 1):
                reps = homology(cx, n, with_reps=True).reps
                cycles = kernel_basis(d[n]) if n else cx.cycle_space(0)
                image = image_basis(d[n + 1])
                assert cx.boundary_image(n + 1) == image, (name, n)
                assert cx.cycle_space(n) == cycles, (name, n)
                assert reps == HomologyBasis(cycles, image).reps, (name, n)
                assert fresh.boundary_rank(n + 1) == rank(d[n + 1]), (name, n)
                assert homology(fresh, n).dim == len(reps), (name, n)

    @pytest.mark.parametrize("field", [QQ, GF(2)], ids=["Q", "GF2"])
    def test_units_of_two_coordinates_in_a_and_b(self, field):
        """(k x k, k x k, id) with M = A and its 2x2 lift: every new b-slot
        of h holds the unit of B, a sum of two basis vectors.  The answers
        equal full elimination, and both have H_0 = M and H_n = 0 above."""
        one, zero = field.one, field.zero
        table = [[[one, zero], [zero, zero]], [[zero, zero], [zero, one]]]
        kk = FiniteAlgebra.from_data(field, ("e1", "e2"), table, (one, one))
        t, m = Triple(kk, kk, AlgebraMorphism.identity(kk)), regular_bimodule(kk)
        lifted, lift = matrix_triple(t, 2)
        for t, m, top in ((t, m, 3), (lifted, lift(m), 1)):
            cx = build_secondary_complex(t, m, top + 1)
            assert len(set(cx.split.labels_a)) > 1
            d = cx.boundaries
            for n in range(top + 1):
                assert cx.boundary_image(n + 1) == image_basis(d[n + 1]), n
            assert [homology(cx, n).dim for n in range(top + 1)] == [2] + [0] * top

    @pytest.mark.parametrize("kind", ["secondary", "classical"])
    def test_a_unit_with_one_coordinate_splits_nothing(self, named_instances, kind):
        cases = dict(named_instances)
        cases.update((f"random {i}", tm) for i, tm in enumerate(random_instances(7, 6)))
        for name, (t, m) in cases.items():
            assert len(t.A.unit_vec()) == 1, name
            assert _build_kind(kind, t, m, 2).split is None, name

    def test_only_cyclic_columns_are_eliminated(self, monkeypatch):
        """Spanning d_3 of FIX-DD-M2 inserts its nonzero cyclic columns
        only, at most 2,048 of its 32,768 columns."""
        cx = build_secondary_complex(*_lifted(fix_dd), 3)
        cyclic = [col for col, c in zip(cx.boundary(3).columns(), cx.split.masks[3]) if c]
        assert len(cyclic) == 2048
        expected = image_basis(cx.boundary(3))
        cx.cycle_space(2)
        inserted = []
        insert = Echelon.insert

        def recording_insert(self, vec):
            inserted.append(vec)
            return insert(self, vec)

        monkeypatch.setattr(Echelon, "insert", recording_insert)
        assert cx.boundary_image(3) == expected
        assert 0 < len(inserted) <= 2048
        ids = {id(col) for col in cyclic}
        assert all(vec and id(vec) in ids for vec in inserted)

    def test_a_homotopy_with_the_wrong_sign_is_refused(self, monkeypatch):
        """With (-1)^k replaced by +1, dh + hd = id fails on the chains
        whose first broken junction is odd, and the first rank or image
        request raises."""
        monkeypatch.setattr(complexes, "_insertion_sign", lambda field, k: field.one)
        for request in ("boundary_rank", "boundary_image"):
            cx = build_secondary_complex(*_lifted(fix_dd), 2)
            with pytest.raises(ComplexInconsistencyError, match="homotopy fails at degree"):
                getattr(cx, request)(1)

    def test_a_column_that_crosses_parts_is_refused(self):
        """A chain of degree 1 moved into the other part, while its
        boundary column is not zero, leaves d_1 crossing the parts."""
        cx = build_secondary_complex(*_lifted(fix_dd), 2)
        split = cx.split
        j = next(j for j, col in enumerate(cx.boundary(1).columns()) if col)
        mask = bytearray(split.masks[1])
        mask[j] ^= 1
        bad = copy.copy(split)
        bad.masks = (split.masks[0], bytes(mask), split.masks[2])
        moved = ChainComplex(cx.field, cx.dims, cx.boundaries, bad)
        with pytest.raises(ComplexInconsistencyError, match="at degree 1 leaves its Peirce"):
            moved.boundary_rank(1)


@pytest.mark.parametrize("mutant", ["a later junction", "two e_q swapped"])
def test_a_homotopy_with_the_wrong_insertion_is_refused(monkeypatch, mutant):
    """h with each C^non chain's e_q inserted one junction after its
    first broken one, where there is one, or with the e_q of two
    label classes swapped: dh + hd = id fails, and the first rank or
    image request raises."""
    init = PeirceSplit.__init__

    def mutated(self, *args):
        init(self, *args)
        if mutant == "a later junction":
            self.states = tuple(
                [(l, q, k + 1) if k < n else (l, q, k) for l, q, k in states]
                for n, states in enumerate(self.states)
            )
        else:
            p, q = [c for c, terms in enumerate(self.units) if terms][:2]
            self.units[p], self.units[q] = self.units[q], self.units[p]

    monkeypatch.setattr(PeirceSplit, "__init__", mutated)
    for request in ("boundary_rank", "boundary_image"):
        cx = build_secondary_complex(*_lifted(fix_dd), 2)
        with pytest.raises(ComplexInconsistencyError, match="homotopy fails at degree"):
            getattr(cx, request)(1)


def _recording_builds(monkeypatch):
    """(first argument, degree, masked, matrix) of each boundary build."""
    calls = []
    for name in ("secondary_boundary", "classical_boundary"):

        def recording(first, m, n, mask=None, _build=getattr(complexes, name)):
            d = _build(first, m, n, mask)
            calls.append((first, n, mask is not None, d))
            return d

        monkeypatch.setattr(complexes, name, recording)
    return calls


def _corrupting(monkeypatch, change, degree=3):
    """Builds of d_degree with a mask pass their columns through
    change(mask, cols)."""
    build = complexes._boundary

    def corrupted(a, b, eps, m, n, mask=None):
        d = build(a, b, eps, m, n, mask)
        if n != degree or mask is None:
            return d
        return SparseMatrix(d.field, d.rows, d.cols, change(mask, list(d.columns())))

    monkeypatch.setattr(complexes, "_boundary", corrupted)


class TestTopColumns:
    """A split complex builds d_T only at C^s_T and at the support of
    h_(T-1), until the full d_T is asked for."""

    @pytest.mark.parametrize("fixture, built", [(fix_dd, 2944), (fix_p3, 2808)])
    def test_the_top_is_built_at_the_columns_read(self, monkeypatch, fixture, built):
        """Homology with representatives reads no other column of d_3;
        asking for d_3 builds the rest once, and its columns equal a
        separately built d_3, the built ones the very same objects."""
        calls = _recording_builds(monkeypatch)
        t, m = _lifted(fixture)
        cx = build_secondary_complex(t, m, 3)
        for n in range(3):
            homology(cx, n, with_reps=True)
        assert [(masked, d.cols) for _, n, masked, d in calls if n == 3] == [(True, built)]
        full = cx.boundary(3)
        assert cx.boundaries[3] is full and cx.boundary(3) is full
        assert full == secondary_boundary(t, m, 3)
        tops = [d for _, n, _, d in calls if n == 3]
        assert [d.cols for d in tops] == [built, cx.dims[3] - built]
        kept = {id(col) for col in tops[0].columns()}
        assert len(kept & {id(col) for col in full.columns()}) == built

    def test_morita_invariance_builds_no_full_top(self, monkeypatch):
        """To degree 2 the lifted side of FIX-DD is built to degree 3,
        only at the columns it reads."""
        t, m = fix_dd()
        context = standard_matrix_morita(t, 2)
        calls = _recording_builds(monkeypatch)
        assert verify_morita_invariance(context, m, 2).ok
        top = [(masked, d.cols) for who, n, masked, d in calls if who is context.target and n == 3]
        assert top == [(True, 2944)]

    @pytest.mark.parametrize("kind", ["secondary", "classical"])
    @pytest.mark.parametrize(
        "field", [QQ, GF(2), GF(3), F1009], ids=["Q", "GF2", "GF3", "GF1009"]
    )
    def test_answers_equal_the_full_top(self, monkeypatch, field, kind):
        """Where the full d_3 was never asked for, image, rank, cycles and
        representatives equal full elimination of a d_3 built apart."""
        for fixture in (fix_dd, fix_p3):
            t, m = (x.over(field) for x in _lifted(fixture))
            if kind == "secondary":
                full = secondary_boundary(t, m, 3)
            else:
                full = classical_boundary(t.A, m, 3)
            calls = _recording_builds(monkeypatch)
            cx, fresh = (_build_kind(kind, t, m, 3) for _ in range(2))
            cycles, image = kernel_basis(cx.boundary(2)), image_basis(full)
            assert cx.boundary_image(3) == image
            assert cx.cycle_space(2) == cycles
            assert homology(cx, 2, with_reps=True).reps == HomologyBasis(cycles, image).reps
            assert fresh.boundary_rank(3) == rank(full)
            tops = [(masked, d.cols) for _, n, masked, d in calls if n == 3]
            assert tops == [(True, tops[0][1])] * 2 and tops[0][1] < full.cols
            monkeypatch.undo()

    @pytest.mark.parametrize(
        "row_in, message",
        [("noncyclic", "boundary composite nonzero at degree 3"),
         ("cyclic", "column at degree 3 leaves its Peirce part")],
    )
    def test_a_corrupted_unbuilt_column_is_caught(self, monkeypatch, row_in, message):
        """A term added to a column left out at first: one in C^non_2
        where d_2 is not zero breaks d d = 0, one in C^s_2 where it is
        zero leaves C^non; asking for d_3 raises either way."""
        cx = build_secondary_complex(*_lifted(fix_dd), 3)
        d2, cyclic = cx.boundary(2), cx.split.masks[2]
        want = row_in == "cyclic"
        row = next(
            r for r, col in enumerate(d2.columns()) if cyclic[r] == want and bool(col) != want
        )
        one = cx.field.one
        _corrupting(monkeypatch, lambda mask, cols: [{**cols[0], row: one}] + cols[1:])
        with pytest.raises(ComplexInconsistencyError, match=message):
            cx.boundary(3)

    def test_a_term_moved_across_parts_is_caught(self, monkeypatch):
        """A nonzero cyclic column of d_3, a cycle in C^s_2, added to a
        built column outside C^s_3 keeps d d = 0, and the certificate
        refuses it on the first rank request."""
        t, m = _lifted(fix_dd)
        split = PeirceSplit.of(t.A, t.B, t.eps.sparse, m, 3)

        def move(mask, cols):
            chains = itertools.compress(range(len(mask)), mask)
            flags = [split.masks[3][j] for j in chains]
            inside = next(p for p, col in enumerate(cols) if flags[p] and col)
            outside = next(p for p, col in enumerate(cols) if not flags[p] and col)
            cols[outside] = {**cols[outside], **cols[inside]}
            return cols

        _corrupting(monkeypatch, move)
        cx = build_secondary_complex(t, m, 3)
        with pytest.raises(ComplexInconsistencyError, match="at degree 3 leaves its Peirce"):
            cx.boundary_rank(3)


class TestUnsplitTop:
    """A complex without a split builds d_T in blocks, in index order, as
    elimination reads it, and no further than its rank bound."""

    def test_homology_builds_two_blocks_of_d4(self, monkeypatch):
        """FIX-DD has H_3 = 0, so ranking d_4 stops at its bound after 325
        of its 2,048 columns, read sparsest first: two blocks of 256 hold
        them."""
        calls = _recording_builds(monkeypatch)
        cx = build_secondary_complex(*fix_dd(), 4)
        assert cx.split is None
        assert [homology(cx, n).dim for n in range(4)] == [2, 0, 0, 0]
        assert [(masked, d.cols) for _, n, masked, d in calls if n == 4] == [(True, 256)] * 2

    @pytest.mark.parametrize("request_", ["rank", "image"])
    def test_blocks_are_read_whole_and_sparsest_first(self, monkeypatch, request_):
        """Each block of d_4 of FIX-DD reaches elimination as its nonzero
        columns in a stable sort by nnz, read whole before the next block
        is built: 325 columns of two blocks.  boundary(4) then equals a
        d_4 built apart, with the built columns the very same objects, in
        index order."""
        calls = _recording_builds(monkeypatch)
        read = []  # (blocks of d_4 built, column) of each top column read
        for name in ("rank", "image_basis"):

            def recording(m, deadline=None, bound=None, _run=getattr(complexes, name)):
                if not isinstance(m, complexes._Growing):
                    return _run(m, deadline=deadline, bound=bound)

                def columns():
                    for col in m.columns():
                        read.append((sum(n == 4 for _, n, _, _ in calls), col))
                        yield col

                grown = complexes._Growing(m.field, m.rows, columns)
                return _run(grown, deadline=deadline, bound=bound)

            monkeypatch.setattr(complexes, name, recording)
        t, m = fix_dd()
        cx = build_secondary_complex(t, m, 4)
        for n in range(4):
            homology(cx, n, with_reps=request_ == "image")
        tops = [d for _, n, _, d in calls if n == 4]
        assert [d.cols for d in tops] == [256, 256]
        assert len(read) == 325
        for k, block in enumerate(tops, 1):
            got = [col for built, col in read if built == k]
            want = sorted(filter(None, block.columns()), key=len)
            assert all(got) and [len(col) for col in got] == sorted(map(len, got))
            assert [id(col) for col in got] == [id(col) for col in want[: len(got)]]
            assert len(got) == len(want) or k == len(tops)
        full = cx.boundary(4)
        assert full == secondary_boundary(t, m, 4)
        built = [id(col) for d in tops for col in d.columns()]
        assert built == [id(col) for col in full.columns()[:512]]

    @pytest.mark.parametrize("kind", ["secondary", "classical"])
    @pytest.mark.parametrize(
        "field", [QQ, GF(2), GF(3), F1009], ids=["Q", "GF2", "GF3", "GF1009"]
    )
    def test_answers_equal_full_elimination(self, field, kind):
        """Dims, rank d_4, the image of d_4 and the representatives of H_3
        equal full elimination of a d_4 built apart."""
        cases = {"FIX-DD": fix_dd(), "FIX-KB": fix_kb(), "FIX-EXT": fix_ext()}
        cases.update((f"random {i}", tm) for i, tm in enumerate(random_instances(7, 6)))
        for name, (t, m) in cases.items():
            try:
                t, m = t.over(field), m.over(field)
            except ScalarError:  # a literal with no image in field
                continue
            if kind == "secondary":
                full = secondary_boundary(t, m, 4)
            else:
                full = classical_boundary(t.A, m, 4)
            cx, fresh = (_build_kind(kind, t, m, 4) for _ in range(2))
            assert cx.split is None, name
            cycles, image = kernel_basis(cx.boundary(3)), image_basis(full)
            reps = homology(cx, 3, with_reps=True).reps
            assert reps == HomologyBasis(cycles, image).reps, name
            assert cx.boundary_image(4) == image, name
            ranks = [0] + [rank(fresh.boundary(n)) for n in (1, 2, 3)] + [rank(full)]
            dims = [fresh.dims[n] - ranks[n] - ranks[n + 1] for n in range(4)]
            assert [homology(fresh, n).dim for n in range(4)] == dims, name
            assert fresh.boundary_rank(4) == ranks[4], name

    def test_a_corrupted_column_of_the_first_block_is_caught(self, monkeypatch):
        """A term added where d_3 is not zero, to the first column of the
        first block, breaks d d = 0 before elimination reads the block."""
        cx = build_secondary_complex(*fix_dd(), 4)
        field = cx.field
        row = next(r for r, col in enumerate(cx.boundary(3).columns()) if col)

        def change(mask, cols):
            if mask[0]:
                cols[0] = {**cols[0], row: field.add(cols[0].get(row, field.zero), field.one)}
            return cols

        _corrupting(monkeypatch, change, degree=4)
        cx.boundary_rank(3)
        with pytest.raises(ComplexInconsistencyError, match="composite nonzero at degree 4"):
            cx.boundary_rank(4)

    def test_a_corrupted_unbuilt_column_is_caught(self, monkeypatch):
        """Homology never builds d_4 past its first 512 columns; a column
        corrupted after them raises once the full d_4 is asked for."""
        cx = build_secondary_complex(*fix_dd(), 4)
        field = cx.field
        row = next(r for r, col in enumerate(cx.boundary(3).columns()) if col)

        def change(mask, cols):
            if mask.find(1) >= 512:
                cols[-1] = {**cols[-1], row: field.add(cols[-1].get(row, field.zero), field.one)}
            return cols

        _corrupting(monkeypatch, change, degree=4)
        for n in range(4):
            homology(cx, n, with_reps=True)
        with pytest.raises(ComplexInconsistencyError, match="composite nonzero at degree 4"):
            cx.boundary(4)

    def test_the_full_top_keeps_the_built_columns(self, monkeypatch):
        """boundary(4) builds the rest in one call and equals a d_4 built
        apart; the columns built for elimination are the very same
        objects, in index order."""
        calls = _recording_builds(monkeypatch)
        t, m = fix_dd()
        cx = build_secondary_complex(t, m, 4)
        for n in range(4):
            homology(cx, n, with_reps=True)
        full = cx.boundary(4)
        assert cx.boundaries[4] is full and cx.boundary(4) is full
        assert full == secondary_boundary(t, m, 4)
        tops = [d for _, n, _, d in calls if n == 4]
        assert [d.cols for d in tops] == [256, 256, 1536]
        built = [id(col) for d in tops[:2] for col in d.columns()]
        assert built == [id(col) for col in full.columns()[:512]]

    def test_block_sizes(self, monkeypatch):
        """A top read in full, FIX-EXT's 65,536 columns with H_3 = 2, is
        built in 9 calls, each block as large as all built before it;
        with no rank bound known it is built in one call."""
        calls = _recording_builds(monkeypatch)
        t, m = fix_ext()
        cx = build_secondary_complex(t, m, 4)
        assert homology(cx, 3, with_reps=True).dim == 2
        assert [d.cols for _, n, _, d in calls if n == 4] == [256, 256] + [2**k for k in range(9, 16)]
        calls.clear()
        fresh = build_secondary_complex(t, m, 4)
        assert fresh.boundary_rank(4) == cx.boundary_rank(4)
        assert [(masked, d.cols) for _, n, masked, d in calls if n == 4] == [(True, 65536)]

    def test_no_rank_above_the_top(self):
        """With ker d_T known, d_(T+1) is still no boundary of the complex."""
        cx = build_secondary_complex(*fix_dd(), 2)
        cx.cycle_space(2)
        for request in ("boundary_rank", "boundary_image"):
            with pytest.raises(PreconditionError, match="no boundary at degree 3"):
                getattr(cx, request)(3)


def _rational_lift(field):
    """The 2x2 lift, over field, of the first triple of random_instances(1, 8)
    with a non-integer structure constant that has an image in field, as
    the `rational-cycles` benchmark lifts one."""
    for t, m in random_instances(1, 8):
        values = [v for row in t.eps.matrix for v in row]
        for table in (t.A.table, t.B.table, m.left, m.right):
            values += [v for plane in table for row in plane for v in row]
        if any(type(v) is Fraction for v in values):
            try:
                t, m = t.over(field), m.over(field)
            except ScalarError:
                continue
            lifted, lift = matrix_triple(t, 2)
            return lifted, lift(m)
    raise AssertionError(f"no non-integer triple with an image in {field!r}")


class TestCyclicHomology:
    """On a split complex, homology with representatives reads C^s only."""

    @pytest.mark.parametrize(
        "field", [QQ, GF(2), GF(3), F1009], ids=["Q", "GF2", "GF3", "GF1009"]
    )
    @pytest.mark.parametrize("instance", ["FIX-DD-M2", "FIX-P3-M2", "FIX-KB-M2", "RAND-Q-M2"])
    def test_bases_equal_those_of_the_full_spaces(self, instance, field):
        """For every n < T, the dims and representatives equal those of a
        HomologyBasis over the public full cycle space and boundary image,
        and so do the class coordinates of cycles with parts in both C^s
        and C^non; a vector whose C^non part is no cycle is refused by
        both."""
        fixtures = {"FIX-DD-M2": fix_dd, "FIX-P3-M2": fix_p3, "FIX-KB-M2": fix_kb}
        if instance in fixtures:
            t, m = (x.over(field) for x in _lifted(fixtures[instance]))
        else:
            t, m = _rational_lift(field)
        cx = build_secondary_complex(t, m, 3)
        mixed = refused = 0
        for n in range(3):
            res = homology(cx, n, with_reps=True)
            full = HomologyBasis(cx.cycle_space(n), cx.boundary_image(n + 1))
            assert (res.dim, res.reps) == (full.dim, full.reps), (instance, n)
            split, mask = cx.homology_basis(n), cx.split.masks[n]
            rows = full.cycles.basis
            cyclic = [v for v in rows if mask[min(v)]]
            noncyclic = [v for v in rows if not mask[min(v)]]
            vectors = list(rows)
            for u, w in zip(cyclic, itertools.cycle(noncyclic or [{}])):
                v = dict(u)
                vec_add_scaled(cx.field, v, cx.field.neg(cx.field.one), w)
                vectors.append(v)
                mixed += bool(w)
            for v in vectors:
                assert split.class_coordinates(v) == full.class_coordinates(v), (instance, n)
            if n and cyclic:
                d = cx.boundary(n)
                j = next(j for j in range(cx.dims[n]) if not mask[j] and d.column(j))
                bad = {**cyclic[0], j: cx.field.one}
                for basis in (split, full):
                    with pytest.raises(PreconditionError, match="not a cycle"):
                        basis.class_coordinates(bad)
                refused += 1
        assert mixed and refused, instance

    def test_no_kernel_or_tagged_echelon_sees_a_noncyclic_chain(self, monkeypatch):
        """With representatives on FIX-DD-M2 built to degree 3, each
        kernel is taken of the C^s columns only (4, 16 and 128 of them,
        not 8, 64 and 1,024), and every row a tagged echelon receives lies
        in C^s: the boundary and cycle rows of the three bases, once each."""
        cx = build_secondary_complex(*_lifted(fix_dd), 3)
        kernels, tagged = [], []
        kernel, insert = complexes.kernel_basis, TaggedEchelon.insert

        def recording_kernel(m, *args, **kwargs):
            kernels.append(m.cols)
            return kernel(m, *args, **kwargs)

        def recording_insert(self, vec, tag):
            tagged.append(vec)
            return insert(self, vec, tag)

        monkeypatch.setattr(complexes, "kernel_basis", recording_kernel)
        monkeypatch.setattr(TaggedEchelon, "insert", recording_insert)
        for n in range(3):
            homology(cx, n, with_reps=True)
        assert kernels == [4, 16, 128]
        assert kernels == [cx.split.masks[n].count(1) for n in range(3)]
        rows = []
        for n in range(3):
            basis, mask = cx.homology_basis(n), cx.split.masks[n]
            rows += basis.boundaries.basis + basis.cycles.basis
            assert all(mask[k] for v in rows[-basis.cycles.dim :] for k in v)
            assert all(mask[k] for v in basis.boundaries.basis for k in v)
        assert [id(v) for v in tagged] == [id(v) for v in rows]


def _assert_canonical_rationals(vectors, where):
    """Every scalar is an int, or a Fraction with denominator > 1."""
    for vec in vectors:
        for s in vec.values():
            canonical = type(s) is int or (type(s) is Fraction and s.denominator > 1)
            assert canonical, (where, s)


def _fixtures_lifts_and_random(named_instances):
    """The named fixtures, their 2x2 matrix lifts and random_instances(7, 6)."""
    cases = dict(named_instances)
    for name, (t, m) in named_instances.items():
        lifted, lift = matrix_triple(t, 2)
        cases[f"{name}-M2"] = (lifted, lift(m))
    for i, tm in enumerate(random_instances(7, 6)):
        cases[f"random {i}"] = tm
    return cases


def test_q_scalars_are_ints_where_integral(named_instances):
    """Structure constants, boundaries, RREF bases and representatives over
    Q hold an integral value as an int, never as a Fraction or a float."""
    for name, (t, m) in _fixtures_lifts_and_random(named_instances).items():
        tables = [t.A.table, t.B.table, (t.eps.matrix,), m.left, m.right]
        rows = [dict(enumerate(r)) for tensor in tables for plane in tensor for r in plane]
        _assert_canonical_rationals(rows, name)
        cx = build_secondary_complex(t, m, 2)
        vectors = [col for n in (1, 2) for col in cx.boundary(n).columns()]
        for n in (0, 1):
            vectors += cx.cycle_space(n).basis + cx.boundary_image(n + 1).basis
            vectors += homology(cx, n, with_reps=True).reps
        _assert_canonical_rationals(vectors, name)


@pytest.mark.parametrize(
    "field", [QQ, GF(2), GF(3), F1009], ids=["Q", "GF2", "GF3", "GF1009"]
)
def test_views_agree_with_the_file_path(named_instances, field):
    """An instance file written from the dense views and read in field
    holds each object mapped there by `over`; where a literal has no
    image in field, both ways raise.  `from_data` fed the views rebuilds
    each object."""
    for name, (t, m) in _fixtures_lifts_and_random(named_instances).items():
        text = serialize_instance(Instance(t.A.field, t, m))
        try:
            t, m = t.over(field), m.over(field)
        except ScalarError:
            with pytest.raises(InstanceFormatError):
                parse_instance(text, field_override=field)
            continue
        inst = parse_instance(text, field_override=field)
        assert (inst.triple, inst.module) == (t, m), name
        for a in (t.A, t.B):
            assert FiniteAlgebra.from_data(field, a.basis_labels, a.table, a.unit) == a
        assert AlgebraMorphism.from_data(t.B, t.A, t.eps.matrix) == t.eps, name
        assert Bimodule.from_data(field, m.dim, m.left, m.right) == m, name


@pytest.mark.parametrize("field", [QQ, F1009], ids=["Q", "GF1009"])
def test_rank_bound_changes_no_result(named_instances, field):
    """A complex stops eliminating d_(n+1) once its image fills ker d_n;
    its cycle spaces, boundary images, representatives and dims equal
    unbounded eliminations of the same boundaries.  The lifts are built
    to degree 2 (degree 3 of FIX-EXT-M2 has 524,288 chains)."""
    for name, (t, m) in _fixtures_lifts_and_random(named_instances).items():
        t, m = t.over(field), m.over(field)
        top = 2 if name.endswith("-M2") else 3
        cx = build_secondary_complex(t, m, top)
        fresh = build_secondary_complex(t, m, top)
        d = cx.boundaries
        for n in range(top):
            cycles, image = kernel_basis(d[n]), image_basis(d[n + 1])
            reps = homology(cx, n, with_reps=True).reps
            assert cx.cycle_space(n) == cycles, (name, n)
            assert cx.boundary_image(n + 1) == image, (name, n)
            assert reps == HomologyBasis(cx.cycle_space(n), image).reps, (name, n)
            dim = cx.dims[n] - rank(d[n]) - rank(d[n + 1])
            assert homology(fresh, n).dim == dim == len(reps), (name, n)


def test_a_complex_with_nonzero_composite_cannot_be_made():
    """d_1 d_2 != 0 on hand-built boundaries: making the complex raises,
    so no complex exists whose elimination the rank bound would cut
    short wrongly."""
    d1 = from_dense(QQ, [[1, 0]])
    d2 = from_dense(QQ, [[1], [1]])
    boundaries = [SparseMatrix.zero(QQ, 0, 1), d1, d2]
    with pytest.raises(ComplexInconsistencyError, match="nonzero at degree 2"):
        ChainComplex(QQ, (1, 2, 1), boundaries)
    fixed = [SparseMatrix.zero(QQ, 0, 1), d1, from_dense(QQ, [[0], [1]])]
    assert homology(ChainComplex(QQ, (1, 2, 1), fixed), 1).dim == 0


_RATIONALS = st.sampled_from(
    [0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4)]
)


@st.composite
def composable_pairs(draw):
    """Matrices d1 (r x s) and d2 (s x c) over Q; d2's columns are often
    fractional multiples of kernel vectors of d1, so that d1 d2 = 0."""
    r, s, c = (draw(st.integers(1, 4)) for _ in range(3))
    dense = [[draw(_RATIONALS) for _ in range(s)] for _ in range(r)]
    d1 = from_dense(QQ, dense)
    kernel = kernel_basis(d1).basis
    cols = []
    for _ in range(c):
        if kernel and draw(st.booleans()):
            k, scale = draw(st.sampled_from(kernel)), QQ.from_rational(draw(_RATIONALS))
            cols.append({i: QQ.mul(scale, v) for i, v in k.items() if scale})
        else:
            cols.append({i: v for i in range(s) if (v := draw(_RATIONALS))})
    return d1, SparseMatrix(QQ, s, c, cols)


@given(composable_pairs(), st.sampled_from([QQ, F1009]))
@settings(max_examples=150, deadline=None)
def test_dd_check_raises_exactly_when_the_composite_is_nonzero(pair, field):
    """Over Q, with fractions in either boundary, and over GF(p), the
    check raises exactly when the product d1 d2 is nonzero; the kernel
    tests of `tests/test_linalg.py` pin that product to a dense one."""
    d1, d2 = (
        from_dense(
            field, [[field.from_rational(v) for v in row] for row in d.to_dense()]
        )
        for d in pair
    )
    boundaries = [SparseMatrix.zero(field, 0, d1.rows), d1, d2]
    if (d1 @ d2).is_zero():
        _verify_dd_zero(boundaries)
    else:
        with pytest.raises(ComplexInconsistencyError, match="nonzero at degree 2"):
            _verify_dd_zero(boundaries)


def test_dd_check_uses_a_denominator_free_boundary_as_it_is():
    """The product behind the check clears the rows of d_n once, with
    `_clear_rows`: a boundary with no denominator is used as it is, not
    copied, and a row that holds fractions is scaled by their lcm."""
    d = from_dense(QQ, [[1, -2], [0, 3]])
    cols, scale = _clear_rows(d.columns())
    assert cols is d.columns() and scale == {}
    half = from_dense(QQ, [[Fraction(1, 2), Fraction(1, 3)], [0, 1]])
    cols, scale = _clear_rows(half.columns())
    assert scale == {0: 6}
    assert [cols[0], cols[1]] == [{0: 3}, {0: 2, 1: 1}]
    assert all(type(v) is int for col in cols.values() for v in col.values())


def _dd_pair(field, d1_rows, d2_columns):
    """[0, d1, d2] with d1 given by dense rows and d2 by sparse columns."""
    d1 = from_dense(field, d1_rows)
    d2 = SparseMatrix(field, d1.cols, len(d2_columns), d2_columns)
    return [SparseMatrix.zero(field, 0, d1.rows), d1, d2]


def test_dd_check_works_mod_p():
    """Over GF(1009) a composite entry 1 + 1008 = 1009 is zero, and
    2 + 1008 = 1010 is not."""
    _verify_dd_zero(_dd_pair(F1009, [[1, 1]], [{0: 1, 1: 1008}]))
    with pytest.raises(ComplexInconsistencyError, match="nonzero at degree 2"):
        _verify_dd_zero(_dd_pair(F1009, [[1, 1]], [{0: 2, 1: 1008}]))


def test_dd_check_clears_a_column_that_mixes_ints_and_fractions():
    """(1/3, 2/3) kills (1, -1/2): after clearing, (1, 2) kills (2, -1)."""
    d1 = [[Fraction(1, 3), Fraction(2, 3)]]
    _verify_dd_zero(_dd_pair(QQ, d1, [{0: 1, 1: Fraction(-1, 2)}]))
    with pytest.raises(ComplexInconsistencyError, match="nonzero at degree 2"):
        _verify_dd_zero(_dd_pair(QQ, d1, [{0: 1, 1: Fraction(1, 2)}]))


@pytest.mark.parametrize("field", [QQ, F1009])
def test_dd_check_reaches_the_last_column(field):
    """Zero columns and columns in the kernel pass; a composite that is
    nonzero only in the last column raises."""
    one, minus = field.one, field.neg(field.one)
    cols = [{0: one, 1: one}, {}, {0: minus, 1: minus}, {}]
    _verify_dd_zero(_dd_pair(field, [[one, minus]], cols))
    with pytest.raises(ComplexInconsistencyError, match="nonzero at degree 2"):
        _verify_dd_zero(_dd_pair(field, [[one, minus]], cols + [{0: one}]))
