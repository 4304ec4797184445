from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from helpers import counting_builds, renamed_b, subspace_leq
from oracle_naive import naive_classical_boundary, naive_rank, naive_secondary_boundary

from hochschild import sequences
from hochschild.algebra import (
    AlgebraMorphism,
    BimoduleMorphism,
    matrix_algebra,
    matrix_triple,
    pullback_bimodule,
    regular_bimodule,
    trivial_triple,
    validate_bimodule,
)
from hochschild.complexes import (
    ChainComplex,
    build_classical_complex,
    build_secondary_complex,
    classical_boundary,
    homology,
    secondary_boundary,
    secondary_scheme,
)
from hochschild.errors import NotAChainMapError, PreconditionError
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
from hochschild.kahler import verify_fundamental_sequence, verify_h1_kahler
from hochschild.linalg import (
    Echelon,
    HomologyBasis,
    SparseMatrix,
    TaggedEchelon,
    _induced_map,
    image_basis,
)
from hochschild.sequences import (
    TripleMorphism,
    epsilon_star_chain,
    phi1_chain,
    phi2_chain,
    psi_seq_chain,
    pushforward_fg,
    pushforward_m,
    restrict_coefficients,
    validate_triple_morphism,
    verify_exact_sequence,
)


class TestChainLevelMaps:
    def test_phi2_is_injective_inclusion_when_base_is_ground_field(self):
        t, m = fix_d()
        f2 = phi2_chain(t, m)
        assert f2.rows == f2.cols
        assert f2 == SparseMatrix.identity(QQ, f2.rows)

    def test_phi2_hits_unit_slot(self):
        t, m = fix_dd()
        f2 = phi2_chain(t, m)
        assert f2.rows == 16 and f2.cols == 8
        # one target basis chain per source chain: the unit of B is a basis vector
        assert all(len(f2.column(j)) == 1 for j in range(f2.cols))

    def test_phi2_intertwines_boundaries(self):
        # secondary d2 . Phi2 = Phi1 . classical d2 is the well-definedness identity
        for t, m in [fix_dd(), fix_kb(), fix_p3()]:
            lhs = secondary_boundary(t, m, 2) @ phi2_chain(t, m)
            rhs = phi1_chain(t, m) @ classical_boundary(t.A, m, 2)
            assert lhs == rhs

    def test_psi_descends_to_boundaries(self):
        t, m = fix_dd()
        ps = psi_seq_chain(t, m)
        d3 = secondary_boundary(t, m, 3)
        m_b = pullback_bimodule(t.eps, m)
        d2b = classical_boundary(t.B, m_b, 2)
        assert subspace_leq(image_basis(ps @ d3), image_basis(d2b))

    def test_psi_kills_unit_slot_classes(self):
        # a chain with alpha = 1_B maps to m' (x) 1_B, a boundary in C_1(B, M)
        t, m = fix_kb()
        ps = psi_seq_chain(t, m)
        m_b = pullback_bimodule(t.eps, m)
        d2b = classical_boundary(t.B, m_b, 2)
        boundaries = image_basis(d2b)
        sec2 = secondary_scheme(t, m, 2)
        unit_chains = [
            j
            for j in range(sec2.total)
            if sec2.decode(j)[2] == (0,)  # alpha = first basis vector = 1_B
        ]
        for j in unit_chains:
            assert boundaries.contains(ps.column(j))

    def test_epsilon_star_identity_triple(self):
        t, m = fix_dd()
        es = epsilon_star_chain(t, m)
        assert es == SparseMatrix.identity(QQ, 4)

    def test_epsilon_star_rank_bounded_by_module_dim(self):
        # B = k: the map sends m (x) 1 to m (x) 1_A, so rank <= dim M
        t, m = fix_d()
        es = epsilon_star_chain(t, m)
        assert es.rows == m.dim * t.A.dim
        assert es.cols == m.dim * t.B.dim
        from hochschild.linalg import rank

        assert rank(es) <= m.dim

    def test_phi1_bijection(self):
        for t, m in [fix_d(), fix_dd(), fix_kb()]:
            f1 = phi1_chain(t, m)
            assert f1 == SparseMatrix.identity(QQ, f1.rows)

    def test_phi1_induced_map_onto_vanishing_target(self):
        # identity base: H_1 of the secondary theory is 0, so the induced
        # map lands in a 0-dimensional space while H_1(A,M) = 1
        from hochschild.linalg import induced_quotient_map

        t, m = fix_dd()
        sec = build_secondary_complex(t, m, 2)
        cla = build_classical_complex(t.A, m, 2)
        induced = induced_quotient_map(
            phi1_chain(t, m),
            cla.cycle_space(1),
            cla.boundary_image(2),
            sec.cycle_space(1),
            sec.boundary_image(2),
        )
        assert induced.shape == (0, 1)
        assert homology(cla, 1).dim == 1
        assert homology(sec, 1).dim == 0


class TestExactSequence:
    def test_ground_field_vacuous(self):
        t, m = fix_k()
        rep = verify_exact_sequence(t, m)
        assert rep.ok, rep.render()

    def test_scalar_base_identifies_h2_with_h1_of_base(self):
        t, m = fix_kb()
        rep = verify_exact_sequence(t, m)
        assert rep.ok, rep.render()
        dims = {i.label: i.detail for i in rep.items if i.ok is None}
        assert dims["H1(sec)"] == "0"
        assert dims["H2(sec)"] == dims["H1(B,M)"] == "2"

    def test_identity_base_kills_low_degrees(self):
        t, m = fix_dd()
        rep = verify_exact_sequence(t, m)
        assert rep.ok, rep.render()
        dims = {i.label: i.detail for i in rep.items if i.ok is None}
        assert dims["H1(sec)"] == "0"
        assert dims["H2(sec)"] == "0"

    @pytest.mark.parametrize("fixture", [fix_d, fix_p3])
    def test_named_instances(self, fixture):
        t, m = fixture()
        rep = verify_exact_sequence(t, m)
        assert rep.ok, rep.render()

    def test_randomized_instances(self):
        for t, m in random_instances(seed=41, count=6):
            rep = verify_exact_sequence(t, m)
            assert rep.ok, rep.render()

    def test_noncommutative_algebra(self):
        from hochschild.algebra import (
            matrix_algebra,
            regular_bimodule,
            trivial_triple,
        )

        a = matrix_algebra(QQ, 2)
        rep = verify_exact_sequence(trivial_triple(a), regular_bimodule(a))
        assert rep.ok, rep.render()

    @pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "GF3"])
    @pytest.mark.parametrize("fixture, shared", [(fix_d, 2), (fix_k, 1), (fix_dd, 2)])
    def test_equal_complexes_are_built_once(self, monkeypatch, field, fixture, shared):
        """With B = k (FIX-D, FIX-K) the secondary complex is the classical
        one of A, and with B = A, eps = id (FIX-DD, and FIX-K, whose A is
        k) the classical one of B is that of A: each is built once.  With
        B's basis label renamed, the triple is equal in every number but
        no complex is shared: three are built, and the report renders the
        same."""
        t, m = (x.over(field) for x in fixture())
        reports = []
        for triple, count in ((t, shared), (renamed_b(t), 3)):
            built = counting_builds(monkeypatch, sequences)
            reports.append(verify_exact_sequence(triple, m).render())
            assert len(built) == count
            monkeypatch.undo()
        assert reports[0] == reports[1]


    def test_exactseq_eliminates_each_boundary_once(self, monkeypatch):
        built, owner, inserted = [], {}, Counter()

        def recording(build):
            def wrapped(*args, **kwargs):
                cx = build(*args, **kwargs)
                for n in range(1, cx.max_degree + 1):
                    for col in cx.boundary(n).columns():
                        owner[id(col)] = (len(built), n)
                built.append(cx)
                return cx

            return wrapped

        insert = Echelon.insert

        def counting_insert(self, vec):
            if id(vec) in owner:
                inserted[owner[id(vec)]] += 1
            return insert(self, vec)

        for name in ("build_secondary_complex", "build_classical_complex"):
            monkeypatch.setattr(sequences, name, recording(getattr(sequences, name)))
        monkeypatch.setattr(Echelon, "insert", counting_insert)
        rep = verify_exact_sequence(*fix_ext())
        assert rep.ok, rep.render()
        cols = {
            (i, n): cx.boundary(n).cols
            for i, cx in enumerate(built)
            for n in range(1, cx.max_degree + 1)
        }
        assert len(owner) == sum(cols.values())
        assert all(inserted[key] <= cols[key] for key in cols)
        assert built[0].dims == build_secondary_complex(*fix_ext(), 3).dims
        assert inserted[(0, 3)] == cols[(0, 3)] == 2048

    def test_exactseq_builds_each_homology_basis_once(self, monkeypatch):
        """The five homology spaces get one basis each, which the dims and
        the four induced maps share: 397 tagged inserts, no vector twice."""
        bases, inserted = [], Counter()
        init, insert = HomologyBasis.__init__, TaggedEchelon.insert

        def counting_init(self, *args, **kwargs):
            bases.append(self)
            init(self, *args, **kwargs)

        def counting_insert(self, vec, tag):
            inserted[id(vec)] += 1
            return insert(self, vec, tag)

        monkeypatch.setattr(HomologyBasis, "__init__", counting_init)
        monkeypatch.setattr(TaggedEchelon, "insert", counting_insert)
        rep = verify_exact_sequence(*fix_ext())
        assert rep.ok, rep.render()
        assert len(bases) == 5
        assert set(inserted.values()) == {1}
        assert sum(inserted.values()) == 397


def _lifted(fixture):
    t, m = fixture()
    lifted, lift = matrix_triple(t, 2)
    return lifted, lift(m)


def _full_basis(cx, n):
    """The HomologyBasis over the public full cycle space and boundary image."""
    return HomologyBasis(cx.cycle_space(n), cx.boundary_image(n + 1))


class TestSplitDescent:
    """Descent checks on split complexes read C^s and the exact C^non apart."""

    @pytest.mark.parametrize("instance", ["FIX-D-M2", "FIX-DD-M2", "M2(Q)"])
    def test_report_equals_the_one_on_full_bases(self, monkeypatch, instance):
        """The report is the same with bases built from the full public
        spaces: ok on FIX-D-M2 and on M_2(Q) with B = k, and on FIX-DD-M2
        the descent failure of ROADMAP item 1, compared here, not judged."""
        if instance == "M2(Q)":
            a = matrix_algebra(QQ, 2)
            t, m = trivial_triple(a), regular_bimodule(a)
        else:
            t, m = _lifted(fix_d if instance == "FIX-D-M2" else fix_dd)
        assert build_secondary_complex(t, m, 1).split is not None
        split = verify_exact_sequence(t, m)
        monkeypatch.setattr(ChainComplex, "homology_basis", _full_basis)
        full = verify_exact_sequence(t, m)
        assert split.render() == full.render()
        assert split.ok == (instance != "FIX-DD-M2"), split.render()

    def _map(self, cx, n, column, add):
        """The identity of C_n with add added to one column."""
        one = cx.field.one
        cols = [{i: one} for i in range(cx.dims[n])]
        for k, v in add.items():
            cols[column][k] = cols[column].get(k, 0) + v
        return SparseMatrix(cx.field, cx.dims[n], cx.dims[n], cols)

    def test_a_noncyclic_part_that_is_no_cycle_escapes(self):
        """Adding a C^non chain with a nonzero boundary to the image of a
        representative's pivot keeps the C^s part of every image a cycle,
        yet the image of that representative is no cycle."""
        cx = build_secondary_complex(*_lifted(fix_d), 2)
        basis, mask, d = cx.homology_basis(1), cx.split.masks[1], cx.boundary(1)
        j = next(j for j in range(cx.dims[1]) if not mask[j] and d.column(j))
        f = self._map(cx, 1, min(basis.reps[0]), {j: cx.field.one})
        for src in (basis, _full_basis(cx, 1)):
            with pytest.raises(NotAChainMapError, match="cycles escape"):
                _induced_map(f, src, basis)

    def test_a_noncyclic_cycle_sent_to_a_class_escapes(self):
        """Adding a representative to the image of a chain that a C^non
        cycle holds maps every cycle to a cycle, but that boundary to a
        nonzero class."""
        cx = build_secondary_complex(*_lifted(fix_d), 2)
        basis = cx.homology_basis(1)
        assert basis.dim == 1 and basis.exact_cycles
        q = min(basis.exact_cycles[0])
        f = self._map(cx, 1, q, basis.reps[0])
        for src in (basis, _full_basis(cx, 1)):
            with pytest.raises(NotAChainMapError, match="boundaries escape"):
                _induced_map(f, src, basis)


class TestTripleMorphism:
    def test_identity_pair(self):
        t, _ = fix_dd()
        tm = TripleMorphism(
            t, t, AlgebraMorphism.identity(t.A), AlgebraMorphism.identity(t.B)
        )
        assert validate_triple_morphism(tm).ok

    def test_base_inclusion_morphism(self):
        # (B, B, id) -> (A, B, eps) with f = eps, g = id
        t, _ = fix_dd()
        b = t.B
        source = type(t)(b, b, AlgebraMorphism.identity(b))
        tm = TripleMorphism(source, t, t.eps, AlgebraMorphism.identity(b))
        assert validate_triple_morphism(tm).ok

    def test_broken_square_reported(self):
        t, _ = fix_dd()
        bad_g = AlgebraMorphism.from_data(
            t.B, t.B, ((QQ.one, QQ.one), (QQ.zero, QQ.one))
        )
        tm = TripleMorphism(t, t, AlgebraMorphism.identity(t.A), bad_g)
        rep = validate_triple_morphism(tm)
        assert not rep.ok

    def test_broken_g_keeps_its_labels(self):
        # g(x) = 1 + x is unital but not multiplicative on the dual numbers
        t, _ = fix_dd()
        bad_g = AlgebraMorphism.from_data(
            t.B, t.B, ((QQ.one, QQ.one), (QQ.zero, QQ.one))
        )
        tm = TripleMorphism(t, t, AlgebraMorphism.identity(t.A), bad_g)
        rep = validate_triple_morphism(tm)
        assert [item.label for item in rep.items] == [
            "f preserves unit",
            "f multiplicative",
            "g preserves unit",
            "g multiplicative",
            "square f.eps = eps'.g",
        ]
        assert [item.label for item in rep.violations] == [
            "g multiplicative",
            "square f.eps = eps'.g",
        ]


class TestRestrictCoefficients:
    def test_identity_morphism_keeps_module(self):
        t, m = fix_dd()
        tm = TripleMorphism(
            t, t, AlgebraMorphism.identity(t.A), AlgebraMorphism.identity(t.B)
        )
        restricted = restrict_coefficients(tm, m)
        assert restricted.left == m.left
        assert restricted.right == m.right

    def test_base_inclusion_restriction_validates(self):
        t, m = fix_dd()
        b = t.B
        source = type(t)(b, b, AlgebraMorphism.identity(b))
        tm = TripleMorphism(source, t, t.eps, AlgebraMorphism.identity(b))
        restricted = restrict_coefficients(tm, m)
        assert validate_bimodule(restricted, source).ok


class TestPushforwardM:
    def test_identity(self):
        t, m = fix_dd()
        ident = tuple(
            tuple(QQ.one if r == c else QQ.zero for c in range(m.dim))
            for r in range(m.dim)
        )
        fm = BimoduleMorphism.from_data(m, m, ident)
        assert pushforward_m(fm, t, 2) == SparseMatrix.identity(QQ, 16)

    def test_zero(self):
        t, m = fix_dd()
        zero_mat = tuple(tuple(QQ.zero for _ in range(m.dim)) for _ in range(m.dim))
        fm = BimoduleMorphism.from_data(m, m, zero_mat)
        assert pushforward_m(fm, t, 1).is_zero()

    def test_multiplication_by_x_is_a_bimodule_morphism(self):
        # m -> x.m commutes with both actions over the commutative dual numbers
        t, m = fix_dd()
        x_mat = ((QQ.zero, QQ.zero), (QQ.one, QQ.zero))
        fm = BimoduleMorphism.from_data(m, m, x_mat)
        mat = pushforward_m(fm, t, 2)  # chain-map identity asserted inside
        assert not mat.is_zero()

    def test_functoriality_composition(self):
        t, m = fix_dd()
        x_mat = ((QQ.zero, QQ.zero), (QQ.one, QQ.zero))
        fm = BimoduleMorphism.from_data(m, m, x_mat)
        once = pushforward_m(fm, t, 1)
        square = BimoduleMorphism.from_data(
            m, m, ((QQ.zero, QQ.zero), (QQ.zero, QQ.zero))
        )
        assert once @ once == pushforward_m(square, t, 1)

    def test_rejects_non_morphism(self):
        t, m = fix_dd()
        bad = ((QQ.zero, QQ.one), (QQ.zero, QQ.zero))  # projection onto x-line
        fm = BimoduleMorphism.from_data(m, m, bad)
        with pytest.raises(PreconditionError):
            pushforward_m(fm, t, 1)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_names_the_action_it_breaks(self, side):
        # on the regular M_2(Q), x -> e01 x commutes with the right action
        # only and x -> x e01 with the left action only
        a = matrix_algebra(QQ, 2)
        t, m = trivial_triple(a), regular_bimodule(a)
        e01 = {1: QQ.one}
        cols = [
            a.mul(e01, {mu: QQ.one}) if side == "left" else a.mul({mu: QQ.one}, e01)
            for mu in range(a.dim)
        ]
        fm = BimoduleMorphism.from_data(m, m, SparseMatrix(QQ, 4, 4, cols).to_dense())
        with pytest.raises(PreconditionError, match=rf"^not a bimodule morphism \({side} action\)$"):
            pushforward_m(fm, t, 1)


class TestPushforwardFg:
    def _base_inclusion(self):
        t, m = fix_dd()
        b = t.B
        source = type(t)(b, b, AlgebraMorphism.identity(b))
        return TripleMorphism(source, t, t.eps, AlgebraMorphism.identity(b)), m

    def test_identity_morphism(self):
        t, m = fix_dd()
        tm = TripleMorphism(
            t, t, AlgebraMorphism.identity(t.A), AlgebraMorphism.identity(t.B)
        )
        assert pushforward_fg(tm, m, 2) == SparseMatrix.identity(QQ, 16)

    def test_degree_one_matches_epsilon_star(self):
        tm, m = self._base_inclusion()
        mat = pushforward_fg(tm, m, 1)
        assert mat == epsilon_star_chain(tm.target, m)

    def test_chain_map_checked_at_degree_two(self):
        tm, m = self._base_inclusion()
        mat = pushforward_fg(tm, m, 2)
        assert mat.rows == 16

    def test_composition_law(self):
        t, m = fix_dd()
        tm, _ = self._base_inclusion()
        ident = TripleMorphism(
            t, t, AlgebraMorphism.identity(t.A), AlgebraMorphism.identity(t.B)
        )
        composed = TripleMorphism(
            tm.source, t, ident.f.compose(tm.f), ident.g.compose(tm.g)
        )
        assert (
            pushforward_fg(ident, m, 1) @ pushforward_fg(tm, m, 1)
            == pushforward_fg(composed, m, 1)
        )

    def test_invalid_morphism_rejected(self):
        t, m = fix_dd()
        bad_g = AlgebraMorphism.from_data(
            t.B, t.B, ((QQ.one, QQ.one), (QQ.zero, QQ.one))
        )
        tm = TripleMorphism(t, t, AlgebraMorphism.identity(t.A), bad_g)
        with pytest.raises(PreconditionError):
            pushforward_fg(tm, m, 1)


def _rank_of(entries, p=None):
    """Rank of a boundary given as {(src_key, tgt_key): coeff}, over Q or,
    with p, over GF(p)."""
    targets, columns = {}, {}
    for (src, tgt), c in entries.items():
        columns.setdefault(src, {})[targets.setdefault(tgt, len(targets))] = c
    rows = [[col.get(i, 0) for i in range(len(targets))] for col in columns.values()]
    return naive_rank(rows, p)


def _pulled_back(t, m):
    """M as a B-bimodule through eps, as dense tables."""
    eps = t.eps.matrix

    def pull(tensor):
        return [
            [
                [sum(Fraction(eps[u][j]) * Fraction(tensor[u][mu][k]) for u in range(t.A.dim))
                 for k in range(m.dim)]
                for mu in range(m.dim)
            ]
            for j in range(t.B.dim)
        ]

    return SimpleNamespace(dim=m.dim, left=pull(m.left), right=pull(m.right))


def _regular(a):
    """A as a bimodule over itself, as dense tables: a_i mu and mu a_i."""
    right = [[a.table[mu][i] for mu in range(a.dim)] for i in range(a.dim)]
    return SimpleNamespace(dim=a.dim, left=a.table, right=right)


def _oracle_h1_h2(boundary, dims, p):
    """{1: dim H_1, 2: dim H_2} from the oracle's boundaries d_1..d_3, the
    chain dims and GF(p)."""
    ranks = [0] + [_rank_of(boundary(n), p) for n in (1, 2, 3)]
    return {n: dims[n] - ranks[n] - ranks[n + 1] for n in (1, 2)}


def _stated(report):
    """The dims a report states, by label."""
    return {item.label: int(item.detail) for item in report.items if item.ok is None}


@pytest.mark.parametrize("fixture", [fix_k, fix_d, fix_dd, fix_p3, fix_kb, fix_ext])
@pytest.mark.parametrize("p", [2, 3])
def test_reports_state_the_oracle_dims_mod_p(fixture, p):
    """Over GF(2) and GF(3) the exact sequence, H_1 against the Kaehler
    differentials and the fundamental sequence hold on each base fixture,
    and every dim they state equals the naive oracle's in that field:
    M (x)_A Omega_{A|B} is H_1 of the secondary complex, M (x)_A
    Omega_{A|k} that of the classical one, and for M = A, A (x)_B
    Omega_{B|k} is H_1(B, A)."""
    t, m = (x.over(GF(p)) for x in fixture())
    a, b, da, db = t.A, t.B, t.A.dim, t.B.dim
    m_b, reg = _pulled_back(t, m), _regular(a)

    def secondary(module):
        dims = [module.dim * da**n * db ** (n * (n - 1) // 2) for n in range(4)]
        return _oracle_h1_h2(lambda n: naive_secondary_boundary(t, module, n), dims, p)

    def classical(alg, module):
        dims = [module.dim * alg.dim**n for n in range(4)]
        return _oracle_h1_h2(lambda n: naive_classical_boundary(alg, module, n), dims, p)

    sec, ca, cb = secondary(m), classical(a, m), classical(b, m_b)
    reports = [verify_exact_sequence(t, m), verify_h1_kahler(t, m), verify_fundamental_sequence(t)]
    assert all(r.ok for r in reports)
    assert _stated(reports[0]) == {
        "H2(A,M)": ca[2], "H2(sec)": sec[2], "H1(B,M)": cb[1], "H1(A,M)": ca[1], "H1(sec)": sec[1],
    }
    assert _stated(reports[1]) == {
        "dim H1((A,B,eps);M)": sec[1], "dim M (x)_A Omega^1_{A|B}": sec[1],
        "dim H1(A,M)": ca[1], "dim M (x)_A Omega^1_{A|k}": ca[1],
    }
    assert _stated(reports[2]) == {
        "dim A (x)_B Omega^1_{B|k}": classical(b, _pulled_back(t, reg))[1],
        "dim Omega^1_{A|k}": classical(a, reg)[1],
        "dim Omega^1_{A|B}": secondary(reg)[1],
    }
