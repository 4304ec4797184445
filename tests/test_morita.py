import dataclasses
import functools
import gc
import itertools
import operator
import random
import weakref
from fractions import Fraction

import pytest

from hochschild import morita
from hochschild.algebra import (
    AlgebraMorphism,
    Bimodule,
    FiniteAlgebra,
    field_algebra,
    matrix_algebra,
    regular_bimodule,
    trivial_triple,
    validate_bimodule,
)
from hochschild.complexes import build_secondary_complex, homology, secondary_scheme
from hochschild.errors import PreconditionError
from hochschild.fields import GF, QQ
from hochschild.fixtures import NAMED_FIXTURES, fix_d, fix_dd, fix_kb, fix_p3
from hochschild.linalg import SparseMatrix, induced_quotient_map
from hochschild.morita import (
    BalancedTensor,
    alternating_homotopy,
    compose_morita,
    corner_morita,
    homotopy_h,
    homotopy_l,
    identity_morita,
    induced_module,
    phi_chain_map,
    psi_chain_map,
    standard_matrix_morita,
    validate_morita,
    verify_morita_invariance,
)

F1009 = GF(1009)

# H_0, H_1 of the 2x2 matrix context, by fixture and characteristic
LIFT_DIMS = {
    (name, p): dims
    for name, by_p in {
        "FIX-D": {2: [2, 2], 3: [2, 1], 1009: [2, 1]},
        "FIX-DD": {2: [2, 0], 3: [2, 0], 1009: [2, 0]},
        "FIX-P3": {2: [3, 2], 3: [3, 3], 1009: [3, 2]},
        "FIX-KB": {2: [2, 0], 3: [2, 0], 1009: [2, 0]},
        "FIX-EXT": {2: [4, 4], 3: [4, 2], 1009: [4, 2]},
    }.items()
    for p, dims in by_p.items()
}


class TestValidate:
    def test_identity_data(self):
        t, _ = fix_d()
        assert validate_morita(identity_morita(t)).ok

    def test_standard_matrix_data(self):
        t, _ = fix_d()
        assert validate_morita(standard_matrix_morita(t, 2)).ok

    def test_broken_eta_reported(self):
        t, _ = fix_dd()
        d = standard_matrix_morita(t, 2)
        bad_eta = AlgebraMorphism.from_data(
            t.B, t.B, ((QQ.one, QQ.one), (QQ.zero, QQ.one))
        )
        broken = type(d)(
            d.source,
            d.target,
            d.p_mod,
            d.q_mod,
            d.f_mat,
            d.g_mat,
            bad_eta,
            d.p_dual,
            d.q_dual,
            d.pprime_dual,
            d.qprime_dual,
        )
        rep = validate_morita(broken)
        assert not rep.ok
        assert any("(ii)" in item.label for item in rep.violations)

    def test_broken_eta_keeps_its_labels(self):
        # eta(x) = 1 + x is unital and bijective but not multiplicative
        t, _ = fix_dd()
        d = standard_matrix_morita(t, 2)
        bad_eta = AlgebraMorphism.from_data(
            t.B, t.B, ((QQ.one, QQ.one), (QQ.zero, QQ.one))
        )
        rep = validate_morita(dataclasses.replace(d, eta=bad_eta))
        labels = {item.label: item.ok for item in rep.items}
        assert labels["(ii) eta unital"] and labels["(ii) eta bijective"]
        assert labels["(ii) eta multiplicative"] is False

    def test_compatibility_relations_pinned(self):
        # both printed relations hold in the corrected form
        # q1 f(p1 (x) q2) = g(q1 (x) p1) q2 and p1 g(q1 (x) p2) = f(p1 (x) q1) p2
        t, _ = fix_d()
        for d in (standard_matrix_morita(t, 2), identity_morita(t)):
            rep = validate_morita(d)
            labels = {item.label: item.ok for item in rep.items}
            assert labels["compatibility q1 f(p1 (x) q2) = g(q1 (x) p1) q2"]
            assert labels["compatibility p1 g(q1 (x) p2) = f(p1 (x) q1) p2"]


class TestStandardMatrixData:
    def test_dims(self):
        t, _ = fix_d()
        d = standard_matrix_morita(t, 2)
        assert d.p_mod.dim == 4
        assert d.q_mod.dim == 4
        assert len(d.p_dual) == 1
        assert len(d.pprime_dual) == 2

    def test_data_compare_and_hash_by_value(self):
        t, _ = fix_d()
        d, again = standard_matrix_morita(t, 2), standard_matrix_morita(t, 2)
        assert d == again and hash(d) == hash(again)
        assert d != dataclasses.replace(d, f_mat=d.f_mat.scale(2))

    def test_n1_is_identity_like(self):
        t, m = fix_d()
        d = standard_matrix_morita(t, 1)
        assert validate_morita(d).ok
        assert induced_module(d, m).module.dim == m.dim


class TestCornerData:
    def test_identity_idempotent(self):
        t, _ = fix_d()
        d = corner_morita(t, t.A.unit_vec())
        assert validate_morita(d).ok

    def test_matrix_corner(self):
        a = matrix_algebra(QQ, 2)
        t = trivial_triple(a)
        d = corner_morita(t, {0: QQ.one})
        assert d.p_mod.dim == 2
        assert d.q_mod.dim == 2
        assert validate_morita(d).ok

    def test_non_idempotent_rejected(self):
        t, _ = fix_d()
        with pytest.raises(PreconditionError):
            corner_morita(t, {1: QQ.one})


class TestTensorOverAlgebra:
    def test_ground_field_gives_plain_tensor(self):
        k = field_algebra(QQ)
        m = regular_bimodule(k)
        t, _ = fix_d()
        a_as_module = regular_bimodule(t.A)
        # over k every bilinear relation is trivial: dim = product
        qs = BalancedTensor((m, m), (k,))
        assert qs.dim == 1

    def test_algebra_over_itself(self):
        t, _ = fix_dd()
        reg = regular_bimodule(t.A)
        qs = BalancedTensor((reg, reg), (t.A,))
        assert qs.dim == t.A.dim

    def test_q_tensor_p_has_matrix_dimension(self):
        t, _ = fix_d()
        d = standard_matrix_morita(t, 2)
        qs = BalancedTensor((d.q_mod, d.p_mod), (t.A,))
        assert qs.dim == d.target.A.dim


class TestInducedCoefficients:
    def test_identity_data_reproduces_module(self):
        t, m = fix_dd()
        d = identity_morita(t)
        n_mod = induced_module(d, m).module
        assert n_mod.dim == m.dim
        # the classes of 1 (x) m (x) 1 give the canonical identification
        ind = induced_module(d, m)
        unit = t.A.unit_vec()
        cols = [ind.embed(unit, {mu: QQ.one}, unit) for mu in range(m.dim)]
        iota = SparseMatrix(QQ, n_mod.dim, m.dim, cols)
        assert iota == SparseMatrix.identity(QQ, m.dim)
        assert n_mod.left == m.left
        assert n_mod.right == m.right

    def test_matrix_data_gives_matrix_module(self):
        t, m = fix_dd()
        d = standard_matrix_morita(t, 2)
        n_mod = induced_module(d, m).module
        assert n_mod.dim == 4 * m.dim
        assert validate_bimodule(n_mod, d.target).ok


class TestCompose:
    def test_identity_composition_validates(self):
        t, m = fix_d()
        d = standard_matrix_morita(t, 2)
        left = compose_morita(identity_morita(t), d)
        right = compose_morita(d, identity_morita(d.target))
        assert validate_morita(left).ok
        assert validate_morita(right).ok
        assert induced_module(left, m).module.dim == induced_module(d, m).module.dim

    def test_matrix_then_corner_recovers_source(self):
        # corner of M_2(A) at the e00-block undoes the matrix lift
        t, m = fix_d()
        d = standard_matrix_morita(t, 2)
        lifted = d.target
        e = {u: cu for u, cu in enumerate(t.A.unit) if cu != QQ.zero}  # e00 (x) 1
        d_corner = corner_morita(lifted, e)
        assert d_corner.target.A.dim == t.A.dim
        composed = compose_morita(d, d_corner)
        assert validate_morita(composed).ok
        rep = verify_morita_invariance(composed, m, 1)
        assert rep.ok, rep.render()


class TestChainMaps:
    def test_psi_phi_identity_data_degree_zero(self):
        t, m = fix_dd()
        d = identity_morita(t)
        assert psi_chain_map(d, m, 0) == SparseMatrix.identity(QQ, m.dim)
        assert phi_chain_map(d, m, 0) == SparseMatrix.identity(QQ, m.dim)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_chain_map_identities(self, degree):
        t, m = fix_dd()
        d = standard_matrix_morita(t, 2)
        ind = induced_module(d, m)
        src = build_secondary_complex(t, m, degree)
        tgt = build_secondary_complex(d.target, ind.module, degree)
        psi_n = psi_chain_map(d, m, degree)
        psi_prev = psi_chain_map(d, m, degree - 1)
        assert psi_prev @ src.boundary(degree) == tgt.boundary(degree) @ psi_n
        phi_n = phi_chain_map(d, m, degree)
        phi_prev = phi_chain_map(d, m, degree - 1)
        assert phi_prev @ tgt.boundary(degree) == src.boundary(degree) @ phi_n

    def test_round_trip_is_identity_on_h0_but_not_on_chains(self):
        # corner data has a genuinely non-identity round trip on chains
        a = matrix_algebra(QQ, 2)
        t = trivial_triple(a)
        m = regular_bimodule(a)
        d = corner_morita(t, {0: QQ.one})
        comp = phi_chain_map(d, m, 0) @ psi_chain_map(d, m, 0)
        assert comp != SparseMatrix.identity(QQ, m.dim)
        src = build_secondary_complex(t, m, 1)
        induced = induced_quotient_map(
            comp,
            src.cycle_space(0),
            src.boundary_image(1),
            src.cycle_space(0),
            src.boundary_image(1),
        )
        h0 = homology(src, 0).dim
        assert induced == SparseMatrix.identity(QQ, h0)

    def test_induced_maps_mutually_inverse_on_homology(self):
        t, m = fix_d()
        d = standard_matrix_morita(t, 2)
        ind = induced_module(d, m)
        src = build_secondary_complex(t, m, 2)
        tgt = build_secondary_complex(d.target, ind.module, 2)
        for n in (0, 1):
            psi_n = psi_chain_map(d, m, n)
            phi_n = phi_chain_map(d, m, n)
            fwd = induced_quotient_map(
                psi_n,
                src.cycle_space(n),
                src.boundary_image(n + 1),
                tgt.cycle_space(n),
                tgt.boundary_image(n + 1),
            )
            back = induced_quotient_map(
                phi_n,
                tgt.cycle_space(n),
                tgt.boundary_image(n + 1),
                src.cycle_space(n),
                src.boundary_image(n + 1),
            )
            hdim = homology(src, n).dim
            assert back @ fwd == SparseMatrix.identity(QQ, hdim)
            assert fwd @ back == SparseMatrix.identity(QQ, hdim)


def _typed(mat):
    """The entries of each column with their scalar types."""
    return [sorted((r, type(v), v) for r, v in col.items()) for col in mat.columns()]


class TestPathSums:
    @staticmethod
    def _random_matrices(rng, field, rows, cols, count):
        pool = [0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 5)]
        out = []
        for _ in range(count):
            columns = [
                {r: v for r in range(rows) if (v := field.from_rational(rng.choice(pool)))}
                for _ in range(cols)
            ]
            out.append(SparseMatrix(field, rows, cols, columns))
        return out

    @pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "GF3"])
    @pytest.mark.parametrize("t", [1, 2, 3])
    @pytest.mark.parametrize("steps", [0, 1, 2, 3])
    def test_paths_equal_the_sum_over_index_paths(self, field, t, steps):
        """acc[c] is the sum over the index paths c_0..c_steps = c of
        start[c_0] (x) edges[c_0][c_1] (x) ... (x) edges[c_(steps-1)][c],
        with the same scalar types as that sum."""
        rng = random.Random(100 * t + steps)
        start = self._random_matrices(rng, field, 2, 3, t)
        edges = [self._random_matrices(rng, field, 3, 2, t) for _ in range(t)]
        acc = morita._paths(start, edges, steps)
        assert len(acc) == t
        for c in range(t):
            paths = (prefix + (c,) for prefix in itertools.product(range(t), repeat=steps))
            terms = [
                functools.reduce(
                    SparseMatrix.kron,
                    [edges[j][k] for j, k in zip(path, path[1:])],
                    start[path[0]],
                )
                for path in paths
            ]
            expected = functools.reduce(operator.add, terms)
            assert acc[c] == expected
            assert _typed(acc[c]) == _typed(expected)


class TestHomotopies:
    def test_identity_data_inserts_units(self):
        t, m = fix_dd()
        d = identity_morita(t)
        h0 = homotopy_h(d, m, 1, 0)
        # every image chain carries the unit of A in slot 1
        scheme = secondary_scheme(t, m, 2)
        for j in range(h0.cols):
            for row in h0.column(j):
                mu, alphas, betas = scheme.decode(row)
                assert alphas[0] == 0  # unit coordinate of the monomial basis

    def test_sign_orientation_is_pinned(self):
        # dH + Hd equals id - phi.psi and differs from phi.psi - id, on
        # data where the round trip is not the identity on chains
        a = matrix_algebra(QQ, 2)
        t = trivial_triple(a)
        m = regular_bimodule(a)
        d = corner_morita(t, {0: QQ.one})
        src = build_secondary_complex(t, m, 2)
        ident = SparseMatrix.identity(QQ, src.dims[1])
        round_trip = phi_chain_map(d, m, 1) @ psi_chain_map(d, m, 1)
        assert round_trip != ident
        h1 = alternating_homotopy([homotopy_h(d, m, 1, i) for i in range(2)])
        h0 = homotopy_h(d, m, 0, 0)
        lhs = src.boundary(2) @ h1 + h0 @ src.boundary(1)
        assert lhs == ident - round_trip
        assert lhs != round_trip - ident

    def test_sign_orientation_primed_side(self):
        # on the matrix-data target side psi.phi is not the chain identity
        t, m = fix_d()
        d = standard_matrix_morita(t, 2)
        ind = induced_module(d, m)
        tgt = build_secondary_complex(d.target, ind.module, 2)
        ident = SparseMatrix.identity(QQ, tgt.dims[1])
        round_trip = psi_chain_map(d, m, 1) @ phi_chain_map(d, m, 1)
        assert round_trip != ident
        l1 = alternating_homotopy([homotopy_l(d, m, 1, i) for i in range(2)])
        l0 = homotopy_l(d, m, 0, 0)
        lhs = tgt.boundary(2) @ l1 + l0 @ tgt.boundary(1)
        assert lhs == ident - round_trip
        assert lhs != round_trip - ident

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_h_identity(self, degree):
        t, m = fix_d()
        d = standard_matrix_morita(t, 2)
        src = build_secondary_complex(t, m, degree + 1)
        ident = SparseMatrix.identity(QQ, src.dims[degree])
        round_trip = phi_chain_map(d, m, degree) @ psi_chain_map(d, m, degree)
        h_n = alternating_homotopy(
            [homotopy_h(d, m, degree, i) for i in range(degree + 1)]
        )
        lhs = src.boundary(degree + 1) @ h_n
        if degree >= 1:
            h_prev = alternating_homotopy(
                [homotopy_h(d, m, degree - 1, i) for i in range(degree)]
            )
            lhs = lhs + h_prev @ src.boundary(degree)
        assert lhs == ident - round_trip

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_l_identity(self, degree):
        t, m = fix_d()
        d = standard_matrix_morita(t, 2)
        ind = induced_module(d, m)
        tgt = build_secondary_complex(d.target, ind.module, degree + 1)
        ident = SparseMatrix.identity(QQ, tgt.dims[degree])
        round_trip = psi_chain_map(d, m, degree) @ phi_chain_map(d, m, degree)
        l_n = alternating_homotopy(
            [homotopy_l(d, m, degree, i) for i in range(degree + 1)]
        )
        lhs = tgt.boundary(degree + 1) @ l_n
        if degree >= 1:
            l_prev = alternating_homotopy(
                [homotopy_l(d, m, degree - 1, i) for i in range(degree)]
            )
            lhs = lhs + l_prev @ tgt.boundary(degree)
        assert lhs == ident - round_trip

    def test_index_bounds(self):
        t, m = fix_d()
        d = identity_morita(t)
        with pytest.raises(PreconditionError):
            homotopy_h(d, m, 1, 2)
        with pytest.raises(PreconditionError):
            homotopy_l(d, m, 1, -1)


class TestInvariance:
    def test_identity_data_trivial(self):
        t, m = fix_dd()
        rep = verify_morita_invariance(identity_morita(t), m, 1)
        assert rep.ok, rep.render()

    def test_dual_numbers_vs_matrix_lift(self):
        t, m = fix_d()
        rep = verify_morita_invariance(standard_matrix_morita(t, 2), m, 2)
        assert rep.ok, rep.render()

    @pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "GF3"])
    def test_composed_matrix_contexts_with_four_dual_pairs(self, field):
        """The 2x2 context of FIX-KB composed with the 2x2 context of its
        lift: t = 4 dual pairs, with psi, phi, h and l to degree 2."""
        t, m = (x.over(field) for x in fix_kb())
        std = standard_matrix_morita(t, 2)
        d = compose_morita(std, standard_matrix_morita(std.target, 2))
        assert (len(d.p_dual), len(d.pprime_dual)) == (1, 4)
        rep = verify_morita_invariance(d, m, 2)
        assert rep.ok, rep.render()

    @pytest.mark.parametrize(
        "name, p", list(LIFT_DIMS), ids=[f"{name}-GF{p}" for name, p in LIFT_DIMS]
    )
    def test_lift_dims_cross_checked_over_prime_field(self, name, p):
        """H_0, H_1 of the 2x2 context on both sides; FIX-D, FIX-P3 and
        FIX-EXT read other dims in characteristic 2 or 3 than over Q."""
        t, m = NAMED_FIXTURES[name]()
        d = standard_matrix_morita(t, 2)
        rep_p = verify_morita_invariance(d.over(GF(p)), m.over(GF(p)), 1)
        assert rep_p.ok, rep_p.render()
        dims = LIFT_DIMS[(name, p)]
        agree = next(i for i in rep_p.items if i.label == "homology dims agree")
        assert agree.detail == f"source {dims}, target {dims}"

    @pytest.mark.parametrize(
        "fixture, dims", [(fix_dd, [2, 0, 0, 0]), (fix_p3, [3, 3, 3, 3])], ids=["FIX-DD", "FIX-P3"]
    )
    def test_standard_context_through_degree_three(self, fixture, dims):
        """The 2x2 context over GF(3) to degree 3: chain maps through
        degree 3, homotopies through degree 2, and H_0..H_3 equal on both
        sides (FIX-P3 reads 3, 2, 2, 2 over Q)."""
        t, m = fixture()
        rep = verify_morita_invariance(standard_matrix_morita(t, 2).over(GF(3)), m.over(GF(3)), 3)
        assert rep.ok, rep.render()
        agree = next(i for i in rep.items if i.label == "homology dims agree")
        assert agree.detail == f"source {dims}, target {dims}"

    def test_eta_is_inverted_once_per_context(self, monkeypatch):
        """phi_0..phi_2 all carry eta^-1 on their b-slots; it is computed
        once for the context, not once per degree."""
        t, m = fix_dd()
        d = standard_matrix_morita(t, 2)
        calls = []
        inverse = AlgebraMorphism.inverse

        def counting_inverse(self):
            calls.append(self)
            return inverse(self)

        monkeypatch.setattr(AlgebraMorphism, "inverse", counting_inverse)
        rep = verify_morita_invariance(d, m, 2)
        assert rep.ok, rep.render()
        assert len(calls) == 1

    def test_corner_invariance_full_depth(self):
        a = matrix_algebra(QQ, 2)
        t = trivial_triple(a)
        d = corner_morita(t, {0: QQ.one})
        rep = verify_morita_invariance(d, regular_bimodule(a), 2)
        assert rep.ok, rep.render()

    def test_zero_algebra_has_empty_duals(self):
        # a file may carry dim A = 0 with a corner section: the f-duals are
        # empty, and every map is the zero map of its shape
        a = FiniteAlgebra.from_data(QQ, (), (), ())
        d = corner_morita(trivial_triple(a), {})
        assert (len(d.p_dual), len(d.pprime_dual)) == (0, 1)
        rep = verify_morita_invariance(d, Bimodule.from_data(QQ, 0, (), ()), 1)
        assert rep.ok, rep.render()

    def test_negative_degree_rejected_before_building(self, monkeypatch):
        t, m = fix_d()
        d = standard_matrix_morita(t, 2)

        def no_build(*args, **kwargs):
            raise AssertionError("a complex was built")

        monkeypatch.setattr(morita, "build_secondary_complex", no_build)
        with pytest.raises(PreconditionError, match="negative degree"):
            verify_morita_invariance(d, m, -1)

    def test_endpoint_mismatch_in_compose(self):
        t, m = fix_d()
        t2, _ = fix_dd()
        with pytest.raises(PreconditionError):
            compose_morita(identity_morita(t), identity_morita(t2))


def test_no_process_wide_cache_keeps_a_context_alive():
    t, m = fix_d()
    d = standard_matrix_morita(t, 2)
    ref = weakref.ref(d)
    induced_module(d, m)
    assert verify_morita_invariance(d, m, 1).ok
    del d
    gc.collect()
    assert ref() is None
