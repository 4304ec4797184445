import pytest

from helpers import counting_builds, renamed_b, two_step_closure

from hochschild import kahler
from hochschild.algebra import (
    Bimodule,
    field_algebra,
    matrix_algebra,
    regular_bimodule,
    trivial_triple,
    truncated_polynomial_algebra,
)
from hochschild.errors import PreconditionError, ScalarError, SizeGuardError
from hochschild.fields import GF, QQ
from hochschild.fixtures import (
    NAMED_FIXTURES,
    fix_d,
    fix_dd,
    fix_ext,
    fix_k,
    fix_p3,
    random_instances,
)
from hochschild.kahler import (
    kahler_module,
    module_closure,
    tensor_m_kahler,
    verify_fundamental_sequence,
    verify_h1_kahler,
)


class TestKahlerModule:
    def test_ground_field_gives_zero(self):
        t = trivial_triple(field_algebra(QQ))
        assert kahler_module(t).dim == 0

    def test_dual_numbers(self):
        t, _ = fix_d()
        omega = kahler_module(t)
        assert omega.dim == 1

    def test_cubic_truncation(self):
        t, _ = fix_p3()
        assert kahler_module(t).dim == 2

    def test_identity_base_kills_everything(self):
        t, _ = fix_dd()
        assert kahler_module(t).dim == 0

    def test_noncommutative_rejected(self):
        t = trivial_triple(matrix_algebra(QQ, 2))
        with pytest.raises(PreconditionError, match="commutative"):
            kahler_module(t)

    def test_relation_space_is_a_submodule(self):
        t, _ = fix_p3()
        omega = kahler_module(t)
        closed_again = module_closure(
            t.A, list(omega.relation_space.basis), omega.free_rank
        )
        assert closed_again == omega.relation_space

    @pytest.mark.parametrize(
        "field", [QQ, GF(2), GF(3), GF(1009)], ids=["Q", "GF2", "GF3", "GF1009"]
    )
    def test_closure_equals_the_two_step_closure(self, field, monkeypatch):
        """module_closure, one span of the images under the basis of A,
        equals the span of the family closed up in a second span, on every
        family the Kaehler modules and the fundamental sequence close: the
        relations of Omega_{A|B}, Omega_{A|k} and Omega_{B|k}, and those of
        Omega_{B|k} moved into A^g through eps."""
        closed = []

        def checked(a, vectors, gen_count):
            got = module_closure(a, vectors, gen_count)
            assert got == two_step_closure(a, vectors, gen_count)
            closed.append(got.dim)
            return got

        monkeypatch.setattr(kahler, "module_closure", checked)
        cases = [fn()[0] for fn in NAMED_FIXTURES.values()]
        cases += [t for t, _ in random_instances(7, 6)]
        families = 0
        for t in cases:
            try:
                t = t.over(field)
            except ScalarError:
                continue
            if t.A.is_commutative():
                verify_fundamental_sequence(t)
                # one Omega^1 per distinct triple, and the domain's closure
                families += len({trivial_triple(t.B), trivial_triple(t.A), t}) + 1
        assert len(closed) == families and any(closed)

    def test_base_equal_to_ground_field_matches_classical(self):
        for t, m in random_instances(seed=31, count=8):
            if not t.A.is_commutative():
                continue
            omega_ab = kahler_module(t)
            omega_ak = kahler_module(trivial_triple(t.A))
            if t.B.dim == 1:
                assert omega_ab.dim == omega_ak.dim


class TestTensorWithModule:
    def test_module_equal_to_algebra(self):
        t, m = fix_p3()
        omega = kahler_module(t)
        assert tensor_m_kahler(m, omega) == omega.dim

    def test_zero_module(self):
        t, _ = fix_d()
        omega = kahler_module(t)
        zero_mod = Bimodule.from_data(QQ, 0, [[], []], [[], []])
        assert tensor_m_kahler(zero_mod, omega) == 0

    def test_quotient_module(self):
        # M = A/(x) over A = Q[x]/(x^2): x acts as zero on a 1-dim space
        t, _ = fix_d()
        omega = kahler_module(t)
        one, zero = QQ.one, QQ.zero
        m = Bimodule.from_data(QQ, 1, (((one,),), ((zero,),)), (((one,),), ((zero,),)))
        assert tensor_m_kahler(m, omega) == 1

    def test_non_symmetric_module_rejected(self):
        a = matrix_algebra(QQ, 2)
        t = trivial_triple(a)
        omega_input = regular_bimodule(truncated_polynomial_algebra(QQ, 2))
        t_comm, _ = fix_d()
        omega = kahler_module(t_comm)
        m = regular_bimodule(a)  # not A-symmetric and wrong algebra
        with pytest.raises(PreconditionError):
            tensor_m_kahler(m, omega)


class TestH1Identification:
    def test_identity_base(self):
        t, m = fix_dd()
        rep = verify_h1_kahler(t, m)
        assert rep.ok, rep.render()
        dims = {i.label: i.detail for i in rep.items if i.ok is None}
        assert dims["dim H1((A,B,eps);M)"] == "0"

    def test_dual_numbers(self):
        t, m = fix_d()
        rep = verify_h1_kahler(t, m)
        assert rep.ok, rep.render()
        dims = {i.label: i.detail for i in rep.items if i.ok is None}
        assert dims["dim H1((A,B,eps);M)"] == "1"

    def test_cubic_truncation(self):
        t, m = fix_p3()
        rep = verify_h1_kahler(t, m)
        assert rep.ok, rep.render()
        dims = {i.label: i.detail for i in rep.items if i.ok is None}
        assert dims["dim H1((A,B,eps);M)"] == "2"

    def test_randomized_commutative_instances(self):
        from hochschild.algebra import is_a_symmetric

        for t, m in random_instances(seed=13, count=10):
            if not t.A.is_commutative() or not is_a_symmetric(m, t.A):
                continue
            rep = verify_h1_kahler(t, m)
            assert rep.ok, rep.render()

    @pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "GF3"])
    @pytest.mark.parametrize("fixture", [fix_d, fix_k])
    def test_a_ground_base_builds_one_complex(self, monkeypatch, field, fixture):
        """With B = k the secondary complex, Omega^1 and M (x)_A Omega^1 are
        the classical ones: one complex is built, where a triple equal in
        every number but with B's basis label renamed builds two, and the
        reports render the same."""
        t, m = (x.over(field) for x in fixture())
        reports = []
        for triple, count in ((t, 1), (renamed_b(t), 2)):
            built = counting_builds(monkeypatch, kahler)
            reports.append(verify_h1_kahler(triple, m).render())
            assert len(built) == count
            monkeypatch.undo()
        assert reports[0] == reports[1]

    def test_guard_bytes_caps_the_complexes(self):
        t, m = fix_d()
        with pytest.raises(SizeGuardError):
            verify_h1_kahler(t, m, guard_bytes=10)


class TestFundamentalSequence:
    def test_ground_base_degenerates(self):
        t, _ = fix_d()
        rep = verify_fundamental_sequence(t)
        assert rep.ok, rep.render()

    def test_identity_base(self):
        t, _ = fix_dd()
        rep = verify_fundamental_sequence(t)
        assert rep.ok, rep.render()
        dims = {i.label: i.detail for i in rep.items if i.ok is None}
        assert dims["dim Omega^1_{A|B}"] == "0"

    def test_two_variable_extension(self):
        t, _ = fix_ext()
        rep = verify_fundamental_sequence(t)
        assert rep.ok, rep.render()
        dims = {i.label: i.detail for i in rep.items if i.ok is None}
        assert dims["dim Omega^1_{A|k}"] == "4"
        assert dims["dim Omega^1_{A|B}"] == "2"
        assert dims["dim A (x)_B Omega^1_{B|k}"] == "2"

    def test_randomized_commutative_instances(self):
        for t, _ in random_instances(seed=59, count=8):
            if not t.A.is_commutative():
                continue
            rep = verify_fundamental_sequence(t)
            assert rep.ok, rep.render()
