"""Kaehler differential modules as finitely presented modules.

For a commutative triple, Omega^1_{A|B} is presented on generators
d(e_i), one per basis element of A, modulo the A-module closure of the
Leibniz relations d(e_i e_j) - e_i d(e_j) - e_j d(e_i) and the
B-linearity relations d(eps(b) e_i) - eps(b) d(e_i).  An element of
the free module A^g is stored flat: coordinate g_i*dimA + u is the
u-th component of the A-coefficient of generator g_i.

The degree-one homology of both complexes is tied to these modules:
H_1(A, M) = M (x)_A Omega^1_{A|k} and, for the secondary theory,
H_1((A,B,eps); M) = M (x)_A Omega^1_{A|B} for A-symmetric M.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import is_a_symmetric, trivial_triple
from .complexes import build_classical_complex, build_secondary_complex, homology
from .errors import PreconditionError
from .linalg import (
    Echelon,
    QuotientSpace,
    SparseMatrix,
    Subspace,
    image_basis,
    kernel_basis,
    rank,
    vec_add_scaled,
)
from .report import Report


@dataclass(frozen=True)
class PresentedModule:
    over: object  # commutative FiniteAlgebra
    generators: tuple
    relation_space: Subspace  # subspace of A^{#generators}, flat coords

    @property
    def free_rank(self):
        return len(self.generators)

    @property
    def dim(self):
        """Dimension of the quotient as a vector space over k."""
        return self.free_rank * self.over.dim - self.relation_space.dim


def _act_free(a, vec, gen_count, basis_idx):
    """e_i . vec inside A^gen_count (blockwise algebra product)."""
    field = a.field
    da = a.dim
    out = {}
    for flat, c in vec.items():
        gi, u = divmod(flat, da)
        moved = a.mul(a.basis_vec(basis_idx), {u: c})
        vec_add_scaled(field, out, field.one, {gi * da + k: cv for k, cv in moved.items()})
    return out


def module_closure(a, vectors, gen_count):
    """A-module closure of a vector family in A^gen_count, as a Subspace:
    the span of the family and its images under the basis of A.  A is
    unital and associative, so e_k (e_i r) = (e_k e_i) r lies in that
    span again and one pass suffices."""
    ambient = gen_count * a.dim
    current = Subspace.span(a.field, ambient, vectors)
    extra = [
        img
        for b in current.basis
        for i in range(a.dim)
        if not current.contains(img := _act_free(a, b, gen_count, i))
    ]
    if not extra:
        return current
    return Subspace.span(a.field, ambient, [*current.basis, *extra])


def kahler_module(t):
    """Omega^1_{A|B} for a commutative triple, as a PresentedModule."""
    a, b, eps = t.A, t.B, t.eps
    if not a.is_commutative():
        raise PreconditionError("A not commutative")
    field = a.field
    da = a.dim
    gens = tuple(f"d({label})" for label in a.basis_labels)
    g = len(gens)
    relations = []
    # Leibniz: d(e_i e_j) - e_i d(e_j) - e_j d(e_i)
    unit = a.unit_vec()
    minus = field.neg(field.one)
    for i in range(da):
        for j in range(da):
            rel = {}
            for k, c in a.mul(a.basis_vec(i), a.basis_vec(j)).items():
                vec_add_scaled(field, rel, c, {k * da + u: cu for u, cu in unit.items()})
            vec_add_scaled(field, rel, minus, {j * da + i: field.one})
            vec_add_scaled(field, rel, minus, {i * da + j: field.one})
            if rel:
                relations.append(rel)
    # B-linearity: d(eps(b) e_i) - eps(b) d(e_i)
    for v in range(b.dim):
        ev = eps.apply_basis(v)
        for i in range(da):
            rel = {}
            prod = a.mul(ev, a.basis_vec(i))
            for u, cu in prod.items():
                vec_add_scaled(field, rel, cu, {u * da + uu: cuu for uu, cuu in unit.items()})
            vec_add_scaled(field, rel, minus, {i * da + u: cu for u, cu in ev.items()})
            if rel:
                relations.append(rel)
    closure = module_closure(a, relations, g)
    return PresentedModule(a, gens, closure)


def tensor_m_kahler(m, omega):
    """Dimension of M (x)_A Omega^1 for an A-symmetric bimodule M."""
    a = omega.over
    if not is_a_symmetric(m, a):
        raise PreconditionError("M not A-symmetric")
    field = m.field
    g = omega.free_rank
    da = a.dim
    dm = m.dim
    ech = Echelon(field)
    for rel in omega.relation_space.basis:
        for mu in range(dm):
            vec = {}
            for flat, c in rel.items():
                gi, u = divmod(flat, da)
                moved = m.act_right({mu: c}, a.basis_vec(u))
                vec_add_scaled(field, vec, field.one, {gi * dm + k: cv for k, cv in moved.items()})
            ech.insert(vec)
    return g * dm - ech.rank


def verify_h1_kahler(t, m):
    """H_1 in both theories against the differential-module dimensions."""
    if not t.A.is_commutative():
        raise PreconditionError("A not commutative")
    if not is_a_symmetric(m, t.A):
        raise PreconditionError("M not A-symmetric")
    report = Report("H1 vs Kaehler differentials")
    omega_ab = kahler_module(t)
    omega_ak = kahler_module(trivial_triple(t.A))
    t_ab = tensor_m_kahler(m, omega_ab)
    t_ak = tensor_m_kahler(m, omega_ak)
    sec = build_secondary_complex(t, m, 2)
    ca = build_classical_complex(t.A, m, 2)
    h1_sec = homology(sec, 1).dim
    h1_cl = homology(ca, 1).dim
    report.info("dim H1((A,B,eps);M)", str(h1_sec))
    report.info("dim M (x)_A Omega^1_{A|B}", str(t_ab))
    report.info("dim H1(A,M)", str(h1_cl))
    report.info("dim M (x)_A Omega^1_{A|k}", str(t_ak))
    report.check("secondary H1 matches Omega_{A|B}", h1_sec == t_ab)
    report.check("classical H1 matches Omega_{A|k}", h1_cl == t_ak)
    return report


def verify_fundamental_sequence(t):
    """Exactness of A (x)_B Omega_{B|k} -> Omega_{A|k} -> Omega_{A|B} -> 0."""
    a, b, eps = t.A, t.B, t.eps
    if not a.is_commutative():
        raise PreconditionError("A not commutative")
    field = a.field
    report = Report("first fundamental exact sequence")
    omega_b = kahler_module(trivial_triple(b))
    omega_ak = kahler_module(trivial_triple(a))
    omega_ab = kahler_module(t)
    da = a.dim
    g_b = omega_b.free_rank
    g_a = omega_ak.free_rank
    q1 = QuotientSpace(omega_ak.relation_space)
    q2 = QuotientSpace(omega_ab.relation_space)

    # domain A (x)_B Omega^1_{B|k}: A^g_b modulo A . eps(relations of Omega_B)
    dom_rel = []
    for rel in omega_b.relation_space.basis:
        # move B-coefficients into A through eps
        base = {}
        for flat, c in rel.items():
            gi, v = divmod(flat, b.dim)
            moved = {gi * da + u: cu for u, cu in eps.apply_basis(v).items()}
            vec_add_scaled(field, base, c, moved)
        for i in range(da):
            moved = _act_free(a, base, g_b, i)
            if moved:
                dom_rel.append(moved)
    dom_space = QuotientSpace(Subspace.span(field, g_b * da, dom_rel))

    # first map: a (x) d(b_v) -> a . d(eps(b_v)), on the unquotiented domain
    first_cols = []
    for flat in range(g_b * da):
        gi, x = divmod(flat, da)
        # d(eps(b_gi)) = sum_u eps[u][gi] d(e_u), with A-coefficient e_x
        out = {u * da + x: cu for u, cu in eps.apply_basis(gi).items()}
        first_cols.append(q1.project(out))
    first = SparseMatrix(field, q1.dim, g_b * da, first_cols)

    # second map: identity on generators, finer quotient
    second_cols = [q2.project(q1.lift({j: field.one})) for j in range(q1.dim)]
    second = SparseMatrix(field, q2.dim, q1.dim, second_cols)

    report.info("dim A (x)_B Omega^1_{B|k}", str(dom_space.dim))
    report.info("dim Omega^1_{A|k}", str(q1.dim))
    report.info("dim Omega^1_{A|B}", str(q2.dim))
    im_first, ker_second = image_basis(first), kernel_basis(second)
    report.check(
        "im(first) = ker(second)",
        im_first == ker_second,
        f"dims {im_first.dim} vs {ker_second.dim}",
    )
    report.check(
        "second surjective",
        rank(second) == q2.dim,
        f"rank {rank(second)} onto dim {q2.dim}",
    )
    return report
