"""Kaehler differential modules as finitely presented modules.

For a commutative triple, Omega^1_{A|B} is presented on generators
d(e_i), one per basis element of A, modulo the A-module closure of the
Leibniz relations d(e_i e_j) - e_i d(e_j) - e_j d(e_i) and the
B-linearity relations d(eps(b) e_i) - eps(b) d(e_i).  An element of
the free module A^g = k^g (x) A is stored flat: coordinate g_i*dimA + u
is the u-th component of the A-coefficient of generator g_i.  The
relations, the action of A on A^g (`linalg.tensor_bilinear` of I_g and
the products) and M (x)_A Omega^1 are matrix expressions in the
products, eps and the actions of M.  Every A-module closure, of the
Omega relations and of the domain of the fundamental sequence, is one
span of images (`module_closure`).

The degree-one homology of both complexes is tied to these modules:
H_1(A, M) = M (x)_A Omega^1_{A|k} and, for the secondary theory,
H_1((A,B,eps); M) = M (x)_A Omega^1_{A|B} for A-symmetric M.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .algebra import is_a_symmetric, trivial_triple
from .complexes import (
    DEFAULT_GUARD_BYTES,
    build_classical_complex,
    build_secondary_complex,
    homology,
)
from .errors import PreconditionError
from .linalg import (
    QuotientSpace,
    SparseMatrix,
    Subspace,
    commutation,
    image_basis,
    kernel_basis,
    rank,
    tensor_bilinear,
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


def module_closure(a, vectors, gen_count):
    """A-module closure of a vector family in A^gen_count, as a Subspace:
    the span of the images of the family under the basis of A.  A is
    unital, so the family lies in that span, and associative, so
    e_k (e_i r) = (e_k e_i) r lies in it again: one span suffices."""
    field, g, da = a.field, gen_count, a.dim
    ident = SparseMatrix.identity
    family = SparseMatrix(field, g * da, len(vectors), vectors)
    # e_i . r on A^g = k^g (x) A: (I_g (x) P)(K (x) I_A), P the products
    act = tensor_bilinear(ident(field, g), 1, g, a.products, da, da)
    images = act @ ident(field, da).kron(family)
    return Subspace.span(field, g * da, images.columns())


def kahler_module(t):
    """Omega^1_{A|B} for a commutative triple, as a PresentedModule.
    With D = I_A (x) [1_A] (x -> d(x)), P the products, E the matrix of
    eps and K the factor swap, the Leibniz relations are the columns of
    DP - K - I and the B-linearity relations those of DP(E (x) I) -
    (I (x) E)K."""
    a, b, eps = t.A, t.B, t.eps
    if not a.is_commutative():
        raise PreconditionError("A not commutative")
    field, da = a.field, a.dim
    gens = tuple(f"d({label})" for label in a.basis_labels)
    ident = SparseMatrix.identity(field, da)
    d_of = ident.kron(SparseMatrix(field, da, 1, [a.unit_vec()])) @ a.products
    e = eps.sparse
    # d(e_i e_j) - e_i d(e_j) - e_j d(e_i) at column i*dA + j
    leibniz = d_of - commutation(field, da, da) - ident.kron(ident)
    # d(eps(b) e_i) - eps(b) d(e_i) at column b*dA + i
    b_linear = d_of @ e.kron(ident) - ident.kron(e) @ commutation(field, b.dim, da)
    relations = [col for rel in (leibniz, b_linear) for col in rel.columns() if col]
    return PresentedModule(a, gens, module_closure(a, relations, len(gens)))


def tensor_m_kahler(m, omega):
    """Dimension of M (x)_A Omega^1 for an A-symmetric bimodule M: g dim M
    minus the rank of (I_g (x) R_M)(Rel (x) I_M), Rel the basis matrix of
    the relations in A^g."""
    a = omega.over
    if not is_a_symmetric(m, a):
        raise PreconditionError("M not A-symmetric")
    field, g = m.field, omega.free_rank
    rel = omega.relation_space
    rel = SparseMatrix(field, g * a.dim, rel.dim, rel.basis)
    ident = SparseMatrix.identity
    moved = ident(field, g).kron(m.right_action) @ rel.kron(ident(field, m.dim))
    return g * m.dim - rank(moved)


def verify_h1_kahler(t, m, guard_bytes=DEFAULT_GUARD_BYTES):
    """H_1 in both theories against the differential-module dimensions.
    guard_bytes is the memory guard of the complexes.  With B = k the
    classical complex, Omega^1 and M (x)_A Omega^1 are the secondary
    ones, and each is built once."""
    return _h1_kahler(t, m, guard_bytes, kahler_module)


def _h1_kahler(t, m, guard_bytes, omega):
    """`verify_h1_kahler`, with omega(u) the Omega^1 of u."""
    if not t.A.is_commutative():
        raise PreconditionError("A not commutative")
    if not is_a_symmetric(m, t.A):
        raise PreconditionError("M not A-symmetric")
    report = Report("H1 vs Kaehler differentials")
    same = t == trivial_triple(t.A)
    t_ab = tensor_m_kahler(m, omega(t))
    t_ak = t_ab if same else tensor_m_kahler(m, omega(trivial_triple(t.A)))
    sec = build_secondary_complex(t, m, 2, guard_bytes=guard_bytes)
    ca = sec if same else build_classical_complex(t.A, m, 2, guard_bytes=guard_bytes)
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
    """Exactness of A (x)_B Omega_{B|k} -> Omega_{A|k} -> Omega_{A|B} -> 0.
    Equal triples (B = k, or A = B) share one Omega^1."""
    return _fundamental_sequence(t, functools.cache(kahler_module))


def _fundamental_sequence(t, omega):
    """`verify_fundamental_sequence`, with omega(u) the Omega^1 of u."""
    a, b, eps = t.A, t.B, t.eps
    if not a.is_commutative():
        raise PreconditionError("A not commutative")
    field = a.field
    report = Report("first fundamental exact sequence")
    omega_b, omega_ak, omega_ab = map(omega, (trivial_triple(b), trivial_triple(a), t))
    da = a.dim
    g_b = omega_b.free_rank
    q1 = QuotientSpace(omega_ak.relation_space)
    q2 = QuotientSpace(omega_ab.relation_space)

    # domain A (x)_B Omega^1_{B|k}: A^g_b modulo the A-module closure of
    # the relations of Omega_B, moved into A through eps
    rel_b = omega_b.relation_space
    rel_b = SparseMatrix(field, g_b * b.dim, rel_b.dim, rel_b.basis)
    ident = SparseMatrix.identity
    base = ident(field, g_b).kron(eps.sparse) @ rel_b
    dom_space = QuotientSpace(module_closure(a, base.columns(), g_b))

    # first map: a (x) d(b_v) -> a . d(eps(b_v)), on the unquotiented domain
    first = eps.sparse.kron(ident(field, da))
    first_cols = [q1.project(col) for col in first.columns()]
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
    rank_second = rank(second)
    report.check(
        "second surjective",
        rank_second == q2.dim,
        f"rank {rank_second} onto dim {q2.dim}",
    )
    return report


def verify_kahler(t, m, guard_bytes=DEFAULT_GUARD_BYTES):
    """The reports of `verify_h1_kahler` and `verify_fundamental_sequence`
    in one, which build one Omega^1 per distinct triple between them."""
    omega = functools.cache(kahler_module)
    report = Report("kahler differentials")
    report.extend(_h1_kahler(t, m, guard_bytes, omega))
    report.extend(_fundamental_sequence(t, omega))
    return report
