"""Built-in instances used by the verification suite and the CLI.

Named fixtures:

  fix_k    A = B = M = k, eps = id.
  fix_d    A = Q[x]/(x^2), B = Q, M = A (dual numbers over the ground field).
  fix_dd   A = B = Q[x]/(x^2), eps = id, M = A.
  fix_p3   A = Q[x]/(x^3), B = Q, M = A.
  fix_kb   A = Q, B = Q[y]/(y^2), eps(y) = 0, M = B as a plain k-space.
  fix_ext  B = Q[y]/(y^2), A = B[x]/(x^2) (dim 4), eps = inclusion, M = A:
           FIX-EXT = FIX-D (x) FIX-DD, its A the tensor product of theirs.

The random generator produces small triples that are valid by
construction: A = Q[x]/(x^2 - lam*x - mu), B the subalgebra generated by
a chosen element, coefficients drawn from a seeded pool.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

from .algebra import (
    AlgebraMorphism,
    Bimodule,
    FiniteAlgebra,
    Triple,
    field_algebra,
    pullback_bimodule,
    regular_bimodule,
    tensor_algebra,
    truncated_polynomial_algebra,
    trivial_triple,
    unit_morphism,
)
from .fields import QQ
from .linalg import SparseMatrix


def fix_k():
    t = trivial_triple(field_algebra(QQ))
    return t, regular_bimodule(t.A)


def fix_d():
    a = truncated_polynomial_algebra(QQ, 2)
    t = trivial_triple(a)
    return t, regular_bimodule(a)


def fix_dd():
    a = truncated_polynomial_algebra(QQ, 2)
    t = Triple(a, a, AlgebraMorphism.identity(a))
    return t, regular_bimodule(a)


def fix_p3():
    a = truncated_polynomial_algebra(QQ, 3)
    t = trivial_triple(a)
    return t, regular_bimodule(a)


def fix_kb():
    """(k, Q[y]/(y^2), y -> 0) with the 2-dim coefficient space B."""
    a = field_algebra(QQ)
    b = truncated_polynomial_algebra(QQ, 2, var="y")
    zero, one = QQ.zero, QQ.one
    eps = AlgebraMorphism.from_data(b, a, ((one, zero),))
    t = Triple(a, b, eps)
    # M = B as a k-space; A = k acts by scalars on both sides.
    ident = tuple(
        tuple(one if r == c else zero for c in range(2)) for r in range(2)
    )
    m = Bimodule.from_data(QQ, 2, (ident,), (ident,))
    return t, m


def fix_ext():
    """B = Q[y]/(y^2), A = B[x]/(x^2) = Q[x]/(x^2) (x) B, eps = [1_x] (x) I_B
    the inclusion; M = A.  FIX-EXT is FIX-D (x) FIX-DD."""
    x, b = truncated_polynomial_algebra(QQ, 2), truncated_polynomial_algebra(QQ, 2, var="y")
    # A basis: 1, y, x, yx  (index = 2*xdeg + ydeg)
    a = replace(tensor_algebra(x, b), basis_labels=("1", "y", "x", "y*x"))
    unit_x = SparseMatrix(QQ, 2, 1, [x.unit_vec()])
    eps = AlgebraMorphism(b, a, unit_x.kron(SparseMatrix.identity(QQ, 2)))
    return Triple(a, b, eps), regular_bimodule(a)


NAMED_FIXTURES = {
    "FIX-K": fix_k,
    "FIX-D": fix_d,
    "FIX-DD": fix_dd,
    "FIX-P3": fix_p3,
    "FIX-KB": fix_kb,
    "FIX-EXT": fix_ext,
}


_COEFF_POOL = [
    QQ.from_rational(c)
    for c in (0, 1, -1, 2, Fraction(1, 2), -3, Fraction(2, 3))
]


def _quadratic_algebra(field, lam, mu, var="x"):
    """k[x]/(x^2 - lam*x - mu); associative and commutative for any lam, mu."""
    zero, one = field.zero, field.one
    lam = field.from_rational(lam)
    mu = field.from_rational(mu)
    table = [
        [[one, zero], [zero, one]],
        [[zero, one], [mu, lam]],
    ]
    return FiniteAlgebra.from_data(field, ("1", var), table, (one, zero))


def random_triple(rng, field=QQ):
    """A random valid triple with dim A, dim B <= 2.

    B is realized as the subalgebra generated by a random element b of
    A, with eps sending the generator to b, so centrality and the
    morphism laws hold by construction.
    """
    lam = rng.choice(_COEFF_POOL)
    mu = rng.choice(_COEFF_POOL)
    if rng.random() < 0.2:
        a = field_algebra(field)
        return trivial_triple(a)
    a = _quadratic_algebra(field, lam, mu)
    style = rng.random()
    if style < 0.3:
        k = field_algebra(field)
        return Triple(a, k, unit_morphism(k, a))
    if style < 0.6:
        return Triple(a, a, AlgebraMorphism.identity(a))
    # subalgebra generated by b = alpha + beta*x, beta != 0
    alpha = rng.choice(_COEFF_POOL)
    beta = rng.choice([c for c in _COEFF_POOL if c != 0])
    fa = field.from_rational(alpha)
    fb = field.from_rational(beta)
    bvec = {0: fa, 1: fb} if fa != field.zero else {1: fb}
    bsq = a.mul(bvec, bvec)
    # write b^2 = lam2 * b + mu2
    lam2 = field.mul(bsq.get(1, field.zero), field.inv(fb))
    mu2 = field.sub(bsq.get(0, field.zero), field.mul(lam2, fa))
    b_alg = FiniteAlgebra.from_data(
        field,
        ("1", "y"),
        [
            [[field.one, field.zero], [field.zero, field.one]],
            [[field.zero, field.one], [mu2, lam2]],
        ],
        (field.one, field.zero),
    )
    zero = field.zero
    eps = AlgebraMorphism.from_data(
        b_alg, a, ((field.one, bvec.get(0, zero)), (zero, bvec.get(1, zero)))
    )
    return Triple(a, b_alg, eps)


def random_bimodule(rng, t):
    """A random valid B-symmetric bimodule over t with dim <= 2."""
    a = t.A
    field = a.field
    choices = ["regular"]
    if t.B.dim == 1 and a.dim == 2:
        choices.append("twisted")
    if a.dim == 2 and a.table[1][1][0] == field.zero:
        # x^2 = lam*x: the character x -> 0 exists
        choices.append("character")
    kind = rng.choice(choices)
    if kind == "regular":
        return regular_bimodule(a)
    if kind == "character":
        one, zero = field.one, field.zero
        # tensors indexed [alg basis][module basis][module basis]
        left = (((one,),), ((zero,),))
        return Bimodule.from_data(field, 1, left, left)
    # twisted: M = A with right action through x -> lam - x
    lam = a.table[1][1][1]
    phi_mat = (
        (field.one, lam),
        (field.zero, field.neg(field.one)),
    )
    phi = AlgebraMorphism.from_data(a, a, phi_mat)
    reg = regular_bimodule(a)
    twisted_right = pullback_bimodule(phi, reg).right_action
    return Bimodule(reg.left_action, twisted_right, a.dim, a.dim)


def random_instances(seed, count, field=QQ):
    """Deterministic stream of (triple, bimodule) pairs."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        t = random_triple(rng, field)
        m = random_bimodule(rng, t)
        out.append((t, m))
    return out
