"""Morita equivalence of triples: data, validation, induced coefficients,
and the explicit chain maps with their presimplicial homotopies.

A Morita context between (A, B, eps) and (A', B', eps') consists of an
A-A' bimodule P, an A'-A bimodule Q, bimodule isomorphisms
f: P (x)_A' Q -> A and g: Q (x)_A P -> A', an algebra isomorphism
eta: B -> B', and the symmetry condition eps(b) p = p eps'(eta(b)),
q eps(b) = eps'(eta(b)) q.  f and g are stored as sparse matrices on
the unquotiented tensor spaces, and the dual bases below as sparse
vectors; well-definedness (killing the tensor-over-algebra relations)
is part of validation.

Dual-basis certificates {p_j},{q_j} with f(sum p_j (x) q_j) = 1_A and
{p'_m},{q'_m} with g(sum q'_m (x) p'_m) = 1_A' drive the chain maps
psi/phi and the homotopies h/l.  The homotopy orientation is pinned:
with H = sum (-1)^i h_i, one has dH + Hd = id - phi.psi (and likewise
id - psi.phi on the primed side).

Two primitives carry the constructions.  `BalancedTensor` is the tensor
product of bimodules over algebras with its outer actions: P (x)_A' Q,
the induced coefficients Q (x)_A M (x)_A P, and the modules of a
composed context.  Its balancing relations, its outer actions and the
maps through it (the pairings of a composed context, the module-slot
heads of psi and phi) are matrix expressions in the sparse actions and
pairings, with a `lift` matrix of basis tensors and `project` back to
classes.  The standard matrix context is made of tensor products over
the ground field (`algebra.tensor_bimodule`, `linalg.tensor_bilinear`):
P = k^n rows (x) A and Q = k^n columns (x) A.  `_paths` is the path sum
over dual indices that builds each chain map and homotopy from per-slot
matrices, made once per context and module (`_ChainMaps`) and so once
per verifier: a head matrix on the module slot, then acc'[c'] = sum_c
acc[c] (x) slot[c][c'] for each A-slot; eta, eta^-1 or
`complexes.insertion_b_slots` act on the b-slots.  The head and slot
matrices are themselves Kronecker expressions in f or g, the dual
vectors as one-column matrices, the actions and the products, such as
f(x (x) L_Y(I (x) y)) for a slot of psi or phi; the Kronecker order is
the chain index order, so no index is decoded here.  psi and phi are
one routine on the two sides, and l is h on the target side.  The
axioms of a context are matrix identities between the pairings, the
actions and the products.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from math import prod

from .algebra import (
    AlgebraMorphism,
    Bimodule,
    Triple,
    column_coordinates,
    corner_triple,
    matrix_algebra,
    matrix_triple,
    morphism_defects,
    regular_bimodule,
    tensor_bimodule,
)
from .complexes import (
    DEFAULT_GUARD_BYTES,
    build_secondary_complex,
    homology,
    insertion_b_slots,
)
from .errors import PreconditionError
from .linalg import (
    QuotientSpace,
    SparseMatrix,
    Subspace,
    bilinear,
    commutation,
    rank,
    solve,
    tensor_bilinear,
    vec_add_scaled,
)
from .report import Report


@dataclass(frozen=True)
class MoritaData:
    source: Triple
    target: Triple
    p_mod: Bimodule  # left A, right A'
    q_mod: Bimodule  # left A', right A
    f_mat: SparseMatrix  # dim A  x  (dim P * dim Q), column p*dimQ + q
    g_mat: SparseMatrix  # dim A' x  (dim Q * dim P), column q*dimP + p
    eta: AlgebraMorphism
    p_dual: tuple  # s sparse vectors in P
    q_dual: tuple  # s sparse vectors in Q
    pprime_dual: tuple  # t sparse vectors in P
    qprime_dual: tuple  # t sparse vectors in Q

    @property
    def field(self):
        return self.source.A.field

    def __hash__(self):
        """Over the fields that hash (all but the dual vectors), so equal
        data hash alike."""
        parts = (self.source, self.target, self.p_mod, self.q_mod)
        return hash(parts + (self.f_mat, self.g_mat, self.eta))

    @functools.cached_property
    def eta_inverse(self):
        """eta^-1: B' -> B, inverted once per context."""
        return self.eta.inverse()

    def over(self, field):
        def family(vecs, mod):  # the columns of one matrix in mod
            return SparseMatrix(self.field, mod.dim, len(vecs), vecs).over(field).columns()

        return MoritaData(
            self.source.over(field),
            self.target.over(field),
            self.p_mod.over(field),
            self.q_mod.over(field),
            self.f_mat.over(field),
            self.g_mat.over(field),
            self.eta.over(field),
            family(self.p_dual, self.p_mod),
            family(self.q_dual, self.q_mod),
            family(self.pprime_dual, self.p_mod),
            family(self.qprime_dual, self.q_mod),
        )


# ---------------------------------------------------------------------------
# tensor products over algebras


class BalancedTensor:
    """X_1 (x)_(A_1) X_2 (x)_(A_2) ... (x)_(A_(k-1)) X_k for bimodules X_i.

    The plain tensor product is the Kronecker product, X_1 most
    significant.  The quotient is by the balancing relations x.a (x) y -
    x (x) a.y between neighbouring factors X, Y and the algebra between
    them: the nonzero columns of I (x) ((R_X K) (x) I_Y - I_X (x) L_Y)
    (x) I, K the factor swap.  Their canonical RREF fixes the quotient
    basis.  `lift` is the matrix of the free basis tensors, one per
    class, and `project` maps plain tensors to classes.  `module` is the
    outer bimodule: the left action on the first factor, the right
    action on the last.
    """

    def __init__(self, factors, algebras):
        field = factors[0].field
        self.field = field
        self.dims = dims = tuple(x.dim for x in factors)

        def ident(n):
            return SparseMatrix.identity(field, n)

        relations = []
        for pos, alg in enumerate(algebras):
            x, y = factors[pos], factors[pos + 1]
            right_first = x.right_action @ commutation(field, x.dim, alg.dim)
            moved = right_first.kron(ident(y.dim)) - ident(x.dim).kron(y.left_action)
            rel = ident(prod(dims[:pos])).kron(moved).kron(ident(prod(dims[pos + 2 :])))
            relations += [col for col in rel.columns() if col]
        ambient = prod(dims)
        self.quotient = QuotientSpace(Subspace.span(field, ambient, relations))
        one = field.one
        self.lift = SparseMatrix(
            field, ambient, self.dim, [{k: one} for k in self.quotient.free]
        )
        first, last = factors[0], factors[-1]
        a_left, a_right = first.left_alg_dim, last.right_alg_dim
        init = prod(dims[:-1])
        # on e_i (x) lift: e_i acts on the first factor, or moves past all
        # but the last and acts on it from the right
        left = first.left_action.kron(ident(prod(dims[1:])))
        move_a = commutation(field, a_right, init).kron(ident(last.dim))
        right = ident(init).kron(last.right_action) @ move_a
        self.module = Bimodule(
            self.project(left @ ident(a_left).kron(self.lift)),
            self.project(right @ ident(a_right).kron(self.lift)),
            a_left,
            a_right,
        )

    @property
    def dim(self):
        return self.quotient.dim

    def project(self, m):
        """The classes of the columns of m, a matrix on the plain tensor
        product."""
        cols = [self.quotient.project(col) for col in m.columns()]
        return SparseMatrix(self.field, self.dim, m.cols, cols)

    def embed(self, *vecs):
        """Class of vecs[0] (x) vecs[1] (x) ..., one sparse vector per factor."""
        cols = (SparseMatrix(self.field, d, 1, [v]) for d, v in zip(self.dims, vecs))
        return self.project(functools.reduce(SparseMatrix.kron, cols)).column(0)


def induced_module(d, m):
    """Q (x)_A M (x)_A P as a BalancedTensor: `module` is the induced
    A'-bimodule and embed(q, m, p) the class of q (x) m (x) p."""
    a = d.source.A
    return BalancedTensor((d.q_mod, m, d.p_mod), (a, a))


# ---------------------------------------------------------------------------
# constructions


def identity_morita(t):
    """The reflexive context: P = Q = A, f = g = multiplication."""
    a = t.A
    unit = a.unit_vec()
    reg = regular_bimodule(a)
    return MoritaData(
        source=t,
        target=t,
        p_mod=reg,
        q_mod=reg,
        f_mat=a.products,
        g_mat=a.products,
        eta=AlgebraMorphism.identity(t.B),
        p_dual=(unit,),
        q_dual=(unit,),
        pprime_dual=(unit,),
        qprime_dual=(unit,),
    )


def standard_matrix_morita(t, n):
    """Context between t and its n-by-n matrix triple, every part a
    tensor product with A over the ground field.

    P = k^n rows (x) A (basis (slot, A-basis), index c*dimA + u) and
    Q = k^n columns (x) A, with the actions of M_n(k) on rows and columns
    read off its products through the first row and column.  f pairs a
    row with a column (their dot product) and g sends a column and a row
    to their matrix unit, each tensored with the products of A.  The
    f-certificate uses the single pair (unit row at slot 0, unit column
    at slot 0); the g-certificate is the n standard pairs summing to the
    identity matrix.
    """
    if n < 1:
        raise PreconditionError("matrix context needs n >= 1")
    target, _ = matrix_triple(t, n)
    a = t.A
    field, one, da = a.field, a.field.one, a.dim
    mn = matrix_algebra(field, n)
    ident_n, ident_nn = (SparseMatrix.identity(field, k) for k in (n, n * n))
    row = SparseMatrix(field, n * n, n, [{c: one} for c in range(n)])  # e_c -> E_0c
    col = SparseMatrix(field, n * n, n, [{r * n: one} for r in range(n)])  # e_r -> E_r0
    swap = commutation(field, n * n, n)
    rows = Bimodule(
        ident_n, row.transpose() @ mn.products @ row.kron(ident_nn) @ swap, 1, n * n
    )
    cols = Bimodule(
        col.transpose() @ mn.products @ ident_nn.kron(col), ident_n, n * n, 1
    )
    reg = regular_bimodule(a)
    unit_mn = SparseMatrix(field, n * n, 1, [mn.unit_vec()])
    # a row times a column is their dot product, the transposed unit of
    # M_n(k); a column e_r times a row e_c is E_rc, index r*n + c
    f, g = (
        tensor_bilinear(pair, n, n, a.products, da, da)
        for pair in (unit_mn.transpose(), ident_nn)
    )
    units = ident_n.kron(SparseMatrix(field, da, 1, [a.unit_vec()])).columns()
    return MoritaData(
        source=t,
        target=target,
        p_mod=tensor_bimodule(rows, reg),
        q_mod=tensor_bimodule(cols, reg),
        f_mat=f,
        g_mat=g,
        eta=AlgebraMorphism.identity(t.B),
        p_dual=units[:1],
        q_dual=units[:1],
        pprime_dual=units,
        qprime_dual=units,
    )


def corner_morita(t, e):
    """Context between t and its corner triple at a full idempotent e,
    with P = Ae, Q = eA and dual bases found by a linear solve.  With
    the basis matrices of Ae, eA and eAe, each action and pairing is the
    products of A on a Kronecker product of two of them (or of one and
    the identity), read back in coordinates on the receiving basis."""
    target = corner_triple(t, e)
    a = t.A
    field = a.field
    ident = SparseMatrix.identity(field, a.dim)
    e_col = SparseMatrix(field, a.dim, 1, [e])

    def mul(x, y):  # column i*y.cols + j is x_i y_j
        return a.products @ x.kron(y)

    def span(m):
        return Subspace.span(field, a.dim, m.columns())

    p_space, q_space = span(mul(ident, e_col)), span(mul(e_col, ident))
    corner = span(mul(mul(e_col, ident), e_col))
    pb, qb, cb = (
        SparseMatrix(field, a.dim, s.dim, s.basis) for s in (p_space, q_space, corner)
    )
    dp, dq, dc = p_space.dim, q_space.dim, corner.dim
    # P = Ae: left action of A, right action of eAe; Q = eA the other way
    p_mod = Bimodule(
        column_coordinates(p_space, mul(ident, pb)),
        column_coordinates(p_space, mul(pb, cb) @ commutation(field, dc, dp)),
        a.dim,
        dc,
    )
    q_mod = Bimodule(
        column_coordinates(q_space, mul(cb, qb)),
        column_coordinates(q_space, mul(qb, ident) @ commutation(field, a.dim, dq)),
        dc,
        a.dim,
    )
    f, g = mul(pb, qb), column_coordinates(corner, mul(qb, pb))

    # dual basis for f: write 1_A = sum_j rho_j * w_j, rho_j the P basis
    x = solve(f, a.unit_vec())
    if x is None:
        raise PreconditionError("AeA != A: dual-basis solve infeasible")
    w = {}
    for col, cv in sorted(x.items()):
        w.setdefault(col // dq, {})[col % dq] = cv
    pprime, qprime = (
        column_coordinates(s, e_col).column(0) for s in (p_space, q_space)
    )
    return MoritaData(
        source=t,
        target=target,
        p_mod=p_mod,
        q_mod=q_mod,
        f_mat=f,
        g_mat=g,
        eta=AlgebraMorphism.identity(t.B),
        p_dual=tuple({j: field.one} for j in sorted(w)),
        q_dual=tuple(w[j] for j in sorted(w)),
        pprime_dual=(pprime,),
        qprime_dual=(qprime,),
    )


def compose_morita(d1, d2):
    """Transitive composition: P = P1 (x)_A' P2, Q = Q2 (x)_A' Q1,
    eta = eta2 . eta1, dual bases the pairwise tensors.  On the lifts of
    the classes, f = f1(I (x) L_Q1(f2 (x) I)) and g = g2(I (x) L_P2(g1 (x) I))."""
    if d1.target != d2.source:
        raise PreconditionError("contexts do not share the middle triple")
    field = d1.field
    aprime = d1.target.A
    p_t = BalancedTensor((d1.p_mod, d2.p_mod), (aprime,))
    q_t = BalancedTensor((d2.q_mod, d1.q_mod), (aprime,))
    f1, g1 = d1.f_mat, d1.g_mat
    f2, g2 = d2.f_mat, d2.g_mat

    def ident(mod):
        return SparseMatrix.identity(field, mod.dim)

    # f1(p1 (x) f2(p2 (x) q2) q1) and g2(q2 (x) g1(q1 (x) p1) p2)
    inner_f = d1.q_mod.left_action @ f2.kron(ident(d1.q_mod))
    inner_g = d2.p_mod.left_action @ g1.kron(ident(d2.p_mod))
    f = f1 @ ident(d1.p_mod).kron(inner_f) @ p_t.lift.kron(q_t.lift)
    g = g2 @ ident(d2.q_mod).kron(inner_g) @ q_t.lift.kron(p_t.lift)

    return MoritaData(
        source=d1.source,
        target=d2.target,
        p_mod=p_t.module,
        q_mod=q_t.module,
        f_mat=f,
        g_mat=g,
        eta=d2.eta.compose(d1.eta),
        p_dual=tuple(p_t.embed(x, y) for x in d1.p_dual for y in d2.p_dual),
        q_dual=tuple(q_t.embed(y, x) for x in d1.q_dual for y in d2.q_dual),
        pprime_dual=tuple(
            p_t.embed(x, y) for y in d2.pprime_dual for x in d1.pprime_dual
        ),
        qprime_dual=tuple(
            q_t.embed(y, x) for y in d2.qprime_dual for x in d1.qprime_dual
        ),
    )


# ---------------------------------------------------------------------------
# validation


def validate_morita(d):
    """The context axioms (i)-(iii), the dual-basis certificates and the
    compatibility of f and g, each a matrix identity or a rank."""
    report = Report("morita context")
    field = d.field
    a, aprime = d.source.A, d.target.A
    p, q = d.p_mod, d.q_mod

    # (ii) eta is an isomorphism of algebras B -> B'
    eta = d.eta
    ok_eta_unit, bad_eta_pairs = morphism_defects(eta)
    report.check("(ii) eta unital", ok_eta_unit)
    report.check("(ii) eta multiplicative", not bad_eta_pairs)
    report.check(
        "(ii) eta bijective",
        d.source.B.dim == d.target.B.dim == rank(eta.sparse),
    )

    # each pairing X (x) Y -> outer: f on P (x)_A' Q -> A, g on Q (x)_A P -> A',
    # as its matrix M on the plain tensor product
    fm, gm = d.f_mat, d.g_mat
    sides = (
        ("f", "P(x)Q", "A", "A'", p, q, fm, a, aprime),
        ("g", "Q(x)P", "A'", "A", q, p, gm, aprime, a),
    )

    def ident(n):
        return SparseMatrix.identity(field, n)

    def right_first(x_mod, alg):  # x (x) e_k -> x . e_k
        return x_mod.right_action @ commutation(field, x_mod.dim, alg.dim)

    # M kills the balancing relations: M(R_X (x) I) = M(I (x) L_Y) on
    # X (x) inner (x) Y, and is a bimodule map: M(L_X (x) I) = P(I (x) M)
    # and M(I (x) R_Y) = P(M (x) I), P the products of the outer algebra
    for name, _, _, inner_name, x_mod, y_mod, pair, _, inner in sides:
        ix, iy = ident(x_mod.dim), ident(y_mod.dim)
        moved = pair @ right_first(x_mod, inner).kron(iy)
        ok = moved == pair @ ix.kron(y_mod.left_action)
        report.check(f"(i) {name} balanced over {inner_name}", ok)
    for name, _, outer_name, _, x_mod, y_mod, pair, outer, _ in sides:
        ix, iy, io = ident(x_mod.dim), ident(y_mod.dim), ident(outer.dim)
        ok = pair @ x_mod.left_action.kron(iy) == outer.products @ io.kron(pair) and (
            pair @ ix.kron(right_first(y_mod, outer)) == outer.products @ pair.kron(io)
        )
        report.check(f"(i) {name} is an {outer_name}-bimodule map", ok)

    # bijectivity through the quotients: M on the lifts of their bases
    for name, tensor_name, outer_name, _, x_mod, y_mod, pair, outer, inner in sides:
        tensor = BalancedTensor((x_mod, y_mod), (inner,))
        r = rank(pair @ tensor.lift)
        report.check(
            f"(i) {name} bijective",
            tensor.dim == outer.dim and r == outer.dim,
            f"dim {tensor_name} = {tensor.dim}, dim {outer_name} = {outer.dim}, "
            f"rank {name} = {r}",
        )

    # dual-basis certificates: M applied to sum x_j (x) y_j
    certificates = (
        ("f(sum p_j (x) q_j) = 1_A", fm, d.p_dual, q, d.q_dual, a),
        ("g(sum q'_m (x) p'_m) = 1_A'", gm, d.qprime_dual, p, d.pprime_dual, aprime),
    )
    for label, pair, xs, y_mod, ys, outer in certificates:
        total = {}
        for x, y in zip(xs, ys):
            vec_add_scaled(field, total, field.one, bilinear(pair, y_mod.dim, x, y))
        report.check(f"dual certificate {label}", total == outer.unit_vec())

    # compatibility relations between f and g, on Y (x) X (x) Y:
    # R_Y(I (x) M) = L_Y(M' (x) I)
    compatibilities = (
        ("q1 f(p1 (x) q2) = g(q1 (x) p1) q2", q, fm, gm, a),
        ("p1 g(q1 (x) p2) = f(p1 (x) q1) p2", p, gm, fm, aprime),
    )
    for label, y_mod, pair, other, outer in compatibilities:
        ok = right_first(y_mod, outer) @ ident(y_mod.dim).kron(pair) == (
            y_mod.left_action @ other.kron(ident(y_mod.dim))
        )
        report.check(f"compatibility {label}", ok)

    # (iii) B-symmetry of P and Q through eta: X(E (x) I) = Y(E' (x) I),
    # E the matrix of eps and E' that of eps' eta
    e, e_prime = d.source.eps.sparse, d.target.eps.sparse @ eta.sparse
    for label, mod, x, y in (
        ("eps(b) p = p eps'(eta(b))", p, p.left_action, p.right_action),
        ("q eps(b) = eps'(eta(b)) q", q, q.right_action, q.left_action),
    ):
        ok = x @ e.kron(ident(mod.dim)) == y @ e_prime.kron(ident(mod.dim))
        report.check(f"(iii) {label}", ok)
    return report


# ---------------------------------------------------------------------------
# chain maps and homotopies


def _sum(terms):
    return functools.reduce(operator.add, terms)


def _paths(start, edges, steps):
    """acc[c]: the sum over the dual-index paths c_0..c_steps that end at
    c of start[c_0] (x) edges[c_0][c_1] (x) ... (x) edges[c_(steps-1)][c].
    Each step extends every path by one slot, acc'[c'] = sum_c acc[c] (x)
    edges[c][c'], so a path sum over t indices costs t^2 Kronecker
    products per slot, not one product per path."""
    acc = start
    for _ in range(steps):
        acc = [_sum(a.kron(row[c]) for a, row in zip(acc, edges)) for c in range(len(edges))]
    return acc


def _transfer(head, slot, b_map, n):
    """Degree-n chain map from per-slot matrices: the sum over dual
    indices j_0..j_n, read cyclically, of head[j_0][j_1] (x)
    slot[j_1][j_2] (x) ... (x) slot[j_n][j_0], then b_map on each b-slot.
    The cycles through j_0 = j are the paths from head[j], closed by
    slot[c][j]; at degree 0 the cycle is head[j][j]."""
    if n < 0:
        raise PreconditionError("negative degree")
    if n == 0:
        total = _sum(head[j][j] for j in range(len(head)))
    else:
        total = _sum(
            _sum(a.kron(row[j]) for a, row in zip(_paths(head[j], slot, n - 1), slot))
            for j in range(len(head))
        )
    return functools.reduce(SparseMatrix.kron, [b_map] * (n * (n - 1) // 2), total)


def _slot_matrices(pair, xs, y_mod, ys):
    """[j][j']: pair @ (x_j (x) L_Y(I (x) y_j')), whose column alpha is
    pair(x_j (x) e_alpha . y_j'); x_j and y_j' are one-column matrices."""
    ident = SparseMatrix.identity(pair.field, y_mod.left_alg_dim)
    acted = [y_mod.left_action @ ident.kron(y) for y in ys]
    return [[pair @ x.kron(y) for y in acted] for x in xs]


def _homotopy_parts(triple, mod, pair, first, second):
    """(triple, head, slot, u) of the homotopies on the complex of (triple,
    mod), from a pairing X (x) Y -> A and dual families first = (x_j, y_j)
    and second = (x'_m, y'_m): with c = (j, m), v_c = pair(x_j (x) y'_m)
    and u_c = pair(x'_m (x) y_j), head[c] = R_M(v_c (x) I) is the matrix
    of mu -> mu v_c and slot[c][c'] = P(P(u_c (x) I) (x) v_c') that of a
    -> u_c a v_c'."""
    a, (xs, ys), (xps, yps) = triple.A, first, second
    duals = list(itertools.product(range(len(xs)), range(len(xps))))
    v = [pair @ xs[j].kron(yps[k]) for j, k in duals]
    u = [pair @ xps[k].kron(ys[j]) for j, k in duals]
    ident_m, ident_a = (SparseMatrix.identity(pair.field, k) for k in (mod.dim, a.dim))
    head = [mod.right_action @ vc.kron(ident_m) for vc in v]
    slot = [
        [a.products @ (a.products @ uc.kron(ident_a)).kron(vc) for vc in v] for uc in u
    ]
    return triple, head, slot, u


def _homotopy(parts, n, i):
    """h_i: C_n -> C_(n+1) from `_homotopy_parts`: the path sum over
    c_0..c_i of H_c0 (x) S_c0c1 (x) ... (x) S_c(i-1)ci (x) u_ci, then I_A
    on a_(i+1)..a_n and `insertion_b_slots` on the b-slots."""
    if not 0 <= i <= n:
        raise PreconditionError("homotopy index out of range")
    triple, head, slot, u = parts
    total = _sum(a.kron(uc) for a, uc in zip(_paths(head, slot, i), u))
    ident_a = SparseMatrix.identity(total.field, triple.A.dim)
    tail = [ident_a] * (n - i) + [insertion_b_slots(triple.B, n, i)]
    return functools.reduce(SparseMatrix.kron, tail, total)


class _ChainMaps:
    """The per-slot matrices of psi, phi, h and l for a context d and a
    module m, each set made once, when first read.  duals holds p_j,
    q_j, p'_m, q'_m as one-column matrices; an empty family reads as one
    zero vector: every term is multilinear in the dual vectors, so each
    sum over dual indices stays nonempty and keeps its value."""

    def __init__(self, d, m):
        self.d, self.m = d, m
        families = (d.p_dual, d.q_dual, d.pprime_dual, d.qprime_dual)
        self.duals = tuple(
            [SparseMatrix(d.field, dim, 1, [v]) for v in family or [{}]]
            for dim, family in zip((d.p_mod.dim, d.q_mod.dim) * 2, families)
        )

    @functools.cached_property
    def induced(self):
        return induced_module(self.d, self.m)

    @functools.cached_property
    def psi_parts(self):
        d, (p_cols, q_cols, _, _) = self.d, self.duals
        ident = SparseMatrix.identity(d.field, self.m.dim)
        head = [[self.induced.project(q.kron(ident).kron(p)) for p in p_cols] for q in q_cols]
        return head, _slot_matrices(d.g_mat, q_cols, d.p_mod, p_cols)

    @functools.cached_property
    def phi_parts(self):
        d, m, (_, _, pp_cols, qp_cols) = self.d, self.m, self.duals
        field, a, fm = d.field, d.source.A, d.f_mat
        ident = functools.partial(SparseMatrix.identity, field)
        # the maps q -> f(p'_m (x) q) and p -> f(p (x) q'_m), and
        # R_M K (L_M (x) I_A): a (x) mu (x) a' -> a.mu.a'
        f_pp = [fm @ x.kron(ident(d.q_mod.dim)) for x in pp_cols]
        f_qp = [fm @ ident(d.p_mod.dim).kron(y) for y in qp_cols]
        act = m.left_action.kron(ident(a.dim))
        act = m.right_action @ commutation(field, m.dim, a.dim) @ act
        lift = self.induced.lift
        heads = [[act @ (x.kron(ident(m.dim)).kron(y) @ lift) for y in f_qp] for x in f_pp]
        return heads, _slot_matrices(fm, pp_cols, d.q_mod, qp_cols)

    @functools.cached_property
    def h_parts(self):
        d, (p, q, pp, qp) = self.d, self.duals
        return _homotopy_parts(d.source, self.m, d.f_mat, (p, q), (pp, qp))

    @functools.cached_property
    def l_parts(self):
        d, (p, q, pp, qp) = self.d, self.duals
        return _homotopy_parts(d.target, self.induced.module, d.g_mat, (qp, pp), (q, p))


def psi_chain_map(d, m, n, *, maps=None):
    """Matrix of psi_n from the source complex into the target complex
    with induced coefficients: q_j0 (x) mu (x) p_j1 in the module slot,
    g(q_ji (x) a_i p_j(i+1)) in A'-slot i, eta on the b-slots.  `maps` is
    the `_ChainMaps` of d and m when the caller already has it."""
    return _transfer(*(maps or _ChainMaps(d, m)).psi_parts, d.eta.sparse, n)


def phi_chain_map(d, m, n, *, maps=None):
    """Matrix of phi_n from the target complex back to the source:
    f(p'_m0 (x) q) mu f(p (x) q'_m1) for a lifted q (x) mu (x) p in the
    module slot, f(p'_mi (x) a_i q'_m(i+1)) in A-slot i, eta^-1 on the
    b-slots; `maps` as in `psi_chain_map`."""
    return _transfer(*(maps or _ChainMaps(d, m)).phi_parts, d.eta_inverse.sparse, n)


def homotopy_h(d, m, n, i, *, maps=None):
    """Matrix of h_i: C_n -> C_(n+1) on the source complex; `maps` as in
    `psi_chain_map`."""
    return _homotopy((maps or _ChainMaps(d, m)).h_parts, n, i)


def homotopy_l(d, m, n, i, *, maps=None):
    """Matrix of l_i: C_n -> C_(n+1) on the target complex: h_i for the
    target triple, the induced module and g, with the duals swapped;
    `maps` as in `psi_chain_map`."""
    return _homotopy((maps or _ChainMaps(d, m)).l_parts, n, i)


def alternating_homotopy(parts):
    """H = sum (-1)^i h_i from the per-index matrices."""
    total = parts[0]
    field = total.field
    sign = field.one
    for part in parts[1:]:
        sign = field.neg(sign)
        total = total + part.scale(sign)
    return total


# ---------------------------------------------------------------------------
# the invariance report


def verify_morita_invariance(d, m, max_n, guard_bytes=DEFAULT_GUARD_BYTES):
    """Check homology dims on both sides, the chain-map identities for
    psi/phi, and the homotopy identities for h/l, up to degree max_n."""
    if max_n < 0:
        raise PreconditionError("negative degree")
    report = Report("morita invariance")
    maps = _ChainMaps(d, m)
    src_complex, tgt_complex = built = [
        build_secondary_complex(side, mod, max_n + 1, guard_bytes=guard_bytes)
        for side, mod in ((d.source, m), (d.target, maps.induced.module))
    ]
    dims_src, dims_tgt = (
        [homology(cx, k).dim for k in range(max_n + 1)] for cx in built
    )
    report.check(
        "homology dims agree",
        dims_src == dims_tgt,
        f"source {dims_src}, target {dims_tgt}",
    )
    psis = [psi_chain_map(d, m, k, maps=maps) for k in range(max_n + 1)]
    phis = [phi_chain_map(d, m, k, maps=maps) for k in range(max_n + 1)]
    # per side: name, homotopy identity, its complex, the other complex,
    # the maps out of and back into its complex, and its homotopies
    sides = (
        ("psi", "dH + Hd = id - phi.psi", src_complex, tgt_complex, psis, phis,
         lambda k, i: homotopy_h(d, m, k, i, maps=maps)),
        ("phi", "dL + Ld = id - psi.phi", tgt_complex, src_complex, phis, psis,
         lambda k, i: homotopy_l(d, m, k, i, maps=maps)),
    )
    for k in range(1, max_n + 1):
        for name, _, cx, other, out, _, _ in sides:
            ok = out[k - 1] @ cx.boundary(k) == other.boundary(k) @ out[k]
            report.check(f"{name} chain map at degree {k}", ok)
    prev = {}
    for k in range(max_n):
        for name, label, cx, _, out, back, part in sides:
            homotopy = alternating_homotopy([part(k, i) for i in range(k + 1)])
            lhs = cx.boundary(k + 1) @ homotopy
            if name in prev:
                lhs = lhs + prev[name] @ cx.boundary(k)
            ident = SparseMatrix.identity(d.field, cx.dims[k])
            ok = lhs == ident - back[k] @ out[k]
            report.check(f"homotopy {label} at degree {k}", ok)
            prev[name] = homotopy
    report.info("source dims", str(list(src_complex.dims)))
    report.info("target dims", str(list(tgt_complex.dims)))
    return report
