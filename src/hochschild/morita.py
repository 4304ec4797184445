"""Morita equivalence of triples: data, validation, induced coefficients,
and the explicit chain maps with their presimplicial homotopies.

A Morita context between (A, B, eps) and (A', B', eps') consists of an
A-A' bimodule P, an A'-A bimodule Q, bimodule isomorphisms
f: P (x)_A' Q -> A and g: Q (x)_A P -> A', an algebra isomorphism
eta: B -> B', and the symmetry condition eps(b) p = p eps'(eta(b)),
q eps(b) = eps'(eta(b)) q.  f and g are stored as matrices on the
unquotiented tensor spaces; well-definedness (killing the tensor-over-
algebra relations) is part of validation.

Dual-basis certificates {p_j},{q_j} with f(sum p_j (x) q_j) = 1_A and
{p'_m},{q'_m} with g(sum q'_m (x) p'_m) = 1_A' drive the chain maps
psi/phi and the homotopies h/l.  The homotopy orientation is pinned:
with H = sum (-1)^i h_i, one has dH + Hd = id - phi.psi (and likewise
id - psi.phi on the primed side).

Two primitives carry the constructions.  `BalancedTensor` is the tensor
product of bimodules over algebras with its outer actions: P (x)_A' Q,
the induced coefficients Q (x)_A M (x)_A P, and the modules of a
composed context.  Each chain map and homotopy is a head table and
per-slot tables, built once per call from f, g and the dual bases and
expanded column by column through `complexes.expand_slots`; psi and phi
are one routine on the two sides, and l is h on the target side.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import prod

from .algebra import (
    AlgebraMorphism,
    Bimodule,
    Triple,
    action_tensor,
    corner_triple,
    matrix_triple,
    morphism_defects,
    regular_bimodule,
)
from .complexes import (
    build_secondary_complex,
    expand_slots,
    homology,
    pair_layout,
    secondary_scheme,
)
from .errors import PreconditionError
from .linalg import (
    QuotientSpace,
    SparseMatrix,
    Subspace,
    bilinear,
    rank,
    solve,
    vec_add_scaled,
)
from .report import Report


def _freeze_vec(vec, dim, field):
    return tuple(vec.get(i, field.zero) for i in range(dim))


def _vec(tup, field):
    return {i: v for i, v in enumerate(tup) if v != field.zero}


def _bilinear_matrix(field, rows, x_dim, y_dim, pair):
    """Dense rows of the matrix whose column x * y_dim + y is pair(x, y)."""
    mat = [[field.zero] * (x_dim * y_dim) for _ in range(rows)]
    for x in range(x_dim):
        for y in range(y_dim):
            for k, c in pair(x, y).items():
                mat[k][x * y_dim + y] = c
    return tuple(tuple(r) for r in mat)


@dataclass(frozen=True)
class MoritaData:
    source: Triple
    target: Triple
    p_mod: Bimodule  # left A, right A'
    q_mod: Bimodule  # left A', right A
    f_mat: tuple  # dim A  x  (dim P * dim Q), column p*dimQ + q
    g_mat: tuple  # dim A' x  (dim Q * dim P), column q*dimP + p
    eta: AlgebraMorphism
    p_dual: tuple  # s vectors in P
    q_dual: tuple  # s vectors in Q
    pprime_dual: tuple  # t vectors in P
    qprime_dual: tuple  # t vectors in Q

    @property
    def field(self):
        return self.source.A.field

    @property
    def s(self):
        return len(self.p_dual)

    @property
    def t(self):
        return len(self.pprime_dual)

    @functools.cached_property
    def pairing_matrices(self):
        """f and g as sparse matrices on the plain tensor products."""
        cols = self.p_mod.dim * self.q_mod.dim
        return tuple(
            SparseMatrix.from_columns(
                self.field, len(mat), [[row[c] for row in mat] for c in range(cols)]
            )
            for mat in (self.f_mat, self.g_mat)
        )

    def pairings(self):
        """f on P (x) Q and g on Q (x) P, as functions of two sparse vectors."""
        f, g = self.pairing_matrices
        return (
            functools.partial(bilinear, f, self.q_mod.dim),
            functools.partial(bilinear, g, self.p_mod.dim),
        )

    def dual_vecs(self):
        """The families p_j, q_j, p'_m, q'_m as lists of sparse vectors."""
        field = self.field
        return tuple(
            [_vec(v, field) for v in family]
            for family in (self.p_dual, self.q_dual, self.pprime_dual, self.qprime_dual)
        )

    def over(self, field):
        conv = field.from_rational

        def conv2(mat):
            return tuple(tuple(conv(v) for v in row) for row in mat)

        def conv_vecs(vecs):
            return tuple(tuple(conv(v) for v in vec) for vec in vecs)

        return MoritaData(
            self.source.over(field),
            self.target.over(field),
            self.p_mod.over(field),
            self.q_mod.over(field),
            conv2(self.f_mat),
            conv2(self.g_mat),
            self.eta.over(field),
            conv_vecs(self.p_dual),
            conv_vecs(self.q_dual),
            conv_vecs(self.pprime_dual),
            conv_vecs(self.qprime_dual),
        )


# ---------------------------------------------------------------------------
# tensor products over algebras


class BalancedTensor:
    """X_1 (x)_(A_1) X_2 (x)_(A_2) ... (x)_(A_(k-1)) X_k for bimodules X_i.

    The plain tensor product is indexed mixed-radix with X_1 most
    significant.  The quotient is by the balancing relations
    x.a (x) y - x (x) a.y between neighbouring factors (a a basis element
    of the algebra between them, every other factor a basis vector); its
    canonical RREF fixes the quotient basis.  `module` is the outer
    bimodule: the left action on the first factor, the right action on
    the last.
    """

    def __init__(self, factors, algebras):
        field = factors[0].field
        minus_one = field.neg(field.one)
        self.field = field
        self.dims = dims = tuple(x.dim for x in factors)
        self.strides = tuple(prod(dims[pos + 1 :]) for pos in range(len(dims)))
        ambient = prod(dims)
        relations = []
        for pos, alg in enumerate(algebras):
            left, right = factors[pos], factors[pos + 1]
            for k in range(alg.dim):
                xa = [left.act_right_basis(k, x) for x in range(dims[pos])]
                ay = [right.act_left_basis(k, y) for y in range(dims[pos + 1])]
                for flat in range(ambient):
                    rel = self._replace(flat, pos, xa[self._digit(flat, pos)])
                    moved = ay[self._digit(flat, pos + 1)]
                    vec_add_scaled(
                        field, rel, minus_one, self._replace(flat, pos + 1, moved)
                    )
                    if rel:
                        relations.append(rel)
        self.quotient = QuotientSpace(Subspace.span(field, ambient, relations))
        first, last = factors[0], factors[-1]
        self.module = Bimodule(
            field,
            self.dim,
            action_tensor(
                field,
                first.left_alg_dim,
                self.dim,
                lambda i, b: self._act(0, first.act_left_basis, i, b),
            ),
            action_tensor(
                field,
                last.right_alg_dim,
                self.dim,
                lambda i, b: self._act(len(dims) - 1, last.act_right_basis, i, b),
            ),
        )

    @property
    def dim(self):
        return self.quotient.dim

    def _digit(self, flat, pos):
        return flat // self.strides[pos] % self.dims[pos]

    def _replace(self, flat, pos, vec):
        """Ambient vector: basis tensor `flat` with factor pos replaced by vec."""
        stride = self.strides[pos]
        base = flat - self._digit(flat, pos) * stride
        return {base + k * stride: c for k, c in vec.items()}

    def _act(self, pos, action, i, b):
        """Class of basis class b acted on at factor pos by action(i, .);
        the lift of a basis class is a single basis tensor."""
        flat = self.quotient.free[b]
        moved = action(i, self._digit(flat, pos))
        return self.quotient.project(self._replace(flat, pos, moved))

    def embed(self, *vecs):
        """Class of vecs[0] (x) vecs[1] (x) ..., one sparse vector per factor."""
        field = self.field
        amb = {}
        for combo in itertools.product(*(v.items() for v in vecs)):
            flat, coeff = 0, field.one
            for (k, c), stride in zip(combo, self.strides):
                flat += k * stride
                coeff = field.mul(coeff, c)
            amb[flat] = coeff
        return self.quotient.project(amb)

    def lift_terms(self, vec):
        """Ambient representative of a class, as (factor indices, coeff) pairs."""
        return [
            (tuple(self._digit(flat, pos) for pos in range(len(self.dims))), c)
            for flat, c in self.quotient.lift(vec).items()
        ]


def tensor_over_algebra(x_mod, y_mod, a):
    """x (x)_a y as a BalancedTensor (dim, embed, lift_terms, module)."""
    return BalancedTensor((x_mod, y_mod), (a,))


def induced_module(d, m):
    """Q (x)_A M (x)_A P as a BalancedTensor: `module` is the induced
    A'-bimodule and embed(q, m, p) the class of q (x) m (x) p."""
    a = d.source.A
    return BalancedTensor((d.q_mod, m, d.p_mod), (a, a))


def induced_coefficients(d, m):
    """The coefficient bimodule Q (x)_A M (x)_A P over the target triple."""
    return induced_module(d, m).module


# ---------------------------------------------------------------------------
# constructions


def identity_morita(t):
    """The reflexive context: P = Q = A, f = g = multiplication."""
    a = t.A
    field = a.field
    da = a.dim
    mult = _bilinear_matrix(
        field, da, da, da, lambda i, j: a.mul(a.basis_vec(i), a.basis_vec(j))
    )
    unit = _freeze_vec(a.unit_vec(), da, field)
    reg = regular_bimodule(a)
    return MoritaData(
        source=t,
        target=t,
        p_mod=reg,
        q_mod=reg,
        f_mat=mult,
        g_mat=mult,
        eta=AlgebraMorphism.identity(t.B),
        p_dual=(unit,),
        q_dual=(unit,),
        pprime_dual=(unit,),
        qprime_dual=(unit,),
    )


def standard_matrix_morita(t, n):
    """Context between t and its n-by-n matrix triple.

    P is the row space A^n (basis (slot, A-basis), index c*dimA + u), Q
    the column space; f multiplies a row into a column, g a column into
    a row.  The f-certificate uses the single pair (unit row at slot 0,
    unit column at slot 0); the g-certificate is the n standard pairs
    summing to the identity matrix.
    """
    if n < 1:
        raise PreconditionError("matrix context needs n >= 1")
    target, _ = matrix_triple(t, n)
    a = t.A
    field = a.field
    da = a.dim
    dp = n * da  # rows and columns alike
    dbig = target.A.dim

    def mul(u, v):
        return a.mul(a.basis_vec(u), a.basis_vec(v))

    def at_slot(slot, vec):
        return {slot * da + k: c for k, c in vec.items()}

    def split(big):  # M_n(A) basis index -> (row, column, A-basis)
        rc, u = divmod(big, da)
        return (*divmod(rc, n), u)

    def p_right(big, b):
        r, c, v = split(big)
        return at_slot(c, mul(b % da, v)) if b // da == r else {}

    def q_left(big, b):
        r, c, v = split(big)
        return at_slot(r, mul(v, b % da)) if b // da == c else {}

    def p_left(i, b):
        return at_slot(b // da, mul(i, b % da))

    def q_right(i, b):
        return at_slot(b // da, mul(b % da, i))

    def module(left_count, left, right_count, right):
        return Bimodule(
            field,
            dp,
            action_tensor(field, left_count, dp, left),
            action_tensor(field, right_count, dp, right),
        )

    p_mod = module(da, p_left, dbig, p_right)
    q_mod = module(dbig, q_left, da, q_right)
    f_mat = _bilinear_matrix(
        field,
        da,
        dp,
        dp,
        lambda x, y: mul(x % da, y % da) if x // da == y // da else {},
    )
    g_mat = _bilinear_matrix(
        field,
        dbig,
        dp,
        dp,
        lambda x, y: {
            (x // da * n + y // da) * da + k: c
            for k, c in mul(x % da, y % da).items()
        },
    )
    units = tuple(_freeze_vec(at_slot(c, a.unit_vec()), dp, field) for c in range(n))
    return MoritaData(
        source=t,
        target=target,
        p_mod=p_mod,
        q_mod=q_mod,
        f_mat=f_mat,
        g_mat=g_mat,
        eta=AlgebraMorphism.identity(t.B),
        p_dual=units[:1],
        q_dual=units[:1],
        pprime_dual=units,
        qprime_dual=units,
    )


def corner_morita(t, e):
    """Context between t and its corner triple at a full idempotent e,
    with P = Ae, Q = eA and dual bases found by a linear solve."""
    target = corner_triple(t, e)
    a = t.A
    field = a.field
    zero = field.zero
    basis = [a.basis_vec(i) for i in range(a.dim)]
    p_space = Subspace.span(field, a.dim, [a.mul(x, e) for x in basis])
    q_space = Subspace.span(field, a.dim, [a.mul(e, x) for x in basis])
    corner = Subspace.span(field, a.dim, [a.mul(a.mul(e, x), e) for x in basis])
    pb, qb, cb = p_space.basis, q_space.basis, corner.basis
    dp, dq, dc = p_space.dim, q_space.dim, corner.dim

    def coords(space, name, vec):
        c = space.coordinates(vec)
        if c is None:
            raise PreconditionError(f"element left {name}")
        return dict(enumerate(c))

    def action(space, name, count, product):
        return action_tensor(
            field, count, space.dim, lambda i, j: coords(space, name, product(i, j))
        )

    # P = Ae: left action of A, right action of eAe; Q = eA the other way
    p_mod = Bimodule(
        field,
        dp,
        action(p_space, "Ae", a.dim, lambda i, j: a.mul(basis[i], pb[j])),
        action(p_space, "Ae", dc, lambda i, j: a.mul(pb[j], cb[i])),
    )
    q_mod = Bimodule(
        field,
        dq,
        action(q_space, "eA", dc, lambda i, j: a.mul(cb[i], qb[j])),
        action(q_space, "eA", a.dim, lambda i, j: a.mul(qb[j], basis[i])),
    )
    f_mat = _bilinear_matrix(field, a.dim, dp, dq, lambda j, l: a.mul(pb[j], qb[l]))
    g_mat = _bilinear_matrix(
        field, dc, dq, dp, lambda l, j: coords(corner, "eAe", a.mul(qb[l], pb[j]))
    )

    # dual basis for f: write 1_A = sum_j rho_j * w_j, rho_j the P basis
    x = solve(SparseMatrix.from_dense(field, f_mat), a.unit_vec())
    if x is None:
        raise PreconditionError("AeA != A: dual-basis solve infeasible")
    w = [[zero] * dq for _ in range(dp)]
    for col, cv in x.items():
        w[col // dq][col % dq] = cv
    p_dual = []
    q_dual = []
    for j in range(dp):
        if any(v != zero for v in w[j]):
            p_dual.append(_freeze_vec({j: field.one}, dp, field))
            q_dual.append(tuple(w[j]))
    return MoritaData(
        source=t,
        target=target,
        p_mod=p_mod,
        q_mod=q_mod,
        f_mat=f_mat,
        g_mat=g_mat,
        eta=AlgebraMorphism.identity(t.B),
        p_dual=tuple(p_dual),
        q_dual=tuple(q_dual),
        pprime_dual=(tuple(coords(p_space, "Ae", e).values()),),
        qprime_dual=(tuple(coords(q_space, "eA", e).values()),),
    )


def compose_morita(d1, d2):
    """Transitive composition: P = P1 (x)_A' P2, Q = Q2 (x)_A' Q1,
    eta = eta2 . eta1, dual bases the pairwise tensors."""
    if d1.target != d2.source:
        raise PreconditionError("contexts do not share the middle triple")
    field = d1.field
    one = field.one
    aprime = d1.target.A
    p_t = BalancedTensor((d1.p_mod, d2.p_mod), (aprime,))
    q_t = BalancedTensor((d2.q_mod, d1.q_mod), (aprime,))
    f1, g1 = d1.pairings()
    f2, g2 = d2.pairings()

    def f_of(pb, qb):  # f1(p1 (x) f2(p2 (x) q2) q1)
        out = {}
        for (i1, i2), cp in p_t.lift_terms({pb: one}):
            for (j2, j1), cq in q_t.lift_terms({qb: one}):
                mid = f2({i2: one}, {j2: one})
                inner = f1({i1: one}, d1.q_mod.act_left(mid, {j1: one}))
                vec_add_scaled(field, out, field.mul(cp, cq), inner)
        return out

    def g_of(qb, pb):  # g2(q2 (x) g1(q1 (x) p1) p2)
        out = {}
        for (j2, j1), cq in q_t.lift_terms({qb: one}):
            for (i1, i2), cp in p_t.lift_terms({pb: one}):
                mid = g1({j1: one}, {i1: one})
                inner = g2({j2: one}, d2.p_mod.act_left(mid, {i2: one}))
                vec_add_scaled(field, out, field.mul(cq, cp), inner)
        return out

    p1, q1, pp1, qp1 = d1.dual_vecs()
    p2, q2, pp2, qp2 = d2.dual_vecs()

    def frozen(tensor, pairs):
        return tuple(_freeze_vec(tensor.embed(x, y), tensor.dim, field) for x, y in pairs)

    return MoritaData(
        source=d1.source,
        target=d2.target,
        p_mod=p_t.module,
        q_mod=q_t.module,
        f_mat=_bilinear_matrix(field, d1.source.A.dim, p_t.dim, q_t.dim, f_of),
        g_mat=_bilinear_matrix(field, d2.target.A.dim, q_t.dim, p_t.dim, g_of),
        eta=d2.eta.compose(d1.eta),
        p_dual=frozen(p_t, [(x, y) for x in p1 for y in p2]),
        q_dual=frozen(q_t, [(y, x) for x in q1 for y in q2]),
        pprime_dual=frozen(p_t, [(x, y) for y in pp2 for x in pp1]),
        qprime_dual=frozen(q_t, [(y, x) for y in qp2 for x in qp1]),
    )


# ---------------------------------------------------------------------------
# validation


def validate_morita(d):
    report = Report("morita context")
    field = d.field
    a, aprime = d.source.A, d.target.A
    p, q = d.p_mod, d.q_mod
    one = field.one
    f, g = d.pairings()

    # (ii) eta is an isomorphism of algebras B -> B'
    b, bprime = d.source.B, d.target.B
    eta = d.eta
    ok_eta_unit, bad_eta_pairs = morphism_defects(eta)
    ok_eta_bij = False
    if b.dim == bprime.dim:
        try:
            eta.inverse()
            ok_eta_bij = True
        except PreconditionError:
            ok_eta_bij = False
    report.check("(ii) eta unital", ok_eta_unit)
    report.check("(ii) eta multiplicative", not bad_eta_pairs)
    report.check("(ii) eta bijective", ok_eta_bij)

    # each pairing X (x) Y -> outer: f on P (x)_A' Q -> A, g on Q (x)_A P -> A'
    sides = (
        ("f", "P(x)Q", "A", "A'", p, q, f, a, aprime),
        ("g", "Q(x)P", "A'", "A", q, p, g, aprime, a),
    )

    # the pairings kill the balancing relations and are bimodule maps
    for name, _, _, inner_name, x_mod, y_mod, pair, _, inner in sides:
        ok = all(
            pair(x_mod.act_right({xi: one}, inner.basis_vec(k)), {yi: one})
            == pair({xi: one}, y_mod.act_left(inner.basis_vec(k), {yi: one}))
            for xi in range(x_mod.dim)
            for k in range(inner.dim)
            for yi in range(y_mod.dim)
        )
        report.check(f"(i) {name} balanced over {inner_name}", ok)
    for name, _, outer_name, _, x_mod, y_mod, pair, outer, _ in sides:
        ok = all(
            pair(x_mod.act_left(outer.basis_vec(k), {xi: one}), {yi: one})
            == outer.mul(outer.basis_vec(k), pair({xi: one}, {yi: one}))
            and pair({xi: one}, y_mod.act_right({yi: one}, outer.basis_vec(k)))
            == outer.mul(pair({xi: one}, {yi: one}), outer.basis_vec(k))
            for xi in range(x_mod.dim)
            for yi in range(y_mod.dim)
            for k in range(outer.dim)
        )
        report.check(f"(i) {name} is an {outer_name}-bimodule map", ok)

    # bijectivity through the quotients
    for name, tensor_name, outer_name, _, x_mod, y_mod, pair, outer, inner in sides:
        tensor = tensor_over_algebra(x_mod, y_mod, inner)
        cols = []
        for nb in range(tensor.dim):
            out = {}
            for (xi, yi), c in tensor.lift_terms({nb: one}):
                vec_add_scaled(field, out, c, pair({xi: one}, {yi: one}))
            cols.append(out)
        r = rank(SparseMatrix(field, outer.dim, tensor.dim, cols))
        report.check(
            f"(i) {name} bijective",
            tensor.dim == outer.dim and r == outer.dim,
            f"dim {tensor_name} = {tensor.dim}, dim {outer_name} = {outer.dim}, "
            f"rank {name} = {r}",
        )

    # dual-basis certificates
    p_vecs, q_vecs, pp_vecs, qp_vecs = d.dual_vecs()
    certificates = (
        ("f(sum p_j (x) q_j) = 1_A", f, p_vecs, q_vecs, a),
        ("g(sum q'_m (x) p'_m) = 1_A'", g, qp_vecs, pp_vecs, aprime),
    )
    for label, pair, xs, ys, outer in certificates:
        total = {}
        for x, y in zip(xs, ys):
            vec_add_scaled(field, total, one, pair(x, y))
        report.check(f"dual certificate {label}", total == outer.unit_vec())

    # compatibility relations between f and g
    compatibilities = (
        ("q1 f(p1 (x) q2) = g(q1 (x) p1) q2", p, q, f, g),
        ("p1 g(q1 (x) p2) = f(p1 (x) q1) p2", q, p, g, f),
    )
    for label, x_mod, y_mod, pair, other in compatibilities:
        ok = all(
            y_mod.act_right({y1: one}, pair({x1: one}, {y2: one}))
            == y_mod.act_left(other({y1: one}, {x1: one}), {y2: one})
            for y1 in range(y_mod.dim)
            for x1 in range(x_mod.dim)
            for y2 in range(y_mod.dim)
        )
        report.check(f"compatibility {label}", ok)

    # (iii) B-symmetry of P and Q through eta
    eps, epsp = d.source.eps, d.target.eps
    ok_iii_p = all(
        p.act_left(eps.apply_basis(j), {pi: one})
        == p.act_right({pi: one}, epsp.apply(eta.apply_basis(j)))
        for j in range(b.dim)
        for pi in range(p.dim)
    )
    ok_iii_q = all(
        q.act_right({qi: one}, eps.apply_basis(j))
        == q.act_left(epsp.apply(eta.apply_basis(j)), {qi: one})
        for j in range(b.dim)
        for qi in range(q.dim)
    )
    report.check("(iii) eps(b) p = p eps'(eta(b))", ok_iii_p)
    report.check("(iii) q eps(b) = eps'(eta(b)) q", ok_iii_q)
    return report


# ---------------------------------------------------------------------------
# chain maps and homotopies


def _slot_table(pair, xs, y_mod, ys, alg):
    """[alpha][j][j']: pair(x_j (x) e_alpha . y_j')."""
    return [
        [[pair(x, y_mod.act_left(alg.basis_vec(al), y)) for y in ys] for x in xs]
        for al in range(alg.dim)
    ]


def _transfer(field, src, tgt, count, head, slot, b_images):
    """Chain map src -> tgt from its tables.  The column of
    (x; a_1..a_n; b) sums, over dual indices j_0..j_n in range(count)
    read cyclically, the expansion of head[x][j_0][j_1] (x)
    slot[a_1][j_1][j_2] (x) ... (x) slot[a_n][j_n][j_0] (x) the b_images
    of the b-slots."""
    n = src.degree
    strides = tgt.strides
    cols = []
    for d in src.digits():
        x, alphas = d[0], d[1 : n + 1]
        tail = [b_images[b] for b in d[n + 1 :]]
        col = {}
        for jj in itertools.product(range(count), repeat=n + 1):
            nxt = jj[1:] + jj[:1]
            slots = [head[x][jj[0]][nxt[0]]]
            slots += [slot[al][jj[i]][nxt[i]] for i, al in enumerate(alphas, 1)]
            expand_slots(field, col, 0, slots + tail, strides)
        cols.append(col)
    return SparseMatrix(field, tgt.total, src.total, cols)


def psi_chain_map(d, m, n, *, induced=None):
    """Matrix of psi_n from the source complex into the target complex
    with induced coefficients: q_j0 (x) mu (x) p_j1 in the module slot,
    g(q_ji (x) a_i p_j(i+1)) in A'-slot i, eta on the b-slots.  `induced`
    is induced_module(d, m) when the caller already has it."""
    if n < 0:
        raise PreconditionError("negative degree")
    ind = induced_module(d, m) if induced is None else induced
    one = d.field.one
    _, g = d.pairings()
    p_vecs, q_vecs, _, _ = d.dual_vecs()
    head = [
        [[ind.embed(q, {mu: one}, p) for p in p_vecs] for q in q_vecs]
        for mu in range(m.dim)
    ]
    return _transfer(
        d.field,
        secondary_scheme(d.source, m, n),
        secondary_scheme(d.target, ind.module, n),
        d.s,
        head,
        _slot_table(g, q_vecs, d.p_mod, p_vecs, d.source.A),
        [d.eta.apply_basis(b) for b in range(d.source.B.dim)],
    )


def phi_chain_map(d, m, n, *, induced=None):
    """Matrix of phi_n from the target complex back to the source:
    f(p'_m0 (x) q) mu f(p (x) q'_m1) for a lifted q (x) mu (x) p in the
    module slot, f(p'_mi (x) a_i q'_m(i+1)) in A-slot i, eta^-1 on the
    b-slots."""
    if n < 0:
        raise PreconditionError("negative degree")
    ind = induced_module(d, m) if induced is None else induced
    field = d.field
    one = field.one
    f, _ = d.pairings()
    _, _, pp_vecs, qp_vecs = d.dual_vecs()

    def head(nu, pp, qp):
        out = {}
        for (qi, mi, pi), c in ind.lift_terms({nu: one}):
            moved = m.act_left(f(pp, {qi: one}), {mi: one})
            vec_add_scaled(field, out, c, m.act_right(moved, f({pi: one}, qp)))
        return out

    eta_inv = d.eta.inverse()
    return _transfer(
        field,
        secondary_scheme(d.target, ind.module, n),
        secondary_scheme(d.source, m, n),
        d.t,
        [[[head(nu, pp, qp) for qp in qp_vecs] for pp in pp_vecs] for nu in range(ind.dim)],
        _slot_table(f, pp_vecs, d.q_mod, qp_vecs, d.target.A),
        [eta_inv.apply_basis(b) for b in range(d.target.B.dim)],
    )


def _homotopy(field, triple, mod, pair, first, second, n, i):
    """h_i: C_n -> C_(n+1) on the complex of (triple, mod), from a pairing
    X (x) Y -> A and two dual families first = (x_j, y_j), second =
    (x'_m, y'_m).  With c = (j, m), v_c = pair(x_j (x) y'_m) and
    u_c = pair(x'_m (x) y_j), the column of (mu; a_1..a_n; b) sums over
    c_0..c_i the expansion of mu v_c0 (x) u_c0 a_1 v_c1 (x) ... (x)
    u_c(i-1) a_i v_ci (x) u_ci (x) a_(i+1) (x) ... (x) a_n, with units of
    B inserted into the b-slots."""
    if not 0 <= i <= n:
        raise PreconditionError("homotopy index out of range")
    one = field.one
    a = triple.A
    src = secondary_scheme(triple, mod, n)
    tgt = secondary_scheme(triple, mod, n + 1)
    (xs, ys), (xps, yps) = first, second
    duals = list(itertools.product(range(len(xs)), range(len(xps))))
    v = [pair(xs[j], yps[k]) for j, k in duals]
    u = [pair(xps[k], ys[j]) for j, k in duals]
    head = [[mod.act_right({mu: one}, vc) for vc in v] for mu in range(mod.dim)]
    slot = [
        [[a.mul(a.mul(uc, {al: one}), vc) for vc in v] for uc in u]
        for al in range(a.dim)
    ]
    # a_(i+1)..a_n move up one place and the b-slots follow the insertion
    # of a unit at position i+1; copied digits enter as a base offset
    strides = tgt.strides
    sources = [[k] for k in range(1, i + 1)] + [[]]
    sources += [[k] for k in range(i + 1, n + 1)]
    layout = list(enumerate(pair_layout(sources, n), n + 2))
    copies = [(k, strides[k + 1]) for k in range(i + 1, n + 1)]
    copies += [(n + 1 + ps[0], strides[s]) for s, ps in layout if ps]
    unit_strides = [strides[s] for s, ps in layout if not ps]
    units = [triple.B.unit_vec()] * len(unit_strides)
    slot_strides = strides[: i + 2] + unit_strides
    cols = []
    for d in src.digits():
        mu, alphas = d[0], d[1 : i + 1]
        base = sum([d[p] * s for p, s in copies])
        col = {}
        for cc in itertools.product(range(len(duals)), repeat=i + 1):
            slots = [head[mu][cc[0]]]
            slots += [slot[al][c0][c1] for al, c0, c1 in zip(alphas, cc, cc[1:])]
            expand_slots(field, col, base, slots + [u[cc[-1]]] + units, slot_strides)
        cols.append(col)
    return SparseMatrix(field, tgt.total, src.total, cols)


def homotopy_h(d, m, n, i):
    """Matrix of h_i: C_n -> C_(n+1) on the source complex."""
    f, _ = d.pairings()
    p_vecs, q_vecs, pp_vecs, qp_vecs = d.dual_vecs()
    return _homotopy(d.field, d.source, m, f, (p_vecs, q_vecs), (pp_vecs, qp_vecs), n, i)


def homotopy_l(d, m, n, i, *, induced=None):
    """Matrix of l_i: C_n -> C_(n+1) on the target complex: h_i for the
    target triple, the induced module and g, with the duals swapped."""
    ind = induced_module(d, m) if induced is None else induced
    _, g = d.pairings()
    p_vecs, q_vecs, pp_vecs, qp_vecs = d.dual_vecs()
    return _homotopy(
        d.field, d.target, ind.module, g, (qp_vecs, pp_vecs), (q_vecs, p_vecs), n, i
    )


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


def verify_morita_invariance(d, m, max_n, field=None, guard_bytes=None, deadline=None):
    """Check homology dims on both sides, the chain-map identities for
    psi/phi, and the homotopy identities for h/l, up to degree max_n."""
    if field is not None and field != d.field:
        d = d.over(field)
        m = m.over(field)
    report = Report("morita invariance")
    kwargs = {}
    if guard_bytes is not None:
        kwargs["guard_bytes"] = guard_bytes
    ind = induced_module(d, m)
    src_complex = build_secondary_complex(d.source, m, max_n + 1, **kwargs)
    tgt_complex = build_secondary_complex(d.target, ind.module, max_n + 1, **kwargs)
    dims_src = [
        homology(src_complex, k, deadline=deadline).dim for k in range(max_n + 1)
    ]
    dims_tgt = [
        homology(tgt_complex, k, deadline=deadline).dim for k in range(max_n + 1)
    ]
    report.check(
        "homology dims agree",
        dims_src == dims_tgt,
        f"source {dims_src}, target {dims_tgt}",
    )
    psis = [psi_chain_map(d, m, k, induced=ind) for k in range(max_n + 1)]
    phis = [phi_chain_map(d, m, k, induced=ind) for k in range(max_n + 1)]
    for k in range(1, max_n + 1):
        lhs = psis[k - 1] @ src_complex.boundary(k)
        rhs = tgt_complex.boundary(k) @ psis[k]
        report.check(f"psi chain map at degree {k}", lhs == rhs)
        lhs = phis[k - 1] @ tgt_complex.boundary(k)
        rhs = src_complex.boundary(k) @ phis[k]
        report.check(f"phi chain map at degree {k}", lhs == rhs)
    h_prev = l_prev = None
    for k in range(max_n):
        ident = SparseMatrix.identity(d.field, src_complex.dims[k])
        target_diff = ident - phis[k] @ psis[k]
        h_k = alternating_homotopy([homotopy_h(d, m, k, i) for i in range(k + 1)])
        lhs = src_complex.boundary(k + 1) @ h_k
        if h_prev is not None:
            lhs = lhs + h_prev @ src_complex.boundary(k)
        report.check(
            f"homotopy dH + Hd = id - phi.psi at degree {k}", lhs == target_diff
        )
        identp = SparseMatrix.identity(d.field, tgt_complex.dims[k])
        target_diff_p = identp - psis[k] @ phis[k]
        l_k = alternating_homotopy(
            [homotopy_l(d, m, k, i, induced=ind) for i in range(k + 1)]
        )
        lhsp = tgt_complex.boundary(k + 1) @ l_k
        if l_prev is not None:
            lhsp = lhsp + l_prev @ tgt_complex.boundary(k)
        report.check(
            f"homotopy dL + Ld = id - psi.phi at degree {k}", lhsp == target_diff_p
        )
        h_prev, l_prev = h_k, l_k
    report.info("source dims", str(list(src_complex.dims)))
    report.info("target dims", str(list(tgt_complex.dims)))
    return report
