"""Hochschild chain complexes, classical and secondary, over a triple.

Degree-n secondary chains are tuples (mu; a_1..a_n; b_(1,2)..b_(n-1,n))
with the b-slots ordered lexicographically by pair (i, j), i < j; the
linear index is mixed-radix with mu most significant.  The classical
complex is the same scheme with no b-slots.

Boundary faces multiply through structure constants in stages: b-column
products first, then the morphism into A, then A- and module-products.
boundary-squared is verified exactly at build time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import sparse_products
from .errors import (
    ComplexInconsistencyError,
    PreconditionError,
    SizeGuardError,
)
from .linalg import (
    HomologyBasis,
    SparseMatrix,
    image_basis,
    kernel_basis,
    rank,
)

DEFAULT_DEGREE_CAP = 4
DEFAULT_GUARD_BYTES = 1 << 30
_ENTRY_BYTES = 96  # coarse per-potential-entry cost of dict storage


@dataclass(frozen=True)
class ChainIndexScheme:
    """Mixed-radix indexing of degree-n basis chains."""

    degree: int
    dim_m: int
    dim_a: int
    dim_b: int

    @property
    def pairs(self):
        n = self.degree
        return tuple((i, j) for i in range(1, n) for j in range(i + 1, n + 1))

    @property
    def num_pairs(self):
        return self.degree * (self.degree - 1) // 2

    @property
    def total(self):
        return self.dim_m * self.dim_a**self.degree * self.dim_b**self.num_pairs

    def encode(self, mu, alphas, betas):
        idx = mu
        for a in alphas:
            idx = idx * self.dim_a + a
        for b in betas:
            idx = idx * self.dim_b + b
        return idx

    def decode(self, idx):
        betas = [0] * self.num_pairs
        for s in range(self.num_pairs - 1, -1, -1):
            idx, betas[s] = divmod(idx, self.dim_b)
        alphas = [0] * self.degree
        for s in range(self.degree - 1, -1, -1):
            idx, alphas[s] = divmod(idx, self.dim_a)
        if not 0 <= idx < self.dim_m:
            raise ValueError("chain index out of range")
        return idx, tuple(alphas), tuple(betas)


def classical_scheme(a, m, n):
    return ChainIndexScheme(n, m.dim, a.dim, 1)


def secondary_scheme(t, m, n):
    return ChainIndexScheme(n, m.dim, t.A.dim, t.B.dim)


def _fold_basis_product(products, field, indices, unit_vec):
    """Product of basis elements with the given indices, as a dict."""
    if not indices:
        return dict(unit_vec)
    acc = {indices[0]: field.one}
    for idx in indices[1:]:
        nxt = {}
        for i, ci in acc.items():
            for k, c in products[i][idx]:
                nv = field.add(nxt.get(k, field.zero), field.mul(ci, c))
                if nv == field.zero:
                    nxt.pop(k, None)
                else:
                    nxt[k] = nv
        acc = nxt
    return acc


def classical_boundary(a, m, n):
    """Matrix of d_n: M (x) A^n -> M (x) A^(n-1)."""
    if n < 1:
        raise PreconditionError("boundary needs degree >= 1")
    if m.left_alg_dim != a.dim or m.right_alg_dim != a.dim:
        raise PreconditionError("bimodule actions do not match the algebra")
    field = a.field
    src = classical_scheme(a, m, n)
    tgt = classical_scheme(a, m, n - 1)
    prod_a = sparse_products(a)
    left = [[_nonzero(row, field) for row in plane] for plane in m.left]
    right = [[_nonzero(row, field) for row in plane] for plane in m.right]
    minus_one = field.neg(field.one)
    cols = []
    empty = ()
    for src_idx in range(src.total):
        mu, alphas, _ = src.decode(src_idx)
        col = {}
        # face 0: m . a_1
        for mu2, c in right[alphas[0]][mu]:
            _bump(field, col, tgt.encode(mu2, alphas[1:], empty), c)
        # faces 1..n-1: merge a_i a_(i+1) with sign (-1)^i
        sign = field.one
        for i in range(1, n):
            sign = field.mul(sign, minus_one)
            for k, c in prod_a[alphas[i - 1]][alphas[i]]:
                merged = alphas[: i - 1] + (k,) + alphas[i + 1 :]
                _bump(field, col, tgt.encode(mu, merged, empty), field.mul(sign, c))
        # face n: a_n . m with sign (-1)^n
        sign = field.mul(sign, minus_one)
        for mu2, c in left[alphas[-1]][mu]:
            _bump(field, col, tgt.encode(mu2, alphas[:-1], empty), field.mul(sign, c))
        cols.append(col)
    return SparseMatrix(field, tgt.total, src.total, cols)


def _nonzero(row, field):
    return [(k, c) for k, c in enumerate(row) if c != field.zero]


def _bump(field, col, idx, c):
    nv = field.add(col.get(idx, field.zero), c)
    if nv == field.zero:
        col.pop(idx, None)
    else:
        col[idx] = nv


def expand_slots(field, scheme, head, slots, col):
    """col += head (x) slots[0] (x) slots[1] (x) ... as chains of scheme:
    head is a sparse vector over the module slot, followed by one sparse
    vector per A-slot and per b-slot in index order."""
    degree = scheme.degree
    options = [list(v.items()) for v in slots]
    for mu, c0 in head.items():
        for combo in itertools.product(*options):
            coeff = c0
            for _, c in combo:
                coeff = field.mul(coeff, c)
            if coeff == field.zero:
                continue
            entries = tuple(k for k, _ in combo)
            _bump(field, col, scheme.encode(mu, entries[:degree], entries[degree:]), coeff)


def secondary_boundary(t, m, n):
    """Matrix of the degree-n secondary boundary under the index scheme."""
    if n < 1:
        raise PreconditionError("boundary needs degree >= 1")
    a, b, eps = t.A, t.B, t.eps
    if m.left_alg_dim != a.dim or m.right_alg_dim != a.dim:
        raise PreconditionError("bimodule actions do not match the algebra")
    field = a.field
    src = secondary_scheme(t, m, n)
    tgt = secondary_scheme(t, m, n - 1)
    prod_a = sparse_products(a)
    prod_b = sparse_products(b)
    left = [[_nonzero(row, field) for row in plane] for plane in m.left]
    right = [[_nonzero(row, field) for row in plane] for plane in m.right]
    unit_b = b.unit_vec()
    # a_i . eps(beta) as a dict over A, per (A-basis, B-basis) pair
    eps_vecs = [eps.apply_basis(j) for j in range(b.dim)]
    ae = [
        [a.mul({i: field.one}, eps_vecs[j]) for j in range(b.dim)]
        for i in range(a.dim)
    ]
    # a_i . eps(beta) . a_l per triple, for the merged middle entry
    mid = [
        [
            [a.mul(ae[i][j], {l: field.one}) for l in range(a.dim)]
            for j in range(b.dim)
        ]
        for i in range(a.dim)
    ]
    src_pairs = src.pairs
    slot_of = {pair: s for s, pair in enumerate(src_pairs)}
    minus_one = field.neg(field.one)

    cols = []
    for src_idx in range(src.total):
        mu, alphas, betas = src.decode(src_idx)
        col = {}

        def beta(i, j):
            return betas[slot_of[(i, j)]]

        # face 0: m a_1 eps(prod_j b_(1,j)) (x) rest
        pi = _fold_basis_product(
            prod_b, field, [beta(1, j) for j in range(2, n + 1)], unit_b
        )
        new_alphas = alphas[1:]
        new_betas = tuple(beta(i, j) for i in range(2, n) for j in range(i + 1, n + 1))
        for bb, cb in pi.items():
            for k, ck in ae[alphas[0]][bb].items():
                coeff = field.mul(cb, ck)
                for mu2, cm in right[k][mu]:
                    _bump(
                        field,
                        col,
                        tgt.encode(mu2, new_alphas, new_betas),
                        field.mul(coeff, cm),
                    )

        # faces 1..n-1
        sign = field.one
        for i in range(1, n):
            sign = field.mul(sign, minus_one)
            entry_options = mid[alphas[i - 1]][beta(i, i + 1)][alphas[i]]
            # new pair layout after merging positions i and i+1
            slots = []  # per new pair: (merge-product dict, None) or (None, beta)
            for k in range(1, n - 1):
                for l in range(k + 1, n):
                    if l < i:
                        slots.append((None, beta(k, l)))
                    elif l == i:
                        slots.append(
                            (
                                _fold_basis_product(
                                    prod_b,
                                    field,
                                    [beta(k, i), beta(k, i + 1)],
                                    unit_b,
                                ),
                                None,
                            )
                        )
                    elif k < i:
                        slots.append((None, beta(k, l + 1)))
                    elif k == i:
                        slots.append(
                            (
                                _fold_basis_product(
                                    prod_b,
                                    field,
                                    [beta(i, l + 1), beta(i + 1, l + 1)],
                                    unit_b,
                                ),
                                None,
                            )
                        )
                    else:
                        slots.append((None, beta(k + 1, l + 1)))
            merged_alphas_base = alphas[: i - 1]
            merged_alphas_tail = alphas[i + 1 :]
            options = [
                list(d.items()) if d is not None else [(v, field.one)]
                for d, v in slots
            ]
            for k_entry, c_entry in entry_options.items():
                base_coeff = field.mul(sign, c_entry)
                new_alphas_i = merged_alphas_base + (k_entry,) + merged_alphas_tail
                for combo in itertools.product(*options):
                    coeff = base_coeff
                    for _, cb in combo:
                        coeff = field.mul(coeff, cb)
                    new_betas_i = tuple(v for v, _ in combo)
                    _bump(field, col, tgt.encode(mu, new_alphas_i, new_betas_i), coeff)

        # face n: a_n eps(prod_j b_(j,n)) m (x) rest
        sign = field.mul(sign, minus_one)
        pi = _fold_basis_product(
            prod_b, field, [beta(j, n) for j in range(1, n)], unit_b
        )
        new_alphas = alphas[:-1]
        new_betas = tuple(beta(i, j) for i in range(1, n - 1) for j in range(i + 1, n))
        for bb, cb in pi.items():
            for k, ck in ae[alphas[-1]][bb].items():
                coeff = field.mul(field.mul(sign, cb), ck)
                for mu2, cm in left[k][mu]:
                    _bump(
                        field,
                        col,
                        tgt.encode(mu2, new_alphas, new_betas),
                        field.mul(coeff, cm),
                    )
        cols.append(col)
    return SparseMatrix(field, tgt.total, src.total, cols)


@dataclass(frozen=True)
class HomologyResult:
    dim: int
    reps: tuple | None = None


class ChainComplex:
    """Built complex: graded dimensions plus boundary matrices.

    boundaries[n] maps degree n to degree n-1; boundaries[0] is the zero
    map to a rank-0 space, so H_0 = C_0 / im d_1.  Rank, image and cycle
    computations are memoized; the object is immutable once built.
    """

    def __init__(self, kind, field, dims, boundaries, schemes):
        self.kind = kind
        self.field = field
        self.dims = tuple(dims)
        self.boundaries = tuple(boundaries)
        self.schemes = tuple(schemes)
        self._ranks = {}
        self._images = {}
        self._cycles = {}

    @property
    def max_degree(self):
        return len(self.dims) - 1

    def boundary(self, n):
        if not 1 <= n <= self.max_degree:
            raise PreconditionError(f"no boundary at degree {n}")
        return self.boundaries[n]

    def boundary_rank(self, n, deadline=None):
        if n == 0:
            return 0
        if n not in self._ranks:
            self._ranks[n] = rank(self.boundary(n), deadline=deadline)
        return self._ranks[n]

    def boundary_image(self, n):
        """Image of d_n inside degree n-1 chains."""
        if n not in self._images:
            self._images[n] = image_basis(self.boundary(n))
            self._ranks.setdefault(n, self._images[n].dim)
        return self._images[n]

    def cycle_space(self, n):
        from .linalg import Subspace

        if n not in self._cycles:
            if n == 0:
                self._cycles[n] = Subspace.full(self.field, self.dims[0])
            else:
                self._cycles[n] = kernel_basis(self.boundary(n))
        return self._cycles[n]


def homology(complex_, n, with_reps=False, deadline=None):
    """Homology dimension at degree n, optionally with representative cycles.

    Representatives are the cycle-kernel RREF vectors not already in the
    boundary span, in canonical order.
    """
    if not 0 <= n <= complex_.max_degree - 1:
        raise PreconditionError(
            f"degree {n} outside built range 0..{complex_.max_degree - 1}"
        )
    dim = (
        complex_.dims[n]
        - complex_.boundary_rank(n, deadline=deadline)
        - complex_.boundary_rank(n + 1, deadline=deadline)
    )
    if not with_reps:
        return HomologyResult(dim)
    basis = HomologyBasis(complex_.cycle_space(n), complex_.boundary_image(n + 1))
    assert basis.dim == dim
    return HomologyResult(dim, basis.reps)


def estimate_build_bytes(dims):
    return _ENTRY_BYTES * sum(
        dims[n] * (n + 1) for n in range(1, len(dims))
    )


def _check_guards(dims, max_degree, degree_cap, guard_bytes):
    if max_degree < 0:
        raise PreconditionError("max_degree must be >= 0")
    if max_degree > degree_cap:
        raise PreconditionError(
            f"max_degree {max_degree} above the degree cap {degree_cap}"
        )
    est = estimate_build_bytes(dims)
    if est > guard_bytes:
        raise SizeGuardError(
            f"estimated {est} bytes exceeds the {guard_bytes}-byte guard"
        )


def _verify_dd_zero(boundaries):
    for n in range(1, len(boundaries) - 1):
        if not (boundaries[n] @ boundaries[n + 1]).is_zero():
            raise ComplexInconsistencyError(
                f"complex inconsistency: boundary composite nonzero at degree {n + 1}"
            )


def build_classical_complex(
    a,
    m,
    max_degree,
    degree_cap=DEFAULT_DEGREE_CAP,
    guard_bytes=DEFAULT_GUARD_BYTES,
):
    schemes = [classical_scheme(a, m, n) for n in range(max_degree + 1)]
    dims = [s.total for s in schemes]
    _check_guards(dims, max_degree, degree_cap, guard_bytes)
    boundaries = [SparseMatrix.zero(a.field, 0, dims[0])]
    for n in range(1, max_degree + 1):
        boundaries.append(classical_boundary(a, m, n))
    _verify_dd_zero(boundaries)
    return ChainComplex("classical", a.field, dims, boundaries, schemes)


def build_secondary_complex(
    t,
    m,
    max_degree,
    degree_cap=DEFAULT_DEGREE_CAP,
    guard_bytes=DEFAULT_GUARD_BYTES,
):
    schemes = [secondary_scheme(t, m, n) for n in range(max_degree + 1)]
    dims = [s.total for s in schemes]
    _check_guards(dims, max_degree, degree_cap, guard_bytes)
    boundaries = [SparseMatrix.zero(t.A.field, 0, dims[0])]
    for n in range(1, max_degree + 1):
        boundaries.append(secondary_boundary(t, m, n))
    _verify_dd_zero(boundaries)
    return ChainComplex("secondary", t.A.field, dims, boundaries, schemes)


def build_complex(kind, t, m, max_degree, **kwargs):
    if kind == "classical":
        return build_classical_complex(t.A, m, max_degree, **kwargs)
    if kind == "secondary":
        return build_secondary_complex(t, m, max_degree, **kwargs)
    raise PreconditionError(f"unknown complex kind {kind!r}")
