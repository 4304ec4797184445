"""Hochschild chain complexes, classical and secondary, over a triple.

Degree-n secondary chains are tuples (mu; a_1..a_n; b_(1,2)..b_(n-1,n))
with the b-slots ordered lexicographically by pair (i, j), i < j; the
linear index is mixed-radix with mu most significant.  The classical
complex is the secondary complex with B the ground field, so its
b-digits are always 0.

One builder makes both boundaries, from `SparseMatrix.kron` and `@`
like every other structure map.  Each face is a head matrix on the
slots it multiplies (mu a_1 eps(b..), a_i eps(b) a_(i+1),
a_n eps(b..) mu), a product of the structure matrices of A, B, eps and
the module, and `pair_layout` says which b-slots it copies and which it
merges.  Once per call, each face is compiled into a term table: the
columns of head (x) P_B (x) ... (x) P_B, one product P_B of B per merged
b-pair, are the terms of each value of the source digits the face reads
(its head key and the merged b-digits), each row mapped once to its
target offset through the target's strides.  A column then costs one
lookup per face, the copied digits entering as a base offset; only
terms of different faces that land on one index are added.  A table
has at most as many keys as d_n has columns, and it lives for one call.
The chain maps that act slot by slot (the Morita and sequence maps) are
Kronecker products too, and `pair_layout` gives a homotopy its b-slot
factors.

Boundary-squared is verified exactly whenever a `ChainComplex` is made,
and elimination of d_n relies on it: it stops once the image fills
ker d_(n-1).  The check is the sparse product d_n d_(n+1), which the
linalg kernel forms in `int` arithmetic without copying d_(n+1): over
the rationals it clears the denominators of each row of d_n once and of
each column of d_(n+1) as it reaches it, and divides each entry once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter

from .algebra import field_algebra, unit_morphism
from .errors import (
    ComplexInconsistencyError,
    PreconditionError,
    SizeGuardError,
)
from .linalg import (
    HomologyBasis,
    SparseMatrix,
    Subspace,
    commutation,
    image_basis,
    kernel_basis,
    rank,
)

DEFAULT_DEGREE_CAP = 4
DEFAULT_GUARD_BYTES = 1 << 30
ENTRY_BYTES = 96  # coarse per-potential-entry cost of dict or table storage


def _pairs(n):
    return tuple((i, j) for i in range(1, n) for j in range(i + 1, n + 1))


@dataclass(frozen=True)
class ChainIndexScheme:
    """Mixed-radix indexing of degree-n basis chains."""

    degree: int
    dim_m: int
    dim_a: int
    dim_b: int

    @property
    def pairs(self):
        return _pairs(self.degree)

    @property
    def num_pairs(self):
        return self.degree * (self.degree - 1) // 2

    @property
    def total(self):
        return self.dim_m * self.dim_a**self.degree * self.dim_b**self.num_pairs

    @property
    def radices(self):
        """Digit ranges of an index: mu, the A-slots, then the b-slots."""
        n, p = self.degree, self.num_pairs
        return (self.dim_m,) + (self.dim_a,) * n + (self.dim_b,) * p

    @property
    def strides(self):
        """Weight in the linear index of each digit of `radices`."""
        out = [1]
        for r in self.radices[:0:-1]:
            out.append(out[-1] * r)
        return out[::-1]

    def digits(self):
        """The digit tuples of all chains, in index order."""
        return itertools.product(*map(range, self.radices))

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


def pair_layout(sources, src_degree):
    """B-pair layout of a monotone map of A-positions.  sources[k - 1]
    lists the source positions (1-based) that land on target position k.
    For each target b-slot, in index order, return the source b-slots
    whose product fills it, in product order: none is the unit of B, one
    a copy, two a merge."""
    slot_of = {pair: s for s, pair in enumerate(_pairs(src_degree))}
    return tuple(
        tuple(slot_of[(s, t)] for s in sources[k - 1] for t in sources[l - 1])
        for k, l in _pairs(len(sources))
    )


def _boundary(a, b, eps, m, n):
    """d_n = sum (-1)^i d_i on the chains of (A, B, eps) with coefficients
    in m, eps given by its matrix E.  With P the products, F the
    (n-1)-fold product of B and G = P_A(I_A (x) E)(I_A (x) F), the head
    of an interior face is P_A(P_A(I_A (x) E) (x) I_A) on (a, b, a'),
    that of face 0 is R_M(G (x) I_M)K and that of face n is L_M(G (x)
    I_M)K on (mu, a, b..), K moving mu past the rest.  A face's term
    table is the columns of head (x) P_B (x) ... (x) P_B, one P_B per
    b-pair it merges, and a row of it lands at the offset its digits
    give through the target's strides; the slots it copies enter as a
    base offset."""
    if n < 1:
        raise PreconditionError("boundary needs degree >= 1")
    if m.left_alg_dim != a.dim or m.right_alg_dim != a.dim:
        raise PreconditionError("bimodule actions do not match the algebra")
    field = a.field
    src = ChainIndexScheme(n, m.dim, a.dim, b.dim)
    tgt = ChainIndexScheme(n - 1, m.dim, a.dim, b.dim)
    strides = tgt.strides
    b_at = {pair: n + 1 + s for s, pair in enumerate(src.pairs)}  # digit position
    ident_a, ident_b, ident_m = (
        SparseMatrix.identity(field, k) for k in (a.dim, b.dim, m.dim)
    )
    a_eps = a.products @ ident_a.kron(eps)  # a_x eps(b_y) at x * dim B + y
    interior = a.products @ a_eps.kron(ident_a)
    fold = SparseMatrix(field, b.dim, 1, [b.unit_vec()]) if n == 1 else ident_b
    for _ in range(n - 2):
        fold = b.products @ fold.kron(ident_b)
    g = a_eps @ ident_a.kron(fold)  # a_x eps(b_1 ... b_(n-1))
    outer = g.kron(ident_m) @ commutation(field, m.dim, g.cols)
    faces = []
    for i in range(n + 1):
        if 0 < i < n:  # a_i eps(b_(i,i+1)) a_(i+1)
            sources = [[k] for k in range(1, i)] + [[i, i + 1]]
            sources += [[k] for k in range(i + 2, n + 1)]
            keys = (i, b_at[(i, i + 1)], i + 1)
            head, radices = interior, (a.dim, b.dim, a.dim)
            out, copies = i, [(0, strides[0])]
        else:  # m a_1 eps(prod_j b_(1,j)) or a_n eps(prod_j b_(j,n)) m
            end = 1 if i == 0 else n
            sources = [[k] for k in range(1, n + 1) if k != end]
            keys = (0, end) + tuple(b_at[pair] for pair in src.pairs if end in pair)
            head = (m.right_action if i == 0 else m.left_action) @ outer
            radices = (m.dim, a.dim) + (b.dim,) * (n - 1)
            out, copies = 0, []
        copies += [
            (ps[0], strides[k]) for k, ps in enumerate(sources, 1) if len(ps) == 1
        ]
        table = head if i % 2 == 0 else -head
        slots = [(head.rows, strides[out])]
        for s, ps in enumerate(pair_layout(sources, n), n):
            if len(ps) == 1:
                copies.append((n + 1 + ps[0], strides[s]))
            else:
                keys += (n + 1 + ps[0], n + 1 + ps[1])
                radices += (b.dim, b.dim)
                table = table.kron(b.products)
                slots.append((b.dim, strides[s]))
        offsets = [0]
        for radix, stride in slots:
            offsets = [o + k * stride for o in offsets for k in range(radix)]
        terms = {
            key: tuple((offsets[r], c) for r, c in col.items())
            for key, col in zip(
                itertools.product(*map(range, radices)), table.columns()
            )
        }
        faces.append((itemgetter(*keys), terms, copies))
    add, zero = field.add, field.zero
    cols = []
    for d in src.digits():
        col = {}
        for key, terms, copies in faces:
            face_terms = terms[key(d)]
            if face_terms:
                base = sum([d[p] * s for p, s in copies])
                for offset, c in face_terms:
                    idx = base + offset
                    if idx in col:
                        nv = add(col[idx], c)
                        if nv == zero:
                            del col[idx]
                        else:
                            col[idx] = nv
                    else:
                        col[idx] = c
        cols.append(col)
    return SparseMatrix(field, tgt.total, src.total, cols)


def classical_boundary(a, m, n):
    """Matrix of d_n: M (x) A^n -> M (x) A^(n-1), the secondary boundary
    with B the ground field and eps its unit."""
    k = field_algebra(a.field)
    return _boundary(a, k, unit_morphism(k, a).sparse, m, n)


def secondary_boundary(t, m, n):
    """Matrix of the degree-n secondary boundary under the index scheme."""
    return _boundary(t.A, t.B, t.eps.sparse, m, n)


@dataclass(frozen=True)
class HomologyResult:
    dim: int
    reps: tuple | None = None


class ChainComplex:
    """Built complex: graded dimensions plus boundary matrices.

    boundaries[n] maps degree n to degree n-1; boundaries[0] is the zero
    map to a rank-0 space, so H_0 = C_0 / im d_1.  d_n d_(n+1) = 0 is
    verified exactly when the complex is made, so im d_n lies in
    ker d_(n-1): once dim ker d_(n-1) is known (from a memoized cycle
    space or rank, or dims[0] at n = 1), ranking or spanning d_n stops
    as soon as its echelon reaches that dimension, with the same result.
    Likewise the cycle space of d_n stops eliminating rows at rank d_n
    once that is memoized.  No elimination is run only to learn a bound.
    Rank, image and cycle computations are memoized; the object is
    immutable once built.
    """

    def __init__(self, kind, field, dims, boundaries, schemes):
        _verify_dd_zero(boundaries)
        self.kind = kind
        self.field = field
        self.dims = tuple(dims)
        self.boundaries = tuple(boundaries)
        self.schemes = tuple(schemes)
        self._ranks = {}
        self._images = {}
        self._cycles = {}
        self._homology = {}

    @property
    def max_degree(self):
        return len(self.dims) - 1

    def boundary(self, n):
        if not 1 <= n <= self.max_degree:
            raise PreconditionError(f"no boundary at degree {n}")
        return self.boundaries[n]

    def _rank_bound(self, n):
        """dim ker d_(n-1), an upper bound on rank d_n, if already known."""
        if n == 1:
            return self.dims[0]
        if n - 1 in self._cycles:
            return self._cycles[n - 1].dim
        if n - 1 in self._ranks:
            return self.dims[n - 1] - self._ranks[n - 1]
        return None

    def boundary_rank(self, n, deadline=None):
        if n == 0:
            return 0
        if n not in self._ranks:
            self._ranks[n] = rank(
                self.boundary(n), deadline=deadline, bound=self._rank_bound(n)
            )
        return self._ranks[n]

    def boundary_image(self, n, deadline=None):
        """Image of d_n inside degree n-1 chains; it also fixes rank d_n."""
        if n not in self._images:
            self._images[n] = image_basis(
                self.boundary(n), deadline=deadline, bound=self._rank_bound(n)
            )
            self._ranks.setdefault(n, self._images[n].dim)
        return self._images[n]

    def cycle_space(self, n, deadline=None):
        if n not in self._cycles:
            if n == 0:
                self._cycles[n] = Subspace.full(self.field, self.dims[0])
            else:
                self._cycles[n] = kernel_basis(
                    self.boundary(n), deadline=deadline, bound=self._ranks.get(n)
                )
        return self._cycles[n]

    def homology_basis(self, n, deadline=None):
        """The HomologyBasis at degree n, kept like the spaces it is over."""
        if n not in self._homology:
            self._homology[n] = HomologyBasis(
                self.cycle_space(n, deadline=deadline),
                self.boundary_image(n + 1, deadline=deadline),
                deadline=deadline,
            )
        return self._homology[n]


def homology(complex_, n, with_reps=False, deadline=None):
    """Homology dimension at degree n, optionally with representative cycles.

    Representatives are the cycle-kernel RREF vectors not already in the
    boundary span, in canonical order.  With them the dimension is read
    off the cycles and boundaries, so no boundary is also ranked.
    """
    if not 0 <= n <= complex_.max_degree - 1:
        raise PreconditionError(
            f"degree {n} outside built range 0..{complex_.max_degree - 1}"
        )
    if with_reps:
        basis = complex_.homology_basis(n, deadline=deadline)
        return HomologyResult(basis.dim, basis.reps)
    dim = (
        complex_.dims[n]
        - complex_.boundary_rank(n, deadline=deadline)
        - complex_.boundary_rank(n + 1, deadline=deadline)
    )
    return HomologyResult(dim)


def estimate_build_bytes(dims):
    return ENTRY_BYTES * sum(
        dims[n] * (n + 1) for n in range(1, len(dims))
    )


def _check_guards(dims, max_degree, degree_cap, guard_bytes):
    if max_degree < 0:
        raise PreconditionError("max_degree must be >= 0")
    if max_degree > degree_cap:
        raise PreconditionError(
            f"max_degree {max_degree} above the degree cap {degree_cap}"
        )
    check_size_guard(estimate_build_bytes(dims), guard_bytes)


def check_size_guard(est, guard_bytes):
    """SizeGuardError when a build estimated at est bytes would take more
    than guard_bytes."""
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


def _build(kind, field, scheme, boundary, args, max_degree, degree_cap, guard_bytes):
    """The complex with degree-n chains scheme(*args, n) and boundaries
    boundary(*args, n) up to max_degree, size-guarded before anything is
    built; `ChainComplex` verifies boundary-squared."""
    schemes = [scheme(*args, n) for n in range(max_degree + 1)]
    dims = [s.total for s in schemes]
    _check_guards(dims, max_degree, degree_cap, guard_bytes)
    boundaries = [SparseMatrix.zero(field, 0, dims[0])]
    boundaries += [boundary(*args, n) for n in range(1, max_degree + 1)]
    return ChainComplex(kind, field, dims, boundaries, schemes)


def build_classical_complex(
    a, m, max_degree, degree_cap=DEFAULT_DEGREE_CAP, guard_bytes=DEFAULT_GUARD_BYTES
):
    return _build(
        "classical", a.field, classical_scheme, classical_boundary, (a, m),
        max_degree, degree_cap, guard_bytes,
    )


def build_secondary_complex(
    t, m, max_degree, degree_cap=DEFAULT_DEGREE_CAP, guard_bytes=DEFAULT_GUARD_BYTES
):
    return _build(
        "secondary", t.A.field, secondary_scheme, secondary_boundary, (t, m),
        max_degree, degree_cap, guard_bytes,
    )
