"""Hochschild chain complexes, classical and secondary, over a triple.

Degree-n secondary chains are tuples (mu; a_1..a_n; b_(1,2)..b_(n-1,n))
with the b-slots ordered lexicographically by pair (i, j), i < j; the
linear index is mixed-radix with mu most significant.  The classical
complex is the secondary complex with B the ground field, so its
b-digits are always 0: `build_classical_complex` builds the secondary
complex of `trivial_triple(a)`.

One builder makes both boundaries, straight from the structure
constants.  Each face has a head on the slots it multiplies
(mu a_1 eps(b..), a_i eps(b) a_(i+1), a_n eps(b..) mu), contracted with
`_products` from the columns of the products of A, eps and the actions,
and `pair_layout` says which b-slots it copies and which it merges.
Once per call, each face is compiled into a term table: for each value
of the source digits it reads (its head key and the merged b-digits),
the head's terms times one column of the products P_B of B per merged
b-pair (n-2 for an interior face of d_n, none for an outer one), each
written at its target offset with the face's sign.  A column then costs
one lookup per face, the copied digits entering as a base offset; only
terms of different faces that land on one index are added.  A table has
at most as many keys as d_n has columns, and it lives for one call.
The chain maps that act slot by slot (the Morita and sequence maps) are
Kronecker products, and a homotopy that inserts an A-slot takes
`insertion_b_slots` on its b-slots.

Boundary-squared is verified exactly on every built column before it
is read, and elimination of d_n relies on it: it stops once the image
fills ker d_(n-1).  The check is the sparse product d_n d_(n+1), which
the linalg kernel forms in `int` arithmetic without copying d_(n+1): over
the rationals it clears the denominators of each row of d_n once and of
each column of d_(n+1) as it reaches it, and divides each entry once.

Elimination sees only the cyclic block paths.  Each basis vector x of A
and of M gets a left and a right label, L(x) and R(x), joined with
union-find over the nonzero structure constants (`_peirce_labels`):
x y != 0 ties R(x) to L(y), and its support takes L(x) and R(y).  A
junction between neighbouring slots of a chain, read cyclically from
mu, is broken when the labels on its two sides differ, and a face that
merges across it vanishes.  So the complex is the direct sum of C^s,
the chains with no broken junction, and C^non, the rest (`PeirceSplit`,
a mask of bytes per degree).  On C^non, inserting the idempotent e_q
after the first broken junction k, q the label to its left and the unit
of B in each new b-slot, with sign (-1)^k, is a contracting homotopy h.
One walk of the labels, prefix by prefix, gives both: each prefix of
slots keeps L(mu), its first broken junction k and q, so the masks
read whether a chain closes and h reads k and q, placing e_q as one
more digit of the prefix index.
On the first rank or image request a `ChainComplex` checks that every
nonzero boundary column stays in its part and that dh + hd = id on
C^non below the top degree; a failure raises
`ComplexInconsistencyError`.  Then C^non is exact there, so its rank is
an alternating sum of dims and its part of im d_n is its part of
ker d_(n-1), and only the nonzero cyclic columns are eliminated.
Classically this is the complex relative to the separable subalgebra
spanned by the e_q (Loday, Cyclic Homology, 1.2; Gerstenhaber-Schack,
JPAA 1986); here the homotopy certifies it on each complex, secondary
or classical.  When the unit of A has one nonzero coordinate, every
label is one class and no split is made.

So of the top boundary d_T of a split complex only two sets of columns
are read: those at C^s_T, by elimination, and those at the support of
h_(T-1), by the certificate (`TopColumns`).  Only they are built and
d-d-checked when the complex is made; the rest are built, checked and
joined to them when the full d_T is first asked for, which homology
and the verifiers never do.  The columns left out all lie in C^non_T,
and their images stay in C^non_(T-1) by the labels alone: every term of
a face is a product of structure constants, and a nonzero x y forces
R(x) = L(y), so a face that merges across a broken junction vanishes
and one that merges elsewhere keeps, on either side of the broken
junction, a slot whose outer label is unchanged.

Without a split, d_T is built as elimination reads it, in index order:
a block of TOP_BLOCK chains, then blocks as large as all built so far,
each d-d-checked before it is read, until the rank bound is met; with
no bound known, the rest is built in one call.  A top of N chains read
in full takes 1 + log2(N / TOP_BLOCK) calls.  The rank bound then
speaks for columns that are never built, and rests on d d = 0 there, as
it does for the unbuilt C^non_T columns of a split top; asking for the
full d_T builds and checks them.

Homology with representatives reads only C^s.  Its cycles are the
kernel of the C^s columns of d_n and its boundaries the image of the
nonzero cyclic columns of d_(n+1); C^non_n, where every cycle is a
boundary and so no representative lies, is the `ExactPart` of its
`HomologyBasis`.  A vector there is a cycle (a boundary) when its C^s
part is one and its C^non part is a cycle, and its class is that of its
C^s part.  The cycles of C^non_n, which an induced map must carry to
cycles and to boundaries too, are spanned by the columns of d_(n+1) at
the support of h_n, since z = d(hz) for each of them; at n = T-1 these
are the `TopColumns` outside C^s_T.  The public `cycle_space` and
`boundary_image` still give the full subspaces.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from dataclasses import dataclass
from operator import itemgetter

from .algebra import trivial_triple
from .errors import (
    ComplexInconsistencyError,
    PreconditionError,
    SizeGuardError,
)
from .linalg import (
    ExactPart,
    HomologyBasis,
    SparseMatrix,
    Subspace,
    _products,
    image_basis,
    kernel_basis,
    rank,
)

DEFAULT_DEGREE_CAP = 4
DEFAULT_GUARD_BYTES = 1 << 30
TOP_BLOCK = 256  # chains in the first block of an unsplit top read as it is built
ENTRY_BYTES = 96  # coarse per-potential-entry cost of dict or table storage
_FLIP = bytes([1]) + bytes(255)  # bytes.translate table swapping 0 and 1
_Growing = namedtuple("_Growing", "field rows columns")  # a matrix built as it is read


def _pairs(n):
    return tuple(itertools.combinations(range(1, n + 1), 2))  # (i, j), i < j, in lex order


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
        """(mu, alphas, betas): the digits of chain idx, read through
        `strides` and `radices`."""
        if not 0 <= idx < self.total:
            raise ValueError("chain index out of range")
        digits = [idx // s % r for r, s in zip(self.radices, self.strides)]
        return digits[0], tuple(digits[1 : self.degree + 1]), tuple(digits[self.degree + 1 :])


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


def insertion_b_slots(b, n, i):
    """The b-slot factor of a map C_n -> C_(n+1) that inserts an A-slot
    at position i + 1: over the target b-slots, in index order, the
    Kronecker product of I_B on each slot kept, in the source's order,
    and the unit of B on each new one."""
    sources = [[k] for k in range(1, i + 1)] + [[]] + [[k] for k in range(i + 1, n + 1)]
    field, ident = b.field, SparseMatrix.identity(b.field, b.dim)
    unit = SparseMatrix(field, b.dim, 1, [b.unit_vec()])
    factors = [ident if ps else unit for ps in pair_layout(sources, n)]
    return functools.reduce(SparseMatrix.kron, factors, SparseMatrix.identity(field, 1))


def _face_terms(field, heads, stride, sign, merged, pb):
    """A face's term table: per value of the digits it reads, in index
    order (the head's, then each merged b-pair's), its (offset,
    coefficient) terms.  A head term lands at its row times stride,
    negated unless sign, and each merged b-pair multiplies it by a column
    of P_B (pb), whose rows land at that pair's stride in merged."""
    neg, mul = field.neg, field.mul
    table = [[(r * stride, c if sign else neg(c)) for r, c in col.items()] for col in heads]
    for s in merged:  # a product of nonzero scalars is nonzero: nothing drops
        table = [
            [(o + r * s, mul(c, v)) for o, c in terms for r, v in col.items()]
            for terms in table
            for col in pb
        ]
    return table


def _boundary(a, b, eps, m, n, mask=None):
    """d_n = sum (-1)^i d_i on the chains of (A, B, eps) with coefficients
    in m, eps given by its matrix; with mask, a bytes of one flag per
    chain, only its columns at the flagged chains, in index order.  The
    heads are contracted from the columns of the products, eps and the
    actions: x eps(y) x' on (a, b, a') for an interior face, and mu.g
    (face 0) and g.mu (face n) on (mu, a, b..), g = a eps(b_1 ... b_(n-1))
    with the b's multiplied from the left.  `_face_terms` compiles each
    face; the slots it copies enter a column as a base offset."""
    if n < 1:
        raise PreconditionError("boundary needs degree >= 1")
    if m.left_alg_dim != a.dim or m.right_alg_dim != a.dim:
        raise PreconditionError("bimodule actions do not match the algebra")
    field, da, db, dm = a.field, a.dim, b.dim, m.dim
    src, tgt = ChainIndexScheme(n, dm, da, db), ChainIndexScheme(n - 1, dm, da, db)
    strides = tgt.strides
    b_at = {pair: n + 1 + s for s, pair in enumerate(src.pairs)}  # digit position
    prods, pb = a.products.columns(), b.products.columns()
    right = [{x * da + k: c for k, c in e.items()} for x in range(da) for e in eps.columns()]
    a_eps = _products(field, prods, right)  # x eps(y) at x * db + y
    fold = [b.unit_vec()] if n == 1 else [{y: field.one} for y in range(db)]
    for _ in range(n - 2):  # b_1 ... b_(n-1), the first b most significant
        right = [{i * db + y: c for i, c in f.items()} for f in fold for y in range(db)]
        fold = _products(field, pb, right)
    right = [{x * db + z: c for z, c in f.items()} for x in range(da) for f in fold]
    g = _products(field, a_eps, right)
    moved = [{r * dm + mu: c for r, c in col.items()} for mu in range(dm) for col in g]  # g (x) mu
    right = [{j * da + x: c for j, c in h.items()} for h in a_eps for x in range(da)]
    interior = _products(field, prods, right) if n > 1 else None  # x eps(y) x'
    faces = []
    for i in range(n + 1):
        if 0 < i < n:  # a_i eps(b_(i,i+1)) a_(i+1)
            sources = [[k] for k in range(1, i)] + [[i, i + 1]]
            sources += [[k] for k in range(i + 2, n + 1)]
            keys, radices = (i, b_at[(i, i + 1)], i + 1), (da, db, da)
            heads, out, copies = interior, i, [(0, strides[0])]
        else:  # m a_1 eps(prod_j b_(1,j)) or a_n eps(prod_j b_(j,n)) m, merging none
            end = 1 if i == 0 else n
            sources = [[k] for k in range(1, n + 1) if k != end]
            keys = (0, end) + tuple(b_at[pair] for pair in src.pairs if end in pair)
            radices = (dm, da) + (db,) * (n - 1)
            action = m.right_action if i == 0 else m.left_action
            heads, out, copies = _products(field, action.columns(), moved), 0, []
        copies += [
            (ps[0], strides[k]) for k, ps in enumerate(sources, 1) if len(ps) == 1
        ]
        merged = []
        for s, ps in enumerate(pair_layout(sources, n), n):
            if len(ps) == 1:
                copies.append((n + 1 + ps[0], strides[s]))
            else:
                keys += (n + 1 + ps[0], n + 1 + ps[1])
                radices += (db, db)
                merged.append(strides[s])
        table = _face_terms(field, heads, strides[out], i % 2 == 0, merged, pb)
        terms = dict(zip(itertools.product(*map(range, radices)), table))
        faces.append((itemgetter(*keys), terms, copies))
    add, zero = field.add, field.zero
    cols = []
    digits = src.digits()
    for d in digits if mask is None else itertools.compress(digits, mask):
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
    return SparseMatrix(field, tgt.total, len(cols), cols)


def classical_boundary(a, m, n, mask=None):
    """Matrix of d_n: M (x) A^n -> M (x) A^(n-1), that of `trivial_triple(a)`;
    with mask, its columns at the chains mask flags."""
    # perfbench/tracing.py wraps this and secondary_boundary by name; `_boundary` stays unwrapped
    t = trivial_triple(a)
    return _boundary(a, t.B, t.eps.sparse, m, n, mask)


def secondary_boundary(t, m, n, mask=None):
    """Matrix of the degree-n secondary boundary under the index scheme;
    with mask, its columns at the chains mask flags."""
    return _boundary(t.A, t.B, t.eps.sparse, m, n, mask)


def _insertion_sign(field, k):
    """(-1)^k, the sign of the contracting homotopy at junction k."""
    return field.one if k % 2 == 0 else field.neg(field.one)


def _peirce_labels(a, eps, m):
    """The (L, R) class of each basis vector of A and then of M, or None
    when there is one class.  Classes are joined with union-find over the
    nonzero structure constants: a nonzero x y ties R(x) to L(y), and
    each basis vector in its support takes L(x) and R(y); the two actions
    follow the same rule, and every basis vector in the support of eps
    or of the unit of A has L = R.  When the unit of A has one nonzero
    coordinate u, 1 e_j = e_j ties every label to R(u), so nothing is
    joined; nor when it has none, as only the zero algebra has."""
    if len(a.unit_vec()) < 2:
        return None
    da, dm = a.dim, m.dim
    parent = list(range(2 * (da + dm)))  # L(v) is node 2v, R(v) is 2v + 1

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    def bind(left, right, support):  # left * right has this support
        union(2 * left + 1, 2 * right)
        for k in support:
            union(2 * k, 2 * left)
            union(2 * k + 1, 2 * right + 1)

    # A is vertices 0..da-1 and M is da..da+dm-1
    for c, col in enumerate(a.products.columns()):
        if col:
            bind(c // da, c % da, col)
    for c, col in enumerate(m.left_action.columns()):
        if col:
            bind(c // dm, da + c % dm, [da + k for k in col])
    for c, col in enumerate(m.right_action.columns()):
        if col:
            bind(da + c % dm, c // dm, [da + k for k in col])
    for col in eps.columns() + (a.unit_vec(),):
        for k in col:
            union(2 * k, 2 * k + 1)
    roots = {}
    labels = tuple(
        tuple(roots.setdefault(find(x), len(roots)) for x in (2 * v, 2 * v + 1))
        for v in range(da + dm)
    )
    return labels if len(roots) > 1 else None


class PeirceSplit:
    """The split C = C^s (+) C^non of a complex by Peirce labels.

    A chain (mu; a_1..a_n; b..) reads its slots mu, a_1, .., a_n
    cyclically; junction k joins slot k to slot k + 1 (slot n + 1 is mu
    again) and is broken when R(slot k) != L(slot k + 1).  A face merges
    the two slots of one junction, so it vanishes across a broken one and
    keeps every other junction: C^s (every junction whole, the cyclic
    block paths) and C^non (some junction broken) are subcomplexes.
    The labels are walked once, prefix by prefix: the state of a prefix
    (mu, a_1..a_n) is (L(mu), R(slot k), k), k its first broken junction,
    or n when junctions 0..n-1 are whole.  states[n] lists them in index
    order for n below the top.  masks[n][j] is 1 when chain j of degree n
    lies in C^s: its prefix has k = n and closes, L(mu) = R(slot n).  On
    C^non, `homotopy` is a contracting homotopy: dh + hd = id there,
    which `ChainComplex` checks before it relies on it."""

    def __init__(self, a, b, labels, max_degree):
        """The split to max_degree of the complex of (a, b, eps) with
        coefficients in a bimodule m, labels the `_peirce_labels` of a,
        eps and m."""
        self.field, self.b, self.dim_a = a.field, b, a.dim
        self.labels_a = labels[: a.dim]
        units = [[] for _ in range(1 + max(q for pair in labels for q in pair))]
        for i, c in a.unit_vec().items():
            units[self.labels_a[i][0]].append((i, c))
        self.units = units  # units[q]: the (index, coefficient) terms of e_q
        masks, kept, states = [], [], [(l, r, 0) for l, r in labels[a.dim :]]
        for n in range(max_degree + 1):
            if n:  # a prefix whole so far extends across junction n - 1 or breaks there
                states = (
                    (s[0], r, n) if s[2] == n - 1 and s[1] == l else s
                    for s in states
                    for l, r in self.labels_a
                )
            if n < max_degree:  # the top degree's prefixes are read once, as they are made
                kept.append(states := list(states))
            closed = bytes(s[2] == n and s[0] == s[1] for s in states)
            rep = b.dim ** (n * (n - 1) // 2)  # the b-digits, least significant
            mask = bytearray(len(closed) * rep)
            for i in range(rep):
                mask[i::rep] = closed
            masks.append(bytes(mask))
        self.masks, self.states = tuple(masks), tuple(kept)

    @classmethod
    def of(cls, a, b, eps, m, max_degree):
        """The split, or None when the labels form one class."""
        labels = _peirce_labels(a, eps, m)
        return None if labels is None else cls(a, b, labels, max_degree)

    def noncyclic_rank(self, n):
        """rank d_n on C^non, from its exactness below degree n:
        sum over j < n of (-1)^(n-1-j) dim C^non_j."""
        dims = [len(mask) - mask.count(1) for mask in self.masks[:n]]
        return sum(d if (n - 1 - j) % 2 == 0 else -d for j, d in enumerate(dims))

    def homotopy(self, n):
        """h_n: C_n -> C_(n+1), zero on C^s.  A chain of C^non whose prefix
        state is (l, q, k) goes to (-1)^k times itself with e_q inserted
        as A-slot k + 1, one digit placed between the prefix digits of
        slots ..k and k + 1.., and `insertion_b_slots` on its b-slots."""
        field, mul, da = self.field, self.field.mul, self.dim_a
        b_maps = [insertion_b_slots(self.b, n, k) for k in range(n + 1)]
        src_rep, tgt_rep = b_maps[0].cols, b_maps[0].rows
        states, cols = self.states[n], []
        for p, (l, q, k) in enumerate(states):
            if k == n and l == q:
                cols += [{} for _ in range(src_rep)]
                continue
            sign, weight = _insertion_sign(field, k), da ** (n - k)  # of slot k + 1
            hi, lo = divmod(p, weight)
            head = [
                (((hi * da + e) * weight + lo) * tgt_rep, mul(sign, c))
                for e, c in self.units[q]
            ]
            cols += [
                {h + o: mul(hc, bc) for h, hc in head for o, bc in b_col.items()}
                for b_col in b_maps[k].columns()
            ]
        return SparseMatrix(field, len(states) * da * tgt_rep, len(cols), cols)


def _check_parts(n, rows, inside, outside):
    """ComplexInconsistencyError unless the columns of d_n inside have
    every row in C^s_(n-1), rows its part mask, and those outside none."""
    if not all(map(rows.__getitem__, set().union(*inside))) or any(
        map(rows.__getitem__, set().union(*outside))
    ):
        raise ComplexInconsistencyError(
            f"complex inconsistency: a boundary column at degree {n} "
            "leaves its Peirce part"
        )


@dataclass(frozen=True)
class TopColumns:
    """The built columns of the top boundary d_T.

    mask flags them among the degree-T chains and matrix holds them in
    index order; build(mask) builds the columns of d_T at the chains a
    mask flags.  Of a split complex (`of`) they are the columns read:
    those at C^s_T, which elimination reads, and those at the support of
    h_(T-1), which the certificate reads; homotopy is h_(T-1) with its
    rows renumbered to the columns of matrix.  Of an unsplit one none
    is built at first, and `ChainComplex` builds them in index order as
    elimination reads them."""

    mask: bytes
    matrix: SparseMatrix
    homotopy: SparseMatrix | None
    build: object

    @classmethod
    def of(cls, split, build):
        top = len(split.masks) - 1
        h = split.homotopy(top - 1)
        mask = bytearray(split.masks[top])
        for r in set().union(*h.columns()):
            mask[r] = 1
        mask = bytes(mask)
        chains = itertools.compress(range(len(mask)), mask)
        position = dict(zip(chains, itertools.count()))
        cols = [{position[r]: c for r, c in col.items()} for col in h.columns()]
        matrix = build(mask)
        return cls(mask, matrix, SparseMatrix(h.field, matrix.cols, h.cols, cols), build)

    def joined(self, mask, new):
        """The top with new, the columns at the chains mask flags, none of
        them built, joined to the built columns, which stay the same
        objects, in index order."""
        built, fresh = iter(self.matrix.columns()), iter(new.columns())
        cols = [next(built) if b else next(fresh) for b, f in zip(self.mask, mask) if b or f]
        union = int.from_bytes(self.mask, "big") | int.from_bytes(mask, "big")
        matrix = SparseMatrix(new.field, new.rows, len(cols), cols)
        return TopColumns(union.to_bytes(len(mask), "big"), matrix, self.homotopy, self.build)


@dataclass(frozen=True)
class HomologyResult:
    dim: int
    reps: tuple | None = None


class ChainComplex:
    """Built complex: graded dimensions plus boundary matrices.

    boundaries[n] maps degree n to degree n-1; boundaries[0] is the zero
    map to a rank-0 space, so H_0 = C_0 / im d_1.  d_n d_(n+1) = 0 is
    verified exactly on every built column before it is read, so im d_n
    lies in ker d_(n-1): once dim ker d_(n-1) is known (from a memoized
    cycle space or rank, or dims[0] at n = 1), ranking or spanning d_n stops
    as soon as its echelon reaches that dimension, with the same result.
    Likewise the cycle space of d_n stops eliminating rows at rank d_n
    once that is memoized.  No elimination is run only to learn a bound.

    With a `PeirceSplit`, only the nonzero cyclic columns of d_n are
    eliminated (see the module notes), bounded by dim ker d_(n-1) less
    the rank of d_n on C^non; the image adds the cycle RREF rows with a
    pivot in C^non, and the union of the two RREF bases is canonical
    since their supports are disjoint.  Its top boundary d_T is made
    only at C^s_T and at the support of h_(T-1) (a `TopColumns`), which
    is all that elimination and the certificate read; the certificate
    reuses that h_(T-1).  `boundary(T)` and `boundaries` still give the
    full d_T: on first request the other columns, all in C^non_T, are
    built, checked against d_(T-1) and the parts (the labels keep them
    in C^non, see the module notes), and joined to the built ones.
    Without a split, d_T is built in blocks as ranking or spanning it
    reads them, and only up to the rank bound (see the module notes).
    `homology_basis` reads C^s only: its cycles are the kernel of the
    C^s columns of d_n, stopped at rank d_n less the rank on C^non, and
    its boundaries the image of the cyclic columns of d_(n+1), stopped
    at the dimension of those cycles, while `cycle_space` and
    `boundary_image` stay the full subspaces.
    Rank, image and cycle computations are memoized; the answers do not
    change once built.
    """

    def __init__(self, field, dims, boundaries, split=None, top=None):
        """With top, a `TopColumns`, boundaries stop below the top
        degree T and d_T is built only at top.mask until more of it is
        read or it is asked for."""
        self._boundaries = tuple(boundaries)
        self._top = top
        _verify_dd_zero(self._boundaries + ((top.matrix,) if top else ()))
        self.field = field
        self.dims = tuple(dims)
        self.split = split
        self._cyclic = None  # per degree, the nonzero columns of d_n in C^s
        self._exact_cycles = None  # per degree n < T, d_(n+1) at supp h_n
        self._ranks = {}
        self._images = {}
        self._cyclic_images = {}  # im d_n on C^s, all of im d_n without a split
        self._cycles = {}
        self._cyclic_cycles = {}  # ker d_n on C^s
        self._homology = {}

    @property
    def max_degree(self):
        return len(self.dims) - 1

    @property
    def boundaries(self):
        """Every boundary, d_T in full."""
        if len(self._boundaries) <= self.max_degree:
            self.boundary(self.max_degree)
        return self._boundaries

    def boundary(self, n):
        if not 1 <= n <= self.max_degree:
            raise PreconditionError(f"no boundary at degree {n}")
        if n == len(self._boundaries):
            self._complete_top()
        return self._boundaries[n]

    def _complete_top(self):
        """Build every column of d_T outside top.mask, in one call."""
        self._extend_top(self._top.mask.translate(_FLIP))

    def _extend_top(self, mask):
        """Build the columns of d_T at the chains mask flags, none of them
        built yet; check that d_(T-1) kills them and, with a split, that
        they stay in C^non (the labels keep them there, see the module
        notes); and join them to the built columns, d_T in full once every
        chain is built, while the top stays what the certificate reads.
        Returns the new columns."""
        top, n = self._top, self.max_degree
        new = top.build(mask)
        _verify_dd_zero(self._boundaries + (new,), start=n - 1)
        if self.split is not None:
            _check_parts(n, self.split.masks[n - 1], (), new.columns())
        top = top.joined(mask, new)
        if top.matrix.cols == self.dims[n]:
            self._boundaries += (top.matrix,)
        else:
            self._top = top
        return new

    def _top_columns(self):
        """The columns of d_T in index order, each block built and checked
        as it is first read: TOP_BLOCK chains, then each block as many as
        are built so far."""
        yield from self._top.matrix.columns()
        total = self.dims[-1]
        while len(self._boundaries) == self.max_degree:
            built = self._top.matrix.cols
            end = min(total, built + max(built, TOP_BLOCK))
            mask = bytes(built) + b"\x01" * (end - built) + bytes(total - end)
            yield from self._extend_top(mask).columns()

    def _built(self, n):
        """(d, part): the columns of d_n read by elimination and the
        certificate, and the C^s flag of each."""
        masks, top = self.split.masks, self._top
        if top is not None and n == self.max_degree:
            return top.matrix, bytes(itertools.compress(masks[n], top.mask))
        return self._boundaries[n], masks[n]

    def _rank_bound(self, n, known):
        """dim ker d_(n-1) less known, the rank of d_n on C^non: an upper
        bound on the rank of the columns of d_n eliminated, if known."""
        if n == 1:
            return self.dims[0] - known
        if n - 1 in self._cyclic_cycles:
            return self._cyclic_cycles[n - 1].dim
        if n - 1 in self._cycles:
            return self._cycles[n - 1].dim - known
        if n - 1 in self._ranks:
            return self.dims[n - 1] - self._ranks[n - 1] - known
        return None

    def _certify_split(self):
        """Check the split once: the nonzero built columns of each
        boundary in C^s have every row in C^s, those in C^non none, and
        dh + hd is the identity on C^non_n for every n < max_degree.
        Keeps the nonzero cyclic columns of each boundary, and the nonzero
        columns of d_(n+1) at the support of h_n, which span the cycles of
        C^non_n: z = d(hz) for each of them."""
        field, one, masks, top = self.field, self.field.one, self.split.masks, self._top
        cyclic, noncyclic = [()], [()]
        for n in range(1, self.max_degree + 1):
            (d, part), rows = self._built(n), masks[n - 1]
            inside = list(filter(None, itertools.compress(d.columns(), part)))
            outside = list(itertools.compress(d.columns(), part.translate(_FLIP)))
            _check_parts(n, rows, inside, outside)
            cyclic.append(inside)
            noncyclic.append(outside)
        prev, exact = None, []
        for n in range(self.max_degree):
            flip = masks[n].translate(_FLIP)
            last = top is not None and n == self.max_degree - 1
            h = top.homotopy if last else self.split.homotopy(n)
            on_non = list(itertools.compress(h.columns(), flip))
            count = len(on_non)
            d = self._built(n + 1)[0]
            lhs = d @ SparseMatrix(field, h.rows, count, on_non)
            if prev is not None:
                lhs = lhs + prev @ SparseMatrix(field, self.dims[n - 1], count, noncyclic[n])
            ident = itertools.compress(range(self.dims[n]), flip)
            if lhs != SparseMatrix(field, self.dims[n], count, [{j: one} for j in ident]):
                raise ComplexInconsistencyError(
                    "complex inconsistency: Peirce contracting homotopy fails "
                    f"at degree {n}"
                )
            prev = h
            exact.append(tuple(filter(None, map(d.column, sorted(set().union(*on_non))))))
        self._cyclic, self._exact_cycles = cyclic, exact

    def _eliminated(self, n):
        """(d, known, bound): the columns of d_n that elimination needs,
        all of them without a split and its nonzero cyclic ones with one;
        the rank known of the others; and a bound on the rank of d, or
        None.  Without a split, a top not yet built in full is built as
        it is read when there is a bound to stop at, and in full first
        when there is none."""
        if self.split is not None and 1 <= n <= self.max_degree:
            if self._cyclic is None:
                self._certify_split()
            cols, known = self._cyclic[n], self.split.noncyclic_rank(n)
            d = SparseMatrix(self.field, self.dims[n - 1], len(cols), cols)
            return d, known, self._rank_bound(n, known)
        bound = self._rank_bound(n, 0)
        if bound is not None and n == len(self._boundaries) == self.max_degree:
            return _Growing(self.field, self.dims[n - 1], self._top_columns), 0, bound
        return self.boundary(n), 0, bound  # which raises on a degree out of range

    def boundary_rank(self, n, deadline=None):
        if n == 0:
            return 0
        if n not in self._ranks:
            d, known, bound = self._eliminated(n)
            self._ranks[n] = known + rank(d, deadline=deadline, bound=bound)
        return self._ranks[n]

    def _cyclic_image(self, n, deadline=None):
        """Image of the eliminated columns of d_n; it fixes rank d_n."""
        if n not in self._cyclic_images:
            d, known, bound = self._eliminated(n)
            image = self._cyclic_images[n] = image_basis(d, deadline=deadline, bound=bound)
            self._ranks.setdefault(n, known + image.dim)
        return self._cyclic_images[n]

    def boundary_image(self, n, deadline=None):
        """Image of d_n inside degree n-1 chains; it also fixes rank d_n."""
        if n not in self._images:
            rest = []  # (pivot, row) of the cycle RREF rows in C^non
            if self.split is not None and 1 <= n <= self.max_degree:
                mask, cycles = self.split.masks[n - 1], self.cycle_space(n - 1, deadline)
                rest = [(p, v) for p, v in zip(cycles.pivots, cycles.basis) if not mask[p]]
            image = self._cyclic_image(n, deadline)
            if rest:
                rest += zip(image.pivots, image.basis)
                pivots, basis = zip(*sorted(rest, key=itemgetter(0)))
                image = Subspace(self.field, image.ambient_dim, basis, pivots)
            self._images[n] = image
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

    def _cyclic_cycle_space(self, n, deadline=None):
        """ker d_n on C^s: the kernel of the C^s columns of d_n, its rows
        and columns renumbered to C^s and back monotonically, so that it
        is still the canonical RREF, stopped at rank d_n less the rank on
        C^non once rank d_n is known."""
        if n not in self._cyclic_cycles:
            if self._cyclic is None:
                self._certify_split()
            field, masks, (d, part) = self.field, self.split.masks, self._built(n)
            at = dict(zip(itertools.compress(range(d.rows), masks[n - 1]), itertools.count()))
            cols = itertools.compress(d.columns(), part)
            cols = [{at[r]: v for r, v in col.items()} for col in cols]
            bound = self._ranks[n] - self.split.noncyclic_rank(n) if n in self._ranks else None
            kernel = kernel_basis(SparseMatrix(field, len(at), len(cols), cols), deadline, bound)
            chains = list(itertools.compress(range(self.dims[n]), masks[n]))
            basis = [{chains[k]: v for k, v in row.items()} for row in kernel.basis]
            pivots = map(chains.__getitem__, kernel.pivots)
            self._cyclic_cycles[n] = Subspace(field, self.dims[n], basis, pivots)
        return self._cyclic_cycles[n]

    def homology_basis(self, n, deadline=None):
        """The HomologyBasis at degree n, kept like the spaces it is over.
        With a split it is over the cycles and boundaries in C^s_n only,
        and C^non_n is its `ExactPart`, whose cycles are spanned by the
        columns of d_(n+1) at the support of h_n."""
        if n not in self._homology:
            exact = None
            if self.split is None:
                spaces = self.cycle_space(n, deadline), self.boundary_image(n + 1, deadline)
            else:
                cycles = self._cyclic_cycle_space(n, deadline)
                spaces = cycles, self._cyclic_image(n + 1, deadline)
                d = self._boundaries[n]
                exact = ExactPart(self.split.masks[n], d, self._exact_cycles[n])
            self._homology[n] = HomologyBasis(*spaces, deadline=deadline, exact=exact)
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
    """ENTRY_BYTES per potential entry of the full boundaries of dims.
    It over-estimates a complex whose top boundary is built only in
    part: a split one, and an unsplit one whose elimination stops at its
    rank bound; calibrating it is ROADMAP item 7."""
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


def _verify_dd_zero(boundaries, start=1):
    """d_n d_(n+1) = 0 for n >= start, or ComplexInconsistencyError."""
    for n in range(start, len(boundaries) - 1):
        if not (boundaries[n] @ boundaries[n + 1]).is_zero():
            raise ComplexInconsistencyError(
                f"complex inconsistency: boundary composite nonzero at degree {n + 1}"
            )


def build_classical_complex(
    a, m, max_degree, degree_cap=DEFAULT_DEGREE_CAP, guard_bytes=DEFAULT_GUARD_BYTES
):
    # perfbench/tracing.py wraps this by name
    return build_secondary_complex(trivial_triple(a), m, max_degree, degree_cap, guard_bytes)


def build_secondary_complex(
    t, m, max_degree, degree_cap=DEFAULT_DEGREE_CAP, guard_bytes=DEFAULT_GUARD_BYTES
):
    """The secondary complex of (t, m) up to max_degree, size-guarded
    before anything is built, with its `PeirceSplit`; the top boundary is
    built at its `TopColumns` only, none of it without a split.
    `ChainComplex` verifies boundary-squared."""
    field = t.A.field
    dims = [secondary_scheme(t, m, n).total for n in range(max_degree + 1)]
    _check_guards(dims, max_degree, degree_cap, guard_bytes)
    split = PeirceSplit.of(t.A, t.B, t.eps.sparse, m, max_degree)
    top, build = None, functools.partial(secondary_boundary, t, m, max_degree)
    if split is not None and max_degree:
        top = TopColumns.of(split, build)
    elif max_degree:  # nothing built
        top = TopColumns(bytes(dims[-1]), SparseMatrix.zero(field, dims[-2], 0), None, build)
    boundaries = [SparseMatrix.zero(field, 0, dims[0])]
    boundaries += [secondary_boundary(t, m, n) for n in range(1, max_degree)]
    return ChainComplex(field, dims, boundaries, split, top)
