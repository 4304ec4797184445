"""Exact sparse linear algebra over the rationals or a prime field.

Vectors are dicts {index: nonzero scalar}; matrices are column-major
tuples of such dicts.  Elimination over the rationals is fraction-free:
echelon rows are kept as integer vectors (denominators cleared on
entry) combined by integer cross-multiplication, and a row is divided
by its content gcd when it is stored as a new pivot row and when a
later pivot row updates it, which keeps stored entries small without
dense Bareiss bookkeeping or a gcd pass per step.  `rank` and
`image_basis` take an optional upper bound on the rank from their
caller and stop inserting once the echelon reaches it: every later
column already lies in the span, so the result is the same.  They draw
no column past it, so the columns may be built as they are drawn.  A
chain complex passes dim ker d_(n-1) for d_n.  Stored echelon rows are
kept fully reduced, zero at every other pivot: an insert makes one pass over
the pivots in the vector's own support, and a new pivot row is stepped
out of the stored rows that hold its column.  So the canonical RREF
only divides each row by its lead, exactly: an entry the lead divides
becomes an `int`, so the RREF bases of integral data carry no
`Fraction`.  Each field has one row step, chosen when an `Echelon` is
made, and it serves all elimination: `TaggedEchelon` (behind `solve` and
`HomologyBasis`) is an `Echelon` whose tags are coordinates past the
ambient dimension, and its RREF is formed only when first asked for.
Subspaces are canonicalized to reduced row echelon form, so equality
of subspaces is a syntactic check, and reducing a vector visits only
the pivots in its support.  `kernel_basis` eliminates the rows of a
matrix with its columns in reversed order, so the null-space vectors it
writes down from that RREF are already the canonical basis, and it
stops at a rank bound as `rank` does.  A chain complex eliminates the
columns of each boundary at most once: the image it needs for
representatives also gives the boundary's rank, which bounds the rows
its cycle space eliminates.  Chain maps that act slot by slot are
built with one primitive, `SparseMatrix.kron`, whose index order (first
factor most significant) is the mixed-radix order of the chain index;
the same order indexes the columns of a structure tensor, which
`bilinear` contracts.
`commutation` swaps two neighbouring factors of such a product, so an
axiom that takes its arguments in another order is still one matrix
identity, and `tensor_bilinear` is the structure tensor that two of
them make on tensor products, the one primitive behind tensor algebras,
tensor bimodules and the pairings of the matrix Morita context.

Sparse products have one accumulation kernel, behind `apply` and `@`
(and so behind `bilinear`, one `apply`) and the face heads of a
boundary, which adds in the scalars' own arithmetic with no field call
per term.
Over GF(p) it sums raw `int` products and reduces mod p once per entry.
Over Q it scales each row of the left factor that holds a fraction by
the lcm of its denominators, once per product, and each right column by
the lcm of its own as it reaches it; it adds in `int` and divides each
entry once, so an integral value stays an `int`.  When the right factor
is the narrower, only the left columns it reads are cleared.  An empty
right column costs one test, and the right factor is never copied: in
the d∘d check d_n d_(n+1) it is the larger boundary.  Sums have a
kernel of their own, `vec_add_scaled`, behind `+`, `-` and
`Subspace.reduce`: routed through the product kernel they ran slower.

Everything here is immutable after construction and all operations are
pure, so concurrent use on distinct inputs is safe.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, inf, lcm

from .errors import (
    AmbientMismatchError,
    BudgetExceededError,
    FieldMismatchError,
    NotAChainMapError,
    PreconditionError,
)
from .fields import Rationals, _integral


def vec_add_scaled(field, acc, scale, vec):
    """acc += scale * vec, in place, dropping cancellations."""
    for k, v in vec.items():
        nv = field.add(acc.get(k, field.zero), field.mul(scale, v))
        if nv == field.zero:
            acc.pop(k, None)
        else:
            acc[k] = nv


def bilinear(m, y_dim, x, y):
    """m applied to x (x) y, the tensor whose basis vector e_i (x) e_j is
    column i * y_dim + j of m.  Every product, action and pairing given
    by structure constants is this contraction of its sparse form, one
    `apply` of the Kronecker vector."""
    mul = m.field.mul
    return m.apply(
        {i * y_dim + j: mul(xi, yj) for i, xi in x.items() for j, yj in y.items()}
    )


def commutation(field, m, n):
    """The (n*m) x (m*n) matrix of k^m (x) k^n -> k^n (x) k^m,
    e_i (x) e_j -> e_j (x) e_i: it moves a factor past its neighbour in
    a Kronecker product."""
    one = field.one
    cols = [{j * m + i: one} for i in range(m) for j in range(n)]
    return SparseMatrix(field, n * m, m * n, cols)


def tensor_bilinear(m1, x1, y1, m2, x2, y2):
    """(m1 (x) m2)(I_x1 (x) K(x2, y1) (x) I_y2): the bilinear map on
    (k^x1 (x) k^x2) (x) (k^y1 (x) k^y2) that two structure tensors m1 on
    k^x1 (x) k^y1 and m2 on k^x2 (x) k^y2 make, in `bilinear`'s column
    order."""
    field = m1.field
    ident = SparseMatrix.identity
    shuffle = ident(field, x1).kron(commutation(field, x2, y1)).kron(ident(field, y2))
    return m1.kron(m2) @ shuffle


def _check_same_field(a, b):
    if a.field != b.field:
        raise FieldMismatchError(f"mixed fields {a.field!r} and {b.field!r}")


def _clear_rows(columns):
    """(columns, scale) for rational columns, a sequence or a dict of
    them: each row that holds a fraction is multiplied by the lcm of its
    denominators, which scale maps the row to, so that every entry is an
    int, and the cleared columns come back as a dict under the same
    indices.  With no fraction, columns come back as they are, with an
    empty scale."""
    items = columns.items() if isinstance(columns, dict) else tuple(enumerate(columns))
    scale = {}
    for _, col in items:
        for r, v in col.items():
            if type(v) is not int:
                scale[r] = lcm(scale.get(r, 1), v.denominator)
    if not scale:
        return columns, scale
    cleared = {
        j: {
            r: v.numerator * (scale[r] // v.denominator) if r in scale else v
            for r, v in col.items()
        }
        for j, col in items
    }
    return cleared, scale


def _products(field, left, right):
    """[left @ col for col in right], left a sequence or a dict of columns
    under the keys of each col: the one accumulation kernel behind
    `apply` and `@`.  It adds in the scalars' own arithmetic, with no
    field call per term.  Over GF(p) raw int products are summed and
    reduced mod p once per entry.  Over Q the rows of left that hold a
    fraction are cleared once (`_clear_rows`, lcm r_k for row k), each
    col is scaled to integers by the lcm s of its denominators, and the
    int sum at row k is divided by s * r_k once, so an integral value
    stays an int.  An empty col is skipped at once."""
    if isinstance(field, Rationals):
        left, row_scale = _clear_rows(left)
    else:
        p, row_scale = field.p, None
    out = []
    for col in right:
        if not col:
            out.append({})
            continue
        s = 1
        if row_scale is not None:
            for c in col.values():
                if type(c) is not int:
                    s = lcm(s, c.denominator)
        acc = {}
        get = acc.get
        for j, c in col.items():
            if s != 1:
                c = c.numerator * (s // c.denominator)
            for k, v in left[j].items():
                acc[k] = get(k, 0) + c * v
        if row_scale is None:
            out.append({k: r for k, v in acc.items() if (r := v % p)})
        elif s == 1 and not row_scale:
            out.append({k: v for k, v in acc.items() if v})
        else:
            res = {}
            for k, v in acc.items():
                if v:
                    d = s * row_scale.get(k, 1)
                    res[k] = v if d == 1 else _integral(Fraction(v, d))
            out.append(res)
    return out


class SparseMatrix:
    """Immutable sparse matrix, stored as a tuple of column dicts."""

    __slots__ = ("field", "rows", "cols", "_columns")

    def __init__(self, field, rows, cols, columns):
        assert len(columns) == cols
        self.field = field
        self.rows = rows
        self.cols = cols
        self._columns = tuple(columns)

    @classmethod
    def from_columns(cls, field, rows, dense_columns):
        """Matrix whose columns are the given dense vectors, zeros dropped."""
        zero = field.zero
        columns = [
            {r: v for r, v in enumerate(col) if v != zero} for col in dense_columns
        ]
        return cls(field, rows, len(columns), columns)

    @classmethod
    def identity(cls, field, n):
        return cls(field, n, n, [{i: field.one} for i in range(n)])

    @classmethod
    def zero(cls, field, rows, cols):
        return cls(field, rows, cols, [{} for _ in range(cols)])

    def column(self, j):
        return self._columns[j]

    def columns(self):
        return self._columns

    def entries(self):
        for c, col in enumerate(self._columns):
            for r, v in col.items():
                yield (r, c), v

    @property
    def nnz(self):
        return sum(len(col) for col in self._columns)

    def is_zero(self):
        return all(not col for col in self._columns)

    def transpose(self):
        cols = [{} for _ in range(self.rows)]
        for c, col in enumerate(self._columns):
            for r, v in col.items():
                cols[r][c] = v
        return SparseMatrix(self.field, self.cols, self.rows, cols)

    def kron(self, other):
        """Kronecker product self (x) other, the first index most
        significant: entry (i*r + k, j*c + l) is self[i, j] * other[k, l].
        An entry that is the field's one object (as in identities and
        permutations) is not multiplied."""
        _check_same_field(self, other)
        mul, one, r = self.field.mul, self.field.one, other.rows
        cols = [
            {
                i * r + k: b if a is one else a if b is one else mul(a, b)
                for i, a in x.items()
                for k, b in y.items()
            }
            for x in self._columns
            for y in other._columns
        ]
        return SparseMatrix(self.field, self.rows * r, self.cols * other.cols, cols)

    def apply(self, vec):
        """Matrix @ sparse vector; over Q only the columns vec reads are
        cleared."""
        cols = self._columns
        if isinstance(self.field, Rationals):
            cols = {j: cols[j] for j in vec}
        return _products(self.field, cols, (vec,))[0]

    def __matmul__(self, other):
        """self @ other; over Q, when other is the narrower factor, only the
        columns of self that it reads are cleared, as in `apply`."""
        _check_same_field(self, other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        cols = self._columns
        if isinstance(self.field, Rationals) and other.cols < self.cols:
            cols = {j: cols[j] for j in set().union(*other._columns)}
        cols = _products(self.field, cols, other._columns)
        return SparseMatrix(self.field, self.rows, other.cols, cols)

    def __add__(self, other):
        _check_same_field(self, other)
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        field = self.field
        cols = []
        for j in range(self.cols):
            col = dict(self._columns[j])
            vec_add_scaled(field, col, field.one, other.column(j))
            cols.append(col)
        return SparseMatrix(field, self.rows, self.cols, cols)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(self.field.neg(self.field.one))

    def scale(self, a):
        mul = self.field.mul
        cols = [
            {k: w for k, v in col.items() if (w := mul(a, v))} for col in self._columns
        ]
        return SparseMatrix(self.field, self.rows, self.cols, cols)

    @property
    def shape(self):
        return (self.rows, self.cols)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.shape == other.shape
            and self._columns == other._columns
        )

    def __hash__(self):
        """Over (field, shape): equal matrices hash alike, so frozen
        dataclasses that hold matrices stay hashable."""
        return hash((self.field, self.shape))

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz}, {self.field!r})"

    def over(self, field):
        """This matrix with each entry, an exact rational, mapped into
        field; entries that vanish there are dropped."""
        conv, zero = field.from_rational, field.zero
        cols = [
            {r: c for r, v in col.items() if (c := conv(v)) != zero}
            for col in self._columns
        ]
        return SparseMatrix(field, self.rows, self.cols, cols)

    def to_dense(self):
        zero = self.field.zero
        return [
            [self._columns[c].get(r, zero) for c in range(self.cols)]
            for r in range(self.rows)
        ]


def _int_rows(vec):
    """Clear denominators of a rational vector; returns a gcd-1 int dict."""
    den = lcm(*{v.denominator for v in vec.values()})
    if den == 1:
        row = {k: v.numerator for k, v in vec.items()}
    else:
        row = {k: v.numerator * (den // v.denominator) for k, v in vec.items()}
    return _normalize_int_row(row)


def _normalize_int_row(row):
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    if g > 1:
        for k in row:
            row[k] //= g
    if row and row[min(row)] < 0:
        for k in row:
            row[k] = -row[k]
    return row


def _step_q(row, piv, c):
    """Clear column c of an int row with the stored row piv, fraction-free:
    row := (piv[c] row - row[c] piv) / gcd(piv[c], row[c])."""
    a = piv[c]
    b = row[c]
    g = gcd(a, b)
    fa, fb = a // g, b // g
    if fa != 1:
        for k in row:
            row[k] *= fa
    for k, v in piv.items():
        nv = row.get(k, 0) - fb * v
        if nv:
            row[k] = nv
        else:
            del row[k]


def _step_mod(p):
    """The row step over GF(p): clear column c of row with the lead-1 row piv."""

    def step(row, piv, c):
        b = row[c]
        for k, v in piv.items():
            nv = (row.get(k, 0) - b * v) % p
            if nv:
                row[k] = nv
            else:
                del row[k]

    return step


class Echelon:
    """Online reduced row-echelon accumulator.

    Rows are stored in raw form: gcd-normalized int vectors over QQ,
    lead-1 residue vectors over GF(p).  Every stored row is zero at every
    other pivot.  A vector is inserted by one pass over the pivots in its
    own support: a row step brings in no pivot column, so no step
    cascades.  A new pivot row c is then stepped out of the stored rows
    that hold column c, found through a private index from each column
    to the pivots whose rows may hold it, and each row so updated is
    normalized again.  One row step per field, chosen here, serves both
    loops.  The deadline is checked while a vector is reduced and once
    before a new pivot row is stored, never while stored rows change: an
    insert that runs past it leaves the echelon as it was.
    Insertion order determines nothing but performance; `rref_rows` only
    divides each row by its lead to give the canonical RREF of the row
    space.
    """

    _tags_from = inf  # a row led by a coordinate from here on is dependent

    def __init__(self, field, deadline=None):
        self.field = field
        self.rational = isinstance(field, Rationals)
        self.by_pivot = {}
        self.deadline = deadline
        self._ops = 0
        self._step = _step_q if self.rational else _step_mod(field.p)
        self._holders = {}  # column -> pivots whose rows may hold it

    @property
    def rank(self):
        return len(self.by_pivot)

    def _check_deadline(self):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceededError("elimination ran past its time budget")

    def insert(self, vec):
        """Insert a field-scalar vector; returns its pivot column, or
        None when vec reduces to zero or to a row led by a tag."""
        if self.rational:
            row = _int_rows(vec)
        else:
            p = self.field.p
            row = {k: v % p for k, v in vec.items() if v % p}
        by_pivot, step = self.by_pivot, self._step
        for c in [c for c in row if c in by_pivot]:
            self._ops += 1
            if not self._ops % 512:
                self._check_deadline()
            step(row, by_pivot[c], c)
        c = min(row) if row else inf
        if c >= self._tags_from:
            return None
        self._store(c, row)
        return c

    _insert = insert  # TaggedEchelon's way in: a wrapper on insert sees a row once

    def _store(self, c, row):
        """Store row, reduced at every pivot, as the row of pivot c, and
        step it out of the stored rows that hold column c.  The deadline
        is checked once, before any stored row changes."""
        self._check_deadline()
        if self.rational:
            _normalize_int_row(row)
        else:
            p = self.field.p
            lead_inv = pow(row[c], -1, p)
            row = {k: v * lead_inv % p for k, v in row.items()}
        by_pivot, holders, tags = self.by_pivot, self._holders, self._tags_from
        for r in holders.pop(c, ()):
            held = by_pivot[r]
            if c in held:
                self._ops += 1
                new = [k for k in row if k not in held and k < tags]
                self._step(held, row, c)
                if self.rational:
                    _normalize_int_row(held)
                for k in new:
                    holders.setdefault(k, []).append(r)
        for k in row:
            if k != c and k < tags:
                holders.setdefault(k, []).append(c)
        by_pivot[c] = row

    def rref_rows(self):
        """Lead-1 rows sorted by pivot (the canonical RREF): the stored
        rows, copied and divided by their leads."""
        pivots = sorted(self.by_pivot)
        rows = [dict(self.by_pivot[c]) for c in pivots]
        if self.rational:
            for c, row in zip(pivots, rows):
                lead = row[c]
                for k, v in row.items():
                    row[k] = v // lead if v % lead == 0 else Fraction(v, lead)
        return pivots, rows


class Subspace:
    """Subspace of k^n held as its canonical RREF basis."""

    __slots__ = ("field", "ambient_dim", "basis", "pivots", "_row_at")

    def __init__(self, field, ambient_dim, basis, pivots):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = tuple(basis)
        self.pivots = tuple(pivots)
        self._row_at = dict(zip(self.pivots, self.basis))

    @classmethod
    def span(cls, field, ambient_dim, vectors, deadline=None, bound=None):
        """The span of vectors.  bound, when given, is an upper bound on
        its dimension: once the echelon reaches it, every later vector
        already lies in the span and is not inserted."""
        ech = Echelon(field, deadline=deadline)
        for v in _below(ech, bound, vectors):
            for k in v:
                if k < 0 or k >= ambient_dim:
                    raise ValueError("coordinate index out of range")
            ech.insert(v)
        pivots, rows = ech.rref_rows()
        return cls(field, ambient_dim, rows, pivots)

    @classmethod
    def zero(cls, field, ambient_dim):
        return cls(field, ambient_dim, (), ())

    @classmethod
    def full(cls, field, ambient_dim):
        basis = [{i: field.one} for i in range(ambient_dim)]
        return cls(field, ambient_dim, basis, range(ambient_dim))

    @property
    def dim(self):
        return len(self.basis)

    def reduce(self, vec):
        """Residue of vec modulo this subspace.  The basis is RREF, so a
        row is zero at every other pivot: the coefficient of each pivot
        is vec's own entry, and only the pivots in vec's support are
        visited."""
        field = self.field
        r = {k: v for k, v in vec.items() if v != field.zero}
        row_at = self._row_at
        for p in [p for p in r if p in row_at]:
            vec_add_scaled(field, r, field.neg(r[p]), row_at[p])
        return r

    def contains(self, vec):
        return not self.reduce(vec)

    def coordinates(self, vec):
        """Coefficients of vec on the RREF basis, or None if outside."""
        coords = [vec.get(p, self.field.zero) for p in self.pivots]
        if self.reduce(vec):
            return None
        return coords

    def leq(self, other):
        if not isinstance(other, Subspace):
            raise TypeError("expected a Subspace")
        _check_same_field(self, other)
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatchError(
                f"ambient {self.ambient_dim} vs {other.ambient_dim}"
            )
        return all(other.contains(b) for b in self.basis)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.pivots == other.pivots
            and self.basis == other.basis
        )

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def _below(ech, bound, vectors):
    """vectors, each drawn only while the rank of ech is below bound, so
    that a source which builds its vectors as they are drawn builds none
    past it."""
    if ech.rank != bound:
        for v in vectors:
            yield v
            if ech.rank == bound:
                return


def rank(m, deadline=None, bound=None):
    """Rank of a sparse matrix; deterministic, exact.  bound, when given,
    is an upper bound on the rank: elimination stops once it is reached."""
    ech = Echelon(m.field, deadline=deadline)
    for col in _below(ech, bound, m.columns()):
        ech.insert(col)
    return ech.rank


def kernel_basis(m, deadline=None, bound=None):
    """Null space of m as a canonical Subspace of k^cols; bound, when
    given, is an upper bound on the rank of m, as in `rank`.

    The rows of m are eliminated with their columns in reversed order,
    j -> cols - 1 - j.  Each free column f then has the kernel vector
    e_f - sum_r r[f] e_pivot(r) (r an RREF row, its entries read back in
    the original order), whose least index is f: these vectors are
    already the canonical RREF basis, so nothing is re-spanned."""
    field, last = m.field, m.cols - 1
    ech = Echelon(field, deadline=deadline)
    for row in _below(ech, bound, m.transpose().columns()):
        ech.insert({last - j: v for j, v in row.items()})
    pivots, rref = ech.rref_rows()
    pivot_set = {last - p for p in pivots}
    vectors = {f: {f: field.one} for f in range(m.cols) if f not in pivot_set}
    for p, row in zip(pivots, rref):
        for k, v in row.items():
            if k != p:
                vectors[last - k][last - p] = field.neg(v)
    return Subspace(field, m.cols, vectors.values(), vectors)


def image_basis(m, deadline=None, bound=None):
    """Column space of m as a canonical Subspace of k^rows; bound as in
    `Subspace.span`."""
    return Subspace.span(m.field, m.rows, m.columns(), deadline=deadline, bound=bound)


class TaggedEchelon(Echelon):
    """Echelon with linear bookkeeping tags: tag k of a vector of k^dim is
    coordinate dim + k, so a row led by a tag is dependent and each
    stored row is its own expression in the tagged inserts, which turns
    membership into 'solve for the combination'."""

    def __init__(self, field, dim, tags, deadline=None):
        super().__init__(field, deadline=deadline)
        self._tags_from, self._tags, self._span = dim, tags, None

    def insert(self, vec, tag):
        """Returns the new pivot, or None if vec was dependent."""
        self._span = None
        return self._insert({**vec, **{self._tags_from + k: v for k, v in tag.items()}})

    def express(self, vec):
        """Write vec as a tag-combination, None if vec is outside the span:
        minus the tag coordinates of its residue modulo the tagged RREF."""
        dim, field = self._tags_from, self.field
        if self._span is None:
            pivots, rows = self.rref_rows()
            self._span = Subspace(field, dim + self._tags, rows, pivots)
        residue = self._span.reduce(vec)
        if min(residue, default=dim) < dim:
            return None
        return {k - dim: field.neg(v) for k, v in residue.items()}


def solve(m, rhs):
    """One particular solution of m @ x = rhs (free variables 0), or None."""
    te = TaggedEchelon(m.field, m.rows, m.cols)
    for j, col in enumerate(m.columns()):
        te.insert(col, {j: m.field.one})
    return te.express(rhs)


class QuotientSpace:
    """k^n modulo a subspace, with coordinates on the non-pivot axes."""

    def __init__(self, relations):
        self.field = relations.field
        self.ambient_dim = relations.ambient_dim
        self.relations = relations
        pivot_set = set(relations.pivots)
        self.free = tuple(
            i for i in range(relations.ambient_dim) if i not in pivot_set
        )
        self._free_pos = {f: i for i, f in enumerate(self.free)}

    @property
    def dim(self):
        return len(self.free)

    def project(self, vec):
        r = self.relations.reduce(vec)
        return {self._free_pos[k]: v for k, v in r.items()}

    def lift(self, qvec):
        return {self.free[i]: v for i, v in qvec.items()}


@dataclass(frozen=True)
class ExactPart:
    """A summand of the degree-n chains on which the complex is exact, so
    that a `HomologyBasis` can leave it out: the chains where mask is 0.
    boundary is d_n, and cycles are vectors that span the cycles of the
    summand, each of them a boundary."""

    mask: bytes
    boundary: SparseMatrix
    cycles: tuple


class HomologyBasis:
    """Representatives for cycles modulo boundaries, with class coordinates.

    Representatives are the cycle RREF basis vectors whose classes are
    not already spanned, taken in canonical order.  With an `ExactPart`,
    cycles and boundaries are those of the other summand only, and a
    vector is read in two parts: it is a cycle (a boundary) when its part
    off the exact summand lies in cycles (boundaries) and its part on it
    is a cycle, so a boundary too, and its class is that of the first
    part.  `exact_cycles` then completes the cycle basis to a spanning
    set of all cycles, and the boundary basis to one of all boundaries.
    """

    def __init__(self, cycles, boundaries, deadline=None, exact=None):
        if not boundaries.leq(cycles):  # leq rejects mixed fields and ambients
            raise PreconditionError("boundaries not contained in cycles")
        self.field = cycles.field
        self.cycles, self.boundaries = cycles, boundaries
        self._exact = exact
        self.exact_cycles = () if exact is None else exact.cycles
        self._te = TaggedEchelon(self.field, cycles.ambient_dim, cycles.dim, deadline)
        for b in boundaries.basis:
            self._te.insert(b, {})
        reps = []
        for b in cycles.basis:
            if self._te.insert(b, {len(reps): self.field.one}) is not None:
                reps.append(b)
        self.reps = tuple(reps)

    @property
    def dim(self):
        return len(self.reps)

    def _part(self, vec):
        """vec off the exact summand, or None when its part on the summand
        is not a cycle."""
        exact = self._exact
        if exact is None:
            return vec
        mask = exact.mask
        rest = {k: v for k, v in vec.items() if not mask[k]}
        if not rest:
            return vec
        if exact.boundary.apply(rest):
            return None
        return {k: v for k, v in vec.items() if mask[k]}

    def is_cycle(self, vec):
        part = self._part(vec)
        return part is not None and self.cycles.contains(part)

    def is_boundary(self, vec):
        part = self._part(vec)
        return part is not None and self.boundaries.contains(part)

    def class_coordinates(self, vec):
        """Coordinates of [vec] on the representative classes."""
        part = self._part(vec)
        acc = None if part is None else self._te.express(part)
        if acc is None:
            raise PreconditionError("vector is not a cycle for this basis")
        return acc


def induced_quotient_map(
    f, src_cycles, src_boundaries, tgt_cycles, tgt_boundaries, deadline=None
):
    """Matrix of the map induced by f on homology quotients.

    Raises NotAChainMapError unless f maps src cycles into tgt cycles
    and src boundaries into tgt boundaries.
    """
    # perfbench/tracing.py wraps this by name
    src = HomologyBasis(src_cycles, src_boundaries, deadline=deadline)
    tgt = HomologyBasis(tgt_cycles, tgt_boundaries, deadline=deadline)
    return _induced_map(f, src, tgt)


def _induced_map(f, src, tgt):
    """`induced_quotient_map` between two HomologyBasis objects.  Every
    cycle of src is checked before any boundary, each through spanning
    vectors, the `exact_cycles` among them."""
    if f.cols != src.cycles.ambient_dim or f.rows != tgt.cycles.ambient_dim:
        raise AmbientMismatchError("map shape does not match ambient spaces")
    exact = [f.apply(b) for b in src.exact_cycles]
    if not all(map(tgt.is_cycle, chain(map(f.apply, src.cycles.basis), exact))):
        raise NotAChainMapError("not a chain map at this degree: cycles escape")
    if not all(map(tgt.is_boundary, chain(map(f.apply, src.boundaries.basis), exact))):
        raise NotAChainMapError("not a chain map at this degree: boundaries escape")
    cols = [tgt.class_coordinates(f.apply(rep)) for rep in src.reps]
    return SparseMatrix(f.field, tgt.dim, src.dim, cols)
