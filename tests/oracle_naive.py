"""Independent dense/symbolic oracles used to cross-check the engine.

Deliberately naive: dense Fraction Gaussian elimination, and boundary
operators that manipulate tuple-keyed symbolic tensors (the b-part is a
mapping from index pairs (i, j) to basis indices) with no packed
indexing and none of the engine's sparse machinery.
"""

from fractions import Fraction
from itertools import product


def naive_rank(rows, p=None):
    """Row count of a dense echelon form, textbook elimination; with p,
    over GF(p), each rational entry reduced mod p first."""
    if p is None:
        m = [list(map(Fraction, r)) for r in rows]
        inv = lambda x: 1 / x  # noqa: E731
    else:
        m = [[_mod(v, p) for v in r] for r in rows]
        inv = lambda x: pow(x, -1, p)  # noqa: E731
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(m)):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col] * inv(pv)
                for c in range(ncols):
                    m[r][c] -= f * m[rank][c]
                    if p is not None:
                        m[r][c] %= p
        rank += 1
    return rank


def _mod(value, p):
    value = Fraction(value)
    return value.numerator * pow(value.denominator, -1, p) % p


def alg_mul(a, x, y):
    """Dense product of two coefficient lists over a structure-constant table."""
    out = [Fraction(0)] * a.dim
    for i in range(a.dim):
        for j in range(a.dim):
            if x[i] and y[j]:
                for k in range(a.dim):
                    out[k] += x[i] * y[j] * Fraction(a.table[i][j][k])
    return out


def basis_elt(dim, i):
    v = [Fraction(0)] * dim
    v[i] = Fraction(1)
    return v


def act_left(mod, avec, mvec):
    out = [Fraction(0)] * mod.dim
    for i in range(len(avec)):
        for mm in range(mod.dim):
            if avec[i] and mvec[mm]:
                for k in range(mod.dim):
                    out[k] += avec[i] * mvec[mm] * Fraction(mod.left[i][mm][k])
    return out


def act_right(mod, mvec, avec):
    out = [Fraction(0)] * mod.dim
    for i in range(len(avec)):
        for mm in range(mod.dim):
            if avec[i] and mvec[mm]:
                for k in range(mod.dim):
                    out[k] += avec[i] * mvec[mm] * Fraction(mod.right[i][mm][k])
    return out


def eps_apply(t, bvec):
    out = [Fraction(0)] * t.A.dim
    for j in range(t.B.dim):
        if bvec[j]:
            for u in range(t.A.dim):
                out[u] += bvec[j] * Fraction(t.eps.matrix[u][j])
    return out


def _add_term(chain, key, coeff):
    if coeff:
        chain[key] = chain.get(key, Fraction(0)) + coeff
        if not chain[key]:
            del chain[key]


def naive_secondary_face(t, m, key, face):
    """One face of the secondary boundary on a basis chain.

    key = (mu, alphas, beta_map) with beta_map a tuple of ((i, j), b)
    sorted by pair; the result is a chain dict over such keys (without
    the face sign).
    """
    mu, alphas, beta_items = key
    betas = dict(beta_items)
    n = len(alphas)
    a, b = t.A, t.B
    out = {}
    if face == 0:
        prod_b = [Fraction(v) for v in b.unit]
        for j in range(2, n + 1):
            prod_b = alg_mul(b, prod_b, basis_elt(b.dim, betas[(1, j)]))
        coeff_a = alg_mul(a, basis_elt(a.dim, alphas[0]), eps_apply(t, prod_b))
        mvec = act_right(m, basis_elt(m.dim, mu), coeff_a)
        new_betas = tuple(
            sorted(((i - 1, j - 1), betas[(i, j)]) for (i, j) in betas if i >= 2)
        )
        for mu2 in range(m.dim):
            _add_term(out, (mu2, alphas[1:], new_betas), mvec[mu2])
        return out
    if face == n:
        prod_b = [Fraction(v) for v in b.unit]
        for j in range(1, n):
            prod_b = alg_mul(b, prod_b, basis_elt(b.dim, betas[(j, n)]))
        coeff_a = alg_mul(a, basis_elt(a.dim, alphas[-1]), eps_apply(t, prod_b))
        mvec = act_left(m, coeff_a, basis_elt(m.dim, mu))
        new_betas = tuple(
            sorted(((i, j), betas[(i, j)]) for (i, j) in betas if j <= n - 1)
        )
        for mu2 in range(m.dim):
            _add_term(out, (mu2, alphas[:-1], new_betas), mvec[mu2])
        return out
    i = face
    entry = alg_mul(
        a,
        alg_mul(
            a,
            basis_elt(a.dim, alphas[i - 1]),
            eps_apply(t, basis_elt(b.dim, betas[(i, i + 1)])),
        ),
        basis_elt(a.dim, alphas[i]),
    )
    # merged b-values: per new pair either a fixed index or a product vector
    merged = {}
    for k in range(1, n):
        for l in range(k + 1, n):
            if l < i:
                merged[(k, l)] = ("one", betas[(k, l)])
            elif l == i:
                merged[(k, l)] = (
                    "vec",
                    alg_mul(
                        b,
                        basis_elt(b.dim, betas[(k, i)]),
                        basis_elt(b.dim, betas[(k, i + 1)]),
                    ),
                )
            elif k < i:
                merged[(k, l)] = ("one", betas[(k, l + 1)])
            elif k == i:
                merged[(k, l)] = (
                    "vec",
                    alg_mul(
                        b,
                        basis_elt(b.dim, betas[(i, l + 1)]),
                        basis_elt(b.dim, betas[(i + 1, l + 1)]),
                    ),
                )
            else:
                merged[(k, l)] = ("one", betas[(k + 1, l + 1)])
    pairs = sorted(merged)
    choices = []
    for pair in pairs:
        kind, val = merged[pair]
        if kind == "one":
            choices.append([(val, Fraction(1))])
        else:
            choices.append([(idx, c) for idx, c in enumerate(val) if c])
    for k_entry in range(a.dim):
        if not entry[k_entry]:
            continue
        new_alphas = alphas[: i - 1] + (k_entry,) + alphas[i + 1 :]
        for combo in product(*choices):
            coeff = entry[k_entry]
            for _, c in combo:
                coeff *= c
            new_betas = tuple(
                sorted(zip(pairs, (idx for idx, _ in combo)))
            )
            _add_term(out, (mu, new_alphas, new_betas), coeff)
    return out


def naive_secondary_boundary(t, m, n):
    """The whole boundary as {(src_key, tgt_key): coeff}."""
    a, b = t.A, t.B
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    entries = {}
    for mu in range(m.dim):
        for alphas in product(range(a.dim), repeat=n):
            for bvals in product(range(b.dim), repeat=len(pairs)):
                key = (mu, alphas, tuple(sorted(zip(pairs, bvals))))
                total = {}
                for face in range(n + 1):
                    sign = Fraction(-1) ** face
                    for tgt, c in naive_secondary_face(t, m, key, face).items():
                        _add_term(total, tgt, sign * c)
                for tgt, c in total.items():
                    entries[(key, tgt)] = c
    return entries


def naive_classical_boundary(a, m, n):
    """Classical boundary as {(src_key, tgt_key): coeff}, keys (mu, alphas)."""
    entries = {}
    for mu in range(m.dim):
        for alphas in product(range(a.dim), repeat=n):
            total = {}
            # face 0
            mvec = act_right(m, basis_elt(m.dim, mu), basis_elt(a.dim, alphas[0]))
            for mu2 in range(m.dim):
                _add_term(total, (mu2, alphas[1:]), mvec[mu2])
            # middle faces
            for i in range(1, n):
                prod = alg_mul(
                    a, basis_elt(a.dim, alphas[i - 1]), basis_elt(a.dim, alphas[i])
                )
                for k in range(a.dim):
                    _add_term(
                        total,
                        (mu, alphas[: i - 1] + (k,) + alphas[i + 1 :]),
                        Fraction(-1) ** i * prod[k],
                    )
            # face n
            mvec = act_left(m, basis_elt(a.dim, alphas[-1]), basis_elt(m.dim, mu))
            for mu2 in range(m.dim):
                _add_term(
                    total, (mu2, alphas[:-1]), Fraction(-1) ** n * mvec[mu2]
                )
            for tgt, c in total.items():
                entries[((mu, alphas), tgt)] = c
    return entries
