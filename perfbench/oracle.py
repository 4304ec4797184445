"""Expected answers, computed apart from the engine.

Boundaries come from the naive symbolic oracle in `tests/oracle_naive.py`
(tuple-keyed chains, dense structure-constant products, no packed
indexing).  Ranks come from `rank` below: textbook elimination on sparse
rows, with Fraction entries over Q and residues mod p over GF(p).  The
dense `naive_rank` of the oracle module takes 40 to 56 s on one degree-4
boundary of a dim-2 triple (2,048 columns), so it is used only by the
self-test, to check `rank` on small matrices.  Chain dimensions come from
the closed formula dim M * dim A^n * dim B^(n(n-1)/2).
"""

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

from oracle_naive import (
    act_left,
    act_right,
    basis_elt,
    naive_classical_boundary,
    naive_secondary_boundary,
)

from workloads import FIELDS, P


def to_field(value, p):
    value = Fraction(value)
    if p is None:
        return value
    return value.numerator * pow(value.denominator, -1, p) % p


def rank(vectors, p=None):
    """Rank of a family of sparse vectors {key: value} over Q or GF(p)."""
    order = {}
    pivots = {}
    for vec in vectors:
        row = {}
        for key, value in vec.items():
            value = to_field(value, p)
            if value:
                row[order.setdefault(key, len(order))] = value
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                inv = 1 / row[c] if p is None else pow(row[c], -1, p)
                pivots[c] = {k: (v * inv if p is None else v * inv % p) for k, v in row.items()}
                break
            f = row[c]
            for k, v in piv.items():
                nv = row.get(k, 0) - f * v
                if p is not None:
                    nv %= p
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
    return len(pivots)


def _columns(entries):
    cols = {}
    for (src, tgt), coeff in entries.items():
        cols.setdefault(src, {})[tgt] = coeff
    return list(cols.values())


def _homology_dims(chain_dims, boundaries, top, p):
    """H_0..H_top from chain dims and the boundaries d_1..d_(top+1)."""
    ranks = [0] + [rank(_columns(b), p) for b in boundaries]
    return [chain_dims[n] - ranks[n] - ranks[n + 1] for n in range(top + 1)]


def secondary_dims(t, m, top, fields=FIELDS):
    chain = [m.dim * t.A.dim**n * t.B.dim ** (n * (n - 1) // 2) for n in range(top + 2)]
    bounds = [naive_secondary_boundary(t, m, n) for n in range(1, top + 2)]
    return {f: _homology_dims(chain, bounds, top, _prime(f)) for f in fields}


def classical_dims(a, m, top, fields=FIELDS):
    chain = [m.dim * a.dim**n for n in range(top + 2)]
    bounds = [naive_classical_boundary(a, m, n) for n in range(1, top + 2)]
    return {f: _homology_dims(chain, bounds, top, _prime(f)) for f in fields}


def coinvariants_dim(a, m, fields=FIELDS):
    """dim M - dim span{v.e_i - e_i.v}: H_0 of either complex."""
    commutators = []
    for i in range(a.dim):
        for mu in range(m.dim):
            right = act_right(m, basis_elt(m.dim, mu), basis_elt(a.dim, i))
            left = act_left(m, basis_elt(a.dim, i), basis_elt(m.dim, mu))
            commutators.append({k: r - l for k, (r, l) in enumerate(zip(right, left)) if r != l})
    return {f: m.dim - rank(commutators, _prime(f)) for f in fields}


def pulled_back_module(t, m):
    """M as a B-bimodule through eps, as dense tensors."""
    eps = t.eps.matrix

    def pull(tensor):
        return [
            [
                [sum(Fraction(eps[u][j]) * Fraction(tensor[u][mu][k]) for u in range(t.A.dim)) for k in range(m.dim)]
                for mu in range(m.dim)
            ]
            for j in range(t.B.dim)
        ]

    return SimpleNamespace(dim=m.dim, left=pull(m.left), right=pull(m.right))


def _prime(fname):
    return None if fname == "Q" else P


def expected(workload, cases, sizes):
    """{(operation, case label, field): expectation} for one workload."""
    out = {}
    for case in cases:
        t, m, label = case.triple, case.module, case.label
        if workload in ("lift-homology", "morita"):
            # integer structure constants and p > 3: GF(p) dims equal the Q dims
            dims = secondary_dims(t, m, sizes.top, fields=("Q",))["Q"]
            op = "homology" if workload == "lift-homology" else "morita"
            for f in FIELDS:
                out[(op, label, f)] = {"dims": dims}
        elif workload == "rational-cycles":
            for f, dims in secondary_dims(t, m, sizes.top).items():
                out[("homology", label, f)] = {"dims": dims}
        else:
            top = sizes.small_top
            sec = secondary_dims(t, m, top)
            cla = classical_dims(t.A, m, top)
            h1_b = classical_dims(t.B, pulled_back_module(t, m), 1)
            h0 = coinvariants_dim(t.A, m)
            for f in FIELDS:
                out[("secondary", label, f)] = {"dims": sec[f], "h0": h0[f]}
                out[("classical", label, f)] = {"dims": cla[f], "h0": h0[f]}
                out[("exactseq", label, f)] = {
                    "details": {
                        "H2(A,M)": cla[f][2],
                        "H2(sec)": sec[f][2],
                        "H1(B,M)": h1_b[f][1],
                        "H1(A,M)": cla[f][1],
                        "H1(sec)": sec[f][1],
                    }
                }
                # H_1 in both theories and, by the identifications the
                # report verifies, the dims of M (x)_A Omega^1
                out[("h1_kahler", label, f)] = {
                    "details": {
                        "dim H1((A,B,eps);M)": sec[f][1],
                        "dim M (x)_A Omega^1_{A|B}": sec[f][1],
                        "dim H1(A,M)": cla[f][1],
                        "dim M (x)_A Omega^1_{A|k}": cla[f][1],
                    }
                }
                out[("fundamental", label, f)] = {}
    return out
