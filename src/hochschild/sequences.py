"""The low-degree exact sequence tying classical and secondary homology,
and functoriality in the coefficients and in the triple.

The five-term sequence

  H_2(A,M) -> H_2((A,B,eps);M) -> H_1(B,M) -> H_1(A,M)
                                           -> H_1((A,B,eps);M) -> 0

is realized by four chain-level maps; descent to homology is verified
(cycles to cycles, boundaries to boundaries) rather than assumed, and
exactness is reported junction by junction as subspace equalities.

No map here permutes slots, so each is a Kronecker product of small
per-slot matrices in the slot order of the chain index (module slot,
A-slots, b-slots), `complexes.slotwise` for all but Psi:
Phi = I_M (x) I_A^(x)n (x) [1_B]^(x)n(n-1)/2, whose degrees 2 and 1 are
Phi2 and Phi1 and which the sequence reads as one `ChainMap`;
Psi = W (x) I_B (W the two actions of M with factor swaps), which lowers
the degree; eps_* = I_M (x) eps; and the pushforwards f_* = F (x) I and
(f,g)_* = I_M (x) f^(x)n (x) g^(x)n(n-1)/2, each a `ChainMap` checked
to commute with d_n.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .algebra import (
    AlgebraMorphism,
    Triple,
    _differing_columns,
    morphism_defects,
    pullback_bimodule,
    trivial_triple,
    validate_bimodule,
)
from .complexes import (
    DEFAULT_GUARD_BYTES,
    ChainMap,
    build_classical_complex,
    build_secondary_complex,
    slotwise,
)
from .errors import NotAChainMapError, PreconditionError
from .linalg import (
    SparseMatrix,
    _induced_map,
    commutation,
    image_basis,
    kernel_basis,
    rank,
)
from .report import Report


@dataclass(frozen=True)
class TripleMorphism:
    source: Triple
    target: Triple
    f: AlgebraMorphism  # A -> A'
    g: AlgebraMorphism  # B -> B'


def validate_triple_morphism(tm):
    report = Report("triple morphism")
    f, g = tm.f, tm.g
    for name, phi in (("f", f), ("g", g)):
        unit_ok, bad_pairs = morphism_defects(phi)
        report.check(f"{name} preserves unit", unit_ok)
        report.check(f"{name} multiplicative", not bad_pairs)
    square = f.sparse @ tm.source.eps.sparse == tm.target.eps.sparse @ g.sparse
    report.check("square f.eps = eps'.g", square)
    return report


# ---------------------------------------------------------------------------
# the four chain-level maps of the sequence


def phi_chain(t, m, n):
    """C_n(A,M) -> C_n((A,B,eps);M): insert the unit of B in each b-slot,
    the canonical identification at n = 1."""
    ident = functools.partial(SparseMatrix.identity, t.A.field)
    unit_b = SparseMatrix(t.A.field, t.B.dim, 1, [t.B.unit_vec()])
    return slotwise(ident(m.dim), ident(t.A.dim), unit_b, n)


def psi_seq_chain(t, m):
    """C_2((A,B,eps);M) -> C_1(B,M): (m; a1,a2; b) -> a2.m.a1 (x) b, so
    W = R_M K (L_M (x) I_A) K on M (x) A (x) A, K the factor swaps."""
    field, da, dm = t.A.field, t.A.dim, m.dim
    ident = SparseMatrix.identity
    w = (
        m.right_action
        @ commutation(field, dm, da)
        @ m.left_action.kron(ident(field, da))
        @ commutation(field, dm * da, da)
    )
    return w.kron(ident(field, t.B.dim))


def epsilon_star_chain(t, m):
    """C_1(B,M) -> C_1(A,M): apply eps on the algebra slot."""
    return slotwise(SparseMatrix.identity(t.A.field, m.dim), t.eps.sparse, None, 1)


def verify_exact_sequence(t, m, guard_bytes=DEFAULT_GUARD_BYTES):
    """Exactness of the five-term sequence on a concrete instance.

    Reports each junction as a subspace equality with dimensions, plus
    surjectivity of the final map.  Chain-level descent of each map is
    checked as `induced_quotient_map` checks it, on the homology bases
    the complexes keep, and surfaces as a failure here if a map is not
    well defined.  A complex equal to one already built is not built
    again: with B = k the secondary complex is the classical one of A,
    and with B = A, eps = id the classical one of B (with M pulled back)
    is that of A.
    """
    sec = ca = build_secondary_complex(t, m, 3, guard_bytes=guard_bytes)
    if t != trivial_triple(t.A):
        ca = build_classical_complex(t.A, m, 3, guard_bytes=guard_bytes)
    m_b, cb = pullback_bimodule(t.eps, m), ca
    if (trivial_triple(t.B), m_b) != (trivial_triple(t.A), m):
        cb = build_classical_complex(t.B, m_b, 2, guard_bytes=guard_bytes)

    report = Report("five-term exact sequence")
    dims = {  # from the bases the induced maps use below
        "H2(A,M)": ca.homology_basis(2).dim,
        "H2(sec)": sec.homology_basis(2).dim,
        "H1(B,M)": cb.homology_basis(1).dim,
        "H1(A,M)": ca.homology_basis(1).dim,
        "H1(sec)": sec.homology_basis(1).dim,
    }
    for label, value in dims.items():
        report.info(label, str(value))

    phi = ChainMap(ca, sec, functools.partial(phi_chain, t, m))
    try:  # Phi2, Psi, eps_*, Phi1: the first map that does not descend is named
        f2 = phi.on_homology(2)
        ps = _induced_map(psi_seq_chain(t, m), sec.homology_basis(2), cb.homology_basis(1))
        es = _induced_map(epsilon_star_chain(t, m), cb.homology_basis(1), ca.homology_basis(1))
        f1 = phi.on_homology(1)
    except NotAChainMapError as exc:
        report.check("chain-level descent", False, str(exc))
        return report
    report.check("chain-level descent", True)

    for label, into, out_of, space in (
        ("im Phi2 = ker Psi", f2, ps, "H2(sec)"),
        ("im Psi = ker eps_*", ps, es, "H1(B,M)"),
        ("im eps_* = ker Phi1", es, f1, "H1(A,M)"),
    ):
        im, ker = image_basis(into), kernel_basis(out_of)
        report.check(
            label,
            im == ker,
            f"dims {im.dim} vs {ker.dim} in {space} of dim {dims[space]}",
        )
    rank_f1 = rank(f1)
    report.check(
        "Phi1 surjective",
        rank_f1 == dims["H1(sec)"],
        f"rank {rank_f1} onto H1(sec) of dim {dims['H1(sec)']}",
    )
    return report


# ---------------------------------------------------------------------------
# functoriality


def restrict_coefficients(tm, mprime):
    """An A'-bimodule viewed over the source triple through f.

    B-symmetry over the source follows from the commuting square; the
    returned module is checked against the source triple.
    """
    restricted = pullback_bimodule(tm.f, mprime)
    rep = validate_bimodule(restricted, tm.source)
    if not rep.ok:
        raise PreconditionError(
            "restricted coefficients fail bimodule axioms over the source triple"
        )
    return restricted


def _slotwise_chain_map(mu, a, b, n, src, tgt):
    """`slotwise(mu, a, b, n)` once it commutes with d_n, between the
    secondary complexes of the (triple, module) pairs src and tgt, built
    to degree n with no degree cap."""
    built = (build_secondary_complex(*pair, n, degree_cap=n) for pair in (src, tgt))
    f = ChainMap(*built, functools.partial(slotwise, mu, a, b))
    if n >= 1 and not f.commutes(n):
        raise NotAChainMapError("pushforward does not commute with boundaries")
    return f.at(n)


def pushforward_m(fm, t, n):
    """Matrix of f_* on degree-n secondary chains (f applied to the M slot).

    Requires fm to commute with both actions, F L = L'(I (x) F) and
    F R = R'(I (x) F); the side whose first differing column comes first
    is named, the left on a tie.  The chain-map identity with the
    degree-n boundaries is asserted.
    """
    m_src, m_tgt = fm.source, fm.target
    field = m_src.field
    f = fm.sparse
    bad = []
    for side, src, tgt, count in (
        ("left", m_src.left_action, m_tgt.left_action, m_src.left_alg_dim),
        ("right", m_src.right_action, m_tgt.right_action, m_src.right_alg_dim),
    ):
        lift = SparseMatrix.identity(field, count).kron(f)
        cols = _differing_columns(f @ src, tgt @ lift)
        if cols:
            bad.append((cols[0], side))
    if bad:
        raise PreconditionError(f"not a bimodule morphism ({min(bad)[1]} action)")
    a, b = (SparseMatrix.identity(field, x.dim) for x in (t.A, t.B))
    return _slotwise_chain_map(f, a, b, n, (t, m_src), (t, m_tgt))


def pushforward_fg(tm, mprime, n):
    """Matrix of (f,g)_* from chains over the source (with restricted
    coefficients) to chains over the target; chain-map identity asserted."""
    rep = validate_triple_morphism(tm)
    if not rep.ok:
        raise PreconditionError("invalid triple morphism")
    restricted = restrict_coefficients(tm, mprime)
    ident = SparseMatrix.identity(mprime.field, mprime.dim)
    src, tgt = (tm.source, restricted), (tm.target, mprime)
    return _slotwise_chain_map(ident, tm.f.sparse, tm.g.sparse, n, src, tgt)
