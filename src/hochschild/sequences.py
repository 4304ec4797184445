"""The low-degree exact sequence tying classical and secondary homology,
and functoriality in the coefficients and in the triple.

The five-term sequence

  H_2(A,M) -> H_2((A,B,eps);M) -> H_1(B,M) -> H_1(A,M)
                                           -> H_1((A,B,eps);M) -> 0

is realized by four chain-level maps; descent to homology is verified
(cycles to cycles, boundaries to boundaries) rather than assumed, and
exactness is reported junction by junction as subspace equalities.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    AlgebraMorphism,
    Triple,
    pullback_bimodule,
    validate_bimodule,
)
from .complexes import (
    build_classical_complex,
    build_secondary_complex,
    classical_scheme,
    expand_slots,
    homology,
    secondary_boundary,
    secondary_scheme,
)
from .errors import NotAChainMapError, PreconditionError
from .linalg import (
    SparseMatrix,
    image_basis,
    induced_quotient_map,
    kernel_basis,
    rank,
    vec_add_scaled,
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
    a, b = tm.source.A, tm.source.B
    ap, bp = tm.target.A, tm.target.B
    report.check("f preserves unit", f.apply(a.unit_vec()) == ap.unit_vec())
    report.check(
        "f multiplicative",
        all(
            f.apply(a.mul(a.basis_vec(i), a.basis_vec(j)))
            == ap.mul(f.apply_basis(i), f.apply_basis(j))
            for i in range(a.dim)
            for j in range(a.dim)
        ),
    )
    report.check("g preserves unit", g.apply(b.unit_vec()) == bp.unit_vec())
    report.check(
        "g multiplicative",
        all(
            g.apply(b.mul(b.basis_vec(i), b.basis_vec(j)))
            == bp.mul(g.apply_basis(i), g.apply_basis(j))
            for i in range(b.dim)
            for j in range(b.dim)
        ),
    )
    report.check(
        "square f.eps = eps'.g",
        all(
            f.apply(tm.source.eps.apply_basis(j))
            == tm.target.eps.apply(g.apply_basis(j))
            for j in range(b.dim)
        ),
    )
    return report


# ---------------------------------------------------------------------------
# the four chain-level maps of the sequence


def phi2_chain(t, m):
    """C_2(A,M) -> C_2((A,B,eps);M): insert the unit of B in the b-slot."""
    field = t.A.field
    src = classical_scheme(t.A, m, 2)
    tgt = secondary_scheme(t, m, 2)
    unit_b = t.B.unit_vec()
    cols = []
    for idx in range(src.total):
        mu, alphas, _ = src.decode(idx)
        col = {}
        for v, cv in unit_b.items():
            col[tgt.encode(mu, alphas, (v,))] = cv
        cols.append(col)
    return SparseMatrix(field, tgt.total, src.total, cols)


def psi_seq_chain(t, m):
    """C_2((A,B,eps);M) -> C_1(B,M): (m; a,b; alpha) -> b.m.a (x) alpha."""
    field = t.A.field
    src = secondary_scheme(t, m, 2)
    tgt = classical_scheme(t.B, m, 1)
    cols = []
    for idx in range(src.total):
        mu, (a1, a2), (beta,) = src.decode(idx)
        w = m.act_right(m.act_left(t.A.basis_vec(a2), {mu: field.one}), t.A.basis_vec(a1))
        col = {}
        for mu2, c in w.items():
            col[tgt.encode(mu2, (beta,), ())] = c
        cols.append(col)
    return SparseMatrix(field, tgt.total, src.total, cols)


def epsilon_star_chain(t, m):
    """C_1(B,M) -> C_1(A,M): apply eps on the algebra slot."""
    field = t.A.field
    src = classical_scheme(t.B, m, 1)
    tgt = classical_scheme(t.A, m, 1)
    cols = []
    for idx in range(src.total):
        mu, (beta,), _ = src.decode(idx)
        col = {}
        for u, cu in t.eps.apply_basis(beta).items():
            col[tgt.encode(mu, (u,), ())] = cu
        cols.append(col)
    return SparseMatrix(field, tgt.total, src.total, cols)


def phi1_chain(t, m):
    """C_1(A,M) -> C_1((A,B,eps);M): the canonical identification."""
    field = t.A.field
    n = classical_scheme(t.A, m, 1).total
    assert n == secondary_scheme(t, m, 1).total
    return SparseMatrix.identity(field, n)


def verify_exact_sequence(t, m, guard_bytes=None):
    """Exactness of the five-term sequence on a concrete instance.

    Reports each junction as a subspace equality with dimensions, plus
    surjectivity of the final map.  Chain-level descent of each map is
    checked by induced_quotient_map and surfaces as a failure here if a
    map is not well defined.
    """
    kwargs = {"guard_bytes": guard_bytes} if guard_bytes is not None else {}
    sec = build_secondary_complex(t, m, 3, **kwargs)
    ca = build_classical_complex(t.A, m, 3, **kwargs)
    m_b = pullback_bimodule(t.eps, m)
    cb = build_classical_complex(t.B, m_b, 2, **kwargs)

    report = Report("five-term exact sequence")
    dims = {
        "H2(A,M)": homology(ca, 2).dim,
        "H2(sec)": homology(sec, 2).dim,
        "H1(B,M)": homology(cb, 1).dim,
        "H1(A,M)": homology(ca, 1).dim,
        "H1(sec)": homology(sec, 1).dim,
    }
    for label, value in dims.items():
        report.info(label, str(value))

    try:
        f2 = induced_quotient_map(
            phi2_chain(t, m),
            ca.cycle_space(2),
            ca.boundary_image(3),
            sec.cycle_space(2),
            sec.boundary_image(3),
        )
        ps = induced_quotient_map(
            psi_seq_chain(t, m),
            sec.cycle_space(2),
            sec.boundary_image(3),
            cb.cycle_space(1),
            cb.boundary_image(2),
        )
        es = induced_quotient_map(
            epsilon_star_chain(t, m),
            cb.cycle_space(1),
            cb.boundary_image(2),
            ca.cycle_space(1),
            ca.boundary_image(2),
        )
        f1 = induced_quotient_map(
            phi1_chain(t, m),
            ca.cycle_space(1),
            ca.boundary_image(2),
            sec.cycle_space(1),
            sec.boundary_image(2),
        )
    except NotAChainMapError as exc:
        report.check("chain-level descent", False, str(exc))
        return report
    report.check("chain-level descent", True)

    im_f2, ker_ps = image_basis(f2), kernel_basis(ps)
    report.check(
        "im Phi2 = ker Psi",
        im_f2 == ker_ps,
        f"dims {im_f2.dim} vs {ker_ps.dim} in H2(sec) of dim {dims['H2(sec)']}",
    )
    im_ps, ker_es = image_basis(ps), kernel_basis(es)
    report.check(
        "im Psi = ker eps_*",
        im_ps == ker_es,
        f"dims {im_ps.dim} vs {ker_es.dim} in H1(B,M) of dim {dims['H1(B,M)']}",
    )
    im_es, ker_f1 = image_basis(es), kernel_basis(f1)
    report.check(
        "im eps_* = ker Phi1",
        im_es == ker_f1,
        f"dims {im_es.dim} vs {ker_f1.dim} in H1(A,M) of dim {dims['H1(A,M)']}",
    )
    report.check(
        "Phi1 surjective",
        rank(f1) == dims["H1(sec)"],
        f"rank {rank(f1)} onto H1(sec) of dim {dims['H1(sec)']}",
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


def pushforward_m(fm, t, n):
    """Matrix of f_* on degree-n secondary chains (f applied to the M slot).

    Requires fm to commute with both actions; the chain-map identity
    with the degree-n boundaries is asserted.
    """
    m_src, m_tgt = fm.source, fm.target
    field = m_src.field
    a_dim = m_src.left_alg_dim
    for i in range(a_dim):
        for mu in range(m_src.dim):
            v = {mu: field.one}
            avec = {i: field.one}
            lhs = _push_vec(fm, m_src.act_left(avec, v))
            rhs = m_tgt.act_left(avec, _push_vec(fm, v))
            if lhs != rhs:
                raise PreconditionError("not a bimodule morphism (left action)")
            lhs = _push_vec(fm, m_src.act_right(v, avec))
            rhs = m_tgt.act_right(_push_vec(fm, v), avec)
            if lhs != rhs:
                raise PreconditionError("not a bimodule morphism (right action)")
    mat = _pushforward_m_matrix(fm, t, n)
    if n >= 1:
        prev = _pushforward_m_matrix(fm, t, n - 1)
        src_d = secondary_boundary(t, m_src, n)
        tgt_d = secondary_boundary(t, m_tgt, n)
        if prev @ src_d != tgt_d @ mat:
            raise NotAChainMapError("pushforward does not commute with boundaries")
    return mat


def _push_vec(fm, vec):
    field = fm.source.field
    out = {}
    for mu, c in vec.items():
        vec_add_scaled(field, out, c, fm.apply_basis(mu))
    return out


def _pushforward_m_matrix(fm, t, n):
    field = fm.source.field
    src = secondary_scheme(t, fm.source, n)
    tgt = secondary_scheme(t, fm.target, n)
    cols = []
    for idx in range(src.total):
        mu, alphas, betas = src.decode(idx)
        col = {}
        for mu2, c in fm.apply_basis(mu).items():
            col[tgt.encode(mu2, alphas, betas)] = c
        cols.append(col)
    return SparseMatrix(field, tgt.total, src.total, cols)


def pushforward_fg(tm, mprime, n):
    """Matrix of (f,g)_* from chains over the source (with restricted
    coefficients) to chains over the target; chain-map identity asserted."""
    rep = validate_triple_morphism(tm)
    if not rep.ok:
        raise PreconditionError("invalid triple morphism")
    restricted = restrict_coefficients(tm, mprime)
    mat = _pushforward_fg_matrix(tm, mprime, restricted, n)
    if n >= 1:
        prev = _pushforward_fg_matrix(tm, mprime, restricted, n - 1)
        src_d = secondary_boundary(tm.source, restricted, n)
        tgt_d = secondary_boundary(tm.target, mprime, n)
        if prev @ src_d != tgt_d @ mat:
            raise NotAChainMapError("pushforward does not commute with boundaries")
    return mat


def _pushforward_fg_matrix(tm, mprime, restricted, n):
    field = mprime.field
    src = secondary_scheme(tm.source, restricted, n)
    tgt = secondary_scheme(tm.target, mprime, n)
    f, g = tm.f, tm.g
    cols = []
    for idx in range(src.total):
        mu, alphas, betas = src.decode(idx)
        slot_vecs = [f.apply_basis(a) for a in alphas]
        slot_vecs += [g.apply_basis(b) for b in betas]
        col = {}
        expand_slots(field, col, 0, [{mu: field.one}] + slot_vecs, tgt.strides)
        cols.append(col)
    return SparseMatrix(field, tgt.total, src.total, cols)
