"""Acceptance suite: one test per criterion, one printed pass/fail line.

Everything is exact arithmetic, so every tolerance here is equality;
the only numeric budgets are the stated runtimes.
"""

import functools
import subprocess
import sys
import time

from hochschild.algebra import commutator_subspace, is_a_symmetric
from hochschild.complexes import (
    build_classical_complex,
    build_secondary_complex,
    homology,
)
from hochschild.errors import BudgetExceededError
from hochschild.fields import GF, QQ
from hochschild.fixtures import (
    NAMED_FIXTURES,
    fix_d,
    fix_dd,
    fix_ext,
    fix_kb,
    fix_p3,
    random_instances,
)
from hochschild.kahler import verify_fundamental_sequence, verify_h1_kahler
from hochschild.linalg import SparseMatrix
from hochschild.morita import (
    alternating_homotopy,
    homotopy_h,
    homotopy_l,
    induced_module,
    phi_chain_map,
    psi_chain_map,
    standard_matrix_morita,
)
from hochschild.sequences import verify_exact_sequence

F1009 = GF(1009)


def passline(number, label):
    print(f"[acceptance] criterion {number} ({label}): PASS")


def criterion(number, label):
    """Print the FAIL line when the body raises; the body prints PASS."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number} ({label}): FAIL")
                raise

        return wrapper

    return deco


@criterion(1, "boundary squared is zero on 20 randomized triples to degree 4")
def test_criterion_01_boundary_squared_zero():
    start = time.monotonic()
    instances = random_instances(seed=101, count=20)
    assert len(instances) >= 20
    for t, m in instances:
        build_secondary_complex(t, m, 4).boundaries  # raises on any nonzero composite
        build_classical_complex(t.A, m, 4).boundaries
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"took {elapsed:.1f}s"
    passline(1, "boundary squared is zero on 20 randomized triples to degree 4")


@criterion(2, "B = k collapse matches classical homology to degree 3")
def test_criterion_02_ground_base_collapse():
    for name, fn in NAMED_FIXTURES.items():
        t, m = fn()
        if t.B.dim != 1:
            continue
        sec = build_secondary_complex(t, m, 4)
        cla = build_classical_complex(t.A, m, 4)
        sec_dims = [homology(sec, n).dim for n in range(4)]
        cla_dims = [homology(cla, n).dim for n in range(4)]
        assert sec_dims == cla_dims, name
    passline(2, "B = k collapse matches classical homology to degree 3")


@criterion(3, "H_0 equals coinvariants dimension on every instance")
def test_criterion_03_h0_formula():
    checked = 0
    for t, m in [fn() for fn in NAMED_FIXTURES.values()] + random_instances(
        seed=103, count=10
    ):
        c = build_secondary_complex(t, m, 1)
        assert homology(c, 0).dim == m.dim - commutator_subspace(m, t.A).dim
        checked += 1
    assert checked >= 16
    passline(3, "H_0 equals coinvariants dimension on every instance")


@criterion(4, "identity-base and scalar-base example values reproduced")
def test_criterion_04_reported_examples():
    t, m = fix_dd()
    sec = build_secondary_complex(t, m, 3)
    assert homology(sec, 1).dim == 0
    assert homology(sec, 2).dim == 0
    t, m = fix_kb()
    sec = build_secondary_complex(t, m, 3)
    assert homology(sec, 1).dim == 0
    from hochschild.algebra import pullback_bimodule

    cb = build_classical_complex(t.B, pullback_bimodule(t.eps, m), 2)
    assert homology(sec, 2).dim == homology(cb, 1).dim
    passline(4, "identity-base and scalar-base example values reproduced")


@criterion(5, "five-term sequence exact on fixtures and 10 randomized instances")
def test_criterion_05_exact_sequence():
    start = time.monotonic()
    for fn in (fix_d, fix_dd, fix_p3):
        t, m = fn()
        rep = verify_exact_sequence(t, m)
        assert rep.ok, rep.render()
    randoms = random_instances(seed=105, count=10)
    assert len(randoms) >= 10
    for t, m in randoms:
        rep = verify_exact_sequence(t, m)
        assert rep.ok, rep.render()
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"took {elapsed:.1f}s"
    passline(5, "five-term sequence exact on fixtures and 10 randomized instances")


@criterion(6, "H_1 matches the differential-module dimensions on all fixtures")
def test_criterion_06_kahler_isomorphisms():
    expected_secondary = {"FIX-D": 1, "FIX-P3": 2}
    for name, fn in NAMED_FIXTURES.items():
        t, m = fn()
        if not t.A.is_commutative() or not is_a_symmetric(m, t.A):
            continue
        rep = verify_h1_kahler(t, m)
        assert rep.ok, rep.render()
        if name in expected_secondary:
            dims = {i.label: i.detail for i in rep.items if i.ok is None}
            assert dims["dim H1((A,B,eps);M)"] == str(expected_secondary[name])
            assert dims["dim M (x)_A Omega^1_{A|B}"] == str(expected_secondary[name])
    passline(6, "H_1 matches the differential-module dimensions on all fixtures")


@criterion(7, "Morita invariance with exact chain maps and homotopies")
def test_criterion_07_morita_invariance():
    # homology dims for the dual-numbers identity triple against its 2x2
    # matrix lift, rationally within budget, else prime field + spot check
    start = time.monotonic()
    t, m = fix_dd()
    d = standard_matrix_morita(t, 2)
    ind = induced_module(d, m)
    deadline = start + 300.0
    try:
        src = build_secondary_complex(t, m, 3)
        tgt = build_secondary_complex(d.target, ind.module, 3)
        src_dims = [homology(src, n, deadline=deadline).dim for n in range(3)]
        tgt_dims = [homology(tgt, n, deadline=deadline).dim for n in range(3)]
    except BudgetExceededError:
        dp = d.over(F1009)
        mp = m.over(F1009)
        indp = induced_module(dp, mp)
        src = build_secondary_complex(dp.source, mp, 3)
        tgt = build_secondary_complex(dp.target, indp.module, 3)
        src_dims = [homology(src, n).dim for n in range(3)]
        tgt_dims = [homology(tgt, n).dim for n in range(3)]
        spot_src = build_secondary_complex(t, m, 2)
        spot_tgt = build_secondary_complex(d.target, ind.module, 2)
        assert [homology(spot_src, n).dim for n in range(2)] == src_dims[:2]
        assert [homology(spot_tgt, n).dim for n in range(2)] == tgt_dims[:2]
    assert src_dims == tgt_dims

    # exact chain-map and homotopy identities at degrees <= 2 on the
    # dual-numbers fixture with 2x2 matrix data
    t, m = fix_d()
    d = standard_matrix_morita(t, 2)
    ind = induced_module(d, m)
    src = build_secondary_complex(t, m, 3)
    tgt = build_secondary_complex(d.target, ind.module, 3)
    psis = [psi_chain_map(d, m, n) for n in range(3)]
    phis = [phi_chain_map(d, m, n) for n in range(3)]
    for n in (1, 2):
        assert psis[n - 1] @ src.boundary(n) == tgt.boundary(n) @ psis[n]
        assert phis[n - 1] @ tgt.boundary(n) == src.boundary(n) @ phis[n]
    for n in (0, 1, 2):
        ident = SparseMatrix.identity(QQ, src.dims[n])
        h_n = alternating_homotopy(
            [homotopy_h(d, m, n, i) for i in range(n + 1)]
        )
        lhs = src.boundary(n + 1) @ h_n
        if n >= 1:
            h_prev = alternating_homotopy(
                [homotopy_h(d, m, n - 1, i) for i in range(n)]
            )
            lhs = lhs + h_prev @ src.boundary(n)
        assert lhs == ident - phis[n] @ psis[n]
        identp = SparseMatrix.identity(QQ, tgt.dims[n])
        l_n = alternating_homotopy(
            [homotopy_l(d, m, n, i) for i in range(n + 1)]
        )
        lhsp = tgt.boundary(n + 1) @ l_n
        if n >= 1:
            l_prev = alternating_homotopy(
                [homotopy_l(d, m, n - 1, i) for i in range(n)]
            )
            lhsp = lhsp + l_prev @ tgt.boundary(n)
        assert lhsp == identp - psis[n] @ phis[n]
    passline(7, "Morita invariance with exact chain maps and homotopies")


@criterion(8, "first fundamental sequence exact on the two-variable extension")
def test_criterion_08_fundamental_sequence():
    t, _ = fix_ext()
    rep = verify_fundamental_sequence(t)
    assert rep.ok, rep.render()
    passline(8, "first fundamental sequence exact on the two-variable extension")


@criterion(9, "functoriality: identities, compositions, chain-map checks")
def test_criterion_09_functoriality():
    from hochschild.algebra import AlgebraMorphism, BimoduleMorphism
    from hochschild.sequences import (
        TripleMorphism,
        epsilon_star_chain,
        pushforward_fg,
        pushforward_m,
    )

    t, m = fix_dd()
    ident_mat = tuple(
        tuple(QQ.one if r == c else QQ.zero for c in range(m.dim))
        for r in range(m.dim)
    )
    fm_id = BimoduleMorphism.from_data(m, m, ident_mat)
    for n in (0, 1, 2):
        assert pushforward_m(fm_id, t, n) == SparseMatrix.identity(
            QQ, build_secondary_complex(t, m, n).dims[n]
        )
    x_mat = ((QQ.zero, QQ.zero), (QQ.one, QQ.zero))
    fm_x = BimoduleMorphism.from_data(m, m, x_mat)
    zero_mat = tuple(tuple(QQ.zero for _ in range(2)) for _ in range(2))
    fm_xx = BimoduleMorphism.from_data(m, m, zero_mat)
    assert (
        pushforward_m(fm_x, t, 2) @ pushforward_m(fm_x, t, 2)
        == pushforward_m(fm_xx, t, 2)
    )

    ident_tm = TripleMorphism(
        t, t, AlgebraMorphism.identity(t.A), AlgebraMorphism.identity(t.B)
    )
    for n in (0, 1, 2):
        dims_n = build_secondary_complex(t, m, n).dims[n]
        assert pushforward_fg(ident_tm, m, n) == SparseMatrix.identity(QQ, dims_n)
    b = t.B
    base = type(t)(b, b, AlgebraMorphism.identity(b))
    incl = TripleMorphism(base, t, t.eps, AlgebraMorphism.identity(b))
    assert pushforward_fg(incl, m, 1) == epsilon_star_chain(t, m)
    composed = TripleMorphism(base, t, ident_tm.f.compose(incl.f), incl.g)
    assert (
        pushforward_fg(ident_tm, m, 2) @ pushforward_fg(incl, m, 2)
        == pushforward_fg(composed, m, 2)
    )
    passline(9, "functoriality: identities, compositions, chain-map checks")


@criterion(10, "CLI reports are byte-identical across runs")
def test_criterion_10_cli_determinism(tmp_path):
    outdir = tmp_path / "fx"
    subprocess.run(
        [sys.executable, "-m", "hochschild", "fixtures", "--outdir", str(outdir)],
        check=True,
        capture_output=True,
    )
    for cmd in (
        ["homology", str(outdir / "FIX-DD.json"), "--max-degree", "3", "--reps"],
        ["exactseq", str(outdir / "FIX-DD.json")],
        ["validate", str(outdir / "FIX-P3.json")],
        ["kahler", str(outdir / "FIX-P3.json")],
    ):
        runs = [
            subprocess.run(
                [sys.executable, "-m", "hochschild", *cmd],
                check=True,
                capture_output=True,
            )
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout  # sanity: reports are non-empty
    passline(10, "CLI reports are byte-identical across runs")
