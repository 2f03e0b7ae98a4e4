"""Admissible frames, block slicing, and the block identity lists."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import abelian_sc, admissible_constants, aff_sc, catalog_doc, kt_sc, random_unitary
from test_invariance import CATALOG
from test_metamorphic import KAPPAS, _reframed, _round_trip

from hskahler.algebra import (
    RealLieAlgebra,
    StructureConstants,
    _max_abs,
    canonical_frame,
    change_frame,
    complexify_and_extract,
)
from hskahler.analysis import AnalysisReport, _admissible, _classes, _input, _Run
from hskahler.config import Config
from hskahler.errors import DimensionError, PreconditionError, StructureError
from hskahler.kahler import generate_family
from hskahler.solvable import (
    _blocks,
    admissible_from_frame,
    build_admissible_frame,
    verify_bianchi_blocks,
    verify_hs_blocks,
    verify_restrictions,
)


def test_torus_splitting_is_all_residual_block():
    sc = abelian_sc(2)
    dec = build_admissible_frame(sc)
    assert (dec.r, dec.s, dec.n) == (0, 0, 2)
    assert dec.pure_type == "I"
    # g' has real dimension r + s and W real dimension 2 (n - s)
    assert dec.r + dec.s == 0
    assert 2 * (dec.n - dec.s) == 4
    assert np.array_equal(dec.K, np.eye(2))
    res = verify_restrictions(dec, sc)
    assert res["restriction1"].passed and res["restriction1"].residual == 0.0
    assert res["restriction2"].passed and res["restriction2"].residual == 0.0


def test_kodaira_thurston_splitting():
    dec = build_admissible_frame(kt_sc())
    assert (dec.r, dec.s, dec.n) == (0, 1, 2)
    assert dec.pure_type == "I"
    assert dec.dims == (4, 1, 0)
    # V is one-dimensional and J moves it off itself, so the middle
    # Gram block is exactly 1/2
    assert dec.g_mid == pytest.approx(np.array([[0.5]]))


def test_kodaira_thurston_restriction2_fails_cleanly():
    sc = kt_sc()
    dec = build_admissible_frame(sc)
    res = verify_restrictions(dec, admissible_constants(sc, dec))
    assert res["restriction1"].passed
    assert res["restriction1"].residual == 0.0
    assert not res["restriction2"].passed
    # the raw D entry: the admissible frame of KT carries the constant sqrt 2
    assert res["restriction2"].residual == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_build_admissible_frame_is_deterministic():
    a = build_admissible_frame(kt_sc())
    b = build_admissible_frame(kt_sc())
    assert np.array_equal(a.K, b.K)


def test_affine_algebra_passes_both_restrictions():
    sc = aff_sc()
    dec = build_admissible_frame(sc)
    assert (dec.r, dec.s, dec.n) == (1, 1, 2)
    assert dec.pure_type == "II"
    res = verify_restrictions(dec, admissible_constants(sc, dec))
    assert res["restriction1"].passed
    assert res["restriction2"].passed


def test_non_solvable_algebra_is_rejected():
    # u(2) = su(2) + R with the Hopf structure
    f = np.zeros((4, 4, 4))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        f[k, i, j], f[k, j, i] = 1.0, -1.0
    J = np.zeros((4, 4))
    J[1, 0], J[0, 1], J[3, 2], J[2, 3] = 1.0, -1.0, 1.0, -1.0
    sc = complexify_and_extract(RealLieAlgebra(f), J, canonical_frame(J))
    with pytest.raises(PreconditionError):
        build_admissible_frame(sc)


@pytest.mark.parametrize("r,n,seed", [(1, 3, 11), (2, 5, 12), (3, 6, 13)])
def test_family_generating_frame_is_admissible(r, n, seed):
    fam = generate_family(r, n, seed=seed)
    dec = admissible_from_frame(fam.sc)
    assert (dec.r, dec.s) == (fam.r, fam.s)
    assert dec.pure_type == "II"
    res = verify_restrictions(dec, fam.sc)
    assert all(v.passed for v in res.values())


@pytest.mark.parametrize("r,n,seed", [(1, 3, 11), (2, 5, 12), (3, 6, 13)])
def test_family_satisfies_all_block_identities(r, n, seed):
    fam = generate_family(r, n, seed=seed)
    dec = admissible_from_frame(fam.sc)
    for name, check in verify_bianchi_blocks(dec, fam.sc).items():
        assert check.passed, f"{name}: {check.residual}"
        assert check.residual <= 1e-12
    for name, check in verify_hs_blocks(dec, fam.sc, fam.S).items():
        assert check.passed, f"{name}: {check.residual}"
        assert check.residual <= 1e-12


def test_rebuilt_family_frame_still_passes_restrictions():
    fam = generate_family(2, 5, seed=12)
    # a unitary change of frame keeps the metric and mixes the blocks
    sc = change_frame(fam.sc, random_unitary(np.random.default_rng(12), 5))
    dec = build_admissible_frame(sc)
    assert (dec.r, dec.s, dec.n) == (2, 2, 5)
    assert not np.array_equal(dec.K, np.eye(5))
    res = verify_restrictions(dec, admissible_constants(sc, dec))
    assert all(v.passed for v in res.values())


def test_admissible_from_frame_rejects_unadapted_columns():
    fam = generate_family(1, 3, seed=11)
    c, s = np.cos(0.5), np.sin(0.5)
    U = np.eye(3, dtype=complex)
    U[[0, 0, 2, 2], [0, 2, 0, 2]] = c, -s, s, c  # leak a residual direction into the core
    with pytest.raises(StructureError):
        admissible_from_frame(change_frame(fam.sc, U))


# ------------------------------------------- the split behind the gauge


def _through_the_gauge(doc):
    """A command's run up to the admissible stage: the split of the
    g-unitary constants, at unit scale."""
    cfg = Config()
    run = _Run(doc, cfg, AnalysisReport(doc.name, doc.mode, "verify-claims", cfg.as_dict()))
    for stage in (_input, _classes, _admissible):
        assert stage(run) is None and run.rep.consistent(), [vars(r) for r in run.rep.failed()]
    return run


def _documents():
    for name in CATALOG:
        doc = catalog_doc(name)
        yield name, doc
        for k, kappa in enumerate(KAPPAS):
            yield f"{name} kappa {kappa:g}", _reframed(doc, kappa, [7, k])
        yield f"{name} round trip", _round_trip(doc)


@pytest.mark.parametrize("tag, doc", list(_documents()), ids=[t for t, _ in _documents()])
def test_the_split_is_admissible_and_kept_only_where_strict(tag, doc):
    run = _through_the_gauge(doc)
    dec, n = run.dec, run.sc.n
    assert dec.r + dec.s == run.profile.dims[1]
    # identity on the outer blocks, Identity/2 + i A in the middle
    r, s = dec.r, dec.s
    g = dec.K.T @ np.conj(dec.K)
    want = np.eye(n, dtype=complex)
    want[r:s, r:s] = np.eye(s - r) / 2.0 + 1j * g[r:s, r:s].imag
    assert np.max(np.abs(g - want)) <= 1e-12
    assert np.max(np.abs(dec.metric.g - g)) <= 1e-15
    kept = np.array_equal(dec.K, np.eye(n))
    if kept:
        assert np.array_equal(admissible_from_frame(run.sc, profile=run.profile).K, dec.K)
    else:
        with pytest.raises(StructureError):
            admissible_from_frame(run.sc, profile=run.profile)


def _kt_metric() -> np.ndarray:
    """A J-compatible metric on Kodaira-Thurston other than the identity:
    P^T P for a complex-linear P, in the pairs (b1, b2), (b3, b4)."""
    M = np.array([[2.0, 0.3 + 0.5j], [0.0, 1.0 + 0.2j]])
    P = np.block([[np.array([[m.real, -m.imag], [m.imag, m.real]]) for m in row] for row in M])
    return P.T @ P


def test_the_middle_block_survives_the_gauge():
    """Kodaira-Thurston has s > r: a unitary frame is never admissible, and
    the middle column (v - i J v)/2 has the Gram block 1/2 whatever the
    documented metric and frame."""
    native = catalog_doc("kodaira_thurston")
    moved = dataclasses.replace(native, G=_kt_metric())
    assert not np.array_equal(moved.G, np.eye(4))
    want = [r for r in _through_the_gauge(native).rep.records if r.check_id == "restriction2"]
    for doc in (moved, _reframed(moved, 10.0, [7, 1])):
        run = _through_the_gauge(doc)
        assert (run.dec.r, run.dec.s) == (0, 1)
        assert run.dec.g_mid == pytest.approx(np.array([[0.5]]), abs=1e-15)
        got = [r for r in run.rep.records if r.check_id == "restriction2"]
        assert [(r.status, r.details, r.category) for r in got] == [
            (r.status, r.details, r.category) for r in want]
        assert got[0].residual > 0.1 and want[0].status == "fail"
        assert run.rep.verdict == "pluriclosed, not HS-compatible (restriction2 fails)"


def _tagged_blocks():
    """r = 1, s = 2, n = 3 constants with one marker per block."""
    C = np.zeros((3, 3, 3), dtype=complex)
    D = np.zeros((3, 3, 3), dtype=complex)
    C[0, 0, 2], C[0, 2, 0] = 2.0, -2.0
    C[0, 1, 2], C[0, 2, 1] = 9.0, -9.0
    D[0, 0, 2] = 3.0 + 1.0j
    D[2, 0, 0] = 5.0
    D[1, 0, 2] = 7.0
    sc = StructureConstants(C, D, validate=False)
    S = np.zeros((3, 3), dtype=complex)
    S[0, 1], S[1, 0] = 11.0j, -11.0j
    return _blocks(sc, 1, S)


def test_blocks_layout_picks_the_right_entries():
    # stack position k holds the label x = r + 1 + k, here x = 2, 3
    C, D, Z, v, w, u, Sp = _tagged_blocks()
    assert C.shape == D.shape == Z.shape == (2, 1, 1)
    assert v.shape == w.shape == (2, 2, 1) and u.shape == (2, 1) and Sp.shape == (1, 1)
    assert C[1] == pytest.approx(np.array([[2.0]]))
    assert D[1] == pytest.approx(np.array([[3.0 + 1.0j]]))
    assert Z[1] == pytest.approx(np.array([[5.0]]))
    assert Z[0] == pytest.approx(np.zeros((1, 1)))
    assert v[0, 1] == pytest.approx(np.array([7.0]))
    assert w[0, 1] == pytest.approx(np.array([9.0]))
    assert w[1, 0] == pytest.approx(np.array([-9.0]))
    assert u[0] == pytest.approx(np.array([11.0j]))
    assert Sp == pytest.approx(np.zeros((1, 1)))
    assert _blocks(StructureConstants(np.zeros((3, 3, 3)), np.zeros((3, 3, 3))), 1)[5:] == (None, None)


def test_hs_blocks_validation():
    sc = StructureConstants(
        np.zeros((3, 3, 3), dtype=complex), np.zeros((3, 3, 3), dtype=complex)
    )
    dec = SimpleNamespace(n=3, r=1, s=2)
    with pytest.raises(DimensionError):
        verify_hs_blocks(dec, sc, np.eye(2))
    with pytest.raises(PreconditionError):
        verify_hs_blocks(dec, sc, None)


def test_block_identities_dimension_guard():
    dec = build_admissible_frame(abelian_sc(2))
    wrong = StructureConstants(
        np.zeros((3, 3, 3), dtype=complex), np.zeros((3, 3, 3), dtype=complex)
    )
    with pytest.raises(DimensionError):
        verify_bianchi_blocks(dec, wrong)
    with pytest.raises(DimensionError):
        verify_hs_blocks(dec, wrong, np.zeros((3, 3)))


# --------------------------------------------- per-label loop reference


def _loop_identities(sc, r, s, S):
    """Raw sup norms of C1..C7, D1..D8, sym1..sym4 and reality, one
    label x, y, z at a time with 1-based accessors; the reference the
    array expressions are held to."""
    xs = range(r + 1, sc.n + 1)
    Cm = lambda x: sc.C[:r, :r, x - 1].T
    Dm = lambda x: sc.D[:r, :r, x - 1].T
    Zm = lambda x: sc.D[x - 1, :r, :r]
    v = lambda y, x: sc.D[y - 1, :r, x - 1]
    w = lambda x, y: sc.C[:r, x - 1, y - 1]
    u = lambda x: S[:r, x - 1]
    Sp = S[:r, :r]
    H = lambda M: M.conj().T
    res = {}

    def put(key, val):
        res[key] = max(res.get(key, 0.0), float(val))

    for x in xs:
        Cx, Dx, Zx = Cm(x), Dm(x), Zm(x)
        put("D4", _max_abs(Cx + Dx + 2j * Sp @ np.conj(Zx)))
        put("D5", _max_abs(Zx.T - Zx - 2j * (H(Dx) @ Sp + Sp @ np.conj(Dx))))
        put("D6", _max_abs(Sp @ Cx.T + Cx @ Sp))
        put("sym1", _max_abs(Dx @ Sp + Sp @ Dx.T))
        put("sym2", _max_abs(H(Dx) @ Sp + Sp @ np.conj(Dx)))
        for y in xs:
            Cy, Dy, Zy = Cm(y), Dm(y), Zm(y)
            put("C1", max(_max_abs(Cx @ Cy - Cy @ Cx), _max_abs(Dx @ Dy - Dy @ Dx)))
            put("C2", _max_abs(H(Cx) @ Dy - Dy @ H(Cx) + Zx @ np.conj(Zy)))
            put("C3", _max_abs(Dx @ Zy - Zy @ Cx.T))
            put("C4", _max_abs(H(Cx) @ Zy - Zy @ np.conj(Dx) - H(Cy) @ Zx + Zx @ np.conj(Dy)))
            put("D2", _max_abs(Sp @ np.conj(v(x, y)) + H(Dy) @ u(x) - 0.5j * v(y, x)))
            put("D3", _max_abs(H(Zx) @ u(y) - H(Zy) @ u(x) - 0.5j * w(x, y)))
            put("D7", _max_abs(Cx @ u(y) - Cy @ u(x) - Sp @ w(x, y)))
            put("sym4", _max_abs(Dx @ u(y) - Dy @ u(x)))
            for z in xs:
                Cz, Dz, Zz = Cm(z), Dm(z), Zm(z)
                put("C5", _max_abs(Cx.T @ w(y, z) + Cy.T @ w(z, x) + Cz.T @ w(x, y)))
                put("C6", _max_abs(Dx @ v(y, z) - Dz @ v(y, x) + Zy @ w(x, z)))
                put("C7", _max_abs(
                    H(Cx) @ v(z, y) - H(Cz) @ v(x, y) + Dy @ np.conj(w(x, z))
                    + Zx @ np.conj(v(y, z)) - Zz @ np.conj(v(y, x))
                ))
                put("D1", abs(u(x) @ np.conj(v(z, y)) - u(z) @ np.conj(v(x, y))))
                put("D8", abs(u(x) @ w(y, z) + u(y) @ w(z, x) + u(z) @ w(x, y)))
                put("sym3", max(_max_abs(Dx @ v(y, z) - Dz @ v(y, x)),
                                _max_abs(H(Dx) @ v(z, y) - H(Dz) @ v(x, y))))
    for a in range(r + 1, s + 1):
        put("reality", _max_abs(H(Dm(a)) - Dm(a)))
        for b in range(r + 1, s + 1):
            put("reality", _max_abs(v(a, b) - v(b, a)))
    return res


_ALL_KEYS = {f"C{k}" for k in range(1, 8)} | {f"D{k}" for k in range(1, 9)} | {
    "sym1", "sym2", "sym3", "sym4", "reality"}


@pytest.mark.parametrize("r,s,n,vanishing", [
    (2, 3, 5, set()), (2, 4, 6, set()), (3, 4, 7, set()),   # mixed
    (0, 2, 3, _ALL_KEYS),                                   # r = 0: every block is empty
    (2, 2, 5, {"reality"}),                                 # s = r: no V labels
    (2, 5, 5, set()),                                       # s = n: no W labels
    # 1 x 1 blocks commute, and the skew Sp is zero
    (1, 2, 4, {"C1", "D5", "D6", "sym1", "sym2"}),
])
@pytest.mark.parametrize("d_core", [1.0, 0.01])
def test_block_identities_match_the_per_label_loops(r, s, n, vanishing, d_core):
    # d_core scales the D_x blocks, so that in C1 and in reality the terms
    # without them decide the maximum as well
    rng = np.random.default_rng([r, s, n])
    cplx = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    D = cplx(n, n, n)
    D[:r] *= d_core
    sc = StructureConstants(cplx(n, n, n), D, validate=False)
    S = cplx(n, n)
    S = (S - S.T) / 2.0
    dec = SimpleNamespace(n=n, r=r, s=s)
    got = {**verify_bianchi_blocks(dec, sc), **verify_hs_blocks(dec, sc, S)}
    ref = _loop_identities(sc, r, s, S)
    assert set(got) == _ALL_KEYS
    scale_d = max(1.0, _max_abs(S)) ** 2
    for key, chk in got.items():
        want = ref.get(key, 0.0) / (1.0 if key.startswith("C") else scale_d)
        if key in vanishing:
            assert chk.residual == want == 0.0, key
        else:
            assert want > 0.0, key
            assert chk.residual == pytest.approx(want, rel=1e-12), key
            assert not chk.passed, key
