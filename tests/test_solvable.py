"""Admissible frames, block slicing, and the block identity lists."""

from types import SimpleNamespace

import numpy as np
import pytest

from conftest import aff_sc, kt_real

from hskahler.algebra import (
    Frame,
    RealLieAlgebra,
    StructureConstants,
    _max_abs,
    complexify_and_extract,
    realify,
)
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


def _standard_J(n: int) -> np.ndarray:
    J = np.zeros((2 * n, 2 * n))
    J[n:, :n] = np.eye(n)
    J[:n, n:] = -np.eye(n)
    return J


def test_torus_splitting_is_all_residual_block():
    alg = RealLieAlgebra(np.zeros((4, 4, 4)))
    dec = build_admissible_frame(alg, _standard_J(2), np.eye(4))
    assert (dec.r, dec.s, dec.n) == (0, 0, 2)
    assert dec.pure_type == "I"
    assert dec.gprime.shape[1] == 0
    assert dec.W.shape[1] == 4
    sc = complexify_and_extract(alg, _standard_J(2), dec.frame)
    res = verify_restrictions(dec, sc)
    assert res["restriction1"].passed and res["restriction1"].residual == 0.0
    assert res["restriction2"].passed and res["restriction2"].residual == 0.0


def test_kodaira_thurston_splitting():
    f, J, G = kt_real()
    alg = RealLieAlgebra(f)
    dec = build_admissible_frame(alg, J, G)
    assert (dec.r, dec.s, dec.n) == (0, 1, 2)
    assert dec.pure_type == "I"
    assert dec.dims == (4, 1, 0)
    # V is one-dimensional and J moves it off itself, so the middle
    # Gram block is exactly 1/2
    assert dec.g_mid == pytest.approx(np.array([[0.5]]))


def test_kodaira_thurston_restriction2_fails_cleanly():
    f, J, G = kt_real()
    alg = RealLieAlgebra(f)
    dec = build_admissible_frame(alg, J, G)
    sc = complexify_and_extract(alg, J, dec.frame)
    res = verify_restrictions(dec, sc)
    assert res["restriction1"].passed
    assert res["restriction1"].residual == 0.0
    assert not res["restriction2"].passed
    assert res["restriction2"].residual == pytest.approx(1.0, abs=1e-12)


def test_build_admissible_frame_is_deterministic():
    f, J, G = kt_real()
    alg = RealLieAlgebra(f)
    a = build_admissible_frame(alg, J, G)
    b = build_admissible_frame(alg, J, G)
    assert np.array_equal(a.frame.E, b.frame.E)


def test_affine_algebra_passes_both_restrictions():
    sc = aff_sc()
    alg, J, G, _ = realify(sc.C, sc.D)
    dec = build_admissible_frame(alg, J, G)
    assert (dec.r, dec.s, dec.n) == (1, 1, 2)
    assert dec.pure_type == "II"
    adapted = complexify_and_extract(alg, J, dec.frame)
    res = verify_restrictions(dec, adapted)
    assert res["restriction1"].passed
    assert res["restriction2"].passed


def test_non_solvable_algebra_is_rejected():
    f = np.zeros((6, 6, 6))
    f[2, 0, 1], f[2, 1, 0] = 1.0, -1.0
    f[0, 1, 2], f[0, 2, 1] = 1.0, -1.0
    f[1, 2, 0], f[1, 0, 2] = 1.0, -1.0
    alg = RealLieAlgebra(f)
    with pytest.raises(PreconditionError):
        build_admissible_frame(alg, _standard_J(3), np.eye(6))


@pytest.mark.parametrize("r,n,seed", [(1, 3, 11), (2, 5, 12), (3, 6, 13)])
def test_family_generating_frame_is_admissible(r, n, seed):
    fam = generate_family(r, n, seed=seed)
    alg, J, G, frame = realify(fam.sc.C, fam.sc.D, fam.g)
    dec = admissible_from_frame(alg, J, G, frame)
    assert (dec.r, dec.s) == (fam.r, fam.s)
    assert dec.pure_type == "II"
    res = verify_restrictions(dec, fam.sc)
    assert all(v.passed for v in res.values())


@pytest.mark.parametrize("r,n,seed", [(1, 3, 11), (2, 5, 12), (3, 6, 13)])
def test_family_satisfies_all_block_identities(r, n, seed):
    fam = generate_family(r, n, seed=seed)
    alg, J, G, frame = realify(fam.sc.C, fam.sc.D, fam.g)
    dec = admissible_from_frame(alg, J, G, frame)
    for name, check in verify_bianchi_blocks(dec, fam.sc).items():
        assert check.passed, f"{name}: {check.residual}"
        assert check.residual <= 1e-12
    for name, check in verify_hs_blocks(dec, fam.sc, fam.S).items():
        assert check.passed, f"{name}: {check.residual}"
        assert check.residual <= 1e-12


def test_rebuilt_family_frame_still_passes_restrictions():
    fam = generate_family(2, 5, seed=12)
    alg, J, G, _ = realify(fam.sc.C, fam.sc.D, fam.g)
    dec = build_admissible_frame(alg, J, G)
    assert (dec.r, dec.s, dec.n) == (2, 2, 5)
    adapted = complexify_and_extract(alg, J, dec.frame)
    res = verify_restrictions(dec, adapted)
    assert all(v.passed for v in res.values())


def test_admissible_from_frame_rejects_unadapted_columns():
    fam = generate_family(1, 3, seed=11)
    alg, J, G, frame = realify(fam.sc.C, fam.sc.D, fam.g)
    M = np.eye(3, dtype=complex)
    M[2, 0] = 0.5  # leak a residual direction into the core column
    bad = Frame(frame.E @ M, J)
    with pytest.raises(StructureError):
        admissible_from_frame(alg, J, G, bad)


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
    alg = RealLieAlgebra(np.zeros((4, 4, 4)))
    dec = build_admissible_frame(alg, _standard_J(2), np.eye(4))
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
    scale_c = max(1.0, sc.magnitude() ** 2)
    scale_d = max(1.0, max(sc.magnitude(), _max_abs(S)) ** 2)
    for key, chk in got.items():
        want = ref.get(key, 0.0) / (scale_c if key.startswith("C") else scale_d)
        if key in vanishing:
            assert chk.residual == want == 0.0, key
        else:
            assert want > 0.0, key
            assert chk.residual == pytest.approx(want, rel=1e-12), key
            assert not chk.passed, key
