"""Torsion, metric classes, and the closed-completion feasibility system."""

import math

import numpy as np
import pytest

from hskahler import (
    DEFAULT_CONFIG,
    FrameMetric,
    InvariantForm,
    RealLieAlgebra,
    StructureConstants,
    canonical_frame,
    change_frame,
    chern_torsion,
    d_omega,
    chern_torsion_unitary,
    complexify_and_extract,
    frame_metric_from_real,
    generate_family,
    hs_decide,
    hs_form,
    hs_metric_search,
    hs_residual_of,
    kahler_check,
    kahler_form,
    pluriclosed_check,
    balanced_check,
)

from hskahler.metrics import _hs_rows, _hs_system

from conftest import (
    abelian_sc,
    aff_sc,
    catalog_doc,
    jacobi_pool,
    kt_real,
    random_invertible,
    random_jacobi_sc,
    random_posdef,
    random_unitary,
    unitary,
)


def kt_complex():
    f, J, G = kt_real()
    alg = RealLieAlgebra(f)
    frame = canonical_frame(J)
    return complexify_and_extract(alg, J, frame), frame_metric_from_real(G, frame)


def transform_torsion(T: np.ndarray, A: np.ndarray) -> np.ndarray:
    """The (1,2)-tensor transform matching the change_frame convention."""
    Ainv = np.linalg.inv(A)
    return np.einsum("xb,ay,cz,xyz->bac", A, Ainv, Ainv, T)


def test_torsion_unitary_closed_form(rng):
    for _ in range(20):
        sc = random_jacobi_sc(rng)
        gap = chern_torsion(sc, np.eye(sc.n)) - chern_torsion_unitary(sc)
        assert np.max(np.abs(gap)) <= 1e-12


def test_torsion_closed_form_does_not_need_jacobi(rng):
    from hskahler import StructureConstants

    n = 4
    C = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    D = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    sc = StructureConstants(C, D, validate=False)
    gap = chern_torsion(sc, np.eye(n)) - chern_torsion_unitary(sc)
    assert np.max(np.abs(gap)) <= 1e-12


def test_torsion_tensoriality(rng):
    for _ in range(10):
        sc = random_jacobi_sc(rng)
        g = random_posdef(rng, sc.n)
        A = random_invertible(rng, sc.n)
        Ainv = np.linalg.inv(A)
        moved = change_frame(sc, A)
        g_moved = Ainv @ g @ Ainv.conj().T
        direct = chern_torsion(moved, g_moved)
        transported = transform_torsion(chern_torsion(sc, g), A)
        assert np.max(np.abs(direct - transported)) <= 1e-9


def test_torsion_antisymmetry(rng):
    sc = random_jacobi_sc(rng)
    T = chern_torsion(sc, random_posdef(rng, sc.n))
    np.testing.assert_allclose(T, -T.swapaxes(1, 2), atol=1e-14)


def test_kahler_form_reality_and_coeffs(rng):
    g = random_posdef(rng, 3)
    omega = kahler_form(g)
    assert (omega.conj() - omega).sup() <= 1e-15
    assert omega.bidegrees() == {(1, 1)}


def test_metric_classes_on_known_instances():
    # torus: everything passes
    sc = abelian_sc(2)
    assert kahler_check(sc).passed
    assert pluriclosed_check(sc).passed
    assert balanced_check(sc).passed

    # Kodaira-Thurston: pluriclosed but not Kahler, not balanced
    sc, g = kt_complex()
    sc = unitary(sc, g.g)
    assert pluriclosed_check(sc).passed
    assert not kahler_check(sc).passed
    assert not balanced_check(sc).passed

    # affine algebra: nothing passes at the identity
    sc = aff_sc()
    assert not kahler_check(sc).passed
    assert not pluriclosed_check(sc).passed
    assert not balanced_check(sc).passed

    # family instances are pluriclosed, not Kahler for generic p
    fam = generate_family(2, 5, seed=3)
    sc = unitary(fam.sc, fam.g)
    assert pluriclosed_check(sc).passed
    assert not kahler_check(sc).passed


def kahler_reference(sc, g) -> float:
    """d omega through the form engine."""
    return kahler_form(g).d(sc).sup()


def balanced_reference(sc, g) -> float:
    """d(omega^(n-1)) / (n-1)! through the form engine."""
    n = sc.n
    power = InvariantForm.scalar(n, 1.0)
    for _ in range(n - 1):
        power = power.wedge(kahler_form(g))
    return power.d(sc).sup() / math.factorial(max(n - 1, 1))


def catalog_pairs():
    for name in ("torus", "kodaira_thurston", "aff_complex", "family_r1n2", "family_r2n5"):
        doc = catalog_doc(name)
        if doc.mode == "complex":
            sc, g, _ = doc.build_complex()
        else:
            alg, J, G = doc.build_real()
            frame = canonical_frame(J)
            sc, g = complexify_and_extract(alg, J, frame), frame_metric_from_real(G, frame).g
        yield sc, g


def random_pairs(rng, count):
    """Frame-changed Jacobi instances and raw tensors that break Bianchi
    (the class formulas are pointwise identities and need no Jacobi)."""
    for t in range(count):
        if t % 2:
            sc = random_jacobi_sc(rng)
        else:
            n = int(rng.integers(1, 6))
            C = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
            D = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
            sc = StructureConstants(C, D, validate=False)
        yield sc, random_posdef(rng, sc.n)


def test_kahler_and_balanced_match_the_form_engine(rng):
    """In a g-unitary frame the checks equal the form engine at g = Identity."""
    pairs = list(catalog_pairs()) + list(random_pairs(rng, 200))
    for sc, g in pairs:
        sc = unitary(sc, g)
        for check, reference in ((kahler_check, kahler_reference), (balanced_check, balanced_reference)):
            ref = reference(sc, np.eye(sc.n))
            res = check(sc).residual
            assert abs(res - ref) <= 1e-12 * ref or res == ref == 0.0, (check.__name__, sc.n)


def test_d_omega_is_the_form_engine_on_indefinite_matrices(rng):
    """The closure map needs no inverse, so it holds for any Hermitian h."""
    for sc in jacobi_pool():
        n = sc.n
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = a + a.conj().T
        h -= np.trace(h).real / n * np.eye(n)
        assert np.linalg.eigvalsh(h)[0] < 0.0
        ref = kahler_form(h).d(sc)
        got = d_omega(sc, h)
        assert abs(np.max(np.abs(got)) - ref.sup()) <= 1e-12 * ref.sup()
        iu, ku = np.triu_indices(n, 1)
        want = [[ref.terms.get(((i + 1, k + 1), (j + 1,)), 0.0) for j in range(n)]
                for i, k in zip(iu, ku)]
        np.testing.assert_allclose(got[iu, ku], want, rtol=0, atol=1e-12 * max(1.0, ref.sup()))
        np.testing.assert_array_equal(got, -got.swapaxes(0, 1))
        stack = np.stack([h, np.eye(n), 2.0 * h])
        np.testing.assert_allclose(d_omega(sc, stack), [got, d_omega(sc, np.eye(n)), 2.0 * got],
                                   rtol=0, atol=1e-14 * max(1.0, ref.sup()))


def per_basis_matrix(sc) -> np.ndarray:
    """The HS matrix one skew basis element at a time, with one einsum per term."""
    C, Dc = sc.C, np.conj(sc.D)
    cols = []
    for p in range(sc.n):
        for q in range(p + 1, sc.n):
            S = np.zeros((sc.n, sc.n), dtype=complex)
            S[p, q], S[q, p] = 1.0, -1.0
            fam_a = (
                np.einsum("ri,rjk->ijk", S, C)
                + np.einsum("rj,rki->ijk", S, C)
                + np.einsum("rk,rij->ijk", S, C)
            )
            fam_b = np.einsum("rk,irj->ikj", S, Dc) - np.einsum("ri,krj->ikj", S, Dc)
            cols.append(np.concatenate([fam_a.ravel(), fam_b.ravel()]))
    return np.stack(cols, axis=1) if cols else np.zeros((2 * sc.n**3, 0), dtype=complex)


def distinct_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the distinct rows in the layout of :func:`per_basis_matrix`,
    family (a) at i < j < k then family (b) at (i < k, j), and the number
    of copies of each up to sign, sqrt(6) and sqrt(2) as weights."""
    r = np.arange(n)
    i, j, k = np.nonzero((r[:, None, None] < r[None, :, None]) & (r[None, :, None] < r[None, None, :]))
    iu, ku = np.triu_indices(n, 1)
    fam_b = n**3 + ((iu * n + ku)[:, None] * n + r[None, :]).ravel()
    rows = np.concatenate([(i * n + j) * n + k, fam_b]).astype(int)
    w = np.concatenate([np.full(i.size, np.sqrt(6.0)), np.full(fam_b.size, np.sqrt(2.0))])
    return rows, w


def full_row_solve(sc, g):
    """The HS least-squares problem on all 2 n^3 rows, with the same rank cut."""
    A = per_basis_matrix(sc)
    b = np.concatenate([np.zeros(sc.n**3), -0.5 * d_omega(sc, g).ravel()])
    u, s, vh = np.linalg.svd(A, full_matrices=False)
    keep = s > DEFAULT_CONFIG.tol_rank * max(float(s[0]) if s.size else 0.0, 1.0)
    x = vh[keep].conj().T @ ((u[:, keep].conj().T @ b) / s[keep])
    res, b_norm = float(np.linalg.norm(A @ x - b)), float(np.linalg.norm(b))
    return x, res, b_norm, res / max(1.0, b_norm)


def test_hs_matrix_is_the_weighted_distinct_rows_of_the_per_basis_stack(rng):
    """The kept rows carry the full system: the same Gram matrix, residual,
    right-hand side norm and minimum-norm S as a solve on every row."""
    for sc, g in list(catalog_pairs()) + list(random_pairs(rng, 100)):
        full = per_basis_matrix(sc)
        rows, w = distinct_rows(sc.n)
        A = _hs_system(sc, DEFAULT_CONFIG).A
        scale = max(1.0, np.max(np.abs(full), initial=0.0))
        np.testing.assert_allclose(A, w[:, None] * full[rows], rtol=0, atol=1e-15 * scale)
        gram = full.conj().T @ full
        np.testing.assert_allclose(A.conj().T @ A, gram, rtol=0,
                                   atol=1e-12 * max(1.0, np.max(np.abs(gram), initial=0.0)))
        x, res, b_norm, normalized = full_row_solve(sc, g)
        sol = hs_decide(sc, g)
        assert sol.residual == pytest.approx(res, rel=1e-12, abs=1e-12)
        assert sol.b_norm == pytest.approx(b_norm, rel=1e-12, abs=1e-12)
        assert sol.normalized == pytest.approx(normalized, rel=1e-12, abs=1e-12)
        assert sol.feasible == (normalized <= DEFAULT_CONFIG.tol_feas)
        if sol.feasible:
            np.testing.assert_allclose(sol.S[np.triu_indices(sc.n, 1)], x, rtol=0,
                                       atol=1e-12 * max(1.0, np.max(np.abs(x), initial=0.0)))


@pytest.mark.parametrize("n", range(2, 17))
def test_hs_matrix_keeps_only_the_distinct_rows(n, rng):
    """A memory guard: C(n,3) + n C(n,2) rows, (2480, 120) at n = 16,
    where the full system has 2 n^3 = 8192."""
    C = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    D = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    A = _hs_system(StructureConstants(C, D, validate=False), DEFAULT_CONFIG).A
    assert A.shape == (math.comb(n, 3) + n * math.comb(n, 2), math.comb(n, 2))


def test_hs_rows_of_one_matrix_match_the_stack(rng):
    sc = random_jacobi_sc(rng)
    S = rng.standard_normal((3, sc.n, sc.n)) + 1j * rng.standard_normal((3, sc.n, sc.n))
    S = S - S.swapaxes(1, 2)
    iu, ju = np.triu_indices(sc.n, 1)
    rows, _ = distinct_rows(sc.n)
    stack = _hs_rows(sc, S)
    for t in range(3):
        want = (per_basis_matrix(sc) @ S[t, iu, ju])[rows]
        np.testing.assert_allclose(_hs_rows(sc, S[t][None])[0], want, atol=1e-12)
        np.testing.assert_allclose(stack[t], want, atol=1e-12)


def test_hs_residual_of_is_the_sup_over_all_rows(rng):
    """The dropped rows repeat kept ones up to sign, so the sup norm over
    the distinct rows is the sup norm over all 2 n^3."""
    for sc, g in list(catalog_pairs()) + list(random_pairs(rng, 50)):
        S = rng.standard_normal((sc.n, sc.n)) + 1j * rng.standard_normal((sc.n, sc.n))
        S = S - S.T
        iu, ju = np.triu_indices(sc.n, 1)
        b = np.concatenate([np.zeros(sc.n**3), -0.5 * d_omega(sc, g).ravel()])
        want = np.max(np.abs(per_basis_matrix(sc) @ S[iu, ju] - b), initial=0.0)
        assert hs_residual_of(sc, g, S) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_balanced_equals_kahler_in_complex_dim_two():
    """For n = 2 the (n-1)-th power is omega itself, so balanced and
    Kahler coincide; a quick consistency check of the power handling."""
    fam = generate_family(1, 2, seed=1)
    sc = unitary(fam.sc, fam.g)
    assert balanced_check(sc).passed == kahler_check(sc).passed


def test_hs_torus_and_kahler_implies_zero_S():
    sc = abelian_sc(3)
    sol = hs_decide(sc, np.eye(3))
    assert sol.feasible
    assert sol.residual == 0.0
    assert np.max(np.abs(sol.S)) == 0.0

    fam = generate_family(2, 5, seed=8, p=np.zeros(2), lam=None)
    # p = 0 makes the instance Kahler, hence S = 0 is the minimum-norm solution
    assert kahler_check(unitary(fam.sc, fam.g)).passed
    sol = hs_decide(fam.sc, fam.g)
    assert sol.feasible
    assert np.max(np.abs(sol.S)) <= 1e-12


def test_hs_kt_infeasible_with_forced_residual():
    """The mixed-equation family forces the constant -i/2 twice (once
    per conjugate pairing), so the optimum is sqrt(1/2)."""
    sc, g = kt_complex()
    sol = hs_decide(sc, g)
    assert not sol.feasible
    assert sol.residual >= 0.3
    assert sol.residual == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert sol.S is None


def test_hs_family_feasible_and_generator_solution_valid():
    fam = generate_family(3, 6, seed=21)
    sol = hs_decide(fam.sc, fam.g)
    assert sol.feasible
    assert sol.normalized <= 1e-12
    # the generator's completion solves the same system
    assert hs_residual_of(fam.sc, fam.g, fam.S) <= 1e-12
    # and the reported minimum-norm solution does too
    assert hs_residual_of(fam.sc, fam.g, sol.S) <= 1e-10


def test_hs_residual_unitary_invariance(rng):
    fam = generate_family(2, 4, seed=13)
    base = hs_decide(fam.sc, fam.g)
    for _ in range(5):
        U = random_unitary(rng, fam.sc.n)
        moved = change_frame(fam.sc, U)
        g_moved = np.linalg.inv(U) @ fam.g @ np.linalg.inv(U).conj().T
        sol = hs_decide(moved, g_moved)
        assert sol.residual == pytest.approx(base.residual, abs=1e-9)

    sc, g = kt_complex()
    base = hs_decide(sc, g)
    U = random_unitary(rng, 2)
    sol = hs_decide(change_frame(sc, U), np.linalg.inv(U) @ g.g @ np.linalg.inv(U).conj().T)
    assert sol.residual == pytest.approx(base.residual, abs=1e-9)


def test_hs_completion_closes_omega():
    """The defining property: d(alpha + omega + conj(alpha)) = 0."""
    for (r, n, seed) in [(1, 2, 0), (2, 5, 4)]:
        fam = generate_family(r, n, seed=seed)
        sol = hs_decide(fam.sc, fam.g)
        alpha = hs_form(sol.S)
        omega = kahler_form(fam.g)
        big = alpha + omega + alpha.conj()
        assert big.d(fam.sc).sup() <= 1e-10


def test_hs_form_coefficients():
    S = np.array([[0.0, 2.0 + 1j], [-(2.0 + 1j), 0.0]])
    alpha = hs_form(S)
    assert alpha.terms == {((1, 2), ()): 2.0 * (2.0 + 1j)}
    assert hs_form(np.zeros((3, 3))).is_zero()


def test_search_finds_family_and_rejects_kt():
    fam = generate_family(1, 3, seed=6)
    res = hs_metric_search(fam.sc, restarts=2, budget=100, seed=0)
    assert res.found
    assert res.best_residual <= 1e-8

    sc, _ = kt_complex()
    res = hs_metric_search(sc, restarts=4, budget=400, seed=0)
    assert not res.found
    # the infimum sits at the degenerate boundary; the positivity floor
    # keeps the search from certifying it
    assert res.best_residual > 1e-8


def test_search_residual_is_the_decision_at_its_metric():
    for sc in (generate_family(1, 3, seed=6).sc, kt_complex()[0], aff_sc()):
        res = hs_metric_search(sc, restarts=2, budget=150, seed=0)
        assert res.best_residual == hs_decide(sc, res.best_g).normalized


def test_search_deterministic():
    sc = aff_sc()
    a = hs_metric_search(sc, restarts=3, budget=200, seed=7)
    b = hs_metric_search(sc, restarts=3, budget=200, seed=7)
    assert a.best_residual == b.best_residual
    assert a.evals == b.evals
    np.testing.assert_array_equal(a.best_g, b.best_g)


def test_frame_metric_from_real_identity_case():
    f, J, G = kt_real()
    fm = frame_metric_from_real(G, canonical_frame(J))
    np.testing.assert_allclose(fm.g, np.eye(2), atol=1e-14)


def test_frame_metric_rejects_indefinite():
    f, J, G = kt_real()
    with pytest.raises(Exception):
        frame_metric_from_real(-np.eye(4), canonical_frame(J))
