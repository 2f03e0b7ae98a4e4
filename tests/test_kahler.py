"""Joint diagonalization, claims extraction, and the certificate step."""

import numpy as np
import pytest

from conftest import (
    FAMILY_GRID, abelian_sc, aff_sc, catalog_doc, kt_real, random_invertible, random_unitary,
)

from hskahler.algebra import (
    RealLieAlgebra,
    StructureConstants,
    canonical_frame,
    change_frame,
    complexify_and_extract,
    realify,
    unimodularity_check,
)
from hskahler.analysis import run_kahlerize
from hskahler.documents import AlgebraDocument
from hskahler.errors import (
    CertificationError,
    ClaimViolation,
    ParameterError,
    PreconditionError,
    StructureError,
)
from hskahler.forms import InvariantForm, hermitian_coefficients
from hskahler.kahler import (
    claims_pipeline,
    generate_family,
    kahlerize,
    simultaneous_diagonalize,
)
from hskahler.metrics import d_omega, frame_metric_from_real, kahler_form
from hskahler.solvable import admissible_from_frame, build_admissible_frame


# ------------------------------------------------- joint diagonalization


def test_diagonal_input_comes_back_sorted():
    U, lam = simultaneous_diagonalize([np.diag([2.0, 1.0])])
    assert lam == pytest.approx(np.array([[1.0, 2.0]]))
    assert np.abs(U) == pytest.approx(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_joint_recovery_of_commuting_family(rng):
    lam_true = np.array([[1.0, 2.0, 3.0], [3.0 + 1.0j, 4.0, 5.0 - 2.0j]])
    Q = random_unitary(rng, 3)
    mats = [Q @ np.diag(row) @ Q.conj().T for row in lam_true]
    U, lam = simultaneous_diagonalize(mats)
    assert lam == pytest.approx(lam_true, abs=1e-10)
    assert U.conj().T @ U == pytest.approx(np.eye(3), abs=1e-12)
    for M, row in zip(mats, lam):
        assert U.conj().T @ M @ U == pytest.approx(np.diag(row), abs=1e-10)


def test_degenerate_block_needs_the_second_matrix(rng):
    # the first matrix alone cannot split the (1, 1) eigenspace; the
    # reconstructed degenerate values carry 1e-16 noise, so the order
    # within the tied pair is checked up to permutation
    from conftest import align_columns

    lam_true = np.array([[1.0, 1.0, 2.0], [4.0, 3.0, 5.0]])
    Q = random_unitary(rng, 3)
    mats = [Q @ np.diag(row) @ Q.conj().T for row in lam_true]
    U, lam = simultaneous_diagonalize(mats)
    assert align_columns(lam, lam_true) <= 1e-10
    for M, row in zip(mats, lam):
        assert U.conj().T @ M @ U == pytest.approx(np.diag(row), abs=1e-10)


def test_exact_ties_break_on_the_later_matrix():
    # exactly diagonal input keeps the sort keys exact, so the
    # canonical order itself is observable
    _, lam = simultaneous_diagonalize([np.diag([1.0, 1.0, 2.0]), np.diag([4.0, 3.0, 5.0])])
    assert np.array_equal(lam, np.array([[1.0, 1.0, 2.0], [3.0, 4.0, 5.0]], dtype=complex))


def test_column_phases_are_canonical(rng):
    Q = random_unitary(rng, 4)
    M = Q @ np.diag([1.0, 2.0, 3.0, 4.0]) @ Q.conj().T
    U, _ = simultaneous_diagonalize([M])
    for k in range(4):
        j = int(np.argmax(np.abs(U[:, k])))
        assert U[j, k].imag == pytest.approx(0.0, abs=1e-14)
        assert U[j, k].real > 0


def test_diagonalization_is_bit_deterministic(rng):
    Q = random_unitary(rng, 3)
    mats = [Q @ np.diag([1.0, 1.0, 2.0]) @ Q.conj().T, Q @ np.diag([3.0, 4.0, 4.0]) @ Q.conj().T]
    U1, lam1 = simultaneous_diagonalize(mats)
    U2, lam2 = simultaneous_diagonalize(mats)
    assert np.array_equal(U1, U2)
    assert np.array_equal(lam1, lam2)


def test_non_normal_matrix_is_rejected():
    with pytest.raises(PreconditionError):
        simultaneous_diagonalize([np.array([[0.0, 1.0], [0.0, 0.0]])])


def test_non_commuting_family_is_rejected():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.diag([1.0, -1.0])
    with pytest.raises(PreconditionError):
        simultaneous_diagonalize([sx, sz])


def test_empty_and_zero_size_inputs():
    U, lam = simultaneous_diagonalize([])
    assert U.shape == (0, 0) and lam.shape == (0, 0)
    U, lam = simultaneous_diagonalize([np.zeros((0, 0))])
    assert U.shape == (0, 0) and lam.shape == (1, 0)


# ------------------------------------------------------------------ claims


def _family_dec(fam):
    return admissible_from_frame(fam.alg, fam.J, fam.G, fam.frame)


def test_claims_recover_family_data_verbatim():
    fam = generate_family(2, 5, seed=21)
    rec = claims_pipeline(_family_dec(fam), fam.sc, fam.S)
    assert rec.worst() <= 1e-12
    assert rec.lam == pytest.approx(fam.lam, abs=1e-12)
    assert rec.p == pytest.approx(fam.p, abs=1e-12)
    assert rec.t_independent
    assert rec.p_residual <= 1e-12


def test_claims_gate_on_a_nonvanishing_z_block():
    fam = generate_family(1, 3, seed=22)
    D = fam.sc.D.copy()
    D[2, 0, 0] = 0.1  # plant a Z entry that a closed completion forbids
    broken = StructureConstants(fam.sc.C, D, validate=False)
    with pytest.raises(ClaimViolation) as err:
        claims_pipeline(_family_dec(fam), broken, fam.S)
    assert err.value.residuals["Z"] > 0.0
    assert err.value.residuals["worst"] >= err.value.residuals["Z"]


def test_claims_gate_on_an_opposition_failure():
    fam = generate_family(1, 3, seed=23)
    C = fam.sc.C.copy()
    C[0, 0, 1], C[0, 1, 0] = C[0, 0, 1] + 0.2, C[0, 1, 0] - 0.2
    broken = StructureConstants(C, fam.sc.D, validate=False)
    with pytest.raises(ClaimViolation) as err:
        claims_pipeline(_family_dec(fam), broken, fam.S)
    assert err.value.residuals["opposition"] > 0.0


def test_claims_need_a_solution():
    fam = generate_family(1, 3, seed=24)
    with pytest.raises(PreconditionError):
        claims_pipeline(_family_dec(fam), fam.sc, None)


def _loop_claims(rec):
    """Claims 3-5, xi, p and its residual, one label at a time on the
    rotated blocks; raw residuals, the reference for the array version."""
    sc, S, r = rec.sc_rotated, rec.S_rotated, rec.r
    xs = range(r + 1, rec.n + 1)
    Dm = lambda x: sc.D[:r, :r, x - 1].T
    v = lambda y, x: sc.D[y - 1, :r, x - 1]
    amax = lambda a: float(np.max(np.abs(a), initial=0.0))
    Hs = S[:r, :r].conj().T @ S[:r, :r]
    out = {"commutation": 0.0, "range_membership": 0.0, "common_preimage": 0.0}
    xi = np.zeros((len(xs), r), dtype=complex)
    for x in xs:
        Dx, d, b = Dm(x), np.diagonal(Dm(x)), v(x, x)
        out["commutation"] = max(out["commutation"], amax(Dx @ Hs - Hs @ Dx),
                                 amax(Dx.conj().T @ Hs - Hs @ Dx.conj().T))
        keep = np.abs(d) > 1e-8 * amax(d)
        xi[x - r - 1][keep] = b[keep] / d[keep]
    for x in xs:
        dx = np.diagonal(Dm(x))
        for y in xs:
            dy = np.diagonal(Dm(y))
            dead = (np.abs(dx) <= 1e-8 * max(amax(dx), 1e-300)) | (
                np.abs(dy) <= 1e-8 * max(amax(dy), 1e-300))
            out["range_membership"] = max(out["range_membership"], amax(v(x, y)[dead]))
            out["common_preimage"] = max(out["common_preimage"], amax(v(x, y) - dy * xi[x - r - 1]))
    lam = rec.lam
    p = np.array([np.conj(np.sum(lam[:, i] * xi[:, i]) / float(np.sum(np.abs(lam[:, i]) ** 2)))
                  for i in range(r)])
    p_res = max(amax(xi[:, i] - np.conj(p[i]) * np.conj(lam[:, i]))
                / max(1.0, float(np.linalg.norm(lam[:, i]))) for i in range(r))
    return out, xi, p, p_res


def test_claims_match_the_per_label_loops():
    # a zero eigenvalue entry, a perturbed v block and a nonzero core block
    # of S: claims 3 to 5 fail while the gates of claims 1 and 2 pass
    fam = generate_family(3, 6, lam=[[1.0, 0.5j, 0.2], [0.0, 1.0, -0.4j], [0.3 - 0.2j, -0.7, 0.9]],
                          p=[0.4 + 0.1j, -0.2 + 0.6j, 0.5])
    rng = np.random.default_rng(31)
    cplx = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    D = fam.sc.D.copy()
    D[3:, :3, 3:] += 0.1 * cplx(3, 3, 3)
    sc = StructureConstants(fam.sc.C, D, validate=False)
    S = fam.S.copy()
    S[:3, :3] = 0.2 * (lambda A: A - A.T)(cplx(3, 3))
    rec = claims_pipeline(_family_dec(fam), sc, S)
    ref, xi, p, p_res = _loop_claims(rec)
    scale = max(1.0, float(np.max(np.abs(S)))) ** 2
    for key, want in ref.items():
        assert want > 0.0, key
        assert getattr(rec, key).residual == pytest.approx(want / scale, rel=1e-12), key
    assert np.array_equal(rec.xi, xi)
    assert np.array_equal(rec.p, p)
    assert rec.p_residual == pytest.approx(p_res, rel=1e-12) and p_res > 0.0


def test_vanishing_eigenvalue_tuple_is_structural():
    # abelian constants in a splitting that insists on a core direction:
    # the core never appears in any bracket, so t_1 = 0
    sc = aff_sc()
    alg, J, G, _ = realify(sc.C, sc.D)
    dec = build_admissible_frame(alg, J, G)
    assert dec.r == 1
    with pytest.raises(StructureError):
        claims_pipeline(dec, abelian_sc(2), np.zeros((2, 2)))


# ----------------------------------------------------------- family oracle


def _sigma(fam, i: int) -> InvariantForm:
    out = InvariantForm.zero(fam.n)
    for x0 in range(fam.n - fam.r):
        out = out + fam.lam[x0, i] * InvariantForm.phi(fam.n, fam.r + x0 + 1)
    return out


@pytest.mark.parametrize("r,n", [(1, 2), (1, 4), (2, 4), (2, 6), (3, 6)])
def test_family_satisfies_the_model_structure_equation(r, n):
    fam = generate_family(r, n, seed=100 + 10 * r + n)
    for i in range(r):
        phi_i = InvariantForm.phi(n, i + 1)
        sig = _sigma(fam, i)
        want = phi_i.wedge(sig - sig.conj()) - fam.p[i] * sig.wedge(sig.conj())
        got = phi_i.d(fam.sc)
        assert (got - want).sup() <= 1e-12
    for x in range(r + 1, n + 1):
        assert InvariantForm.phi(n, x).d(fam.sc).sup() == 0.0


@pytest.mark.parametrize("r,n", [(1, 3), (2, 5), (3, 6)])
def test_family_fundamental_form_derivative_matches_the_model(r, n):
    fam = generate_family(r, n, seed=200 + 10 * r + n)
    omega = InvariantForm.zero(n)
    for k in range(1, n + 1):
        omega = omega + 1j * InvariantForm.phi(n, k).wedge(InvariantForm.phibar(n, k))
    want = InvariantForm.zero(n)
    for i in range(r):
        sig = _sigma(fam, i)
        line = np.conj(fam.p[i]) * InvariantForm.phi(n, i + 1) + fam.p[i] * InvariantForm.phibar(n, i + 1)
        want = want + (-1j) * line.wedge(sig.wedge(sig.conj()))
    assert (omega.d(fam.sc) - want).sup() <= 1e-12


# ------------------------------------------------------------- certificate


@pytest.mark.parametrize("r,n", FAMILY_GRID)
def test_certificate_closes_and_recovers_parameters(r, n):
    fam = generate_family(r, n, seed=300 + 10 * r + n)
    cert = kahlerize(_family_dec(fam), fam.sc, fam.S)
    assert cert.residuals["d_omega_tilde"] <= 1e-10
    assert max(cert.termwise_residuals) <= 1e-10
    assert cert.positive and cert.min_eig > 0.0
    assert cert.lam == pytest.approx(fam.lam, abs=1e-9)
    assert cert.p == pytest.approx(fam.p, abs=1e-9)
    # psi_i = phi_i + p_i sigma_i, identity on the residual block
    want = np.eye(n, dtype=complex)
    for i in range(r):
        want[i, r:] = fam.p[i] * fam.lam[:, i]
    assert cert.psi_coeffs == pytest.approx(want, abs=1e-12)


def test_certificate_without_explicit_solution_uses_the_decision():
    fam = generate_family(1, 3, seed=31)
    cert = kahlerize(_family_dec(fam), fam.sc)
    assert cert.residuals["d_omega_tilde"] <= 1e-10
    assert cert.p == pytest.approx(fam.p, abs=1e-9)


def test_uncoupled_family_is_already_closed():
    lam = np.array([[1.0 + 0.5j], [0.3 - 0.2j]])
    fam = generate_family(1, 3, lam, np.zeros(1))
    cert = kahlerize(_family_dec(fam), fam.sc, fam.S)
    assert np.array_equal(cert.psi_coeffs, np.eye(3, dtype=complex))
    assert cert.residuals["d_omega_tilde"] <= 1e-14
    omega = InvariantForm.zero(3)
    for k in range(1, 4):
        omega = omega + 1j * InvariantForm.phi(3, k).wedge(InvariantForm.phibar(3, k))
    assert omega.d(fam.sc).sup() <= 1e-14


def test_rescaled_coupling_is_just_another_instance():
    # the v vectors are the only place p enters the constants, so
    # scaling them all is the valid instance with p' = 1.3 p
    fam = generate_family(1, 3, seed=32)
    D = fam.sc.D.copy()
    D[1:, :1, 1:] *= 1.3
    scaled = StructureConstants(D=D, C=fam.sc.C)
    cert = kahlerize(_family_dec(fam), scaled, fam.S)
    assert cert.residuals["d_omega_tilde"] <= 1e-10
    assert cert.p == pytest.approx(1.3 * fam.p, abs=1e-9)


def test_tampered_coupling_fails_certification():
    fam = generate_family(1, 3, seed=32)
    D = fam.sc.D.copy()
    D[1, 0, 1] *= 1.3  # one v entry off the rank-one pattern
    broken = StructureConstants(fam.sc.C, D, validate=False)
    with pytest.raises(CertificationError):
        kahlerize(_family_dec(fam), broken, fam.S)
    cert = kahlerize(_family_dec(fam), broken, fam.S, strict=False)
    assert cert.residuals["d_omega_tilde"] > 1e-2
    assert cert.claims.common_preimage.residual > 1e-2


def test_infeasible_input_is_a_precondition_failure():
    f, J, G = kt_real()
    alg = RealLieAlgebra(f)
    dec = build_admissible_frame(alg, J, G)
    from hskahler.algebra import complexify_and_extract

    sc = complexify_and_extract(alg, J, dec.frame)
    with pytest.raises(PreconditionError):
        kahlerize(dec, sc)


def test_certificate_dimension_guard():
    fam = generate_family(1, 3, seed=33)
    with pytest.raises(PreconditionError):
        kahlerize(_family_dec(fam), abelian_sc(2))



# ------------------------------------------- the metric in the caller's frame


def _reframed(fam, A):
    """The family instance after the change of frame A, as the analysis
    sees it: the rebuilt admissible frame with its constants, and the
    document's own frame with its constants."""
    sc = change_frame(fam.sc, A)
    Ainv = np.linalg.inv(A)
    alg, J, G, frame = realify(sc.C, sc.D, Ainv @ fam.g @ Ainv.conj().T)
    dec = build_admissible_frame(alg, J, G)
    return dec, complexify_and_extract(alg, J, dec.frame), (frame, sc)


def _engine_omega(cert, dec):
    """omega~ and its terms as InvariantForms in the rotated admissible
    frame, wedged from psi_coeffs and g_mid one coefficient at a time."""
    n, r, s = cert.n, cert.r, cert.s
    psi = [sum((c * InvariantForm.phi(n, j + 1) for j, c in enumerate(row) if c != 0),
               InvariantForm.zero(n)) for row in cert.psi_coeffs]
    terms = [1j * psi[i].wedge(psi[i].conj()) for i in range(r)]
    rest = InvariantForm.zero(n)
    for a in range(r, s):
        for b in range(r, s):
            rest = rest + 1j * dec.g_mid[a - r, b - r] * InvariantForm.phi(n, a + 1).wedge(
                InvariantForm.phibar(n, b + 1))
    for c in range(s, n):
        rest = rest + 1j * InvariantForm.phi(n, c + 1).wedge(InvariantForm.phibar(n, c + 1))
    terms.append(rest)
    return sum(terms[1:], terms[0]), terms


@pytest.mark.parametrize("tamper", [False, True])
def test_certificate_metric_is_the_engine_form_in_the_callers_frame(rng, tamper):
    fam = generate_family(2, 5, seed=41)
    if tamper:  # one v entry off the rank-one pattern: the form is not closed
        D = fam.sc.D.copy()
        D[3, 0, 3] *= 1.3
        sc = StructureConstants(fam.sc.C, D, validate=False)
        dec, sc_adm, frame, S = _family_dec(fam), sc, fam.frame, fam.S
    else:
        dec, sc_adm, (frame, sc) = _reframed(fam, random_invertible(rng, 5))
        S = None
    cert = kahlerize(dec, sc_adm, S, target=(frame, sc), strict=False)
    omega, terms = _engine_omega(cert, dec)
    E_rot = dec.frame.E @ np.linalg.inv(cert.rotation).T
    Kinv = np.linalg.inv(np.linalg.lstsq(frame.E, E_rot, rcond=None)[0])
    to_doc = lambda form: Kinv.T @ hermitian_coefficients(form) @ np.conj(Kinv)
    h = to_doc(omega)
    assert np.max(np.abs(cert.metric - h)) <= 1e-12 * np.max(np.abs(h))
    engine = [kahler_form(to_doc(t)).d(sc).sup() for t in terms]
    whole = kahler_form(h).d(sc).sup()
    assert cert.termwise_residuals == pytest.approx(engine, rel=1e-12, abs=1e-13)
    assert cert.residuals["d_omega_tilde"] == pytest.approx(whole, rel=1e-12, abs=1e-13)
    assert (whole > 1e-2) is tamper and cert.closed is not tamper
    assert cert.min_eig == pytest.approx(np.linalg.eigvalsh(h)[0], rel=1e-12)


def test_certificate_metric_moves_by_congruence_under_a_change_of_frame(rng):
    doc = catalog_doc("family_r2n5")
    sc, g, _ = doc.build_complex()
    metric = run_kahlerize(doc).extras["certificate"]["metric"]
    for _ in range(3):
        A = random_invertible(rng, sc.n)
        Ainv = np.linalg.inv(A)
        moved = change_frame(sc, A)
        other = AlgebraDocument.from_complex("moved", moved.C, moved.D, g=Ainv @ g @ Ainv.conj().T)
        rep = run_kahlerize(other)
        assert rep.verdict.endswith("; Kähler metric constructed")
        want = Ainv @ metric @ Ainv.conj().T
        got = rep.extras["certificate"]["metric"]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_certificate_metric_is_stable_where_lam_and_p_are_not(rng):
    """The admissible frame is fixed only up to a unitary change inside
    its blocks, so a 1e-14 perturbation of the constants may move lam
    and p by O(1); the metric in the document's frame stays put."""
    fam = generate_family(3, 8, seed=42)
    A = random_invertible(rng, 8)
    Ainv = np.linalg.inv(A)
    sc, g = change_frame(fam.sc, A), Ainv @ fam.g @ Ainv.conj().T
    noise = lambda: 1.0 + 1e-14 * rng.standard_normal(sc.C.shape)
    metrics = []
    for C, D in [(sc.C, sc.D)] + [(sc.C * noise(), sc.D * noise()) for _ in range(3)]:
        rep = run_kahlerize(AlgebraDocument.from_complex("perturbed", C, D, g=g))
        assert rep.verdict.endswith("; Kähler metric constructed")
        metrics.append(rep.extras["certificate"]["metric"])
    for m in metrics[1:]:
        assert np.max(np.abs(m - metrics[0])) <= 1e-12 * np.max(np.abs(metrics[0]))


def test_real_documents_ship_the_real_metric(rng):
    fam = generate_family(2, 5, seed=43)
    P = rng.standard_normal((10, 10)) + 3.0 * np.eye(10)
    Pinv = np.linalg.inv(P)
    f = np.einsum("cz,zxy,xa,yb->cab", Pinv, fam.alg.f, P, P)
    J, G = Pinv @ fam.J @ P, P.T @ fam.G @ P
    rep = run_kahlerize(AlgebraDocument.from_real("real", f, J, G))
    assert rep.verdict.endswith("; Kähler metric constructed")
    cert = rep.extras["certificate"]
    Gt = cert["metric"]
    assert Gt.shape == (10, 10) and Gt.dtype == float and np.array_equal(Gt, Gt.T)
    alg, J, G = AlgebraDocument.from_real("real", f, J, G).build_real()
    frame = canonical_frame(J)
    sc = complexify_and_extract(alg, J, frame)
    dec = build_admissible_frame(alg, J, G)
    want = kahlerize(dec, complexify_and_extract(alg, J, dec.frame), target=(frame, sc)).metric
    h = frame_metric_from_real(Gt, frame).g
    assert np.max(np.abs(h - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.max(np.abs(d_omega(sc, h))) <= 1e-10
    assert np.linalg.eigvalsh(h)[0] == pytest.approx(cert["min_eig"], rel=1e-12)


# ------------------------------------------------------------ family input


def test_family_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        generate_family(0, 3)
    with pytest.raises(ParameterError):
        generate_family(3, 3)
    with pytest.raises(ParameterError):
        generate_family(2, 3)  # cannot draw independent tuples of length 1
    with pytest.raises(ParameterError):
        generate_family(1, 3, np.ones((1, 1)))  # lam shape mismatch
    with pytest.raises(ParameterError):
        generate_family(1, 3, np.ones((2, 1)), np.ones(2))  # p shape mismatch
    with pytest.raises(ParameterError):
        generate_family(2, 4, np.array([[1.0, 0.0], [2.0, 0.0]]))  # zero tuple
    dependent = generate_family(2, 4, np.array([[1.0, 2.0], [2.0, 4.0]]))  # supplied: accepted
    assert np.linalg.matrix_rank(dependent.lam) == 1
    with pytest.raises(ParameterError):
        generate_family(1, 2, np.array([[np.nan]]))


def test_family_column_order_is_a_gauge_choice():
    rng = np.random.default_rng(7)
    lam = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    p = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    a = generate_family(2, 5, lam, p)
    b = generate_family(2, 5, lam[:, ::-1], p[::-1])
    assert np.array_equal(a.sc.C, b.sc.C)
    assert np.array_equal(a.sc.D, b.sc.D)
    assert np.array_equal(a.S, b.S)
    assert np.array_equal(a.lam, b.lam) and np.array_equal(a.p, b.p)


def test_family_is_seeded_and_unimodular():
    a = generate_family(2, 5, seed=9)
    b = generate_family(2, 5, seed=9)
    assert np.array_equal(a.lam, b.lam) and np.array_equal(a.p, b.p)
    assert unimodularity_check(a.sc).passed
    assert a.sc.bianchi_residual() <= 1e-12
    assert a.s == a.r and a.g == pytest.approx(np.eye(5))
