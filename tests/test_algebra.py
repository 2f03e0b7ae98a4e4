"""Real-algebra layer: Jacobi, J, frames, extraction, derived series."""

import numpy as np
import pytest

from hskahler import (
    DimensionError,
    Frame,
    RankError,
    RealLieAlgebra,
    StructureConstants,
    StructureError,
    canonical_frame,
    change_frame,
    complexify_and_extract,
    generate_family,
    integrability_residual,
    realify,
    reconstruction_residual,
    solvable_profile,
    unimodularity_check,
)
from hskahler.algebra import _orthonormal_span, _rank
from hskahler.config import DEFAULT_CONFIG

from conftest import aff_sc, kt_real, random_invertible, random_jacobi_sc


def so3() -> RealLieAlgebra:
    f = np.zeros((3, 3, 3))
    for (a, b, c) in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        f[c, a, b] = 1.0
        f[c, b, a] = -1.0
    return RealLieAlgebra(f)


def test_jacobi_residual_zero_on_valid_inputs():
    f, J, G = kt_real()
    assert RealLieAlgebra(f).jacobi_residual() == 0.0
    fam = generate_family(2, 5, seed=3)
    assert fam.alg.jacobi_residual() <= 1e-12


def test_jacobi_validation_rejects_broken_tensor():
    # [e1, e2] = e3 and [e1, e3] = e1 together violate Jacobi:
    # the cyclic sum on (e1, e2, e3) comes out to -e3
    f = np.zeros((3, 3, 3))
    f[2, 0, 1] = 1.0
    f[2, 1, 0] = -1.0
    f[0, 0, 2] = 1.0
    f[0, 2, 0] = -1.0
    with pytest.raises(StructureError):
        RealLieAlgebra(f)
    assert RealLieAlgebra(f, validate=False).jacobi_residual() == pytest.approx(1.0)


def test_bracket_antisymmetrized_and_bilinear():
    alg = so3()
    u = np.array([1.0, 2.0, 0.5])
    v = np.array([-0.5, 1.0, 3.0])
    np.testing.assert_allclose(alg.bracket(u, v), -alg.bracket(v, u), atol=1e-14)
    np.testing.assert_allclose(
        alg.bracket(2.0 * u, v), 2.0 * alg.bracket(u, v), atol=1e-14
    )
    np.testing.assert_allclose(alg.bracket(u, v), np.cross(u, v), atol=1e-14)


def test_structure_tensor_shape_errors():
    with pytest.raises(DimensionError):
        RealLieAlgebra(np.zeros((2, 3, 2)))
    with pytest.raises(DimensionError):
        RealLieAlgebra(np.zeros((2, 2)))


def test_integrability_standard_vs_mispaired():
    f, J, G = kt_real()
    alg = RealLieAlgebra(f)
    assert integrability_residual(alg, J) <= 1e-14
    # pairing the bracket image against a bracket argument breaks it
    Jbad = np.zeros((4, 4))
    Jbad[2, 0] = 1.0
    Jbad[0, 2] = -1.0
    Jbad[3, 1] = 1.0
    Jbad[1, 3] = -1.0
    assert integrability_residual(alg, Jbad) > 0.5


def test_canonical_frame_and_coframe_duality():
    f, J, G = kt_real()
    frame = canonical_frame(J)
    E = frame.E
    np.testing.assert_allclose(J @ E, 1j * E, atol=1e-14)
    coords = frame.coframe_apply(frame.B)
    np.testing.assert_allclose(coords, np.eye(4), atol=1e-13)


def test_frame_rejects_wrong_type_and_rank():
    f, J, G = kt_real()
    E = canonical_frame(J).E
    with pytest.raises(TypeError):
        Frame(np.conj(E), J)
    bad = E.copy()
    bad[:, 1] = bad[:, 0]
    with pytest.raises(RankError):
        Frame(bad, J)


def test_extraction_matches_kt_by_hand():
    """With e1 = (b1 - i b2)/sqrt(2), e2 = (b3 - i b4)/sqrt(2) and the
    single bracket [b1, b2] = sqrt(2) b4 one gets by hand

        [e1, conj e1] = i [b1, b2] = i sqrt(2) b4 = conj(e2) - e2,

    every holomorphic bracket zero, and hence C = 0 with the only
    nonzero D entry D^1_{21} = -1 (the conj(e2) coefficient)."""
    f, J, G = kt_real()
    alg = RealLieAlgebra(f)
    frame = canonical_frame(J)
    sc = complexify_and_extract(alg, J, frame)
    assert np.max(np.abs(sc.C)) <= 1e-14
    e1, e2 = frame.E[:, 0].astype(complex), frame.E[:, 1].astype(complex)
    got = alg.bracket(e1, np.conj(e1))
    np.testing.assert_allclose(got, np.conj(e2) - e2, atol=1e-14)
    assert sc.D[0, 1, 0] == pytest.approx(-1.0)
    nonzero = np.argwhere(np.abs(sc.D) > 1e-14)
    assert nonzero.tolist() == [[0, 1, 0]]
    assert reconstruction_residual(alg, frame, sc) <= 1e-14


def test_realify_complexify_round_trip(rng):
    fam = generate_family(2, 4, seed=9)
    alg, J, G, frame = realify(fam.sc.C, fam.sc.D, fam.g)
    sc = complexify_and_extract(alg, J, frame)
    np.testing.assert_allclose(sc.C, fam.sc.C, atol=1e-13)
    np.testing.assert_allclose(sc.D, fam.sc.D, atol=1e-13)
    assert reconstruction_residual(alg, frame, sc) <= 1e-13


def test_change_frame_composition_and_inverse(rng):
    sc = random_jacobi_sc(rng)
    A = random_invertible(rng, sc.n)
    B = random_invertible(rng, sc.n)
    one = change_frame(change_frame(sc, A), B)
    two = change_frame(sc, A @ B)
    np.testing.assert_allclose(one.C, two.C, atol=1e-10)
    np.testing.assert_allclose(one.D, two.D, atol=1e-10)
    back = change_frame(change_frame(sc, A), np.linalg.inv(A))
    np.testing.assert_allclose(back.C, sc.C, atol=1e-10)
    np.testing.assert_allclose(back.D, sc.D, atol=1e-10)


def test_change_frame_preserves_bianchi(rng):
    sc = random_jacobi_sc(rng)
    assert sc.bianchi_residual() <= 1e-10
    moved = change_frame(sc, random_invertible(rng, sc.n))
    assert moved.bianchi_residual() <= 1e-10


def test_change_frame_rejects_singular(rng):
    sc = aff_sc()
    with pytest.raises(RankError):
        change_frame(sc, np.zeros((2, 2)))


def test_the_rank_rule_is_relative_above_unit_scale_and_absolute_below():
    cfg = DEFAULT_CONFIG
    # relative on large singular values: 1e3 survives under 1e10, 1e1 does not
    assert _rank(np.array([1e10, 1e3, 1e1]), cfg) == 2
    # at or below unit scale the cut is tol_rank itself
    assert _rank(np.array([0.5, 2 * cfg.tol_rank, cfg.tol_rank]), cfg) == 2
    assert _rank(np.array([cfg.tol_rank, 1e-12, 0.0]), cfg) == 0
    assert _rank(np.zeros(0), cfg) == 0


def test_orthonormal_span_cuts_at_the_rank_rule(rng):
    cfg = DEFAULT_CONFIG
    # two large directions and one 1e-9 of the largest: a span of 2
    Q = np.linalg.qr(rng.standard_normal((5, 3)))[0]
    span = _orthonormal_span(Q @ np.diag([1e6, 3e5, 1e-3]), cfg)
    assert span.shape == (5, 2)
    assert np.allclose(span.T @ span, np.eye(2))
    assert np.allclose(span @ (span.T @ Q[:, :2]), Q[:, :2])
    # every singular value below tol_rank: rank 0 and an empty span
    span = _orthonormal_span(0.5 * cfg.tol_rank * Q, cfg)
    assert span.shape == (5, 0)
    # no columns at all
    assert _orthonormal_span(np.zeros((4, 0)), cfg).shape == (4, 0)


def test_solvable_profile_known_cases():
    f, J, G = kt_real()
    prof = solvable_profile(RealLieAlgebra(f))
    assert prof.dims == (4, 1, 0)
    assert prof.is_2step_solvable

    abelian = RealLieAlgebra(np.zeros((4, 4, 4)))
    prof = solvable_profile(abelian)
    assert prof.dims == (4, 0)
    assert prof.is_2step_solvable

    prof = solvable_profile(so3())
    assert not prof.is_2step_solvable
    assert prof.dims[-1] == prof.dims[-2] == 3


def test_solvable_profile_family_instances():
    for (r, n, seed) in [(1, 3, 0), (2, 5, 11), (3, 6, 4)]:
        fam = generate_family(r, n, seed=seed)
        prof = solvable_profile(fam.alg)
        assert prof.is_2step_solvable
        assert prof.dims[2] == 0


def test_almost_abelian_is_two_step(rng):
    """One outer derivation acting on an abelian ideal."""
    m = 6
    f = np.zeros((m, m, m))
    M = rng.standard_normal((m - 1, m - 1))
    f[1:, 0, 1:] = M.T
    f[1:, 1:, 0] = -M.T
    alg = RealLieAlgebra(f)
    prof = solvable_profile(alg)
    assert prof.is_2step_solvable


def test_unimodularity():
    fam = generate_family(1, 4, seed=2)
    assert unimodularity_check(fam.sc).passed
    res = unimodularity_check(aff_sc())
    assert not res.passed
    assert res.residual == pytest.approx(1.0)


def test_structure_constants_antisymmetrization():
    C = np.zeros((2, 2, 2), dtype=complex)
    C[1, 0, 1] = 1.0  # no partner entry on purpose
    sc = StructureConstants(C, np.zeros((2, 2, 2)), validate=False)
    assert sc.C[1, 1, 0] == -0.5
    assert sc.C[1, 0, 1] == 0.5
