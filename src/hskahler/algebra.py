"""Real Lie algebras, complex structures, frames, and structure constants.

Conventions used throughout the package
---------------------------------------

A real Lie algebra of dimension ``2n`` is stored as the tensor
``f[c, a, b] = f^c_{ab}`` with ``[b_a, b_b] = sum_c f^c_{ab} b_c`` over a
fixed real basis.  An almost complex structure is a real matrix ``J``
with ``J^2 = -Identity``; a compatible metric is a symmetric positive
definite ``G`` with ``J^T G J = G``.

A *frame* is a basis ``e_1, ..., e_n`` of the (1,0) subspace
``{x - i J x}`` of the complexification, stored as the ``2n x n``
complex matrix ``E`` whose columns are coefficient vectors over the real
basis.  The dual coframe ``phi_i`` is extended to the whole
complexification by zero on the (0,1) part.

Structure constants of a frame:

    C^j_{ik} = phi_j([e_i, e_k])          (antisymmetric in i, k)
    D^j_{ik} = conj(phi_i)([conj(e_j), e_k])

stored as complex arrays ``C[j, i, k]`` and ``D[j, i, k]`` (upper index
first).  Equivalently

    [e_i, e_j] = sum_k C^k_{ij} e_k
    [e_i, conj(e_j)] = sum_k ( conj(D^i_{kj}) e_k - D^j_{ki} conj(e_k) )

and the coframe differentials are

    d phi_i = -1/2 sum_{j,k} C^i_{jk} phi_j ^ phi_k
              - sum_{j,k} conj(D^j_{ik}) phi_j ^ conj(phi_k).

All indices in user-facing maps and documents are 1-based; numpy arrays
are 0-based internally.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import Config, _cfg
from .errors import DimensionError, RankError, StructureError


class CheckResult(NamedTuple):
    """Boolean verdict together with the residual that produced it."""

    passed: bool
    residual: float


def _max_abs(a) -> float:
    a = np.asarray(a)
    return 0.0 if a.size == 0 else float(np.max(np.abs(a)))


def _rank(sv: np.ndarray, cfg: Config) -> int:
    """The one rank cut: how many descending singular values exceed
    ``cfg.tol_rank * max(sv[0], 1)``, relative for large columns and
    absolute at unit scale, where numerically zero columns have rank 0."""
    return int(np.sum(sv > cfg.tol_rank * max(sv[0], 1.0))) if sv.size else 0


def _conditioned(sv: np.ndarray, cfg: Config) -> bool:
    """The one conditioning test of a matrix that must be invertible, on
    its descending singular values: sigma_min > ``cfg.tol_rank`` sigma_max."""
    return not sv.size or bool(sv[-1] > cfg.tol_rank * sv[0])


class RealLieAlgebra:
    """A finite-dimensional real Lie algebra given by structure constants.

    Parameters
    ----------
    f : array_like, shape (dim, dim, dim)
        ``f[c, a, b] = f^c_{ab}``.  Antisymmetry in (a, b) is enforced
        exactly by averaging on construction.
    validate : bool
        When true (default), the Jacobi residual must not exceed
        ``cfg.tol_jacobi``.  Pass ``validate=False`` to hold
        intentionally broken tensors, e.g. for perturbation tests.
    """

    def __init__(self, f, *, validate: bool = True, cfg: Config | None = None):
        cfg = _cfg(cfg)
        f = np.asarray(f, dtype=float)
        if f.ndim != 3 or len(set(f.shape)) != 1:
            raise DimensionError(f"structure tensor must be cubic, got shape {f.shape}")
        self.f = (f - f.swapaxes(1, 2)) / 2.0
        self.dim = f.shape[0]
        if validate:
            res = self.jacobi_residual()
            if res > cfg.tol_jacobi:
                raise StructureError(f"Jacobi residual {res:.3e} exceeds {cfg.tol_jacobi:.1e}")

    def bracket(self, u, v) -> np.ndarray:
        """[u, v] for coefficient vectors (real or complex, bilinear)."""
        u = np.asarray(u)
        v = np.asarray(v)
        f = self.f if not (np.iscomplexobj(u) or np.iscomplexobj(v)) else self.f.astype(complex)
        return np.einsum("cab,a,b->c", f, u, v)

    def jacobi_residual(self) -> float:
        """max entry of sum_r ( f^r_{ab} f^d_{rc} + cyclic ) over all a,b,c,d."""
        f = self.f
        t = np.einsum("rab,drc->abcd", f, f)
        jac = t + np.transpose(t, (1, 2, 0, 3)) + np.transpose(t, (2, 0, 1, 3))
        return _max_abs(jac)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RealLieAlgebra(dim={self.dim})"


def integrability_residual(alg: RealLieAlgebra, J) -> float:
    """Sup norm of the Nijenhuis-type tensor

    N(x, y) = [x, y] - [Jx, Jy] + J[Jx, y] + J[x, Jy]

    over all real basis pairs.  Zero iff the (1,0) subspace is closed
    under the complexified bracket.
    """
    J = np.asarray(J, dtype=float)
    f = alg.f
    br = f
    br_JJ = np.einsum("cab,ax,by->cxy", f, J, J)
    J_br_J1 = np.einsum("dc,cab,ax->dxb", J, f, J)
    J_br_J2 = np.einsum("dc,cab,by->day", J, f, J)
    return _max_abs(br - br_JJ + J_br_J1 + J_br_J2)


def compatibility_residual(G, J) -> float:
    """Sup norm of J^T G J - G; zero iff the metric is J-invariant."""
    G = np.asarray(G, dtype=float)
    J = np.asarray(J, dtype=float)
    return _max_abs(J.T @ G @ J - G)


class Frame:
    """A basis of the (1,0) subspace determined by ``J``.

    Columns of ``E`` must satisfy ``J e = i e``, i.e.
    ``(Identity + i J) E = 0`` once rewritten, and be linearly
    independent.  Violations raise ``TypeError`` (not of type (1,0))
    or :class:`RankError`.
    """

    def __init__(self, E, J, *, cfg: Config | None = None):
        cfg = _cfg(cfg)
        J = np.asarray(J, dtype=float)
        E = np.asarray(E, dtype=complex)
        if E.ndim != 2 or E.shape[0] != J.shape[0] or 2 * E.shape[1] != J.shape[0]:
            raise DimensionError(f"frame shape {E.shape} does not match dim {J.shape[0]}")
        scale = max(1.0, _max_abs(E))
        type_res = _max_abs(E + 1j * (J @ E))
        if type_res > cfg.tol_alg * scale:
            raise TypeError(f"frame columns are not of type (1,0): residual {type_res:.3e}")
        sv = np.linalg.svd(E, compute_uv=False)
        if not _conditioned(sv, cfg):
            raise RankError(f"frame columns are rank deficient: sigma_min/sigma_max = {sv[-1] / sv[0]:.3e}")
        self.E = E
        self.n = E.shape[1]
        self.dim = E.shape[0]
        # full complex basis (e, conj e) and its inverse; rows of the
        # inverse evaluate the coframe: phi_i(v) = (Binv v)[i]
        self.B = np.hstack([E, np.conj(E)])
        self.Binv = np.linalg.inv(self.B)

    def coframe_apply(self, vectors: np.ndarray) -> np.ndarray:
        """Coordinates of vectors (columns) in the (e, conj e) basis."""
        return self.Binv @ vectors

    def __repr__(self) -> str:  # pragma: no cover
        return f"Frame(n={self.n})"


def canonical_frame(J, *, cfg: Config | None = None) -> Frame:
    """Deterministic frame built greedily from the standard basis.

    Walks the standard basis vectors u in order and keeps each
    ``(u - i J u)/sqrt(2)`` that enlarges the span by more than
    sqrt(``tol_rank``) of its length, since the frame metric squares the
    frame's conditioning.  For block-standard J (the output of
    :func:`realify`) this reproduces the generating frame.
    """
    cfg = _cfg(cfg)
    Jm = np.asarray(J, dtype=float)
    dim = Jm.shape[0]
    n = dim // 2
    cols: list[np.ndarray] = []
    ortho: list[np.ndarray] = []
    for a in range(dim):
        u = np.zeros(dim)
        u[a] = 1.0
        v = (u - 1j * (Jm @ u)) / np.sqrt(2.0)
        w = v.copy()
        for q in ortho:
            w = w - (np.conj(q) @ w) * q
        if np.linalg.norm(w) > np.sqrt(cfg.tol_rank) * np.linalg.norm(v):
            cols.append(v)
            ortho.append(w / np.linalg.norm(w))
        if len(cols) == n:
            break
    if len(cols) < n:
        raise RankError("could not assemble a full frame from the standard basis")
    return Frame(np.stack(cols, axis=1), Jm, cfg=cfg)


class StructureConstants:
    """The pair (C, D) of frame structure constants.

    ``C[j, i, k] = C^j_{ik}`` is antisymmetrized exactly in (i, k) on
    construction.  With ``validate=True`` (default) the first-Bianchi
    residual, which is equivalent to the Jacobi identity in this
    encoding, must stay below ``cfg.tol_jacobi``.
    """

    def __init__(self, C, D, *, validate: bool = True, cfg: Config | None = None):
        cfg = _cfg(cfg)
        C = np.asarray(C, dtype=complex)
        D = np.asarray(D, dtype=complex)
        if C.shape != D.shape or C.ndim != 3 or len(set(C.shape)) != 1:
            raise DimensionError(f"C and D must be cubic arrays of equal shape, got {C.shape} and {D.shape}")
        self.C = (C - C.swapaxes(1, 2)) / 2.0
        self.D = D.copy()
        self.n = C.shape[0]
        if validate:
            res = self.bianchi_residual()
            if res > cfg.tol_jacobi:
                raise StructureError(f"first-Bianchi residual {res:.3e} exceeds {cfg.tol_jacobi:.1e}")

    def magnitude(self) -> float:
        """Largest entry magnitude across C and D."""
        return max(_max_abs(self.C), _max_abs(self.D))

    def bianchi_residuals(self) -> dict[str, float]:
        """Sup-norm residuals of the three first-Bianchi families.

        Family 1:  sum_r ( C^r_{ij} C^l_{rk} + C^r_{jk} C^l_{ri} + C^r_{ki} C^l_{rj} ) = 0
        Family 2:  sum_r ( C^r_{ik} D^l_{jr} + D^r_{ji} D^l_{rk} - D^r_{jk} D^l_{ri} ) = 0
        Family 3:  sum_r ( C^r_{ik} cD^r_{jl} - C^j_{rk} cD^i_{rl} + C^j_{ri} cD^k_{rl}
                           - D^l_{ri} cD^k_{jr} + D^l_{rk} cD^i_{jr} ) = 0
        with cD the entrywise conjugate of D, over all index 4-tuples.
        """
        C, D = self.C, self.D
        Dc = np.conj(D)
        f1 = (
            np.einsum("rij,lrk->ijkl", C, C)
            + np.einsum("rjk,lri->ijkl", C, C)
            + np.einsum("rki,lrj->ijkl", C, C)
        )
        f2 = (
            np.einsum("rik,ljr->ijkl", C, D)
            + np.einsum("rji,lrk->ijkl", D, D)
            - np.einsum("rjk,lri->ijkl", D, D)
        )
        f3 = (
            np.einsum("rik,rjl->ijkl", C, Dc)
            - np.einsum("jrk,irl->ijkl", C, Dc)
            + np.einsum("jri,krl->ijkl", C, Dc)
            - np.einsum("lri,kjr->ijkl", D, Dc)
            + np.einsum("lrk,ijr->ijkl", D, Dc)
        )
        return {
            "family1": _max_abs(f1),
            "family2": _max_abs(f2),
            "family3": _max_abs(f3),
        }

    def bianchi_residual(self) -> float:
        return max(self.bianchi_residuals().values())

    def __repr__(self) -> str:  # pragma: no cover
        return f"StructureConstants(n={self.n})"


def complexify_and_extract(
    alg: RealLieAlgebra,
    J,
    frame: Frame,
    *,
    cfg: Config | None = None,
    validate: bool = True,
) -> StructureConstants:
    """Extract (C, D) of a frame from the real structure tensor.

    Computes all complexified brackets [e_i, e_k] and [conj(e_j), e_k],
    expresses them in the (e, conj e) basis, and reads off the defining
    coefficients.  The (0,1) component of [e_i, e_k] is ignored here; it
    vanishes exactly when J is integrable, which
    :func:`integrability_residual` measures.
    """
    cfg = _cfg(cfg)
    E = frame.E
    n = frame.n
    if alg.dim != frame.dim:
        raise DimensionError(f"algebra dim {alg.dim} does not match frame dim {frame.dim}")
    fc = alg.f.astype(complex)
    bk_hol = np.einsum("cab,ai,bk->cik", fc, E, E)
    bk_mix = np.einsum("cab,aj,bk->cjk", fc, np.conj(E), E)  # [conj(e_j), e_k]
    coords_hol = np.einsum("pc,cik->pik", frame.Binv, bk_hol)
    coords_mix = np.einsum("pc,cjk->pjk", frame.Binv, bk_mix)
    C = coords_hol[:n]  # C[j, i, k] = phi_j([e_i, e_k])
    # D^j_{ik} = conj(phi_i)([conj(e_j), e_k]); conj-coframe rows sit at n..2n-1
    D = np.transpose(coords_mix[n:], (1, 0, 2))
    return StructureConstants(C, D, validate=validate, cfg=cfg)


def reconstruction_residual(alg: RealLieAlgebra, frame: Frame, sc: StructureConstants) -> float:
    """Sup-norm gap between true complexified brackets and their
    reconstruction from (C, D):

    [e_i, e_j] = sum_k C^k_{ij} e_k
    [e_i, conj(e_j)] = sum_k ( conj(D^i_{kj}) e_k - D^j_{ki} conj(e_k) ).
    """
    E = frame.E
    fc = alg.f.astype(complex)
    bk_hol = np.einsum("cab,ai,bj->cij", fc, E, E)
    bk_mix = np.einsum("cab,ai,bj->cij", fc, E, np.conj(E))  # [e_i, conj(e_j)]
    rec_hol = np.einsum("kij,ck->cij", sc.C, E)
    rec_mix = np.einsum("ikj,ck->cij", np.conj(sc.D), E) - np.einsum("jki,ck->cij", sc.D, np.conj(E))
    return max(_max_abs(bk_hol - rec_hol), _max_abs(bk_mix - rec_mix))


def unimodularity_check(sc: StructureConstants, *, cfg: Config | None = None) -> CheckResult:
    """Trace condition sum_r ( C^r_{ri} + D^r_{ri} ) = 0 for every i,
    raw sup norm against the absolute ``tol_alg``."""
    cfg = _cfg(cfg)
    tr = np.einsum("rri->i", sc.C) + np.einsum("rri->i", sc.D)
    res = _max_abs(tr)
    return CheckResult(res <= cfg.tol_alg, res)


class SolvableProfile(NamedTuple):
    dims: tuple[int, ...]
    is_2step_solvable: bool
    commutator: np.ndarray  # orthonormal basis (columns, standard inner product) of [g, g]


def _orthonormal_span(vectors: np.ndarray, cfg: Config) -> np.ndarray:
    """Orthonormal basis (columns) of the span of the given columns, cut
    at :func:`_rank`: numerically zero columns span nothing."""
    if vectors.size == 0:
        return np.zeros((vectors.shape[0], 0))
    u, s, _ = np.linalg.svd(vectors, full_matrices=False)
    return u[:, :_rank(s, cfg)]


def _bracket_span(alg: RealLieAlgebra, basis: np.ndarray, cfg: Config) -> np.ndarray:
    k = basis.shape[1]
    if k < 2:
        return np.zeros((alg.dim, 0))
    brackets = np.einsum("cab,ai,bj->cij", alg.f, basis, basis)
    iu, ju = np.triu_indices(k, 1)
    return _orthonormal_span(brackets[:, iu, ju], cfg)


def solvable_profile(alg: RealLieAlgebra, *, cfg: Config | None = None) -> SolvableProfile:
    """Dimensions of the derived series, the 2-step verdict, and the
    commutator [g, g] that the admissible splitting starts from.

    The series is g, [g, g], [[g,g],[g,g]], ... with dimensions recorded
    until it hits zero or stabilizes (non-solvable).  2-step solvable
    means the commutator is abelian, abelian algebras included.
    """
    cfg = _cfg(cfg)
    dims = [alg.dim]
    commutator = basis = _bracket_span(alg, np.eye(alg.dim), cfg)
    while True:
        d = basis.shape[1]
        dims.append(d)
        if d == 0 or d == dims[-2]:
            break
        basis = _bracket_span(alg, basis, cfg)
    is2 = dims[1] == 0 or (len(dims) >= 3 and dims[2] == 0)
    return SolvableProfile(tuple(dims), is2, commutator)


def change_frame(sc: StructureConstants, A, *, cfg: Config | None = None, validate: bool = False) -> StructureConstants:
    """Structure constants in the frame e~_i = sum_j (A^{-1})_{ij} e_j.

    The coframe transforms as phi~ = A^T phi.  Applying A and then B
    equals applying A B.  Near-singular A raises :class:`RankError`.
    """
    cfg = _cfg(cfg)
    A = np.asarray(A, dtype=complex)
    if A.shape != (sc.n, sc.n):
        raise DimensionError(f"change of frame must be {sc.n} x {sc.n}, got {A.shape}")
    if not _conditioned(np.linalg.svd(A, compute_uv=False), cfg):
        raise RankError("change-of-frame matrix is numerically singular")
    Ainv = np.linalg.inv(A)
    n = sc.n
    # Ct[b, a, c] = A[x, b] Ainv[a, y] Ainv[c, z] C[x, y, z] and
    # Dt[b, a, c] = conj(Ainv[b, x]) conj(A[y, a]) Ainv[c, z] D[x, y, z],
    # one index at a time: as one einsum this costs O(n^6)
    Ct = Ainv @ ((A.T @ sc.C.reshape(n, n * n)).reshape(n, n, n) @ Ainv.T)
    Dt = A.conj().T @ ((Ainv.conj() @ sc.D.reshape(n, n * n)).reshape(n, n, n) @ Ainv.T)
    return StructureConstants(Ct, Dt, validate=validate, cfg=cfg)


def realify(C, D, g=None, *, cfg: Config | None = None, validate: bool = True):
    """Build the real algebra carrying given frame structure constants.

    Returns ``(alg, J, G, frame)`` where the frame is the generating one
    (columns ``(x_k - i y_k)/sqrt(2)`` over the real basis
    ``x_1..x_n, y_1..y_n``) and the frame metric of ``frame`` w.r.t.
    ``G`` is exactly the given Hermitian ``g`` (identity by default).
    The real structure tensor is guaranteed real by conjugation symmetry
    of the bracket; its imaginary residue is checked (``tol_alg``) and dropped.
    """
    cfg = _cfg(cfg)
    C = np.asarray(C, dtype=complex)
    D = np.asarray(D, dtype=complex)
    n = C.shape[0]
    if g is None:
        g = np.eye(n, dtype=complex)
    g = np.asarray(g, dtype=complex)
    # structure tensor over the complex basis (e_1..e_n, conj versions)
    F = np.zeros((2 * n, 2 * n, 2 * n), dtype=complex)
    F[:n, :n, :n] = C  # [e_i, e_j] = C^k_{ij} e_k
    F[n:, n:, n:] = np.conj(C)
    # [e_i, conj(e_j)]: hol part conj(D^i_{kj}), antihol part -D^j_{ki}
    F[:n, :n, n:] = np.einsum("ikj->kij", np.conj(D))
    F[n:, :n, n:] = -np.einsum("jki->kij", D)
    F[:, n:, :n] = -np.transpose(F[:, :n, n:], (0, 2, 1))
    # real basis x_k = (e_k + conj e_k)/sqrt2, y_k = i (e_k - conj e_k)/sqrt2
    s = 1.0 / np.sqrt(2.0)
    T = np.zeros((2 * n, 2 * n), dtype=complex)
    T[:n, :n] = s * np.eye(n)
    T[n:, :n] = s * np.eye(n)
    T[:n, n:] = 1j * s * np.eye(n)
    T[n:, n:] = -1j * s * np.eye(n)
    Tinv = np.linalg.inv(T)
    # f^c_{ab} = Tinv[c, x] F[x, y, z] T[y, a] T[z, b], one index at a time
    N = 2 * n
    f = T.T @ ((Tinv @ F.reshape(N, N * N)).reshape(N, N, N) @ T)
    imag_res = _max_abs(f.imag)
    if imag_res > cfg.tol_alg * max(1.0, _max_abs(f)):
        raise StructureError(f"realified bracket is not real: imaginary residue {imag_res:.3e}")
    alg = RealLieAlgebra(f.real, validate=validate, cfg=cfg)
    J = np.zeros((2 * n, 2 * n))
    J[n:, :n] = np.eye(n)
    J[:n, n:] = -np.eye(n)
    A = g.real
    B = g.imag
    G = np.block([[A, B], [B.T, A]])
    E = np.zeros((2 * n, n), dtype=complex)
    E[:n, :] = s * np.eye(n)
    E[n:, :] = -1j * s * np.eye(n)
    frame = Frame(E, J, cfg=cfg)
    return alg, J, G, frame
