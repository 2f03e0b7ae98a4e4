"""Admissible frames and block identities for 2-step solvable algebras.

For a 2-step solvable algebra g with integrable compatible (J, G), the
metric splits g into three J-stable pieces built from the commutator
g' = [g, g]:

    g'_J = J g' intersect g'      (complex dimension r)
    V    = orthocomplement of g'_J inside g'   (real dimension s - r)
    W    = orthocomplement of g' + J g'        (complex dimension n - s)

An *admissible frame* is adapted to this splitting: e_1..e_r from a
J-adapted G-orthonormal basis of g'_J via (x - i J x)/sqrt(2),
e_{r+1}..e_s as (v - i J v)/2 for a G-orthonormal basis of V, and
e_{s+1}..e_n from W like the first block.  Its frame metric is
block-diagonal: identity on the outer blocks and
(1/2)(Identity + i A) in the middle, with A[a, b] = <v_a, J v_b>.

The pure types are: I when r = 0, II when s = r (g' is J-stable),
III when s = n; anything else is mixed.

In an admissible frame the structure constants develop many forced
zeros, and the surviving blocks obey closed matrix identities plus a
second list coupling them to a Hermitian-symplectic solution S.  This
module slices the blocks once into arrays stacked over the labels
x, y, z in r+1..n (``_blocks`` holds the layout) and measures each
identity, for all labels at once, as the sup norm of one array
expression; cyclic and antisymmetric sums over the labels are axis
permutations of those arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    CheckResult,
    Frame,
    RealLieAlgebra,
    StructureConstants,
    _max_abs,
    solvable_profile,
)
from .config import Config, _cfg
from .errors import DimensionError, PreconditionError, StructureError
from .metrics import FrameMetric, frame_metric_from_real


# ----------------------------------------------------------- subspace layer


class _Geometry:
    """Whitened subspace arithmetic: in z = L^T u coordinates the metric
    G = L L^T becomes standard, and a compatible J becomes orthogonal."""

    def __init__(self, J: np.ndarray, G: np.ndarray, cfg: Config):
        self.cfg = cfg
        L = np.linalg.cholesky(G)
        self.Lt = L.T
        self.Lt_inv = np.linalg.inv(L.T)
        self.Jw = self.Lt @ J @ self.Lt_inv
        self.dim = J.shape[0]

    def whiten(self, u: np.ndarray) -> np.ndarray:
        return self.Lt @ u

    def unwhiten(self, z: np.ndarray) -> np.ndarray:
        return self.Lt_inv @ z

    @staticmethod
    def _sign_fix(cols: np.ndarray) -> np.ndarray:
        cols = cols.copy()
        for k in range(cols.shape[1]):
            j = int(np.argmax(np.abs(cols[:, k])))
            if cols[j, k] < 0:
                cols[:, k] = -cols[:, k]
        return cols

    def span(self, vectors: np.ndarray, floor: float = 0.0) -> np.ndarray:
        """Orthonormal basis of the column span.

        ``floor`` anchors the rank cut at the magnitude the columns
        would have if genuinely nonzero; without it a matrix of pure
        roundoff noise reports full rank.  Call sites working with
        differences of orthonormal data pass 1.0.
        """
        if vectors.size == 0:
            return np.zeros((self.dim, 0))
        u, s, _ = np.linalg.svd(vectors, full_matrices=False)
        if s.size == 0 or s[0] == 0.0:
            return np.zeros((self.dim, 0))
        rank = int(np.sum(s > self.cfg.tol_rank * max(s[0], floor)))
        return self._sign_fix(u[:, :rank])

    def intersect(self, Zp: np.ndarray, Zq: np.ndarray) -> np.ndarray:
        """Intersection of two spans given by orthonormal columns.

        Null vectors of [Zp, -Zq] pair up coefficients (a, b) with
        Zp a = Zq b; singular values at most 1e-8 count as null here
        (columns are unit vectors, so the scale is fixed).
        """
        if Zp.shape[1] == 0 or Zq.shape[1] == 0:
            return np.zeros((self.dim, 0))
        M = np.hstack([Zp, -Zq])
        _, s, Vt = np.linalg.svd(M, full_matrices=True)
        nnz = int(np.sum(s > 1e-8))
        null = Vt[nnz:].T
        if null.shape[1] == 0:
            return np.zeros((self.dim, 0))
        return self.span(Zp @ null[: Zp.shape[1]], floor=1.0)

    def complement_within(self, Zu: np.ndarray, Za: np.ndarray) -> np.ndarray:
        """Orthocomplement of span(Zu) inside span(Za)."""
        B = Za - Zu @ (Zu.T @ Za)
        return self.span(B, floor=1.0)

    def complement_full(self, Zu: np.ndarray) -> np.ndarray:
        if Zu.shape[1] == 0:
            return self._sign_fix(np.eye(self.dim))
        u, _, _ = np.linalg.svd(Zu, full_matrices=True)
        return self._sign_fix(u[:, Zu.shape[1]:])

    def j_stabilize(self, Z: np.ndarray) -> np.ndarray:
        """Nearest J-stable subspace: average the projector with its J
        conjugate and keep eigenvectors with eigenvalue above 1/2."""
        if Z.shape[1] == 0:
            return Z
        P = Z @ Z.T
        Ps = (P + self.Jw @ P @ self.Jw.T) / 2.0
        w, v = np.linalg.eigh(Ps)
        keep = v[:, w > 0.5]
        return self._sign_fix(keep)

    def j_adapted_pairs(self, Z: np.ndarray) -> list[np.ndarray]:
        """Vectors x_1, ..., x_m with {x_t, J x_t} an orthonormal basis
        of the J-stable span(Z); greedy over the given columns."""
        m = Z.shape[1] // 2
        chosen: list[np.ndarray] = []
        acc: list[np.ndarray] = []
        for k in range(Z.shape[1]):
            if len(chosen) == m:
                break
            w = Z[:, k].copy()
            for q in acc:
                w = w - (q @ w) * q
            nrm = float(np.linalg.norm(w))
            if nrm > 1e-8:
                x = w / nrm
                j = int(np.argmax(np.abs(x)))
                if x[j] < 0:
                    x = -x
                chosen.append(x)
                acc.append(x)
                acc.append(self.Jw @ x)
        if len(chosen) < m:
            raise StructureError("could not extract a J-adapted basis")
        return chosen


# ------------------------------------------------------------ decomposition


@dataclass(frozen=True)
class AdmissibleDecomposition:
    """Splitting data plus the adapted frame built on it.

    ``g_mid`` is the middle Gram block g_{ab} = <e_a, conj(e_b)> over
    the V range; the full frame metric (identity outer blocks, g_mid in
    the middle) sits in ``metric``.  Subspace matrices keep
    G-orthonormal columns in the original real coordinates.
    """

    n: int
    r: int
    s: int
    dims: tuple[int, ...]
    pure_type: str
    frame: Frame = field(repr=False)
    g_mid: np.ndarray = field(repr=False)
    metric: FrameMetric = field(repr=False)
    gprime: np.ndarray = field(repr=False)
    gprime_J: np.ndarray = field(repr=False)
    V: np.ndarray = field(repr=False)
    W: np.ndarray = field(repr=False)


def _pure_type(r: int, s: int, n: int) -> str:
    if r == 0:
        return "I"
    if s == r:
        return "II"
    if s == n:
        return "III"
    return "mixed"


def _split(alg: RealLieAlgebra, Jm: np.ndarray, Gm: np.ndarray, cfg: Config):
    """Subspace bases (whitened-then-restored) for g'_J, V, W; raises
    when the algebra is not 2-step solvable or a block has odd size."""
    profile = solvable_profile(alg, cfg=cfg)
    if not profile.is_2step_solvable:
        raise PreconditionError(
            f"admissible frames need a 2-step solvable algebra; derived series dims {profile.dims}"
        )
    geo = _Geometry(Jm, Gm, cfg)
    n = alg.dim // 2

    gp = geo.span(geo.whiten(profile.commutator))
    Jgp = geo.span(geo.Jw @ gp)
    gpJ = geo.j_stabilize(geo.intersect(gp, Jgp))
    if gpJ.shape[1] % 2 != 0:
        raise StructureError(f"J-stable core has odd dimension {gpJ.shape[1]}")
    r = gpJ.shape[1] // 2
    V = geo.complement_within(gpJ, gp)
    s = r + V.shape[1]
    total = geo.span(np.hstack([gp, Jgp]))
    if total.shape[1] != 2 * s:
        raise StructureError(
            f"commutator plus its J image has dimension {total.shape[1]}, expected {2 * s}"
        )
    W = geo.j_stabilize(geo.complement_full(total))
    if W.shape[1] != 2 * (n - s):
        raise StructureError(f"residual block has dimension {W.shape[1]}, expected {2 * (n - s)}")
    un = geo.unwhiten
    return geo, profile, n, r, s, un(gp), un(gpJ), un(V), un(W)


def _check_block_metric(g: FrameMetric, r: int, s: int, n: int) -> np.ndarray:
    """Confirm the admissible block shape of a frame metric and return
    the middle block; outer blocks must be the identity."""
    gm = g.g
    gap = max(_max_abs(gm[:r, :r] - np.eye(r)), _max_abs(gm[s:, s:] - np.eye(n - s)))
    gap = max(gap, _max_abs(gm[:r, r:]), _max_abs(gm[r:s, s:]))
    if r and s < n:
        gap = max(gap, _max_abs(gm[:r, s:]))
    mid = gm[r:s, r:s]
    gap = max(gap, _max_abs(mid.real - np.eye(s - r) / 2.0))
    if gap > 1e-7:
        raise StructureError(f"frame metric is not in admissible block form (gap {gap:.3e})")
    return mid.copy()


def _matrices(J, G) -> tuple[np.ndarray, np.ndarray]:
    Jm = J.J if hasattr(J, "J") else np.asarray(J, dtype=float)
    Gm = G.G if hasattr(G, "G") else np.asarray(G, dtype=float)
    return Jm, Gm


def build_admissible_frame(
    alg: RealLieAlgebra, J, G, *, cfg: Config | None = None
) -> AdmissibleDecomposition:
    """Construct an admissible frame over the metric splitting.

    Basis vectors inside each block come out of a greedy J-adapted
    orthonormalization, so the result is deterministic for fixed input.
    """
    cfg = _cfg(cfg)
    Jm, Gm = _matrices(J, G)
    geo, profile, n, r, s, gp, gpJ, V, W = _split(alg, Jm, Gm, cfg)
    cols: list[np.ndarray] = []
    for x in geo.j_adapted_pairs(geo.whiten(gpJ)):
        u = geo.unwhiten(x)
        cols.append((u - 1j * (Jm @ u)) / np.sqrt(2.0))
    for k in range(V.shape[1]):
        v = V[:, k]
        cols.append((v - 1j * (Jm @ v)) / 2.0)
    for x in geo.j_adapted_pairs(geo.whiten(W)):
        u = geo.unwhiten(x)
        cols.append((u - 1j * (Jm @ u)) / np.sqrt(2.0))
    E = np.stack(cols, axis=1) if cols else np.zeros((alg.dim, 0), dtype=complex)
    frame = Frame(E, Jm, cfg=cfg)
    g = frame_metric_from_real(Gm, frame, cfg=cfg)
    g_mid = _check_block_metric(g, r, s, n)
    return AdmissibleDecomposition(
        n=n, r=r, s=s, dims=profile.dims, pure_type=_pure_type(r, s, n),
        frame=frame, g_mid=g_mid, metric=g,
        gprime=gp, gprime_J=gpJ, V=V, W=W,
    )


def admissible_from_frame(
    alg: RealLieAlgebra, J, G, frame: Frame, *, cfg: Config | None = None
) -> AdmissibleDecomposition:
    """Accept a frame that is already adapted block by block.

    Each column is projected onto the subspace its position demands
    (1..r from g'_J, then V, then W); a projection residual above 1e-7
    or a metric outside the admissible block form raises
    :class:`StructureError`.  Useful when rebuilding a frame would
    scramble block bases fixed by hand.
    """
    cfg = _cfg(cfg)
    Jm, Gm = _matrices(J, G)
    geo, profile, n, r, s, gp, gpJ, V, W = _split(alg, Jm, Gm, cfg)

    def proj_residual(u: np.ndarray, Z: np.ndarray) -> float:
        z = geo.whiten(u)
        res = z - Z @ (Z.T @ z) if Z.shape[1] else z
        return float(np.linalg.norm(res)) / max(1e-300, float(np.linalg.norm(z)))

    blocks = [
        (range(0, r), geo.span(geo.whiten(gpJ)), geo.span(geo.whiten(gpJ))),
        (range(r, s), geo.span(geo.whiten(V)), geo.span(geo.whiten(Jm @ V))),
        (range(s, n), geo.span(geo.whiten(W)), geo.span(geo.whiten(W))),
    ]
    for idx, Zre, Zim in blocks:
        for k in idx:
            col = frame.E[:, k]
            bad = max(proj_residual(col.real, Zre), proj_residual(col.imag, Zim))
            if bad > 1e-7:
                raise StructureError(
                    f"frame column {k + 1} is not adapted to the splitting (residual {bad:.3e})"
                )
    g = frame_metric_from_real(Gm, frame, cfg=cfg)
    g_mid = _check_block_metric(g, r, s, n)
    return AdmissibleDecomposition(
        n=n, r=r, s=s, dims=profile.dims, pure_type=_pure_type(r, s, n),
        frame=frame, g_mid=g_mid, metric=g,
        gprime=gp, gprime_J=gpJ, V=V, W=W,
    )




# ------------------------------------------------------------ block algebra


def _same_n(dec: AdmissibleDecomposition, sc: StructureConstants) -> None:
    if sc.n != dec.n:
        raise DimensionError(f"constants have n={sc.n} but the splitting has n={dec.n}")


def _skew(S, n: int) -> np.ndarray:
    """The skew part of a closed-completion solution S, checked to be n x n."""
    if S is None:
        raise PreconditionError("the block identities need a closed-completion solution S")
    S = np.asarray(S, dtype=complex)
    if S.shape != (n, n):
        raise DimensionError(f"S has shape {S.shape}, expected {(n, n)}")
    return (S - S.T) / 2.0


def _blocks(sc: StructureConstants, r: int, S=None):
    """Admissible-frame constants sliced once into stacks over the block
    labels x, y in r+1..n (stack position x - r - 1), i and j in 1..r:

      C[x][i, j] = C^j_{ix}        D[x][i, j] = D^j_{ix}
      Z[x][i, j] = D^x_{ij}        v[y, x][i] = D^y_{ix}
      w[x, y][i] = C^i_{xy}        u[x][i]    = S_{ix}
      Sp         = S[1..r, 1..r]

    Returns (C, D, Z, v, w, u, Sp); u and Sp are None without S.  Z
    vanishes on the V labels r+1..s of an admissible frame; it is kept
    there so that the identities measure those entries too.
    """
    C = sc.C[:r, :r, r:].transpose(2, 1, 0)
    D = sc.D[:r, :r, r:].transpose(2, 1, 0)
    Z = sc.D[r:, :r, :r]
    v = sc.D[r:, :r, r:].transpose(0, 2, 1)
    w = sc.C[:r, r:, r:].transpose(1, 2, 0)
    if S is None:
        return C, D, Z, v, w, None, None
    return C, D, Z, v, w, S[:r, r:].T, S[:r, :r]


def _H(A: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix in a stack."""
    return np.conj(A.swapaxes(-1, -2))


def _pairs(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """[x, y] -> A_x B_y for two stacks of matrices."""
    return A[:, None] @ B[None]


def _cyclic(P: np.ndarray) -> np.ndarray:
    """[x, y, z] -> P[x, y, z] + P[y, z, x] + P[z, x, y] over the leading axes."""
    rest = tuple(range(3, P.ndim))
    return P + P.transpose(2, 0, 1, *rest) + P.transpose(1, 2, 0, *rest)


def _flip(P: np.ndarray) -> np.ndarray:
    """[x, y, z] -> P[z, y, x] over the leading axes."""
    return P.transpose(2, 1, 0, *range(3, P.ndim))


def verify_restrictions(
    dec: AdmissibleDecomposition, sc: StructureConstants, *, cfg: Config | None = None
) -> dict[str, CheckResult]:
    """Residuals of the two constant-shape restrictions in an admissible
    frame of a 2-step solvable algebra.

    The first bundles the forced vanishings and the linear relations
    among C and D entries; it is a theorem, so a failure means the
    frame or the constants are wrong.  The second is the extra
    vanishing D^*_{a*} = 0 over the V range, a compact-quotient
    necessary condition; it can fail on perfectly valid inputs and is
    reported, never raised.
    """
    cfg = _cfg(cfg)
    _same_n(dec, sc)
    r, s = dec.r, dec.s
    C, D = sc.C, sc.D
    scale = max(1.0, sc.magnitude())
    res1 = 0.0
    # forced zeros
    res1 = max(res1, _max_abs(C[:, :r, :r]))          # C^*_{ij}
    res1 = max(res1, _max_abs(C[r:, :, :]))           # upper index outside the core
    res1 = max(res1, _max_abs(D[:, s:, :]))           # first lower index in W
    res1 = max(res1, _max_abs(D[:s, :, :r]))          # D^i_{*j}, D^a_{*j} with upper <= s
    res1 = max(res1, _max_abs(D[:r, r:s, r:s]))       # D^i_{ab} over the V block
    # linear relations
    if r and s > r:
        rel = C[:r, :r, r:s] + np.conj(np.einsum("ija->jia", D[:r, :r, r:s]))
        res1 = max(res1, _max_abs(rel))
        rel = (
            C[:r, r:s, r:s]
            - np.conj(np.einsum("bka->kab", D[r:s, :r, r:s]))
            + np.conj(np.einsum("akb->kab", D[r:s, :r, r:s]))
        )
        res1 = max(res1, _max_abs(rel))
    if s > r:
        rel = np.conj(D[r:, r:s, r:]) + np.einsum("yax->xay", D[r:, r:s, r:])
        res1 = max(res1, _max_abs(rel))
    res2 = _max_abs(D[:, r:s, :])
    return {
        "restriction1": CheckResult(res1 <= cfg.tol_alg * scale, res1 / scale),
        "restriction2": CheckResult(res2 <= cfg.tol_alg * scale, res2 / scale),
    }


def verify_bianchi_blocks(
    dec: AdmissibleDecomposition, sc: StructureConstants, *, cfg: Config | None = None
) -> dict[str, CheckResult]:
    """The seven matrix identities forced on the blocks by Jacobi (once
    the restriction vanishings hold) for all labels x, y, z; keys
    "C1".."C7", residuals in sup norm scaled by max(1, magnitude^2).
    ``sc`` must be given in the admissible frame of ``dec``."""
    cfg = _cfg(cfg)
    _same_n(dec, sc)
    C, D, Z, v, w, _, _ = _blocks(sc, dec.r)
    Ch = _H(C)
    CC, DD = _pairs(C, C), _pairs(D, D)
    K = _pairs(Ch, Z) - Z[None] @ np.conj(D)[:, None]   # C_x^* Z_y - Z_y conj(D_x)
    A = np.einsum("xij,yzj->xyzi", D, v)                # D_x v(y, z)
    F = np.einsum("xij,zyj->xyzi", Ch, v) + np.einsum("xij,yzj->xyzi", Z, np.conj(v))
    res = {
        "C1": max(_max_abs(CC - CC.swapaxes(0, 1)), _max_abs(DD - DD.swapaxes(0, 1))),
        "C2": _max_abs(_pairs(Ch, D) - D[None] @ Ch[:, None] + _pairs(Z, np.conj(Z))),
        "C3": _max_abs(_pairs(D, Z) - Z[None] @ C.swapaxes(1, 2)[:, None]),
        "C4": _max_abs(K - K.swapaxes(0, 1)),
        "C5": _max_abs(_cyclic(np.einsum("xji,yzj->xyzi", C, w))),
        "C6": _max_abs(A - _flip(A) + np.einsum("yij,xzj->xyzi", Z, w)),
        "C7": _max_abs(F - _flip(F) + np.einsum("yij,xzj->xyzi", D, np.conj(w))),
    }
    scale = max(1.0, sc.magnitude() ** 2)
    return {k: CheckResult(e / scale <= cfg.tol_alg, e / scale) for k, e in res.items()}


def verify_hs_blocks(
    dec: AdmissibleDecomposition, sc: StructureConstants, S, *, cfg: Config | None = None
) -> dict[str, CheckResult]:
    """Block identities coupling admissible structure constants to a
    closed-completion solution S; keys "D1".."D8" plus the summary
    system that collects their consequences ("sym1".."sym4" and the
    middle-range "reality" line).

    The pairing of u with v and w is the bilinear dot product (no
    conjugation), matching the bilinear extension of the metric.
    """
    cfg = _cfg(cfg)
    _same_n(dec, sc)
    S = _skew(S, sc.n)
    r, s = dec.r, dec.s
    C, D, Z, v, w, u, Sp = _blocks(sc, r, S)
    sym2 = _H(D) @ Sp + Sp @ np.conj(D)
    ZHu = np.einsum("xji,yj->xyi", np.conj(Z), u)       # Z_x^* u_y
    Cu = np.einsum("xij,yj->xyi", C, u)
    Du = np.einsum("xij,yj->xyi", D, u)
    uv = np.einsum("xi,zyi->xyz", u, np.conj(v))         # u_x . conj(v(z, y))
    A = np.einsum("xij,yzj->xyzi", D, v)                # D_x v(y, z)
    B = np.einsum("xji,zyj->xyzi", np.conj(D), v)       # D_x^* v(z, y)
    Dv, vv = D[: s - r], v[: s - r, : s - r]             # labels in the V range
    res = {
        "D1": _max_abs(uv - _flip(uv)),
        "D2": _max_abs(
            np.conj(v) @ Sp.T + np.einsum("yji,xj->xyi", np.conj(D), u) - 0.5j * v.swapaxes(0, 1)
        ),
        "D3": _max_abs(ZHu - ZHu.swapaxes(0, 1) - 0.5j * w),
        "D4": _max_abs(C + D + 2j * Sp @ np.conj(Z)),
        "D5": _max_abs(Z.swapaxes(1, 2) - Z - 2j * sym2),
        "D6": _max_abs(Sp @ C.swapaxes(1, 2) + C @ Sp),
        "D7": _max_abs(Cu - Cu.swapaxes(0, 1) - w @ Sp.T),
        "D8": _max_abs(_cyclic(np.einsum("xi,yzi->xyz", u, w))),
        "sym1": _max_abs(D @ Sp + Sp @ D.swapaxes(1, 2)),
        "sym2": _max_abs(sym2),
        "sym3": max(_max_abs(A - _flip(A)), _max_abs(B - _flip(B))),
        "sym4": _max_abs(Du - Du.swapaxes(0, 1)),
        "reality": max(_max_abs(_H(Dv) - Dv), _max_abs(vv - vv.swapaxes(0, 1))),
    }
    scale = max(1.0, max(sc.magnitude(), _max_abs(S)) ** 2)
    return {k: CheckResult(e / scale <= cfg.tol_alg, e / scale) for k, e in res.items()}
