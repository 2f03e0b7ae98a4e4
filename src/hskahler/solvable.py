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
module extracts those blocks and measures every identity as a residual.
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
    derived_subalgebra,
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

    gp = geo.span(geo.whiten(derived_subalgebra(alg, cfg=cfg)))
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


class BlockData:
    """Matrix and vector blocks of admissible structure constants.

    All accessors take 1-based indices, x and y in r+1..n and the Z
    label a in s+1..n (outside that range the slice vanishes
    identically in an admissible frame):

      Cmat(x)[i, j] = C^j_{ix}        Dmat(x)[i, j] = D^j_{ix}
      Z(a)[i, j]    = D^a_{ij}        v(y, x)[i]    = D^y_{ix}
      w(x, y)[i]    = C^i_{xy}        u(x)[i]       = S_{ix}
      Sp            = S[1..r, 1..r]

    (i, j run over 1..r).  The optional skew matrix S enables the
    u / Sp accessors.
    """

    def __init__(self, sc: StructureConstants, r: int, s: int, S=None):
        if not 0 <= r <= s <= sc.n:
            raise DimensionError(f"block ranges r={r}, s={s} out of order for n={sc.n}")
        self.sc = sc
        self.r = r
        self.s = s
        self.n = sc.n
        if S is not None:
            S = np.asarray(S, dtype=complex)
            if S.shape != (sc.n, sc.n):
                raise DimensionError(f"S has shape {S.shape}, expected {(sc.n, sc.n)}")
            S = (S - S.T) / 2.0
        self.S = S

    def xs(self) -> range:
        return range(self.r + 1, self.n + 1)

    def _bound(self, x: int, lo: int) -> int:
        if not lo <= x <= self.n:
            raise DimensionError(f"block index {x} outside {lo}..{self.n}")
        return x

    def Cmat(self, x: int) -> np.ndarray:
        x = self._bound(x, self.r + 1)
        return self.sc.C[: self.r, : self.r, x - 1].T.copy()

    def Dmat(self, x: int) -> np.ndarray:
        x = self._bound(x, self.r + 1)
        return self.sc.D[: self.r, : self.r, x - 1].T.copy()

    def Z(self, a: int) -> np.ndarray:
        a = self._bound(a, self.s + 1)
        return self._zslice(a)

    def _zslice(self, x: int) -> np.ndarray:
        return self.sc.D[x - 1, : self.r, : self.r].copy()

    def v(self, y: int, x: int) -> np.ndarray:
        y = self._bound(y, self.r + 1)
        x = self._bound(x, self.r + 1)
        return self.sc.D[y - 1, : self.r, x - 1].copy()

    def w(self, x: int, y: int) -> np.ndarray:
        x = self._bound(x, self.r + 1)
        y = self._bound(y, self.r + 1)
        return self.sc.C[: self.r, x - 1, y - 1].copy()

    def _with_S(self) -> np.ndarray:
        if self.S is None:
            raise PreconditionError("no skew solution S attached to these blocks")
        return self.S

    def u(self, x: int) -> np.ndarray:
        x = self._bound(x, self.r + 1)
        return self._with_S()[: self.r, x - 1].copy()

    @property
    def Sp(self) -> np.ndarray:
        return self._with_S()[: self.r, : self.r].copy()

    def magnitude(self) -> float:
        m = self.sc.magnitude()
        if self.S is not None:
            m = max(m, _max_abs(self.S))
        return m


def extract_blocks(
    dec: AdmissibleDecomposition, sc: StructureConstants, S=None
) -> BlockData:
    """Slice structure constants (given in the admissible frame) into
    the named blocks; S, when given, populates the u and Sp parts."""
    if sc.n != dec.n:
        raise DimensionError(f"constants have n={sc.n} but the splitting has n={dec.n}")
    return BlockData(sc, dec.r, dec.s, S=S)


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
    if sc.n != dec.n:
        raise DimensionError(f"constants have n={sc.n} but the splitting has n={dec.n}")
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


def verify_bianchi_blocks(bd: BlockData, *, cfg: Config | None = None) -> dict[str, CheckResult]:
    """The seven matrix identities forced on the blocks by Jacobi (once
    the restriction vanishings hold); keys "C1".."C7", residuals in sup
    norm scaled by max(1, magnitude^2)."""
    cfg = _cfg(cfg)
    xs = list(bd.xs())
    scale = max(1.0, bd.sc.magnitude() ** 2)
    res = {k: 0.0 for k in ("C1", "C2", "C3", "C4", "C5", "C6", "C7")}
    for x in xs:
        Cx, Dx, Zx = bd.Cmat(x), bd.Dmat(x), bd._zslice(x)
        for y in xs:
            Cy, Dy, Zy = bd.Cmat(y), bd.Dmat(y), bd._zslice(y)
            res["C1"] = max(res["C1"], _max_abs(Cx @ Cy - Cy @ Cx), _max_abs(Dx @ Dy - Dy @ Dx))
            res["C2"] = max(res["C2"], _max_abs(Cx.conj().T @ Dy - Dy @ Cx.conj().T + Zx @ np.conj(Zy)))
            res["C3"] = max(res["C3"], _max_abs(Dx @ Zy - Zy @ Cx.T))
            res["C4"] = max(
                res["C4"],
                _max_abs(
                    Cx.conj().T @ Zy - Zy @ np.conj(Dx) - Cy.conj().T @ Zx + Zx @ np.conj(Dy)
                ),
            )
            for z in xs:
                Cz, Dz, Zz = bd.Cmat(z), bd.Dmat(z), bd._zslice(z)
                res["C5"] = max(
                    res["C5"],
                    _max_abs(Cx.T @ bd.w(y, z) + Cy.T @ bd.w(z, x) + Cz.T @ bd.w(x, y)),
                )
                res["C6"] = max(
                    res["C6"],
                    _max_abs(Dx @ bd.v(y, z) - Dz @ bd.v(y, x) + Zy @ bd.w(x, z)),
                )
                res["C7"] = max(
                    res["C7"],
                    _max_abs(
                        Cx.conj().T @ bd.v(z, y)
                        - Cz.conj().T @ bd.v(x, y)
                        + Dy @ np.conj(bd.w(x, z))
                        + Zx @ np.conj(bd.v(y, z))
                        - Zz @ np.conj(bd.v(y, x))
                    ),
                )
    return {k: CheckResult(v / scale <= cfg.tol_alg, v / scale) for k, v in res.items()}


def verify_hs_blocks(bd: BlockData, *, cfg: Config | None = None) -> dict[str, CheckResult]:
    """Block identities coupling admissible structure constants to a
    closed-completion solution S; keys "D1".."D8" plus the summary
    system that collects their consequences ("sym1".."sym4" and the
    middle-range "reality" line).

    The pairing below is the bilinear dot product (no conjugation),
    matching the bilinear extension of the metric.
    """
    cfg = _cfg(cfg)
    if bd.S is None:
        raise PreconditionError("these identities need a skew solution S")
    xs = list(bd.xs())
    Sp = bd.Sp
    scale = max(1.0, bd.magnitude() ** 2)
    keys = ("D1", "D2", "D3", "D4", "D5", "D6", "D7", "D8",
            "sym1", "sym2", "sym3", "sym4", "reality")
    res = {k: 0.0 for k in keys}
    for x in xs:
        Cx, Dx, Zx, ux = bd.Cmat(x), bd.Dmat(x), bd._zslice(x), bd.u(x)
        res["D4"] = max(res["D4"], _max_abs(Cx + Dx + 2j * Sp @ np.conj(Zx)))
        res["D5"] = max(
            res["D5"], _max_abs(Zx.T - Zx - 2j * (Dx.conj().T @ Sp + Sp @ np.conj(Dx)))
        )
        res["D6"] = max(res["D6"], _max_abs(Sp @ Cx.T + Cx @ Sp))
        res["sym1"] = max(res["sym1"], _max_abs(Dx @ Sp + Sp @ Dx.T))
        res["sym2"] = max(res["sym2"], _max_abs(Dx.conj().T @ Sp + Sp @ np.conj(Dx)))
        for y in xs:
            Cy, Dy, Zy, uy = bd.Cmat(y), bd.Dmat(y), bd._zslice(y), bd.u(y)
            res["D2"] = max(
                res["D2"],
                _max_abs(Sp @ np.conj(bd.v(x, y)) + Dy.conj().T @ ux - 0.5j * bd.v(y, x)),
            )
            res["D3"] = max(
                res["D3"],
                _max_abs(Zx.conj().T @ uy - Zy.conj().T @ ux - 0.5j * bd.w(x, y)),
            )
            res["D7"] = max(res["D7"], _max_abs(Cx @ uy - Cy @ ux - Sp @ bd.w(x, y)))
            res["sym4"] = max(res["sym4"], _max_abs(Dx @ uy - Dy @ ux))
            for z in xs:
                res["D1"] = max(
                    res["D1"],
                    abs(ux @ np.conj(bd.v(z, y)) - bd.u(z) @ np.conj(bd.v(x, y))),
                )
                res["D8"] = max(
                    res["D8"],
                    abs(ux @ bd.w(y, z) + uy @ bd.w(z, x) + bd.u(z) @ bd.w(x, y)),
                )
                Dz = bd.Dmat(z)
                res["sym3"] = max(
                    res["sym3"],
                    _max_abs(Dx @ bd.v(y, z) - Dz @ bd.v(y, x)),
                    _max_abs(Dx.conj().T @ bd.v(z, y) - Dz.conj().T @ bd.v(x, y)),
                )
    for a in range(bd.r + 1, bd.s + 1):
        Da = bd.Dmat(a)
        res["reality"] = max(res["reality"], _max_abs(Da.conj().T - Da))
        for b in range(bd.r + 1, bd.s + 1):
            res["reality"] = max(res["reality"], _max_abs(bd.v(a, b) - bd.v(b, a)))
    return {k: CheckResult(v / scale <= cfg.tol_alg, v / scale) for k, v in res.items()}
