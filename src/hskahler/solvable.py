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

The split decides in a unitary frame, at G = Identity: the input is the
constants of a g-unitary frame E, and the real algebra is their
realification, where J is standard.  The coordinates
z = (u[:n] + i u[n:]) / sqrt(2) of a real vector u turn J into
multiplication by i, and the (1,0) vector (u - i J u)/sqrt(2) has the
coefficients sqrt(2) z over E.  So g'_J and W are complex subspaces of
C^n with unitary bases from a complex SVD, V is a real one, and the
admissible frame is E K for one n x n matrix K, the only frame the
stages carry.  Its three rank cuts (the null space that gives g'_J, V,
and the complex rank of g' + J g') are :func:`hskahler.algebra._rank`.
:func:`build_admissible_frame` keeps E itself, K = Identity, when it is
admissible already: hand-chosen block bases and a generator's
eigenvector phases survive, so a certificate returns the generating lam
and p.

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
    SolvableProfile,
    StructureConstants,
    _max_abs,
    _orthonormal_span,
    _rank,
    realify,
    solvable_profile,
)
from .config import Config, _cfg
from .errors import DimensionError, PreconditionError, StructureError
from .metrics import FrameMetric


# ------------------------------------------------------------ decomposition


@dataclass(frozen=True)
class AdmissibleDecomposition:
    """The splitting and the admissible frame on it, E_adm = E K over
    the unitary frame E of the input constants.

    ``metric`` is the frame metric K^T conj(K): identity on the outer
    blocks and ``g_mid``, the Gram block g_{ab} = <e_a, conj(e_b)> over
    the V range, in the middle.
    """

    n: int
    r: int
    s: int
    dims: tuple[int, ...]
    pure_type: str
    K: np.ndarray = field(repr=False)
    g_mid: np.ndarray = field(repr=False)
    metric: FrameMetric = field(repr=False)


def _pure_type(r: int, s: int, n: int) -> str:
    if r == 0:
        return "I"
    if s == r:
        return "II"
    if s == n:
        return "III"
    return "mixed"


def _z(u: np.ndarray) -> np.ndarray:
    """The complex coordinates of real columns, J acting as i."""
    n = u.shape[0] // 2
    return (u[:n] + 1j * u[n:]) / np.sqrt(2.0)


def _split(profile: SolvableProfile, cfg: Config) -> tuple[int, int, np.ndarray]:
    """r, s and K for the commutator of the realification of unitary-frame
    constants; K is exactly Identity where the unitary frame is admissible.
    Raises when the algebra is not 2-step solvable or a block has odd size."""
    if not profile.is_2step_solvable:
        raise PreconditionError(
            f"admissible frames need a 2-step solvable algebra; derived series dims {profile.dims}"
        )
    gp = profile.commutator
    n = gp.shape[0] // 2
    J = np.zeros((2 * n, 2 * n))
    J[n:, :n], J[:n, n:] = np.eye(n), -np.eye(n)
    # g'_J: u and J u in g', the null space of [(I - P); (I - P) J]
    Q = np.eye(2 * n) - gp @ gp.T
    _, sv, Vt = np.linalg.svd(np.vstack([Q, Q @ J]), full_matrices=False)
    null = Vt[_rank(sv, cfg):].T
    core = _orthonormal_span(_z(null), cfg)
    r = core.shape[1]
    if 2 * r != null.shape[1]:
        raise StructureError(f"J-stable core of real dimension {null.shape[1]} has complex rank {r}")
    # V: the real complement of g'_J inside g'
    V = _orthonormal_span(gp - null @ (null.T @ gp), cfg)
    s = r + V.shape[1]
    # W: the complex complement of g' + J g'
    U, sv, _ = np.linalg.svd(_z(gp))
    total = _rank(sv, cfg)
    if total != s:
        raise StructureError(f"commutator plus its J image has dimension {2 * total}, expected {2 * s}")
    W = U[:, s:]
    # a unitary frame has no middle block (its Gram block would be I/2);
    # it is kept when its first r columns span g'_J and the rest span W
    if s == r and max(_max_abs(core[r:]), _max_abs(W[:s])) <= cfg.tol_rank:
        return r, s, np.eye(n, dtype=complex)
    # unit vectors of g'_J and W, and (v - i J v)/2, whose coefficients are z(v)
    return r, s, np.hstack([core, _z(V), W])


def build_admissible_frame(
    sc: StructureConstants, *, profile: SolvableProfile | None = None, cfg: Config | None = None,
) -> AdmissibleDecomposition:
    """The admissible frame E K over the frame E of ``sc``, which must be
    unitary (frame metric Identity): K = Identity when E is admissible
    already.  ``profile`` is the :func:`solvable_profile` of
    ``realify(sc.C, sc.D)``, computed when omitted."""
    cfg = _cfg(cfg)
    if profile is None:
        profile = solvable_profile(realify(sc.C, sc.D, cfg=cfg, validate=False)[0], cfg=cfg)
    r, s, K = _split(profile, cfg)
    g = FrameMetric(K.T @ np.conj(K), cfg=cfg)
    return AdmissibleDecomposition(sc.n, r, s, profile.dims, _pure_type(r, s, sc.n), K,
                                   g.g[r:s, r:s].copy(), g)


def admissible_from_frame(
    sc: StructureConstants, *, profile: SolvableProfile | None = None, cfg: Config | None = None,
) -> AdmissibleDecomposition:
    """The strict form of :func:`build_admissible_frame`: a unitary frame
    that is not admissible raises :class:`StructureError`."""
    dec = build_admissible_frame(sc, profile=profile, cfg=cfg)
    if not np.array_equal(dec.K, np.eye(dec.n)):
        raise StructureError(
            f"the frame is not adapted to the splitting (r={dec.r}, s={dec.s}, n={dec.n})"
        )
    return dec


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
    reported, never raised.  Both are raw sup norms against the
    absolute ``tol_alg``, which suits unit-scale constants.
    """
    cfg = _cfg(cfg)
    _same_n(dec, sc)
    r, s = dec.r, dec.s
    C, D = sc.C, sc.D
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
        "restriction1": CheckResult(res1 <= cfg.tol_alg, res1),
        "restriction2": CheckResult(res2 <= cfg.tol_alg, res2),
    }


def verify_bianchi_blocks(
    dec: AdmissibleDecomposition, sc: StructureConstants, *, cfg: Config | None = None
) -> dict[str, CheckResult]:
    """The seven matrix identities forced on the blocks by Jacobi (once
    the restriction vanishings hold) for all labels x, y, z; keys
    "C1".."C7", residuals in raw sup norm.
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
    return {k: CheckResult(e <= cfg.tol_alg, e) for k, e in res.items()}


def verify_hs_blocks(
    dec: AdmissibleDecomposition, sc: StructureConstants, S, *, cfg: Config | None = None
) -> dict[str, CheckResult]:
    """Block identities coupling admissible structure constants to a
    closed-completion solution S; keys "D1".."D8" plus the summary
    system that collects their consequences ("sym1".."sym4" and the
    middle-range "reality" line), residuals in sup norm scaled by
    max(1, ||S||)^2.

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
    scale = max(1.0, _max_abs(S)) ** 2
    return {k: CheckResult(e / scale <= cfg.tol_alg, e / scale) for k, e in res.items()}
