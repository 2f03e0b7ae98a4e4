"""Joint diagonalization, structural claims, and the constructive step.

On a 2-step solvable algebra in an admissible frame, a closed
completion S of the fundamental form forces a rigid block structure:
the Z and w blocks vanish, C_x = -D_x, the D_x form a commuting family
of normal matrices, and the v vectors lie in their ranges.  After a
joint unitary diagonalization of the D_x the whole geometry is
described by eigenvalue tuples

    lam[x, i] = (U^* D_x U)[i, i]

and a single vector p of coupling constants with
xi_x[i] = conj(p_i) conj(lam[x, i]).  The corrected coframe

    psi_i = phi_i + p_i * sigma_i,     sigma_i = sum_x lam[x, i] phi_x

then closes the form

    omega~ = i sum psi_i ^ conj(psi_i)
           + i sum g[a, b] phi_a ^ conj(phi_b)     (middle block)
           + i sum phi_c ^ conj(phi_c)             (outer block)

term by term, giving an explicit invariant positive closed (1,1) form.
It is one Hermitian matrix in any frame; the certificate gives it in
the caller's frame, where it does not depend on the unitary freedom
that fixes lam and p, and checks its closure with the closed-form map
:func:`hskahler.metrics.d_omega`.  Everything here is verified
numerically and reported as residuals; a failed construction raises
:class:`CertificationError` rather than returning a silently wrong
certificate.

``generate_family`` runs the dictionary backwards: from (lam, p) it
emits structure constants that realize exactly this model, which makes
it a strong round-trip oracle for the whole pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .algebra import CheckResult, Frame, StructureConstants, _max_abs, change_frame, realify
from .config import Config, _cfg
from .errors import (
    CertificationError,
    ClaimViolation,
    ParameterError,
    PreconditionError,
    StructureError,
)
from .metrics import d_omega, hs_decide
from .solvable import AdmissibleDecomposition, _blocks, _same_n, _skew


# ------------------------------------------------------ joint diagonalization


def simultaneous_diagonalize(mats, *, cfg: Config | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Joint unitary diagonalization of commuting normal matrices.

    Returns ``(U, lam)`` with ``U`` unitary, ``lam[k, i]`` the i-th
    diagonal entry of ``U^* mats[k] U``, columns in a canonical order
    (lexicographic in the eigenvalue tuples, phases fixed so the
    largest-magnitude entry of each column is real positive).  Inputs
    that fail commutativity or normality raise
    :class:`PreconditionError`.

    The algorithm refines an eigenblock partition through the Hermitian
    and skew parts of every matrix; within a block all previously
    processed parts are scalar, so later rotations never break earlier
    diagonalizations.  No randomness is involved, which makes the
    output reproducible without any seed bookkeeping.
    """
    cfg = _cfg(cfg)
    mats = [np.asarray(M, dtype=complex) for M in mats]
    if not mats:
        return np.eye(0, dtype=complex), np.zeros((0, 0), dtype=complex)
    r = mats[0].shape[0]
    if r == 0:
        return np.eye(0, dtype=complex), np.zeros((len(mats), 0), dtype=complex)
    scale = max(1.0, max(_max_abs(M) for M in mats))
    for M in mats:
        if M.shape != (r, r):
            raise PreconditionError("matrices must share a square shape")
        if _max_abs(M @ M.conj().T - M.conj().T @ M) > cfg.tol_diag * scale**2:
            raise PreconditionError("matrix family contains a non-normal matrix")
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            if _max_abs(mats[a] @ mats[b] - mats[b] @ mats[a]) > cfg.tol_diag * scale**2:
                raise PreconditionError("matrix family does not commute")

    U = np.eye(r, dtype=complex)
    blocks: list[list[int]] = [list(range(r))]
    parts: list[np.ndarray] = []
    for M in mats:
        parts.append((M + M.conj().T) / 2.0)
        parts.append((M - M.conj().T) / 2j)
    for H in parts:
        W = U.conj().T @ H @ U
        refined: list[list[int]] = []
        for blk in blocks:
            if len(blk) == 1:
                refined.append(blk)
                continue
            sub = W[np.ix_(blk, blk)]
            sub = (sub + sub.conj().T) / 2.0
            w, v = np.linalg.eigh(sub)
            U[:, blk] = U[:, blk] @ v
            diam = float(w[-1] - w[0])
            thr = max(1e-6 * diam, 1e-10 * scale)
            start = 0
            for t in range(1, len(blk)):
                if w[t] - w[t - 1] > thr:
                    refined.append([blk[q] for q in range(start, t)])
                    start = t
            refined.append([blk[q] for q in range(start, len(blk))])
        blocks = refined

    lam = np.stack([np.diagonal(U.conj().T @ M @ U) for M in mats])
    keys = []
    for k in range(len(mats) - 1, -1, -1):
        keys.append(lam[k].imag)
        keys.append(lam[k].real)
    order = np.lexsort(keys)
    U = U[:, order]
    for i in range(r):
        j = int(np.argmax(np.abs(U[:, i])))
        ph = U[j, i]
        if abs(ph) > 0:
            U[:, i] = U[:, i] * (np.conj(ph) / abs(ph))
    lam = np.stack([np.diagonal(U.conj().T @ M @ U) for M in mats])
    off = 0.0
    for M in mats:
        d = U.conj().T @ M @ U
        off = max(off, _max_abs(d - np.diag(np.diagonal(d))))
    if off > cfg.tol_diag * scale:
        raise PreconditionError(f"joint diagonalization failed: off-diagonal residue {off:.3e}")
    return U, lam


# ------------------------------------------------------------------- claims


@dataclass(frozen=True)
class ClaimsRecord:
    """Everything the structural claims force out of a closed
    completion: the vanishing checks, the diagonalizing rotation, and
    the recovered (lam, xi, p) data.

    Residuals are scaled by max(1, ||S||)^2.
    """

    n: int
    r: int
    s: int
    Z_check: CheckResult            # claim 1a: Z_a = 0
    w_check: CheckResult            # claim 1b: w_{xy} = 0
    opposition: CheckResult         # claim 2: C_x + D_x = 0
    commutation: CheckResult        # claim 3: [D_x, S'^* S'] = [D_x^*, S'^* S'] = 0
    range_membership: CheckResult   # claim 4: v^x_y in im(D_x) and im(D_y)
    common_preimage: CheckResult    # claim 5: v^x_y = D_y xi_x
    rotation: np.ndarray = field(repr=False)
    sc_rotated: StructureConstants = field(repr=False)
    S_rotated: np.ndarray = field(repr=False)
    lam: np.ndarray = field(repr=False)   # (n - r, r)
    xi: np.ndarray = field(repr=False)    # (n - r, r)
    p: np.ndarray = field(repr=False)     # (r,)
    p_residual: float                     # tau_i parallel to conj(t_i)
    t_ratio: float                        # smallest relative singular value of [t_1..t_r]
    t_independent: bool

    def worst(self) -> float:
        checks = (self.Z_check, self.w_check, self.opposition,
                  self.commutation, self.range_membership, self.common_preimage)
        return max(c.residual for c in checks)


def _sigma_solve(diag: np.ndarray, b: np.ndarray, rel_tol: float = 1e-8) -> np.ndarray:
    """Row by row, apply the sigma-inverse of a diagonal matrix: entries
    above the relative threshold of their row are inverted, the rest map
    to zero."""
    top = np.max(np.abs(diag), axis=-1, keepdims=True, initial=0.0)
    keep = np.abs(diag) > rel_tol * top
    out = np.zeros_like(b)
    out[keep] = b[keep] / diag[keep]
    return out


def claims_pipeline(
    dec: AdmissibleDecomposition,
    sc: StructureConstants,
    S,
    *,
    cfg: Config | None = None,
) -> ClaimsRecord:
    """Assert the vanishing claims, diagonalize, and recover (lam, xi, p).

    The input constants must live in the admissible frame of ``dec``
    and carry a closed-completion solution S.  Claims 1 and 2 are hard
    gates: a residual above tol_alg raises :class:`ClaimViolation`,
    since everything after them silently assumes the vanishings.  A
    zero eigenvalue tuple t_i raises :class:`StructureError`.  The
    remaining claims are measured and reported.  Block arrays follow
    the layout of :func:`hskahler.solvable._blocks`.
    """
    cfg = _cfg(cfg)
    _same_n(dec, sc)
    S = _skew(S, sc.n)
    n, r, s = dec.n, dec.r, dec.s
    C, D, Z, _, w, _, _ = _blocks(sc, r)
    scale = max(1.0, _max_abs(S)) ** 2

    rz, rw, ro = _max_abs(Z), _max_abs(w), _max_abs(C + D)
    mk = lambda v: CheckResult(v / scale <= cfg.tol_alg, v / scale)
    Z_check, w_check, opposition = mk(rz), mk(rw), mk(ro)
    if not (Z_check.passed and w_check.passed and opposition.passed):
        worst = max(rz, rw, ro) / scale
        err = ClaimViolation(
            "the input does not satisfy the forced vanishings "
            f"(Z: {Z_check.residual:.3e}, w: {w_check.residual:.3e}, "
            f"C+D: {opposition.residual:.3e}); it cannot carry a closed "
            "completion in this frame"
        )
        err.residuals = {"Z": Z_check.residual, "w": w_check.residual,
                         "opposition": opposition.residual, "worst": worst}
        err.Z_check, err.w_check, err.opposition = Z_check, w_check, opposition
        raise err

    U, _ = simultaneous_diagonalize(D, cfg=cfg)
    A = np.eye(n, dtype=complex)
    A[:r, :r] = U
    sc_rot = change_frame(sc, A, cfg=cfg)
    Ainv = np.linalg.inv(A)
    S_rot = Ainv.T @ S @ Ainv
    _, Dr, _, vr, _, _, Sp = _blocks(sc_rot, r, S_rot)

    lam = np.diagonal(Dr, axis1=1, axis2=2).copy()       # (n - r, r)
    t_norms = np.linalg.norm(lam, axis=0)
    if r and np.any(t_norms <= 1e-12 * _max_abs(lam)):
        bad = int(np.argmin(t_norms)) + 1
        raise StructureError(
            f"eigenvalue tuple t_{bad} vanishes; the core direction e_{bad} never appears in a bracket"
        )
    if r == 0:
        t_ratio = 1.0
    elif lam.shape[0] < r:
        t_ratio = 0.0
    else:
        sv = np.linalg.svd(lam, compute_uv=False)
        t_ratio = float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0
    t_independent = t_ratio > 1e-8

    # claim 3 on the rotated blocks (unitary-invariant, cheaper to read here)
    Hs = Sp.conj().T @ Sp
    DrH = np.conj(Dr.swapaxes(1, 2))
    r3 = max(_max_abs(Dr @ Hs - Hs @ Dr), _max_abs(DrH @ Hs - Hs @ DrH))

    xi = _sigma_solve(lam, np.diagonal(vr).T)            # xi[x] from v(x, x)
    # claims 4 and 5 over [x, y, i]: v(x, y) vanishes where lam[x, i] or
    # lam[y, i] does, and equals lam[y, i] xi[x, i]
    top = np.max(np.abs(lam), axis=1, keepdims=True, initial=0.0)
    small = np.abs(lam) <= 1e-8 * np.maximum(top, 1e-300)
    r4 = _max_abs(vr[small[:, None] | small[None]])
    r5 = _max_abs(vr - lam[None] * xi[:, None])

    # sum each tuple t_i along a contiguous row, the order numpy uses for a
    # single vector; summing down the columns rounds differently
    lt, xt = lam.T.copy(), xi.T.copy()
    p = np.conj(np.sum(lt * xt, axis=1) / np.sum(np.abs(lt) ** 2, axis=1))
    p_res = _max_abs(np.abs(xi - np.conj(p) * np.conj(lam)) / np.maximum(1.0, t_norms))

    return ClaimsRecord(
        n=n, r=r, s=s,
        Z_check=Z_check, w_check=w_check, opposition=opposition,
        commutation=mk(r3), range_membership=mk(r4), common_preimage=mk(r5),
        rotation=A, sc_rotated=sc_rot, S_rotated=S_rot,
        lam=lam, xi=xi, p=p,
        p_residual=p_res, t_ratio=t_ratio, t_independent=t_independent,
    )


# -------------------------------------------------------------- certificate


@dataclass
class KahlerCertificate:
    """A verified invariant closed positive (1,1) form omega~, given as
    its Hermitian coefficient matrix ``metric`` in the target frame of
    :func:`kahlerize`.

    ``psi_coeffs[k]`` holds the coefficients of psi_{k+1} in the
    rotated admissible coframe ``phi~ = A^T phi`` (A is ``rotation``);
    ``residuals`` maps check names to sup-norm values
    (``t_i_independence`` stores a conditioning ratio instead: the
    smallest relative singular value of the eigenvalue tuples, large
    when they are safely independent).  ``closed`` compares
    ``d_omega_tilde`` with the absolute ``tol_cert``, which suits
    unit-scale target constants.
    """

    n: int
    r: int
    s: int
    rotation: np.ndarray
    lam: np.ndarray                 # (n - r, r): lam[x - r - 1, i - 1]
    p: np.ndarray                   # (r,)
    xi: np.ndarray                  # (n - r, r)
    psi_coeffs: np.ndarray          # (n, n)
    metric: np.ndarray              # (n, n) Hermitian, in the target frame
    residuals: dict[str, float]
    termwise_residuals: tuple[float, ...]
    closed: bool
    positive: bool
    min_eig: float
    claims: ClaimsRecord


def kahlerize(
    dec: AdmissibleDecomposition,
    sc: StructureConstants,
    S=None,
    *,
    cfg: Config | None = None,
    strict: bool = True,
    target: tuple[Frame, StructureConstants] | None = None,
) -> KahlerCertificate:
    """Construct and verify a closed positive completion of the metric.

    ``sc`` must be expressed in the admissible frame of ``dec``; S is a
    closed-completion solution for the block metric (computed via
    :func:`hs_decide` when omitted, with infeasibility raised as
    :class:`PreconditionError`).  The claims pipeline runs first and
    its gates apply.

    omega~ is built in the rotated admissible frame as one Hermitian
    matrix, the sum of the terms psi_i^T conj(psi_i) and the block part
    diag(0, g_mid, Identity), and carried by congruence to ``target``:
    a frame of the same complex structure and the constants in it
    (``dec.frame`` and ``sc`` by default).  Closure, whole and per
    term, and positivity are measured there, with :func:`d_omega`
    against the target constants; unlike lam and p, the metric there
    does not depend on the unitary freedom inside the admissible blocks.

    With ``strict=True`` a certificate that is not closed or fails
    positivity raises :class:`CertificationError` naming the offending
    term; pass ``strict=False`` to inspect the failed certificate.
    """
    cfg = _cfg(cfg)
    n, r, s = dec.n, dec.r, dec.s
    if sc.n != n:
        raise PreconditionError(f"constants have n={sc.n} but the splitting has n={n}")
    if S is None:
        sol = hs_decide(sc, dec.metric, cfg=cfg)
        if not sol.feasible:
            raise PreconditionError(
                f"no closed completion exists at this metric (normalized residual {sol.normalized:.3e})"
            )
        S = sol.S

    rec = claims_pipeline(dec, sc, S, cfg=cfg)
    lam, p = rec.lam, rec.p
    psi = np.eye(n, dtype=complex)
    psi[:r, r:] = p[:, None] * lam.T

    # the terms i psi_i ^ conj(psi_i), the block part (g_mid is untouched by
    # the rotation, which lives in the first block), and their sum omega~
    block = np.zeros((n, n), dtype=complex)
    block[r:s, r:s] = dec.g_mid
    block[s:, s:] = np.eye(n - s)
    terms = psi[:r, :, None] * np.conj(psi[:r, None, :])
    stack = np.concatenate([terms, block[None], (psi[:r].T @ np.conj(psi[:r]) + block)[None]])

    # the rotated frame is E_rot = E_target K; its coframe is K^-1 phi
    frame, sc_t = target if target is not None else (dec.frame, sc)
    E_rot = dec.frame.E @ np.linalg.inv(rec.rotation).T
    Kinv = np.linalg.inv(np.linalg.lstsq(frame.E, E_rot, rcond=None)[0])
    stack = Kinv.T @ stack @ np.conj(Kinv)
    stack = (stack + np.conj(stack.swapaxes(1, 2))) / 2.0
    *termwise, d_res = np.max(np.abs(d_omega(sc_t, stack)), axis=(1, 2, 3))
    metric = stack[-1]

    reality = 0.0
    if s > r:
        reality = max(_max_abs(lam[: s - r].imag), _max_abs(p.imag))
    residuals = {
        "d_omega_tilde": float(d_res),
        "claims_1_5": rec.worst(),
        "t_i_independence": rec.t_ratio,
        "p_proportionality": rec.p_residual,
        "reality": reality,
    }
    min_eig = float(np.linalg.eigvalsh(metric)[0])
    cert = KahlerCertificate(
        n=n, r=r, s=s,
        rotation=rec.rotation, lam=lam, p=p, xi=rec.xi, psi_coeffs=psi, metric=metric,
        residuals=residuals,
        termwise_residuals=tuple(float(t) for t in termwise),
        closed=bool(d_res <= cfg.tol_cert), positive=min_eig > 0.0, min_eig=min_eig,
        claims=rec,
    )
    if strict:
        if not cert.closed:
            names = [f"psi_{i + 1} ^ conj(psi_{i + 1})" for i in range(r)] + ["the metric block part"]
            raise CertificationError(
                f"constructed form is not closed: residual {d_res:.3e} exceeds {cfg.tol_cert:.1e}"
                f" (worst term: {names[int(np.argmax(termwise))]})"
            )
        if not cert.positive:
            raise CertificationError(
                f"constructed form is not positive: min eigenvalue {min_eig:.3e}"
            )
    return cert


# ------------------------------------------------------------------- family


class FamilyInstance(NamedTuple):
    """An explicit model instance: the real algebra with its Hermitian
    data, the admissible-frame structure constants, the closed
    completion, and the generating parameters."""

    alg: object
    J: np.ndarray
    G: np.ndarray
    frame: object
    sc: StructureConstants
    S: np.ndarray
    g: np.ndarray
    r: int
    s: int
    n: int
    lam: np.ndarray
    p: np.ndarray


def _draw_family_data(r: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Random (n - r) x r eigenvalue data with safely independent
    columns; standard complex Gaussian entries, redrawn in the
    (measure-zero, numerically still possible) ill-conditioned case."""
    for _ in range(64):
        lam = (rng.standard_normal((n - r, r)) + 1j * rng.standard_normal((n - r, r))) / np.sqrt(2.0)
        sv = np.linalg.svd(lam, compute_uv=False)
        if sv.size == 0 or sv[-1] > 1e-3 * sv[0]:
            return lam
    raise ParameterError("could not draw well-conditioned eigenvalue data")


def generate_family(
    r: int,
    n: int,
    lam=None,
    p=None,
    *,
    seed: int | None = None,
    cfg: Config | None = None,
) -> FamilyInstance:
    """The model family realizing dphi_i = phi_i (sigma_i - conj(sigma_i))
    - p_i sigma_i conj(sigma_i) and dphi_x = 0.

    ``lam`` has shape (n - r, r) holding lam[x, i] for x = r+1..n, and
    ``p`` has shape (r,); omitted data is drawn from a seeded generator
    (``seed`` defaults to the config seed).  The nonzero constants are

        C^i_{ix} = -lam[x, i]
        D^i_{ix} =  lam[x, i]
        D^x_{iy} =  conj(p_i) lam[y, i] conj(lam[x, i])

    and the closed completion is S_{ix} = (i/2) conj(p_i) lam[x, i],
    with the identity frame metric (so s = r: no middle block).  Every
    output satisfies the first-Bianchi identities and is unimodular; a
    direct sum of instances is again an instance (block-diagonal lam,
    concatenated p), which makes this generator a convenient oracle.

    The columns of lam, with the matching entries of p, are put into
    the canonical order of :func:`simultaneous_diagonalize` before the
    constants are built.  Reordering columns only relabels the core
    directions, so the instance is unchanged up to isomorphism, and a
    later certificate recovers lam and p verbatim instead of up to a
    column permutation.

    Bad parameters raise :class:`ParameterError`: r outside 1..n-1,
    shape mismatches, or a zero eigenvalue tuple t_i = lam[:, i].
    Supplied tuples may be linearly dependent, since the construction
    certifies such instances too; drawn tuples are independent, so
    drawing them needs n - r >= r.
    """
    cfg = _cfg(cfg)
    if not 1 <= r < n:
        raise ParameterError(f"need 1 <= r < n, got r={r}, n={n}")
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    if lam is None:
        if n - r < r:
            raise ParameterError(
                f"cannot draw {r} independent eigenvalue tuples of length {n - r}"
            )
        lam = _draw_family_data(r, n, rng)
    lam = np.asarray(lam, dtype=complex)
    if lam.shape != (n - r, r):
        raise ParameterError(f"lam must have shape {(n - r, r)}, got {lam.shape}")
    if p is None:
        p = (rng.standard_normal(r) + 1j * rng.standard_normal(r)) / np.sqrt(2.0)
    p = np.asarray(p, dtype=complex)
    if p.shape != (r,):
        raise ParameterError(f"p must have shape ({r},), got {p.shape}")
    if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(p))):
        raise ParameterError("family data must be finite")
    norms = np.linalg.norm(lam, axis=0)
    if np.any(norms <= 1e-12 * _max_abs(lam)):
        bad = int(np.argmin(norms)) + 1
        raise ParameterError(f"eigenvalue tuple t_{bad} is zero")
    keys = []
    for a in range(lam.shape[0] - 1, -1, -1):
        keys.append(lam[a].imag)
        keys.append(lam[a].real)
    order = np.lexsort(keys)
    lam = lam[:, order]
    p = p[order]

    C = np.zeros((n, n, n), dtype=complex)
    D = np.zeros((n, n, n), dtype=complex)
    S = np.zeros((n, n), dtype=complex)
    for i in range(r):
        for x0 in range(n - r):
            x = r + x0
            C[i, i, x] = -lam[x0, i]
            C[i, x, i] = lam[x0, i]
            D[i, i, x] = lam[x0, i]
            S[i, x] = 0.5j * np.conj(p[i]) * lam[x0, i]
            S[x, i] = -S[i, x]
            for y0 in range(n - r):
                y = r + y0
                D[x, i, y] = np.conj(p[i]) * lam[y0, i] * np.conj(lam[x0, i])
    sc = StructureConstants(C, D, cfg=cfg)
    g = np.eye(n, dtype=complex)
    alg, J, G, frame = realify(C, D, g, cfg=cfg)
    return FamilyInstance(
        alg=alg, J=J, G=G, frame=frame,
        sc=sc, S=S, g=g, r=r, s=r, n=n, lam=lam, p=p,
    )
