"""Frame metrics, Chern torsion, metric classes, and the HS decision.

The frame metric is the Hermitian matrix ``g[i, j] = <e_i, conj(e_j)>``
of a compatible real metric in a (1,0) frame; the pairing is the
bilinear extension of the real inner product, so ``<e_i, e_j> = 0``
automatically.  The fundamental form is

    omega = i * sum g[i, j] phi_i ^ conj(phi_j).

:func:`d_omega` gives the (2,1) part of d omega for any Hermitian h in
place of g, linearly and with no inverse: i sum_r T^r_{ik} h_{rj}, T the
Chern torsion, written out in C and D.  It decides the Kahler class, it
is -2 b(g) for the right-hand side b(g) of the HS system below, and it
checks the closure of the Kahler certificate.

``hs_decide`` answers, for fixed (C, D, g), whether a closed form
``Omega = omega + alpha + conj(alpha)`` with invariant (2,0) part
``alpha = sum S_{ik} phi_i ^ phi_k`` exists.  That is a linear system in
the skew matrix S:

  (a)  sum_r ( S_{ri} C^r_{jk} + S_{rj} C^r_{ki} + S_{rk} C^r_{ij} ) = 0
  (b)  sum_r ( S_{rk} conj(D^i_{rj}) - S_{ri} conj(D^k_{rj}) ) = b(g)_{ikj}

over all index triples.  Feasibility is read off the least-squares
residual.  The matrix A of the left-hand side depends on (C, D) only
and b(g) is linear in the metric, so :func:`hs_metric_search` factors A
once and scores every candidate metric against that factorization.

The balanced class is decided from the torsion: d(omega^(n-1))
vanishes exactly when the Lee form theta_k = sum_j T^j_{jk} does
(Gauduchon 1984).  The form engine is used for the pluriclosed class
only.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .algebra import CheckResult, StructureConstants, _max_abs
from .config import Config, _cfg
from .errors import DimensionError, RankError, StructureError
from .forms import InvariantForm, del_and_delbar


class FrameMetric:
    """Hermitian positive definite metric matrix in a fixed frame."""

    def __init__(self, g, *, cfg: Config | None = None):
        cfg = _cfg(cfg)
        g = np.asarray(g, dtype=complex)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise DimensionError(f"frame metric must be square, got {g.shape}")
        scale = max(1.0, _max_abs(g))
        herm = _max_abs(g - g.conj().T)
        if herm > cfg.tol_alg * scale:
            raise StructureError(f"frame metric is not Hermitian, residual {herm:.3e}")
        g = (g + g.conj().T) / 2.0
        eigmin = float(np.min(np.linalg.eigvalsh(g)))
        if eigmin <= 0.0:
            raise RankError(f"frame metric is not positive definite, min eigenvalue {eigmin:.3e}")
        self.g = g
        self.n = g.shape[0]
        self.min_eig = eigmin

    def __repr__(self) -> str:  # pragma: no cover
        return f"FrameMetric(n={self.n})"


def _as_g(g) -> np.ndarray:
    return g.g if isinstance(g, FrameMetric) else np.asarray(g, dtype=complex)


def frame_metric_from_real(G, frame, *, cfg: Config | None = None) -> FrameMetric:
    """g[i, j] = E[:, i]^T G conj(E[:, j]) for a real metric G.

    Also requires the bilinear products <e_i, e_j> to vanish, which is
    the frame-level form of J-compatibility; a violation raises
    :class:`StructureError`.
    """
    cfg = _cfg(cfg)
    G = G.G if hasattr(G, "G") else np.asarray(G, dtype=float)
    E = frame.E
    g = np.einsum("ai,ab,bj->ij", E, G, np.conj(E))
    hol = np.einsum("ai,ab,bj->ij", E, G.astype(complex), E)
    scale = max(1.0, _max_abs(g))
    res = _max_abs(hol)
    if res > cfg.tol_alg * scale:
        raise StructureError(f"metric is not compatible with J: <e_i, e_j> residual {res:.3e}")
    return FrameMetric(g, cfg=cfg)


def real_metric(h, frame) -> np.ndarray:
    """The real J-compatible metric whose frame metric in ``frame`` is
    the Hermitian h; the inverse of :func:`frame_metric_from_real`."""
    phi = frame.Binv[: frame.n]
    M = (phi.T @ h @ np.conj(phi)).real
    return M + M.T


def chern_torsion(sc: StructureConstants, g) -> np.ndarray:
    """Torsion components T[j, i, k] = T^j_{ik} of the Chern connection:

    T^j_{ik} = -C^j_{ik} - sum_{a,b} D^b_{ak} g^{bar b, j} g[i, a]
                        + sum_{a,b} D^b_{ai} g^{bar b, j} g[k, a]

    with ``g^{bar b, j}`` the (b, j) entry of the inverse metric matrix.
    Antisymmetry in (i, k) is restored exactly after the contraction.
    A numerically singular g raises :class:`RankError`.
    """
    g = _as_g(g)
    sv = np.linalg.svd(g, compute_uv=False)
    if sv.size and sv[-1] <= 1e-13 * sv[0]:
        raise RankError("metric matrix is numerically singular")
    ginv = np.linalg.inv(g)
    t2 = np.einsum("bak,bj,ia->jik", sc.D, ginv, g)
    T = -sc.C - t2 + t2.swapaxes(1, 2)
    return (T - T.swapaxes(1, 2)) / 2.0


def chern_torsion_unitary(sc: StructureConstants) -> np.ndarray:
    """Closed form T^j_{ik} = D^j_{ki} - D^j_{ik} - C^j_{ik}, valid in a
    unitary frame (g = Identity)."""
    return sc.D.swapaxes(1, 2) - sc.D - sc.C


def d_omega(sc: StructureConstants, h) -> np.ndarray:
    """(2,1) coefficients of d omega for omega = i sum h_ab phi_a ^ conj(phi_b).

    Entry ``[..., i, k, j]`` multiplies phi_i ^ phi_k ^ conj(phi_j)
    (i < k) and is -i (sum_r C^r_{ik} h_{rj} + sum_a D^j_{ak} h_{ia}
    - sum_a D^j_{ai} h_{ka}); h may be a stack (leading axes) and need
    not be positive.
    """
    n = sc.n
    h = np.asarray(h, dtype=complex)
    lead = h.shape[:-2]
    Ch = (sc.C.reshape(n, n * n).T @ h).reshape(*lead, n, n, n)
    Dh = (h @ sc.D.transpose(1, 2, 0).reshape(n, n * n)).reshape(*lead, n, n, n)
    return -1j * (Ch + Dh - Dh.swapaxes(-3, -2))


def kahler_form(g, n: int | None = None) -> InvariantForm:
    """omega = i * sum g[i, j] phi_i ^ conj(phi_j)."""
    g = _as_g(g)
    n = g.shape[0] if n is None else n
    terms = {}
    for i in range(n):
        for j in range(n):
            if g[i, j] != 0:
                terms[((i + 1,), (j + 1,))] = 1j * g[i, j]
    return InvariantForm(n, terms)


def kahler_check(sc: StructureConstants, g, *, cfg: Config | None = None) -> CheckResult:
    """d omega = 0; residual is the raw sup norm of :func:`d_omega`."""
    cfg = _cfg(cfg)
    res = _max_abs(d_omega(sc, _as_g(g)))
    return CheckResult(res <= cfg.tol_alg, res)


def pluriclosed_check(sc: StructureConstants, g, *, cfg: Config | None = None) -> CheckResult:
    """del delbar omega = 0, raw sup norm."""
    cfg = _cfg(cfg)
    g = _as_g(g)
    omega = kahler_form(g)
    _, dbar_omega = del_and_delbar(sc, omega)
    ddbar, _ = del_and_delbar(sc, dbar_omega)
    res = ddbar.sup()
    return CheckResult(res <= cfg.tol_alg, res)


def balanced_check(sc: StructureConstants, g, *, cfg: Config | None = None) -> CheckResult:
    """d (omega^(n-1)) = 0, with the (n-1)! of the power divided out.

    The coefficients of d(omega^(n-1)) / (n-1)! are the entries of
    adj(g) theta, where adj(g) = det(g) g^{-1} and theta_k = sum_j T^j_{jk}
    is the Lee form of the Chern torsion; the residual is their sup norm.
    """
    cfg = _cfg(cfg)
    g = _as_g(g)
    theta = np.einsum("jjk->k", chern_torsion(sc, g))
    res = _max_abs(np.linalg.det(g) * np.linalg.solve(g, theta))
    return CheckResult(res <= cfg.tol_alg, res)


# --------------------------------------------------------------------- HS ---


class HSSolution(NamedTuple):
    """Outcome of the linear feasibility problem for the (2,0) part."""

    feasible: bool
    S: np.ndarray | None
    residual: float        # ||A s - b||_2 at the least-squares optimum
    b_norm: float
    normalized: float      # residual / max(1, ||b||_2)


def _hs_rows(sc: StructureConstants, S: np.ndarray) -> np.ndarray:
    """Left-hand sides of both HS equation families, flattened, for each
    matrix of the stack S (shape (m, n, n)); returns shape (m, 2 n^3).

    With P[a, b, c] = sum_r S_{ra} C^r_{bc} and
    Q[a, i, j] = sum_r S_{ra} conj(D^i_{rj}), family (a) at (i, j, k) is
    P[i, j, k] + P[j, k, i] + P[k, i, j], and family (b) at (i, k, j) is
    Q[k, i, j] - Q[i, k, j].
    """
    n, m = sc.n, S.shape[0]
    St = S.swapaxes(1, 2)
    P = (St @ sc.C.reshape(n, n * n)).reshape(m, n, n, n)
    Q = (St @ np.conj(sc.D).swapaxes(0, 1).reshape(n, n * n)).reshape(m, n, n, n)
    # summed in place: at n = 16 the temporaries of a plain sum raise the
    # peak memory of analyze by about 14 MB
    rows = np.empty((m, 2, n, n, n), dtype=complex)
    np.add(P, P.transpose(0, 3, 1, 2), out=rows[:, 0])
    rows[:, 0] += P.transpose(0, 2, 3, 1)
    np.subtract(Q.transpose(0, 2, 1, 3), Q, out=rows[:, 1])
    return rows.reshape(m, 2 * n**3)


def _hs_rhs(sc: StructureConstants, g: np.ndarray) -> np.ndarray:
    b = -0.5 * d_omega(sc, g)
    return np.concatenate([np.zeros(sc.n**3, dtype=complex), b.ravel()])


class _HSSystem(NamedTuple):
    """The matrix A over the skew basis S_(pq) = E_pq - E_qp (p < q) with
    the kept part of its SVD, A ~ u diag(s) vh."""

    n: int
    pairs: tuple[np.ndarray, np.ndarray]   # (p, q) of each column of A
    A: np.ndarray
    uh: np.ndarray         # u^* of the kept singular directions
    s: np.ndarray
    v: np.ndarray


def _hs_system(sc: StructureConstants, cfg: Config) -> _HSSystem:
    """Build and factor A; it does not depend on the metric.

    The pseudo-inverse cut is floored at 1, the scale of unit-scale
    constants, never taken relative to the matrix alone: when S drops
    out of the equations entirely the whole matrix is roundoff noise,
    and a relative cut would invert that noise instead of returning the
    plain distance to b.
    """
    n = sc.n
    iu, ju = np.nonzero(np.less.outer(np.arange(n), np.arange(n)))
    basis = np.zeros((iu.size, n, n), dtype=complex)
    cols = np.arange(iu.size)
    basis[cols, iu, ju] = 1.0
    basis[cols, ju, iu] = -1.0
    A = _hs_rows(sc, basis).T
    u, s, vh = np.linalg.svd(A, full_matrices=False)
    floor = max(float(s[0]) if s.size else 0.0, 1.0)
    keep = s > cfg.tol_rank * floor
    return _HSSystem(n, (iu, ju), A, u[:, keep].conj().T, s[keep], vh.conj().T[:, keep])


def _hs_solve(system: _HSSystem, b: np.ndarray, cfg: Config) -> HSSolution:
    sol = system.v @ ((system.uh @ b) / system.s)
    res = float(np.linalg.norm(system.A @ sol - b))
    b_norm = float(np.linalg.norm(b))
    normalized = res / max(1.0, b_norm)
    feasible = normalized <= cfg.tol_feas
    S = None
    if feasible:
        iu, ju = system.pairs
        S = np.zeros((system.n, system.n), dtype=complex)
        S[iu, ju] = sol
        S[ju, iu] = -sol
    return HSSolution(feasible, S, res, b_norm, normalized)


def hs_decide(sc: StructureConstants, g, *, cfg: Config | None = None) -> HSSolution:
    """Decide existence of an invariant closed completion of omega.

    Solves the least-squares problem over skew matrices S and declares
    feasibility when the optimal residual is at most
    ``cfg.tol_feas * max(1, ||b||_2)``.  On feasible instances the
    minimum-norm S is returned (exactly skew); in particular b = 0, as
    for any Kahler pair, yields S = 0.  Infeasibility is a result, not
    an error.
    """
    cfg = _cfg(cfg)
    return _hs_solve(_hs_system(sc, cfg), _hs_rhs(sc, _as_g(g)), cfg)


def hs_residual_of(sc: StructureConstants, g, S) -> float:
    """Sup-norm defect of both HS equation families at a candidate S."""
    g = _as_g(g)
    S = np.asarray(S, dtype=complex)
    lhs = _hs_rows(sc, S[None])[0]
    rhs = _hs_rhs(sc, g)
    return _max_abs(lhs - rhs)


def hs_form(S, n: int | None = None) -> InvariantForm:
    """alpha = sum_{i,k} S_{ik} phi_i ^ phi_k (both orders, so the
    canonical coefficient of phi_i ^ phi_k with i < k is 2 S_{ik})."""
    S = np.asarray(S, dtype=complex)
    n = S.shape[0] if n is None else n
    terms = {}
    for i in range(n):
        for k in range(i + 1, n):
            c = S[i, k] - S[k, i]
            if c != 0:
                terms[((i + 1, k + 1), ())] = c
    return InvariantForm(n, terms)


class HSSearchResult(NamedTuple):
    found: bool
    best_g: np.ndarray
    S: np.ndarray | None
    best_residual: float
    evals: int


def hs_metric_search(
    sc: StructureConstants,
    *,
    restarts: int = 6,
    budget: int = 500,
    seed: int = 0,
    cfg: Config | None = None,
) -> HSSearchResult:
    """Search over frame metrics for one admitting a closed completion.

    The metric is parametrized as g = L L^* (L a free complex matrix)
    and trace-normalized to tr g = n, which removes the overall-scale
    flat direction of the objective.  Candidates with an eigenvalue
    below 1e-3 of the mean are rejected: near the degenerate boundary
    the right-hand side of the feasibility system shrinks to zero and
    the normalized residual would certify a metric that is not honestly
    positive.  Coordinate descent with a multiplicatively adapted step
    runs for at most ``budget`` objective evaluations per restart;
    restart 0 starts exactly at L = Identity.  The objective is the
    normalized least-squares residual of :func:`hs_decide`, scored
    against one factorization of the metric-independent matrix A, so a
    hit means feasibility at a well-conditioned g; a miss proves nothing.
    """
    cfg = _cfg(cfg)
    n = sc.n
    m = 2 * n * n
    system = _hs_system(sc, cfg)

    def unpack(x: np.ndarray) -> np.ndarray:
        L = x[: n * n].reshape(n, n) + 1j * x[n * n :].reshape(n, n)
        g = L @ L.conj().T
        tr = float(np.trace(g).real)
        if tr <= 1e-12:
            return None
        g = g * (n / tr)
        if float(np.min(np.linalg.eigvalsh(g))) < 1e-3:
            return None
        return g

    def objective(x: np.ndarray) -> tuple[float, HSSolution | None]:
        g = unpack(x)
        if g is None:
            return float("inf"), None
        dec = _hs_solve(system, _hs_rhs(sc, g), cfg)
        return dec.normalized, dec

    best = HSSearchResult(False, np.eye(n, dtype=complex), None, float("inf"), 0)
    total = 0
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        x = np.zeros(m)
        x[: n * n] = np.eye(n).ravel()
        if r > 0:
            x += 0.35 * rng.standard_normal(m)
        f, dec = objective(x)
        total += 1
        step = 0.25
        used = 1
        while used < budget and step > 1e-7:
            improved = False
            for i in range(m):
                if used >= budget:
                    break
                for s in (step, -step):
                    xt = x.copy()
                    xt[i] += s * max(1.0, abs(x[i]))
                    ft, dect = objective(xt)
                    used += 1
                    total += 1
                    if ft < f - 1e-15:
                        x, f, dec = xt, ft, dect
                        improved = True
                        break
                    if used >= budget:
                        break
                if f <= cfg.tol_feas:
                    break
            if f <= cfg.tol_feas:
                break
            if not improved:
                step *= 0.5
        if f < best.best_residual:
            g = unpack(x)
            S = dec.S if dec is not None else None
            best = HSSearchResult(f <= cfg.tol_feas, g if g is not None else best.best_g, S, f, total)
        if best.found:
            break
    return best._replace(evals=total)
