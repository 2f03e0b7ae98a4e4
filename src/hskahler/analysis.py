"""Instance analysis: consistency checks, classification, construction.

A command is one tuple of stages in ``STAGES``, run in order over one
:class:`AnalysisReport`.  Each stage appends records {check_id,
paper_ref, status, residual, details, category}, status pass / fail /
not-applicable.  The stages follow the hypotheses of the construction:
the input checks; the classes and the closed completion at the
documented metric; the admissible frame, its restrictions and the block
identities C1..C7; the closed completion in that frame and D1..D8; then
the construction (``analyze``, ``kahlerize``) or the structural claims
(``verify-claims``).  ``hs`` is the input checks, then the closed
completion and ``--search``.

A closed completion exists or not whatever the frame, so it is decided
once; one change of frame E_adm = E K carries the constants and
S -> K^T S K into the admissible frame.  K, one n x n matrix over the
g-unitary frame E, is the only frame the stages carry.

One gate: no stage runs after a failed consistency record.  A stage
also stops its command where the next one's hypotheses fail (not 2-step
solvable, restriction2, no closed completion); ``kahlerize`` and
``verify-claims`` name what did not run in one failing ``kahlerize`` or
``claims`` record.

Consistency records assert that the input is what it claims to be
(Jacobi, J^2 = -Identity, metric positivity, frame reconstruction,
forced restriction shapes).  Classification records describe the
geometry and never invalidate an input, except those a command asks
for (``DECIDING``), which it files as construction records: they report
on the requested operation, and their failures fail the command.  The
block identities follow from the compact-quotient hypotheses, not from
the Jacobi identity alone, so a valid input may fail them; only
``verify-claims`` asks for them.

One gauge, bracket and metric together: no outcome may depend on a
rescaling of either or on the frame.  After the input checks, g = L L^*
(Cholesky) moves the run to the g-unitary frame E L^-T and divides the
constants there by their magnitude s, the largest |C| or |D| (1 for zero
constants; ``profile.scale``).  Every later stage decides there, at the
metric Identity; the derived series and the admissible split read the
one realification of those constants, where G = Identity and J is
standard, and so does complex mode's integrability record.  Rank cuts
are :func:`hskahler.algebra._rank`, and ``metric_positive`` holds L to
its conditioning test.  The Bianchi and dd records stay on the
document's frame, where no change of frame amplifies input roundoff.
The report carries frame data back: S as L S L^T and a metric as
L h L^*; the certificate is measured in the g-unitary frame, so
``min_eig`` is relative to g, and lam and p are given times s and over s.

A record reports the residual it was decided on: a raw sup norm, or
divided by max(1, |g|) (metric records, on the document's g), max(1, |S|)
(``attached_S``), max(1, |S|)^2 (D block identities, claims),
max(1, ||b||) (``hs_feasible``) or, before the gauge, max |f| (real-mode
Jacobi, squared, integrability and reconstruction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .algebra import (
    CheckResult, Frame, RealLieAlgebra, SolvableProfile, StructureConstants, _conditioned,
    _max_abs, canonical_frame, change_frame, compatibility_residual, complexify_and_extract,
    integrability_residual, realify, reconstruction_residual, solvable_profile,
    unimodularity_check,
)
from .config import Config, TOOL_VERSION, _cfg
from .documents import AlgebraDocument
from .errors import CertificationError, ClaimViolation, PreconditionError, StructureError
from .forms import dd_residual
from .kahler import ClaimsRecord, claims_pipeline, kahlerize
from .metrics import (
    HSSolution, _hs_system, _HSSystem, balanced_check, frame_metric_from_real, hs_decide,
    hs_metric_search, hs_residual_of, kahler_check, pluriclosed_check, real_metric,
)
from .solvable import (
    AdmissibleDecomposition, build_admissible_frame, verify_bianchi_blocks, verify_hs_blocks,
    verify_restrictions,
)

_KAHLERIZE_REF = "it must admit a (left-invariant) Kähler metric"

# The records that decide each command's exit code besides the
# consistency records, as check_id prefixes; ``analyze`` asks for none.
DECIDING = {
    "hs": ("hs_feasible", "hs_search"),
    "kahlerize": ("restriction2", "kahlerize", "claim_"),
    "verify-claims": ("block_", "claim"),
}


def jsonable(x: Any) -> Any:
    """Recursively convert numpy/complex data to JSON-encodable values."""
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [jsonable(v) for v in x.tolist()]
    if isinstance(x, (complex, np.complexfloating)):
        return [float(np.real(x)), float(np.imag(x))]
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.bool_,)):
        return bool(x)
    return x


@dataclass
class Record:
    check_id: str
    paper_ref: str
    status: str                  # pass | fail | not-applicable
    residual: float | None
    details: str = ""
    category: str = "consistency"  # consistency | classification | construction


@dataclass
class AnalysisReport:
    name: str
    mode: str
    command: str
    config: dict
    profile: dict = field(default_factory=dict)
    records: list[Record] = field(default_factory=list)
    classes: dict = field(default_factory=dict)
    hs: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    verdict: str = ""

    def add(
        self,
        check_id: str,
        paper_ref: str,
        passed: bool | None,
        residual: float | None,
        details: str = "",
        category: str = "consistency",
    ) -> Record:
        status = "not-applicable" if passed is None else ("pass" if passed else "fail")
        if category == "classification" and check_id.startswith(DECIDING.get(self.command, ())):
            category = "construction"
        rec = Record(check_id, paper_ref, status, residual, details, category)
        self.records.append(rec)
        return rec

    def failed(self, category: str | None = None) -> list[Record]:
        return [
            r
            for r in self.records
            if r.status == "fail" and (category is None or r.category == category)
        ]

    def consistent(self) -> bool:
        return not self.failed("consistency")

    def requested_ok(self) -> bool:
        """Exit criterion: no consistency failure and no failed record of
        the construction category (which only appears when requested)."""
        return self.consistent() and not self.failed("construction")

    def to_dict(self) -> dict:
        return {
            "tool": "hskahler",
            "tool_version": TOOL_VERSION,
            "command": self.command,
            "name": self.name,
            "mode": self.mode,
            "config": jsonable(self.config),
            "profile": jsonable(self.profile),
            "records": [dict(vars(r)) for r in self.records],
            "classes": jsonable(self.classes),
            "hs": jsonable(self.hs),
            "extras": jsonable(self.extras),
            "verdict": self.verdict,
        }

    def to_text(self) -> str:
        lines = [f"instance: {self.name} ({self.mode} mode)"]
        if self.profile:
            dims = self.profile.get("derived_dims")
            if dims is not None:
                two = "yes" if self.profile.get("two_step") else "no"
                lines.append(f"derived series dims: {tuple(dims)}   2-step solvable: {two}")
            adm = self.profile.get("admissible")
            if adm:
                lines.append(
                    f"admissible splitting: r={adm['r']} s={adm['s']} n={adm['n']} type {adm['type']}"
                )
        if self.records:
            lines.append("checks:")
            width = max(len(r.check_id) for r in self.records)
            for r in self.records:
                tag = {"pass": "PASS", "fail": "FAIL", "not-applicable": "n/a "}[r.status]
                res = "" if r.residual is None else f"residual {r.residual:.3e}"
                det = f"  [{r.details}]" if r.details else ""
                lines.append(f"  {tag} {r.check_id:<{width}}  {res}{det}")
        if self.classes:
            bits = " ".join(f"{k}={'yes' if v else 'no'}" for k, v in self.classes.items())
            lines.append(f"classes: {bits}")
        if self.command == "hs" and self.hs:
            if self.hs.get("feasible") and self.hs.get("S") is not None:
                lines.append("closed completion S (skew-symmetric):")
                lines.extend("  " + row for row in _matrix_lines(self.hs["S"]))
            else:
                lines.append(
                    f"no closed completion: normalized residual {self.hs['normalized_residual']:.6e}"
                )
        cert = self.extras.get("certificate")
        if cert is not None:
            lines.append(f"certificate: r={cert['r']} s={cert['s']} n={cert['n']}")
            lines.append("  p   = " + _vector_line(cert["p"]))
            lines.extend(
                "  lam = " + row if i == 0 else "        " + row
                for i, row in enumerate(_matrix_lines(cert["lam"]))
            )
            lines.append(
                f"  d omega-tilde residual {cert['residuals']['d_omega_tilde']:.3e}"
                f"; min eigenvalue {cert['min_eig']:.6g}"
            )
        if self.verdict:
            lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines) + "\n"


def _fmt_complex(z) -> str:
    z = complex(z)
    return f"{z.real:+.6g}{z.imag:+.6g}i"


def _vector_line(v) -> str:
    return "[" + ", ".join(_fmt_complex(z) for z in np.asarray(v, dtype=complex)) + "]"


def _matrix_lines(M) -> list[str]:
    M = np.asarray(M, dtype=complex)
    if M.size == 0:
        return ["[]"]
    return [_vector_line(row) for row in M]


# --------------------------------------------------------------- the stages


@dataclass
class _Run:
    """What the stages of one command share: the input, the report, and
    what each stage builds for the stages after it."""

    doc: AlgebraDocument
    cfg: Config
    rep: AnalysisReport
    search: tuple[int, int] | None = None  # hs --search: (restarts, budget)
    frame: Frame | None = None               # the document's frame, in real mode
    sc: StructureConstants | None = None
    alg: RealLieAlgebra | None = None        # the realification of sc: G = Identity
    L: np.ndarray | None = None              # g = L L^*: E_unitary = E_doc L^-T
    profile: SolvableProfile | None = None
    hs: HSSolution | None = None             # at the documented metric
    hs_system: _HSSystem | None = None       # its factored matrix, shared with --search
    dec: AdmissibleDecomposition | None = None   # E_adm = E_unitary dec.K
    sc_adm: StructureConstants | None = None
    restriction2: CheckResult | None = None
    hs_adm: HSSolution | None = None         # hs carried into the admissible frame
    scale: float = 1.0     # the magnitude the input's constants were divided by


# A stage appends its records to the report and fills in the run.  It
# returns None, or why the stages after it cannot run as (details,
# residual); the stages after a failed consistency record never run.
_Why = tuple[str, float | None] | None


def _input(run: _Run) -> _Why:
    """The input checks, Jacobi through the structure equation, and the
    one gauge: every later stage sees the constants in a g-unitary frame,
    divided by their magnitude there, and their realification."""
    doc, cfg, rep = run.doc, run.cfg, run.rep
    if doc.mode == "real":
        alg, J, G = doc.build_real(cfg=cfg, validate=False)
        m = _max_abs(alg.f) or 1.0
        jac = alg.jacobi_residual() / m**2
        rep.add("jacobi", "the Jacobi identity", jac <= cfg.tol_jacobi, jac)
        jres = _max_abs(J @ J + np.eye(alg.dim))
        rep.add("complex_structure", "plumbing", jres <= cfg.tol_alg, jres)
        gs = _metric_records(rep, cfg, G, "metric_symmetric")
        comp = compatibility_residual(G, J) / gs
        rep.add("metric_compatible", "an inner product", comp <= cfg.tol_alg, comp)
        integ = integrability_residual(alg, J) / m
        rep.add("integrability", "the integrability condition", integ <= cfg.tol_alg, integ)
        if rep.failed():
            rep.verdict = "input is not a consistent Hermitian instance"
            return None
        run.frame = frame = canonical_frame(J, cfg=cfg)
        raw = complexify_and_extract(alg, J, frame, cfg=cfg, validate=False)
        g = frame_metric_from_real(G, frame, cfg=cfg).g
        recon = reconstruction_residual(alg, frame, raw) / m
        rep.add("reconstruction", "plumbing", recon <= cfg.tol_alg, recon)
    else:
        raw, g, _ = doc.build_complex(cfg=cfg, validate=False)
        _metric_records(rep, cfg, g, "metric_hermitian")
        if rep.failed():
            rep.verdict = "input is not a consistent Hermitian instance"
            return None

    # the gauge: g = L L^*, and the frame E L^-T is g-unitary; its
    # realification has G = Identity and the standard J
    run.L = L = np.linalg.cholesky((g + g.conj().T) / 2.0)
    sc, scale = _gauge(change_frame(raw, L, cfg=cfg))
    run.alg, J, _, _ = realify(sc.C, sc.D, cfg=cfg, validate=False)
    if doc.mode == "complex":
        integ = integrability_residual(run.alg, J)
        rep.add("integrability", "the integrability condition", integ <= cfg.tol_alg, integ)
    run.sc = sc
    rep.profile["scale"] = run.scale = scale
    if doc.S is not None:
        S = np.linalg.solve(L, np.linalg.solve(L, doc.S.T).T)  # L^-1 S L^-T
        sres = hs_residual_of(sc, np.eye(sc.n), S) / max(1.0, _max_abs(S))
        rep.add("attached_S", "there exists a skew-symmetric matrix", sres <= cfg.tol_feas, sres,
                details="the document's S against the closed-completion system")

    # two independent routes to the same identity, on the document's frame:
    # index sums and d on the coframe; neither is derived from the other
    sc_doc, _ = _gauge(raw)
    fams = sc_doc.bianchi_residuals()
    worst = max(fams.values())
    rep.add(
        "bianchi_families", "the first Bianchi identity",
        worst <= cfg.tol_jacobi, worst,
        details=" ".join(f"{k}={v:.3e}" for k, v in fams.items()),
    )
    dd = dd_residual(sc_doc)
    rep.add("dd_closure", "the (first) structure equation", dd <= cfg.tol_jacobi, dd)
    failed = {r.check_id for r in rep.failed()}
    if failed & {"bianchi_families", "dd_closure"}:
        rep.verdict = "structure constants do not define a Lie algebra"
    elif failed - {"attached_S"}:
        rep.verdict = "input is not a consistent Hermitian instance"
    elif failed:
        rep.verdict = "the document's S is not a closed completion"


def _metric_records(rep: AnalysisReport, cfg: Config, M: np.ndarray, check_id: str) -> float:
    """M is symmetric (Hermitian) and positive definite, and its Cholesky
    factor, of singular values sqrt(eig M), passes the conditioning test;
    returns the max(1, |M|) that its residuals are divided by."""
    gs = max(1.0, _max_abs(M))
    sym = _max_abs(M - M.conj().T) / gs
    eig = np.linalg.eigvalsh((M + M.conj().T) / 2.0)
    eigmin = float(eig[0])
    ok = eigmin > 0.0 and _conditioned(np.sqrt(eig[::-1]), cfg)
    ill = "" if ok or eigmin <= 0.0 else f", condition {eig[-1] / eigmin:.3e}: numerically singular"
    rep.add(check_id, "plumbing", sym <= cfg.tol_alg, sym)
    rep.add("metric_positive", "plumbing", ok, max(0.0, -eigmin) / gs,
            details=f"min eigenvalue {eigmin:.3e}{ill}")
    return gs


def _gauge(sc: StructureConstants) -> tuple[StructureConstants, float]:
    """The constants divided by their magnitude s, and s; zero constants
    are their own gauge, with s = 1."""
    scale = sc.magnitude() or 1.0
    return StructureConstants(sc.C / scale, sc.D / scale, validate=False), scale


def _hs_feasible(run: _Run) -> HSSolution:
    """Decide the closed completion at the documented metric: the
    ``hs_feasible`` record and the report's ``hs`` section."""
    run.hs_system = _hs_system(run.sc, run.cfg)
    run.hs = sol = hs_decide(run.sc, np.eye(run.sc.n), cfg=run.cfg, system=run.hs_system)
    run.rep.add(
        "hs_feasible", "there exists a skew-symmetric matrix",
        sol.feasible, sol.normalized,
        details=f"lstsq residual {sol.residual:.3e}, rhs norm {sol.b_norm:.3e}",
        category="classification",
    )
    run.rep.hs = {
        "feasible": sol.feasible,
        "normalized_residual": sol.normalized,
        "lstsq_residual": sol.residual,
        "rhs_norm": sol.b_norm,
        "S": None if sol.S is None else run.L @ sol.S @ run.L.T,
    }
    return sol


def _classes(run: _Run) -> _Why:
    """Unimodularity, the derived series, and the metric classes and the
    closed completion at the documented metric."""
    rep, cfg, sc = run.rep, run.cfg, run.sc
    uni = unimodularity_check(sc, cfg=cfg)
    rep.add("unimodularity", "is unimodular", uni.passed, uni.residual, category="classification")

    run.profile = profile = solvable_profile(run.alg, cfg=cfg)
    rep.add(
        "two_step", "its commutator is abelian",
        profile.is_2step_solvable, None,
        details=f"derived series dims {profile.dims}", category="classification",
    )
    rep.profile.update({
        "dim_real": run.alg.dim,
        "n": sc.n,
        "derived_dims": list(profile.dims),
        "two_step": profile.is_2step_solvable,
        "admissible": None,
    })

    kah = kahler_check(sc, cfg=cfg)
    plu = pluriclosed_check(sc, cfg=cfg)
    bal = balanced_check(sc, cfg=cfg)
    rep.add("kahler", "is Kähler", kah.passed, kah.residual, category="classification")
    rep.add("pluriclosed", "it is pluriclosed", plu.passed, plu.residual, category="classification")
    rep.add("balanced", "d(omega^(n-1)) = 0", bal.passed, bal.residual, category="classification")
    sol = _hs_feasible(run)
    rep.classes = {
        "kahler": kah.passed,
        "pluriclosed": plu.passed,
        "balanced": bal.passed,
        "hermitian_symplectic": sol.feasible,
    }
    rep.verdict = _verdict(rep.classes)


def _verdict(classes: dict) -> str:
    if classes["kahler"]:
        return "Kähler"
    parts = [k for k in ("pluriclosed", "balanced") if classes[k]] or ["non-pluriclosed"]
    hs_bit = "HS-compatible" if classes["hermitian_symplectic"] else "not HS-compatible"
    return ", ".join(parts + [hs_bit])


def _admissible(run: _Run) -> _Why:
    """The admissible frame of 2-step solvable input, its restrictions,
    and the block identities C1..C7."""
    rep, cfg = run.rep, run.cfg
    if not run.profile.is_2step_solvable:
        rep.add(
            "admissible_frame", "said to be admissible", None, None,
            details="not 2-step solvable", category="classification",
        )
        return "not 2-step solvable", None
    try:
        dec = build_admissible_frame(run.sc, profile=run.profile, cfg=cfg)
    except (StructureError, PreconditionError) as e:
        # a consistency record: no stage runs after it
        rep.add("admissible_frame", "said to be admissible", False, None, details=str(e))
        return None
    # one change of frame E_adm = E K carries the constants, and later S
    sc_adm = change_frame(run.sc, np.linalg.inv(dec.K).T, cfg=cfg)
    run.dec, run.sc_adm = dec, sc_adm
    rep.profile["admissible"] = {"r": dec.r, "s": dec.s, "n": dec.n, "type": dec.pure_type}
    restr = verify_restrictions(dec, sc_adm, cfg=cfg)
    r1 = restr["restriction1"]
    run.restriction2 = r2 = restr["restriction2"]
    rep.add("restriction1", "satisfy the following restrictions", r1.passed, r1.residual)
    rep.add(
        "restriction2", "the structure constants satisfy",
        r2.passed, r2.residual,
        details="" if r2.passed else "no compact HS quotient possible",
        category="classification",
    )
    if not r2.passed and not rep.classes["kahler"]:
        rep.verdict += " (restriction2 fails)"
    for key, chk in verify_bianchi_blocks(dec, sc_adm, cfg=cfg).items():
        rep.add(
            f"block_{key}", "for any r+1 <= x, y, z <= n",
            chk.passed, chk.residual, category="classification",
        )


def _completion(run: _Run) -> _Why:
    """The closed completion at the documented metric carried into the
    admissible frame, S -> K^T S K, and, when there is one, the block
    identities D1..D8 it must satisfy."""
    sol, K = run.hs, run.dec.K
    if sol.feasible:
        sol = sol._replace(S=K.T @ sol.S @ K)
    run.hs_adm = sol
    if not sol.feasible:
        run.rep.add(
            "block_D", "so that the following hold", None, None,
            details="no closed completion at this metric", category="classification",
        )
        return None
    for key, chk in verify_hs_blocks(run.dec, run.sc_adm, sol.S, cfg=run.cfg).items():
        run.rep.add(
            f"block_{key}", "so that the following hold",
            chk.passed, chk.residual, category="classification",
        )


_CLAIM_ROWS = (
    ("claim_Z", "Z_x = 0", "Z_check"),
    ("claim_w", "w = 0", "w_check"),
    ("claim_opposition", "C_x = -D_x", "opposition"),
    ("claim_commutation", "[D_x, S'* S'] = 0", "commutation"),
    ("claim_range_membership", "v^x_y in the image of D_x", "range_membership"),
    ("claim_common_preimage", "v^x_y = D_y xi_x", "common_preimage"),
)


def _claim_records(rep: AnalysisReport, claims: ClaimsRecord | ClaimViolation) -> None:
    """One record per claim row, from the finished claims stage or from
    its failed vanishing gate, which leaves the later claims unevaluated."""
    for cid, ref, attr in _CLAIM_ROWS:
        chk = getattr(claims, attr, None)
        if chk is None:
            rep.add(
                cid, ref, None, None,
                details="not evaluated: the forced vanishings fail", category="classification",
            )
        else:
            rep.add(cid, ref, chk.passed, chk.residual, category="classification")


def _claims(run: _Run) -> _Why:
    """The structural claims on the closed completion at the block metric."""
    rep, sol = run.rep, run.hs_adm
    if not sol.feasible:
        return "no closed completion at this metric", sol.normalized
    try:
        rec = claims_pipeline(run.dec, run.sc_adm, sol.S, cfg=run.cfg)
    except ClaimViolation as e:
        _claim_records(rep, e)
        return None
    except StructureError as e:
        return str(e), None
    _claim_records(rep, rec)
    # lam has the degree of the constants and p the opposite one
    rep.extras["claims"] = {
        "lam": rec.lam * run.scale, "xi": rec.xi, "p": rec.p / run.scale,
        **{k: getattr(rec, k) for k in ("rotation", "p_residual", "t_ratio", "t_independent")},
    }


def _construct(run: _Run) -> _Why:
    """The Kähler construction and its certificate wherever its
    hypotheses hold; ``analyze`` passes over Kähler input, which needs
    none."""
    r2, sol = run.restriction2, run.hs_adm
    if not r2.passed:
        why = "restriction2 fails: no compact HS quotient, the construction does not apply"
        return why, r2.residual
    if not sol.feasible:
        return "no closed completion at this metric", sol.normalized
    rep, cfg = run.rep, run.cfg
    if rep.command == "analyze" and rep.classes["kahler"]:
        return None
    try:
        cert = kahlerize(run.dec, run.sc_adm, sol.S, cfg=cfg, strict=False)
    except (ClaimViolation, StructureError, PreconditionError, CertificationError) as e:
        if isinstance(e, ClaimViolation):
            _claim_records(rep, e)
        rep.add("kahlerize", _KAHLERIZE_REF, False, None, details=str(e), category="classification")
        return None
    _claim_records(rep, cert.claims)
    # a property of the model family, not a hypothesis of the construction:
    # rho(x) = i(pi/2) Id on C^2 with the lattice Z[i]^2 is a compact Kahler
    # quotient whose eigenvalue tuples are dependent
    rep.add(
        "t_independence", "must be linearly independent",
        cert.claims.t_independent, cert.claims.t_ratio,
        details="smallest relative singular value of the eigenvalue tuples",
        category="classification",
    )
    rep.add(
        "kahlerize_closed", "d omega-tilde = 0", cert.closed, cert.residuals["d_omega_tilde"],
        details=" ".join(f"{t:.2e}" for t in cert.termwise_residuals) or "no terms",
        category="classification",
    )
    rep.add(
        "kahlerize_positive", "g-tilde is Kähler", cert.positive, None,
        details=f"min eigenvalue {cert.min_eig:.6g}", category="classification",
    )
    metric = run.L @ cert.metric @ run.L.conj().T   # in the document's frame
    rep.extras["certificate"] = {
        **{k: getattr(cert, k) for k in ("r", "s", "n", "rotation")},
        "lam": cert.lam * run.scale, "p": cert.p / run.scale, "xi": cert.xi,
        # h for complex documents, the real G~ for real ones
        "metric": metric if run.frame is None else real_metric(metric, run.frame),
        "t_independent": cert.claims.t_independent,
        "residuals": cert.residuals,
        "termwise_residuals": list(cert.termwise_residuals),
        "positive": cert.positive,
        "min_eig": cert.min_eig,
    }
    if cert.closed and cert.positive:
        rep.verdict += "; Kähler metric constructed"


def _hs(run: _Run) -> _Why:
    """The closed completion at the documented metric and, under
    ``--search``, the metric search where there is none."""
    rep = run.rep
    sol = _hs_feasible(run)
    rep.verdict = ("closed completion exists at this metric" if sol.feasible
                   else "no closed completion at this metric")
    if run.search is None:
        return None
    if sol.feasible:
        rep.add(
            "hs_search", "it suffices to consider invariant metrics", None, None,
            details="already feasible at the documented metric", category="classification",
        )
        return None
    restarts, budget = run.search
    result = hs_metric_search(run.sc, restarts=restarts, budget=budget, seed=run.cfg.seed,
                              cfg=run.cfg, system=run.hs_system)
    rep.add(
        "hs_search", "it suffices to consider invariant metrics",
        result.found, result.best_residual,
        details=f"{result.evals} objective evaluations", category="classification",
    )
    rep.extras["hs_search"] = {
        "found": result.found,
        "best_residual": result.best_residual,
        "evals": result.evals,
        "g": run.L @ result.best_g @ run.L.conj().T,
        "S": None if result.S is None else run.L @ result.S @ run.L.T,
    }
    if result.found:
        rep.verdict += "; a different invariant metric admits one"


# ------------------------------------------------------------ entry points


_CHAIN = (_input, _classes, _admissible, _completion)
STAGES = {
    "analyze": (*_CHAIN, _construct),
    "hs": (_input, _hs),
    "kahlerize": (*_CHAIN, _construct),
    "verify-claims": (*_CHAIN, _claims),
}

# The record naming what a command could not run; ``analyze`` and ``hs``
# name nothing.
_UNRUN = {"kahlerize": ("kahlerize", _KAHLERIZE_REF), "verify-claims": ("claims", "plumbing")}


def _execute(doc: AlgebraDocument, cfg: Config | None, command: str,
             search: tuple[int, int] | None = None) -> AnalysisReport:
    """Run the command's stages in order, up to the first that cannot run."""
    cfg = _cfg(cfg)
    rep = AnalysisReport(name=doc.name, mode=doc.mode, command=command, config=cfg.as_dict())
    run = _Run(doc, cfg, rep, search)
    for stage in STAGES[command]:
        why = stage(run) if rep.consistent() else ("input fails consistency checks", None)
        if why is not None:
            if command in _UNRUN:
                details, residual = why
                rep.add(*_UNRUN[command], False, residual, details=details,
                        category="classification")
            break
    return rep


def run_analysis(doc: AlgebraDocument, *, cfg: Config | None = None) -> AnalysisReport:
    """Full consistency + classification pass over one instance,
    including the constructive step whenever its hypotheses hold."""
    return _execute(doc, cfg, "analyze")


def run_hs(
    doc: AlgebraDocument,
    *,
    cfg: Config | None = None,
    search: bool = False,
    restarts: int = 6,
    budget: int = 500,
) -> AnalysisReport:
    """Closed-completion feasibility at the documented metric.

    Feasibility is the requested result here: an infeasible metric
    makes the command fail.  The optional metric search reports
    empirical evidence only.
    """
    return _execute(doc, cfg, "hs", (restarts, budget) if search else None)


def run_verify_claims(doc: AlgebraDocument, *, cfg: Config | None = None) -> AnalysisReport:
    """The identity tables C1..C7 and D1..D8 plus the structural claims;
    unavailable preconditions surface as failed records, not exceptions."""
    return _execute(doc, cfg, "verify-claims")


def run_kahlerize(doc: AlgebraDocument, *, cfg: Config | None = None) -> AnalysisReport:
    """The constructive closed-positive completion, gated the way the
    underlying statement is: 2-step solvable, the compact-quotient
    restriction, and a closed completion at the block metric."""
    return _execute(doc, cfg, "kahlerize")
