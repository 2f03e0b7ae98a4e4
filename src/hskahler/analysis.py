"""Instance analysis: consistency checks, classification, construction.

Each run produces an :class:`AnalysisReport` holding typed records

    {check_id, paper_ref, status, residual, details, category}

with status one of pass / fail / not-applicable.  The category controls
exit semantics downstream: "consistency" records assert that the input
is what it claims to be (Jacobi, J^2 = -Identity, metric positivity,
frame reconstruction, forced restriction shapes); "classification"
records describe the geometry (metric classes, unimodularity,
restriction2, feasibility, block identities, independence of the
eigenvalue tuples) and never invalidate an input; and "construction"
records report on what a command was asked for, so their failures mean
the requested operation did not go through.

Which records a command asks for is the only per-command policy here,
kept in ``DECIDING``: under a command, a classification record whose id
starts with one of its prefixes is filed as a construction record.
The block identities C1..C7 and D1..D8 stay classification records
under ``analyze`` on purpose: they are consequences of the
compact-quotient hypotheses, not of the Jacobi identity alone, so a
perfectly valid input may fail them.  ``verify-claims`` asks for them.

Residuals are not all normalized the same way.  The consistency
residuals other than J^2 + Identity, and the unimodularity,
restriction, block and claim residuals, are divided by max(1, s), with
s the natural scale of their equation (the largest structure constant
or metric entry, squared for quadratic identities), and
``hs_feasible`` reports the least-squares residual over max(1, ||b||).
The metric-class residuals ``kahler``, ``pluriclosed`` and ``balanced``
are raw sup norms of form coefficients compared with the absolute
``tol_alg``, so rescaling the bracket can flip them; the
``kahlerize_closed`` residual is raw as well, against a threshold that
is scaled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .algebra import (
    _max_abs,
    canonical_frame,
    compatibility_residual,
    complexify_and_extract,
    integrability_residual,
    realify,
    reconstruction_residual,
    solvable_profile,
    unimodularity_check,
)
from .config import Config, TOOL_VERSION, _cfg
from .documents import AlgebraDocument
from .errors import CertificationError, ClaimViolation, PreconditionError, StructureError
from .forms import dd_residual
from .kahler import ClaimsRecord, claims_pipeline, kahlerize
from .metrics import (
    balanced_check,
    frame_metric_from_real,
    hs_decide,
    hs_metric_search,
    hs_residual_of,
    kahler_check,
    pluriclosed_check,
)
from .solvable import (
    admissible_from_frame,
    build_admissible_frame,
    verify_bianchi_blocks,
    verify_hs_blocks,
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

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "paper_ref": self.paper_ref,
            "status": self.status,
            "residual": self.residual,
            "details": self.details,
            "category": self.category,
        }


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
            "records": [r.to_dict() for r in self.records],
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


# ------------------------------------------------------------- the pipeline


def _checked_input(doc: AlgebraDocument, cfg: Config, command: str) -> tuple[AnalysisReport, dict]:
    """A new report holding the input checks, Jacobi through the
    structure equation, and the context the later stages read."""
    rep = AnalysisReport(name=doc.name, mode=doc.mode, command=command, config=cfg.as_dict())
    ctx: dict[str, Any] = {"blocked": ("input fails consistency checks", None)}

    if doc.mode == "real":
        alg, J, G = doc.build_real(cfg=cfg, validate=False)
        m = max(1.0, _max_abs(alg.f))
        jac = alg.jacobi_residual() / m**2
        rep.add("jacobi", "the Jacobi identity", jac <= cfg.tol_jacobi, jac)
        jres = _max_abs(J @ J + np.eye(alg.dim))
        rep.add("complex_structure", "plumbing", jres <= cfg.tol_alg, jres)
        gs = max(1.0, _max_abs(G))
        sym = _max_abs(G - G.T) / gs
        eigmin = float(np.min(np.linalg.eigvalsh((G + G.T) / 2.0)))
        rep.add("metric_symmetric", "plumbing", sym <= cfg.tol_alg, sym)
        rep.add(
            "metric_positive", "plumbing", eigmin > 0.0, max(0.0, -eigmin) / gs,
            details=f"min eigenvalue {eigmin:.3e}",
        )
        comp = compatibility_residual(G, J) / gs
        rep.add("metric_compatible", "an inner product", comp <= cfg.tol_alg, comp)
        integ = integrability_residual(alg, J) / m
        rep.add("integrability", "the integrability condition", integ <= cfg.tol_alg, integ)
        if rep.failed():
            rep.verdict = "input is not a consistent Hermitian instance"
            return rep, ctx
        frame = canonical_frame(J, cfg=cfg)
        sc = complexify_and_extract(alg, J, frame, cfg=cfg, validate=False)
        g = frame_metric_from_real(G, frame, cfg=cfg).g
        recon = reconstruction_residual(alg, frame, sc) / m
        rep.add("reconstruction", "plumbing", recon <= cfg.tol_alg, recon)
        ctx["native_frame"] = False
    else:
        sc, g, S_doc = doc.build_complex(cfg=cfg, validate=False)
        gs = max(1.0, _max_abs(g))
        herm = _max_abs(g - g.conj().T) / gs
        eigmin = float(np.min(np.linalg.eigvalsh((g + g.conj().T) / 2.0)))
        rep.add("metric_hermitian", "plumbing", herm <= cfg.tol_alg, herm)
        rep.add(
            "metric_positive", "plumbing", eigmin > 0.0, max(0.0, -eigmin) / gs,
            details=f"min eigenvalue {eigmin:.3e}",
        )
        if rep.failed():
            rep.verdict = "input is not a consistent Hermitian instance"
            return rep, ctx
        alg, J, G, frame = realify(sc.C, sc.D, g, cfg=cfg, validate=False)
        integ = integrability_residual(alg, J) / max(1.0, sc.magnitude())
        rep.add("integrability", "the integrability condition", integ <= cfg.tol_alg, integ)
        if S_doc is not None:
            sres = hs_residual_of(sc, g, S_doc)
            sscale = max(1.0, sc.magnitude() * max(1.0, _max_abs(S_doc)))
            rep.add(
                "attached_S", "there exists a skew-symmetric matrix",
                sres / sscale <= cfg.tol_feas, sres / sscale,
                details="the document's S against the closed-completion system",
            )
        ctx["native_frame"] = True

    # two independent routes to the same identity: index sums and d on the
    # coframe; neither is derived from the other in code
    fams = sc.bianchi_residuals()
    scale2 = max(1.0, sc.magnitude() ** 2)
    fams = {k: v / scale2 for k, v in fams.items()}
    worst = max(fams.values())
    rep.add(
        "bianchi_families", "the first Bianchi identity",
        worst <= cfg.tol_jacobi, worst,
        details=" ".join(f"{k}={v:.3e}" for k, v in fams.items()),
    )
    dd = dd_residual(sc) / scale2
    rep.add("dd_closure", "the (first) structure equation", dd <= cfg.tol_jacobi, dd)
    ctx.update(alg=alg, J=J, G=G, frame=frame, sc=sc, g=g)
    failed = {r.check_id for r in rep.failed()}
    if failed & {"bianchi_families", "dd_closure"}:
        rep.verdict = "structure constants do not define a Lie algebra"
    elif failed - {"attached_S"}:
        rep.verdict = "input is not a consistent Hermitian instance"
    elif failed:
        rep.verdict = "the document's S is not a closed completion"
    return rep, ctx


def _hs_feasible(rep: AnalysisReport, sc, g, cfg: Config):
    """Decide the closed completion at the documented metric: the
    ``hs_feasible`` record and the report's ``hs`` section."""
    sol = hs_decide(sc, g, cfg=cfg)
    rep.add(
        "hs_feasible", "there exists a skew-symmetric matrix",
        sol.feasible, sol.normalized,
        details=f"lstsq residual {sol.residual:.3e}, rhs norm {sol.b_norm:.3e}",
        category="classification",
    )
    rep.hs = {
        "feasible": sol.feasible,
        "normalized_residual": sol.normalized,
        "lstsq_residual": sol.residual,
        "rhs_norm": sol.b_norm,
        "S": sol.S,
    }
    return sol


def _pipeline(doc: AlgebraDocument, cfg: Config, command: str) -> tuple[AnalysisReport, dict]:
    """The input checks, the classification, and on 2-step solvable
    input the admissible frame with its restrictions and block
    identities.  ``ctx["blocked"]`` is None when the Kähler construction
    can run, else why not, as (details, residual)."""
    rep, ctx = _checked_input(doc, cfg, command)
    if not rep.consistent():
        return rep, ctx
    alg, J, G, frame, sc, g = (ctx[k] for k in ("alg", "J", "G", "frame", "sc", "g"))

    uni = unimodularity_check(sc, cfg=cfg)
    rep.add("unimodularity", "is unimodular", uni.passed, uni.residual, category="classification")

    profile = solvable_profile(alg, cfg=cfg)
    rep.add(
        "two_step", "its commutator is abelian",
        profile.is_2step_solvable, None,
        details=f"derived series dims {profile.dims}", category="classification",
    )
    rep.profile = {
        "dim_real": alg.dim,
        "n": sc.n,
        "derived_dims": list(profile.dims),
        "two_step": profile.is_2step_solvable,
        "admissible": None,
    }

    kah = kahler_check(sc, g, cfg=cfg)
    plu = pluriclosed_check(sc, g, cfg=cfg)
    bal = balanced_check(sc, g, cfg=cfg)
    rep.add("kahler", "is Kähler", kah.passed, kah.residual, category="classification")
    rep.add("pluriclosed", "it is pluriclosed", plu.passed, plu.residual, category="classification")
    rep.add(
        "balanced", "d(omega^(n-1)) = 0", bal.passed, bal.residual, category="classification"
    )
    sol = _hs_feasible(rep, sc, g, cfg)
    rep.classes = {
        "kahler": kah.passed,
        "pluriclosed": plu.passed,
        "balanced": bal.passed,
        "hermitian_symplectic": sol.feasible,
    }

    restriction2_failed = False
    if profile.is_2step_solvable:
        ctx["blocked"] = ("admissible frame unavailable", None)
        dec = None
        try:
            if ctx["native_frame"]:
                # the document's own frame might already be admissible; keeping
                # it preserves hand-chosen block bases (and the generator's
                # eigenvector phases), so try it before rebuilding
                try:
                    dec = admissible_from_frame(alg, J, G, frame, cfg=cfg)
                    sc_adm = sc
                except StructureError:
                    dec = None
            if dec is None:
                dec = build_admissible_frame(alg, J, G, cfg=cfg)
                sc_adm = complexify_and_extract(alg, J, dec.frame, cfg=cfg, validate=False)
        except (StructureError, PreconditionError) as e:
            rep.add("admissible_frame", "said to be admissible", False, None, details=str(e))
        if dec is not None:
            rep.profile["admissible"] = {
                "r": dec.r, "s": dec.s, "n": dec.n, "type": dec.pure_type,
            }
            restr = verify_restrictions(dec, sc_adm, cfg=cfg)
            r1, r2 = restr["restriction1"], restr["restriction2"]
            rep.add("restriction1", "satisfy the following restrictions", r1.passed, r1.residual)
            rep.add(
                "restriction2", "the structure constants satisfy",
                r2.passed, r2.residual,
                details="" if r2.passed else "no compact HS quotient possible",
                category="classification",
            )
            restriction2_failed = not r2.passed
            for key, chk in verify_bianchi_blocks(dec, sc_adm, cfg=cfg).items():
                rep.add(
                    f"block_{key}", "for any r+1 <= x, y, z <= n",
                    chk.passed, chk.residual, category="classification",
                )
            sol_adm = hs_decide(sc_adm, dec.metric, cfg=cfg)
            ctx.update(dec=dec, sc_adm=sc_adm, hs_adm=sol_adm, blocked=None)
            if sol_adm.feasible:
                for key, chk in verify_hs_blocks(dec, sc_adm, sol_adm.S, cfg=cfg).items():
                    rep.add(
                        f"block_{key}", "so that the following hold",
                        chk.passed, chk.residual, category="classification",
                    )
            else:
                ctx["blocked"] = ("no closed completion at this metric", sol_adm.normalized)
                rep.add(
                    "block_D", "so that the following hold", None, None,
                    details="no closed completion at this metric", category="classification",
                )
            if restriction2_failed:
                why = "restriction2 fails: no compact HS quotient, the construction does not apply"
                ctx["blocked"] = (why, r2.residual)
    else:
        ctx["blocked"] = ("not 2-step solvable", None)
        rep.add(
            "admissible_frame", "said to be admissible", None, None,
            details="not 2-step solvable", category="classification",
        )

    rep.verdict = _verdict(rep.classes, restriction2_failed)
    return rep, ctx


def _verdict(classes: dict, restriction2_failed: bool) -> str:
    if classes.get("kahler"):
        return "Kähler"
    parts = [k for k in ("pluriclosed", "balanced") if classes.get(k)]
    if not parts:
        parts = ["non-pluriclosed"]
    hs_bit = "HS-compatible" if classes.get("hermitian_symplectic") else "not HS-compatible"
    if restriction2_failed:
        hs_bit += " (restriction2 fails)"
    return ", ".join(parts + [hs_bit])


# ----------------------------------------------------- claims + certificate


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


def _certify(rep: AnalysisReport, ctx: dict, cfg: Config) -> bool:
    """Run the claims + construction stage on the admissible-frame data
    in ``ctx`` and append its records; True when the certificate closes
    and is positive."""
    dec, sc_adm, sol = ctx["dec"], ctx["sc_adm"], ctx["hs_adm"]
    try:
        cert = kahlerize(dec, sc_adm, sol.S, cfg=cfg, strict=False)
    except ClaimViolation as e:
        _claim_records(rep, e)
        rep.add("kahlerize", _KAHLERIZE_REF, False, None, details=str(e), category="classification")
        return False
    except (StructureError, PreconditionError, CertificationError) as e:
        rep.add("kahlerize", _KAHLERIZE_REF, False, None, details=str(e), category="classification")
        return False
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
    d_res = cert.residuals["d_omega_tilde"]
    closed_ok = d_res <= cfg.tol_cert * max(1.0, cert.sc_rotated.magnitude())
    rep.add(
        "kahlerize_closed", "d omega-tilde = 0", closed_ok, d_res,
        details=" ".join(f"{t:.2e}" for t in cert.termwise_residuals) or "no terms",
        category="classification",
    )
    rep.add(
        "kahlerize_positive", "g-tilde is Kähler", cert.positive, None,
        details=f"min eigenvalue {cert.min_eig:.6g}", category="classification",
    )
    rep.extras["certificate"] = {
        "r": cert.r,
        "s": cert.s,
        "n": cert.n,
        "rotation": cert.rotation,
        "lam": cert.lam,
        "p": cert.p,
        "xi": cert.xi,
        "psi_coeffs": cert.psi_coeffs,
        "t_independent": cert.claims.t_independent,
        "residuals": cert.residuals,
        "termwise_residuals": list(cert.termwise_residuals),
        "positive": cert.positive,
        "min_eig": cert.min_eig,
        "omega_terms": [
            [list(P), list(Q), c]
            for (P, Q), c in sorted(cert.omega_tilde.prune(cfg.prune).terms.items())
        ],
        "psi_terms": [
            [[list(P), list(Q), c] for (P, Q), c in sorted(f.prune(cfg.prune).terms.items())]
            for f in cert.psi
        ],
    }
    return closed_ok and cert.positive


# ------------------------------------------------------------ entry points


def _construct(doc: AlgebraDocument, cfg: Config | None, command: str) -> AnalysisReport:
    """The pipeline, then the Kähler construction wherever its hypotheses
    hold.  ``kahlerize`` asks for the construction, so there a blocked
    one is a failing ``kahlerize`` record; ``analyze`` passes over it in
    silence, and over Kähler input, which needs no construction."""
    cfg = _cfg(cfg)
    rep, ctx = _pipeline(doc, cfg, command)
    if ctx["blocked"] is not None:
        if command == "kahlerize":
            why, residual = ctx["blocked"]
            rep.add("kahlerize", _KAHLERIZE_REF, False, residual, details=why,
                    category="classification")
    elif (command == "kahlerize" or not rep.classes["kahler"]) and _certify(rep, ctx, cfg):
        rep.verdict += "; Kähler metric constructed"
    return rep


def run_analysis(doc: AlgebraDocument, *, cfg: Config | None = None) -> AnalysisReport:
    """Full consistency + classification pass over one instance,
    including the constructive step whenever its hypotheses hold."""
    return _construct(doc, cfg, "analyze")


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
    cfg = _cfg(cfg)
    rep, ctx = _checked_input(doc, cfg, "hs")
    if not rep.consistent():
        return rep
    sol = _hs_feasible(rep, ctx["sc"], ctx["g"], cfg)
    rep.verdict = (
        "closed completion exists at this metric"
        if sol.feasible
        else "no closed completion at this metric"
    )
    if search:
        if sol.feasible:
            rep.add(
                "hs_search", "it suffices to consider invariant metrics", None, None,
                details="already feasible at the documented metric", category="classification",
            )
        else:
            result = hs_metric_search(
                ctx["sc"], restarts=restarts, budget=budget, seed=cfg.seed, cfg=cfg
            )
            rep.add(
                "hs_search", "it suffices to consider invariant metrics",
                result.found, result.best_residual,
                details=f"{result.evals} objective evaluations", category="classification",
            )
            rep.extras["hs_search"] = {
                "found": result.found,
                "best_residual": result.best_residual,
                "evals": result.evals,
                "g": result.best_g,
                "S": result.S,
            }
            if result.found:
                rep.verdict += "; a different invariant metric admits one"
    return rep


def run_verify_claims(doc: AlgebraDocument, *, cfg: Config | None = None) -> AnalysisReport:
    """The identity tables C1..C7 and D1..D8 plus the structural claims;
    unavailable preconditions surface as failed records, not exceptions."""
    cfg = _cfg(cfg)
    rep, ctx = _pipeline(doc, cfg, "verify-claims")
    dec = ctx.get("dec")
    if dec is None:
        rep.add(
            "claims", "plumbing", False, None,
            details="needs a 2-step solvable instance with an admissible frame",
            category="classification",
        )
        return rep
    sol = ctx["hs_adm"]
    if not sol.feasible:
        rep.add(
            "claims", "plumbing", False, sol.normalized,
            details="no closed completion at this metric", category="classification",
        )
        return rep
    try:
        rec = claims_pipeline(dec, ctx["sc_adm"], sol.S, cfg=cfg)
    except ClaimViolation as e:
        _claim_records(rep, e)
        return rep
    except StructureError as e:
        rep.add("claims", "plumbing", False, None, details=str(e), category="classification")
        return rep
    _claim_records(rep, rec)
    rep.extras["claims"] = {
        "lam": rec.lam,
        "xi": rec.xi,
        "p": rec.p,
        "rotation": rec.rotation,
        "p_residual": rec.p_residual,
        "t_ratio": rec.t_ratio,
        "t_independent": rec.t_independent,
    }
    return rep


def run_kahlerize(doc: AlgebraDocument, *, cfg: Config | None = None) -> AnalysisReport:
    """The constructive closed-positive completion, gated the way the
    underlying statement is: 2-step solvable, the compact-quotient
    restriction, and a closed completion at the block metric."""
    return _construct(doc, cfg, "kahlerize")
