"""Output checks for the timed runs.

A report on stdout is the text part followed by the JSON body; the
body starts at the first line that is exactly ``{``.  Each check
returns ``None`` when the outcome is what the mathematics requires and
a one-line reason otherwise, so a fast wrong answer counts as failed.
"""

from __future__ import annotations

import json

import numpy as np

CERT_TOL = 1e-8  # recovered lam and p against the generating data


def split_report(stdout: str) -> tuple[str, dict]:
    """(JSON text, parsed body) of one report."""
    if stdout.startswith("{\n"):
        at = 0
    else:
        at = stdout.find("\n{\n") + 1
        if at == 0:
            raise ValueError("no JSON body on stdout")
    text = stdout[at:]
    return text, json.loads(text)


def _cx(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _record(body: dict, check_id: str) -> dict:
    return next((r for r in body["records"] if r["check_id"] == check_id), {})


def _certificate(body: dict, doc) -> str | None:
    cert = body["extras"].get("certificate")
    if cert is None:
        return "no certificate"
    if not cert["positive"]:
        return "certificate not positive"
    if _record(body, "kahlerize_closed").get("status") != "pass":
        return "certificate not closed"
    if doc.family is not None:
        for key in ("lam", "p"):
            got, want = _cx(cert[key]), np.asarray(doc.family[key])
            if got.shape != want.shape or np.max(np.abs(got - want)) > CERT_TOL:
                return f"certificate {key} differs from the generating {key}"
    return None


def check(command: str, doc, rc: int, stdout: str) -> str | None:
    """Exit code and outcome of one single-document operation."""
    hs = doc.classes["hermitian_symplectic"]
    want_rc = {"analyze": 0, "kahlerize": 0, "hs": 0 if hs else 1, "hs_search": 1}[command]
    if rc != want_rc:
        return f"exit code {rc}, expected {want_rc}"
    try:
        _, body = split_report(stdout)
    except ValueError as e:
        return str(e)
    if command == "analyze":
        if body["classes"] != doc.classes:
            return f"classes {body['classes']}, expected {doc.classes}"
        if hs and not doc.classes["kahler"]:
            return _certificate(body, doc)
    elif command == "kahlerize":
        return _certificate(body, doc)
    elif command == "hs":
        if body["hs"].get("feasible") is not hs:
            return f"hs feasible {body['hs'].get('feasible')}, expected {hs}"
    else:
        found = body["extras"].get("hs_search", {}).get("found")
        if found is not False:
            return f"hs --search found {found}, expected false"
    return None


def check_batch(docs: dict, names: list, rc: int, stdout: str) -> str | None:
    """A ``batch`` report: every document analyzed, with its expected classes."""
    if rc != 0:
        return f"exit code {rc}, expected 0"
    try:
        _, body = split_report(stdout)
    except ValueError as e:
        return str(e)
    if sorted(r["name"] for r in body["reports"]) != sorted(names):
        return "batch did not report every document"
    for rep in body["reports"]:
        if rep["classes"] != docs[rep["name"]].classes:
            return f"{rep['name']}: classes {rep['classes']}, expected {docs[rep['name']].classes}"
    if any(row["status"] != "ok" for row in body["summary"]):
        return "batch summary has a failed document"
    return None
