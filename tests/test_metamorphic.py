"""Metamorphic tests: transformations that give an isomorphic Hermitian
structure, up to a constant factor of the metric, must not change any
outcome of a command.

Beside the bracket rescaling of ``tests/test_invariance.py``:
- the metric rescaled by t (an attached S scales with it: tS is a
  closed completion of t omega exactly when S is one of omega);
- a seeded change of frame A = U diag(geomspace(1, kappa)) V, carrying g
  to A^-1 g A^-* and S to A^-1 S A^-T (for real documents, a real change
  of basis of the same shape);
- the real/complex round trip, the direct sum with C, and the doubled
  algebra.

Exit code, verdict, classes, ``hs.feasible`` and
``extras.hs_search.found`` must equal those of the document itself.
The module also checks the carry-back of frame data to the document's
frame: ``hs.S``, ``extras.hs_search.g`` and the attached S.
"""

import dataclasses

import numpy as np
import pytest

from hskahler.algebra import (
    StructureConstants, canonical_frame, change_frame, complexify_and_extract, realify,
)
from hskahler.documents import AlgebraDocument
from hskahler.kahler import generate_family
from hskahler.metrics import frame_metric_from_real, hs_residual_of

from conftest import catalog_doc, random_orthogonal, random_unitary
from test_invariance import CATALOG, COMMANDS, _outcome, _run

METRIC_SCALES = [1e-10, 1e-8, 1e-3, 1e3]
KAPPAS = [3.0, 10.0, 100.0]


def _save(doc, root, tag):
    path = root / f"{doc.name}_{tag}.json"
    doc.save(path)
    return str(path)


def _metric_scaled(doc, t):
    if doc.mode == "real":
        return dataclasses.replace(doc, G=t * doc.G)
    g = np.eye(doc.n) if doc.g is None else doc.g
    return dataclasses.replace(doc, g=t * g, S=None if doc.S is None else t * doc.S)


def _reframed(doc, kappa, seed):
    """The document in a frame of condition number kappa."""
    rng = np.random.default_rng(seed)
    if doc.mode == "real":
        P = (random_orthogonal(rng, doc.dim) @ np.diag(np.geomspace(1.0, kappa, doc.dim))
             @ random_orthogonal(rng, doc.dim))
        Pinv = np.linalg.inv(P)
        f = np.einsum("cz,zxy,xa,yb->cab", Pinv, doc.f, P, P)
        return AlgebraDocument.from_real(doc.name, f, Pinv @ doc.J @ P, P.T @ doc.G @ P)
    n = doc.n
    A = random_unitary(rng, n) @ np.diag(np.geomspace(1.0, kappa, n)) @ random_unitary(rng, n)
    Ainv = np.linalg.inv(A)
    sc = change_frame(StructureConstants(doc.C, doc.D, validate=False), A)
    g = np.eye(n) if doc.g is None else doc.g
    S = None if doc.S is None else Ainv @ doc.S @ Ainv.T
    return AlgebraDocument.from_complex(doc.name, sc.C, sc.D, g=Ainv @ g @ Ainv.conj().T, S=S)


def _round_trip(doc):
    """A complex document as a real one, and a real one as a complex one."""
    if doc.mode == "complex":
        alg, J, G, _ = realify(doc.C, doc.D, doc.g)
        return AlgebraDocument.from_real(doc.name, alg.f, J, G)
    alg, J, G = doc.build_real()
    frame = canonical_frame(J)
    sc = complexify_and_extract(alg, J, frame)
    return AlgebraDocument.from_complex(doc.name, sc.C, sc.D, g=frame_metric_from_real(G, frame).g)


def _direct_sum(doc, other):
    """The direct sum of two documents of the same mode, ``doc`` first."""
    def block(a, b):
        out = np.zeros((a.shape[0] + b.shape[0],) * a.ndim, dtype=np.result_type(a, b))
        out[(slice(a.shape[0]),) * a.ndim] = a
        out[(slice(a.shape[0], None),) * a.ndim] = b
        return out

    if doc.mode == "real":
        return AlgebraDocument.from_real(
            doc.name, block(doc.f, other.f), block(doc.J, other.J), block(doc.G, other.G))
    metric = lambda d: np.eye(d.n) if d.g is None else d.g
    S = None
    if doc.S is not None or other.S is not None:
        S = block(*(np.zeros((d.n, d.n)) if d.S is None else d.S for d in (doc, other)))
    return AlgebraDocument.from_complex(
        doc.name, block(doc.C, other.C), block(doc.D, other.D), g=block(metric(doc), metric(other)), S=S)


def _flat(doc):
    """C with its flat metric, in the document's mode."""
    if doc.mode == "real":
        return AlgebraDocument.from_real("flat", np.zeros((2, 2, 2)), [[0.0, -1.0], [1.0, 0.0]], np.eye(2))
    return AlgebraDocument.from_complex("flat", np.zeros((1, 1, 1)), np.zeros((1, 1, 1)))


def _transforms(doc):
    for t in METRIC_SCALES:
        yield f"metric x {t:g}", _metric_scaled(doc, t)
    for k, kappa in enumerate(KAPPAS):
        yield f"frame kappa {kappa:g}", _reframed(doc, kappa, [7, k])
    yield "round trip", _round_trip(doc)
    yield "plus C", _direct_sum(doc, _flat(doc))
    yield "doubled", _direct_sum(doc, doc)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
@pytest.mark.parametrize("name", CATALOG)
def test_outcomes_do_not_depend_on_the_metric_scale_or_the_frame(name, argv, capsys, tmp_path):
    doc = catalog_doc(name)
    want = _outcome(*_run(capsys, argv, _save(doc, tmp_path, "doc")))
    flips = []
    for k, (tag, moved) in enumerate(_transforms(doc)):
        got = _outcome(*_run(capsys, argv, _save(moved, tmp_path, k)))
        if got != want:
            flips.append((tag, got))
    assert flips == [], want


def _residuals(rep):
    return {r["check_id"]: r["residual"] for r in rep["records"]}


def test_the_family_keeps_its_distance_from_the_kahler_and_balanced_classes(capsys, tmp_path):
    """The class residuals are decided in a g-unitary frame, so a badly
    conditioned frame cannot shrink them towards the tolerance."""
    doc = catalog_doc("family_r2n5")
    for k, kappa in enumerate(KAPPAS):
        _, rep = _run(capsys, ["analyze"], _save(_reframed(doc, kappa, [7, k]), tmp_path, k))
        res = _residuals(rep)
        assert res["kahler"] > 0.1 and res["balanced"] > 0.1, (kappa, res["kahler"], res["balanced"])


@pytest.mark.parametrize("t", [1.0, 1e-8])
def test_a_wrong_attached_S_fails_at_every_metric_scale(t, capsys, tmp_path):
    """S + 0.3 W (W skew) is no closed completion of the family's metric,
    nor is t (S + 0.3 W) one of t g."""
    doc = catalog_doc("family_r2n5")
    rng = np.random.default_rng(5)
    W = rng.standard_normal((doc.n, doc.n)) + 1j * rng.standard_normal((doc.n, doc.n))
    wrong = dataclasses.replace(doc, S=doc.S + 0.3 * (W - W.T))
    code, rep = _run(capsys, ["analyze"], _save(_metric_scaled(wrong, t), tmp_path, t))
    rec = next(r for r in rep["records"] if r["check_id"] == "attached_S")
    assert code == 1 and rec["status"] == "fail" and rec["residual"] > 0.1
    assert "Kähler metric constructed" not in rep["verdict"]


# ------------------------------------------------------------- carry-back


def _cx(a):
    a = np.asarray(a, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _dense_family():
    fam = generate_family(2, 5, seed=11)
    return _reframed(AlgebraDocument.from_complex("dense_family", fam.sc.C, fam.sc.D), 10.0, 12)


@pytest.mark.parametrize("make", [_dense_family, lambda: _metric_scaled(catalog_doc("family_r2n5"), 4.0)],
                         ids=["dense frame", "g = 4 I"])
def test_hs_S_is_a_closed_completion_in_the_documents_frame(make, capsys, tmp_path):
    doc = make()
    code, rep = _run(capsys, ["hs"], _save(doc, tmp_path, "hs"))
    assert code == 0 and rep["hs"]["feasible"]
    sc = StructureConstants(doc.C, doc.D, validate=False)
    unit = StructureConstants(doc.C / sc.magnitude(), doc.D / sc.magnitude(), validate=False)
    assert hs_residual_of(unit, doc.g, _cx(rep["hs"]["S"])) <= 1e-12


@pytest.mark.parametrize("make, factor", [(lambda d: _reframed(d, 10.0, [7, 1]), None),
                                          (lambda d: _metric_scaled(d, 4.0), 4.0)],
                         ids=["dense frame", "g = 4 I"])
def test_the_search_metric_is_reported_in_the_documents_frame(make, factor, capsys, tmp_path):
    doc = catalog_doc("iwasawa")
    args = ["hs", "--search", "--restarts", "2", "--budget", "60"]
    code, rep = _run(capsys, args, _save(make(doc), tmp_path, "moved"))
    assert code == 1 and rep["extras"]["hs_search"]["found"] is False
    g = _cx(rep["extras"]["hs_search"]["g"])
    assert np.max(np.abs(g - g.conj().T)) <= 1e-12 * np.max(np.abs(g))
    assert np.linalg.eigvalsh(g)[0] > 0.0
    if factor is not None:
        # g = 4 I has the same unitary frame, and so the same search, as g = I
        _, base = _run(capsys, args, _save(doc, tmp_path, "base"))
        g_base = _cx(base["extras"]["hs_search"]["g"])
        np.testing.assert_allclose(g, factor * g_base, rtol=0, atol=1e-12 * np.max(np.abs(g)))
