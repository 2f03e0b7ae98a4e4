"""One pass per command: the admissible stage reaches its frame by one
change of frame and carries the constants and the closed completion
through it, instead of deriving them a second time.

The deleted route (extract the constants in the admissible frame from
the real bracket, decide the closed completion again at the block
metric) stays here as the oracle.
"""

import json
import sys

import numpy as np
import pytest

from conftest import catalog_doc, random_invertible

import hskahler.algebra
import hskahler.metrics
import hskahler.solvable
from hskahler import AlgebraDocument, change_frame, complexify_and_extract, generate_family, realify
from hskahler.analysis import _CHAIN, AnalysisReport, _Run
from hskahler.cli import run_command
from hskahler.config import Config
from hskahler.metrics import hs_decide, hs_residual_of

CATALOG = ("torus", "kodaira_thurston", "aff_complex", "iwasawa", "family_r1n2", "family_r2n5")


def _reframed(seed: int = 7) -> AlgebraDocument:
    """A family instance after a random change of frame, so its own
    frame is not admissible and the stage builds one."""
    fam = generate_family(2, 5, seed=seed)
    A = random_invertible(np.random.default_rng(seed), 5)
    Ainv = np.linalg.inv(A)
    moved = change_frame(fam.sc, A)
    return AlgebraDocument.from_complex("reframed", moved.C, moved.D, g=Ainv @ fam.g @ Ainv.conj().T)


def _real(r: int, n: int, seed: int) -> tuple[AlgebraDocument, object]:
    """A real-mode document in the generator's own frame, and the family."""
    fam = generate_family(r, n, seed=seed)
    alg, J, G, _ = realify(fam.sc.C, fam.sc.D, fam.g)
    return AlgebraDocument.from_real(f"real_r{r}n{n}", alg.f, J, G), fam


def _chain(doc: AlgebraDocument) -> _Run:
    """The stages every construction command shares, up to the first
    that stops the command."""
    cfg = Config()
    run = _Run(doc, cfg, AnalysisReport(doc.name, doc.mode, "verify-claims", cfg.as_dict()))
    for stage in _CHAIN:
        if stage(run) is not None or not run.rep.consistent():
            break
    return run


def _count_calls(monkeypatch, module, name: str, calls: dict) -> None:
    """Count the calls of module.name under every name a caller in the
    package looks it up by."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    calls[name] = 0
    for key, mod in list(sys.modules.items()):
        if key.startswith("hskahler") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)


@pytest.mark.parametrize("command", ["analyze", "kahlerize", "verify-claims"])
def test_each_command_derives_everything_once(monkeypatch, capsys, tmp_path, command):
    paths = ["family_r2n5"]
    for doc in (_reframed(), _real(2, 5, 12)[0]):
        paths.append(str(tmp_path / f"{doc.name}.json"))
        doc.save(paths[-1])
    calls: dict = {}
    _count_calls(monkeypatch, hskahler.metrics, "_hs_system", calls)
    _count_calls(monkeypatch, hskahler.algebra, "solvable_profile", calls)
    _count_calls(monkeypatch, hskahler.solvable, "_split", calls)
    for path in paths:
        for key in calls:
            calls[key] = 0
        assert run_command([command, path, "--json-only"]) == 0, path
        assert calls == {"_hs_system": 1, "solvable_profile": 1, "_split": 1}, (command, path)
    capsys.readouterr()


@pytest.mark.parametrize("doc", [*CATALOG, "reframed", "real"])
def test_the_carried_completion_matches_the_deleted_route(doc):
    doc = {"reframed": _reframed, "real": lambda: _real(2, 5, 12)[0]}.get(doc, lambda: catalog_doc(doc))()
    run = _chain(doc)
    assert run.dec is not None, run.rep.records
    if doc.name == "reframed":
        assert run.K is not None   # the document's frame is not admissible
    elif doc.name in ("real_r2n5", "family_r2n5"):
        assert run.K is None       # the generator's frame is kept
    dec, sc_adm, sol = run.dec, run.sc_adm, run.hs_adm
    assert hs_decide(sc_adm, dec.metric, cfg=run.cfg).feasible == sol.feasible
    if sol.feasible:
        assert hs_residual_of(sc_adm, dec.metric, sol.S) <= run.cfg.tol_feas
    want = complexify_and_extract(run.alg, run.J, dec.frame)
    scale = max(1.0, want.magnitude())
    assert np.max(np.abs(sc_adm.C - want.C)) <= 1e-12 * scale
    assert np.max(np.abs(sc_adm.D - want.D)) <= 1e-12 * scale


@pytest.mark.parametrize("r, n, seed", [(1, 3, 11), (2, 5, 12), (3, 6, 13)])
def test_real_documents_in_the_generators_frame_return_its_parameters(capsys, tmp_path, r, n, seed):
    """A real document keeps its own frame where that frame is
    admissible, so the certificate reads lam and p in the generator's
    frame instead of in a rebuilt one fixed only up to a unitary change
    inside its blocks."""
    doc, fam = _real(r, n, seed)
    path = tmp_path / "real.json"
    doc.save(path)
    assert run_command(["kahlerize", str(path), "--json-only"]) == 0
    cert = json.loads(capsys.readouterr().out)["extras"]["certificate"]
    lam = np.array(cert["lam"]) @ np.array([1.0, 1.0j])
    p = np.array(cert["p"]) @ np.array([1.0, 1.0j])
    assert np.max(np.abs(lam - fam.lam)) <= 1e-12
    assert np.max(np.abs(p - fam.p)) <= 1e-12
