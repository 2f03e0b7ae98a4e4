"""Metamorphic tests: rescaling every structure constant by t gives an
isomorphic algebra, so no outcome of a command may depend on t.

Each catalog document is run at the scales in ``SCALES``; exit code,
verdict, classes, ``hs.feasible`` and ``extras.hs_search.found`` must
equal those at t = 1, and the certificate must report its data in the
document's own units.
"""

import dataclasses
import json

import numpy as np
import pytest

from hskahler.cli import run_command

from conftest import catalog_doc

CATALOG = ["torus", "kodaira_thurston", "aff_complex", "iwasawa", "family_r1n2", "family_r2n5"]
SCALES = [1e-8, 1e-5, 1e-2, 1.0, 1e2, 1e4]
COMMANDS = [("analyze",), ("hs",), ("hs", "--search"), ("kahlerize",), ("verify-claims",)]
# the nilpotent and the non-unimodular controls admit no HS metric at any scale
NO_HS = ["kodaira_thurston", "aff_complex", "iwasawa"]


def _scaled(name, t, root):
    doc = catalog_doc(name)
    if doc.mode == "real":
        doc = dataclasses.replace(doc, f=t * doc.f)
    else:
        doc = dataclasses.replace(doc, C=t * doc.C, D=t * doc.D)
    path = root / f"{name}_{t:g}.json"
    doc.save(path)
    return str(path)


def _run(capsys, argv, path):
    code = run_command([argv[0], path, *argv[1:], "--json-only"])
    return code, json.loads(capsys.readouterr().out)


def _outcome(code, rep):
    return {
        "exit": code,
        "verdict": rep["verdict"],
        "classes": rep["classes"],
        "hs_feasible": rep["hs"].get("feasible"),
        "search_found": rep["extras"].get("hs_search", {}).get("found"),
    }


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
@pytest.mark.parametrize("name", CATALOG)
def test_outcomes_do_not_depend_on_the_scale(name, argv, capsys, tmp_path):
    want = _outcome(*_run(capsys, argv, _scaled(name, 1.0, tmp_path)))
    for t in SCALES:
        code, rep = _run(capsys, argv, _scaled(name, t, tmp_path))
        assert _outcome(code, rep) == want, t


@pytest.mark.parametrize("name", NO_HS)
def test_no_closed_completion_at_a_tiny_scale(name, capsys, tmp_path):
    code, rep = _run(capsys, ["hs"], _scaled(name, 1e-8, tmp_path))
    assert code == 1 and rep["hs"]["feasible"] is False


@pytest.mark.parametrize("name", NO_HS)
def test_the_metric_search_finds_nothing_at_a_small_scale(name, capsys, tmp_path):
    code, rep = _run(capsys, ["hs", "--search"], _scaled(name, 1e-5, tmp_path))
    assert code == 1 and rep["extras"]["hs_search"]["found"] is False


@pytest.mark.parametrize("name", ["family_r1n2", "family_r2n5"])
def test_the_certificate_is_reported_in_the_documents_units(name, capsys, tmp_path):
    """lam scales with the constants and p against them, while xi and
    the metric do not move; profile.scale is the gauge."""
    _, base = _run(capsys, ["kahlerize"], _scaled(name, 1.0, tmp_path))
    for t in (1e-5, 1e4):
        _, rep = _run(capsys, ["kahlerize"], _scaled(name, t, tmp_path))
        assert rep["profile"]["scale"] == pytest.approx(t * base["profile"]["scale"], rel=1e-14)
        for key, power in (("lam", 1), ("p", -1), ("xi", 0), ("metric", 0)):
            got = np.asarray(rep["extras"]["certificate"][key])
            want = t**power * np.asarray(base["extras"]["certificate"][key])
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want))), (t, key)
