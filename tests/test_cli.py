"""Command-line behavior: verdicts, exit codes, files, determinism."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hskahler.cli import run_command
from hskahler.documents import AlgebraDocument
from hskahler.kahler import generate_family

from conftest import catalog_doc


def _run(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr().out
    return code, out


def _run_json(capsys, *argv):
    code = run_command([*argv, "--json-only"])
    out = capsys.readouterr().out
    rep = json.loads(out)
    for one in rep.get("reports", [rep]):
        _assert_implications(one)
    return code, rep


def _assert_implications(rep):
    """Kähler => HS => pluriclosed, and Kähler => balanced."""
    c = rep.get("classes")
    if c:
        assert not c["kahler"] or (c["hermitian_symplectic"] and c["balanced"]), c
        assert not c["hermitian_symplectic"] or c["pluriclosed"], c


def _record(report, check_id):
    hits = [r for r in report["records"] if r["check_id"] == check_id]
    assert hits, f"no record {check_id!r} in {[r['check_id'] for r in report['records']]}"
    return hits[0]


# ----------------------------------------------------------------- analyze


def test_analyze_torus_is_kahler(capsys):
    code, rep = _run_json(capsys, "analyze", "torus")
    assert code == 0
    assert rep["verdict"] == "Kähler"
    assert rep["classes"] == {
        "kahler": True, "pluriclosed": True, "balanced": True, "hermitian_symplectic": True,
    }
    assert np.max(np.abs(np.array(rep["hs"]["S"]))) == 0.0


def test_analyze_kodaira_thurston_classifies_without_failing(capsys):
    code, rep = _run_json(capsys, "analyze", "kodaira_thurston")
    assert code == 0  # classification outcomes never flip analyze's exit
    assert rep["verdict"] == "pluriclosed, not HS-compatible (restriction2 fails)"
    assert rep["profile"]["admissible"] == {"r": 0, "s": 1, "n": 2, "type": "I"}
    hs = _record(rep, "hs_feasible")
    assert hs["status"] == "fail" and hs["category"] == "classification"
    assert hs["residual"] == pytest.approx(np.sqrt(0.5), abs=1e-9)
    r2 = _record(rep, "restriction2")
    assert r2["status"] == "fail"
    assert r2["paper_ref"] == "the structure constants satisfy"


def test_analyze_affine_contrast_case(capsys):
    code, rep = _run_json(capsys, "analyze", "aff_complex")
    assert code == 0
    assert rep["verdict"] == "non-pluriclosed, not HS-compatible"
    assert _record(rep, "unimodularity")["status"] == "fail"


def test_analyze_family_constructs_the_completion(capsys):
    code, rep = _run_json(capsys, "analyze", "family_r2n5")
    assert code == 0
    assert rep["verdict"].endswith("; Kähler metric constructed")
    assert rep["verdict"].startswith("pluriclosed")
    cert = rep["extras"]["certificate"]
    assert cert["residuals"]["d_omega_tilde"] <= 1e-10
    assert cert["positive"] is True


def test_analyze_reports_catalog_names_with_suffix(capsys):
    code, rep = _run_json(capsys, "analyze", "torus.json")
    assert code == 0 and rep["name"] == "torus"


def test_analyze_missing_file_is_a_usage_error(capsys):
    code = run_command(["analyze", "definitely_not_there.json"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


@pytest.mark.parametrize("command", ["analyze", "hs", "kahlerize", "verify-claims"])
def test_a_non_finite_constant_is_a_usage_error(capsys, tmp_path, command):
    """The report of such a document would carry NaN residuals, which
    is not JSON."""
    doc = tmp_path / "nan.json"
    doc.write_text('{"schema_version": 1, "name": "nan", "mode": "complex", "n": 2,'
                   ' "C": [[2, 1, 2, NaN]], "D": []}')
    code = run_command([command, str(doc), "--json-only"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "C[0]: value nan is not a finite real number" in captured.err


def test_failing_attached_S_has_its_own_verdict(capsys, tmp_path):
    fam = generate_family(1, 3, seed=3)
    shifted = tmp_path / "shifted.json"
    AlgebraDocument.from_complex("shifted", fam.sc.C, fam.sc.D, g=fam.g, S=fam.S + 0.3).save(shifted)
    for command in ("analyze", "kahlerize", "verify-claims"):
        code, rep = _run_json(capsys, command, str(shifted))
        assert code == 1
        assert rep["verdict"] == "the document's S is not a closed completion"
        failed = [r["check_id"] for r in rep["records"]
                  if r["status"] == "fail" and r["category"] == "consistency"]
        assert failed == ["attached_S"]
    # broken constants still name the algebra, whatever the attached S
    D = fam.sc.D.copy()
    D[2, 0, 1] += 0.5
    broken = tmp_path / "broken.json"
    AlgebraDocument.from_complex("broken", fam.sc.C, D, g=fam.g, S=fam.S + 0.3).save(broken)
    code, rep = _run_json(capsys, "analyze", str(broken))
    assert code == 1
    assert _record(rep, "bianchi_families")["status"] == "fail"
    assert rep["verdict"] == "structure constants do not define a Lie algebra"


# ---------------------------------------------------------------------- hs


def test_hs_torus_feasible_at_zero(capsys):
    code, rep = _run_json(capsys, "hs", "torus")
    assert code == 0
    assert rep["hs"]["feasible"] is True
    assert np.max(np.abs(np.array(rep["hs"]["S"]))) == 0.0
    assert rep["verdict"] == "closed completion exists at this metric"


def test_hs_kodaira_thurston_fails_with_pinned_residual(capsys):
    code, rep = _run_json(capsys, "hs", "kodaira_thurston")
    assert code == 1
    assert rep["hs"]["feasible"] is False
    assert rep["hs"]["normalized_residual"] == pytest.approx(np.sqrt(0.5), abs=1e-9)
    assert rep["verdict"] == "no closed completion at this metric"


def test_hs_search_reports_an_honest_miss(capsys):
    code, rep = _run_json(
        capsys, "hs", "kodaira_thurston", "--search", "--restarts", "3", "--budget", "150"
    )
    assert code == 1
    search = rep["extras"]["hs_search"]
    assert search["found"] is False
    assert search["best_residual"] > 1e-8
    assert _record(rep, "hs_search")["status"] == "fail"


def test_hs_search_is_skipped_when_already_feasible(capsys):
    code, rep = _run_json(capsys, "hs", "family_r1n2", "--search")
    assert code == 0
    assert _record(rep, "hs_search")["status"] == "not-applicable"


def test_flags_do_not_leak_between_calls(capsys):
    """The parser is built once and shared by every call, so a flag
    given to one call must not reach the next."""
    code, rep = _run_json(capsys, "hs", "kodaira_thurston", "--search")
    assert code == 1 and _record(rep, "hs_search")["status"] == "fail"
    code, rep = _run_json(capsys, "hs", "kodaira_thurston")
    assert code == 1
    assert "hs_search" not in {r["check_id"] for r in rep["records"]}


def test_iwasawa_is_balanced_and_admits_no_hs_structure(capsys):
    """Nilpotent and non-abelian: no HS metric at all (Enrietti-Fino-Vezzoni)."""
    code, rep = _run_json(capsys, "analyze", "iwasawa")
    assert code == 0
    assert rep["verdict"] == "balanced, not HS-compatible"
    assert rep["classes"] == {
        "kahler": False, "pluriclosed": False, "balanced": True, "hermitian_symplectic": False,
    }
    code, rep = _run_json(capsys, "hs", "iwasawa", "--search")
    assert code == 1
    assert rep["extras"]["hs_search"]["found"] is False


# --------------------------------------------------------------- kahlerize


def test_kahlerize_family_matches_its_metadata(capsys):
    code, rep = _run_json(capsys, "kahlerize", "family_r1n2")
    assert code == 0
    assert rep["verdict"].endswith("; Kähler metric constructed")
    cert = rep["extras"]["certificate"]
    doc_meta = json.loads(
        subprocess.run(
            [sys.executable, "-c",
             "from importlib import resources;"
             "print(resources.files('hskahler').joinpath('catalog/family_r1n2.json').read_text())"],
            capture_output=True, text=True, check=True,
        ).stdout
    )["metadata"]
    assert np.array(cert["p"]) == pytest.approx(np.array(doc_meta["p"]), abs=1e-12)
    assert np.array(cert["lam"]) == pytest.approx(np.array(doc_meta["lambda"]), abs=1e-12)
    assert cert["residuals"]["d_omega_tilde"] <= 1e-10


def test_kahlerize_kodaira_thurston_names_the_obstruction(capsys):
    code, rep = _run_json(capsys, "kahlerize", "kodaira_thurston")
    assert code == 1
    gate = _record(rep, "kahlerize")
    assert gate["status"] == "fail" and gate["category"] == "construction"
    assert "restriction2" in gate["details"]
    assert _record(rep, "restriction2")["category"] == "construction"


def test_kahlerize_torus_is_already_kahler(capsys):
    code, rep = _run_json(capsys, "kahlerize", "torus")
    assert code == 0
    assert rep["verdict"].startswith("Kähler")


def test_kahlerize_agrees_with_analyze_on_dependent_tuples(capsys, tmp_path):
    """Model-family data at r = 2, n = 3: the two eigenvalue tuples lie
    in C^1, so they are dependent.  t-independence is a classification
    there, not a gate: both commands construct the metric, and the
    certificate recovers the generating data."""
    lam_file, p_file, doc = tmp_path / "lam.json", tmp_path / "p.json", tmp_path / "dep.json"
    lam_file.write_text(json.dumps([[[1.0, 0.5], [-0.3, 1.2]]]))
    p_file.write_text(json.dumps([[0.4, -0.2], [0.7, 0.1]]))
    code, gen = _run_json(
        capsys, "generate", "--r", "2", "--n", "3",
        "--lambda", str(lam_file), "--p", str(p_file), "-o", str(doc),
    )
    assert code == 0
    params = gen["extras"]["parameters"]
    for command in ("analyze", "kahlerize"):
        code, rep = _run_json(capsys, command, str(doc))
        assert code == 0, command
        assert rep["verdict"].endswith("; Kähler metric constructed")
        t_rec = _record(rep, "t_independence")
        assert t_rec["status"] == "fail" and t_rec["category"] == "classification"
    cert = rep["extras"]["certificate"]
    for key, want in (("lam", params["lambda"]), ("p", params["p"])):
        assert np.array(cert[key]) == pytest.approx(np.array(want), abs=1e-10), key


# ------------------------------------------------------------ verify-claims


def test_verify_claims_on_a_family_instance(capsys):
    code, rep = _run_json(capsys, "verify-claims", "family_r2n5")
    assert code == 0
    built = [r for r in rep["records"] if r["category"] == "construction"]
    assert built and all(r["status"] == "pass" for r in built)
    ids = {r["check_id"] for r in built}
    assert {"block_C1", "block_C7", "block_D1", "block_D8", "claim_Z"} <= ids
    assert rep["extras"]["claims"]["t_independent"] is True


def test_verify_claims_needs_a_completion(capsys):
    code, rep = _run_json(capsys, "verify-claims", "kodaira_thurston")
    assert code == 1
    gate = _record(rep, "claims")
    assert gate["status"] == "fail"
    assert "no closed completion" in gate["details"]
    # one decision, at the documented metric, carried into the admissible frame
    assert gate["residual"] == _record(rep, "hs_feasible")["residual"]


# ----------------------------------------------------------------- the gate


@pytest.fixture(scope="module")
def edge_docs(tmp_path_factory):
    """Documents at the edges of the stage chain: failed input checks,
    two scales 1e8 apart in one algebra, one that is not solvable, and
    positive definite metrics of condition number 1e17, whose Cholesky
    factor fails the conditioning test."""
    root = tmp_path_factory.mktemp("edge")
    fam = generate_family(1, 3, seed=3)
    fam2 = generate_family(1, 2, seed=3)
    D = fam.sc.D.copy()
    D[2, 0, 1] += 0.5
    iwasawa = np.zeros((3, 3, 3), dtype=complex)  # C^3_12 = -1
    iwasawa[2, 0, 1], iwasawa[2, 1, 0] = -1.0, 1.0
    docs = {
        "bad_metric": (fam.sc.C, fam.sc.D, -np.eye(3), None),
        "bianchi_violator": (fam.sc.C, D, fam.g, None),
        "shifted_S": (fam.sc.C, fam.sc.D, fam.g, fam.S + 0.3),
        "iwasawa_1e-5": (1e-5 * iwasawa, np.zeros_like(iwasawa), None, None),
        "iwasawa_1e-8": (1e-8 * iwasawa, np.zeros_like(iwasawa), None, None),
        "iwasawa_plus_1e-8": (_direct_sum(iwasawa, 1e-8 * iwasawa), np.zeros((6, 6, 6)), None, None),
        "metric_1e-17": (fam2.sc.C, fam2.sc.D, np.diag([1.0, 1e-17]), None),
    }
    paths = {}
    for name, (C, D, g, S) in docs.items():
        paths[name] = str(root / f"{name}.json")
        AlgebraDocument.from_complex(name, C, D, g=g, S=S).save(paths[name])
    # u(2) = su(2) + R with the Hopf structure: solvable it is not
    f = np.zeros((4, 4, 4))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        f[k, i, j], f[k, j, i] = 1.0, -1.0
    J = np.zeros((4, 4))
    J[1, 0], J[0, 1], J[3, 2], J[2, 3] = 1.0, -1.0, 1.0, -1.0
    paths["u2"] = str(root / "u2.json")
    AlgebraDocument.from_real("u2", f, J, np.eye(4)).save(paths["u2"])
    paths["real_metric_1e-17"] = str(root / "real_metric_1e-17.json")
    AlgebraDocument.from_real("real_metric_1e-17", f, J, np.diag([1.0, 1.0, 1e-17, 1e-17])).save(
        paths["real_metric_1e-17"])
    J[0, 1] = -2.0  # J^2 != -Identity
    paths["bad_J"] = str(root / "bad_J.json")
    AlgebraDocument.from_real("bad_J", f, J, np.eye(4)).save(paths["bad_J"])
    return paths


def _direct_sum(A, B):
    """Constants of the direct sum of two algebras, A's frame first."""
    n, m = A.shape[0], B.shape[0]
    out = np.zeros((n + m,) * 3, dtype=complex)
    out[:n, :n, :n], out[n:, n:, n:] = A, B
    return out


def _failed_consistency(rep):
    return [r["check_id"] for r in rep["records"]
            if r["status"] == "fail" and r["category"] == "consistency"]


def test_no_stage_runs_after_a_failed_consistency_record(capsys, edge_docs):
    """Iwasawa plus Iwasawa scaled by 1e-8: the rank cuts of the one gauge
    read the small summand as abelian, so restriction1 fails.  Neither the
    closed completion at the block metric nor the construction runs."""
    unrun = ("t_independence", "kahlerize_closed", "kahlerize_positive", "block_D1")
    # kahlerize and verify-claims name what did not run, once, at the end
    for command, named in (("analyze", None), ("kahlerize", "kahlerize"),
                           ("verify-claims", "claims")):
        code, rep = _run_json(capsys, command, edge_docs["iwasawa_plus_1e-8"])
        assert code == 1, command
        assert _failed_consistency(rep) == ["restriction1"], command
        assert "Kähler metric constructed" not in rep["verdict"], command
        ids = [r["check_id"] for r in rep["records"]]
        assert not [i for i in ids if i.startswith("claim_") or i in unrun], command
        assert "certificate" not in rep["extras"] and "claims" not in rep["extras"]
        if named:
            assert ids.count(named) == 1 and ids[-1] == named, command
            last = rep["records"][-1]
            assert last["status"] == "fail" and last["category"] == "construction"
            assert last["details"] == "input fails consistency checks"


def test_a_scaled_algebra_gets_the_verdict_of_the_unscaled_one(capsys, edge_docs):
    for command in ("analyze", "kahlerize", "verify-claims"):
        want = _run_json(capsys, command, "iwasawa")
        code, rep = _run_json(capsys, command, edge_docs["iwasawa_1e-8"])
        assert (code, rep["verdict"]) == (want[0], want[1]["verdict"]), command
        assert not _failed_consistency(rep), command


@pytest.mark.parametrize("name, why", [
    ("bad_metric", "input fails consistency checks"),
    ("metric_1e-17", "input fails consistency checks"),
    ("real_metric_1e-17", "input fails consistency checks"),
    ("bianchi_violator", "input fails consistency checks"),
    ("bad_J", "input fails consistency checks"),
    ("u2", "not 2-step solvable"),
])
def test_kahlerize_and_verify_claims_name_the_same_reason(capsys, edge_docs, name, why):
    for command, cid in (("kahlerize", "kahlerize"), ("verify-claims", "claims")):
        code, rep = _run_json(capsys, command, edge_docs[name])
        assert code == 1
        gate = _record(rep, cid)
        assert gate["status"] == "fail" and gate["details"] == why, command


NEAR_SINGULAR = ["metric_1e-17", "real_metric_1e-17"]


@pytest.mark.parametrize("name", NEAR_SINGULAR)
def test_a_numerically_singular_metric_fails_its_record_in_every_command(capsys, edge_docs, name):
    """Positive definite, but its Cholesky factor fails the conditioning
    test: every command reports one failing consistency record, with no
    later stage, instead of aborting on the change of frame."""
    for argv in (["analyze"], ["hs"], ["hs", "--search"], ["kahlerize"], ["verify-claims"]):
        code, rep = _run_json(capsys, argv[0], edge_docs[name], *argv[1:])
        assert code == 1, argv
        assert _failed_consistency(rep) == ["metric_positive"], argv
        assert "numerically singular" in _record(rep, "metric_positive")["details"], argv
        assert rep["verdict"] == "input is not a consistent Hermitian instance", argv
        assert not rep["classes"] and not rep["hs"], argv


@pytest.mark.parametrize("name", NEAR_SINGULAR)
def test_batch_keeps_its_report_beside_a_numerically_singular_metric(capsys, tmp_path, edge_docs, name):
    _copy_catalog(tmp_path, ["torus"])
    (tmp_path / f"{name}.json").write_bytes(Path(edge_docs[name]).read_bytes())
    code, rep = _run_json(capsys, "batch", str(tmp_path))
    assert code == 1
    assert {row["name"]: row["status"] for row in rep["summary"]} == {name: "FAIL", "torus": "ok"}
    assert [r["name"] for r in rep["reports"]] == [name, "torus"]


@pytest.mark.parametrize("eps", [1e-5, 1e-7])
def test_the_canonical_frame_passes_over_a_nearly_dependent_candidate(capsys, tmp_path, eps):
    """Kodaira-Thurston in a basis of condition number below 10 whose
    second vector is J of the first plus eps: the frame skips that
    candidate instead of carrying a condition number of about 1/eps
    into every record, and the verdict is the document's own."""
    doc = catalog_doc("kodaira_thurston")
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal(4), rng.standard_normal(4)
    P = np.column_stack([x, doc.J @ x + eps * y, *rng.standard_normal((2, 4))])
    Pinv = np.linalg.inv(P)
    f = np.einsum("cz,zxy,xa,yb->cab", Pinv, doc.f, P, P)
    path = tmp_path / "kt.json"
    AlgebraDocument.from_real("kt", f, Pinv @ doc.J @ P, P.T @ doc.G @ P).save(path)
    want = _run_json(capsys, "analyze", "kodaira_thurston")
    code, rep = _run_json(capsys, "analyze", str(path))
    assert (code, rep["verdict"], rep["classes"]) == (want[0], want[1]["verdict"], want[1]["classes"])
    assert rep["profile"]["derived_dims"] == want[1]["profile"]["derived_dims"]


def test_a_J_that_does_not_square_to_minus_one_fails_the_input_checks(capsys, edge_docs):
    code, rep = _run_json(capsys, "analyze", edge_docs["bad_J"])
    assert code == 1
    assert "complex_structure" in _failed_consistency(rep)
    assert rep["verdict"] == "input is not a consistent Hermitian instance"


def test_constructed_only_where_the_report_allows_it(capsys, edge_docs):
    """A verdict that says "constructed" has no failed consistency record,
    and under kahlerize it exits 0, on every command and document."""
    from importlib import resources

    catalog = sorted(p.name for p in resources.files("hskahler").joinpath("catalog").iterdir())
    constructed = 0
    for doc in [*catalog, *edge_docs.values()]:
        for argv in (["analyze"], ["hs"], ["hs", "--search"], ["kahlerize"], ["verify-claims"]):
            code, rep = _run_json(capsys, argv[0], doc, *argv[1:])
            if "constructed" in rep["verdict"]:
                constructed += 1
                assert not _failed_consistency(rep), (argv, doc)
                assert argv[0] != "kahlerize" or code == 0, doc
    assert constructed >= 4  # the family documents, under analyze and kahlerize


# ----------------------------------------------------------------- generate


def test_generate_round_trips_through_analyze(capsys, tmp_path):
    out = tmp_path / "fresh.json"
    code, rep = _run_json(capsys, "generate", "--r", "1", "--n", "3", "--seed", "5", "-o", str(out))
    assert code == 0
    assert rep["command"] == "generate"
    assert rep["extras"]["parameters"]["seed"] == 5
    # -o named the document; the report stayed on stdout
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1 and doc["mode"] == "complex"
    code, rep = _run_json(capsys, "analyze", str(out))
    assert code == 0
    assert rep["verdict"].endswith("; Kähler metric constructed")


def test_generate_with_explicit_data(capsys, tmp_path):
    lam_file = tmp_path / "lam.json"
    p_file = tmp_path / "p.json"
    lam_file.write_text(json.dumps([[[1.0, 0.0]], [[0.5, -0.5]]]))
    p_file.write_text(json.dumps([[0.2, 0.1]]))
    out = tmp_path / "custom.json"
    code, rep = _run_json(
        capsys, "generate", "--r", "1", "--n", "3",
        "--lambda", str(lam_file), "--p", str(p_file), "-o", str(out),
    )
    assert code == 0
    params = rep["extras"]["parameters"]
    assert params["p"] == [[0.2, 0.1]]
    assert "seed" not in params
    code, rep = _run_json(capsys, "kahlerize", str(out))
    assert code == 0
    assert np.array(rep["extras"]["certificate"]["p"]) == pytest.approx(
        np.array([[0.2, 0.1]]), abs=1e-10
    )


@pytest.mark.parametrize("r,n,lam,p,want", [
    # two numbers per row fill a 2 x 2 real matrix at r = 2 ...
    (2, 4, [[1, 2], [2, 4]], [0.5, 0.25], [[[1.0, 0.0], [2.0, 0.0]], [[2.0, 0.0], [4.0, 0.0]]]),
    # ... and a column of [re, im] pairs at r = 1
    (1, 3, [[1, 2], [3, 4]], [[0.5, 0.25]], [[[1.0, 2.0]], [[3.0, 4.0]]]),
])
def test_generate_lambda_shape_decides_pairs(capsys, tmp_path, r, n, lam, p, want):
    lam_file, p_file = tmp_path / "lam.json", tmp_path / "p.json"
    lam_file.write_text(json.dumps(lam))
    p_file.write_text(json.dumps(p))
    code, rep = _run_json(
        capsys, "generate", "--r", str(r), "--n", str(n),
        "--lambda", str(lam_file), "--p", str(p_file), "-o", str(tmp_path / "x.json"),
    )
    assert code == 0
    assert rep["extras"]["parameters"]["lambda"] == want


@pytest.mark.parametrize("lam", ["[[1, 2, 3], 4]", "[[1, 2, 3], [4, 5]]", "[[1, 2], [3, \"x\"]]"])
def test_generate_rejects_malformed_lambda(capsys, tmp_path, lam):
    lam_file, p_file = tmp_path / "lam.json", tmp_path / "p.json"
    lam_file.write_text(lam)
    p_file.write_text("[1]")
    code = run_command([
        "generate", "--r", "1", "--n", "3",
        "--lambda", str(lam_file), "--p", str(p_file), "-o", str(tmp_path / "x.json"),
    ])
    assert code == 2
    assert "--lambda" in capsys.readouterr().err


def test_generate_lambda_without_p_is_a_usage_error(capsys, tmp_path):
    lam_file = tmp_path / "lam.json"
    lam_file.write_text("[[1.0]]")
    code = run_command([
        "generate", "--r", "1", "--n", "2",
        "--lambda", str(lam_file), "-o", str(tmp_path / "x.json"),
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_generate_rejects_bad_dimensions(capsys, tmp_path):
    code = run_command(["generate", "--r", "0", "--n", "3", "-o", str(tmp_path / "x.json")])
    assert code == 2
    code = run_command(["generate", "--r", "3", "--n", "3", "-o", str(tmp_path / "x.json")])
    assert code == 2


# -------------------------------------------------------------------- batch


def _copy_catalog(tmp_path, names):
    from importlib import resources

    for name in names:
        text = resources.files("hskahler").joinpath(f"catalog/{name}.json").read_text()
        (tmp_path / f"{name}.json").write_text(text)


def test_batch_summarizes_a_directory(capsys, tmp_path):
    _copy_catalog(tmp_path, ["torus", "kodaira_thurston", "family_r1n2"])
    code, rep = _run_json(capsys, "batch", str(tmp_path))
    assert code == 0
    assert [row["name"] for row in rep["summary"]] == [
        "family_r1n2", "kodaira_thurston", "torus",
    ]
    assert all(row["status"] == "ok" for row in rep["summary"])
    assert len(rep["reports"]) == 3


def test_batch_flags_load_errors(capsys, tmp_path):
    _copy_catalog(tmp_path, ["torus"])
    (tmp_path / "broken.json").write_text("{nope")
    code, rep = _run_json(capsys, "batch", str(tmp_path))
    assert code == 2
    statuses = {row["name"]: row["status"] for row in rep["summary"]}
    assert statuses["broken"] == "error"
    assert statuses["torus"] == "ok"


def test_batch_flags_mathematical_failures(capsys, tmp_path):
    _copy_catalog(tmp_path, ["torus"])
    bad = {
        "schema_version": 1, "mode": "real", "dim": 4, "name": "broken_jacobi",
        "f": [[3, 1, 2, 1.0], [1, 1, 3, 1.0]],
        "J": [[0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, -1.0],
              [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]],
        "G": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
              [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
    }
    (tmp_path / "bad.json").write_text(json.dumps(bad))
    code, rep = _run_json(capsys, "batch", str(tmp_path))
    assert code == 1
    statuses = {row["name"]: row["status"] for row in rep["summary"]}
    assert statuses["bad"] == "FAIL"
    assert statuses["torus"] == "ok"


def test_batch_requires_documents(capsys, tmp_path):
    assert run_command(["batch", str(tmp_path)]) == 2
    capsys.readouterr()


# ------------------------------------------------------------ config + misc


def test_config_file_overrides_and_flag_precedence(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol_feas": 0.8}))
    # 0.8 makes the infeasible instance look feasible
    code, rep = _run_json(capsys, "hs", "kodaira_thurston", "--config", str(cfg))
    assert code == 0 and rep["hs"]["feasible"] is True
    # an explicit flag beats the file
    code, rep = _run_json(
        capsys, "hs", "kodaira_thurston", "--config", str(cfg), "--tol-feas", "1e-8"
    )
    assert code == 1 and rep["hs"]["feasible"] is False


def test_config_file_validation(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"tol_nonsense": 1.0}))
    assert run_command(["analyze", "torus", "--config", str(bad)]) == 2
    bad.write_text("[1, 2]")
    assert run_command(["analyze", "torus", "--config", str(bad)]) == 2
    bad.write_text("{broken")
    assert run_command(["analyze", "torus", "--config", str(bad)]) == 2
    bad.write_text(json.dumps({"prune": 1e-14}))  # no longer a setting
    assert run_command(["analyze", "torus", "--config", str(bad)]) == 2
    assert "unknown config keys: prune" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--restarts", "0"), ("--restarts", "-1"), ("--budget", "0"), ("--seed", "-1"), ("--seed", "1.5"),
    ("--jobs", "0"), ("--jobs", "-3"),
])
def test_search_and_seed_flags_are_validated(capsys, tmp_path, flag, value):
    argv = ["batch", str(tmp_path)] if flag == "--jobs" else ["hs", "kodaira_thurston", "--search"]
    code = run_command([*argv, flag, value, "--json-only"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert flag in captured.err


def test_search_report_is_strict_json(capsys):
    """RFC 8259 has no Infinity: a search that ran reports finite numbers."""
    code = run_command(
        ["hs", "kodaira_thurston", "--search", "--restarts", "1", "--budget", "20", "--json-only"]
    )
    assert code == 1
    rep = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
    assert rep["extras"]["hs_search"]["evals"] > 0


@pytest.mark.parametrize("seed", [1.5, -1, True])
def test_config_seed_must_be_a_non_negative_integer(capsys, tmp_path, seed):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": seed}))
    for argv in (["hs", "kodaira_thurston", "--search"],
                 ["generate", "--r", "1", "--n", "3", "-o", str(tmp_path / "x.json")]):
        assert run_command([*argv, "--config", str(cfg), "--json-only"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "seed" in captured.err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("flag", ["--tol-alg", "--tol-feas", "--tol-cert"])
def test_tolerance_flags_must_be_finite_and_positive(capsys, flag):
    # the flat torus has residual exactly 0, so a bad tolerance was the only
    # way "hs torus" could exit 1
    for value in ("-1", "0", "nan", "inf"):
        code = run_command(["hs", "torus", flag, value, "--json-only"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", value
        assert flag in captured.err and "above 0" in captured.err, value


@pytest.mark.parametrize("key", ["tol_alg", "tol_jacobi", "tol_rank", "tol_feas", "tol_cert", "tol_diag"])
def test_config_tolerances_must_be_finite_and_positive(capsys, tmp_path, key):
    cfg = tmp_path / "cfg.json"
    for value in (-1, 0, float("nan"), float("inf")):
        cfg.write_text(json.dumps({key: value}))
        assert run_command(["analyze", "torus", "--config", str(cfg), "--json-only"]) == 2, value
        captured = capsys.readouterr()
        assert captured.out == "" and key in captured.err, value


def test_report_file_output(capsys, tmp_path):
    dest = tmp_path / "report.json"
    code, out = _run(capsys, "analyze", "torus", "-o", str(dest))
    assert code == 0
    rep = json.loads(dest.read_text())
    assert rep["verdict"] == "Kähler"
    assert "verdict: Kähler" in out  # text stays on stdout
    assert not out.lstrip().startswith("{")


def test_text_report_has_no_ansi_when_piped(capsys):
    code, out = _run(capsys, "analyze", "kodaira_thurston")
    assert code == 0
    assert "\x1b[" not in out
    assert "FAIL" in out and "PASS" in out


def test_version_and_usage_errors(capsys):
    assert run_command(["--version"]) == 0
    assert "hskahler" in capsys.readouterr().out
    assert run_command([]) == 2
    assert run_command(["no-such-command"]) == 2
    capsys.readouterr()


def test_json_reports_are_byte_identical_across_runs():
    cmd = [sys.executable, "-m", "hskahler.cli", "analyze", "family_r2n5", "--json-only"]
    first = subprocess.run(cmd, capture_output=True, check=True).stdout
    second = subprocess.run(cmd, capture_output=True, check=True).stdout
    assert first == second
    cmd = [sys.executable, "-m", "hskahler.cli", "hs", "kodaira_thurston",
           "--search", "--restarts", "2", "--budget", "80", "--json-only"]
    runs = [subprocess.run(cmd, capture_output=True).stdout for _ in range(2)]
    assert runs[0] == runs[1]
