"""Tests of the benchmark itself: generator, output checker and spans.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checker  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from hskahler import change_frame, generate_family  # noqa: E402
from hskahler.cli import run_command  # noqa: E402


def _cli(argv, capsys):
    rc = run_command([str(a) for a in argv])
    return rc, capsys.readouterr().out


@pytest.fixture(scope="module")
def family_sparse(tmp_path_factory):
    return workloads.generate("family-sparse", 5, tmp_path_factory.mktemp("fs"))


# ------------------------------------------------------------- generator


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_fixed_seed(name, tmp_path):
    def files(root):
        return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*.json"))}

    a = files(workloads.generate(name, 7, tmp_path / "a").root)
    b = files(workloads.generate(name, 7, tmp_path / "b").root)
    c = files(workloads.generate(name, 8, tmp_path / "c").root)
    assert a == b
    assert a != c


def test_family_constants_match_the_package_generator():
    rng = np.random.default_rng(3)
    lam, p = workloads.family_data(2, 5, rng)
    fam = generate_family(2, 5, lam, p)
    C, D = workloads.family_constants(lam, p)
    assert np.allclose(fam.lam, lam) and np.allclose(fam.p, p)
    assert np.allclose(C, fam.sc.C, atol=1e-15) and np.allclose(D, fam.sc.D, atol=1e-15)
    f, J = workloads.real_form(C, D)
    assert np.allclose(f, fam.alg.f, atol=1e-13) and np.allclose(J, fam.J)


def test_frame_change_matches_the_package():
    rng = np.random.default_rng(4)
    lam, p = workloads.family_data(1, 3, rng)
    fam = generate_family(1, 3, lam, p)
    A = workloads.random_frame(rng, 3)
    Ct, Dt, g = workloads.transform(fam.sc.C, fam.sc.D, A)
    ref = change_frame(fam.sc, A)
    assert np.allclose(Ct, ref.C, atol=1e-12) and np.allclose(Dt, ref.D, atol=1e-12)
    assert np.allclose(g, g.conj().T) and np.linalg.eigvalsh(g).min() > 0
    assert np.linalg.cond(A) < 3.0 + 1e-9


# --------------------------------------------------------------- checker


def test_correct_reports_pass(family_sparse, capsys):
    w = family_sparse
    doc = w.docs["family_n5_0"]
    for command in ("analyze", "kahlerize", "hs"):
        rc, out = _cli([*run.ARGV[command][:1], w.path(doc.name)], capsys)
        assert checker.check(command, doc, rc, out) is None
    rc, out = _cli(["hs", w.path("iwasawa"), "--search"], capsys)
    assert checker.check("hs_search", w.docs["iwasawa"], rc, out) is None


def test_flipped_class_or_wrong_exit_code_counts_as_failed(family_sparse, capsys):
    w = family_sparse
    doc = w.docs["family_n2_0"]
    rc, out = _cli(["analyze", w.path(doc.name)], capsys)
    text, body = checker.split_report(out)
    body["classes"]["hermitian_symplectic"] = not body["classes"]["hermitian_symplectic"]
    flipped = out[: len(out) - len(text)] + json.dumps(body, indent=2) + "\n"

    session = run.Session(None, w)
    session.results = [("analyze", doc.name, rc, out), ("analyze", doc.name, rc, flipped),
                       ("analyze", doc.name, 1, out), ("analyze", doc.name, rc, out)]
    reasons = session.failures()
    assert len(reasons) == 2
    assert "classes" in reasons[0] and "exit code 1" in reasons[1]


def test_wrong_certificate_and_differing_repeat_count_as_failed(family_sparse, capsys):
    w = family_sparse
    doc = w.docs["family_n2_1"]
    rc, out = _cli(["kahlerize", w.path(doc.name)], capsys)
    text, body = checker.split_report(out)
    body["extras"]["certificate"]["p"][0][0] += 1e-3
    bad = out[: len(out) - len(text)] + json.dumps(body, indent=2) + "\n"
    assert "p differs" in checker.check("kahlerize", doc, rc, bad)

    body["extras"]["certificate"]["p"][0][0] -= 1e-3
    body["verdict"] += " "
    session = run.Session(None, w)
    session.results = [("kahlerize", doc.name, rc, out),
                       ("kahlerize", doc.name, rc, json.dumps(body, indent=2) + "\n")]
    assert session.failures() == [f"kahlerize {doc.name}: JSON report differs from the first "
                                  "run of this operation"]
    session.results = session.results[:1]
    assert session.failures() == [f"kahlerize {doc.name}: ran once, not repeated"]


def test_batch_report_is_checked_per_document(family_sparse, capsys):
    w = family_sparse
    rc, out = _cli(["batch", w.batch_dir, "--jobs", "2"], capsys)
    assert checker.check_batch(w.docs, w.batch, rc, out) is None
    docs = dict(w.docs)
    docs["family_n2_0"] = workloads.Doc("family_n2_0", workloads.IWASAWA)
    assert "family_n2_0" in checker.check_batch(docs, w.batch, rc, out)


# ----------------------------------------------------------------- spans


def _span(sid, name, start, end, parent, op_id=0, thread=1):
    return spans.Span(sid, name, start, end, parent, op_id, thread)


def test_self_time_is_duration_minus_child_coverage():
    tree = [
        _span(0, "cli.run_command", 0.0, 10.0, None),
        _span(1, "algebra.realify", 1.0, 4.0, 0),
        _span(2, "metrics.hs_decide", 3.0, 6.0, 0, thread=2),   # overlaps its sibling
        _span(3, "metrics.chern_torsion", 2.0, 3.0, 1),
        _span(4, "metrics.chern_torsion", 3.5, 9.0, 2),          # runs past its parent
    ]
    assert spans.self_times(tree) == {0: 5.0, 1: 2.0, 2: 0.5, 3: 1.0, 4: 5.5}
    out = spans.summarize(tree, {})
    assert out["algebra.realify.ms"] == 2000.0
    assert out["cli.run_command.ms"] == 5000.0
    assert out["metrics.chern_torsion.calls"] == 2.0


def test_tracer_nests_worker_threads_and_restores_functions():
    import hskahler.analysis
    import hskahler.metrics

    original = hskahler.metrics.hs_decide
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert hskahler.analysis.hs_decide is hskahler.metrics.hs_decide is not original
        tracer.begin_op(0)

        def outer():
            worker = threading.Thread(target=tracer.wrap("metrics.chern_torsion", lambda: None))
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()

        tracer.wrap("cli.run_command", outer)()
    finally:
        tracer.uninstall()
    assert hskahler.analysis.hs_decide is original and hskahler.metrics.hs_decide is original
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["metrics.chern_torsion"].parent == by_name["cli.run_command"].id
    assert by_name["metrics.chern_torsion"].thread != by_name["cli.run_command"].thread


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
