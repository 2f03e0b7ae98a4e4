"""Every function the benchmark's tracer rebinds must still exist.

``bench/run.py --trace 1`` wraps each ``TARGETS`` entry of
``bench/spans.py`` by name, so a rename or deletion in the package
breaks the traced benchmark; this test catches it in the unit suite.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import numpy as np

from hskahler import AlgebraDocument, change_frame, generate_family
from hskahler.cli import run_command

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    if "bench_spans" not in sys.modules:
        spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules["bench_spans"]


@pytest.mark.parametrize("name, target", sorted(load_spans().TARGETS.items()))
def test_trace_target_resolves_to_a_callable(name, target):
    module, path = target
    owner = importlib.import_module(module)
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner), name


def test_tracer_sees_the_entry_points(capsys):
    """The CLI must look its entry points up when it calls them: a
    function captured earlier (say in a dispatch dict) escapes the
    tracer, and ``analysis.pipeline.ms`` then reads 0 without an error."""
    ops = (
        (["analyze", "family_r2n5"], "analysis.run_analysis"),
        (["hs", "kodaira_thurston", "--search"], "analysis.run_hs"),
        (["kahlerize", "family_r1n2"], "analysis.run_kahlerize"),
    )
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        for op_id, (argv, _) in enumerate(ops):
            tracer.begin_op(op_id)
            run_command([*argv, "--json-only"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for op_id, (argv, entry) in enumerate(ops):
        names = {s.name for s in tracer.spans if s.op_id == op_id}
        assert {entry, "metrics.hs_decide"} <= names, argv


def test_the_certificate_does_not_use_the_form_engine(capsys, tmp_path):
    """The Kahler certificate is one Hermitian matrix checked in closed
    form; no InvariantForm method may run inside ``kahlerize``."""
    fam = generate_family(2, 5, seed=5)
    A = np.eye(5) + 0.3 * np.random.default_rng(5).standard_normal((5, 5))
    Ainv = np.linalg.inv(A)
    moved = change_frame(fam.sc, A)
    doc = tmp_path / "reframed.json"
    AlgebraDocument.from_complex("reframed", moved.C, moved.D, g=Ainv @ fam.g @ Ainv.T).save(doc)
    ops = (["kahlerize", "family_r2n5"], ["analyze", str(doc)])
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        for op_id, argv in enumerate(ops):
            tracer.begin_op(op_id)
            assert run_command([*argv, "--json-only"]) == 0, argv
    finally:
        tracer.uninstall()
    capsys.readouterr()
    by_id = {s.id: s for s in tracer.spans}

    def under_kahlerize(span):
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name == "kahler.kahlerize":
                return True
        return False

    for op_id, argv in enumerate(ops):
        spans = [s for s in tracer.spans if s.op_id == op_id]
        assert "kahler.kahlerize" in {s.name for s in spans}, argv
        engine = [s.name for s in spans if s.name.startswith("forms.InvariantForm.")]
        assert engine, argv  # the tracer does see the engine elsewhere
        assert not [s for s in spans if s.name.startswith("forms.") and under_kahlerize(s)], argv
