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

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_targets() -> dict:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("name, target", sorted(load_targets().items()))
def test_trace_target_resolves_to_a_callable(name, target):
    module, path = target
    owner = importlib.import_module(module)
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner), name
