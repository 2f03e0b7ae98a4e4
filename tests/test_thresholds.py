"""Every threshold lives in ``Config``: no small float literal decides
anything outside ``config.py``.

The guard tokenizes ``src/hskahler/*.py`` and fails on any nonzero float
literal below 1e-2, wherever it sits in code (comments and docstrings
are not tokens of that kind).  The allowlist holds only the literals that
are not thresholds of a decision on the input: the generator's 1e-3
conditioning target for drawn eigenvalue data, and the internals of the
randomized metric search, which a decision over all invariant metrics is
to replace.
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hskahler"

# (file, top-level function, literal) -> why it is not a Config tolerance
ALLOWED = {
    ("kahler.py", "_draw_family_data", "1e-3"): "the generator's draw-conditioning target",
    ("metrics.py", "hs_metric_search", "1e-12"): "search internals: trace-zero candidate",
    ("metrics.py", "hs_metric_search", "1e-3"): "search internals: eigenvalue floor",
    ("metrics.py", "hs_metric_search", "1e-7"): "search internals: smallest step",
    ("metrics.py", "hs_metric_search", "1e-15"): "search internals: strict improvement",
}


def _top_level_names(source: str) -> list[tuple[int, int, str]]:
    """(first line, last line, name) of each top-level def and class."""
    return [(node.lineno, node.end_lineno, node.name) for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def small_literals(path: Path) -> list[tuple[str, str, int, str]]:
    """(file, enclosing top-level name, line, text) of each nonzero float
    literal of magnitude below 1e-2 in one source file."""
    source = path.read_text()
    spans = _top_level_names(source)
    hits = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type != tokenize.NUMBER:
            continue
        value = abs(complex(tok.string.replace("_", "")))
        if 0.0 < value < 1e-2:
            line = tok.start[0]
            owner = next((name for lo, hi, name in spans if lo <= line <= hi), "<module>")
            hits.append((path.name, owner, line, tok.string))
    return hits


def test_no_threshold_lives_outside_config():
    found = [hit for path in sorted(SRC.glob("*.py")) if path.name != "config.py"
             for hit in small_literals(path)]
    stray = [hit for hit in found if (hit[0], hit[1], hit[3]) not in ALLOWED]
    assert stray == [], "float literals below 1e-2 outside config.py: " + ", ".join(
        f"{f}:{line} {text} in {owner}" for f, owner, line, text in stray)


def test_the_allowlist_names_only_literals_that_exist():
    """An entry whose literal is gone must leave the allowlist with it."""
    present = {(f, owner, text) for path in sorted(SRC.glob("*.py"))
               for f, owner, _, text in small_literals(path)}
    assert set(ALLOWED) <= present, set(ALLOWED) - present


def test_the_guard_sees_literals_in_code_and_not_in_text(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        '"""A docstring that mentions 1e-9."""\n'
        "def f(x, tol=1e-9):  # and a comment: 1e-6\n"
        "    return x > 0.001 * 2.0 and x != 0.0 and x < 5e-3j.imag\n"
    )
    assert [(owner, text) for _, owner, _, text in small_literals(probe)] == [
        ("f", "1e-9"), ("f", "0.001"), ("f", "5e-3j")]
