"""Report shape of every command on the catalog, pinned.

For each catalog document and each command the fixture
``report_shapes.json`` holds the exit code, the verdict and the ordered
``(check_id, status, category)`` of every record.  Residuals are left
out: on dense frames they move in the last digits across BLAS builds.
"""

import json
from pathlib import Path

import pytest

from hskahler.cli import run_command

SHAPES = json.loads((Path(__file__).parent / "report_shapes.json").read_text())
CASES = [(doc, cmd) for doc, by_cmd in SHAPES.items() for cmd in by_cmd]


@pytest.mark.parametrize("doc, cmd", CASES)
def test_report_shape(doc, cmd, capsys):
    command, *flags = cmd.split()
    code = run_command([command, doc, *flags, "--json-only"])
    rep = json.loads(capsys.readouterr().out)
    want = SHAPES[doc][cmd]
    assert code == want["exit"]
    assert rep["verdict"] == want["verdict"]
    got = [[r["check_id"], r["status"], r["category"]] for r in rep["records"]]
    assert got == want["records"]
