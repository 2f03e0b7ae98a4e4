"""Document parsing, validation naming, and serialization round trips."""

import json

import numpy as np
import pytest

from conftest import catalog_doc, kt_real

from hskahler.documents import SCHEMA_VERSION, AlgebraDocument, load, loads
from hskahler.errors import FormatError, ValidationError


def _complex_doc(**extra) -> dict:
    base = {
        "schema_version": SCHEMA_VERSION,
        "name": "probe",
        "mode": "complex",
        "n": 2,
        "C": [[2, 1, 2, [-1.0, 0.0]]],
        "D": [],
    }
    base.update(extra)
    return base


def test_real_round_trip_preserves_everything():
    f, J, G = kt_real()
    doc = AlgebraDocument.from_real("kt", f, J, G, metadata={"note": "nilpotent"})
    back = loads(doc.dumps())
    assert back.name == "kt" and back.mode == "real"
    assert back.metadata == {"note": "nilpotent"}
    assert np.array_equal(back.f, f)
    assert np.array_equal(back.J, J)
    assert np.array_equal(back.G, G)


def test_complex_round_trip_preserves_everything():
    rng = np.random.default_rng(3)
    C = np.zeros((2, 2, 2), dtype=complex)
    C[1, 0, 1], C[1, 1, 0] = -1.0 + 2.0j, 1.0 - 2.0j
    D = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    g = np.eye(2) + 0.1j * np.array([[0.0, 1.0], [-1.0, 0.0]])
    S = np.array([[0.0, 0.5j], [-0.5j, 0.0]])
    doc = AlgebraDocument.from_complex("probe", C, D, g=g, S=S)
    back = loads(doc.dumps())
    assert back.n == 2
    assert np.array_equal(back.C, C)
    assert np.array_equal(back.D, D)
    assert np.array_equal(back.g, g)
    assert np.array_equal(back.S, S)


def test_missing_frame_metric_defaults_to_identity():
    doc = loads(json.dumps(_complex_doc()))
    sc, g, S = doc.build_complex()
    assert np.array_equal(g, np.eye(2, dtype=complex))
    assert S is None
    assert sc.C[1, 0, 1] == -1.0


def test_antisymmetry_is_implied_and_checked():
    one_sided = loads(json.dumps(_complex_doc()))
    assert one_sided.C[1, 1, 0] == 1.0  # the mirror entry is filled in
    both = _complex_doc(C=[[2, 1, 2, [-1.0, 0.0]], [2, 2, 1, [1.0, 0.0]]])
    assert loads(json.dumps(both)).C[1, 0, 1] == -1.0
    conflict = _complex_doc(C=[[2, 1, 2, [-1.0, 0.0]], [2, 2, 1, [-1.0, 0.0]]])
    with pytest.raises(ValidationError, match="conflicting"):
        loads(json.dumps(conflict))


def test_equal_lower_indices_must_vanish():
    bad = _complex_doc(C=[[2, 1, 1, [1.0, 0.0]]])
    with pytest.raises(ValidationError, match="equal lower indices"):
        loads(json.dumps(bad))


def test_plain_numbers_are_accepted_as_complex_values():
    doc = loads(json.dumps(_complex_doc(D=[[1, 1, 2, 3.5]])))
    assert doc.D[0, 0, 1] == 3.5 + 0.0j


@pytest.mark.parametrize("value", ["x", [1.0], [1.0, 2.0, 3.0], True, None])
def test_bad_scalar_encodings_are_named(value):
    bad = _complex_doc(D=[[1, 1, 2, value]])
    with pytest.raises(ValidationError, match=r"D\[0\]"):
        loads(json.dumps(bad))


def _real_doc() -> dict:
    f, J, G = kt_real()
    return AlgebraDocument.from_real("kt", f, J, G).to_dict()


def _with(body: dict, key: str, at: tuple, value) -> dict:
    """body with body[key][at[0]][at[1]]... set to value."""
    cell = body[key]
    for i in at[:-1]:
        cell = cell[i]
    cell[at[-1]] = value
    return body


# (field, document, the position of a number in it); complex fields put
# the number both plain and inside an [re, im] pair
_NUMBER_SITES = [
    ("C", _complex_doc, (0, 3)),
    ("C", _complex_doc, (0, 3, 1)),
    ("D", lambda: _complex_doc(D=[[1, 1, 2, 3.5]]), (0, 3)),
    ("D", lambda: _complex_doc(D=[[1, 1, 2, [3.5, 0.0]]]), (0, 3, 0)),
    ("g", lambda: _complex_doc(g=[[1.0, 0.0], [0.0, 1.0]]), (1, 1)),
    ("g", lambda: _complex_doc(g=[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]), (0, 1, 1)),
    ("S", lambda: _complex_doc(S=[[0.0, 0.5], [-0.5, 0.0]]), (0, 1)),
    ("S", lambda: _complex_doc(S=[[[0.0, 0.0], [0.0, 0.5]], [[0.0, -0.5], [0.0, 0.0]]]), (1, 0, 0)),
    ("f", _real_doc, (0, 3)),
    ("J", _real_doc, (1, 0)),
    ("G", _real_doc, (2, 2)),
]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("key, body, at", _NUMBER_SITES)
def test_non_finite_numbers_are_named(key, body, at, value):
    """json reads NaN, Infinity and -Infinity as numbers; a document
    holding one is invalid, and the message names the field."""
    text = json.dumps(_with(body(), key, at, value))
    assert "NaN" in text or "Infinity" in text
    with pytest.raises(ValidationError, match=rf"^{key}\[.*not a finite real number"):
        loads(text)


@pytest.mark.parametrize("idx", [0, 3, -1, 1.0, True])
def test_out_of_range_indices_are_named(idx):
    bad = _complex_doc(C=[[2, idx, 2, [1.0, 0.0]]])
    with pytest.raises(ValidationError, match=r"C\[0\]"):
        loads(json.dumps(bad))


def test_malformed_json_reports_position():
    with pytest.raises(FormatError, match=r"line 1, column"):
        loads("{not json")


def test_schema_version_is_enforced():
    with pytest.raises(ValidationError, match="schema_version"):
        loads(json.dumps(_complex_doc(schema_version=99)))
    dropped = _complex_doc()
    del dropped["schema_version"]
    with pytest.raises(ValidationError, match="schema_version"):
        loads(json.dumps(dropped))


def test_mode_and_required_fields():
    with pytest.raises(ValidationError, match="mode"):
        loads(json.dumps(_complex_doc(mode="banana")))
    missing_d = _complex_doc()
    del missing_d["D"]
    with pytest.raises(ValidationError, match="'D'"):
        loads(json.dumps(missing_d))
    real_missing = {"schema_version": SCHEMA_VERSION, "mode": "real", "dim": 4, "f": []}
    with pytest.raises(ValidationError, match="'J'"):
        loads(json.dumps(real_missing))


def test_real_dimension_must_be_even():
    bad = {
        "schema_version": SCHEMA_VERSION,
        "mode": "real",
        "dim": 3,
        "f": [],
        "J": [[0.0] * 3] * 3,
        "G": [[0.0] * 3] * 3,
    }
    with pytest.raises(ValidationError, match="even"):
        loads(json.dumps(bad))


def test_dense_matrix_shape_is_named():
    bad = _complex_doc(g=[[ [1.0, 0.0] ]])
    with pytest.raises(ValidationError, match="g"):
        loads(json.dumps(bad))
    ragged = _complex_doc(g=[[[1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])
    with pytest.raises(ValidationError, match=r"g: row 1"):
        loads(json.dumps(ragged))


def test_metadata_must_be_an_object():
    with pytest.raises(ValidationError, match="metadata"):
        loads(json.dumps(_complex_doc(metadata=[1, 2])))


def test_name_falls_back_to_the_file_stem(tmp_path):
    payload = _complex_doc()
    del payload["name"]
    p = tmp_path / "my_algebra.json"
    p.write_text(json.dumps(payload))
    assert load(p).name == "my_algebra"
    payload["name"] = "explicit"
    p.write_text(json.dumps(payload))
    assert load(p).name == "explicit"


def test_missing_file_is_a_format_error(tmp_path):
    with pytest.raises(FormatError, match="cannot read"):
        load(tmp_path / "nope.json")


def test_build_guards_check_the_mode():
    doc = loads(json.dumps(_complex_doc()))
    with pytest.raises(ValueError):
        doc.build_real()
    f, J, G = kt_real()
    real_doc = AlgebraDocument.from_real("kt", f, J, G)
    with pytest.raises(ValueError):
        real_doc.build_complex()


@pytest.mark.parametrize("name,mode", [
    ("torus", "real"),
    ("kodaira_thurston", "real"),
    ("aff_complex", "complex"),
    ("family_r1n2", "complex"),
    ("family_r2n5", "complex"),
    ("iwasawa", "complex"),
])
def test_shipped_catalog_loads_and_builds(name, mode):
    doc = catalog_doc(name)
    assert doc.mode == mode
    assert doc.name == name
    if mode == "real":
        alg, J, G = doc.build_real()
        assert alg.dim == doc.dim
        assert np.array_equal(J @ J, -np.eye(doc.dim))
    else:
        sc, g, _ = doc.build_complex()
        assert sc.n == doc.n
        assert sc.bianchi_residual() <= 1e-8
