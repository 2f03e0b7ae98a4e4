"""JSON documents describing algebra instances.

Two modes share one envelope (``schema_version`` 1):

real mode
    ``dim``, sparse ``f`` entries ``[c, a, b, value]`` meaning
    ``f^c_{ab} = value`` (antisymmetry in (a, b) is implied; stating
    both orders is allowed when consistent), dense real ``J`` and ``G``.

complex mode
    ``n``, sparse ``C`` and ``D`` entries ``[j, i, k, value]`` for
    ``C^j_{ik}`` / ``D^j_{ik}`` (C antisymmetric in (i, k), implied),
    optional dense ``g`` (frame metric, identity when absent) and
    optional dense ``S`` (a known closed-completion candidate).

All indices are 1-based.  Complex scalars are written ``[re, im]``;
plain numbers are accepted as reals.  Every number must be finite.
Malformed JSON raises :class:`FormatError` with line and column; a
structurally invalid document raises :class:`ValidationError` naming
the offending field.
Only shapes and encoding are validated here; mathematical properties
(Jacobi, J^2 = -Identity, positivity) are the analysis layer's job.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .algebra import RealLieAlgebra, StructureConstants
from .config import Config
from .errors import FormatError, ValidationError

SCHEMA_VERSION = 1


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValidationError(msg)


def _index(v, hi: int, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValidationError(f"{where}: index {v!r} is not an integer")
    if not 1 <= v <= hi:
        raise ValidationError(f"{where}: index {v} out of range 1..{hi}")
    return v


def _real_value(v, where: str) -> float:
    # json reads NaN and Infinity as numbers; no check can decide on them
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ValidationError(f"{where}: value {v!r} is not a finite real number")
    return float(v)


def _complex_value(v, where: str) -> complex:
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return complex(_real_value(v, where))
    if isinstance(v, list) and len(v) == 2:
        return complex(_real_value(v[0], where), _real_value(v[1], where))
    raise ValidationError(f"{where}: value {v!r} is not a number or [re, im] pair")


def _dense_matrix(data, size: int, where: str, *, complex_entries: bool) -> np.ndarray:
    _require(isinstance(data, list) and len(data) == size, f"{where}: expected {size} rows")
    out = np.zeros((size, size), dtype=complex if complex_entries else float)
    for i, row in enumerate(data):
        _require(isinstance(row, list) and len(row) == size, f"{where}: row {i + 1} must have {size} entries")
        for j, v in enumerate(row):
            cell = f"{where}[{i + 1}][{j + 1}]"
            out[i, j] = _complex_value(v, cell) if complex_entries else _real_value(v, cell)
    return out


def _expand_sparse(entries, size: int, where: str, *, complex_entries: bool, antisym: bool) -> np.ndarray:
    """Sparse [upper, lower1, lower2, value] triples to a dense cube."""
    _require(isinstance(entries, list), f"{where}: expected a list of entries")
    out = np.zeros((size, size, size), dtype=complex if complex_entries else float)
    seen: dict[tuple[int, int, int], complex] = {}

    def put(key, val):
        if key in seen:
            if seen[key] != val:
                raise ValidationError(
                    f"{where}: conflicting values for entry {key}: {seen[key]} vs {val}"
                )
            return
        seen[key] = val
        out[key[0] - 1, key[1] - 1, key[2] - 1] = val

    for t, ent in enumerate(entries):
        tag = f"{where}[{t}]"
        _require(isinstance(ent, list) and len(ent) == 4, f"{tag}: expected [j, i, k, value]")
        j = _index(ent[0], size, tag)
        i = _index(ent[1], size, tag)
        k = _index(ent[2], size, tag)
        val = _complex_value(ent[3], tag) if complex_entries else _real_value(ent[3], tag)
        if antisym:
            if i == k:
                raise ValidationError(f"{tag}: entry with equal lower indices must vanish")
            put((j, i, k), val)
            put((j, k, i), -val)
        else:
            put((j, i, k), val)
    return out


def _sparse_entries(arr: np.ndarray, *, antisym: bool, complex_entries: bool) -> list:
    n = arr.shape[0]
    out = []
    for j in range(n):
        for i in range(n):
            for k in range(i + 1 if antisym else 0, n):
                v = arr[j, i, k]
                if v == 0:
                    continue
                if complex_entries:
                    out.append([j + 1, i + 1, k + 1, [float(np.real(v)), float(np.imag(v))]])
                else:
                    out.append([j + 1, i + 1, k + 1, float(np.real(v))])
    return out


def _dense_out(arr: np.ndarray, *, complex_entries: bool) -> list:
    if complex_entries:
        return [[[float(v.real), float(v.imag)] for v in row] for row in arr]
    return [[float(v) for v in row] for row in arr]


@dataclass
class AlgebraDocument:
    """Parsed instance description; exactly one mode's fields are set."""

    name: str
    mode: str
    metadata: dict = field(default_factory=dict)
    # real mode
    dim: int | None = None
    f: np.ndarray | None = None
    J: np.ndarray | None = None
    G: np.ndarray | None = None
    # complex mode
    n: int | None = None
    C: np.ndarray | None = None
    D: np.ndarray | None = None
    g: np.ndarray | None = None
    S: np.ndarray | None = None

    @classmethod
    def from_real(cls, name: str, f, J, G, metadata: dict | None = None) -> "AlgebraDocument":
        f = np.asarray(f, dtype=float)
        return cls(
            name=name, mode="real", metadata=dict(metadata or {}),
            dim=f.shape[0], f=f, J=np.asarray(J, dtype=float), G=np.asarray(G, dtype=float),
        )

    @classmethod
    def from_complex(cls, name: str, C, D, g=None, S=None, metadata: dict | None = None) -> "AlgebraDocument":
        C = np.asarray(C, dtype=complex)
        return cls(
            name=name, mode="complex", metadata=dict(metadata or {}),
            n=C.shape[0], C=C, D=np.asarray(D, dtype=complex),
            g=None if g is None else np.asarray(g, dtype=complex),
            S=None if S is None else np.asarray(S, dtype=complex),
        )

    # ------------------------------------------------------------- building

    def build_real(self, *, cfg: Config | None = None, validate: bool = True):
        """(RealLieAlgebra, J, G) for a real-mode document."""
        if self.mode != "real":
            raise ValueError("document is not in real mode")
        alg = RealLieAlgebra(self.f, validate=validate, cfg=cfg)
        return alg, self.J.copy(), self.G.copy()

    def build_complex(self, *, cfg: Config | None = None, validate: bool = True):
        """(StructureConstants, g, S or None) for a complex-mode document."""
        if self.mode != "complex":
            raise ValueError("document is not in complex mode")
        sc = StructureConstants(self.C, self.D, validate=validate, cfg=cfg)
        g = np.eye(self.n, dtype=complex) if self.g is None else self.g.copy()
        return sc, g, None if self.S is None else self.S.copy()

    # -------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        out: dict = {"schema_version": SCHEMA_VERSION, "name": self.name, "mode": self.mode}
        if self.mode == "real":
            out["dim"] = self.dim
            out["f"] = _sparse_entries(self.f, antisym=True, complex_entries=False)
            out["J"] = _dense_out(self.J, complex_entries=False)
            out["G"] = _dense_out(self.G, complex_entries=False)
        else:
            out["n"] = self.n
            out["C"] = _sparse_entries(self.C, antisym=True, complex_entries=True)
            out["D"] = _sparse_entries(self.D, antisym=False, complex_entries=True)
            if self.g is not None:
                out["g"] = _dense_out(self.g, complex_entries=True)
            if self.S is not None:
                out["S"] = _dense_out(self.S, complex_entries=True)
        if self.metadata:
            out["metadata"] = self.metadata
        return out

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n"

    def save(self, path) -> None:
        Path(path).write_text(self.dumps())


def loads(text: str, *, name: str | None = None) -> AlgebraDocument:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
    _require(isinstance(data, dict), "top level must be an object")
    version = data.get("schema_version")
    _require(version == SCHEMA_VERSION, f"unsupported schema_version {version!r}")
    mode = data.get("mode")
    _require(mode in ("real", "complex"), f"mode must be 'real' or 'complex', got {mode!r}")
    doc_name = data.get("name", name or "unnamed")
    _require(isinstance(doc_name, str), "name must be a string")
    metadata = data.get("metadata", {})
    _require(isinstance(metadata, dict), "metadata must be an object")

    if mode == "real":
        dim = data.get("dim")
        _require(isinstance(dim, int) and not isinstance(dim, bool) and dim >= 2, "dim must be an integer >= 2")
        _require(dim % 2 == 0, f"dim must be even to carry a complex structure, got {dim}")
        for key in ("f", "J", "G"):
            _require(key in data, f"real mode requires field '{key}'")
        f = _expand_sparse(data["f"], dim, "f", complex_entries=False, antisym=True)
        J = _dense_matrix(data["J"], dim, "J", complex_entries=False)
        G = _dense_matrix(data["G"], dim, "G", complex_entries=False)
        return AlgebraDocument(name=doc_name, mode="real", metadata=metadata, dim=dim, f=f, J=J, G=G)

    n = data.get("n")
    _require(isinstance(n, int) and not isinstance(n, bool) and n >= 1, "n must be an integer >= 1")
    for key in ("C", "D"):
        _require(key in data, f"complex mode requires field '{key}'")
    C = _expand_sparse(data["C"], n, "C", complex_entries=True, antisym=True)
    D = _expand_sparse(data["D"], n, "D", complex_entries=True, antisym=False)
    g = _dense_matrix(data["g"], n, "g", complex_entries=True) if "g" in data else None
    S = _dense_matrix(data["S"], n, "S", complex_entries=True) if "S" in data else None
    return AlgebraDocument(name=doc_name, mode="complex", metadata=metadata, n=n, C=C, D=D, g=g, S=S)


def load(path) -> AlgebraDocument:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e.strerror or e}") from None
    return loads(text, name=path.stem)
