"""Seeded documents, expected outcomes and operation schedules.

Every document is written here from closed-form mathematics, without
calling the package under test, so a change to the package cannot
change the benchmark's inputs.  The expected outcome of each operation
follows from the theory, not from running the code:

* a model-family instance (the paper's generator, written out from its
  closed-form constants) carries the closed completion
  ``S_ix = (i/2) conj(p_i) lam[x, i]``, so it is Hermitian-symplectic,
  hence pluriclosed; ``p != 0`` makes the identity metric non-Kähler;
  the instance is unimodular, and a unimodular metric that is both
  pluriclosed and balanced is Kähler, so it is not balanced.  These
  classes do not depend on the frame.  ``kahlerize`` must return a
  closed positive certificate, and on the native frame it recovers the
  generating ``lam`` and ``p`` (columns in the generator's canonical
  order);
* Kodaira-Thurston plus a flat factor and the Iwasawa algebra are
  nilpotent and non-abelian, so they carry no Hermitian-symplectic
  structure for any metric (Enrietti-Fino-Vezzoni 2012) and the
  metric search must come back empty.  KT's standard metric is
  pluriclosed and, in complex dimension 2, balanced only if Kähler;
  the Iwasawa metric ``g = I`` is balanced and not pluriclosed;
* the flat torus is Kähler, hence every other class.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("family-sparse", "dense-frame", "real-search")

# ROADMAP grid points (r, n); the last three run once per run, before the rounds
LIGHT_GRID = ((1, 2), (2, 5), (3, 8))
HEAVY_GRID = ((5, 10), (6, 12), (8, 16))

FAMILY = {"kahler": False, "pluriclosed": True, "balanced": False, "hermitian_symplectic": True}
IWASAWA = {"kahler": False, "pluriclosed": False, "balanced": True, "hermitian_symplectic": False}
KODAIRA_THURSTON = {"kahler": False, "pluriclosed": True, "balanced": False, "hermitian_symplectic": False}
TORUS = {"kahler": True, "pluriclosed": True, "balanced": True, "hermitian_symplectic": True}


@dataclass
class Doc:
    name: str
    classes: dict
    family: dict | None = None   # {"lam", "p"} when kahlerize must recover them
    cond: float | None = None    # condition number of the change of frame
    n: int = 0


@dataclass
class Op:
    command: str                 # analyze | kahlerize | hs | hs_search
    doc: str


@dataclass
class Workload:
    name: str
    seed: int
    root: Path
    docs: dict = field(default_factory=dict)
    heavy: list = field(default_factory=list)   # run once, before the rounds
    rounds: list = field(default_factory=list)  # cycled through until time is up
    batch: list = field(default_factory=list)   # document names of the batch directory

    def path(self, doc: str) -> Path:
        return self.root / "docs" / f"{doc}.json"

    @property
    def batch_dir(self) -> Path:
        return self.root / "batch"


# ------------------------------------------------------------- mathematics


def family_data(r: int, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Well-conditioned (n - r) x r eigenvalue data and r couplings,
    columns sorted into the generator's canonical order."""
    while True:
        lam = (rng.standard_normal((n - r, r)) + 1j * rng.standard_normal((n - r, r))) / np.sqrt(2.0)
        sv = np.linalg.svd(lam, compute_uv=False)
        if sv[-1] > 1e-3 * sv[0]:
            break
    p = (rng.standard_normal(r) + 1j * rng.standard_normal(r)) / np.sqrt(2.0)
    keys = []
    for a in range(n - r - 1, -1, -1):
        keys += [lam[a].imag, lam[a].real]
    order = np.lexsort(keys)
    return lam[:, order], p[order]


def family_constants(lam: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """C^i_{ix} = -lam[x, i], D^i_{ix} = lam[x, i],
    D^x_{iy} = conj(p_i) lam[y, i] conj(lam[x, i])."""
    m, r = lam.shape
    n = m + r
    C = np.zeros((n, n, n), dtype=complex)
    D = np.zeros((n, n, n), dtype=complex)
    for i in range(r):
        for x0 in range(m):
            x = r + x0
            C[i, i, x] = -lam[x0, i]
            C[i, x, i] = lam[x0, i]
            D[i, i, x] = lam[x0, i]
            D[r:, i, x] = np.conj(p[i]) * lam[x0, i] * np.conj(lam[:, i])
    return C, D


def iwasawa_constants() -> tuple[np.ndarray, np.ndarray]:
    C = np.zeros((3, 3, 3), dtype=complex)
    C[2, 0, 1], C[2, 1, 0] = -1.0, 1.0
    return C, np.zeros_like(C)


def random_frame(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unitary x diag(0.6..1.8) x unitary: condition number below 3."""
    def unitary():
        q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return (unitary() * rng.uniform(0.6, 1.8, size=n)) @ unitary()


def transform(C, D, A) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Constants and metric (g = I before) in the frame e~ = A^{-1} e."""
    Ai = np.linalg.inv(A)
    Ct = np.einsum("xb,ay,cz,xyz->bac", A, Ai, Ai, C, optimize=True)
    Dt = np.einsum("ya,bx,cz,xyz->bac", np.conj(A), np.conj(Ai), Ai, D, optimize=True)
    return Ct, Dt, Ai @ Ai.conj().T


def real_form(C, D) -> tuple[np.ndarray, np.ndarray]:
    """Real structure constants and J over x_k, y_k with
    e_k = (x_k - i y_k)/sqrt 2; the metric g = I becomes G = I."""
    n = C.shape[0]
    F = np.zeros((2 * n,) * 3, dtype=complex)
    F[:n, :n, :n] = C
    F[n:, n:, n:] = np.conj(C)
    F[:n, :n, n:] = np.einsum("ikj->kij", np.conj(D))
    F[n:, :n, n:] = -np.einsum("jki->kij", D)
    F[:, n:, :n] = -np.transpose(F[:, :n, n:], (0, 2, 1))
    s = 1.0 / np.sqrt(2.0)
    eye = np.eye(n)
    T = np.block([[s * eye, 1j * s * eye], [s * eye, -1j * s * eye]])
    f = np.einsum("cx,xyz,ya,zb->cab", np.linalg.inv(T), F, T, T, optimize=True)
    J = np.block([[np.zeros((n, n)), -eye], [eye, np.zeros((n, n))]])
    return f.real, J


def kt_plus_flat(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Kodaira-Thurston plus R^{2k}: f^4_{12} = sqrt 2, J e_{2m-1} = e_{2m}."""
    dim = 4 + 2 * k
    f = np.zeros((dim,) * 3)
    f[3, 0, 1], f[3, 1, 0] = np.sqrt(2.0), -np.sqrt(2.0)
    J = np.kron(np.eye(dim // 2), np.array([[0.0, -1.0], [1.0, 0.0]]))
    return f, J


# ------------------------------------------------------------- documents


def _cx(v) -> list:
    return [float(v.real), float(v.imag)]


def _one_based(*idx) -> list:
    return [int(i) + 1 for i in idx]


def _cx_array(a) -> list:
    return [_cx_array(v) if np.ndim(v) else _cx(v) for v in a]


def complex_doc(name: str, C, D, g=None) -> dict:
    n = C.shape[0]
    out = {"schema_version": 1, "name": name, "mode": "complex", "n": n,
           "C": [[*_one_based(j, i, k), _cx(C[j, i, k])]
                 for j, i, k in zip(*np.nonzero(C)) if i < k],
           "D": [[*_one_based(j, i, k), _cx(D[j, i, k])] for j, i, k in zip(*np.nonzero(D))]}
    if g is not None:
        out["g"] = [[_cx(v) for v in row] for row in g]
    return out


def real_doc(name: str, f, J) -> dict:
    dim = f.shape[0]
    return {"schema_version": 1, "name": name, "mode": "real", "dim": dim,
            "f": [[*_one_based(c, a, b), float(f[c, a, b])]
                  for c, a, b in zip(*np.nonzero(np.abs(f) > 1e-13)) if a < b],
            "J": J.tolist(), "G": np.eye(dim).tolist()}


# ------------------------------------------------------------- workloads


def _family(w: Workload, r: int, n: int, k: int, *, frame: bool = False, real: bool = False) -> str:
    rng = np.random.default_rng([w.seed, r, n, k])
    lam, p = family_data(r, n, rng)
    C, D = family_constants(lam, p)
    if frame:
        name = f"dense_n{n}_{k}"
        A = random_frame(rng, n)
        Ct, Dt, g = transform(C, D, A)
        body = complex_doc(name, Ct, Dt, g)
        w.docs[name] = Doc(name, FAMILY, cond=float(np.linalg.cond(A)), n=n)
    elif real:
        name = f"real_n{n}_{k}"
        body = real_doc(name, *real_form(C, D))
        w.docs[name] = Doc(name, FAMILY, n=n)
    else:
        name = f"family_n{n}_{k}"
        body = complex_doc(name, C, D)
        w.docs[name] = Doc(name, FAMILY, family={"lam": lam, "p": p}, n=n)
    w.path(name).write_text(json.dumps(body) + "\n")
    return name


def _fixed(w: Workload, name: str, body: dict, classes: dict, n: int) -> str:
    w.docs[name] = Doc(name, classes, n=n)
    w.path(name).write_text(json.dumps(body) + "\n")
    return name


# Latency percentiles come from the rounds only.  Each round's analyze mix
# puts p50 and p90 near the middle of one size class, not on the edge
# between two, so a few slow samples do not move them.


def _family_sparse(w: Workload) -> None:
    # analyze mix 2 : 6 : 2 at n = 2, 5, 8 -> p50 at n = 5, p90 at n = 8
    pool = {n: [_family(w, r, n, k) for k in range(count)]
            for (r, n), count in zip(LIGHT_GRID, (2, 6, 2))}
    iwa = _fixed(w, "iwasawa", complex_doc("iwasawa", *iwasawa_constants()), IWASAWA, 3)
    light = [d for n in sorted(pool) for d in pool[n]]
    small, mid, big = pool[2], pool[5], pool[8]
    w.rounds = [[Op("analyze", d) for d in light]
                + [Op("kahlerize", d) for d in (small[0], *mid[:3], big[0])]
                + [Op("hs", d) for d in (small[1], *mid[3:], big[1])]
                + [Op("hs_search", iwa)]]
    for r, n in HEAVY_GRID:
        d = _family(w, r, n, 0)
        w.heavy += [Op("analyze", d), Op("analyze", d)]
        if n < 16:  # about 6.5 s per analyze at n = 16: two analyses only
            w.heavy += [Op("kahlerize", d), Op("hs", d)]
    w.batch = light


def _dense_frame(w: Workload) -> None:
    # analyze mix 1 : 3 : 1 small, n = 5, n = 8 -> p50 at n = 5, p90 at n = 8;
    # the n = 8 instance rotates, so a run averages three of them
    d2 = _family(w, 1, 2, 0, frame=True)
    d5 = [_family(w, 2, 5, k, frame=True) for k in range(3)]
    d8 = [_family(w, 3, 8, k, frame=True) for k in range(3)]
    iwa = _fixed(w, "iwasawa", complex_doc("iwasawa", *iwasawa_constants()), IWASAWA, 3)
    w.rounds = [[Op("analyze", d) for d in (iwa if k == 1 else d2, *d5, d8[k])]
                + [Op("kahlerize", d) for d in (d2, d5[0], d5[1])]
                + [Op("hs", d) for d in (d2, d5[1], d5[2])]
                + [Op("hs_search", iwa)] * (k == 0) for k in range(3)]
    w.batch = [d2, iwa, *d5]


def _real_search(w: Workload) -> None:
    flat = np.zeros((4, 4, 4))
    torus = _fixed(w, "torus", real_doc("torus", flat, kt_plus_flat(0)[1]), TORUS, 2)
    kts = [_fixed(w, f"kt_r{2 * k}", real_doc(f"kt_r{2 * k}", *kt_plus_flat(k)),
                  KODAIRA_THURSTON, 2 + k) for k in range(4)]
    iwa = _fixed(w, "iwasawa_real", real_doc("iwasawa_real", *real_form(*iwasawa_constants())),
                 IWASAWA, 3)
    # thirteen analyses per round, KT + R^4 three times: p50 lands on it,
    # p90 among the n = 8 copies
    fams = [_family(w, 1, 2, 0, real=True), _family(w, 2, 5, 0, real=True),
            _family(w, 2, 5, 1, real=True), _family(w, 3, 8, 0, real=True),
            _family(w, 3, 8, 1, real=True)]
    light = [torus, *kts, iwa, *fams]
    w.rounds = [[Op("analyze", d) for d in (*light, kts[2], kts[2])]
                + [Op("hs_search", d) for d in (*kts, iwa)]
                + [Op("kahlerize", d) for d in (fams[0], fams[1], fams[3])]
                + [Op("hs", d) for d in (torus, fams[0], fams[1])]]
    w.batch = light


_BUILDERS = {"family-sparse": _family_sparse, "dense-frame": _dense_frame, "real-search": _real_search}


def generate(name: str, seed: int, root: Path) -> Workload:
    """Write the workload's documents under ``root`` and its expected
    outcomes to ``root/expected.json``."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    w = Workload(name, seed, Path(root))
    (w.root / "docs").mkdir(parents=True, exist_ok=True)
    _BUILDERS[name](w)
    w.batch_dir.mkdir(exist_ok=True)
    for d in w.batch:
        (w.batch_dir / f"{d}.json").write_bytes(w.path(d).read_bytes())
    manifest = {
        "workload": name, "seed": seed,
        "documents": {d.name: {"classes": d.classes, "n": d.n, "cond": d.cond,
                               "family": None if d.family is None else
                               {k: _cx_array(v) for k, v in d.family.items()}}
                      for d in w.docs.values()},
        "heavy": [[o.command, o.doc] for o in w.heavy],
        "rounds": [[[o.command, o.doc] for o in r] for r in w.rounds],
        "batch": w.batch,
    }
    (w.root / "expected.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return w
