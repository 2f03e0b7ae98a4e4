"""Invariant complex-valued forms in a fixed frame.

A form is a finite sum  sum c_{P,Q} phi_P ^ conj(phi)_Q  where
P and Q are strictly increasing tuples of 1-based frame indices and
phi_P = phi_{p1} ^ ... ^ phi_{pk}.  Coefficients are stored sparsely in
a dict keyed by (P, Q).

The exterior differential of an invariant form is algebraic: it only
needs the frame structure constants, via

    d phi_i = -1/2 sum C^i_{jk} phi_j ^ phi_k - sum conj(D^j_{ik}) phi_j ^ conj(phi_k)

and d conj(phi_i) = conj(d phi_i).  Sums of term contributions are
accumulated per key with math.fsum on real and imaginary parts, which
makes results independent of accumulation order and keeps the identity
d(conj a) = conj(d a) exact in floating point.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_right
from typing import Iterable, Mapping

import numpy as np

from .algebra import StructureConstants
from .config import DEFAULT_CONFIG
from .errors import DimensionError

Key = tuple[tuple[int, ...], tuple[int, ...]]


def _sort_signed(idx: Iterable[int]) -> tuple[tuple[int, ...], int] | None:
    """Sorted tuple and permutation sign; None when an index repeats."""
    lst = list(idx)
    if len(set(lst)) != len(lst):
        return None
    sign = 1
    # insertion sort, counting swaps; lists here have at most a few entries
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    return tuple(lst), sign


def _merge_sign(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Parity of merging two disjoint sorted tuples into sorted order."""
    inv = 0
    for y in b:
        inv += len(a) - bisect_right(a, y)
    return -1 if inv % 2 else 1


def _fsum_complex(values: list[complex]) -> complex:
    return complex(math.fsum(v.real for v in values), math.fsum(v.imag for v in values))


class InvariantForm:
    """Sparse invariant form over an n-dimensional frame."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping[Key, complex] | None = None):
        self.n = int(n)
        data: dict[Key, complex] = {}
        if terms:
            for (P, Q), c in terms.items():
                c = complex(c)
                if c == 0:
                    continue
                sp = _sort_signed(P)
                sq = _sort_signed(Q)
                if sp is None or sq is None:
                    continue
                key = (sp[0], sq[0])
                c = c * sp[1] * sq[1]
                if key in data:
                    data[key] = _fsum_complex([data[key], c])
                    if data[key] == 0:
                        del data[key]
                else:
                    data[key] = c
        self._terms = data

    # ---------------------------------------------------------------- basics

    @classmethod
    def zero(cls, n: int) -> "InvariantForm":
        return cls(n)

    @classmethod
    def scalar(cls, n: int, c: complex) -> "InvariantForm":
        return cls(n, {((), ()): c})

    @classmethod
    def phi(cls, n: int, i: int) -> "InvariantForm":
        return cls(n, {((i,), ()): 1.0})

    @classmethod
    def phibar(cls, n: int, i: int) -> "InvariantForm":
        return cls(n, {((), (i,)): 1.0})

    @property
    def terms(self) -> dict[Key, complex]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def sup(self) -> float:
        """Largest coefficient magnitude (0 for the zero form)."""
        return max((abs(c) for c in self._terms.values()), default=0.0)

    def prune(self, tol: float) -> "InvariantForm":
        out = InvariantForm(self.n)
        out._terms = {k: c for k, c in self._terms.items() if abs(c) > tol}
        return out

    def bidegrees(self) -> set[tuple[int, int]]:
        return {(len(P), len(Q)) for P, Q in self._terms}

    def component(self, p: int, q: int) -> "InvariantForm":
        out = InvariantForm(self.n)
        out._terms = {(P, Q): c for (P, Q), c in self._terms.items() if len(P) == p and len(Q) == q}
        return out

    # ------------------------------------------------------------ arithmetic

    def _binary(self, other: "InvariantForm", flip: int) -> "InvariantForm":
        if self.n != other.n:
            raise DimensionError("forms live over frames of different dimension")
        acc: dict[Key, list[complex]] = {}
        for k, c in self._terms.items():
            acc.setdefault(k, []).append(c)
        for k, c in other._terms.items():
            acc.setdefault(k, []).append(flip * c)
        return _from_accumulator(self.n, acc)

    def __add__(self, other: "InvariantForm") -> "InvariantForm":
        return self._binary(other, 1)

    def __sub__(self, other: "InvariantForm") -> "InvariantForm":
        return self._binary(other, -1)

    def __mul__(self, c) -> "InvariantForm":
        c = complex(c)
        out = InvariantForm(self.n)
        if c != 0:
            out._terms = {k: v * c for k, v in self._terms.items()}
        return out

    __rmul__ = __mul__

    def __neg__(self) -> "InvariantForm":
        return self * (-1.0)

    def conj(self) -> "InvariantForm":
        out = InvariantForm(self.n)
        data = {}
        for (P, Q), c in self._terms.items():
            sign = -1 if (len(P) * len(Q)) % 2 else 1
            data[(Q, P)] = sign * c.conjugate()
        out._terms = data
        return out

    def wedge(self, other: "InvariantForm") -> "InvariantForm":
        if self.n != other.n:
            raise DimensionError("forms live over frames of different dimension")
        acc: dict[Key, list[complex]] = {}
        for (P1, Q1), c1 in self._terms.items():
            for (P2, Q2), c2 in other._terms.items():
                if set(P1) & set(P2) or set(Q1) & set(Q2):
                    continue
                sign = -1 if (len(Q1) * len(P2)) % 2 else 1
                sign *= _merge_sign(P1, P2) * _merge_sign(Q1, Q2)
                key = (tuple(sorted(P1 + P2)), tuple(sorted(Q1 + Q2)))
                acc.setdefault(key, []).append(sign * c1 * c2)
        return _from_accumulator(self.n, acc)

    # ---------------------------------------------------------- differential

    def d(self, sc: StructureConstants) -> "InvariantForm":
        """Exterior differential from the frame structure constants."""
        if sc.n != self.n:
            raise DimensionError("structure constants dimension does not match the form")
        dphi, dphibar = _coframe_differentials(sc)
        acc: dict[Key, list[complex]] = {}
        for (P, Q), c in self._terms.items():
            factors = [(i, False) for i in P] + [(i, True) for i in Q]
            for t, (i, bar) in enumerate(factors):
                sgn = -1 if t % 2 else 1
                if bar:
                    restP, restQ = P, tuple(x for x in Q if x != i)
                else:
                    restP, restQ = tuple(x for x in P if x != i), Q
                # d(factor) is a 2-form (even), so it slides to the front
                # with only the Koszul sign from crossing earlier factors.
                base = dphibar[i - 1] if bar else dphi[i - 1]
                for (Pd, Qd), cd in base.items():
                    if set(Pd) & set(restP) or set(Qd) & set(restQ):
                        continue
                    s = -1 if (len(Qd) * len(restP)) % 2 else 1
                    s *= _merge_sign(Pd, restP) * _merge_sign(Qd, restQ)
                    key = (tuple(sorted(Pd + restP)), tuple(sorted(Qd + restQ)))
                    acc.setdefault(key, []).append(sgn * s * c * cd)
        return _from_accumulator(self.n, acc)

    # -------------------------------------------------------------- plumbing

    def __repr__(self) -> str:  # pragma: no cover
        if not self._terms:
            return "InvariantForm(0)"
        bits = []
        for (P, Q), c in sorted(self._terms.items()):
            mono = "".join(f"p{i}" for i in P) + "".join(f"q{i}" for i in Q)
            bits.append(f"({c:.4g})*{mono or '1'}")
        return "InvariantForm(" + " + ".join(bits) + ")"


def _from_accumulator(n: int, acc: dict[Key, list[complex]]) -> InvariantForm:
    out = InvariantForm(n)
    data = {}
    for k, vals in acc.items():
        c = _fsum_complex(vals)
        if c != 0:
            data[k] = c
    out._terms = data
    return out


# the differentials of each StructureConstants object, built on first use and
# dropped with the object; valid because nothing changes sc.C or sc.D in place
_DIFFERENTIALS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _coframe_differentials(sc: StructureConstants) -> tuple[list[dict[Key, complex]], list[dict[Key, complex]]]:
    """Term dicts of d phi_i and d conj(phi_i) for every i (0-based list)."""
    dif = _DIFFERENTIALS.get(sc)
    if dif is None:
        dif = _DIFFERENTIALS[sc] = _build_differentials(sc)
    return dif


def _build_differentials(sc: StructureConstants) -> tuple[list[dict[Key, complex]], list[dict[Key, complex]]]:
    n = sc.n
    C, D = sc.C, sc.D
    dphi: list[dict[Key, complex]] = []
    dphibar: list[dict[Key, complex]] = []
    for i in range(n):
        t: dict[Key, complex] = {}
        tb: dict[Key, complex] = {}
        for j in range(n):
            for k in range(j + 1, n):
                c = C[i, j, k]
                if c != 0:
                    t[((j + 1, k + 1), ())] = -c
                    tb[((), (j + 1, k + 1))] = -c.conjugate()
            for k in range(n):
                dc = D[j, i, k].conjugate()
                if dc != 0:
                    # -conj(D^j_{ik}) phi_j ^ phibar_k  and its conjugate
                    t[((j + 1,), (k + 1,))] = t.get(((j + 1,), (k + 1,)), 0.0) - dc
                    tb[((k + 1,), (j + 1,))] = tb.get(((k + 1,), (j + 1,)), 0.0) + dc.conjugate()
        dphi.append({k: v for k, v in t.items() if v != 0})
        dphibar.append({k: v for k, v in tb.items() if v != 0})
    return dphi, dphibar


def dd_residual(sc: StructureConstants) -> float:
    """Largest coefficient of d(d phi_i) over all generators i.

    Vanishes exactly when the structure constants satisfy the
    first-Bianchi identities; reported raw, in coefficient units.
    """
    worst = 0.0
    for i in range(1, sc.n + 1):
        worst = max(worst, InvariantForm.phi(sc.n, i).d(sc).d(sc).sup())
    return worst


def del_and_delbar(
    sc: StructureConstants, form: InvariantForm
) -> tuple[InvariantForm, InvariantForm]:
    """(del a, delbar a) for a homogeneous form a of type (p, q).

    They are the (p+1, q) and (p, q+1) parts of da; nothing is lost
    because d phi_i has no (0,2) part in this encoding, so d maps each
    pure bidegree into the two adjacent ones only.  A mixed-degree
    input raises TypeError.
    """
    degs = form.bidegrees()
    if len(degs) > 1:
        raise TypeError(f"a homogeneous form is required, got bidegrees {sorted(degs)}")
    if not degs:
        return InvariantForm.zero(form.n), InvariantForm.zero(form.n)
    (p, q), = degs
    da = form.d(sc)
    return da.component(p + 1, q), da.component(p, q + 1)


def hermitian_coefficients(form: InvariantForm, *, tol: float = DEFAULT_CONFIG.tol_alg) -> np.ndarray:
    """Coefficient matrix h of a real (1,1) form a = i sum h_{jk} phi_j ^ conj(phi_k).

    Raises TypeError when the form has components outside bidegree
    (1,1) or when h fails to be Hermitian within tol (relative), i.e.
    the form is not real.
    """
    n = form.n
    if not form.bidegrees() <= {(1, 1)}:
        raise TypeError(f"a (1,1) form is required, got bidegrees {sorted(form.bidegrees())}")
    h = np.zeros((n, n), dtype=complex)
    for (P, Q), c in form.terms.items():
        h[P[0] - 1, Q[0] - 1] = c / 1j
    scale = max(1.0, float(np.max(np.abs(h))) if h.size else 1.0)
    herm_res = float(np.max(np.abs(h - h.conj().T))) if h.size else 0.0
    if herm_res > tol * scale:
        raise TypeError(f"the form is not real: coefficient matrix is {herm_res:.3e} from Hermitian")
    return (h + h.conj().T) / 2.0

