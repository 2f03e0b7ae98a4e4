"""Shared corpus builders for the test suite.

Everything random is drawn from an explicitly seeded generator so
failures reproduce.  The Jacobi-exact corpus is built by applying
well-conditioned frame changes to instances whose identities hold by
construction (family instances, the catalog algebras, abelian ones);
violators perturb a valid instance and are rejection-sampled against
the tensor-contraction Bianchi oracle, which is independent of the
exterior-calculus route under test.
"""

from importlib import resources

import numpy as np
import pytest

from hskahler import (
    AlgebraDocument,
    RealLieAlgebra,
    StructureConstants,
    canonical_frame,
    change_frame,
    complexify_and_extract,
    generate_family,
    load,
)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diagonal(r))


def random_invertible(rng: np.random.Generator, n: int) -> np.ndarray:
    """Condition number kept below ~4 so roundoff stays far from tolerances."""
    u = random_unitary(rng, n)
    v = random_unitary(rng, n)
    s = rng.uniform(0.6, 1.8, size=n)
    return (u * s) @ v


def random_posdef(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    g = a @ a.conj().T / n + 0.5 * np.eye(n)
    return (g + g.conj().T) / 2.0


def unitary(sc: StructureConstants, g) -> StructureConstants:
    """The constants in a g-unitary frame, where the metric g = L L^* is
    the identity: the frame the metric class checks decide in."""
    return change_frame(sc, np.linalg.cholesky(np.asarray(g, dtype=complex)))


FAMILY_GRID = [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (2, 6), (3, 6)]


def catalog_doc(name: str) -> AlgebraDocument:
    with resources.as_file(resources.files("hskahler") / "catalog" / f"{name}.json") as p:
        return load(p)


def abelian_sc(n: int) -> StructureConstants:
    zero = np.zeros((n, n, n), dtype=complex)
    return StructureConstants(zero, zero.copy())


def aff_sc() -> StructureConstants:
    C = np.zeros((2, 2, 2), dtype=complex)
    C[1, 0, 1] = -1.0
    C[1, 1, 0] = 1.0
    return StructureConstants(C, np.zeros((2, 2, 2), dtype=complex))


def kt_real():
    """The nilpotent Kodaira-Thurston data: one bracket, standard J."""
    f = np.zeros((4, 4, 4))
    f[3, 0, 1] = np.sqrt(2.0)
    f[3, 1, 0] = -np.sqrt(2.0)
    J = np.zeros((4, 4))
    J[1, 0] = 1.0
    J[0, 1] = -1.0
    J[3, 2] = 1.0
    J[2, 3] = -1.0
    return f, J, np.eye(4)


def kt_sc() -> StructureConstants:
    """Kodaira-Thurston in the unitary frame of its standard metric."""
    f, J, _ = kt_real()
    return complexify_and_extract(RealLieAlgebra(f), J, canonical_frame(J))


def admissible_constants(sc: StructureConstants, dec) -> StructureConstants:
    """The constants of the admissible frame E K of ``dec``, for those of E."""
    return change_frame(sc, np.linalg.inv(dec.K).T)


def base_pool() -> list[StructureConstants]:
    """Jacobi-exact seeds with n <= 5, reused by the randomizers."""
    pool = [abelian_sc(2), abelian_sc(4), aff_sc()]
    for seed, (r, n) in enumerate(FAMILY_GRID):
        if n <= 5:
            pool.append(generate_family(r, n, seed=100 + seed).sc)
    kt = catalog_doc("kodaira_thurston")
    alg, J, G = kt.build_real()
    pool.append(complexify_and_extract(alg, J, canonical_frame(J)))
    return pool


_POOL: list[StructureConstants] | None = None


def jacobi_pool() -> list[StructureConstants]:
    global _POOL
    if _POOL is None:
        _POOL = base_pool()
    return _POOL


def random_jacobi_sc(rng: np.random.Generator) -> StructureConstants:
    base = jacobi_pool()[rng.integers(len(jacobi_pool()))]
    return change_frame(base, random_invertible(rng, base.n))


def random_violator(rng: np.random.Generator) -> StructureConstants:
    """A perturbed instance that measurably breaks the Bianchi identities."""
    for _ in range(64):
        base = random_jacobi_sc(rng)
        n = base.n
        dC = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
        dC = (dC - dC.swapaxes(1, 2)) / 2.0
        dD = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
        sc = StructureConstants(base.C + 0.7 * dC, base.D + 0.7 * dD, validate=False)
        if sc.bianchi_residual() > 1e-2:
            return sc
    raise AssertionError("could not draw a Bianchi violator")


def align_columns(got: np.ndarray, want: np.ndarray) -> float:
    """Worst entry gap after the best column-permutation match.

    Columns of the eigenvalue data index core directions, whose only
    residual freedom is a relabeling.  Greedy nearest-column assignment
    is adequate here because matched columns agree to roundoff while
    distinct ones differ at order one.
    """
    if got.shape != want.shape:
        return float("inf")
    cols = list(range(want.shape[1]))
    worst = 0.0
    for j in range(got.shape[1]):
        gaps = [np.max(np.abs(got[:, j] - want[:, i])) for i in cols]
        k = int(np.argmin(gaps))
        worst = max(worst, gaps[k])
        cols.pop(k)
    return worst


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(2718)
