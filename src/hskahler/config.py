"""Tolerance and seed configuration.

All numerical decisions in the package go through a `Config`.  The
defaults below are the documented contract; tests pin them.  Every
tolerance is absolute or explicitly relative, as noted, and meets
constants the analysis has divided by their magnitude.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class Config:
    # absolute, for algebraic identities on unit-scale constants
    tol_alg: float = 1e-9
    # absolute, for Jacobi / first-Bianchi residuals
    tol_jacobi: float = 1e-8
    # relative to the largest singular value: algebra._rank and _conditioned
    tol_rank: float = 1e-8
    # scaled by max(1, ||rhs||) of the unit-scale HS system
    tol_feas: float = 1e-8
    # absolute, for the closure of certificates on unit-scale constants
    tol_cert: float = 1e-8
    # relative to the spectral scale: joint-diagonalization residuals and gaps
    tol_diag: float = 1e-8
    # seed for the randomized HS metric search (joint diagonalization is
    # deterministic and takes no seed)
    seed: int = 0

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


DEFAULT_CONFIG = Config()

TOOL_VERSION = "0.1.0"


def _cfg(cfg: Config | None) -> Config:
    return DEFAULT_CONFIG if cfg is None else cfg
