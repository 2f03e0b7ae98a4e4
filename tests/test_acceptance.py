"""Acceptance gate: the seven package-level criteria, one test each.

Every test asserts the full criterion at its stated tolerance and
prints a single summary line with the measured numbers, so a verbose
run reads as a checklist.  Helpers come from conftest; nothing here is
mocked or relaxed.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import (
    FAMILY_GRID,
    catalog_doc,
    jacobi_pool,
    random_invertible,
    random_jacobi_sc,
    random_posdef,
    random_unitary,
    random_violator,
    unitary,
)

from hskahler.algebra import StructureConstants, change_frame
from hskahler.analysis import run_analysis
from hskahler.forms import dd_residual
from hskahler.kahler import claims_pipeline, generate_family, kahlerize
from hskahler.metrics import (
    chern_torsion,
    chern_torsion_unitary,
    hs_decide,
    kahler_check,
    pluriclosed_check,
)
from hskahler.solvable import (
    admissible_from_frame,
    verify_bianchi_blocks,
    verify_hs_blocks,
    verify_restrictions,
)


def _transform_torsion(T: np.ndarray, A: np.ndarray) -> np.ndarray:
    Ainv = np.linalg.inv(A)
    return np.einsum("xb,ay,cz,xyz->bac", A, Ainv, Ainv, T)


def test_criterion_1_calculus_soundness():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst_good = 0.0
    for _ in range(200):
        sc = random_jacobi_sc(rng)
        worst_good = max(worst_good, dd_residual(sc))
    assert worst_good <= 1e-9
    least_bad = np.inf
    for _ in range(200):
        sc = random_violator(rng)
        least_bad = min(least_bad, dd_residual(sc))
    assert least_bad > 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(
        f"\ncriterion 1 PASS: 200 Jacobi instances dd <= {worst_good:.2e}, "
        f"200 violators dd >= {least_bad:.2e}, {elapsed:.2f}s"
    )


def test_criterion_2_torsion_correctness():
    rng = np.random.default_rng(102)
    worst_closed = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        C = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
        D = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
        sc = StructureConstants(C, D, validate=False)  # no Jacobi needed here
        gap = np.max(np.abs(chern_torsion(sc, np.eye(n)) - chern_torsion_unitary(sc)))
        worst_closed = max(worst_closed, float(gap))
    assert worst_closed <= 1e-12
    worst_tensor = 0.0
    pool = jacobi_pool()
    for k in range(100):
        sc = pool[k % len(pool)]
        g = random_posdef(rng, sc.n)
        A = random_invertible(rng, sc.n)
        Ainv = np.linalg.inv(A)
        moved_sc = change_frame(sc, A)
        moved_g = Ainv @ g @ Ainv.conj().T
        direct = chern_torsion(moved_sc, moved_g)
        pulled = _transform_torsion(chern_torsion(sc, g), A)
        worst_tensor = max(worst_tensor, float(np.max(np.abs(direct - pulled))))
    assert worst_tensor <= 1e-9
    print(
        f"\ncriterion 2 PASS: closed form gap <= {worst_closed:.2e} (100 instances), "
        f"tensoriality gap <= {worst_tensor:.2e} (100 frame changes)"
    )


def test_criterion_3_hs_implies_pluriclosed():
    rng = np.random.default_rng(103)
    cases = 0
    counterexamples = []

    def check(sc, g, tag):
        nonlocal cases
        sol = hs_decide(sc, g)
        if not sol.feasible:
            return
        cases += 1
        if not pluriclosed_check(unitary(sc, g)).passed:
            counterexamples.append(tag)

    for r, n in FAMILY_GRID:
        for k in range(3):
            fam = generate_family(r, n, seed=1000 + 17 * k + 10 * r + n)
            check(fam.sc, fam.g, f"family r={r} n={n} draw {k}")
    for name in ("torus", "kodaira_thurston", "family_r1n2", "family_r2n5", "aff_complex"):
        doc = catalog_doc(name)
        if doc.mode == "complex":
            sc, g, _ = doc.build_complex()
        else:
            from hskahler.algebra import canonical_frame, complexify_and_extract
            from hskahler.metrics import frame_metric_from_real

            alg, J, G = doc.build_real()
            frame = canonical_frame(J)
            sc = complexify_and_extract(alg, J, frame)
            g = frame_metric_from_real(G, frame).g
        check(sc, g, f"catalog {name}")
    for k in range(40):
        base = jacobi_pool()[k % len(jacobi_pool())]
        A = random_invertible(rng, base.n)
        moved = change_frame(base, A)
        Ainv = np.linalg.inv(A)
        check(moved, Ainv @ np.eye(base.n) @ Ainv.conj().T, f"moved pool {k}")
        check(base, random_posdef(rng, base.n), f"pool {k} random metric")
    assert cases >= 40  # the implication must actually get exercised
    assert counterexamples == []
    print(f"\ncriterion 3 PASS: 0 counterexamples in {cases} feasible cases")


def test_criterion_4_kodaira_thurston_negative_control():
    start = time.perf_counter()
    rep = run_analysis(catalog_doc("kodaira_thurston"))
    elapsed = time.perf_counter() - start
    rec = {r.check_id: r for r in rep.records}
    assert rec["pluriclosed"].status == "pass"
    assert rec["kahler"].status == "fail"
    assert rec["hs_feasible"].status == "fail"
    assert rep.hs["lstsq_residual"] >= 0.3
    assert rec["restriction2"].status == "fail"
    assert elapsed < 0.1
    print(
        f"\ncriterion 4 PASS: pluriclosed yes, Kähler no, hs residual "
        f"{rep.hs['lstsq_residual']:.4f} >= 0.3, restriction2 fails, {elapsed * 1000:.0f}ms"
    )


def test_criterion_5_family_positive_control():
    start = time.perf_counter()
    worst = {"hs": 0.0, "restr": 0.0, "blocks": 0.0, "claims": 0.0, "cert": 0.0,
             "p": 0.0, "lam": 0.0}
    count = 0
    while count < 50:
        r, n = FAMILY_GRID[count % len(FAMILY_GRID)]
        fam = generate_family(r, n, seed=5000 + count)
        count += 1

        sol = hs_decide(fam.sc, fam.g)
        assert sol.feasible
        worst["hs"] = max(worst["hs"], sol.residual)

        dec = admissible_from_frame(fam.sc)
        for chk in verify_restrictions(dec, fam.sc).values():
            worst["restr"] = max(worst["restr"], chk.residual)
        for chk in verify_bianchi_blocks(dec, fam.sc).values():
            worst["blocks"] = max(worst["blocks"], chk.residual)
        for chk in verify_hs_blocks(dec, fam.sc, fam.S).values():
            worst["blocks"] = max(worst["blocks"], chk.residual)

        rec = claims_pipeline(dec, fam.sc, fam.S)
        worst["claims"] = max(worst["claims"], rec.worst())

        cert = kahlerize(dec, fam.sc, fam.S)
        worst["cert"] = max(worst["cert"], cert.residuals["d_omega_tilde"])
        worst["p"] = max(worst["p"], float(np.max(np.abs(cert.p - fam.p))))
        worst["lam"] = max(worst["lam"], float(np.max(np.abs(cert.lam - fam.lam))))

    elapsed = time.perf_counter() - start
    assert worst["hs"] <= 1e-9
    assert worst["restr"] <= 1e-8
    assert worst["blocks"] <= 1e-8
    assert worst["claims"] <= 1e-8
    assert worst["cert"] <= 1e-8
    assert worst["p"] <= 1e-9
    # the generator canonicalizes column order, so "up to the documented
    # alignment" collapses to verbatim recovery
    assert worst["lam"] <= 1e-9
    assert elapsed < 30.0
    print(
        f"\ncriterion 5 PASS: 50 instances, hs <= {worst['hs']:.1e}, "
        f"restrictions <= {worst['restr']:.1e}, blocks <= {worst['blocks']:.1e}, "
        f"claims <= {worst['claims']:.1e}, cert <= {worst['cert']:.1e}, "
        f"p gap <= {worst['p']:.1e}, lam gap <= {worst['lam']:.1e}, {elapsed:.1f}s"
    )


def test_criterion_6_trivial_fixed_points():
    rep = run_analysis(catalog_doc("torus"))
    assert rep.verdict == "Kähler"
    assert np.max(np.abs(np.asarray(rep.hs["S"]))) == 0.0

    rng = np.random.default_rng(106)
    lam = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    fam = generate_family(2, 5, lam, np.zeros(2))
    assert kahler_check(unitary(fam.sc, fam.g)).passed
    dec = admissible_from_frame(fam.sc)
    cert = kahlerize(dec, fam.sc, fam.S)
    assert np.array_equal(cert.psi_coeffs, np.eye(5, dtype=complex))
    print("\ncriterion 6 PASS: torus verdict Kähler with S = 0; p = 0 family is "
          "Kähler with psi = phi")


def test_criterion_7_byte_identical_reports():
    commands = (
        ["analyze", "family_r2n5"],
        ["kahlerize", "family_r1n2"],
        ["hs", "kodaira_thurston", "--search", "--restarts", "2", "--budget", "60",
         "--seed", "7"],
    )
    for tail in commands:
        cmd = [sys.executable, "-m", "hskahler.cli", *tail, "--json-only"]
        first = subprocess.run(cmd, capture_output=True).stdout
        second = subprocess.run(cmd, capture_output=True).stdout
        assert first and first == second, f"report bytes differ for {' '.join(tail)}"
        json.loads(first)  # and they are valid JSON
    print(f"\ncriterion 7 PASS: {len(commands)} commands byte-identical across runs")
