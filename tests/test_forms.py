"""Exterior calculus on invariant forms.

The graded identities (wedge sign rule, Leibniz, d squared, conjugation
commuting with d) are exercised with hypothesis over random small
forms, since they must hold coefficient-exactly for any input, not just
for geometrically meaningful ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hskahler import (
    InvariantForm,
    dd_residual,
    del_and_delbar,
    hermitian_coefficients,
    kahler_form,
)
from hskahler.forms import _coframe_differentials

from conftest import aff_sc, jacobi_pool, random_jacobi_sc, random_posdef

N = 3


def refit(form: InvariantForm, n: int) -> InvariantForm:
    """The same term dict over an n-frame, dropping out-of-range indices."""
    return InvariantForm(
        n,
        {k: c for k, c in form.terms.items() if all(i <= n for i in k[0] + k[1])},
    )


def coeff():
    part = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, width=32)
    return st.tuples(part, part).map(lambda t: complex(*t))


def one_form(n: int = N):
    """A random 1-form sum a_i phi_i + b_i phibar_i."""
    return st.lists(coeff(), min_size=2 * n, max_size=2 * n).map(
        lambda cs: sum(
            (cs[i] * InvariantForm.phi(n, i + 1) for i in range(n)),
            InvariantForm.zero(n),
        )
        + sum(
            (cs[n + i] * InvariantForm.phibar(n, i + 1) for i in range(n)),
            InvariantForm.zero(n),
        )
    )


@given(one_form(), one_form())
@settings(max_examples=60, deadline=None)
def test_wedge_anticommutes_on_one_forms(a, b):
    lhs = a.wedge(b)
    rhs = b.wedge(a)
    assert (lhs + rhs).sup() <= 1e-9 * max(1.0, a.sup() * b.sup())


@given(one_form())
@settings(max_examples=40, deadline=None)
def test_one_form_squares_to_zero(a):
    assert a.wedge(a).sup() <= 1e-9 * max(1.0, a.sup() ** 2)


@given(one_form(), one_form(), one_form())
@settings(max_examples=40, deadline=None)
def test_wedge_associative(a, b, c):
    lhs = a.wedge(b).wedge(c)
    rhs = a.wedge(b.wedge(c))
    assert (lhs - rhs).sup() <= 1e-9 * max(1.0, a.sup() * b.sup() * c.sup())


@given(one_form(), one_form(), st.integers(0, len(jacobi_pool()) - 1))
@settings(max_examples=60, deadline=None)
def test_leibniz_on_one_forms(a, b, k):
    sc = jacobi_pool()[k]
    a = refit(a, sc.n)
    b = refit(b, sc.n)
    lhs = a.wedge(b).d(sc)
    rhs = a.d(sc).wedge(b) - a.wedge(b.d(sc))
    scale = max(1.0, (a.sup() + b.sup()) ** 2 * max(1.0, sc.magnitude()))
    assert (lhs - rhs).sup() <= 1e-9 * scale


@given(one_form(), one_form())
@settings(max_examples=40, deadline=None)
def test_leibniz_degree_two_times_one(a, b):
    sc = aff_sc()
    a = refit(a, 2)
    b = refit(b, 2)
    two = a.wedge(b)
    c = InvariantForm.phi(2, 1) + InvariantForm.phibar(2, 2)
    lhs = two.wedge(c).d(sc)
    rhs = two.d(sc).wedge(c) + two.wedge(c.d(sc))
    assert (lhs - rhs).sup() <= 1e-9 * max(1.0, a.sup() * b.sup() * 4.0)


@given(one_form())
@settings(max_examples=40, deadline=None)
def test_d_commutes_with_conjugation(a):
    sc = jacobi_pool()[2]
    a = refit(a, sc.n)
    gap = a.conj().d(sc) - a.d(sc).conj()
    assert gap.sup() == 0.0


def test_dd_vanishes_on_jacobi_corpus(rng):
    for _ in range(10):
        sc = random_jacobi_sc(rng)
        assert dd_residual(sc) <= 1e-9


def test_structure_equation_on_affine_algebra():
    """C^2_{12} = -1 means d phi_2 = phi_1 ^ phi_2 and d phi_1 = 0."""
    sc = aff_sc()
    d2 = InvariantForm.phi(2, 2).d(sc)
    want = InvariantForm.phi(2, 1).wedge(InvariantForm.phi(2, 2))
    assert (d2 - want).sup() == 0.0
    assert InvariantForm.phi(2, 1).d(sc).is_zero()


def test_component_partition_and_bidegrees():
    a = InvariantForm.phi(3, 1).wedge(InvariantForm.phibar(3, 2)) + InvariantForm.phi(
        3, 2
    ).wedge(InvariantForm.phi(3, 3))
    assert a.bidegrees() == {(1, 1), (2, 0)}
    total = InvariantForm.zero(3)
    for (p, q) in a.bidegrees():
        total = total + a.component(p, q)
    assert (total - a).is_zero()
    assert a.component(0, 2).is_zero()


def test_del_delbar_decompose_d():
    sc = jacobi_pool()[2]  # the affine algebra
    a = InvariantForm.phi(sc.n, 1).wedge(InvariantForm.phibar(sc.n, 1))
    dela, delbara = del_and_delbar(sc, a)
    assert (dela + delbara - a.d(sc)).is_zero()
    assert dela.bidegrees() <= {(2, 1)}
    assert delbara.bidegrees() <= {(1, 2)}
    mixed = a + InvariantForm.phi(sc.n, 1)
    with pytest.raises(TypeError):
        del_and_delbar(sc, mixed)


def test_hermitian_coefficients_round_trip(rng):
    for n in (1, 2, 4):
        g = random_posdef(rng, n)
        got = hermitian_coefficients(kahler_form(g))
        np.testing.assert_allclose(got, g, atol=1e-13)


def test_hermitian_coefficients_rejects_non_real():
    a = 1j * InvariantForm.phi(2, 1).wedge(InvariantForm.phibar(2, 2))
    with pytest.raises(TypeError):
        hermitian_coefficients(a)
    with pytest.raises(TypeError):
        hermitian_coefficients(InvariantForm.phi(2, 1))


def test_prune_sup_zero():
    a = InvariantForm(2, {((1,), ()): 1e-16, ((2,), ()): 0.5})
    assert a.sup() == 0.5
    pruned = a.prune(1e-14)
    assert pruned.terms == {((2,), ()): 0.5}
    assert InvariantForm.zero(2).is_zero()
    assert InvariantForm.scalar(2, 3.0).sup() == 3.0


def test_key_normalization_and_signs():
    # phi_2 ^ phi_1 stored directly must equal -(phi_1 ^ phi_2)
    a = InvariantForm(2, {((2, 1), ()): 1.0})
    b = InvariantForm(2, {((1, 2), ()): -1.0})
    assert (a - b).is_zero()
    # repeated index collapses to zero
    assert InvariantForm(2, {((1, 1), ()): 1.0}).is_zero()


def test_coframe_differentials_are_built_once_per_constants():
    sc = aff_sc()
    first = _coframe_differentials(sc)
    assert _coframe_differentials(sc) is first
    other = _coframe_differentials(aff_sc())
    assert other is not first and other == first
    phi = InvariantForm.phi(sc.n, 1)
    assert phi.d(sc).terms == phi.d(aff_sc()).terms
