from fractions import Fraction

import pytest

from helpers import enumerate_field_polynomials
from multislice.fields import (
    FieldPolynomial,
    field_monomials,
    grid_minimum_matches_formula,
    is_prime,
    min_nonzero_fraction,
)
from multislice.juntas import odlsz_delta
from multislice.seeding import derive_rng


def test_is_prime():
    assert [p for p in range(14) if is_prime(p)] == [2, 3, 5, 7, 11, 13]


def test_field_polynomial_validation():
    with pytest.raises(ValueError):
        FieldPolynomial(4, 2, {})
    with pytest.raises(ValueError):
        FieldPolynomial(3, 2, {(3, 0): 1})  # individual degree cap is p-1
    with pytest.raises(ValueError):
        FieldPolynomial(3, 2, {(1,): 1})
    # zero coefficients are dropped
    assert FieldPolynomial(3, 2, {(1, 0): 3}).is_zero


def test_evaluate():
    # x^2 + y over F_3
    p = FieldPolynomial(3, 2, {(2, 0): 1, (0, 1): 1})
    assert p.evaluate((1, 2)) == 0
    assert p.evaluate((2, 2)) == 0
    assert p.evaluate((1, 1)) == 2
    assert p.total_degree() == 2


def test_enumeration_counts():
    assert len(field_monomials(2, 2, 1)) == 3
    assert sum(1 for _ in enumerate_field_polynomials(2, 2, 1)) == 8
    assert len(field_monomials(3, 2, 2)) == 6


@pytest.mark.parametrize(
    "p,n,d",
    [(2, 2, 1), (2, 3, 1), (2, 3, 2), (3, 2, 1), (3, 2, 2)],
)
def test_grid_minimum_equals_formula(p, n, d):
    got, formula = grid_minimum_matches_formula(p, n, d)
    assert got == formula == odlsz_delta(p, d)


def test_slice_minimum_small_case():
    # degree-1 polynomials mod 2 that survive on the (2,2) slice cover >= 1/3
    assert min_nonzero_fraction(2, 4, 1, on_slice=True) == Fraction(1, 3)


def test_sampled_mode_bounds_exhaustive():
    rng = derive_rng(12, "field-sample")
    exact = min_nonzero_fraction(3, 2, 2)
    sampled = min_nonzero_fraction(3, 2, 2, mode="sampled", rng=rng, samples=300)
    assert sampled >= exact
    with pytest.raises(ValueError):
        min_nonzero_fraction(3, 2, 2, mode="sampled")
    with pytest.raises(ValueError):
        min_nonzero_fraction(3, 2, 2, mode="typo")
