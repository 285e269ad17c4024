import itertools
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from multislice.groups import AbelianGroup
from multislice.juntas import (
    JuntaPolynomial,
    ball_interpolation_coeffs,
    ball_points,
    balanced_fraction_bound,
    enumerate_polynomials,
    from_truth_table,
    grid_distance,
    grid_min_nonzero,
    grid_points,
    grid_rank,
    min_slice_nonzero_prime,
    monomial_value,
    monomials_up_to,
    multislice_nonzero_count,
    normalize_monomial,
    odlsz_delta,
    poly_distance,
    random_polynomial,
    slice_nonzero_lower_bound,
)
from multislice.seeding import derive_rng
from multislice.slices import SliceSpec, enumerate_slice, multinomial, slice_size

Z2 = AbelianGroup.cyclic(2)
Z3 = AbelianGroup.cyclic(3)
Z4 = AbelianGroup.cyclic(4)
Z6 = AbelianGroup.cyclic(6)


def test_normalize_monomial():
    assert normalize_monomial([(3, 1), (0, 2)], 3, 4) == ((0, 2), (3, 1))
    with pytest.raises(ValueError):
        normalize_monomial([(0, 0)], 2, 4)  # letter 0 is the constant
    with pytest.raises(ValueError):
        normalize_monomial([(0, 2)], 2, 4)
    with pytest.raises(ValueError):
        normalize_monomial([(4, 1)], 2, 4)
    with pytest.raises(ValueError):
        normalize_monomial([(1, 1), (1, 1)], 2, 4)


def test_evaluate_indicator_semantics():
    p = JuntaPolynomial(2, 3, Z2, {((0, 1),): (1,)})
    assert p.evaluate(bytes([1, 0, 0])) == (1,)
    assert p.evaluate(bytes([0, 1, 1])) == (0,)
    zero = JuntaPolynomial.zero(2, 3, Z2)
    assert zero.evaluate(bytes([1, 1, 1])) == (0,)
    assert zero.is_zero and zero.junta_degree() == 0


def test_constant_and_degree():
    c = JuntaPolynomial.constant(3, 4, Z6, (5,))
    assert all(v == (5,) for v in c.truth_table())
    assert c.junta_degree() == 0 and not c.is_zero
    p = JuntaPolynomial(3, 4, Z6, {((0, 1), (2, 2)): (1,)})
    assert p.junta_degree() == 2


def test_from_truth_table_single_indicator():
    # f = [x_0 = 2] over the 3-letter grid, coefficients in Z_2
    table = [(1,) if x[0] == 2 else (0,) for x in grid_points(3, 2)]
    p = from_truth_table(3, 2, Z2, table)
    assert p.coeffs == {((0, 2),): (1,)}


def test_from_truth_table_constant():
    table = [(4,)] * 9
    p = from_truth_table(3, 2, Z6, table)
    assert p.coeffs == {(): (4,)}


def test_round_trip_on_all_tables():
    for group in (Z2, Z6):
        for combo in itertools.product(list(group.elements()), repeat=4):
            p = from_truth_table(2, 2, group, list(combo))
            assert p.truth_table() == combo
    for combo in itertools.product([(0,), (1,)], repeat=9):
        p = from_truth_table(3, 2, Z2, list(combo))
        assert p.truth_table() == combo


def test_round_trip_on_all_small_polynomials():
    for p in enumerate_polynomials(2, 2, 2, Z2):
        assert from_truth_table(2, 2, Z2, p.truth_table()) == p


def test_round_trip_on_random_polynomials():
    rng = derive_rng(5, "junta-roundtrip")
    for _ in range(100):
        p = random_polynomial(3, 4, 2, Z4, rng, terms=6)
        assert from_truth_table(3, 4, Z4, p.truth_table()) == p


def test_junta_degree_from_truth_table():
    rng = derive_rng(6, "degree")
    p = random_polynomial(2, 4, 1, Z2, rng)
    assert from_truth_table(2, 4, Z2, p.truth_table()).junta_degree() <= 1
    bump = p + JuntaPolynomial(2, 4, Z2, {((0, 1), (1, 1)): (1,)})
    assert from_truth_table(2, 4, Z2, bump.truth_table()).junta_degree() == 2
    assert bump.junta_degree() == 2


@given(st.integers(0, 3), st.integers(0, 3))
@settings(deadline=None, max_examples=20)
def test_addition_matches_pointwise(seed_a, seed_b):
    rng = derive_rng(7, "add", seed_a, seed_b)
    p = random_polynomial(2, 3, 2, Z6, rng)
    q = random_polynomial(2, 3, 2, Z6, rng)
    total = p + q
    for x in grid_points(2, 3):
        assert total.evaluate(x) == Z6.add(p.evaluate(x), q.evaluate(x))
    assert (p - p).is_zero
    assert (-p + p).is_zero


def test_grid_distance_single_monomial_difference():
    rng = derive_rng(8, "dist")
    for s, d in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        n = 4
        p = random_polynomial(s, n, d, AbelianGroup.cyclic(5), rng)
        mono = tuple((i, 1) for i in range(d))
        q = p + JuntaPolynomial(s, n, AbelianGroup.cyclic(5), {mono: (2,)})
        assert poly_distance(p, q) == Fraction(1, s**d)
    assert grid_distance([(0,)] * 4, [(0,)] * 4) == 0
    with pytest.raises(ValueError):
        grid_distance([(0,)], [(0,), (0,)])


@pytest.mark.parametrize(
    "s,n,d,group",
    [(2, 3, 1, Z2), (2, 4, 2, Z2), (3, 2, 1, Z3)],
)
def test_min_grid_nonzero_is_tight(s, n, d, group):
    best, count = grid_min_nonzero(s, n, d, group)
    assert best == s ** (n - d)
    assert count == group.order ** len(monomials_up_to(s, n, d)) - 1


def test_multislice_nonzero_counts():
    spec = SliceSpec.balanced(2, 4)
    assert multislice_nonzero_count(JuntaPolynomial.zero(2, 4, Z2), spec) == 0
    bound = slice_nonzero_lower_bound((2, 2), 1)
    assert bound == multinomial(2, [1, 1]) == 2
    for p in enumerate_polynomials(2, 4, 1, Z2):
        nz = multislice_nonzero_count(p, spec)
        if nz:
            assert nz >= bound


def test_slice_nonzero_lower_bound_validates():
    with pytest.raises(ValueError):
        slice_nonzero_lower_bound((1, 1), 2)


def test_min_slice_nonzero_prime_matches_brute_force():
    seen = set()
    spec = SliceSpec.balanced(2, 4)
    for p in enumerate_polynomials(2, 4, 1, Z2):
        vec = tuple(p.evaluate(x) for x in enumerate_slice(spec))
        seen.add(vec)
    nonzero_counts = [
        sum(1 for v in vec if v != (0,)) for vec in seen if any(v != (0,) for v in vec)
    ]
    best, total = min_slice_nonzero_prime(2, 4, 1, 2)
    assert best == min(nonzero_counts)
    assert total == len(nonzero_counts)


def test_balanced_slice_fraction_bound():
    # every nonzero-on-slice degree-1 polynomial covers >= 1/(s*d)^(s*d)
    best, _ = min_slice_nonzero_prime(2, 6, 1, 2)
    n_points = slice_size(SliceSpec.balanced(2, 6))
    assert best >= slice_nonzero_lower_bound((3, 3), 1)
    assert Fraction(best, n_points) >= balanced_fraction_bound(2, 1)
    assert balanced_fraction_bound(2, 1) == Fraction(1, 4)
    assert balanced_fraction_bound(3, 0) == 1


def test_odlsz_delta_values():
    assert odlsz_delta(3, 1) == Fraction(2, 3)
    assert odlsz_delta(3, 2) == Fraction(1, 3)
    assert odlsz_delta(2, 0) == 1
    assert odlsz_delta(2, 1) == Fraction(1, 2)
    assert odlsz_delta(2, 3) == Fraction(1, 8)
    assert odlsz_delta(5, 6) == (1 - Fraction(2, 5)) / 5


def test_ball_points_size_and_radius():
    for s, m, d in [(2, 4, 2), (3, 3, 1), (3, 4, 2)]:
        center = bytes([1] * m)
        ball = ball_points(s, m, d, center)
        expected = sum(
            multinomial(m, [j, m - j]) * (s - 1) ** j for j in range(d + 1)
        )
        assert len(ball) == len(set(ball)) == expected
        for b in ball:
            assert sum(1 for u, v in zip(b, center) if u != v) <= d


def test_ball_interpolation_worked_example():
    coeffs = ball_interpolation_coeffs(2, 2, 1, (1, 1))
    assert coeffs == {bytes([1, 1]): -1, bytes([0, 1]): 1, bytes([1, 0]): 1}
    assert ball_interpolation_coeffs(3, 3, 0, (2, 1, 0)) == {bytes([2, 1, 0]): 1}


def test_ball_interpolation_on_monomial_basis():
    for s, m, d in [(2, 3, 2), (3, 3, 1), (3, 3, 2)]:
        center = bytes([(i % (s - 1)) + 1 for i in range(m)])
        coeffs = ball_interpolation_coeffs(s, m, d, center)
        origin = bytes(m)
        for mono in monomials_up_to(s, m, d):
            lhs = monomial_value(mono, origin)
            rhs = sum(a * monomial_value(mono, b) for b, a in coeffs.items())
            assert lhs == rhs


def test_ball_interpolation_on_random_junta_sums():
    rng = derive_rng(9, "ball")
    s, m, d = 3, 4, 2
    center = bytes([1, 2, 1, 2])
    coeffs = ball_interpolation_coeffs(s, m, d, center)
    for _ in range(20):
        p = random_polynomial(s, m, d, Z6, rng)
        acc = Z6.zero
        for b, a in coeffs.items():
            acc = Z6.add(acc, Z6.scale(p.evaluate(b), a))
        assert acc == p.evaluate(bytes(m))


def test_json_round_trip():
    rng = derive_rng(10, "json")
    p = random_polynomial(3, 5, 2, AbelianGroup((2, 3)), rng, terms=4)
    blob = p.to_json()
    assert blob["group"] == [2, 3]
    assert JuntaPolynomial.from_json(blob) == p


def test_grid_rank_matches_enumeration_order():
    pts = grid_points(3, 3)
    for i, x in enumerate(pts):
        assert grid_rank(x, 3) == i
