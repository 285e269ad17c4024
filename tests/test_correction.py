"""Error-reduction gadgets, brute-force decoding, certified interpolating
sets, and the constant-query corrector for bounded-exponent groups."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multislice.budget import CapacityError
from multislice.correction import (
    FunctionOracle,
    Gadget,
    NoisyOracle,
    SearchFailure,
    _plurality,
    _zeroed_ball_coeffs,
    base_reduce,
    biased_cube_correct,
    brute_force_unique_decode,
    build_gadget,
    build_interpolating_set,
    digit_sum,
    hitting_set,
    kummer_valuation,
    noisy_convolution_check,
    recursive_reduce,
    rho_noisy_distribution,
    subgrid_error_reduce,
    torsion_correct,
    torsion_scheme,
)
from multislice.groups import AbelianGroup
from multislice.juntas import (
    ball_interpolation_coeffs,
    enumerate_polynomials,
    grid_points,
    random_polynomial,
)
from multislice.seeding import derive_rng
from multislice.subgrids import random_subgrid

Z2 = AbelianGroup((2,))
Z3 = AbelianGroup((3,))
Z4 = AbelianGroup((4,))
Z6 = AbelianGroup((6,))
Z2xZ2 = AbelianGroup((2, 2))


# ---------------------------------------------------------------------------
# number theory


def test_digit_sums():
    assert digit_sum(5, 2) == 2
    assert digit_sum(0, 3) == 0
    assert digit_sum(26, 3) == 2 + 2 + 2
    with pytest.raises(ValueError):
        digit_sum(-1, 2)


def test_kummer_examples():
    assert kummer_valuation(4, 2, 2) == 1  # C(4,2) = 6
    assert kummer_valuation(9, 8, 2) == 0  # C(9,8) = 9
    assert kummer_valuation(8, 7, 2) == 3  # C(8,7) = 8
    with pytest.raises(ValueError):
        kummer_valuation(2, 3, 2)


@given(st.integers(0, 60), st.integers(0, 60), st.sampled_from([2, 3, 5, 7]))
def test_kummer_matches_binomial_valuation(a, b, p):
    if b > a:
        a, b = b, a
    v = kummer_valuation(a, b, p)
    c = math.comb(a, b)
    assert c % p**v == 0
    assert (c // p**v) % p != 0


# ---------------------------------------------------------------------------
# noisy coordinate laws


def test_rho_noisy_distribution_values():
    dist = rho_noisy_distribution(3, Fraction(1, 4))
    assert dist == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    assert sum(dist) == 1
    assert rho_noisy_distribution(2, Fraction(1)) == (1, 0)
    assert rho_noisy_distribution(3, Fraction(-1, 2))[0] == 0
    with pytest.raises(ValueError):
        rho_noisy_distribution(3, Fraction(-2, 3))


def test_noisy_convolution_is_noisy():
    assert noisy_convolution_check(2, Fraction(1, 3), Fraction(1, 5))
    assert noisy_convolution_check(3, 0.3, 0.2)
    assert noisy_convolution_check(4, Fraction(1, 7), Fraction(2, 9), trials=6)


# ---------------------------------------------------------------------------
# oracles


def test_exact_oracle_counts_queries():
    rng = derive_rng(11, "oracle")
    truth = random_polynomial(3, 4, 1, Z6, rng)
    o = NoisyOracle.exact(truth)
    for pt in grid_points(3, 4)[:10]:
        assert o.query(pt) == truth.evaluate(pt)
    assert o.queries == 10
    assert o.fork().queries == 0


def test_flipped_oracle_is_wrong_exactly_there():
    rng = derive_rng(12, "oracle")
    truth = random_polynomial(2, 5, 1, Z3, rng)
    bad = [b"\x00\x01\x00\x01\x00", b"\x01\x01\x01\x01\x01"]
    o = NoisyOracle.with_flips(truth, bad, offset=(2,))
    for pt in grid_points(2, 5):
        if pt in bad:
            assert o.query(pt) == Z3.add(truth.evaluate(pt), (2,))
        else:
            assert o.query(pt) == truth.evaluate(pt)
    with pytest.raises(ValueError):
        NoisyOracle.with_flips(truth, bad, offset=(0,))


def test_random_error_oracle_density_and_consistency():
    rng = derive_rng(13, "oracle")
    truth = random_polynomial(2, 10, 1, Z2, rng)
    o = NoisyOracle.random_errors(truth, 0.1, seed=5)
    corrupted = 0
    for pt in grid_points(2, 10):
        v = o.query(pt)
        assert v == o.fork().query(pt)  # consistent across forks
        if v != truth.evaluate(pt):
            corrupted += 1
    assert 0.05 < corrupted / 1024 < 0.16
    with pytest.raises(ValueError):
        NoisyOracle.random_errors(truth, 1.0, seed=0)


def test_random_errors_need_a_nontrivial_group():
    trivial = AbelianGroup((1,))
    truth = random_polynomial(2, 4, 1, trivial, derive_rng(13, "trivial"))
    with pytest.raises(ValueError, match="nonzero element"):
        NoisyOracle.random_errors(truth, 0.5, seed=0)
    assert NoisyOracle.random_errors(truth, 0.0, seed=0).query(bytes(4)) == (0,)


# ---------------------------------------------------------------------------
# the error-reduction gadget


@pytest.mark.parametrize(
    "s,k,d",
    [(2, 4, 0), (2, 4, 1), (2, 4, 2), (3, 3, 1), (3, 4, 2)],
)
def test_closed_form_ball_coeffs_match_solver(s, k, d):
    rng = derive_rng(21, "centers", s, k, d)
    centers = [bytes(t % s for t in range(k))]
    for _ in range(3):
        centers.append(bytes(int(v) for v in rng.integers(0, s, size=k)))
    for center in centers:
        closed = dict(_zeroed_ball_coeffs(s, k, d, center))
        solved = {
            b: v for b, v in ball_interpolation_coeffs(s, k, d, center).items() if v
        }
        assert closed == solved


def test_build_gadget_shape():
    g = build_gadget(6, 2, 1, Fraction(2, 5))
    assert g.k == 6  # smallest even k with k > 2*1/(2/5) = 5
    assert g.center == b"\x00\x01\x00\x01\x00\x01"
    assert g.q == 4  # center plus three single zeroings
    assert sum(g.coeffs) == 1  # the identity applied to a constant
    assert g.coeffs[g.support.index(g.center)] == -2
    with pytest.raises(ValueError):
        build_gadget(6, 3, 1, Fraction(1, 2))
    with pytest.raises(ValueError):
        build_gadget(6, 2, 1, 0)


def test_gadget_d0_is_a_single_shift():
    g = build_gadget(4, 3, 0, Fraction(1, 4))
    assert g.k == 3 and g.q == 1 and g.coeffs == (1,)


@pytest.mark.parametrize(
    "s,d,n,group,rho",
    [
        (2, 1, 6, Z2, Fraction(2, 5)),
        (3, 2, 5, Z4, Fraction(9, 20)),
        (2, 0, 4, Z6, Fraction(3, 10)),
    ],
)
def test_gadget_identity_is_exact(s, d, n, group, rho):
    rng = derive_rng(22, "gadget", s, d, n)
    gadget = build_gadget(n, s, d, rho)
    for _ in range(5):
        truth = random_polynomial(s, n, d, group, rng)
        oracle = NoisyOracle.exact(truth)
        a = bytes(int(v) for v in rng.integers(0, s, size=n))
        for _ in range(4):
            assert gadget.evaluate(oracle, a, rng) == truth.evaluate(a)


def test_shift_coordinates_follow_the_noisy_law():
    # the zeroed ball points of this gadget have 3 zeros out of k = 6, so
    # their shifts should read 0 with probability 1/2 and each nonzero letter
    # with probability 1/4, independently across coordinates
    gadget = build_gadget(6, 3, 1, Fraction(2, 5))
    target = next(i for i, b in enumerate(gadget.support) if b.count(0) == 3)
    rng = derive_rng(23, "shift-law")
    n_samples = 4000
    draws = np.array(
        [
            np.frombuffer(gadget.sample_shifts(rng)[target], dtype=np.uint8)
            for _ in range(n_samples)
        ]
    )
    freq0 = (draws[:, 0] == 0).mean()
    assert abs(freq0 - 0.5) < 0.03
    for letter in (1, 2):
        assert abs((draws[:, 0] == letter).mean() - 0.25) < 0.03
    joint00 = ((draws[:, 0] == 0) & (draws[:, 1] == 0)).mean()
    assert abs(joint00 - 0.25) < 0.04


def test_base_reduce_error_free_and_planted():
    rng = derive_rng(24, "base")
    truth = random_polynomial(2, 8, 1, Z2, rng)
    clean = NoisyOracle.exact(truth)
    for _ in range(10):
        x = bytes(int(v) for v in rng.integers(0, 2, size=8))
        assert base_reduce(clean, x, rng, d=1) == truth.evaluate(x)
    # corrupt only the evaluation point itself: the raw query is always wrong,
    # but the gadget virtually never lands a zero shift
    for _ in range(20):
        x = bytes(int(v) for v in rng.integers(0, 2, size=8))
        bad = NoisyOracle.with_flips(truth, [x])
        assert bad.query(x) != truth.evaluate(x)
        assert base_reduce(bad, x, rng, d=1) == truth.evaluate(x)


def test_base_reduce_monte_carlo_rate():
    gamma = 0.002
    rng = derive_rng(25, "monte")
    truth = random_polynomial(2, 10, 1, Z2, rng)
    noisy = NoisyOracle.random_errors(truth, gamma, seed=7)
    gadget = build_gadget(10, 2, 1, Fraction(2, 5))
    trials, good = 300, 0
    for _ in range(trials):
        x = bytes(int(v) for v in rng.integers(0, 2, size=10))
        if base_reduce(noisy, x, rng, gadget=gadget) == truth.evaluate(x):
            good += 1
    bound = 10 * (3 * gadget.q) ** 2 * gamma**1.5
    assert good / trials >= 1 - bound


def test_plurality_prefers_first_on_ties():
    assert _plurality([(0,), (1,), (1,)]) == (1,)
    assert _plurality([(0,), (1,)]) == (0,)
    assert _plurality([(2,), (1,), (1,), (2,)]) == (2,)


def test_recursive_reduce_depths():
    rng = derive_rng(26, "recursive")
    truth = random_polynomial(2, 6, 1, Z2, rng)
    x = b"\x01\x00\x01\x01\x00\x00"
    wrong = Z2.add(truth.evaluate(x), (1,))
    bad = NoisyOracle.with_flips(truth, [x])
    assert recursive_reduce(bad, x, 0, rng, d=1) == wrong  # depth 0 is raw

    gadget = build_gadget(6, 2, 1, Fraction(2, 5))
    clean = NoisyOracle.exact(truth)
    assert recursive_reduce(clean, x, 2, rng, gadget=gadget) == truth.evaluate(x)
    assert clean.queries == (3 * gadget.q) ** 2

    with pytest.raises(ValueError):
        recursive_reduce(clean, x, -1, rng, gadget=gadget)
    with pytest.raises(CapacityError):
        recursive_reduce(clean, x, 6, rng, d=1)  # (3q)^6 blows the budget


# ---------------------------------------------------------------------------
# brute-force unique decoding


def test_unique_decode_roundtrip():
    rng = derive_rng(31, "decode")
    for _ in range(10):
        truth = random_polynomial(2, 3, 1, Z2, rng)
        dec = brute_force_unique_decode(
            truth.truth_table(), 2, 3, 1, Z2, Fraction(1, 4)
        )
        assert dec is not None and dec.truth_table() == truth.truth_table()


def test_unique_decode_corrects_within_half_distance():
    rng = derive_rng(32, "decode")
    for _ in range(10):
        truth = random_polynomial(2, 3, 1, Z2, rng)
        table = list(truth.truth_table())
        spot = int(rng.integers(8))
        table[spot] = Z2.add(table[spot], (1,))
        dec = brute_force_unique_decode(table, 2, 3, 1, Z2, Fraction(1, 4))
        assert dec is not None and dec.truth_table() == truth.truth_table()


def test_unique_decode_radius_is_strict():
    # on [2]^2 with d = 1 the decoding radius 1/(2s) allows zero mismatches:
    # a single corruption sits at exactly the radius and must be rejected
    truth = random_polynomial(2, 2, 1, Z2, derive_rng(33, "strict"))
    table = list(truth.truth_table())
    table[0] = Z2.add(table[0], (1,))
    assert brute_force_unique_decode(table, 2, 2, 1, Z2, Fraction(1, 4)) is None


def test_unique_decode_exhaustive_small():
    codewords = [
        (p, tuple(p.truth_table())) for p in enumerate_polynomials(2, 3, 1, Z2)
    ]
    for table_bits in range(256):
        table = [((table_bits >> i) & 1,) for i in range(8)]
        close = [
            tt
            for _, tt in codewords
            if sum(a != b for a, b in zip(tt, table)) <= 1
        ]
        dec = brute_force_unique_decode(table, 2, 3, 1, Z2, Fraction(1, 4))
        if len(close) == 1:
            assert dec is not None and tuple(dec.truth_table()) == close[0]
        else:
            assert dec is None


def test_unique_decode_accepts_mappings():
    truth = random_polynomial(2, 3, 1, Z2, derive_rng(34, "mapping"))
    as_dict = {pt: truth.evaluate(pt) for pt in grid_points(2, 3)}
    dec = brute_force_unique_decode(as_dict, 2, 3, 1, Z2, Fraction(1, 4))
    assert dec is not None and dec.truth_table() == truth.truth_table()
    with pytest.raises(ValueError):
        brute_force_unique_decode([truth.evaluate(b"\x00\x00\x00")], 2, 3, 1, Z2, Fraction(1, 4))


def test_subgrid_error_reduce_error_free():
    for s, n, k, d, group in [(2, 12, 4, 1, Z4), (3, 6, 3, 1, Z3)]:
        rng = derive_rng(35, "subgrid", s, n)
        truth = random_polynomial(s, n, d, group, rng)
        oracle = NoisyOracle.exact(truth)
        for _ in range(5):
            a = bytes(int(v) for v in rng.integers(0, s, size=n))
            assert subgrid_error_reduce(oracle, a, k, d, rng) == truth.evaluate(a)


def test_subgrid_error_reduce_ignores_off_subgrid_corruption():
    s, n, k, d = 2, 10, 4, 1
    truth = random_polynomial(s, n, d, Z2, derive_rng(36, "truth"))
    a = b"\x01\x00\x00\x01\x01\x00\x01\x00\x00\x01"
    preview = derive_rng(36, "run")
    queried = {
        bytes(row) for row in random_subgrid(s, n, k, preview, anchor=a).embed_all()
    }
    spare = [pt for pt in grid_points(s, n) if pt not in queried][:30]
    oracle = NoisyOracle.with_flips(truth, spare)
    replay = derive_rng(36, "run")
    assert subgrid_error_reduce(oracle, a, k, d, replay) == truth.evaluate(a)


def test_subgrid_error_reduce_returns_zero_when_undecodable():
    s, n, k, d = 2, 10, 4, 1
    truth = random_polynomial(s, n, d, Z2, derive_rng(37, "truth"))
    a = b"\x00\x01\x01\x00\x00\x01\x00\x01\x01\x00"
    # use the first sub-seed whose cell assignment is onto, so that the flips
    # chosen below hit distinct table entries
    trial = next(
        t
        for t in range(20)
        if set(random_subgrid(s, n, k, derive_rng(37, "run", t), anchor=a).h)
        == set(range(k))
    )
    sub = random_subgrid(s, n, k, derive_rng(37, "run", trial), anchor=a)
    pts = [bytes(row) for row in sub.embed_all()]
    base = [truth.evaluate(p) for p in pts]
    codewords = [tuple(p.truth_table()) for p in enumerate_polynomials(2, k, d, Z2)]

    def corrupted(combo):
        return [Z2.add(v, (1,)) if i in combo else v for i, v in enumerate(base)]

    # the first 5-point corruption pattern outside radius 1/4 of every codeword
    flips = next(
        combo
        for combo in itertools.combinations(range(2**k), 5)
        if min(
            sum(u != w for u, w in zip(cw, corrupted(combo))) for cw in codewords
        )
        > 3
    )
    oracle = NoisyOracle.with_flips(truth, [pts[i] for i in flips])
    replay = derive_rng(37, "run", trial)
    assert subgrid_error_reduce(oracle, a, k, d, replay) == Z2.zero


# ---------------------------------------------------------------------------
# hitting sets and interpolating sets


def test_hitting_set_degree_zero():
    pts = hitting_set(5, 0, (2, 3))
    assert len(pts) == 1 and sum(pts[0]) in (2, 3)


def test_hitting_set_narrow_interval_raises():
    with pytest.raises(ValueError):
        hitting_set(6, 2, (3, 4))


@pytest.mark.parametrize("r", [4, 6])
def test_hitting_set_hits_every_nonzero_polynomial(r):
    pts = hitting_set(r, 1, (r // 2 - 1, r // 2 + 1))
    assert len(pts) <= 4 * r
    for group in (Z2, Z3, Z6 if r == 4 else Z2):
        for poly in enumerate_polynomials(2, r, 1, group):
            if poly.is_zero:
                continue
            assert any(poly.evaluate(b) != group.zero for b in pts)


def test_hitting_set_degree_two_certifies():
    pts = hitting_set(5, 2, (1, 4))
    assert len(pts) <= (4 * 5) ** 2
    for poly in enumerate_polynomials(2, 5, 2, Z2):
        if poly.is_zero:
            continue
        assert any(poly.evaluate(b) != Z2.zero for b in pts)


def test_interpolating_set_small_instance():
    iset = build_interpolating_set(2, 1, 6, 2)
    assert iset.k == 12
    assert iset.block_weights == (2, 1)
    assert iset.total_weight == 18
    bound = Fraction(iset.d, iset.total_weight)
    for b in iset.points:
        assert iset.weight_slack(b) <= bound
    ones = b"\x01" * 12
    rng = derive_rng(41, "interp")
    for group in (Z6, Z4, Z2xZ2):
        for _ in range(5):
            q = random_polynomial(2, 12, 1, group, rng)
            acc = group.zero
            for b in iset.points:
                acc = group.add(acc, group.scale(q.evaluate(b), iset.coeffs[b]))
            assert acc == q.evaluate(ones)


def test_interpolating_set_requires_block_divisibility():
    with pytest.raises(ValueError):
        build_interpolating_set(2, 1, 5, 2)


def test_interpolating_set_degree_zero():
    iset = build_interpolating_set(2, 0, 2, 2)
    assert len(iset.points) == 1
    assert sum(iset.coeffs.values()) == 1


def test_interpolating_set_corrects_an_exact_oracle():
    iset = build_interpolating_set(2, 1, 6, 2)
    rng = derive_rng(42, "correct")
    truth = random_polynomial(2, 14, 1, Z6, rng)
    oracle = NoisyOracle.exact(truth)
    for _ in range(4):
        assert iset.correct(oracle, rng) == truth.evaluate(b"\x01" * 14)
    assert oracle.queries == 4 * len(iset.points)


def test_interpolating_set_coordinate_distribution():
    iset = build_interpolating_set(2, 1, 6, 2)
    dist = iset.coordinate_distribution()
    assert dist.sum() == pytest.approx(1.0)
    assert np.allclose(dist[:6], 2 / 18)
    assert np.allclose(dist[6:], 1 / 18)


# ---------------------------------------------------------------------------
# the biased-cube reduction


def test_biased_cube_correct_is_exact_without_noise():
    s, n, d = 3, 8, 1
    rng = derive_rng(51, "cube")
    truth = random_polynomial(s, n, d, Z3, rng)
    oracle = NoisyOracle.exact(truth)

    def inner(f, inner_rng):
        return subgrid_error_reduce(f, b"\x01" * n, 4, d, inner_rng)

    for _ in range(5):
        x = bytes(int(v) for v in rng.integers(0, s, size=n))
        assert biased_cube_correct(oracle, x, inner, rng) == truth.evaluate(x)


def test_biased_cube_correct_votes_out_one_bad_round():
    s, n = 3, 5
    rng = derive_rng(52, "cube")
    truth = random_polynomial(s, n, 1, Z3, rng)
    oracle = NoisyOracle.exact(truth)
    x = b"\x02\x00\x01\x02\x01"
    calls = []

    def flaky_inner(f, inner_rng):
        assert f.s == 2 and f.n == n and f.group == Z3
        calls.append(f)
        if len(calls) == 1:
            return (2,)
        return f.query(b"\x01" * n)  # the induced cube's all-ones point is x

    assert biased_cube_correct(oracle, x, flaky_inner, rng) == truth.evaluate(x)
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# the torsion corrector


def test_torsion_scheme_exponent_two_example():
    scheme = torsion_scheme(2, 1, 2)
    assert scheme.k == 8
    assert scheme.slice_length == 16
    assert scheme.multiplier == 1
    assert scheme.query_count == 12870
    assert scheme.low_error_threshold == Fraction(1, 128700)
    assert scheme.prime_powers == ((2, 1, 1),)
    support = list(scheme.support_points())
    assert len(support) == math.comb(9, 1)
    for b in support:
        assert sum(b) == 8 and scheme.coefficient(b) == 1
    off = bytes([1] * 8 + [0] * 8)
    assert scheme.coefficient(off) == 0


def test_torsion_scheme_divisibility_sweep():
    for exponent in range(2, 13):
        for d in range(3):
            for s in (2, 3):
                scheme = torsion_scheme(s, d, exponent)
                kp = (s - 1) * scheme.k
                assert (scheme.multiplier * math.comb(kp + d, kp)) % exponent == 1


def test_torsion_scheme_factors_the_exponent_like_sympy():
    from sympy import factorint

    for exponent in range(2, 65):
        scheme = torsion_scheme(2, 1, exponent)
        assert [(p, r) for p, r, _ in scheme.prime_powers] == sorted(
            factorint(exponent).items()
        )


def test_torsion_scheme_rejects_trivial_exponent():
    with pytest.raises(ValueError):
        torsion_scheme(2, 1, 1)


def test_torsion_identity_on_monomial_basis():
    scheme = torsion_scheme(2, 1, 2)
    support = list(scheme.support_points())
    # constant polynomial: coefficients must sum to 1 mod 2
    assert sum(scheme.coefficient(b) for b in support) % 2 == 1
    # each coordinate monomial: the mass on points with that bit set is 1
    for i in range(scheme.slice_length):
        assert sum(scheme.coefficient(b) for b in support if b[i]) % 2 == 1
    # random low-degree polynomials over a non-cyclic exponent-2 group
    rng = derive_rng(61, "torsion")
    ones = b"\x01" * scheme.slice_length
    for _ in range(5):
        q = random_polynomial(2, scheme.slice_length, 1, Z2xZ2, rng)
        acc = Z2xZ2.zero
        for b in support:
            acc = Z2xZ2.add(acc, Z2xZ2.scale(q.evaluate(b), scheme.coefficient(b)))
        assert acc == q.evaluate(ones)


def test_torsion_correct_error_free():
    scheme = torsion_scheme(2, 1, 2)
    rng = derive_rng(62, "torsion")
    for group in (Z2, Z2xZ2):
        truth = random_polynomial(2, 6, 1, group, rng)
        oracle = NoisyOracle.exact(truth)
        assert torsion_correct(oracle, scheme, rng) == truth.evaluate(b"\x01" * 6)
        assert oracle.queries == scheme.query_count
        x = b"\x00\x01\x01\x00\x01\x00"
        assert torsion_correct(oracle, scheme, rng, x=x) == truth.evaluate(x)


def test_torsion_correct_validates_oracle():
    scheme = torsion_scheme(2, 1, 2)
    rng = derive_rng(63, "torsion")
    over_z3 = NoisyOracle.exact(random_polynomial(2, 4, 1, Z3, rng))
    with pytest.raises(ValueError):
        torsion_correct(over_z3, scheme, rng)
    ternary = NoisyOracle.exact(random_polynomial(3, 4, 1, Z2, rng))
    with pytest.raises(ValueError):
        torsion_correct(ternary, scheme, rng)


def test_torsion_degree_zero_support_is_one_point():
    scheme = torsion_scheme(2, 0, 2)
    support = list(scheme.support_points())
    assert len(support) == 1
    assert support[0] == bytes([0] * 8 + [1] * 8)
