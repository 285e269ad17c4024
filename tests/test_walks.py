import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from helpers import (
    closed_form_epsilon,
    doubly_stochastic_profiles,
    identification_exhaustive_joint,
    marginal_closed_form,
    odlsz_exhaustive_row,
)
from multislice.budget import CapacityError
from multislice.seeding import derive_rng
from multislice.slices import (
    SliceSpec,
    enumerate_slice,
    rank_index,
    slice_size,
    transpose_profile,
)
from multislice.walks import (
    WalkMatrix,
    cluster_values,
    convex_combine,
    expander_mixing_check,
    frobenius_norm_squared,
    independence_report,
    odlsz_step,
    odlsz_terms,
    profile_degree,
    respects_symmetries,
    spectral_report,
    subgrid_identification_terms,
    validate_profile,
    walk_from_distance,
    walk_from_terms,
    walk_odlsz,
    walk_subgrid_identification,
)

JOHNSON = ((1, 1), (1, 1))
SPEC24 = SliceSpec.balanced(2, 4)


def test_validate_profile_errors():
    with pytest.raises(ValueError):
        validate_profile(SPEC24, ((2, 0), (1, 1)))  # bad column sums
    with pytest.raises(ValueError):
        validate_profile(SPEC24, ((3, -1), (-1, 3)))
    with pytest.raises(ValueError):
        validate_profile(SPEC24, ((1, 1),))
    with pytest.raises(ValueError):
        validate_profile(SliceSpec(2, 4, (3, 1)), JOHNSON)


def test_identity_profile_gives_identity_walk():
    walk = walk_from_distance(SPEC24, ((2, 0), (0, 2)))
    assert walk.rows == tuple({i: Fraction(1)} for i in range(6))


def test_swap_profile_gives_complement_permutation():
    walk = walk_from_distance(SPEC24, ((0, 2), (2, 0)))
    points = enumerate_slice(SPEC24)
    ranks = rank_index(SPEC24)
    for i, x in enumerate(points):
        comp = bytes(1 - v for v in x)
        assert walk.rows[i] == {ranks[comp]: Fraction(1)}


def test_johnson_walk_spectrum():
    walk = walk_from_distance(SPEC24, JOHNSON)
    assert walk.is_doubly_stochastic()
    assert walk.is_symmetric()
    report = spectral_report(walk)
    assert report.sigma2 == pytest.approx(0.5, abs=1e-9)
    assert report.lambda2 == pytest.approx(0.5, abs=1e-9)
    assert cluster_values(report.eigenvalues) == [
        (pytest.approx(1.0), 1),
        (pytest.approx(0.0), 3),
        (pytest.approx(-0.5), 2),
    ]


@pytest.mark.parametrize(
    "s,m",
    [(2, 2), (2, 3), (3, 2)],
)
def test_frobenius_norm_identity(s, m):
    spec = SliceSpec.balanced(s, s * m)
    n_points = slice_size(spec)
    for delta in doubly_stochastic_profiles(s, m):
        walk = walk_from_distance(spec, delta)
        assert frobenius_norm_squared(walk) == Fraction(
            n_points, profile_degree(spec, delta)
        )


@pytest.mark.parametrize(
    "s,m",
    [(2, 2), (3, 2)],
)
def test_transpose_of_distance_walk(s, m):
    spec = SliceSpec.balanced(s, s * m)
    for delta in doubly_stochastic_profiles(s, m):
        walk = walk_from_distance(spec, delta)
        flipped = walk_from_distance(spec, transpose_profile(delta))
        assert walk.transpose() == flipped


def test_asymmetric_profile_walk_is_not_symmetric():
    spec = SliceSpec.balanced(3, 6)
    delta = ((1, 1, 0), (0, 1, 1), (1, 0, 1))
    walk = walk_from_distance(spec, delta)
    assert walk.is_doubly_stochastic()
    assert not walk.is_symmetric()
    report = spectral_report(walk)
    assert report.eigenvalues is None
    assert report.sigma[0] <= 1 + 1e-9


@pytest.mark.parametrize(
    "s,m,row_limit",
    [(2, 2, None), (3, 2, 1)],
)
def test_row_marginals_match_closed_form(s, m, row_limit):
    spec = SliceSpec.balanced(s, s * m)
    points = enumerate_slice(spec)
    profiles = doubly_stochastic_profiles(s, m)
    if row_limit is None:
        rows = range(len(points))
    else:
        rows = range(row_limit)
        profiles = [((1, 1, 0), (0, 1, 1), (1, 0, 1)), ((2, 0, 0), (0, 1, 1), (0, 1, 1))]
    for delta in profiles:
        walk = walk_from_distance(spec, delta)
        for i in rows:
            a = points[i]
            support = [(points[j], v) for j, v in walk.rows[i].items()]
            for size in (1, 2):
                for T in itertools.combinations(range(spec.n), size):
                    total = Fraction(0)
                    for z in itertools.product(range(s), repeat=size):
                        got = sum(
                            (v for pt, v in support if tuple(pt[t] for t in T) == z),
                            Fraction(0),
                        )
                        want = marginal_closed_form(spec, delta, a, T, z)
                        assert got == want
                        total += want
                    assert total == 1


def test_independence_report_matches_closed_form():
    walk = walk_from_distance(SPEC24, JOHNSON)
    points = enumerate_slice(SPEC24)
    report = independence_report(walk, k=2)
    assert report.epsilon == closed_form_epsilon(SPEC24, JOHNSON, points)
    # one-coordinate marginals of this walk are exactly uniform
    assert independence_report(walk, k=1).epsilon == 0
    # symmetric walk: scanning one row reaches the same maximum
    canon = independence_report(walk, k=2, rows="canonical")
    assert canon.epsilon == report.epsilon
    with pytest.raises(ValueError):
        independence_report(walk, k=1, rows="some")


@pytest.mark.parametrize("s,n", [(2, 2), (2, 4), (3, 3)])
def test_letter_randomizing_walk_matches_simulation(s, n):
    walk = walk_odlsz(s, n)
    assert walk.is_doubly_stochastic()
    assert walk.is_symmetric()
    spec = SliceSpec.balanced(s, n)
    points = enumerate_slice(spec)
    ranks = rank_index(spec)
    for i, a in enumerate(points):
        oracle = odlsz_exhaustive_row(a, s)
        assert walk.rows[i] == {ranks[b]: p for b, p in oracle.items()}


def test_letter_randomizing_terms_are_circulant_and_convex():
    terms = odlsz_terms(3, 6)
    assert sum(alpha for alpha, _ in terms) == 1
    for _, delta in terms:
        validate_profile(SliceSpec.balanced(3, 6), delta)
        f = delta[0]
        assert delta == tuple(
            tuple(f[(j - i) % 3] for j in range(3)) for i in range(3)
        )


def test_letter_randomizing_step_sampler():
    rng = derive_rng(11, "odlsz-step")
    a = bytes([0, 0, 1, 1])
    counts: dict[bytes, int] = {}
    trials = 20_000
    for _ in range(trials):
        b = odlsz_step(a, 2, rng)
        counts[b] = counts.get(b, 0) + 1
    walk = walk_odlsz(2, 4)
    spec = SliceSpec.balanced(2, 4)
    ranks = rank_index(spec)
    row = walk.rows[ranks[a]]
    assert set(counts) <= {pt for pt in enumerate_slice(spec)}
    for b, c in counts.items():
        assert c / trials == pytest.approx(float(row[ranks[b]]), abs=0.02)
    with pytest.raises(ValueError):
        odlsz_step(bytes([0, 0, 0, 1]), 2, rng)


def test_subgrid_identification_smallest_case():
    walk = walk_subgrid_identification(2, 1)
    spec = SliceSpec.balanced(2, 4)
    points = enumerate_slice(spec)
    ranks = rank_index(spec)
    half = Fraction(1, 2)
    for i, x in enumerate(points):
        comp = bytes(1 - v for v in x)
        assert walk.rows[i] == {i: half, ranks[comp]: half}
    # the same matrix as mixing the identity and swap walks evenly
    ident = walk_from_distance(spec, ((2, 0), (0, 2)))
    swap = walk_from_distance(spec, ((0, 2), (2, 0)))
    assert convex_combine([(half, ident), (half, swap)]) == walk


@pytest.mark.parametrize("s,k", [(2, 1), (2, 2), (3, 1)])
def test_subgrid_identification_matches_simulation(s, k):
    walk = walk_subgrid_identification(s, k)
    assert walk.is_doubly_stochastic()
    assert walk.is_symmetric()
    assert sum(alpha for alpha, _ in subgrid_identification_terms(s, k)) == 1
    spec = SliceSpec.balanced(s, s * s * k)
    ranks = rank_index(spec)
    n_points = slice_size(spec)
    joint = identification_exhaustive_joint(s, k)
    # first marginal uniform over the big slice
    first: dict[bytes, Fraction] = {}
    for (u, _), p in joint.items():
        first[u] = first.get(u, Fraction(0)) + p
    assert all(p == Fraction(1, n_points) for p in first.values())
    # conditional law of the second point equals the walk row
    rows: list[dict[int, Fraction]] = [dict() for _ in range(n_points)]
    for (u, v), p in joint.items():
        rows[ranks[u]][ranks[v]] = p * n_points
    assert tuple(rows) == walk.rows


def test_symmetry_check_exhaustive_and_tampered():
    walk = walk_from_distance(SPEC24, JOHNSON)
    report = respects_symmetries(walk)
    assert report.exhaustive
    assert report.checked == 24
    assert report.ok
    # shift a bit of mass inside one row: still stochastic, no longer invariant
    rows = [dict(r) for r in walk.rows]
    j1, j2 = sorted(rows[0])[:2]
    rows[0][j1] += Fraction(1, 4)
    rows[0][j2] -= Fraction(1, 4)
    bad = WalkMatrix(SPEC24, tuple(rows))
    assert bad.is_stochastic()
    assert not respects_symmetries(bad).ok


def test_symmetry_check_sampled():
    walk = walk_odlsz(2, 6)
    rng = derive_rng(3, "sym")
    report = respects_symmetries(walk, exhaustive=False, rng=rng, trials=500)
    assert not report.exhaustive
    assert report.checked == 500
    assert report.ok
    with pytest.raises(ValueError):
        respects_symmetries(walk, exhaustive=False)


def test_symmetry_mode_choice_lets_unrelated_errors_through(monkeypatch):
    def broken(cost, what):
        raise RuntimeError("not a capacity problem")

    walk = walk_from_distance(SPEC24, JOHNSON)
    monkeypatch.setattr("multislice.walks.check_capacity", broken)
    with pytest.raises(RuntimeError, match="not a capacity problem"):
        respects_symmetries(walk, rng=derive_rng(3, "sym"), trials=10)


def test_expander_mixing_check():
    walk = walk_from_distance(SPEC24, JOHNSON)
    for size in (0, 1, 3, 6):
        check = expander_mixing_check(walk, list(range(size)))
        assert check.lambda2 == pytest.approx(0.5)
        assert check.holds
        assert float(check.lhs) <= check.rhs + 1e-12
    # identity walk with a forced lambda2 of 0 must violate the bound
    ident = walk_from_distance(SPEC24, ((2, 0), (0, 2)))
    bad = expander_mixing_check(ident, [0], lambda2=0.0, slack=0.0)
    assert not bad.holds
    good = expander_mixing_check(ident, [0], lambda2=1.0)
    assert good.holds


def test_convex_combine_validates_weights():
    walk = walk_from_distance(SPEC24, JOHNSON)
    with pytest.raises(ValueError):
        convex_combine([(Fraction(1, 2), walk)])


PROFILES_2_2 = doubly_stochastic_profiles(2, 2)


@given(st.sampled_from(PROFILES_2_2), st.sampled_from(PROFILES_2_2))
@settings(deadline=None)
def test_mixtures_stay_doubly_stochastic(d1, d2):
    w1 = walk_from_distance(SPEC24, d1)
    w2 = walk_from_distance(SPEC24, d2)
    mix = convex_combine([(Fraction(1, 3), w1), (Fraction(2, 3), w2)])
    assert mix.is_doubly_stochastic()
    assert np.allclose(mix.dense().sum(axis=1), 1.0)


def test_walk_from_terms_is_the_convex_combination_of_distance_walks(monkeypatch):
    spec = SliceSpec.balanced(3, 6)
    terms = odlsz_terms(3, 6)
    walk = walk_from_terms(spec, terms, "odlsz")
    assert walk == convex_combine([(a, walk_from_distance(spec, d)) for a, d in terms])
    assert walk == walk_odlsz(3, 6)
    with pytest.raises(ValueError):
        walk_from_terms(spec, [(1, ((2, 0, 0), (2, 0, 0), (0, 2, 0)))], "bad")
    # the capacity check charges every term once: 90 points x sum of degrees
    cost = slice_size(spec) * sum(profile_degree(spec, d) for _, d in terms)
    monkeypatch.setenv("MULTISLICE_BUDGET", str(cost - 1))
    with pytest.raises(CapacityError, match=f"odlsz needs {cost} cells"):
        walk_from_terms(spec, terms, "odlsz")
    monkeypatch.setenv("MULTISLICE_BUDGET", str(cost))
    assert walk_from_terms(spec, terms, "odlsz") == walk


def test_cluster_values():
    vals = [1.0, 0.5 + 1e-10, 0.5, 0.0]
    assert cluster_values(vals) == [(1.0, 1), (0.5 + 1e-10, 2), (0.0, 1)]
