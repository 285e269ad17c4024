"""The integer CSR walks against the Fraction-row reference in helpers.py:
entry for entry, bit for bit in ``dense()``, and report for report in every
exact check, including the generator state the sampled check leaves."""

from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from helpers import (
    FractionWalk,
    doubly_stochastic_profiles,
    fraction_walk_from_terms,
    independence_report_fraction,
    mixing_lhs_fraction,
    respects_symmetries_fraction,
)
from multislice.seeding import derive_rng
from multislice.slices import SliceSpec, slice_size
from multislice.walks import (
    WalkMatrix,
    expander_mixing_check,
    frobenius_norm_squared,
    independence_report,
    odlsz_terms,
    respects_symmetries,
    subgrid_identification_terms,
    walk_from_terms,
)


def _criterion_walks():
    """(label, spec, terms) for every walk criteria 02 and 03 build and the
    benchmark's four walk-spectra walks."""
    out = []
    for s, n in [(2, 2), (2, 4), (2, 6), (2, 8), (3, 3), (3, 6), (3, 9)]:
        spec = SliceSpec.balanced(s, n)
        for delta in doubly_stochastic_profiles(s, n // s):
            out.append((f"s{s} n{n} {delta}", spec, [(1, delta)]))
        out.append((f"odlsz({s},{n})", spec, odlsz_terms(s, n)))
    for n in (4, 8, 12):
        m = n // 2
        out.append((f"balanced n={n}", SliceSpec.balanced(2, n), [(1, ((m // 2,) * 2,) * 2)]))
    out += [
        ("bench [[5,1],[1,5]] n=12", SliceSpec.balanced(2, 12), [(1, ((5, 1), (1, 5)))]),
        ("bench [[3,2],[2,3]] n=10", SliceSpec.balanced(2, 10), [(1, ((3, 2), (2, 3)))]),
        ("bench subgrid_identification(2,2)", SliceSpec.balanced(2, 8),
         subgrid_identification_terms(2, 2)),
    ]
    # repeated profiles are merged; weights that cancel leave stored zeros
    spec = SliceSpec.balanced(3, 6)
    a, b = ((2, 0, 0), (0, 1, 1), (0, 1, 1)), ((1, 1, 0), (0, 1, 1), (1, 0, 1))
    out += [
        ("repeated profile", spec, [(Fraction(1, 3), a), (Fraction(2, 3), a)]),
        ("cancelling weights", spec, [(1, a), (Fraction(1, 2), b), (Fraction(-1, 2), b)]),
        ("no terms", spec, []),
    ]
    return out


WALKS = _criterion_walks()


def _agree(walk: WalkMatrix, oracle: FractionWalk, seed: int) -> None:
    assert walk.rows == oracle.rows
    assert walk.dense().tobytes() == oracle.dense().tobytes()
    for check in ("is_stochastic", "is_doubly_stochastic", "is_symmetric"):
        got = getattr(walk, check)()
        assert type(got) is bool
        assert got == getattr(oracle, check)(), check
    if walk.size <= 100:
        assert walk.transpose().rows == oracle.transpose().rows
        assert walk == WalkMatrix.from_rows(walk.spec, oracle.rows)
    n = walk.spec.n
    if n <= 4:
        rep = respects_symmetries(walk, exhaustive=True)
        assert (rep.checked, rep.violations) == respects_symmetries_fraction(oracle, True)
    rng, ref = derive_rng(seed, "csr"), derive_rng(seed, "csr")
    rep = respects_symmetries(walk, exhaustive=False, rng=rng, trials=150)
    assert not rep.exhaustive
    assert (rep.checked, rep.violations) == respects_symmetries_fraction(oracle, False, ref, 150)
    assert rng.integers(2**63) == ref.integers(2**63)
    for k in (1, 2):
        for rows in ("canonical", "all") if n <= 6 else ("canonical",):
            got = independence_report(walk, k, rows=rows)
            assert (got.epsilon, got.worst_row, got.worst_set) == \
                independence_report_fraction(oracle, k, rows)


@pytest.mark.parametrize("label,spec,terms", WALKS, ids=[w[0] for w in WALKS])
def test_csr_walk_matches_fraction_rows(label, spec, terms):
    walk = walk_from_terms(spec, terms, label)
    oracle = fraction_walk_from_terms(spec, terms)
    _agree(walk, oracle, seed=len(label))


def test_exhaustive_symmetry_matches_fraction_rows_at_n6():
    spec = SliceSpec.balanced(3, 6)
    for terms in ([(1, ((1, 1, 0), (0, 1, 1), (1, 0, 1)))], odlsz_terms(3, 6)):
        walk = walk_from_terms(spec, terms, "n6")
        oracle = fraction_walk_from_terms(spec, terms)
        rep = respects_symmetries(walk, exhaustive=True)
        assert (rep.checked, rep.violations) == respects_symmetries_fraction(oracle, True)


SMALL = [SliceSpec.balanced(2, 4), SliceSpec.balanced(3, 3), SliceSpec(2, 3, (2, 1))]
# small and beyond-int64 denominators: the second kind takes the Python-int path
DENOMINATORS = [1, 2, 3, 4, 6, 7, 12, 2**64 + 13, 3**45, 2**62]


@st.composite
def fraction_rows(draw):
    spec = draw(st.sampled_from(SMALL))
    size = slice_size(spec)
    value = st.builds(
        Fraction,
        st.integers(-(2**70), 2**70) | st.integers(-3, 12),
        st.sampled_from(DENOMINATORS),
    )
    rows = tuple(
        draw(st.dictionaries(st.integers(0, size - 1), value, max_size=size))
        for _ in range(size)
    )
    return spec, rows


@given(fraction_rows(), st.integers(0, 2**32))
@settings(deadline=None, max_examples=80)
def test_from_rows_walk_matches_fraction_rows(case, seed):
    spec, rows = case
    walk = WalkMatrix.from_rows(spec, rows)
    oracle = FractionWalk(spec, rows)
    _agree(walk, oracle, seed)
    rep = respects_symmetries(walk, exhaustive=True)
    assert (rep.checked, rep.violations) == respects_symmetries_fraction(oracle, True)
    subset = list(range(0, walk.size, 2))
    check = expander_mixing_check(walk, subset, lambda2=0.5)
    assert check.lhs == mixing_lhs_fraction(oracle, subset)
    assert frobenius_norm_squared(walk) == sum(
        (v * v for row in rows for v in row.values()), Fraction(0)
    )
    assert walk.transpose().transpose() == walk


def _mixed_with_uniform(spec: SliceSpec, eps: Fraction) -> list[dict[int, Fraction]]:
    """(1 - eps) I + eps J / N: symmetric and doubly stochastic."""
    size = slice_size(spec)
    rows = [{j: eps / size for j in range(size)} for _ in range(size)]
    for i in range(size):
        rows[i][i] += 1 - eps
    return rows


def _tamper(walk: WalkMatrix) -> WalkMatrix:
    """Move 1/den of mass between the first two entries of row 0."""
    rows = [dict(r) for r in walk.rows]
    j1, j2 = sorted(rows[0])[:2]
    rows[0][j1] += Fraction(1, walk.den)
    rows[0][j2] -= Fraction(1, walk.den)
    return WalkMatrix.from_rows(walk.spec, rows)


@pytest.mark.parametrize("eps", [Fraction(1, 3), Fraction(1, 2**70 + 3), Fraction(5, 3**41)])
def test_exact_checks_above_int64(eps):
    spec = SliceSpec.balanced(2, 4)
    rows = _mixed_with_uniform(spec, eps)
    walk = WalkMatrix.from_rows(spec, rows)
    assert walk.den == 6 * eps.denominator
    assert (walk.num.dtype == object) == (walk.den >= 2**63)
    assert walk.is_doubly_stochastic() is True
    assert walk.is_symmetric() is True
    assert respects_symmetries(walk, exhaustive=True).ok
    dense = walk.dense()
    for i, row in enumerate(rows):
        for j, v in row.items():
            assert dense[i, j] == float(v)
    bad = _tamper(walk)
    assert bad.den == walk.den
    assert bad.is_stochastic() is True
    assert bad.is_doubly_stochastic() is False
    assert bad.is_symmetric() is False
    assert not respects_symmetries(bad, exhaustive=True).ok
    assert not respects_symmetries(bad, exhaustive=False, rng=derive_rng(5, "tamper"),
                                   trials=2000).ok
    oracle = FractionWalk(spec, bad.rows)
    _agree(bad, oracle, seed=5)


def test_tampered_distance_walk_fails_every_check():
    spec = SliceSpec.balanced(3, 6)
    walk = walk_from_terms(spec, odlsz_terms(3, 6), "odlsz")
    assert walk.num.dtype == np.int64
    bad = _tamper(walk)
    assert bad.is_stochastic() is True
    assert bad.is_doubly_stochastic() is False
    assert bad.is_symmetric() is False
    assert not respects_symmetries(bad, exhaustive=True).ok


def test_from_rows_rejects_bad_shapes():
    spec = SliceSpec.balanced(2, 4)
    with pytest.raises(ValueError):
        WalkMatrix.from_rows(spec, [{0: Fraction(1)}])
    with pytest.raises(ValueError):
        WalkMatrix.from_rows(spec, [{6: Fraction(1)}] + [{}] * 5)
