"""The exhaustive distance scans against their scalar references: one
polynomial at a time (grid and field scans) and one numpy pass per low-half
combination (slice scan), and the span-weight kernel against brute force."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    grid_min_nonzero_scalar,
    min_nonzero_fraction_scalar,
    min_slice_nonzero_prime_scalar,
    min_span_weight_brute,
)
from multislice import juntas
from multislice.budget import CapacityError
from multislice.fields import min_nonzero_fraction
from multislice.groups import AbelianGroup
from multislice.juntas import _min_span_weight, grid_min_nonzero, min_slice_nonzero_prime
from multislice.seeding import derive_rng

Z2 = AbelianGroup((2,))
Z3 = AbelianGroup((3,))

# the cells criterion 06 scans
GRID_CELLS = [
    (s, n, d, group)
    for s, group, n_max, d_max in [(2, Z2, 4, 2), (3, Z3, 3, 1)]
    for n in range(1, n_max + 1)
    for d in range(0, min(d_max, n) + 1)
]
SLICE_CELLS = [(2, n, d) for n in (2, 4, 6, 8) for d in (0, 1, 2) if n // 2 >= d] + [(3, 6, 1)]
FIELD_CELLS = [
    (q, n, d) for q, n_max, d_max in [(2, 4, 2), (3, 2, 2)]
    for n in range(1, n_max + 1) for d in range(0, d_max + 1)
]


@pytest.mark.parametrize("s,n,d,group", GRID_CELLS)
def test_grid_scan_matches_the_oracle_on_criterion_06_cells(s, n, d, group):
    assert grid_min_nonzero(s, n, d, group) == grid_min_nonzero_scalar(s, n, d, group)


@pytest.mark.parametrize("s,n,d,factors", [
    (2, 2, 1, (4,)), (3, 2, 1, (4,)), (2, 3, 1, (2, 2)), (2, 2, 2, (2, 2)),
    (2, 2, 1, (2, 3)), (3, 1, 1, (2, 3)), (2, 1, 1, (1, 6)),
])
def test_grid_scan_matches_the_oracle_on_composite_groups(s, n, d, factors):
    group = AbelianGroup(factors)
    assert grid_min_nonzero(s, n, d, group) == grid_min_nonzero_scalar(s, n, d, group)


@pytest.mark.parametrize("s,n,d", SLICE_CELLS)
def test_slice_scan_matches_the_oracle_on_criterion_06_cells(s, n, d, monkeypatch):
    monkeypatch.setenv("MULTISLICE_BUDGET", "300000000")
    assert min_slice_nonzero_prime(s, n, d, s) == min_slice_nonzero_prime_scalar(s, n, d, s)


@pytest.mark.parametrize("s,n,d,p", [(2, 4, 1, 3), (3, 3, 1, 2), (2, 6, 1, 5)])
def test_slice_scan_matches_the_oracle_when_p_differs_from_s(s, n, d, p):
    assert min_slice_nonzero_prime(s, n, d, p) == min_slice_nonzero_prime_scalar(s, n, d, p)


@pytest.mark.parametrize("q,n,d", FIELD_CELLS)
def test_field_scan_matches_the_oracle_on_criterion_06_cells(q, n, d):
    assert min_nonzero_fraction(q, n, d) == min_nonzero_fraction_scalar(q, n, d)


@pytest.mark.parametrize("q,n,d", [(2, 4, 1), (2, 4, 2), (3, 3, 1), (3, 3, 2)])
def test_field_scan_matches_the_oracle_on_the_slice(q, n, d):
    assert (min_nonzero_fraction(q, n, d, on_slice=True)
            == min_nonzero_fraction_scalar(q, n, d, on_slice=True))


@pytest.mark.parametrize("q,n,d,on_slice,samples", [
    (3, 2, 2, False, 300), (2, 4, 1, True, 50), (3, 3, 2, True, 40), (5, 2, 3, False, 7),
])
def test_sampled_field_scan_matches_the_oracle_and_its_draws(q, n, d, on_slice, samples):
    rng, replay = derive_rng(12, "field-sample", q, n), derive_rng(12, "field-sample", q, n)
    got = min_nonzero_fraction(q, n, d, mode="sampled", on_slice=on_slice, rng=rng,
                               samples=samples)
    want = min_nonzero_fraction_scalar(q, n, d, mode="sampled", on_slice=on_slice,
                                       rng=replay, samples=samples)
    assert got == want
    assert rng.integers(0, 2**62) == replay.integers(0, 2**62)


def test_capacity_checks_match_the_oracle(monkeypatch):
    monkeypatch.setenv("MULTISLICE_BUDGET", "1000")
    calls = [
        (grid_min_nonzero, grid_min_nonzero_scalar, (2, 4, 2, Z2)),
        (min_slice_nonzero_prime, min_slice_nonzero_prime_scalar, (2, 6, 2, 2)),
        (min_nonzero_fraction, min_nonzero_fraction_scalar, (3, 3, 2)),
        (min_nonzero_fraction, min_nonzero_fraction_scalar, (2, 5, 2)),
    ]
    for fast, slow, args in calls:
        with pytest.raises(CapacityError) as want:
            slow(*args)
        with pytest.raises(CapacityError) as got:
            fast(*args)
        assert str(got.value) == str(want.value)


def test_families_without_a_nonzero_member_are_rejected():
    for args in [(2, 3, -1, Z2), (2, 3, 1, AbelianGroup((1,)))]:
        with pytest.raises(ValueError):
            grid_min_nonzero_scalar(*args)
        with pytest.raises(ValueError):
            grid_min_nonzero(*args)


@st.composite
def span_rows(draw):
    """A small integer matrix with, at random, zero rows, dependent rows
    (integer combinations of earlier ones) and zero columns."""
    q = draw(st.integers(2, 6))
    width = draw(st.one_of(st.integers(0, 7), st.integers(60, 70)))  # one or two words
    k = draw(st.integers(0, 4))
    entries = st.integers(-2 * q, 2 * q)
    rows = [draw(st.lists(entries, min_size=width, max_size=width)) for _ in range(k)]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["zero", "combination"]))
        if kind == "zero" or not rows:
            rows.append([0] * width)
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            x, y = draw(entries), draw(entries)
            rows.append([x * u + y * v for u, v in zip(a, b)])
    rows = np.array(rows, dtype=np.int64).reshape(len(rows), width)
    for col in draw(st.lists(st.integers(0, max(width - 1, 0)), max_size=2)):
        if width:
            rows[:, col] = 0
    return draw(st.permutations(list(rows))) if len(rows) else rows, q, width


@given(span_rows(), st.sampled_from([1, 3, 8, 1 << 16]))
@settings(deadline=None, max_examples=150)
def test_min_span_weight_matches_brute_force(case, block_cells):
    rows, q, width = case
    rows = np.array(rows, dtype=np.int64).reshape(len(rows), width)
    with mock.patch.object(juntas, "_BLOCK_CELLS", block_cells):
        assert _min_span_weight(rows, q) == min_span_weight_brute(rows, q)
