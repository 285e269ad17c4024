"""Row echelon form over Q and F_p, the determinant, and the callers that
eliminate through them, against sympy and exhaustive enumeration."""

import itertools
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
import hypothesis.strategies as st

from multislice import juntas
from multislice.correction import _boolean_monomials, _monomial_rows, hitting_set
from multislice.seeding import derive_rng
from multislice.snf import RowEchelon, determinant

integers = st.integers(-6, 6)
fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))


@st.composite
def matrices(draw, square=False):
    """Small matrices of ints or Fractions; some rows are made dependent."""
    rows = draw(st.integers(0, 5))
    cols = rows if square else draw(st.integers(1, 5))
    entry = draw(st.sampled_from([integers, fractions]))
    mat = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    if rows >= 3 and draw(st.booleans()):
        c = draw(entry)
        mat[-1] = [a + c * b for a, b in zip(mat[0], mat[1])]
    return mat


def _fed(echelon, mat):
    for row in mat:
        echelon.add(row)
    return echelon


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rank_over_q_matches_sympy(mat):
    assert _fed(RowEchelon(), mat).rank == sympy.Matrix(mat).rank()


@settings(max_examples=200, deadline=None)
@given(matrices(square=True), st.randoms(use_true_random=False))
def test_determinant_matches_sympy_under_row_order(mat, rnd):
    det = determinant(mat)
    assert isinstance(det, Fraction)
    assert det == sympy.Matrix(mat).det()
    perm = list(range(len(mat)))
    rnd.shuffle(perm)
    shuffled = [mat[i] for i in perm]
    assert determinant(shuffled) == sympy.Matrix(shuffled).det()
    if len(mat) >= 2:
        swapped = [mat[1], mat[0]] + mat[2:]
        assert determinant(swapped) == -det


def test_determinant_examples():
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[1, 2], [2, 4]]) == 0
    assert determinant([[Fraction(1, 2), 0], [0, Fraction(2, 3)]]) == Fraction(1, 3)
    with pytest.raises(ValueError):
        determinant([[1, 2]])


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.integers(1, 3),
    st.integers(1, 4),
    st.data(),
)
def test_rank_mod_p_is_log_of_the_enumerated_span(p, rows, cols, data):
    mat = [[data.draw(st.integers(0, 2 * p)) for _ in range(cols)] for _ in range(rows)]
    span = {
        tuple(sum(c * row[j] for c, row in zip(coeffs, mat)) % p for j in range(cols))
        for coeffs in itertools.product(range(p), repeat=rows)
    }
    echelon = _fed(RowEchelon(p), mat)
    assert len(span) == p**echelon.rank
    # the stored rows are a reduced basis of that span
    assert all(0 <= v < p for row in echelon.rows for v in row)
    assert all(row[c] == 1 for row, c in zip(echelon.rows, echelon.pivots))
    if rows == cols:
        sign = -1 if echelon.odd else 1
        det = sign * echelon.pivot_product if echelon.rank == rows else 0
        assert det % p == sympy.Matrix(mat).det() % p


def test_add_reports_independence():
    echelon = RowEchelon()
    assert echelon.add([2, 4, 0])
    assert not echelon.add([1, 2, 0])
    assert echelon.add([0, 0, 3])
    assert not echelon.add([0, 0, 0])
    assert echelon.rank == 2 and echelon.pivots == [0, 2]
    assert echelon.rows == [[1, 2, 0], [0, 0, 1]]


# ---------------------------------------------------------------------------
# callers


def _greedy_hitting_set(r, d, lo, hi, rng):
    """hitting_set's search with sympy ranks and sympy invariant factors."""
    from sympy.matrices.normalforms import invariant_factors

    candidates = [
        bytes(1 if i in ones else 0 for i in range(r))
        for w in range(lo, hi + 1)
        for ones in itertools.combinations(range(r), w)
    ]
    order = [candidates[int(i)] for i in rng.permutation(len(candidates))]
    monos = _boolean_monomials(r, d)
    chosen = []
    for cand in order:
        before = sympy.Matrix(_monomial_rows(chosen, monos)).rank()
        if sympy.Matrix(_monomial_rows(chosen + [cand], monos)).rank() > before:
            chosen.append(cand)
        if len(chosen) == len(monos):
            break
    remaining = [b for b in order if b not in chosen]

    def certified():
        facts = [f for f in invariant_factors(sympy.Matrix(_monomial_rows(chosen, monos))) if f]
        return len(facts) == len(monos) and all(f == 1 for f in facts)

    while not certified():
        chosen.append(remaining.pop())
    return tuple(sorted(chosen))


@pytest.mark.parametrize(
    "r, d, interval",
    [(3, 1, (1, 2)), (4, 1, (1, 3)), (4, 2, (1, 3)), (5, 1, (2, 3)), (5, 2, (1, 4)), (5, 2, (0, 5))],
)
def test_hitting_set_matches_a_greedy_on_sympy_ranks(r, d, interval):
    lo, hi = interval
    streams = [(0, "hitting-set", r, d, lo, hi)] + [(41, "hitting-oracle", i) for i in range(3)]
    for labels in streams:
        got = hitting_set(r, d, interval, rng=derive_rng(*labels))
        assert got == _greedy_hitting_set(r, d, lo, hi, derive_rng(*labels))
    assert hitting_set(r, d, interval) == _greedy_hitting_set(r, d, lo, hi, derive_rng(*streams[0]))


def test_ball_interpolation_rejects_singular_and_non_integral_systems(monkeypatch):
    # an interpolating set whose unique rational solution is (1/2, 1/2, 1/2, -1/2)
    odd = [bytes([0, 0, 1]), bytes([0, 1, 0]), bytes([1, 0, 0]), bytes([1, 1, 1])]
    monkeypatch.setattr(juntas, "ball_points", lambda s, m, d, center: odd)
    with pytest.raises(ArithmeticError, match="not integral"):
        juntas.ball_interpolation_coeffs(2, 3, 1, (1, 1, 1))
    repeated = odd[:3] + odd[:1]
    monkeypatch.setattr(juntas, "ball_points", lambda s, m, d, center: repeated)
    with pytest.raises(ArithmeticError, match="singular"):
        juntas.ball_interpolation_coeffs(2, 3, 1, (1, 1, 1))
