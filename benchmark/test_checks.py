"""Each independent check accepts the library's correct output and rejects a
deliberately wrong value.

    python3 -m pytest -q benchmark
"""

import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
from multislice import correction, juntas, listcorr, tableaux, walks  # noqa: E402
from multislice.groups import AbelianGroup  # noqa: E402
from multislice.seeding import derive_rng  # noqa: E402
from multislice.slices import SliceSpec  # noqa: E402

Z2 = AbelianGroup((2,))
Z23 = AbelianGroup((2, 3))


@pytest.mark.parametrize("s,n,d,group", [(2, 12, 1, Z2), (3, 7, 2, Z23), (4, 5, 1, Z2)])
def test_junta_eval_matches_library_and_rejects_a_flipped_value(s, n, d, group):
    rng = derive_rng(0, "bench-test", s, n)
    poly = juntas.random_polynomial(s, n, d, group, rng)
    pts = rng.integers(0, s, size=(50, n))
    want = [poly.evaluate(bytes(int(v) for v in row)) for row in pts]
    got = checks.junta_eval(poly.to_json(), pts)
    assert checks.check_values("eval", got, want) == []
    flipped = list(got)
    flipped[7] = group.add(flipped[7], group.from_index(1))
    assert checks.check_values("eval", flipped, want)


def test_subgrid_correction_check_rejects_a_flipped_correction():
    rng = derive_rng(1, "bench-test")
    truth = juntas.random_polynomial(2, 16, 1, Z2, rng)
    oracle = correction.NoisyOracle.exact(truth)
    xs = [bytes(int(v) for v in rng.integers(0, 2, size=16)) for _ in range(8)]
    got = [correction.subgrid_error_reduce(oracle, x, 6, 1, rng) for x in xs]
    want = checks.junta_eval(truth.to_json(), np.array([list(x) for x in xs]))
    assert checks.check_values("subgrid", got, want) == []
    got[3] = (1 - got[3][0],)
    assert checks.check_values("subgrid", got, want)


def test_success_floor():
    assert checks.check_success_rate("x", 95, 100, 0.9) == []
    assert checks.check_success_rate("x", 60, 100, 0.9)
    assert checks.binomial_floor(0.75, 5) < 0.75 < checks.binomial_floor(0.75, 10**6) + 1e-2


@pytest.mark.parametrize("wins,trials,rejected", [
    (2, 5, True), (3, 5, False), (3, 7, True), (4, 7, False), (4, 8, True), (5, 8, False),
    (14, 20, False), (11, 20, True),
])
def test_list_recovery_test(wins, trials, rejected):
    from workloads import ListCorrect
    got = checks.check_rate_test("x", wins, trials, 0.75, ListCorrect.RECOVERY_ALPHA)
    assert bool(got) is rejected


@pytest.mark.parametrize("n,profile,j", [(4, [[1, 1], [1, 1]], 1), (8, [[3, 1], [1, 3]], 1),
                                         (8, [[2, 2], [2, 2]], 2)])
def test_eberlein_matches_the_walk_and_rejects_a_perturbed_eigenvalue(n, profile, j):
    walk = walks.walk_from_distance(SliceSpec.balanced(2, n), profile)
    eig = np.asarray(walks.spectral_report(walk).eigenvalues)
    spectrum = checks.eberlein_spectrum(n, n // 2, j)
    assert checks.check_spectrum("w", eig, spectrum) == []
    bad = eig.copy()
    bad[1] += 1e-6
    assert checks.check_spectrum("w", bad, spectrum)
    deg = 1
    for row in profile:
        deg *= checks.multinomial(row)
    fro = Fraction(walk.size, deg)
    dense = walk.dense()
    assert checks.check_trace_frobenius("w", dense, eig, fro) == []
    assert checks.check_trace_frobenius("w", dense, bad * 1.01, fro)
    assert checks.check_trace_frobenius("w", dense, eig, fro * 2)
    assert checks.check_stochastic("w", dense) == []
    skew = dense.copy()
    skew[0, 1] += 1e-3
    skew[0, 0] -= 1e-3
    assert checks.check_stochastic("w", skew)


def test_identification_spectrum_and_epsilon():
    walk = walks.walk_subgrid_identification(2, 2)
    eig = walks.spectral_report(walk).eigenvalues
    terms = checks.identification_mixture(2)
    spectrum = checks.mixed_spectrum(8, 4, [(w, prof[0][1]) for w, prof in terms])
    assert checks.check_spectrum("id", eig, spectrum) == []
    assert checks.check_spectrum("id", eig, checks.eberlein_spectrum(8, 4, 2))
    eps = walks.independence_report(walk, 2, rows="canonical").epsilon
    assert checks.mixture_epsilon(terms, 2, 4) == eps
    assert checks.mixture_epsilon(terms[:-1] + [(terms[-1][0], terms[0][1])], 2, 4) != eps


@pytest.mark.parametrize("s,n", [(2, 6), (3, 6), (3, 9)])
def test_distance_epsilon_closed_form(s, n):
    m = n // s
    profile = [[m - 1 if i == j else (1 if j == (i + 1) % s else 0) for j in range(s)]
               for i in range(s)]
    walk = walks.walk_from_distance(SliceSpec.balanced(s, n), profile)
    eps = walks.independence_report(walk, 2, rows="canonical").epsilon
    assert checks.mixture_epsilon([(Fraction(1), profile)], s, m) == eps
    other = [[m if i == j else 0 for j in range(s)] for i in range(s)]
    assert checks.mixture_epsilon([(Fraction(1), other)], s, m) != eps


def test_odlsz_row_and_epsilon_reject_a_perturbed_row():
    walk = walks.walk_odlsz(3, 6)
    points = checks.balanced_points(3, 6)
    law = checks.odlsz_row(points[0], 3)
    row = walk.dense()[0]
    assert checks.check_row("odlsz", row, law, points) == []
    bad = row.copy()
    j = int(np.flatnonzero(bad)[0])
    bad[j] = np.nextafter(bad[j], 1.0)
    assert checks.check_row("odlsz", bad, law, points)
    eps = walks.independence_report(walk, 2, rows="canonical").epsilon
    assert checks.mixture_epsilon(checks.odlsz_mixture(3, 6), 3, 2) == eps


def test_hitting_set_rank_rejects_a_dropped_point():
    points = correction.hitting_set(6, 1, (2, 4), derive_rng(0, "bench-test"))
    assert checks.check_full_rank("hs", points, 1) == []
    assert checks.check_weights("hs", points, 2, 4) == []
    monomials = len(checks.boolean_monomials(6, 1))
    assert checks.check_full_rank("hs", points[: monomials - 1], 1)
    assert checks.check_weights("hs", points + (bytes(6),), 2, 4)


def test_interpolating_set_identity_rejects_a_changed_coefficient():
    iset = correction.build_interpolating_set(2, 1, 6, 2, rng=derive_rng(0, "bench-test"))
    assert checks.check_interpolation("is", iset.points, iset.coeffs, 1) == []
    assert checks.check_full_rank("is", iset.points, 1) == []
    assert checks.check_weight_balance("is", iset.points, 2, 1, 6, 2) == []
    bad = dict(iset.coeffs)
    bad[iset.points[0]] += 6  # still right modulo 6, wrong over the integers
    assert checks.check_interpolation("is", iset.points, bad, 1)
    assert checks.check_weight_balance("is", [bytes([1]) * 12], 2, 1, 6, 2)


def test_gram_determinant_check_rejects_a_wrong_determinant():
    lam = (2, 1)
    tabs = tableaux.enumerate_ssyt(lam, (1, 1, 1))
    vectors = [tableaux.chi_vector(lam, t, 3) for t in tabs]
    det = tableaux.gram_det(vectors)
    assert checks.check_gram("g", vectors, det) == []
    assert checks.check_gram("g", vectors, det * 2)
    assert checks.check_gram("g", vectors, -det)


def test_list_check_rejects_a_dropped_codeword():
    codebook = checks.degree1_codebook(2, 4, 2)
    assert codebook.shape == (32, 16)
    table = codebook[5].copy()
    table[:3] ^= 1
    allowed = 6
    listed = listcorr.brute_force_list([(int(v),) for v in table], 2, 4, 1, Z2, Fraction(6, 16))
    grid = np.array(list(np.ndindex(2, 2, 2, 2)))
    tables = np.array([[v[0] for v in checks.junta_eval(p.to_json(), grid)] for p in listed])
    assert checks.check_list("l", table, tables, codebook, allowed) == []
    assert checks.check_list("l", table, tables[1:], codebook, allowed)


def test_distance_closed_forms():
    assert checks.odlsz_delta(3, 2) == Fraction(1, 3)
    assert checks.odlsz_delta(2, 3) == Fraction(1, 8)
    assert checks.slice_bound((2, 2, 2), 1) == 6
    assert checks.junta_monomial_count(3, 3, 1) == 7


def test_span_recorder_self_time_and_absent_names(monkeypatch):
    rec = spans.SpanRecorder("test")
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS[:2] + (
        spans.Target("gone.function", "multislice.juntas:no_such_function"),))
    original = juntas.JuntaPolynomial.evaluate, juntas.JuntaPolynomial.truth_table
    try:
        absent = spans.instrument(rec)
        poly = juntas.random_polynomial(2, 4, 1, Z2, derive_rng(0, "bench-test"))
        rec.active = True
        with rec.span("phase.round"):
            poly.truth_table()
        rec.active = False
    finally:
        juntas.JuntaPolynomial.evaluate, juntas.JuntaPolynomial.truth_table = original
    assert absent == ["gone.function"]
    stats = rec.summarize(roots={"phase.round"})
    assert stats["juntas.evaluate"].calls == 16
    assert stats["juntas.truth_table"].calls == 1
    table = stats["juntas.truth_table"]
    assert 0 <= table.self_s <= table.inclusive_s
    assert table.inclusive_s >= stats["juntas.evaluate"].inclusive_s
