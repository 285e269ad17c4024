"""The batch path (``evaluate_many``, ``query_many``, the compiled codebook
and the correctors routed through them) against the scalar references in
``helpers``: same values, same query counts, same random draws."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    base_reduce_scalar,
    codebook_by_polynomials,
    interpolating_correct_scalar,
    recursive_reduce_scalar,
    subgrid_error_reduce_scalar,
    torsion_correct_scalar,
    unique_decode_scalar,
)
from multislice.correction import (
    FunctionOracle,
    NoisyOracle,
    _codebook,
    base_reduce,
    biased_cube_correct,
    brute_force_unique_decode,
    build_gadget,
    build_interpolating_set,
    recursive_reduce,
    subgrid_error_reduce,
    torsion_correct,
    torsion_scheme,
)
from multislice.groups import AbelianGroup
from multislice.juntas import random_polynomial
from multislice.listcorr import brute_force_list
from multislice.seeding import derive_rng

Z2 = AbelianGroup((2,))
Z3 = AbelianGroup((3,))
Z6 = AbelianGroup((6,))
Z2xZ2 = AbelianGroup((2, 2))
GROUPS = [Z2, Z3, Z2xZ2, Z6]


@st.composite
def polynomials_and_points(draw):
    group = draw(st.sampled_from(GROUPS))
    s = draw(st.sampled_from([2, 3]))
    d = draw(st.sampled_from([0, 1, 2]))
    n = draw(st.integers(max(d, 1), 6))
    seed = draw(st.integers(0, 2**32))
    rng = derive_rng(seed, "batch")
    poly = random_polynomial(s, n, d, group, rng, terms=draw(st.none() | st.integers(0, 6)))
    batch = draw(st.integers(0, 24))
    points = rng.integers(0, s, size=(batch, n)).astype(np.uint8)
    return poly, points, rng


@settings(max_examples=150, deadline=None)
@given(polynomials_and_points())
def test_evaluate_many_equals_stacked_evaluate(case):
    poly, points, _ = case
    want = np.array([poly.evaluate(bytes(x)) for x in points], dtype=np.int64)
    got = poly.evaluate_many(points)
    assert got.shape == (len(points), len(poly.group.factors))
    assert (got == want.reshape(got.shape)).all()


@settings(max_examples=150, deadline=None)
@given(polynomials_and_points(), st.sampled_from([0, 0.1, 0.5]), st.integers(-2**40, 2**40),
       st.integers(0, 6))
def test_query_many_equals_scalar_queries(case, rate, seed, n_explicit):
    poly, points, rng = case
    g = poly.group
    errors = {bytes(x): g.from_index(int(rng.integers(g.order))) for x in points[:n_explicit]}
    batch = NoisyOracle(poly, errors, error_rate=rate, seed=seed)
    scalar = batch.fork()
    got = batch.query_many(points)
    want = [g.index(scalar.query(bytes(x))) for x in points]
    assert got.tolist() == want
    assert batch.queries == scalar.queries == len(points)


def test_function_oracle_batch_calls_fn_row_by_row_in_order():
    seen = []

    def fn(x):
        seen.append(x)
        return (len(seen) % 3,)

    oracle = FunctionOracle(2, 3, Z3, fn)
    points = np.array([[0, 1, 1], [1, 0, 0], [0, 1, 1]], dtype=np.uint8)
    assert oracle.query_many(points).tolist() == [1, 2, 0]
    assert seen == [b"\x00\x01\x01", b"\x01\x00\x00", b"\x00\x01\x01"]
    assert oracle.queries == 3


@pytest.mark.parametrize("s,k,d,group", [
    (2, 3, 1, Z2), (2, 2, 2, Z2), (3, 2, 1, Z2), (2, 2, 1, Z3), (2, 2, 1, Z2xZ2),
    (2, 2, 1, Z6), (3, 1, 1, Z6), (2, 3, 0, Z6), (3, 2, 0, Z2xZ2),
    (2, 2, 0, AbelianGroup((256,))), (2, 1, 0, AbelianGroup((1, 256))),
    (2, 1, 0, AbelianGroup((2, 128))),
])
def test_compiled_codebook_matches_the_polynomial_by_polynomial_build(s, k, d, group):
    polys, tables = codebook_by_polynomials(s, k, d, group)
    book = _codebook(s, k, d, group)
    assert book.tables.dtype == np.min_scalar_type(group.order - 1)
    assert (book.tables.astype(np.int64) == tables).all()
    assert [book.polynomial(i) for i in range(len(polys))] == list(polys)


def test_codebook_builds_only_returned_polynomials():
    book = _codebook(3, 4, 1, Z3)
    assert book.tables.shape == (3**9, 81) and book.tables.dtype == np.uint8
    assert book.polynomial(5) is not book.polynomial(5)


@pytest.mark.parametrize("group", [Z2, Z3, Z2xZ2])
def test_decoders_accept_index_arrays(group):
    rng = derive_rng(3, "index-table", *group.factors)
    truth = random_polynomial(2, 4, 1, group, rng)
    table = list(truth.truth_table())
    for i in rng.choice(16, size=3, replace=False):
        table[int(i)] = group.add(table[int(i)], group.from_index(1))
    indices = np.array([group.index(v) for v in table])
    for as_array in (indices, indices.astype(np.uint8)):
        assert brute_force_unique_decode(as_array, 2, 4, 1, group, Fraction(1, 4)) == \
            brute_force_unique_decode(table, 2, 4, 1, group, Fraction(1, 4))
        assert brute_force_list(as_array, 2, 4, 1, group, Fraction(3, 8)) == \
            brute_force_list(table, 2, 4, 1, group, Fraction(3, 8))
    with pytest.raises(ValueError):
        brute_force_unique_decode(np.full(16, group.order), 2, 4, 1, group, Fraction(1, 4))
    with pytest.raises(ValueError):
        brute_force_list(indices[:15], 2, 4, 1, group, Fraction(1, 4))


def test_unique_decode_matches_the_scalar_decoder():
    rng = derive_rng(4, "decode")
    for group, s, k in ((Z2, 2, 4), (Z3, 3, 2), (Z2xZ2, 2, 3)):
        truth = random_polynomial(s, k, 1, group, rng)
        for flips in range(4):
            table = list(truth.truth_table())
            for i in rng.choice(len(table), size=flips, replace=False):
                table[int(i)] = group.random_element(rng)
            for radius in (Fraction(1, 2 * s), Fraction(1, 2)):
                assert brute_force_unique_decode(table, s, k, 1, group, radius) == \
                    unique_decode_scalar(table, s, k, 1, group, radius)


def _same_run(batch_call, scalar_call, make_oracle, seed):
    """Run both with equal fresh oracles and generators, and check that the
    outputs, the query counts and the generators' next draws agree."""
    oracles = make_oracle(), make_oracle()
    rngs = derive_rng(seed, "same-run"), derive_rng(seed, "same-run")
    got = batch_call(oracles[0], rngs[0])
    want = scalar_call(oracles[1], rngs[1])
    assert oracles[0].queries == oracles[1].queries
    assert rngs[0].integers(2**62) == rngs[1].integers(2**62)
    assert got == want


@pytest.mark.parametrize("s,n,k,group,rate", [
    (2, 16, 5, Z2, 0.1), (3, 9, 3, Z3, 0.05), (2, 12, 4, Z2xZ2, 0.15), (2, 10, 3, Z6, 0.1),
])
def test_subgrid_error_reduce_matches_the_scalar_reference(s, n, k, group, rate):
    rng = derive_rng(5, "subgrid", s, n, *group.factors)
    truth = random_polynomial(s, n, 1, group, rng)
    flips = {bytes(rng.integers(0, s, size=n).astype(np.uint8)): group.from_index(1)
             for _ in range(20)}
    for trial in range(6):
        x = bytes(rng.integers(0, s, size=n).astype(np.uint8))
        _same_run(lambda f, r: subgrid_error_reduce(f, x, k, 1, r),
                  lambda f, r: subgrid_error_reduce_scalar(f, x, k, 1, r),
                  lambda: NoisyOracle(truth, flips, error_rate=rate, seed=trial), trial)


@pytest.mark.parametrize("group,d", [(Z2, 1), (Z2xZ2, 1), (Z2, 0)])
def test_torsion_correct_matches_the_scalar_reference(group, d):
    scheme = torsion_scheme(2, d, 2)
    coefficients = [scheme.coefficient(row.tobytes()) for row in scheme.slice_matrix()]
    assert scheme.coefficient_vector.tolist() == coefficients
    rng = derive_rng(6, "torsion", *group.factors, d)
    truth = random_polynomial(2, 12, 1, group, rng)
    for x in (None, bytes(rng.integers(0, 2, size=12).astype(np.uint8))):
        _same_run(lambda f, r: torsion_correct(f, scheme, r, x=x),
                  lambda f, r: torsion_correct_scalar(f, scheme, r, x=x),
                  lambda: NoisyOracle.random_errors(truth, 0.002, seed=9), 7)


@pytest.mark.parametrize("s,group", [(2, Z2), (3, Z3), (2, Z2xZ2)])
def test_gadget_reducers_match_the_scalar_references(s, group):
    n = 8
    gadget = build_gadget(n, s, 1, Fraction(1, 4) if s == 2 else Fraction(2, 5))
    rng = derive_rng(8, "gadget", s, *group.factors)
    truth = random_polynomial(s, n, 1, group, rng)
    make = lambda: NoisyOracle.random_errors(truth, 0.1, seed=3)
    for trial in range(4):
        x = bytes(rng.integers(0, s, size=n).astype(np.uint8))
        _same_run(lambda f, r: base_reduce(f, x, r, gadget=gadget),
                  lambda f, r: base_reduce_scalar(f, x, r, gadget), make, trial)
        _same_run(lambda f, r: recursive_reduce(f, x, 2, r, gadget=gadget),
                  lambda f, r: recursive_reduce_scalar(f, x, 2, r, gadget), make, trial)


def test_interpolating_and_biased_cube_correctors_match_the_scalar_references():
    iset = build_interpolating_set(2, 1, 6, 2)
    rng = derive_rng(10, "interp")
    for s, group in ((2, Z2), (3, Z6)):
        truth = random_polynomial(s, 9, 1, group, rng)
        make = lambda: NoisyOracle.random_errors(truth, 0.05, seed=11)
        x = bytes(rng.integers(0, s, size=9).astype(np.uint8))
        if s == 2:
            _same_run(lambda f, r: iset.correct(f, r),
                      lambda f, r: interpolating_correct_scalar(iset, f, r), make, s)
        _same_run(lambda f, r: biased_cube_correct(f, x, iset.correct, r),
                  lambda f, r: biased_cube_correct(
                      f, x, lambda g, q: interpolating_correct_scalar(iset, g, q), r),
                  make, s)
