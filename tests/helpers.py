"""Shared oracles for the test suite, kept deliberately independent of the
library's own construction paths (brute force, closed forms, simulation)."""

import itertools
from fractions import Fraction

import numpy as np

from multislice.budget import check_capacity
from multislice.correction import FunctionOracle, _plurality
from multislice.juntas import enumerate_polynomials, monomials_up_to
from multislice.slices import SliceSpec, enumerate_slice, multinomial
from multislice.subgrids import _grid_matrix, random_subgrid


def odlsz_exhaustive_row(a: bytes, s: int) -> dict[bytes, Fraction]:
    """Exact one-step distribution of the letter-randomizing walk from ``a``,
    by enumerating every alignment choice and every added word."""
    n = len(a)
    m = n // s
    positions = [[i for i, v in enumerate(a) if v == j] for j in range(s)]
    row: dict[bytes, int] = {}
    total = 0
    for maps in itertools.product(itertools.permutations(range(m)), repeat=s):
        for y in itertools.product(range(s), repeat=m):
            b = bytearray(n)
            for j in range(s):
                for t, i in enumerate(positions[j]):
                    b[i] = (y[maps[j][t]] + j) % s
            key = bytes(b)
            row[key] = row.get(key, 0) + 1
            total += 1
    return {k: Fraction(v, total) for k, v in row.items()}


def identification_exhaustive_joint(s: int, k: int) -> dict[tuple[bytes, bytes], Fraction]:
    """Exact joint law of (x_tau(a), x_tau(b)) for independent uniform points
    a, b of the small balanced slice and a uniform s-to-1 identification tau.

    An s-to-1 map tau : [s^2 k] -> [sk] is encoded as a word of length s^2*k
    over an alphabet of size sk in which every letter occurs exactly s times.
    """
    big_n = s * s * k
    small = SliceSpec.balanced(s, s * k)
    taus = enumerate_slice(SliceSpec(s * k, big_n, (s,) * (s * k)))
    small_points = enumerate_slice(small)
    joint: dict[tuple[bytes, bytes], int] = {}
    for tau in taus:
        for a in small_points:
            ua = bytes(a[tau[i]] for i in range(big_n))
            for b in small_points:
                vb = bytes(b[tau[i]] for i in range(big_n))
                joint[(ua, vb)] = joint.get((ua, vb), 0) + 1
    total = len(taus) * len(small_points) ** 2
    return {key: Fraction(c, total) for key, c in joint.items()}


def marginal_closed_form(spec: SliceSpec, delta, a: bytes, T, z) -> Fraction:
    """Closed-form row marginal of a distance walk: the probability that one
    step from ``a`` reads ``z`` on the coordinates ``T`` is a product over
    letter classes of multivariate hypergeometric terms."""
    m = spec.m
    s = spec.s
    num = 1
    den = 1
    for i in range(s):
        t_i = [t for t in T if a[t] == i]
        e = [0] * s
        for t, zt in zip(T, z):
            if a[t] == i:
                e[zt] += 1
        p = delta[i]
        num *= multinomial(m - len(t_i), [p[j] - e[j] for j in range(s)])
        den *= multinomial(m, list(p))
    return Fraction(num, den)


def closed_form_epsilon(spec: SliceSpec, delta, rows) -> Fraction:
    """Worst statistical distance over the given rows and all <=2-subsets,
    from the closed-form marginals."""
    s = spec.s
    worst = Fraction(0)
    subsets = [
        T
        for size in (1, 2)
        for T in itertools.combinations(range(spec.n), size)
    ]
    for a in rows:
        for T in subsets:
            u = Fraction(1, s ** len(T))
            sd = Fraction(0)
            for z in itertools.product(range(s), repeat=len(T)):
                sd += abs(marginal_closed_form(spec, delta, a, T, z) - u)
            worst = max(worst, sd / 2)
    return worst


def doubly_stochastic_profiles(s: int, m: int):
    """All s x s non-negative integer matrices with every row and column sum
    equal to m (the realizable distance profiles on the balanced slice)."""
    rows = []

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for v in range(total + 1):
            for rest in compositions(total - v, parts - 1):
                yield (v,) + rest

    all_rows = list(compositions(m, s))

    out = []

    def rec(chosen, col_left):
        if len(chosen) == s:
            if all(c == 0 for c in col_left):
                out.append(tuple(chosen))
            return
        for row in all_rows:
            if all(v <= c for v, c in zip(row, col_left)):
                rec(chosen + [row], [c - v for c, v in zip(col_left, row)])

    rec([], [m] * s)
    return out


# ---------------------------------------------------------------------------
# scalar references for the batched correctors: one JuntaPolynomial per
# codeword, and one oracle query per point


def codebook_by_polynomials(s: int, k: int, d: int, group):
    """Every degree-<=d junta-sum on [s]^k from ``enumerate_polynomials``, and
    an int64 (num_polys, s^k) array of their truth tables as element indices,
    built polynomial by polynomial."""
    n_monos = len(monomials_up_to(s, k, d))
    total = group.order**n_monos
    check_capacity(total * s**k, "decoding codebook")
    grid = _grid_matrix(s, k)
    polys = tuple(enumerate_polynomials(s, k, d, group))
    factors = group.factors
    tables = np.zeros((total, s**k), dtype=np.int64)
    for row, poly in enumerate(polys):
        per_factor = [np.zeros(s**k, dtype=np.int64) for _ in factors]
        for mono, g in poly.coeffs.items():
            mask = np.ones(s**k, dtype=bool)
            for i, a in mono:
                mask &= grid[:, i] == a
            for t, (gv, f) in enumerate(zip(g, factors)):
                per_factor[t][mask] += gv
        idx = np.zeros(s**k, dtype=np.int64)
        for vec, f in zip(per_factor, factors):
            idx = idx * f + vec % f
        tables[row] = idx
    return polys, tables


def unique_decode_scalar(table, s: int, k: int, d: int, group, radius):
    """The unique codeword at distance strictly below ``radius`` from a
    grid-order table of elements, or None."""
    polys, tables = codebook_by_polynomials(s, k, d, group)
    target = np.array([group.index(v) for v in table], dtype=np.int64)
    mism = (tables != target[None, :]).sum(axis=1)
    threshold = Fraction(radius) * s**k
    if threshold.denominator == 1:
        allowed = int(threshold) - 1
    else:
        allowed = threshold.numerator // threshold.denominator
    hits = np.nonzero(mism <= allowed)[0]
    return polys[int(hits[0])] if len(hits) == 1 else None


def subgrid_error_reduce_scalar(f, a, k: int, d: int, rng):
    a = bytes(a)
    sub = random_subgrid(f.s, f.n, k, rng, anchor=a)
    table = [f.query(bytes(row)) for row in sub.embed_all()]
    decoded = unique_decode_scalar(table, f.s, k, d, f.group, Fraction(1, 2 * f.s**d))
    if decoded is None:
        return f.group.zero
    return decoded.evaluate(bytes(k))


def gadget_evaluate_scalar(gadget, oracle, a, rng):
    g = oracle.group
    total = g.zero
    for c, y in zip(gadget.coeffs, gadget.sample_shifts(rng)):
        point = bytes((av + yv) % gadget.s for av, yv in zip(a, y))
        total = g.add(total, g.scale(oracle.query(point), c))
    return total


def base_reduce_scalar(f, x, rng, gadget):
    return _plurality([gadget_evaluate_scalar(gadget, f, x, rng) for _ in range(3)])


def recursive_reduce_scalar(f, x, depth: int, rng, gadget):
    def level(t: int, point: bytes):
        if t == 0:
            return f.query(point)
        inner = FunctionOracle(f.s, f.n, f.group, lambda p: level(t - 1, p))
        return base_reduce_scalar(inner, point, rng, gadget)

    return level(depth, bytes(x))


def interpolating_correct_scalar(iset, f, rng):
    assignment = iset.sample_assignment(f.n, rng)
    g = f.group
    total = g.zero
    for b in iset.points:
        x = bytes(b[j] for j in assignment)
        total = g.add(total, g.scale(f.query(x), iset.coeffs[b]))
    return total


def torsion_correct_scalar(f, scheme, rng, x=None):
    n, group = f.n, f.group
    h = rng.integers(0, scheme.slice_length, size=n)
    slice_pts = scheme.slice_matrix()
    images = slice_pts[:, h]
    if x is not None and bytes(x) != bytes([1]) * n:
        images = images ^ (np.frombuffer(bytes(x), dtype=np.uint8) ^ 1)[None, :]
    total = group.zero
    for row, image in zip(slice_pts, images):
        value = f.query(image.tobytes())
        c = scheme.coefficient(row.tobytes())
        if c:
            total = group.add(total, group.scale(value, c))
    return total
