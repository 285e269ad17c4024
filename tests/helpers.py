"""Shared oracles for the test suite, kept deliberately independent of the
library's own construction paths (brute force, closed forms, simulation)."""

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from multislice.budget import check_capacity
from multislice.correction import FunctionOracle, _plurality
from multislice.fields import FieldPolynomial, field_monomials
from multislice.juntas import (
    _grid_matrix,
    enumerate_polynomials,
    monomial_value,
    monomials_up_to,
)
from multislice.slices import (
    SliceSpec,
    apply_permutation,
    enumerate_slice,
    multinomial,
    rank_index,
)
from multislice.snf import RowEchelon
from multislice.subgrids import random_subgrid


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


# ---------------------------------------------------------------------------
# the walk layer on Fraction rows: one {column rank: Fraction} dict per row,
# the reference for the integer CSR walks


@dataclass
class FractionWalk:
    spec: SliceSpec
    rows: tuple[dict[int, Fraction], ...]

    @property
    def size(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i].get(j, Fraction(0))

    def dense(self) -> np.ndarray:
        out = np.zeros((self.size, self.size))
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                out[i, j] = float(v)
        return out

    def transpose(self) -> "FractionWalk":
        cols: list[dict[int, Fraction]] = [dict() for _ in range(self.size)]
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                cols[j][i] = v
        return FractionWalk(self.spec, tuple(cols))

    def is_stochastic(self) -> bool:
        one = Fraction(1)
        return all(sum(row.values(), Fraction(0)) == one for row in self.rows)

    def is_doubly_stochastic(self) -> bool:
        if not self.is_stochastic():
            return False
        col_sums = [Fraction(0)] * self.size
        for row in self.rows:
            for j, v in row.items():
                col_sums[j] += v
        return all(c == 1 for c in col_sums)

    def is_symmetric(self) -> bool:
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                if self.rows[j].get(i, Fraction(0)) != v:
                    return False
        return True


def fraction_walk_from_terms(spec: SliceSpec, terms) -> FractionWalk:
    """sum_i alpha_i W_{delta_i}, one neighbour at a time: every arrangement
    of each letter class, ranked through ``rank_index``."""
    s, m, n = spec.s, spec.m, spec.n
    points = enumerate_slice(spec)
    ranks = rank_index(spec)
    rows_out: list[dict[int, Fraction]] = [dict() for _ in points]
    for alpha, delta in terms:
        arrangements = [enumerate_slice(SliceSpec(s, m, tuple(row))) for row in delta]
        weight = Fraction(alpha) / len(list(itertools.product(*arrangements)))
        for idx, a in enumerate(points):
            positions: list[list[int]] = [[] for _ in range(s)]
            for i, v in enumerate(a):
                positions[v].append(i)
            row = rows_out[idx]
            for combo in itertools.product(*arrangements):
                b = bytearray(n)
                for sigma in range(s):
                    for t, p in enumerate(positions[sigma]):
                        b[p] = combo[sigma][t]
                r = ranks[bytes(b)]
                row[r] = row.get(r, Fraction(0)) + weight
    return FractionWalk(spec, tuple(rows_out))


def respects_symmetries_fraction(walk: FractionWalk, exhaustive: bool, rng=None, trials: int = 0):
    """(checked, violations): all n! permutations row by row, or ``trials``
    sampled (pi, a, b) triples drawn as permutation, then a, then b."""
    points = enumerate_slice(walk.spec)
    ranks = rank_index(walk.spec)
    checked = violations = 0
    if exhaustive:
        for pi in itertools.permutations(range(walk.spec.n)):
            index_map = [ranks[apply_permutation(pi, x)] for x in points]
            checked += 1
            for i, row in enumerate(walk.rows):
                target = walk.rows[index_map[i]]
                if len(target) != len(row) or any(
                    target.get(index_map[j]) != v for j, v in row.items()
                ):
                    violations += 1
                    break
        return checked, violations
    for _ in range(trials):
        pi = tuple(int(v) for v in rng.permutation(walk.spec.n))
        i = int(rng.integers(len(points)))
        j = int(rng.integers(len(points)))
        pi_i = ranks[apply_permutation(pi, points[i])]
        pi_j = ranks[apply_permutation(pi, points[j])]
        checked += 1
        if walk.entry(pi_i, pi_j) != walk.entry(i, j):
            violations += 1
    return checked, violations


def independence_report_fraction(walk: FractionWalk, k: int, rows: str):
    """(epsilon, worst_row, worst_set): every marginal summed in Fractions,
    the first strict maximum in (row, subset) order."""
    spec = walk.spec
    points = enumerate_slice(spec)
    worst = Fraction(0)
    worst_row = 0
    worst_set: tuple[int, ...] = ()
    subsets = [
        T for size in range(1, k + 1) for T in itertools.combinations(range(spec.n), size)
    ]
    for i in range(len(points)) if rows == "all" else [0]:
        support = [(points[j], v) for j, v in walk.rows[i].items()]
        for T in subsets:
            marg: dict[tuple[int, ...], Fraction] = {}
            for pt, v in support:
                key = tuple(pt[t] for t in T)
                marg[key] = marg.get(key, Fraction(0)) + v
            cells = spec.s ** len(T)
            u = Fraction(1, cells)
            sd = sum((abs(p - u) for p in marg.values()), Fraction(0))
            sd += (cells - len(marg)) * u
            sd = sd / 2
            if sd > worst:
                worst, worst_row, worst_set = sd, i, T
    return worst, worst_row, worst_set


def mixing_lhs_fraction(walk: FractionWalk, subset) -> Fraction:
    """Pr[a in U and b in U] for a uniform and b one step from a."""
    in_u = set(subset)
    lhs = Fraction(0)
    for i in sorted(in_u):
        for j, v in walk.rows[i].items():
            if j in in_u:
                lhs += v
    return lhs / walk.size


# ---------------------------------------------------------------------------
# scalar references for the exhaustive distance scans: every polynomial built
# and evaluated point by point


def grid_min_nonzero_scalar(s: int, n: int, d: int, group) -> tuple[int, int]:
    zero = group.zero
    best = None
    count = 0
    for p in enumerate_polynomials(s, n, d, group):
        if p.is_zero:
            continue
        count += 1
        nz = sum(1 for v in p.truth_table() if v != zero)
        if best is None or nz < best:
            best = nz
    if best is None:
        raise ValueError("no nonzero polynomials in the family")
    return best, count


def _span_table_int64(basis: np.ndarray, p: int) -> np.ndarray:
    width = basis.shape[1]
    table = np.zeros((1, width), dtype=np.int64)
    for row in basis:
        layers = [table] + [(table + c * row) % p for c in range(1, p)]
        table = np.concatenate(layers, axis=0)
    return table


def min_slice_nonzero_prime_scalar(s: int, n: int, d: int, p: int) -> tuple[int, int]:
    """Meet in the middle with one numpy pass per low-half combination."""
    points = enumerate_slice(SliceSpec.balanced(s, n))
    echelon = RowEchelon(p)
    for mono in monomials_up_to(s, n, d):
        echelon.add([monomial_value(mono, x) for x in points])
    r, width = echelon.rank, len(points)
    total = p**r - 1
    if r == 0:
        raise ValueError("every polynomial in the family vanishes on the slice")
    basis = np.array(echelon.rows, dtype=np.int64)
    check_capacity(p**r, "slice restriction scan")
    half = r // 2
    lo = _span_table_int64(basis[:half], p)
    hi = _span_table_int64(basis[half:], p)
    if p == 2:
        lo_bits = np.packbits(lo.astype(np.uint8), axis=1)
        hi_bits = np.packbits(hi.astype(np.uint8), axis=1)
        best = width + 1
        for i in range(lo_bits.shape[0]):
            x = np.bitwise_xor(hi_bits, lo_bits[i])
            counts = np.unpackbits(x, axis=1).sum(axis=1)
            if i == 0:
                counts[0] = width + 1  # the zero restriction
            best = min(best, int(counts.min()))
        return best, total
    best = width + 1
    for i in range(lo.shape[0]):
        counts = np.count_nonzero((hi + lo[i]) % p, axis=1)
        if i == 0:
            counts[0] = width + 1
        best = min(best, int(counts.min()))
    return best, total


def enumerate_field_polynomials(p: int, n: int, d: int):
    """Yield every polynomial of total degree <= d (including zero)."""
    monos = field_monomials(p, n, d)
    check_capacity(p ** len(monos), "field polynomial enumeration")
    for combo in itertools.product(range(p), repeat=len(monos)):
        yield FieldPolynomial(p, n, dict(zip(monos, combo)))


def min_nonzero_fraction_scalar(p: int, n: int, d: int, mode: str = "exhaustive",
                                on_slice: bool = False, rng=None, samples: int = 1000):
    if on_slice:
        domain = enumerate_slice(SliceSpec.balanced(p, n))
    else:
        check_capacity(p**n * max(n, 1), "grid scan")
        domain = [tuple(x) for x in itertools.product(range(p), repeat=n)]
    if mode == "exhaustive":
        candidates = enumerate_field_polynomials(p, n, d)
    elif mode == "sampled":
        if rng is None:
            raise ValueError("sampled mode needs an rng")
        monos = field_monomials(p, n, d)
        candidates = (
            FieldPolynomial(
                p, n, {m: int(c) for m, c in zip(monos, rng.integers(0, p, len(monos)))}
            )
            for _ in range(samples)
        )
    else:
        raise ValueError("mode must be 'exhaustive' or 'sampled'")
    best = None
    for poly in candidates:
        if poly.is_zero:
            continue
        nonzero = sum(1 for x in domain if poly.evaluate(x))
        if on_slice and nonzero == 0:
            continue
        frac = Fraction(nonzero, len(domain))
        if best is None or frac < best:
            best = frac
    if best is None:
        raise ValueError("no eligible polynomial in the family")
    return best


def min_span_weight_brute(rows, q: int):
    """The fewest nonzero entries of a nonzero c @ rows mod q, trying every c
    in Z_q^k, or None."""
    rows = np.asarray(rows, dtype=np.int64)
    coeffs = np.array(list(itertools.product(range(q), repeat=len(rows))), dtype=np.int64)
    weights = np.count_nonzero(coeffs.reshape(q ** len(rows), len(rows)) @ rows % q, axis=1)
    weights = weights[weights > 0]
    return int(weights.min()) if weights.size else None
