"""Independent correctness checks for the benchmark.

Every check here works from closed forms, exhaustive enumeration or plain
numpy, never from the library's own construction paths, and reads only the
library's stable public outputs: return values, ``oracle.queries``,
``walk.dense()`` and ``walk.size``.  Each check returns a list of failure
messages; an empty list means the check passed.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np


# ---------------------------------------------------------------------------
# junta-sums


def junta_eval(poly_json: dict, points) -> list[tuple[int, ...]]:
    """Values of a junta-sum, given as ``JuntaPolynomial.to_json()``, at each
    row of ``points``; the sum runs over the monomials whose every
    (coordinate, letter) pair matches the point."""
    pts = np.asarray(points, dtype=np.int64).reshape(-1, poly_json["n"])
    factors = list(poly_json["group"])
    totals = np.zeros((len(pts), len(factors)), dtype=np.int64)
    for item in poly_json["monomials"]:
        mask = np.ones(len(pts), dtype=bool)
        for i, a in item["support"]:
            mask &= pts[:, i] == a
        totals[mask] += np.asarray(item["coeff"], dtype=np.int64)
    totals %= np.asarray(factors, dtype=np.int64)
    return [tuple(int(v) for v in row) for row in totals]


def check_values(label: str, got: Sequence, want: Sequence) -> list[str]:
    """Every returned value equals the independent one."""
    bad = [i for i, (g, w) in enumerate(zip(got, want)) if tuple(g) != tuple(w)]
    if len(got) != len(want):
        return [f"{label}: {len(got)} values for {len(want)} expected"]
    if bad:
        return [f"{label}: {len(bad)} of {len(got)} values differ (first at {bad[0]})"]
    return []


def binomial_floor(p: float, trials: int, sigmas: float = 3.0) -> float:
    """Lowest success share consistent with rate ``p`` over ``trials``
    independent trials, ``sigmas`` standard deviations below the mean."""
    return p - sigmas * math.sqrt(p * (1 - p) / max(trials, 1))


def check_success_rate(label: str, wins: int, trials: int, floor: float) -> list[str]:
    if trials == 0 or wins < floor * trials:
        return [f"{label}: {wins}/{trials} correct, below the floor {floor:.4f}"]
    return []


def binomial_cdf(wins: int, trials: int, p: float) -> float:
    """P(X <= wins) for X ~ Binomial(trials, p)."""
    return sum(math.comb(trials, i) * p**i * (1 - p) ** (trials - i) for i in range(wins + 1))


def check_rate_test(label: str, wins: int, trials: int, p: float, alpha: float) -> list[str]:
    """Reject when ``wins`` of ``trials`` is so few that a success rate of
    ``p`` or more would give that few with probability below ``alpha`` (the
    exact one-sided binomial test)."""
    if trials == 0:
        return [f"{label}: no trials"]
    tail = binomial_cdf(wins, trials, p)
    if tail < alpha:
        return [f"{label}: {wins}/{trials}; a rate of {p} gives that few with probability "
                f"{tail:.4f} < {alpha}"]
    return []


def degree1_codebook(s: int, k: int, factor: int) -> np.ndarray:
    """Truth tables of every degree-<=1 junta-sum on [s]^k over Z_factor, by
    enumeration of the constant and the (coordinate, nonzero letter)
    coefficients; rows in no particular order, columns in grid order."""
    grid = np.array(list(itertools.product(range(s), repeat=k)), dtype=np.int64)
    indicators = [np.ones(len(grid), dtype=np.int64)]
    for i in range(k):
        for a in range(1, s):
            indicators.append((grid[:, i] == a).astype(np.int64))
    basis = np.stack(indicators)  # monomials x points
    coeffs = np.array(
        list(itertools.product(range(factor), repeat=len(indicators))), dtype=np.int64
    )
    return (coeffs @ basis) % factor


def check_list(label: str, table: Sequence[int], listed_tables: np.ndarray,
               codebook: np.ndarray, allowed: int) -> list[str]:
    """The returned list is exactly the set of codewords within ``allowed``
    mismatches of the table."""
    target = np.asarray(table, dtype=np.int64)
    want = sorted(map(tuple, codebook[(codebook != target).sum(axis=1) <= allowed]))
    got = sorted(map(tuple, np.asarray(listed_tables, dtype=np.int64).reshape(-1, len(target))))
    if got != want:
        return [f"{label}: list has {len(got)} codewords, enumeration finds {len(want)}"]
    return []


# ---------------------------------------------------------------------------
# walks on balanced slices


def multinomial(parts: Sequence[int]) -> int:
    out, rest = 1, sum(parts)
    for p in parts:
        out *= math.comb(rest, p)
        rest -= p
    return out


def balanced_points(s: int, n: int) -> list[bytes]:
    """All balanced words, lexicographic, by sorting distinct permutations."""
    word = [letter for letter in range(s) for _ in range(n // s)]
    return sorted({bytes(p) for p in itertools.permutations(word)})


def eberlein_spectrum(n: int, m: int, j: int) -> list[tuple[Fraction, int]]:
    """Eigenvalues of the distance-j walk on the (n, m) Johnson scheme, with
    multiplicities C(n,i) - C(n,i-1) (Delsarte 1973)."""
    out = []
    for i in range(min(m, n - m) + 1):
        e = sum(
            (-1) ** t * math.comb(i, t) * math.comb(m - i, j - t) * math.comb(n - m - i, j - t)
            for t in range(j + 1)
        )
        mult = math.comb(n, i) - (math.comb(n, i - 1) if i else 0)
        out.append((Fraction(e, math.comb(m, j) ** 2), mult))
    return out


def mixed_spectrum(n: int, m: int, terms: Iterable[tuple[Fraction, int]]) -> list[tuple[Fraction, int]]:
    """Spectrum of a convex combination of s=2 distance walks, given as
    (weight, j) pairs: the Johnson scheme is commutative, so eigenvalues add
    eigenspace by eigenspace."""
    total = None
    for weight, j in terms:
        spec = eberlein_spectrum(n, m, j)
        if total is None:
            total = [(weight * v, mult) for v, mult in spec]
        else:
            total = [(tv + weight * v, mult) for (tv, mult), (v, _) in zip(total, spec)]
    return total or []


def check_spectrum(label: str, eigenvalues, expected: Sequence[tuple[Fraction, int]],
                   tol: float = 1e-9) -> list[str]:
    want = sorted(float(v) for v, mult in expected for _ in range(mult))
    got = sorted(float(v) for v in np.asarray(eigenvalues))
    if len(got) != len(want):
        return [f"{label}: {len(got)} eigenvalues, closed form has {len(want)}"]
    worst = max((abs(a - b) for a, b in zip(got, want)), default=0.0)
    if worst > tol:
        return [f"{label}: eigenvalues off the closed form by {worst:.3g}"]
    return []


def check_trace_frobenius(label: str, dense: np.ndarray, eigenvalues,
                          frobenius_sq=None, tol: float = 1e-8) -> list[str]:
    """trace = sum of eigenvalues and ||W||_F^2 = sum of squares; for a
    distance walk also ||W||_F^2 = N / degree (``frobenius_sq``)."""
    eig = np.asarray(eigenvalues, dtype=float)
    out = []
    if abs(float(np.trace(dense)) - float(eig.sum())) > tol * len(eig):
        out.append(f"{label}: trace differs from the eigenvalue sum")
    fro = float((dense * dense).sum())
    if abs(fro - float((eig * eig).sum())) > tol * len(eig):
        out.append(f"{label}: Frobenius norm differs from the eigenvalue square sum")
    if frobenius_sq is not None and abs(fro - float(frobenius_sq)) > tol * len(eig):
        out.append(f"{label}: Frobenius norm {fro} differs from N/deg = {float(frobenius_sq)}")
    return out


def check_stochastic(label: str, dense: np.ndarray, tol: float = 1e-12) -> list[str]:
    """Float shadow of exact double stochasticity and symmetry: rows and
    columns sum to one and the matrix equals its transpose bit for bit
    (both entries round the same exact fraction)."""
    out = []
    if np.abs(dense.sum(axis=1) - 1).max() > tol or np.abs(dense.sum(axis=0) - 1).max() > tol:
        out.append(f"{label}: row or column sums differ from 1")
    if not np.array_equal(dense, dense.T):
        out.append(f"{label}: matrix differs from its transpose")
    return out


def _pair_marginal(delta, m: int, s: int, classes: tuple[int, ...]) -> dict:
    """Law of (b_t)_{t in T} one step from a, where ``classes`` lists a_t for
    the coordinates of T: multivariate hypergeometric within a letter class,
    independent across classes."""
    law: dict = {}
    for z in itertools.product(range(s), repeat=len(classes)):
        p = Fraction(1)
        for sigma in set(classes):
            picked = [z[i] for i, c in enumerate(classes) if c == sigma]
            row = list(delta[sigma])
            num = 1
            for tau in picked:
                num *= row[tau]
                row[tau] -= 1
            den = math.perm(m, len(picked))
            p *= Fraction(num, den) if num > 0 else 0
        law[z] = p
    return law


def mixture_epsilon(terms: Sequence[tuple[Fraction, Sequence[Sequence[int]]]], s: int, m: int) -> Fraction:
    """Worst <=2-coordinate statistical distance from uniform of one row of
    the walk sum_i alpha_i W_{delta_i}, from the closed-form marginals.  The
    marginal depends only on the letters the row's point has on T, so one
    coordinate set per letter pattern covers every T."""
    patterns = [(c,) for c in range(s)]
    patterns += [(c, c) for c in range(s)] if m >= 2 else []
    patterns += [(c, d) for c in range(s) for d in range(c + 1, s)]
    worst = Fraction(0)
    for pattern in patterns:
        law: dict = {}
        for alpha, delta in terms:
            for z, p in _pair_marginal(delta, m, s, pattern).items():
                law[z] = law.get(z, Fraction(0)) + Fraction(alpha) * p
        u = Fraction(1, s ** len(pattern))
        sd = sum((abs(p - u) for p in law.values()), Fraction(0)) / 2
        worst = max(worst, sd)
    return worst


def odlsz_mixture(s: int, n: int) -> list[tuple[Fraction, tuple]]:
    """The letter-randomizing walk as (weight, circulant profile) pairs: the
    added word has letter frequencies f with probability multinomial(f)/s^m."""
    m = n // s
    out = []
    for f in itertools.product(range(m + 1), repeat=s):
        if sum(f) != m:
            continue
        delta = tuple(tuple(f[(j - i) % s] for j in range(s)) for i in range(s))
        out.append((Fraction(multinomial(f), s**m), delta))
    return out


def identification_mixture(k: int) -> list[tuple[Fraction, tuple]]:
    """The s=2 subgrid-identification walk on length 4k: two independent
    points of the length-2k balanced slice differ in 2j coordinates with
    probability C(k,j)^2 / C(2k,k), giving the scaled profile 2*[[k-j, j], [j, k-j]]."""
    total = math.comb(2 * k, k)
    return [
        (Fraction(math.comb(k, j) ** 2, total), ((2 * (k - j), 2 * j), (2 * j, 2 * (k - j))))
        for j in range(k + 1)
    ]


def odlsz_row(a: bytes, s: int) -> dict[bytes, Fraction]:
    """Exact one-step law of the letter-randomizing walk from ``a``, over
    every alignment of the letter classes with [m] and every added word."""
    n = len(a)
    m = n // s
    positions = [[i for i, v in enumerate(a) if v == j] for j in range(s)]
    counts: dict[bytes, int] = {}
    total = 0
    for maps in itertools.product(itertools.permutations(range(m)), repeat=s):
        for y in itertools.product(range(s), repeat=m):
            b = bytearray(n)
            for j in range(s):
                for t, i in enumerate(positions[j]):
                    b[i] = (y[maps[j][t]] + j) % s
            counts[bytes(b)] = counts.get(bytes(b), 0) + 1
            total += 1
    return {b: Fraction(c, total) for b, c in counts.items()}


def check_row(label: str, dense_row: np.ndarray, law: dict[bytes, Fraction],
              points: Sequence[bytes]) -> list[str]:
    """A dense walk row equals an exact law, entry for entry (each float is
    the correctly rounded fraction)."""
    want = np.zeros(len(points))
    rank = {p: i for i, p in enumerate(points)}
    for b, p in law.items():
        want[rank[b]] = float(p)
    if len(dense_row) != len(points) or not np.array_equal(np.asarray(dense_row), want):
        return [f"{label}: walk row differs from the exhaustive step law"]
    return []


# ---------------------------------------------------------------------------
# exact algebra


def boolean_monomials(k: int, d: int) -> list[tuple[int, ...]]:
    return [c for size in range(d + 1) for c in itertools.combinations(range(k), size)]


def monomial_matrix(points: Sequence[bytes], d: int) -> np.ndarray:
    """Points x monomials of degree <= d on the boolean cube."""
    k = len(points[0])
    monos = boolean_monomials(k, d)
    pts = np.frombuffer(b"".join(points), dtype=np.uint8).reshape(len(points), k)
    cols = [np.all(pts[:, list(mono)] == 1, axis=1) if mono else np.ones(len(points), bool)
            for mono in monos]
    return np.stack(cols, axis=1).astype(np.int64)


def rank_mod_p(matrix: np.ndarray, p: int) -> int:
    """Rank over F_p by row reduction."""
    a = np.array(matrix, dtype=np.int64) % p
    rank = 0
    rows, cols = a.shape
    for col in range(cols):
        piv = next((r for r in range(rank, rows) if a[r, col]), None)
        if piv is None:
            continue
        a[[rank, piv]] = a[[piv, rank]]
        a[rank] = (a[rank] * pow(int(a[rank, col]), -1, p)) % p
        others = a[:, col].copy()
        others[rank] = 0
        a = (a - np.outer(others, a[rank])) % p
        rank += 1
    return rank


def check_full_rank(label: str, points: Sequence[bytes], d: int,
                    primes=(2, 3, 5, 7)) -> list[str]:
    """Unit invariant factors imply full column rank modulo every prime."""
    if not points:
        return [f"{label}: empty point set"]
    mat = monomial_matrix(points, d)
    short = [p for p in primes if rank_mod_p(mat, p) < mat.shape[1]]
    if short:
        return [f"{label}: monomial matrix loses rank mod {short}"]
    return []


def check_weights(label: str, points: Sequence[bytes], lo: int, hi: int) -> list[str]:
    bad = [b for b in points if not lo <= sum(b) <= hi]
    return [f"{label}: {len(bad)} points outside weights [{lo}, {hi}]"] if bad else []


def check_interpolation(label: str, points: Sequence[bytes], coeffs: dict, d: int,
                        modulus: int = 6) -> list[str]:
    """sum_b c_b M(b) = M(1^k) for every monomial M of degree <= d, exactly
    over the integers and hence over Z_modulus."""
    mat = monomial_matrix(points, d)
    c = np.array([int(coeffs[b]) for b in points], dtype=object)
    sums = mat.T.astype(object).dot(c)
    if any(int(v) != 1 for v in sums):
        return [f"{label}: interpolation identity fails over the integers"]
    if any(int(v) % modulus != 1 % modulus for v in sums):
        return [f"{label}: interpolation identity fails over Z{modulus}"]
    return []


def check_weight_balance(label: str, points: Sequence[bytes], s: int, d: int, r: int, m: int) -> list[str]:
    """Each point's block-weighted share of ones is within d/W of 1/s."""
    weights = [s ** (m - j) for j in range(1, m + 1)]
    total = r * sum(weights)
    bad = 0
    for b in points:
        acc = sum(weights[t // r] * b[t] for t in range(r * m))
        bad += abs(Fraction(acc, total) - Fraction(1, s)) > Fraction(d, total)
    return [f"{label}: {bad} points break the weight balance"] if bad else []


def check_gram(label: str, vectors: Sequence[Sequence[int]], det: Fraction, tol: float = 1e-6) -> list[str]:
    """numpy slogdet of the float Gram matrix under the slice inner product
    agrees with the exact determinant."""
    v = np.asarray(vectors, dtype=float)
    gram = v @ v.T / v.shape[1]
    sign, logdet = np.linalg.slogdet(gram)
    det = Fraction(det)
    if det <= 0 or sign <= 0:
        return [f"{label}: Gram determinant {float(det)} (numpy sign {sign}) is not positive"]
    exact_log = math.log(det.numerator) - math.log(det.denominator)
    if abs(logdet - exact_log) > tol * max(1.0, abs(exact_log)):
        return [f"{label}: log Gram determinant {exact_log} vs numpy {logdet}"]
    return []


def junta_monomial_count(s: int, n: int, d: int) -> int:
    return sum(math.comb(n, t) * (s - 1) ** t for t in range(d + 1))


def odlsz_delta(q: int, d: int) -> Fraction:
    alpha, beta = divmod(d, q - 1)
    return (1 - Fraction(beta, q)) / q**alpha


def slice_bound(counts: Sequence[int], d: int) -> int:
    """Multinomial lower bound on slice-nonzero counts: counts reduced by d."""
    return multinomial([c - d for c in counts])
