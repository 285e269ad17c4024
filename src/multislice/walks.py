r"""Random walks on balanced multislices and their spectra.

A walk here is a stochastic matrix indexed by the points of a balanced
multislice.  The basic building block is the distance walk: fix a profile
``delta`` (an s x s matrix of non-negative integers with all row and column
sums equal to ``m = n/s``); from a point ``a``, step to a uniformly random
``b`` whose generalized Hamming distance from ``a`` is exactly ``delta``.
Richer walks (the letter-randomizing walk, the subgrid-identification walk)
are convex combinations of distance walks and are built as such, exactly, with
Fraction entries; floating point only enters when a spectrum is requested.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Optional, Sequence

import numpy as np

from .budget import CapacityError, check_capacity
from .slices import (
    Point,
    SliceSpec,
    apply_permutation,
    distance_matrix,
    enumerate_slice,
    multinomial,
    rank_index,
    slice_size,
)

Profile = tuple[tuple[int, ...], ...]


@dataclass
class WalkMatrix:
    """A stochastic matrix over a slice, stored as sparse rows of Fractions.

    ``rows[i]`` maps column rank -> probability; ranks refer to the
    lexicographic enumeration of ``spec``.
    """

    spec: SliceSpec
    rows: tuple[dict[int, Fraction], ...]

    @property
    def size(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i].get(j, Fraction(0))

    def dense(self) -> np.ndarray:
        check_capacity(self.size * self.size, "dense walk matrix")
        out = np.zeros((self.size, self.size))
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                out[i, j] = float(v)
        return out

    def transpose(self) -> "WalkMatrix":
        cols: list[dict[int, Fraction]] = [dict() for _ in range(self.size)]
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                cols[j][i] = v
        return WalkMatrix(self.spec, tuple(cols))

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


def validate_profile(spec: SliceSpec, delta: Sequence[Sequence[int]]) -> Profile:
    """Check that delta is a realizable distance profile on the balanced slice:
    non-negative integers with all row and column sums equal to m, i.e.
    delta/m doubly stochastic."""
    if not spec.is_balanced:
        raise ValueError("distance walks are defined on balanced slices")
    s, m = spec.s, spec.m
    delta = tuple(tuple(int(e) for e in row) for row in delta)
    if len(delta) != s or any(len(row) != s for row in delta):
        raise ValueError(f"profile must be {s}x{s}")
    if any(e < 0 for row in delta for e in row):
        raise ValueError("profile entries must be non-negative")
    if any(sum(row) != m for row in delta):
        raise ValueError("profile row sums must equal m")
    if any(sum(delta[i][j] for i in range(s)) != m for j in range(s)):
        raise ValueError("profile column sums must equal m")
    return delta


def profile_degree(spec: SliceSpec, delta: Profile) -> int:
    """Number of neighbors at distance delta from any point (row support size)."""
    return prod(multinomial(spec.m, row) for row in delta)


def _accumulate(spec, delta, weight, rows_out, points, ranks):
    """Add ``weight`` times the distance-delta walk into sparse rows."""
    s, m, n = spec.s, spec.m, spec.n
    arrangements = [
        enumerate_slice(SliceSpec(s, m, tuple(row))) for row in delta
    ]
    for idx, a in enumerate(points):
        positions: list[list[int]] = [[] for _ in range(s)]
        for i, v in enumerate(a):
            positions[v].append(i)
        row = rows_out[idx]
        for combo in itertools.product(*arrangements):
            b = bytearray(n)
            for sigma in range(s):
                word = combo[sigma]
                for t, p in enumerate(positions[sigma]):
                    b[p] = word[t]
            r = ranks[bytes(b)]
            row[r] = row.get(r, Fraction(0)) + weight


def walk_from_terms(spec: SliceSpec, terms, what: str) -> WalkMatrix:
    """The exact walk sum_i alpha_i W_{delta_i} for ``terms`` of (alpha_i,
    delta_i); ``what`` names the construction in a capacity error."""
    terms = [(Fraction(alpha), validate_profile(spec, delta)) for alpha, delta in terms]
    degrees = [profile_degree(spec, delta) for _, delta in terms]
    check_capacity(slice_size(spec) * sum(degrees), what)
    points = enumerate_slice(spec)
    ranks = rank_index(spec)
    rows_out: list[dict[int, Fraction]] = [dict() for _ in points]
    for (alpha, delta), deg in zip(terms, degrees):
        _accumulate(spec, delta, alpha / deg, rows_out, points, ranks)
    return WalkMatrix(spec, tuple(rows_out))


def walk_from_distance(spec: SliceSpec, delta) -> WalkMatrix:
    """The distance walk W_delta: each row uniform over the points at
    generalized Hamming distance exactly delta."""
    return walk_from_terms(spec, [(1, delta)], "distance walk construction")


def convex_combine(terms: Sequence[tuple[Fraction, WalkMatrix]]) -> WalkMatrix:
    """Exact convex combination of walks over the same slice."""
    if not terms:
        raise ValueError("need at least one term")
    spec = terms[0][1].spec
    weights = [Fraction(w) for w, _ in terms]
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    if sum(weights) != 1:
        raise ValueError("weights must sum to exactly 1")
    if any(walk.spec != spec for _, walk in terms):
        raise ValueError("walks must share a slice")
    size = terms[0][1].size
    rows_out: list[dict[int, Fraction]] = [dict() for _ in range(size)]
    for w, walk in terms:
        if w == 0:
            continue
        for i, row in enumerate(walk.rows):
            out = rows_out[i]
            for j, v in row.items():
                out[j] = out.get(j, Fraction(0)) + w * v
    return WalkMatrix(spec, tuple(rows_out))


def frequency_vectors(s: int, m: int):
    """All s-tuples of non-negative ints summing to m, lexicographically."""
    out = []

    def rec(prefix, left):
        if len(prefix) == s - 1:
            out.append(tuple(prefix) + (left,))
            return
        for v in range(left + 1):
            rec(prefix + [v], left - v)

    rec([], m)
    return out


def odlsz_terms(s: int, n: int) -> list[tuple[Fraction, Profile]]:
    """Decomposition of the letter-randomizing walk into distance walks.

    Each frequency vector f of a uniform word y in Z_s^m contributes weight
    multinomial(m; f) / s^m and the circulant profile P(f)[i][j] = f[j-i mod s].
    """
    if n % s:
        raise ValueError("need s | n")
    m = n // s
    terms = []
    for f in frequency_vectors(s, m):
        alpha = Fraction(multinomial(m, f), s**m)
        delta = tuple(tuple(f[(j - i) % s] for j in range(s)) for i in range(s))
        terms.append((alpha, delta))
    return terms


def walk_odlsz(s: int, n: int) -> WalkMatrix:
    """The letter-randomizing walk: align each letter class with [m] by a
    random bijection, draw y uniform in Z_s^m, and add y through the alignment
    (mod s).  Equals the convex combination given by :func:`odlsz_terms`."""
    spec = SliceSpec.balanced(s, n)
    return walk_from_terms(spec, odlsz_terms(s, n), "letter-randomizing walk construction")


def odlsz_step(a: Point, s: int, rng) -> Point:
    """One sampled step of the letter-randomizing walk from ``a``."""
    n = len(a)
    if n % s:
        raise ValueError("need s | n")
    m = n // s
    positions = [[i for i, v in enumerate(a) if v == j] for j in range(s)]
    if any(len(p) != m for p in positions):
        raise ValueError("point must lie on the balanced slice")
    y = rng.integers(0, s, size=m)
    b = bytearray(n)
    for j in range(s):
        alignment = rng.permutation(m)
        for t, i in enumerate(positions[j]):
            b[i] = (int(y[alignment[t]]) + j) % s
    return bytes(b)


def subgrid_identification_terms(s: int, k: int) -> list[tuple[Fraction, Profile]]:
    """Decomposition of the subgrid-identification walk on the balanced slice
    of length s^2*k: weight of the scaled profile s*P is the probability that
    two independent uniform points of the length-s*k balanced slice are at
    distance P."""
    small = SliceSpec.balanced(s, s * k)
    a0 = enumerate_slice(small)[0]
    tally: dict[Profile, int] = {}
    for b in enumerate_slice(small):
        p = distance_matrix(a0, b, s)
        tally[p] = tally.get(p, 0) + 1
    n_small = slice_size(small)
    return [
        (Fraction(c, n_small), tuple(tuple(s * e for e in row) for row in p))
        for p, c in sorted(tally.items())
    ]


def walk_subgrid_identification(s: int, k: int) -> WalkMatrix:
    """The walk on the balanced slice of S^(s^2*k) induced by pushing two
    independent small-slice points through one random s-to-1 identification."""
    spec = SliceSpec.balanced(s, s * s * k)
    return walk_from_terms(
        spec, subgrid_identification_terms(s, k), "subgrid-identification walk construction"
    )


def frobenius_norm_squared(walk: WalkMatrix) -> Fraction:
    return sum(
        (v * v for row in walk.rows for v in row.values()), Fraction(0)
    )


@dataclass
class SpectralReport:
    s: int
    n: int
    sigma: np.ndarray
    sigma2: float
    eigenvalues: Optional[np.ndarray]
    lambda2: Optional[float]
    multiplicities: list[tuple[float, int]]


def cluster_values(values, tol: float = 1e-8) -> list[tuple[float, int]]:
    """Group a descending array into (representative, count) clusters."""
    out: list[tuple[float, int]] = []
    for v in values:
        if out and abs(out[-1][0] - v) <= tol:
            out[-1] = (out[-1][0], out[-1][1] + 1)
        else:
            out.append((float(v), 1))
    return out


def spectral_report(walk: WalkMatrix, tol: float = 1e-8) -> SpectralReport:
    """Singular values (and eigenvalues when symmetric) of a walk.

    sigma2 is the second-largest singular value; lambda2 the second-largest
    absolute eigenvalue (symmetric walks only).
    """
    dense = walk.dense()
    if walk.is_symmetric():
        eigs = np.linalg.eigvalsh(dense)[::-1]
        sigma = np.sort(np.abs(eigs))[::-1]
        lambda2 = float(np.max(np.abs(eigs[1:]))) if len(eigs) > 1 else 0.0
    else:
        eigs = None
        lambda2 = None
        sigma = np.linalg.svd(dense, compute_uv=False)
    sigma2 = float(sigma[1]) if len(sigma) > 1 else 0.0
    return SpectralReport(
        s=walk.spec.s,
        n=walk.spec.n,
        sigma=sigma,
        sigma2=sigma2,
        eigenvalues=eigs,
        lambda2=lambda2,
        multiplicities=cluster_values(sigma, tol),
    )


@dataclass
class SymmetryReport:
    checked: int
    violations: int
    exhaustive: bool

    @property
    def ok(self) -> bool:
        return self.violations == 0


def respects_symmetries(
    walk: WalkMatrix, exhaustive: Optional[bool] = None, rng=None, trials: int = 10_000
) -> SymmetryReport:
    """Check W(pi a, pi b) == W(a, b) for coordinate permutations pi.

    Exhaustive mode runs all n! permutations and compares whole rows exactly;
    sampled mode draws (pi, a, b) triples.  When ``exhaustive`` is None the
    mode is chosen by the capacity budget.
    """
    spec = walk.spec
    n = spec.n
    points = enumerate_slice(spec)
    ranks = rank_index(spec)
    support = sum(len(r) for r in walk.rows)
    cost = math.factorial(n) * (len(points) * n + support)
    if exhaustive is None:
        try:
            check_capacity(cost, "exhaustive symmetry check")
            exhaustive = True
        except CapacityError:
            exhaustive = False
    if exhaustive:
        check_capacity(cost, "exhaustive symmetry check")
        checked = violations = 0
        for pi in itertools.permutations(range(n)):
            index_map = [ranks[apply_permutation(pi, x)] for x in points]
            checked += 1
            for i, row in enumerate(walk.rows):
                target = walk.rows[index_map[i]]
                if len(target) != len(row):
                    violations += 1
                    break
                ok = True
                for j, v in row.items():
                    if target.get(index_map[j]) != v:
                        ok = False
                        break
                if not ok:
                    violations += 1
                    break
        return SymmetryReport(checked, violations, True)
    if rng is None:
        raise ValueError("sampled symmetry check needs an rng")
    checked = violations = 0
    n_points = len(points)
    for _ in range(trials):
        pi = tuple(int(v) for v in rng.permutation(n))
        i = int(rng.integers(n_points))
        j = int(rng.integers(n_points))
        pi_i = ranks[apply_permutation(pi, points[i])]
        pi_j = ranks[apply_permutation(pi, points[j])]
        checked += 1
        if walk.entry(pi_i, pi_j) != walk.entry(i, j):
            violations += 1
    return SymmetryReport(checked, violations, False)


@dataclass
class IndependenceReport:
    k: int
    epsilon: Fraction
    worst_row: int
    worst_set: tuple[int, ...]


def independence_report(walk: WalkMatrix, k: int, rows: str = "all") -> IndependenceReport:
    """Largest statistical distance of any row's <=k-coordinate marginal from
    uniform.

    ``rows="canonical"`` marginalizes only the lexicographically-first row;
    for walks that pass the symmetry check this gives the same maximum, since
    coordinate permutations act transitively on the slice and permute the
    subsets T.
    """
    spec = walk.spec
    points = enumerate_slice(spec)
    row_indices = range(len(points)) if rows == "all" else [0]
    if rows not in ("all", "canonical"):
        raise ValueError("rows must be 'all' or 'canonical'")
    worst = Fraction(0)
    worst_row = 0
    worst_set: tuple[int, ...] = ()
    subsets = [
        T for size in range(1, k + 1) for T in itertools.combinations(range(spec.n), size)
    ]
    for i in row_indices:
        row = walk.rows[i]
        support = [(points[j], v) for j, v in row.items()]
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
    return IndependenceReport(k=k, epsilon=worst, worst_row=worst_row, worst_set=worst_set)


@dataclass
class MixingCheck:
    lhs: Fraction
    rhs: float
    lambda2: float
    density: Fraction
    holds: bool


def expander_mixing_check(
    walk: WalkMatrix, subset: Sequence[int], lambda2: Optional[float] = None, slack: float = 1e-9
) -> MixingCheck:
    """Pr[a in U and b in U] <= (|U|/N)^2 + lambda2 * |U|/N for a uniform and
    b one walk step from a; the left side is computed exactly."""
    n_points = walk.size
    chosen = sorted(set(subset))
    if chosen and not (0 <= chosen[0] and chosen[-1] < n_points):
        raise ValueError("subset entries must be point ranks")
    if lambda2 is None:
        report = spectral_report(walk)
        if report.lambda2 is None:
            raise ValueError("mixing check needs a symmetric walk or explicit lambda2")
        lambda2 = report.lambda2
    in_u = set(chosen)
    lhs = Fraction(0)
    for i in chosen:
        row = walk.rows[i]
        for j, v in row.items():
            if j in in_u:
                lhs += v
    lhs = lhs / n_points
    density = Fraction(len(chosen), n_points)
    rhs = float(density) ** 2 + lambda2 * float(density)
    return MixingCheck(
        lhs=lhs,
        rhs=rhs,
        lambda2=lambda2,
        density=density,
        holds=float(lhs) <= rhs + slack,
    )
