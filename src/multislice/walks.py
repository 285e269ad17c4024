r"""Random walks on balanced multislices and their spectra.

A walk here is a stochastic matrix indexed by the points of a balanced
multislice.  The basic building block is the distance walk: fix a profile
``delta`` (an s x s matrix of non-negative integers with all row and column
sums equal to ``m = n/s``); from a point ``a``, step to a uniformly random
``b`` whose generalized Hamming distance from ``a`` is exactly ``delta``.
Richer walks (the letter-randomizing walk, the subgrid-identification walk)
are convex combinations of distance walks and are built as such, exactly, as
integer numerators over one common denominator; floating point only enters
when a spectrum is requested.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from math import prod
from typing import Optional, Sequence

import numpy as np

from .budget import CapacityError, check_capacity
from .slices import (
    Point,
    SliceSpec,
    distance_matrix,
    enumerate_slice,
    multinomial,
    slice_size,
)

Profile = tuple[tuple[int, ...], ...]


def _int_dtype(bound: int):
    """int64 when every value and partial sum stays below ``bound``, Python
    ints (an object array) when ``bound`` reaches 2**63: never wrap."""
    return np.int64 if bound < 2**63 else object


@lru_cache(maxsize=None)
def _slice_codes(spec: SliceSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The slice's points as an (N, n) uint8 array in rank order, the base-s
    place value of each coordinate, and each point's base-s code.

    Rank order is lexicographic, so the codes ascend and ``searchsorted``
    on them ranks any word of the slice.  Memoized per spec, like
    :func:`enumerate_slice`.
    """
    n = spec.n
    points = enumerate_slice(spec)
    arr = np.frombuffer(b"".join(points), dtype=np.uint8).reshape(len(points), n)
    dtype = _int_dtype(spec.s**n)
    place = np.array([spec.s ** (n - 1 - k) for k in range(n)], dtype=dtype)
    return arr, place, arr.astype(dtype) @ place


@dataclass(eq=False)
class WalkMatrix:
    """A matrix over a slice in CSR form: integer numerators over one common
    denominator.

    Row ``i`` holds ``num[indptr[i]:indptr[i+1]] / den`` at the column ranks
    ``indices[indptr[i]:indptr[i+1]]``, ascending; ranks refer to the
    lexicographic enumeration of ``spec``.  ``num`` and ``den`` share no
    common factor, so equal walks have equal arrays.  ``num`` is int64 while
    every row and column sum fits, and an object array of Python ints
    otherwise.  A stored entry may be zero.
    """

    spec: SliceSpec
    indptr: np.ndarray
    indices: np.ndarray
    num: np.ndarray
    den: int

    @classmethod
    def _canonical(cls, spec, indptr, indices, num, den) -> "WalkMatrix":
        """Reduce ``num / den`` by their gcd and pick the numerator dtype."""
        g = math.gcd(den, int(np.gcd.reduce(num)) if len(num) else 0)
        if g > 1:
            num, den = num // g, den // g
        max_abs = int(np.abs(num).max()) if len(num) else 0
        dtype = _int_dtype(max(den, max_abs * len(num)))
        return cls(spec, indptr, indices, num.astype(dtype), den)

    @classmethod
    def _from_coo(cls, spec, rows, cols, num, den) -> "WalkMatrix":
        """The walk with entries ``num / den`` at ``(rows, cols)``, summing
        repeated positions."""
        size = slice_size(spec)
        keys = rows * size + cols
        order = np.argsort(keys, kind="stable")
        keys, num = keys[order], num[order]
        if len(keys):
            keys, start = np.unique(keys, return_index=True)
            num = np.add.reduceat(num, start)
        indptr = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // size, minlength=size), out=indptr[1:])
        return cls._canonical(spec, indptr, keys % size, num, den)

    @classmethod
    def from_rows(cls, spec: SliceSpec, rows: Sequence[dict[int, Fraction]]) -> "WalkMatrix":
        """The walk whose row ``i`` maps column rank -> exact value ``rows[i]``."""
        size = slice_size(spec)
        if len(rows) != size:
            raise ValueError(f"expected {size} rows, got {len(rows)}")
        entries = [(i, j, Fraction(v)) for i, row in enumerate(rows) for j, v in row.items()]
        if any(not 0 <= j < size for _, j, _ in entries):
            raise ValueError("column indices must be point ranks")
        den = math.lcm(*(v.denominator for _, _, v in entries))
        return cls._from_coo(
            spec,
            np.array([i for i, _, _ in entries], dtype=np.int64),
            np.array([j for _, j, _ in entries], dtype=np.int64),
            np.array([v.numerator * (den // v.denominator) for _, _, v in entries], dtype=object),
            den,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, WalkMatrix):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.den == other.den
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.num, other.num)
        )

    @property
    def size(self) -> int:
        return len(self.indptr) - 1

    @property
    def rows(self) -> tuple[dict[int, Fraction], ...]:
        """One ``{column rank: Fraction}`` dict per row, rebuilt on each access."""
        bounds = zip(self.indptr[:-1], self.indptr[1:])
        return tuple(
            {int(j): Fraction(int(v), self.den) for j, v in zip(self.indices[a:b], self.num[a:b])}
            for a, b in bounds
        )

    def row_ids(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.size), np.diff(self.indptr))

    def dense(self) -> np.ndarray:
        check_capacity(self.size * self.size, "dense walk matrix")
        out = np.zeros((self.size, self.size))
        max_abs = int(np.abs(self.num).max()) if len(self.num) else 0
        if max(max_abs, self.den) < 2**53:
            # both sides convert exactly, so the division rounds like float(Fraction)
            values = self.num.astype(np.float64) / float(self.den)
        else:
            values = np.array([int(v) / self.den for v in self.num], dtype=np.float64)
        out[self.row_ids(), self.indices] = values
        return out

    def transpose(self) -> "WalkMatrix":
        return WalkMatrix._from_coo(self.spec, self.indices, self.row_ids(), self.num, self.den)

    def _sums(self, index: np.ndarray) -> np.ndarray:
        out = np.zeros(self.size, dtype=self.num.dtype)
        np.add.at(out, index, self.num)
        return out

    def is_stochastic(self) -> bool:
        return bool(np.all(self._sums(self.row_ids()) == self.den))

    def is_doubly_stochastic(self) -> bool:
        return self.is_stochastic() and bool(np.all(self._sums(self.indices) == self.den))

    def is_symmetric(self) -> bool:
        """Whether the matrix equals its transpose (a stored zero counts as
        absent)."""
        nonzero = self.num != 0
        rows, cols, num = self.row_ids()[nonzero], self.indices[nonzero], self.num[nonzero]
        flipped = cols * self.size + rows
        order = np.argsort(flipped, kind="stable")
        return bool(
            np.array_equal(flipped[order], rows * self.size + cols)
            and np.array_equal(num[order], num)
        )


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


def _neighbour_ranks(spec: SliceSpec, delta: Profile, positions: np.ndarray) -> np.ndarray:
    """(N, degree) ranks of every point's neighbours at distance ``delta``.

    Letter class ``sigma`` of point ``a`` (its positions, ascending, from
    ``positions``) receives each arrangement word of ``delta[sigma]``; the
    neighbour's code is the sum over classes of the word's letters times the
    place values of those positions.  Columns run over the arrangement
    combinations in ``itertools.product`` order.
    """
    s, m = spec.s, spec.m
    points, place, codes = _slice_codes(spec)
    code = np.zeros((len(points), 1), dtype=codes.dtype)
    for sigma, row in enumerate(delta):
        words = _slice_codes(SliceSpec(s, m, row))[0]
        part = place[positions[:, sigma * m : (sigma + 1) * m]] @ words.T.astype(codes.dtype)
        code = (code[:, :, None] + part[:, None, :]).reshape(len(points), -1)
    return np.searchsorted(codes, code)


def walk_from_terms(spec: SliceSpec, terms, what: str) -> WalkMatrix:
    """The exact walk sum_i alpha_i W_{delta_i} for ``terms`` of (alpha_i,
    delta_i); ``what`` names the construction in a capacity error."""
    terms = [(Fraction(alpha), validate_profile(spec, delta)) for alpha, delta in terms]
    degrees = [profile_degree(spec, delta) for _, delta in terms]
    check_capacity(slice_size(spec) * sum(degrees), what)
    # distinct profiles have disjoint supports, so once repeats are merged
    # every entry is written exactly once
    merged: dict[Profile, Fraction] = {}
    for alpha, delta in terms:
        merged[delta] = merged.get(delta, Fraction(0)) + alpha
    values = {delta: alpha / profile_degree(spec, delta) for delta, alpha in merged.items()}
    den = math.lcm(*(v.denominator for v in values.values()))
    points = _slice_codes(spec)[0]
    positions = np.argsort(points, axis=1, kind="stable")
    cols = [_neighbour_ranks(spec, delta, positions) for delta in merged]
    block = [v.numerator * (den // v.denominator) for v in values.values()]
    width = sum(c.shape[1] for c in cols)
    dtype = _int_dtype(max([den] + [abs(v) * len(points) * width for v in block]))
    per_col = np.repeat(np.array(block, dtype=dtype), [c.shape[1] for c in cols])
    cols = np.concatenate(cols or [np.zeros((len(points), 0), dtype=np.int64)], axis=1)
    order = np.argsort(cols, axis=1)
    indptr = np.arange(len(points) + 1, dtype=np.int64) * width
    return WalkMatrix._canonical(
        spec, indptr, np.take_along_axis(cols, order, axis=1).ravel(), per_col[order].ravel(), den
    )


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
    used = [(w, walk) for w, (_, walk) in zip(weights, terms) if w != 0]
    den = math.lcm(*(w.denominator * walk.den for w, walk in used))
    return WalkMatrix._from_coo(
        spec,
        np.concatenate([walk.row_ids() for _, walk in used]),
        np.concatenate([walk.indices for _, walk in used]),
        np.concatenate([
            walk.num.astype(object) * (w.numerator * (den // (w.denominator * walk.den)))
            for w, walk in used
        ]),
        den,
    )


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
    num = walk.num.astype(object)
    return Fraction(int(num @ num), walk.den**2)


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
    """Group a descending array into (representative, count) clusters.

    A representative within ``tol`` of 0 is reported as exactly 0.0: its digits
    are rounding noise, which depends on how the eigensolver splits its work
    across threads."""
    out: list[tuple[float, int]] = []
    for v in values:
        if out and abs(out[-1][0] - v) <= tol:
            out[-1] = (out[-1][0], out[-1][1] + 1)
        else:
            out.append((float(v), 1))
    return [(0.0 if abs(v) <= tol else v, count) for v, count in out]


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

    Exhaustive mode runs all n! permutations and compares the whole matrix
    exactly; sampled mode draws (pi, a, b) triples.  When ``exhaustive`` is
    None the mode is chosen by the capacity budget.
    """
    spec = walk.spec
    n = spec.n
    n_points = walk.size
    cost = math.factorial(n) * (n_points * n + len(walk.indices))
    if exhaustive is None:
        try:
            check_capacity(cost, "exhaustive symmetry check")
            exhaustive = True
        except CapacityError:
            exhaustive = False
    points, place, codes = _slice_codes(spec)
    row_ids = walk.row_ids()
    keys = row_ids * n_points + walk.indices
    if exhaustive:
        check_capacity(cost, "exhaustive symmetry check")
        violations = 0
        for pi in itertools.permutations(range(n)):
            # apply_permutation(pi, x) has code sum_i x[i] * place[pi[i]]
            index_map = np.searchsorted(codes, points @ place[list(pi)])
            mapped = index_map[row_ids] * n_points + index_map[walk.indices]
            order = np.argsort(mapped)
            if not (np.array_equal(mapped[order], keys) and np.array_equal(walk.num[order], walk.num)):
                violations += 1
        return SymmetryReport(math.factorial(n), violations, True)
    if rng is None:
        raise ValueError("sampled symmetry check needs an rng")
    pis = np.empty((trials, n), dtype=np.int64)
    pairs = np.empty((2, trials), dtype=np.int64)
    for t in range(trials):
        pis[t] = rng.permutation(n)
        pairs[0, t] = rng.integers(n_points)
        pairs[1, t] = rng.integers(n_points)
    images = [np.searchsorted(codes, (points[p] * place[pis]).sum(axis=1)) for p in pairs]
    wanted = np.concatenate([pairs[0] * n_points + pairs[1], images[0] * n_points + images[1]])
    at = np.searchsorted(keys, wanted)
    found = at < len(keys)
    found[found] = keys[at[found]] == wanted[found]
    values = np.zeros(len(wanted), dtype=walk.num.dtype)
    values[found] = walk.num[at[found]]
    violations = int(np.count_nonzero(values[:trials] != values[trials:]))
    return SymmetryReport(trials, violations, False)


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
    subsets T.  Ties go to the first (row, subset) in scan order.
    """
    if rows not in ("all", "canonical"):
        raise ValueError("rows must be 'all' or 'canonical'")
    spec, s, den = walk.spec, walk.spec.s, walk.den
    points = _slice_codes(spec)[0]
    subsets = [
        T for size in range(1, k + 1) for T in itertools.combinations(range(spec.n), size)
    ]
    stop = walk.indptr[-1] if rows == "all" else walk.indptr[1]
    n_rows = walk.size if rows == "all" else 1
    row_ids, cols, num = walk.row_ids()[:stop], walk.indices[:stop], walk.num[:stop]
    # with p = S/den and u = 1/cells, 2 * sd = sum_cells |S * cells - den| / (den * cells);
    # scaling by s^(k-|T|) puts every subset over the denominator 2 * den * s^k
    total = int(np.abs(num).sum()) if len(num) else 0
    dtype = _int_dtype(s**k * (total + den) + 1)
    num = num.astype(dtype)
    scores = np.zeros((n_rows, len(subsets)), dtype=dtype)
    for t, T in enumerate(subsets):
        cells = s ** len(T)
        cell = points[:, list(T)].astype(np.int64) @ (s ** np.arange(len(T) - 1, -1, -1))
        mass = np.zeros(n_rows * cells, dtype=dtype)
        np.add.at(mass, row_ids * cells + cell[cols], num)
        gap = np.abs(mass.reshape(n_rows, cells) * cells - den).sum(axis=1)
        scores[:, t] = gap * s ** (k - len(T))
    flat = scores.ravel()
    best = int(np.argmax(flat)) if len(flat) else 0
    if not len(flat) or flat[best] <= 0:
        return IndependenceReport(k=k, epsilon=Fraction(0), worst_row=0, worst_set=())
    row, t = divmod(best, len(subsets))
    return IndependenceReport(
        k=k,
        epsilon=Fraction(int(flat[best]), 2 * den * s**k),
        worst_row=row,
        worst_set=subsets[t],
    )


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
    in_u = np.zeros(n_points, dtype=bool)
    in_u[chosen] = True
    inside = in_u[walk.row_ids()] & in_u[walk.indices]
    lhs = Fraction(int(walk.num[inside].sum()), walk.den * n_points)
    density = Fraction(len(chosen), n_points)
    rhs = float(density) ** 2 + lambda2 * float(density)
    return MixingCheck(
        lhs=lhs,
        rhs=rhs,
        lambda2=lambda2,
        density=density,
        holds=float(lhs) <= rhs + slack,
    )
