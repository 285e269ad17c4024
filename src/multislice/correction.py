"""Local unique correction of junta-sums from noisy oracles.

The pipeline, bottom to top:

* ``NoisyOracle`` — query access to a ground-truth polynomial with either an
  explicit set of corrupted points or a pseudorandom error set of a given rate
  (errors are consistent across repeated queries).
* ``Gadget`` / ``base_reduce`` / ``recursive_reduce`` — the shift-and-vote
  error reducers.  A gadget is an exact integer identity
  P(a) = sum_i c_i P(a + y^(i)) whose shift coordinates are i.i.d. rho-noisy,
  so querying at the shifted points turns adversarial error into near-uniform
  error; three votes and a plurality cut the error rate further, and the
  construction composes with itself.
* ``subgrid_decode`` / ``subgrid_error_reduce`` — restrict the oracle to a
  random anchored subgrid, brute-force the unique codeword within half the
  minimum distance, read off the corrected value; on a decoding failure the
  first returns None and the second the group identity.
* ``hitting_set`` / ``build_interpolating_set`` — weight-balanced point sets
  in the boolean cube from which a degree-d junta-sum's value at the all-ones
  point can be interpolated with integer coefficients, over every abelian
  group at once.  Certified, never assumed: the point-by-monomial matrix must
  have unit invariant factors, and the coefficients are an exact integer
  solution of the monomial system.
* ``torsion_scheme`` / ``torsion_correct`` — the constant-query corrector for
  groups of bounded exponent, built on Kummer's theorem: binomial-coefficient
  divisibilities make a single slice of the cube an interpolating set mod M.
* ``biased_cube_correct`` — reduces correction over [s]^n at an arbitrary
  point to correction over {0,1}^n at the all-ones point.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .budget import check_capacity
from .fields import prime_factorization
from .groups import AbelianGroup
from .juntas import (
    JuntaPolynomial,
    _grid_indicators,
    grid_points,
    monomials_up_to,
)
from .seeding import derive_rng
from .snf import RowEchelon, solve_integer, unimodular_certificate
from .subgrids import random_subgrid


class SearchFailure(RuntimeError):
    """A randomized search exhausted its budget without a certificate."""


class ConstructionFailure(RuntimeError):
    """A certified construction failed one of its invariants."""


# ---------------------------------------------------------------------------
# number theory


def digit_sum(n: int, p: int) -> int:
    """Sum of base-p digits."""
    if n < 0:
        raise ValueError("need n >= 0")
    total = 0
    while n:
        n, r = divmod(n, p)
        total += r
    return total


def kummer_valuation(a: int, b: int, p: int) -> int:
    """p-adic valuation of C(a, b): carries when adding b and a-b in base p."""
    if not a >= b >= 0:
        raise ValueError("need a >= b >= 0")
    return (digit_sum(b, p) + digit_sum(a - b, p) - digit_sum(a, p)) // (p - 1)


# ---------------------------------------------------------------------------
# oracles


def _as_fraction(x) -> Fraction:
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


@dataclass
class NoisyOracle:
    """Query access to ``truth`` with errors.

    ``errors`` maps corrupted points to the (wrong) value returned there.
    Alternatively ``error_rate`` corrupts a pseudorandom point set of roughly
    that density: membership is a keyed hash of the point, so repeated queries
    are consistent and forks see the same corruption.

    :meth:`query` answers one point with an element; :meth:`query_many`
    answers a batch with element indices.  The batch path corrupts exactly
    the points, with exactly the values, that the scalar path does (the
    ``errors`` entry first, then the same keyed hash per point), and both add
    one to ``queries`` per point.
    """

    truth: JuntaPolynomial
    errors: dict = field(default_factory=dict)
    error_rate: Optional[float] = None
    seed: int = 0
    queries: int = field(default=0, init=False)

    def __post_init__(self):
        if self.error_rate and self.group.order == 1:
            raise ValueError("random errors need a group with a nonzero element")

    @property
    def s(self) -> int:
        return self.truth.s

    @property
    def n(self) -> int:
        return self.truth.n

    @property
    def group(self) -> AbelianGroup:
        return self.truth.group

    @classmethod
    def exact(cls, truth: JuntaPolynomial) -> "NoisyOracle":
        return cls(truth)

    @classmethod
    def with_flips(cls, truth: JuntaPolynomial, points, offset=None) -> "NoisyOracle":
        """Adversarial corruption: truth + offset on the given points."""
        g = truth.group
        if offset is None:
            offset = g.from_index(1)
        if offset == g.zero:
            raise ValueError("offset must be nonzero")
        errors = {bytes(p): g.add(truth.evaluate(p), offset) for p in points}
        return cls(truth, errors)

    @classmethod
    def random_errors(cls, truth: JuntaPolynomial, rate: float, seed: int) -> "NoisyOracle":
        if not 0 <= rate < 1:
            raise ValueError("rate must lie in [0, 1)")
        return cls(truth, error_rate=rate, seed=seed)

    def fork(self) -> "NoisyOracle":
        """Same truth and corruption, fresh query counter."""
        return NoisyOracle(self.truth, self.errors, self.error_rate, self.seed)

    def _hash(self, x: bytes) -> bytes:
        key = self.seed.to_bytes(8, "little", signed=True)
        return hashlib.blake2b(x, digest_size=16, key=key).digest()

    def _hop(self, x: bytes) -> int:
        """Index of the element the random errors add at x (0: none); only
        called with ``error_rate`` set."""
        digest = self._hash(x)
        if int.from_bytes(digest[:8], "little") / 2**64 >= self.error_rate:
            return 0
        return 1 + int.from_bytes(digest[8:], "little") % (self.group.order - 1)

    def query(self, x) -> tuple:
        self.queries += 1
        x = bytes(x)
        if x in self.errors:
            return self.errors[x]
        value = self.truth.evaluate(x)
        if self.error_rate:
            hop = self._hop(x)
            if hop:
                value = self.group.add(value, self.group.from_index(hop))
        return value

    def query_many(self, points) -> np.ndarray:
        """:meth:`query` at each row of a (B, n) uint8 array, as element
        indices (:meth:`AbelianGroup.index` order)."""
        points = np.asarray(points, dtype=np.uint8)
        self.queries += len(points)
        g = self.group
        values = self.truth.evaluate_many(points)
        if not (self.errors or self.error_rate):
            return g.index_many(values)
        raw, n = points.tobytes(), self.n
        hops = np.zeros(len(points), dtype=np.int64)
        explicit = {}
        for row in range(len(points)):
            x = raw[row * n:(row + 1) * n]
            if x in self.errors:
                explicit[row] = g.index(self.errors[x])
            elif self.error_rate:
                hops[row] = self._hop(x)
        out = g.index_many((values + g.from_index_many(hops)) % np.array(g.factors))
        for row, index in explicit.items():
            out[row] = index
        return out


@dataclass
class FunctionOracle:
    """Adapter giving a plain callable the oracle interface."""

    s: int
    n: int
    group: AbelianGroup
    fn: Callable[[bytes], tuple]
    queries: int = field(default=0, init=False)

    def query(self, x) -> tuple:
        self.queries += 1
        return self.fn(bytes(x))

    def query_many(self, points) -> np.ndarray:
        """:meth:`query` at each row in order, as element indices; ``fn`` sees
        the rows one by one, so any randomness it draws is drawn in the same
        order as by scalar queries."""
        points = np.asarray(points, dtype=np.uint8)
        return np.array(
            [self.group.index(self.query(row)) for row in points], dtype=np.int64
        )


def _plurality(values: Sequence[tuple]) -> tuple:
    """Most frequent value; ties broken by first occurrence."""
    best = None
    best_count = 0
    for v in values:
        c = values.count(v)
        if c > best_count:
            best, best_count = v, c
    return best


# ---------------------------------------------------------------------------
# the error-reduction gadget


def rho_noisy_distribution(s: int, eps: Fraction) -> tuple[Fraction, ...]:
    """The law on Z_s with Pr[0] = 1/s + eps(1 - 1/s) and the nonzero letters
    equiprobable; eps in [-1/(s-1), 1] keeps it a distribution."""
    p0 = Fraction(1, s) + eps * (1 - Fraction(1, s))
    rest = (1 - p0) / (s - 1) if s > 1 else Fraction(0)
    if p0 < 0 or rest < 0:
        raise ValueError("eps outside the feasible range")
    return (p0,) + (rest,) * (s - 1)


def noisy_convolution_check(s: int, rho1, rho2, trials: int = 12, rng=None) -> bool:
    """Exact check that the difference of a rho1-noisy and an independent
    rho2-noisy variable is (rho1*rho2)-noisy, over a grid of representatives
    of each family (endpoints always included)."""
    rho1, rho2 = _as_fraction(rho1), _as_fraction(rho2)
    if rng is None:
        rng = np.random.default_rng(0)
    grid1 = [-rho1, Fraction(0), rho1]
    grid2 = [-rho2, Fraction(0), rho2]
    for _ in range(trials):
        grid1.append(rho1 * Fraction(int(rng.integers(-64, 65)), 64))
        grid2.append(rho2 * Fraction(int(rng.integers(-64, 65)), 64))
    for e1 in grid1:
        for e2 in grid2:
            dist_y = rho_noisy_distribution(s, e1)
            dist_z = rho_noisy_distribution(s, e2)
            conv = [Fraction(0)] * s
            for u in range(s):
                for v in range(s):
                    conv[(u - v) % s] += dist_y[u] * dist_z[v]
            if tuple(conv) != rho_noisy_distribution(s, e1 * e2):
                return False
    return True


@lru_cache(maxsize=None)
def _zeroed_ball_coeffs(s: int, k: int, d: int, center: bytes) -> tuple[tuple[bytes, int], ...]:
    """Closed-form interpolation coefficients for P(0^k) over the radius-d ball
    around ``center``: only points obtained by zeroing at most d nonzero
    coordinates of the center carry weight.  This is the unique solution of the
    square ball system, so it agrees with :func:`ball_interpolation_coeffs`
    entry for entry (tested), just without solving the system."""
    support = [i for i, v in enumerate(center) if v]
    w = len(support)
    out = []
    for j in range(min(d, w) + 1):
        coeff = sum((-1) ** (t - j) * math.comb(w - j, t - j) for t in range(j, d + 1))
        if coeff == 0:
            continue
        for zeroed in itertools.combinations(support, j):
            b = bytearray(center)
            for i in zeroed:
                b[i] = 0
            out.append((bytes(b), coeff))
    return tuple(out)


@dataclass(frozen=True)
class Gadget:
    """Shift sampler realizing P(a) = sum_i c_i P(a + y^(i)) exactly.

    One sample draws a hash h : [n] -> [k] and per-coordinate permutations of
    the nonzero letters; shift i is the image of ball point b^(i) under the
    induced subcube map, minus the anchor.  Every shift coordinate is i.i.d.
    rho-noisy because each ball point has between k/s and k/s + d zeros.
    """

    s: int
    n: int
    d: int
    rho: Fraction
    k: int
    center: bytes
    support: tuple[bytes, ...]
    coeffs: tuple[int, ...]

    @property
    def q(self) -> int:
        return len(self.support)

    def sample_shifts(self, rng) -> tuple[bytes, ...]:
        """One tuple (y^(1), ..., y^(q)); coordinates i.i.d. rho-noisy."""
        h = rng.integers(0, self.k, size=self.n)
        # row i: a permutation of the nonzero letters, with 0 fixed
        perms = np.zeros((self.n, self.s), dtype=np.uint8)
        if self.s > 1:
            order = np.argsort(rng.random((self.n, self.s - 1)), axis=1)
            perms[:, 1:] = 1 + order
        rows = np.arange(self.n)
        out = []
        for b in self.support:
            letters = np.frombuffer(b, dtype=np.uint8)[h]
            out.append(perms[rows, letters].tobytes())
        return tuple(out)

    def evaluate(self, oracle, a, rng) -> tuple:
        """One gadget evaluation of P(a) through the oracle (q queries, one
        batch)."""
        shifts = np.frombuffer(b"".join(self.sample_shifts(rng)), dtype=np.uint8)
        anchor = np.frombuffer(bytes(a), dtype=np.uint8)
        points = np.add(shifts.reshape(self.q, self.n), anchor, dtype=np.int64) % self.s
        return oracle.group.linear_combination(self.coeffs, oracle.query_many(points))


def build_gadget(n: int, s: int, d: int, rho) -> Gadget:
    """The (rho, q)-error-reduction gadget: k is the smallest multiple of s
    exceeding 2d/rho, the ball center cycles the alphabet (exactly k/s zeros),
    and the coefficients interpolate P at the subcube origin."""
    rho = _as_fraction(rho)
    if s < 2:
        raise ValueError("need s >= 2")
    if not 0 < rho < Fraction(1, s - 1):
        raise ValueError(f"rho must lie in (0, 1/(s-1)) for s={s}")
    k = s * (int(2 * d / (s * rho)) + 1)
    center = bytes(t % s for t in range(k))
    pairs = _zeroed_ball_coeffs(s, k, d, center)
    return Gadget(
        s=s, n=n, d=d, rho=rho, k=k, center=center,
        support=tuple(b for b, _ in pairs),
        coeffs=tuple(c for _, c in pairs),
    )


def base_reduce(g, x, rng, *, gadget: Optional[Gadget] = None,
                d: Optional[int] = None, rho=None) -> tuple:
    """Three independent gadget evaluations at x, plurality vote (3q queries).

    Pass either a prebuilt gadget or the degree d (rho defaults to 1/(10s),
    the value the variance analysis of the reducer uses).
    """
    if gadget is None:
        if d is None:
            raise ValueError("need a gadget or a degree to build one")
        gadget = build_gadget(g.n, g.s, d, rho if rho is not None else Fraction(1, 10 * g.s))
    votes = [gadget.evaluate(g, x, rng) for _ in range(3)]
    return _plurality(votes)


def recursive_reduce(f, x, depth: int, rng, *, gadget: Optional[Gadget] = None,
                     d: Optional[int] = None, rho=None) -> tuple:
    """The depth-T reducer: A_0 = f, A_t = base_reduce against A_{t-1}.

    Query count is (3q)^T; the capacity guard rejects runaway depths.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if gadget is None:
        if d is None:
            raise ValueError("need a gadget or a degree to build one")
        gadget = build_gadget(f.n, f.s, d, rho if rho is not None else Fraction(1, 10 * f.s))
    check_capacity((3 * gadget.q) ** depth, "recursive error reduction")

    def level(t: int, point: bytes) -> tuple:
        if t == 0:
            return f.query(point)
        if t == 1:  # level 0 is f itself, which can answer a batch at once
            return base_reduce(f, point, rng, gadget=gadget)
        inner = FunctionOracle(f.s, f.n, f.group, lambda p: level(t - 1, p))
        return base_reduce(inner, point, rng, gadget=gadget)

    return level(depth, bytes(x))


# ---------------------------------------------------------------------------
# brute-force decoding on a small grid


@dataclass(frozen=True, eq=False)
class Codebook:
    """Every degree-<=d junta-sum on [s]^k, in :func:`enumerate_polynomials`
    order, one per row: ``coefficients`` holds the element index of each
    monomial's coefficient (row i spells i in base |G|, most significant
    first) and ``tables`` the truth table as element indices, both in the
    smallest unsigned dtype that holds them.  :meth:`polynomial` builds a
    row's polynomial on demand."""

    s: int
    k: int
    group: AbelianGroup
    monomials: tuple
    coefficients: np.ndarray
    tables: np.ndarray

    @cached_property
    def _elements(self) -> tuple:
        return tuple(self.group.elements())

    @cached_property
    def _index_of(self) -> dict:
        return {g: i for i, g in enumerate(self._elements)}

    def polynomial(self, row: int) -> JuntaPolynomial:
        elements = self._elements
        coeffs = {
            mono: elements[c]
            for mono, c in zip(self.monomials, self.coefficients[row].tolist())
            if c
        }
        return JuntaPolynomial.from_normal_form(self.s, self.k, self.group, coeffs)

    def mismatches(self, table) -> np.ndarray:
        """Per row, the number of grid points where the codeword differs from
        the table: a grid-order sequence of elements, a point-keyed mapping of
        elements, or a 1-D integer array of element indices."""
        if isinstance(table, np.ndarray) and table.ndim == 1:
            if table.dtype.kind not in "iu":
                raise ValueError("an index table must have an integer dtype")
            if len(table) and (table.min() < 0 or table.max() >= self.group.order):
                raise ValueError("table entries must be elements of the group")
            target = table
        else:
            if isinstance(table, dict):
                table = [table[pt] for pt in grid_points(self.s, self.k)]
            try:
                target = np.array([self._index_of[tuple(v)] for v in table], dtype=np.int64)
            except KeyError:
                raise ValueError("table entries must be elements of the group") from None
        if len(target) != self.s**self.k:
            raise ValueError("table must cover the whole grid")
        return (self.tables != target.astype(self.tables.dtype)).sum(axis=1)


@lru_cache(maxsize=None)
def _codebook(s: int, k: int, d: int, group: AbelianGroup) -> Codebook:
    """Compile the codebook: per cyclic factor f, the coefficient digits of
    every row times the monomial indicators on the grid, mod f."""
    monos = tuple(monomials_up_to(s, k, d))
    order = group.order
    total = order ** len(monos)
    check_capacity(total * s**k, "decoding codebook")
    indicators = _grid_indicators(s, k, monos)
    places = order ** np.arange(len(monos) - 1, -1, -1, dtype=np.int64)
    coefficients = (np.arange(total, dtype=np.int64)[:, None] // places) % order
    element_digits = group.from_index_many(np.arange(order))
    tables = np.zeros((total, s**k), dtype=np.min_scalar_type(order - 1))
    place = order
    for t, f in enumerate(group.factors):
        place //= f
        if f == 1:  # a trivial factor's digit is always 0
            continue
        acc = np.min_scalar_type(len(monos) * f)  # holds every sum, and f
        digits = element_digits[coefficients, t].astype(acc)
        tables += ((digits @ indicators.astype(acc)) % f).astype(tables.dtype) * place
    return Codebook(s, k, group, monos, coefficients.astype(tables.dtype), tables)


def brute_force_unique_decode(
    table, s: int, k: int, d: int, group: AbelianGroup, radius: Fraction
) -> Optional[JuntaPolynomial]:
    """The unique degree-<=d junta-sum at distance strictly below ``radius``
    from the table, or None.  Uniqueness is automatic for radius <= 1/(2 s^d);
    if a larger radius admits several codewords, that is also None.  The
    table is a grid-order sequence of elements, a point-keyed mapping or an
    array of element indices (what ``query_many`` returns).
    """
    book = _codebook(s, k, d, group)
    mism = book.mismatches(table)
    radius = Fraction(radius)
    threshold = radius * s**k  # strict: mismatches < threshold
    if threshold.denominator == 1:
        allowed = int(threshold) - 1
    else:
        allowed = threshold.numerator // threshold.denominator
    hits = np.nonzero(mism <= allowed)[0]
    if len(hits) != 1:
        return None
    return book.polynomial(int(hits[0]))


def subgrid_decode(f, a, k: int, d: int, rng) -> Optional[tuple]:
    """Correct f at a by decoding on a random k-dimensional subgrid through a.

    Queries the s^k subgrid points, finds the unique codeword within
    1/(2 s^d), and returns its value at the subgrid origin (which the anchored
    permutations map to a); returns None when no unique codeword is that close.
    """
    a = bytes(a)
    if len(a) != f.n:
        raise ValueError(f"anchor has {len(a)} coordinates, oracle expects {f.n}")
    sub = random_subgrid(f.s, f.n, k, rng, anchor=a)
    decoded = brute_force_unique_decode(
        f.query_many(sub.embed_all()), f.s, k, d, f.group, Fraction(1, 2 * f.s**d)
    )
    return None if decoded is None else decoded.evaluate(bytes(k))


def subgrid_error_reduce(f, a, k: int, d: int, rng) -> tuple:
    """:func:`subgrid_decode`, with the group identity in place of a decoding
    failure."""
    value = subgrid_decode(f, a, k, d, rng)
    return f.group.zero if value is None else value


# ---------------------------------------------------------------------------
# hitting sets and interpolating sets on the boolean cube


def _boolean_monomials(r: int, d: int) -> list[tuple[int, ...]]:
    return [
        combo
        for size in range(d + 1)
        for combo in itertools.combinations(range(r), size)
    ]


def _monomial_rows(points: Sequence[bytes], monos) -> list[list[int]]:
    return [[int(all(b[i] for i in mono)) for mono in monos] for b in points]


def hitting_set(r: int, d: int, interval, rng=None, size_cap: Optional[int] = None) -> tuple[bytes, ...]:
    """A set of points of {0,1}^r with weights in ``interval`` on which no
    nonzero degree-<=d junta-polynomial over any abelian group can vanish.

    Randomized greedy over the candidates in a random order: one incremental
    row echelon form over Q of the point-by-monomial matrix takes a candidate
    iff its monomial row is independent of the rows chosen so far, until the
    matrix has full column rank.  Then candidates are appended until every
    invariant factor is 1 (the certificate; exactly equivalent to the
    all-groups hitting property).
    """
    lo, hi = max(0, interval[0]), min(r, interval[1])
    if hi - lo + 1 < d + 1:
        raise ValueError(f"interval {interval} too narrow for degree {d}")
    if rng is None:
        rng = derive_rng(0, "hitting-set", r, d, lo, hi)
    if size_cap is None:
        size_cap = max((4 * r) ** d, d + 1)
    candidates = [
        bytes(1 if i in ones else 0 for i in range(r))
        for w in range(lo, hi + 1)
        for ones in itertools.combinations(range(r), w)
    ]
    order = rng.permutation(len(candidates))
    monos = _boolean_monomials(r, d)
    echelon = RowEchelon()
    chosen: list[bytes] = []
    for pos in order:
        cand = candidates[int(pos)]
        if echelon.add(_monomial_rows([cand], monos)[0]):
            chosen.append(cand)
            if len(chosen) == len(monos):
                break
    taken = set(chosen)
    remaining = [candidates[int(p)] for p in order if candidates[int(p)] not in taken]
    while not unimodular_certificate(_monomial_rows(chosen, monos)):
        if not remaining or len(chosen) >= size_cap:
            raise SearchFailure(
                f"no certified hitting set of size <= {size_cap} found "
                f"for r={r}, d={d}, weights in [{lo}, {hi}]"
            )
        chosen.append(remaining.pop())
    return tuple(sorted(chosen))


@dataclass(frozen=True)
class InterpolatingSet:
    """Weight-balanced integer-interpolating point set in {0,1}^{r m}.

    Coordinates come in m blocks of r; block j carries weight s^(m-j), and the
    coordinate distribution D puts mass proportional to its block weight on
    each coordinate.  Every point's D-expected bit is within d/W of 1/s, and
    Q(1^k) = sum_b coeffs[b] Q(b) holds for every degree-<=d junta-sum Q over
    every abelian group.
    """

    s: int
    d: int
    r: int
    m: int
    points: tuple[bytes, ...]
    coeffs: dict[bytes, int]

    @property
    def k(self) -> int:
        return self.r * self.m

    @property
    def block_weights(self) -> tuple[int, ...]:
        return tuple(self.s ** (self.m - j) for j in range(1, self.m + 1))

    @property
    def total_weight(self) -> int:
        return self.r * sum(self.block_weights)

    def weight_slack(self, b: bytes) -> Fraction:
        w = self.block_weights
        acc = sum(w[t // self.r] * b[t] for t in range(self.k))
        return abs(Fraction(acc, self.total_weight) - Fraction(1, self.s))

    def coordinate_distribution(self) -> np.ndarray:
        w = self.block_weights
        masses = np.array([w[t // self.r] for t in range(self.k)], dtype=float)
        return masses / masses.sum()

    def sample_assignment(self, n: int, rng) -> np.ndarray:
        """One D-sampled source coordinate per ambient coordinate."""
        return rng.choice(self.k, size=n, p=self.coordinate_distribution())

    def correct(self, f, rng) -> tuple:
        """Estimate P(1^n) through the oracle with one query per point, in
        ``points`` order (one batch)."""
        assignment = self.sample_assignment(f.n, rng)
        points = np.frombuffer(b"".join(self.points), dtype=np.uint8)
        values = f.query_many(points.reshape(len(self.points), self.k)[:, assignment])
        return f.group.linear_combination([self.coeffs[b] for b in self.points], values)


def build_interpolating_set(s: int, d: int, r: int, m: int, rng=None) -> InterpolatingSet:
    """Recursive construction: the base layer is a hitting set at weights
    r/s +- d; each extension appends a block whose weight interval re-centers
    the running weighted deviation.  Both invariants are certified before the
    set is returned, and the integer coefficients are solved exactly on the
    monomial basis.
    """
    if r % s:
        raise ValueError("r must be divisible by s")
    if rng is None:
        rng = derive_rng(0, "interpolating-set", s, d, r, m)

    level_weight = lambda mm: r * (s**mm - 1) // (s - 1)

    def build(mm: int, dd: int) -> list[bytes]:
        if mm == 1:
            return list(hitting_set(r, dd, (r // s - dd, r // s + dd), rng))
        out = []
        weights = [s ** (mm - 1 - j) for j in range(1, mm)]
        for dprime in range(dd + 1):
            for b in build(mm - 1, dprime):
                tau = sum(
                    weights[t // r] * b[t] for t in range(r * (mm - 1))
                ) - level_weight(mm - 1) // s
                lo = r // s - s * tau - (dd - dprime)
                hi = r // s - s * tau + (dd - dprime)
                if hi < 0 or lo > r or min(hi, r) - max(lo, 0) + 1 < (dd - dprime) + 1:
                    raise ConstructionFailure(
                        f"re-centered interval [{lo}, {hi}] infeasible at level "
                        f"{mm} (r={r}, s={s}); increase r"
                    )
                for c in hitting_set(r, dd - dprime, (lo, hi), rng):
                    out.append(b + c)
        return sorted(set(out))

    points = tuple(build(m, d))
    shell = InterpolatingSet(s=s, d=d, r=r, m=m, points=points, coeffs={})
    bound = Fraction(d, shell.total_weight)
    for b in points:
        if shell.weight_slack(b) > bound:
            raise ConstructionFailure(
                f"point {b.hex()} violates the weight-balance bound {bound}"
            )
    monos = _boolean_monomials(shell.k, d)
    rows = _monomial_rows(points, monos)  # points x monomials
    system = [[rows[p][q] for p in range(len(points))] for q in range(len(monos))]
    solution = solve_integer(system, [1] * len(monos))
    if solution is None:
        raise ConstructionFailure("monomial system has no integer solution")
    coeffs = dict(zip(points, solution))
    for mono, row in zip(monos, system):
        if sum(c * v for c, v in zip(solution, row)) != 1:
            raise ConstructionFailure("interpolation certificate failed")
    return InterpolatingSet(s=s, d=d, r=r, m=m, points=points, coeffs=coeffs)


# ---------------------------------------------------------------------------
# the biased-cube reduction


def biased_cube_correct(f_prime, x, inner, rng, repeats: int = 3) -> tuple:
    """Correct f' : [s]^n -> G at x by voting over boolean-cube corrections.

    Each repeat redraws the off-values x'_i (uniform over the letters other
    than x_i), builds the induced oracle f(y) = f'(z(y)) with z_i = x_i when
    y_i = 1 and x'_i otherwise, and calls ``inner(f, rng)`` — a corrector for
    the all-ones point of the cube, where z is exactly x.
    """
    x = bytes(x)
    s, n, group = f_prime.s, f_prime.n, f_prime.group
    votes = []
    for _ in range(repeats):
        if s > 1:
            off = [(x[i] + 1 + int(rng.integers(s - 1))) % s for i in range(n)]
        else:
            off = list(x)

        def z(y, off=off):
            return bytes(x[i] if y[i] else off[i] for i in range(n))

        induced = FunctionOracle(2, n, group, lambda y, z=z: f_prime.query(z(y)))
        votes.append(inner(induced, rng))
    return _plurality(votes)


# ---------------------------------------------------------------------------
# constant-query correction for torsion groups


@dataclass(frozen=True)
class TorsionScheme:
    """Slice-interpolation scheme for groups of exponent M.

    On {0,1}^{sk}, the weight-k slice interpolates Q(1^{sk}) for every
    degree-<=d junta-sum over any group of exponent dividing M:
    Q(1) = sum_b c_b Q(b) with c_b = A on points whose last k-d coordinates
    are all ones and 0 elsewhere, where A inverts C((s-1)k + d, (s-1)k) mod M.
    """

    s: int
    d: int
    exponent: int
    k: int
    multiplier: int
    prime_powers: tuple[tuple[int, int, int], ...]  # (p, r, s_j)

    @property
    def slice_length(self) -> int:
        return self.s * self.k

    @property
    def query_count(self) -> int:
        return math.comb(self.slice_length, self.k)

    @property
    def low_error_threshold(self) -> Fraction:
        return Fraction(1, 10 * self.query_count)

    def coefficient(self, b: bytes) -> int:
        if all(b[t] for t in range(self.slice_length - (self.k - self.d), self.slice_length)):
            return self.multiplier
        return 0

    def slice_matrix(self) -> np.ndarray:
        """All weight-k points of {0,1}^{sk} as a dense uint8 matrix."""
        return _slice_matrix(self.slice_length, self.k)

    @cached_property
    def coefficient_vector(self) -> np.ndarray:
        """:meth:`coefficient` of every row of :meth:`slice_matrix`."""
        tail = self.slice_matrix()[:, self.slice_length - (self.k - self.d):]
        vector = np.where(tail.all(axis=1), self.multiplier, 0)
        vector.setflags(write=False)
        return vector

    def support_points(self):
        """The points with nonzero coefficient: d free ones in front of a
        forced block of k-d trailing ones."""
        sk = self.slice_length
        tail = range(sk - (self.k - self.d), sk)
        for ones in itertools.combinations(range(sk - (self.k - self.d)), self.d):
            b = bytearray(sk)
            for i in ones:
                b[i] = 1
            for i in tail:
                b[i] = 1
            yield bytes(b)


@lru_cache(maxsize=8)
def _slice_matrix(length: int, weight: int) -> np.ndarray:
    check_capacity(math.comb(length, weight) * length, "slice point matrix")
    rows = np.zeros((math.comb(length, weight), length), dtype=np.uint8)
    for row, ones in enumerate(itertools.combinations(range(length), weight)):
        rows[row, list(ones)] = 1
    return rows


def torsion_scheme(s: int, d: int, exponent: int) -> TorsionScheme:
    """Build and verify the scheme for groups of the given exponent.

    k multiplies p^(3 r s_p) over the prime powers p^r of the exponent, with
    s_p minimal such that p^(r s_p) > d.  The two Kummer divisibility
    conditions are theorems; a violation raises rather than degrades.
    """
    if exponent < 2:
        raise ValueError("exponent must be at least 2")
    if d < 0 or s < 2:
        raise ValueError("need s >= 2 and d >= 0")
    powers = []
    k = 1
    for p, rr in prime_factorization(exponent):
        sj = 1
        while p ** (rr * sj) <= d:
            sj += 1
        powers.append((p, rr, sj))
        k *= p ** (3 * rr * sj)
    k_prime = (s - 1) * k
    for p, rr, _ in powers:
        if kummer_valuation(k_prime + d, k_prime, p) != 0:
            raise ArithmeticError(
                f"C(k'+d, k') unexpectedly divisible by {p}; scheme invalid"
            )
        for i in range(1, d + 1):
            if kummer_valuation(k_prime + d - i, k_prime - i, p) < rr:
                raise ArithmeticError(
                    f"C(k'+d-{i}, k'-{i}) misses the p^r factor for p={p}"
                )
    a = pow(math.comb(k_prime + d, k_prime), -1, exponent)
    return TorsionScheme(
        s=s, d=d, exponent=exponent, k=k, multiplier=a,
        prime_powers=tuple(powers),
    )


def torsion_correct(f, scheme: TorsionScheme, rng, x=None) -> tuple:
    """Algorithm: hash [n] into [sk], query f on the image of every weight-k
    slice point, output the coefficient-weighted sum — C(sk, k) queries.

    The oracle lives on the boolean cube.  With x given, coordinates where
    x_i = 0 are flipped on the way in, correcting at x instead of all-ones.

    The slice is queried as one batch (``query_many``) and weighted by the
    scheme's cached ``coefficient_vector``; the result, the query count and
    the order of the queries are those of querying point by point.  Every
    slice point is queried, although only the ``support_points`` carry
    weight: C(sk, k) is the corrector's stated query complexity, which
    callers count, and an oracle that draws randomness per query would see
    fewer draws.
    """
    if f.s != 2:
        raise ValueError("torsion correction runs on a boolean-cube oracle")
    n, group = f.n, f.group
    if scheme.exponent % group.exponent:
        raise ValueError(
            f"group exponent {group.exponent} does not divide the scheme's "
            f"{scheme.exponent}"
        )
    if x is not None and len(x) != n:
        raise ValueError(f"x has {len(x)} coordinates, oracle expects {n}")
    h = rng.integers(0, scheme.slice_length, size=n)
    images = scheme.slice_matrix()[:, h]
    if x is not None and bytes(x) != bytes([1]) * n:
        images = images ^ (np.frombuffer(bytes(x), dtype=np.uint8) ^ 1)[None, :]
    return group.linear_combination(scheme.coefficient_vector, f.query_many(images))
