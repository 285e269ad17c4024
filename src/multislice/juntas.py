"""Junta-sums over a finite grid, with coefficients in a finite abelian group.

A function f : [s]^n -> G is a *d-junta-sum* if it can be written as a sum of
functions each depending on at most d coordinates.  Every junta-sum has a
unique normal form

    f(x) = sum_M  g_M * prod_{(i,a) in M} [x_i = a]

where M ranges over *monomials*: sets of (coordinate, letter) pairs with
distinct coordinates and nonzero letters.  The letter-0 indicator is the
constant 1 function, which is why letter 0 never appears in a monomial; this
makes the representation unique, and the junta-degree of f equals the largest
|M| carrying a nonzero coefficient.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from .budget import check_capacity
from .groups import AbelianGroup
from .slices import Point, SliceSpec, enumerate_slice, multinomial
from .snf import RowEchelon, smith_decomposition, solve_smith

Monomial = tuple[tuple[int, int], ...]


def normalize_monomial(pairs: Iterable[tuple[int, int]], s: int, n: int) -> Monomial:
    """Sorted, validated (coordinate, nonzero letter) pairs."""
    mono = tuple(sorted((int(i), int(a)) for i, a in pairs))
    seen = set()
    for i, a in mono:
        if not 0 <= i < n:
            raise ValueError(f"coordinate {i} outside 0..{n - 1}")
        if not 1 <= a < s:
            raise ValueError(f"monomial letter {a} must be nonzero and < {s}")
        if i in seen:
            raise ValueError(f"coordinate {i} repeated in monomial")
        seen.add(i)
    return mono


def monomial_value(mono: Monomial, x: Sequence[int]) -> int:
    """Evaluate the indicator product at x (0 or 1)."""
    return int(all(x[i] == a for i, a in mono))


@dataclass
class JuntaPolynomial:
    """Normal form of a junta-sum; ``coeffs`` never stores zero elements."""

    s: int
    n: int
    group: AbelianGroup
    coeffs: dict[Monomial, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self):
        zero = self.group.zero
        clean = {}
        for mono, g in self.coeffs.items():
            g = self.group.reduce_element(g)
            if g != zero:
                clean[normalize_monomial(mono, self.s, self.n)] = g
        self.coeffs = clean

    @classmethod
    def from_normal_form(
        cls, s: int, n: int, group: AbelianGroup, coeffs: dict[Monomial, tuple[int, ...]]
    ) -> "JuntaPolynomial":
        """Wrap coefficients that are already in normal form (validated
        sorted monomials, reduced nonzero elements) without checking them
        again; for decoders that build many polynomials from tables."""
        poly = cls.__new__(cls)
        poly.s, poly.n, poly.group, poly.coeffs = s, n, group, coeffs
        return poly

    @classmethod
    def zero(cls, s: int, n: int, group: AbelianGroup) -> "JuntaPolynomial":
        return cls(s, n, group, {})

    @classmethod
    def constant(cls, s: int, n: int, group: AbelianGroup, g) -> "JuntaPolynomial":
        return cls(s, n, group, {(): tuple(g)})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def junta_degree(self) -> int:
        """Max monomial size; 0 for the zero polynomial (see ``is_zero``)."""
        return max((len(m) for m in self.coeffs), default=0)

    def evaluate(self, x: Sequence[int]) -> tuple[int, ...]:
        total = self.group.zero
        for mono, g in self.coeffs.items():
            if monomial_value(mono, x):
                total = self.group.add(total, g)
        return total

    @cached_property
    def _compiled(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """The monomials grouped by size: per group, the (m, size) coordinates
        and letters and the (m, r) coefficients, one column per cyclic factor."""
        by_size: dict[int, list[tuple[Monomial, tuple[int, ...]]]] = {}
        for mono, g in self.coeffs.items():
            by_size.setdefault(len(mono), []).append((mono, g))
        out = []
        for size, items in sorted(by_size.items()):
            pairs = np.array([mono for mono, _ in items], dtype=np.int64).reshape(
                len(items), size, 2)
            coeffs = np.array([g for _, g in items], dtype=np.int64)
            out.append((pairs[:, :, 0], pairs[:, :, 1].astype(np.uint8), coeffs))
        return tuple(out)

    def evaluate_many(self, points) -> np.ndarray:
        """:meth:`evaluate` at each row of a (B, n) uint8 array, as a (B, r)
        array of reduced elements."""
        points = np.asarray(points, dtype=np.uint8)
        if points.ndim != 2 or points.shape[1] != self.n:
            raise ValueError(f"points must form a (B, {self.n}) array")
        total = np.zeros((len(points), len(self.group.factors)), dtype=np.int64)
        for coords, letters, coeffs in self._compiled:
            hit = (points[:, coords] == letters).all(axis=2)
            total += hit.astype(np.int64) @ coeffs
        return total % np.array(self.group.factors, dtype=np.int64)

    def __add__(self, other: "JuntaPolynomial") -> "JuntaPolynomial":
        self._check_compatible(other)
        out = dict(self.coeffs)
        zero = self.group.zero
        for mono, g in other.coeffs.items():
            merged = self.group.add(out.get(mono, zero), g)
            if merged == zero:
                out.pop(mono, None)
            else:
                out[mono] = merged
        return JuntaPolynomial(self.s, self.n, self.group, out)

    def __neg__(self) -> "JuntaPolynomial":
        return JuntaPolynomial(
            self.s, self.n, self.group,
            {m: self.group.neg(g) for m, g in self.coeffs.items()},
        )

    def __sub__(self, other: "JuntaPolynomial") -> "JuntaPolynomial":
        return self + (-other)

    def _check_compatible(self, other: "JuntaPolynomial") -> None:
        if (self.s, self.n, self.group) != (other.s, other.n, other.group):
            raise ValueError("polynomials live on different domains")

    def truth_table(self) -> tuple[tuple[int, ...], ...]:
        """Values over the whole grid, in :func:`grid_points` order."""
        return tuple(self.evaluate(x) for x in grid_points(self.s, self.n))

    def to_json(self) -> dict:
        return {
            "s": self.s,
            "n": self.n,
            "group": list(self.group.factors),
            "monomials": [
                {"support": [list(p) for p in mono], "coeff": list(g)}
                for mono, g in sorted(self.coeffs.items())
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "JuntaPolynomial":
        group = AbelianGroup(tuple(data["group"]))
        coeffs = {
            tuple(tuple(p) for p in item["support"]): tuple(item["coeff"])
            for item in data["monomials"]
        }
        return cls(data["s"], data["n"], group, coeffs)


@lru_cache(maxsize=None)
def grid_points(s: int, n: int) -> tuple[Point, ...]:
    """The full grid [s]^n, lexicographic (itertools.product) order."""
    check_capacity(s**n * max(n, 1), "grid enumeration")
    return tuple(bytes(x) for x in itertools.product(range(s), repeat=n))


def grid_rank(x: Sequence[int], s: int) -> int:
    r = 0
    for v in x:
        r = r * s + v
    return r


def from_truth_table(
    s: int, n: int, group: AbelianGroup, table: Sequence[tuple[int, ...]]
) -> JuntaPolynomial:
    """The unique junta-polynomial with the given values, by Möbius inversion.

    The coefficient at the monomial of a point ``a`` is an alternating sum of
    table values over the points that agree with ``a`` on a subset of its
    support and are 0 elsewhere.
    """
    if len(table) != s**n:
        raise ValueError("truth table must cover the whole grid")
    coeffs: dict[Monomial, tuple[int, ...]] = {}
    zero = group.zero
    for a in grid_points(s, n):
        supp = tuple((i, v) for i, v in enumerate(a) if v)
        acc = zero
        for size in range(len(supp) + 1):
            sign = 1 if (len(supp) - size) % 2 == 0 else -1
            for sub in itertools.combinations(supp, size):
                point = [0] * n
                for i, v in sub:
                    point[i] = v
                val = table[grid_rank(point, s)]
                acc = group.add(acc, val if sign == 1 else group.neg(val))
        if acc != zero:
            coeffs[supp] = acc
    return JuntaPolynomial(s, n, group, coeffs)


def is_degree_at_most(
    s: int, n: int, group: AbelianGroup, table: Sequence[tuple[int, ...]], d: int
) -> bool:
    return from_truth_table(s, n, group, table).junta_degree() <= d


def grid_distance(table_f: Sequence, table_g: Sequence) -> Fraction:
    """Fraction of grid points where the two tables differ."""
    if len(table_f) != len(table_g):
        raise ValueError("tables must cover the same grid")
    disagree = sum(1 for a, b in zip(table_f, table_g) if a != b)
    return Fraction(disagree, len(table_f))


def poly_distance(p: JuntaPolynomial, q: JuntaPolynomial) -> Fraction:
    p._check_compatible(q)
    return grid_distance(p.truth_table(), q.truth_table())


def multislice_nonzero_count(p: JuntaPolynomial, spec: SliceSpec) -> int:
    """|{x on the slice : p(x) != 0}|."""
    if spec.s != p.s or spec.n != p.n:
        raise ValueError("slice does not match the polynomial domain")
    zero = p.group.zero
    return sum(1 for x in enumerate_slice(spec) if p.evaluate(x) != zero)


def slice_nonzero_lower_bound(counts: Sequence[int], d: int) -> int:
    """Lower bound on the slice-nonzero count of a degree-d junta-sum that is
    nonzero somewhere on the slice: the multinomial of the counts each reduced
    by d (valid when every count is at least d)."""
    if any(c < d for c in counts):
        raise ValueError("every letter count must be at least the degree")
    reduced = [c - d for c in counts]
    return multinomial(sum(reduced), reduced)


def balanced_fraction_bound(s: int, d: int) -> Fraction:
    """Crude balanced-slice nonzero-fraction bound 1/(s*d)^(s*d)."""
    e = s * d
    return Fraction(1, e**e) if e else Fraction(1)


def odlsz_delta(q: int, d: int) -> Fraction:
    """Minimum nonzero fraction of a nonzero degree-d polynomial over F_q:
    (1 - beta/q) * q^(-alpha) with d = alpha*(q-1) + beta, 0 <= beta < q-1."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    alpha, beta = divmod(d, q - 1)
    return (1 - Fraction(beta, q)) / q**alpha


def monomials_up_to(s: int, m: int, d: int) -> list[Monomial]:
    """All monomials on m coordinates with at most d pairs."""
    out: list[Monomial] = []
    for size in range(d + 1):
        for coords in itertools.combinations(range(m), size):
            for letters in itertools.product(range(1, s), repeat=size):
                out.append(tuple(zip(coords, letters)))
    return out


def ball_points(s: int, m: int, d: int, center: Sequence[int]) -> list[Point]:
    """Grid points within Hamming distance d of ``center``."""
    if len(center) != m:
        raise ValueError("center must have m coordinates")
    out = []
    for size in range(d + 1):
        for coords in itertools.combinations(range(m), size):
            for letters in itertools.product(range(s), repeat=size):
                if any(letters[t] == center[c] for t, c in enumerate(coords)):
                    continue
                b = bytearray(center)
                for t, c in enumerate(coords):
                    b[c] = letters[t]
                out.append(bytes(b))
    return out


def ball_interpolation_coeffs(
    s: int, m: int, d: int, center: Sequence[int]
) -> dict[Point, int]:
    """Integer coefficients alpha with P(0^m) = sum_b alpha_b P(b) over the
    radius-d ball around ``center``, valid for every degree-<=d junta-sum over
    every abelian group.

    Solved over the integers on the monomial basis with the Smith form: both
    sides of the identity are integer combinations of coefficients, so an
    integer solution certifies the identity for all groups.  Raises
    ArithmeticError when the square system is singular (fewer invariant
    factors than points) or has no integer solution.
    """
    if m < d:
        raise ValueError("need m >= d")
    monos = monomials_up_to(s, m, d)
    ball = ball_points(s, m, d, center)
    if len(monos) != len(ball):
        raise ArithmeticError("ball size does not match the monomial count")
    origin = bytes(m)
    a_rows = [[monomial_value(mono, b) for b in ball] for mono in monos]
    rhs = [monomial_value(mono, origin) for mono in monos]
    smith = smith_decomposition(a_rows)
    if not all(smith[1][i][i] for i in range(len(ball))):
        raise ArithmeticError("interpolation system is singular")
    sol = solve_smith(smith, rhs)
    if sol is None:
        raise ArithmeticError("interpolation solution is not integral")
    return dict(zip(ball, sol))


def random_polynomial(
    s: int,
    n: int,
    d: int,
    group: AbelianGroup,
    rng,
    terms: Optional[int] = None,
) -> JuntaPolynomial:
    """A random degree-<=d polynomial: uniform coefficients on ``terms`` random
    monomials (default: every monomial, giving a uniform element of the
    degree-<=d family)."""
    monos = monomials_up_to(s, n, d)
    if terms is not None:
        picks = rng.choice(len(monos), size=min(terms, len(monos)), replace=False)
        monos = [monos[int(i)] for i in picks]
    coeffs = {mono: group.random_element(rng) for mono in monos}
    return JuntaPolynomial(s, n, group, coeffs)


def enumerate_polynomials(s: int, n: int, d: int, group: AbelianGroup):
    """Yield every degree-<=d junta-polynomial (including zero)."""
    monos = monomials_up_to(s, n, d)
    check_capacity(group.order ** len(monos), "junta-polynomial enumeration")
    elements = list(group.elements())
    for combo in itertools.product(elements, repeat=len(monos)):
        yield JuntaPolynomial(s, n, group, dict(zip(monos, combo)))


def grid_min_nonzero(s: int, n: int, d: int, group: AbelianGroup) -> tuple[int, int]:
    """Exhaustive minimum, over nonzero degree-<=d polynomials, of the number
    of grid points where they are nonzero; returns (minimum, #polynomials)."""
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


_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1)


def min_slice_nonzero_prime(s: int, n: int, d: int, p: int) -> tuple[int, int]:
    """Exhaustive minimum slice-nonzero count over all degree-<=d junta-sums
    with Z_p coefficients that are nonzero somewhere on the balanced slice.

    Distinct polynomials with the same slice restriction share their count, so
    the scan runs over the (possibly much smaller) space of restrictions: a
    meet-in-the-middle walk over the F_p row space of the monomial restriction
    matrix.  Returns (minimum count, number of nonzero restrictions).
    """
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
    lo = _span_table(basis[:half], p)
    hi = _span_table(basis[half:], p)
    if p == 2:
        lo_bits = np.packbits(lo.astype(np.uint8), axis=1)
        hi_bits = np.packbits(hi.astype(np.uint8), axis=1)
        best = width + 1
        for i in range(lo_bits.shape[0]):
            x = np.bitwise_xor(hi_bits, lo_bits[i])
            counts = _POPCOUNT[x].sum(axis=1)
            if i == 0:
                counts[0] = width + 1  # the zero restriction
            m = int(counts.min())
            if m < best:
                best = m
        return best, total
    best = width + 1
    for i in range(lo.shape[0]):
        combined = (hi + lo[i]) % p
        counts = np.count_nonzero(combined, axis=1)
        if i == 0:
            counts[0] = width + 1
        m = int(counts.min())
        if m < best:
            best = m
    return best, total


def _span_table(basis: np.ndarray, p: int) -> np.ndarray:
    """All F_p combinations of the given rows, zero combination first."""
    width = basis.shape[1]
    table = np.zeros((1, width), dtype=np.int64)
    for row in basis:
        layers = [table] + [(table + c * row) % p for c in range(1, p)]
        table = np.concatenate(layers, axis=0)
    return table
