"""Total-degree polynomials over a prime field, for nonzero-fraction scans.

This is the classical setting the junta-sum distance lemmas generalize: a
polynomial of total degree d over F_q is nonzero on at least a delta(q, d)
fraction of the grid, with individual degrees capped at q - 1 so that every
function has a unique representative.  Prime moduli only; extension fields are
out of scope here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .budget import check_capacity
from .juntas import _min_span_weight, odlsz_delta
from .slices import SliceSpec, enumerate_slice


def prime_factorization(m: int) -> list[tuple[int, int]]:
    """The pairs (p, r) with p^r exactly dividing m, by ascending trial division."""
    factors = []
    p = 2
    while p * p <= m:
        r = 0
        while m % p == 0:
            m //= p
            r += 1
        if r:
            factors.append((p, r))
        p += 1
    if m > 1:
        factors.append((m, 1))
    return factors


def is_prime(p: int) -> bool:
    return prime_factorization(p) == [(p, 1)]


Exponents = tuple[int, ...]


@dataclass
class FieldPolynomial:
    """Sparse polynomial over F_p with individual degrees at most p - 1."""

    p: int
    n: int
    coeffs: dict[Exponents, int] = field(default_factory=dict)

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        clean = {}
        for exps, c in self.coeffs.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.n:
                raise ValueError("exponent vector length must be n")
            if any(not 0 <= e <= self.p - 1 for e in exps):
                raise ValueError("individual degrees must lie in 0..p-1")
            c = int(c) % self.p
            if c:
                clean[exps] = c
        self.coeffs = clean

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def total_degree(self) -> int:
        return max((sum(e) for e in self.coeffs), default=0)

    def evaluate(self, x: Sequence[int]) -> int:
        total = 0
        for exps, c in self.coeffs.items():
            term = c
            for v, e in zip(x, exps):
                if e:
                    term = term * pow(int(v), e, self.p) % self.p
            total += term
        return total % self.p


def field_monomials(p: int, n: int, d: int) -> list[Exponents]:
    """Exponent vectors with total degree <= d and individual degrees <= p-1."""
    out = []
    for exps in itertools.product(range(min(p - 1, d) + 1), repeat=n):
        if sum(exps) <= d:
            out.append(exps)
    return out


def _monomial_values(p: int, n: int, exponents: Sequence[Exponents], domain) -> np.ndarray:
    """The (len(exponents), len(domain)) int64 array of monomial values mod p."""
    domain = np.array([list(x) for x in domain], dtype=np.int64).reshape(len(domain), n)
    powers = np.array([[pow(v, e, p) for e in range(p)] for v in range(p)], dtype=np.int64)
    values = np.ones((len(exponents), len(domain)), dtype=np.int64)
    for row, exps in zip(values, exponents):
        for i, e in enumerate(exps):
            if e:
                row[:] = row * powers[domain[:, i], e] % p
    return values


def min_nonzero_fraction(
    p: int,
    n: int,
    d: int,
    mode: str = "exhaustive",
    on_slice: bool = False,
    rng=None,
    samples: int = 1000,
) -> Fraction:
    """Minimum nonzero fraction over degree-<=d polynomials, on the full grid
    or (with ``on_slice``) over polynomials nonzero somewhere on the balanced
    multislice, counting only slice points.

    A polynomial's values on the domain are its coefficient vector times the
    matrix of monomial values, mod p.  Exhaustive mode finds the lightest
    nonzero vector in that matrix's F_p row space (the whole family, through
    :func:`multislice.juntas._min_span_weight`); sampled mode draws random
    coefficient vectors and reports the minimum seen (an upper bound).
    """
    if on_slice:
        spec = SliceSpec.balanced(p, n)
        domain = enumerate_slice(spec)
    else:
        check_capacity(p**n * max(n, 1), "grid scan")
        domain = [tuple(x) for x in itertools.product(range(p), repeat=n)]
    monos = field_monomials(p, n, d)
    if mode == "exhaustive":
        check_capacity(p ** len(monos), "field polynomial enumeration")
        best = _min_span_weight(_monomial_values(p, n, monos, domain), p)
    elif mode == "sampled":
        if rng is None:
            raise ValueError("sampled mode needs an rng")
        values = _monomial_values(p, n, monos, domain)
        best = None
        for _ in range(samples):
            # a zero polynomial, or one vanishing on the slice, scores 0
            weight = int(np.count_nonzero(rng.integers(0, p, len(monos)) @ values % p))
            if weight and (best is None or weight < best):
                best = weight
    else:
        raise ValueError("mode must be 'exhaustive' or 'sampled'")
    if best is None:
        raise ValueError("no eligible polynomial in the family")
    return Fraction(best, len(domain))


def grid_minimum_matches_formula(p: int, n: int, d: int) -> tuple[Fraction, Fraction]:
    """(exhaustive grid minimum, delta(p, d)) for direct comparison."""
    return min_nonzero_fraction(p, n, d), odlsz_delta(p, d)
