"""Local list correction of junta-sums beyond the unique-decoding radius.

A function at distance just under 1/s^d from the degree-d family can be close
to several junta-sums at once, so a corrector must output a short list of
candidates.  The route implemented here:

* ``brute_force_list`` — exhaustive list decoding on a small grid (the
  combinatorial ground truth everything else is measured against).
* ``approximator_eval`` — given a subgrid C, a spanning permutation, and one
  candidate Q from the list of f|_C, evaluates an "approximating oracle"
  psi at any ambient point b: span C and b into a larger subgrid, list-decode
  f there, and return the value at b of the list element consistent with Q.
* ``build_approximators`` — samples a few random subgrids and emits one
  descriptor per list element found on each; with good probability every
  junta-sum close to f acquires an approximator that is much closer to it
  than f was.
* ``local_list_correct`` — composes each approximator with the unique local
  corrector from :mod:`multislice.correction`, turning "close" into "exact
  with high probability per point".

The tail of the module holds standalone distributional checks (restriction
nonvanishing, anti-concentration, disjoint-monomial tails) used by the
experiment harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .correction import (
    FunctionOracle,
    _codebook,
    subgrid_error_reduce,
)
from .groups import AbelianGroup
from .juntas import JuntaPolynomial, grid_points, grid_rank, monomials_up_to
from .slices import SliceSpec, enumerate_slice
from .subgrids import (
    IdentificationMap,
    SpannedSubgrid,
    SubgridMap,
    random_identification,
    random_subgrid,
)


def brute_force_list(
    table, s: int, k: int, d: int, group: AbelianGroup, radius
) -> list[JuntaPolynomial]:
    """All degree-<=d junta-sums within the given distance of the table,
    closest first.  The radius is inclusive, matching the list definition
    delta(f, P) <= 1/s^d - eps; the unique decoder's radius is strict.  The
    table is a grid-order sequence of elements, a point-keyed mapping or an
    array of element indices."""
    book = _codebook(s, k, d, group)
    mism = book.mismatches(table)
    radius = Fraction(radius)
    if radius < 0:
        return []
    allowed = (radius * s**k).numerator // (radius * s**k).denominator
    hits = sorted(np.nonzero(mism <= allowed)[0], key=lambda i: (mism[i], i))
    return [book.polynomial(int(i)) for i in hits]


def restrict_to_identification(table, ident: IdentificationMap) -> list:
    """Pull a table on [s]^{sk} back to [s]^k along the identification:
    g(y) = f(x) where x_t = y_{tau(t)}.  Accepts a grid-order sequence or a
    point-keyed mapping; returns grid order."""
    s, k = ident.s, ident.k
    if isinstance(table, dict):
        lookup = table.__getitem__
    else:
        if len(table) != s ** (s * k):
            raise ValueError("table must cover the [s]^{sk} grid")
        lookup = lambda x: table[grid_rank(x, s)]
    return [lookup(ident.lift(y)) for y in grid_points(s, k)]


@dataclass(frozen=True)
class ApproximatorDescriptor:
    """One (C, sigma, Q) triple: a k-dimensional subgrid, a spanning
    permutation of [sk], and a candidate junta-sum on [s]^k that the
    approximator stays consistent with."""

    subgrid: SubgridMap
    sigma: tuple[int, ...]
    candidate: JuntaPolynomial
    eps: Fraction

    def __post_init__(self):
        if self.candidate.s != self.subgrid.s or self.candidate.n != self.subgrid.k:
            raise ValueError("candidate must live on the subgrid's [s]^k")

    @cached_property
    def candidate_table(self) -> tuple:
        return tuple(self.candidate.truth_table())


def approximator_eval(desc: ApproximatorDescriptor, f, b, d: int):
    """Evaluate the approximating oracle at the ambient point b.

    Spans the descriptor's subgrid with b, queries f on all s^{sk} points of
    the span, list-decodes at radius 1/s^d - eps/2, and returns R(w) for the
    first list element R whose restriction to the base subgrid equals the
    candidate (w being the witness point the span places over b); if none
    matches, the group identity.
    """
    base = desc.subgrid
    span = SpannedSubgrid(base, bytes(b), desc.sigma)
    table = [f.query(bytes(row)) for row in span.as_subgrid.embed_all()]
    radius = Fraction(1, base.s**d) - desc.eps / 2
    candidates = brute_force_list(
        table, base.s, base.s * base.k, d, f.group, radius
    )
    tau = span.induced_tau
    for poly in candidates:
        restricted = restrict_to_identification(poly.truth_table(), tau)
        if tuple(restricted) == desc.candidate_table:
            return poly.evaluate(span.witness)
    return f.group.zero


def build_approximators(
    f, d: int, eps, k: int, ell: int, rng
) -> list[ApproximatorDescriptor]:
    """Sample ell random k-dimensional subgrids, list-decode f on each at
    radius 1/s^d - eps/2, and emit one descriptor per list element (with a
    fresh spanning permutation per subgrid).  Uses ell * s^k queries."""
    if ell < 1:
        raise ValueError("need at least one iteration")
    eps = Fraction(eps)
    s = f.s
    out = []
    for _ in range(ell):
        sub = random_subgrid(s, f.n, k, rng)
        table = [f.query(bytes(row)) for row in sub.embed_all()]
        found = brute_force_list(
            table, s, k, d, f.group, Fraction(1, s**d) - eps / 2
        )
        sigma = tuple(int(v) for v in rng.permutation(s * k))
        for q in found:
            out.append(ApproximatorDescriptor(sub, sigma, q, eps))
    return out


@dataclass
class CorrectedApproximator:
    """An approximating oracle composed with the unique local corrector."""

    descriptor: ApproximatorDescriptor
    source: object
    d: int
    k_unique: int
    psi_calls: int = field(default=0, init=False)

    def psi_oracle(self) -> FunctionOracle:
        def query(b: bytes):
            self.psi_calls += 1
            return approximator_eval(self.descriptor, self.source, b, self.d)

        return FunctionOracle(self.source.s, self.source.n, self.source.group, query)

    def correct(self, x, rng):
        return subgrid_error_reduce(
            self.psi_oracle(), x, self.k_unique, self.d, rng
        )


def local_list_correct(
    f,
    d: int,
    eps,
    x_queries: Sequence[bytes],
    rng,
    *,
    k_approx: int = 4,
    ell: int = 4,
    k_unique: int = 4,
) -> list[tuple[CorrectedApproximator, dict]]:
    """The composed local list corrector.

    Builds approximators from f, wraps each in the unique corrector, and
    evaluates every corrected approximator at each query point.  Returns one
    (corrector, {point: value}) pair per approximator; a junta-sum close to f
    should appear as some corrector whose values match it everywhere.
    """
    descriptors = build_approximators(f, d, eps, k_approx, ell, rng)
    out = []
    for desc in descriptors:
        corrector = CorrectedApproximator(desc, f, d, k_unique)
        values = {bytes(x): corrector.correct(x, rng) for x in x_queries}
        out.append((corrector, values))
    return out


# ---------------------------------------------------------------------------
# distributional checks


def relevant_variables(poly: JuntaPolynomial) -> set[int]:
    """Coordinates appearing in a monomial with nonzero coefficient (the
    normal form is unique, so this is exactly the set of variables the
    function depends on)."""
    zero = poly.group.zero
    out: set[int] = set()
    for mono, coeff in poly.coeffs.items():
        if coeff != zero:
            out.update(i for i, _ in mono)
    return out


def nonzero_fraction(poly: JuntaPolynomial) -> Fraction:
    zero = poly.group.zero
    table = poly.truth_table()
    return Fraction(sum(1 for v in table if v != zero), len(table))


def anti_concentration_check(
    s: int,
    d: int,
    r: int,
    trials: int,
    rng,
    group: AbelianGroup,
) -> Fraction:
    """Minimum nonzero fraction over sampled degree-<=d junta-sums on [s]^r
    that depend on all r variables.  For groups with no small-order elements
    the minimum should stay near 1/s^{d-1}; the caller compares against its
    chosen bound."""
    best: Optional[Fraction] = None
    found = 0
    attempts = 0
    from .juntas import random_polynomial

    while found < trials:
        attempts += 1
        if attempts > 50 * trials:
            raise RuntimeError("could not sample enough full-support polynomials")
        poly = random_polynomial(s, r, d, group, rng)
        if len(relevant_variables(poly)) < r:
            continue
        found += 1
        frac = nonzero_fraction(poly)
        if best is None or frac < best:
            best = frac
    return best


def restriction_nonvanishing_frequency(poly: JuntaPolynomial, k: int, trials: int, rng) -> float:
    """Fraction of sampled s-to-1 identifications tau : [s^2 k] -> [sk] for
    which poly's pullback g(y) = poly(x_tau(y)) is nonzero somewhere on the
    balanced slice of [s]^{sk}.  The input must live on s^2*k coordinates."""
    s = poly.s
    if poly.n != s * s * k:
        raise ValueError("polynomial must live on s^2*k coordinates")
    zero = poly.group.zero
    balanced = enumerate_slice(SliceSpec.balanced(s, s * k))
    good = 0
    for _ in range(trials):
        ident = random_identification(s, s * k, rng)
        if any(poly.evaluate(ident.lift(y)) != zero for y in balanced):
            good += 1
    return good / trials


def disjoint_monomial_tail(s: int, d: int, t: int, p: int = 2) -> Fraction:
    """Exact probability that t degree-d monomials on pairwise-disjoint
    coordinate sets (unit coefficients over Z_p) all vanish at a uniform grid
    point.  Disjointness makes the events independent, so the value equals
    (1 - 1/s^d)^t; computed by exhaustive counting, not the formula."""
    group = AbelianGroup((p,))
    n = t * d
    polys = [
        JuntaPolynomial(
            s, n, group, {tuple((i * d + j, 1) for j in range(d)): (1,)}
        )
        for i in range(t)
    ]
    zero = group.zero
    count = sum(
        1
        for x in grid_points(s, n)
        if all(q.evaluate(x) == zero for q in polys)
    )
    return Fraction(count, s**n)
