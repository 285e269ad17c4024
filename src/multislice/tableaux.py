"""Partitions, Young tableaux, and the slice vectors built from them."""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod, sqrt

from .budget import check_capacity
from .slices import Point, SliceSpec, enumerate_slice, slice_size
from .snf import determinant


def partitions(n, max_part=None):
    """Yield all partitions of n as descending tuples."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def conjugate(lam):
    """Dual partition (column heights of the diagram)."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0]))


def dominance_geq(lam, mu):
    """lam dominates mu: every prefix sum of lam is >= that of mu."""
    if sum(lam) != sum(mu):
        raise ValueError("dominance compares partitions of the same n")
    total_l = total_m = 0
    for i in range(max(len(lam), len(mu))):
        total_l += lam[i] if i < len(lam) else 0
        total_m += mu[i] if i < len(mu) else 0
        if total_l < total_m:
            return False
    return True


def partitions_dominating(mu):
    return [lam for lam in partitions(sum(mu)) if dominance_geq(lam, mu)]


def hook_lengths(lam):
    star = conjugate(lam)
    return [
        [(lam[i] - j) + (star[j] - i) - 1 for j in range(lam[i])]
        for i in range(len(lam))
    ]


def count_syt(lam):
    """Number of standard Young tableaux, by the hook length formula."""
    n = sum(lam)
    return factorial(n) // prod(h for row in hook_lengths(lam) for h in row)


def count_syt_backtrack(lam):
    """Number of standard Young tableaux, by direct enumeration."""
    lam = tuple(lam)
    n = sum(lam)

    @lru_cache(maxsize=None)
    def rec(filled):
        if sum(filled) == n:
            return 1
        total = 0
        for i in range(len(lam)):
            f = filled[i]
            if f < lam[i] and (i == 0 or filled[i - 1] > f):
                total += rec(filled[:i] + (f + 1,) + filled[i + 1 :])
        return total

    return rec((0,) * len(lam))


def enumerate_ssyt(lam, content):
    """All semi-standard tableaux of shape lam whose letter i (0-based) appears
    content[i] times.  Rows weakly increase, columns strictly increase."""
    s = len(content)
    rows = [[-1] * p for p in lam]
    remaining = list(content)
    cells = [(i, j) for i, p in enumerate(lam) for j in range(p)]
    out = []

    def rec(idx):
        if idx == len(cells):
            out.append(tuple(tuple(r) for r in rows))
            return
        i, j = cells[idx]
        lo = rows[i][j - 1] if j else 0
        if i and rows[i - 1][j] >= lo:
            lo = rows[i - 1][j] + 1
        for v in range(lo, s):
            if remaining[v]:
                remaining[v] -= 1
                rows[i][j] = v
                rec(idx + 1)
                rows[i][j] = -1
                remaining[v] += 1

    rec(0)
    return out


def count_kostka(lam, content):
    return len(enumerate_ssyt(lam, content))


def young_rule_sides(s, n):
    """Both sides of the identity: sum of K_{lam,mu} * f_lam over lam dominating
    the balanced mu equals the size of the balanced slice."""
    mu = SliceSpec.balanced(s, n).counts
    total = sum(
        count_kostka(lam, mu) * count_syt(lam) for lam in partitions_dominating(mu)
    )
    return total, slice_size(SliceSpec.balanced(s, n))


def canonical_tableau(lam):
    """Cells labelled row by row with 1..n."""
    out = []
    start = 1
    for p in lam:
        out.append(tuple(range(start, start + p)))
        start += p
    return tuple(out)


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


@lru_cache(maxsize=None)
def column_group_action(lam):
    """All rearrangements of the canonical tableau by per-column permutations.

    Returns a tuple of (tableau, sign) pairs, one per element of the column
    group; the tableau holds variable labels 1..n in shape lam."""
    lam = tuple(lam)
    t0 = canonical_tableau(lam)
    star = conjugate(lam)
    width = lam[0] if lam else 0
    check_capacity(prod(factorial(h) for h in star), "column group enumeration")
    per_column = []
    for j in range(width):
        entries = tuple(t0[i][j] for i in range(star[j]))
        per_column.append(
            [
                (tuple(entries[p] for p in perm), _perm_sign(perm))
                for perm in itertools.permutations(range(star[j]))
            ]
        )
    result = []
    for combo in itertools.product(*per_column):
        sign = 1
        for _, psign in combo:
            sign *= psign
        cols = [c for c, _ in combo]
        rows = tuple(
            tuple(cols[j][i] for j in range(lam[i])) for i in range(len(lam))
        )
        result.append((rows, sign))
    return tuple(result)


def column_group_order(lam):
    return prod(factorial(h) for h in conjugate(lam))


def chi_value(lam, tab, x: Point):
    """The signed count over the column group of row-multiset matches.

    ``tab`` is a semi-standard tableau of shape lam with letters 0..s-1; the
    value at x sums sgn(sigma) over the column-group elements sigma for which
    every row of the rearranged canonical tableau reads off (as a multiset of
    letters of x) exactly the corresponding row of ``tab``."""
    target = [sorted(row) for row in tab]
    total = 0
    for labels, sign in column_group_action(tuple(lam)):
        for i, row in enumerate(labels):
            if sorted(x[v - 1] for v in row) != target[i]:
                break
        else:
            total += sign
    return total


def chi_vector(lam, tab, s):
    """chi as an integer vector over the balanced slice, in enumeration order."""
    spec = SliceSpec.balanced(s, sum(lam))
    return [chi_value(lam, tab, x) for x in enumerate_slice(spec)]


def chi_support(lam):
    """0-based coordinates that chi may depend on: the variables in the first
    lambda_2 columns of the canonical tableau (all of them when len(lam) < 2)."""
    lam = tuple(lam)
    t0 = canonical_tableau(lam)
    if len(lam) < 2:
        width = lam[0] if lam else 0
    else:
        width = lam[1]
    return frozenset(
        t0[i][j] - 1 for i in range(len(lam)) for j in range(min(width, lam[i]))
    )


def ssyt_less(s_tab, t_tab):
    """Total order on SSYT of one shape: scan rows bottom-up, cells right to
    left, and compare at the first difference (row 1 never decides)."""
    for i in range(len(s_tab) - 1, 0, -1):
        for j in range(len(s_tab[i]) - 1, -1, -1):
            if s_tab[i][j] != t_tab[i][j]:
                return s_tab[i][j] < t_tab[i][j]
    return False


def a_s_points(lam, s_tab, s):
    """Slice points that read tableau ``s_tab`` on the first lambda_2 columns
    of the canonical tableau."""
    lam = tuple(lam)
    spec = SliceSpec.balanced(s, sum(lam))
    t0 = canonical_tableau(lam)
    width = lam[1] if len(lam) >= 2 else (lam[0] if lam else 0)
    constraints = [
        (t0[i][j] - 1, s_tab[i][j])
        for i in range(len(lam))
        for j in range(min(width, lam[i]))
    ]
    return [
        x
        for x in enumerate_slice(spec)
        if all(x[pos] == letter for pos, letter in constraints)
    ]


def slice_inner_product(u, v):
    """(1/N) * <u, v> as an exact Fraction."""
    if len(u) != len(v):
        raise ValueError("vectors must have equal length")
    return Fraction(sum(a * b for a, b in zip(u, v)), len(u))


def gram_det(vectors):
    """Exact determinant of the Gram matrix under the slice inner product."""
    k = len(vectors)
    gram = [[slice_inner_product(vectors[i], vectors[j]) for j in range(k)] for i in range(k)]
    return determinant(gram)


def gram_volume(vectors):
    """Volume of the parallelepiped: sqrt of the Gram determinant."""
    det = gram_det(vectors)
    if det < 0:
        raise ArithmeticError("Gram determinant cannot be negative")
    return sqrt(float(det))


def mean_under(weights, vec):
    """Expectation of an integer vector under a probability vector (Fractions)."""
    if len(weights) != len(vec):
        raise ValueError("length mismatch")
    return sum((w * v for w, v in zip(weights, vec)), Fraction(0))


def point_to_tabloid(x: Point, s):
    """Rows of the tabloid: row i collects the 1-based positions holding i."""
    return tuple(
        tuple(j + 1 for j, v in enumerate(x) if v == i) for i in range(s)
    )


def tabloid_to_point(rows, n) -> Point:
    """Inverse of :func:`point_to_tabloid`."""
    out = bytearray(n)
    seen = 0
    for i, row in enumerate(rows):
        for j in row:
            if not 1 <= j <= n:
                raise ValueError(f"position {j} outside 1..{n}")
            out[j - 1] = i
            seen += 1
    if seen != n:
        raise ValueError("rows must partition 1..n")
    return bytes(out)
