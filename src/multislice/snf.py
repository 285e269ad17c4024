"""The library's one exact linear-algebra module: the integer Smith normal
form, integer solving, and row echelon form over Q and over F_p.

An integer matrix A has a decomposition U A V = D with U, V unimodular and D
diagonal, each diagonal entry dividing the next.  Keeping U and V around (which
sympy's ``smith_normal_form`` does not) lets us *solve* A x = y over the
integers: the system is solvable iff the transformed right-hand side is
divisible by the invariant factors, and a witness solution falls out of the
transforms.  That witness is what turns "this point set hits every junta
polynomial over every abelian group" from an existence claim into a checkable
certificate.

Ranks, row spaces and determinants over a field come from one incremental
elimination, :class:`RowEchelon`; no other module eliminates.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

IntMatrix = list[list[int]]


def _identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _swap_rows(m: IntMatrix, i: int, j: int) -> None:
    m[i], m[j] = m[j], m[i]


def _swap_cols(m: IntMatrix, i: int, j: int) -> None:
    for row in m:
        row[i], row[j] = row[j], row[i]


def _add_row(m: IntMatrix, dst: int, src: int, c: int) -> None:
    m[dst] = [a + c * b for a, b in zip(m[dst], m[src])]


def _add_col(m: IntMatrix, dst: int, src: int, c: int) -> None:
    for row in m:
        row[dst] += c * row[src]


def _scale_row(m: IntMatrix, i: int, c: int) -> None:
    m[i] = [c * v for v in m[i]]


def smith_decomposition(
    matrix: Sequence[Sequence[int]],
) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V) with U @ matrix @ V == D in Smith normal form.

    D is diagonal with nonnegative entries d_1 | d_2 | ... ; U and V are
    unimodular.  Uses the minimal-entry pivoting strategy, which keeps the
    intermediate integers small at the scales this package works at.
    """
    a: IntMatrix = [[int(v) for v in row] for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = _identity(rows)
    v = _identity(cols)

    def min_entry(t: int) -> Optional[tuple[int, int]]:
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(rows, cols):
        pos = min_entry(t)
        if pos is None:
            break
        _swap_rows(a, t, pos[0])
        _swap_rows(u, t, pos[0])
        _swap_cols(a, t, pos[1])
        _swap_cols(v, t, pos[1])

        dirty = False
        for i in range(t + 1, rows):
            if a[i][t]:
                q = a[i][t] // a[t][t]
                _add_row(a, i, t, -q)
                _add_row(u, i, t, -q)
                if a[i][t]:
                    dirty = True  # remainder left; re-pivot on a smaller entry
        for j in range(t + 1, cols):
            if a[t][j]:
                q = a[t][j] // a[t][t]
                _add_col(a, j, t, -q)
                _add_col(v, j, t, -q)
                if a[t][j]:
                    dirty = True
        if dirty:
            continue

        # pivot now divides its row and column; make sure it divides the rest
        stuck = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t]:
                    stuck = i
                    break
            if stuck is not None:
                break
        if stuck is not None:
            _add_row(a, t, stuck, 1)
            _add_row(u, t, stuck, 1)
            continue
        t += 1

    for i in range(min(rows, cols)):
        if a[i][i] < 0:
            _scale_row(a, i, -1)
            _scale_row(u, i, -1)
    return u, a, v


def invariant_factors(matrix: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The nonzero diagonal of the Smith form."""
    _, d, _ = smith_decomposition(matrix)
    out = []
    for i in range(min(len(d), len(d[0]) if d else 0)):
        if d[i][i]:
            out.append(d[i][i])
    return tuple(out)


class RowEchelon:
    """Incremental reduced row echelon form over Q (exact ``Fraction``
    arithmetic) or, given a prime ``p``, over F_p.

    Stored rows have a 1 in their own pivot column and 0 in every other row's
    pivot column.  The product of the pivots (over F_p, of their
    representatives in [1, p)) and the parity of the pivot order are kept, so
    a square matrix fed row by row yields its determinant from the same pass.
    """

    def __init__(self, p: Optional[int] = None):
        self.p = p
        self.rows: list[list] = []
        self.pivots: list[int] = []
        self.pivot_product = Fraction(1)
        self.odd = False  # parity of the inversions in ``pivots``

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _sub(self, x: list, f, y: list) -> list:
        """x - f*y, skipping the zeros of y: the rows here are sparse."""
        p = self.p
        if p:
            return [(a - f * b) % p if b else a for a, b in zip(x, y)]
        return [a - f * b if b else a for a, b in zip(x, y)]

    def add(self, row: Sequence) -> bool:
        """Reduce ``row`` by the stored rows and store it; True iff it is
        independent of them."""
        p = self.p
        r = [v % p for v in row] if p else list(row)
        for b, c in zip(self.rows, self.pivots):
            if r[c]:
                r = self._sub(r, r[c], b)
        col = next((j for j, v in enumerate(r) if v), None)
        if col is None:
            return False
        v = r[col]
        if v != 1:
            inv = pow(v, -1, p) if p else 1 / Fraction(v)
            r = [a * inv % p for a in r] if p else [a * inv if a else a for a in r]
        for i, b in enumerate(self.rows):
            if b[col]:
                self.rows[i] = self._sub(b, b[col], r)
        self.odd ^= sum(c > col for c in self.pivots) % 2 == 1
        self.pivot_product *= v
        self.rows.append(r)
        self.pivots.append(col)
        return True


def determinant(matrix: Sequence[Sequence]) -> Fraction:
    """Exact determinant of a square matrix over Q."""
    if any(len(row) != len(matrix) for row in matrix):
        raise ValueError("determinant needs a square matrix")
    echelon = RowEchelon()
    if not all(echelon.add(row) for row in matrix):
        return Fraction(0)
    return -echelon.pivot_product if echelon.odd else echelon.pivot_product


def solve_integer(
    matrix: Sequence[Sequence[int]], rhs: Sequence[int]
) -> Optional[list[int]]:
    """An integer solution x of matrix @ x == rhs, or None if none exists.

    Free coordinates are set to zero, so the witness is deterministic.
    """
    return solve_smith(smith_decomposition(matrix), rhs)


def solve_smith(
    decomposition: tuple[IntMatrix, IntMatrix, IntMatrix], rhs: Sequence[int]
) -> Optional[list[int]]:
    """:func:`solve_integer` from the matrix's :func:`smith_decomposition`,
    for callers that also read the invariant factors."""
    u, d, v = decomposition
    rows, cols = len(u), len(v)
    if len(rhs) != rows:
        raise ValueError("rhs length does not match the matrix")
    ty = [sum(u[i][j] * rhs[j] for j in range(rows)) for i in range(rows)]
    t = [0] * cols
    for i in range(min(rows, cols)):
        if d[i][i]:
            if ty[i] % d[i][i]:
                return None
            t[i] = ty[i] // d[i][i]
        elif ty[i]:
            return None
    if any(ty[cols:]):
        return None
    return [sum(v[i][j] * t[j] for j in range(cols)) for i in range(cols)]


def unimodular_certificate(matrix: Sequence[Sequence[int]]) -> bool:
    """True when the matrix has full column rank and every invariant factor is
    a unit.  Equivalent to: for every abelian group G and every nonzero vector
    g over G, matrix @ g is nonzero."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if cols > rows:
        return False
    facts = invariant_factors(matrix)
    return len(facts) == cols and all(f == 1 for f in facts)
