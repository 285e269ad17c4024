"""Finite abelian groups, represented as products of cyclic factors.

Group elements are tuples of ints, reduced componentwise modulo the factors.
This covers every finite abelian group up to isomorphism, which is all the
coefficient arithmetic in this package needs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np


@dataclass(frozen=True)
class AbelianGroup:
    """The product group Z_{f_1} x ... x Z_{f_r}."""

    factors: tuple[int, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("need at least one cyclic factor")
        if any(f < 1 for f in self.factors):
            raise ValueError("cyclic factors must be positive")

    @classmethod
    def cyclic(cls, m: int) -> "AbelianGroup":
        return cls((m,))

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    @property
    def exponent(self) -> int:
        return reduce(math.lcm, self.factors, 1)

    @property
    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.factors)

    def reduce_element(self, g) -> tuple[int, ...]:
        if len(g) != len(self.factors):
            raise ValueError(f"element {g!r} has wrong arity for {self}")
        return tuple(int(v) % f for v, f in zip(g, self.factors))

    def add(self, a, b) -> tuple[int, ...]:
        return tuple((x + y) % f for x, y, f in zip(a, b, self.factors))

    def neg(self, a) -> tuple[int, ...]:
        return tuple((-x) % f for x, f in zip(a, self.factors))

    def sub(self, a, b) -> tuple[int, ...]:
        return self.add(a, self.neg(b))

    def scale(self, a, c: int) -> tuple[int, ...]:
        return tuple((x * c) % f for x, f in zip(a, self.factors))

    def element_order(self, a) -> int:
        return reduce(
            math.lcm, (f // math.gcd(x, f) for x, f in zip(a, self.factors)), 1
        )

    def elements(self):
        """All elements in mixed-radix order (zero first)."""
        return itertools.product(*(range(f) for f in self.factors))

    def index(self, a) -> int:
        """Rank of an element in the mixed-radix order of :meth:`elements`."""
        out = 0
        for x, f in zip(a, self.factors):
            out = out * f + x
        return out

    def from_index(self, i: int) -> tuple[int, ...]:
        digits = []
        for f in reversed(self.factors):
            digits.append(i % f)
            i //= f
        return tuple(reversed(digits))

    def index_many(self, values) -> np.ndarray:
        """:meth:`index` of each row of a (B, r) array of reduced elements."""
        out = np.zeros(len(values), dtype=np.int64)
        for column, f in zip(np.asarray(values, dtype=np.int64).T, self.factors):
            out = out * f + column
        return out

    def from_index_many(self, indices) -> np.ndarray:
        """The elements at the given indices as a (B, r) array; the inverse of
        :meth:`index_many`."""
        rest = np.asarray(indices, dtype=np.int64)
        columns = []
        for f in reversed(self.factors):
            columns.append(rest % f)
            rest = rest // f
        return np.stack(columns[::-1], axis=1)

    def linear_combination(self, coeffs, indices) -> tuple[int, ...]:
        """sum_i coeffs[i] * g_i for the elements g_i at ``indices``: the batch
        form of :meth:`scale` and :meth:`add`.  Each coefficient is reduced
        modulo the factor first (Python integers of any size included), so no
        product or sum can overflow int64."""
        digits = self.from_index_many(indices)
        coeffs = np.asarray(coeffs)
        return tuple(
            int(((coeffs % f).astype(np.int64) * digits[:, t]).sum() % f)
            for t, f in enumerate(self.factors)
        )

    def random_element(self, rng) -> tuple[int, ...]:
        return tuple(int(rng.integers(f)) for f in self.factors)

    def random_nonzero(self, rng) -> tuple[int, ...]:
        if self.order < 2:
            raise ValueError("trivial group has no nonzero element")
        i = 1 + int(rng.integers(self.order - 1))
        return self.from_index(i)
