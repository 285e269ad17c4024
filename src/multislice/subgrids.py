"""Random subgrid embeddings of a small grid into [s]^n.

A subgrid is the image of [s]^k under the map x(y)_i = Pi_i(y_{h(i)}), where
h : [n] -> [k] hashes coordinates into k cells and each Pi_i permutes the
alphabet.  Three constructions live here:

* ``SubgridMap`` — the embedding itself, with fast full-table evaluation;
* ``IdentificationMap`` — an s-to-1 collapse [sk] -> [k], the shape of the
  conditional law of a k-dimensional subgrid inside an sk-dimensional one;
* ``SpannedSubgrid`` — the sk-dimensional subgrid spanned by a subgrid and an
  extra point b, with an explicit balanced witness word mapping to b.

On the span construction: splitting cell h(i) by the raw letter b_i makes the
witness word ill-defined whenever two coordinates share a cell and a letter but
carry different alphabet permutations.  Splitting by the *preimage* letter
Pi_i^{-1}(b_i) fixes this — the witness is then forced, balanced, and maps to b
exactly — so that is the form used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .juntas import _grid_matrix


def _inverse_permutation(perm: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, v in enumerate(perm):
        inv[v] = i
    return tuple(inv)


@dataclass(frozen=True)
class SubgridMap:
    """Embedding of [s]^k into [s]^n via x(y)_i = perms[i][y[h[i]]]."""

    s: int
    n: int
    k: int
    h: tuple[int, ...]
    perms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.h) != self.n or len(self.perms) != self.n:
            raise ValueError("need one cell and one permutation per coordinate")
        if any(not 0 <= c < self.k for c in self.h):
            raise ValueError("cell indices must lie in [k]")
        for p in self.perms:
            if sorted(p) != list(range(self.s)):
                raise ValueError(f"{p!r} is not a permutation of the alphabet")

    def embed(self, y) -> bytes:
        if len(y) != self.k:
            raise ValueError("point to embed must have k coordinates")
        return bytes(self.perms[i][y[self.h[i]]] for i in range(self.n))

    @property
    def anchor(self) -> bytes:
        """The image of 0^k."""
        return bytes(p[0] for p in self.perms)

    def embed_all(self) -> np.ndarray:
        """All s^k embedded points as an (s^k, n) uint8 matrix, grid order."""
        y = _grid_matrix(self.s, self.k)
        pmat = np.array(self.perms, dtype=np.uint8)
        return pmat[np.arange(self.n)[None, :], y[:, list(self.h)]]

    def table(self, fn) -> list:
        """fn evaluated over the embedded grid, in grid_points order."""
        return [fn(bytes(row)) for row in self.embed_all()]


def random_subgrid(s: int, n: int, k: int, rng, anchor=None) -> SubgridMap:
    """Uniform (h, Pi); with ``anchor`` given, Pi_i is uniform among the
    permutations sending 0 to anchor[i], so the subgrid passes through it."""
    h = tuple(int(c) for c in rng.integers(0, k, size=n))
    perms = []
    for i in range(n):
        if anchor is None:
            perms.append(tuple(int(v) for v in rng.permutation(s)))
        else:
            rest = [v for v in range(s) if v != anchor[i]]
            order = rng.permutation(len(rest))
            perms.append((int(anchor[i]),) + tuple(rest[int(j)] for j in order))
    return SubgridMap(s, n, k, h, tuple(perms))


@dataclass(frozen=True)
class IdentificationMap:
    """s-to-1 collapse tau : [sk] -> [k]; lifts y in [s]^k to x with
    x_t = y[tau[t]]."""

    s: int
    k: int
    tau: tuple[int, ...]

    def __post_init__(self):
        if len(self.tau) != self.s * self.k:
            raise ValueError("tau must have s*k entries")
        counts = [0] * self.k
        for c in self.tau:
            if not 0 <= c < self.k:
                raise ValueError("tau values must lie in [k]")
            counts[c] += 1
        if any(c != self.s for c in counts):
            raise ValueError("every fiber of tau must have size exactly s")

    def lift(self, y) -> bytes:
        if len(y) != self.k:
            raise ValueError("point to lift must have k coordinates")
        return bytes(y[c] for c in self.tau)


def random_identification(s: int, k: int, rng) -> IdentificationMap:
    tau = np.repeat(np.arange(k), s)
    rng.shuffle(tau)
    return IdentificationMap(s, k, tuple(int(c) for c in tau))


@dataclass(frozen=True)
class SpannedSubgrid:
    """The sk-dimensional subgrid spanned by ``base`` and a point b.

    Cell h(i) splits into s cells indexed by the preimage letter
    u_i = Pi_i^{-1}(b_i), shuffled by sigma: h'(i) = sigma[h(i) + k*u_i].
    The witness word w with w[sigma[j + k*u]] = u is balanced and embeds to
    b; collapsing the blocks back (tau[t] = sigma^{-1}[t] mod k) recovers the
    base subgrid, so the base is contained in the span.
    """

    base: SubgridMap
    b: bytes
    sigma: tuple[int, ...]

    def __post_init__(self):
        sk = self.base.s * self.base.k
        if sorted(self.sigma) != list(range(sk)):
            raise ValueError("sigma must be a permutation of [sk]")
        if len(self.b) != self.base.n:
            raise ValueError("b must be a point of the ambient grid")

    @cached_property
    def h_prime(self) -> tuple[int, ...]:
        base = self.base
        out = []
        for i in range(base.n):
            u = _inverse_permutation(base.perms[i])[self.b[i]]
            out.append(self.sigma[base.h[i] + base.k * u])
        return tuple(out)

    @cached_property
    def as_subgrid(self) -> SubgridMap:
        base = self.base
        return SubgridMap(
            base.s, base.n, base.s * base.k, self.h_prime, base.perms
        )

    @cached_property
    def witness(self) -> bytes:
        """The balanced word in [s]^{sk} embedding to b."""
        base = self.base
        w = bytearray(base.s * base.k)
        for t, dest in enumerate(self.sigma):
            w[dest] = t // base.k
        return bytes(w)

    @cached_property
    def induced_tau(self) -> IdentificationMap:
        """Collapse of the span back onto the base subgrid."""
        base = self.base
        inv = _inverse_permutation(self.sigma)
        tau = tuple(inv[t] % base.k for t in range(base.s * base.k))
        return IdentificationMap(base.s, base.k, tau)


def span_subgrid(base: SubgridMap, b: bytes, rng) -> SpannedSubgrid:
    sigma = tuple(int(v) for v in rng.permutation(base.s * base.k))
    return SpannedSubgrid(base, bytes(b), sigma)


def sampling_deviation(sub: SubgridMap, membership: np.ndarray) -> float:
    """| Pr_y[embed(y) in T] - |T|/s^n | for T given as a dense boolean lookup
    indexed by base-s integer encoding of the ambient points."""
    if len(membership) != sub.s**sub.n:
        raise ValueError("membership table must cover the ambient grid")
    pts = sub.embed_all().astype(np.int64)
    weights = sub.s ** np.arange(sub.n - 1, -1, -1, dtype=np.int64)
    idx = pts @ weights
    inside = float(np.asarray(membership, dtype=bool)[idx].mean())
    return abs(inside - float(np.asarray(membership, dtype=bool).mean()))
