"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup``, then runs whole
rounds of a fixed list of library calls.  Every call goes through ``Ops``,
which times it, counts it as attempted and counts it as failed when it
raises.  ``check`` runs after the timed loop and compares what the calls
returned with the independent checks in :mod:`checks`.

Library functions are looked up on their modules at call time
(``correction.torsion_correct``), so that the traced run sees the wrapped
versions.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from fractions import Fraction

import numpy as np

from multislice import correction, fields, juntas, listcorr, slices, tableaux, walks
from multislice.groups import AbelianGroup
from multislice.seeding import derive_rng

import checks

Z2 = AbelianGroup((2,))
Z3 = AbelianGroup((3,))
Z22 = AbelianGroup((2, 2))

FAILED = object()


class ReferenceKernel:
    """Fixed work that shares no code with the library, in the kinds the
    library's hot paths do: dictionary and tuple traffic, Fraction sums,
    blake2b hashing of short byte strings, building and sorting a list of
    tuples, numpy arithmetic and random reads from a 128 KB array (small, so
    that it neither shows in the peak resident set nor evicts the library's
    data from the caches); about 1.7 ms.

    The machine's slow spells slow the interpreter-bound parts most (about
    1.8 times) and the list and numpy parts least (about 1.5 times); the
    library's calls range over 1.4 to 1.85 times.  The mix is weighted so
    that the whole kernel slows by about 1.7 times, inside that range.
    """

    def __init__(self):
        self.pool = np.arange(1 << 14, dtype=np.int64)
        self.picks = np.random.default_rng(0).integers(0, len(self.pool), size=8192)

    def __call__(self) -> int:
        table: dict = {}
        acc = 0
        total = Fraction(0)
        for i in range(800):
            key = (i % 13, i % 7)
            table[key] = (table.get(key, 0) + i * i) % 1009
            acc += sum(v for v in key if v)
            if i % 8 == 0:
                total += Fraction(i % 11, 1 + i % 9)
        for i in range(64):
            acc += hashlib.blake2b(i.to_bytes(32, "little"), digest_size=16).digest()[0]
        rows = sorted(((i * 7919) % 1021, i) for i in range(2000))
        acc += rows[0][1] + int(self.pool[self.picks].sum() & 1023)
        for _ in range(12):
            arr = np.arange(4096, dtype=np.int64)
            acc += int(((arr * 7919) % 1021).sum())
        return acc + len(table) + total.numerator


# The reference kernel's median time in the fast spells of the 2-vCPU machine
# the README's figures come from; ``setup_s`` is given in seconds at this
# kernel speed.
REFERENCE_NOMINAL_S = 1.65e-3


class Ops:
    """Times library calls, one family of calls per end-to-end metric.

    The machine this runs on changes speed by up to a factor of two between
    runs and within one, and the library's calls slow down with it.  So the
    reference kernel is timed too, at every ``mark``: the start and end of
    each round and each boundary between blocks of calls.  A call's time
    divided by the mean of the reference times at the two marks around its
    block is its cost in reference units, which stays put while raw times
    swing.
    """

    REFERENCE_RUNS = 3

    def __init__(self, recorder=None):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        # family -> (round, seconds, units of output, number of marks before it)
        self.samples: dict[str, list[tuple[int, float, int, int]]] = defaultdict(list)
        self.marks: list[tuple[int, float]] = []  # (round, reference seconds)
        self.recorder = recorder
        self._reference = ReferenceKernel()

    def reference_time(self, runs: int = REFERENCE_RUNS) -> float:
        """Median seconds of ``runs`` timed runs of the reference kernel."""
        self._reference()  # untimed: refill the caches the last call evicted
        times = []
        for _ in range(runs):
            started = time.perf_counter()
            self._reference()
            times.append(time.perf_counter() - started)
        return statistics.median(times)

    def mark(self, rnd: int) -> None:
        """Time the reference kernel, between two blocks of library calls."""
        self.marks.append((rnd, self.reference_time()))

    def call(self, family: str, rnd: int, fn, *args, units=None, **kwargs):
        self.attempted += 1
        span = self.recorder.span("op." + family) if self.recorder else nullcontext()
        started = time.perf_counter()
        try:
            with span:
                out = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{family}: {type(exc).__name__}: {exc}")
            return FAILED
        elapsed = time.perf_counter() - started
        self.samples[family].append((rnd, elapsed, units(out) if units else 1, len(self.marks)))
        return out

    def _reference_around(self, after: int) -> float:
        around = [ref for _, ref in self.marks[max(0, after - 1):after + 1]]
        return sum(around) / len(around)

    def metric(self, family: str, kind: str, normalized: bool = True) -> float:
        """``round`` is the median over rounds of the family's per-round
        total, ``unit`` the total over the units of output; in reference
        units, or in milliseconds with ``normalized=False``."""
        rows = self.samples.get(family, [])
        if not rows:
            return float("nan")
        values = [(rnd, dt / self._reference_around(after) if normalized else 1e3 * dt, units)
                  for rnd, dt, units, after in rows]
        if kind == "round":
            per_round: dict[int, float] = defaultdict(float)
            for rnd, v, _ in values:
                per_round[rnd] += v
            return statistics.median(per_round.values())
        return sum(v for _, v, _ in values) / max(1, sum(u for _, _, u in values))

    def detail(self) -> dict:
        """Per-round raw totals (ms) per family and the round's median
        reference (ms), for inspecting how the normalization behaves."""
        references: dict[int, list[float]] = defaultdict(list)
        for rnd, ref in self.marks:
            references[rnd].append(1e3 * ref)
        out: dict = {"reference_ms": {r: statistics.median(v) for r, v in references.items()}}
        for family, rows in self.samples.items():
            totals: dict[int, float] = defaultdict(float)
            for rnd, dt, _, _ in rows:
                totals[rnd] += 1e3 * dt
            out[family] = dict(totals)
        return out

    def tails(self, family: str) -> dict:
        """Sample count, median and the highest of p90/p99 that has at least
        ten samples beyond it, in milliseconds (reference only)."""
        times = sorted(1e3 * row[1] for row in self.samples.get(family, []))
        out = {"n": len(times)}
        if times:
            out["p50_ms"] = statistics.median(times)
        for q in (0.90, 0.99):
            if len(times) * (1 - q) >= 10:
                out[f"p{int(q * 100)}_ms"] = times[min(len(times) - 1, int(q * len(times)))]
        return out


def random_point(rng, s: int, n: int) -> bytes:
    return bytes(int(v) for v in rng.integers(0, s, size=n))


def fixed_weight_polynomial(s: int, n: int, d: int, group: AbelianGroup, rng):
    """A random degree-<=d junta-sum whose number of nonzero coefficients is
    fixed at the mean of a uniform one, so that evaluation cost does not
    swing with the seed."""
    monos = juntas.monomials_up_to(s, n, d)
    weight = round(len(monos) * (1 - 1 / group.order))
    pick = sorted(int(i) for i in rng.choice(len(monos), size=weight, replace=False))
    return juntas.JuntaPolynomial(s, n, group, {monos[i]: group.random_nonzero(rng) for i in pick})


def _points(rows) -> np.ndarray:
    return np.array([list(x) for x in rows], dtype=np.int64)


# ---------------------------------------------------------------------------


class UniqueCorrect:
    """The three unique correctors on the README and criterion-08 shapes."""

    name = "unique-correct"
    metrics = {
        "op1": ("subgrid_s2", "round"),
        "op2": ("subgrid_s3", "round"),
        "op3": ("torsion", "round"),
        "op4": ("gadget", "round"),
    }
    S2_CALLS, S3_CALLS, GADGET_CALLS = 16, 16, 32
    RATE_S2, RATE_S3, RATE_GADGET = 0.1, 0.05, 0.01

    def setup(self, seed: int) -> None:
        self.seed = seed
        rng = derive_rng(seed, self.name, "setup")
        self.truth2 = fixed_weight_polynomial(2, 32, 1, Z2, rng)
        self.noisy2 = correction.NoisyOracle.random_errors(
            self.truth2, self.RATE_S2, seed=int(rng.integers(2**62)))
        self.truth3 = fixed_weight_polynomial(3, 18, 1, Z3, rng)
        self.noisy3 = correction.NoisyOracle.random_errors(
            self.truth3, self.RATE_S3, seed=int(rng.integers(2**62)))
        self.torsion_truths = [fixed_weight_polynomial(2, 20, 1, g, rng) for g in (Z2, Z22)]
        self.scheme = correction.torsion_scheme(2, 1, 2)
        self.gadget = correction.build_gadget(32, 2, 1, Fraction(1, 20))
        self.noisy_gadget = correction.NoisyOracle.random_errors(
            self.truth2, self.RATE_GADGET, seed=int(rng.integers(2**62)))
        # warm the per-process caches: codebooks, grids and the slice matrix
        correction.subgrid_error_reduce(self.noisy2, bytes(32), 8, 1, rng)
        correction.subgrid_error_reduce(self.noisy3, bytes(18), 4, 1, rng)
        self.scheme.slice_matrix()
        correction.base_reduce(self.noisy_gadget, bytes(32), rng, gadget=self.gadget)
        self.results = defaultdict(list)

    def run_round(self, r: int, ops: Ops) -> None:
        rng = derive_rng(self.seed, self.name, r)
        for family, oracle, s, n, k, calls in (
            ("subgrid_s2", self.noisy2, 2, 32, 8, self.S2_CALLS),
            ("subgrid_s3", self.noisy3, 3, 18, 4, self.S3_CALLS),
        ):
            ops.mark(r)
            for _ in range(calls):
                x = random_point(rng, s, n)
                got = ops.call(family, r, correction.subgrid_error_reduce, oracle, x, k, 1, rng)
                self.results[family].append((x, got))
        ops.mark(r)
        for index, truth in enumerate(self.torsion_truths):
            x = random_point(rng, 2, 20)
            oracle = correction.NoisyOracle.exact(truth)
            got = ops.call("torsion", r, correction.torsion_correct, oracle, self.scheme, rng, x=x)
            self.results["torsion"].append((index, x, got, oracle.queries))
        ops.mark(r)
        for _ in range(self.GADGET_CALLS):
            x = random_point(rng, 2, 32)
            got = ops.call("gadget", r, correction.base_reduce, self.noisy_gadget, x, rng,
                           gadget=self.gadget)
            self.results["gadget"].append((x, got))

    def check(self) -> list[str]:
        fails = []
        for family, truth, floor in (
            ("subgrid_s2", self.truth2, 0.75),
            ("subgrid_s3", self.truth3, 0.75),
            ("gadget", self.truth2, None),
        ):
            rows = [(x, got) for x, got in self.results[family] if got is not FAILED]
            want = checks.junta_eval(truth.to_json(), _points(x for x, _ in rows))
            wins = sum(tuple(got) == w for (_, got), w in zip(rows, want))
            if floor is None:  # the gadget reducer's bound, less binomial slack
                p = 1 - 3 * (self.gadget.q * self.RATE_GADGET) ** 2
                floor = checks.binomial_floor(p, len(rows))
            fails += checks.check_success_rate(family, wins, len(rows), floor)
        for index, truth in enumerate(self.torsion_truths):
            rows = [(x, got, q) for i, x, got, q in self.results["torsion"]
                    if i == index and got is not FAILED]
            want = checks.junta_eval(truth.to_json(), _points(x for x, _, _ in rows))
            fails += checks.check_values(f"torsion {truth.group.factors}",
                                         [g for _, g, _ in rows], want)
            if any(q != math.comb(16, 8) for _, _, q in rows):
                fails.append("torsion: query count differs from C(16, 8)")
        return fails


# ---------------------------------------------------------------------------


class ListCorrect:
    """Planted-pair list correction (criterion 09 and the README shape), plus
    the list-decoding layers it is built from, called on their own."""

    name = "list-correct"
    metrics = {
        "op1": ("trial", "unit"),
        "op2": ("approximators", "round"),
        "op3": ("psi", "round"),
        "op4": ("list_decode", "round"),
    }
    N, POINTS, K_APPROX, ELL, K_UNIQUE = 10, 5, 4, 4, 3
    EPS = Fraction(1, 5)
    BUILDS, PSI_CALLS, DECODES = 6, 12, 12
    # Criterion 09's floor is 3/4 of trials, and a run holds only five to
    # eleven.  The exact binomial test at level 1/8 rejects 2 of 5, 3 of 7 and
    # 4 of 8 or fewer; at the rate these trials reach (39 of 40 in
    # a sample) a correct library fails it in well under one run in a
    # hundred.
    RECOVERY_ALPHA = 0.125

    def setup(self, seed: int) -> None:
        self.seed = seed
        n = self.N
        self.cross = juntas.JuntaPolynomial(2, n, Z2, {((0, 1), (1, 1)): (1,)})
        self.shift = juntas.JuntaPolynomial(2, n, Z2, {((0, 1),): (1,)})
        self.radius = Fraction(1, 2) - self.EPS / 2
        # warm the codebooks of every grid size the rounds decode on
        listcorr.brute_force_list([(0,)] * 2**self.K_APPROX, 2, self.K_APPROX, 1, Z2, self.radius)
        listcorr.brute_force_list([(0,)] * 2 ** (2 * self.K_APPROX), 2, 2 * self.K_APPROX, 1, Z2,
                                  self.radius)
        correction.brute_force_unique_decode([(0,)] * 2**self.K_UNIQUE, 2, self.K_UNIQUE, 1, Z2,
                                             Fraction(1, 4))
        self.trials = []
        self.builds = []
        self.psi = []
        self.decodes = []

    def run_round(self, r: int, ops: Ops) -> None:
        # The trial of round r is the same for every seed: its cost per value
        # moves by about 15 % with the list lengths it meets, and a run
        # holds only five to eleven trials.  The seed drives the other calls.
        trial_rng = derive_rng(0, self.name, "trial", r)
        rng = derive_rng(self.seed, self.name, r)
        n = self.N
        base = fixed_weight_polynomial(2, n, 1, Z2, trial_rng)
        f = base + self.cross
        oracle = correction.NoisyOracle.exact(f)
        xs = [random_point(trial_rng, 2, n) for _ in range(self.POINTS)]
        ops.mark(r)
        out = ops.call("trial", r, listcorr.local_list_correct, oracle, 1, self.EPS, xs, trial_rng,
                       k_approx=self.K_APPROX, ell=self.ELL, k_unique=self.K_UNIQUE,
                       units=lambda res: len(res) * len(xs))
        if out is not FAILED:
            self.trials.append((base, xs, [values for _, values in out], oracle.queries))
        descriptors = []
        ops.mark(r)
        for _ in range(self.BUILDS):
            fresh = correction.NoisyOracle.exact(f)
            got = ops.call("approximators", r, listcorr.build_approximators, fresh, 1, self.EPS,
                           self.K_APPROX, self.ELL, rng)
            if got is not FAILED:
                descriptors += got
                self.builds.append(fresh.queries)
        ops.mark(r)
        for j in range(self.PSI_CALLS):
            fresh = correction.NoisyOracle.exact(f)
            b = random_point(rng, 2, n)
            desc = descriptors[j % len(descriptors)] if descriptors else None
            got = ops.call("psi", r, listcorr.approximator_eval, desc, fresh, b, 1)
            self.psi.append((got, fresh.queries))
        ops.mark(r)
        for _ in range(self.DECODES):
            q = fixed_weight_polynomial(2, 2 * self.K_APPROX, 1, Z2, rng)
            grid = np.array(list(np.ndindex(*(2,) * (2 * self.K_APPROX))), dtype=np.int64)
            table = np.array([v[0] for v in checks.junta_eval(q.to_json(), grid)])
            flips = rng.choice(len(table), size=len(table) // 10, replace=False)
            table[flips] ^= 1
            got = ops.call("list_decode", r, listcorr.brute_force_list,
                           [(int(v),) for v in table], 2, 2 * self.K_APPROX, 1, Z2, self.radius)
            if got is not FAILED:
                self.decodes.append((q, table, got, grid))

    def check(self) -> list[str]:
        fails = []
        wins = 0
        for base, xs, outputs, queries in self.trials:
            pts = _points(xs)
            planted = [checks.junta_eval(p.to_json(), pts) for p in (base, base + self.shift)]
            found = [any(all(tuple(values[x]) == w for x, w in zip(xs, want)) for values in outputs)
                     for want in planted]
            wins += all(found)
            a = len(outputs)
            cap = self.ELL * 2**self.K_APPROX + a * self.POINTS * 2**self.K_UNIQUE * 2 ** (
                2 * self.K_APPROX)
            if queries > cap:
                fails.append(f"list trial: {queries} queries exceed the bound {cap}")
        self.summary = {"list_trials": len(self.trials), "list_trials_recovering_both": wins}
        fails += checks.check_rate_test("list trials recovering both planted codewords", wins,
                                        len(self.trials), 0.75, self.RECOVERY_ALPHA)
        if any(q != self.ELL * 2**self.K_APPROX for q in self.builds):
            fails.append("build_approximators: query count differs from ell * s^k")
        for got, queries in self.psi:
            if got is FAILED:
                continue
            if queries != 2 ** (2 * self.K_APPROX) or len(got) != 1 or got[0] not in (0, 1):
                fails.append(f"approximator_eval: {queries} queries, value {got!r}")
                break
        codebook = checks.degree1_codebook(2, 2 * self.K_APPROX, 2)
        allowed = math.floor(self.radius * 2 ** (2 * self.K_APPROX))
        for q, table, listed, grid in self.decodes:
            tables = np.array([[v[0] for v in checks.junta_eval(p.to_json(), grid)] for p in listed])
            fails += checks.check_list("brute_force_list", table, tables, codebook, allowed)
            want = [v[0] for v in checks.junta_eval(q.to_json(), grid)]
            if not any(list(t) == want for t in tables):
                fails.append("brute_force_list: the planted codeword is missing")
        return fails


# ---------------------------------------------------------------------------


class WalkSpectra:
    """A fixed set of walks, each built, checked and decomposed.

    The walks are mid-sized (252 to 924 points): at the issue's larger
    shapes (the [[3,3],[3,3]] walk at n=12 and ``walk_odlsz(3, 9)``) one call
    takes 2 to 5 s and identical calls differ by up to a factor of three, as
    the garbage collector walks half a million live Fractions, so a run held
    only two noisy rounds.
    """

    name = "walk-spectra"
    metrics = {
        "op1": ("build", "round"),
        "op2": ("exact_checks", "round"),
        "op3": ("sampled_checks", "round"),
        "op4": ("spectrum", "round"),
    }
    SYMMETRY_TRIALS = 2000

    def setup(self, seed: int) -> None:
        self.seed = seed
        # label, constructor, arguments, ||W||_F^2 = N / degree for distance walks
        self.walks = [
            ("distance n=12 [[5,1],[1,5]]", walks.walk_from_distance,
             (slices.SliceSpec.balanced(2, 12), [[5, 1], [1, 5]]), Fraction(math.comb(12, 6), 6 * 6)),
            ("distance n=10 [[3,2],[2,3]]", walks.walk_from_distance,
             (slices.SliceSpec.balanced(2, 10), [[3, 2], [2, 3]]), Fraction(math.comb(10, 5), 10 * 10)),
            ("odlsz(3,6)", walks.walk_odlsz, (3, 6), None),
            ("subgrid_identification(2,2)", walks.walk_subgrid_identification, (2, 2), None),
        ]
        for s, n in ((2, 12), (2, 10), (3, 6), (2, 8), (2, 4)):
            spec = slices.SliceSpec.balanced(s, n)
            slices.enumerate_slice(spec)
            slices.rank_index(spec)
        self.results = []
        self.dense_failures: dict[str, list[str]] = {}
        self.odlsz_row = None

    def run_round(self, r: int, ops: Ops) -> None:
        for i, (label, ctor, args, frobenius_sq) in enumerate(self.walks):
            ops.mark(r)
            walk = ops.call("build", r, ctor, *args)
            if walk is FAILED:
                continue
            ds = ops.call("exact_checks", r, walk.is_doubly_stochastic)
            sym = ops.call("exact_checks", r, walk.is_symmetric)
            rs = ops.call("sampled_checks", r, walks.respects_symmetries, walk, exhaustive=False,
                          rng=derive_rng(self.seed, self.name, r, i), trials=self.SYMMETRY_TRIALS)
            ind = ops.call("sampled_checks", r, walks.independence_report, walk, 2, rows="canonical")
            rep = ops.call("spectrum", r, walks.spectral_report, walk)
            self.results.append((label, walk.size, ds, sym, rs, ind, rep))
            if label not in self.dense_failures and rep is not FAILED:
                # checked at once so that no dense matrix outlives its walk
                dense = walk.dense()
                self.dense_failures[label] = checks.check_stochastic(label, dense) + \
                    checks.check_trace_frobenius(label, dense, rep.eigenvalues, frobenius_sq)
                if label == "odlsz(3,6)":
                    self.odlsz_row = dense[0].copy()
                del dense
            del walk

    def check(self) -> list[str]:
        fails = []
        n12 = math.comb(12, 6)
        expected = {
            "distance n=12 [[5,1],[1,5]]": dict(
                size=math.comb(12, 6), spectrum=checks.eberlein_spectrum(12, 6, 1), s=2, m=6,
                terms=[(Fraction(1), ((5, 1), (1, 5)))]),
            "distance n=10 [[3,2],[2,3]]": dict(
                size=math.comb(10, 5), spectrum=checks.eberlein_spectrum(10, 5, 2), s=2, m=5,
                terms=[(Fraction(1), ((3, 2), (2, 3)))]),
            "odlsz(3,6)": dict(size=checks.multinomial([2, 2, 2]), spectrum=None, s=3, m=2,
                               terms=checks.odlsz_mixture(3, 6)),
            "subgrid_identification(2,2)": dict(
                size=math.comb(8, 4),
                spectrum=checks.mixed_spectrum(
                    8, 4, [(w, prof[0][1]) for w, prof in checks.identification_mixture(2)]),
                s=2, m=4, terms=checks.identification_mixture(2)),
        }
        for label, size, ds, sym, rs, ind, rep in self.results:
            want = expected[label]
            if size != want["size"]:
                fails.append(f"{label}: {size} points, expected {want['size']}")
            if ds is not True or sym is not True:
                fails.append(f"{label}: not exactly doubly stochastic and symmetric")
            if rs is FAILED or not rs.ok or rs.checked != self.SYMMETRY_TRIALS:
                fails.append(f"{label}: sampled symmetry check failed")
            eps = checks.mixture_epsilon(want["terms"], want["s"], want["m"])
            if ind is FAILED or ind.epsilon != eps:
                fails.append(f"{label}: epsilon {getattr(ind, 'epsilon', None)} vs closed form {eps}")
            if rep is FAILED or rep.eigenvalues is None:
                fails.append(f"{label}: no eigenvalues")
            elif want["spectrum"] is not None:
                fails += checks.check_spectrum(label, rep.eigenvalues, want["spectrum"])
        if len(self.dense_failures) != len(self.walks) or self.odlsz_row is None:
            fails.append("walks: a dense matrix was never checked")
        for found in self.dense_failures.values():
            fails += found
        if self.odlsz_row is not None:
            points = checks.balanced_points(3, 6)
            fails += checks.check_row("odlsz(3,6) row 0", self.odlsz_row,
                                      checks.odlsz_row(points[0], 3), points)
        return fails


# ---------------------------------------------------------------------------


class ExactAlgebra:
    """Hitting and interpolating sets, the chi-vector battery and the
    exhaustive distance scans: the snf, tableaux and fields layers."""

    name = "exact-algebra"
    metrics = {
        "op1": ("interpolating_sets", "round"),
        "op2": ("hitting_set", "round"),
        "op3": ("tableaux", "round"),
        "op4": ("distance_scans", "round"),
    }
    ISET_R, ISET_SEEDS = (6, 8), 6
    # (r, d, weights): (8, 2, (2, 6)) costs 2 s to 16 s depending on the stream
    HITTING = (6, 2, (1, 5))
    HITTING_STREAMS = 3  # its cost varies with the stream, so each round averages three
    CHI_S, CHI_N = 3, 9
    YOUNG = ((2, 8), (3, 9), (4, 8), (5, 5), (6, 6), (7, 7))

    def setup(self, seed: int) -> None:
        self.seed = seed
        spec = slices.SliceSpec.balanced(self.CHI_S, self.CHI_N)
        slices.enumerate_slice(spec)
        # criterion 05's shapes: second row at most 2, the trivial shape left out
        self.shapes = [lam for lam in tableaux.partitions_dominating(spec.counts)
                       if lam != (self.CHI_N,) and (len(lam) < 2 or lam[1] <= 2)]
        for lam in self.shapes:  # the column groups are cached per shape
            tableaux.column_group_action(lam)
        self.isets = []
        self.hitting = []
        self.chi = []
        self.young = []
        self.scans = []

    def run_round(self, r: int, ops: Ops) -> None:
        ops.mark(r)
        for rr in self.ISET_R:
            for i in range(self.ISET_SEEDS):
                got = ops.call("interpolating_sets", r, correction.build_interpolating_set, 2, 1, rr,
                               2, rng=derive_rng(self.seed, self.name, r, rr, i))
                if got is not FAILED:
                    self.isets.append(got)
        ops.mark(r)
        for i in range(self.HITTING_STREAMS):
            got = ops.call("hitting_set", r, correction.hitting_set, *self.HITTING,
                           rng=derive_rng(self.seed, self.name, r, "hitting-set", i))
            if got is not FAILED:
                self.hitting.append(got)
        ops.mark(r)
        for s, n in self.YOUNG:
            got = ops.call("tableaux", r, tableaux.young_rule_sides, s, n)
            self.young.append((s, n, got))
        counts = slices.SliceSpec.balanced(self.CHI_S, self.CHI_N).counts
        for lam in self.shapes:
            tabs = ops.call("tableaux", r, tableaux.enumerate_ssyt, lam, counts)
            if tabs is FAILED:
                continue
            vectors = [ops.call("tableaux", r, tableaux.chi_vector, lam, tab, self.CHI_S)
                       for tab in tabs]
            vectors = [v for v in vectors if v is not FAILED]
            det = ops.call("tableaux", r, tableaux.gram_det, vectors)
            if r == 0:
                self.chi.append((lam, vectors, det))
        ops.mark(r)
        self.scans.append((
            ops.call("distance_scans", r, juntas.grid_min_nonzero, 2, 4, 2, Z2),
            ops.call("distance_scans", r, juntas.grid_min_nonzero, 3, 3, 1, Z3),
            ops.call("distance_scans", r, juntas.min_slice_nonzero_prime, 3, 6, 1, 3),
            ops.call("distance_scans", r, fields.grid_minimum_matches_formula, 3, 2, 2),
        ))

    def check(self) -> list[str]:
        fails = []
        for iset in self.isets:
            label = f"interpolating set r={iset.r}"
            fails += checks.check_interpolation(label, iset.points, iset.coeffs, iset.d)
            fails += checks.check_full_rank(label, iset.points, iset.d)
            fails += checks.check_weight_balance(label, iset.points, iset.s, iset.d, iset.r, iset.m)
        r, d, (lo, hi) = self.HITTING
        for points in self.hitting:
            fails += checks.check_weights("hitting set", points, lo, hi)
            fails += checks.check_full_rank("hitting set", points, d)
        for s, n, got in self.young:
            size = checks.multinomial([n // s] * s)
            if got is FAILED or tuple(got) != (size, size):
                fails.append(f"young_rule_sides({s}, {n}) = {got}, slice size {size}")
        for lam, vectors, det in self.chi:
            if any(sum(v) != 0 for v in vectors):
                fails.append(f"chi {lam}: a vector does not sum to zero")
            if det is FAILED:
                fails.append(f"chi {lam}: no Gram determinant")
            else:
                fails += checks.check_gram(f"chi {lam}", vectors, det)
        for g24, g33, slice_min, field_min in self.scans:
            for got, s, n, d, order in ((g24, 2, 4, 2, 2), (g33, 3, 3, 1, 3)):
                polys = order ** checks.junta_monomial_count(s, n, d) - 1
                if got is FAILED or Fraction(got[0], s**n) != Fraction(1, s**d) or got[1] != polys:
                    fails.append(f"grid_min_nonzero({s},{n},{d}) = {got}")
            if slice_min is FAILED or slice_min[0] < checks.slice_bound((2, 2, 2), 1):
                fails.append(f"min_slice_nonzero_prime(3,6,1,3) = {slice_min}")
            if field_min is FAILED or tuple(field_min) != (checks.odlsz_delta(3, 2),) * 2:
                fails.append(f"grid_minimum_matches_formula(3,2,2) = {field_min}")
        return fails


WORKLOADS = {w.name: w for w in (UniqueCorrect, ListCorrect, WalkSpectra, ExactAlgebra)}


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)
