"""Command-line experiment harness.

Every scenario the library supports is runnable from one entry point:
spectral sweeps over distance walks, exhaustive distance minima, the
special-vector battery, Monte Carlo runs of the correction algorithms,
list-recovery of planted codewords, subgrid sampling deviation, the
interpolating-set construction, and the counting identity behind the
representation decomposition.

Conventions shared by every subcommand:

* parameters come from flags and an optional ``key = value`` config file;
  the file's values become the subcommand's argparse defaults, so they pass
  through the same type converters as flags and a flag always wins,
* a master ``--seed`` splits into independent per-trial streams keyed by
  (seed, scenario label, trial index), so re-running any configuration
  reproduces its metrics exactly,
* every run emits a self-describing artifact -- CSV for sweep tables, JSON
  for nested reports -- carrying a schema version (JSON artifacts also echo
  every resolved parameter), written to ``--out`` or stdout,
* validation happens before any computation; bad parameters exit with
  code 2 and budget overruns with code 3.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

from .budget import CapacityError, check_capacity
from .correction import (
    ConstructionFailure,
    NoisyOracle,
    SearchFailure,
    base_reduce,
    build_gadget,
    build_interpolating_set,
    recursive_reduce,
    subgrid_error_reduce,
    torsion_correct,
    torsion_scheme,
)
from .fields import grid_minimum_matches_formula, is_prime
from .groups import AbelianGroup
from .juntas import (
    JuntaPolynomial,
    grid_min_nonzero,
    min_slice_nonzero_prime,
    random_polynomial,
    slice_nonzero_lower_bound,
)
from .listcorr import local_list_correct
from .seeding import derive_rng
from .slices import SliceSpec, slice_size
from .subgrids import random_subgrid, sampling_deviation
from .tableaux import (
    chi_support,
    chi_vector,
    column_group_order,
    count_syt,
    count_syt_backtrack,
    enumerate_ssyt,
    gram_det,
    mean_under,
    partitions,
    partitions_dominating,
    young_rule_sides,
)
from .walks import (
    independence_report,
    spectral_report,
    walk_from_distance,
    walk_odlsz,
    walk_subgrid_identification,
)

SCHEMA_VERSION = 1


class ValidationError(ValueError, argparse.ArgumentTypeError):
    """Unusable parameters; reported on stderr and mapped to exit code 2.

    Raised by a flag's type converter, argparse reports it as a usage error
    naming that flag.
    """


# --------------------------------------------------------------------------
# configuration plumbing


def load_config_file(path) -> dict[str, str]:
    """Parse a plain ``key = value`` file; ``#`` starts a comment."""
    out: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def at_least(minimum):
    """An integer converter rejecting values below ``minimum``."""

    def bounded(text) -> int:
        try:
            value = int(text, 0)
        except ValueError:
            raise ValidationError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise ValidationError(f"must be at least {minimum}, got {value}")
        return value

    return bounded


integer = at_least(-math.inf)


def integer_list(text) -> list[int]:
    """Comma-separated integers such as ``4,8,12``."""
    values = [integer(part) for part in text.split(",") if part.strip()]
    if not values:
        raise ValidationError(f"expected comma-separated integers, got {text!r}")
    return values


def rational(text) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"expected a rational number, got {text!r}") from None


def _require(args: argparse.Namespace, *names: str) -> None:
    """Parameters without a default must come from a flag or the config file."""
    for name in names:
        if getattr(args, name) is None:
            raise ValidationError(f"missing required parameter --{name.replace('_', '-')}")


def parse_group(text) -> AbelianGroup:
    """``Z6``, ``6`` and ``Z2x3`` all denote cyclic/product groups."""
    raw = str(text).strip()
    body = raw[1:] if raw[:1] in ("Z", "z") else raw
    try:
        factors = tuple(int(p) for p in body.replace("*", "x").split("x"))
    except ValueError as exc:
        raise ValidationError(f"cannot parse group {raw!r}") from exc
    if not factors or any(f < 2 for f in factors):
        raise ValidationError(f"group factors must all be at least 2, got {raw!r}")
    return AbelianGroup(factors)


def group_label(group: AbelianGroup) -> str:
    return "Z" + "x".join(str(f) for f in group.factors)


def parse_delta(text, s: int, n: int):
    """A distance profile: ``balanced`` or rows like ``1,1;1,1``."""
    if n % s:
        raise ValidationError(f"balanced slices need s | n, got s={s} n={n}")
    m = n // s
    raw = str(text).strip().lower()
    if raw == "balanced":
        if m % s:
            raise ValidationError(
                f"the fully balanced profile needs s | n/s, got s={s} n={n}"
            )
        return [[m // s] * s for _ in range(s)]
    try:
        rows = [
            [int(v) for v in row.split(",")] for row in str(text).strip().split(";")
        ]
    except ValueError as exc:
        raise ValidationError(f"cannot parse profile {text!r}") from exc
    return rows


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054):
    """95% score interval for a binomial proportion."""
    if trials <= 0:
        raise ValidationError("trials must be positive")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


# --------------------------------------------------------------------------
# artifact writing


def _echo_value(value) -> str:
    if isinstance(value, AbelianGroup):
        return group_label(value)
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    return str(value)


def emit_json(args: argparse.Namespace, results, wall_time_ms: float) -> dict:
    record = {
        "schema_version": SCHEMA_VERSION,
        "scenario": args.scenario,
        "config": {  # every resolved parameter, defaults included
            key: _echo_value(value)
            for key, value in vars(args).items()
            if key not in ("scenario", "func", "config", "out")
        },
        "results": results,
        "wall_time_ms": round(wall_time_ms, 3),
    }
    text = json.dumps(record, indent=2)
    if args.out is not None:
        args.out.write_text(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return record


def emit_csv(args: argparse.Namespace, fieldnames, rows) -> list[dict]:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    text = buf.getvalue()
    if args.out is not None:
        args.out.write_text(text)
        print(f"wrote {len(rows)} row(s) to {args.out}")
    else:
        sys.stdout.write(text)
    return rows


def _base_row(args: argparse.Namespace) -> dict:
    return {"schema_version": SCHEMA_VERSION, "scenario": args.scenario, "seed": args.seed}


# --------------------------------------------------------------------------
# spectra


SPECTRA_FIELDS = [
    "schema_version", "scenario", "family", "s", "n", "profile", "sigma2",
    "lambda2", "spectrum", "symmetric", "doubly_stochastic", "indep_epsilon",
    "seed", "wall_time_ms",
]


def _spectrum_cell(report) -> str:
    return ";".join(f"{v:.6g}x{m}" for v, m in report.multiplicities)


def cmd_spectra(args: argparse.Namespace) -> list[dict]:
    _require(args, "family", "s")
    family, s = args.family, args.s
    if family == "subgrid":
        _require(args, "k")
        sizes = [s * s * k for k in args.k]
    else:
        _require(args, "n")
        sizes = args.n
    rows = []
    for size in sizes:
        started = time.perf_counter()
        if family == "wdelta":
            delta = parse_delta(args.delta, s, size)
            walk = walk_from_distance(SliceSpec.balanced(s, size), delta)
            profile = ";".join(",".join(str(v) for v in row) for row in delta)
        elif family == "odlsz":
            if size % s:
                raise ValidationError(f"odlsz needs s | n, got s={s} n={size}")
            walk = walk_odlsz(s, size)
            profile = "odlsz"
        else:
            walk = walk_subgrid_identification(s, size // (s * s))
            profile = f"identify-k{size // (s * s)}"
        report = spectral_report(walk)
        indep = independence_report(walk, args.indep_k, rows=args.rows)
        rows.append(
            _base_row(args)
            | {
                "family": family,
                "s": s,
                "n": size,
                "profile": profile,
                "sigma2": f"{report.sigma2:.12g}",
                "lambda2": "" if report.lambda2 is None else f"{report.lambda2:.12g}",
                "spectrum": _spectrum_cell(report),
                "symmetric": walk.is_symmetric(),
                "doubly_stochastic": walk.is_doubly_stochastic(),
                "indep_epsilon": str(indep.epsilon),
                "wall_time_ms": round(1000 * (time.perf_counter() - started), 3),
            }
        )
    return emit_csv(args, SPECTRA_FIELDS, rows)


# --------------------------------------------------------------------------
# distance


DISTANCE_FIELDS = [
    "schema_version", "scenario", "mode", "s", "p", "n", "d", "group",
    "minimum", "bound", "matches", "seed", "wall_time_ms",
]


def cmd_distance(args: argparse.Namespace) -> list[dict]:
    _require(args, "mode", "n", "d")
    mode = args.mode
    rows = []
    for n in args.n:
        for d in args.d:
            started = time.perf_counter()
            row = _base_row(args) | {"mode": mode, "n": n, "d": d, "p": "", "group": ""}
            if mode == "grid":
                _require(args, "p")
                prime = args.p
                if not is_prime(prime):
                    raise ValidationError(f"p must be prime, got {prime}")
                if d < 0:
                    raise ValidationError("d must be nonnegative")
                minimum, formula = grid_minimum_matches_formula(prime, n, d)
                row |= {
                    "s": prime,
                    "p": prime,
                    "group": f"F{prime}",
                    "minimum": str(minimum),
                    "bound": str(formula),
                    "matches": minimum == formula,
                }
            elif mode == "junta":
                _require(args, "s")
                s, group = args.s, args.group
                count, achievers = grid_min_nonzero(s, n, d, group)
                frac = Fraction(count, s**n)
                row |= {
                    "s": s,
                    "group": group_label(group),
                    "minimum": str(frac),
                    "bound": str(Fraction(1, s**d)),
                    "matches": frac == Fraction(1, s**d),
                }
            else:
                _require(args, "s")
                s = args.s
                prime = 2 if args.p is None else args.p
                if not is_prime(prime):
                    raise ValidationError(f"p must be prime, got {prime}")
                if n % s:
                    raise ValidationError(f"balanced slices need s | n, got s={s} n={n}")
                counts = SliceSpec.balanced(s, n).counts
                if any(c < d for c in counts):
                    raise ValidationError(
                        f"need n/s >= d for the multinomial bound, got n={n} s={s} d={d}"
                    )
                count, _ = min_slice_nonzero_prime(s, n, d, prime)
                bound = slice_nonzero_lower_bound(counts, d)
                row |= {
                    "s": s,
                    "p": prime,
                    "group": f"Z{prime}",
                    "minimum": str(count),
                    "bound": str(bound),
                    "matches": count >= bound,
                }
            row["wall_time_ms"] = round(1000 * (time.perf_counter() - started), 3)
            rows.append(row)
    return emit_csv(args, DISTANCE_FIELDS, rows)


# --------------------------------------------------------------------------
# chi-vectors


def cmd_chi_vectors(args: argparse.Namespace) -> dict:
    _require(args, "s", "n")
    s, n = args.s, args.n
    if n < s:
        raise ValidationError(f"n must be at least {s}, got {n}")
    if n % s:
        raise ValidationError(f"balanced slices need s | n, got s={s} n={n}")
    started = time.perf_counter()
    mu = SliceSpec.balanced(s, n).counts
    size = slice_size(SliceSpec.balanced(s, n))
    check_capacity(size, "slice for the special-vector battery")
    uniform = [Fraction(1, size)] * size
    families = []
    for lam in partitions_dominating(mu):
        if lam == (n,) or (len(lam) > 1 and lam[1] > args.lam2_max):
            continue
        tabs = enumerate_ssyt(lam, mu)
        vectors = [chi_vector(lam, tab, s) for tab in tabs]
        sup = max((max(abs(v) for v in vec) for vec in vectors), default=0)
        order = column_group_order(lam)
        det = gram_det(vectors)
        families.append(
            {
                "lam": list(lam),
                "tableaux": len(tabs),
                "mean_zero": all(mean_under(uniform, vec) == 0 for vec in vectors),
                "sup_norm": sup,
                "column_group_order": order,
                "sup_within_bound": sup <= order,
                "gram_det": str(det),
                "gram_det_float": float(det),
                "support_size": len(chi_support(lam)),
            }
        )
    results = {
        "s": s,
        "n": n,
        "mu": list(mu),
        "slice_size": size,
        "families": families,
        "all_mean_zero": all(f["mean_zero"] for f in families),
        "all_sup_bounded": all(f["sup_within_bound"] for f in families),
        "min_gram_det": min((f["gram_det_float"] for f in families), default=None),
    }
    return emit_json(args, results, 1000 * (time.perf_counter() - started))


# --------------------------------------------------------------------------
# correct (Monte Carlo success rates of the correction algorithms)


@lru_cache(maxsize=8)
def _cached_scheme(s: int, d: int, exponent: int):
    return torsion_scheme(s, d, exponent)


@lru_cache(maxsize=8)
def _cached_gadget(n: int, s: int, d: int, rho: Fraction):
    return build_gadget(n, s, d, rho)


def _correct_trial(payload) -> bool:
    """One Monte Carlo round; module-level so worker processes can run it."""
    (alg, seed, trial, s, n, d, k, factors, rate, exponent, depth, rho) = payload
    rng = derive_rng(seed, f"correct:{alg}", trial)
    group = AbelianGroup(factors)
    truth = random_polynomial(s, n, d, group, rng)
    if rate > 0:
        oracle = NoisyOracle.random_errors(truth, rate, seed=int(rng.integers(2**63)))
    else:
        oracle = NoisyOracle.exact(truth)
    x = bytes(int(v) for v in rng.integers(0, s, size=n))
    if alg == "subgrid":
        got = subgrid_error_reduce(oracle, x, k, d, rng)
    elif alg == "torsion":
        got = torsion_correct(oracle, _cached_scheme(s, d, exponent), rng, x=x)
    elif alg == "base":
        got = base_reduce(oracle, x, rng, gadget=_cached_gadget(n, s, d, rho))
    else:
        got = recursive_reduce(oracle, x, depth, rng, gadget=_cached_gadget(n, s, d, rho))
    return got == truth.evaluate(x)


def _map_trials(fn, payloads, workers: int):
    """Run ``fn`` over ``payloads`` in order, on at most ``workers`` processes
    and never more than the machine's CPUs or the number of payloads."""
    workers = min(workers, os.cpu_count() or 1, len(payloads))
    if workers <= 1:
        return [fn(p) for p in payloads]
    chunk = max(1, len(payloads) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, payloads, chunksize=chunk))


CORRECT_FIELDS = [
    "schema_version", "scenario", "alg", "s", "n", "d", "group", "error_rate",
    "k_or_scheme", "trials", "successes", "success_rate", "wilson_low",
    "wilson_high", "queries_per_call", "seed", "wall_time_ms",
]


def cmd_correct(args: argparse.Namespace) -> list[dict]:
    _require(args, "alg", "s", "d")
    alg, s, d, trials, rate, rho = args.alg, args.s, args.d, args.trials, args.rate, args.rho
    if not 0 <= rate < 1:
        raise ValidationError(f"rate must lie in [0, 1), got {rate}")
    if rho is not None and not 0 < rho < 1:
        raise ValidationError(f"rho must lie in (0, 1), got {rho}")
    k = exponent = depth = 0
    if alg == "subgrid":
        _require(args, "n", "k")
        n, k = args.n, args.k
        if not d < k <= n:
            raise ValidationError(f"need d < k <= n, got d={d} k={k} n={n}")
        group = args.group or AbelianGroup((2,))
        check_capacity(trials * s**k, "subgrid correction sweep")
        label = str(k)
        queries = s**k
    elif alg == "torsion":
        if s != 2:
            raise ValidationError("the torsion corrector handles the Boolean grid only")
        _require(args, "M")
        exponent = args.M
        group = args.group or AbelianGroup((exponent,))
        if exponent % group.exponent:
            raise ValidationError(
                f"group exponent {group.exponent} must divide M={exponent}"
            )
        scheme = _cached_scheme(s, d, exponent)
        n = scheme.slice_length if args.n is None else args.n
        label = f"slice{scheme.slice_length}"
        queries = scheme.query_count
        check_capacity(trials * queries, "torsion correction sweep")
    else:
        _require(args, "n", "rho")
        n = args.n
        group = args.group or AbelianGroup((2,))
        gadget = _cached_gadget(n, s, d, rho)
        label = f"q{gadget.q}"
        queries = 3 * gadget.q
        if alg == "recursive":
            depth = args.depth
            queries = (3 * gadget.q) ** depth
            label += f":depth{depth}"
        check_capacity(trials * max(queries, 1), "gadget correction sweep")
    started = time.perf_counter()
    payloads = [
        (alg, args.seed, t, s, n, d, k, group.factors, rate, exponent, depth, rho)
        for t in range(trials)
    ]
    outcomes = _map_trials(_correct_trial, payloads, args.workers)
    successes = sum(outcomes)
    low, high = wilson_interval(successes, trials)
    row = _base_row(args) | {
        "alg": alg,
        "s": s,
        "n": n,
        "d": d,
        "group": group_label(group),
        "error_rate": rate,
        "k_or_scheme": label,
        "trials": trials,
        "successes": successes,
        "success_rate": f"{successes / trials:.6g}",
        "wilson_low": f"{low:.6g}",
        "wilson_high": f"{high:.6g}",
        "queries_per_call": queries,
        "wall_time_ms": round(1000 * (time.perf_counter() - started), 3),
    }
    return emit_csv(args, CORRECT_FIELDS, [row])


# --------------------------------------------------------------------------
# list-correct (two planted codewords at equal distance)


def cmd_list_correct(args: argparse.Namespace) -> dict:
    s, d, n, trials, points, eps = args.s, args.d, args.n, args.trials, args.points, args.eps
    k_approx, ell, k_unique = args.k_approx, args.ell, args.k_unique
    if s != 2:
        raise ValidationError("the planted-pair scenario runs on the Boolean grid")
    if d != 1:
        raise ValidationError("the planted-pair scenario is a degree-1 experiment")
    if not 0 < eps < 1:
        raise ValidationError(f"eps must lie in (0, 1), got {eps}")
    if max(k_approx, k_unique) > n:
        raise ValidationError("subgrid dimensions cannot exceed the ambient arity")
    group = AbelianGroup((2,))
    cross = JuntaPolynomial(s, n, group, {((0, 1), (1, 1)): (1,)})
    first_coord = JuntaPolynomial(s, n, group, {((0, 1),): (1,)})
    started = time.perf_counter()
    tallies = {"both": 0, "first_only": 0, "second_only": 0, "neither": 0}
    total_queries = 0
    for trial in range(trials):
        rng = derive_rng(args.seed, "list-correct", trial)
        base = random_polynomial(s, n, d, group, rng)
        received = base + cross
        second = base + first_coord
        oracle = NoisyOracle.exact(received)
        xs = [bytes(int(v) for v in rng.integers(0, s, size=n)) for _ in range(points)]
        outputs = local_list_correct(
            oracle, d, eps, xs, rng, k_approx=k_approx, ell=ell, k_unique=k_unique
        )
        recovered = [
            any(
                all(values[x] == planted.evaluate(x) for x in xs)
                for _, values in outputs
            )
            for planted in (base, second)
        ]
        key = {
            (True, True): "both",
            (True, False): "first_only",
            (False, True): "second_only",
            (False, False): "neither",
        }[tuple(recovered)]
        tallies[key] += 1
        total_queries += oracle.queries
    low, high = wilson_interval(tallies["both"], trials)
    results = {
        "params": {
            "s": s, "n": n, "d": d, "eps": str(eps), "points": points,
            "k_approx": k_approx, "ell": ell, "k_unique": k_unique,
        },
        "planted_codewords": {
            "count": 2,
            "construction": {
                "received": "random degree-1 base plus the product of the first "
                "two coordinate indicators",
                "first": "the base itself (distance exactly 1/4)",
                "second": "base plus the first coordinate indicator (distance exactly 1/4)",
            },
        },
        "recovered": tallies,
        "trials": trials,
        "success_rate": tallies["both"] / trials,
        "wilson_interval": [round(low, 6), round(high, 6)],
        "total_queries": total_queries,
    }
    return emit_json(args, results, 1000 * (time.perf_counter() - started))


# --------------------------------------------------------------------------
# sampling (subgrid deviation against a fixed membership table)


@lru_cache(maxsize=4)
def _membership_table(s: int, n: int, kind: str, density_str: str, seed: int):
    check_capacity(s**n, "ambient membership table")
    if kind == "random":
        rng = derive_rng(seed, "sampling:set")
        return np.asarray(rng.random(s**n) < float(Fraction(density_str)), dtype=bool)
    digits = np.arange(s**n, dtype=np.int64)
    counts = np.zeros((s, s**n), dtype=np.int64)
    for _ in range(n):
        digits, rem = np.divmod(digits, s)
        for letter in range(s):
            counts[letter] += rem == letter
    return np.all(counts == n // s, axis=0)


def _sampling_trial(payload) -> float:
    (s, n, k, kind, density_str, seed, trial) = payload
    membership = _membership_table(s, n, kind, density_str, seed)
    rng = derive_rng(seed, "sampling", trial)
    return sampling_deviation(random_subgrid(s, n, k, rng), membership)


def cmd_sampling(args: argparse.Namespace) -> dict:
    _require(args, "n", "k")
    s, n, k, kind, trials = args.s, args.n, args.k, args.set, args.trials
    if k > n:
        raise ValidationError(f"need k <= n, got k={k} n={n}")
    if kind == "slice" and n % s:
        raise ValidationError(f"the slice membership set needs s | n, got s={s} n={n}")
    if not 0 < args.density < 1:
        raise ValidationError(f"density must lie in (0, 1), got {args.density}")
    check_capacity(s**n, "ambient membership table")
    check_capacity(trials * s**k, "sampling sweep")
    started = time.perf_counter()
    density_str = str(args.density)
    payloads = [(s, n, k, kind, density_str, args.seed, t) for t in range(trials)]
    deviations = np.asarray(_map_trials(_sampling_trial, payloads, args.workers))
    membership = _membership_table(s, n, kind, density_str, args.seed)
    freq_above = float(np.mean(deviations > args.eps))
    results = {
        "s": s, "n": n, "k": k, "set": kind,
        "membership_density": float(membership.mean()),
        "trials": trials,
        "eps": args.eps,
        "eta": args.eta,
        "quantiles": {
            q: round(float(np.quantile(deviations, qq)), 6)
            for q, qq in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)]
        },
        "max_deviation": round(float(deviations.max()), 6),
        "mean_deviation": round(float(deviations.mean()), 6),
        "freq_above_eps": freq_above,
        "within_target": freq_above <= args.eta,
    }
    return emit_json(args, results, 1000 * (time.perf_counter() - started))


# --------------------------------------------------------------------------
# interp-set


def cmd_interp_set(args: argparse.Namespace) -> dict:
    _require(args, "s", "d", "r", "m")
    s, d, r, m, n, checks = args.s, args.d, args.r, args.m, args.n, args.checks
    if r < s:
        raise ValidationError(f"r must be at least {s}, got {r}")
    if r % s:
        raise ValidationError(f"the block construction needs s | r, got s={s} r={r}")
    started = time.perf_counter()
    iset = build_interpolating_set(
        s, d, r, m, rng=derive_rng(args.seed, "interp-set:build", 0)
    )
    slack = max((abs(iset.weight_slack(b)) for b in iset.points), default=Fraction(0))
    matches = 0
    for i in range(checks):
        rng = derive_rng(args.seed, "interp-set:check", i)
        truth = random_polynomial(s, n, d, args.group, rng)
        value = iset.correct(NoisyOracle.exact(truth), rng)
        matches += value == truth.evaluate(bytes([1]) * n)
    results = {
        "s": s, "d": d, "r": r, "m": m,
        "size": len(iset.points),
        "k": iset.k,
        "total_weight": iset.total_weight,
        "block_weights": list(iset.block_weights),
        "max_weight_slack": str(slack),
        "slack_bound": str(Fraction(d, iset.total_weight)),
        "coefficient_l1": int(sum(abs(c) for c in iset.coeffs.values())),
        "checks": checks,
        "checks_passed": matches,
        "all_checks_passed": matches == checks,
        "queries_per_correction": len(iset.points),
    }
    return emit_json(args, results, 1000 * (time.perf_counter() - started))


# --------------------------------------------------------------------------
# young-check


def cmd_young_check(args: argparse.Namespace) -> dict:
    if any(s < 2 for s in args.s):
        raise ValidationError("every s must be at least 2")
    started = time.perf_counter()
    identity_rows = []
    for s in args.s:
        n = s
        while slice_size(SliceSpec.balanced(s, n)) <= args.cap:
            lhs, rhs = young_rule_sides(s, n)
            identity_rows.append(
                {"s": s, "n": n, "slice_size": rhs, "lhs": lhs, "equal": lhs == rhs}
            )
            n += s
    partition_count = 0
    hook_ok = True
    for n in range(1, args.hook_max + 1):
        for lam in partitions(n):
            partition_count += 1
            if count_syt(lam) != count_syt_backtrack(lam):
                hook_ok = False
    results = {
        "young_rule": identity_rows,
        "identity_holds_everywhere": all(r["equal"] for r in identity_rows),
        "hook_check": {
            "max_n": args.hook_max,
            "partitions": partition_count,
            "all_equal": hook_ok,
        },
        "all_ok": hook_ok and all(r["equal"] for r in identity_rows),
    }
    return emit_json(args, results, 1000 * (time.perf_counter() - started))


# --------------------------------------------------------------------------
# parser and dispatch


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The ``multislice`` parser and its subcommand parsers by name.

    A flag without a default is either required by its command or only
    read in some modes; the command checks it.
    """
    parser = argparse.ArgumentParser(
        prog="multislice",
        description="Experiment harness for walks, distances and correction "
        "on balanced multislices.",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)

    spectra = sub.add_parser("spectra", help="singular values of the slice walks")
    spectra.set_defaults(func=cmd_spectra)
    spectra.add_argument(
        "--family", type=str.lower, choices=("wdelta", "odlsz", "subgrid")
    )
    spectra.add_argument("--s", type=at_least(2))
    spectra.add_argument("--n", type=integer_list)
    spectra.add_argument("--k", type=integer_list)
    spectra.add_argument("--delta", default="balanced")
    spectra.add_argument(
        "--rows", type=str.lower, choices=("canonical", "all"), default="canonical"
    )
    spectra.add_argument("--indep-k", type=at_least(1), default=2)

    distance = sub.add_parser("distance", help="exhaustive minimum-distance tables")
    distance.set_defaults(func=cmd_distance)
    distance.add_argument("--mode", type=str.lower, choices=("grid", "junta", "multislice"))
    distance.add_argument("--s", type=at_least(2))
    distance.add_argument("--p", type=at_least(2))
    distance.add_argument("--n", type=integer_list)
    distance.add_argument("--d", type=integer_list)
    distance.add_argument("--group", type=parse_group, default="Z2")

    chi = sub.add_parser("chi-vectors", help="the special-vector battery")
    chi.set_defaults(func=cmd_chi_vectors)
    chi.add_argument("--s", type=at_least(2))
    chi.add_argument("--n", type=integer)
    chi.add_argument("--lam2-max", type=at_least(1), default=2)

    correct = sub.add_parser("correct", help="Monte Carlo correction success rates")
    correct.set_defaults(func=cmd_correct)
    correct.add_argument(
        "--alg", type=str.lower, choices=("subgrid", "torsion", "base", "recursive")
    )
    correct.add_argument("--s", type=at_least(2))
    correct.add_argument("--n", type=at_least(1))
    correct.add_argument("--d", type=at_least(0))
    correct.add_argument("--k", type=at_least(1))
    correct.add_argument("--group", type=parse_group)
    correct.add_argument("--rate", type=float, default=0.0)
    correct.add_argument("--trials", type=at_least(1), default=100)
    correct.add_argument("--M", type=at_least(2))
    correct.add_argument("--depth", type=at_least(0), default=1)
    correct.add_argument("--rho", type=rational)

    lst = sub.add_parser("list-correct", help="recover two planted codewords")
    lst.set_defaults(func=cmd_list_correct)
    lst.add_argument("--s", type=integer, default=2)
    lst.add_argument("--n", type=at_least(4), default=10)
    lst.add_argument("--d", type=integer, default=1)
    lst.add_argument("--eps", type=rational, default=Fraction(1, 5))
    lst.add_argument("--trials", type=at_least(1), default=20)
    lst.add_argument("--points", type=at_least(1), default=5)
    # both subgrid dimensions must exceed the degree d = 1
    lst.add_argument("--k-approx", type=at_least(2), default=4)
    lst.add_argument("--ell", type=at_least(1), default=4)
    lst.add_argument("--k-unique", type=at_least(2), default=3)

    sampling = sub.add_parser("sampling", help="subgrid sampling deviation")
    sampling.set_defaults(func=cmd_sampling)
    sampling.add_argument("--s", type=at_least(2), default=2)
    sampling.add_argument("--n", type=at_least(2))
    sampling.add_argument("--k", type=at_least(1))
    sampling.add_argument(
        "--set", type=str.lower, choices=("random", "slice"), default="random"
    )
    sampling.add_argument("--density", type=rational, default=Fraction(1, 2))
    sampling.add_argument("--trials", type=at_least(1), default=2000)
    sampling.add_argument("--eps", type=float, default=0.2)
    sampling.add_argument("--eta", type=float, default=0.1)

    interp = sub.add_parser("interp-set", help="build and verify an interpolating set")
    interp.set_defaults(func=cmd_interp_set)
    interp.add_argument("--s", type=at_least(2))
    interp.add_argument("--d", type=at_least(0))
    interp.add_argument("--r", type=integer)
    interp.add_argument("--m", type=at_least(1))
    interp.add_argument("--n", type=at_least(1), default=12)
    interp.add_argument("--group", type=parse_group, default="Z6")
    interp.add_argument("--checks", type=at_least(0), default=5)

    young = sub.add_parser("young-check", help="counting identity and hook formula")
    young.set_defaults(func=cmd_young_check)
    young.add_argument("--s", type=integer_list, default=[2, 3])
    young.add_argument("--cap", type=at_least(1), default=5000)
    young.add_argument("--hook-max", type=at_least(1), default=10)

    for command in sub.choices.values():
        command.add_argument("--config", help="key = value file; flags override it")
        command.add_argument(
            "--seed", type=integer, default=0, help="master seed for every random stream"
        )
        command.add_argument("--out", type=Path, help="artifact path (default: stdout)")
        command.add_argument(
            "--workers", type=at_least(1), default=1,
            help="parallel worker processes, at most the CPU count (default 1)",
        )
    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # The file's lines are parsed as the command's own flags, so they
            # meet the same converters and checks; the result becomes the
            # command's defaults, which any flag on the command line replaces.
            command = commands[args.scenario]
            file_flags = [
                f"--{key.replace('_', '-')}={value}"
                for key, value in load_config_file(args.config).items()
            ]
            command.set_defaults(**vars(command.parse_args(file_flags)))
            args = parser.parse_args(argv)
        args.func(args)
        sys.stdout.flush()  # a closed pipe must fail here, not at exit
    except BrokenPipeError:
        # the reader went away; send the rest of the output nowhere so that
        # the interpreter's own flush at exit cannot fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity exceeded: {exc}", file=sys.stderr)
        return 3
    except (ConstructionFailure, SearchFailure, ArithmeticError) as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
