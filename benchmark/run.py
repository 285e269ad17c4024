"""Run one benchmark workload and print its metrics as one JSON line.

    python3 benchmark/run.py --workload unique-correct --seed 1 --seconds 25 --trace 0

Run from the repository root.  The package is imported from ``src`` next to
this directory (it need not be installed), BLAS is pinned to one thread and
``MULTISLICE_BUDGET`` is cleared, so every run uses the default capacity
budget.  With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` the per-layer metrics of a traced run.  The last line of
standard output is the result; a readable summary goes to standard error
and the full record to ``benchmark/out/``.
"""

import time

_STARTED = time.perf_counter()

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
os.environ.pop("MULTISLICE_BUDGET", None)

import argparse
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["unique-correct", "list-correct", "walk-spectra", "exact-algebra"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


# name, unit, how, span names.  "calls", "self" and "incl" are per traced
# round; "setup+incl" adds the set-up spans; "ratio" divides a counter by
# the calls of a span.
PER_LAYER = (
    ("juntas.evaluate.calls", "count", "calls", "juntas.evaluate"),
    ("juntas.evaluate.self_s", "s", "self", "juntas.evaluate"),
    ("juntas.truth_table.calls", "count", "calls", "juntas.truth_table"),
    ("juntas.truth_table.self_s", "s", "self", "juntas.truth_table"),
    ("juntas.grid_min_nonzero.s", "s", "incl", "juntas.grid_min_nonzero"),
    ("juntas.min_slice_nonzero_prime.s", "s", "incl", "juntas.min_slice_nonzero_prime"),
    ("correction.oracle.queries", "count", "calls", "correction.oracle"),
    ("correction.oracle.self_s", "s", "self", "correction.oracle"),
    ("correction.unique_decode.calls", "count", "calls", "correction.unique_decode"),
    ("correction.unique_decode.self_s", "s", "self", "correction.unique_decode"),
    ("correction.unique_decode.none", "count", "counter", "correction.unique_decode.none"),
    ("correction.gadget.sample_s", "s", "incl", "correction.gadget.sample"),
    ("correction.torsion.self_s", "s", "self", "correction.torsion"),
    ("correction.hitting_set.calls", "count", "calls", "correction.hitting_set"),
    ("correction.hitting_set.s", "s", "incl", "correction.hitting_set"),
    ("subgrids.embed.s", "s", "incl", "subgrids.random_subgrid subgrids.embed_all"),
    ("listcorr.build_approximators.s", "s", "incl", "listcorr.build_approximators"),
    ("listcorr.approximator_eval.calls", "count", "calls", "listcorr.approximator_eval"),
    ("listcorr.approximator_eval.self_s", "s", "self", "listcorr.approximator_eval"),
    ("listcorr.list_decode.calls", "count", "calls", "listcorr.list_decode"),
    ("listcorr.list_decode.self_s", "s", "self", "listcorr.list_decode"),
    ("listcorr.list_decode.mean_list_size", "count", "ratio",
     "listcorr.list_decode.items listcorr.list_decode"),
    ("listcorr.restrict.self_s", "s", "self", "listcorr.restrict"),
    ("listcorr.approximators", "count", "ratio",
     "listcorr.approximators listcorr.build_approximators"),
    ("walks.construct.distance.s", "s", "incl", "walks.construct.distance"),
    ("walks.construct.odlsz.s", "s", "incl", "walks.construct.odlsz"),
    ("walks.construct.subgrid_identification.s", "s", "incl",
     "walks.construct.subgrid_identification"),
    ("walks.doubly_stochastic.s", "s", "incl", "walks.doubly_stochastic"),
    ("walks.symmetric.s", "s", "incl", "walks.symmetric"),
    ("walks.respects_symmetries.s", "s", "incl", "walks.respects_symmetries"),
    ("walks.independence.s", "s", "incl", "walks.independence"),
    ("walks.dense.s", "s", "incl", "walks.dense"),
    ("walks.spectral.self_s", "s", "self", "walks.spectral"),
    ("slices.enumerate.s", "s", "setup+incl", "slices.enumerate"),
    ("slices.rank_index.s", "s", "setup+incl", "slices.rank_index"),
    ("snf.rational_rank.calls", "count", "calls", "snf.rational_rank"),
    ("snf.rational_rank.self_s", "s", "self", "snf.rational_rank"),
    ("snf.smith.calls", "count", "calls", "snf.smith"),
    ("snf.smith.self_s", "s", "self", "snf.smith"),
    ("tableaux.enumerate_ssyt.s", "s", "incl", "tableaux.enumerate_ssyt"),
    ("tableaux.chi_vector.s", "s", "incl", "tableaux.chi_vector"),
    ("tableaux.gram_det.s", "s", "incl", "tableaux.gram_det"),
    ("fields.grid_minimum.s", "s", "incl", "fields.grid_minimum"),
)


def per_layer_metrics(rec, rounds: int, overhead_s: float) -> dict:
    per_round = rec.summarize(roots={"phase.round"})
    in_setup = rec.summarize(roots={"phase.setup"})
    out = {}
    for name, unit, how, spans in PER_LAYER:
        keys = spans.split()
        if how == "counter":
            value = rec.counts.get(keys[0], 0) / rounds
        elif how == "ratio":
            calls = per_round[keys[1]].calls if keys[1] in per_round else 0
            value = rec.counts.get(keys[0], 0) / calls if calls else 0.0
        else:
            value = 0.0
            for key in keys:
                st = per_round.get(key)
                if st is not None:
                    value += {"calls": st.calls, "self": st.self_s}.get(how, st.inclusive_s) / rounds
                if how == "setup+incl" and key in in_setup:
                    value += in_setup[key].inclusive_s
        out[name] = {"value": value, "unit": unit}
    out["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return out


SETUP_REFERENCE_RUNS = 9
MIN_ROUNDS = 2  # a median over one round would carry that round's noise whole


def timed_round(workload, ops, r: int) -> float:
    started = time.perf_counter()
    workload.run_round(r, ops)
    elapsed = time.perf_counter() - started
    ops.mark(r)
    return elapsed


def run_rounds(workload, ops, budget_s: float) -> tuple[int, float]:
    """Whole rounds until ``budget_s`` has passed and at least ``MIN_ROUNDS``
    have run; returns (rounds, seconds)."""
    rounds, elapsed = 0, 0.0
    while elapsed < budget_s or rounds < MIN_ROUNDS:
        elapsed += timed_round(workload, ops, rounds)
        rounds += 1
    return rounds, elapsed


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    from spans import SpanRecorder, instrument

    workload = workloads.WORKLOADS[args.workload]()
    recorder = None
    absent: list[str] = []
    if args.trace:
        recorder = SpanRecorder(args.workload)
        absent = instrument(recorder)
        recorder.active = True

    if recorder:
        with recorder.span("phase.setup"):
            workload.setup(args.seed)
        recorder.active = False
    else:
        workload.setup(args.seed)
    setup_wall_s = time.perf_counter() - _STARTED
    ops = workloads.Ops(recorder)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    if recorder is None:
        # Set-up lands whole in one of the machine's fast or slow spells, which
        # last seconds; the reference kernel, timed right after it, rescales it
        # to seconds at a fixed kernel speed, as the op slots are rescaled.
        setup_reference_s = ops.reference_time(SETUP_REFERENCE_RUNS)
        setup_s = setup_wall_s * workloads.REFERENCE_NOMINAL_S / setup_reference_s
        record.update(setup_wall_s=setup_wall_s, setup_reference_ms=1e3 * setup_reference_s)
        rounds, wall = run_rounds(workload, ops, args.seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        # a warm-up round, then each round twice, untraced and traced, side by
        # side so that the machine's drifting speed cancels from the overhead
        timed_round(workload, ops, 0)
        recorder.counts.clear()
        rounds, wall, traced_wall = 0, 0.0, 0.0
        while rounds == 0 or wall + traced_wall < args.seconds:
            wall += timed_round(workload, ops, rounds)
            recorder.active = True
            with recorder.span("phase.round"):
                traced_wall += timed_round(workload, ops, rounds)
            recorder.active = False
            rounds += 1
        record["traced_wall_s"] = traced_wall
    record.update(rounds=rounds, wall_s=wall)

    failures = workload.check()
    correct = not failures

    if recorder is None:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_mb, "unit": "MB"}}
        for name, (family, kind) in workload.metrics.items():
            metrics[name] = {"value": ops.metric(family, kind), "unit": "ref"}
        record["raw_ms"] = {name: ops.metric(family, kind, normalized=False)
                            for name, (family, kind) in workload.metrics.items()}
        record["tails"] = {family: ops.tails(family) for family, _ in workload.metrics.values()}
        record["detail"] = ops.detail()
    else:
        metrics = per_layer_metrics(recorder, rounds, (traced_wall - wall) / rounds)
        record["absent"] = absent

    result = {"correct": correct, "attempted": ops.attempted, "failed": ops.failed,
              "metrics": metrics}
    record.update(result, check_failures=failures, errors=ops.errors,
                  summary=getattr(workload, "summary", {}))
    OUT.mkdir(exist_ok=True)
    if recorder:
        recorder.save(OUT / f"spans-{args.workload}.npz")
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    workloads.log(f"{args.workload} seed={args.seed}: {rounds} rounds in {wall:.2f} s, "
                  f"{ops.attempted} calls, {ops.failed} failed, correct={correct}")
    for line in failures + ops.errors + [f"absent: {name}" for name in absent]:
        workloads.log("  " + line)
    for name, m in metrics.items():
        workloads.log(f"  {name:45s} {m['value']:.6g} {m['unit']}")
    for family, tails in record.get("tails", {}).items():
        workloads.log(f"  {family:45s} " + " ".join(f"{k}={v:.4g}" for k, v in tails.items()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
