"""End-to-end checks of the experiment harness: artifact schemas, exit
codes, config-file precedence and cross-run reproducibility."""

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multislice
from multislice.cli import (
    ValidationError,
    load_config_file,
    main,
    parse_delta,
    parse_group,
    wilson_interval,
)


def _subprocess_env():
    """The environment, with this checkout's package first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(multislice.__file__)))
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def run_csv(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    return list(csv.DictReader(io.StringIO(out)))


def run_json(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


# --------------------------------------------------------------------------
# plumbing


def test_load_config_file_parses_comments_and_dashes(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sweep\ns = 2\nhook-max = 4   # inline\n\nn=6\n")
    assert load_config_file(cfg) == {"s": "2", "hook_max": "4", "n": "6"}


def test_load_config_file_rejects_garbage(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just words\n")
    with pytest.raises(ValidationError):
        load_config_file(cfg)


def test_parse_group_spellings():
    assert parse_group("Z6").factors == (6,)
    assert parse_group("6").factors == (6,)
    assert parse_group("Z2x3").factors == (2, 3)
    with pytest.raises(ValidationError):
        parse_group("Z1")
    with pytest.raises(ValidationError):
        parse_group("abc")


def test_parse_delta_balanced_and_explicit():
    assert parse_delta("balanced", 2, 8) == [[2, 2], [2, 2]]
    assert parse_delta("1,1;1,1", 2, 4) == [[1, 1], [1, 1]]
    with pytest.raises(ValidationError):
        parse_delta("balanced", 2, 6)  # n/s = 3 is odd


def test_wilson_interval_brackets_the_estimate():
    low, high = wilson_interval(75, 100)
    assert low < 0.75 < high
    assert wilson_interval(0, 10)[0] == 0.0
    assert wilson_interval(10, 10)[1] == pytest.approx(1.0)


# --------------------------------------------------------------------------
# spectra


def test_spectra_johnson_row(capsys):
    rows = run_csv(
        capsys, ["spectra", "--family", "wdelta", "--s", "2", "--n", "4"]
    )
    (row,) = rows
    assert row["schema_version"] == "1"
    assert row["scenario"] == "spectra"
    assert abs(float(row["sigma2"]) - 0.5) < 1e-9
    assert row["symmetric"] == "True"
    assert row["doubly_stochastic"] == "True"
    assert row["indep_epsilon"] == "1/2"


def test_spectra_sweep_is_monotone(capsys):
    rows = run_csv(
        capsys,
        ["spectra", "--family", "wdelta", "--s", "2", "--n", "4,8", "--delta", "balanced"],
    )
    sigmas = [float(r["sigma2"]) for r in rows]
    assert sigmas[0] > sigmas[1]


def test_spectra_rejects_unrealizable_profile(capsys):
    code = main(["spectra", "--family", "wdelta", "--s", "2", "--n", "4", "--delta", "2,0;1,1"])
    assert code == 2
    assert "column sums" in capsys.readouterr().err


def test_spectra_artifact_does_not_depend_on_blas_threads():
    """The README's seeded wdelta sweep prints the same table, timings
    aside, whether the eigensolver runs on one thread or two."""
    argv = ["spectra", "--family", "wdelta", "--s", "2", "--n", "4,8,12",
            "--delta", "balanced", "--seed", "7"]
    digests = set()
    for threads in ("1", "2"):
        env = {**_subprocess_env(), "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-m", "multislice.cli", *argv],
                              capture_output=True, env=env, timeout=300, check=True)
        rows = list(csv.reader(io.StringIO(proc.stdout.decode())))
        cut = rows[0].index("wall_time_ms")
        table = [row[:cut] + row[cut + 1:] for row in rows]
        digests.add(hashlib.sha256(repr(table).encode()).hexdigest())
    assert len(digests) == 1


def test_spectra_missing_family_exits_2(capsys):
    assert main(["spectra", "--s", "2", "--n", "4"]) == 2
    assert "family" in capsys.readouterr().err


def test_unknown_flag_is_an_argparse_error():
    with pytest.raises(SystemExit) as info:
        main(["spectra", "--nope", "1"])
    assert info.value.code == 2


# --------------------------------------------------------------------------
# distance


def test_distance_grid_example(capsys):
    (row,) = run_csv(
        capsys, ["distance", "--mode", "grid", "--p", "3", "--n", "2", "--d", "2"]
    )
    assert row["minimum"] == "1/3"
    assert row["bound"] == "1/3"
    assert row["matches"] == "True"


def test_distance_multislice_bound(capsys):
    (row,) = run_csv(
        capsys, ["distance", "--mode", "multislice", "--s", "2", "--n", "6", "--d", "1"]
    )
    assert row["minimum"] == "8"
    assert row["bound"] == "6"
    assert row["matches"] == "True"


def test_distance_junta_reaches_the_generic_minimum(capsys):
    (row,) = run_csv(
        capsys,
        ["distance", "--mode", "junta", "--s", "2", "--n", "3", "--d", "1", "--group", "Z2"],
    )
    assert row["minimum"] == "1/2"
    assert row["matches"] == "True"


def test_distance_rejects_composite_p(capsys):
    assert main(["distance", "--mode", "grid", "--p", "4", "--n", "2", "--d", "1"]) == 2
    assert "prime" in capsys.readouterr().err


def test_arithmetic_error_exits_1_as_a_construction_failure(monkeypatch, capsys):
    import multislice.cli as cli

    def broken(*args):
        raise ArithmeticError("C(k'+d, k') unexpectedly divisible by 2; scheme invalid")

    monkeypatch.setattr(cli, "_cached_scheme", broken)
    argv = ["correct", "--alg", "torsion", "--s", "2", "--n", "20", "--d", "1", "--M", "2",
            "--trials", "1"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("construction failed: C(k'+d, k')")


@given(
    mode=st.sampled_from(["grid", "junta", "multislice", "bogus"]),
    values=st.fixed_dictionaries({
        flag: st.one_of(st.none(), st.integers(-2, 9).map(str), st.just("x"))
        for flag in ("s", "p", "d")
    }),
    n=st.one_of(st.none(), st.lists(st.integers(-2, 9), min_size=1, max_size=2)
                .map(lambda ns: ",".join(map(str, ns)))),
    group=st.one_of(st.none(), st.sampled_from(["Z2", "Z6", "Z2x3", "Z1", "Zq"])),
)
@settings(deadline=None, max_examples=150)
def test_distance_fuzz_exits_with_a_documented_code(mode, values, n, group):
    argv = ["distance", f"--mode={mode}"]
    for flag, value in {**values, "n": n, "group": group}.items():
        if value is not None:
            argv.append(f"--{flag}={value}")
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"MULTISLICE_BUDGET": "20000"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()


# --------------------------------------------------------------------------
# correct


def test_correct_subgrid_error_free_always_succeeds(tmp_path, capsys):
    out = tmp_path / "subgrid.csv"
    argv = [
        "correct", "--alg", "subgrid", "--s", "2", "--d", "1", "--n", "12",
        "--k", "5", "--group", "Z2", "--rate", "0", "--trials", "25",
        "--out", str(out),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    (row,) = list(csv.DictReader(out.open()))
    for key in (
        "scenario", "s", "n", "d", "group", "error_rate", "k_or_scheme",
        "trials", "successes", "queries_per_call", "wall_time_ms",
    ):
        assert key in row
    assert row["successes"] == row["trials"] == "25"
    assert row["queries_per_call"] == "32"
    assert float(row["wilson_high"]) == 1.0


def test_correct_same_seed_reproduces_metrics(tmp_path, capsys):
    argv = [
        "correct", "--alg", "subgrid", "--s", "2", "--d", "1", "--n", "10",
        "--k", "4", "--rate", "0.2", "--trials", "30", "--seed", "7",
    ]
    first = run_csv(capsys, argv)
    second = run_csv(capsys, argv)
    strip = lambda r: {k: v for k, v in r.items() if k != "wall_time_ms"}
    assert strip(first[0]) == strip(second[0])


def test_correct_workers_do_not_change_the_outcome(capsys):
    argv = [
        "correct", "--alg", "subgrid", "--s", "2", "--d", "1", "--n", "10",
        "--k", "4", "--rate", "0.2", "--trials", "16", "--seed", "3",
    ]
    serial = run_csv(capsys, argv)[0]
    parallel = run_csv(capsys, argv + ["--workers", "2"])[0]
    assert serial["successes"] == parallel["successes"]


def test_correct_torsion_error_free(capsys):
    (row,) = run_csv(
        capsys,
        ["correct", "--alg", "torsion", "--M", "2", "--d", "1", "--s", "2",
         "--trials", "4", "--rate", "0"],
    )
    assert row["success_rate"] == "1"
    assert row["queries_per_call"] == "12870"
    assert row["k_or_scheme"] == "slice16"


def test_correct_base_gadget_error_free(capsys):
    (row,) = run_csv(
        capsys,
        ["correct", "--alg", "base", "--s", "2", "--d", "1", "--n", "8",
         "--rho", "2/5", "--trials", "10"],
    )
    assert row["successes"] == "10"


def test_correct_rejects_bad_rate(capsys):
    argv = ["correct", "--alg", "subgrid", "--s", "2", "--d", "1", "--n", "8",
            "--k", "4", "--rate", "1.5", "--trials", "5"]
    assert main(argv) == 2
    assert "rate" in capsys.readouterr().err


@pytest.mark.parametrize("alg", ["base", "recursive"])
def test_gadget_correctors_without_rho_exit_2_naming_the_flag(capsys, alg):
    argv = ["correct", "--alg", alg, "--s", "2", "--n", "32", "--d", "1",
            "--rate", "0.01", "--trials", "5", "--seed", "7"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--rho" in err
    assert "Traceback" not in err


def test_correct_capacity_overrun_exits_3(capsys):
    argv = ["correct", "--alg", "subgrid", "--s", "2", "--d", "1", "--n", "30",
            "--k", "25", "--trials", "2"]
    assert main(argv) == 3
    assert "capacity" in capsys.readouterr().err.lower()


def test_config_file_feeds_params_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "corr.cfg"
    cfg.write_text(
        "alg = subgrid\ns = 2\nn = 10\nd = 1\nk = 4\nrate = 0\ntrials = 9\n"
    )
    from_file = run_csv(capsys, ["correct", "--config", str(cfg)])
    assert from_file[0]["trials"] == "9"
    overridden = run_csv(capsys, ["correct", "--config", str(cfg), "--trials", "5"])
    assert overridden[0]["trials"] == "5"


# --------------------------------------------------------------------------
# JSON scenarios


def test_chi_vectors_artifact(capsys):
    record = run_json(capsys, ["chi-vectors", "--s", "2", "--n", "4"])
    assert record["schema_version"] == 1
    assert record["config"]["s"] == "2"
    res = record["results"]
    assert res["all_mean_zero"] and res["all_sup_bounded"]
    assert res["min_gram_det"] > 1e-12
    assert {tuple(f["lam"]) for f in res["families"]} == {(3, 1), (2, 2)}


def test_young_check_artifact(capsys):
    record = run_json(capsys, ["young-check", "--s", "2", "--cap", "100", "--hook-max", "5"])
    assert record["results"]["all_ok"] is True
    assert all(r["equal"] for r in record["results"]["young_rule"])


def test_interp_set_artifact(capsys):
    record = run_json(
        capsys,
        ["interp-set", "--s", "2", "--d", "1", "--r", "6", "--m", "2",
         "--group", "Z6", "--checks", "2"],
    )
    res = record["results"]
    assert res["size"] == len(set(range(res["size"])))  # present and positive
    assert res["k"] == 12
    assert res["all_checks_passed"] is True


def test_interp_set_rejects_indivisible_width(capsys):
    assert main(["interp-set", "--s", "2", "--d", "1", "--r", "5", "--m", "1"]) == 2


def test_sampling_artifact_and_reproducibility(tmp_path, capsys):
    argv = ["sampling", "--s", "2", "--n", "12", "--k", "6", "--set", "random",
            "--trials", "60", "--seed", "11"]
    first = run_json(capsys, argv)
    second = run_json(capsys, argv)
    assert first["results"] == second["results"]
    assert set(first["results"]["quantiles"]) == {"p50", "p90", "p99"}
    assert first["results"]["freq_above_eps"] <= 1.0


def test_sampling_slice_membership_density(capsys):
    record = run_json(
        capsys,
        ["sampling", "--s", "2", "--n", "8", "--k", "4", "--set", "slice",
         "--trials", "20"],
    )
    # C(8,4)/2^8 = 70/256
    assert abs(record["results"]["membership_density"] - 70 / 256) < 1e-12


def test_list_correct_artifact_schema(tmp_path, capsys):
    out = tmp_path / "lc.json"
    argv = ["list-correct", "--n", "8", "--trials", "1", "--points", "2",
            "--out", str(out), "--seed", "5"]
    assert main(argv) == 0
    capsys.readouterr()
    record = json.loads(out.read_text())
    res = record["results"]
    for key in ("params", "planted_codewords", "recovered", "trials",
                "success_rate", "total_queries"):
        assert key in res
    assert res["trials"] == 1
    assert sum(res["recovered"].values()) == 1
    assert res["total_queries"] > 0


def test_list_correct_rejects_non_boolean_alphabet(capsys):
    assert main(["list-correct", "--s", "3", "--n", "9", "--trials", "1"]) == 2


def test_json_artifact_written_to_file_is_self_describing(tmp_path, capsys):
    out = tmp_path / "young.json"
    assert main(["young-check", "--s", "2", "--cap", "10", "--hook-max", "3",
                 "--out", str(out), "--seed", "9"]) == 0
    record = json.loads(out.read_text())
    assert record["schema_version"] == 1
    assert record["scenario"] == "young-check"
    assert record["config"]["cap"] == "10"
    assert record["config"]["seed"] == "9"


def test_flags_beat_the_config_file_for_seed_and_workers(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 5\nworkers = 2\n")
    argv = ["sampling", "--n", "10", "--k", "4", "--trials", "20", "--seed", "9",
            "--workers", "1"]
    with_file = run_json(capsys, argv + ["--config", str(cfg)])
    assert with_file["config"]["seed"] == "9"
    assert with_file["config"]["workers"] == "1"
    assert with_file["results"] == run_json(capsys, argv)["results"]


def test_config_echo_lists_every_resolved_parameter(capsys):
    record = run_json(capsys, ["list-correct", "--n", "8", "--trials", "1", "--points", "2"])
    assert record["config"] == {
        "s": "2", "n": "8", "d": "1", "eps": "1/5", "trials": "1", "points": "2",
        "k_approx": "4", "ell": "4", "k_unique": "3", "seed": "0", "workers": "1",
    }


@pytest.mark.parametrize(
    "argv, text, named",
    [
        (["young-check"], "trails = 9\n", "trails"),
        (["young-check"], "cap = abc\n", "--cap"),
        (["spectra"], "family = bogus\ns = 2\nn = 4\n", "--family"),
        (["young-check", "--cap", "10"], "hook-max = 0\n", "--hook-max"),
    ],
)
def test_bad_config_file_values_exit_2_naming_the_parameter(
    tmp_path, capsys, argv, text, named
):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as info:
        main(argv + ["--config", str(cfg)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and named in err
    assert "Traceback" not in err


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size and runs the
    work in this process."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


def test_worker_pool_is_capped_by_cpus_and_trials(monkeypatch, capsys):
    import multislice.cli as cli

    sizes = []
    monkeypatch.setattr(
        cli, "ProcessPoolExecutor", lambda max_workers: RecordingPool(sizes, max_workers)
    )
    argv = ["sampling", "--n", "8", "--k", "3", "--workers", "64"]
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    record = run_json(capsys, argv + ["--trials", "10"])
    assert record["config"]["workers"] == "64"
    run_json(capsys, argv + ["--trials", "3"])
    assert sizes == [4, 3]
    monkeypatch.setattr("os.cpu_count", lambda: 1)
    serial = run_json(capsys, argv + ["--trials", "10"])
    assert sizes == [4, 3]
    assert serial["results"] == record["results"]


def test_closed_stdout_pipe_exits_1_without_a_traceback():
    """Output to a reader that has gone away, as in `multislice ... | head`."""
    env = _subprocess_env()
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child writes, so every write fails
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "multislice.cli", "young-check", "--cap", "50"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""
