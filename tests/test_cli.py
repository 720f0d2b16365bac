import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mertens
import mertens.cli
import mertens.sieve
import mertens.sums
from mertens import __version__
from mertens.bounds import envelope_halfwidth, estimate_mertens_B, extrapolate_sum
from mertens.cli import main
from mertens.sieve import MAX_SIEVE_BOUND, MAX_WORKERS
from mertens.sums import accumulate_checkpoints


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_text_million(capsys):
    code, out, _ = run_cli(["table", "--n-max", "1000000"], capsys)
    assert code == 0
    row = [line for line in out.splitlines() if line.lstrip().startswith("1000000")][0]
    assert "2.887" in row


def test_table_text_ten_single_row(capsys):
    code, out, _ = run_cli(["table", "--n-max", "10"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2  # header + one data row
    assert "1.176" in lines[1]


def test_table_json_schema(capsys):
    code, out, _ = run_cli(["table", "--n-max", "100", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"] == {"n_max": 100, "version": __version__}
    assert [list(r.keys()) for r in payload["rows"]] == [
        ["x", "pi", "s", "a", "s_minus_lnln", "extrapolated"]
    ] * 2
    cols = accumulate_checkpoints(100, [10, 100])
    assert payload["rows"][1]["x"] == 100
    assert payload["rows"][1]["pi"] == 25
    assert payload["rows"][1]["s"] == cols["s"][1]  # full binary64 precision survives json


def test_table_csv_header_and_roundtrip(capsys):
    code, out, _ = run_cli(["table", "--n-max", "1000", "--format", "csv"], capsys)
    assert code == 0
    lines = out.split("\n")
    assert lines[0] == "x,pi,s,a,s_minus_lnln,extrapolated"
    assert lines[-1] == ""  # exactly one trailing newline
    cols = accumulate_checkpoints(1000, [10, 100, 1000])
    rows = zip(*(cols[k].tolist() for k in ("x", "pi", "s", "a")))
    for line, (x, pi, s, a) in zip(lines[1:], rows):
        fields = line.split(",")
        assert int(fields[0]) == x
        assert int(fields[1]) == pi
        assert float(fields[2]) == s
        assert float(fields[3]) == a
        lnln = math.log(math.log(x))
        assert float(fields[4]) == s - lnln


def test_table_out_file_matches_stdout(tmp_path, capsys):
    path = tmp_path / "table.json"
    code, out, _ = run_cli(["table", "--n-max", "10000", "--format", "json"], capsys)
    assert code == 0
    code2, _, _ = run_cli(
        ["table", "--n-max", "10000", "--format", "json", "--out", str(path)], capsys
    )
    assert code2 == 0
    assert path.read_text(encoding="utf-8") == out


def test_table_bytes_stable_across_segmentation_and_workers(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(mertens.sums, "RUN_INTEGERS", 16384)
    blobs = set()
    for segment_size, workers in [
        (16384, "1"),
        (16384, "2"),  # seven runs, so the pool really starts; forked workers inherit the window
        (1048576, "1"),
    ]:
        monkeypatch.setattr(mertens.sieve, "SEGMENT_SIZE", segment_size)
        path = tmp_path / f"t{segment_size}_{workers}.json"
        code = main(
            [
                "table",
                "--n-max",
                "1e5",
                "--format",
                "json",
                "--workers",
                workers,
                "--out",
                str(path),
            ]
        )
        assert code == 0
        blobs.add(path.read_bytes())
    capsys.readouterr()
    assert len(blobs) == 1


def test_verify_bytes_stable_across_segmentation_and_workers(monkeypatch, capsys):
    monkeypatch.setattr(mertens.sums, "RUN_INTEGERS", 16384)
    blobs = set()
    for segment_size, workers in [
        (16384, "1"),
        (16384, "2"),  # seven runs, so the pool really starts; forked workers inherit the window
        (1048576, "1"),
        (1048576, "2"),
    ]:
        monkeypatch.setattr(mertens.sieve, "SEGMENT_SIZE", segment_size)
        code, out, _ = run_cli(["verify", "--n-max", "1e5", "--workers", workers], capsys)
        assert code == 0
        blobs.add(out)
    assert len(blobs) == 1


def test_scientific_notation_flags(capsys):
    code, out, _ = run_cli(["table", "--n-max", "1e3", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[-1].startswith("1000,")


def test_table_config_errors(capsys):
    cases = [
        ["table", "--n-max", "abc"],
        ["table", "--n-max", "100", "--checkpoints", "50,20"],
        ["table", "--n-max", "100", "--checkpoints", "50,200"],
        ["table", "--n-max", "100", "--checkpoints", "10", "--preset", "decades"],  # unknown flag
        ["table", "--n-max", "5"],  # decades preset empty
        ["table", "--n-max", "100", "--checkpoints", "1,10"],
        ["table", "--n-max", "100", "--workers", "0"],
        # malformed values are refused by argparse on every subcommand
        ["estimate-b", "--n-max", "abc"],
        ["verify", "--workers", "x"],
        ["extrapolate", "--log10-x", "zz"],
        ["table", "--checkpoints", "10,1e3.5"],
        # integer flags must be finite, integral and at most 4,300 digits long
        ["table", "--n-max", "1.5"],
        ["table", "--n-max", "1e-3"],
        ["table", "--n-max", "nan"],
        ["verify", "--workers", "inf"],
        ["table", "--n-max", "1e4300"],  # refused before the integer is built
        ["table", "--n-max", "1e999999999999"],
    ]
    for argv in cases:
        code, _, err = run_cli(argv, capsys)
        assert code == 2, argv
        assert err.startswith("error:") or "usage" in err


def test_integer_flags_are_read_exactly():
    # Past 2**53 a float would round these; the flag keeps every digit.
    assert mertens.cli._count("123456789012345678e2") == 12345678901234567800
    assert mertens.cli._count("9007199254740993") == 2**53 + 1
    assert mertens.cli._count("1.5e1") == 15
    assert mertens.cli._count(" 1_000 ") == 1000
    assert mertens.cli._count("1" + "0" * 4299) == 10**4299  # int()'s 4,300-digit limit


def test_unknown_flag_exits_2(capsys):
    code, _, _ = run_cli(["table", "--bogus"], capsys)
    assert code == 2


def test_resource_exhaustion_exit_3(monkeypatch, capsys):
    # Every sieve command refuses its bound before any work: table builds no
    # decades, so not even 4,300 digits reach the int64 cast of checkpoints.
    def no_decades(n_max):
        raise AssertionError("decades built for a refused bound")

    monkeypatch.setattr(mertens.cli, "_decade_checkpoints", no_decades)
    # The last decade, 1e13, is above the 2^40 sieve cap.
    code, _, err = run_cli(["table", "--n-max", "1e13"], capsys)
    assert code == 3
    assert "exceeds" in err
    # Integer flags are read exactly, so the spelling of a value does not change the exit.
    spelled = {}
    for argv in (
        ["table", "--n-max", "1e16"],
        ["table", "--n-max", "10000000000000000"],
        ["verify", "--n-max", "1e16"],
        ["estimate-b", "--n-max", "1e16"],
        # 4,300 digits: parsed, then past the cap
        *([command, "--n-max", "1e4299"] for command in ("table", "verify", "estimate-b")),
    ):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (3, ""), argv
        assert err == (
            f"error: bound {mertens.cli._count(argv[2])} exceeds the sieve maximum "
            f"{MAX_SIEVE_BOUND}; use the extrapolation path\n"
        ), argv
        spelled[argv[2]] = err
    assert spelled["1e16"] == spelled["10000000000000000"]
    # A checkpoint past the int64 range is past the cap, alone or not.
    for given in ("9223372036854775808", "10,9223372036854775808"):
        code, out, err = run_cli(["table", "--n-max", "100", "--checkpoints", given], capsys)
        assert (code, out) == (3, ""), given
        assert err == f"error: checkpoints must lie in [0, {MAX_SIEVE_BOUND}], the sieve maximum\n"


def test_resource_ceilings_exit_3(monkeypatch, capsys):
    # --n-max 1e4 is a single run, so no pool starts and almost nothing is
    # allocated even if a ceiling were not enforced.
    def no_pool(*args, **kwargs):
        raise AssertionError("a single run started a pool")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    too_many = str(MAX_WORKERS + 1)
    for argv in (
        ["table", "--n-max", "1e4", "--workers", too_many],
        ["estimate-b", "--n-max", "1e4", "--workers", too_many],
        ["verify", "--n-max", "1e4", "--workers", too_many],
        # e-notation is read exactly, so a huge value reaches the same ceiling
        ["table", "--n-max", "1e4", "--workers", "1e20"],
        ["table", "--n-max", "1e4", "--workers", "100000000000000000000"],
        ["verify", "--n-max", "1e4", "--workers", "1e20"],
    ):
        code, out, err = run_cli(argv, capsys)
        assert code == 3, argv
        assert out == ""
        assert "exceeds the maximum" in err
    # The sieve window is fixed, so --segment-size is an unknown flag.
    for argv in (
        ["table", "--n-max", "1e4", "--segment-size", str((1 << 24) + 1)],
        ["verify", "--n-max", "1e4", "--segment-size", str((1 << 24) + 1)],
        ["table", "--n-max", "1e4", "--segment-size", "1e20"],
        ["estimate-b", "--n-max", "1e4", "--segment-size", str(1 << 20)],
    ):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, ""), argv
        assert "unrecognized arguments: --segment-size" in err
    code, _, _ = run_cli(["table", "--n-max", "1e4", "--workers", str(MAX_WORKERS)], capsys)
    assert code == 0


def test_memory_error_exit_3(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 GiB")

    monkeypatch.setattr(mertens.cli, "accumulate_checkpoints", exhausted)
    code, out, err = run_cli(["table", "--n-max", "1e6"], capsys)
    assert code == 3
    assert out == ""
    assert err == "error: out of memory: Unable to allocate 8.00 GiB\n"


def test_extrapolate_prints_two_decimals(capsys):
    code, out, _ = run_cli(["extrapolate", "--log10-x", "100"], capsys)
    assert code == 0
    assert out == "5.70\n"


def test_extrapolate_json(capsys):
    code, out, _ = run_cli(
        ["extrapolate", "--log10-x", "6", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["log10_x"] == 6.0
    assert abs(payload["extrapolated"] - 2.8873) < 5e-4


def test_extrapolate_domain_error(capsys):
    code, _, err = run_cli(["extrapolate", "--log10-x", "0.3"], capsys)
    assert code == 2
    assert "log10_x" in err


def test_estimate_b(capsys):
    code, out, _ = run_cli(["estimate-b", "--n-max", "1e4"], capsys)
    assert code == 0
    assert "b_estimate(10000)" in out
    value = float(out.split("=")[1].split("(")[0])
    assert abs(value - 0.2614972) < 0.006


def test_estimate_b_and_extrapolate_csv_json_out(tmp_path, capsys):
    s = accumulate_checkpoints(10**4, [10**4])["s"].item()
    b_hat, width = estimate_mertens_B(10**4, s), envelope_halfwidth(10**4)
    value = extrapolate_sum(100.0)
    cases = [
        (
            ["estimate-b", "--n-max", "1e4"],
            f"x,b_estimate,halfwidth\n10000,{b_hat!r},{width!r}\n",
            {"x": 10000, "b_estimate": b_hat, "halfwidth": width},
        ),
        (
            ["extrapolate", "--log10-x", "100"],
            f"log10_x,extrapolated\n100.0,{value!r}\n",
            {"log10_x": 100.0, "extrapolated": value},
        ),
    ]
    for argv, csv_text, payload in cases:
        code, out, _ = run_cli([*argv, "--format", "csv"], capsys)
        assert (code, out) == (0, csv_text)
        code, out, _ = run_cli([*argv, "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out) == payload
        path = tmp_path / "out.json"
        code, to_stdout, _ = run_cli([*argv, "--format", "json", "--out", str(path)], capsys)
        assert (code, to_stdout) == (0, "")
        assert path.read_text(encoding="utf-8") == out


def test_estimate_b_below_threshold_exit_2(capsys):
    code, _, _ = run_cli(["estimate-b", "--n-max", "100"], capsys)
    assert code == 2


def test_verify_small_scale_passes(capsys):
    code, out, _ = run_cli(["verify", "--n-max", "300"], capsys)
    assert code == 0
    assert "rs_envelope_symmetric" in out
    assert "NOTE rs_envelope_asymmetric_upper" in out
    assert "exit 0" in out


def test_verify_failure_exits_1(monkeypatch, capsys):
    failing = mertens.cli.CheckResult("log_one_minus_bound", False, "points=1025 forced")
    monkeypatch.setattr(mertens.cli, "_check_log_bound_grid", lambda: failing)
    code, out, _ = run_cli(["verify", "--n-max", "300"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert f"{'FAIL':<4} {'log_one_minus_bound':<38} points=1025 forced" in lines
    assert [line for line in lines if line.startswith("FAIL")] == [lines[0]]
    # The informational RS variant fails at n = 300 too, but a NOTE is not counted.
    note = next(line for line in lines if line.startswith("NOTE rs_envelope_asymmetric_upper"))
    assert "violations=15" in note
    assert lines[-1] == "verify: n_max=300 checks=16 failures=1 -> exit 1"


def test_verify_rejects_format_flag(capsys):
    code, out, err = run_cli(["verify", "--n-max", "1e4", "--format", "json"], capsys)
    assert code == 2
    assert out == ""
    assert "--format" in err


def test_verify_rejects_out_flag(tmp_path, capsys):
    path = tmp_path / "v.json"
    code, out, err = run_cli(["verify", "--n-max", "1e4", "--out", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert "--out" in err
    assert not path.exists()


def test_unwritable_out_exits_2_before_the_sieve(tmp_path, monkeypatch, capsys):
    def no_pass(*args, **kwargs):
        raise AssertionError("the sieve pass ran")

    monkeypatch.setattr(mertens.cli, "accumulate_checkpoints", no_pass)
    for path in (tmp_path / "missing" / "t.csv", tmp_path):
        for argv in (["table", "--n-max", "1e4"], ["estimate-b"], ["extrapolate", "--log10-x", "3"]):
            code, out, err = run_cli([*argv, "--out", str(path)], capsys)
            assert (code, out) == (2, ""), (argv, path)
            assert err.startswith("error: ") and str(path) in err
    assert not (tmp_path / "missing").exists()


def test_verify_rejects_small_n_max(capsys):
    code, _, err = run_cli(["verify", "--n-max", "100"], capsys)
    assert code == 2
    assert "286" in err


def test_verify_at_1e5_passes(monkeypatch, capsys):
    sieved = [0] * 100_001  # times each integer was sieved
    prime_arrays = mertens.sieve.iter_prime_arrays

    def counted(n, *, start=0):
        sieved[start : n + 1] = [k + 1 for k in sieved[start : n + 1]]
        return prime_arrays(n, start=start)

    monkeypatch.setattr(mertens.sieve, "iter_prime_arrays", counted)
    monkeypatch.setattr(mertens.sums, "iter_prime_arrays", counted)
    code, out, _ = run_cli(["verify", "--n-max", "100000"], capsys)
    assert code == 0
    assert set(sieved) == {2}  # once for the prime array, once for the accumulate pass
    lines = out.splitlines()
    assert [line.split()[1] for line in lines[:-1]] == [
        "log_one_minus_bound",
        "abel_summation_by_parts",
        "stieltjes_partial_integration",
        "factorial_log_identity",
        "legendre_factorial_reconstruction",
        "euler_product_bracketing",
        "binomial_prime_product",
        "chebyshev_dyadic",
        "euler_lower_bound",
        "rs_envelope_symmetric",
        "rs_envelope_asymmetric_upper",
        "mertens_residual_cap",
        "q_cap",
        "l_cap",
        "envelope_extrapolation_consistency",
        "mertens_b_cauchy",
        "mertens_b_estimate",
    ]
    assert "FAIL" not in {line.split()[0] for line in lines[:-1]}
    # None of these lines reads np.log, so each is the same bytes on every
    # platform; the Abel line pins Python's random draws, one for one.
    assert lines[1] == (
        "PASS abel_summation_by_parts                cases=1000 worst_rel_diff=4.798e-14"
    )
    assert lines[2] == (
        "PASS stieltjes_partial_integration          "
        "points=4070 max_x=100000 worst_rel_diff=2.210e-16"
    )
    assert lines[5] == (
        "PASS euler_product_bracketing               "
        "n in (2, 3, 5, 7, 13, 31, 47) cutoff=2^20 worst_gap=2.907e-02"
    )
    assert lines[4] == "PASS legendre_factorial_reconstruction      n<=200 exact big-integer"
    assert lines[-1] == "verify: n_max=100000 checks=17 failures=0 -> exit 0"


def test_help_exits_zero(capsys):
    code, _, _ = run_cli(["--help"], capsys)
    assert code == 0


def test_cli_as_a_process():
    src = str(Path(mertens.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "mertens.cli", *argv], capture_output=True, env=env
        )

    # A pass to 3e6 is three runs, so --workers 2 starts the pool.
    table = ["table", "--n-max", "3e6", "--checkpoints", "10,1000,3000000", "--format", "csv"]
    csv = [run(*table, "--workers", w) for w in ("1", "2")]
    assert [r.returncode for r in csv] == [0, 0]
    assert csv[0].stdout == csv[1].stdout
    assert csv[0].stdout.startswith(b"x,pi,s,a,s_minus_lnln,extrapolated\n")
    assert run("table", "--n-max", "abc").returncode == 2
    capped = run("table", "--n-max", "1e13")
    assert (capped.returncode, capped.stdout) == (3, b"")


def run_python(code: str, **env: str) -> list[str]:
    """The words code prints in a fresh interpreter on this checkout.

    OPENBLAS_NUM_THREADS is unset there unless env sets it: importing
    mertens.cli has set it in this process.
    """
    clean = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = str(Path(mertens.cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**clean, "PYTHONPATH": src, **env},
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout.split()


def test_import_mertens_loads_no_numpy_and_leaves_blas_alone():
    code = (
        "import os, sys, mertens\n"
        "print('numpy' in sys.modules)\n"
        "print(mertens.primes_array(10).tolist() == [2, 3, 5, 7])\n"
        "print(all(getattr(mertens, name) is not None for name in mertens.__all__))\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    )
    assert run_python(code) == ["False", "True", "True", "None"]
    with pytest.raises(AttributeError, match="no_such_name"):
        mertens.no_such_name


def test_cli_starts_openblas_on_one_thread_unless_told_otherwise():
    code = (
        "import os, mertens.cli\n"
        "tasks = '/proc/self/task'\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'])\n"
        "print(len(os.listdir(tasks)) if os.path.isdir(tasks) else 'no-proc')\n"
    )
    value, threads = run_python(code)
    assert value == "1"
    if threads != "no-proc":
        assert threads == "1"
    assert run_python(code, OPENBLAS_NUM_THREADS="2")[0] == "2"


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_pool_workers_start_openblas_on_one_thread(method):
    # A library caller that leaves the variable unset: its own environment
    # stays as it was, and a worker that has loaded numpy holds one thread.
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    code = (
        "import multiprocessing, os\n"
        "from mertens import sums\n"
        f"multiprocessing.set_start_method({method!r})\n"
        "tasks = '/proc/self/task'\n"
        "probe = \"__import__('numpy') and len(__import__('os').listdir(%r))\" % tasks\n"
        "print(*(sums._pooled(eval, [(probe,)] * 3, 1) if os.path.isdir(tasks) else ['no-proc']))\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    )
    *threads, value = run_python(code)
    assert value == "None"
    assert threads in (["1", "1", "1"], ["no-proc"])
