"""Command-line interface: subcommands, output formats, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import recordwalk
from recordwalk import (SUITES, IncrementLaw, bundled_law_path, fixed_point,
                        verify)
from recordwalk.cli import _emit, build_parser, main

SYM_PATH = str(bundled_law_path("sym.json"))
STABLE_PATH = str(bundled_law_path("stable_g05_b05.json"))
BUNDLED_LAWS = sorted(
    f.name for f in resources.files("recordwalk.data").iterdir()
    if f.name.endswith(".json")
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    lines = text.strip().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    header = body[0].split(",")
    rows = [l.split(",") for l in body[1:]]
    return meta, header, rows


class TestRate:
    def test_single_point_json(self, capsys):
        code, out = run_cli(capsys, "rate", "--law", SYM_PATH, "--x", "0.5")
        assert code == 0
        doc = json.loads(out)
        assert doc["x"] == 2.0
        assert doc["ldp_rate"] > 0.0
        assert doc["lambda"] < 0.0
        law = IncrementLaw.from_json(bundled_law_path("sym.json").read_text())
        assert doc["meta"]["law_sha256"] == law.sha256()

    def test_grid_csv(self, capsys):
        code, out = run_cli(capsys, "rate", "--law", SYM_PATH,
                            "--grid", "0.2:0.8:4")
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert header[0] == "x"
        assert len(rows) == 4
        assert any("law_sha256" in m for m in meta)
        # float fields round-trip exactly through repr
        assert float(rows[0][5]) > 0.0

    def test_requires_exactly_one_mode(self, capsys):
        for modes in ([], ["--x", "0.5", "--grid", "0.2:0.8:3"]):
            with pytest.raises(SystemExit) as exc:
                main(["rate", "--law", SYM_PATH, *modes])
            assert exc.value.code == 2
            error = capsys.readouterr().err.splitlines()[-1]
            assert "--x" in error and "--grid" in error

    @pytest.mark.parametrize("x", ["1e-320", "0", "1.5", "nan"])
    def test_density_out_of_range_is_usage_error(self, capsys, x):
        with pytest.raises(SystemExit) as exc:
            main(["rate", "--law", SYM_PATH, "--x", x])
        assert exc.value.code == 2

    def test_grid_point_out_of_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rate", "--law", SYM_PATH, "--grid", "0:1:3"])
        assert exc.value.code == 2

    def test_full_density_prints_strict_json(self, capsys):
        code, out = run_cli(capsys, "rate", "--law", SYM_PATH, "--x", "1")
        assert code == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        doc = json.loads(out, parse_constant=reject)
        assert doc["lambda"] == doc["Lambda"] == "-inf"
        assert doc["ldp_rate"] == doc["Lambda_star"] > 0.0

    @pytest.mark.parametrize("name", BUNDLED_LAWS)
    @pytest.mark.parametrize("x", ["1e-6", "1e-12", "1e-300"])
    def test_tiny_density_gives_a_finite_nonnegative_rate(self, capsys, name,
                                                          x):
        code, out = run_cli(capsys, "rate", "--law",
                            str(bundled_law_path(name)), "--x", x)
        assert code == 0
        rate = json.loads(out)["ldp_rate"]
        assert isinstance(rate, float) and 0.0 <= rate < 1.0


class TestMdp:
    def test_closed_form(self, capsys):
        code, out = run_cli(capsys, "mdp", "--law", SYM_PATH)
        assert code == 0
        doc = json.loads(out)
        assert doc["alpha"] == 0.5
        assert doc["regime"] == "FiniteVariance"
        assert doc["rate_exponent"] == 2.0

    def test_numeric(self, capsys):
        code, out = run_cli(capsys, "mdp", "--law", STABLE_PATH, "--numeric")
        assert code == 0
        doc = json.loads(out)
        assert doc["regime"] == "NumericEstimate"
        assert abs(doc["alpha"] - 1.0 / 3.0) < 0.01


class TestOracle:
    def test_modes_agree(self, capsys):
        code_dp, out_dp = run_cli(capsys, "oracle", "--law", SYM_PATH,
                                  "--n", "10", "--mode", "dp")
        code_rn, out_rn = run_cli(capsys, "oracle", "--law", SYM_PATH,
                                  "--n", "10", "--mode", "renewal")
        assert code_dp == code_rn == 0
        _, _, rows_dp = parse_csv(out_dp)
        _, _, rows_rn = parse_csv(out_rn)
        assert rows_dp[0][3] == "dp" and rows_rn[0][3] == "renewal"
        for a, b in zip(rows_dp, rows_rn):
            assert abs(float(a[1]) - float(b[1])) <= 1e-12

    @pytest.mark.parametrize("argv", [
        ["oracle", "--n", "10", "--mode", "dp"],
        ["oracle", "--n", "10", "--mode", "renewal"],
        ["simulate", "--n", "10", "--paths", "200", "--seed", "1"],
    ])
    def test_negative_kmax_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--law", SYM_PATH, "--kmax", "-1"])
        assert exc.value.code == 2

    def test_bad_n_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--law", SYM_PATH, "--n", "0", "--mode", "dp"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("mode", ["dp", "renewal"])
    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_bad_n_message(self, capsys, mode, n):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--law", SYM_PATH, "--n", n, "--mode", mode])
        assert exc.value.code == 2
        assert "--n: must be >= 1" in capsys.readouterr().err


class TestSimulate:
    def test_byte_identical_reruns_and_workers(self, capsys):
        args = ["simulate", "--law", SYM_PATH, "--n", "10",
                "--paths", "20000", "--seed", "9"]
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        _, eight = run_cli(capsys, *args, "--workers", "8")
        assert first == second == eight
        meta, header, rows = parse_csv(first)
        assert any("seed=9" in m for m in meta)
        assert header == ["k", "estimate", "ci_lo", "ci_hi"]
        assert float(rows[0][1]) == 1.0

    @pytest.mark.parametrize("name, digest", [
        ("asym.json",
         "0b768617e360ab94fb96eb98e332f5e110ed677ea1342964e665d1d77f7c0f2e"),
        ("stable_g05_b05.json",
         "a878f31f01419d50e2be8807a22f32d35216a03bc558c90a7df59bb794f512f9"),
        ("stable_g05_b05_left.json",
         "506cc5363fd60a3a03045b2c0750636a8cfe3937eab507e4673ee95e79652389"),
        ("sym.json",
         "555cd1109901a0c103626760935b1333ccff142eb49e9baeab4e15ea3101fb5a"),
        ("sym_left.json",
         "5633139708f21f71c6619bc4368536f4e09c22e9ad9afc17c8b99f6664e4aeed"),
    ])
    @pytest.mark.filterwarnings("ignore:.*below 10/paths")
    def test_draws_are_pinned(self, capsys, name, digest):
        # SHA-256 of the CSV rows without the `#` header, which carries the
        # version: any change to the stream, the sampler or the record count
        # moves it.
        _, out = run_cli(capsys, "simulate", "--law",
                         str(bundled_law_path(name)), "--n", "60",
                         "--paths", "16384", "--seed", "11", "--workers", "2")
        rows = "".join(l for l in out.splitlines(keepends=True)
                       if not l.startswith("#"))
        assert hashlib.sha256(rows.encode()).hexdigest() == digest

    def test_kmax_limits_rows(self, capsys):
        _, out = run_cli(capsys, "simulate", "--law", SYM_PATH, "--n", "10",
                         "--paths", "2000", "--seed", "1", "--kmax", "3")
        _, _, rows = parse_csv(out)
        assert len(rows) == 4


class TestSeries:
    def test_h_coefficients(self, capsys):
        code, out = run_cli(capsys, "series", "--law", SYM_PATH,
                            "--what", "h", "--order", "5")
        assert code == 0
        _, _, rows = parse_csv(out)
        assert float(rows[1][1]) == 0.5  # leading coefficient is q

    def test_returns(self, capsys):
        code, out = run_cli(capsys, "series", "--law", SYM_PATH,
                            "--what", "returns", "--order", "8")
        assert code == 0
        _, _, rows = parse_csv(out)
        assert float(rows[0][1]) == 1.0
        assert float(rows[2][1]) == 0.5

    def test_nonfinite_coefficients_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr(fixed_point, "series_mul",
                            lambda a, b, order: np.full(order + 1, np.nan))
        assert main(["series", "--law", SYM_PATH, "--what", "h"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numeric failure: coefficients must be finite\n"


class TestVerify:
    def test_passing_suite(self, capsys):
        code, out = run_cli(capsys, "verify", "--law", SYM_PATH,
                            "--suite", "h-limits")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert all(c["passed"] for c in doc["checks"])

    def test_failing_suite_prints_report_and_exits_1(self, capsys,
                                                     monkeypatch):
        failed = verify.Check("forced", 0.0, 1.0, 0.0, False, "test")
        monkeypatch.setitem(verify._SUITE_FUNCS, "h-limits",
                            lambda law: [failed])
        code, out = run_cli(capsys, "verify", "--law", SYM_PATH,
                            "--suite", "h-limits")
        assert code == 1
        doc = json.loads(out)
        assert doc["passed"] is False
        assert doc["checks"] == [{"name": "forced", "target": 0.0,
                                  "observed": 1.0, "tolerance": 0.0,
                                  "passed": False, "provenance": "test"}]
        assert doc["meta"]["law_sha256"] == IncrementLaw.from_json(
            bundled_law_path("sym.json").read_text()).sha256()

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--law", SYM_PATH, "--suite", "nope"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("name", BUNDLED_LAWS)
    @pytest.mark.parametrize("suite", SUITES)
    def test_every_suite_round_trips_json(self, capsys, suite, name):
        code, out = run_cli(capsys, "verify", "--law",
                            str(bundled_law_path(name)), "--suite", suite)
        assert code == 0
        doc = json.loads(out)
        assert doc["suite"] == suite
        assert doc["passed"] is True
        assert all(c["passed"] is True for c in doc["checks"])


@pytest.mark.parametrize("argv", [
    ["rate", "--x", "0.5"],
    ["rate", "--grid", "0.2:0.8:2"],
    ["mdp"],
    ["oracle", "--n", "6", "--mode", "renewal"],
    ["simulate", "--n", "6", "--paths", "1000", "--seed", "4"],
    ["series", "--what", "returns", "--order", "6"],
    ["verify", "--suite", "mdp-constants"],
])
def test_every_output_carries_meta(capsys, argv):
    code, out = run_cli(capsys, *argv, "--law", SYM_PATH)
    assert code == 0
    if out.startswith("{"):
        meta = json.loads(out)["meta"]
    else:
        header = parse_csv(out)[0]
        meta = dict(line[2:].split("=", 1) for line in header)
    expected = {"law_sha256": IncrementLaw.from_json(
        bundled_law_path("sym.json").read_text()).sha256(),
        "version": recordwalk.__version__}
    if argv[0] == "simulate":  # a CSV header, so the seed reads as text
        expected["seed"] = "4"
    assert meta == expected


@pytest.mark.parametrize("argv, flag", [
    (["simulate", "--n", "0", "--paths", "1000", "--seed", "4"], "--n"),
    (["simulate", "--n", "6", "--paths", "1000", "--seed", "4",
      "--workers", "0"], "--workers"),
    (["series", "--what", "tau", "--order", "0"], "--order"),
    # a grid of 0 points printed the CSV header alone and exited 0
    (["rate", "--grid", "0.1:0.9:0"], "--grid"),
])
def test_nonpositive_count_is_usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--law", SYM_PATH])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{flag}: must be >= 1" in err


@pytest.mark.parametrize("seed", ["-1", str(2**128)])
def test_out_of_range_seed_is_usage_error(capsys, seed):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--law", SYM_PATH, "--n", "6", "--paths", "1000",
              "--seed", seed])
    assert exc.value.code == 2
    assert "--seed: must be" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:.*below 10/paths")
def test_largest_seed_is_accepted(capsys):
    code, out = run_cli(capsys, "simulate", "--law", SYM_PATH, "--n", "6",
                        "--paths", "1000", "--seed", str(2**128 - 1))
    assert code == 0
    assert f"# seed={2**128 - 1}" in out


@pytest.mark.parametrize("paths", [500, 0, -5])
def test_too_few_paths_is_usage_error(capsys, paths):
    # SimConfig owns the 10^3 rule; main maps its typed error to 2
    code = main(["simulate", "--law", SYM_PATH, "--n", "6", "--paths",
                 str(paths), "--seed", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"need at least 10^3 paths, got {paths}" in captured.err


def test_emit_writes_nested_nonfinite_floats_as_strings(capsys):
    _emit({"a": [1.0, {"b": math.inf}], "c": (math.nan, -math.inf)},
          {"version": "v"})
    out = capsys.readouterr().out

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    doc = json.loads(out, parse_constant=reject)
    assert doc == {"a": [1.0, {"b": "inf"}], "c": ["nan", "-inf"],
                   "meta": {"version": "v"}}


def _repr_csv(payload, meta):
    """A (columns, rows) table as the writer wrote it with each float's repr
    and every other value's str."""
    columns, rows = payload
    lines = [f"# {k}={meta[k]}" for k in sorted(meta)]
    lines.append(",".join(columns))
    lines.extend(",".join(repr(v) if isinstance(v, float) else str(v)
                          for v in row) for row in rows)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("argv", [
    ["oracle", "--n", "30", "--mode", "dp"],
    ["oracle", "--n", "30", "--mode", "renewal"],
    ["simulate", "--n", "20", "--paths", "2000", "--seed", "5"],
    ["rate", "--grid", "0.001:1:40"],
    ["series", "--what", "tau", "--order", "64"],
])
def test_csv_bytes_equal_the_repr_writer(capsys, argv):
    # each row's format string gives the bytes of the per-value repr writer,
    # on the tables as the commands build them plus rows of -0.0, inf, nan
    # and the smallest subnormal in every float column
    argv = [argv[0], "--law", STABLE_PATH, *argv[1:]]
    args = build_parser().parse_args(argv)
    law = IncrementLaw.from_json(Path(STABLE_PATH).read_text())
    columns, rows = args.func(law, args)
    specials = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16, 0.1]
    for v in specials:
        rows.append(tuple(v if isinstance(x, float) else x for x in rows[-1]))
    assert all(x.__class__ in (int, float, str) for row in rows for x in row)
    meta = {"law_sha256": law.sha256(), "version": recordwalk.__version__}
    _emit((columns, rows), meta)
    out = capsys.readouterr().out
    assert out == _repr_csv((columns, rows), meta)
    assert all(f",{v!r}" in out for v in specials)


def test_one_parser_serves_a_sequence_of_calls(capsys):
    # main builds its parser once per process; a usage error and another
    # subcommand in between leave the next rate call's output unchanged
    assert build_parser() is build_parser()
    argv = ["rate", "--law", SYM_PATH, "--x", "0.3"]
    code, first = run_cli(capsys, *argv)
    assert code == 0
    with pytest.raises(SystemExit) as exc:
        main(["rate", "--law", SYM_PATH, "--x", "0.5", "--grid", "0:1:3"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out = run_cli(capsys, "oracle", "--law", SYM_PATH, "--n", "6",
                        "--mode", "dp")
    assert code == 0 and parse_csv(out)[1][0] == "k"
    code, again = run_cli(capsys, *argv)
    assert code == 0
    assert again == first


def test_runs_as_module():
    src = str(Path(recordwalk.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "recordwalk", "oracle", "--law", SYM_PATH,
         "--n", "5", "--mode", "dp"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    _, header, rows = parse_csv(proc.stdout)
    assert header[0] == "k" and len(rows) == 6


class TestErrors:
    def test_missing_law_file(self, capsys):
        assert main(["rate", "--law", "/no/such/file.json", "--x", "0.5"]) == 2

    def test_invalid_law_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"orientation": "right", "spec": {"type": "explicit", '
            '"q": 0.5, "p": [0.1, 0.4]}}'
        )
        assert main(["rate", "--law", str(bad), "--x", "0.5"]) == 2

    @pytest.mark.parametrize("text", [
        b'{"orientation": "right", "spec": {"type": "explicit", '
        b'"q": NaN, "p": [0.0, 0.5]}}',
        b'{"orientation": "right", "spec": {"type": "explicit", '
        b'"q": 0.5, "p": [0.0, NaN]}}',
        b'{"orientation": "right"}',
        b'{"orientation": "right", "spec": {"type": "explicit", '
        b'"q": 0.5, "p": 5}}',
        b'[{"orientation": "right"}]',
        b'{"orientation": "up", "spec": {"type": "explicit", '
        b'"q": 0.5, "p": [0.0, 0.5]}}',
        b'[tool]\nname = "not json"\n',
        b'\xff\xfe\x00 not text',
    ], ids=["q-nan", "p-nan", "no-spec", "p-scalar", "top-level-list",
            "bad-orientation", "not-json", "not-utf8"])
    def test_malformed_law_file(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_bytes(text)
        assert main(["rate", "--law", str(bad), "--x", "0.5"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_directory_as_law(self, tmp_path, capsys):
        assert main(["rate", "--law", str(tmp_path), "--x", "0.5"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["rate", "--x", "0.5"], ["mdp"], ["mdp", "--numeric"],
        ["oracle", "--mode", "dp", "--n", "20"],
        ["verify", "--suite", "legendre"],
    ], ids=" ".join)
    @pytest.mark.parametrize("side", ["right", "left"])
    def test_law_without_a_jump_of_size_one_or_more(self, tmp_path, capsys,
                                                   side, argv):
        # its drift q = 1e-12 is within the criticality tolerance; the rate
        # layer divided by zero on it before validation rejected it
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"orientation": side, "spec": {
            "type": "explicit", "q": 1e-12, "p": [0.999999999999]}}))
        assert main([argv[0], "--law", str(bad), *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "p_n > 0 with n >= 1" in err
        assert "Traceback" not in err
