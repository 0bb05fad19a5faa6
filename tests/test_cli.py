"""Command-line interface: subcommands, output formats, exit codes."""

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import recordwalk
from recordwalk import (SUITES, IncrementLaw, bundled_law_path, fixed_point,
                        verify)
from recordwalk.cli import _emit, _load_law, build_parser, main
from support import BUNDLED_LAWS, bundled_law, parse_csv, run_cli

SYM_PATH = str(bundled_law_path("sym.json"))
STABLE_PATH = str(bundled_law_path("stable_g05_b05.json"))


class TestRate:
    def test_single_point_json(self):
        code, out, _ = run_cli("rate", "--law", SYM_PATH, "--x", "0.5")
        assert code == 0
        doc = json.loads(out)
        assert doc["x"] == 2.0
        assert doc["ldp_rate"] > 0.0
        assert doc["lambda"] < 0.0
        law = bundled_law("sym.json")
        assert doc["meta"]["law_sha256"] == law.sha256()

    def test_grid_csv(self):
        code, out, _ = run_cli("rate", "--law", SYM_PATH,
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

    def test_full_density_prints_strict_json(self):
        code, out, _ = run_cli("rate", "--law", SYM_PATH, "--x", "1")
        assert code == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        doc = json.loads(out, parse_constant=reject)
        assert doc["lambda"] == doc["Lambda"] == "-inf"
        assert doc["ldp_rate"] == doc["Lambda_star"] > 0.0

    @pytest.mark.parametrize("name", BUNDLED_LAWS)
    @pytest.mark.parametrize("x", ["1e-6", "1e-12", "1e-300"])
    def test_tiny_density_gives_a_finite_nonnegative_rate(self, name, x):
        code, out, _ = run_cli("rate", "--law",
                               str(bundled_law_path(name)), "--x", x)
        assert code == 0
        rate = json.loads(out)["ldp_rate"]
        assert isinstance(rate, float) and 0.0 <= rate < 1.0


class TestMdp:
    def test_closed_form(self):
        code, out, _ = run_cli("mdp", "--law", SYM_PATH)
        assert code == 0
        doc = json.loads(out)
        assert doc["alpha"] == 0.5
        assert doc["regime"] == "FiniteVariance"
        assert doc["rate_exponent"] == 2.0

    def test_numeric(self):
        code, out, _ = run_cli("mdp", "--law", STABLE_PATH, "--numeric")
        assert code == 0
        doc = json.loads(out)
        assert doc["regime"] == "NumericEstimate"
        assert abs(doc["alpha"] - 1.0 / 3.0) < 0.01


class TestOracle:
    def test_modes_agree(self):
        code_dp, out_dp, _ = run_cli("oracle", "--law", SYM_PATH,
                                     "--n", "10", "--mode", "dp")
        code_rn, out_rn, _ = run_cli("oracle", "--law", SYM_PATH,
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
    def test_byte_identical_reruns_and_workers(self):
        args = ["simulate", "--law", SYM_PATH, "--n", "10",
                "--paths", "20000", "--seed", "9"]
        _, first, _ = run_cli(*args)
        _, second, _ = run_cli(*args)
        _, eight, _ = run_cli(*args, "--workers", "8")
        assert first == second == eight
        meta, header, rows = parse_csv(first)
        assert any("seed=9" in m for m in meta)
        assert header == ["k", "estimate", "ci_lo", "ci_hi"]
        assert float(rows[0][1]) == 1.0

    DRAW_DIGESTS = {
        "asym.json":
        "33fb26b953c12e41b8a8f04392a18233067512eb170106dd3ed722f9d056e22c",
        "stable_g05_b05.json":
        "4ccd7af1933c1d43ae0ef7bfc7c3c816b8856d9e22738364d59276da9f9d4814",
        "stable_g05_b05_left.json":
        "fac864f62dbcef93ca94224406a014dcf4aafd489f127e44b85360f0e1b595c2",
        "sym.json":
        "fc2ed0a8f11b528768dd47e02dc72b43e5ecbfd1e321b3fb8fb11974e54fd782",
        "sym_left.json":
        "76c94c3a1abc99509836d1783ea29f35c6a54737409b59fa83bbccbe93a7b175",
    }

    # ids are the law names alone, so a re-pinned digest renames no test
    @pytest.mark.parametrize("name, digest", DRAW_DIGESTS.items(),
                             ids=list(DRAW_DIGESTS))
    @pytest.mark.filterwarnings("ignore:.*below 10/paths")
    def test_draws_are_pinned(self, name, digest):
        # SHA-256 of the CSV rows without the `#` header, which carries the
        # version: any change to the stream, the sampler or the record count
        # moves it.
        _, out, _ = run_cli("simulate", "--law",
                            str(bundled_law_path(name)), "--n", "60",
                            "--paths", "16384", "--seed", "11",
                            "--workers", "2")
        rows = "".join(l for l in out.splitlines(keepends=True)
                       if not l.startswith("#"))
        assert hashlib.sha256(rows.encode()).hexdigest() == digest

    def test_kmax_limits_rows(self):
        with pytest.warns(RuntimeWarning, match="below 10/paths"):
            _, out, _ = run_cli("simulate", "--law", SYM_PATH, "--n", "10",
                                "--paths", "2000", "--seed", "1", "--kmax",
                                "3")
        _, _, rows = parse_csv(out)
        assert len(rows) == 4


class TestSeries:
    def test_h_coefficients(self):
        code, out, _ = run_cli("series", "--law", SYM_PATH,
                               "--what", "h", "--order", "5")
        assert code == 0
        _, _, rows = parse_csv(out)
        assert float(rows[1][1]) == 0.5  # leading coefficient is q

    def test_returns(self):
        code, out, _ = run_cli("series", "--law", SYM_PATH,
                               "--what", "returns", "--order", "8")
        assert code == 0
        _, _, rows = parse_csv(out)
        assert float(rows[0][1]) == 1.0
        assert float(rows[2][1]) == 0.5

    def test_nonfinite_coefficients_exit_1(self, capsys, monkeypatch):
        coefficients = fixed_point.expand_coefficients
        monkeypatch.setattr(fixed_point, "expand_coefficients",
                            lambda law, n: coefficients(law, n) * np.nan)
        assert main(["series", "--law", SYM_PATH, "--what", "h"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numeric failure: coefficients must be finite\n"


class TestVerify:
    def test_passing_suite(self):
        code, out, _ = run_cli("verify", "--law", SYM_PATH,
                               "--suite", "h-limits")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert all(c["passed"] for c in doc["checks"])

    def test_failing_suite_prints_report_and_exits_1(self, monkeypatch):
        failed = verify.Check("forced", 0.0, 1.0, 0.0, False, "test")
        monkeypatch.setitem(verify._SUITE_FUNCS, "h-limits",
                            lambda law: [failed])
        code, out, _ = run_cli("verify", "--law", SYM_PATH,
                               "--suite", "h-limits")
        assert code == 1
        doc = json.loads(out)
        assert doc["passed"] is False
        assert doc["checks"] == [{"name": "forced", "target": 0.0,
                                  "observed": 1.0, "tolerance": 0.0,
                                  "passed": False, "provenance": "test"}]
        assert doc["meta"]["law_sha256"] == bundled_law("sym.json").sha256()

    def test_underflowing_tail_is_one_line_and_exit_1(self, tmp_path):
        # ldp-trend's P(A_800 >= 400) of the stable law gamma = 0.98,
        # beta = 0.03, left, is 0 in double: the one stderr line names it
        law = tmp_path / "law.json"
        law.write_text(IncrementLaw.stable("left", 0.98, 0.03).to_json())
        code, out, err = run_cli("verify", "--law", str(law),
                                 "--suite", "ldp-trend")
        assert code == 1 and out == ""
        assert err == ("numeric failure: P(A_800 >= 400) underflows to 0 "
                       "in double\n")

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--law", SYM_PATH, "--suite", "nope"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("name", BUNDLED_LAWS)
    @pytest.mark.parametrize("suite", SUITES)
    def test_every_suite_round_trips_json(self, suite, name):
        code, out, _ = run_cli("verify", "--law",
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
def test_every_output_carries_meta(argv):
    code, out, _ = run_cli(*argv, "--law", SYM_PATH)
    assert code == 0
    if out.startswith("{"):
        meta = json.loads(out)["meta"]
    else:
        header = parse_csv(out)[0]
        meta = dict(line[2:].split("=", 1) for line in header)
    expected = {"law_sha256": bundled_law("sym.json").sha256(),
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
def test_largest_seed_is_accepted():
    code, out, _ = run_cli("simulate", "--law", SYM_PATH, "--n", "6",
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
    law = bundled_law("stable_g05_b05.json")
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
    code, first, _ = run_cli(*argv)
    assert code == 0
    with pytest.raises(SystemExit) as exc:
        main(["rate", "--law", SYM_PATH, "--x", "0.5", "--grid", "0:1:3"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run_cli("oracle", "--law", SYM_PATH, "--n", "6",
                           "--mode", "dp")
    assert code == 0 and parse_csv(out)[1][0] == "k"
    code, again, _ = run_cli(*argv)
    assert code == 0
    assert again == first


def test_load_law_shares_one_object_for_equal_bytes():
    data = bundled_law_path("asym.json").read_bytes()
    law, digest = _load_law(data)
    assert _load_law(bytes(bytearray(data)))[0] is law
    assert law == IncrementLaw.from_json(data)
    assert digest == law.sha256()
    # library callers still build a fresh law from each from_json call
    assert IncrementLaw.from_json(data) is not IncrementLaw.from_json(data)


def test_law_file_rewritten_in_place_is_loaded_again(tmp_path):
    path = str(tmp_path / "law.json")
    argv = ["rate", "--law", path, "--x", "0.3"]
    outputs = {}
    for name in ("sym.json", "asym.json"):
        Path(path).write_bytes(bundled_law_path(name).read_bytes())
        code, outputs[name], _ = run_cli(*argv)
        assert code == 0
        code, direct, _ = run_cli("rate", "--law",
                                  str(bundled_law_path(name)), "--x", "0.3")
        assert code == 0 and outputs[name] == direct
        law = bundled_law(name)
        assert json.loads(outputs[name])["meta"]["law_sha256"] == law.sha256()
    assert outputs["sym.json"] != outputs["asym.json"]


def test_malformed_file_where_a_good_law_was_exits_2_every_call(capsys,
                                                                tmp_path):
    path = tmp_path / "law.json"
    path.write_bytes(bundled_law_path("sym.json").read_bytes())
    argv = ["rate", "--law", str(path), "--x", "0.5"]
    assert run_cli(*argv)[0] == 0
    path.write_text('{"orientation": "right", "spec": {"type": "explicit"')
    for _ in range(2):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err


def test_two_paths_with_equal_bytes_share_one_cache_entry(tmp_path):
    data = bundled_law_path("sym_left.json").read_bytes()
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        path.write_bytes(data)
    _load_law.cache_clear()
    outs = [run_cli("mdp", "--law", str(path)) for path in paths]
    assert outs[0] == outs[1] and outs[0][0] == 0
    info = _load_law.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


@pytest.mark.filterwarnings("ignore:.*below 10/paths")
@pytest.mark.parametrize("argv", [
    ["rate", "--x", "0.3"],
    ["rate", "--grid", "1e-300:1:5"],
    ["mdp"],
    ["mdp", "--numeric"],
    ["oracle", "--n", "12", "--mode", "dp"],
    ["oracle", "--n", "12", "--mode", "renewal"],
    ["series", "--what", "tau", "--order", "32"],
    ["simulate", "--n", "12", "--paths", "1000", "--seed", "7",
     "--workers", "1"],
    ["simulate", "--n", "12", "--paths", "1000", "--seed", "7",
     "--workers", "2"],
    ["verify", "--suite", "lambda-limits"],
])
@pytest.mark.parametrize("name", BUNDLED_LAWS)
def test_cold_and_warm_law_cache_print_the_same_bytes(name, argv):
    # a law loaded afresh, the same law from the cache, and the cached law
    # after a call on another law print the same stdout bytes
    path = str(bundled_law_path(name))
    other = str(bundled_law_path(
        BUNDLED_LAWS[(BUNDLED_LAWS.index(name) + 1) % len(BUNDLED_LAWS)]))
    _load_law.cache_clear()
    cold = run_cli(argv[0], "--law", path, *argv[1:])
    warm = run_cli(argv[0], "--law", path, *argv[1:])
    assert _load_law.cache_info().hits == 1
    assert run_cli(argv[0], "--law", other, *argv[1:])[0] == 0
    again = run_cli(argv[0], "--law", path, *argv[1:])
    assert cold[0] == 0
    assert cold == warm == again


def _module_env(**extra):
    """The environment in which `python -m recordwalk` runs this source."""
    src = str(Path(recordwalk.__file__).resolve().parents[1])
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_runs_as_module():
    proc = subprocess.run(
        [sys.executable, "-m", "recordwalk", "oracle", "--law", SYM_PATH,
         "--n", "5", "--mode", "dp"],
        env=_module_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    _, header, rows = parse_csv(proc.stdout)
    assert header[0] == "k" and len(rows) == 6


def _lower_address_space():
    """Run in the child alone: what `ulimit -v 1500000` sets, 1.43 GiB."""
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    resource.setrlimit(resource.RLIMIT_AS, (1500000 * 1024, hard))


@pytest.mark.parametrize("argv, shape", [
    (["oracle", "--mode", "dp", "--n", "30000"], "(30001, 30001)"),
    (["series", "--what", "tau", "--order", "400000000"], "(400000128,)"),
], ids=["oracle-dp", "series-tau"])
def test_out_of_memory_is_one_line_and_exit_1(argv, shape):
    # the DP kernel (6.71 GiB) and the h series (2.98 GiB, h through
    # s^400000001 in whole blocks of 128) do not fit under the child's own
    # address-space limit; neither command is run without it
    proc = subprocess.run(
        [sys.executable, "-m", "recordwalk", argv[0], "--law", SYM_PATH,
         *argv[1:]],
        env=_module_env(OPENBLAS_NUM_THREADS="1"), capture_output=True,
        text=True, timeout=120, preexec_fn=_lower_address_space)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and proc.stderr.endswith("\n")
    assert lines[0].startswith("out of memory: Unable to allocate ")
    assert f"shape {shape}" in lines[0]


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
