"""Command-line front door: dispatch, exit codes, deterministic output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from orliczlab.cli import (
    _OPTIONS,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    SuiteConfig,
    _build_parser,
    _config_from_args,
    main,
)
from orliczlab.reports import CheckRow, Report, emit_report

IDENT_FN = "kind = pow2_poly\na = 0\nb = 0\nc = 0\n"
SQUARES_FN = "kind = pow2_poly\na = 1\nb = 0\nc = 0\n"
CE_FN = "kind = counterexample\ndepth = 20\n"


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, text in (
        ("ident.fn", IDENT_FN),
        ("squares.fn", SQUARES_FN),
        ("ce.fn", CE_FN),
        ("v.vec", "3 1\n"),
    ):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        paths[name] = str(p)
    return paths


class TestCommands:
    def test_norm_reports_value(self, files, capsys):
        code = main(["norm", "--function", files["ident.fn"], "--vector", files["v.vec"]])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "3.99999999999" in out or "4.0" in out

    @pytest.mark.parametrize("fn, vec", [
        (SQUARES_FN, "1 2^-3000000"),
        # the table cap is 4 000 000
        (SQUARES_FN, "1 2^-5000000"),
        # a n^2 overflows at n = 13408, far below the point's segment
        ("kind = pow2_poly\na = 1e300\n", "1 2^-20000"),
    ])
    def test_norm_past_the_horizon(self, tmp_path, capsys, fn, vec):
        # a coordinate more than 1 078 binades below the largest adds exact
        # zeros to the modular, so the norm is that of the largest alone
        (tmp_path / "f.fn").write_text(fn, encoding="utf-8")
        values = []
        for text in (vec, "1"):
            (tmp_path / "v.vec").write_text(text, encoding="utf-8")
            code = main(["norm", "--function", str(tmp_path / "f.fn"),
                         "--vector", str(tmp_path / "v.vec"), "--format", "json"])
            assert code == EXIT_OK
            values.append(json.loads(capsys.readouterr().out)["summary"]["value"])
        assert values[0] == values[1]

    def test_claims_all_pass(self, files, tmp_path):
        out = tmp_path / "claims.csv"
        code = main(
            [
                "claims",
                "--function",
                files["ce.fn"],
                "--depth",
                "20",
                "--k-list",
                "2,4",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        text = out.read_text()
        assert text.startswith("check,idx1,idx2,idx3,")
        assert "claim1-monotone" in text

    def test_renorm_infeasible_on_identity(self, files, capsys):
        code = main(["renorm", "--function", files["ident.fn"], "--m", "1", "--depth", "8"])
        err = capsys.readouterr().err
        assert code == EXIT_CHECK_FAILED
        assert "infeasible" in err

    def test_renorm_feasible_on_squares(self, files, capsys):
        code = main(["renorm", "--function", files["squares.fn"], "--m", "1", "--depth", "8"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "bk-table" in out

    def test_ratio_bound(self, files):
        code = main(["ratio-bound", "--function", files["ce.fn"], "--m", "2", "--depth", "10"])
        assert code == EXIT_OK

    def test_probe(self, files, tmp_path):
        out = tmp_path / "probe.json"
        code = main(
            [
                "probe",
                "--function",
                files["squares.fn"],
                "--depth",
                "12",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["name"] == "probe"
        assert payload["summary"]["verdict"] in ("stabilized", "strictly-increasing", "inconclusive")

    def test_cq(self, files):
        code = main(["cq", "--function", files["ident.fn"], "--q", "1", "--m", "6", "--depth", "6"])
        assert code == EXIT_OK

    def test_norming_family(self, files):
        code = main(["norming-family", "--function", files["squares.fn"], "--seed", "3"])
        assert code == EXIT_OK


class TestErrors:
    def test_unknown_command_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_function_file(self, tmp_path):
        code = main(["claims", "--function", str(tmp_path / "nope.fn"), "--depth", "10"])
        assert code == EXIT_USAGE

    def test_malformed_function_file(self, tmp_path):
        bad = tmp_path / "bad.fn"
        bad.write_text("kind = wavelet\n", encoding="utf-8")
        code = main(["norm", "--function", str(bad), "--vector", str(bad)])
        assert code == EXIT_USAGE

    def test_unknown_function_key(self, tmp_path):
        bad = tmp_path / "bad.fn"
        bad.write_text("kind = pow2_poly\na = 1\ntail_rel = 1e-16\n", encoding="utf-8")
        code = main(["cq", "--function", str(bad)])
        assert code == EXIT_USAGE

    def test_counterexample_depth_past_table_cap(self, tmp_path):
        deep = tmp_path / "deep.fn"
        deep.write_text("kind = counterexample\ndepth = 2827\n", encoding="utf-8")
        code = main(["claims", "--function", str(deep), "--depth", "10"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("command, fn, vec, named", [
        # log2 b(n) = -inf, a zero slope, from index 0
        ("norm", "kind = pow2_poly\nc = inf\n", "3 1", "slope at index 0 "),
        ("probe", "kind = pow2_poly\nc = inf\n", "3 1", "slope at index 0 "),
        # a n^2 overflows at n = 424, which the point 2^-1000 reaches; it lies
        # inside the walk's underflow horizon, so its segment is looked up
        ("norm", "kind = pow2_poly\na = 1e303\n", "1 2^-1000", "slope at index 424 "),
        # decimals outside the double range; 2^e tokens write them
        ("norm", IDENT_FN, "1 1e-400", "token '1e-400'"),
        ("norm", IDENT_FN, "1e400 1", "token '1e400'"),
        ("norm", IDENT_FN, "1 nan", "token 'nan'"),
        ("norm", IDENT_FN, "2^nan 1", "token '2^nan'"),
        ("norm", IDENT_FN, "1 2^abc", "token '2^abc'"),
        # M(t) >= 2^1e308 t on every segment the tables can reach
        ("norm", "kind = pow2_poly\nc = -1e308\n", "1 1", "below the supported scale"),
    ])
    def test_out_of_domain_input_is_named_in_one_line(
        self, tmp_path, capsys, command, fn, vec, named
    ):
        (tmp_path / "f.fn").write_text(fn, encoding="utf-8")
        (tmp_path / "v.vec").write_text(vec, encoding="utf-8")
        argv = [command, "--function", str(tmp_path / "f.fn")]
        if command == "norm":
            argv += ["--vector", str(tmp_path / "v.vec")]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith("orliczlab: ") and captured.err.count("\n") == 1
        assert named in captured.err

    def test_unknown_flag_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["norm", "--bogus", "1"])
        assert exc.value.code == EXIT_USAGE

    def test_unwritable_out_is_one_line(self, files, tmp_path, capsys):
        out = tmp_path / "no" / "dir" / "f.csv"
        code = main(["probe", "--function", files["squares.fn"], "--depth", "4", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith("orliczlab: ") and captured.err.count("\n") == 1
        assert str(out) in captured.err

    def test_claims_depth_past_the_declared_rows(self, files, capsys):
        # a depth-20 construction declares b up to index 231
        assert main(["claims", "--function", files["ce.fn"], "--depth", "231"]) == EXIT_OK
        capsys.readouterr()
        code = main(["claims", "--function", files["ce.fn"], "--depth", "232"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "j_max 232 " in captured.err and "max_b_index() is 231 " in captured.err

    @pytest.mark.parametrize("argv, named", [
        (["renorm", "--m", "0"], "m = 0: must be >= 1"),
        (["probe", "--m", "0"], "m = 0: must be >= 1"),
        (["renorm", "--depth", "0"], "depth = 0: must be >= 1"),
        (["cq", "--q", "nan"], "q = 'nan': must be a finite number"),
        (["cq", "--q", "inf"], "q = 'inf': must be a finite number"),
    ])
    def test_range_and_exponent_name_the_option(self, files, capsys, argv, named):
        code = main(argv + ["--function", files["squares.fn"]])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err == f"orliczlab: {named}\n"

    def test_claims_needs_counterexample_kind(self, files):
        code = main(["claims", "--function", files["ident.fn"], "--depth", "10"])
        assert code == EXIT_USAGE

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SuiteConfig(command="norm", fmt="xml")
        with pytest.raises(ValueError):
            SuiteConfig(command="bogus")
        with pytest.raises(ValueError):
            SuiteConfig(command="norm", m=0)


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, files, tmp_path):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text(
            f"function_path = {files['ce.fn']}\ndepth = 10\nk_list = 2 4\nfmt = csv\n",
            encoding="utf-8",
        )
        out = tmp_path / "r.csv"
        code = main(["claims", "--config", str(cfg), "--depth", "12", "--out", str(out)])
        assert code == EXIT_OK
        assert "claim2-alpha-shift" in out.read_text()

    def test_unknown_config_key(self, files, tmp_path):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text("wibble = 3\n", encoding="utf-8")
        code = main(["claims", "--config", str(cfg)])
        assert code == EXIT_USAGE


# per option: a value that does not read or is refused, and what the error
# line must contain; a path option's line names the path
MALFORMED = {
    "function_path": ("{tmp}/missing.fn", "{tmp}/missing.fn"),
    "vector_path": ("{tmp}/missing.vec", "{tmp}/missing.vec"),
    "m": ("x", "m = 'x': "),
    "depth": ("2.5", "depth = '2.5': "),
    "k_list": ("2,x", "k_list = '2,x': "),
    "q": ("two", "q = 'two': "),
    "seed": ("1e3", "seed = '1e3': "),
    "out": ("{tmp}/no/dir/r.txt", "{tmp}/no/dir/r.txt"),
    "fmt": ("xml", "unknown format 'xml'"),
}

# per option: a config value and a flag value, read, distinct from the default
SETTINGS = {
    "function_path": ("a.fn", "b.fn", "a.fn", "b.fn"),
    "vector_path": ("a.vec", "b.vec", "a.vec", "b.vec"),
    "m": ("3", "4", 3, 4),
    "depth": ("5", "6", 5, 6),
    "k_list": ("2 4", "3,5", [2, 4], [3, 5]),
    "q": ("1.5", "2.5", 1.5, 2.5),
    "seed": ("7", "8", 7, 8),
    "out": ("a.csv", "b.csv", "a.csv", "b.csv"),
    "fmt": ("csv", "json", "csv", "json"),
}


class TestOptions:
    def test_tables_cover_every_option(self):
        assert set(MALFORMED) == set(SETTINGS) == set(_OPTIONS)

    @pytest.mark.parametrize("key", sorted(MALFORMED))
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_malformed_value_is_named_in_one_line(self, files, tmp_path, capsys, key, source):
        bad, named = (v.format(tmp=tmp_path) for v in MALFORMED[key])
        values = {"function_path": files["squares.fn"], "vector_path": files["v.vec"], key: bad}
        argv = ["norm"]
        if source == "flag":
            for k, v in values.items():
                argv += [_OPTIONS[k][0], v]
        else:
            cfg = tmp_path / "suite.cfg"
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
            argv += ["--config", str(cfg)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith("orliczlab: ") and captured.err.count("\n") == 1
        assert named in captured.err

    @pytest.mark.parametrize("key", sorted(SETTINGS))
    def test_flag_and_config_line_set_each_option(self, tmp_path, key):
        in_config, in_flag, from_config, from_flag = SETTINGS[key]
        assert from_config != getattr(SuiteConfig("norm"), key) != from_flag
        cfg = tmp_path / "suite.cfg"
        cfg.write_text(f"{key} = {in_config}\n", encoding="utf-8")
        flag = [_OPTIONS[key][0], in_flag]
        for argv, want in (
            (flag, from_flag),
            (["--config", str(cfg)], from_config),
            (["--config", str(cfg)] + flag, from_flag),
        ):
            config = _config_from_args(_build_parser().parse_args(["norm"] + argv))
            assert getattr(config, key) == want


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["claims", "--function", "{ce}", "--depth", "15", "--k-list", "2,4"],
            ["ratio-bound", "--function", "{ce}", "--m", "1", "--depth", "8"],
            ["probe", "--function", "{squares}", "--depth", "10"],
            ["cq", "--function", "{squares}", "--q", "2", "--m", "5", "--depth", "5"],
            ["norming-family", "--function", "{squares}", "--seed", "11"],
        ],
    )
    def test_byte_identical_reruns(self, files, tmp_path, argv):
        outs = []
        for i in (0, 1):
            out = tmp_path / f"run{i}.csv"
            args = [
                a.replace("{ce}", files["ce.fn"]).replace("{squares}", files["squares.fn"])
                for a in argv
            ] + ["--format", "csv", "--out", str(out)]
            main(args)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestEmitReport:
    def test_empty_csv_is_header_only(self, tmp_path):
        rep = Report(name="empty")
        text = emit_report(rep, "csv", tmp_path / "e.csv")
        assert text == "check,idx1,idx2,idx3,lhs_log2,rhs_log2,margin_log2,passed,note\n"

    def test_json_sorted_and_complete(self):
        rep = Report(
            name="demo",
            rows=[CheckRow(check="c", indices=(1, 2), lhs_log2=0.5, passed=False, note="x")],
            summary={"b": 1, "a": 2},
        )
        payload = json.loads(emit_report(rep, "json"))
        assert payload["rows"][0]["idx2"] == 2
        assert payload["rows"][0]["passed"] is False

    def test_text_contains_check_tags_and_witness(self):
        rep = Report(
            name="demo",
            rows=[CheckRow(check="bound", indices=(3,), lhs_log2=1.0, rhs_log2=0.5, passed=False)],
        )
        text = emit_report(rep, "text")
        assert "[bound]" in text
        assert "FAIL" in text and "(3,)" in text

    def test_unsupported_format(self):
        with pytest.raises(ValueError):
            emit_report(Report(name="x"), "yaml")

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            emit_report(Report(name="x"), "csv", tmp_path / "no" / "dir" / "f.csv")


def test_library_and_cli_load_no_numpy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    code = "import sys, orliczlab, orliczlab.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
