"""Report renderers: golden bytes against the generic encoders, CSV round trips."""

import csv
import io
import json
import math

import pytest

from orliczlab import LogReal, ZERO
from orliczlab.cli import SuiteConfig, run_suite
from orliczlab.reports import CSV_COLUMNS, CheckRow, Report, emit_report


# -- the generic route, kept as the oracle ------------------------------------


def _jsonable(value):
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if hasattr(value, "render"):
        return value.render()
    return value


def json_oracle(report: Report) -> str:
    payload = {
        "name": report.name,
        "summary": _jsonable(report.summary),
        "rows": [_jsonable(r.as_record()) for r in report.rows],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def csv_oracle(report: Report) -> str:
    """The cell loop over row records; right for cells without line breaks."""
    buf = io.StringIO()
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for row in report.rows:
        rec = row.as_record()
        cells = []
        for col in CSV_COLUMNS:
            text = _cell(rec[col])
            if "," in text or '"' in text:
                text = '"' + text.replace('"', '""') + '"'
            cells.append(text)
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()


# -- the reports under test ----------------------------------------------------


def _cli_reports(tmp_path):
    """The seven CLI commands at the inputs of acceptance criterion 10."""
    squares = tmp_path / "squares.fn"
    squares.write_text("kind = pow2_poly\na = 1\nb = 0\nc = 0\n", encoding="utf-8")
    ce = tmp_path / "ce.fn"
    ce.write_text("kind = counterexample\ndepth = 20\n", encoding="utf-8")
    vec = tmp_path / "v.vec"
    vec.write_text("3 1 0.25\n", encoding="utf-8")
    sq, cf = str(squares), str(ce)
    configs = [
        SuiteConfig("norm", function_path=sq, vector_path=str(vec)),
        SuiteConfig("renorm", function_path=sq, m=1, depth=10),
        SuiteConfig("claims", function_path=cf, depth=20, k_list=[2, 4, 8, 16]),
        SuiteConfig("ratio-bound", function_path=cf, m=2, depth=10),
        SuiteConfig("probe", function_path=sq, depth=15),
        SuiteConfig("cq", function_path=sq, q=3.0, m=10, depth=10),
        SuiteConfig("norming-family", function_path=sq, seed=17),
    ]
    return [run_suite(c) for c in configs]


def _edge_reports():
    big = LogReal.from_log2(1e6)
    return [
        Report(name="empty"),
        Report(name="empty-rows", summary={"note": "no rows", "n": 0}),
        Report(
            name="indices",
            rows=[
                CheckRow(check="none"),
                CheckRow(check="one", indices=(7,), lhs_log2=0.5),
                CheckRow(check="two", indices=(0, -3), rhs_log2=-1.25, passed=False),
                CheckRow(check="three", indices=(1, 2, 3), margin_log2=1e-300),
                CheckRow(check="list", indices=[5, 6]),
            ],
        ),
        Report(
            name="non-finite",
            rows=[
                CheckRow(check="inf", lhs_log2=-math.inf, rhs_log2=math.inf, margin_log2=math.nan),
                CheckRow(check="zeros", lhs_log2=-0.0, rhs_log2=0.0, margin_log2=5e-324),
                CheckRow(check="ints", lhs_log2=3, rhs_log2=-2, margin_log2=True, passed=0),
            ],
        ),
        Report(
            name="rendered",
            rows=[
                CheckRow(check="logreal", indices=(big, ZERO), lhs_log2=big.log2mag),
                CheckRow(check="str", indices=("a,b", 'q"t', "é"), note="x"),
                CheckRow(check="nested", indices=([1, [2, 3]], {"k": (4, None)}, ())),
            ],
            summary={"value": big, "pair": (1, 2.5), "none": None, 3: "int key"},
        ),
        Report(
            name="text ü",
            rows=[
                CheckRow(check='qu"ote, comma', note="naïve — ∞, \"x\""),
                CheckRow(check="ctrl\ttab\x01", note=" \U0001f600"),
            ],
            summary={"witness": 'a "b", c', "ü": ["\x7f", "\\"]},
        ),
    ]


def _all_reports(tmp_path):
    return _cli_reports(tmp_path) + _edge_reports()


class TestGoldenBytes:
    def test_json_matches_generic_encoder(self, tmp_path):
        for rep in _all_reports(tmp_path):
            assert emit_report(rep, "json") == json_oracle(rep), rep.name

    def test_csv_matches_cell_loop(self, tmp_path):
        for rep in _all_reports(tmp_path):
            assert emit_report(rep, "csv") == csv_oracle(rep), rep.name

    def test_cli_reports_cover_every_command(self, tmp_path):
        reports = _cli_reports(tmp_path)
        assert [r.name for r in reports] == [
            "norm", "renorm", "claims", "ratio-bound", "probe", "cq", "norming-family",
        ]
        assert all(r.rows for r in reports)


class TestCheckRow:
    def test_more_than_three_indices_rejected(self):
        # the renderers have three index columns; a fourth index has no cell
        with pytest.raises(ValueError, match="at most 3 indices"):
            CheckRow(check="four", indices=(1, 2, 3, 4))


class TestCsvRoundTrip:
    @pytest.mark.parametrize(
        "text",
        ["a,b", 'say "hi"', "line\nbreak", "carriage\rreturn", "crlf\r\n", "\n", "ü ∞ 😀",
         'all, "of"\r\nthem é'],
    )
    def test_cells_survive_csv_reader(self, text):
        rep = Report(
            name="rt",
            rows=[
                CheckRow(check=text, indices=(1, 2), lhs_log2=0.25, note=text),
                CheckRow(check="plain", note=text + text, passed=False),
            ],
        )
        out = emit_report(rep, "csv")
        rows = list(csv.reader(io.StringIO(out, newline="")))
        assert rows[0] == CSV_COLUMNS
        assert rows[1:] == [
            [text, "1", "2", "", "0.25", "", "", "1", text],
            ["plain", "", "", "", "", "", "", "0", text + text],
        ]
