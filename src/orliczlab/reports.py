"""Check reports and their CSV / JSON / text renderings.

A report is a list of rows, one per verified inequality or computed value,
plus a free-form summary.  Rows carry both sides of the check in log2 form and
the margin, so every failure comes with its witness.  Emission is
deterministic: fixed column order, repr-formatted floats, '\n' newlines.

The JSON rendering is byte for byte `json.dumps(payload, indent=2,
sort_keys=True) + "\n"` of {"name", "rows": [one record per row], "summary"},
but writes each row straight from its fields; tests/test_reports.py pins it
against that generic route.  A CSV cell is quoted when it holds ',', '"',
'\n' or '\r', with '"' doubled, so every row stays one record.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path

CSV_COLUMNS = [
    "check",
    "idx1",
    "idx2",
    "idx3",
    "lhs_log2",
    "rhs_log2",
    "margin_log2",
    "passed",
    "note",
]


@dataclass
class CheckRow:
    check: str
    indices: tuple = ()
    lhs_log2: float | None = None
    rhs_log2: float | None = None
    margin_log2: float | None = None
    passed: bool = True
    note: str = ""

    def __post_init__(self) -> None:
        if len(self.indices) > 3:
            raise ValueError(f"a check row has at most 3 indices, got {self.indices!r}")

    def as_record(self) -> dict[str, object]:
        idx = list(self.indices) + [None] * (3 - len(self.indices))
        return {
            "check": self.check,
            "idx1": idx[0],
            "idx2": idx[1],
            "idx3": idx[2],
            "lhs_log2": self.lhs_log2,
            "rhs_log2": self.rhs_log2,
            "margin_log2": self.margin_log2,
            "passed": self.passed,
            "note": self.note,
        }


@dataclass
class Report:
    name: str
    rows: list[CheckRow] = field(default_factory=list)
    summary: dict[str, object] = field(default_factory=dict)

    @property
    def failures(self) -> list[CheckRow]:
        return [r for r in self.rows if not r.passed]

    @property
    def passed_all(self) -> bool:
        return not self.failures


def _csv_cell(value: object) -> str:
    if type(value) is float:
        return repr(value)  # digits, sign, '.', 'e', 'inf' or 'nan': never quoted
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    text = repr(value) if isinstance(value, float) else str(value)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


_CSV_HEADER = ",".join(CSV_COLUMNS)


def render_csv(report: Report) -> str:
    lines = [_CSV_HEADER]
    for row in report.rows:
        idx = (*row.indices, None, None, None)
        cells = (row.check, idx[0], idx[1], idx[2], row.lhs_log2, row.rhs_log2,
                 row.margin_log2, row.passed, row.note)
        lines.append(",".join([_csv_cell(v) for v in cells]))
    lines.append("")
    return "\n".join(lines)


def _jsonable(value: object) -> object:
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if hasattr(value, "render"):
        return value.render()  # LogReal and friends
    return value


def _json_value(value: object, depth: int) -> str:
    """`value` as json.dumps(indent=2, sort_keys=True) lays it out at nesting `depth`."""
    text = json.dumps(_jsonable(value), indent=2, sort_keys=True)
    return text.replace("\n", "\n" + "  " * depth)


def _json_cell(value: object) -> str:
    """One row cell, spelled as json.dumps spells it inside a row object."""
    kind = type(value)
    if kind is float:
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    return _json_value(value, 3)  # LogReal and other rendered values, containers


# rows sit at nesting depth 2 of the payload, their fields (sorted) at depth 3
_JSON_ROW = (
    '    {\n      "check": %s,\n      "idx1": %s,\n      "idx2": %s,\n      "idx3": %s,\n'
    '      "lhs_log2": %s,\n      "margin_log2": %s,\n      "note": %s,\n'
    '      "passed": %s,\n      "rhs_log2": %s\n    }'
)


def _json_row(row: CheckRow) -> str:
    idx = (*row.indices, None, None, None)
    cells = (row.check, idx[0], idx[1], idx[2], row.lhs_log2, row.margin_log2,
             row.note, row.passed, row.rhs_log2)
    return _JSON_ROW % tuple([_json_cell(v) for v in cells])


def render_json(report: Report) -> str:
    """json.dumps(payload, indent=2, sort_keys=True) + "\n", one row at a time."""
    rows = ",\n".join([_json_row(row) for row in report.rows])
    return (
        '{\n  "name": ' + _json_value(report.name, 1)
        + ',\n  "rows": [' + ("\n" + rows + "\n  " if rows else "")
        + '],\n  "summary": ' + _json_value(report.summary, 1) + "\n}\n"
    )


def render_text(report: Report) -> str:
    lines = [f"report: {report.name}"]
    for key in sorted(report.summary, key=str):
        value = str(report.summary[key])
        if "\n" in value:
            lines.append(f"  {key} =")
            lines.extend("    " + part for part in value.splitlines())
        else:
            lines.append(f"  {key} = {value}")
    by_check: dict[str, list[int]] = {}  # check -> [rows, failures]
    failed: list[CheckRow] = []
    for row in report.rows:
        counts = by_check.setdefault(row.check, [0, 0])
        counts[0] += 1
        if not row.passed:
            counts[1] += 1
            failed.append(row)
    lines.append(f"  rows: {len(report.rows)}, failures: {len(failed)}")
    for check in sorted(by_check):
        total, fails = by_check[check]
        status = "ok" if fails == 0 else f"{fails} FAILED"
        lines.append(f"  [{check}] {total} checks: {status}")
    for row in failed[:50]:
        lines.append(
            f"  FAIL [{row.check}] at {row.indices}: "
            f"lhs_log2={row.lhs_log2} rhs_log2={row.rhs_log2} {row.note}"
        )
    return "\n".join(lines) + "\n"


_RENDERERS = {"csv": render_csv, "json": render_json, "text": render_text}

FORMATS = tuple(_RENDERERS)


def emit_report(report: Report, fmt: str, path: str | Path | None = None) -> str:
    """Render a report and optionally write it; returns the rendered text."""
    if fmt not in _RENDERERS:
        raise ValueError(f"unsupported format {fmt!r}; choose from {FORMATS}")
    text = _RENDERERS[fmt](report)
    if path is not None:
        Path(path).write_text(text, encoding="utf-8", newline="")
    return text
