"""Command-line front door.

Subcommands dispatch to the library and emit a report in csv, json or text
form.  Exit status: 0 when every check passed, 1 on check failures or
infeasibility, 2 on usage or parse errors and an unwritable ``--out``, each
told in one line that names the option or input.  Given the same inputs and
seed, reruns produce byte-identical output.

File formats, bit-exactly:

* function files: ``key = value`` lines, ``#`` comments; ``kind`` selects
  ``list`` (plus ``slopes = <tokens>``), ``pow2_poly`` (plus ``a``/``b``/``c``)
  or ``counterexample`` (plus ``depth``); any other key is a parse error.
* vector files: whitespace-separated tokens, one coordinate per token in
  index order starting at 1; a token is a decimal (``0.25``, ``-1.5e-3``) or
  a signed power of two (``2^-100``, ``-2^3.5``); zeros are dropped.
* config files: ``key = value`` lines whose keys are the `SuiteConfig` field
  names that `_OPTIONS` lists with their flags; explicit flags override.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .abstract_renorm import build_norming_family, check_precisely_norming
from .counterexample import (
    CounterexampleSequences,
    attainment_failure_probe,
    ratio_bound_check,
    verify_claims,
)
from .logreal import LogReal, Tolerance
from .orlicz import compute_cq, parse_function_spec, parse_key_values
from .renorm import (
    EtaInfeasibleError,
    EtaSequence,
    build_renorm_scheme,
    triple_norm,
)
from .reports import CheckRow, FORMATS, Report, emit_report
from .vectors import FiniteVector, luxemburg_norm

COMMANDS = ("norm", "renorm", "claims", "ratio-bound", "probe", "cq", "norming-family")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


@dataclass
class SuiteConfig:
    command: str
    function_path: str | None = None
    vector_path: str | None = None
    m: int = 1
    depth: int = 30
    k_list: list[int] = field(default_factory=lambda: [2, 4, 8, 16])
    q: float = 2.0
    seed: int = 0
    out: str | None = None
    fmt: str = "text"

    def __post_init__(self) -> None:
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}; choose from {COMMANDS}")
        if self.fmt not in FORMATS:
            raise ValueError(f"unknown format {self.fmt!r}; choose from {FORMATS}")
        for name in ("m", "depth"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} = {getattr(self, name)}: must be >= 1")
        if any(k < 2 for k in self.k_list):
            raise ValueError("k-list entries must be >= 2")


def _load_function(config: SuiteConfig):
    if not config.function_path:
        raise ValueError(f"command {config.command!r} needs --function FILE")
    return parse_function_spec(Path(config.function_path).read_text(encoding="utf-8"))


def _load_vector(config: SuiteConfig) -> FiniteVector:
    if not config.vector_path:
        raise ValueError(f"command {config.command!r} needs --vector FILE")
    return FiniteVector.parse(Path(config.vector_path).read_text(encoding="utf-8"))


def _sequences_for(M) -> CounterexampleSequences:
    src = M.slopes.source
    if not isinstance(src, CounterexampleSequences):
        raise ValueError("this command needs a function file with kind = counterexample")
    return src


def run_suite(config: SuiteConfig) -> Report:
    """Dispatch a configured command and return its report."""
    M = _load_function(config)
    if config.command == "norm":
        x = _load_vector(config)
        value = luxemburg_norm(M, x)
        row = CheckRow(
            check="luxemburg-norm",
            lhs_log2=value.log2mag if value.sign != 0 else -math.inf,
            note=f"value = {value.render()}",
        )
        return Report(
            name="norm",
            rows=[row],
            summary={"value": value.render(), "support": x.support_size},
        )

    if config.command == "renorm":
        scheme = build_renorm_scheme(M, config.m, config.depth)
        rows = [
            CheckRow(
                check="bk-table",
                indices=(k,),
                lhs_log2=scheme.bk_table[k].log2mag,
                note=f"eta = {scheme.eta(k)!r}",
            )
            for k in sorted(scheme.bk_table)
        ]
        return Report(
            name="renorm",
            rows=rows,
            summary={
                "m": scheme.m,
                "k_max": config.depth,
                "eta_rule": scheme.eta.description,
                "inconclusive": scheme.inconclusive_k,
                "scheme": scheme.render(),
            },
        )

    if config.command == "claims":
        return verify_claims(_sequences_for(M), config.depth, config.k_list)

    if config.command == "ratio-bound":
        return ratio_bound_check(_sequences_for(M), M, config.m, config.depth)

    if config.command == "probe":
        return attainment_failure_probe(M, EtaSequence.one_plus_pow2(), config.depth)

    if config.command == "cq":
        report = compute_cq(M, config.q, config.m, config.depth)
        rows = [
            CheckRow(
                check="power-weighted-ratio",
                indices=tuple(int(g) for g in grid),
                lhs_log2=value,
            )
            for grid, value in zip(report.grid, report.values_log2)
        ]
        return Report(
            name="cq",
            rows=rows,
            summary={
                "q": config.q,
                "sup_log2": report.supremum.log2mag,
                "arg_sup": report.arg_sup,
                "slope_bound_log2": report.aux["slope_bound_log2"],
                "trend": report.trend,
            },
        )

    if config.command == "norming-family":
        eta = EtaSequence.one_plus_pow2()

        def oracle(v: FiniteVector) -> LogReal:
            value, _ = triple_norm(M, eta, v)
            return value

        rng = random.Random(config.seed)
        rows = []
        for dim in (1, 2):
            W = build_norming_family(oracle, dim, eps=0.25, seed=config.seed)
            pts = []
            for _ in range(20):
                pts.append(
                    FiniteVector.from_floats(
                        [rng.uniform(-1, 1) for _ in range(dim)]
                    )
                )
            rep = check_precisely_norming(W, oracle, pts, Tolerance(rel=0.25))
            rows.append(
                CheckRow(
                    check="family-built",
                    indices=(dim, len(W)),
                    margin_log2=rep.summary["worst_gap_rel"],
                    passed=rep.summary["worst_gap_rel"] <= 0.25,
                    note=f"worst relative gap {rep.summary['worst_gap_rel']:.3e}",
                )
            )
        return Report(
            name="norming-family",
            rows=rows,
            summary={"seed": config.seed},
        )

    raise AssertionError(f"unhandled command {config.command}")


def _int_list(raw: str) -> list[int]:
    return [int(tok) for tok in raw.replace(",", " ").split()]


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be a finite number")
    return value


# SuiteConfig field -> (flag, reader of flag and config values, help, metavar)
_OPTIONS = {
    "function_path": ("--function", str, "function spec file", None),
    "vector_path": ("--vector", str, "vector file", None),
    "m": ("--m", int, "scaling exponent / first grid range", None),
    "depth": ("--depth", int, "scan depth / second grid range", None),
    "k_list": ("--k-list", _int_list, "comma-separated scaling factors", None),
    "q": ("--q", _finite_float, "power exponent for the cq scan", None),
    "seed": ("--seed", int, "seed for randomized suites", None),
    "out": ("--out", str, "output path (default stdout)", None),
    "fmt": ("--format", str, "output format", "{" + ",".join(FORMATS) + "}"),
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="orliczlab",
        description="Dyadic Orlicz norm laboratory: norms, renorm schemes and "
        "verification suites.",
    )
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--config", help="optional key=value config file; flags override")
    for key, (flag, _, help_, metavar) in _OPTIONS.items():
        p.add_argument(flag, dest=key, help=help_, metavar=metavar)
    return p


def _config_from_args(args: argparse.Namespace) -> SuiteConfig:
    flags = {key: raw for key in _OPTIONS if (raw := getattr(args, key)) is not None}
    lines = parse_key_values(Path(args.config).read_text(encoding="utf-8")) if args.config else {}
    values: dict[str, object] = {}
    for key, raw in [*flags.items(), *lines.items()]:
        if key not in _OPTIONS:
            raise ValueError(f"unknown config key {key!r}")
        try:
            value = _OPTIONS[key][1](raw)
        except ValueError as exc:
            raise ValueError(f"{key} = {raw!r}: {exc}") from None
        values.setdefault(key, value)  # flags come first and win
    return SuiteConfig(command=args.command, **values)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        report = run_suite(config)
        text = emit_report(report, config.fmt, config.out)
    except (ValueError, OSError) as exc:
        # a failed check exits 1, and so does an infeasible eta construction
        print(f"orliczlab: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED if isinstance(exc, EtaInfeasibleError) else EXIT_USAGE
    if config.out is None:
        sys.stdout.write(text)
    return EXIT_OK if report.passed_all else EXIT_CHECK_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
