"""Command-line front door.

Subcommands dispatch to the library and emit a report in csv, json or text
form.  Exit status: 0 when every check passed, 1 on check failures or
infeasibility, 2 on usage or parse errors.  Given the same inputs and seed,
reruns produce byte-identical output.

File formats, bit-exactly:

* function files: ``key = value`` lines, ``#`` comments; ``kind`` selects
  ``list`` (plus ``slopes = <tokens>``), ``pow2_poly`` (plus ``a``/``b``/``c``)
  or ``counterexample`` (plus ``depth``); any other key is a parse error.
* vector files: whitespace-separated tokens, one coordinate per token in
  index order starting at 1; a token is a decimal (``0.25``, ``-1.5e-3``) or
  a signed power of two (``2^-100``, ``-2^3.5``); zeros are dropped.
* config files: ``key = value`` lines with the long-flag names
  (``function_path``, ``vector_path``, ``m``, ``depth``, ``k_list``, ``q``,
  ``seed``, ``out``, ``fmt``); explicit flags override.
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
        if self.m < 1 or self.depth < 1:
            raise ValueError("ranges must be positive")
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
    if config.command == "norm":
        M = _load_function(config)
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
        M = _load_function(config)
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
        M = _load_function(config)
        seqs = _sequences_for(M)
        return verify_claims(seqs, config.depth, config.k_list)

    if config.command == "ratio-bound":
        M = _load_function(config)
        seqs = _sequences_for(M)
        return ratio_bound_check(seqs, M, config.m, config.depth)

    if config.command == "probe":
        M = _load_function(config)
        eta = EtaSequence.one_plus_pow2()
        return attainment_failure_probe(M, eta, config.depth)

    if config.command == "cq":
        M = _load_function(config)
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
        M = _load_function(config)
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


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="orliczlab",
        description="Dyadic Orlicz norm laboratory: norms, renorm schemes and "
        "verification suites.",
    )
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--config", help="optional key=value config file; flags override")
    p.add_argument("--function", dest="function_path", help="function spec file")
    p.add_argument("--vector", dest="vector_path", help="vector file")
    p.add_argument("--m", type=int, help="scaling exponent / first grid range")
    p.add_argument("--depth", type=int, help="scan depth / second grid range")
    p.add_argument("--k-list", dest="k_list", help="comma-separated scaling factors")
    p.add_argument("--q", type=float, help="power exponent for the cq scan")
    p.add_argument("--seed", type=int, help="seed for randomized suites")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--format", dest="fmt", choices=FORMATS, help="output format")
    return p


def _config_from_args(args: argparse.Namespace) -> SuiteConfig:
    values: dict[str, object] = {}
    if args.config:
        kv = parse_key_values(Path(args.config).read_text(encoding="utf-8"))
        for key, raw in kv.items():
            if key in ("m", "depth", "seed"):
                values[key] = int(raw)
            elif key == "q":
                values[key] = float(raw)
            elif key == "k_list":
                values[key] = [int(tok) for tok in raw.replace(",", " ").split()]
            elif key in ("function_path", "vector_path", "out", "fmt"):
                values[key] = raw
            else:
                raise ValueError(f"unknown config key {key!r}")
    for key in ("function_path", "vector_path", "m", "depth", "q", "seed", "out", "fmt"):
        v = getattr(args, key, None)
        if v is not None:
            values[key] = v
    if args.k_list is not None:
        values["k_list"] = [int(tok) for tok in args.k_list.replace(",", " ").split()]
    return SuiteConfig(command=args.command, **values)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
    except (ValueError, OSError) as exc:
        print(f"orliczlab: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        report = run_suite(config)
    except EtaInfeasibleError as exc:
        print(f"orliczlab: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (ValueError, OSError) as exc:
        print(f"orliczlab: {exc}", file=sys.stderr)
        return EXIT_USAGE
    text = emit_report(report, config.fmt, config.out)
    if config.out is None:
        sys.stdout.write(text)
    return EXIT_OK if report.passed_all else EXIT_CHECK_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
