"""The four benchmark workloads: seeded inputs, one item's library calls, and
the correctness check of its outputs.

This module imports only the standard library at the top.  The library is
passed in as the package object `ol`, and every call goes through an
attribute of that package (`ol.triple_norm`, `ol.cli.run_suite`, ...), so the
benchmark's own import of `orliczlab` is what `setup_s` times, and the traced
run can wrap a function at the attribute its caller resolves.

Inputs come in cycles.  A cycle covers a workload's input sizes in fixed
proportions (a fixed grid, or one draw from each stratum), so every cycle
carries nearly the same load whatever the seed, and a run always ends on a
cycle boundary.
"""

from __future__ import annotations

import csv
import importlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import reference

# Tolerances of the acceptance criteria the checks restate (c05, c09).
EQUIV_SLACK_LOG2 = 1e-10
TIE_SLACK_LOG2 = 1e-11        # the slack renorm uses to decide attainment
SANDWICH_LOW_REL = 1e-9
# Finite-difference supporting functionals overshoot the dual ball by about
# 1e-8; anything past 1e-6 is a real defect.
FD_OVERSHOOT_REL = 1e-6
L1_REL = 1e-12
MPMATH_REL = 1e-11


def _attain_slack(target_log2: float) -> float:
    return TIE_SLACK_LOG2 + abs(target_log2) * 1e-12


def _vector(ol, log2mags, signs):
    return ol.FiniteVector(
        {i: ol.LogReal(s, e) for i, (s, e) in enumerate(zip(signs, log2mags), start=1)}
    )


def _strata(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of `count` equal slices of [lo, hi), shuffled."""
    width = (hi - lo) / count
    vals = [lo + width * (i + rng.random()) for i in range(count)]
    rng.shuffle(vals)
    return vals


def _reference_failures(ol, fx, x, mags: list[float], base_log2: float) -> list[str]:
    """The l1 closed form on identity slopes and the mpmath root on squares."""
    out = []
    l1 = math.fsum(2.0 ** e for e in mags)
    got = ol.luxemburg_norm(fx.ident, x).to_float()
    if not abs(got - l1) <= L1_REL * l1:
        out.append(f"l1 reference: {got!r} vs {l1!r}")
    want = reference.squares_norm_log2(mags)
    rel = abs(2.0 ** (base_log2 - want) - 1.0)
    if not rel <= MPMATH_REL:
        out.append(f"mpmath reference: rel error {rel:.3e}")
    return out


@dataclass
class Fixture:
    """What setup builds before the first timed item."""

    M: object = None
    eta: object = None
    ident: object = None     # identity slopes, for the l1 reference
    oracle: object = None    # norm oracle handed to the norming-family builder


class Workload:
    name = ""
    traced_items = 1
    # Seconds one cycle took on the machine this benchmark was defined on; a
    # run of --seconds S does about S / cycle_seconds cycles, wherever it runs.
    cycle_seconds = 1.0
    cycle_items = 1

    def prepare(self, pool: list[list[dict]], workdir: Path) -> None:
        """Write whatever input files the items read; most workloads read none."""

    def working_set(self, pool: list[list[dict]]) -> dict:
        """Computed sizes to set beside the machine's cache sizes in the record."""
        return {}


# -- renorm-batch ----------------------------------------------------------------


class RenormBatch(Workload):
    """The c05 distribution on warm tables and small arrays."""

    name = "renorm-batch"
    cycle_seconds = 1.6

    def __init__(self, max_support: int = 50, references: int = 5):
        # one cycle holds each support size 1..max_support exactly once
        self.max_support = max_support
        self.references = references
        self.cycle_items = max_support
        self.traced_items = 2 * max_support

    def setup(self, ol) -> Fixture:
        M = ol.make_dyadic_plf(ol.squares_slopes())
        scheme = ol.build_renorm_scheme(M, 1, 52)
        return Fixture(M, scheme.eta, ident=ol.make_dyadic_plf(ol.identity_slopes()))

    def make_pool(self, ol, seed: int, cycles: int) -> list[list[dict]]:
        rng = random.Random(seed)
        pool = []
        for _ in range(cycles):
            sizes = list(range(1, self.max_support + 1))
            rng.shuffle(sizes)
            refs = set(rng.sample(range(len(sizes)), min(self.references, len(sizes))))
            cycle = []
            for j, n in enumerate(sizes):
                signs = [rng.choice((-1, 1)) for _ in range(n)]
                mags = [rng.uniform(-40.0, 3.0) for _ in range(n)]
                cycle.append(
                    {"signs": signs, "log2mags": mags, "reference": j in refs,
                     "x": _vector(ol, mags, signs)}
                )
            pool.append(cycle)
        return pool

    def run(self, ol, fx: Fixture, item: dict):
        x = item["x"]
        base = ol.luxemburg_norm(fx.M, x)
        value, attaining = ol.triple_norm(fx.M, fx.eta, x)
        rearranged, _ = ol.triple_norm(fx.M, fx.eta, ol.rearrange(x))
        m = ol.head_attainment_index(fx.M, fx.eta, x)
        return base, value, attaining, rearranged, m

    def check(self, ol, fx: Fixture, item: dict, out) -> list[str]:
        base, value, attaining, rearranged, m = out
        x = item["x"]
        n = len(item["log2mags"])
        bad = []
        b, v = base.log2mag, value.log2mag
        if not (b - EQUIV_SLACK_LOG2 <= v <= b + fx.eta.log2(1) + EQUIV_SLACK_LOG2):
            bad.append(f"equivalence: base {b!r}, triple {v!r}")
        if rearranged.log2mag != v:
            bad.append(f"rearrangement: {rearranged.log2mag!r} != {v!r}")
        if not 1 <= attaining <= n:
            bad.append(f"attaining head {attaining} outside 1..{n}")
        if not 1 <= m <= n:
            bad.append(f"attainment index {m} outside 1..{n}")
        elif item["reference"]:
            # costs a quarter of an item, so it runs on the subsample only
            head_value, _ = ol.triple_norm(fx.M, fx.eta, x.head(m))
            if head_value.log2mag < v - _attain_slack(v):
                bad.append(f"head {m} reaches {head_value.log2mag!r} < {v!r}")
        if item["reference"]:
            bad += _reference_failures(ol, fx, x, item["log2mags"], b)
        return bad

    def describe(self, item: dict):
        return [item["signs"], item["log2mags"], item["reference"]]


# -- renorm-wide -----------------------------------------------------------------


class RenormWide(Workload):
    """Packed nonincreasing vectors whose N x N prefix arrays straddle L2."""

    name = "renorm-wide"
    cycle_seconds = 24.0

    def __init__(self, sizes: tuple[int, ...] = (200, 350, 500, 650, 800), repeats: int = 3):
        # Each size appears `repeats` times per cycle, so the median and the
        # tail each fall inside one size's group, not on one vector.
        self.sizes = sizes
        self.repeats = repeats
        self.cycle_items = len(sizes) * repeats
        self.traced_items = len(sizes)

    def setup(self, ol) -> Fixture:
        M = ol.make_dyadic_plf(ol.squares_slopes())
        return Fixture(M, ol.EtaSequence.one_plus_pow2(),
                       ident=ol.make_dyadic_plf(ol.identity_slopes()))

    def make_pool(self, ol, seed: int, cycles: int) -> list[list[dict]]:
        rng = random.Random(seed)
        pool = []
        for _ in range(cycles):
            # The order is fixed: numpy's large temporaries make the allocator's
            # state before a vector depend on the sizes run before it.
            sizes = list(self.sizes) * self.repeats
            ref = rng.randrange(len(sizes))
            cycle = []
            for j, n in enumerate(sizes):
                mags = sorted((rng.uniform(-40.0, 3.0) for _ in range(n)), reverse=True)
                item = {"log2mags": mags, "reference": j == ref,
                        "x": _vector(ol, mags, [1] * n)}
                if j == ref:
                    # a scrambled, sign-flipped copy for rearrangement invariance
                    perm = list(range(n))
                    rng.shuffle(perm)
                    item["perm"] = perm
                    item["signs"] = [rng.choice((-1, 1)) for _ in range(n)]
                    item["scrambled"] = _vector(
                        ol, [mags[p] for p in perm], item["signs"]
                    )
                cycle.append(item)
            pool.append(cycle)
        return pool

    def working_set(self, pool: list[list[dict]]) -> dict:
        n = max(len(item["log2mags"]) for cycle in pool for item in cycle)
        return {"largest_nxn_float64_array": {"N": n, "bytes": 8 * n * n,
                                              "source": "computed as 8 N^2, not measured"}}

    def run(self, ol, fx: Fixture, item: dict):
        x = item["x"]
        base = ol.luxemburg_norm(fx.M, x)
        value, attaining = ol.triple_norm(fx.M, fx.eta, x)
        g = ol.growth_index(fx.M, fx.eta, x)
        return base, value, attaining, g

    def check(self, ol, fx: Fixture, item: dict, out) -> list[str]:
        base, value, attaining, g = out
        x = item["x"]
        n = len(item["log2mags"])
        bad = []
        b, v = base.log2mag, value.log2mag
        if not (b - EQUIV_SLACK_LOG2 <= v <= b + fx.eta.log2(1) + EQUIV_SLACK_LOG2):
            bad.append(f"equivalence: base {b!r}, triple {v!r}")
        if not 1 <= attaining <= n:
            bad.append(f"attaining head {attaining} outside 1..{n}")
        if not 1 <= g <= n:
            bad.append(f"growth index {g} outside 1..{n}")
        else:
            head = ol.luxemburg_norm(fx.M, x.head(g)).log2mag + fx.eta.log2(g)
            if head < b - _attain_slack(b):
                bad.append(f"growth head {g} reaches {head!r} < {b!r}")
        if item["reference"]:
            other, _ = ol.triple_norm(fx.M, fx.eta, item["scrambled"])
            if other.log2mag != v:
                bad.append(f"rearrangement: {other.log2mag!r} != {v!r}")
            bad += _reference_failures(ol, fx, x, item["log2mags"], b)
        return bad

    def describe(self, item: dict):
        return [item["log2mags"], item.get("perm"), item.get("signs")]


# -- norming-build ---------------------------------------------------------------


class NormingBuild(Workload):
    """The c09 shape: norming families on sections of dimension 1..3."""

    name = "norming-build"
    cycle_seconds = 42.0

    def __init__(self, dims: int = 3, per_cycle: int = 11, samples_per_dim: int = 4,
                 validation_samples: int = 256):
        self.dims = dims
        self.per_cycle = per_cycle
        self.cycle_items = per_cycle
        self.samples_per_dim = samples_per_dim
        self.validation_samples = validation_samples
        self.traced_items = 3

    def setup(self, ol) -> Fixture:
        fx = Fixture(ol.make_dyadic_plf(ol.squares_slopes()), ol.EtaSequence.one_plus_pow2())

        def triple_norm_oracle(v):
            value, _ = ol.triple_norm(fx.M, fx.eta, v)
            return value

        fx.oracle = triple_norm_oracle
        return fx

    @staticmethod
    def _point(rng: random.Random, dim: int) -> list[float]:
        """A point of the dim-section whose last coordinate is not negligible."""
        coords = [rng.uniform(-1.0, 1.0) for _ in range(dim)]
        coords[-1] = math.copysign(max(abs(coords[-1]), 1e-3), coords[-1])
        return coords

    def _section_samples(self, rng: random.Random) -> list[list[float]]:
        return [self._point(rng, dim) for dim in range(1, self.dims + 1)
                for _ in range(self.samples_per_dim)]

    def make_pool(self, ol, seed: int, cycles: int) -> list[list[dict]]:
        rng = random.Random(seed)
        pool = []
        for _ in range(cycles):
            eps_by_level = [_strata(rng, self.per_cycle, 0.2, 0.3) for _ in range(self.dims)]
            cycle = []
            for i in range(self.per_cycle):
                eps = [eps_by_level[j][i] for j in range(self.dims)]
                # eta in (eps, 0.5]
                eta = [e + (0.5 - e) * (1.0 - rng.random()) for e in eps]
                samples = self._section_samples(rng)
                fresh = self._section_samples(rng)
                top = [self._point(rng, self.dims) for _ in range(self.samples_per_dim)]
                cycle.append({
                    "eps": eps, "eta": eta, "family_seed": rng.randrange(1 << 30),
                    "samples": samples, "fresh": fresh, "top": top,
                    "xs": [ol.FiniteVector.from_floats(p) for p in samples],
                    "top_xs": [ol.FiniteVector.from_floats(p) for p in top],
                    "fresh_xs": [ol.FiniteVector.from_floats(p) for p in fresh],
                })
            pool.append(cycle)
        return pool

    def run(self, ol, fx: Fixture, item: dict):
        oracle = fx.oracle
        fam = ol.assemble_norming_family(
            oracle, item["eps"], item["eta"], seed=item["family_seed"],
            validation_samples=self.validation_samples,
        )
        rho = [ol.rho_eval(fam, x) for x in item["xs"]]
        funcs = [w for lvl in fam.levels for w in lvl.functionals]
        eps_of = {lvl.level: lvl.eps for lvl in fam.levels}
        spec = ol.ProjectionSeminormSpec(
            functionals=funcs,
            cutoffs=[w.level for w in funcs],
            eps=[eps_of[w.level] for w in funcs],
            delta=[0.0] * len(funcs),
        )
        proj = [ol.projection_seminorm(spec, x) for x in item["xs"]]
        top = fam.levels[-1]
        certificate = ol.check_precisely_norming(
            top.functionals, oracle, item["top_xs"], ol.Tolerance(rel=top.eps)
        )
        return fam, rho, proj, certificate

    def check(self, ol, fx: Fixture, item: dict, out) -> list[str]:
        fam, rho, proj, certificate = out
        bad = []
        if [lvl.level for lvl in fam.levels] != list(range(1, self.dims + 1)):
            bad.append("family levels are not 1..dims")
            return bad
        max_eps = max(item["eps"])
        for x, r, p in zip(item["xs"], rho, proj):
            t = fx.oracle(x).to_float()
            r, p = r.to_float(), p.to_float()
            if not t * (1.0 - SANDWICH_LOW_REL) <= r <= 2.0 * t:
                bad.append(f"c09 sandwich: rho {r!r}, triple {t!r}")
            if not t * (1.0 - SANDWICH_LOW_REL) <= p <= (1.0 + max_eps) * t * (1.0 + FD_OVERSHOOT_REL):
                bad.append(f"projection seminorm {p!r} outside [t, (1+eps) t], t {t!r}")
        for coords, x in zip(item["fresh"], item["fresh_xs"]):
            lvl = fam.levels[len(coords) - 1]
            t = fx.oracle(x).to_float()
            best = max(abs(w.pair_floats(coords)) for w in lvl.functionals)
            if not t * (1.0 - SANDWICH_LOW_REL) <= best * (1.0 + lvl.eps):
                bad.append(f"level {lvl.level} lower sandwich: {best!r} vs {t!r}")
            if not best <= t * (1.0 + FD_OVERSHOOT_REL):
                bad.append(f"level {lvl.level} functional leaves the dual ball: {best!r} > {t!r}")
        summary = certificate.summary
        if summary["samples"] != len(item["top_xs"]) or len(certificate.rows) != summary["samples"]:
            bad.append("precise-norming certificate lost samples")
        elif not summary["worst_gap_rel"] <= fam.levels[-1].eps:
            bad.append(f"precise-norming gap {summary['worst_gap_rel']!r} beyond eps")
        return bad

    def describe(self, item: dict):
        return [item["eps"], item["eta"], item["family_seed"], item["samples"],
                item["fresh"], item["top"]]


# -- suites ----------------------------------------------------------------------

SUITE_COMMANDS = ("norm", "renorm", "cq", "claims", "ratio-bound", "probe")


def _pow2_poly_text(rng: random.Random) -> str:
    return (f"kind = pow2_poly\na = {rng.uniform(0.75, 1.25)!r}\n"
            f"b = {rng.uniform(0.0, 0.5)!r}\nc = {rng.uniform(0.0, 1.0)!r}\n")


def _counterexample_text(rng: random.Random) -> str:
    return f"kind = counterexample\ndepth = {rng.randint(86, 94)}\n"


class Suites(Workload):
    """One-shot CLI suites: cold tables, counterexample scans, report rendering."""

    name = "suites"

    cycle_seconds = 0.55

    def __init__(self, scale: float = 1.0):
        self.scale = scale
        self.traced_items = 4

    def setup(self, ol) -> Fixture:
        importlib.import_module("orliczlab.cli")    # the package does not import it
        return Fixture()

    def _depth(self, rng: random.Random, lo: int, hi: int) -> int:
        return max(2, round(rng.randint(lo, hi) * self.scale))

    def _params(self, rng: random.Random, command: str) -> dict:
        if command == "norm":
            n = self._depth(rng, 20, 50)
            tokens = [f"{rng.choice(('', '-'))}2^{rng.uniform(-40.0, 3.0)!r}" for _ in range(n)]
            return {"function": _pow2_poly_text(rng), "vector": " ".join(tokens) + "\n"}
        if command == "renorm":
            return {"function": _pow2_poly_text(rng), "m": 1, "depth": self._depth(rng, 56, 64)}
        if command == "cq":
            side = self._depth(rng, 38, 42)
            return {"function": _pow2_poly_text(rng), "q": rng.uniform(1.5, 3.0),
                    "m": side, "depth": side}
        if command == "claims":
            return {"function": _counterexample_text(rng), "depth": self._depth(rng, 76, 84)}
        if command == "ratio-bound":
            return {"function": _counterexample_text(rng), "m": rng.randint(1, 6),
                    "depth": rng.randint(10, 16)}
        return {"function": _counterexample_text(rng), "depth": self._depth(rng, 56, 64)}

    def make_pool(self, ol, seed: int, cycles: int) -> list[list[dict]]:
        rng = random.Random(seed)
        pool = []
        for _ in range(cycles):
            commands = []
            for command in SUITE_COMMANDS:
                params = self._params(rng, command)
                logK = rng.uniform(0.25, 2.95)
                if abs(logK - round(logK)) < 0.05:
                    logK += 0.1
                params.update(command=command, K=2.0 ** logK,
                              t_max_log2=-rng.uniform(1.0, 4.0), scan_depth=rng.randint(24, 40))
                commands.append(params)
            pool.append([{"commands": commands}])
        return pool

    def prepare(self, pool: list[list[dict]], workdir: Path) -> None:
        commands = [c for cycle in pool for item in cycle for c in item["commands"]]
        for i, c in enumerate(commands):
            fn = workdir / f"{i:05d}.fn"
            fn.write_text(c["function"], encoding="utf-8")
            vec = None
            if "vector" in c:
                vec = workdir / f"{i:05d}.vec"
                vec.write_text(c["vector"], encoding="utf-8")
            c["paths"] = (str(fn), str(vec) if vec else None)

    def run(self, ol, fx: Fixture, item: dict):
        return [self._run_command(ol, c) for c in item["commands"]]

    def check(self, ol, fx: Fixture, item: dict, out) -> list[str]:
        bad = []
        for c, o in zip(item["commands"], out):
            bad += [f"{c['command']}: {p}" for p in self._check_command(c, o)]
        return bad

    def describe(self, item: dict):
        return [{k: v for k, v in c.items() if k != "paths"} for c in item["commands"]]

    @staticmethod
    def _run_command(ol, c: dict):
        fn, vec = c["paths"]
        kwargs = {k: c[k] for k in ("m", "depth", "q") if k in c}
        config = ol.cli.SuiteConfig(c["command"], function_path=fn, vector_path=vec, **kwargs)
        report = ol.cli.run_suite(config)
        texts = {fmt: ol.emit_report(report, fmt) for fmt in ("csv", "json", "text")}
        M = ol.parse_function_spec(c["function"])
        scan = ol.ratio_inf_general(
            M, c["K"], ol.LogReal.two_pow(c["t_max_log2"]), depth=c["scan_depth"]
        )
        return report, texts, scan

    @staticmethod
    def _check_command(c: dict, out) -> list[str]:
        report, texts, scan = out
        command = c["command"]
        bad = []
        rows = list(csv.reader(io.StringIO(texts["csv"])))
        if len(rows) != len(report.rows) + 1 or len(rows[0]) != 9:
            bad.append(f"csv parses to {len(rows) - 1} rows, report has {len(report.rows)}")
        if len(json.loads(texts["json"])["rows"]) != len(report.rows):
            bad.append("json row count differs from the report")
        if not texts["text"].startswith(f"report: {report.name}\n"):
            bad.append("text report header missing")
        if scan.infimum.log2mag < math.log2(c["K"]) - 1e-9:
            bad.append(f"ratio_inf_general infimum {scan.infimum.log2mag!r} < log2 K")
        if command in ("claims", "ratio-bound") and (
            report.summary["failures"] != 0 or not report.passed_all
        ):
            bad.append(f"{report.summary['failures']} failed checks")
        elif command == "probe" and not report.passed_all:
            bad.append(f"{len(report.failures)} rows over budget")
        elif command == "renorm":
            bad += _eta_failures(report, c["depth"])
        elif command == "cq" and len(report.rows) != c["m"] * c["depth"]:
            bad.append(f"grid has {len(report.rows)} rows")
        elif command == "norm" and report.summary["support"] != len(c["vector"].split()):
            bad.append("support size differs from the vector file")
        return bad


def _eta_failures(report, k_max: int) -> list[str]:
    """eta from the renorm rows is nonincreasing and above (1 - 1/b_{k+1})^-1."""
    rows = sorted(report.rows, key=lambda r: r.indices[0])
    if len(rows) != k_max + 1:
        return [f"{len(rows)} b_k rows for k_max {k_max}"]
    eta = [float(r.note.split("=", 1)[1]) for r in rows]
    log2_b = [r.lhs_log2 for r in rows]
    bad = []
    for k in range(len(rows) - 1):
        if eta[k + 1] > eta[k] or (eta[k] - 1.0 > 2.0 ** -30 and not eta[k + 1] < eta[k]):
            bad.append(f"eta not decreasing at k = {k + 1}")
            break
        floor = 1.0 / -math.expm1(-log2_b[k + 1] * math.log(2.0))
        if eta[k] < floor or (floor - 1.0 > 2.0 ** -30 and not eta[k] > floor):
            bad.append(f"eta_{k + 1} = {eta[k]!r} not above its floor {floor!r}")
            break
    return bad


WORKLOADS = {cls.name: cls for cls in (RenormBatch, NormingBuild, Suites, RenormWide)}
