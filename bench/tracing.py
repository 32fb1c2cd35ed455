"""Spans around orliczlab's public functions, installed from outside the package.

`install` replaces a function at every attribute that holds it (the package,
the defining module and each module that imported it by name), and a method
on its class, so each caller resolves the wrapper.  Nothing under `src/` is
edited.  Spans (name, start, end, parent, item) are kept in memory; counts
are kept beside them.  Cheap accessors such as `FiniteVector.get` are not
wrapped: a wrapper costs about as much as they do, and their time lands in
the caller's self time.
"""

from __future__ import annotations

import csv
import gzip
import importlib
import statistics
import sys
from collections import Counter
from time import perf_counter
from typing import Callable

from workloads import SUITE_COMMANDS

LAYERS = ("logreal", "orlicz", "vectors", "renorm", "abstract_renorm",
          "counterexample", "reports", "cli")

# module -> functions and methods recorded as spans
SPANNED = {
    "orlicz": ("make_dyadic_plf", "parse_function_spec", "ratio_inf", "ratio_inf_general",
               "compute_cq", "DyadicOrliczFunction.eval_log2_array",
               "DyadicOrliczFunction.inverse_log2"),
    "vectors": ("luxemburg_norm", "rearrange", "modular"),
    "renorm": ("build_renorm_scheme", "triple_norm", "head_attainment_index", "growth_index"),
    "abstract_renorm": ("assemble_norming_family", "build_norming_family", "rho_eval",
                        "projection_seminorm", "check_precisely_norming"),
    "counterexample": ("gen_sequences", "verify_claims", "ratio_bound_check", "greedy_nk",
                       "attainment_failure_probe"),
    "reports": ("emit_report",),
    "cli": ("run_suite",),
}
# module -> scalar hot paths recorded as counts only
COUNTED = {
    "orlicz": ("DyadicOrliczFunction.eval_log2",),
    "logreal": ("LogReal.__add__", "LogReal.__sub__", "LogReal.__mul__",
                "LogReal.__truediv__", "LogReal.__neg__", "LogReal.__abs__",
                "LogReal.from_float", "LogReal.from_log2"),
}
LOGREAL_OPS = "logreal.ops"

KERNEL = "orlicz.eval_log2_array"
ORACLE = "abstract_renorm.oracle"
REPORT_FORMATS = ("csv", "json", "text")


class Tracer:
    """In-memory spans and counts; records only while `active`."""

    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.item: list[int] = []
        self.work: list[int] = []
        self.counts: Counter = Counter()
        self.active = False
        self.item_id = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self.item_id)
        self.work.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def write(self, path) -> None:
        with gzip.open(path, "wt", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("id", "name", "start", "end", "parent", "item", "work"))
            t0 = self.start[0] if self.start else 0.0
            for i, name in enumerate(self.name):
                w.writerow((i, name, repr(self.start[i] - t0), repr(self.end[i] - t0),
                            self.parent[i], self.item[i], self.work[i]))


def _span_wrapper(tracer: Tracer, fn, name: str, label=None, after=None):
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        i = tracer.open(label(args, kwargs) if label else name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if after:
            after(tracer, i, args, kwargs, out)
        return out

    return traced


def _count_wrapper(tracer: Tracer, fn, key: str):
    counts = tracer.counts

    def counted(*args, **kwargs):
        if tracer.active:
            counts[key] += 1
        return fn(*args, **kwargs)

    return counted


def _kernel_elements(tracer, i, args, kwargs, out):
    tracer.work[i] = int(out.size)


def _emit_report_label(args, kwargs):
    return f"reports.emit_report.{args[1] if len(args) > 1 else kwargs['fmt']}"


def _emit_report_after(tracer, i, args, kwargs, out):
    tracer.counts["reports.rows"] += len(args[0].rows)
    tracer.counts["reports.bytes"] += len(out.encode("utf-8"))


def _run_suite_label(args, kwargs):
    return f"cli.run_suite.{(args[0] if args else kwargs['config']).command}"


def _greedy_after(tracer, i, args, kwargs, out):
    tracer.counts["counterexample.greedy_nk.candidates"] += sum(out.candidates_tried)


def _claims_after(tracer, i, args, kwargs, out):
    tracer.counts["counterexample.verify_claims.checks"] += int(out.summary["checks"])


def _family_after(tracer, i, args, kwargs, out):
    tracer.counts["abstract_renorm.functionals"] += len(out)


HOOKS = {
    "orlicz.eval_log2_array": (None, _kernel_elements),
    "reports.emit_report": (_emit_report_label, _emit_report_after),
    "cli.run_suite": (_run_suite_label, None),
    "counterexample.greedy_nk": (None, _greedy_after),
    "counterexample.verify_claims": (None, _claims_after),
    "abstract_renorm.build_norming_family": (None, _family_after),
}


def install(tracer: Tracer, ol, fixture) -> Callable[[], None]:
    """Wrap the listed functions and methods; returns a function that undoes it."""
    for module_name in LAYERS:
        importlib.import_module(f"orliczlab.{module_name}")
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "orliczlab" or name.startswith("orliczlab."))]
    undo = []

    def replace_everywhere(orig, new):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, new)

    def wrap(module_name, qualname, make):
        mod = getattr(ol, module_name)
        key = f"{module_name}.{qualname.split('.')[-1]}"
        if "." in qualname:
            cls_name, meth = qualname.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            new = make(fn, key)
            undo.append((cls, meth, raw))
            setattr(cls, meth, staticmethod(new) if isinstance(raw, staticmethod) else new)
        else:
            orig = getattr(mod, qualname)
            replace_everywhere(orig, make(orig, key))

    def make_span(fn, key):
        label, after = HOOKS.get(key, (None, None))
        return _span_wrapper(tracer, fn, key, label, after)

    def make_count(fn, key):
        return _count_wrapper(tracer, fn,
                              LOGREAL_OPS if key.startswith("logreal.") else f"{key}.calls")

    for table, make in ((SPANNED, make_span), (COUNTED, make_count)):
        for module_name, names in table.items():
            for qualname in names:
                wrap(module_name, qualname, make)
    if fixture.oracle is not None:
        plain_oracle = fixture.oracle
        fixture.oracle = _span_wrapper(tracer, plain_oracle, ORACLE)
        undo.append((fixture, "oracle", plain_oracle))

    def uninstall():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall


# -- per-layer metrics -------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer self times, counts and work ratios, keyed by metric name.

    Every name is present; a layer idle on this workload reads 0.
    """
    n = len(tracer.name)
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            child[p] += dur[i]
    self_time = [dur[i] - child[i] for i in range(n)]

    calls: Counter = Counter()
    self_by_name: dict[str, float] = Counter()
    durs: dict[str, list[float]] = {}
    for i, name in enumerate(tracer.name):
        calls[name] += 1
        self_by_name[name] += self_time[i]
        durs.setdefault(name, []).append(dur[i])

    # kernel and oracle calls under each enclosing span name, and kernel elements
    under: Counter = Counter()          # (name, ancestor) -> calls
    under_elems: Counter = Counter()    # ancestor -> kernel elements
    for i, name in enumerate(tracer.name):
        if name not in (KERNEL, ORACLE):
            continue
        ancestors = set()
        p = tracer.parent[i]
        while p >= 0:
            ancestors.add(tracer.name[p])
            p = tracer.parent[p]
        for anc in ancestors:
            under[name, anc] += 1
            if name == KERNEL:
                under_elems[anc] += tracer.work[i]
    kernel_elements = sum(w for w, nm in zip(tracer.work, tracer.name) if nm == KERNEL)

    def p50(name: str, scale: float) -> float:
        return statistics.median(durs[name]) * scale if name in durs else 0.0

    def self_s(*names: str) -> float:
        return sum(self_by_name.get(nm, 0.0) for nm in names)

    c = tracer.counts
    m: dict[str, tuple[float, str]] = {}
    kcalls = calls[KERNEL]
    kself = self_s(KERNEL)
    m["orlicz.eval_log2_array.calls"] = (kcalls, "count")
    m["orlicz.eval_log2_array.elements"] = (kernel_elements, "count")
    m["orlicz.eval_log2_array.self_s"] = (kself, "s")
    m["orlicz.eval_log2_array.ns_per_element"] = (_ratio(kself * 1e9, kernel_elements), "ns")
    m["orlicz.eval_log2.calls"] = (c["orlicz.eval_log2.calls"], "count")
    m["orlicz.inverse_log2.calls"] = (calls["orlicz.inverse_log2"], "count")
    m["orlicz.inverse_log2.self_s"] = (self_s("orlicz.inverse_log2"), "s")
    m["orlicz.construct.self_s"] = (self_s("orlicz.make_dyadic_plf", "orlicz.parse_function_spec"), "s")
    for fn in ("ratio_inf", "ratio_inf_general", "compute_cq"):
        m[f"orlicz.{fn}.self_s"] = (self_s(f"orlicz.{fn}"), "s")

    lux = "vectors.luxemburg_norm"
    m[f"{lux}.calls"] = (calls[lux], "count")
    m[f"{lux}.p50_us"] = (p50(lux, 1e6), "us")
    m[f"{lux}.self_s"] = (self_s(lux), "s")
    m["vectors.kernel_calls_per_norm"] = (_ratio(under[KERNEL, lux], calls[lux]), "ratio")

    tri = "renorm.triple_norm"
    m[f"{tri}.calls"] = (calls[tri], "count")
    m[f"{tri}.p50_us"] = (p50(tri, 1e6), "us")
    m[f"{tri}.self_s"] = (self_s(tri), "s")
    m["renorm.kernel_calls_per_triple_norm"] = (_ratio(under[KERNEL, tri], calls[tri]), "ratio")
    m["renorm.kernel_elements_per_triple_norm"] = (_ratio(under_elems[tri], calls[tri]), "ratio")
    att = "renorm.head_attainment_index"
    m[f"{att}.self_s"] = (self_s(att), "s")
    m["renorm.kernel_calls_per_attainment"] = (_ratio(under[KERNEL, att], calls[att]), "ratio")
    m["renorm.growth_index.self_s"] = (self_s("renorm.growth_index"), "s")
    m["renorm.build_renorm_scheme.self_s"] = (self_s("renorm.build_renorm_scheme"), "s")

    build = "abstract_renorm.build_norming_family"
    m[f"{build}.self_s"] = (self_s(build), "s")
    m[f"{ORACLE}.calls"] = (calls[ORACLE], "count")
    m[f"{ORACLE}.s"] = (sum(durs.get(ORACLE, ())), "s")
    funcs = c["abstract_renorm.functionals"]
    m["abstract_renorm.oracle_calls_per_functional"] = (_ratio(under[ORACLE, build], funcs), "ratio")
    m["abstract_renorm.functionals"] = (funcs, "count")
    m["abstract_renorm.rho_eval.p50_us"] = (p50("abstract_renorm.rho_eval", 1e6), "us")
    m["abstract_renorm.projection_seminorm.p50_us"] = (
        p50("abstract_renorm.projection_seminorm", 1e6), "us")
    m["abstract_renorm.check_precisely_norming.self_s"] = (
        self_s("abstract_renorm.check_precisely_norming"), "s")

    for fn in ("gen_sequences", "verify_claims", "ratio_bound_check", "greedy_nk"):
        m[f"counterexample.{fn}.self_s"] = (self_s(f"counterexample.{fn}"), "s")
    m["counterexample.verify_claims.checks"] = (c["counterexample.verify_claims.checks"], "count")
    cands = c["counterexample.greedy_nk.candidates"]
    m["counterexample.greedy_nk.candidates"] = (cands, "count")
    m["counterexample.kernel_calls_per_candidate"] = (
        _ratio(under[KERNEL, "counterexample.greedy_nk"], cands), "ratio")

    for fmt in REPORT_FORMATS:
        m[f"reports.emit_report.{fmt}.self_s"] = (self_s(f"reports.emit_report.{fmt}"), "s")
    m["reports.rows"] = (c["reports.rows"], "count")
    m["reports.bytes"] = (c["reports.bytes"], "bytes")

    for cmd in SUITE_COMMANDS:
        name = f"cli.run_suite.{cmd}"
        m[f"{name}.self_s"] = (self_s(name), "s")
        m[f"{name}.p50_ms"] = (p50(name, 1e3), "ms")

    m[LOGREAL_OPS] = (c[LOGREAL_OPS], "count")

    layer_self = Counter()
    for name, t in self_by_name.items():
        layer = name.split(".", 1)[0]
        if layer in LAYERS:
            layer_self[layer] += t
    for layer in LAYERS:
        if layer != "logreal":
            m[f"{layer}.self_s"] = (layer_self[layer], "s")

    # item time that no layer span covers
    item_total = covered = 0.0
    for i, name in enumerate(tracer.name):
        if name == "item":
            item_total += dur[i]
            covered += child[i]
    m["trace.unattributed_frac"] = (_ratio(item_total - covered, item_total), "ratio")
    return {k: (v if unit in ("count", "bytes") else float(v), unit) for k, (v, unit) in m.items()}


def work_counters(metrics: dict[str, tuple[float, str]]) -> dict[str, float]:
    """The metrics that count work rather than time; they repeat exactly per seed."""
    return {k: v for k, (v, unit) in metrics.items() if unit in ("count", "bytes")}
