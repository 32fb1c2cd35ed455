"""orliczlab benchmark: one closed-loop client, seeded inputs, checked outputs.

Usage, from the root of a checkout:

    python3 bench/run.py --workload renorm-batch --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` they are the per-layer ones from a traced
run.  A record of the run (seed, input digest, machine, versions, counters)
is written under `.bench_out/`.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

import tracing  # noqa: E402
import workloads  # noqa: E402

# The highest percentile with at least this many samples beyond it is the tail.
TAIL_BEYOND = 10
MIN_ITEMS = TAIL_BEYOND + 1
# set-up is measured this many times in fresh interpreters, besides the run's own
SETUP_REPEATS = 4
# a run stops after the item that crosses this much loop time, whatever else
WALL_CAP_S = 120.0

E2E_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

_SETUP_CHILD = """
import sys
from time import perf_counter
src, bench, workload = sys.argv[1:4]
sys.path[:0] = [src, bench]
import workloads
t0 = perf_counter()
import orliczlab
workloads.WORKLOADS[workload]().setup(orliczlab)
print(repr(perf_counter() - t0))
"""


def import_library():
    """Import orliczlab from this checkout's src/; exit with an error if it is not there."""
    if not (SRC / "orliczlab" / "__init__.py").is_file():
        sys.exit(f"bench: no orliczlab sources under {SRC}; run from a checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import orliczlab

    if Path(orliczlab.__file__).resolve().parent != (SRC / "orliczlab").resolve():
        sys.exit(f"bench: imported orliczlab from {orliczlab.__file__}, not from {SRC}")
    return orliczlab


def setup_times(name: str, in_process_s: float) -> list[float]:
    times = [in_process_s]
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(BENCH_DIR), name],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def input_digest(workload, pool) -> str:
    blob = json.dumps([[workload.describe(it) for it in cycle] for cycle in pool],
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class Loop:
    """Closed loop over the pool's cycles; times each item, checks it untimed."""

    def __init__(self, ol, workload, fx, pool, tracer=None):
        self.ol, self.workload, self.fx, self.pool = ol, workload, fx, pool
        self.tracer = tracer
        self.latencies: list[float] = []
        self.failures: list[dict] = []

    def _timed(self, item) -> tuple:
        tr = self.tracer
        index = len(self.latencies)
        if tr:
            tr.item_id = index
            tr.active = True
            span = tr.open("item")
        out, problems = None, []
        t0 = perf_counter()
        try:
            out = self.workload.run(self.ol, self.fx, item)
        except Exception:
            problems = [traceback.format_exc()]
        dt = perf_counter() - t0
        if tr:
            tr.close(span)
            tr.active = False
        self.latencies.append(dt)
        return item, index, out, problems

    def _check(self, item, index, out, problems) -> None:
        if not problems:
            try:
                problems = self.workload.check(self.ol, self.fx, item, out)
            except Exception:
                problems = [traceback.format_exc()]
        if problems:
            self.failures.append({"item": index, "problems": problems})

    def one(self, item) -> None:
        self._check(*self._timed(item))

    def run_cycles(self) -> None:
        """Every cycle of the pool once; stops early only past WALL_CAP_S.

        A cycle's outputs are checked after its last item, so that what the
        checks allocate does not change the state the next timed item meets.
        """
        wall0 = perf_counter()
        for cycle in self.pool:
            done = []
            for item in cycle:
                done.append(self._timed(item))
                if perf_counter() - wall0 > WALL_CAP_S:
                    break
            for d in done:
                self._check(*d)
            if perf_counter() - wall0 > WALL_CAP_S:
                return


def cycles_for(workload, seconds: float) -> int:
    """The cycles that took `seconds` where the benchmark was defined, and
    enough for MIN_ITEMS items.  The work of a run is thereby fixed, so its
    item count and tail percentile do not move with the machine's speed."""
    return max(-(-MIN_ITEMS // workload.cycle_items), round(seconds / workload.cycle_seconds), 1)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that has
    TAIL_BEYOND samples beyond it; the maximum when the run is shorter."""
    xs = sorted(latencies)
    n = len(xs)
    i = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return xs[i], 100.0 * (i + 1) / n, n - 1 - i


def machine() -> dict:
    info = {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    info["caches_per_cpu0"] = caches
    for mod in ("numpy", "mpmath"):
        try:
            info[mod] = __import__(mod).__version__
        except ImportError:
            info[mod] = None
    return info


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name: str, seed: int, seconds: float, trace: bool, workload=None) -> dict:
    """One benchmark run; returns the result object and writes the record."""
    t0 = perf_counter()
    ol = import_library()
    workload = workload or workloads.WORKLOADS[name]()
    fx = workload.setup(ol)
    setup_in_process = perf_counter() - t0

    if trace:
        cycles = -(-workload.traced_items // workload.cycle_items)
    else:
        cycles = cycles_for(workload, seconds)
    pool = workload.make_pool(ol, seed, cycles)
    digest = input_digest(workload, pool)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT_DIR))
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "cycles": cycles, "input_digest": digest}
    try:
        workload.prepare(pool, workdir)
        if trace:
            result = _traced(ol, workload, fx, pool, record)
        else:
            result = _untraced(ol, workload, fx, pool, setup_in_process, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["machine"] = machine()
    record["machine"].update(workload.working_set(pool))
    record["result"] = result
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return result


def _untraced(ol, workload, fx, pool, setup_in_process, record) -> dict:
    loop = Loop(ol, workload, fx, pool)
    loop.run_cycles()
    rss = peak_rss_mb()
    lat = loop.latencies
    tail_s, tail_pct, beyond = tail(lat)
    setups = setup_times(workload.name, setup_in_process)
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": len(lat) / sum(lat),
        "item_p50_ms": statistics.median(lat) * 1e3,
        "item_tail_ms": tail_s * 1e3,
        "peak_rss_mb": rss,
    }
    record.update(
        items=len(lat), item_seconds=sum(lat), setup_samples_s=setups,
        tail_percentile=tail_pct, tail_samples_beyond=beyond,
        failed_frac=len(loop.failures) / len(lat), failures=loop.failures[:20],
    )
    print(f"# {workload.name} seed {record['seed']}: {len(lat)} items in {sum(lat):.3f} s; "
          f"p50 over {len(lat)} samples; tail is p{tail_pct:.1f} with {beyond} samples beyond; "
          f"failed_frac {record['failed_frac']!r}; input digest {record['input_digest'][:16]}")
    return _result(len(lat), loop.failures,
                   {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()})


def _traced(ol, workload, fx, pool, record) -> dict:
    items = [item for cycle in pool for item in cycle][:workload.traced_items]
    plain = Loop(ol, workload, fx, pool)
    tracer = tracing.Tracer()
    loop = Loop(ol, workload, fx, pool, tracer)
    uninstall = tracing.install(tracer, ol, fx)
    try:
        # a second fixture, traced, so that set-up work shows per layer
        tracer.active = True
        span = tracer.open("setup")
        workload.setup(ol)
        tracer.close(span)
        tracer.active = False
    finally:
        uninstall()
    # Each item runs untraced and then traced, back to back, so that drifts in
    # machine speed cancel out of the overhead estimate.
    for item in items:
        plain.one(item)
        uninstall = tracing.install(tracer, ol, fx)
        try:
            loop.one(item)
        finally:
            uninstall()
    layer = tracing.layer_metrics(tracer)
    layer["trace.overhead_frac"] = (sum(loop.latencies) / sum(plain.latencies) - 1.0, "ratio")
    counters = tracing.work_counters(layer)
    stem = f"{workload.name}-seed{record['seed']}-spans.csv.gz"
    tracer.write(OUT_DIR / stem)
    record.update(items=len(loop.latencies), spans=len(tracer.name),
                  work_counters=counters, failures=(plain.failures + loop.failures)[:20])
    nonzero = {k: v for k, (v, _) in layer.items() if v}
    print(f"# {workload.name} seed {record['seed']} traced: {len(loop.latencies)} items, "
          f"{len(tracer.name)} spans; input digest {record['input_digest'][:16]}")
    for k in sorted(nonzero):
        print(f"#   {k} = {nonzero[k]!r} {layer[k][1]}")
    return _result(len(plain.latencies) + len(loop.latencies), plain.failures + loop.failures,
                   {k: {"value": v, "unit": u} for k, (v, u) in layer.items()})


def _result(attempted: int, failures: list, metrics: dict) -> dict:
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
