"""Tests of the benchmark itself, on tiny inputs.

Run from the root of a checkout:  python3 -m pytest -q bench/test_bench.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def tiny(name):
    return {
        "renorm-batch": lambda: workloads.RenormBatch(max_support=6, references=6),
        "renorm-wide": lambda: workloads.RenormWide(sizes=(12, 40), repeats=2),
        "norming-build": lambda: workloads.NormingBuild(dims=2, per_cycle=2, samples_per_dim=2,
                                                        validation_samples=32),
        "suites": lambda: workloads.Suites(scale=0.25),
    }[name]()


@pytest.fixture(autouse=True)
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    return tmp_path


def test_spec_names_only_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_passes_its_gate(name):
    result = run.run(name, seed=5, seconds=0.01, trace=False, workload=tiny(name))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_ITEMS
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_repeats_its_counters(name, out_dir):
    records = []
    for _ in range(2):
        result = run.run(name, seed=9, seconds=0.01, trace=True, workload=tiny(name))
        assert result["correct"]
        spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
        records.append(json.loads((out_dir / f"{name}-seed9-trace1.json").read_text()))
    first, second = records
    assert first["input_digest"] == second["input_digest"]
    assert first["work_counters"] == second["work_counters"]
    assert any(first["work_counters"].values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_sets_the_input_digest(name):
    ol = run.import_library()
    w = tiny(name)
    digest = [run.input_digest(w, w.make_pool(ol, seed, 2)) for seed in (1, 1, 2)]
    assert digest[0] == digest[1] != digest[2]


def test_norm_off_by_2_pow_minus_30_is_a_failure():
    ol = run.import_library()

    class Skewed(workloads.RenormBatch):
        def run(self, ol, fx, item):
            base, *rest = super().run(ol, fx, item)
            skewed = ol.LogReal(base.sign, base.log2mag + math.log2(1.0 + 2.0 ** -30))
            return (skewed, *rest)

    w = Skewed(max_support=6, references=6)
    fx = w.setup(ol)
    loop = run.Loop(ol, w, fx, w.make_pool(ol, 3, 1))
    for item in loop.pool[0]:
        loop.one(item)
    assert len(loop.failures) == 6
    assert all(any("mpmath" in p for p in f["problems"]) for f in loop.failures)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0, 10)
    value, pct, beyond = run.tail([float(i) for i in range(11)])
    assert (value, beyond) == (0.0, 10) and pct == pytest.approx(100 / 11)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "renorm-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
