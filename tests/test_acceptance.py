"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a single pass/fail line (visible with `pytest -s`; under
plain `pytest -v` the test outcome itself is the line).  Runtime budgets are
asserted where the criterion states one.
"""

import math
import random
import time
from pathlib import Path

import pytest

from orliczlab import (
    CounterexampleSequences,
    EtaInfeasibleError,
    EtaSequence,
    FiniteVector,
    LogReal,
    Tolerance,
    ZERO,
    assemble_norming_family,
    attainment_failure_probe,
    build_renorm_scheme,
    check_precisely_norming,
    compute_bk,
    gen_sequences,
    geometric_slopes,
    head_attainment_index,
    identity_slopes,
    luxemburg_norm,
    make_dyadic_plf,
    ratio_bound_check,
    rearrange,
    rho_eval,
    squares_slopes,
    triple_norm,
    verify_claims,
)
from orliczlab.cli import main as cli_main


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} {detail}".rstrip())
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def ident():
    return make_dyadic_plf(identity_slopes())


@pytest.fixture(scope="module")
def geom():
    return make_dyadic_plf(geometric_slopes())


@pytest.fixture(scope="module")
def squares():
    return make_dyadic_plf(squares_slopes())


@pytest.fixture(scope="module")
def seqs():
    return gen_sequences(45)


@pytest.fixture(scope="module")
def M_ce(seqs):
    return seqs.make_function()


@pytest.fixture(scope="module")
def squares_scheme(squares):
    # scale-indexed b_k table deep enough for eta at supports up to 52
    return build_renorm_scheme(squares, 1, 52)


def test_c01_l1_sanity(ident):
    """Identity slopes make the Luxemburg norm the l1 norm; rel 1e-12."""
    start = time.perf_counter()
    rng = random.Random(1001)
    worst = 0.0
    for _ in range(100):
        n = rng.randint(1, 50)
        coords = {}
        l1 = 0.0
        for i in range(1, n + 1):
            v = rng.choice([-1, 1]) * 2.0 ** rng.uniform(-20, 4)
            coords[i] = LogReal.from_float(v)
            l1 += abs(v)
        got = luxemburg_norm(ident, FiniteVector(coords)).to_float()
        worst = max(worst, abs(got - l1) / l1)
    elapsed = time.perf_counter() - start
    report(1, worst <= 1e-12 and elapsed < 1.0, f"(worst rel {worst:.2e}, {elapsed:.2f}s)")


def test_c02_geometric_closed_form(geom):
    """M(2^-n) = (2/3) 4^-n for n <= 40; ||e_1|| = 3/4."""
    worst = 0.0
    for n in range(0, 41):
        want = math.log2(2.0 / 3.0) - 2.0 * n
        got = geom.breakpoint_log2(n)
        worst = max(worst, abs(got - want))
    # rel 1e-12 on values equals abs ~1.44e-12 on exponents
    ok_bp = worst <= 1e-12 / math.log(2.0)
    e1 = luxemburg_norm(geom, FiniteVector.from_floats([1.0])).to_float()
    ok_e1 = abs(e1 - 0.75) / 0.75 <= 1e-10
    report(2, ok_bp and ok_e1, f"(worst bp log2 err {worst:.2e}, ||e1|| = {e1})")


def test_c03_sandwich_bound(seqs):
    """2^(-n-1) b(n) <= M(2^-n) <= 2^-n b(n) for n <= 64, all fixtures."""
    start = time.perf_counter()
    worst = -math.inf
    for slopes in (identity_slopes(), geometric_slopes(), squares_slopes(), seqs.slopes()):
        M = make_dyadic_plf(slopes)
        for n in range(0, 65):
            v = M.breakpoint_log2(n)
            b = slopes.log2_slope(n)
            worst = max(worst, (b - n - 1) - v, v - (b - n))
    elapsed = time.perf_counter() - start
    report(3, worst <= 1e-9 and elapsed < 5.0, f"(worst excess log2 {worst:.2e}, {elapsed:.2f}s)")


def test_c04_bk_and_eta_feasibility(squares, ident, squares_scheme):
    """b_k growth feeds a feasible eta for the fast fixture; constant ratios
    are refused."""
    start = time.perf_counter()
    prev = -math.inf
    monotone = True
    for k in list(range(1, 41)) + [100, 1000, 10**4, 10**5, 10**6]:
        bv = compute_bk(squares, 1, k)
        monotone = monotone and bv.infimum.log2mag >= prev - 1e-12
        prev = bv.infimum.log2mag
    eta = squares_scheme.eta
    decreasing = all(eta.log2(k + 1) < eta.log2(k) for k in range(1, 52))
    above_floor = True
    for k in range(1, 52):
        b_next = squares_scheme.bk_table[k + 1]
        floor = 1.0 / (-math.expm1(-b_next.log2mag * math.log(2.0)))
        above_floor = above_floor and eta(k) > floor
    gap40 = eta(40) - 1.0
    try:
        build_renorm_scheme(ident, 1, 40)
        ident_infeasible = False
    except EtaInfeasibleError:
        ident_infeasible = True
    elapsed = time.perf_counter() - start
    report(
        4,
        monotone and decreasing and above_floor and gap40 < 1e-6 and ident_infeasible
        and elapsed < 10.0,
        f"(eta_40 - 1 = {gap40:.2e}, identity infeasible = {ident_infeasible}, {elapsed:.1f}s)",
    )


def test_c05_renormed_value_properties(squares, squares_scheme):
    """Equivalence bounds, truncation monotonicity, attainment and
    rearrangement invariance on 10^3 random vectors."""
    start = time.perf_counter()
    rng = random.Random(2024)
    eta = squares_scheme.eta
    eta1 = eta.log2(1)
    failures = []
    for trial in range(1000):
        n = rng.randint(1, 50)
        x = FiniteVector(
            {i: LogReal(rng.choice([-1, 1]), rng.uniform(-40, 3)) for i in range(1, n + 1)}
        )
        base = luxemburg_norm(squares, x).log2mag
        value, attaining = triple_norm(squares, eta, x)
        if not (base - 1e-10 <= value.log2mag <= base + eta1 + 1e-10):
            failures.append((trial, "equivalence"))
        v2, _ = triple_norm(squares, eta, rearrange(x))
        if v2.log2mag != value.log2mag:
            failures.append((trial, "rearrangement"))
        m = head_attainment_index(squares, eta, x)
        if not 1 <= m <= n:
            failures.append((trial, "attainment-range"))
        # truncation values before m, at m and at the full support must be
        # monotone in the truncation
        truncated = [triple_norm(squares, eta, x.head(j))[0].log2mag for j in (m - 1, m, n) if j]
        if any(b < a - 1e-10 for a, b in zip(truncated, truncated[1:])):
            failures.append((trial, "monotone"))
    elapsed = time.perf_counter() - start
    report(5, not failures and elapsed < 30.0, f"(failures {failures[:3]}, {elapsed:.1f}s)")


class _DoubledC(CounterexampleSequences):
    """The c recursion with an extra factor 2 per step (a corrupted variant)."""

    def log2_c(self, j):
        return super().log2_c(j) + j


def test_c06_claims(seqs):
    """Structural claims hold at j_max 40 for K in {2,4,8,16}; a corrupted
    c-recursion is caught with a witness."""
    start = time.perf_counter()
    rep = verify_claims(seqs, 40, [2, 4, 8, 16])
    bad = _DoubledC(20)
    rep_bad = verify_claims(bad, 20, [2])
    witnessed = rep_bad.summary["failures"] > 0 and "first-witness" in rep_bad.summary
    elapsed = time.perf_counter() - start
    report(
        6,
        rep.summary["failures"] == 0 and witnessed and elapsed < 10.0,
        f"({rep.summary['checks']} checks, mutation witnessed = {witnessed}, {elapsed:.1f}s)",
    )


def test_c07_tail_ratio_bound(seqs, M_ce):
    """M(2^m t_n)/M(t_n) <= 2^(m+1)/alpha(m) and the shifted-slope identity,
    for m <= 6, n <= 12."""
    start = time.perf_counter()
    total_failures = 0
    checks = 0
    for m in range(0, 7):
        rep = ratio_bound_check(seqs, M_ce, m, 12)
        total_failures += rep.summary["failures"]
        checks += rep.summary["checks"]
    elapsed = time.perf_counter() - start
    report(7, total_failures == 0 and elapsed < 10.0, f"({checks} checks, {elapsed:.1f}s)")


def test_c08_dichotomy_probe_squares_side(squares):
    """The fast-ratio fixture's truncation values freeze before depth 30."""
    start = time.perf_counter()
    eta = EtaSequence.one_plus_pow2()
    rep = attainment_failure_probe(squares, eta, 30)
    verdict = rep.summary["verdict"]
    stab = rep.summary["stabilized_at"]
    elapsed = time.perf_counter() - start
    report(
        "8 (attaining side)",
        verdict == "stabilized" and stab is not None and stab < 30 and elapsed < 60.0,
        f"(verdict {verdict} at m = {stab}, {elapsed:.1f}s)",
    )


def test_c08_dichotomy_probe_counterexample_side(M_ce):
    """Strictly increasing truncation values through depth 30 on the
    slow-ratio fixture.

    Known red: the exact greedy trace plateaus from step 16 to beyond this
    depth.  Fifteen copies of t(2) = 2^-3 fill the budget (v_15 =
    2^-0.04715315423...), a sixteenth would give eta_16 * value = 1.000108,
    and the t(3) heads that follow stay below v_15; the first rise is at
    step 55.  The README's "Install and test" section gives the cause, and
    tests/test_counterexample.py::TestProbe::test_depth30_plateau_against_mpmath
    checks it against a 50-digit route.  The assertion is kept as stated
    rather than loosened.
    """
    start = time.perf_counter()
    eta = EtaSequence.one_plus_pow2()
    rep = attainment_failure_probe(M_ce, eta, 30)
    verdict = rep.summary["verdict"]
    elapsed = time.perf_counter() - start
    report(
        "8 (non-attaining side)",
        verdict == "strictly-increasing" and elapsed < 60.0,
        f"(verdict {verdict}, {elapsed:.1f}s)",
    )


def test_c09_norming_families(squares):
    """Leveled norming families sandwich the renormed value on sections of
    dimension <= 3; the l1 test section attains exactly."""
    start = time.perf_counter()
    eta = EtaSequence.one_plus_pow2()

    def oracle(v: FiniteVector) -> LogReal:
        value, _ = triple_norm(squares, eta, v)
        return value

    eps = [0.2, 0.25, 0.3]
    etas = [0.5, 0.45, 0.4]
    fam = assemble_norming_family(oracle, eps=eps, eta=etas, seed=90)
    rng = random.Random(90)
    sandwich_ok = True
    for _ in range(200):
        dim = rng.randint(1, 3)
        x = FiniteVector.from_floats([rng.uniform(-1, 1) for _ in range(dim)])
        if x.is_zero:
            continue
        t = oracle(x).to_float()
        r = rho_eval(fam, x).to_float()
        if not (t * (1 - 1e-9) <= r <= 2 * t):
            sandwich_ok = False
            break

    def l1_oracle(v: FiniteVector) -> LogReal:
        total = ZERO
        for c in v.coords.values():
            total = total + abs(c)
        return total

    from orliczlab import build_norming_family

    W = build_norming_family(l1_oracle, 2, eps=0.3, seed=91)
    pts = [
        FiniteVector.from_floats([rng.uniform(-1, 1), rng.uniform(-1, 1)])
        for _ in range(100)
    ]
    pn = check_precisely_norming(W, l1_oracle, pts, Tolerance(rel=1e-8))
    attained = pn.summary["attained"] == pn.summary["samples"]
    elapsed = time.perf_counter() - start
    report(
        9,
        sandwich_ok and attained and elapsed < 60.0,
        f"(sandwich ok = {sandwich_ok}, l1 attained {pn.summary['attained']}/"
        f"{pn.summary['samples']}, {elapsed:.1f}s)",
    )


def test_c10_deterministic_csv(tmp_path):
    """Reruns of every CLI suite with a fixed seed emit identical bytes."""
    squares_fn = tmp_path / "squares.fn"
    squares_fn.write_text("kind = pow2_poly\na = 1\nb = 0\nc = 0\n", encoding="utf-8")
    ce_fn = tmp_path / "ce.fn"
    ce_fn.write_text("kind = counterexample\ndepth = 20\n", encoding="utf-8")
    vec = tmp_path / "v.vec"
    vec.write_text("3 1 0.25\n", encoding="utf-8")
    commands = [
        ["norm", "--function", str(squares_fn), "--vector", str(vec)],
        ["renorm", "--function", str(squares_fn), "--m", "1", "--depth", "10"],
        ["claims", "--function", str(ce_fn), "--depth", "20", "--k-list", "2,4,8,16"],
        ["ratio-bound", "--function", str(ce_fn), "--m", "2", "--depth", "10"],
        ["probe", "--function", str(squares_fn), "--depth", "15"],
        ["cq", "--function", str(squares_fn), "--q", "3", "--m", "10", "--depth", "10"],
        ["norming-family", "--function", str(squares_fn), "--seed", "17"],
    ]
    identical = True
    for idx, argv in enumerate(commands):
        blobs = []
        for run in (0, 1):
            out = tmp_path / f"cmd{idx}_run{run}.csv"
            cli_main(argv + ["--seed", "17", "--format", "csv", "--out", str(out)])
            blobs.append(out.read_bytes())
        if blobs[0] != blobs[1]:
            identical = False
            break
    # fresh interpreters with distinct hash seeds must also agree
    import os
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH", "")) if p)
    blobs = []
    for run, hash_seed in ((0, "1"), (1, "99")):
        out = tmp_path / f"proc_run{run}.csv"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        subprocess.run(
            [
                sys.executable,
                "-m",
                "orliczlab.cli",
                "norming-family",
                "--function",
                str(squares_fn),
                "--seed",
                "17",
                "--format",
                "csv",
                "--out",
                str(out),
            ],
            check=True,
            env=env,
        )
        blobs.append(out.read_bytes())
    identical = identical and blobs[0] == blobs[1]
    report(10, identical, f"({len(commands)} commands in-process + 1 cross-process)")
