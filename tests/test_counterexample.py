"""Slow-ratio slope construction, claim checks, greedy trace and probe."""

import math
from dataclasses import astuple, replace
from fractions import Fraction
from itertools import groupby

import pytest

from orliczlab import (
    CounterexampleSequences,
    EtaSequence,
    FiniteVector,
    GreedySearchError,
    LogReal,
    ZERO,
    gen_sequences,
    geometric_slopes,
    greedy_nk,
    identity_slopes,
    luxemburg_norm,
    make_dyadic_plf,
    ratio_bound_check,
    squares_slopes,
    triple_norm,
    verify_claims,
)
from orliczlab.counterexample import (
    attainment_failure_probe,
    default_probe_t,
    row_of_index,
    triangular,
)
from orliczlab.logreal import log2_add
from orliczlab.reports import CheckRow

_LOG2E = 1.0 / math.log(2.0)


class _DoubledC(CounterexampleSequences):
    """The c recursion with an extra factor 2 per step: c(j) is 2^j too large,
    so b is no longer nonincreasing and claim 1 fails."""

    def log2_c(self, j):
        return super().log2_c(j) + j


class _ShrunkAlpha(CounterexampleSequences):
    """alpha(j) divided by 2^shift for j >= 3 while b stays the unmodified
    construction's, so claim 2 fails at some pairs and claims 1 and 3 pass."""

    def __init__(self, depth, shift=1):
        super().__init__(depth)
        self._plain = CounterexampleSequences(depth)
        self._shift = shift

    def log2_alpha(self, j):
        return CounterexampleSequences.log2_alpha(j) - self._shift * (j >= 3)

    def log2_b(self, i):
        return self._plain.log2_b(i)


@pytest.fixture(scope="module")
def seqs():
    return gen_sequences(45)


@pytest.fixture(scope="module")
def M_ce(seqs):
    return seqs.make_function()


@pytest.fixture(scope="module")
def eta_pow2():
    return EtaSequence.one_plus_pow2()


class TestSequences:
    def test_alpha_head(self, seqs):
        for j in (0, 1, 2):
            assert seqs.log2_alpha(j) == 0.0

    def test_alpha_3(self, seqs):
        # (e/3)^3 with log2 about -0.4268
        assert 2.0 ** seqs.log2_alpha(3) == pytest.approx((math.e / 3) ** 3, rel=1e-13)
        assert seqs.log2_alpha(3) == pytest.approx(-0.4268, abs=1e-4)

    def test_alpha_nonincreasing(self, seqs):
        # (e/j)^j decreases for j >= 1; the floats are checked through
        # twice the deepest constructible depth (2 826, the table cap)
        prev = math.inf
        for j in range(0, 5_655):
            v = seqs.log2_alpha(j)
            assert v <= prev
            prev = v

    def test_c_nonincreasing(self, seqs):
        # alpha <= 1, so each step of the c recursion adds log2 values <= 0
        prev = math.inf
        for j in range(0, 2_828):
            v = seqs.log2_c(j)
            assert v <= prev
            prev = v

    def test_c3_unrolled(self, seqs):
        # c(1) = c(2) = 1 and c(3) = alpha(2) alpha(8) c(2) = (e/8)^8
        assert seqs.log2_c(1) == 0.0
        assert seqs.log2_c(2) == 0.0
        assert seqs.log2_c(3) == pytest.approx(8 * (_LOG2E - 3.0), rel=1e-14)

    def test_triangular_and_t(self, seqs):
        assert seqs.s(4) == 10
        assert default_probe_t(4) == LogReal.two_pow(-10)

    def test_b6_is_c3(self, seqs):
        # index 6 = s(2) + 3, so b(6) = c(3)/alpha(0) = c(3)
        assert seqs.log2_b(6) == seqs.log2_c(3)

    def test_b_head(self, seqs):
        assert seqs.log2_b(0) == seqs.log2_c(0)
        assert seqs.log2_b(1) == seqs.log2_c(1)

    def test_index_map_bijection(self, seqs):
        # every i >= 2 has exactly one (n, k) with i = s(n) + k, 1 <= k <= n+1
        top = seqs.max_b_index()
        for i in range(2, top + 1):
            n, k = row_of_index(i)
            assert n >= 1 and 1 <= k <= n + 1
            assert triangular(n) + k == i
        # and the rows tile without overlap
        covered = sorted(
            triangular(n) + k
            for n in range(1, seqs.depth + 1)
            for k in range(1, n + 2)
        )
        assert covered == list(range(2, triangular(seqs.depth) + seqs.depth + 2))

    def test_row_of_index_against_the_rows(self):
        # the rows s(n) + 1 .. s(n) + n + 1 in order, up to index 100 000
        expected = ((n, k) for n in range(1, 500) for k in range(1, n + 2))
        for i, nk in zip(range(2, 100_001), expected):
            assert row_of_index(i) == nk

    def test_validation_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            gen_sequences(0)

    def test_depth_limited_by_table_cap(self):
        # max_b_index(2826) = 3 997 378 fits the 4 000 000-entry table cap;
        # 2827 reaches b(4 000 206) and is refused before any table is built
        assert gen_sequences(2826).max_b_index() == 3_997_378
        with pytest.raises(ValueError, match="past the table cap"):
            gen_sequences(2827)
        with pytest.raises(ValueError, match="past the table cap"):
            CounterexampleSequences(10**8)


class TestClaims:
    def test_all_pass_at_depth_40(self, seqs):
        rep = verify_claims(seqs, 40, [2, 4, 8, 16])
        assert rep.summary["failures"] == 0
        checks = {r.check for r in rep.rows}
        assert checks == {
            "claim1-monotone",
            "claim2-alpha-shift",
            "claim3-row-decay",
            "claim3-alpha-bounded",
        }

    def test_claim2_equality_edge_at_m0(self, seqs):
        rep = verify_claims(seqs, 12, [2])
        rows = [r for r in rep.rows if r.check == "claim2-alpha-shift" and r.indices[0] == 0]
        assert rows
        for r in rows:
            assert r.passed
            assert r.margin_log2 == 0.0

    def test_corrupted_c_fails_with_witness(self):
        bad = _DoubledC(20)
        rep = verify_claims(bad, 20, [2])
        assert rep.summary["failures"] > 0
        assert "claim1-monotone" in rep.summary["first-witness"]
        first = next(r for r in rep.rows if not r.passed)
        assert first.lhs_log2 > first.rhs_log2  # the witness carries both sides

    def test_grid_supremum_reported_per_K(self, seqs):
        rep = verify_claims(seqs, 30, [2, 16])
        assert "claim3-sup-log2-K2" in rep.summary
        assert rep.summary["claim3-sup-log2-K16"] > rep.summary["claim3-sup-log2-K2"]

    def test_claim2_margins_against_mpmath(self, seqs):
        # independent 50-digit route for a handful of margins
        import mpmath as mp

        def mp_alpha(j):
            return mp.mpf(1) if j <= 2 else (mp.e / j) ** j

        def mp_c(j):
            out = mp.mpf(1)
            for i in range(j):
                out *= mp_alpha(i) * mp_alpha(2 * i * i)
            return out

        def mp_b(i):
            if i <= 1:
                return mp_c(i)
            n, k = row_of_index(i)
            return mp_c(n + 1) / mp_alpha(n + 1 - k)

        rep = verify_claims(seqs, 25, [2])
        rows = [r for r in rep.rows if r.check == "claim2-alpha-shift"]
        assert len(rows) == 24
        for r in rows:
            m, n = r.indices
            with mp.workdps(50):
                want = mp.log(mp_alpha(m) * mp_b(n) / mp_b(m + n), 2)
            assert r.margin_log2 == pytest.approx(float(want), abs=1e-9)

    def test_jmax_validation(self, seqs):
        with pytest.raises(ValueError):
            verify_claims(seqs, 2, [2])

    def test_jmax_past_the_declared_rows(self):
        # depth 3 declares b up to index s(3) + 4 = 10; depth 20 up to 231
        assert verify_claims(gen_sequences(3), 10, [2]).summary["failures"] == 0
        with pytest.raises(ValueError, match=r"j_max 11 .*max_b_index\(\) is 10 "):
            verify_claims(gen_sequences(3), 11, [2])
        with pytest.raises(ValueError, match=r"j_max 3000 .*max_b_index\(\) is 231 "):
            verify_claims(gen_sequences(20), 3000, [2])

    def test_shrunk_alpha_keeps_a_row_per_failing_pair(self):
        bad = _ShrunkAlpha(30)
        j_max = 40
        rep = verify_claims(bad, j_max, [2])
        failing = []  # brute force over all pairs, in (n, m) order
        for n in range(2, j_max + 1):
            for m in range(0, j_max - n + 1):
                lhs = bad.log2_b(m + n)
                rhs = bad.log2_alpha(m) + bad.log2_b(n)
                if not lhs <= rhs:
                    failing.append(((m, n), lhs, rhs))
        assert len(failing) == 15
        assert [(r.check, r.indices) for r in rep.rows if not r.passed] == [
            ("claim2-alpha-shift", ij) for ij, _, _ in failing
        ]
        assert rep.summary["failures"] == 15
        ij, lhs, rhs = failing[0]
        assert ij == (3, 7)
        assert rep.summary["first-witness"] == (
            f"claim2-alpha-shift at {ij}: lhs={lhs} rhs={rhs}"
        )

    def test_rows_grow_linearly_in_jmax(self, seqs):
        j_max, K_list = 800, [2, 4, 8, 16]
        rep = verify_claims(seqs, j_max, K_list)
        assert rep.summary["failures"] == 0
        assert len(rep.rows) <= 2 * j_max + 2 * len(K_list)
        # claim 1, every (m, n) pair of claim 2, two claim-3 rows per K
        assert rep.summary["checks"] == j_max + j_max * (j_max - 1) // 2 + 2 * len(K_list)


def _claims_per_call(seqs, j_max, K_list):
    """verify_claims with a seqs.log2_b / seqs.log2_alpha call per term."""
    rows = []
    summary = {}
    for i in range(j_max):
        lhs = seqs.log2_b(i + 1)
        rhs = seqs.log2_b(i)
        rows.append(CheckRow("claim1-monotone", (i,), lhs, rhs, rhs - lhs, lhs <= rhs))
    for n in range(2, j_max + 1):
        for m in range(0, j_max - n + 1):
            lhs = seqs.log2_b(m + n)
            rhs = seqs.log2_alpha(m) + seqs.log2_b(n)
            rows.append(
                CheckRow("claim2-alpha-shift", (m, n), lhs, rhs, rhs - lhs, lhs <= rhs)
            )
    for K in K_list:
        logK = math.log2(K)
        sup = -math.inf
        arg = (0, 0)
        for n in range(1, j_max):
            for m in range(0, j_max - n + 1):
                v = seqs.log2_b(m + n) - seqs.log2_b(n) + m * logK
                if v > sup:
                    sup = v
                    arg = (m, n)
        summary[f"claim3-sup-log2-K{K}"] = sup
        summary[f"claim3-arg-K{K}"] = arg
        u = []
        i = 1
        while triangular(i) + i + 1 <= j_max:
            si = triangular(i)
            u.append(max(seqs.log2_b(si + k) + (si + k) * logK for k in range(1, i + 2)))
            i += 1
        peak = max(range(len(u)), key=lambda idx: u[idx])
        falls = all(u[idx + 1] < u[idx] for idx in range(peak, len(u) - 1))
        ok = peak < len(u) - 1 and falls
        rows.append(
            CheckRow("claim3-row-decay", (K, peak + 1), u[-1], u[peak], u[peak] - u[-1], ok,
                     f"rows scanned: {len(u)}")
        )
        a_vals = [seqs.log2_alpha(mm) + mm * logK for mm in range(0, j_max)]
        a_peak = max(range(len(a_vals)), key=lambda idx: a_vals[idx])
        a_ok = a_peak < len(a_vals) - 1 and all(
            a_vals[idx + 1] <= a_vals[idx] for idx in range(a_peak, len(a_vals) - 1)
        )
        rows.append(
            CheckRow("claim3-alpha-bounded", (K, a_peak), a_vals[-1], a_vals[a_peak],
                     a_vals[a_peak] - a_vals[-1], a_ok)
        )
    failures = [r for r in rows if not r.passed]
    summary["checks"] = len(rows)
    summary["failures"] = len(failures)
    if failures:
        w = failures[0]
        summary["first-witness"] = f"{w.check} at {w.indices}: lhs={w.lhs_log2} rhs={w.rhs_log2}"
    return rows, summary


def _one_claim2_row_per_n(rows):
    """The reference rows with claim 2 cut to verify_claims' rows: per n, every
    failing pair, else the m >= 1 of least margin (ties to the least m), else
    m = 0; each noted with the pairs checked for its n."""
    claim2 = [r for r in rows if r.check == "claim2-alpha-shift"]
    cut = []
    for _, group in groupby(claim2, key=lambda r: r.indices[1]):
        group = list(group)
        kept = [g for g in group if not g.passed] or sorted(
            group, key=lambda g: (g.indices[0] == 0, g.margin_log2, g.indices[0])
        )[:1]
        cut += [replace(g, note=f"pairs checked: {len(group)}") for g in kept]
    first = rows.index(claim2[0])
    return rows[:first] + cut + rows[first + len(claim2):]


class TestClaimsTabulated:
    """verify_claims reads tables; it must match a call per term exactly, with
    claim 2 cut to one row per n and the summary still counting every pair."""

    @pytest.mark.parametrize("depth", [20, 45, 90])
    @pytest.mark.parametrize("j_max", [3, 40, 80])
    @pytest.mark.parametrize("K_list", [[2, 4, 8, 16], [3, 5]])
    def test_matches_per_call_scan(self, depth, j_max, K_list):
        self._assert_same(gen_sequences(depth), j_max, K_list)

    @pytest.mark.parametrize("j_max", [3, 40])
    def test_matches_per_call_scan_on_failing_rows(self, j_max):
        bad = _DoubledC(30)
        rows, summary = self._assert_same(bad, j_max, [2, 3])
        assert summary["failures"] > 0 and "first-witness" in summary
        assert any(r.passed for r in rows) and any(not r.passed for r in rows)

    # shift 1 fails one pair per n, shift 8 up to five
    @pytest.mark.parametrize("shift", [1, 8])
    @pytest.mark.parametrize("j_max", [12, 20, 40])
    def test_matches_per_call_scan_on_failing_claim2_rows(self, j_max, shift):
        rows, summary = self._assert_same(_ShrunkAlpha(30, shift), j_max, [2, 3])
        assert summary["first-witness"].startswith("claim2-alpha-shift at (3, 7)")
        assert {r.check for r in rows if not r.passed} <= {"claim2-alpha-shift"}

    @staticmethod
    def _assert_same(seqs, j_max, K_list):
        rep = verify_claims(seqs, j_max, K_list)
        all_rows, summary = _claims_per_call(seqs, j_max, K_list)
        rows = _one_claim2_row_per_n(all_rows)
        assert rep.rows == rows
        assert rep.summary == summary
        assert list(rep.summary) == list(summary)
        # repr catches what == forgives (a zero of the other sign)
        assert [repr(astuple(r)) for r in rep.rows] == [repr(astuple(r)) for r in rows]
        assert repr(rep.summary) == repr(summary)
        return rows, summary


class TestRatioBound:
    def test_m0_trivial_bound(self, seqs, M_ce):
        rep = ratio_bound_check(seqs, M_ce, 0, 12)
        assert rep.summary["failures"] == 0
        bound_rows = [r for r in rep.rows if r.check == "tail-ratio-bound"]
        for r in bound_rows:
            assert r.rhs_log2 == pytest.approx(1.0)  # 2/alpha(0) = 2

    def test_m3_bound_and_identity(self, seqs, M_ce):
        rep = ratio_bound_check(seqs, M_ce, 3, 12)
        assert rep.summary["failures"] == 0
        ident_rows = [r for r in rep.rows if r.check == "shifted-slope-identity"]
        assert len(ident_rows) == 9
        for r in ident_rows:
            assert r.margin_log2 == 0.0

    def test_ratios_at_least_one(self, seqs, M_ce):
        for m in range(0, 5):
            rep = ratio_bound_check(seqs, M_ce, m, 10)
            rows = [r for r in rep.rows if r.check == "tail-ratio-at-least-one"]
            assert all(r.passed for r in rows)
            if m == 0:
                # M(t(n)) / M(t(n)) is exactly 1
                assert all(r.margin_log2 == 0.0 for r in rows)

    def test_needs_n_beyond_m(self, seqs, M_ce):
        with pytest.raises(ValueError):
            ratio_bound_check(seqs, M_ce, 5, 5)


class TestGreedy:
    def test_equality_first_candidate(self, eta_pow2):
        # alpha set to the first candidate's own budget value
        ident = make_dyadic_plf(identity_slopes())
        t1 = default_probe_t(1)
        v1, _ = triple_norm(ident, eta_pow2, FiniteVector({1: t1}))
        alpha = v1 * LogReal.from_float(eta_pow2(1))
        trace = greedy_nk(ident, eta_pow2, alpha, default_probe_t, 3)
        assert trace.chosen[0] == 1

    def test_counterexample_run_depth30(self, M_ce, eta_pow2):
        trace = greedy_nk(M_ce, eta_pow2, LogReal.one(), default_probe_t, 30)
        # nondecreasing indices
        for a, b in zip(trace.chosen, trace.chosen[1:]):
            assert b >= a
        # the weighted budget holds at every step
        for margin in trace.budget_margin_log2:
            assert margin >= 0.0
        # minimality: once the triangle bound eta_k (v_(k-1) + eta_1 |t(n_(k-1)) e_1|)
        # fits the budget, step k repeats n_(k-1)
        v = trace.prefix_value_log2
        forced = 0
        for k in range(2, 31):
            n_prev = trace.chosen[k - 2]
            t_prev = default_probe_t(n_prev).log2mag
            single = eta_pow2.log2(1) + (t_prev - M_ce.inverse_log2(0.0))
            if eta_pow2.log2(k) + log2_add(v[k - 2], single) <= 0.0:
                forced += 1
                assert trace.chosen[k - 1] == n_prev
        assert forced > 0
        # prefix values never exceed the budget, so base norms stay <= 1
        x = FiniteVector({j + 1: default_probe_t(n) for j, n in enumerate(trace.chosen)})
        for k in (5, 15, 30):
            assert luxemburg_norm(M_ce, x.head(k)).log2mag <= 1e-11

    def test_partial_modular_sums_bounded(self, M_ce, eta_pow2, seqs):
        # sum_j M(K t(n_j)) stays below the scanned ratio supremum per K
        trace = greedy_nk(M_ce, eta_pow2, LogReal.one(), default_probe_t, 25)
        for m in (1, 2, 3):
            sup_ratio = -math.inf
            for n in range(1, max(trace.chosen) + 5):
                sn = triangular(n)
                sup_ratio = max(
                    sup_ratio, M_ce.eval_log2(float(m - sn)) - M_ce.breakpoint_log2(sn)
                )
            partial = 0.0
            for n in trace.chosen:
                partial += 2.0 ** M_ce.eval_log2(float(m - triangular(n)))
            assert math.log2(partial) <= sup_ratio + 1e-9

    def test_search_cap_errors(self, eta_pow2):
        ident = make_dyadic_plf(identity_slopes())
        # a non-null t-sequence can never satisfy a small budget
        stuck = lambda n: LogReal.from_float(0.5)
        with pytest.raises(GreedySearchError) as err:
            greedy_nk(ident, eta_pow2, LogReal.from_float(0.01), stuck, 2)
        assert err.value.n_reached == 5002

    def test_alpha_validation(self, M_ce, eta_pow2):
        with pytest.raises(ValueError):
            greedy_nk(M_ce, eta_pow2, ZERO, default_probe_t, 3)


def _exact_segment(t):
    """n >= 0 with t in (2^(-n-1), 2^-n]; segment 0 extends past 1."""
    n = 0
    while t * 2 ** (n + 1) <= 1:
        n += 1
    return n


def _exact_geometric_norm(counts):
    """Luxemburg norm of {t(n): multiplicity} under b(n) = 2^-n, in fractions.

    On segment n, M(t) = b(n) t + c(n) with c(n) = -4^-n / 3.  The modular
    sum F(s) = sum M(x s) is convex and piecewise linear in s = 1/rho, so
    Newton steps along the segment lines at each x s reach the root
    F(s) = 1 exactly, from the right after the first step.
    """
    xs = [(Fraction(1, 2 ** triangular(n)), mult) for n, mult in counts.items()]
    s = 1 / max(x for x, _ in xs)
    while True:
        segs = [(x, mult, _exact_segment(x * s)) for x, mult in xs]
        slope = sum(mult * x / 2**seg for x, mult, seg in segs)
        offset = sum(Fraction(mult, 3 * 4**seg) for _, mult, seg in segs)
        if slope * s - offset == 1:
            return 1 / s
        s = (1 + offset) / slope


def _exact_l1_norm(counts):
    return sum(mult * Fraction(1, 2 ** triangular(n)) for n, mult in counts.items())


def _exact_greedy(norm, depth):
    """greedy_nk's rule in fractions: eta_k = 1 + 2^-k, alpha = 1, t = 2^(-s(n)).

    v_k = max(v_(k-1), eta_k |head k|) and step k takes the least n >= n_(k-1)
    with eta_k v_k <= 1.
    """
    chosen = []
    counts = {}
    v = Fraction(0)
    n = 1
    for k in range(1, depth + 1):
        eta = 1 + Fraction(1, 2**k)
        while True:
            cand = dict(counts)
            cand[n] = cand.get(n, 0) + 1
            new_v = max(v, eta * norm(cand))
            if eta * new_v <= 1:
                break
            n += 1
        chosen.append(n)
        counts, v = cand, new_v
    return chosen


class TestProbe:
    def test_depth_one_trivially_stabilized(self, M_ce, eta_pow2):
        rep = attainment_failure_probe(M_ce, eta_pow2, 1)
        assert rep.summary["verdict"] != "strictly-increasing"

    def test_squares_fixture_stabilizes(self, eta_pow2):
        squares = make_dyadic_plf(squares_slopes())
        rep = attainment_failure_probe(squares, eta_pow2, 30)
        assert rep.summary["verdict"] == "stabilized"
        assert rep.summary["stabilized_at"] < 30

    def test_counterexample_resumes_after_plateau(self, eta_pow2):
        # the non-attainment signature at this scale: the value series comes
        # off its plateau and keeps climbing once the eta gaps decay, while an
        # attaining fixture stays frozen (see test above)
        deep = gen_sequences(140).make_function()
        rep = attainment_failure_probe(deep, eta_pow2, 70)
        rows = rep.rows
        rose = [r.note == "rose" for r in rows]
        assert rep.summary["verdict"] == "inconclusive"  # plateau then rise
        assert any(rose[40:])  # climbing again past the plateau
        assert rose[-1]  # still climbing at the end of the scan

    def test_values_within_budget(self, M_ce, eta_pow2):
        rep = attainment_failure_probe(M_ce, eta_pow2, 20)
        assert all(r.passed for r in rep.rows)

    @pytest.mark.parametrize(
        "slopes, norm, depth",
        [(identity_slopes, _exact_l1_norm, 120), (geometric_slopes, _exact_geometric_norm, 90)],
        ids=["identity", "geometric"],
    )
    def test_greedy_matches_rational_greedy(self, eta_pow2, slopes, norm, depth):
        # the budget is decided exactly, so no step accepts a candidate the
        # fractions greedy rejects (identity: step 61 takes t(6), not t(5);
        # geometric: step 84 takes t(4), not t(3))
        rep = attainment_failure_probe(make_dyadic_plf(slopes()), eta_pow2, depth)
        assert rep.summary["chosen"] == _exact_greedy(norm, depth)
        for r in rep.rows:
            assert r.passed == (r.margin_log2 >= 0)

    def test_geometric_step84_prefix_has_norm_one(self):
        # 5 t(1) + 15 t(2) + 64 t(3): modular 5/6 + 5/32 + 1/96 = 1 at rho = 1,
        # so eta_84 * value > 1 and a t(3) at step 84 is over budget
        M = lambda n: Fraction(2, 3) / 4 ** triangular(n)
        assert 5 * M(1) + 15 * M(2) + 64 * M(3) == 1
        assert 5 * M(1) == Fraction(5, 6) and 15 * M(2) == Fraction(5, 32)
        assert _exact_geometric_norm({1: 5, 2: 15, 3: 64}) == 1

    def test_depth30_plateau_against_mpmath(self, M_ce, eta_pow2):
        # the c08 fixture (depth 30, eta_k = 1 + 2^-k, alpha = 1) plateaus
        # exactly: fifteen t(2) fill the budget, and no t(3) head beats v_15.
        # Independent 50-digit route: slopes from the alpha, c and b
        # formulas, breakpoint tail sums, each norm by bisecting the modular.
        import mpmath as mp

        trace = greedy_nk(M_ce, eta_pow2, LogReal.one(), default_probe_t, 30)
        assert trace.chosen == [2] * 15 + [3] * 15

        with mp.workdps(50):
            def alpha(j):
                return mp.mpf(1) if j <= 2 else (mp.e / j) ** j

            c = [mp.mpf(1)]
            for j in range(30):
                c.append(alpha(j) * alpha(2 * j * j) * c[j])

            def b(i):
                if i <= 1:
                    return c[i]
                n = 1
                while (n + 1) * (n + 2) // 2 < i:
                    n += 1
                return c[n + 1] / alpha(n + 1 - (i - n * (n + 1) // 2))

            depth = 20
            slopes = [b(j) for j in range(depth + 200)]
            left = [mp.mpf(2) ** (-n - 1) for n in range(depth)]
            bp = [
                sum(slopes[j] * mp.mpf(2) ** (-j - 1) for j in range(n, n + 200))
                for n in range(depth + 1)
            ]

            def M(t):
                n = 0
                while t <= left[n]:
                    n += 1
                return bp[n + 1] + slopes[n] * (t - left[n])

            def norm(counts):
                # counts: {magnitude: multiplicity}
                modular = lambda rho: sum(m * M(a / rho) for a, m in counts.items())
                lo, hi = max(counts) / 4, 4 * sum(a * m for a, m in counts.items())
                assert modular(lo) > 1 > modular(hi)
                for _ in range(180):
                    mid = (lo + hi) / 2
                    lo, hi = (mid, hi) if modular(mid) > 1 else (lo, mid)
                return (lo + hi) / 2

            t2, t3 = mp.mpf(2) ** -3, mp.mpf(2) ** -6
            eta = lambda k: 1 + mp.mpf(2) ** -k
            heads = {
                k: eta(k) * norm({t2: min(k, 15), t3: max(0, k - 15)}) for k in range(1, 31)
            }
            v = mp.mpf(0)
            for k in range(1, 31):
                v = max(v, heads[k])
                got = trace.prefix_value_log2[k - 1]
                assert got == pytest.approx(float(mp.log(v, 2)), abs=1e-11)
            v15 = max(heads[k] for k in range(1, 16))
            assert float(mp.log(v15, 2)) == pytest.approx(-0.04715315423, abs=1e-10)
            # a 16th t(2) breaks the weighted budget eta_16 * value <= 1
            sixteenth = max(v15, eta(16) * norm({t2: 16}))
            assert eta(16) * sixteenth > 1
            # every t(3) head through depth 30 stays strictly below v_15
            for k in range(16, 31):
                assert heads[k] < v15
