"""The slow-ratio slope construction and the attainment-failure probe.

The slope sequence is assembled from four auxiliary sequences:

    alpha(0) = alpha(1) = alpha(2) = 1,  alpha(j) = (e/j)^j  for j >= 3
    c(0) = 1,  c(j+1) = alpha(j) * alpha(2 j^2) * c(j)
    s(n) = n (n + 1) / 2,  t(n) = 2^(-s(n))
    b(0) = c(0),  b(1) = c(1),
    b(s(n) + k) = c(n + 1) / alpha(n + 1 - k)   for n >= 1, 1 <= k <= n + 1

The b-indexing is a bijection onto the nonnegative integers: row n covers
exactly [s(n) + 1, s(n + 1)].  The induced piecewise-linear function has
M(2^m t(n)) / M(t(n)) bounded in n for every fixed m, which is what the
greedy probe below exercises.  Every check, and the greedy's budget, is
decided exactly on the float log2 values, with no tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .logreal import LogReal
from .orlicz import _MAX_TABLE_DEPTH, DyadicOrliczFunction, SlopeSequence, make_dyadic_plf
from .renorm import EtaSequence
from .reports import CheckRow, Report
from .vectors import _norm_log2

_LOG2E = 1.0 / math.log(2.0)


def triangular(n: int) -> int:
    return n * (n + 1) // 2


def row_of_index(i: int) -> tuple[int, int]:
    """The unique (n, k) with i = s(n) + k, n >= 1, 1 <= k <= n + 1 (i >= 2).

    n is the largest integer with s(n) < i, that is s(n) <= i - 1, which is
    (2n + 1)^2 <= 8(i - 1) + 1.  For the integer 2n + 1 that holds exactly
    when 2n + 1 <= isqrt(8(i - 1) + 1), so n = (isqrt(8(i - 1) + 1) - 1) // 2,
    in integers throughout.  Then s(n) < i <= s(n + 1) gives 1 <= k <= n + 1,
    and i >= 2 = s(1) + 1 gives n >= 1.
    """
    if i < 2:
        raise IndexError(f"rows start at index 2, got {i}")
    n = (math.isqrt(8 * (i - 1) + 1) - 1) // 2
    return n, i - triangular(n)


class CounterexampleSequences:
    """Memoized log2 accessors for alpha, c, s and b.

    The c recursion is taken with equality and c(0) = 1, the canonical
    reproducible choice.
    """

    def __init__(self, depth: int):
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        self.depth = depth
        # no breakpoint table can read slopes past its cap
        if self.max_b_index() > _MAX_TABLE_DEPTH:
            raise ValueError(f"depth {depth} reaches b({self.max_b_index()}), past the table cap")
        self._log2_c: list[float] = [0.0]

    # -- raw sequences -----------------------------------------------------

    @staticmethod
    def log2_alpha(j: int) -> float:
        if j < 0:
            raise IndexError(f"alpha index must be >= 0, got {j}")
        if j <= 2:
            return 0.0
        return j * (_LOG2E - math.log2(j))

    def log2_c(self, j: int) -> float:
        if j < 0:
            raise IndexError(f"c index must be >= 0, got {j}")
        table = self._log2_c
        while len(table) <= j:
            top = len(table) - 1
            table.append(table[top] + self.log2_alpha(top) + self.log2_alpha(2 * top * top))
        return table[j]

    @staticmethod
    def s(n: int) -> int:
        if n < 1:
            raise IndexError(f"s index must be >= 1, got {n}")
        return triangular(n)

    def log2_b(self, i: int) -> float:
        if i < 0:
            raise IndexError(f"b index must be >= 0, got {i}")
        if i <= 1:
            return self.log2_c(i)
        n, k = row_of_index(i)
        return self.log2_c(n + 1) - self.log2_alpha(n + 1 - k)

    # -- derived objects -----------------------------------------------------

    def max_b_index(self) -> int:
        """Largest b index covered by the declared depth."""
        return triangular(self.depth) + self.depth + 1

    def slopes(self) -> SlopeSequence:
        return SlopeSequence(self.log2_b, source=self)

    def make_function(self) -> DyadicOrliczFunction:
        return make_dyadic_plf(self.slopes())


def gen_sequences(depth: int) -> CounterexampleSequences:
    """Sequences with every accessor defined for indices reachable at depth."""
    return CounterexampleSequences(depth)


# -- claim verification ------------------------------------------------------


def verify_claims(
    seqs: CounterexampleSequences,
    j_max: int,
    K_list: list[int],
) -> Report:
    """Check the three structural facts about the slope sequence.

    claim1: b is nonincreasing up to j_max.
    claim2: b(m+n) <= alpha(m) b(n) for 0 <= m, 2 <= n, m + n <= j_max.
    claim3: per K, the grid supremum of b(m+n) K^m / b(n) together with the
    two supporting scans: row maxima of b(s_i + k) K^(s_i + k) must fall off
    after an interior peak, and alpha(m) K^m must peak strictly inside the
    scanned m-range.  The comparisons are exact; claim1 and claim2 at m = 0
    compare values built by the same expressions, so their margins are 0.
    j_max may not pass seqs.max_b_index(), the last b index the depth
    declares.

    Claim 2 compares every pair but keeps O(j_max) rows: for each n, a row
    per failing pair in m order, or, when all pass, one witness row, the
    m >= 1 with the smallest margin ((0, j_max) at n = j_max).  Each
    claim-2 row's note gives the pairs checked for its n.
    summary["checks"] counts comparisons, not rows; every failing comparison
    keeps its row, so summary["failures"] counts both.  render_text's
    per-check line counts rows.
    """
    if j_max < 3:
        raise ValueError(f"j_max must be >= 3, got {j_max}")
    if j_max > seqs.max_b_index():
        raise ValueError(f"j_max {j_max} is past the declared rows: "
                         f"seqs.max_b_index() is {seqs.max_b_index()} at depth {seqs.depth}")
    # every index the scans read is at most j_max; tabulate once
    lb = [seqs.log2_b(i) for i in range(j_max + 1)]
    la = [seqs.log2_alpha(i) for i in range(j_max + 1)]
    rows: list[CheckRow] = []
    summary: dict[str, object] = {}

    for i in range(j_max):
        lhs = lb[i + 1]
        rhs = lb[i]
        rows.append(CheckRow("claim1-monotone", (i,), lhs, rhs, rhs - lhs, lhs <= rhs))

    unshown = 0  # claim-2 comparisons that passed without a row of their own
    for n in range(2, j_max + 1):
        bn = lb[n]
        pairs = range(j_max - n + 1)
        shown = [m for m in pairs if not lb[m + n] <= la[m] + bn]
        if not shown:
            # m = 0 compares b(n) with itself (margin 0), so it is the
            # witness only when it is the sole pair; ties go to the least m
            margins = [la[m] + bn - lb[m + n] for m in pairs[1:]]
            shown = [1 + margins.index(min(margins))] if margins else [0]
        unshown += len(pairs) - len(shown)
        note = f"pairs checked: {len(pairs)}"
        for m in shown:
            lhs = lb[m + n]
            rhs = la[m] + bn
            rows.append(
                CheckRow("claim2-alpha-shift", (m, n), lhs, rhs, rhs - lhs, lhs <= rhs, note)
            )

    for K in K_list:
        logK = math.log2(K)
        m_logK = [m * logK for m in range(j_max + 1)]
        sup = -math.inf
        arg = (0, 0)
        for n in range(1, j_max):
            bn = lb[n]
            for m in range(0, j_max - n + 1):
                v = lb[m + n] - bn + m_logK[m]
                if v > sup:
                    sup = v
                    arg = (m, n)
        summary[f"claim3-sup-log2-K{K}"] = sup
        summary[f"claim3-arg-K{K}"] = arg

        # row maxima u_i = max_k b(s_i + k) K^(s_i + k): interior peak, then
        # strictly decreasing to the end of the scanned rows
        u: list[float] = []
        i = 1
        while triangular(i) + i + 1 <= j_max:
            si = triangular(i)
            u.append(max(lb[si + k] + m_logK[si + k] for k in range(1, i + 2)))
            i += 1
        peak = max(range(len(u)), key=lambda idx: u[idx])
        falls = all(u[idx + 1] < u[idx] for idx in range(peak, len(u) - 1))
        ok = peak < len(u) - 1 and falls
        rows.append(
            CheckRow(
                check="claim3-row-decay",
                indices=(K, peak + 1),
                lhs_log2=u[-1],
                rhs_log2=u[peak],
                margin_log2=u[peak] - u[-1],
                passed=ok,
                note=f"rows scanned: {len(u)}",
            )
        )

        a_vals = [la[mm] + m_logK[mm] for mm in range(0, j_max)]
        a_peak = max(range(len(a_vals)), key=lambda idx: a_vals[idx])
        a_ok = a_peak < len(a_vals) - 1 and all(
            a_vals[idx + 1] <= a_vals[idx] for idx in range(a_peak, len(a_vals) - 1)
        )
        rows.append(
            CheckRow(
                check="claim3-alpha-bounded",
                indices=(K, a_peak),
                lhs_log2=a_vals[-1],
                rhs_log2=a_vals[a_peak],
                margin_log2=a_vals[a_peak] - a_vals[-1],
                passed=a_ok,
            )
        )

    failures = [r for r in rows if not r.passed]
    summary["checks"] = len(rows) + unshown
    summary["failures"] = len(failures)
    if failures:
        w = failures[0]
        summary["first-witness"] = f"{w.check} at {w.indices}: lhs={w.lhs_log2} rhs={w.rhs_log2}"
    return Report(name="claims", rows=rows, summary=summary)


def ratio_bound_check(
    seqs: CounterexampleSequences,
    M: DyadicOrliczFunction,
    m: int,
    n_max: int,
) -> Report:
    """For m < n <= n_max verify M(2^m t(n))/M(t(n)) <= 2^(m+1)/alpha(m),
    that the ratio is >= 1, and the identity b(s(n) - m) = c(n)/alpha(m)."""
    if n_max <= m:
        raise ValueError(f"need n_max > m, got n_max={n_max} m={m}")
    rows: list[CheckRow] = []
    for n in range(m + 1, n_max + 1):
        sn = triangular(n)
        ratio = M.eval_log2(float(m - sn)) - M.breakpoint_log2(sn)
        bound = (m + 1.0) - seqs.log2_alpha(m)
        rows.append(
            CheckRow(
                check="tail-ratio-bound",
                indices=(m, n),
                lhs_log2=ratio,
                rhs_log2=bound,
                margin_log2=bound - ratio,
                passed=ratio <= bound,
            )
        )
        rows.append(
            CheckRow(
                check="tail-ratio-at-least-one",
                indices=(m, n),
                lhs_log2=0.0,
                rhs_log2=ratio,
                margin_log2=ratio,
                passed=ratio >= 0.0,
            )
        )
        ident_lhs = seqs.log2_b(sn - m)
        ident_rhs = seqs.log2_c(n) - seqs.log2_alpha(m)
        rows.append(
            CheckRow(
                check="shifted-slope-identity",
                indices=(m, n),
                lhs_log2=ident_lhs,
                rhs_log2=ident_rhs,
                margin_log2=abs(ident_lhs - ident_rhs),
                passed=ident_lhs == ident_rhs,
            )
        )
    failures = sum(not r.passed for r in rows)
    return Report(
        name="ratio-bound",
        rows=rows,
        summary={"m": m, "n_max": n_max, "checks": len(rows), "failures": failures},
    )


# -- greedy construction -------------------------------------------------------


# Candidates the greedy scan tries at one step before it gives up.
_SEARCH_CAP = 5000


class GreedySearchError(RuntimeError):
    """The candidate scan hit its cap without satisfying the norm budget."""

    def __init__(self, step: int, n_reached: int):
        super().__init__(
            f"greedy step {step}: no candidate n <= {n_reached} satisfied the "
            "budget; the t-sequence does not appear to be null"
        )
        self.step = step
        self.n_reached = n_reached


@dataclass
class GreedyTrace:
    """Chosen indices and renormed prefix values of the greedy construction."""

    chosen: list[int]
    prefix_value_log2: list[float]     # renormed value of each prefix
    budget_margin_log2: list[float]    # alpha - eta_k * value, in log2 terms
    candidates_tried: list[int]


def greedy_nk(
    M: DyadicOrliczFunction,
    eta: EtaSequence,
    alpha: LogReal,
    t_seq: Callable[[int], LogReal],
    depth: int,
) -> GreedyTrace:
    """Smallest-index greedy fill-in under the weighted-norm budget.

    Step k picks the least n >= n_{k-1} with
    eta_k * |prefix + t(n) e_k| <= alpha, compared exactly, so no accepted
    step is over budget; existence is guaranteed for null t-sequences
    because eta strictly decreases, and the scan raises GreedySearchError
    once more than _SEARCH_CAP candidates failed at one step instead of
    looping.

    Each accepted coordinate is <= every earlier one, so the prefix is its own
    rearrangement and the new renormed value is max(previous value,
    eta_k * head-k norm): one Newton solve per candidate.
    """
    if alpha.sign <= 0:
        raise ValueError(f"alpha threshold must be positive, got {alpha}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    alpha_log2 = alpha.log2mag
    chosen: list[int] = []
    coords_log2: list[float] = []
    values: list[float] = []
    margins: list[float] = []
    tried: list[int] = []
    prev_value = -math.inf
    n = 1
    for k in range(1, depth + 1):
        count = 0
        while True:
            t_n = t_seq(n)
            if t_n.sign <= 0:
                raise ValueError(f"t({n}) must be positive, got {t_n}")
            cand = coords_log2 + [t_n.log2mag]
            if len(cand) >= 2 and cand[-1] > cand[-2]:
                raise ValueError("t-sequence must be nonincreasing along the scan")
            new_value = max(prev_value, eta.log2(k) + _norm_log2(M, cand))
            if eta.log2(k) + new_value <= alpha_log2:
                break
            n += 1
            count += 1
            if count > _SEARCH_CAP:
                raise GreedySearchError(k, n)
        chosen.append(n)
        coords_log2 = cand
        prev_value = new_value
        values.append(new_value)
        margins.append(alpha_log2 - (eta.log2(k) + new_value))
        tried.append(count + 1)
    return GreedyTrace(
        chosen=chosen,
        prefix_value_log2=values,
        budget_margin_log2=margins,
        candidates_tried=tried,
    )


# -- the dichotomy probe -------------------------------------------------------

PROBE_INCREASING = "strictly-increasing"
PROBE_STABILIZED = "stabilized"
PROBE_INCONCLUSIVE = "inconclusive"


def default_probe_t(n: int) -> LogReal:
    """t(n) = 2^(-n(n+1)/2), the triangular-exponent dyadic sequence."""
    return LogReal.two_pow(-float(triangular(n)))


def attainment_failure_probe(M: DyadicOrliczFunction, eta: EtaSequence, depth: int) -> Report:
    """Greedy-fill a vector, then watch the renormed truncation values v_k.

    The vector is greedy_nk's along t(n) = 2^(-n(n+1)/2) (default_probe_t)
    under the unit budget alpha = 1: the renormed value dominates the base
    norm, so the budget keeps the base norm of every prefix at most 1.

    Strictly increasing v_k through the whole scan is the non-attainment
    signature; a plateau v_m = ... = v_depth with m < depth is the attainment
    signature.  v_k is a running max read exactly: it "rose" when
    v_k > v_(k-1), and the plateau starts at the first v_k == v_depth; the
    exact budget keeps every v_k <= alpha.  The verdict is about the scanned
    range only.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    alpha = LogReal.one()
    trace = greedy_nk(M, eta, alpha, default_probe_t, depth)
    v = trace.prefix_value_log2
    rows = []
    strict = True
    for k in range(depth):
        rose = k == 0 or v[k] > v[k - 1]
        if k > 0:
            strict = strict and rose
        rows.append(
            CheckRow(
                check="truncation-value",
                indices=(k + 1, trace.chosen[k]),
                lhs_log2=v[k],
                rhs_log2=alpha.log2mag,
                margin_log2=alpha.log2mag - v[k],
                passed=v[k] <= alpha.log2mag,
                note="rose" if rose else "flat",
            )
        )
    stabilized_at = depth
    for k in range(depth):
        if v[k] == v[-1]:
            stabilized_at = k + 1
            break
    if strict and depth > 1:
        verdict = PROBE_INCREASING
    elif stabilized_at < depth:
        verdict = PROBE_STABILIZED
    else:
        verdict = PROBE_INCONCLUSIVE
    summary = {
        "verdict": verdict,
        "stabilized_at": stabilized_at if verdict == PROBE_STABILIZED else None,
        "depth": depth,
        "alpha_log2": alpha.log2mag,
        "chosen": list(trace.chosen),
    }
    return Report(name="probe", rows=rows, summary=summary)
