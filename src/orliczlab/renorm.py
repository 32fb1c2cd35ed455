"""Polyhedral-style renorming of a dyadic Orlicz space.

The scheme has three ingredients: the scaling exponent m (K = 2^m), the
infima b_k of M(Kt)/M(t) over shrinking t-ranges, and a sequence eta_k
strictly decreasing to 1 with eta_k > (1 - 1/b_{k+1})^(-1).  The renormed
value of x is

    sup_k  eta_k * || (x*_1, ..., x*_k, 0, ...) ||

over rearranged heads; for finitely supported x the supremum is a finite
maximum because all heads beyond the support coincide while eta keeps
decreasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable

from .logreal import LogReal, ZERO
from .orlicz import TREND_INCONCLUSIVE, DyadicOrliczFunction, RatioReport, ratio_inf
from .vectors import FiniteVector, _norm_log2, _prefix_norms

# slack used when locating maxima / attainment among norm values that each
# carry their own rounding; ties resolve to the smallest index
_TIE_SLACK_LOG2 = 1e-11
# build_eta gives up when the last eta floor still exceeds 1 + _TAIL_GAP
_TAIL_GAP = 0.5
# breakpoints scanned below each t_max for a b_k
_BK_SCAN_DEPTH = 64
_LN2 = math.log(2.0)


class EtaInfeasibleError(ValueError):
    """No sequence decreasing to 1 satisfies the eta constraints seen in the scan."""

    def __init__(self, k: int, floor: float, message: str):
        super().__init__(message)
        self.k = k
        self.floor = floor


class EtaSequence:
    """Weights eta_1 > eta_2 > ... > 1, checked as they are tabulated.

    The rule is stored as k -> log2(eta_k), which keeps eta_k - 1 resolvable
    far below the float epsilon around 1 (eta_k = 1 + 2^(-60) is a perfectly
    good weight).  Every entry is checked to lie above 1 and below the entry
    before it when it enters the table, so a rule that fails raises
    EtaInfeasibleError at the first index where it does.
    """

    def __init__(self, log2_fn: Callable[[int], float], description: str):
        self._log2_fn = log2_fn
        self.description = description
        # log2 eta_k at index k; index 0 is the +inf that eta_1 must lie below.
        # Entries are only appended, so a table handed out stays valid.
        self._table = [math.inf]

    def __call__(self, k: int) -> float:
        return 2.0 ** self.log2(k)

    def log2(self, k: int) -> float:
        if k < 1:
            raise IndexError(f"eta index must be >= 1, got {k}")
        return self.ensure_valid(k + 1)[k]

    def ensure_valid(self, upto: int) -> list[float]:
        """Tabulate log2 eta_k through k = upto, checking that the rule stays
        above 1 and strictly decreases, and return the shared table (read it,
        do not mutate it); idempotent."""
        table = self._table
        if upto < len(table):
            return table
        for k in range(len(table), upto + 1):
            v = self._log2_fn(k)
            if not v > 0.0:
                raise EtaInfeasibleError(k, v, f"eta_{k} = 2^{v} is not > 1")
            if not v < table[-1]:
                raise EtaInfeasibleError(
                    k, v, f"log2 eta_{k} = {v} does not strictly decrease from {table[-1]}"
                )
            table.append(v)
        return table

    @staticmethod
    def one_plus_pow2() -> "EtaSequence":
        """eta_k = 1 + 2^(-k)."""
        return EtaSequence(lambda k: math.log1p(2.0 ** (-k)) / math.log(2.0), "1+2^-k")


def build_eta(bk: Callable[[int], LogReal], k_max: int) -> EtaSequence:
    """Construct eta from computed b_k values.

    Each eta_k must exceed (1 - 1/b_{k+1})^(-1); the constructor takes the
    suffix maximum of those floors over k..k_max, holds the last floor as the
    analytic tail (valid because b_k is nondecreasing), and multiplies by the
    strictly decreasing factor (1 + 2^(-k)).  The result is strictly
    decreasing whatever the floors do, and tends to 1 exactly when the floors
    do.

    Raises EtaInfeasibleError when the floor at the end of the scan still
    exceeds 1 + _TAIL_GAP: the b_k seen were bounded, so no sequence decreasing
    to 1 can satisfy the constraints.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    ln2 = math.log(2.0)
    floors_log2 = []
    for k in range(1, k_max + 2):
        b = bk(k)
        if b.sign <= 0 or b.log2mag <= 0.0:
            raise EtaInfeasibleError(
                k,
                math.inf,
                f"b_{k} = {b} does not exceed 1; the constraint "
                f"eta_{k - 1} > (1 - 1/b_{k})^(-1) is unsatisfiable",
            )
        if k >= 2:
            # log2 of (1 - 1/b_k)^(-1), stable for huge b_k
            one_minus = -math.expm1(-b.log2mag * ln2)
            floors_log2.append(-math.log(one_minus) / ln2)
    # floors[j] binds eta_{j+1}; suffix maximum makes the rule monotone even
    # if the computed b_k wobble
    suffix = list(accumulate(reversed(floors_log2), max))[::-1]
    tail_floor_log2 = floors_log2[-1]
    if tail_floor_log2 > math.log2(1.0 + _TAIL_GAP):
        floor_value = 2.0 ** tail_floor_log2
        raise EtaInfeasibleError(
            k_max + 1,
            floor_value,
            "eta construction infeasible: the binding constraint "
            f"eta_k > (1 - 1/b_{k_max + 1})^(-1) = {floor_value:.6g} persists at the "
            f"end of the validated range (k_max = {k_max}); the scanned b_k are "
            "bounded, so no sequence decreasing to 1 satisfies it",
        )

    def log2_fn(k: int) -> float:
        g = suffix[k - 1] if k <= k_max else tail_floor_log2
        return g + math.log1p(2.0 ** (-k)) / ln2

    return EtaSequence(log2_fn, f"suffix-max floors, k_max={k_max}")


def compute_bk(M: DyadicOrliczFunction, m: int, k: int) -> RatioReport:
    """b_k = inf of M(2^m t)/M(t) over 0 < t <= M^(-1)(1/k): the infimum of
    the returned scan, whose grid[0] is log2 of that t-bound."""
    if k < 1:
        raise ValueError(f"index k must be >= 1, got {k}")
    t_max = LogReal.from_log2(M.inverse_log2(-math.log2(k)))
    return ratio_inf(M, m, t_max, depth=_BK_SCAN_DEPTH)


def compute_bk_at_scale(M: DyadicOrliczFunction, m: int, k: int) -> RatioReport:
    """Scale-indexed variant: the k-th infimum is taken over 0 < t <= 2^(-k).

    The t-range shrinks geometrically with k instead of through M^(-1)(1/k),
    which makes the b_k grow at the rate of the function's dyadic ratios; this
    is the indexing a renorm scheme is built on.
    """
    if k < 1:
        raise ValueError(f"index k must be >= 1, got {k}")
    return ratio_inf(M, m, LogReal.two_pow(-float(k)), depth=_BK_SCAN_DEPTH)


@dataclass
class RenormScheme:
    """K = 2^m, the validated b_k table, and the eta rule built from it."""

    m: int
    k_max: int
    bk_table: dict[int, LogReal]
    eta: EtaSequence
    inconclusive_k: list[int] = field(default_factory=list)

    def render(self) -> str:
        lines = [f"m = {self.m}", f"k_max = {self.k_max}"]
        for k in sorted(self.bk_table):
            lines.append(f"bk {k} = {self.bk_table[k].render()}")
        lines.append(f"eta_rule = {self.eta.description}")
        for k in sorted(self.bk_table):
            lines.append(f"eta {k} = {self.eta(k)!r}")
        if self.inconclusive_k:
            lines.append("inconclusive = " + " ".join(map(str, self.inconclusive_k)))
        return "\n".join(lines) + "\n"


def build_renorm_scheme(M: DyadicOrliczFunction, m: int, k_max: int) -> RenormScheme:
    """Compute the scale-indexed b_k table and a feasible eta, or fail loudly."""
    table: dict[int, LogReal] = {}
    inconclusive: list[int] = []
    for k in range(1, k_max + 2):
        report = compute_bk_at_scale(M, m, k)
        table[k] = report.infimum
        if report.trend == TREND_INCONCLUSIVE:
            inconclusive.append(k)
    eta = build_eta(lambda k: table[k], k_max)
    return RenormScheme(
        m=m, k_max=k_max, bk_table=table, eta=eta, inconclusive_k=inconclusive
    )


# -- the renormed value ------------------------------------------------------


def _renormed(M: DyadicOrliczFunction, eta: EtaSequence,
              x: FiniteVector) -> tuple[float, int, list[float]]:
    """log2 |||x|||, the smallest k attaining it within the tie slack and the
    log2 head norms the walk computed, for a nonzero x, from one prefix walk.
    They depend on x's sorted magnitudes alone and table entries never
    change, so x keeps them for this M and eta, compared by identity.  Only
    this function writes the record; `rearrange` hands it on.

    The walk stops at the first head k after which no head can exceed the
    best float value so far.  Let h_k be head k and t_i = a_i / ||h_k||; for
    j > k, eta_j <= eta_{k+1} and ||h_j|| <= ||x||.  At rho = ||h_k|| the
    head's modular is 1, so the full modular is 1 + T_k with
    T_k = sum_{i>k} M(t_i).  M is convex with M(0) = 0, so
    M(lambda t) <= lambda M(t) for lambda <= 1, and lambda = 1 / (1 + T_k)
    gives ||x|| <= ||h_k|| (1 + T_k).  The same convexity makes M(t) / t
    nondecreasing, so when t_{k+1} <= 2^-n with n >= 0,
    T_k <= T^_k = M(2^-n) 2^n sum_{i>k} t_i; when the next point has t > 1
    the walk goes on.  No later exact value exceeds
    log2 eta_{k+1} + log2 ||h_k|| + log2 (1 + T^_k), and
    `_tail_room` adds delta_k for the rounding, so every head
    not walked has a float value below best.  The maximum is therefore the
    same, and the attaining k, at most the argmax, is among the heads walked.
    """
    memo = x._renorm
    if memo is not None and memo[0] is M and memo[1] is eta:
        return memo[2]
    sorted_log2 = x.sorted_log2_magnitudes()
    size = len(sorted_log2)
    eta_log2 = eta.ensure_valid(size + 1)
    top = sorted_log2[0]
    floor, log2 = math.floor, math.log2
    # every delta_k is at least this: `_tail_room`'s Q is at least 2
    least_delta = (size + 2) * size * 2.0 ** -41
    logb: list[float] = []
    logM: list[float] = []
    tails: list[float] = []
    heads: list[float] = []
    best = -math.inf
    for k, h in enumerate(_prefix_norms(M, sorted_log2), start=1):
        heads.append(h)
        v = eta_log2[k] + h
        if v > best:
            best = v
        if k == size:
            break
        gap = best - eta_log2[k + 1] - h
        if gap <= least_delta:  # then no tail leaves room
            continue
        d = h - sorted_log2[k]
        if d < 0.0:
            continue
        n = floor(d)
        if n >= len(logM):
            logb, logM = M.segment_tables(0)
            # M(2^-n) 2^n only grows as n falls, so the table held serves:
            # the stop asks for no table down to a point
            if n >= len(logM):
                n = len(logM) - 1
        # the test with the next point alone in T^_k and delta_k at its
        # least: a filter that rules out most heads before `_tail_room`
        if not log2(1.0 + 2.0 ** (logM[n] + n - d)) + least_delta < gap:
            continue
        room = _tail_room(logb, logM, best, eta_log2[k + 1], top, h, d, size)
        # the N - k later terms are at most N - k times the first, which is
        # their sum when one remains; the suffix sums settle the rest, built
        # once per vector on the first head that needs them
        if sorted_log2[k] - top + log2(size - k) < room:
            break
        if size - k > 1 and room > -math.inf:
            if not tails:
                tails = _suffix_sums(sorted_log2)
            if log2(tails[k]) < room:
                break
    record = best, _first_reaching(eta_log2, heads, best), heads
    x._renorm = (M, eta, record)
    return record


def _first_reaching(eta_log2: list[float], heads: list[float], target: float) -> int:
    """Smallest k with log2 eta_k + heads[k - 1] within the tie slack of target; one must be."""
    k = 1
    while eta_log2[k] + heads[k - 1] < target - _TIE_SLACK_LOG2:
        k += 1
    return k


def _suffix_sums(sorted_log2: list[float]) -> list[float]:
    """[sum_{j >= i} 2^(rel_j)] for 0-based i, a term that rounds to 0.0 held at 2^-1074."""
    top = sorted_log2[0]
    sums = list(accumulate([2.0 ** (v - top) or 5e-324 for v in reversed(sorted_log2)]))
    sums.reverse()
    return sums


# The stop margin delta_k.  With u = 2^-53, let s = top - h_k (head k's
# root), d = h_k - log2 a_{k+1}, g = best - log2 eta_{k+1} - h_k and
#   Q = |top| + |s| + log2 eta_{k+1} + g + 2d + n_hi + max |log2 b(n)| + 2,
# the maximum over the first point's segments n_lo..n_hi below.  A stop
# needs log2 (1 + T^) + delta_k < g, and then every root of heads k..N lies
# in [s - g - 1/2, s + 1/2] (each within 1/4 of exact, as follows), which
# bounds n_1 and the frame's magnitudes there.
#
# One root.  The walk's s is sigma = log2 (1 - C) / B of a segment line that
# is valid at s (rules (b), (d)) or at the s before it (a step that did not
# fall).  Each term of C and B is a power of two whose exponent is rounded,
# by u times Q plus the point's depth X below the frame, and such a term
# weighs at most 2^-X in its sum; with X 2^-X <= 0.54, and the rounding of
# rel, of the tables (under 4 u (|log2 M| + 2)), of fsum and of the logs,
# sigma is within 2^-48 (Q + N) of the exact value of its line.  The line
# meets F = sum M(t_i) at s, with slope ln 2 (1 - C) = ln 2 sum b(n_i) t_i in
# log2 s, and F's own slope is at least ln 2 F (convexity), so the exact
# root lies within E = Lambda 2^-48 (Q + N) of s, for Lambda >= 1 - C.  As
# b(n) t <= 2 M(2t), allowing for the segment's rounding, and M(t) / t is
# nondecreasing, Lambda <= 4 (M(t') / t') sum t_i for any t' >= 2 t_1, and
# sum t_i <= N 2^(s + 1/2); `lam` takes t' = 2^-m, or, when m < 0,
# M(t') / t' <= M(1) + b(0) <= 2 max(M(1), b(0)).
#
# The test.  delta_k covers E for h_k, for the t_{k+1} that sets n (so n is
# taken at d - delta_k) and for every later float head value; the table
# value M(2^-n), whose rounding weighs min(1, T^) in log2 (1 + T^); the far
# points that tails hold at 2^-1074; and the bound's own sums.  That is
# under 2^-46 (1 + Lambda)(Q + N); delta_k takes 2^-42, a factor of 16 to
# spare.
def _tail_room(logb: list[float], logM: list[float], best: float, eta_next: float,
               top: float, h: float, d: float, size: int) -> float:
    """The largest log2 sum_{i>k} 2^(rel_i) below which the walk stops at
    head k: best > log2 eta_{k+1} + h_k + log2 (1 + T^_k) + delta_k (see
    `_renormed`); -inf when no tail is small enough.  logb and logM are M's
    tables as held, down to the first point's segment at least."""
    s = top - h
    gap = best - eta_next - h
    m = math.floor(-s - 1.5)
    lam = (logM[m] + m if m >= 0 else 1.0 + max(logM[0], logb[0])) + s + 2.5
    n_hi = math.floor(gap - s) + 1
    if n_hi < 0:
        n_hi = 0
    # lam >= 41 makes delta_k >= Q > gap; later roots past the tables held
    # are left to the walk
    if lam >= 41.0 or n_hi >= len(logb):
        return -math.inf
    n_lo = math.floor(-s) - 1
    # log2 b is nonincreasing, so its largest magnitude over n_lo..n_hi is at an end
    q = (abs(top) + abs(s) + eta_next + gap + 2.0 * d + n_hi
         + max(logb[n_lo if n_lo > 0 else 0], -logb[n_hi]) + 2.0)
    # 2^-42 (1 + Lambda)(Q + N), with 1 + Lambda <= 2^(max(lam, 0) + 1) N
    delta = (q + size) * size * 2.0 ** ((lam if lam > 0.0 else 0.0) - 41.0)
    room = gap - delta
    n = math.floor(d - delta)
    if room <= 0.0 or n < 0:
        return -math.inf
    if n >= len(logM):
        n = len(logM) - 1
    # log2 T^_k = log2 M(2^-n) + n + s + log2 sum, and log2 (1 + T^_k) < room
    # is log2 T^_k < room + log2 (1 - 2^-room)
    return room + math.log2(-math.expm1(-room * _LN2)) - logM[n] - n - s


def triple_norm(
    M: DyadicOrliczFunction, eta: EtaSequence, x: FiniteVector
) -> tuple[LogReal, int]:
    """max over 1 <= k <= N of eta_k * ||(x*_1..x*_k)||, with the smallest
    maximizing k.

    Heads beyond the support equal the full rearrangement while eta keeps
    strictly decreasing, so the finite maximum is the exact supremum.
    """
    if x.is_zero:
        return ZERO, 0
    best, attaining, _ = _renormed(M, eta, x)
    return LogReal.from_log2(best), attaining


def head_attainment_index(M: DyadicOrliczFunction, eta: EtaSequence, x: FiniteVector) -> int:
    """Smallest m >= 0 whose basis-order truncation already has the full
    renormed value; 0 for the zero vector.

    Order the support positions by magnitude, ties to the smaller position,
    and let k0 be the attaining head that triple_norm reports for the sorted
    magnitudes.  The answer is the support index at c, the largest position
    among the top k0.

    The position order lists the same floats as the sorted magnitudes that
    triple_norm walks: both are stable sorts of one sequence.  The truncation
    at c reaches the value: it holds x's k0 largest magnitudes, so its sorted
    list starts with the same k0 floats, and the walk over a prefix depends
    on that prefix alone, so its head k0 has the same bits.  No earlier
    truncation does: one that lacks position c has, for every j, a j-th
    largest magnitude at most x's, strictly smaller at c's rank, and M is
    strictly increasing, so each of its head norms lies strictly below x's.
    One walk therefore settles the index exactly.
    """
    if x.is_zero:
        return 0
    _, k0, _ = _renormed(M, eta, x)
    mags = x.log2mags
    # a stable sort keeps tied magnitudes in position order
    order = sorted(range(len(mags)), key=mags.__getitem__, reverse=True)
    return x.indices[max(order[:k0])]


def growth_index(M: DyadicOrliczFunction, eta: EtaSequence, x: FiniteVector) -> int:
    """Smallest k with ||x|| <= eta_k * ||(a_1..a_k)|| for positive
    nonincreasing packed coordinates; k = N always qualifies.

    log2 ||x|| is the record's last head if its walk reached N, else one cold
    root (the same bits when both end on the same segments); best >= log2
    eta_N ||x||, so the index is at most the attaining k, a head walked.
    """
    if x.is_zero:
        raise ValueError("growth index needs a nonzero vector")
    if x.max_index != x.support_size:
        raise ValueError("coordinates must be packed into indices 1..N")
    prev = math.inf
    for i, (sign, v) in enumerate(zip(x.signs, x.log2mags), start=1):
        if sign < 0:
            raise ValueError(f"coordinate {i} must be positive, got -2^{v!r}")
        if v > prev:
            raise ValueError(f"coordinates must be nonincreasing, violated at index {i}")
        prev = v
    _, _, heads = _renormed(M, eta, x)
    norm = (heads[-1] if len(heads) == x.support_size
            else _norm_log2(M, x.sorted_log2_magnitudes()))
    return _first_reaching(eta.ensure_valid(len(heads) + 1), heads, norm)
