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
from .vectors import FiniteVector, _prefix_norms_log2

# slack used when locating maxima / attainment among norm values that each
# carry their own rounding; ties resolve to the smallest index
_TIE_SLACK_LOG2 = 1e-11
# build_eta gives up when the last eta floor still exceeds 1 + _TAIL_GAP
_TAIL_GAP = 0.5
# breakpoints scanned below each t_max for a b_k
_BK_SCAN_DEPTH = 64


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


def _renormed(M: DyadicOrliczFunction, eta: EtaSequence, x: FiniteVector) -> tuple[float, int, int]:
    """log2 |||x|||, the smallest k attaining it and the growth index of a
    nonzero x, within the tie slack, from one prefix walk.  They depend on
    x's sorted magnitudes alone and table entries never change, so x keeps
    them for this M and eta, compared by identity.
    """
    memo = x._renorm
    if memo is not None and memo[0] is M and memo[1] is eta:
        return memo[2]
    sorted_log2 = x.sorted_log2_magnitudes()
    eta_log2 = eta.ensure_valid(len(sorted_log2) + 1)
    head_norms = _prefix_norms_log2(M, sorted_log2)
    vals = [eta_log2[k] + h for k, h in enumerate(head_norms, start=1)]
    best = max(vals)
    # each loop stops by k = N: at the maximum, and since log2 eta_N > 0
    attaining = growth = 0
    while vals[attaining] < best - _TIE_SLACK_LOG2:
        attaining += 1
    while vals[growth] < head_norms[-1] - _TIE_SLACK_LOG2:
        growth += 1
    record = best, attaining + 1, growth + 1
    x._renorm = (M, eta, record)
    return record


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
    nonincreasing packed coordinates; k = N always qualifies."""
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
    return _renormed(M, eta, x)[2]
