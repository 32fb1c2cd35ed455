"""Dyadic piecewise-linear Orlicz functions.

A nonincreasing positive slope sequence b(0) >= b(1) >= ... > 0 determines the
convex function M with M(0) = 0 whose derivative is b(n) on the dyadic
interval (2^(-n-1), 2^(-n)) and b(0) above 1/2.  Breakpoint values are the
tail sums M(2^(-n)) = sum_{j>=n} b(j) 2^(-j-1), truncated 56 terms past the
end of each table block: the remainder is then below 2^-56 of every entry in
the block, under half an ulp.

Everything is computed in the base-2 log domain; breakpoint tables are cached,
and an entry never changes once computed.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .logreal import LogReal, log2_add, log2_sub

_LN2 = math.log(2.0)
_LOG2E = 1.0 / _LN2

# Terms summed past the end of a table block.  Slopes are nonincreasing, so
# for an entry n <= end the dropped remainder is
#   sum_{j > end + L} b(j) 2^(-j-1) <= b(end) 2^(-end-L-1) <= 2^-L M(2^(-end)),
# using M(2^(-end)) >= b(end) 2^(-end-1); and M(2^(-end)) <= M(2^(-n)).  With
# L = 56 that is below 2^-56 of the block's smallest breakpoint value.
_LOOKAHEAD = 56

# Hard cap on breakpoint table depth; beyond this the caller is asking for
# scales this laboratory is not meant to reach.
_MAX_TABLE_DEPTH = 4_000_000


class SlopeSequenceError(ValueError):
    """A slope sequence violated positivity or monotonicity."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class SlopeSequence:
    """Accessor for a nonincreasing, strictly positive slope sequence.

    The accessor must be defined for every n >= 0; `source` is the object
    that generated it, if any (the CLI reads it for the counterexample).
    """

    def __init__(self, log2_fn: Callable[[int], float], source: object | None = None):
        self._log2_fn = log2_fn
        self.source = source

    def log2_slope(self, n: int) -> float:
        if n < 0:
            raise IndexError(f"slope index must be >= 0, got {n}")
        return self._log2_fn(n)

    def validate(self, upto: int) -> None:
        """Check positivity and monotonicity on indices [0, upto]."""
        _check_log2_slopes((self.log2_slope(n) for n in range(upto + 1)), 0, math.inf)


def _check_log2_slopes(logs: Iterable[float], first: int, prev: float) -> None:
    """Raise unless logs (log2 b(first), log2 b(first + 1), ...) are log2 of
    positive reals, each at most the one before, starting from prev."""
    for n, v in enumerate(logs, start=first):
        if math.isnan(v) or math.isinf(v):  # -inf: zero, or below the float range
            raise SlopeSequenceError(n, f"slope at index {n} is not a positive real: log2 {v}")
        if v > prev:
            raise SlopeSequenceError(
                n, f"slope sequence increases at index {n}: "
                   f"log2 b({n - 1}) = {prev} < log2 b({n}) = {v}"
            )
        prev = v


def slopes_from_list(values: Sequence[LogReal]) -> SlopeSequence:
    """Explicit slope list; the final entry is held constant as the tail."""
    if not values:
        raise SlopeSequenceError(0, "empty slope list")
    logs = []
    for n, v in enumerate(values):
        if v.sign <= 0:
            raise SlopeSequenceError(n, f"slope at index {n} must be positive, got {v}")
        logs.append(v.log2mag)
    tail = logs[-1]

    def fn(n: int) -> float:
        return logs[n] if n < len(logs) else tail

    seq = SlopeSequence(fn)
    seq.validate(len(logs))
    return seq


def slopes_pow2_poly(a: float, b: float, c: float) -> SlopeSequence:
    """Closed-form family b(n) = 2^(-(a n^2 + b n + c)) with a, b >= 0."""
    if a < 0 or b < 0:
        raise SlopeSequenceError(0, f"pow2_poly needs a, b >= 0 for monotone slopes, got a={a} b={b}")

    def fn(n: int) -> float:
        return -(a * n * n + b * n + c)

    seq = SlopeSequence(fn)
    seq.validate(8)
    return seq


def identity_slopes() -> SlopeSequence:
    """b(n) = 1 for all n, so M(t) = t."""
    return slopes_pow2_poly(0.0, 0.0, 0.0)


def geometric_slopes() -> SlopeSequence:
    """b(n) = 2^(-n), giving M(2^(-n)) = (2/3) 4^(-n)."""
    return slopes_pow2_poly(0.0, 1.0, 0.0)


def squares_slopes() -> SlopeSequence:
    """b(n) = 2^(-n^2); the ratio M(2t)/M(t) blows up toward 0."""
    return slopes_pow2_poly(1.0, 0.0, 0.0)


class DyadicOrliczFunction:
    """Piecewise-linear convex M built from a dyadic slope sequence."""

    def __init__(self, slopes: SlopeSequence):
        self.slopes = slopes
        # tables are replaced, never mutated, so a list handed out stays valid
        self._logb: list[float] = []   # log2 b(n)
        self._logM: list[float] = []   # log2 M(2^(-n))
        self._depth = -1
        self._unit_inverse: float | None = None  # log2 M^(-1)(1), once asked for
        # the first block reads b(0 .. 8 + _LOOKAHEAD) and checks them, so a
        # bad slope sequence raises here
        self._ensure_depth(8)

    # -- breakpoint tables ---------------------------------------------------

    def _ensure_depth(self, depth: int) -> None:
        """Extend cached tables so logM[0..depth] and logb[0..depth] exist.

        They grow in fixed blocks [0, 8], (8, 16], (16, 32], ... (capped at
        _MAX_TABLE_DEPTH), each summing its own tail from its end + _LOOKAHEAD,
        so no entry depends on the depths requested before."""
        if depth <= self._depth:
            return
        if depth > _MAX_TABLE_DEPTH:
            raise ValueError(f"breakpoint depth {depth} exceeds the table cap {_MAX_TABLE_DEPTH}")
        while self._depth < depth:
            first = self._depth + 1
            end = min(2 * max(self._depth, 4), _MAX_TABLE_DEPTH)
            hi = end + _LOOKAHEAD
            logb_ext = [self.slopes.log2_slope(n) for n in range(first, hi + 1)]
            # monotonicity across the extension seam and inside the new window
            _check_log2_slopes(logb_ext, first, self._logb[-1] if self._logb else math.inf)
            # tail sums, deepest first: logM[n] = log2(b(n) 2^(-n-1) + M(2^(-n-1)))
            acc = -math.inf
            new_logM = []
            for n in range(hi, first - 1, -1):
                acc = log2_add(acc, logb_ext[n - first] - n - 1.0)
                if n <= end:
                    new_logM.append(acc)
            self._logM = self._logM + new_logM[::-1]
            self._logb = self._logb + logb_ext[: end - first + 1]
            self._depth = end

    def breakpoint_log2(self, n: int) -> float:
        """log2 of M(2^(-n))."""
        if n < 0:
            raise IndexError(f"breakpoint index must be >= 0, got {n}")
        self._ensure_depth(n)
        return self._logM[n]

    def segment_tables(self, depth: int) -> tuple[list[float], list[float]]:
        """The log2 b(n) and log2 M(2^(-n)) tables, both defined up to n = depth."""
        self._ensure_depth(depth)
        return self._logb, self._logM

    # -- evaluation ------------------------------------------------------------

    def eval_log2(self, u: float) -> float:
        """log2 M(t) for t = 2^u; -inf maps to -inf."""
        if u == -math.inf:
            return -math.inf
        n = int(math.floor(-u))
        if n < 0:
            n = 0
        self._ensure_depth(n + 1)
        base = self._logM[n + 1]                 # M at the left breakpoint 2^(-n-1)
        d = -(n + 1.0) - u                       # < 0 except float fuzz
        if d >= 0.0:
            return base
        one_minus = -math.expm1(d * _LN2)        # 1 - 2^d, accurate near d = 0
        seg = self._logb[n] + u + math.log(one_minus) * _LOG2E
        return log2_add(base, seg)

    def eval_log2_array(self, u: Iterable[float]) -> list[float]:
        """eval_log2 over a sequence; entries of -inf pass through."""
        return [self.eval_log2(float(v)) for v in u]

    # -- inversion --------------------------------------------------------------

    def unit_inverse_log2(self) -> float:
        """log2 M^(-1)(1), where every norm walk starts; computed on the first
        request and kept, since table entries never change.  Not computed at
        construction: some valid slope sequences have no M^(-1)(1) in range,
        and a failed request raises each time."""
        if self._unit_inverse is None:
            self._unit_inverse = self.inverse_log2(0.0)
        return self._unit_inverse

    def inverse_log2(self, ylog: float) -> float:
        """log2 of M^(-1)(y) for y = 2^ylog."""
        if ylog == -math.inf:
            return -math.inf
        self._ensure_depth(8)
        if ylog >= self._logM[1]:
            # single ray of slope b(0) above t = 1/2
            diff = log2_sub(ylog, self._logM[1])
            return log2_add(-1.0, diff - self._logb[0])
        # M(2^-cap) >= b(cap) 2^(-cap-1), so when that bound already reaches
        # ylog no table up to the cap holds a smaller breakpoint value; checked
        # only when the table held now cannot serve the call
        cap = _MAX_TABLE_DEPTH
        if self._logM[-1] >= ylog and self.slopes.log2_slope(cap) - cap - 1.0 >= ylog:
            raise ValueError("inverse argument below the supported scale")
        # grow the table a block at a time until it holds a breakpoint value
        # below ylog, then bisect the decreasing table for the first such n + 1
        depth = 8
        while True:
            logb, logM = self.segment_tables(depth)
            if logM[depth] < ylog:
                break
            if depth >= _MAX_TABLE_DEPTH:
                raise ValueError("inverse argument below the supported scale")
            depth = min(2 * depth, _MAX_TABLE_DEPTH)
        n = bisect.bisect_right(logM, -ylog, lo=2, hi=depth + 1, key=operator.neg) - 1
        diff = log2_sub(ylog, logM[n + 1])
        return log2_add(-(n + 1.0), diff - logb[n])


def make_dyadic_plf(slopes: SlopeSequence) -> DyadicOrliczFunction:
    """Build the piecewise-linear convex function induced by a slope sequence."""
    return DyadicOrliczFunction(slopes)


# -- ratio scans ----------------------------------------------------------------

TREND_INCREASING = "increasing"
TREND_BOUNDED = "bounded"
TREND_INCONCLUSIVE = "inconclusive"

# log2 slack within which a scanned tail counts as flat, or as not falling
_TREND_BAND = 1e-9


def classify_tail(values_log2: Sequence[float]) -> str:
    """Describe the tail of a scanned series (ordered toward t -> 0).

    'increasing' if the tail window rises monotonically, 'bounded' if it is
    flat within _TREND_BAND, 'inconclusive' otherwise or when the running
    minimum was still improving inside the tail window.
    """
    vals = list(values_log2)
    if len(vals) < 3:
        return TREND_INCONCLUSIVE
    window = max(4, len(vals) // 4)
    window = min(window, len(vals) - 1)
    running = vals[0]
    last_improve = 0
    for i, v in enumerate(vals):
        if v < running - _TREND_BAND:
            running = v
            last_improve = i
    if last_improve >= len(vals) - window:
        return TREND_INCONCLUSIVE
    tail = vals[-window:]
    monotone_up = all(tail[i + 1] >= tail[i] - _TREND_BAND for i in range(len(tail) - 1))
    if monotone_up and tail[-1] > tail[0] + _TREND_BAND:
        return TREND_INCREASING
    if max(tail) - min(tail) <= _TREND_BAND:
        return TREND_BOUNDED
    return TREND_INCONCLUSIVE


@dataclass
class RatioReport:
    """Scan of a ratio over a grid: log2 values and a tail-trend verdict.

    The extrema are read off the values; ties go to the first grid point.
    """

    grid: list[tuple[float, ...]]        # scan labels (log2 t, or (m, n) pairs)
    values_log2: list[float]
    trend: str
    aux: dict = field(default_factory=dict)

    @property
    def infimum(self) -> LogReal:
        return LogReal(1, min(self.values_log2))

    @property
    def supremum(self) -> LogReal:
        return LogReal(1, max(self.values_log2))

    @property
    def arg_inf(self) -> tuple[float, ...]:
        return self.grid[self.values_log2.index(min(self.values_log2))]

    @property
    def arg_sup(self) -> tuple[float, ...]:
        return self.grid[self.values_log2.index(max(self.values_log2))]


def _ratio_scan(M: DyadicOrliczFunction, logK: float, t_max: LogReal, depth: int) -> RatioReport:
    """The scan behind ratio_inf and ratio_inf_general, with K = 2^logK.

    n0 is the smallest n >= 0 with 2^(-n) <= t_max; the window is
    [2^(-n0-depth), t_max] and the trend is classify_tail over the values at
    t = 2^(-n), n = n0 .. n0 + depth.
    """
    if depth < 0:
        raise ValueError(f"scan depth must be >= 0, got {depth}")
    if t_max.sign <= 0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    u_top = t_max.log2mag
    n0 = max(int(math.ceil(-u_top)), 0)
    n_end = n0 + depth
    ratio: dict[float, float] = {}  # log2 t -> log2 M(Kt) / M(t)
    if -float(n0) < u_top:
        # t_max is not a breakpoint
        ratio[u_top] = M.eval_log2(u_top + logK) - M.eval_log2(u_top)
    _, logM = M.segment_tables(n_end + 1)
    # at K = 2^m the breakpoints of M(Kt) are M's own and M(Kt) reads the table
    m = int(logK) if logK.is_integer() else None
    # t = 2^(-n), the breakpoints of M(t)
    at_breakpoints = []
    for n in range(n0, n_end + 1):
        num = logM[n - m] if m is not None and n >= m else M.eval_log2(logK - n)
        at_breakpoints.append(num - logM[n])
        ratio[-float(n)] = at_breakpoints[-1]
    if m is None:
        # t = 2^(-j) / K, the breakpoints of M(Kt)
        for j in range(max(int(math.ceil(-u_top - logK)), 0), int(math.floor(n_end - logK)) + 1):
            u = -j - logK
            if -n_end <= u < u_top and u not in ratio:
                ratio[u] = logM[j] - M.eval_log2(u)
    grid = sorted(ratio, reverse=True)
    return RatioReport([(u,) for u in grid], [ratio[u] for u in grid],
                       classify_tail(at_breakpoints))


def ratio_inf(M: DyadicOrliczFunction, m: int, t_max: LogReal, depth: int = 64) -> RatioReport:
    """Exact inf of M(2^m t) / M(t) over [2^(-n0-depth), t_max].

    With K = 2^m every breakpoint of M(Kt) is one of M's, so the grid is
    t_max plus the breakpoints 2^(-n), n = n0 .. n0 + depth, where n0 is the
    smallest n >= 0 with 2^(-n) <= t_max.  Between them M(t) and M(Kt) are
    both linear, so the ratio is monotone and the infimum over the window is
    a grid value.  The tail below the window is reported as a trend, never
    extrapolated.
    """
    if not (math.isfinite(m) and m >= 1 and m == int(m)):
        raise ValueError(f"scaling exponent m must be a positive integer, got {m}")
    return _ratio_scan(M, float(m), t_max, depth)


def ratio_inf_general(M: DyadicOrliczFunction, K: float, t_max: LogReal, depth: int = 64) -> RatioReport:
    """Exact inf of M(Kt) / M(t) over [2^(-n0-depth), t_max], for any real K > 1.

    The grid is t_max plus every t in the window where t or Kt is a
    breakpoint 2^(-n): M's breakpoints merged with the points 2^(-n) / K.
    Between merged neighbours M(t) and M(Kt) are both linear, so the ratio
    is linear-fractional and monotone, and the infimum over the window is a
    grid value.  At K = 2^m the report equals ratio_inf(M, m, ...).
    """
    if not (math.isfinite(K) and K > 1.0):
        raise ValueError(f"scaling factor must be a finite real > 1, got {K}")
    return _ratio_scan(M, math.log2(K), t_max, depth)


def compute_cq(
    M: DyadicOrliczFunction,
    q: float,
    m_max: int,
    n_max: int,
) -> RatioReport:
    """Grid supremum of M(2^(-m-n)) / M(2^(-n)) * 2^(mq).

    Also reports the slope-side bound 2 * sup b(m+n)/b(n) * 2^((q-1)m) over
    the same grid.  The trend is 'bounded' when the grid supremum is attained
    away from the expanding edges and the doubled grid [1, 2 m_max] x
    [1, 2 n_max] does not raise it by more than _TREND_BAND; otherwise it is
    'inconclusive'.
    """
    if not 1.0 <= q < math.inf:
        raise ValueError(f"exponent q must be a finite real >= 1, got {q}")
    if m_max < 1 or n_max < 1:
        raise ValueError("grid ranges must be >= 1")
    logb, logM = M.segment_tables(m_max + n_max + 1)
    grid: list[tuple[float, ...]] = []
    logs: list[float] = []
    slope_best = -math.inf
    for mm in range(1, m_max + 1):
        for nn in range(1, n_max + 1):
            grid.append((float(mm), float(nn)))
            logs.append(logM[mm + nn] - logM[nn] + mm * q)
            s = logb[mm + nn] - logb[nn] + mm * (q - 1.0)
            if s > slope_best:
                slope_best = s
    report = RatioReport(grid, logs, TREND_INCONCLUSIVE, {"slope_bound_log2": 1.0 + slope_best})
    am, an = report.arg_sup
    if am <= m_max - 1 and an <= n_max - 1:
        _, wide_logM = M.segment_tables(2 * (m_max + n_max))
        cols = wide_logM[1:2 * n_max + 1]
        wide = max(max(map(operator.sub, wide_logM[mm + 1:mm + 2 * n_max + 1], cols)) + mm * q
                   for mm in range(1, 2 * m_max + 1))
        if wide <= max(logs) + _TREND_BAND:
            report.trend = TREND_BOUNDED
    return report


# -- plain-text function specs -----------------------------------------------


def parse_key_values(text: str) -> dict[str, str]:
    """Parse 'key = value' lines; '#' starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


_SPEC_KEYS = {"list": ("slopes",), "pow2_poly": ("a", "b", "c"), "counterexample": ("depth",)}


def parse_function_spec(text: str) -> DyadicOrliczFunction:
    """Build a function from its plain-text spec.

    Grammar::

        kind = list | pow2_poly | counterexample
        # kind = list
        slopes = <LogReal tokens, whitespace separated>
        # kind = pow2_poly  (slope(n) = 2^-(a n^2 + b n + c))
        a = <real>; b = <real>; c = <real>
        # kind = counterexample
        depth = <int>

    A key that the kind does not read raises ValueError.
    """
    kv = parse_key_values(text)
    kind = kv.pop("kind", None)
    if kind is None:
        raise ValueError("function spec is missing 'kind'")
    keys = _SPEC_KEYS.get(kind)
    if keys is None:
        raise ValueError(f"unknown function kind {kind!r}")
    for key in kv:
        if key not in keys:
            raise ValueError(f"kind = {kind} does not read the key {key!r}")
    if kind == "list":
        if "slopes" not in kv:
            raise ValueError("kind = list needs a 'slopes' entry")
        values = [LogReal.parse(tok) for tok in kv["slopes"].split()]
        return make_dyadic_plf(slopes_from_list(values))
    if kind == "pow2_poly":
        a = float(kv.get("a", "0"))
        b = float(kv.get("b", "0"))
        c = float(kv.get("c", "0"))
        return make_dyadic_plf(slopes_pow2_poly(a, b, c))
    from .counterexample import gen_sequences

    return gen_sequences(int(kv.get("depth", "40"))).make_function()
