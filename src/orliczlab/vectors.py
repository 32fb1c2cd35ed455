"""Finitely supported coordinate vectors and the Luxemburg norm.

Vectors live against the unit-vector basis with 1-based indices; only nonzero
coordinates are stored, as index, sign and log2-magnitude tuples.  Every
computation here reads those floats; `LogReal` appears only where a value
enters (the constructor, `parse`) or leaves (`get`, `coords`, `render`, the
returned norms).  The norm of x is the unique rho > 0 at which the modular
sum M(|a_i| / rho) equals 1.

On its dyadic segment n, M is the line b(n) t + c(n) with c(n) <= 0.  Write
s = 1/rho; with each |a_i| s on segment n_i the modular is C + s B, where
C = sum c(n_i) and B = sum b(n_i) |a_i|, and a Newton step is
s <- (1 - C) / B.  Every segment line lies below the convex M, so a step from
anywhere lands at or right of the root, the steps from there decrease, and
they end on the root once the segments stop moving.

One walk, `_NewtonWalk`, computes a single norm or every prefix norm of a
nonincreasing magnitude list.  It holds s, each point's segment n_i and the
point's two terms, and five rules keep it cheap:

(a) Warm start.  Adding a coordinate raises the modular, so the root of
    prefix k - 1 is a start right of the root of prefix k; prefix k only
    appends the new coordinate's terms at that root.  `prefix_roots` does
    this for every prefix in one frame, with the expressions of `_terms` and
    `_step`, and asks for tables only when the new segment is past those it
    holds: table entries never change, so fewer requests keep the bits.  It
    yields each root as it reaches it, so a caller that needs only the first
    prefixes (the renormed value, which stops once no later head can reach
    its maximum) walks no further.
(b) Stop on repeated segments.  After a step the walk re-segments; if no n_i
    moved, the next step would return the same value, so it stops there.
(c) Partial recompute.  Only the terms of points that changed segment are
    recomputed, or all of them when n_1 moved, because the terms are scaled
    by a frame that depends on n_1 alone.
(d) Nearest threshold.  As s falls, point i keeps segment n_i until s reaches
    -rel[i] - n_i - 1.  The walk keeps `reach`, the largest of these keys, and
    a step that stays above reach by more than the rounding of the keys and
    of -s - rel[i] cannot move any point, so it stops without the O(k)
    re-segmentation pass.  This only filters: whenever the filter cannot rule
    a move out, the same floor(-s - rel[i]) as in rule (b) decides.  It only
    holds for a step that did not raise s above the s at which the segments
    were taken; the first step from a rounded start can rise by a few ulps,
    segments could then move down, and such a step takes the full pass.
(e) Underflow horizon.  A point more than 1 078 binades below the largest
    adds 0.0 to both sums at every s the walk visits, so it changes no step:
    the walk leaves it out and asks for no table down to its segment.

The walk gives the same bits as re-solving every prefix from its start with
every term recomputed at every step: each term comes from the same
expression on the same frame, math.fsum rounds the exact sum correctly so the
order of the terms does not matter, and breakpoint-table entries never change
once computed.  Each walk returns the step from its final segments, so a
cold root and the last prefix root of one list agree when both end on them.

The walk works on Python floats relative to the largest coordinate, so
magnitudes far outside the double range are fine.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Mapping
from itertools import chain
from operator import add, neg

from .logreal import LogReal, ZERO
from .orlicz import DyadicOrliczFunction


class FiniteVector:
    """Immutable finitely supported vector.

    The nonzero coordinates are held as three tuples in index order:
    `indices`, `signs` (each 1 or -1) and `log2mags`.  `LogReal` values are
    built only when `get`, `coords` or `render` asks for them.  `_renorm`
    holds `renorm`'s record of x with the M and eta it is for, or None.
    """

    __slots__ = ("indices", "signs", "log2mags", "_renorm")

    def __init__(self, coords: Mapping[int, LogReal] | Iterable[tuple[int, LogReal]]):
        items = coords.items() if isinstance(coords, Mapping) else coords
        stored: dict[int, LogReal] = {}
        for idx, val in items:
            if idx < 1 or idx != int(idx):
                raise ValueError(f"coordinate indices must be positive integers, got {idx}")
            if val.sign != 0:
                stored[int(idx)] = val
        self.indices = tuple(sorted(stored))
        self.signs = tuple(stored[i].sign for i in self.indices)
        self.log2mags = tuple(stored[i].log2mag for i in self.indices)
        self._renorm = None

    @classmethod
    def _from_lists(cls, indices: Iterable[int], signs: Iterable[int],
                    log2mags: Iterable[float]) -> "FiniteVector":
        """A vector from index-ordered nonzero coordinates, taken as they are."""
        x = cls.__new__(cls)
        x.indices, x.signs, x.log2mags = tuple(indices), tuple(signs), tuple(log2mags)
        x._renorm = None
        return x

    @staticmethod
    def from_floats(values: Iterable[float]) -> "FiniteVector":
        """Coordinates 1, 2, ... from floats; zeros are dropped."""
        indices, signs, log2mags = [], [], []
        for i, v in enumerate(values, start=1):
            if math.isnan(v) or math.isinf(v):
                raise ValueError(f"cannot represent {v}")
            if v != 0.0:
                indices.append(i)
                signs.append(1 if v > 0 else -1)
                log2mags.append(math.log2(abs(v)))
        return FiniteVector._from_lists(indices, signs, log2mags)

    @staticmethod
    def parse(text: str) -> "FiniteVector":
        """Whitespace-separated decimal or '±2^e' tokens, index-implicit."""
        tokens = text.split()
        return FiniteVector(
            {i: LogReal.parse(tok) for i, tok in enumerate(tokens, start=1)}
        )

    # -- views -----------------------------------------------------------

    @property
    def coords(self) -> dict[int, LogReal]:
        return {i: LogReal(s, v) for i, s, v in zip(self.indices, self.signs, self.log2mags)}

    @property
    def support_size(self) -> int:
        return len(self.indices)

    @property
    def max_index(self) -> int:
        return self.indices[-1] if self.indices else 0

    @property
    def is_zero(self) -> bool:
        return not self.indices

    def sorted_log2_magnitudes(self) -> list[float]:
        """log2 of the nonzero magnitudes, nonincreasing."""
        return sorted(self.log2mags, reverse=True)

    def get(self, index: int) -> LogReal:
        k = bisect_left(self.indices, index)
        if k == len(self.indices) or self.indices[k] != index:
            return ZERO
        return LogReal(self.signs[k], self.log2mags[k])

    def head(self, m: int) -> "FiniteVector":
        """Truncation to basis indices <= m."""
        k = bisect_right(self.indices, m)
        return FiniteVector._from_lists(self.indices[:k], self.signs[:k], self.log2mags[:k])

    def render(self) -> str:
        coords = self.coords
        dense = (coords[i].render() if i in coords else "0" for i in range(1, self.max_index + 1))
        return " ".join(dense) or "0"

    def __repr__(self) -> str:
        return f"FiniteVector({self.render()})"


def rearrange(x: FiniteVector) -> FiniteVector:
    """Decreasing rearrangement of the magnitudes, packed into indices 1..N."""
    n = x.support_size
    y = FiniteVector._from_lists(range(1, n + 1), [1] * n, x.sorted_log2_magnitudes())
    # the same sorted floats in the same order, so the same renormed record
    y._renorm = x._renorm
    return y


def modular(M: DyadicOrliczFunction, x: FiniteVector, rho: LogReal) -> LogReal:
    """Sum of M(|a_i| / rho) over the support of x."""
    if rho.sign <= 0:
        raise ValueError(f"modular scale rho must be positive, got {rho}")
    if x.is_zero:
        return ZERO
    # M is convex with M(0) = 0, so M(t) <= (t / t_1) M(t_1) for t <= t_1: a
    # coordinate r binades below the largest t_1 adds 2^(log2 M(t) - top) <=
    # 2^r, up to the rounding of the two log2 M values and their arguments,
    # under 2^-8 each up to the table cap (while t_1 / rho < 2^(2^44)).  Past
    # rule (e)'s horizon the exponent is below -1077, and 2.0 ** e is 0.0 for
    # e <= -1075, so the cut terms are the 0.0 that fsum would add.
    mags = x.sorted_log2_magnitudes()
    logs = [M.eval_log2(v - rho.log2mag) for v in mags if v - mags[0] >= _HORIZON]
    top = max(logs)
    return LogReal.from_log2(top + math.log2(math.fsum(2.0 ** (v - top) for v in logs)))


def luxemburg_norm(M: DyadicOrliczFunction, x: FiniteVector) -> LogReal:
    """The norm inf{rho > 0 : modular(x, rho) <= 1}; zero for the zero vector."""
    if x.is_zero:
        return ZERO
    return LogReal.from_log2(_norm_log2(M, x.sorted_log2_magnitudes()))


# Rule (e).  A point at rel r < 0 on segment n >= n_1 has the b term
# 2^(lb - top + r) with lb = log2 b(n) <= top, so its exponent is at most r.
# Its c term -c(n) / 2^scale is at most
# b(n) 2^(s+r) / max(1, b(n_1) 2^(-n_1-1)), which is at most 2^(r+1): for
# s <= 0 as b(n_1) >= b(n) and 2^(-n_1-1) >= 2^(s-1), and for s > 0 as
# n_1 = 0 and b(0) 2^s <= 2 M(2^s), where M(2^s) <= 1 + 2^-40 since s never
# passes log2 M^(-1)(1) by more than a few ulps.  Rounding lb - n - 1 - scale
# adds under 2^-6 while |lb| < 2^44 (`squares` reaches that at the table
# cap); a lower lb or a scale above 2^45 puts the exponent far below -1076
# alone.  2.0 ** e is 0.0 for e <= -1076, so both terms are 0.0 below
# rel -1077.02; the horizon keeps a binade of margin.
_HORIZON = -1078.0


def _norm_log2(M: DyadicOrliczFunction, sorted_log2: list[float]) -> float:
    """log2 Luxemburg norm of a nonempty nonincreasing magnitude list.

    Cold start at s = M^(-1)(1) / |a_1|, where the top coordinate alone
    already brings the modular to 1.
    """
    top = sorted_log2[0]
    rel = [v - top for v in sorted_log2]
    if rel[-1] < _HORIZON:  # rule (e), tested on the smallest point alone
        del rel[bisect_right(rel, -_HORIZON, key=neg):]
    return top - _NewtonWalk(M, M.unit_inverse_log2()).root(rel)


def _prefix_norms(M: DyadicOrliczFunction, sorted_log2: list[float]) -> Iterator[float]:
    """log2 Luxemburg norms of the prefixes of a nonempty nonincreasing
    magnitude list, each yielded as the walk reaches it.

    One walk serves every prefix: adding a coordinate raises the modular, so
    the root of prefix k - 1 is a valid start for prefix k (rule (a)).  A
    consumer that stops early leaves the later prefixes unwalked.
    """
    top = sorted_log2[0]
    rel = [v - top for v in sorted_log2]
    if rel[-1] < _HORIZON:  # rule (e)
        del rel[bisect_right(rel, -_HORIZON, key=neg):]
    walk = _NewtonWalk(M, M.unit_inverse_log2())
    heads = map(top.__sub__, walk.prefix_roots(rel))
    if len(rel) == len(sorted_log2):
        return heads
    return chain(heads, _far_heads(walk, top, len(sorted_log2) - len(rel)))


def _far_heads(walk: "_NewtonWalk", top: float, count: int) -> Iterator[float]:
    """The heads that add the `count` points past the horizon to a finished walk."""
    for _ in range(count):
        # a point past the horizon adds 0.0 terms: settle from the held ones
        yield top - walk._settle(walk.s, walk._step())


class _NewtonWalk:
    """Newton walk to the s > 0 with sum_i M(s 2^rel[i]) = 1, where 0 = rel[0] >= rel[1] >= ...

    Between calls the state is consistent at the current log2 s: `seg` holds
    each point's segment n_i, and `neg_c` and `b_terms` its terms -c(n_i) and
    b(n_i) 2^rel[i], both divided by the frame that `_frame` sets from n_1.
    `reach` is the largest key -rel[i] - n_i - 1 (rule (d)).
    """

    __slots__ = ("M", "s", "rel", "seg", "neg_c", "b_terms", "n1", "top", "scale", "reach")

    def __init__(self, M: DyadicOrliczFunction, s_log2: float):
        self.M = M
        self.s = s_log2
        self.rel: list[float] = []
        self.seg: list[int] = []
        self.neg_c: list[float] = []
        self.b_terms: list[float] = []
        self.n1 = -1  # no frame until the first points arrive
        self.top = self.scale = 0.0
        self.reach = -math.inf

    def root(self, new_rel: Iterable[float]) -> float:
        """Append the points new_rel at the current s and walk to the new root.

        Rule (a): only the new points get terms before the first step.  The
        first step is always taken, so a start a few ulps left of the root (a
        rounded M^(-1)(1)) still lands on the right.
        """
        M, rel, s = self.M, self.rel, self.s
        floor = math.floor
        start = len(rel)
        rel.extend(new_rel)
        logb, logM = M.segment_tables(max(0, floor(-s - rel[-1])) + 1)
        seg, reach = self.seg, self.reach
        for r in rel[start:]:
            n = floor(-s - r)
            if n < 0:
                n = 0
            seg.append(n)
            if -r - n - 1 > reach:
                reach = -r - n - 1
        self.reach = reach
        if seg[0] != self.n1:
            self._frame(logb, seg[0])
        self.neg_c += [0.0] * (len(rel) - start)
        self.b_terms += [0.0] * (len(rel) - start)
        self._terms(logb, logM, range(start, len(rel)))
        return self._settle(s, self._step())

    def prefix_roots(self, rels: Iterable[float]) -> Iterator[float]:
        """Append the points one at a time and yield the root after each.

        Each prefix gives the bits of `root((r,))` (rule (a)).  `_settle` runs
        only when its first test, made here, cannot stop the walk.  The held
        state is written back when the points run out, so a walk left
        suspended between roots must not be used again.
        """
        M, rel, neg_c, b_terms = self.M, self.rel, self.neg_c, self.b_terms
        s, reach, top, scale, seg = self.s, self.reach, self.top, self.scale, self.seg
        floor, log2, fsum = math.floor, math.log2, math.fsum
        logb = logM = []
        for r in rels:
            n = floor(-s - r)
            if n < 0:
                n = 0
            if n + 1 >= len(logM):
                logb, logM = M.segment_tables(n + 1)
            rel.append(r)
            seg.append(n)
            if -r - n - 1 > reach:
                reach = -r - n - 1
            if seg[0] != self.n1:
                self._frame(logb, seg[0])
                top, scale = self.top, self.scale
            lb = logb[n]
            neg_c.append(2.0 ** (lb - n - 1 - scale) - 2.0 ** (logM[n + 1] - scale))
            b_terms.append(2.0 ** (lb - top + r))
            nxt = scale + log2(2.0 ** -scale + fsum(neg_c)) - log2(fsum(b_terms)) - top
            # `_settle`'s rule (d) test, with rel[-1] = r and seg[-1] = n
            if nxt <= s and nxt > reach + 2.0 ** -50 * (abs(nxt) - r + n + 1):
                s = nxt
            else:
                self.reach = reach
                s = self._settle(s, nxt)
                reach, top, scale, seg = self.reach, self.top, self.scale, self.seg
            yield s
        self.s, self.reach = s, reach

    def _settle(self, seg_s: float, nxt: float) -> float:
        """Walk on from nxt, the first step from the segments taken at seg_s, to the root.

        Each pass first asks for the tables down to the segment of the
        smallest point.  Whichever test ends it, the walk returns the step
        from its final segments, not the s it came from; only a point within
        rounding of a breakpoint at the root leaves those segments
        route-dependent.
        """
        M, rel, seg, reach = self.M, self.rel, self.seg, self.reach
        floor = math.floor
        while True:
            s = nxt
            # Rule (d).  With u = 2^-53, R = -rel[-1] and N = seg[-1] (the
            # largest |rel[i]| and n_i), each key is -rel[i] - n_i - 1 to
            # within u (2R + 2N + 2).  Point i moves at this s only if
            # fl(-s - rel[i]) >= n_i + 1, which needs
            # s <= -rel[i] - n_i - 1 + u (|s| + R)
            #   <= reach + u (|s| + 3R + 2N + 2),
            # and the test below rounds reach + delta by at most
            # u (R + N + 1 + delta).  delta = 8u (|s| + R + N + 1) covers
            # both with a factor of two to spare.
            if s <= seg_s and s > reach + 2.0 ** -50 * (abs(s) - rel[-1] + seg[-1] + 1):
                break
            logb, logM = M.segment_tables(max(0, floor(-s - rel[-1])) + 1)
            negs = -s
            new = [floor(negs - r) for r in rel]
            if min(new) < 0:
                # points at t > 1 stay on segment 0, whose line M continues
                new = [n if n > 0 else 0 for n in new]
            if new == seg:
                # rule (b): the step from these segments is the one just taken
                break
            # rule (c): new terms for the points that moved, or for all of
            # them when the frame moved with n_1
            if new[0] != self.n1:
                self._frame(logb, new[0])
                moved = range(len(rel))
            else:
                moved = [i for i in range(len(rel)) if new[i] != seg[i]]
            self.seg = seg = new
            seg_s = s
            reach = -min(map(add, rel, seg)) - 1  # -(r + n) rounds as -r - n
            self._terms(logb, logM, moved)
            nxt = self._step()
            if not nxt < s:
                s = nxt
                break
        self.s, self.reach = s, reach
        return s

    def _frame(self, logb: list[float], n1: int) -> None:
        """Set the frame from the first point's segment n_1.

        The first point has the largest b(n_i) and the largest
        b(n_i) 2^(-n_i - 1); dividing the terms by these keeps every term at
        most 1, so no sum overflows however steep M is.
        """
        self.n1 = n1
        self.top = logb[n1]
        self.scale = max(0.0, self.top - n1 - 1)

    def _terms(self, logb: list[float], logM: list[float], indices: Iterable[int]) -> None:
        """Set both terms of the points at `indices` from their segments."""
        seg, rel, neg_c, b_terms = self.seg, self.rel, self.neg_c, self.b_terms
        top, scale = self.top, self.scale
        for i in indices:
            n = seg[i]
            lb = logb[n]
            # -c(n) = b(n) 2^(-n-1) - M(2^(-n-1)) >= 0: the segment line meets
            # t = 0 below M(0) = 0
            neg_c[i] = 2.0 ** (lb - n - 1 - scale) - 2.0 ** (logM[n + 1] - scale)
            b_terms[i] = 2.0 ** (lb - top + rel[i])

    def _step(self) -> float:
        """log2 (1 - C) / B at the held segments, with C = sum c(n_i), B = sum b(n_i) 2^rel[i]."""
        scale = self.scale
        return (scale + math.log2(2.0 ** -scale + math.fsum(self.neg_c))
                - math.log2(math.fsum(self.b_terms)) - self.top)
