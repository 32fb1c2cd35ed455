"""Finitely supported coordinate vectors and the Luxemburg norm.

Vectors live against the unit-vector basis with 1-based indices; only nonzero
coordinates are stored.  The norm of x is the unique rho > 0 at which the
modular sum M(|a_i| / rho) equals 1.

On its dyadic segment n, M is the line b(n) t + c(n) with c(n) <= 0.  Write
s = 1/rho; with each |a_i| s on segment n_i the modular is C + s B, where
C = sum c(n_i) and B = sum b(n_i) |a_i|, and a Newton step is
s <- (1 - C) / B.  Every segment line lies below the convex M, so a step from
anywhere lands at or right of the root, the steps from there decrease, and
they end on the root once the segments stop moving.  The solver works on
Python floats relative to the largest coordinate, so magnitudes far outside
the double range are fine.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from .logreal import LogReal, ZERO, log_sum
from .orlicz import DyadicOrliczFunction


class FiniteVector:
    """Immutable finitely supported vector with LogReal coordinates."""

    __slots__ = ("_coords", "_sorted_log2", "_max_index")

    def __init__(self, coords: Mapping[int, LogReal] | Iterable[tuple[int, LogReal]]):
        items = coords.items() if isinstance(coords, Mapping) else coords
        stored: dict[int, LogReal] = {}
        for idx, val in items:
            if idx < 1 or idx != int(idx):
                raise ValueError(f"coordinate indices must be positive integers, got {idx}")
            if val.sign != 0:
                stored[int(idx)] = val
        self._coords = dict(sorted(stored.items()))
        self._sorted_log2 = sorted((v.log2mag for v in self._coords.values()), reverse=True)
        self._max_index = max(self._coords) if self._coords else 0

    @staticmethod
    def from_floats(values: Iterable[float]) -> "FiniteVector":
        return FiniteVector(
            {i: LogReal.from_float(v) for i, v in enumerate(values, start=1)}
        )

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
        return dict(self._coords)

    @property
    def support_size(self) -> int:
        return len(self._coords)

    @property
    def max_index(self) -> int:
        return self._max_index

    @property
    def is_zero(self) -> bool:
        return not self._coords

    def sorted_log2_magnitudes(self) -> list[float]:
        """log2 of the nonzero magnitudes, nonincreasing."""
        return list(self._sorted_log2)

    def get(self, index: int) -> LogReal:
        return self._coords.get(index, ZERO)

    def head(self, m: int) -> "FiniteVector":
        """Truncation to basis indices <= m."""
        return FiniteVector({i: v for i, v in self._coords.items() if i <= m})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteVector) and self._coords == other._coords

    def __hash__(self):
        return hash(tuple(self._coords.items()))

    def __add__(self, other: "FiniteVector") -> "FiniteVector":
        out = dict(self._coords)
        for i, v in other._coords.items():
            out[i] = out.get(i, ZERO) + v
        return FiniteVector(out)

    def scale(self, factor: LogReal) -> "FiniteVector":
        return FiniteVector({i: v * factor for i, v in self._coords.items()})

    def render(self) -> str:
        if not self._coords:
            return "0"
        dense = []
        for i in range(1, self._max_index + 1):
            dense.append(self.get(i).render())
        return " ".join(dense)

    def __repr__(self) -> str:
        return f"FiniteVector({self.render()})"


def rearrange(x: FiniteVector) -> FiniteVector:
    """Decreasing rearrangement of the magnitudes, packed into indices 1..N."""
    vals = sorted((abs(v) for v in x.coords.values()), reverse=True)
    return FiniteVector({i: v for i, v in enumerate(vals, start=1)})


def modular(M: DyadicOrliczFunction, x: FiniteVector, rho: LogReal) -> LogReal:
    """Sum of M(|a_i| / rho) over the support of x."""
    if rho.sign <= 0:
        raise ValueError(f"modular scale rho must be positive, got {rho}")
    return log_sum(M.eval(abs(v) / rho) for v in x.coords.values())


def luxemburg_norm(M: DyadicOrliczFunction, x: FiniteVector) -> LogReal:
    """The norm inf{rho > 0 : modular(x, rho) <= 1}; zero for the zero vector."""
    if x.is_zero:
        return ZERO
    return LogReal.from_log2(_norm_log2(M, x.sorted_log2_magnitudes()))


def _norm_log2(M: DyadicOrliczFunction, sorted_log2: list[float]) -> float:
    """log2 Luxemburg norm of a nonempty nonincreasing magnitude list.

    Cold start at s = M^(-1)(1) / |a_1|, where the top coordinate alone
    already brings the modular to 1.
    """
    top = sorted_log2[0]
    return top - _root_log2(M, [v - top for v in sorted_log2], M.inverse_log2(0.0))


def _prefix_norms_log2(M: DyadicOrliczFunction, sorted_log2: list[float]) -> list[float]:
    """log2 Luxemburg norms of every prefix of a nonincreasing magnitude list.

    Adding a coordinate raises the modular, so the root of prefix k - 1 is a
    valid start for prefix k.
    """
    if not sorted_log2:
        return []
    top = sorted_log2[0]
    rel = [v - top for v in sorted_log2]
    s_log2 = M.inverse_log2(0.0)
    out = []
    for k in range(1, len(rel) + 1):
        s_log2 = _root_log2(M, rel[:k], s_log2)
        out.append(top - s_log2)
    return out


def _root_log2(M: DyadicOrliczFunction, rel: list[float], s_log2: float) -> float:
    """log2 of the s > 0 with sum_i M(s 2^rel[i]) = 1, where 0 = rel[0] >= rel[1] >= ...

    Newton steps from s_log2; the first step is always taken, so a start a few
    ulps left of the root (a rounded M^(-1)(1)) still lands on the right.
    """
    nxt = _newton_step_log2(M, rel, s_log2)
    while True:
        s_log2, nxt = nxt, _newton_step_log2(M, rel, nxt)
        if not nxt < s_log2:
            return s_log2


def _newton_step_log2(M: DyadicOrliczFunction, rel: list[float], s_log2: float) -> float:
    """log2 (1 - C) / B for the segments n_i holding the points s 2^rel[i].

    There the modular is C + s B with C = sum c(n_i) <= 0 and
    B = sum b(n_i) 2^rel[i].  The first coordinate has the largest b(n_i) and
    the largest b(n_i) 2^(-n_i - 1); dividing the B-terms and the C-terms by
    these keeps every term at most 1, so no sum overflows however steep M is.
    """
    logb, logM = M.segment_tables(max(0, math.floor(-s_log2 - rel[-1])) + 1)
    n1 = max(0, math.floor(-s_log2))
    top = logb[n1]
    scale = max(0.0, top - n1 - 1)
    neg_c = []
    b_terms = []
    for r in rel:
        n = math.floor(-s_log2 - r)
        if n < 0:
            n = 0
        lb = logb[n]
        # -c(n) = b(n) 2^(-n-1) - M(2^(-n-1)) >= 0: the segment line meets
        # t = 0 below M(0) = 0
        neg_c.append(2.0 ** (lb - n - 1 - scale) - 2.0 ** (logM[n + 1] - scale))
        b_terms.append(2.0 ** (lb - top + r))
    return (scale + math.log2(2.0 ** -scale + math.fsum(neg_c))
            - math.log2(math.fsum(b_terms)) - top)
