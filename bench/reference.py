"""An mpmath Luxemburg norm for the squares gauge, independent of orliczlab.

The squares gauge has slopes b(j) = 2^(-j^2): M is linear with slope b(n) on
(2^(-n-1), 2^(-n)], slope b(0) above 1/2, and M(2^(-n)) is the tail sum of
b(j) 2^(-j-1) over j >= n.  The norm is the root in rho of
sum_i M(|a_i| / rho) = 1, found by plain bisection at 30 significant digits.
"""

from __future__ import annotations

_DPS = 30
_REL_WIDTH = 1e-16


class _SquaresGauge:
    def __init__(self, mp):
        self.mp = mp
        self.breakpoints = []       # M(2^(-n)) for n = 0, 1, ...

    def _breakpoint(self, n: int):
        mp = self.mp
        while len(self.breakpoints) <= n:
            k = len(self.breakpoints)
            total = mp.mpf(0)
            j = k
            while True:
                term = mp.ldexp(1, -(j * j) - j - 1)
                total += term
                if term < total * mp.ldexp(1, -2 * mp.prec):
                    break
                j += 1
            self.breakpoints.append(total)
        return self.breakpoints[n]

    def M(self, t):
        mp = self.mp
        _, e = mp.frexp(t)               # t in [2^(e-1), 2^e)
        n = max(0, -int(e))
        left = mp.ldexp(1, -n - 1)
        return self._breakpoint(n + 1) + mp.ldexp(t - left, -(n * n))


def squares_norm_log2(log2mags: list[float]) -> float:
    """log2 of the squares-gauge Luxemburg norm of the given magnitudes."""
    import mpmath

    with mpmath.workdps(_DPS):
        mp = mpmath.mp
        gauge = _SquaresGauge(mp)
        mags = [mp.mpf(2) ** e for e in log2mags]

        def modular(rho):
            return mp.fsum(gauge.M(a / rho) for a in mags)

        hi = max(mags)
        while modular(hi) > 1:
            hi *= 2
        lo = hi / 2
        while modular(lo) <= 1:
            lo /= 2
        while hi / lo - 1 > _REL_WIDTH:
            mid = (lo + hi) / 2
            if modular(mid) > 1:
                lo = mid
            else:
                hi = mid
        return float(mp.log((lo + hi) / 2, 2))
