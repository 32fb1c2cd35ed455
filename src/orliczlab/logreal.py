"""Signed scalars stored in the base-2 log domain.

A value is a sign together with the base-2 logarithm of its magnitude, so
products are exponent additions and magnitudes like 2^(-30000), which underflow
native doubles, stay representable.  Sums go through log-sum-exp and never
overflow for exponents up to about 1e6 in absolute value.  Conversion to a
native float is exact to a few ulps whenever the exponent is inside the
double range.

Values are immutable; every operation is a pure function.  The numeric core
works on plain log2 floats; `LogReal` is the type values enter and leave the
API in (parse, from_float, to_float, render).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_LN2 = math.log(2.0)
_LOG2E = 1.0 / _LN2

# Doubles span roughly 2^-1074 (subnormal) .. 2^1024; conversions outside this
# band saturate to signed zero / infinity rather than raising.
_FLOAT_MAX_LOG2 = 1024.0
_FLOAT_MIN_LOG2 = -1074.0


@dataclass(frozen=True)
class Tolerance:
    """Relative tolerance ``rel`` on values.  There is deliberately no global
    default epsilon; call sites pass the tolerance they mean.
    """

    rel: float

    def __post_init__(self) -> None:
        if not self.rel > 0.0:
            raise ValueError(f"rel tolerance must be positive, got {self.rel}")


def log2_add(a: float, b: float) -> float:
    """log2(2^a + 2^b) for plain floats, tolerant of -inf."""
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp((lo - hi) * _LN2)) * _LOG2E


def log2_sub(a: float, b: float) -> float:
    """log2(2^a - 2^b) for a >= b; returns -inf on exact cancellation."""
    if b == -math.inf:
        return a
    if a < b:
        raise ValueError(f"log2_sub needs a >= b, got a={a} b={b}")
    if a == b:
        return -math.inf
    d = b - a  # < 0
    return a + math.log(-math.expm1(d * _LN2)) * _LOG2E


@dataclass(frozen=True)
class LogReal:
    """A real number as (sign, log2 of magnitude)."""

    sign: int
    log2mag: float

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or 1, got {self.sign}")
        if self.sign == 0:
            object.__setattr__(self, "log2mag", 0.0)
        elif math.isnan(self.log2mag) or self.log2mag == math.inf:
            raise ValueError(f"log2mag must be finite or -inf, got {self.log2mag}")
        elif self.log2mag == -math.inf:
            # an underflowed magnitude is zero
            object.__setattr__(self, "sign", 0)
            object.__setattr__(self, "log2mag", 0.0)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def one() -> "LogReal":
        return _ONE

    @staticmethod
    def from_float(x: float) -> "LogReal":
        if math.isnan(x) or math.isinf(x):
            raise ValueError(f"cannot represent {x}")
        if x == 0.0:
            return ZERO
        return LogReal(1 if x > 0 else -1, math.log2(abs(x)))

    @staticmethod
    def from_log2(log2mag: float, sign: int = 1) -> "LogReal":
        return LogReal(sign, log2mag)

    @staticmethod
    def two_pow(exponent: float) -> "LogReal":
        """Exact 2^exponent."""
        return LogReal(1, float(exponent))

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "LogReal":
        return LogReal(-self.sign, self.log2mag)

    def __abs__(self) -> "LogReal":
        return LogReal(abs(self.sign), self.log2mag)

    def __mul__(self, other: "LogReal") -> "LogReal":
        s = self.sign * other.sign
        if s == 0:
            return ZERO
        return LogReal(s, self.log2mag + other.log2mag)

    def __truediv__(self, other: "LogReal") -> "LogReal":
        if other.sign == 0:
            raise ZeroDivisionError("LogReal division by zero")
        s = self.sign * other.sign
        if s == 0:
            return ZERO
        return LogReal(s, self.log2mag - other.log2mag)

    def __add__(self, other: "LogReal") -> "LogReal":
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        a, b = self.log2mag, other.log2mag
        if self.sign == other.sign:
            return LogReal(self.sign, log2_add(a, b))
        if a == b:
            return ZERO
        if a > b:
            return LogReal(self.sign, log2_sub(a, b))
        return LogReal(other.sign, log2_sub(b, a))

    def __sub__(self, other: "LogReal") -> "LogReal":
        return self + (-other)

    # -- conversion & rendering --------------------------------------------

    def to_float(self) -> float:
        """Nearest native double; saturates outside the double range."""
        if self.sign == 0:
            return 0.0
        if self.log2mag >= _FLOAT_MAX_LOG2:
            return math.inf if self.sign > 0 else -math.inf
        if self.log2mag < _FLOAT_MIN_LOG2:
            return 0.0 if self.sign > 0 else -0.0
        return self.sign * 2.0 ** self.log2mag

    def render(self) -> str:
        """Decimal when the value fits a double comfortably, else '±2^e'."""
        if self.sign == 0:
            return "0"
        if -900.0 < self.log2mag < 900.0:
            return repr(self.to_float())
        prefix = "" if self.sign > 0 else "-"
        return f"{prefix}2^{self.log2mag!r}"

    def __str__(self) -> str:
        return self.render()

    @staticmethod
    def parse(text: str) -> "LogReal":
        """Inverse of render(); accepts decimals and the '±2^e' form.  A decimal
        must be a finite double: inf, nan, 1e400 and 1e-400 raise ValueError,
        and so do the exponents inf, nan and 1e400 of 2^e (2^-inf is 0).  Every
        error quotes the whole token."""
        token = s = text.strip()
        if not s:
            raise ValueError("empty LogReal token")
        sign = 1
        if s[0] in "+-":
            if s[0] == "-":
                sign = -1
            s = s[1:]
        pow2 = s.startswith("2^")
        try:
            x = float(s[2:] if pow2 else s)
        except ValueError:
            raise ValueError(f"token {token!r} is not a number") from None
        if pow2:
            if math.isnan(x) or x == math.inf:
                raise ValueError(f"token {token!r} needs a finite exponent, or -inf for 0")
            return LogReal(sign, x)
        if math.isnan(x) or math.isinf(x):
            raise ValueError(f"token {token!r} is not a finite double; write it as 2^e")
        if x == 0.0:
            # a nonzero digit before the exponent means the value underflowed
            if any(c in "123456789" for c in s.lower().partition("e")[0]):
                raise ValueError(f"token {token!r} underflows a double; write it as 2^e")
            return ZERO
        if x < 0.0:
            sign, x = -sign, -x
        if x < 2.0 ** -1022:
            # a subnormal double lost digits of the decimal: read the decimal
            # exactly (imported here: at the top it adds 2 ms to each import)
            from fractions import Fraction

            q = abs(Fraction(s))
            e = q.numerator.bit_length() - q.denominator.bit_length()
            return LogReal(sign, e + math.log2(q / Fraction(2) ** e))
        return LogReal(sign, math.log2(x))


ZERO = LogReal(0, 0.0)
_ONE = LogReal(1, 0.0)

