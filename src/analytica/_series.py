"""Univariate polynomial and power-series arithmetic over Fraction.

Polynomials are lists of coefficients in ascending degree with no
trailing zeros.  A power series truncated to n terms is such a list of
at most n coefficients: `s_mul`, `s_div` and `s_pow` keep only the first
n.  Rational functions are reduced num/den pairs; Taylor coefficients
come from power-series long division once the reduced denominator is
known to be nonzero at 0.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

Poly = list


def p_normalize(p: Poly) -> Poly:
    while p and p[-1] == 0:
        p.pop()
    return p


def p_const(c) -> Poly:
    c = Fraction(c)
    return [c] if c != 0 else []


def p_add(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else ZERO) + (b[i] if i < len(b) else ZERO) for i in range(n)]
    return p_normalize(out)


def p_neg(a: Poly) -> Poly:
    return [-x for x in a]


def p_sub(a: Poly, b: Poly) -> Poly:
    return p_add(a, p_neg(b))


def p_mul(a: Poly, b: Poly) -> Poly:
    return s_mul(a, b, len(a) + len(b))


def p_pow(a: Poly, k: int) -> Poly:
    return s_pow(a, k, k * len(a) + 1)


def s_mul(a: Poly, b: Poly, n: int) -> Poly:
    """The first n terms of a * b; zero terms of either factor are skipped."""
    if not a or not b:
        return []
    m = min(len(a) + len(b) - 1, n)
    out = [ZERO] * m
    for i, x in enumerate(a[:m]):
        if x:
            for j, y in enumerate(b[: m - i]):
                if y:
                    out[i + j] += x * y
    return p_normalize(out)


def s_div(a: Poly, b: Poly, n: int) -> Poly:
    """The first n terms of a / b by long division; b[0] must be nonzero."""
    inv0 = ONE / b[0]
    out: Poly = []
    for k in range(n):
        acc = a[k] if k < len(a) else ZERO
        for j in range(1, min(k, len(b) - 1) + 1):
            if b[j]:
                acc -= b[j] * out[k - j]
        out.append(acc * inv0)
    return p_normalize(out)


def s_pow(a: Poly, k: int, n: int) -> Poly:
    """The first n terms of a**k by repeated squaring."""
    if k < 0:
        raise ValueError("negative exponent")
    out = [ONE]
    while k:
        if k & 1:
            out = s_mul(out, a, n)
        k >>= 1
        if k:
            a = s_mul(a, a, n)
    return out


def p_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q: Poly = [ZERO] * max(0, len(a) - len(b) + 1)
    inv_lead = ONE / b[-1]
    while len(a) >= len(b) and a:
        k = len(a) - len(b)
        f = a[-1] * inv_lead
        q[k] = f
        for i, c in enumerate(b):
            a[k + i] -= f * c
        p_normalize(a)
    return p_normalize(q), a


def p_gcd(a: Poly, b: Poly) -> Poly:
    a, b = list(a), list(b)
    while b:
        a, b = b, p_divmod(a, b)[1]
    if a:
        lead = a[-1]
        a = [x / lead for x in a]
    return a


class RationalFunction:
    """A reduced ratio of univariate polynomials."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly, reduce: bool = True):
        num = p_normalize(list(num))
        den = p_normalize(list(den))
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if reduce and num:
            g = p_gcd(num, den)
            if len(g) > 1:
                num = p_divmod(num, g)[0]
                den = p_divmod(den, g)[0]
        if not num:
            den = [ONE]
        else:
            lead = den[-1]
            if lead != 1:
                num = [x / lead for x in num]
                den = [x / lead for x in den]
        self.num = num
        self.den = den

    @classmethod
    def constant(cls, c) -> "RationalFunction":
        return cls(p_const(c), [ONE], reduce=False)

    @classmethod
    def from_poly(cls, p: Poly) -> "RationalFunction":
        return cls(list(p), [ONE], reduce=False)

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            p_add(p_mul(self.num, other.den), p_mul(other.num, self.den)),
            p_mul(self.den, other.den),
        )

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            p_sub(p_mul(self.num, other.den), p_mul(other.num, self.den)),
            p_mul(self.den, other.den),
        )

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(p_neg(self.num), list(self.den), reduce=False)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(p_mul(self.num, other.num), p_mul(self.den, other.den))

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if not other.num:
            raise ZeroDivisionError("division by the zero function")
        return RationalFunction(p_mul(self.num, other.den), p_mul(self.den, other.num))

    def __pow__(self, k: int) -> "RationalFunction":
        return RationalFunction(p_pow(self.num, k), p_pow(self.den, k), reduce=False)

    def defined_at_zero(self) -> bool:
        return bool(self.den) and self.den[0] != 0

    def series(self, order: int) -> list[Fraction]:
        """Taylor coefficients [c_0 .. c_order] by long division."""
        if not self.defined_at_zero():
            raise ZeroDivisionError("denominator vanishes at 0")
        out = s_div(self.num, self.den, order + 1)
        return out + [ZERO] * (order + 1 - len(out))
