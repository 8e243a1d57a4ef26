"""Univariate polynomial and power-series arithmetic over Fraction.

Polynomials are lists of coefficients in ascending degree with no
trailing zeros.  A power series truncated to n terms is such a list of
at most n coefficients: `s_mul`, `s_div` and `s_pow` keep only the first
n.  The untruncated `p_*` operations build exact polynomials, such as the
unreduced numerator/denominator pairs of `taylor._line_fraction`; no gcd
is ever taken, and Taylor coefficients come from power-series long
division (`s_div`) once the divisor is nonzero at 0.
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
