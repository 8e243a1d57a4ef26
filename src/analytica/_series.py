"""Univariate polynomial and power-series arithmetic on integers.

Polynomials are lists of coefficients in ascending degree with no
trailing zeros.  The `p_*` operations are generic over the coefficient
type (they use only +, -, * and the literal 0); they are the ring in which
`taylor._line_fraction` runs `oracle.fold_fraction`, the fold that builds
the unreduced integer numerator/denominator pair of a line restriction.

A power series truncated to n terms is a pair (ints, den) that stands for
the coefficients ints[k] / den: one denominator per series, with ints a
polynomial of at most n integer coefficients.  Every `s_*` result is
divided by math.gcd(den, *ints), and den is kept positive, so a series is
in lowest terms and each ints[k] / den is the exact rational coefficient.
A sum combines over the lcm of the two denominators, a product is an
integer Cauchy product over den * den, a power squares repeatedly, and a
quotient is long division that carries powers of the divisor's constant
term.  No Fraction is built here.
"""

from __future__ import annotations

import math

Poly = list
Series = tuple  # (ints: Poly, den: int)


def p_normalize(p: Poly) -> Poly:
    while p and p[-1] == 0:
        p.pop()
    return p


def p_add(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    return p_normalize(out)


def p_neg(a: Poly) -> Poly:
    return [-x for x in a]


def p_mul(a: Poly, b: Poly) -> Poly:
    return _mul(a, b, len(a) + len(b))


def _mul(a: Poly, b: Poly, n: int) -> Poly:
    """The first n terms of a * b; zero terms of either factor are skipped."""
    if not a or not b:
        return []
    m = min(len(a) + len(b) - 1, n)
    out = [0] * m
    for i, x in enumerate(a[:m]):
        if x:
            for j, y in enumerate(b[: m - i]):
                if y:
                    out[i + j] += x * y
    return p_normalize(out)


def _pow(a: Poly, k: int, n: int) -> Poly:
    """The first n terms of a**k by repeated squaring; k >= 0, as
    `FunctionOracle` checks."""
    out = [1]
    while k:
        if k & 1:
            out = _mul(out, a, n)
        k >>= 1
        if k:
            a = _mul(a, a, n)
    return out


def s_reduce(ints: Poly, den: int) -> Series:
    """(ints, den) in lowest terms: trailing zeros dropped, the common
    factor of den and every coefficient divided out, den positive."""
    p_normalize(ints)
    g = math.gcd(den, *ints)
    if den < 0:
        g = -g
    if g != 1:
        ints = [x // g for x in ints]
        den //= g
    return ints, den


def s_add(a: Series, b: Series) -> Series:
    (x, dx), (y, dy) = a, b
    if dx != dy:
        g = math.gcd(dx, dy)
        x = [c * (dy // g) for c in x]
        y = [c * (dx // g) for c in y]
        dx = dx // g * dy
    return s_reduce(p_add(x, y), dx)


def s_neg(a: Series) -> Series:
    return p_neg(a[0]), a[1]


def s_sub(a: Series, b: Series) -> Series:
    return s_add(a, s_neg(b))


def s_mul(a: Series, b: Series, n: int) -> Series:
    """The first n terms of a * b."""
    return s_reduce(_mul(a[0], b[0], n), a[1] * b[1])


def s_pow(a: Series, k: int, n: int) -> Series:
    """The first n terms of a**k."""
    return s_reduce(_pow(a[0], k, n), a[1] ** k)


def s_div(a: Series, b: Series, n: int) -> Series:
    """The first n terms of a / b; b's constant term b_0 must be nonzero.

    With x = a's integers and y = b's, the quotient x / y has coefficients
    N_k / b_0^(k+1), where

        N_k = x_k * b_0^k - sum_{j=1..k} y_j * N_(k-j) * b_0^(j-1),

    so over the one denominator b_0^n coefficient k is N_k * b_0^(n-1-k).
    The series' own denominators contribute the factor den_b / den_a."""
    (x, dx), (y, dy) = a, b
    pw = [1]
    for _ in range(n):
        pw.append(pw[-1] * y[0])
    top = len(y) - 1
    out: Poly = []
    for k in range(n):
        acc = x[k] * pw[k] if k < len(x) else 0
        for j in range(1, min(k, top) + 1):
            if y[j]:
                acc -= y[j] * out[k - j] * pw[j - 1]
        out.append(acc)
    return s_reduce([c * pw[n - 1 - k] * dy for k, c in enumerate(out)], pw[n] * dx)
