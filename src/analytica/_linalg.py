"""Exact rational linear algebra on small dense matrices.

Matrices are tuples of row tuples of Fraction, vectors are tuples of
Fraction.  Everything is plain Gaussian elimination; the systems this
package produces stay small (a few hundred rows at most), so exactness
matters far more than asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[tuple[Fraction, ...], ...]

ZERO = Fraction(0)
ONE = Fraction(1)


class LinAlgError(ValueError):
    pass


class SingularMatrixError(LinAlgError):
    pass


class InconsistentSystemError(LinAlgError):
    pass


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(entries: Iterable) -> Vec:
    return tuple(frac(x) for x in entries)


def mat(rows: Iterable[Iterable]) -> Mat:
    out = tuple(vec(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise LinAlgError("ragged matrix")
    return out


def identity(n: int) -> Mat:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise LinAlgError("dimension mismatch in dot product")
    return sum((a * b for a, b in zip(u, v)), ZERO)


def matvec(m: Mat, v: Sequence[Fraction]) -> Vec:
    return tuple(dot(row, v) for row in m)


def matmul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def _echelon(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot column list)."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    rows = [list(r) for r in m]
    rows, pivots = _echelon(rows)
    return tuple(tuple(r) for r in rows), tuple(pivots)


def rank(m: Mat) -> int:
    if not m:
        return 0
    return len(rref(m)[1])


def solve(a: Mat, b: Sequence[Fraction]) -> Vec:
    """Solve a x = b exactly for the unique x.

    Accepts square or overdetermined systems.  Raises SingularMatrixError
    when the columns are dependent and InconsistentSystemError when no
    solution exists.
    """
    if len(a) != len(b):
        raise LinAlgError("right-hand side length mismatch")
    ncols = len(a[0]) if a else 0
    rows = [list(r) + [frac(x)] for r, x in zip(a, b)]
    rows, pivots = _echelon(rows)
    if ncols in pivots:
        raise InconsistentSystemError("system has no solution")
    if len(pivots) < ncols:
        raise SingularMatrixError("system is rank-deficient")
    x = [ZERO] * ncols
    for i, c in enumerate(pivots):
        x[c] = rows[i][ncols]
    return tuple(x)


class Elimination:
    """Forward elimination one row at a time, kept so it can solve.

    `add` reduces a row against the rows kept so far, in the order they were
    kept, and keeps it when something nonzero is left.  Each kept row stores
    its lead column, its reduced form and the multipliers that reduced it, so
    the kept rows factor as (unit lower triangular) x (reduced rows) and
    `solve` only applies the multipliers to the right-hand side and
    back-substitutes.  A reduced row is zero in the lead columns of the rows
    kept before it.
    """

    def __init__(self) -> None:
        self._kept: list[tuple[int, list[Fraction], list[tuple[int, Fraction]]]] = []

    def add(self, row: Sequence[Fraction]) -> bool:
        """Keep the row if it is independent of the kept rows."""
        row = list(row)
        multipliers = []
        for k, (lead, piv, _) in enumerate(self._kept):
            if row[lead] != 0:
                f = row[lead] / piv[lead]
                row = [a - f * b if b else a for a, b in zip(row, piv)]
                multipliers.append((k, f))
        lead = next((i for i, c in enumerate(row) if c != 0), None)
        if lead is None:
            return False
        self._kept.append((lead, row, multipliers))
        return True

    def solve(self, b: Sequence) -> Vec:
        """The unique x with (kept rows) x = b, entries of b in the order
        their rows were kept.  The kept rows must form a square matrix."""
        if len(b) != len(self._kept):
            raise LinAlgError("right-hand side length mismatch")
        ncols = len(self._kept[0][1]) if self._kept else 0
        if len(self._kept) != ncols:
            raise SingularMatrixError("kept rows do not form a square nonsingular matrix")
        y: list[Fraction] = []
        for (_, _, multipliers), v in zip(self._kept, b):
            v = frac(v)
            for k, f in multipliers:
                v -= f * y[k]
            y.append(v)
        # x is zero in the lead columns not yet solved, so the full dot product
        # only picks up the leads of rows kept later
        x = [ZERO] * ncols
        for (lead, row, _), v in zip(reversed(self._kept), reversed(y)):
            x[lead] = (v - sum((a * c for a, c in zip(row, x) if a and c), ZERO)) / row[lead]
        return tuple(x)


def inverse(m: Mat) -> Mat:
    n = len(m)
    if any(len(r) != n for r in m):
        raise LinAlgError("inverse of a non-square matrix")
    aug = [list(r) + list(identity(n)[i]) for i, r in enumerate(m)]
    aug, pivots = _echelon(aug)
    if len(pivots) < n or any(p >= n for p in pivots):
        raise SingularMatrixError("matrix is singular")
    return tuple(tuple(aug[i][n:]) for i in range(n))


def nullspace(m: Mat) -> list[Vec]:
    """Basis of the kernel of m, deterministic (free variables in column order)."""
    if not m:
        return []
    ncols = len(m[0])
    red, pivots = rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fcol in free:
        v = [ZERO] * ncols
        v[fcol] = ONE
        for i, p in enumerate(pivots):
            v[p] = -red[i][fcol]
        basis.append(tuple(v))
    return basis


def lcm(a: int, b: int) -> int:
    from math import gcd

    return abs(a // gcd(a, b) * b) if a and b else abs(a or b)


def common_denominator(entries: Iterable[Fraction]) -> int:
    d = 1
    for x in entries:
        d = lcm(d, x.denominator)
    return d or 1
