"""Exact rational linear algebra on small dense matrices.

Matrices are tuples of row tuples of Fraction, vectors are tuples of
Fraction.  `solve`, `rank`, `inverse` and `nullspace` are Gaussian
elimination over Fractions; `Elimination`, which plans and solves the cone
designs, eliminates integer rows fraction-free (Bareiss) and only
back-substitutes in Fractions.  The systems this package produces stay
small (a few hundred rows at most), so exactness matters far more than
asymptotics.
"""

from __future__ import annotations

import math
import operator
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
    """Fraction-free forward elimination one integer row at a time, kept so
    it can solve.

    `add` reduces a row against the rows kept so far, in the order they were
    kept, with Bareiss's step (Bareiss, Math. Comp. 22, 1968): against the
    k-th kept row, with lead column l and pivot p_k = piv[l],

        row <- (p_k * row - row[l] * piv) // p_{k-1},    p_0 = 1.

    Every division is exact, because each entry is then a minor of the rows
    added.  The step rescales the row even when row[l] is 0; without that the
    later divisions are not exact.  The reduced row is p_k times the row a
    Fraction elimination leaves, so the same rows are kept with the same lead
    columns, and a reduced row is zero in the lead columns of the rows kept
    before it.

    A row may stand for row / scale (the monomial row of a point q / D of
    degree d is the row of q with scale D**d).  Each kept row stores its lead
    column, reduced form, scale and the multipliers row[l] met at every step,
    so `solve` replays the elimination on the right-hand side in integers and
    back-substitutes once in Fractions.
    """

    def __init__(self) -> None:
        self._kept: list[tuple[int, list[int], int, list[int]]] = []

    def add(self, row: Sequence[int], scale: int = 1) -> bool:
        """Keep the integer row if it is independent of the kept rows."""
        row = list(map(operator.index, row))
        multipliers = []
        prev = 1
        for lead, piv, _, _ in self._kept:
            p, m = piv[lead], row[lead]
            if m:
                row = [(p * a - m * b) // prev for a, b in zip(row, piv)]
            elif p != prev:
                row = [p * a // prev for a in row]
            multipliers.append(m)
            prev = p
        lead = next((i for i, c in enumerate(row) if c), None)
        if lead is None:
            return False
        self._kept.append((lead, row, scale, multipliers))
        return True

    def solve(self, b: Sequence) -> Vec:
        """The unique x with (kept rows / their scales) x = b, entries of b in
        the order their rows were kept.  The kept rows must form a square
        matrix."""
        if len(b) != len(self._kept):
            raise LinAlgError("right-hand side length mismatch")
        ncols = len(self._kept[0][1]) if self._kept else 0
        if len(self._kept) != ncols:
            raise SingularMatrixError("kept rows do not form a square nonsingular matrix")
        scaled = [frac(v) * scale for v, (_, _, scale, _) in zip(b, self._kept)]
        den = common_denominator(scaled)
        pivots = [piv[lead] for lead, piv, _, _ in self._kept]
        y: list[int] = []
        for (_, _, _, multipliers), v in zip(self._kept, scaled):
            v = v.numerator * (den // v.denominator)
            prev = 1
            for p, m, yk in zip(pivots, multipliers, y):
                v = (p * v - m * yk) // prev
                prev = p
            y.append(v)
        # x is zero in the lead columns not yet solved, so the full dot product
        # only picks up the leads of rows kept later
        x = [ZERO] * ncols
        for (lead, row, _, _), v in zip(reversed(self._kept), reversed(y)):
            x[lead] = (v - sum((a * c for a, c in zip(row, x) if a and c), ZERO)) / row[lead]
        return tuple(c / den for c in x)


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


def common_denominator(entries: Iterable[Fraction]) -> int:
    return math.lcm(*(x.denominator for x in entries))
