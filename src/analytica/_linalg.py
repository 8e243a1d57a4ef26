"""Exact rational linear algebra on small dense matrices.

Matrices are tuples of row tuples of Fraction, vectors are tuples of
Fraction.  There is one elimination, `Elimination`: it reduces integer rows
fraction-free (Bareiss) and back-substitutes in integers, building one
Fraction per entry of an answer.  The cone designs are planned and solved
on it directly; `rank`, `solve`, `inverse`, `nullspace` and `rref` clear
each Fraction row to integers (`clear_denominators`), add it, and read
their answer off the kept rows.  Each answer (a rank, a unique solution or inverse, the kernel basis with
one free column set to 1, the reduced row echelon form) is unique, so it is
the same Fraction that Gauss-Jordan elimination gives.  The systems this
package produces stay small (a few hundred rows at most), so exactness
matters far more than asymptotics.
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
    """a b, with each row of a and each column of b cleared to integers over
    one denominator, so that each entry is one integer dot product."""
    cols = [clear_denominators(col) for col in transpose(b)]
    if cols and any(len(row) != len(b) for row in a):
        raise LinAlgError("dimension mismatch in dot product")
    rows = [clear_denominators(row) for row in a]
    return tuple(
        tuple(Fraction(sum(map(operator.mul, r, c)), dr * dc) for c, dc in cols) for r, dr in rows
    )


def clear_denominators(entries: Iterable) -> tuple[list[int], int]:
    """Integers k_i and their least common denominator den with
    entries[i] == k_i / den, for rational (Fraction or int) entries."""
    entries = list(entries)
    den = math.lcm(*(x.denominator for x in entries))
    return [x.numerator * (den // x.denominator) for x in entries], den


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
    before it.  The lead columns are therefore distinct and, sorted, are the
    pivot columns of the reduced row echelon form.

    A row may stand for row / scale (the monomial row of a point q / D of
    degree d is the row of q with scale D**d).  Each kept row stores its lead
    column, reduced form, scale and the multipliers row[l] met at every step,
    so `solve` replays the elimination on the right-hand side and
    back-substitutes, both in integers.
    """

    def __init__(self) -> None:
        self._kept: list[tuple[int, list[int], int, list[int]]] = []

    @property
    def leads(self) -> list[int]:
        """The lead column of each kept row, in the order they were kept."""
        return [lead for lead, _, _, _ in self._kept]

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

    def back_substitute(self, values: Sequence[int], x: Sequence[int]) -> tuple[list[int], int]:
        """(X, det) with X / det the vector that satisfies
        (reduced row) . (X / det) = value for every kept row, given the
        integers x outside the lead columns and 0 at them.

        det is the last pivot, the determinant of the kept rows on their
        lead columns up to sign, so X is an integer vector (Cramer's rule)
        and each lead entry comes from one exact integer division.  Rows are
        solved last kept first: a row is zero in the lead columns of the rows
        kept before it, which are still 0 in X, so the full dot product only
        picks up the leads of rows kept later."""
        det = self._kept[-1][1][self._kept[-1][0]] if self._kept else 1
        x = [det * c for c in x]
        for (lead, row, _, _), v in zip(reversed(self._kept), reversed(values)):
            x[lead] = (det * v - sum(a * c for a, c in zip(row, x) if a and c)) // row[lead]
        return x, det

    def solve(self, b: Sequence) -> Vec:
        """The unique x with (kept rows / their scales) x = b, entries of b in
        the order their rows were kept.  The kept rows must form a square
        matrix.

        b times the scales is cleared to integers over one denominator, and
        the elimination is replayed on it and back-substituted, all in
        integers; one Fraction is built per entry."""
        if len(b) != len(self._kept):
            raise LinAlgError("right-hand side length mismatch")
        ncols = len(self._kept[0][1]) if self._kept else 0
        if len(self._kept) != ncols:
            raise SingularMatrixError("kept rows do not form a square nonsingular matrix")
        scaled, den = clear_denominators(frac(v) * scale for v, (_, _, scale, _) in zip(b, self._kept))
        pivots = [piv[lead] for lead, piv, _, _ in self._kept]
        y: list[int] = []
        for (_, _, _, multipliers), v in zip(self._kept, scaled):
            prev = 1
            for p, m, yk in zip(pivots, multipliers, y):
                v = (p * v - m * yk) // prev
                prev = p
            y.append(v)
        x, det = self.back_substitute(y, [0] * ncols)
        return tuple(Fraction(c, den * det) for c in x)


def _eliminate(rows: Iterable[Sequence]) -> Elimination:
    """An elimination of the rational rows, each cleared to integers."""
    e = Elimination()
    for r in rows:
        e.add(*clear_denominators(r))
    return e


def _kernel(e: Elimination, ncols: int) -> dict[int, Vec]:
    """The kernel vector of each free column f, in column order: 1 at f and
    0 at the other free columns."""
    zeros = [0] * len(e.leads)
    leads = set(e.leads)
    kernel = {}
    for f in range(ncols):
        if f not in leads:
            x, det = e.back_substitute(zeros, [int(c == f) for c in range(ncols)])
            kernel[f] = tuple(Fraction(c, det) for c in x)
    return kernel


def rank(m: Mat) -> int:
    return len(_eliminate(m).leads)


def solve(a: Mat, b: Sequence[Fraction]) -> Vec:
    """Solve a x = b exactly for the unique x.

    Accepts square or overdetermined systems.  Raises InconsistentSystemError
    when no solution exists, else SingularMatrixError when the columns are
    dependent.
    """
    if len(a) != len(b):
        raise LinAlgError("right-hand side length mismatch")
    ncols = len(a[0]) if a else 0
    e = _eliminate((*r, frac(x)) for r, x in zip(a, b))
    # a kept row that leads in the b column reads 0 = nonzero
    if ncols in e.leads:
        raise InconsistentSystemError("system has no solution")
    if len(e.leads) < ncols:
        raise SingularMatrixError("system is rank-deficient")
    x, det = e.back_substitute([row[ncols] for _, row, _, _ in e._kept], [0] * ncols)
    return tuple(Fraction(c, det) for c in x)


def inverse(m: Mat, rows: int | None = None) -> Mat:
    """The inverse of m, or its first `rows` rows: row i is the y with
    y m = e_i, solved on the transpose."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise LinAlgError("inverse of a non-square matrix")
    e = _eliminate(transpose(m))
    if len(e.leads) < n:
        raise SingularMatrixError("matrix is singular")
    return tuple(e.solve(unit) for unit in identity(n)[:rows])


def nullspace(m: Mat) -> list[Vec]:
    """Basis of the kernel of m, deterministic (free variables in column order)."""
    if not m:
        return []
    return list(_kernel(_eliminate(m), len(m[0])).values())


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """The nonzero rows of the reduced row echelon form, and their pivot
    columns.  Row i is 1 at pivot i and 0 at the other pivots; at a free
    column f it is minus the i-th pivot's entry of f's kernel vector."""
    ncols = len(m[0]) if m else 0
    e = _eliminate(m)
    pivots = sorted(e.leads)
    rows = [[ONE if c == p else ZERO for c in range(ncols)] for p in pivots]
    for f, v in _kernel(e, ncols).items():
        for row, p in zip(rows, pivots):
            row[f] = -v[p]
    return tuple(map(tuple, rows)), tuple(pivots)
