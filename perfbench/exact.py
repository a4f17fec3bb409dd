"""The benchmark's own exact linear algebra, kept apart from the program's.

Inputs with a known deep violation are built here, and every violated
witness the program returns is re-verified here, so a defect in the
program's elimination cannot also hide in the check that judges it.
"""

from __future__ import annotations

import math
from fractions import Fraction


def hankel(values, offset: int, size: int):
    return [[values[i + j + offset] for j in range(size)] for i in range(size)]


def leading_pivots(matrix):
    """Pivots of symmetric elimination in index order, plus the last diagonal's history.

    Returns ``(pivots, last)`` where ``pivots[k]`` is the k-th pivot and
    ``last[k]`` is the last diagonal entry after eliminating rows 0..k-1.
    Raises ValueError on a nonpositive pivot before the last row.
    """
    n = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    pivots = []
    last = [a[n - 1][n - 1]]
    for k in range(n - 1):
        piv = a[k][k]
        if piv <= 0:
            raise ValueError(f"pivot {k} is {piv}; the leading block is not positive definite")
        pivots.append(piv)
        top = a[k]
        for r in range(k + 1, n):  # upper triangle only: the matrix stays symmetric
            f = top[r] / piv
            if f:
                row = a[r]
                for c in range(r, n):
                    row[c] -= f * top[c]
        last.append(a[n - 1][n - 1])
    pivots.append(a[n - 1][n - 1])
    return pivots, last


def determinant(matrix) -> Fraction:
    """Determinant by fraction-free Bareiss elimination on the integer-scaled matrix."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    rows = [[Fraction(x) for x in row] for row in matrix]
    scale = 1
    ints = []
    for row in rows:
        den = math.lcm(*(x.denominator for x in row))
        scale *= den
        ints.append([int(x * den) for x in row])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if ints[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if ints[r][k] != 0), None)
            if swap is None:
                return Fraction(0)
            ints[k], ints[swap] = ints[swap], ints[k]
            sign = -sign
        pk = ints[k][k]
        for r in range(k + 1, n):
            rk = ints[r][k]
            row = ints[r]
            top = ints[k]
            for c in range(k + 1, n):
                row[c] = (row[c] * pk - rk * top[c]) // prev
        prev = pk
    return Fraction(sign * ints[n - 1][n - 1], scale)


def bits(x) -> int:
    """Bit length of the larger of numerator and denominator."""
    x = Fraction(x)
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
