"""Exact linear algebra over the rationals and the integers.

Small dense matrices only (dimensions bounded by the field degree times the
module rank, so at most a dozen or so).  Everything here is loop-based
Fraction arithmetic; no floating point enters any routine in this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Matrix = list[list[Fraction]]


def mat(rows: Sequence[Sequence]) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, m, p = len(a), len(b), len(b[0])
    if len(a[0]) != m:
        raise ValueError(f"cannot multiply a {n}x{len(a[0])} matrix by a {m}x{p} one")
    out = [[Fraction(0)] * p for _ in range(n)]
    for i in range(n):
        for k in range(m):
            aik = a[i][k]
            if aik:
                for j in range(p):
                    out[i][j] += aik * b[k][j]
    return out


def mat_vec(a: Matrix, v: Sequence[Fraction]) -> list[Fraction]:
    return [sum((row[j] * v[j] for j in range(len(v))), Fraction(0)) for row in a]


def transpose(a: Sequence[Sequence[Fraction]]) -> Matrix:
    return [list(col) for col in zip(*a)]


def det(a: Matrix) -> Fraction:
    """Determinant by exact Gaussian elimination."""
    n = len(a)
    m = [row[:] for row in a]
    sign = 1
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        p = m[col][col]
        result *= p
        for r in range(col + 1, n):
            if m[r][col]:
                factor = m[r][col] / p
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return result * sign


def inverse(a: Matrix) -> Matrix:
    """Exact inverse via Gauss-Jordan.  Raises ZeroDivisionError if singular."""
    n = len(a)
    m = [[Fraction(x) for x in row] + identity(n)[i] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("matrix is singular")
        m[col], m[pivot] = m[pivot], m[col]
        p = m[col][col]
        m[col] = [x / p for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def solve(a: Matrix, v: Sequence[Fraction]) -> list[Fraction]:
    return mat_vec(inverse(a), [Fraction(x) for x in v])


def is_integral(a: Matrix) -> bool:
    return all(x.denominator == 1 for row in a for x in row)


def row_basis(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Echelon Z-basis of the Z-span of integer rows of full column rank n.

    Returns n rows, row i zero before column i and positive in it.  For
    each column, Euclid's algorithm on the rows not yet used leaves one
    pivot row: the row with the smallest nonzero entry there is subtracted,
    times the floor quotient, from the others until only it is nonzero.
    Every step is unimodular, so the span never changes.  Raises ValueError
    when a column has no nonzero entry left, that is when the rows do not
    have full column rank.
    """
    m = [[int(x) for x in row] for row in rows]
    n = len(m[0])
    for col in range(n):
        while True:
            live = [i for i in range(col, len(m)) if m[i][col]]
            if not live:
                raise ValueError("rows do not have full column rank")
            p = min(live, key=lambda i: abs(m[i][col]))
            m[col], m[p] = m[p], m[col]
            if len(live) == 1:
                break
            for i in range(col + 1, len(m)):
                q = m[i][col] // m[col][col]
                m[i] = [x - q * y for x, y in zip(m[i], m[col])]
        if m[col][col] < 0:
            m[col] = [-x for x in m[col]]
    return m[:n]
