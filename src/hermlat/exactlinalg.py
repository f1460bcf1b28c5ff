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


def z_diagonalize(a: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Diagonalize an integer matrix over Z: returns (u, d, v) with u*a*v = d.

    u and v are unimodular and d is diagonal (the divisibility chain of the
    Smith form is not enforced; it is not needed by the callers here).
    """
    m = [list(map(int, row)) for row in a]
    rows, cols = len(m), len(m[0])
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_op(i, j, q):  # row i -= q * row j
        m[i] = [x - q * y for x, y in zip(m[i], m[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col i -= q * col j
        for row in m:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(rows, cols):
        pos = min(
            ((i, j) for i in range(t, rows) for j in range(t, cols) if m[i][j] != 0),
            key=lambda ij: abs(m[ij[0]][ij[1]]),
            default=None,
        )
        if pos is None:
            break
        if pos[0] != t:
            swap_rows(t, pos[0])
        if pos[1] != t:
            swap_cols(t, pos[1])
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    row_op(i, t, q)
                    if m[i][t]:  # Euclidean remainder became the smaller pivot
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    col_op(j, t, q)
                    if m[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return u, m, v


def integral_solution_lattice(p: Sequence[Sequence[int]], q: int) -> Matrix:
    """Basis of the lattice {t in Q^n : p @ t in q * Z^m}.

    Requires p to have full column rank n.  Returns a rational matrix whose
    columns form a Z-basis of the solution lattice.
    """
    n = len(p[0])
    _, d, v = z_diagonalize(p)
    diag = [d[i][i] if i < len(d) else 0 for i in range(n)]
    if any(x == 0 for x in diag):
        raise ValueError("coefficient matrix does not have full column rank")
    # p t in q Z^m  <=>  d s in q Z^m with s = v^{-1} t  <=>  s_i in (q/d_i) Z
    basis_cols = []
    for i in range(n):
        scale = Fraction(q, diag[i])
        basis_cols.append([Fraction(v[r][i]) * scale for r in range(n)])
    return transpose(basis_cols)  # columns are the basis vectors
