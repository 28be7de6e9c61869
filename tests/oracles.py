"""List-of-rows helpers that only the tests use, built on ``linalg.rref``.

The library works on code arrays; these build, rank and invert the small
reference matrices the tests write out as lists of rows of codes.
"""

from wildcoh import linalg
from wildcoh.gf import FieldCtx

Matrix = linalg.Matrix


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def rank(ctx: FieldCtx, a: Matrix) -> int:
    return len(linalg.rref(ctx, a)[1])


def inverse(ctx: FieldCtx, a: Matrix) -> Matrix:
    n = len(a)
    aug = [row[:] + ident_row for row, ident_row in zip(a, identity(n))]
    red, pivots = linalg.rref(ctx, aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red[:n]]
