"""Reference routes that only the tests use.

The library works on code arrays; the list-of-rows helpers build, rank and
invert, with ``linalg.rref``, the small reference matrices the tests write
out as lists of rows of codes.  The series helpers multiply, invert and
take roots digit by digit on the scalar field operations, with none of
the array kernels of ``wildcoh.laurent``.
"""

from bisect import bisect_left

from wildcoh import linalg
from wildcoh.gf import FieldCtx
from wildcoh.laurent import LaurentSeries

Matrix = linalg.Matrix


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def rank(ctx: FieldCtx, a: Matrix) -> int:
    return len(linalg.rref(ctx, a)[1])


def prefix_ranks(ctx: FieldCtx, a: Matrix) -> list[int]:
    """Rank of the first k columns of a, for k = 0 .. cols.

    The RREF pivots lie in column order, so the first k columns hold the
    pivots left of column k and no more.
    """
    pivots = linalg.rref(ctx, a)[1]
    return [bisect_left(pivots, k) for k in range(len(a[0]) + 1)]


def inverse(ctx: FieldCtx, a: Matrix) -> Matrix:
    n = len(a)
    aug = [row[:] + ident_row for row, ident_row in zip(a, identity(n))]
    red, pivots = linalg.rref(ctx, aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red[:n]]


def enumerated_root(ctx: FieldCtx, a: int, n: int) -> int | None:
    """First code c in 0, 1, 2, ... with c**n == a, trying every code; None when none is.

    A prime field reads the integer a as its residue mod p.
    """
    residue = a % ctx.p if ctx.m == 1 else a
    return next((c for c in range(ctx.q) if ctx.pow(c, n) == residue), None)


def schoolbook_product(ctx, a, b):
    """Coefficients of the polynomial product, on the scalar field operations;
    zero terms are skipped, so sparse series stay cheap."""
    out = [0] * (len(a) + len(b) - 1)
    terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                out[i + j] = ctx.add(out[i + j], ctx.mul(x, y))
    return out


def recurrence_inverse(f):
    """1/f by the term-by-term recurrence u h = 1, solved for h_k in turn."""
    ctx, u = f.ctx, f.coeffs
    length = f.prec - f.val
    inv0 = ctx.inv(u[0])
    out = [inv0] + [0] * (length - 1)
    terms = [(j, c) for j, c in enumerate(u) if j and c]
    for k in range(1, length):
        acc = 0
        for j, c in terms:
            if j > k:
                break
            acc = ctx.add(acc, ctx.mul(c, out[k - j]))
        out[k] = ctx.neg(ctx.mul(inv0, acc))
    return LaurentSeries(ctx, -f.val, out, f.prec - 2 * f.val)


def schoolbook_mul(f, g):
    """f * g by the schoolbook product on the scalar field operations."""
    prec = min(f.prec + g.val, g.prec + f.val)
    return LaurentSeries(f.ctx, f.val + g.val, schoolbook_product(f.ctx, f.coeffs, g.coeffs), prec)


def schoolbook_pow(f, e):
    """f ** e by repeated schoolbook products (of the recurrence inverse if e < 0)."""
    if e == 0:
        return LaurentSeries.one(f.ctx, f.prec - f.val)
    base = f if e > 0 else recurrence_inverse(f)
    acc = base
    for _ in range(abs(e) - 1):
        acc = schoolbook_mul(acc, base)
    return acc


def dense_newton_root(f, n):
    """The n-th root by dense Newton, h <- h - (h^n - w) / (n h^(n-1)), on every
    digit, with schoolbook powers and products and the recurrence inverse."""
    ctx = f.ctx
    rel = f.prec - f.val
    w = LaurentSeries(ctx, 0, f.coeffs, rel).scale(ctx.inv(f.coeffs[0]))
    n_inv = ctx.inv(ctx.embed(n))
    h, k = LaurentSeries.one(ctx, 1), 1
    while k < rel:
        k = min(2 * k, rel)
        h_k = LaurentSeries(ctx, 0, h.coeffs, k)
        delta = schoolbook_pow(h_k, n) - w.truncate(k)
        corr = schoolbook_mul(delta, recurrence_inverse(schoolbook_pow(h_k, n - 1)))
        h = h_k - corr.scale(n_inv)
    return h.scale(ctx.nth_root(f.coeffs[0], n)).shift(f.val // n)
