"""Exact dense linear algebra over a FieldCtx.

Elimination is plain Gauss-Jordan with deterministic pivoting (first
nonzero entry in column order, rows scanned top to bottom), so every
result is byte-stable; it runs on the field context's code arrays, one
kernel for every field.  The array side is two kernels: ``echelon``
reduces a 2-D code array to its reduced row echelon form, and ``modrep``
spans every subspace and conjugates every random module with it;
``prefix_ranks`` takes a stack of small matrices as one code array and
counts the rank of every column prefix of them all in one elimination,
``ranks`` is its last count, and ``power_ranks`` ranks every power of a
stack of nilpotent matrices with it.  That elimination takes one path
for every stack, whatever its height: the field's narrow codes, and
every row kept.  ``rref`` is the list
form of ``echelon``, with no library caller: it stays for
bench/tracer.py, which wraps it by name and sizes its argument with
``len()``, and for the tests' list oracles in tests/oracles.py.
``mat_mul``, ``mat_add``, ``mat_sub``, ``nullspace`` and ``RowEchelon``
have no library caller either: they stay for bench/tracer.py and the
tests alike.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from wildcoh.gf import FieldCtx

Matrix = list[list[int]]
Vector = list[int]


def mat_mul(ctx: FieldCtx, a: Matrix, b: Matrix) -> Matrix:
    if len(b) != (len(a[0]) if a else 0):
        raise ValueError("matrix shape mismatch")
    if not a:
        return []
    if not b:
        return [[] for _ in a]
    # ctx.array reduces prime-field entries and refuses extension-field codes outside 0..q-1
    return ctx.matmul(ctx.array(a), ctx.array(b)).tolist()


def mat_add(ctx: FieldCtx, a: Matrix, b: Matrix) -> Matrix:
    add = ctx.add
    return [[add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(ctx: FieldCtx, a: Matrix, b: Matrix) -> Matrix:
    sub = ctx.sub
    return [[sub(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def echelon(ctx: FieldCtx, codes: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of a 2-D code array, and its pivot columns.

    Works on a copy: the argument is never modified.
    """
    m = codes.copy()
    rows, cols = m.shape
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        pivot = next((i for i, x in enumerate(m[r:, c].tolist(), r) if x), None)
        if pivot is None:
            continue
        if pivot != r:  # row assignments swap faster than a fancy-indexed pair
            m[r], m[pivot] = m[pivot], m[r].copy()
        # rows r.. vanish left of column c, so only columns c.. change; one
        # update scales the pivot row by s and clears column c elsewhere
        rest = m[:, c:]
        scale = ctx.inv(int(rest[r, 0]))
        factors = ctx.mul_array(rest[:, 0], scale)
        factors[r] = ctx.sub(1, scale)
        rest[...] = ctx.mul_sub(rest, 1, factors[:, None], rest[r])
        pivots.append(c)
    return m, pivots


def rref(ctx: FieldCtx, a: Matrix) -> tuple[Matrix, list[int]]:
    """``echelon`` on a list of rows of codes, returning a list of rows."""
    if not a:
        return [], []
    reduced, pivots = echelon(ctx, ctx.array(a))
    return reduced.tolist(), pivots


def _pivot_flags(ctx: FieldCtx, stack: np.ndarray) -> np.ndarray:
    """Row k + 1 flags the matrices of a (B, r, c) code array whose column k
    holds a pivot, from one elimination of them all; row 0 is False.

    A fraction-free forward pass: at each column every matrix replaces
    each row by pivot * row - row[0] * pivot_row, where the pivot row is
    its first row nonzero in that column.  This clears the column in
    every row, the pivot row included, so nothing is inverted or moved,
    and the column is dropped.  A matrix whose column has a pivot gains
    one in rank, and the pass records one flag per column.  Zero rows,
    such as the padding of smaller matrices in a stack, change no rank,
    and a zero column raises none.  Every stack is eliminated in
    ``ctx.narrow_dtype`` codes, where each update is exact before its
    reduction: a prime field's int16 or int32 copy, an extension field's
    and Python-int codes as they are.
    """
    m = np.asarray(stack).astype(ctx.narrow_dtype, copy=False)
    batch = np.arange(len(m))
    found = np.zeros((m.shape[2] + 1, len(m)), dtype=bool)
    k = 0
    while np.count_nonzero(m):
        lead = m[:, :, 0]
        pivot = m[batch, (lead != 0).argmax(axis=1)]
        missing = pivot[:, 0] == 0
        k += 1
        found[k] = pivot[:, 0]
        # a matrix whose column is zero keeps its rows: scale 1, factors 0
        m = ctx.mul_sub(m[:, :, 1:], (pivot[:, 0] + missing)[:, None, None], lead[:, :, None],
                        pivot[:, None, 1:])
    return found


def prefix_ranks(ctx: FieldCtx, stack: np.ndarray) -> np.ndarray:
    """Entry [b, k] is the rank of the first k columns of stack[b], 0 <= k <= c,
    for every matrix of a (B, r, c) code array: the running sums of the
    pivot flags of one elimination."""
    return _pivot_flags(ctx, stack).cumsum(axis=0).T


def ranks(ctx: FieldCtx, stack: np.ndarray) -> list[int]:
    """Rank of every matrix of a (B, r, c) code array: the last prefix rank,
    counted from the pivot flags with no running sums."""
    return _pivot_flags(ctx, stack).sum(0).tolist()


def power_ranks(ctx: FieldCtx, stack: np.ndarray, q: int) -> np.ndarray:
    """Row j - 1 holds rank N^j for every N of a (k, d, d) stack, up to the
    first power at which every N vanishes: the last row is zero.

    Each power is one stacked product, and the nonzero ones are ranked in
    one elimination.  Since q is a power of p, sigma^q - 1 = N^q, so
    N^q != 0 means sigma does not have the declared order.
    """
    powers = [stack]
    while np.count_nonzero(powers[-1]):
        if len(powers) == q:
            raise ValueError("generator matrix does not have the declared order")
        powers.append(ctx.matmul(powers[-1], stack))
    counts = ranks(ctx, np.concatenate(powers[:-1])) if len(powers) > 1 else []
    return np.array(counts + [0] * len(stack)).reshape(len(powers), len(stack))


def nullspace(ctx: FieldCtx, a: Matrix) -> list[Vector]:
    """Deterministic kernel basis: one vector per free column, in column order."""
    if not a:
        return []
    cols = len(a[0])
    red, pivots = rref(ctx, a)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    neg = ctx.neg
    for fc in free:
        vec = [0] * cols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = neg(red[r][fc])
        basis.append(vec)
    return basis


class RowEchelon:
    """Incremental row space with exact reduction, for rank-mod-subspace work.

    Rows are kept normalized (leading coefficient 1) and fully reduced
    against each other; pivot choice is the leftmost nonzero coordinate.
    The library itself spans with ``echelon``; this scalar route stays as the
    tests' independent reference for it.
    """

    def __init__(self, ctx: FieldCtx, rows: Sequence[Vector] = ()):
        self.ctx = ctx
        self._rows: dict[int, Vector] = {}
        for row in rows:
            self.add(row)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def reduce(self, vec: Vector) -> Vector:
        """Residual of vec after reduction against the stored rows.

        Prime-field entries may be any integers; they are reduced mod p.
        """
        ctx = self.ctx
        mul, sub = ctx.mul, ctx.sub
        v = [x % ctx.p for x in vec] if ctx.m == 1 else list(vec)
        for pc in sorted(self._rows):
            f = v[pc]
            if f:
                row = self._rows[pc]
                v = [sub(x, mul(f, y)) for x, y in zip(v, row)]
        return v

    def add(self, vec: Vector) -> Vector:
        """Reduce and, if independent, insert; returns the normalized residual."""
        ctx = self.ctx
        v = self.reduce(vec)
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            return v
        scale = ctx.inv(v[pivot])
        v = [ctx.mul(scale, x) for x in v]
        # keep existing rows reduced against the new one
        for pc, row in list(self._rows.items()):
            f = row[pivot]
            if f:
                self._rows[pc] = [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(row, v)]
        self._rows[pivot] = v
        return v

    def contains(self, vec: Vector) -> bool:
        return not any(self.reduce(vec))

    def rows(self) -> list[Vector]:
        return [self._rows[pc][:] for pc in sorted(self._rows)]

    def pivots(self) -> list[int]:
        return sorted(self._rows)
