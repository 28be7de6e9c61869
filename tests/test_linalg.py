"""Exact linear algebra: ranks, kernels, echelon spaces, every kind of field.

The property tests run one kernel over prime fields (int64 arrays, and
Python-int arrays for p above 2**15) and extension fields (table
arrays).  Their oracles share no code with it: the RREF is canonical,
products are checked against a schoolbook product on the scalar field
operations, and prime-field rref, nullspace, and the rank and inverse
that tests/oracles.py builds on rref, against sympy.
"""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildcoh import cohom, linalg, modrep
from wildcoh.gf import FieldCtx

import oracles
import test_api_reach

F4 = FieldCtx(2, (1, 1, 1))
F5 = FieldCtx(5)


def transpose(a):
    return [list(col) for col in zip(*a)]


FIELDS = {
    "GF2": FieldCtx(2),
    "GF3": FieldCtx(3),
    "GF5": F5,
    "GF101": FieldCtx(101),
    "GF4": F4,
    "GF9": FieldCtx(3, (1, 0, 1)),
    "GF25": FieldCtx(5, (2, 0, 1)),
    "GF40009": FieldCtx(40009),
    "GF2^31-1": FieldCtx((1 << 31) - 1),
}
PRIME_FIELDS = [name for name, ctx in FIELDS.items() if ctx.m == 1]
# stacked elimination runs prime-field stacks in int16 codes up to
# p = 181 and in int32 codes up to p = 2**15; these primes sit on both
# sides of the edges
STACK_FIELDS = {**FIELDS, "GF181": FieldCtx(181), "GF191": FieldCtx(191),
                "GF32749": FieldCtx(32749)}
PROPERTY = settings(max_examples=30, deadline=None)


def test_rank_and_nullspace_over_prime_field():
    # second row is twice the first, third is independent
    a = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert oracles.rank(F5, a) == 2
    kernel = linalg.nullspace(F5, a)
    assert len(kernel) == 1
    for vec in kernel:
        assert linalg.mat_mul(F5, [vec], transpose(a)) == [[0, 0, 0]]


def test_rref_pivots_deterministic():
    a = [[0, 1, 2], [0, 2, 4], [1, 0, 0]]
    red, pivots = linalg.rref(F5, a)
    assert pivots == [0, 1]
    assert red[0][0] == 1 and red[1][1] == 1


def test_rref_refuses_out_of_range_extension_codes():
    # -1 would index the GF(4) tables as code 3: [[3, 1], [1, 1]] has rank 2,
    # where -1 read as the integer embedding 1 gives rank 1
    for bad in ([[-1, 1], [1, 1]], [[4, 1], [1, 1]]):
        with pytest.raises(ValueError, match=r"^GF\(4\) codes lie in 0\.\.3$"):
            linalg.rref(F4, bad)
    # prime fields still reduce any integer mod p
    assert linalg.rref(F5, [[-1, 1], [1, -1]]) == ([[1, 4], [0, 0]], [0])


def test_inverse_roundtrip():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 6)
        while True:
            a = [[rng.randrange(5) for _ in range(n)] for _ in range(n)]
            if oracles.rank(F5, a) == n:
                break
        inv = oracles.inverse(F5, a)
        assert linalg.mat_mul(F5, a, inv) == oracles.identity(n)
    with pytest.raises(ValueError):
        oracles.inverse(F5, [[1, 2], [2, 4]])


def test_extension_field_path():
    w = 2  # code of the generator of GF(4)
    a = [[1, w], [w, F4.mul(w, w)]]  # rank 1: second row = w * first
    assert oracles.rank(F4, a) == 1
    kernel = linalg.nullspace(F4, a)
    assert len(kernel) == 1
    assert linalg.mat_mul(F4, [kernel[0]], transpose(a)) == [[0, 0]]
    inv = oracles.inverse(F4, [[w, 0], [1, 1]])
    assert linalg.mat_mul(F4, [[w, 0], [1, 1]], inv) == oracles.identity(2)


def test_rank_transpose_property():
    rng = random.Random(17)
    for ctx in (F5, F4):
        for _ in range(30):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            a = [[rng.randrange(ctx.q) for _ in range(cols)] for _ in range(rows)]
            assert oracles.rank(ctx, a) == oracles.rank(ctx, transpose(a))


def test_row_echelon_incremental():
    ech = linalg.RowEchelon(F5)
    assert ech.add([0, 2, 4]) == [0, 1, 2]
    assert ech.rank == 1
    assert ech.contains([0, 4, 3])  # 2 * (0, 2, 4) mod 5
    assert not ech.contains([1, 0, 0])
    residual = ech.add([3, 2, 4])
    assert residual[0] == 1
    assert ech.rank == 2
    assert ech.add([3, 4, 3]) == [0, 0, 0]  # 3 e_0 + 4 * (0, 1, 2)
    assert ech.pivots() == [0, 1]
    # unreduced entries are read mod p, as rref reads them
    assert linalg.RowEchelon(F5, [[0, 1]]).contains([5, 0])
    assert oracles.rank(F5, [[5, 0]]) == 0
    assert ech.add([10, -1, 8]) == [0, 0, 0]  # 4 * (0, 1, 2)


def test_empty_shapes():
    assert linalg.mat_mul(F5, [], []) == []
    assert oracles.rank(F5, []) == 0
    assert linalg.nullspace(F5, []) == []
    assert linalg.rref(F5, []) == ([], []) and linalg.rref(F5, [[], []]) == ([[], []], [])
    for ctx in (F5, F4, FIELDS["GF2^31-1"]):
        for shape in ((3, 0), (0, 4), (0, 0)):
            codes = np.zeros(shape, dtype=ctx.dtype)
            reduced, pivots = linalg.echelon(ctx, codes)
            assert reduced.shape == shape and pivots == [] and reduced is not codes


def random_code(rng, ctx, nonzero=False):
    while True:
        # one draw in five from the top codes, where int64 products of the
        # large primes would overflow
        if rng.random() < 0.8:
            x = rng.randrange(ctx.q)
        else:
            x = ctx.q - 1 - rng.randrange(min(3, ctx.q))
        if x or not nonzero:
            return x


def random_matrix(rng, ctx, rows, cols):
    return [[random_code(rng, ctx) for _ in range(cols)] for _ in range(rows)]


def schoolbook(ctx, a, b):
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = 0
            for x, brow in zip(row, b):
                acc = ctx.add(acc, ctx.mul(x, brow[j]))
            out_row.append(acc)
        out.append(out_row)
    return out


def random_invertible(rng, ctx, n):
    """Unit lower times upper triangular with nonzero diagonal: invertible."""
    lower = [[1 if i == j else random_code(rng, ctx) if j < i else 0 for j in range(n)]
             for i in range(n)]
    upper = [[random_code(rng, ctx, nonzero=True) if i == j else random_code(rng, ctx)
              if j > i else 0 for j in range(n)] for i in range(n)]
    return schoolbook(ctx, lower, upper)


dims = st.integers(1, 6)
rngs = st.randoms(use_true_random=True)


@pytest.mark.parametrize("name", FIELDS)
@PROPERTY
@given(rng=rngs, rows=dims, cols=dims)
def test_rref_is_invariant_under_invertible_row_operations(name, rng, rows, cols):
    ctx = FIELDS[name]
    a = random_matrix(rng, ctx, rows, cols)
    g = random_invertible(rng, ctx, rows)
    assert linalg.rref(ctx, schoolbook(ctx, g, a)) == linalg.rref(ctx, a)


@pytest.mark.parametrize("name", FIELDS)
@PROPERTY
@given(rng=rngs, rows=dims, cols=dims)
def test_rref_is_idempotent(name, rng, rows, cols):
    ctx = FIELDS[name]
    a = random_matrix(rng, ctx, rows, cols)
    red, pivots = linalg.rref(ctx, a)
    assert linalg.rref(ctx, red) == (red, pivots)
    # the code-array kernel gives the same rows and pivots, in the argument's
    # dtype, and leaves its argument as it was
    codes = ctx.array(a)
    reduced, echelon_pivots = linalg.echelon(ctx, codes)
    assert reduced.tolist() == red and echelon_pivots == pivots
    assert reduced.dtype == codes.dtype and codes.tolist() == a
    for r, c in enumerate(pivots):
        assert [row[c] for row in red] == [int(i == r) for i in range(rows)]


@pytest.mark.parametrize("name", FIELDS)
@PROPERTY
@given(rng=rngs, rows=dims, cols=dims)
def test_nullspace_is_the_kernel(name, rng, rows, cols):
    ctx = FIELDS[name]
    a = random_matrix(rng, ctx, rows, cols)
    kernel = linalg.nullspace(ctx, a)
    for vec in kernel:
        assert schoolbook(ctx, a, [[x] for x in vec]) == [[0]] * rows
    assert oracles.rank(ctx, a) + len(kernel) == cols
    if kernel:
        assert oracles.rank(ctx, kernel) == len(kernel)


@pytest.mark.parametrize("name", FIELDS)
@PROPERTY
@given(rng=rngs, n=dims)
def test_inverse_times_matrix_is_identity(name, rng, n):
    ctx = FIELDS[name]
    a = random_invertible(rng, ctx, n)
    assert schoolbook(ctx, oracles.inverse(ctx, a), a) == oracles.identity(n)


@pytest.mark.parametrize("name", FIELDS)
@PROPERTY
@given(rng=rngs, shape=st.tuples(dims, dims, dims, dims))
def test_mat_mul_is_associative_and_schoolbook(name, rng, shape):
    ctx = FIELDS[name]
    n, k, l, m = shape
    a = random_matrix(rng, ctx, n, k)
    b = random_matrix(rng, ctx, k, l)
    c = random_matrix(rng, ctx, l, m)
    ab = linalg.mat_mul(ctx, a, b)
    assert ab == schoolbook(ctx, a, b)
    assert linalg.mat_mul(ctx, ab, c) == linalg.mat_mul(ctx, a, linalg.mat_mul(ctx, b, c))


def test_mat_mul_reads_its_entries_as_field_codes():
    # prime-field integers are reduced; extension-field codes outside 0..q-1,
    # which would index the tables from the end, are refused
    assert linalg.mat_mul(F5, [[-1, 7]], [[2], [5]]) == [[3]]
    for a, b in (([[-1]], [[1]]), ([[1]], [[4]])):
        with pytest.raises(ValueError, match=r"^GF\(4\) codes lie in 0\.\.3$"):
            linalg.mat_mul(F4, a, b)


def random_stack_members(rng, ctx, rows, cols):
    """Matrices of one (B, rows, cols) stack that reach every branch of the
    stacked elimination: random, low rank, repeated rows, zero, a unit
    column, all top codes (the largest products), and smaller random
    matrices zero-padded to the stack shape."""
    low = linalg.mat_mul(ctx, random_matrix(rng, ctx, rows, 1), random_matrix(rng, ctx, 1, cols))
    repeated = random_matrix(rng, ctx, 1, cols) * rows
    unit = [[int(i == 0 and j == cols - 1) for j in range(cols)] for i in range(rows)]
    top = [[ctx.q - 1] * cols for _ in range(rows)]
    members = [random_matrix(rng, ctx, rows, cols), low, repeated, oracles.zeros(rows, cols), unit,
               top]
    for r, c in ((rows, 1), (1, cols), (rng.randint(1, rows), rng.randint(1, cols))):
        small = random_matrix(rng, ctx, r, c)
        members.append([row + [0] * (cols - c) for row in small] + oracles.zeros(rows - r, cols))
    return members


@pytest.mark.parametrize("name", STACK_FIELDS)
@PROPERTY
@given(rng=rngs, rows=dims, cols=dims)
def test_stacked_ranks_match_one_rank_per_matrix(name, rng, rows, cols):
    ctx = STACK_FIELDS[name]
    members = random_stack_members(rng, ctx, rows, cols)
    rng.shuffle(members)
    stack = np.array(members, dtype=ctx.dtype)
    assert linalg.ranks(ctx, stack) == [oracles.rank(ctx, m) for m in members]
    assert stack.tolist() == members  # the stack is left as it was


@pytest.mark.parametrize("name", STACK_FIELDS)
def test_stacked_ranks_edge_shapes(name):
    ctx = STACK_FIELDS[name]
    assert linalg.ranks(ctx, np.zeros((0, 3, 3), dtype=ctx.dtype)) == []
    assert linalg.ranks(ctx, np.zeros((2, 0, 4), dtype=ctx.dtype)) == [0, 0]
    assert linalg.ranks(ctx, np.zeros((2, 4, 0), dtype=ctx.dtype)) == [0, 0]
    assert linalg.ranks(ctx, np.array([[[0]], [[1]], [[ctx.q - 1]]], dtype=ctx.dtype)) == [0, 1, 1]
    # a zero-padded member keeps the rank of the matrix it pads
    j3 = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    padded = np.zeros((1, 5, 6), dtype=ctx.dtype)
    padded[0, :3, :3] = j3
    assert linalg.ranks(ctx, padded) == [3]


@pytest.mark.parametrize("name, dtype", [
    ("GF2", np.int16), ("GF101", np.int16), ("GF181", np.int16), ("GF191", np.int32),
    ("GF32749", np.int32), ("GF40009", object), ("GF4", np.int64), ("GF9", np.int64),
    ("GF25", np.int64)])
def test_stacked_elimination_codes(monkeypatch, name, dtype):
    # prime-field stacks narrow their codes, short and tall alike;
    # extension tables and Python ints keep theirs
    ctx = STACK_FIELDS[name]
    seen = []
    mul_sub = FieldCtx.mul_sub

    def recording(self, a, b, c, d):
        seen.append(a.dtype)
        return mul_sub(self, a, b, c, d)

    monkeypatch.setattr(FieldCtx, "mul_sub", recording)
    for rows in (3, 20):
        seen.clear()
        stack = np.full((2, rows, 4), ctx.q - 1, dtype=ctx.dtype)
        stack[1, rows - 1, 0] = 0
        assert linalg.ranks(ctx, stack) == [1, 2]
        assert seen and set(seen) == {np.dtype(dtype)}
    assert ctx.narrow_dtype == dtype


def random_strictly_lower(rng, ctx, size):
    """A random strictly lower triangular matrix, a third of its entries zero."""
    return [[random_code(rng, ctx) if j < i and rng.random() < 0.7 else 0 for j in range(size)]
            for i in range(size)]


def prefix_ranks_match_the_oracle(ctx, members):
    """prefix_ranks of one stack of the members against the oracle's
    column-prefix ranks of each member alone, which it returns."""
    stack = np.array(members, dtype=ctx.dtype)
    want = [oracles.prefix_ranks(ctx, m) for m in members]
    assert linalg.prefix_ranks(ctx, stack).tolist() == want
    assert stack.tolist() == members  # the stack is left as it was
    return want


@pytest.mark.parametrize("name", STACK_FIELDS)
def test_row_drop_pass_gives_the_general_mask(name):
    # at every height 1..70, one stack of strictly lower triangular members,
    # with and without one entry on or above the diagonal, and their flips
    # on both axes, strictly upper as cohom's flipped class stacks are: the
    # rows that such a stack clears stay in it, and count nothing
    ctx = STACK_FIELDS[name]
    rng = random.Random(70)
    for size in range(1, 71):
        lower = random_strictly_lower(rng, ctx, size)
        raised = [row[:] for row in lower]
        i = rng.randrange(size)
        raised[i][rng.randrange(i, size)] = random_code(rng, ctx, True)
        members = [lower, raised]
        prefix_ranks_match_the_oracle(ctx, members + [[row[::-1] for row in m[::-1]] for m in members])


def test_row_drop_keeps_the_rows_of_a_stack_that_is_not_strictly_lower():
    # one diagonal entry: dropping row 0 with column 0 would lose the rank
    stack = np.zeros((2, 16, 16), dtype=np.int64)
    stack[0, 0, 0] = stack[1, 5, 2] = 1
    assert linalg.ranks(FieldCtx(5), stack) == [1, 1]


@pytest.mark.parametrize("name", STACK_FIELDS)
@PROPERTY
@given(rng=rngs, rows=dims, cols=dims, triangular=st.booleans())
def test_prefix_ranks_count_every_column_prefix(name, rng, rows, cols, triangular):
    # random, zero and padded members, or strictly lower triangular ones and
    # their flips on both axes, the strictly upper ones that cohom eliminates
    ctx = STACK_FIELDS[name]
    if triangular:
        lower = [random_strictly_lower(rng, ctx, max(rows, cols)) for _ in range(3)]
        members = lower + [[row[::-1] for row in m[::-1]] for m in lower]
    else:
        members = random_stack_members(rng, ctx, rows, cols)
    stack = np.array(members, dtype=ctx.dtype)
    want = [[oracles.rank(ctx, [row[:k] for row in m]) for k in range(len(m[0]) + 1)]
            for m in members]
    prefix = linalg.prefix_ranks(ctx, stack)
    assert prefix.tolist() == want
    assert linalg.ranks(ctx, stack) == prefix[:, -1].tolist()
    assert stack.tolist() == members


# the (p, n) covers of the benchmark's lattice sweep
SWEEP_COVERS = ([(3, n) for n in (1, 2, 5, 8, 11)]
                + [(p, n) for p in (5, 7, 13, 31) for n in (1, 3, 6, 9, 12)]
                + [(101, 3), (101, 7)])


@pytest.mark.parametrize("p, n", SWEEP_COVERS + [(101, 1)])
def test_row_drop_pass_gives_the_general_mask_on_class_stacks(p, n):
    # every class stack block by block, as it is and flipped on both axes,
    # as cohom eliminates it; at the widened width, p = 101 reaches source
    # blocks of 69 rows (n = 3) and, with (101, 1), of 204
    cov = cohom.cached_cover(p, n)
    for w in (n + p + 1, n + 2 * p + 1):
        # the d-rank's source, its target and h1 windows on both sides of 0
        for a, lo in ((0, -w), (n + 1, -1 - w), (-3, -3 - w), (n + 4, n + 4 - w)):
            stack = cov.window(a, lo).class_stack()
            want = prefix_ranks_match_the_oracle(cov.ctx, stack.tolist())
            assert linalg.ranks(cov.ctx, stack) == [counts[-1] for counts in want]
            prefix_ranks_match_the_oracle(cov.ctx, stack[:, ::-1, ::-1].tolist())


@pytest.mark.parametrize("name", FIELDS)
@PROPERTY
@given(rng=rngs, shape=st.tuples(st.integers(1, 4), dims, dims, dims))
def test_stacked_matmul_is_one_product_per_member(name, rng, shape):
    ctx = FIELDS[name]
    batch, n, k, m = shape
    a = [random_matrix(rng, ctx, n, k) for _ in range(batch)]
    b = [random_matrix(rng, ctx, k, m) for _ in range(batch)]
    stacked = ctx.matmul(np.array(a, dtype=ctx.dtype), np.array(b, dtype=ctx.dtype))
    assert stacked.tolist() == [schoolbook(ctx, x, y) for x, y in zip(a, b)]
    # a single right factor is shared by every member of the stack
    shared = ctx.matmul(np.array(a, dtype=ctx.dtype), np.array(b[0], dtype=ctx.dtype))
    assert shared.tolist() == [schoolbook(ctx, x, b[0]) for x in a]


def random_nilpotent(rng, ctx, d):
    """A random strictly lower triangular matrix conjugated by a random
    invertible one: nilpotent, N^d = 0, with a random rank sequence."""
    lower = [[random_code(rng, ctx) if j < i and rng.random() < 0.7 else 0 for j in range(d)]
             for i in range(d)]
    g = random_invertible(rng, ctx, d)
    return schoolbook(ctx, schoolbook(ctx, g, lower), oracles.inverse(ctx, g))


def one_rank_per_power(ctx, members):
    # rank N^j for j = 1, 2, ... by one product and one rank per matrix and
    # power, up to the first power at which every member vanishes
    rows, powers = [], members
    while any(x for power in powers for row in power for x in row):
        rows.append([oracles.rank(ctx, power) for power in powers])
        powers = [schoolbook(ctx, power, member) for power, member in zip(powers, members)]
    return rows + [[0] * len(members)]


POWER_FIELDS = ("GF2", "GF3", "GF4", "GF9")


@pytest.mark.parametrize("name", POWER_FIELDS)
@PROPERTY
@given(rng=rngs, d=dims, batch=st.integers(1, 4))
def test_power_ranks_match_one_rank_per_power(name, rng, d, batch):
    ctx = FIELDS[name]
    q = ctx.p
    while q < d:  # the least power of p that kills every d by d nilpotent matrix
        q *= ctx.p
    members = [random_nilpotent(rng, ctx, d) for _ in range(batch)]
    stack = np.array(members, dtype=ctx.dtype)
    got = linalg.power_ranks(ctx, stack, q)
    assert got.tolist() == one_rank_per_power(ctx, members)
    assert stack.tolist() == members  # the stack is left as it was


@pytest.mark.parametrize("name", POWER_FIELDS)
def test_power_ranks_refuse_a_nonzero_qth_power(name):
    ctx = FIELDS[name]
    p = ctx.p
    message = "generator matrix does not have the declared order"
    # a shift of size p has N^(p-1) != 0 = N^p; one size more and N^p != 0
    shift = np.eye(p, k=-1, dtype=ctx.dtype)
    assert linalg.power_ranks(ctx, shift[None], p)[:, 0].tolist() == list(range(p - 1, -1, -1))
    longer = np.eye(p + 1, k=-1, dtype=ctx.dtype)
    with pytest.raises(ValueError, match=message):
        linalg.power_ranks(ctx, longer[None], p)
    # one bad member refuses the whole stack, and N = 1 is not nilpotent at all
    padded = np.zeros((2, p + 1, p + 1), dtype=ctx.dtype)
    padded[0, :p, :p], padded[1] = shift, longer
    with pytest.raises(ValueError, match=message):
        linalg.power_ranks(ctx, padded, p)
    with pytest.raises(ValueError, match=message):
        linalg.power_ranks(ctx, np.eye(2, dtype=ctx.dtype)[None], p * p)
    # empty and all-zero stacks: one row, of zeros
    assert linalg.power_ranks(ctx, np.zeros((0, 3, 3), dtype=ctx.dtype), p).shape == (1, 0)
    assert linalg.power_ranks(ctx, np.zeros((2, 0, 0), dtype=ctx.dtype), p).tolist() == [[0, 0]]
    assert linalg.power_ranks(ctx, np.zeros((3, 2, 2), dtype=ctx.dtype), p).tolist() == [[0] * 3]


def sympy_matrix(ctx, a, cols):
    matrices = pytest.importorskip("sympy.polys.matrices")
    from sympy import GF

    domain = GF(ctx.p)
    return matrices.DomainMatrix([[domain(x) for x in row] for row in a], (len(a), cols), domain)


def from_sympy(ctx, dm):
    return [[int(x) % ctx.p for x in row] for row in dm.to_Matrix().tolist()]


@pytest.mark.parametrize("name", PRIME_FIELDS)
@PROPERTY
@given(rng=rngs, rows=dims, cols=dims)
def test_rank_and_rref_match_sympy(name, rng, rows, cols):
    # also nullspace (dimension and span) and the inverse of an invertible draw
    ctx = FIELDS[name]
    a = random_matrix(rng, ctx, rows, cols)
    dm = sympy_matrix(ctx, a, cols)
    red, pivots = dm.rref()
    assert oracles.rank(ctx, a) == dm.rank()
    assert linalg.rref(ctx, a) == (from_sympy(ctx, red), list(pivots))
    kernel, theirs = linalg.nullspace(ctx, a), dm.nullspace()
    assert len(kernel) == theirs.shape[0]
    if kernel:
        ours = sympy_matrix(ctx, kernel, cols)
        assert ours.rank() == ours.vstack(theirs).rank() == len(kernel)
    g = random_invertible(rng, ctx, rows)
    assert oracles.inverse(ctx, g) == from_sympy(ctx, sympy_matrix(ctx, g, rows).inv())


def test_public_matrix_arguments_are_lists(monkeypatch):
    # bench/tracer.py sizes matrix arguments by len() and truth value, which
    # an ndarray argument breaks: callers pass lists of rows across this API,
    # and the library itself, which works on code arrays, does not call it
    calls = Counter()

    def guard(name, fn):
        def wrapper(ctx, *args):
            assert all(isinstance(m, list) for m in args), name
            calls[name] += 1
            return fn(ctx, *args)

        return wrapper

    def unused(name):
        def wrapper(*args):
            raise AssertionError(f"RowEchelon.{name} called")

        return wrapper

    names = ("rref", "nullspace", "mat_mul", "mat_add", "mat_sub")
    for name in names:
        monkeypatch.setattr(linalg, name, guard(name, getattr(linalg, name)))
    # the library spans with echelon: RowEchelon is the tests' reference only
    for name in ("add", "reduce"):
        monkeypatch.setattr(linalg.RowEchelon, name, unused(name))
    cov = cohom.cached_cover(3, 2)
    assert cohom.h1_lattice(cov, 0).dim == 2
    assert cohom.d_image_rank(cov) == 1
    assert cohom.h1_basis_certificate(cov, 3).dim == 2
    cov.window(1, -5).verify_order()
    j3 = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    mod = modrep.CyclicModule(ctx=FieldCtx(3), sigma=j3, q=3)
    assert modrep.block_decomposition(mod) == Counter({3: 1})
    # J_3 is the free module k[Z/3]: one invariant line, no higher cohomology
    assert [modrep.periodic_cohomology(mod, i) for i in (0, 1, 2)] == [1, 0, 0]
    # J_3 contains J_2 = span(e_0, e_1) with quotient J_1: not split, and the
    # invariants 1 + 1 != 1 are not additive either
    triple = modrep.ExactTriple(b=mod, a_basis=[[1, 0, 0], [0, 1, 0]])
    assert not modrep.splits(triple)
    assert not modrep.invariants_additive(triple)
    # random triples span the sigma-closure of their generators by echelon
    for q, ctx in ((9, FieldCtx(3)), (4, F4)):
        triple = modrep.random_exact_triple(ctx, q, random.Random(q))
        assert triple.a_dim + triple.c_dim == triple.b.dim
    # no src path on this tour calls the list API: spans and the random
    # conjugation reduce code arrays by echelon, modules form N on code
    # arrays and the lattice dimensions are ranks of residue blocks
    assert not calls


def test_every_public_linalg_name_serves_src_or_the_tracer():
    # no API layer that nothing uses: each public function or class of
    # linalg has a caller elsewhere in the package, or bench/tracer.py wraps it
    assert test_api_reach.unreached_linalg() == []
