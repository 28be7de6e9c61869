"""Cyclic modules: block decompositions, periodic cohomology, splitting, averaging.

The forward implication "right-exact invariants => splits" is refuted by
explicit non-split sequences built by hand in this file (verified by
brute-force complement search), so the tests document one implication
and the counterexamples to the other, not the false equivalence.
"""

import hashlib
import json
import random
import re
from collections import Counter
from itertools import combinations, permutations

import numpy as np
import pytest

from wildcoh import char2ex, cohom, linalg, modrep
from wildcoh.gf import FieldCtx
from wildcoh.modrep import CyclicModule

import oracles

F2 = FieldCtx(2)
F3 = FieldCtx(3)


def transpose(a):
    return [list(col) for col in zip(*a)]


def local_rank_mod_p(matrix, p):
    # test-local elimination, kept independent of wildcoh.linalg
    m = [row[:] for row in matrix]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c] % p), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        m[rank] = [(x * inv) % p for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c] % p:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def blocks_oracle(sigma, p, q):
    # multiset of block sizes from the nilpotent rank sequence, test-local
    dim = len(sigma)
    nil = [[(sigma[i][j] - (i == j)) % p for j in range(dim)] for i in range(dim)]
    ranks = [dim]
    power = [[int(i == j) for j in range(dim)] for i in range(dim)]
    while ranks[-1]:
        power = [
            [sum(power[i][k] * nil[k][j] for k in range(dim)) % p for j in range(dim)]
            for i in range(dim)
        ]
        ranks.append(local_rank_mod_p(power, p))
    out = Counter()
    for j in range(1, len(ranks)):
        count = (ranks[j - 1] - ranks[j]) - (ranks[j] - ranks[j + 1] if j + 1 < len(ranks) else 0)
        if count:
            out[j] = count
    return out


# the (field, group order) pairs of criterion 8 and of the module_triples benchmark
TRIPLE_FIELDS = (
    (F3, 3), (F2, 4), (FieldCtx(5), 5), (F2, 8), (F3, 9),
    (FieldCtx(2, (1, 1, 1)), 4), (FieldCtx(3, (1, 0, 1)), 9),
)


def per_power_ranks(mod):
    # the reference rank sequence: one linalg.rank per power of N, the
    # route block_decomposition took before the stacked elimination
    ctx, dim = mod.ctx, mod.dim
    nil = linalg.mat_sub(ctx, mod.sigma, oracles.identity(dim))
    ranks = [dim, oracles.rank(ctx, nil) if dim else 0]
    power = nil
    while ranks[-1] and len(ranks) <= mod.q:
        power = linalg.mat_mul(ctx, power, nil)
        ranks.append(oracles.rank(ctx, power))
    if ranks[-1]:
        raise ValueError("generator matrix does not have the declared order")
    return ranks


def blocks_from_ranks(ranks):
    ranks = ranks + [0]
    out = Counter()
    for j in range(1, len(ranks) - 1):
        if count := ranks[j - 1] - 2 * ranks[j] + ranks[j + 1]:
            out[j] = count
    return out


def reduce_formula_sigmas(triple):
    # sigma on A and on B/A by reduction against the echelon rows of A, one
    # RowEchelon.reduce per free column: the formulas the array route replaced
    ctx, sigma = triple.b.ctx, triple.b.sigma
    ech = linalg.RowEchelon(ctx, triple.a_basis)
    pivots = ech.pivots()
    images = linalg.mat_mul(ctx, ech.rows(), transpose(sigma)) if pivots else []
    sigma_a = transpose([[image[pc] for pc in pivots] for image in images])
    free = [c for c in range(triple.b.dim) if c not in pivots]
    sigma_c = []
    for fc in free:
        image = ech.reduce([row[fc] for row in sigma])
        sigma_c.append([image[c] for c in free])
    return sigma_a, transpose(sigma_c)


def frontier_closure_triple(ctx, q, rng, max_dim=10):
    # the reference draw: a block shape conjugated by a rank-tested random
    # map, then random generators closed under sigma by growing a
    # RowEchelon with the images of its newest rows until none is new
    blocks, dim = [], 0
    while not blocks or (dim < max_dim and rng.random() < 0.6):
        size = rng.randint(1, q)
        if dim + size > max_dim:
            break
        blocks.append(size)
        dim += size
    sigma = oracles.zeros(dim, dim)
    at = 0
    for size in blocks:
        for i in range(size):
            sigma[at + i][at + i] = 1
            if i + 1 < size:
                sigma[at + i][at + i + 1] = 1
        at += size
    while True:
        g = [[rng.randrange(ctx.q) for _ in range(dim)] for _ in range(dim)]
        if oracles.rank(ctx, g) == dim:
            break
    conj = linalg.mat_mul(ctx, linalg.mat_mul(ctx, g, sigma), oracles.inverse(ctx, g))
    gens = [[rng.randrange(ctx.q) for _ in range(dim)] for _ in range(rng.randint(0, dim))]
    ech = linalg.RowEchelon(ctx, gens)
    frontier = ech.rows()
    while frontier:
        images = linalg.mat_mul(ctx, frontier, transpose(conj))
        frontier = [res for res in map(ech.add, images) if any(res)]
    return conj, ech.rows()


def test_krylov_closure_matches_the_frontier_closure():
    # the first 200 draws per field, from one generator, as criterion 8 and
    # the module_triples benchmark take them: same draws, same reduced rows
    ours, theirs = random.Random(1), random.Random(1)
    for ctx, q in TRIPLE_FIELDS:
        for _ in range(200):
            triple = modrep.random_exact_triple(ctx, q, ours)
            assert (triple.b.sigma, triple.a_basis) == frontier_closure_triple(ctx, q, theirs)
    assert ours.random() == theirs.random()


# sha256 of the canonical JSON of [[sigma, a_basis], ...] for the first 20
# draws per criterion-8 field, all from one generator seeded 287: the list
# view and the draw order are both pinned
DRAW_PINS = {
    (3, 3): "7912c98c4b9af99f6df9e2d01d3580641e867ae34b50ed61c85add14d5571ee2",
    (4, 2): "3469dfd43a9ae50e71c200fd04422c69862828d2562bd766e86cb7de2af2e0d5",
    (5, 5): "6a15630c3266b143038d508486df37780fb9673d93ea8077f8f7426ca878f4fd",
    (8, 2): "7a9bb1de352829dd0eb8ac2da75e1d40b29d1c684d53f262fe6c1dbd199e8bc4",
    (9, 3): "9ad136c893267b9dadc087f6888ad92744250ff70f50aa0c02bd6e7fad236456",
}


def test_drawn_triples_match_their_pins():
    rng, got = random.Random(287), {}
    for q, p in DRAW_PINS:
        ctx = FieldCtx(p)
        draws = []
        for _ in range(20):
            triple = modrep.random_exact_triple(ctx, q, rng)
            draws.append([triple.b.sigma, triple.a_basis])
        text = json.dumps(draws, sort_keys=True, separators=(",", ":"))
        got[q, p] = hashlib.sha256(text.encode()).hexdigest()
    assert got == DRAW_PINS


@pytest.mark.parametrize("ctx, q", TRIPLE_FIELDS, ids=lambda x: repr(x))
def test_drawn_triples_hold_python_ints(ctx, q):
    # bench/workloads.py JSON-hashes sigma and the basis of A, which a numpy
    # integer would crash; equality with Python ints does not catch one
    rng = random.Random(q * ctx.q)
    for _ in range(40):
        triple = modrep.random_exact_triple(ctx, q, rng)
        for rows in (triple.b.sigma, triple.a_basis):
            assert type(rows) is list and all(type(row) is list for row in rows)
            assert all(type(x) is int for row in rows for x in row)


def test_exact_triple_keeps_the_row_echelon_rows():
    j3_j1 = CyclicModule(ctx=F3, sigma=[[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                         q=3)
    bases = (
        [[2, 2, 0, 0], [1, 0, 0, 0]],  # unreduced
        [[1, 0, 0, 1], [1, 0, 0, 1], [2, 0, 0, 2]],  # duplicated
        [[4, -3, 0, 7], [0, 6, 0, 5]],  # out of range
        [[0, 0, 0, 0]], [], oracles.identity(4),
    )
    for a_basis in bases:
        ech = linalg.RowEchelon(F3, a_basis)
        triple = modrep.ExactTriple(b=j3_j1, a_basis=a_basis)
        assert triple.a_basis == ech.rows() and triple.a_pivots == ech.pivots()
        # a code array spans the same A, with the same answers
        twin = modrep.ExactTriple(b=j3_j1, a_basis=np.array(a_basis, dtype=np.int64))
        assert twin.a_basis == triple.a_basis and twin.a_pivots == triple.a_pivots
        assert np.array_equal(twin.nil_stack(), triple.nil_stack())
        assert modrep.splits(twin) == modrep.splits(triple)
        assert modrep.invariants_additive(twin) == modrep.invariants_additive(triple)
    # span(e_1 + e_3) is not stable: sigma sends it to e_0 + e_1 + e_3
    unstable = [[0, 1, 0, 1], [3, 4, 0, 4]]
    assert not linalg.RowEchelon(F3, unstable).contains([1, 1, 0, 1])
    with pytest.raises(ValueError, match="subspace is not sigma-stable"):
        modrep.ExactTriple(b=j3_j1, a_basis=unstable)


@pytest.mark.parametrize("ctx, q", TRIPLE_FIELDS, ids=lambda x: repr(x))
def test_stacked_route_matches_one_rank_per_power(ctx, q):
    rng = random.Random(1400 + q * ctx.q)
    for _ in range(40):
        triple = modrep.random_exact_triple(ctx, q, rng)
        sigma_a, sigma_c = reduce_formula_sigmas(triple)
        a_mod, c_mod = triple.a_module(), triple.c_module()
        assert a_mod.sigma == sigma_a and c_mod.sigma == sigma_c
        sequences = [per_power_ranks(mod) for mod in (triple.b, a_mod, c_mod)]
        blocks = [blocks_from_ranks(ranks) for ranks in sequences]
        for mod, expected in zip((triple.b, a_mod, c_mod), blocks):
            assert modrep.block_decomposition(mod) == expected
        assert modrep.splits(triple) == (blocks[0] == blocks[1] + blocks[2])
        fixed = [ranks[0] - ranks[1] for ranks in sequences]
        assert modrep.invariants_additive(triple) == (fixed[1] + fixed[2] == fixed[0])
        # the pair [N_B, diag(N_A, N_C)]
        stack, a = triple.nil_stack(), a_mod.dim
        assert stack.shape == (2, triple.b.dim, triple.b.dim)
        assert stack[0].tolist() == triple.b.nil_codes().tolist()
        assert stack[1, :a, :a].tolist() == a_mod.nil_codes().tolist()
        assert stack[1, a:, a:].tolist() == c_mod.nil_codes().tolist()
        assert not stack[1, :a, a:].any() and not stack[1, a:, :a].any()
        b_ranks, a_ranks, c_ranks = sequences
        assert linalg.ranks(ctx, stack) == [b_ranks[1], a_ranks[1] + c_ranks[1]]
        # every power's row is rank N_B^j against rank N_A^j + rank N_C^j
        for j, row in enumerate(linalg.power_ranks(ctx, stack, q).tolist(), 1):
            at = [ranks[j] if j < len(ranks) else 0 for ranks in sequences]
            assert row == [at[0], at[1] + at[2]]


@pytest.mark.parametrize("ctx, q", TRIPLE_FIELDS, ids=lambda x: repr(x))
def test_zero_and_whole_subspaces_split(ctx, q):
    # A = 0 and A = B: B/A is B in every coordinate, or A's echelon basis is
    # the identity, so the pair's second member is N_B itself
    rng = random.Random(2600 + q * ctx.q)
    for _ in range(20):
        mod = modrep.random_cyclic_module(ctx, q, rng)
        for a_basis in ([], oracles.identity(mod.dim)):
            triple = modrep.ExactTriple(b=mod, a_basis=a_basis)
            assert triple.a_basis == a_basis
            stack = triple.nil_stack()
            assert stack[1].tolist() == stack[0].tolist() == mod.nil_codes().tolist()
            assert modrep.splits(triple) and modrep.invariants_additive(triple)


def test_a_triple_is_ranked_as_one_pair(monkeypatch):
    # splits and invariants_additive eliminate once each, on stacks of
    # pairs: N_B against diag(N_A, N_C), at every power
    leading = []
    flags = linalg._pivot_flags

    def counting(ctx, stack):
        leading.append(len(stack))
        return flags(ctx, stack)

    monkeypatch.setattr(linalg, "_pivot_flags", counting)
    rng, ranked = random.Random(38), 0
    for ctx, q in TRIPLE_FIELDS:
        for _ in range(10):
            triple = modrep.random_exact_triple(ctx, q, rng)
            if not triple.b.nil_codes().any():
                continue  # N_B = 0 has no power to rank
            modrep.splits(triple)
            modrep.invariants_additive(triple)
            assert len(leading) == 2 and leading[1] == 2 and leading[0] % 2 == 0
            leading.clear()
            ranked += 1
    assert ranked >= 35


def test_splits_refuses_a_wrong_order():
    # J_4 over GF(3) has order 9, not 3, whichever stable subspace is taken
    j4 = CyclicModule(ctx=F3, sigma=[[1 if j in (i, i + 1) else 0 for j in range(4)]
                                     for i in range(4)], q=3)
    message = "generator matrix does not have the declared order"
    with pytest.raises(ValueError, match=message):
        per_power_ranks(j4)
    for a_basis in ([], [[1, 0, 0, 0]], [[1, 0, 0, 0], [0, 1, 0, 0]], oracles.identity(4)):
        with pytest.raises(ValueError, match=message):
            modrep.splits(modrep.ExactTriple(b=j4, a_basis=a_basis))


def test_block_decomposition_examples():
    triv = CyclicModule(ctx=F3, sigma=oracles.identity(3), q=3)
    assert modrep.block_decomposition(triv) == Counter({1: 3})
    for p in (2, 3, 5):
        ctx = FieldCtx(p)
        cycle = [[1 if i == (j + 1) % p else 0 for j in range(p)] for i in range(p)]
        reg = CyclicModule(ctx=ctx, sigma=cycle, q=p)
        assert modrep.block_decomposition(reg) == Counter({p: 1})


def test_block_decomposition_of_lattice_window():
    from wildcoh import cohom

    win = cohom.cached_cover(3, 2).window(0, -6)
    sigma = linalg.mat_add(win.ctx, oracles.identity(win.size), win.nil.tolist())
    mod = CyclicModule(ctx=win.ctx, sigma=sigma, q=win.p)
    assert modrep.block_decomposition(mod) == blocks_oracle(sigma, 3, 3)


def test_block_decomposition_refuses_a_wrong_order():
    # J_4 has order 9 over GF(3): N^3 != 0 although N is nilpotent
    j4 = [[1 if j in (i, i + 1) else 0 for j in range(4)] for i in range(4)]
    with pytest.raises(ValueError, match="does not have the declared order"):
        modrep.block_decomposition(CyclicModule(ctx=F3, sigma=j4, q=3))
    assert modrep.block_decomposition(CyclicModule(ctx=F3, sigma=j4, q=9)) == Counter({4: 1})
    # sigma = 2 has order 2, and N = 1 is not nilpotent at all
    with pytest.raises(ValueError, match="does not have the declared order"):
        modrep.block_decomposition(CyclicModule(ctx=F3, sigma=[[2]], q=3))


def test_block_decomposition_conjugation_invariant():
    rng = random.Random(404)
    for q, p in ((3, 3), (4, 2), (9, 3)):
        ctx = FieldCtx(p)
        for _ in range(20):
            mod = modrep.random_cyclic_module(ctx, q, rng)
            dim = mod.dim
            while True:
                g = [[rng.randrange(p) for _ in range(dim)] for _ in range(dim)]
                if oracles.rank(ctx, g) == dim:
                    break
            conj = linalg.mat_mul(
                ctx, linalg.mat_mul(ctx, g, mod.sigma), oracles.inverse(ctx, g)
            )
            twin = CyclicModule(ctx=ctx, sigma=conj, q=q)
            assert modrep.block_decomposition(twin) == modrep.block_decomposition(mod)


def test_splits_and_additive_worked_cases():
    j2 = CyclicModule(ctx=F3, sigma=[[1, 1], [0, 1]], q=3)
    socle = modrep.ExactTriple(b=j2, a_basis=[[1, 0]])
    assert not modrep.splits(socle)
    assert not modrep.invariants_additive(socle)

    direct = modrep.ExactTriple(
        b=CyclicModule(ctx=F3, sigma=oracles.identity(2), q=3), a_basis=[[1, 0]]
    )
    assert modrep.splits(direct)
    assert modrep.invariants_additive(direct)

    degenerate = modrep.ExactTriple(b=j2, a_basis=[])
    assert modrep.splits(degenerate)
    assert modrep.invariants_additive(degenerate)

    zero = CyclicModule(ctx=F3, sigma=[], q=3)
    for a_basis in ([], np.zeros((0, 0), dtype=np.int64)):
        empty = modrep.ExactTriple(b=zero, a_basis=a_basis)
        assert empty.a_codes.shape == (0, 0) and empty.a_basis == [] and empty.a_pivots == []
        assert modrep.splits(empty) and modrep.invariants_additive(empty)
        assert empty.a_module().sigma == empty.c_module().sigma == []


def test_j2_inside_j3():
    # A = image of (sigma - 1) inside a full block: uniserial, non-split
    j3 = CyclicModule(ctx=F3, sigma=[[1, 1, 0], [0, 1, 1], [0, 0, 1]], q=3)
    tri = modrep.ExactTriple(b=j3, a_basis=[[1, 0, 0], [0, 1, 0]])
    assert tri.a_dim == 2 and tri.c_dim == 1
    assert not modrep.invariants_additive(tri)
    assert not modrep.splits(tri)


@pytest.mark.parametrize("a_basis", [
    [[1, 0]], [[0, 0]], [[0, 0, 0, 0]], np.zeros((1, 2), dtype=np.int64), [1, 0, 0], [[]],
], ids=["short", "short-zero", "long-zero", "short-array", "flat", "empty-row"])
def test_exact_triple_refuses_rows_of_another_width(a_basis):
    # a zero row of another width spans nothing, but is still not a vector of B
    j3 = CyclicModule(ctx=F3, sigma=[[1, 1, 0], [0, 1, 1], [0, 0, 1]], q=3)
    shape = re.escape(str(np.shape(a_basis)))
    with pytest.raises(ValueError, match=rf"shape {shape} are not rows of width dim B = 3$"):
        modrep.ExactTriple(b=j3, a_basis=a_basis)


def test_unstable_subspace_rejected():
    j2 = CyclicModule(ctx=F3, sigma=[[1, 1], [0, 1]], q=3)
    with pytest.raises(ValueError):
        modrep.ExactTriple(b=j2, a_basis=[[0, 1]])  # not sigma-stable


def test_splits_implies_additive_on_random_triples():
    rng = random.Random(2024)
    for q, p in ((3, 3), (4, 2), (5, 5), (8, 2), (9, 3)):
        ctx = FieldCtx(p)
        for _ in range(60):
            tri = modrep.random_exact_triple(ctx, q, rng)
            if modrep.splits(tri):
                assert modrep.invariants_additive(tri)


def _assert_no_stable_complement(ctx, sigma, a_basis, dim, a_dim):
    codim = dim - a_dim
    assert codim == 2, "brute force below enumerates 2-dimensional complements"
    vectors = []
    for code in range(1, ctx.q ** dim):
        digits = []
        rest = code
        for _ in range(dim):
            digits.append(rest % ctx.q)
            rest //= ctx.q
        vectors.append(digits)
    for i, j in combinations(range(len(vectors)), 2):
        space = linalg.RowEchelon(ctx, [vectors[i], vectors[j]])
        if space.rank != 2:
            continue
        if linalg.RowEchelon(ctx, a_basis + [vectors[i], vectors[j]]).rank != dim:
            continue
        images = linalg.mat_mul(ctx, [vectors[i], vectors[j]], transpose(sigma))
        if all(space.contains(image) for image in images):
            raise AssertionError("a stable complement exists after all")


def test_additive_does_not_imply_splits_q3():
    # 0 -> J2 -> J3 + J1 -> J2 -> 0 with A spanned by Nb + c and N^2 b:
    # invariants are right-exact (1 + 1 = 2) yet Krull-Schmidt forbids
    # J3 + J1 = J2 + J2, so the sequence cannot split.
    sigma = [[1, 0, 0, 0], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]]
    mod = CyclicModule(ctx=F3, sigma=sigma, q=3)
    tri = modrep.ExactTriple(b=mod, a_basis=[[0, 1, 0, 1], [0, 0, 1, 0]])
    assert modrep.invariants_additive(tri)
    assert not modrep.splits(tri)
    assert modrep.block_decomposition(mod) == Counter({3: 1, 1: 1})
    assert modrep.block_decomposition(tri.a_module()) == Counter({2: 1})
    assert modrep.block_decomposition(tri.c_module()) == Counter({2: 1})
    _assert_no_stable_complement(F3, sigma, tri.a_basis, 4, tri.a_dim)


def test_additive_does_not_imply_splits_q4():
    # same shape one block longer: 0 -> J3 -> J4 + J1 -> J2 -> 0 over k[Z/4]
    sigma = [
        [1, 0, 0, 0, 0],
        [1, 1, 0, 0, 0],
        [0, 1, 1, 0, 0],
        [0, 0, 1, 1, 0],
        [0, 0, 0, 0, 1],
    ]
    mod = CyclicModule(ctx=F2, sigma=sigma, q=4)
    tri = modrep.ExactTriple(b=mod, a_basis=[[0, 1, 0, 0, 1], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]])
    assert modrep.invariants_additive(tri)
    assert not modrep.splits(tri)


def test_periodic_cohomology_trivial_module():
    for p in (2, 3, 5, 7):
        mod = CyclicModule(ctx=FieldCtx(p), sigma=[[1]], q=p)
        assert [modrep.periodic_cohomology(mod, i) for i in (0, 1, 2)] == [1, 1, 1]


def test_periodic_cohomology_free_module():
    for p in (2, 3, 5, 7):
        ctx = FieldCtx(p)
        cycle = [[1 if i == (j + 1) % p else 0 for j in range(p)] for i in range(p)]
        mod = CyclicModule(ctx=ctx, sigma=cycle, q=p)
        assert modrep.periodic_cohomology(mod, 0) == 1
        assert modrep.periodic_cohomology(mod, 1) == 0
        assert modrep.periodic_cohomology(mod, 2) == 0


def explicit_norm(mod):
    # oracle: the norm 1 + sigma + ... + sigma^(q-1) as a sum of powers
    ctx = mod.ctx
    norm = oracles.zeros(mod.dim, mod.dim)
    power = oracles.identity(mod.dim)
    for _ in range(mod.q):
        norm = linalg.mat_add(ctx, norm, power)
        power = linalg.mat_mul(ctx, power, mod.sigma)
    return norm


@pytest.mark.parametrize("order, q", [(2, 2), (3, 3), (2, 4), (5, 5), (2, 8), (3, 9), (4, 4),
                                      (9, 9)])
def test_periodic_cohomology_against_the_explicit_norm(order, q):
    # the prime fields, and GF(4) and GF(9), by their orders
    ctx = {ctx.q: ctx for ctx, _ in TRIPLE_FIELDS}[order]
    rng = random.Random(100 * q + order)
    for _ in range(12):
        mod = modrep.random_cyclic_module(ctx, q, rng)
        dim = mod.dim
        aug = linalg.mat_sub(ctx, mod.sigma, oracles.identity(dim))
        norm = explicit_norm(mod)
        power = oracles.identity(dim)
        for _ in range(q - 1):
            power = linalg.mat_mul(ctx, power, aug)
        assert norm == power
        ker_aug = dim - oracles.rank(ctx, aug)
        want = [ker_aug, dim - oracles.rank(ctx, norm) - oracles.rank(ctx, aug),
                ker_aug - oracles.rank(ctx, norm)]
        assert [modrep.periodic_cohomology(mod, i) for i in (0, 1, 2)] == want


def test_periodic_cohomology_jordan_block():
    mod = CyclicModule(ctx=F3, sigma=[[1, 1], [0, 1]], q=3)
    assert modrep.periodic_cohomology(mod, 0) == 1
    assert modrep.periodic_cohomology(mod, 1) == 1
    # norm = (sigma - 1)^2 vanishes on a size-2 block, so H^2 = ker(sigma-1)
    assert modrep.periodic_cohomology(mod, 2) == 1
    with pytest.raises(ValueError):
        modrep.periodic_cohomology(mod, 3)


def test_periodic_cohomology_of_the_zero_module():
    zero = CyclicModule(ctx=F3, sigma=[], q=3)
    assert modrep.block_decomposition(zero) == Counter()
    assert [modrep.periodic_cohomology(zero, i) for i in (0, 1, 2)] == [0, 0, 0]


def test_cyclic_module_validation():
    with pytest.raises(ValueError):
        modrep.block_decomposition(CyclicModule(ctx=F3, sigma=[[2]], q=3))  # order 2, not 3
    with pytest.raises(ValueError, match="not a positive power of 3"):
        CyclicModule(ctx=F3, sigma=[[1]], q=6)  # refused at construction
    with pytest.raises(ValueError, match="not a positive power of 3"):
        CyclicModule(ctx=F3, sigma=[[1]], q=1)
    # N is nilpotent for J_4, but N^3 != 0: sigma has order 9, not 3
    j4 = [[1 if j - i in (0, 1) else 0 for j in range(4)] for i in range(4)]
    with pytest.raises(ValueError, match="does not have the declared order"):
        modrep.block_decomposition(CyclicModule(ctx=F3, sigma=j4, q=3))
    modrep.block_decomposition(CyclicModule(ctx=F3, sigma=j4, q=9))
    win = cohom.cached_cover(3, 2).window(0, -6)
    sigma = linalg.mat_add(win.ctx, oracles.identity(win.size), win.nil.tolist())
    modrep.block_decomposition(CyclicModule(ctx=win.ctx, sigma=sigma, q=win.p))


def test_cyclic_module_keeps_its_generator_once_as_read_only_codes():
    for ctx in (F3, FieldCtx(32771)):  # int64 codes and Python-int codes
        for bad in ([[1, 0], [1]], [[1, 0, 0], [0, 1, 0]], [[[1]]], [1], [[]]):
            with pytest.raises(ValueError):
                CyclicModule(ctx=ctx, sigma=bad, q=ctx.p)
    empty = CyclicModule(ctx=F3, sigma=[], q=3)
    assert empty.codes.shape == (0, 0) and empty.sigma == [] and empty.dim == 0
    big, given = FieldCtx(32771), np.array([[1, -1], [0, 1]])
    cases = ((F3, given, [[1, 2], [0, 1]]), (FieldCtx(2, (1, 1, 1)), [[1, 3], [0, 1]], None),
             (big, given, [[1, big.p - 1], [0, 1]]))
    for ctx, sigma, want in cases:
        mod = CyclicModule(ctx=ctx, sigma=sigma, q=ctx.p)
        with pytest.raises(ValueError, match="read-only"):
            mod.codes[0, 0] = 0
        # the list view holds Python ints, as the benchmark's JSON digest needs
        assert mod.sigma == mod.codes.tolist() == (want or sigma)
        assert all(type(x) is int for row in mod.sigma for x in row)
    # the module keeps a copy: changing the array it was given changes nothing
    given[0, 0] = 2
    assert mod.sigma == [[1, big.p - 1], [0, 1]]
    # out-of-range extension-field codes are refused, not read as other codes
    with pytest.raises(ValueError, match=r"GF\(4\) codes lie in 0\.\.3"):
        CyclicModule(ctx=FieldCtx(2, (1, 1, 1)), sigma=[[1, -1], [0, 1]], q=2)


def test_group_table_structure():
    z6 = modrep.GroupTable(list(range(6)), lambda a, b: (a + b) % 6)
    assert z6.identity == 0
    assert z6.inverse(2) == 4
    assert z6.element_order(1) == 6
    assert z6.element_order(3) == 2
    reps = z6.right_coset_representatives([0, 3])
    assert len(reps) == 3
    assert 4 in z6.elements


def _compose_s3(g, h):
    return tuple(g[h[i]] for i in range(3))  # apply h, then g


def _brute_right_cosets(elements, compose, subgroup):
    seen, reps = set(), []
    for g in elements:
        coset = frozenset(compose(h, g) for h in subgroup)
        if coset not in seen:
            seen.add(coset)
            reps.append(g)
    return reps


_ORDER24 = char2ex.group_table()
_S3 = modrep.GroupTable(list(permutations(range(3))), _compose_s3)


@pytest.mark.parametrize("table, compose, subgroup", [
    # Hg != gH for H = {id, (0 1)}, so left cosets would give other representatives
    (_S3, _compose_s3, [(0, 1, 2), (1, 0, 2)]),
    # a Sylow 3-subgroup, which is not normal in the order-24 group
    (_ORDER24, char2ex.compose,
     [char2ex.IDENTITY, char2ex.AutTriple(2, 0, 0), char2ex.AutTriple(3, 0, 0)]),
], ids=["S3", "order 24"])
def test_group_table_matches_brute_force(table, compose, subgroup):
    elements = table.elements
    n = len(elements)
    assert table.cayley.shape == (n, n) and not table.cayley.flags.writeable
    for i, g in enumerate(elements):
        for j, h in enumerate(elements):
            assert elements[table.cayley[i, j]] == compose(g, h)
    e = table.identity
    assert all(compose(e, g) == g == compose(g, e) for g in elements)
    for g in elements:
        assert compose(g, table.inverse(g)) == e == compose(table.inverse(g), g)
        power, k = g, 1
        while power != e:
            power, k = compose(power, g), k + 1
        assert table.element_order(g) == k
    reps = table.right_coset_representatives(subgroup)
    assert reps == _brute_right_cosets(elements, compose, subgroup)
    if table is _S3:  # left cosets gH pick other representatives here
        assert reps != _brute_right_cosets(elements, lambda a, b: compose(b, a), subgroup)


@pytest.mark.parametrize("elements, law, message", [
    (range(6), lambda a, b: (a + b) % 7, "is not a group element"),
    (range(6), lambda a, b: (a - b) % 6, "not associative"),
    (range(6), lambda a, b: 0, "no identity element found"),
    (range(6), lambda a, b: b, "no identity element found"),  # every element is a left identity
    (range(6), max, "element 1 has no inverse"),
    ([0, 1, 0], lambda a, b: (a + b) % 2, "duplicate group elements"),
], ids=["leaves-the-list", "non-associative", "constant", "right-projection", "max", "duplicates"])
def test_group_table_rejects_bad_laws(elements, law, message):
    with pytest.raises(ValueError, match=message):
        modrep.GroupTable(elements, law)


def _z6_averaging_setup():
    z6 = modrep.GroupTable(list(range(6)), lambda a, b: (a + b) % 6)
    reg = z6.regular_representation()
    n = z6.order
    double = {}
    for g, m in reg.items():
        blown = oracles.zeros(2 * n, 2 * n)
        for i in range(n):
            for j in range(n):
                blown[i][j] = m[i][j]
                blown[n + i][n + j] = m[i][j]
        double[g] = blown
    projection = [[0] * n + row for row in oracles.identity(n)]
    return z6, dict(ctx=F2, on_total=double, on_quotient=reg, projection=projection)


def _p_only_section(n, p_sub):
    psi = oracles.zeros(n, n)
    for h in p_sub:
        psi[h][h] = 1
    return [row[:] for row in psi] + [row[:] for row in oracles.identity(n)]


def test_average_section_fixes_a_p_only_section():
    z6, action = _z6_averaging_setup()
    section = _p_only_section(z6.order, [0, 3])
    averaged = modrep.average_section(z6, [0, 3], section, **action)
    # output equivariance and the section property are verified inside;
    # the averaged perturbation must differ from the non-equivariant input
    assert averaged != section


def test_average_section_takes_lists_or_code_arrays():
    z6, action = _z6_averaging_setup()
    section = _p_only_section(z6.order, [0, 3])
    as_lists = modrep.average_section(z6, [0, 3], section, **action)
    as_arrays = modrep.average_section(
        z6, [0, 3], F2.array(section), ctx=F2,
        on_total={g: F2.array(m) for g, m in action["on_total"].items()},
        on_quotient={g: F2.array(m) for g, m in action["on_quotient"].items()},
        projection=F2.array(action["projection"]),
    )
    assert as_arrays == as_lists
    assert {type(x) for row in as_arrays for x in row} == {int}


def _add_mod_6(a, b):
    return (a + b) % 6


@pytest.mark.parametrize("table, compose", [
    (modrep.GroupTable(list(range(6)), _add_mod_6), _add_mod_6),
    (char2ex.group_table(), char2ex.compose),
], ids=["Z/6", "order 24"])
def test_regular_representation_is_a_permutation_homomorphism(table, compose):
    reg = table.regular_representation()
    n = table.order
    for m in reg.values():
        arr = np.array(m)
        assert arr.shape == (n, n) and {type(x) for row in m for x in row} == {int}
        assert set(arr.ravel().tolist()) == {0, 1}
        assert (arr.sum(axis=0) == 1).all() and (arr.sum(axis=1) == 1).all()
    # integer products of permutation matrices are exact; the order-24
    # group is not abelian, so a transposed convention would fail here
    for g in table.elements:
        for h in table.elements:
            assert (np.array(reg[g]) @ np.array(reg[h])).tolist() == reg[compose(g, h)]
    assert len({str(m) for m in reg.values()}) == n  # faithful


def test_average_section_identity_case():
    z6, action = _z6_averaging_setup()
    n = z6.order
    honest = oracles.zeros(n, n) + oracles.identity(n)
    assert modrep.average_section(z6, z6.elements, honest, **action) == honest


def test_average_section_error_cases():
    z6, action = _z6_averaging_setup()
    n = z6.order
    honest = oracles.zeros(n, n) + oracles.identity(n)
    with pytest.raises(ValueError):
        modrep.average_section(z6, [0, 2, 4], honest, **action)  # index 2 = 0 in GF(2)
    broken = [row[:] for row in honest]
    broken[0][0] = 1  # perturb so it is no longer P-equivariant
    with pytest.raises(ValueError):
        modrep.average_section(z6, [0, 3], broken, **action)
    not_section = [[0] * n for _ in range(2 * n)]
    with pytest.raises(ValueError):
        modrep.average_section(z6, [0, 3], not_section, **action)
    # Z/2 swaps the coordinates of k^2 and fixes k, but P = [1 0] does not
    # commute with the swap: s is a section, trivially equivariant for the
    # trivial subgroup, and its average would not be a section
    z2 = modrep.GroupTable([0, 1], lambda a, b: (a + b) % 2)
    with pytest.raises(ValueError, match="^projection is not G-equivariant$"):
        modrep.average_section(z2, [0], [[1], [0]], ctx=F3,
                               on_total={0: oracles.identity(2), 1: [[0, 1], [1, 0]]},
                               on_quotient={0: [[1]], 1: [[1]]}, projection=[[1, 0]])


def test_average_section_refuses_a_subset_that_is_not_a_subgroup():
    z6, action = _z6_averaging_setup()
    n = z6.order
    honest = oracles.zeros(n, n) + oracles.identity(n)
    for subset, message in (
        ([0, 1], "subgroup is empty or not closed under the group law"),  # 1 + 1 = 2 is missing
        ([], "subgroup is empty or not closed under the group law"),
        ([0, 7], "7 is not a group element"),
        ([0, 3, 3], "subgroup elements are not distinct"),  # not index 2, nor "not invertible"
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            modrep.average_section(z6, subset, honest, **action)


def test_random_triples_are_valid(monkeypatch):
    # each draw runs echelon once per conjugation attempt, on [g^T | (g sigma)^T],
    # and then once on the Krylov stack that spans A
    calls, echelon = [], linalg.echelon

    def counted(ctx, codes):
        reduced, pivots = echelon(ctx, codes)
        calls.append((codes.shape, pivots))
        return reduced, pivots

    monkeypatch.setattr(linalg, "echelon", counted)
    rng, retried = random.Random(7), 0
    for q, p in ((3, 3), (8, 2)):
        ctx = FieldCtx(p)
        for _ in range(25):
            calls.clear()
            tri = modrep.random_exact_triple(ctx, q, rng)
            dim = tri.b.dim
            *attempts, (span_shape, span_pivots) = calls
            assert [shape for shape, _ in attempts] == [(dim, 2 * dim)] * len(attempts)
            invertible = [pivots[:dim] == list(range(dim)) for _, pivots in attempts]
            assert invertible == [False] * (len(attempts) - 1) + [True]
            assert span_shape[1] == dim and span_pivots == tri.a_pivots
            retried += len(attempts) > 1
            assert tri.a_dim + tri.c_dim == tri.b.dim
            modrep.block_decomposition(tri.a_module())
            modrep.block_decomposition(tri.c_module())
    assert retried  # a singular g was drawn again at least once


@pytest.mark.parametrize("q, p", [(11, 11), (13, 13), (16, 2), (25, 5), (27, 3)])
def test_groups_above_the_dimension_bound_draw_valid_triples(q, p):
    # a Jordan block may be as large as q, but no block drawn exceeds MAX_DIM
    ctx = FieldCtx(p)
    for seed in range(200):
        tri = modrep.random_exact_triple(ctx, q, random.Random(seed))
        assert 1 <= tri.b.dim <= modrep.MAX_DIM
        assert tri.a_dim + tri.c_dim == tri.b.dim
        for mod in (tri.b, tri.a_module(), tri.c_module()):
            modrep.block_decomposition(mod)


def test_an_echelon_basis_is_kept_once():
    # A is kept once, as read-only codes copied out of the reduced stack;
    # a_basis is a fresh list of Python ints on every read
    rng = random.Random(11)
    drawn = [modrep.random_exact_triple(ctx, q, rng) for ctx, q in TRIPLE_FIELDS for _ in range(4)]
    # Python-int codes: J_3 over GF(32771), spanned by a code array
    big = FieldCtx(32771)
    j3 = CyclicModule(ctx=big, sigma=[[1, 1, 0], [0, 1, 1], [0, 0, 1]], q=32771)
    wide = modrep.ExactTriple(b=j3, a_basis=big.array([[5, 32770, 0], [3, 2, 0], [8, 1, 0]]))
    assert wide.a_basis == [[1, 0, 0], [0, 1, 0]] and wide.a_codes.dtype == object
    for tri in drawn + [wide]:
        codes = tri.a_codes
        assert not codes.flags.writeable and codes.base is None and codes.dtype == tri.b.ctx.dtype
        view = tri.a_basis
        assert view == codes.tolist() and view is not tri.a_basis
        assert all(type(x) is int for row in view for x in row)
        if view:
            view[0][0] += 1
            assert tri.a_basis == codes.tolist() != view
        twin = modrep.ExactTriple(b=tri.b, a_basis=tri.a_basis)
        assert np.array_equal(twin.a_codes, codes) and twin.a_pivots == tri.a_pivots
    # any other spanning set gets its own echelon rows, and the same answers
    j3 = CyclicModule(ctx=F3, sigma=[[1, 1, 0], [0, 1, 1], [0, 0, 1]], q=3)
    echelon = modrep.ExactTriple(b=j3, a_basis=[[1, 0, 0], [0, 1, 0]])
    spanned = modrep.ExactTriple(b=j3, a_basis=[[1, 1, 0], [2, 0, 0], [1, 0, 0]])
    assert spanned.a_basis == echelon.a_basis
    assert spanned.nil_stack().tolist() == echelon.nil_stack().tolist()
