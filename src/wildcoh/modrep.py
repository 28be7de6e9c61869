"""Modules over cyclic p-groups: block types, cohomology, splitting, averaging.

Modules over k[Z/q] (q a power of the characteristic) decompose into
Jordan blocks J_i = k[x]/(x-1)^i; the block multiset is read off the rank
sequence of powers of sigma - 1, and the periodic cohomology of the
module is read off the block multiset.  An exact sequence of such modules
splits iff the block multiset of the middle term is the disjoint union of
the outer ones.  Right-exactness of the fixed-vector functor is a
necessary consequence of splitting but, despite a claim in circulation,
not a sufficient one (tests/test_modrep.py exhibits non-split sequences
with right-exact invariants); both criteria are implemented so the gap
is testable.  The Maschke averaging construction upgrades a section that
is equivariant for a p-Sylow subgroup to one equivariant for the whole
group, whenever the index is invertible.  The layer needs only the field
and linear algebra: nothing here knows of covers or lattices.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Hashable, Sequence

import numpy as np

from wildcoh import linalg
from wildcoh.gf import FieldCtx

MAX_DIM = 10  # dimension bound of the random modules drawn for criterion 8


class CyclicModule:
    """Finite-dimensional module over a cyclic group of order q = p^e.

    The generator is kept once, as the read-only code array ``codes``;
    ``sigma`` is its list view.  It may be given as a list of rows or as
    an array; ``[]`` is the 0 x 0 module.
    """

    def __init__(self, ctx: FieldCtx, sigma, q: int):
        e = q
        while e > 1 and e % ctx.p == 0:
            e //= ctx.p
        if q < 2 or e != 1:
            raise ValueError(f"order {q} is not a positive power of {ctx.p}")
        codes = ctx.array(sigma)
        if codes.shape == (0,):
            codes = codes.reshape(0, 0)
        if codes.ndim != 2 or codes.shape[0] != codes.shape[1]:
            raise ValueError(f"generator of shape {codes.shape} is not square")
        codes.flags.writeable = False
        self.ctx, self.codes, self.q = ctx, codes, q

    @property
    def sigma(self) -> list[list[int]]:
        return self.codes.tolist()

    @property
    def dim(self) -> int:
        return len(self.codes)

    def nil_codes(self) -> np.ndarray:
        """N = sigma - 1 as a code array, formed on each call: modules are kept in bulk."""
        return self.ctx.sub_array(self.codes, np.eye(self.dim, dtype=self.ctx.dtype))


def block_decomposition(mod: CyclicModule) -> Counter:
    """Multiset of Jordan block sizes of the generator (unipotent, order q)."""
    powers = linalg.power_ranks(mod.ctx, mod.nil_codes()[None], mod.q)
    ranks = [mod.dim, *powers[:, 0].tolist(), 0]
    blocks: Counter = Counter()
    # blocks of size >= j count r_(j-1) - r_j, so blocks of size j count
    # r_(j-1) - 2 r_j + r_(j+1); the sizes sum to r_0 = dim
    for j in range(1, len(ranks) - 1):
        count = ranks[j - 1] - 2 * ranks[j] + ranks[j + 1]
        if count:
            blocks[j] = count
    return blocks


def periodic_cohomology(mod: CyclicModule, i: int) -> int:
    """dim H^i for i in {0, 1, 2}, read off the Jordan blocks of the generator.

    H^0 = ker N has one line per block.  In characteristic p the norm
    1 + sigma + ... + sigma^(q-1) is N^(q-1), since q is a power of p: it
    vanishes on a block of size below q and has rank 1 on a free block J_q.
    So H^1 = ker norm / im N and H^2 = ker N / im norm both count the
    blocks of size below q.
    """
    if i not in (0, 1, 2):
        raise ValueError("periodicity makes only i in {0, 1, 2} meaningful")
    blocks = block_decomposition(mod)
    return sum(count for size, count in blocks.items() if i == 0 or size < mod.q)


class ExactTriple:
    """Stable subspace A of B with quotient C = B/A, all over one cyclic group.

    A is given by spanning rows, as a list of rows or a code array, and
    reduced once: the triple keeps A's reduced row echelon basis as the
    read-only code array ``a_codes``, with its pivot columns, and
    ``a_basis`` is the list view of those rows.  ``[]`` spans A = 0.
    """

    def __init__(self, b: CyclicModule, a_basis):
        ctx, dim = b.ctx, b.dim
        spanning = ctx.array(a_basis)
        if spanning.shape == (0,):
            spanning = spanning.reshape(0, dim)
        if spanning.ndim != 2 or spanning.shape[1] != dim:
            raise ValueError(f"spanning rows of shape {spanning.shape} are not rows of "
                             f"width dim B = {dim}")
        reduced, pivots = linalg.echelon(ctx, spanning)
        # a copy, so that the spanning stack is not kept alive by a view
        rows = reduced[: len(pivots)].copy()
        # the rows are reduced, so S = sigma(rows) lies in A iff S = S[:, pivots] rows
        images = ctx.matmul(rows, b.codes.T)
        if ctx.sub_array(images, ctx.matmul(images[:, pivots], rows)).any():
            raise ValueError("subspace is not sigma-stable")
        rows.flags.writeable = False
        self.b, self.a_codes, self.a_pivots = b, rows, pivots

    @property
    def a_basis(self) -> list[list[int]]:
        return self.a_codes.tolist()

    @property
    def a_dim(self) -> int:
        return len(self.a_codes)

    @property
    def c_dim(self) -> int:
        return self.b.dim - self.a_dim

    def _induced(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The matrices that a map x of B keeping A stable induces on A, in
        the echelon basis of A, and on B/A, in the non-pivot coordinates.

        Both are linear in x and send 1 to 1, so they serve sigma and N alike.
        """
        rows, pivots, ctx = self.a_codes, self.a_pivots, self.b.ctx
        # pivots first: the reduced rows are [1 | R_F], with R_F on the free columns
        order = pivots + [c for c in range(self.b.dim) if c not in pivots]
        x, rows, a = x.take(order, 0).take(order, 1), rows.take(order, 1), len(pivots)
        # A's vectors have their coordinates at the pivots: x_PP + x_PF R_F^T;
        # reducing x's free columns against A leaves x_FF - R_F^T x_PF
        on_a = ctx.matmul(x[:a], rows.T)
        return on_a, ctx.sub_array(x[a:, a:], ctx.matmul(rows[:, a:].T, x[:a, a:]))

    def _module(self, sigma: np.ndarray) -> CyclicModule:
        return CyclicModule(ctx=self.b.ctx, sigma=sigma, q=self.b.q)

    def a_module(self) -> CyclicModule:
        """Restriction of sigma to A, in the echelon basis of A."""
        return self._module(self._induced(self.b.codes)[0])

    def c_module(self) -> CyclicModule:
        """Induced action on B/A, in the basis of non-pivot coordinates."""
        return self._module(self._induced(self.b.codes)[1])

    def nil_stack(self) -> np.ndarray:
        """The (2, dim B, dim B) code array [N_B, diag(N_A, N_C)]: rank
        diag(X, Y)^j = rank X^j + rank Y^j, so the pair ranks A and C together."""
        nil = self.b.nil_codes()
        on_a, on_c = self._induced(nil)
        stack = np.zeros((2, *nil.shape), dtype=nil.dtype)
        stack[0], a = nil, len(on_a)
        stack[1, :a, :a], stack[1, a:, a:] = on_a, on_c
        return stack


def splits(triple: ExactTriple) -> bool:
    """True iff blocks(B) equals blocks(A) + blocks(C) as multisets.

    Block counts are second differences of the rank sequence rank N^j and
    determine it, so this holds iff rank N_B^j = rank N_A^j + rank N_C^j
    for every j: the two columns of the pair's power ranks agree.
    """
    ranks = linalg.power_ranks(triple.b.ctx, triple.nil_stack(), triple.b.q)
    return bool((ranks[:, 0] == ranks[:, 1]).all())


def invariants_additive(triple: ExactTriple) -> bool:
    """True iff dim A^G + dim C^G = dim B^G (right-exactness of invariants).

    dim X^G = dim X - rank N_X and dim B = dim A + dim C, so this holds iff
    rank N_B = rank N_A + rank N_C: the pair's two ranks agree.
    """
    rank_b, rank_ac = linalg.ranks(triple.b.ctx, triple.nil_stack())
    return rank_ac == rank_b


class GroupTable:
    """Finite group given by an element list and a composition function.

    compose is evaluated once per ordered pair, into the Cayley table
    cayley[i, j] = index of elements[i] o elements[j]; every query reads it.
    """

    def __init__(self, elements: Sequence[Hashable], compose: Callable):
        self.elements = list(elements)
        self._index = {g: i for i, g in enumerate(self.elements)}
        n = len(self.elements)
        if len(self._index) != n:
            raise ValueError("duplicate group elements")
        cayley = np.array([[self._index.get(compose(g, h), -1) for h in self.elements]
                           for g in self.elements], dtype=np.int64).reshape(n, n)
        if (cayley < 0).any():
            i, j = np.argwhere(cayley < 0)[0]
            raise ValueError(f"{self.elements[i]} o {self.elements[j]} is not a group element")
        # (g_i g_j) g_k against g_i (g_j g_k), for every triple at once
        if not np.array_equal(cayley[cayley], cayley[:, cayley]):
            raise ValueError("composition is not associative")
        # a two-sided identity and right inverses make an associative law a group
        at = np.arange(n)
        found = np.flatnonzero((cayley == at).all(axis=1) & (cayley.T == at).all(axis=1))
        if not len(found):
            raise ValueError("no identity element found")
        self.identity = self.elements[found[0]]
        hits = cayley == found[0]
        if not hits.any(axis=1).all():
            raise ValueError(f"element {self.elements[hits.any(axis=1).argmin()]} has no inverse")
        self._inverse = hits.argmax(axis=1)
        cayley.flags.writeable = False
        self.cayley = cayley

    @property
    def order(self) -> int:
        return len(self.elements)

    def inverse(self, g):
        return self.elements[self._inverse[self._index[g]]]

    def subgroup_index(self, subgroup: Sequence[Hashable]) -> int:
        """The index [G:H] of H, given as distinct group elements closed
        under the law; ValueError if they are not."""
        at = [self._index.get(h) for h in subgroup]
        if None in at:
            raise ValueError(f"{subgroup[at.index(None)]} is not a group element")
        if len(set(at)) != len(at):
            raise ValueError("subgroup elements are not distinct")
        # a nonempty finite subset closed under the law is a subgroup
        if not at or not np.isin(self.cayley[np.ix_(at, at)], at).all():
            raise ValueError("subgroup is empty or not closed under the group law")
        return self.order // len(at)

    def right_coset_representatives(self, subgroup: Sequence[Hashable]) -> list:
        """One representative per right coset Hg, in element-list order."""
        # column g of the subgroup's rows is Hg; sorted, it keys the coset
        cosets = np.sort(self.cayley[[self._index[h] for h in subgroup]], axis=0)
        _, first = np.unique(cosets, axis=1, return_index=True)
        return [self.elements[i] for i in sorted(first)]

    def element_order(self, g) -> int:
        at = acc = self._index[g]
        k = 1
        while acc != self._index[self.identity]:
            acc, k = self.cayley[acc, at], k + 1
        return k

    def regular_representation(self) -> dict:
        """Left-regular permutation matrices, a faithful homomorphism."""
        # column j of g's matrix is the unit vector of g o h_j
        units = np.eye(self.order, dtype=np.int64)
        return {g: units[:, row].tolist() for g, row in zip(self.elements, self.cayley)}


def average_section(
    group: GroupTable,
    p_subgroup: Sequence[Hashable],
    section: list[list[int]] | np.ndarray,
    *,
    ctx: FieldCtx,
    on_total: dict,
    on_quotient: dict,
    projection: list[list[int]] | np.ndarray,
) -> list[list[int]]:
    """Average a P-equivariant section into a G-equivariant one.

    Implements s~(x) = (1/m) sum g_i^{-1} s(g_i x) over right-coset
    representatives; requires P to be a subgroup of G, given as distinct
    elements, and the index m = [G:P] to be invertible in the field.  It
    verifies that the projection is G-equivariant, the input hypothesis
    and the output, and raises ValueError on bad input.  on_total and
    on_quotient map each group element to its action on the total and
    the quotient space.  The matrices may be lists of rows or code
    arrays; the result is a list.
    """
    m = group.subgroup_index(p_subgroup)
    if m % ctx.p == 0:
        raise ValueError(f"index {m} is not invertible in characteristic {ctx.p}")
    projection, section = ctx.array(projection), ctx.array(section)
    ident_c = np.eye(len(projection), dtype=ctx.dtype)
    on_total = {g: ctx.array(a) for g, a in on_total.items()}
    on_quotient = {g: ctx.array(a) for g, a in on_quotient.items()}

    def intertwines(f, source, target, elements) -> bool:
        # target[g] f = f source[g] for every g, as one stacked product per side
        return np.array_equal(ctx.matmul(np.stack([target[g] for g in elements]), f),
                              ctx.matmul(f, np.stack([source[g] for g in elements])))

    if not intertwines(projection, on_total, on_quotient, group.elements):
        raise ValueError("projection is not G-equivariant")
    if not np.array_equal(ctx.matmul(projection, section), ident_c):
        raise ValueError("input is not a section of the projection")
    if not intertwines(section, on_quotient, on_total, p_subgroup):
        raise ValueError("input section is not P-equivariant")
    reps = group.right_coset_representatives(p_subgroup)
    # the sum of on_total[g^-1] s on_quotient[g] as one product: the
    # on_total[g^-1] side by side times the s on_quotient[g] stacked
    terms = ctx.matmul(section, np.stack([on_quotient[g] for g in reps]))
    total = ctx.matmul(np.hstack([on_total[group.inverse(g)] for g in reps]),
                       terms.reshape(-1, terms.shape[-1]))
    averaged = ctx.mul_array(total, ctx.inv(ctx.embed(m)))
    if not np.array_equal(ctx.matmul(projection, averaged), ident_c):
        raise AssertionError("averaged map is no longer a section")
    if not intertwines(averaged, on_quotient, on_total, group.elements):
        raise AssertionError("averaged section is not G-equivariant")
    return averaged.tolist()


def random_cyclic_module(ctx, q: int, rng) -> CyclicModule:
    """Random module: a random block shape conjugated by a random invertible map."""
    blocks = []
    dim = 0
    while not blocks or (dim < MAX_DIM and rng.random() < 0.6):
        size = rng.randint(1, min(q, MAX_DIM))
        if dim + size > MAX_DIM:
            break
        blocks.append(size)
        dim += size
    # Jordan blocks: ones on the diagonal and on the superdiagonal but at block ends
    sigma = np.eye(dim, dtype=ctx.dtype) + np.eye(dim, k=1, dtype=ctx.dtype)
    ends = np.cumsum(blocks)[:-1]
    sigma[ends - 1, ends] = 0
    while True:
        g = ctx.array([[rng.randrange(ctx.q) for _ in range(dim)] for _ in range(dim)])
        # [g^T | (g sigma)^T] reduces to [1 | (g sigma g^-1)^T] iff g is invertible
        red, pivots = linalg.echelon(ctx, np.hstack([g.T, ctx.matmul(g, sigma).T]))
        if pivots[:dim] == list(range(dim)):
            break  # else g is singular: draw again
    return CyclicModule(ctx=ctx, sigma=red[:, dim:].T, q=q)


def random_exact_triple(ctx, q: int, rng) -> ExactTriple:
    """Random stable-subspace triple: generators closed under sigma.

    The sigma-closure of the generators G is the row space of
    [G; G sigma^T; ...; G (sigma^T)^(q-1)], since sigma^q = 1; the triple
    reduces that stack once, and its reduced rows, which are unique, are
    the basis of A.
    """
    mod = random_cyclic_module(ctx, q, rng)
    dim = mod.dim
    r = rng.randint(0, dim)
    gens = [[rng.randrange(ctx.q) for _ in range(dim)] for _ in range(r)]
    krylov = [ctx.array(gens).reshape(r, dim)]
    for _ in range(q - 1):
        krylov.append(ctx.matmul(krylov[-1], mod.codes.T))
    return ExactTriple(b=mod, a_basis=np.concatenate(krylov))
