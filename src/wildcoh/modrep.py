"""Modular representation utilities for cyclic p-groups and their covers.

Modules over k[Z/q] (q a power of the characteristic) decompose into
Jordan blocks J_i = k[x]/(x-1)^i; the block multiset is read off the rank
sequence of powers of sigma - 1.  An exact sequence of such modules
splits iff the block multiset of the middle term is the disjoint union of
the outer ones.  Right-exactness of the fixed-vector functor is a
necessary consequence of splitting but, despite a claim in circulation,
not a sufficient one (tests/test_modrep.py exhibits non-split sequences
with right-exact invariants); both criteria are implemented so the gap
is testable.  The Maschke averaging construction upgrades a section that
is equivariant for a p-Sylow subgroup to one equivariant for the whole
group, whenever the index is invertible.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

from wildcoh import linalg
from wildcoh.cohom import CyclicModule
from wildcoh.gf import FieldCtx

MAX_DIM = 10  # dimension bound of the random modules drawn for criterion 8


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
        ctx, dim = self.b.ctx, self.b.dim
        rows, pivots = self.a_codes, self.a_pivots
        free = sorted(set(range(dim)).difference(pivots))
        # the rows are reduced: a vector of A has its coordinates at the pivots
        on_a = ctx.matmul(rows, x.T)[:, pivots].T
        # reducing column f of x against A leaves x[free, f] - rows[:, free]^T x[pivots, f]
        reduced = ctx.matmul(rows[:, free].T, x[pivots][:, free])
        return on_a, ctx.sub_array(x[free][:, free], reduced)

    def _module(self, sigma: np.ndarray) -> CyclicModule:
        return CyclicModule(ctx=self.b.ctx, sigma=sigma, q=self.b.q)

    def a_module(self) -> CyclicModule:
        """Restriction of sigma to A, in the echelon basis of A."""
        return self._module(self._induced(self.b.codes)[0])

    def c_module(self) -> CyclicModule:
        """Induced action on B/A, in the basis of non-pivot coordinates."""
        return self._module(self._induced(self.b.codes)[1])

    def nil_stack(self) -> np.ndarray:
        """N on B, A and C, zero-padded to one (3, dim B, dim B) code array."""
        nil = self.b.nil_codes()
        stack = np.zeros((3, *nil.shape), dtype=nil.dtype)
        stack[0] = nil
        for out, part in zip(stack[1:], self._induced(nil)):
            out[: len(part), : len(part)] = part
        return stack


def splits(triple: ExactTriple) -> bool:
    """True iff blocks(B) equals blocks(A) + blocks(C) as multisets.

    Block counts are second differences of the rank sequence rank N^j and
    determine it, so this holds iff rank N_B^j = rank N_A^j + rank N_C^j
    for every j.
    """
    ranks = linalg.power_ranks(triple.b.ctx, triple.nil_stack(), triple.b.q)
    return bool((ranks[:, 0] == ranks[:, 1] + ranks[:, 2]).all())


def invariants_additive(triple: ExactTriple) -> bool:
    """True iff dim A^G + dim C^G = dim B^G (right-exactness of invariants).

    dim X^G = dim X - rank N_X and dim B = dim A + dim C, so this holds iff
    rank N_B = rank N_A + rank N_C.
    """
    rank_b, rank_a, rank_c = linalg.ranks(triple.b.ctx, triple.nil_stack())
    return rank_a + rank_c == rank_b


class GroupTable:
    """Finite group given by an element list and a composition function.

    compose is evaluated once per ordered pair, into the Cayley table
    cayley[i, j] = index of elements[i] o elements[j]; every query reads it.
    """

    def __init__(self, elements: Sequence[Hashable], compose: Callable):
        self.elements = list(elements)
        self.compose = compose
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

    def __contains__(self, g) -> bool:
        return g in self._index

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


@dataclass
class SectionAction:
    """Linear data for averaging: actions on the total and quotient spaces."""

    ctx: FieldCtx
    on_total: Mapping[Hashable, list[list[int]] | np.ndarray]
    on_quotient: Mapping[Hashable, list[list[int]] | np.ndarray]
    projection: list[list[int]] | np.ndarray


def average_section(
    group: GroupTable,
    p_subgroup: Sequence[Hashable],
    section: list[list[int]] | np.ndarray,
    action: SectionAction,
) -> list[list[int]]:
    """Average a P-equivariant section into a G-equivariant one.

    Implements s~(x) = (1/m) sum g_i^{-1} s(g_i x) over right-coset
    representatives; requires P to be a subgroup of G, given as distinct
    elements, and the index m = [G:P] to be invertible in the field, and
    verifies both the input hypothesis and the output.  The
    matrices may be lists of rows or code arrays; the result is a list.
    """
    ctx = action.ctx
    m = group.subgroup_index(p_subgroup)
    if m % ctx.p == 0:
        raise ValueError(f"index {m} is not invertible in characteristic {ctx.p}")
    projection, section = ctx.array(action.projection), ctx.array(section)
    ident_c = np.eye(len(projection), dtype=ctx.dtype)
    on_total = {g: ctx.array(a) for g, a in action.on_total.items()}
    on_quotient = {g: ctx.array(a) for g, a in action.on_quotient.items()}

    def equivariant(s, elements) -> bool:
        # g s = s g for every g, as one stacked product per side
        return np.array_equal(ctx.matmul(np.stack([on_total[g] for g in elements]), s),
                              ctx.matmul(s, np.stack([on_quotient[g] for g in elements])))

    if not np.array_equal(ctx.matmul(projection, section), ident_c):
        raise ValueError("input is not a section of the projection")
    if not equivariant(section, p_subgroup):
        raise ValueError("input section is not P-equivariant")
    reps = group.right_coset_representatives(p_subgroup)
    if len(reps) != m:
        raise AssertionError("coset count does not match the index")
    # the sum of on_total[g^-1] s on_quotient[g] as one product: the
    # on_total[g^-1] side by side times the s on_quotient[g] stacked
    terms = ctx.matmul(section, np.stack([on_quotient[g] for g in reps]))
    total = ctx.matmul(np.hstack([on_total[group.inverse(g)] for g in reps]),
                       terms.reshape(-1, terms.shape[-1]))
    averaged = ctx.mul_array(total, ctx.inv(ctx.embed(m)))
    if not np.array_equal(ctx.matmul(projection, averaged), ident_c):
        raise AssertionError("averaged map is no longer a section")
    if not equivariant(averaged, group.elements):
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
