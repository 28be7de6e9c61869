"""Group cohomology of Z/p-modules, two ways.

For an explicit matrix module the periodic description of cyclic-group
cohomology (H^1 = ker N / im(sigma - 1), H^2 = ker(sigma - 1) / im N)
reduces everything to exact rank computations.  For the local modules of
a wild cover, H^1 is realized as the cokernel of the invariants of the
full Laurent field mapping into the invariants of a quotient lattice:
inside a window [lo, a) this is ker(sigma - 1) modulo the span of the
truncated powers of the invariant parameter x.  Every lattice dimension
is recomputed with the window widened by p and must agree, so precision
failures surface as errors instead of wrong numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from wildcoh import ascover, linalg
from wildcoh.ascover import LatticeWindow, LocalCover
from wildcoh.gf import FieldCtx


class StabilizationError(RuntimeError):
    """A lattice dimension changed when the window was widened."""


class CertificateError(RuntimeError):
    """A basis or vanishing certificate failed to verify."""


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


def periodic_cohomology(mod: CyclicModule, i: int) -> int:
    """dim H^i for i in {0, 1, 2} via the periodic complex of a cyclic group.

    In characteristic p the norm 1 + sigma + ... + sigma^(q-1) is
    (sigma - 1)^(q-1), since q is a power of p.
    """
    if i not in (0, 1, 2):
        raise ValueError("periodicity makes only i in {0, 1, 2} meaningful")
    # row j - 1 is rank N^j, and the rows stop at the first N^j = 0
    ranks = linalg.power_ranks(mod.ctx, mod.nil_codes()[None], mod.q)[:, 0].tolist()
    rank_nil = ranks[0]
    rank_norm = ranks[mod.q - 2] if mod.q - 2 < len(ranks) else 0
    if i == 0:
        return mod.dim - rank_nil
    if i == 1:
        return (mod.dim - rank_norm) - rank_nil
    return (mod.dim - rank_nil) - rank_norm


def h1_closed_form(p: int, n: int, a: int) -> int:
    """n - floor((a-1)/p) + floor((a-1-n)/p); floors toward minus infinity."""
    if gcd(n, p) != 1:
        raise ValueError(f"jump {n} must be coprime to {p}")
    return n - (a - 1) // p + (a - 1 - n) // p


def d_image_closed_form(p: int, n: int) -> int:
    """floor((n+1)(p-1)/p) - 1 - floor((n-1)/p)."""
    if gcd(n, p) != 1:
        raise ValueError(f"jump {n} must be coprime to {p}")
    return ((n + 1) * (p - 1)) // p - 1 - (n - 1) // p


@dataclass
class CohomologyClassSet:
    """H^1 inside one window: ker N modulo the x-image, read as a count."""

    window: LatticeWindow
    dim: int


def _x_image(win: LatticeWindow) -> np.ndarray:
    """The window's x-image, checked sigma-fixed and independent."""
    rows = win.x_image
    # row i of X N^T is N applied to x^(x_powers[i]): all of them in one product
    moved = win.ctx.matmul(rows, win.nil.T).any(axis=1)
    for j, bad in zip(win.x_powers, moved):
        if bad:
            raise ascover.NormalFormError(f"x^{j} truncation is not sigma-fixed")
    # x^j leads at t^(pj), so the rows have distinct nonzero leads: independent
    leads = (rows != 0).argmax(axis=1)
    if not rows.any(axis=1).all() or len(set(leads.tolist())) < len(rows):
        raise CertificateError("x-power truncations are not independent")
    return rows


def _lattice_model(cov: LocalCover, a: int, w: int) -> CohomologyClassSet:
    win = cov.window(a, a - w)
    # dim ker N, summed over the residue blocks of N, all ranked in one pass
    fixed = win.size - sum(linalg.ranks(win.ctx, win.class_stack()))
    # the x-image is an independent subspace of ker N
    return CohomologyClassSet(window=win, dim=fixed - len(_x_image(win)))


def _window_size(cov: LocalCover, w: int | None) -> int:
    """The window size to use: w, or by default the least allowed, n + p + 1."""
    least = cov.n + cov.p + 1
    if w is None:
        return least
    if w < least:
        raise ValueError(f"window {w} too small; need at least n + p + 1 = {least}")
    return w


def h1_lattice(cov: LocalCover, a: int, w: int | None = None) -> CohomologyClassSet:
    """H^1 of the lattice t^a B as ker(sigma-1)/im(invariant field), in a window.

    The dimension is recomputed with the window widened by p; disagreement
    raises StabilizationError rather than returning an unreliable value.
    """
    w = _window_size(cov, w)
    model = _lattice_model(cov, a, w)
    wide = _lattice_model(cov, a, w + cov.p)
    if model.dim != wide.dim:
        raise StabilizationError(
            f"h1 window did not stabilize: dim {model.dim} at W={w}, "
            f"{wide.dim} at W={w + cov.p}"
        )
    return model


@dataclass
class BasisCertificate:
    """Certified monomial basis and vanishing classes for one lattice H^1."""

    a: int
    monomial_exponents: list[int]
    vanishing: list[tuple[int, int]]  # (exponent, x-power exhibiting the relation)
    dim: int


def h1_basis_certificate(cov: LocalCover, a: int, w: int | None = None) -> BasisCertificate:
    """Certify that {[t^i] : a-n <= i <= a-1, p does not divide i} is a basis.

    Also certifies [t^i] = 0 for p | i in the same range by exhibiting the
    truncation of x^(i/p) that agrees with t^i through degree a-1.
    """
    classes = h1_lattice(cov, a, w)
    win = classes.window
    p, n, lo = cov.p, cov.n, win.lo
    exponents = [i for i in range(a - n, a) if i % p != 0]
    at = [i - lo for i in exponents]
    # column i - lo of N is N applied to t^i
    moved = win.nil[:, at].any(axis=0)
    for i, bad in zip(exponents, moved):
        if bad:
            raise CertificateError(f"[t^{i}] is not sigma-fixed in the window")
    units = np.eye(win.size, dtype=win.ctx.dtype)
    x_image = win.x_image
    stack = np.vstack([x_image, units[at]])
    if linalg.ranks(win.ctx, stack[None])[0] - len(x_image) != len(exponents):
        raise CertificateError("candidate monomial classes are not independent")
    if len(exponents) != classes.dim:
        raise CertificateError(
            f"monomial classes span a space of dimension {len(exponents)}, "
            f"but H^1 has dimension {classes.dim}"
        )
    vanishing = []
    for i in range(a - n, a):
        if i % p == 0:
            j = i // p
            if not np.array_equal(x_image[j - win.x_powers.start], units[i - lo]):
                raise CertificateError(
                    f"x^{j} does not reduce [t^{i}]: truncations differ below t^{a}"
                )
            vanishing.append((i, j))
    return BasisCertificate(
        a=a, monomial_exponents=exponents, vanishing=vanishing, dim=classes.dim
    )


def _check_d_commutes(src: LatticeWindow, tgt: LatticeWindow) -> None:
    """Check _d_rank_classes' identity N_tgt D = S N_src entry by entry,
    or raise NormalFormError.

    Both sides are formed by the field's kernels in its narrow codes, so
    the check holds no int64 matrix of the window's size.
    """
    ctx, narrow = src.ctx, src.ctx.narrow_dtype
    factors = (np.arange(src.lo, src.a) % src.p).astype(narrow)  # e, in the prime field
    image = slice(src.lo + src.n - tgt.lo, src.a + src.n - tgt.lo)  # the rows and columns t^(e+n)
    # column e of N_tgt D is e times the column of t^(e+n) in N_tgt; S N_src
    # is f times the row t^f of N_src in the row t^(f+n), and zero elsewhere
    moved = tgt.nil[:, image].astype(narrow)
    outside = np.concatenate((moved[: image.start], moved[image.stop :]))
    if (ctx.mul_sub(moved[image], factors, src.nil.astype(narrow), factors[:, None]).any()
            or ctx.mul_array(outside, factors).any()):
        raise ascover.NormalFormError("differential image is not sigma-fixed (precision bug)")


def _d_rank_classes(cov: LocalCover, w: int) -> np.ndarray:
    """The d-rank of one window pass, split into the share of each exponent class mod n.

    d sends t^e to e t^(e+n); let D be its matrix and X the target
    x-image.  The rank of d(ker N_src) modulo X is rank A - rank N_src - #X
    for A = [[N_src, 0], [D, -X^T]]: ker A holds the u in ker N_src with
    Du in X, one v each.  N, d and the x-powers keep an exponent's class
    mod n, so this holds class by class.
    - D's entry e is a unit iff p does not divide e.  Pivoting on the
      units leaves the Schur complement A' on the other columns, and
      rank A = #units + rank A'.
    - The differential image is sigma-fixed, N_tgt D ker N_src = 0,
      because d commutes with sigma: N_tgt D = S N_src, where S sends the
      row t^f of N_src, times f, to the row t^(f+n), and every other
      target row is zero.  Entrywise this is alpha binom(alpha - 1, k) =
      (alpha - k) binom(alpha, k) for alpha = -e/n.  The identity is
      checked entry by entry, which implies the kernel condition, so
      N_src's class blocks are ranked alone.
    """
    ctx, p, n = cov.ctx, cov.p, cov.n
    src = cov.window(0, -w)
    _x_image(src)  # for its checks only: the source x-image lies in ker N
    tgt = cov.window(n + 1, -1 - w)  # its H^1 is read modulo its x-image
    js = tgt.x_powers
    x_cols = _x_image(tgt).T
    exps = np.arange(src.lo, src.a)
    image = exps + n - tgt.lo  # the target row of t^(e+n), one run of consecutive rows
    unit = exps % p != 0
    _check_d_commutes(src, tgt)
    # class_stack's block r holds the exponents lo + r mod n
    src_ranks = np.array(linalg.ranks(ctx, src.class_stack()))[(np.arange(n) - src.lo) % n]
    # A' = [[N_src on the p | e columns, N_src E^-1 X^T], [0, X^T off the unit
    # rows]], up to the sign of rows.  Its rows are the t^e of the source,
    # then the t^f of the target, from a row whose class and block position
    # leave the source's blocks whole.  Its columns are the t^(pi) with p | e,
    # then from a column in x^j's class the x^j, which lead at t^(pj).
    tgt_row = n * -(-src.size // n) + (tgt.lo - src.lo) % n
    first_i = -(-src.lo // p)
    p_cols = -first_i  # the t^(pi) with lo <= pi < 0
    x_col = p_cols + js.start % n
    # E^-1 X^T is a few columns, so N_src times it is formed with no scaled copy of N_src
    scaled = np.zeros((src.size, len(js)), dtype=ctx.dtype)
    scaled[unit] = ctx.mul_array(x_cols[image[unit]], ctx.inv_array(exps[unit])[:, None])
    schur = np.zeros((tgt_row + tgt.size, x_col + len(js)), dtype=ctx.dtype)
    schur[: src.size, :p_cols] = src.nil[:, ~unit]
    schur[: src.size, x_col:] = ctx.matmul(src.nil, scaled)
    schur[tgt_row:, x_col:] = x_cols
    schur[tgt_row + image[unit], x_col:] = 0
    schur_ranks = linalg.ranks(ctx, ascover.class_blocks(schur, n, src.lo, p * first_i, p))
    units = np.bincount(exps[unit] % n, minlength=n)
    x_powers = np.bincount(p * np.array(js, dtype=np.int64) % n, minlength=n)
    return units + schur_ranks - src_ranks - x_powers


def d_image_rank(cov: LocalCover, w: int | None = None) -> int:
    """Rank of the differential H^1(G, B) -> H^1(G, B dt) by linear algebra.

    B dt is modeled as the a = n+1 lattice via h dt -> t^(n+1) h; the map
    sends h in ker N to t^(n+1) h', read modulo the target's x-image.
    Stabilization against the widened window is enforced as in h1_lattice.
    The rank is computed once per (cover, window), with every check, and
    lives on the cover: later calls read it back, a raise stores nothing,
    and a rebuilt cover computes it again.
    """
    w = _window_size(cov, w)
    rank = cov._d_ranks.get(w)
    if rank is None:
        first = int(_d_rank_classes(cov, w).sum())
        second = int(_d_rank_classes(cov, w + cov.p).sum())
        if first != second:
            raise StabilizationError(
                f"d-image window did not stabilize: rank {first} at W={w}, "
                f"{second} at W={w + cov.p}"
            )
        rank = cov._d_ranks[w] = first
    return rank


@lru_cache(maxsize=64)
def cached_cover(p: int, n: int, w: int | None = None) -> LocalCover:
    """Shared cover at the recommended precision for grid sweeps.

    Bounded, because w comes from the user; a verify-all run needs 27 covers.
    """
    return ascover.build(p, n, ascover.recommended_precision(p, n, w))
