"""Local group cohomology of a wild Z/p-cover: closed forms and the lattice route.

For the local modules of a wild cover, H^1 is realized as the cokernel
of the invariants of the full Laurent field mapping into the invariants
of a quotient lattice: inside a window [lo, a) this is ker(sigma - 1)
modulo the span of the truncated powers of the invariant parameter x.
Every lattice dimension is recomputed with the window widened by p and
must agree, so precision failures surface as errors instead of wrong
numbers.  Only the widened window is built: the window itself is its
trailing block.  The cohomology of explicit matrix modules lives in
modrep; the shared cover cache also keeps dim H^1(Z/p, k) of the
trivial module per p, read through modrep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from wildcoh import ascover, linalg, modrep
from wildcoh.ascover import LatticeWindow, LocalCover
from wildcoh.gf import FieldCtx


class StabilizationError(RuntimeError):
    """A lattice dimension changed when the window was widened."""


class CertificateError(RuntimeError):
    """A basis or vanishing certificate failed to verify."""


def h1_closed_form(p: int, n: int, a: int) -> int:
    """n - floor((a-1)/p) + floor((a-1-n)/p); floors toward minus infinity."""
    ascover.check_jump(p, n)
    return n - (a - 1) // p + (a - 1 - n) // p


def d_image_closed_form(p: int, n: int) -> int:
    """floor((n+1)(p-1)/p) - 1 - floor((n-1)/p)."""
    ascover.check_jump(p, n)
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


def _widened_window(cov: LocalCover, a: int, lo: int) -> LatticeWindow:
    """The window [lo, a), its x-image checked, and so that of every trailing
    block: a subset of the rows, vanishing below the block."""
    win = cov.window(a, lo)
    _x_image(win)
    return win


def _class_ranks(win: LatticeWindow, lo: int) -> tuple[np.ndarray, np.ndarray]:
    """The ranks of N's class blocks on [lo, a) and on the whole window, from one elimination.

    Entry r of both is the block of the exponents win.lo + r mod n.  Each
    block of class_stack is strictly lower triangular, so flipped on both
    axes it is strictly upper triangular: the rank of its first k columns
    is the rank of its trailing k x k block, the top k exponents of its
    class.  Flipped, a block's padding comes first, and [lo, a) leaves out
    the ceil((lo - win.lo - r) / n) lowest exponents of block r.  The
    flipped first column and last row are zero in every block, so they
    are left out of the elimination, and the prefix counts shift by one.
    Each cleared pivot row stays in the elimination and counts nothing more.
    """
    stack = win.class_stack()
    # flipped on both axes, less each block's row 0 and last column, which are zero
    prefix = linalg.prefix_ranks(win.ctx, stack[:, :0:-1, -2::-1])
    blocks = np.arange(win.n)
    cut = stack.shape[2] - 1 + (blocks - (lo - win.lo)) // win.n
    return prefix[blocks, cut], prefix[:, -1]


def _lattice_models(cov: LocalCover, a: int,
                    w: int) -> tuple[CohomologyClassSet, CohomologyClassSet]:
    """H^1 in the windows of widths w and w + p below t^a, from the wider one alone."""
    wide = _widened_window(cov, a, a - w - cov.p)
    narrow = wide.trailing(a - w)
    # dim ker N, summed over the residue blocks of N; the x-image is an
    # independent subspace of ker N
    return tuple(CohomologyClassSet(window=win, dim=win.size - int(ranks.sum()) - len(win.x_image))
                 for win, ranks in zip((narrow, wide), _class_ranks(wide, a - w)))


def _widened(kind: str, noun: str, count: int, wide: int, w: int, p: int) -> None:
    """Raise StabilizationError, naming the kind of window and the noun of its
    count, unless the count at width w agrees with the one at w + p."""
    if count != wide:
        raise StabilizationError(f"{kind} window did not stabilize: {noun} {count} "
                                 f"at W={w}, {wide} at W={w + p}")


def h1_lattice(cov: LocalCover, a: int, w: int | None = None) -> CohomologyClassSet:
    """H^1 of the lattice t^a B as ker(sigma-1)/im(invariant field), in a window.

    The window has the least size n + p + 1 unless w asks for more (only
    bench/tests passes w, through a wrapper).  The dimension is recomputed
    with the window widened by p; disagreement raises StabilizationError.
    Only the widened window is built: the window itself is its trailing
    block, and one elimination of the widened class blocks ranks both.
    """
    least = ascover.least_window(cov.p, cov.n)
    if w is None:
        w = least
    elif w < least:
        raise ValueError(f"window {w} too small; need at least n + p + 1 = {least}")
    model, wide = _lattice_models(cov, a, w)
    _widened("h1", "dim", model.dim, wide.dim, w, cov.p)
    return model


@dataclass
class BasisCertificate:
    """Certified monomial basis and vanishing classes for one lattice H^1."""

    monomial_exponents: list[int]
    vanishing: list[tuple[int, int]]  # (exponent, x-power exhibiting the relation)
    dim: int


def h1_basis_certificate(cov: LocalCover, a: int) -> BasisCertificate:
    """Certify that {[t^i] : a-n <= i <= a-1, p does not divide i} is a basis.

    Also certifies [t^i] = 0 for p | i in the same range by exhibiting the
    truncation of x^(i/p) that agrees with t^i through degree a-1.
    """
    classes = h1_lattice(cov, a)
    win = classes.window
    p, n, lo = cov.p, cov.n, win.lo
    exponents = [i for i in range(a - n, a) if i % p != 0]
    # N t^i lies at t^(i+nk), k >= 1, at or above t^a (h1_lattice's class
    # guard), so every candidate t^i is in ker N
    at = [i - lo for i in exponents]
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
    return BasisCertificate(monomial_exponents=exponents, vanishing=vanishing, dim=classes.dim)


def _check_d_commutes(src: LatticeWindow, tgt: LatticeWindow) -> None:
    """Check _d_rank_shares' identity N_tgt D = S N_src entry by entry,
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


def _d_rank_shares(src: LatticeWindow, tgt: LatticeWindow, src_ranks: np.ndarray) -> np.ndarray:
    """The d-rank of one window pair, split into the share of each exponent class mod n.

    src_ranks holds the rank of N_src on each class.  The x-images of
    both windows and the identity N_tgt D = S N_src below are taken as
    checked.

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
      (alpha - k) binom(alpha, k) for alpha = -e/n.  _check_d_commutes
      checks the identity entry by entry, which implies the kernel
      condition, so N_src's class blocks are ranked alone.
    """
    ctx, p, n = src.ctx, src.p, src.n
    js = tgt.x_powers
    x_cols = tgt.x_image.T  # the target's H^1 is read modulo its x-image
    exps = np.arange(src.lo, src.a)
    image = exps + n - tgt.lo  # the target row of t^(e+n), one run of consecutive rows
    unit = exps % p != 0
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


def _d_rank_classes(cov: LocalCover, w: int) -> tuple[np.ndarray, np.ndarray]:
    """The d-rank's shares by exponent class mod n at widths w and w + p.

    One source and one target window of width w + p are built; the
    narrow pair is their trailing blocks, and one elimination of the
    source's class blocks ranks N_src for both pairs.  N_tgt D = S N_src
    is checked on the widened pair alone: the narrow one is its sub-block
    but for entries above N_src's diagonal, which the class guard refuses.
    """
    p, n = cov.p, cov.n
    src = _widened_window(cov, 0, -w - p)
    tgt = _widened_window(cov, n + 1, -1 - w - p)
    # _class_ranks' block r holds the exponents src.lo + r mod n; reorder by class
    by_class = (np.arange(n) - src.lo) % n
    narrow_ranks, wide_ranks = (ranks[by_class] for ranks in _class_ranks(src, -w))
    _check_d_commutes(src, tgt)
    return (_d_rank_shares(src.trailing(-w), tgt.trailing(-1 - w), narrow_ranks),
            _d_rank_shares(src, tgt, wide_ranks))


def d_image_rank(cov: LocalCover) -> int:
    """Rank of the differential H^1(G, B) -> H^1(G, B dt) by linear algebra.

    B dt is modeled as the a = n+1 lattice via h dt -> t^(n+1) h; the map
    sends h in ker N to t^(n+1) h', read modulo the target's x-image.
    The window has the least size n + p + 1, re-run widened by p as in
    h1_lattice, from one source and one target window of the widened
    size.  The rank is computed once per cover, with every check, and
    lives on the cover: later calls read it back, a raise stores
    nothing, and a rebuilt cover computes it again.
    """
    if cov._d_rank is None:
        w = ascover.least_window(cov.p, cov.n)
        rank, wide = (int(shares.sum()) for shares in _d_rank_classes(cov, w))
        _widened("d-image", "rank", rank, wide, w, cov.p)
        cov._d_rank = rank
    return cov._d_rank


@lru_cache(maxsize=64)
def _cover(p: int, n: int) -> LocalCover:
    return ascover.build(p, n, ascover.recommended_precision(p, n))


@lru_cache(maxsize=64)
def trivial_module_h1(p: int) -> int:
    """dim H^1(Z/p, k) of the trivial one-dimensional module, read off its
    Jordan type by modrep rather than assumed, once per p."""
    return modrep.periodic_cohomology(modrep.CyclicModule(ctx=FieldCtx(p), sigma=[[1]], q=p), 1)


def cached_cover(p: int, n: int) -> LocalCover:
    """Shared cover at the recommended precision for grid sweeps.

    Bounded, because the pairs (p, n) come from sweep's ranges; a
    verify-all run needs 27 covers.  ``cache_info`` counts the covers,
    and ``cache_clear`` drops them together with the per-p
    ``trivial_module_h1``, so a cleared cache starts cold.
    """
    return _cover(p, n)


def _clear_shared() -> None:
    _cover.cache_clear()
    trivial_module_h1.cache_clear()


cached_cover.cache_info = _cover.cache_info
cached_cover.cache_clear = _clear_shared
