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


@dataclass
class CyclicModule:
    """Finite-dimensional module over a cyclic group of order q = p^e."""

    ctx: FieldCtx
    sigma: list[list[int]]
    q: int

    def __post_init__(self):
        p, q = self.ctx.p, self.q
        while q > 1 and q % p == 0:
            q //= p
        if self.q < 2 or q != 1:
            raise ValueError(f"order {self.q} is not a positive power of {p}")

    @property
    def dim(self) -> int:
        return len(self.sigma)

    def nil_codes(self) -> np.ndarray:
        """N = sigma - 1 as a code array, formed on each call: modules are kept in bulk."""
        ctx, dim = self.ctx, self.dim
        sigma = np.array(self.sigma, dtype=ctx.dtype).reshape(dim, dim)
        return ctx.sub_array(sigma, np.eye(dim, dtype=ctx.dtype))

    @property
    def nil(self) -> list[list[int]]:
        """N = sigma - 1 as lists of codes."""
        return self.nil_codes().tolist()

    def validate(self) -> None:
        """Check sigma^q = 1, i.e. N^q = 0, since q is a power of p."""
        if any(map(any, linalg.mat_pow(self.ctx, self.nil, self.q))):
            raise ValueError("generator matrix does not have the declared order")


def periodic_cohomology(mod: CyclicModule, i: int) -> int:
    """dim H^i for i in {0, 1, 2} via the periodic complex of a cyclic group.

    In characteristic p the norm 1 + sigma + ... + sigma^(q-1) is
    (sigma - 1)^(q-1), since q is a power of p.
    """
    if i not in (0, 1, 2):
        raise ValueError("periodicity makes only i in {0, 1, 2} meaningful")
    mod.validate()
    ctx = mod.ctx
    dim = mod.dim
    if dim == 0:
        return 0
    nil = mod.nil
    if i == 0:
        return dim - linalg.rank(ctx, nil)
    norm = linalg.mat_pow(ctx, nil, mod.q - 1)
    if i == 1:
        return (dim - linalg.rank(ctx, norm)) - linalg.rank(ctx, nil)
    return (dim - linalg.rank(ctx, nil)) - linalg.rank(ctx, norm)


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
    k_image: list[list[int]]
    dim: int


def _x_image(win: LatticeWindow) -> list[list[int]]:
    """Truncations of the powers x^j with p*j in the window, checked fixed and independent."""
    js = range(-(-win.lo // win.p), (win.a - 1) // win.p + 1)  # lo <= p*j < a
    k_image = win.x_truncations(js)
    rows = win.ctx.array(k_image)
    # row i of K N^T is N applied to x^(js[i]): all of them in one product
    moved = win.ctx.matmul(rows, win.nil.T).any(axis=1)
    for j, bad in zip(js, moved):
        if bad:
            raise ascover.NormalFormError(f"x^{j} truncation is not sigma-fixed")
    # x^j leads at t^(pj), so the rows have distinct nonzero leads: independent
    leads = (rows != 0).argmax(axis=1)
    if not rows.any(axis=1).all() or len(set(leads.tolist())) < len(rows):
        raise CertificateError("x-power truncations are not independent")
    return k_image


def _lattice_model(cov: LocalCover, a: int, w: int) -> CohomologyClassSet:
    win = cov.window(a, a - w)
    fixed = len(win.kernel())
    k_image = _x_image(win)
    # the x-image is an independent subspace of ker N
    return CohomologyClassSet(window=win, k_image=k_image, dim=fixed - len(k_image))


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
    p, n = cov.p, cov.n
    exponents = [i for i in range(a - n, a) if i % p != 0]
    monomials = [win.unit_vector(i) for i in exponents]
    for i, vec in zip(exponents, monomials):
        if not win.is_fixed(vec):
            raise CertificateError(f"[t^{i}] is not sigma-fixed in the window")
    k_image = classes.k_image
    if linalg.rank(win.ctx, k_image + monomials) - len(k_image) != len(exponents):
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
            if win.x_truncation(j) != win.unit_vector(i):
                raise CertificateError(
                    f"x^{j} does not reduce [t^{i}]: truncations differ below t^{a}"
                )
            vanishing.append((i, j))
    return BasisCertificate(
        a=a, monomial_exponents=exponents, vanishing=vanishing, dim=classes.dim
    )


def _d_rank_once(cov: LocalCover, w: int) -> int:
    win1 = cov.window(0, -w)
    fixed = win1.kernel()
    _x_image(win1)  # for its checks only: the source x-image lies in ker N
    # the target H^1 is read modulo the x-image only: it needs no kernel
    win2 = cov.window(cov.n + 1, -1 - w)
    k_image = _x_image(win2)
    # h -> t^(n+1) h' sends t^e to e t^(e+n): every kernel vector in one product
    ctx, shift = cov.ctx, win1.lo + cov.n - win2.lo
    image = np.zeros((len(fixed), win2.size), dtype=ctx.dtype)
    image[:, shift : shift + win1.size] = ctx.mul_array(
        ctx.array(fixed), ctx.array(range(win1.lo, win1.a))
    )
    if ctx.matmul(image, win2.nil.T).any():
        raise ascover.NormalFormError("differential image is not sigma-fixed (precision bug)")
    # d(x^j) = -j x^(j+n) lies in the target x-image, so d(ker N) mod it is the rank
    return linalg.rank(ctx, k_image + image.tolist()) - len(k_image)


def d_image_rank(cov: LocalCover, w: int | None = None) -> int:
    """Rank of the differential H^1(G, B) -> H^1(G, B dt) by linear algebra.

    B dt is modeled as the a = n+1 lattice via h dt -> t^(n+1) h; the map
    sends h in ker N to t^(n+1) h', read modulo the target's x-image.
    Stabilization against the widened window is enforced as in h1_lattice.
    """
    w = _window_size(cov, w)
    first = _d_rank_once(cov, w)
    second = _d_rank_once(cov, w + cov.p)
    if first != second:
        raise StabilizationError(
            f"d-image window did not stabilize: rank {first} at W={w}, "
            f"{second} at W={w + cov.p}"
        )
    return first


@lru_cache(maxsize=64)
def cached_cover(p: int, n: int, w: int | None = None) -> LocalCover:
    """Shared cover at the recommended precision for grid sweeps.

    Bounded, because w comes from the user; a verify-all run needs 27 covers.
    """
    return ascover.build(p, n, ascover.recommended_precision(p, n, w))
