"""Local normal form of a totally ramified Z/p-point with ramification jump n.

The cover is presented by an order-p automorphism of k[[t]],

    sigma(t) = t / (1 + t^n)^(1/n),

together with the invariant parameter x = t^p / (1 - t^(n(p-1)))^(1/n),
which satisfies t^(-np) - t^(-n) = x^(-n) exactly.  Both series use the
principal root branch (constant term 1), so a cover is canonical for
(p, n, prec).  Windows of monomials t^i carry the matrix of N = sigma - 1
modulo t^a, the finite model every cohomology computation runs on.  Window
entries are binomial coefficients read from the closed forms of sigma(t)^e
and x^j; the series sigma_t and x_t are the independent route to the same
digits, each built by ``LaurentSeries.nth_root`` (one square and multiply on
a p-adically reduced exponent) the first time something reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import gcd
from typing import Sequence

import numpy as np

from wildcoh import linalg
from wildcoh.gf import FieldCtx, is_prime
from wildcoh.laurent import (InsufficientPrecisionError, LaurentSeries, power_digits, spread,
                             support_step)

_GUARD = 8


class NormalFormError(RuntimeError):
    """A defining identity of the local normal form failed to verify."""


@lru_cache(maxsize=64)
def _factorials(p: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """i! and 1/i! mod p for 0 <= i < p, as code arrays."""
    fact = [1] * p
    for i in range(1, p):
        fact[i] = fact[i - 1] * i % p
    inv_fact = [pow(f, -1, p) for f in fact]
    return np.array(fact, dtype=dtype), np.array(inv_fact, dtype=dtype)


@lru_cache(maxsize=64)
def _class_layout(size: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Where N = sigma - 1 may be nonzero in a window of ``size`` exponents.

    N maps t^i into the span of t^(i + nk), k >= 1, so it links only
    exponents of one residue class mod n.  Returns the flat positions
    row * size + col of those entries in N, and col * depth + k, their
    places in the (size, depth) binomial table, depth = (size - 1) // n + 1.
    Every window is filled at these positions alone, and each has row =
    col + nk with n, k >= 1, so every window matrix is strictly lower
    triangular by construction: sigma = 1 + N is unipotent.
    """
    ks = np.arange(1, (size - 1) // n + 1)
    cols, at = np.nonzero(np.arange(size)[:, None] + n * ks < size)
    rows = cols + n * ks[at]
    return rows * size + cols, cols * (len(ks) + 1) + ks[at]


def _x_powers(p: int, lo: int, a: int) -> range:
    """The j with lo <= p*j < a: the powers of x a window [lo, a) holds."""
    return range(-(-lo // p), (a - 1) // p + 1)


def class_blocks(mat: np.ndarray, n: int, row_first: int, col_first: int,
                 col_step: int = 1) -> np.ndarray:
    """The blocks of mat by residue class mod n, as one zero-padded (n, r, c) array.

    Row k carries the exponent row_first + k and column k the exponent
    col_first + col_step * k, col_step prime to n.  Block r keeps the rows
    and the columns whose exponent is r mod n, in their order; every block
    is padded with zeros to ceil(rows / n) by ceil(cols / n).  N, the
    differential t^e -> e t^(e+n) and the x-powers all keep an exponent's
    class, so an entry that links two classes is refused, never dropped.
    One padded copy (none when mat is already whole blocks), reshaped so
    that a class is one slot mod n of each axis, and one gather.
    """
    rows, cols = mat.shape
    br, bc = -(-rows // n), -(-cols // n)
    padded = mat
    if mat.shape != (br * n, bc * n):
        padded = np.zeros((br * n, bc * n), dtype=mat.dtype)
        padded[:rows, :cols] = mat
    classes = np.arange(n)
    row_slots = (classes - row_first) % n
    col_slots = (classes - col_first) * pow(col_step, -1, n) % n
    blocks = padded.reshape(br, n, bc, n)[:, row_slots, :, col_slots]
    if np.count_nonzero(blocks) != np.count_nonzero(mat):
        raise NormalFormError("lattice matrix links two exponent classes mod n")
    return blocks


def check_jump(p: int, n: int) -> None:
    """Refuse a pair (p, n) that is no wild jump: p prime, n >= 1 and prime to p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1 or gcd(n, p) != 1:
        raise ValueError(f"jump {n} must be positive and coprime to {p}")


def least_window(p: int, n: int) -> int:
    """The least window size any lattice computation for (p, n) may use, n + p + 1."""
    return n + p + 1


def recommended_precision(p: int, n: int) -> int:
    """Precision making every window/cohomology run for (p, n) safe.

    Covers the least window n + p + 1 widened by p (the stabilization
    re-run), the shifted-window construction used for the differential
    map, and the cover's own floor n p + p + 1, which also bounds the
    x-expansion identity's p + n(p-1) + 2, with guard digits on top.
    """
    return max(n * p + p + 1, least_window(p, n) + 2 * p + n + 2) + _GUARD


def build(p: int, n: int, prec: int) -> "LocalCover":
    """Construct the canonical local cover for jump n in characteristic p."""
    return LocalCover(p=p, n=n, prec=prec)


@dataclass
class LocalCover:
    """Normal-form data of one wild point; immutable after build, series built on first read."""

    p: int
    n: int
    prec: int
    # FieldCtx(p) and caches derived from the fields above; never passed in, never compared
    ctx: FieldCtx = field(init=False, compare=False)
    _sigma_blocks: dict[int, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    # cohom.d_image_rank, stored once the widened window agrees
    _d_rank: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_jump(self.p, self.n)
        if self.prec <= self.n * self.p + self.p:
            raise ValueError(f"precision {self.prec} too small; need > {self.n * self.p + self.p}")
        self.ctx = FieldCtx(self.p)

    @cached_property
    def sigma_t(self) -> LaurentSeries:
        """sigma(t) = t / (1 + t^n)^(1/n) mod t^(prec+1), by nth_root(-n)."""
        one, t_n = (LaurentSeries.monomial(self.ctx, e, self.prec) for e in (0, self.n))
        return (one + t_n).nth_root(-self.n).shift(1)

    @cached_property
    def x_t(self) -> LaurentSeries:
        """x = t^p / (1 - t^(n(p-1)))^(1/n) mod t^(prec+p), by nth_root(-n)."""
        one, t_big = (LaurentSeries.monomial(self.ctx, e, self.prec)
                      for e in (0, self.n * (self.p - 1)))
        return (one - t_big).nth_root(-self.n).shift(self.p)

    def binomials(self, exps: Sequence[int], count: int) -> np.ndarray:
        """B[r, k] = binom(-exps[r]/n, k) mod p for 0 <= k < count, by Lucas's theorem.

        -e/n is a p-adic integer; only its base-p digits below p^L >= count
        matter.  Each digit position contributes the digit binomial
        a! / (b! (a-b)!), read from factorial tables of length p (zero when
        b > a), so the whole table costs L array products.  Products stay
        below p^3, inside int64 for every p with int64 codes.
        """
        p, dtype = self.p, self.ctx.dtype
        fact, inv_fact = _factorials(p, dtype)
        mod = p
        while mod < count:
            mod *= p
        inv = pow(self.n, -1, mod)
        alpha = np.array([-e * inv % mod for e in exps], dtype=np.int64)[:, None]
        k = np.arange(count, dtype=np.int64)
        out = 1
        while mod > 1:
            alpha, a_digit = np.divmod(alpha, p)
            k, k_digit = np.divmod(k, p)
            rest = a_digit - k_digit  # b > a wraps to the end of the table; the mask zeroes it
            out = out * fact[a_digit] * inv_fact[k_digit] % p * inv_fact[rest] % p * (rest >= 0)
            mod //= p
        return out

    def sigma_power(self, i: int) -> LaurentSeries:
        """sigma(t)**i from the closed form, to the precision prec + i of sigma_t**i."""
        n = self.n
        row = self.binomials([i], -(-self.prec // n))[0]  # the terms t^(i + nk) below prec + i
        return spread(self.ctx, row, n, i, self.prec + i)

    @cached_property
    def _sigma_step(self) -> int:
        """The step m of sigma(t) / t = v(t^m), n for the normal form.

        sigma(t)^e = t^e v^e(t^m) has support in e + mZ, so composing with
        sigma keeps the exponent classes mod m apart.  sigma(t) = t alone
        links no classes; it gets the one class m = 1.
        """
        if self.sigma_t.is_zero or self.sigma_t.valuation() != 1:
            raise ValueError("substitution requires a series of valuation exactly 1")
        return support_step(self.sigma_t.digits, 1)

    def _sigma_block(self, r: int, size: int) -> np.ndarray:
        """Block B[s, j] = coefficient of t^(r + j m) in sigma(t)**(r + s m), m the step.

        Covers the exponents r + s m < size of the class r mod m.  Built once
        per class that callers read, large enough for x_t, the longest series
        composed with sigma; rebuilt larger when asked past its size.  Row s
        holds v^(r + s m) from column s on, and is exact below exponent
        prec + r + s m (sigma_t is known mod t^(prec+1)); the entries beyond
        come from the truncated sigma_t and must not be read.
        """
        m = self._sigma_step
        block = self._sigma_blocks.get(r)
        if block is None or len(block) < len(range(r, size, m)):
            ctx = self.ctx
            rows = len(range(r, max(size, self.prec + self.p), m))
            unit = np.zeros(rows, dtype=ctx.dtype)  # v, read from sigma(t) / t
            digits = self.sigma_t.digits[::m][:rows]
            unit[: len(digits)] = digits
            block = np.zeros((rows, rows), dtype=ctx.dtype)
            head = power_digits(ctx, unit, r, rows)
            block[0, : len(head)] = head
            unit_m = power_digits(ctx, unit, m, rows)
            for s in range(1, rows):
                # v^(r + s m) = v^(r + (s-1) m) * v^m, both read from their diagonal on
                row = block[s, s:]
                row[:] = ctx.convolve(block[s - 1, s - 1 : -1], unit_m, len(row))
            self._sigma_blocks[r] = block
        return block

    def apply_sigma(self, f: LaurentSeries) -> LaurentSeries:
        """f(sigma(t)) for a series f of valuation >= 0, as f.substitute(sigma_t).

        One block product per residue class mod the step of sigma that
        carries a digit of f, known mod t^min(f.prec, sigma_t.prec + val - 1):
        sigma^e is known below sigma_t.prec + e - 1, and f's unknown digits
        enter from f.prec on.
        """
        if f.ctx != self.ctx:
            raise ValueError("series context mismatch")
        if f.is_zero:
            return LaurentSeries.zero(self.ctx, f.prec)
        lo = f.val
        if lo < 0:
            raise ValueError("apply_sigma requires a series of valuation >= 0")
        hi = min(f.prec, self.sigma_t.prec + lo - 1)
        m = self._sigma_step
        coeffs = f.digits[: hi - lo]
        out = np.zeros(hi - lo, dtype=self.ctx.dtype)
        for r in sorted(set(((lo + coeffs.nonzero()[0]) % m).tolist())):
            block = self._sigma_block(r, hi)
            first = (r - lo) % m  # offset of the class's first exponent >= lo
            s = (lo + first) // m  # its row in the block
            digits = coeffs[first::m]
            cols = len(range(first, hi - lo, m))
            out[first::m] = self.ctx.matmul(digits, block[s : s + len(digits), s : s + cols])
        return LaurentSeries(self.ctx, lo, out, hi)

    def window(self, a: int, lo: int) -> "LatticeWindow":
        """Matrix of N = sigma - 1 mod t^a on the basis t^lo .. t^(a-1), with its x-image."""
        if lo >= a:
            raise ValueError("window requires lo < a")
        if self.prec < a - lo:
            raise InsufficientPrecisionError(f"cover precision {self.prec} < window span {a - lo}")
        p, n, size = self.p, self.n, a - lo
        js, depth = _x_powers(p, lo, a), (size - 1) // n + 1
        entries, places = _class_layout(size, n)
        # one table: the rows t^lo .. t^(a-1) for N, then the rows of the x^j;
        # x^j steps by n(p-1) >= n, so the depth of N covers its digits too
        table = self.binomials([*range(lo, a), *js], depth)
        nil = np.zeros((size, size), dtype=self.ctx.dtype)
        # sigma(t^i) - t^i has the coefficient binom(-i/n, k) at t^(i + nk), k >= 1
        nil.ravel()[entries] = table[:size].ravel()[places]
        # x^j has the coefficient (-1)^k binom(-j/n, k) at t^(pj + n(p-1)k).  The
        # series x^j is known below t^(prec + pj), and prec >= a - lo with
        # pj >= lo puts every digit the window reads there.
        digits = table[size:]
        digits[:, 1::2] = -digits[:, 1::2] % p
        # p * js.start - lo lies in 0..p-1: small positions however far the window is from t^0
        at = p * np.arange(len(js))[:, None] + (p * js.start - lo) + n * (p - 1) * np.arange(depth)
        rows, ks = np.nonzero(at < size)
        x_image = np.zeros((len(js), size), dtype=self.ctx.dtype)
        x_image[rows, at[rows, ks]] = digits[rows, ks]
        return LatticeWindow(cover=self, a=a, lo=lo, nil=nil, x_image=x_image)


@dataclass
class LatticeWindow:
    """Finite slice span{t^i : lo <= i < a} with the matrix of sigma - 1 mod t^a.

    ``nil`` is the strictly lower triangular code array N; sigma = 1 + N.
    ``x_image`` row r holds the coordinates of x^j, j = x_powers[r],
    truncated to the window.
    """

    cover: LocalCover
    a: int
    lo: int
    nil: np.ndarray
    x_image: np.ndarray

    @property
    def p(self) -> int:
        return self.cover.p

    @property
    def n(self) -> int:
        return self.cover.n

    @property
    def ctx(self) -> FieldCtx:
        return self.cover.ctx

    @property
    def size(self) -> int:
        return self.a - self.lo

    @property
    def x_powers(self) -> range:
        return _x_powers(self.p, self.lo, self.a)

    def trailing(self, lo: int) -> "LatticeWindow":
        """The window [lo, a) inside this one, as views of its arrays.

        N's entry at (t^(e+nk), t^e) is binom(-e/n, k), which depends on e
        and k alone, so N on [lo, a) is the trailing block of N here.  x^j
        leads at t^(pj), so the x-powers of [lo, a) are the last ones here,
        and their rows vanish below t^lo.
        """
        cut = lo - self.lo
        drop = _x_powers(self.p, lo, self.a).start - self.x_powers.start
        return LatticeWindow(cover=self.cover, a=self.a, lo=lo, nil=self.nil[cut:, cut:],
                             x_image=self.x_image[drop:, cut:])

    def class_stack(self) -> np.ndarray:
        """The blocks nil[r::n, r::n], zero-padded to one (n, b, b) code array.

        N links t^i only to t^(i + nk), so it is block diagonal by the
        residue class of the exponent mod n; block r holds the exponents
        lo + r + nk and is padded to b = ceil(size / n) with zero rows and
        columns, which change no rank.
        """
        n, size = self.n, self.size
        entries = _class_layout(size, n)[0]
        if np.count_nonzero(self.nil) != np.count_nonzero(self.nil.ravel()[entries]):
            raise NormalFormError(
                "window matrix has an entry whose row - col is not a positive multiple of n"
            )
        return class_blocks(self.nil, n, 0, 0)

    def verify_order(self) -> None:
        """Check N**p = 0, i.e. sigma**p = 1 + N**p = 1 (raises NormalFormError)."""
        try:
            linalg.power_ranks(self.ctx, self.nil[None], self.p)
        except ValueError:
            raise NormalFormError("window matrix does not have order p") from None


@dataclass
class NormalFormReport:
    checked: list[str]


def verify_normal_form(cov: LocalCover) -> NormalFormReport:
    """Check the defining identities of the cover, to precision.

    Raises NormalFormError naming the first identity that fails; returns a
    report listing the identities checked otherwise.
    """
    ctx, p, n = cov.ctx, cov.p, cov.n
    checked = []

    s = cov.sigma_t
    for _ in range(p - 1):
        s = cov.apply_sigma(s)
    if not s.agrees(LaurentSeries.monomial(ctx, 1, s.prec)):
        raise NormalFormError("sigma iterated p times is not the identity")
    checked.append("sigma^p = id")

    z_image = cov.sigma_t ** (-n)
    if not z_image.agrees(LaurentSeries.from_terms(ctx, {-n: 1, 0: 1}, z_image.prec)):
        raise NormalFormError("sigma(t^-n) != t^-n + 1")
    checked.append("sigma(t^-n) = t^-n + 1")

    if not cov.apply_sigma(cov.x_t).agrees(cov.x_t):
        raise NormalFormError("x is not sigma-invariant")
    checked.append("sigma(x) = x")

    jump_exp = p + n * (p - 1)
    if cov.x_t.valuation() != p or cov.x_t.coefficient(p) != 1:
        raise NormalFormError("x does not start with t^p")
    if cov.x_t.digits[1 : jump_exp - p].any():
        raise NormalFormError("x has spurious terms below the first correction")
    # every digit below x_t.prec is stored: a short x_t raises at its first unknown exponent
    if cov.x_t.coefficient(min(jump_exp, cov.x_t.prec)) != ctx.inv(ctx.embed(n)):
        raise NormalFormError("first correction of x is not (1/n) t^(p + n(p-1))")
    checked.append("x = t^p + (1/n) t^(p+n(p-1)) + ...")

    return NormalFormReport(checked=checked)


@dataclass
class DifferentialCheck:
    ok: bool
    failures: list[str]


def invariant_differential_check(cov: LocalCover) -> DifferentialCheck:
    """Verify dt/t^(n+1) is invariant and equals -dx/x^(n+1), to precision."""
    ctx, n = cov.ctx, cov.n
    failures = []

    lhs = cov.sigma_t.derivative() * (cov.sigma_t ** (-(n + 1)))
    target = LaurentSeries.monomial(ctx, -(n + 1), lhs.prec)
    if not lhs.agrees(target):
        failures.append("sigma'(t) / sigma(t)^(n+1) != 1/t^(n+1)")

    rhs = cov.x_t.derivative() * (cov.x_t ** (-(n + 1)))
    neg_target = LaurentSeries.monomial(ctx, -(n + 1), rhs.prec, ctx.embed(-1))
    if not rhs.agrees(neg_target):
        failures.append("x'(t) / x^(n+1) != -1/t^(n+1)")

    return DifferentialCheck(ok=not failures, failures=failures)
