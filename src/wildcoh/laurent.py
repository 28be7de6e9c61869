"""Truncated Laurent series over a finite field, with explicit precision.

A series is stored as (val, digits, prec): a read-only code array of the
coefficients from exponent ``val`` upward, known modulo t**prec.  All
operations propagate the minimum justified precision of their inputs and
never fabricate digits; the first and last stored digits are nonzero, and
the series 0 mod t**prec stores none.  Digits are field codes (see
wildcoh.gf) and every operation is one array kernel of the field on them;
dense storage is deliberate, every window this library needs stays within
a few thousand terms.  Products are ``FieldCtx.convolve``; inverses, powers
and roots of a unit u(t) = v(t^s), with s the gcd of the exponents carrying
a digit, are computed on the digits of v and spread back by ``spread``.
Positive integer powers are one square and multiply.  Negative powers and
roots of either sign index split v into its leading digit c and the 1-unit
w = v / c; in characteristic p, w^P = 1 mod t^P for every power P of p, so
below t^P the exponent e = a/b, b prime to p, acts as the integer
a b^(-1) mod P, and w^e is one more square and multiply.
"""

from __future__ import annotations

from math import gcd
from typing import Mapping, Sequence

import numpy as np

from wildcoh.gf import FieldCtx


class InsufficientPrecisionError(ValueError):
    """An operation needs more stored digits than the series carries."""


def power_digits(ctx: FieldCtx, a: np.ndarray, e: int, length: int) -> np.ndarray:
    """The first ``length`` digits of a**e for e >= 0, by square and multiply on code arrays."""
    if e == 0:
        return np.ones(min(1, length), dtype=ctx.dtype)
    acc = None
    base = a[:length]
    while True:
        if e & 1:
            acc = base if acc is None else ctx.convolve(acc, base, length)
        e >>= 1
        if not e:
            return acc
        base = ctx.convolve(base, base, length)


def _unit_power_digits(ctx: FieldCtx, u: np.ndarray, num: int, den: int,
                       length: int) -> np.ndarray:
    """The first ``length`` digits of w^(num/den) for the 1-unit w = u / u[0] of a
    code array u and den prime to p; for |den| > 1 it is the root with constant term 1.

    w^P = w(t^P) = 1 mod t^P for the least power P of p with P >= length, so
    the exponent acts as the integer num den^(-1) mod P.
    """
    period = 1
    while period < length:
        period *= ctx.p
    w = ctx.mul_array(ctx.inv(int(u[0])), u)
    return power_digits(ctx, w, num * pow(den, -1, period) % period, length)


def spread(ctx: FieldCtx, digits: np.ndarray, step: int, val: int, prec: int) -> "LaurentSeries":
    """t^val d(t^step) mod t^prec for the digits d of a unit, known to the
    ceil((prec - val) / step) digits that this reads."""
    out = np.zeros(prec - val, dtype=ctx.dtype)
    out[: step * len(digits) : step] = digits
    return LaurentSeries(ctx, val, out, prec)


def support_step(digits: np.ndarray, length: int) -> int:
    """gcd of the indices of the nonzero digits; ``length`` if only digit 0 is nonzero.

    Digits with step s are those of v(t^s) for v = digits[::s].
    """
    return int(np.gcd.reduce(digits.nonzero()[0])) or length


class LaurentSeries:
    """Truncated Laurent series; immutable, combines only within one context."""

    __slots__ = ("ctx", "val", "digits", "prec")

    def __init__(self, ctx: FieldCtx, val: int, coeffs: Sequence[int] | np.ndarray, prec: int):
        # a private copy of the digits below t^prec, from the first nonzero to the last;
        # a caller's list or tuple enters through ctx.array, a kernel's code array is copied
        cut = coeffs[: max(0, prec - val)]
        digits = np.array(cut, dtype=ctx.dtype) if isinstance(cut, np.ndarray) else ctx.array(cut)
        if len(digits) and not (digits[0] and digits[-1]):
            nonzero = digits.nonzero()[0]
            lead, end = (int(nonzero[0]), int(nonzero[-1]) + 1) if len(nonzero) else (0, 0)
            val += lead
            digits = digits[lead:end]
        digits.flags.writeable = False
        self.ctx = ctx
        self.val = val if len(digits) else prec
        self.digits = digits
        self.prec = prec

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, ctx: FieldCtx, prec: int) -> "LaurentSeries":
        return cls(ctx, prec, (), prec)

    @classmethod
    def one(cls, ctx: FieldCtx, prec: int) -> "LaurentSeries":
        return cls(ctx, 0, (1,), prec)

    @classmethod
    def monomial(cls, ctx: FieldCtx, exp: int, prec: int, coeff: int = 1) -> "LaurentSeries":
        return cls(ctx, exp, (coeff,), prec)

    @classmethod
    def from_terms(cls, ctx: FieldCtx, terms: Mapping[int, int], prec: int) -> "LaurentSeries":
        if not terms:
            return cls.zero(ctx, prec)
        lo = min(terms)
        hi = max(terms)
        coeffs = [0] * (hi - lo + 1)
        for e, c in terms.items():
            coeffs[e - lo] = c
        return cls(ctx, lo, coeffs, prec)

    # -- inspection ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[int, ...]:
        """The digits as a tuple of Python ints."""
        return tuple(self.digits.tolist())

    @property
    def is_zero(self) -> bool:
        return not len(self.digits)

    def valuation(self) -> int:
        if self.is_zero:
            raise ValueError("valuation of a series that is 0 mod t^prec")
        return self.val

    def coefficient(self, exp: int) -> int:
        """Code of the coefficient of t**exp (exp must be below the precision)."""
        if exp >= self.prec:
            raise InsufficientPrecisionError(
                f"coefficient of t^{exp} requested beyond precision O(t^{self.prec})"
            )
        i = exp - self.val
        return int(self.digits[i]) if 0 <= i < len(self.digits) else 0

    def terms(self) -> dict[int, int]:
        return {self.val + i: c for i, c in enumerate(self.digits.tolist()) if c}

    def truncate(self, prec: int) -> "LaurentSeries":
        if prec > self.prec:
            raise InsufficientPrecisionError("cannot raise precision by truncation")
        if prec == self.prec:
            return self  # immutable, so nothing to copy
        return LaurentSeries(self.ctx, self.val, self.digits, prec)

    def agrees(self, other: "LaurentSeries") -> bool:
        """Equality of the two series modulo the smaller precision."""
        if self.ctx != other.ctx:
            return False
        m = min(self.prec, other.prec)
        a = self.truncate(m)
        b = other.truncate(m)
        return a.val == b.val and np.array_equal(a.digits, b.digits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self.agrees(other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        if self.is_zero:
            return f"O(t^{self.prec})"
        parts = []
        for e, c in self.terms().items():
            cs = "" if (c == 1 and e != 0) else f"{c}"
            if e == 0:
                parts.append(f"{c}")
            elif e == 1:
                parts.append(f"{cs}t" if cs else "t")
            else:
                parts.append(f"{cs}t^{e}" if cs else f"t^{e}")
        return " + ".join(parts) + f" + O(t^{self.prec})"

    # -- ring operations ------------------------------------------------------

    def _check_ctx(self, other: "LaurentSeries") -> None:
        if self.ctx != other.ctx:
            raise ValueError("series context mismatch")

    def _aligned(self, lo: int, length: int) -> np.ndarray:
        """The digits of t^lo .. t^(lo + length - 1), for lo <= val, as a new code array."""
        out = np.zeros(length, dtype=self.ctx.dtype)
        start = self.val - lo
        digits = self.digits[: max(0, length - start)]
        out[start : start + len(digits)] = digits
        return out

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        self._check_ctx(other)
        prec = min(self.prec, other.prec)
        lo = min(self.val, other.val)
        length = max(0, prec - lo)
        diff = self.ctx.sub_array(self._aligned(lo, length), other._aligned(lo, length))
        return LaurentSeries(self.ctx, lo, diff, prec)

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(self.ctx, self.val, self.ctx.sub_array(0, self.digits), self.prec)

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self - (-other)

    def scale(self, c: int) -> "LaurentSeries":
        """Multiply by a field element given as a code."""
        return LaurentSeries(self.ctx, self.val, self.ctx.mul_array(c, self.digits), self.prec)

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by t**k (exact reindexing)."""
        return LaurentSeries(self.ctx, self.val + k, self.digits, self.prec + k)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        self._check_ctx(other)
        if self.is_zero or other.is_zero:
            v1 = self.prec if self.is_zero else self.val
            v2 = other.prec if other.is_zero else other.val
            return LaurentSeries.zero(self.ctx, min(self.prec + v2, other.prec + v1))
        val = self.val + other.val
        prec = min(self.prec + other.val, other.prec + self.val)
        out = self.ctx.convolve(self.digits, other.digits, prec - val)
        return LaurentSeries(self.ctx, val, out, prec)

    def _decimated(self) -> tuple[int, np.ndarray, int]:
        """(s, v, length) with self = t^val v(t^s): s is the step of the digits,
        and v, a code array, is the unit known to the length = ceil((prec - val) / s)
        digits that determine self."""
        rel = self.prec - self.val
        step = support_step(self.digits, rel)
        return step, self.digits[::step], -(-rel // step)

    def invert(self) -> "LaurentSeries":
        """Multiplicative inverse, known mod t^(prec - 2 val); requires the
        series to be nonzero mod t^prec."""
        return self ** -1

    def __pow__(self, e: int) -> "LaurentSeries":
        ctx = self.ctx
        if self.is_zero:
            if e > 0:
                return LaurentSeries.zero(ctx, e * self.prec)
            raise ZeroDivisionError("nonpositive power of a series that is 0 mod t^prec")
        rel = self.prec - self.val
        if e == 0:
            return LaurentSeries.one(ctx, rel)
        # f^e = t^(e val) v^e(t^s): square and multiply on the decimated unit;
        # for e < 0, v^e = c^e w^e with c = v[0] and the 1-unit w = v / c
        step, unit, length = self._decimated()
        if e > 0:
            digits = power_digits(ctx, unit, e, length)
        else:
            digits = ctx.mul_array(ctx.pow(int(unit[0]), e),
                                   _unit_power_digits(ctx, unit, e, 1, length))
        return spread(ctx, digits, step, e * self.val, rel + e * self.val)

    def derivative(self) -> "LaurentSeries":
        """Term-wise d/dt; absolute precision drops by one."""
        # the integer e embeds as the code e mod p in every field
        exps = np.arange(self.val, self.val + len(self.digits), dtype=self.ctx.dtype) % self.ctx.p
        return LaurentSeries(self.ctx, self.val - 1, self.ctx.mul_array(exps, self.digits),
                             self.prec - 1)

    def substitute(self, g: "LaurentSeries") -> "LaurentSeries":
        """Composition self(g) for g of valuation exactly 1.

        Known mod t^min(prec, g.prec + val - 1): g^e is known below
        g.prec + e - 1, and the unknown digits of self enter from prec on.
        """
        self._check_ctx(g)
        if g.is_zero or g.valuation() != 1:
            raise ValueError("substitution requires a series of valuation exactly 1")
        ctx = self.ctx
        if self.is_zero:
            return LaurentSeries.zero(ctx, self.prec)
        wp = g.prec + abs(self.val) + 4
        acc = LaurentSeries.zero(ctx, wp)
        hi = self.val + len(self.digits)
        for e in range(hi - 1, self.val - 1, -1):
            acc = acc * g
            c = self.coefficient(e)
            if c:
                acc = acc + LaurentSeries.monomial(ctx, 0, wp, c)
        result = acc * (g ** self.val)
        # digits of self beyond prec contribute from exponent prec on
        if result.prec > self.prec:
            result = result.truncate(self.prec)
        return result

    def nth_root(self, n: int) -> "LaurentSeries":
        """Deterministic n-th root: self^(1/n), read off the decimated unit as a power.

        n != 0 and gcd(n, p) = 1.  A negative n gives the inverse of the
        |n|-th root with no inversion.  The branch is fixed by gf's
        enumeration-order root of the leading coefficient together with the
        unit-part root normalized to constant term 1.
        """
        ctx = self.ctx
        if n == 0:
            raise ValueError("root index must be nonzero")
        if n == 1:
            return self
        m = abs(n)
        if gcd(m, ctx.p) != 1:
            raise ValueError(f"root index {n} not coprime to characteristic {ctx.p}")
        if self.is_zero:
            raise ValueError("n-th root of a series that is 0 mod t^prec")
        if self.val % m != 0:
            raise ValueError(f"valuation {self.val} not divisible by root index {n}")
        lead = int(self.digits[0])
        lead_root = ctx.nth_root(lead, m)  # may raise NoRootError
        step, unit, length = self._decimated()
        unit_root = ctx.mul_array(lead_root if n > 0 else ctx.inv(lead_root),
                                  _unit_power_digits(ctx, unit, 1, n, length))
        root = spread(ctx, unit_root, step, self.val // n, self.prec - self.val + self.val // n)
        # root^n = self, checked with no inversion
        if n > 0:
            verified = (root ** m).agrees(self)
        else:
            product = root ** m * self
            verified = product.agrees(LaurentSeries.one(ctx, product.prec))
        if not verified:
            raise ArithmeticError("n-th root failed to verify")
        return root
