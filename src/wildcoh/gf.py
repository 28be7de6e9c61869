"""Exact arithmetic in GF(p) and in small extensions GF(p^m).

Field elements are integer codes 0..q-1; the base-p digits of a code are
the coefficients of the polynomial representative, least significant
first.  Zero and one are always coded 0 and 1, and the natural embedding
of an integer k is the code k mod p.  A :class:`FieldCtx` interprets
codes and owns their arithmetic, on Python ints and on numpy arrays of
codes alike: prime fields reduce mod p, extension fields look up tables
built once at construction.  The series and matrix layers use only these
primitives.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import Sequence

import numpy as np

# Extension fields are table-driven; the tables are quadratic in q.
_TABLE_LIMIT = 256
# Prime-field arrays are int64 up to this p: a row-times-column sum of
# (p-1)^2 * ncols stays far below 2**63.  Above it they hold Python ints.
_INT64_P_LIMIT = 1 << 15


class NoRootError(ArithmeticError):
    """No n-th root exists in this field; the caller may extend the field."""


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test for n < 2**31.

    Raises ValueError from 2**31 on, where trial division takes too long.
    """
    if n >= 2 ** 31:
        raise ValueError(f"{n} is too large for the primality test (bound 2**31)")
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


class FieldCtx:
    """Arithmetic context for GF(p) (modulus=None) or GF(p^m).

    ``modulus`` is the coefficient list (constant first, leading 1 last) of
    a monic irreducible polynomial of degree m >= 2 over GF(p), with
    p^m <= 256.  Irreducibility is checked at construction: the quotient
    ring must have no zero divisors.

    ``dtype`` is the type of code arrays.  ``narrow_dtype`` is the
    narrowest one that holds a * b - c * d of codes unreduced: int16 up to
    p = 181, int32 up to 2**15, and ``dtype`` itself for extension fields,
    whose codes index the tables, and for Python-int codes.
    """

    def __init__(self, p: int, modulus: Sequence[int] | None = None):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        self.p = p
        if modulus is None:
            self.m = 1
            self.modulus: tuple[int, ...] | None = None
            self.q = p
            self.dtype = np.int64 if p <= _INT64_P_LIMIT else object
            # a * b - c * d of codes lies within +-(p - 1)^2
            self.narrow_dtype = (np.int16 if (p - 1) ** 2 < 1 << 15 else
                                 np.int32 if p <= _INT64_P_LIMIT else object)
            return
        mod = tuple(c % p for c in modulus)
        if len(mod) < 3:
            raise ValueError("extension modulus must have degree >= 2")
        if mod[-1] != 1:
            raise ValueError("extension modulus must be monic")
        self.m = len(mod) - 1
        self.modulus = mod
        self.q = p ** self.m
        if self.q > _TABLE_LIMIT:
            raise ValueError(
                f"GF({p}^{self.m}) has {self.q} elements; extension fields are "
                f"limited to {_TABLE_LIMIT}"
            )
        self.dtype = self.narrow_dtype = np.int64  # codes index the tables
        self._build_tables()

    def _build_tables(self) -> None:
        p, m = self.p, self.m
        self._weights = p ** np.arange(m)
        # digits[c] = coefficients of code c; powers[k] = x^k mod the modulus
        digits = np.arange(self.q)[:, None] // self._weights % p
        powers = np.zeros((2 * m - 1, m), dtype=np.int64)
        powers[:m] = np.eye(m, dtype=np.int64)
        for k in range(m, 2 * m - 1):
            # x * x^(k-1), folding x^m = -(c_0 + c_1 x + ... + c_(m-1) x^(m-1))
            powers[k, 1:] = powers[k - 1, :-1]
            powers[k] = (powers[k] - powers[k - 1, -1] * np.array(self.modulus[:m])) % p
        cross = powers[np.add.outer(np.arange(m), np.arange(m))]  # x^(i+j)
        mul = np.einsum("ai,bj,ijk->abk", digits, digits, cross) % p @ self._weights
        if (mul[1:, 1:] == 0).any():
            raise ValueError("modulus is reducible")
        self._add_array = (digits[:, None] + digits[None, :]) % p @ self._weights
        self._digit_array = digits
        self._mul_array = mul
        # the regular representation: [b, i, l] is digit l of x^i b
        self._regular = digits[mul[:, self._weights]]
        self._sub_array = self._add_array[:, -digits % p @ self._weights]
        self._inv_array = np.argmax(mul == 1, axis=1)

    # -- code-level arithmetic -------------------------------------------
    # extension fields read a table by ndarray.item, a third of int(table[a, b])'s cost

    def add(self, a: int, b: int) -> int:
        if self.modulus is None:
            return (a + b) % self.p
        return self._add_array.item(a, b)

    def neg(self, a: int) -> int:
        if self.modulus is None:
            return -a % self.p
        return self._sub_array.item(0, a)

    def sub(self, a: int, b: int) -> int:
        if self.modulus is None:
            return (a - b) % self.p
        return self._sub_array.item(a, b)

    def mul(self, a: int, b: int) -> int:
        if self.modulus is None:
            return a * b % self.p
        return self._mul_array.item(a, b)

    def inv(self, a: int) -> int:
        # a prime field also refuses an unreduced multiple of p
        if (a % self.p if self.modulus is None else a) == 0:
            raise ZeroDivisionError("division by zero in finite field")
        if self.modulus is None:
            return pow(a, self.p - 2, self.p)
        return self._inv_array.item(a)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv(a)
            e = -e
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def embed(self, k: int) -> int:
        """Code of the image of the integer k under the prime-subfield embedding."""
        return k % self.p

    def nth_root(self, a: int, n: int) -> int:
        """First code c (in enumeration order 0,1,2,...) with c**n == a.

        Requires gcd(n, p) == 1; raises NoRootError when no root exists.  The
        code a is read as ``array`` reads it: reduced mod p in a prime field.
        The units are cyclic of order q - 1: for a unit a and g = gcd(n, q - 1),
        c -> c^n permutes them when g = 1, so a has one root, and otherwise
        a has a root iff a^((q-1)/g) = 1.  Zero is scanned.
        """
        if n < 1:
            raise ValueError("root index must be positive")
        if gcd(n, self.p) != 1:
            raise ValueError(f"root index {n} not coprime to characteristic {self.p}")
        a = int(self.array(a))
        unit, g = a != 0, gcd(n, self.q - 1)
        if unit and g == 1:
            return self.pow(a, pow(n, -1, self.q - 1))
        if not unit or self.pow(a, (self.q - 1) // g) == 1:
            for c in range(self.q):
                if self.pow(c, n) == a:
                    return c
        raise NoRootError(f"no {n}-th root of code {a} in {self!r}")

    # -- array arithmetic (numpy arrays of codes, dtype self.dtype) --------

    def array(self, rows) -> np.ndarray:
        """Array of codes, from a code, a list of codes or a list of rows.

        Prime-field entries may be any integers; they are reduced mod p.
        Extension-field entries must be codes: anything outside 0..q-1
        raises ValueError, since a negative code would index its tables
        from the end.
        """
        arr = np.array(rows, dtype=self.dtype)
        if self.m == 1:
            try:
                return arr % self.p
            except TypeError:  # Python-int codes: numpy keeps ragged rows as list entries
                raise ValueError("entries are not integer codes of equal-length rows") from None
        if arr.size and not (0 <= arr.min() and arr.max() < self.q):
            raise ValueError(f"GF({self.q}) codes lie in 0..{self.q - 1}")
        return arr

    def mul_array(self, a, b) -> np.ndarray:
        """Elementwise product, with numpy broadcasting."""
        return a * b % self.p if self.m == 1 else self._mul_array[a, b]

    def inv_array(self, a) -> np.ndarray:
        """Elementwise inverse of codes; a zero raises ZeroDivisionError, as inv does.

        A prime field raises to the power p - 2 by repeated squaring, an
        extension field reads its inverse table.
        """
        codes = self.array(a)
        if not codes.all():
            raise ZeroDivisionError("division by zero in finite field")
        if self.m > 1:
            return self._inv_array[codes]
        result, e = np.ones_like(codes), self.p - 2
        while e:
            if e & 1:
                result = result * codes % self.p
            codes = codes * codes % self.p
            e >>= 1
        return result

    def sub_array(self, a, b) -> np.ndarray:
        """Elementwise difference, with numpy broadcasting."""
        if self.m == 1:
            return (a - b) % self.p
        return self._sub_array[a, b]

    def mul_sub(self, a, b, c, d) -> np.ndarray:
        """Elementwise a * b - c * d, with numpy broadcasting and a single reduction."""
        if self.m == 1:
            return (a * b - c * d) % self.p
        return self._sub_array[self._mul_array[a, b], self._mul_array[c, d]]

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix product of 2-D arrays or of stacks of them, as ``@`` pairs
        them (a prime field takes whatever ``@`` takes).

        Extension fields add codes here alone.  Characteristic 2 multiplies
        code pairs by table and adds them by exclusive or.  Odd p takes one
        integer product through the regular representation: the digits of
        a, (..., r, k m), times the multiplication matrices of b,
        (..., k m, c m), reduced mod p."""
        if self.m == 1:
            return a @ b % self.p
        if self.p == 2:  # digits add mod 2, so codes add by exclusive or
            prod = self._mul_array[a[..., :, :, None], b[..., None, :, :]]
            return np.bitwise_xor.reduce(prod, prod.ndim - 2)
        (r, k), (c, m) = a.shape[-2:], (b.shape[-1], self.m)
        left = self._digit_array[a].reshape(*a.shape[:-2], r, k * m)
        right = self._regular[b].swapaxes(-3, -2).reshape(*b.shape[:-2], k * m, c * m)
        prod = left @ right
        return prod.reshape(*prod.shape[:-1], c, m) % self.p @ self._weights

    def convolve(self, a: np.ndarray, b: np.ndarray, length: int) -> np.ndarray:
        """The first ``length`` coefficients of the product of two 1-D code
        arrays read as polynomials, each cut to ``length`` first: fewer if the
        product is shorter, none if ``length <= 0`` or either array is empty.

        An extension field takes a as one row times the band whose row i
        holds b shifted right by i, through ``matmul``."""
        if length <= 0 or not len(a) or not len(b):
            return np.zeros(0, dtype=self.dtype)
        a, b = a[:length], b[:length]
        if self.m == 1:  # np.convolve's own route, without its Python wrapper
            return np.correlate(a, b[::-1], "full")[:length] % self.p
        # rows of width + 1 read at width shift each copy of b right by its row index
        la, width = len(a), len(a) + len(b) - 1
        band = np.zeros((la, width + 1), dtype=self.dtype)
        band[:, : len(b)] = b
        return self.matmul(a[None], band.ravel()[: la * width].reshape(la, width)[:, :length])[0]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldCtx)
            and self.p == other.p
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.modulus))

    def __repr__(self) -> str:
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"

