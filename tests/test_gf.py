"""Field arithmetic on codes: worked values, axioms, Frobenius, deterministic roots.

In GF(p^m) the code p has base-p digits (0, 1): it is the image w of x.
"""

import random

import numpy as np
import pytest

from wildcoh.gf import FieldCtx, NoRootError, is_prime
from wildcoh.laurent import LaurentSeries

import oracles

F2 = FieldCtx(2)
F3 = FieldCtx(3)
F4 = FieldCtx(2, (1, 1, 1))
F5 = FieldCtx(5)
F7 = FieldCtx(7)
F9 = FieldCtx(3, (1, 0, 1))  # x^2 + 1, irreducible mod 3
F25 = FieldCtx(5, (2, 0, 1))  # x^2 + 2, irreducible mod 5

ALL_CTX = (F2, F3, F4, F5, F7, F9, F25)


def test_addition_worked_values():
    assert F3.add(2, 2) == 1
    w = F4.p
    assert F4.add(w, w) == 0
    assert F5.add(0, 4) == 4


def test_inverse_worked_values():
    assert F5.inv(2) == 3
    w = F4.p
    assert F4.inv(w) == F4.mul(w, w)  # w^3 = 1
    assert F7.inv(1) == 1


def test_nth_root_worked_values():
    assert F7.nth_root(1, 3) == 1
    # cubes in GF(4): x^3 = 1 for every nonzero x, so only 0 and 1 are cubes
    assert {F4.pow(c, 3) for c in range(F4.q)} == {0, 1}
    with pytest.raises(NoRootError):
        F4.nth_root(F4.pow(F4.p, 2), 3)
    # enumeration order is 0, 1, 2, ...: 2 is found before 3 although 3^2 = 4 too
    assert F5.pow(3, 2) == 4
    assert F5.nth_root(4, 2) == 2


def test_field_axioms_on_random_triples():
    rng = random.Random(101)
    for ctx in ALL_CTX:
        add, sub, neg, mul = ctx.add, ctx.sub, ctx.neg, ctx.mul
        for _ in range(1000):
            a = rng.randrange(ctx.q)
            b = rng.randrange(ctx.q)
            c = rng.randrange(ctx.q)
            assert add(add(a, b), c) == add(a, add(b, c))
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
            assert add(sub(a, b), b) == a
            assert sub(a, b) == add(a, neg(b))


def test_frobenius_is_additive():
    for a in range(F4.q):
        for b in range(F4.q):
            assert F4.pow(F4.add(a, b), 2) == F4.add(F4.pow(a, 2), F4.pow(b, 2))
    rng = random.Random(7)
    for ctx in (F9, F25, F7):
        p = ctx.p
        for _ in range(200):
            a = rng.randrange(ctx.q)
            b = rng.randrange(ctx.q)
            assert ctx.pow(ctx.add(a, b), p) == ctx.add(ctx.pow(a, p), ctx.pow(b, p))


def test_nth_root_roundtrip():
    for ctx in (F4, F5, F7, F9):
        for n in range(1, 7):
            if n % ctx.p == 0:
                continue
            for a in range(ctx.q):
                try:
                    root = ctx.nth_root(a, n)
                except NoRootError:
                    continue
                assert ctx.pow(root, n) == a


def test_nth_root_matches_the_enumeration():
    # GF(2) makes the inverse exponent 0 mod q - 1 = 1, which must not turn 0 into 1
    fields = (F2, F3, F5, F7, FieldCtx(13), FieldCtx(101), F4, FieldCtx(2, (1, 1, 0, 1)), F9)
    cases = 0
    for ctx in fields:
        # prime fields take any integer and reduce it; extension fields take codes only
        codes = range(-2, ctx.q + 3) if ctx.m == 1 else range(ctx.q)
        for n in range(1, 25):
            if n % ctx.p == 0:
                continue
            for a in codes:
                try:
                    root = ctx.nth_root(a, n)
                except NoRootError:
                    root = None
                assert root == oracles.enumerated_root(ctx, a, n), (ctx, a, n)
                cases += 1
    assert cases == 3910


def test_nth_root_reduces_prime_integers_and_refuses_other_extension_codes():
    # as array, inv and the scalar ops read them: 6 = 1 = 1^2, 5 = 0 = 0^2 and
    # -1 = 4 = 2^2 in GF(5); GF(4) has no code 4 or -1
    assert [F5.nth_root(a, 2) for a in (6, 5, -1)] == [1, 0, 2]
    for a, n in ((4, 3), (4, 1), (-1, 1)):
        with pytest.raises(ValueError, match=r"^GF\(4\) codes lie in 0\.\.3$"):
            F4.nth_root(a, n)


def test_inverse_roundtrip_and_zero_division():
    for ctx in ALL_CTX:
        with pytest.raises(ZeroDivisionError):
            ctx.inv(0)
        for a in range(1, ctx.q):
            assert ctx.mul(a, ctx.inv(a)) == 1
    # an unreduced multiple of p is zero too
    for ctx in (F5, F7, FieldCtx((1 << 31) - 1)):
        with pytest.raises(ZeroDivisionError):
            ctx.inv(2 * ctx.p)


@pytest.mark.parametrize("ctx", [F3, FieldCtx(101), F4, F9], ids=repr)
def test_inv_array_matches_inv(ctx):
    codes = list(range(1, ctx.q))
    assert ctx.inv_array(codes).tolist() == [ctx.inv(a) for a in codes]
    assert ctx.inv_array(np.array(codes)[:, None]).tolist() == [[ctx.inv(a)] for a in codes]
    for zero in ([0], [1, 0, 2], [[1], [0]]):
        with pytest.raises(ZeroDivisionError, match="^division by zero in finite field$"):
            ctx.inv_array(zero)
    if ctx.m == 1:  # unreduced integers, as inv reads them
        assert ctx.inv_array([ctx.p + 2]).tolist() == [ctx.inv(ctx.p + 2)]
        with pytest.raises(ZeroDivisionError):
            ctx.inv_array([2 * ctx.p])


@pytest.mark.parametrize("ctx", [F4, F9, F25], ids=repr)
def test_scalar_ops_match_the_array_kernels(ctx):
    # every pair of codes; the sums come from matmul, as each pair times a column of ones
    a, b = np.divmod(np.arange(ctx.q * ctx.q), ctx.q)
    pairs = list(zip(a.tolist(), b.tolist()))
    sums = ctx.matmul(np.stack([a, b], axis=1)[:, None, :], np.ones((2, 1), dtype=ctx.dtype))
    assert [ctx.add(x, y) for x, y in pairs] == sums[:, 0, 0].tolist()
    assert [ctx.sub(x, y) for x, y in pairs] == ctx.sub_array(a, b).tolist()
    assert [ctx.mul(x, y) for x, y in pairs] == ctx.mul_array(a, b).tolist()
    codes = np.arange(ctx.q)
    assert [ctx.neg(x) for x in range(ctx.q)] == ctx.sub_array(0, codes).tolist()
    assert [ctx.inv(x) for x in range(1, ctx.q)] == ctx.inv_array(codes[1:]).tolist()
    # scalar ops hand back Python ints, as a tuple table did
    ops = (ctx.add(2, 3), ctx.sub(2, 3), ctx.neg(3), ctx.mul(2, 3), ctx.inv(3))
    assert {type(x) for x in ops} == {int}


F27 = FieldCtx(3, (1, 2, 0, 1))  # x^3 + 2x + 1, irreducible mod 3
F125 = FieldCtx(5, (2, 3, 0, 1))  # x^3 + 3x + 2, irreducible mod 5


def schoolbook_matmul(ctx, a, b):
    """The product of two code arrays, broadcast as ``@`` pairs them, one
    scalar multiply and add per term."""
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    a = np.broadcast_to(a, batch + a.shape[-2:])
    b = np.broadcast_to(b, batch + b.shape[-2:])
    out = np.zeros(batch + (a.shape[-2], b.shape[-1]), dtype=np.int64)
    for *at, i, j in np.ndindex(*out.shape):
        acc = 0
        for x, y in zip(a[(*at, i)].tolist(), b[(*at, slice(None), j)].tolist()):
            acc = ctx.add(acc, ctx.mul(x, y))
        out[(*at, i, j)] = acc
    return out


# (left, right) shapes: an empty inner dimension, rows or columns, as the
# induced maps of A = 0 and A = B meet them; a stack against one shared
# factor on either side; and a batch axis of 1 broadcast against B
PRODUCT_SHAPES = (
    ((3, 0), (0, 4)), ((2, 3, 0), (2, 0, 4)), ((0, 3), (3, 4)), ((3, 4), (4, 0)),
    ((0, 0), (0, 0)), ((4, 3, 5), (5, 2)), ((3, 5), (4, 5, 2)), ((1, 3, 4), (5, 4, 2)),
    ((5, 1, 4), (1, 4, 3)), ((2, 3, 4), (2, 4, 5)), ((10, 10), (10, 10)), ((1, 1), (1, 1)),
)


@pytest.mark.parametrize("ctx", [F9, F25, F27, F125], ids=repr)
def test_odd_extension_product_matches_the_schoolbook(ctx):
    # the regular-representation product; characteristic 2 adds its table
    # products by exclusive or, checked against the same schoolbook
    for field in (ctx, F4):
        rng = np.random.default_rng(field.q)
        for left, right in PRODUCT_SHAPES:
            a, b = rng.integers(0, field.q, left), rng.integers(0, field.q, right)
            got = field.matmul(a, b)
            assert got.dtype == field.dtype
            assert got.shape == (a @ b).shape
            assert got.tolist() == schoolbook_matmul(field, a, b).tolist()


def test_inv_array_without_tables():
    big = FieldCtx((1 << 31) - 1)
    codes = [1, 2, 123456789, big.p - 1]
    assert big.inv_array(codes).tolist() == [big.inv(a) for a in codes]


def test_array_reduces_prime_integers_and_refuses_other_extension_codes():
    assert F5.array([[-1, 7], [5, -12]]).tolist() == [[4, 2], [0, 3]]
    big = FieldCtx(32771)
    assert big.array([-1, 32772]).tolist() == [32770, 1]
    assert F4.array([[0, 3], [1, 2]]).tolist() == [[0, 3], [1, 2]]
    # a negative code would read the tables from the end: -1 as q - 1
    for bad in ([[-1, 1], [1, 1]], [[1, 4]], [9]):
        with pytest.raises(ValueError, match=r"^GF\(4\) codes lie in 0\.\.3$"):
            F4.array(bad)
    with pytest.raises(ValueError, match=r"^GF\(9\) codes lie in 0\.\.8$"):
        F9.inv_array([-8])
    assert F9.array([]).shape == (0,)


@pytest.mark.parametrize("ctx", [F3, FieldCtx(101), F4, F9, FieldCtx(32771)], ids=repr)
def test_convolve_cuts_its_inputs_to_the_length(ctx):
    # an empty input or a length <= 0 gives no digits; otherwise the first
    # length digits of the schoolbook product, inputs longer than it included
    rng = random.Random(ctx.q)

    def codes(k):
        return ctx.array([rng.randrange(ctx.q) for _ in range(k)])

    for a, b, length in [(codes(0), codes(3), 2), (codes(3), codes(0), 2),
                         (codes(0), codes(0), 1), (codes(3), codes(2), 0), (codes(3), codes(2), -4)]:
        out = ctx.convolve(a, b, length)
        assert out.shape == (0,) and out.dtype == ctx.dtype
    for _ in range(20):
        a, b = codes(rng.randint(1, 12)), codes(rng.randint(1, 12))
        product = oracles.schoolbook_product(ctx, a.tolist(), b.tolist())
        for length in (1, 2, min(len(a), len(b)), len(product) - 1, len(product) + 3):
            if length > 0:
                assert ctx.convolve(a, b, length).tolist() == product[:length]


def test_context_mismatch_rejected():
    # contexts are equal when characteristic and modulus are
    assert FieldCtx(3) == F3 and hash(FieldCtx(3)) == hash(F3)
    assert F3 != F5 and F9 != FieldCtx(3, (2, 1, 1))
    # series over different fields do not combine ...
    with pytest.raises(ValueError):
        LaurentSeries.one(F3, 4) + LaurentSeries.one(F5, 4)
    # ... but equal contexts built twice are interchangeable
    two = LaurentSeries.monomial(FieldCtx(3), 0, 4, 2)
    assert (two + LaurentSeries.monomial(F3, 0, 4, 2)).agrees(LaurentSeries.one(F3, 4))


def test_invalid_contexts_rejected():
    with pytest.raises(ValueError):
        FieldCtx(6)
    with pytest.raises(ValueError):
        FieldCtx(2, (1, 0, 1))  # x^2 + 1 = (x + 1)^2 mod 2
    with pytest.raises(ValueError):
        FieldCtx(2, (1, 1))  # degree-1 modulus is not an extension
    with pytest.raises(ValueError):
        FieldCtx(3, (1, 1, 2))  # not monic


def test_prime_test():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert is_prime(2 ** 31 - 1)
    for n in (2 ** 31, 2 ** 61 - 1):
        with pytest.raises(ValueError, match=r"bound 2\*\*31"):
            is_prime(n)


def test_element_representation_and_embedding():
    # the base-p digits of a code are its coefficients, constant first
    w = F4.p
    assert F4.add(w, 1) == 3  # w + 1 has digits (1, 1)
    assert F9.mul(F9.p, F9.p) == F9.embed(-1)  # x^2 = -1 modulo x^2 + 1
    assert F4.embed(-1) == 1
    # an integer embeds as k mod p, never as the code k
    assert F4.embed(3) == 1 and F9.embed(4) == 1
    assert F7.embed(-2) == 5
    assert F5.pow(2, -1) == 3


def test_large_prime_field_without_tables():
    big = FieldCtx((1 << 31) - 1)
    a = 123456789
    assert big.mul(a, big.inv(a)) == 1
    assert big.add(a, big.embed(-123456789)) == 0


def test_extension_fields_are_limited_to_256_elements():
    # x^9 + x^4 + 1 is irreducible over GF(2), but GF(512) needs 512^2 tables
    with pytest.raises(ValueError, match="256"):
        FieldCtx(2, (1, 0, 0, 0, 1, 0, 0, 0, 0, 1))
    assert F25.q == 25 and F25.mul(F25.p, F25.p) == F25.embed(-2)
