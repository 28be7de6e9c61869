"""Field arithmetic: worked values, axioms, Frobenius, deterministic roots."""

import random

import pytest

from wildcoh.gf import FieldCtx, NoRootError, is_prime

F2 = FieldCtx(2)
F3 = FieldCtx(3)
F4 = FieldCtx(2, (1, 1, 1))
F5 = FieldCtx(5)
F7 = FieldCtx(7)
F9 = FieldCtx(3, (1, 0, 1))  # x^2 + 1, irreducible mod 3
F25 = FieldCtx(5, (2, 0, 1))  # x^2 + 2, irreducible mod 5

ALL_CTX = (F2, F3, F4, F5, F7, F9, F25)


def test_addition_worked_values():
    assert F3.element(2) + F3.element(2) == F3.element(1)
    w = F4.gen
    assert (w + w).code == 0
    assert F5.element(0) + F5.element(4) == F5.element(4)


def test_inverse_worked_values():
    assert F5.element(2).inverse() == F5.element(3)
    w = F4.gen
    assert w.inverse() == w * w  # w^3 = 1
    assert F7.element(1).inverse() == F7.element(1)


def test_nth_root_worked_values():
    assert F7.element(1).nth_root(3) == F7.element(1)
    # cubes in GF(4): x^3 = 1 for every nonzero x, so only 0 and 1 are cubes
    cubes = {(e ** 3).code for e in F4.elements()}
    assert cubes == {0, 1}
    with pytest.raises(NoRootError):
        (F4.gen ** 2).nth_root(3)
    # enumeration order is 0, 1, 2, ...: 2 is found before 3 although 3^2 = 4 too
    assert (F5.element(3) ** 2) == F5.element(4)
    assert F5.element(4).nth_root(2) == F5.element(2)


def test_field_axioms_on_random_triples():
    rng = random.Random(101)
    for ctx in ALL_CTX:
        for _ in range(1000):
            a = ctx.element(rng.randrange(ctx.q))
            b = ctx.element(rng.randrange(ctx.q))
            c = ctx.element(rng.randrange(ctx.q))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a


def test_frobenius_is_additive():
    for a in F4.elements():
        for b in F4.elements():
            assert (a + b) ** 2 == a ** 2 + b ** 2
    rng = random.Random(7)
    for ctx in (F9, F25, F7):
        for _ in range(200):
            a = ctx.element(rng.randrange(ctx.q))
            b = ctx.element(rng.randrange(ctx.q))
            assert (a + b) ** ctx.p == a ** ctx.p + b ** ctx.p


def test_nth_root_roundtrip():
    for ctx in (F4, F5, F7, F9):
        for n in range(1, 7):
            if n % ctx.p == 0:
                continue
            for a in ctx.elements():
                try:
                    root = a.nth_root(n)
                except NoRootError:
                    continue
                assert root ** n == a


def test_inverse_roundtrip_and_zero_division():
    for ctx in ALL_CTX:
        for a in ctx.elements():
            if a.code == 0:
                with pytest.raises(ZeroDivisionError):
                    a.inverse()
            else:
                assert a * a.inverse() == ctx.one
    # an unreduced multiple of p is zero too
    for ctx in (F5, F7, FieldCtx((1 << 31) - 1)):
        with pytest.raises(ZeroDivisionError):
            ctx.inv(2 * ctx.p)


def test_context_mismatch_rejected():
    with pytest.raises(ValueError):
        F3.element(1) + F5.element(1)
    # equal contexts built twice are interchangeable
    assert FieldCtx(3).element(2) + F3.element(2) == F3.element(1)


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


def test_element_representation_and_embedding():
    w = F4.gen
    assert w.coeffs == (0, 1)
    assert (w + 1).coeffs == (1, 1)
    assert F4.embed(-1) == 1
    assert F7.element(-2) == F7.element(5)
    assert (F5.element(2) ** -1) == F5.element(3)


def test_large_prime_field_without_tables():
    big = FieldCtx((1 << 31) - 1)
    a = big.element(123456789)
    assert a * a.inverse() == big.one
    assert (a + big.element(-123456789)).code == 0


def test_extension_fields_are_limited_to_256_elements():
    # x^9 + x^4 + 1 is irreducible over GF(2), but GF(512) needs 512^2 tables
    with pytest.raises(ValueError, match="256"):
        FieldCtx(2, (1, 0, 0, 0, 1, 0, 0, 0, 0, 1))
    assert F25.q == 25 and F25.mul(F25.gen.code, F25.gen.code) == F25.embed(-2)
