"""Truncated Laurent series: ring laws, precision honesty, Hensel roots.

Derived expectations are checked against independent oracles computed in
the test itself: re-multiplication for inverses and roots, the Leibniz
identity for derivatives, and homomorphy for substitution.
"""

import hashlib
import json
import random
from functools import reduce
from math import comb, gcd

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wildcoh import laurent
from wildcoh.gf import FieldCtx
from wildcoh.laurent import InsufficientPrecisionError, LaurentSeries, support_step

import oracles
import test_api_reach

F2 = FieldCtx(2)
F3 = FieldCtx(3)
F5 = FieldCtx(5)
F7 = FieldCtx(7)
F4 = FieldCtx(2, (1, 1, 1))
F9 = FieldCtx(3, (1, 0, 1))
F101 = FieldCtx(101)


def series(ctx, terms, prec):
    return LaurentSeries.from_terms(ctx, terms, prec)


def random_series(ctx, rng, prec=16, unit=False):
    val = 0 if unit else rng.randint(-3, 3)
    coeffs = [rng.randrange(ctx.q) for _ in range(prec - val)]
    if unit or rng.random() < 0.9:
        coeffs[0] = rng.randrange(1, ctx.q)
    return LaurentSeries(ctx, val, coeffs, prec)


def test_invert_monomial_shifts_precision():
    t = LaurentSeries.monomial(F3, 1, 10)
    inv = t.invert()
    assert inv.valuation() == -1
    assert inv.coefficient(-1) == 1
    assert inv.prec == 8  # prec - 2 * val


def test_difference_of_squares():
    one = LaurentSeries.one(F5, 8)
    t = LaurentSeries.monomial(F5, 1, 8)
    assert (one + t) * (one - t) == series(F5, {0: 1, 2: 4}, 8)


def test_geometric_series_by_remultiplication():
    one = LaurentSeries.one(F3, 12)
    t = LaurentSeries.monomial(F3, 1, 12)
    g = (one + t) ** -1
    # frozen head of the alternating geometric series mod 3
    assert [g.coefficient(i) for i in range(4)] == [1, 2, 1, 2]
    assert (g * (one + t)).agrees(LaurentSeries.one(F3, 11))


def test_derivative_term_rule():
    d = LaurentSeries.monomial(F3, -2, 6).derivative()
    assert d == series(F3, {-3: 1}, 5)  # -2 = 1 mod 3
    for ctx in (F2, F3, F5, F7):
        tp = LaurentSeries.monomial(ctx, ctx.p, 10)
        assert tp.derivative().is_zero
    f = series(F5, {0: 1, 1: 1, 2: 1}, 9)
    assert f.derivative() == series(F5, {0: 1, 1: 2}, 8)


def test_substitute_worked_values():
    g = series(F5, {1: 1, 2: 1}, 10)  # t + t^2
    f = LaurentSeries.monomial(F5, 2, 10)
    assert f.substitute(g) == series(F5, {2: 1, 3: 2, 4: 1}, 10)

    h = series(F3, {1: 1, 2: 1}, 10)  # t(1 + t)
    composed = LaurentSeries.monomial(F3, -1, 10).substitute(h)
    # oracle: the composite is 1/h, so h * composite must be 1
    assert (h * composed).agrees(LaurentSeries.one(F3, 8))
    assert composed.valuation() == -1
    assert [composed.coefficient(i) for i in (-1, 0, 1)] == [1, 2, 1]


def test_substitute_identity_and_homomorphism():
    rng = random.Random(31)
    for ctx in (F3, F5, F4):
        ident = LaurentSeries.monomial(ctx, 1, 14)
        for _ in range(40):
            f = random_series(ctx, rng, 14)
            assert f.substitute(ident) == f
            g = random_series(ctx, rng, 14)
            h = random_series(ctx, rng, 14, unit=True).shift(1)
            lhs = (f * g).substitute(h)
            rhs = f.substitute(h) * g.substitute(h)
            assert lhs.agrees(rhs)
            assert (f + g).substitute(h).agrees(f.substitute(h) + g.substitute(h))


def test_substitute_requires_valuation_one():
    f = LaurentSeries.one(F3, 8)
    with pytest.raises(ValueError):
        f.substitute(LaurentSeries.monomial(F3, 2, 8))
    with pytest.raises(ValueError):
        f.substitute(LaurentSeries.zero(F3, 8))


def test_nth_root_of_one_plus_tn():
    for ctx in (F3, F5, F7):
        for n in range(1, 7):
            if n % ctx.p == 0:
                continue
            f = series(ctx, {0: 1, n: 1}, 4 * n + 2)
            root = f.nth_root(n)
            assert root.coefficient(0) == 1
            for e in range(1, n):
                assert root.coefficient(e) == 0
            assert root.coefficient(n) == ctx.inv(ctx.embed(n))
            assert (root ** n).agrees(f)


def test_nth_root_worked_values():
    t2 = LaurentSeries.monomial(F3, 2, 10)
    assert t2.nth_root(2) == LaurentSeries.monomial(F3, 1, 9)
    one = LaurentSeries.one(F7, 10)
    assert one.nth_root(5) == one


def test_nth_root_random_roundtrip():
    rng = random.Random(55)
    for ctx in (F2, F3, F5, F7):
        for n in range(1, 7):
            if n % ctx.p == 0:
                continue
            for _ in range(100):
                base = random_series(ctx, rng, 18, unit=True)
                f = (base ** n).shift(n * rng.randint(-1, 1))
                root = f.nth_root(n)
                assert (root ** n).agrees(f)


def test_nth_root_preconditions():
    with pytest.raises(ValueError):
        LaurentSeries.monomial(F3, 1, 8).nth_root(2)  # valuation not divisible
    with pytest.raises(ValueError):
        LaurentSeries.one(F3, 8).nth_root(3)  # index divisible by p
    with pytest.raises(ValueError):
        LaurentSeries.zero(F3, 8).nth_root(2)
    with pytest.raises(ValueError, match="nonzero"):
        LaurentSeries.one(F3, 8).nth_root(0)
    with pytest.raises(ValueError, match="not coprime"):
        LaurentSeries.one(F3, 8).nth_root(-3)  # index divisible by p
    with pytest.raises(ValueError, match="not divisible"):
        LaurentSeries.monomial(F3, 1, 8).nth_root(-2)


@pytest.mark.parametrize("sign", [1, -1])
def test_nth_root_refuses_a_perturbed_newton_root(monkeypatch, sign):
    # one wrong digit in the w^(1/n) run of the exponent route, for either sign of n
    route = laurent._unit_power_digits

    def perturbed(ctx, u, num, den, length):
        h = np.array(route(ctx, u, num, den, length))
        h[len(h) // 2] = ctx.add(int(h[len(h) // 2]), 1)
        return h

    f = series(F5, {-6: 2, -3: 1, 0: 4, 1: 3}, 12)
    assert (f.nth_root(sign * 3) ** (sign * 3)).agrees(f)
    monkeypatch.setattr(laurent, "_unit_power_digits", perturbed)
    with pytest.raises(ArithmeticError, match="^n-th root failed to verify$"):
        f.nth_root(sign * 3)


def test_double_inversion_roundtrip():
    rng = random.Random(77)
    for ctx in (F3, F5, F4):
        for _ in range(50):
            f = random_series(ctx, rng, 15)
            if f.is_zero:
                continue
            assert f.invert().invert().agrees(f)


def test_newton_inverse_matches_recurrence():
    rng = random.Random(2024)
    for ctx in (F3, F101, F4, F9):
        for prec in (4, 5, 6, 9, 16, 33, 64):
            for _ in range(6):
                f = random_series(ctx, rng, prec)
                if f.is_zero:
                    continue
                got, want = f.invert(), oracles.recurrence_inverse(f)
                assert (got.val, got.coeffs, got.prec) == (want.val, want.coeffs, want.prec)


F13 = FieldCtx(13)


def period(ctx, length):
    """The least power of p that is at least ``length``."""
    out = 1
    while out < length:
        out *= ctx.p
    return out


@pytest.mark.parametrize("ctx", (F2, F3, F4, F9, F13), ids=repr)
def test_one_unit_powers_depend_on_the_exponent_mod_the_period(ctx):
    # w^P = 1 mod t^P in characteristic p, so e and e +- P give the same
    # digits below t^P; e + P > 0 runs the plain square and multiply
    rng = random.Random(3100 + ctx.q)
    for _ in range(12):
        prec = rng.randint(1, 40)
        w = LaurentSeries(ctx, 0, [1] + [rng.randrange(ctx.q) for _ in range(prec - 1)], prec)
        big = period(ctx, prec)
        for e in (-7, -2, -1, 1, 3, rng.randint(-3 * big, 3 * big)):
            for shifted in (e + big, e - big):
                if e and shifted:
                    assert same_series(w ** e, w ** shifted)


def test_negative_powers_and_roots_of_units_with_any_lead():
    # oracles: the term-by-term recurrence inverse and the dense Newton root,
    # on units whose leading digit is not 1, at valuations of both signs
    rng = random.Random(3200)
    leads = set()
    for ctx in (F3, F5, F4, F9, F13):
        for _ in range(8):
            f = random_series(ctx, rng, rng.randint(2, 30), unit=True)
            for e in (-1, -2, -5):
                assert same_series(f ** e, oracles.schoolbook_pow(f, e))
            for n in (2, 3, 4, 5):
                if gcd(n, ctx.p) != 1:
                    continue
                lead = ctx.pow(rng.randrange(2, ctx.q), n)
                val = n * rng.randint(-2, 2)
                g = LaurentSeries(ctx, val, (lead,) + f.coeffs[1:], val + f.prec)
                root = oracles.dense_newton_root(g, n)
                assert same_series(g.nth_root(n), root)
                assert same_series(g.nth_root(-n), oracles.recurrence_inverse(root))
                leads.add((ctx.q, lead))
    assert {q for q, lead in leads if lead != 1} == {3, 5, 4, 9, 13}


def test_huge_negative_exponent_is_reduced_before_the_square_and_multiply(monkeypatch):
    # (1 + t)^N mod 3 by Lucas's theorem, then the recurrence inverse; the
    # series route squares and multiplies on -N mod 3^4, not on a 100-bit N
    big, prec = 10**30, 30
    digits = []
    for k in range(prec):
        c, m, j = 1, big, k
        while j:
            c, m, j = c * comb(m % 3, j % 3) % 3, m // 3, j // 3
        digits.append(c)
    want = oracles.recurrence_inverse(LaurentSeries(F3, 0, digits, prec))
    exponents = []
    power_digits = laurent.power_digits

    def recorded(ctx, a, e, length):
        exponents.append(e)
        return power_digits(ctx, a, e, length)

    monkeypatch.setattr(laurent, "power_digits", recorded)
    one_plus_t = series(F3, {0: 1, 1: 1}, prec)
    assert same_series(one_plus_t ** -big, want)
    assert exponents == [-big % 81]


def stepped_series(ctx, rng, step, val, rel, constant_only=False):
    """A series t^val u(t^step) with rel digits: nonzero leading digit and
    random digits at the multiples of step, some of them zero."""
    coeffs = [0] * rel
    coeffs[0] = rng.randrange(1, ctx.q)
    if not constant_only:
        for i in range(step, rel, step):
            coeffs[i] = rng.randrange(ctx.q) if rng.random() < 0.7 else 0
    return LaurentSeries(ctx, val, coeffs, val + rel)


def same_series(got, want):
    return (got.val, got.coeffs, got.prec) == (want.val, want.coeffs, want.prec)


STEPS = (2, 3, 5, 7, 20)


def stepped_draws(seed, count):
    """(field, step, series) with mixed valuations, a prec - val that is not
    a multiple of the step, and one constant-only series per field and step."""
    rng = random.Random(seed)
    for ctx in (F3, F101, F4, F9):
        for step in STEPS:
            for i in range(count):
                rel = step * rng.randint(1, 4) + rng.randint(1, step - 1)
                yield ctx, step, stepped_series(ctx, rng, step, rng.randint(-4, 4), rel, i == 0)


def test_stepped_invert_matches_recurrence():
    for _, _, f in stepped_draws(70, 4):
        assert same_series(f.invert(), oracles.recurrence_inverse(f))
    # the step is the gcd of the exponents, not the first one: 1 + t^4 + t^6
    f = series(F3, {0: 1, 4: 1, 6: 1}, 23)
    assert same_series(f.invert(), oracles.recurrence_inverse(f))


def test_stepped_pow_matches_schoolbook_products():
    for _, _, f in stepped_draws(71, 3):
        for e in (-3, -1, 2, 5):
            assert same_series(f ** e, oracles.schoolbook_pow(f, e))
    f = series(F3, {0: 1, 4: 1, 6: 1}, 23)
    for e in (-3, -1, 2, 5):
        assert same_series(f ** e, oracles.schoolbook_pow(f, e))


def test_stepped_nth_root_matches_dense_newton():
    rng = random.Random(72)
    for ctx, step, f in stepped_draws(72, 2):
        for n in (2, 3, 4, 5, 7):
            if gcd(n, ctx.p) != 1:
                continue
            # a leading digit with an n-th root, at a valuation divisible by n
            lead = ctx.pow(rng.randrange(1, ctx.q), n)
            val = n * rng.randint(-1, 1)
            g = LaurentSeries(ctx, val, (lead,) + f.coeffs[1:], val + f.prec - f.val)
            assert same_series(g.nth_root(n), oracles.dense_newton_root(g, n))
    f = series(F3, {0: 1, 4: 1, 6: 1}, 23)
    assert same_series(f.nth_root(2), oracles.dense_newton_root(f, 2))


def test_negative_root_index_is_the_inverted_root():
    # reference: the dense Newton |n|-th root, then its recurrence inverse;
    # stepped and dense units
    rng = random.Random(73)
    leads = set()
    draws = [d for d in stepped_draws(73, 2) if d[0] is not F101]
    draws += [(ctx, 1, random_series(ctx, rng, 30, unit=True)) for ctx in (F3, F4, F9)
              for _ in range(6)]
    for ctx, _, f in draws:
        for n in (1, 2, 4, 5, 7):
            if gcd(n, ctx.p) != 1:
                continue
            # a leading digit with an n-th root, at a valuation divisible by n
            lead = ctx.pow(rng.randrange(1, ctx.q), n)
            val = n * rng.randint(-2, 1)
            g = LaurentSeries(ctx, val, (lead,) + f.coeffs[1:], val + f.prec - f.val)
            assert same_series(g.nth_root(-n),
                               oracles.recurrence_inverse(oracles.dense_newton_root(g, n)))
            leads.add((lead, val < 0))
    assert any(lead != 1 for lead, _ in leads) and any(neg for _, neg in leads)


ROOT_PIN_FIELDS = (F3, F5, F7, F101, F4, F9, FieldCtx(32771))


def positive_root_draws(seed, count):
    """(series, n), n >= 1, per field and step 1-3: valuations of both signs,
    leading digits with and without an n-th root, indices that p divides,
    valuations that n does not divide, and now and then the zero series."""
    rng = random.Random(seed)
    for ctx in ROOT_PIN_FIELDS:
        for step in (1, 2, 3):
            for _ in range(count):
                n = rng.randint(1, 7)
                val = n * rng.randint(-3, 3) if rng.random() < 0.8 else rng.randint(-7, 7)
                rel = step * rng.randint(1, 6) + rng.randint(0, step - 1)
                coeffs = [0] * rel
                if rng.random() >= 0.05:
                    coeffs[0] = rng.randrange(1, ctx.q)
                    for i in range(step, rel, step):
                        coeffs[i] = rng.randrange(ctx.q)
                yield LaurentSeries(ctx, val, coeffs, val + rel), n


def root_outcome(f, n):
    try:
        r = f.nth_root(n)
    except (ValueError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return json.dumps([r.val, list(r.coeffs), r.prec])


def test_positive_roots_match_the_pinned_route():
    # every root and every error message, pinned while positive indices ran
    # a Newton route of their own (the root, then a second inversion)
    outcomes = [root_outcome(f, n) for f, n in positive_root_draws(29, 50)]
    kinds = {o.split(":")[0] for o in outcomes if not o.startswith("[")}
    assert len(outcomes) == 1050 and kinds == {"NoRootError", "ValueError"}
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == "bc15d0ad1b54b1163f1837dbf10889b78c27acf41f96471740ec83fe4ab672e6"


def test_caller_digits_enter_as_field_codes():
    # a list or tuple goes through FieldCtx.array: prime-field integers are
    # reduced mod p, extension-field codes outside 0..q-1 are refused
    s = LaurentSeries.from_terms(F5, {0: 5, 1: 1}, 4)
    assert (s.val, s.coeffs, repr(s)) == (1, (1,), "t + O(t^4)")
    assert LaurentSeries(F5, 0, [7, 1], 4).agrees(series(F5, {0: 2, 1: 1}, 4))
    assert LaurentSeries.monomial(F5, 0, 4, -1) == LaurentSeries.monomial(F5, 0, 4, 4)
    for digits in ([-1], [4], [-1, 1], (1, 4)):
        with pytest.raises(ValueError, match=r"^GF\(4\) codes lie in 0\.\.3$"):
            LaurentSeries(F4, 0, digits, 4)


def test_constructor_keeps_its_invariants():
    # nothing at or above prec, a nonzero leading digit, no trailing zeros
    for val, coeffs, prec, want in [
        (5, [1, 1, 1], 3, (3, (), 3)),
        (2, [0, 0, 1, 1], 3, (3, (), 3)),
        (2, [0, 0, 1, 1], 6, (4, (1, 1), 6)),
        (0, [0, 2, 0, 1, 0, 0], 4, (1, (2, 0, 1), 4)),
        (-1, [0, 0, 0], 5, (5, (), 5)),
        (-2, [1, 0, 2, 0], 1, (-2, (1, 0, 2), 1)),
    ]:
        s = LaurentSeries(F3, val, coeffs, prec)
        assert (s.val, s.coeffs, s.prec) == want
    assert series(F3, {5: 1, 6: 1, 7: 1}, 3).is_zero


UNIT = (1, 2, 0, 1)  # a fixed unit, at a precision above every draw
UNIT_PREC = 200

# name -> (operation, documented precision of its result), both of (f, e, n)
SERIES_OPS = {
    "invert": (lambda f, e, n: f.invert(), lambda f, e, n: f.prec - 2 * f.val),
    "add_unit": (
        lambda f, e, n: f + LaurentSeries(f.ctx, 0, UNIT, UNIT_PREC),
        lambda f, e, n: min(f.prec, UNIT_PREC),
    ),
    "mul_unit": (
        lambda f, e, n: f * LaurentSeries(f.ctx, 0, UNIT, UNIT_PREC),
        lambda f, e, n: min(f.prec, UNIT_PREC + f.val),
    ),
    "substitute": (
        lambda f, e, n: f.substitute(LaurentSeries(f.ctx, 1, UNIT, UNIT_PREC)),
        lambda f, e, n: min(f.prec, UNIT_PREC + f.val - 1),
    ),
    "pow": (lambda f, e, n: f ** e, lambda f, e, n: f.prec + (e - 1) * f.val),
    "nth_root": (lambda f, e, n: f.nth_root(n), lambda f, e, n: f.prec),
    "nth_root_negative": (lambda f, e, n: f.nth_root(-n), lambda f, e, n: f.prec),
    "derivative": (lambda f, e, n: f.derivative(), lambda f, e, n: f.prec - 1),
    "sub_unit": (
        lambda f, e, n: f - LaurentSeries(f.ctx, 0, UNIT, UNIT_PREC),
        lambda f, e, n: min(f.prec, UNIT_PREC),
    ),
    "neg": (lambda f, e, n: -f, lambda f, e, n: f.prec),
    "scale": (lambda f, e, n: f.scale(f.ctx.q - 1), lambda f, e, n: f.prec),
}


@pytest.mark.parametrize("op", SERIES_OPS)
@settings(max_examples=60, deadline=None)
@given(
    field=st.sampled_from([F3, F101, F4, F9]),
    val=st.integers(-4, 4),
    digits=st.lists(st.integers(0, 10**6), min_size=1, max_size=80),
    extra=st.integers(1, 40),
    e=st.sampled_from([-3, 2, 5]),
    n=st.sampled_from([2, 3, 4, 5, 7]),
)
def test_op_is_stable_under_added_precision(op, field, val, digits, extra, e, n):
    # the result at precision P is the result at P + k read modulo its
    # precision, and that precision is the documented one
    apply, documented = SERIES_OPS[op]
    coeffs = [d % field.q for d in digits]
    coeffs[0] = coeffs[0] or 1
    if op.startswith("nth_root"):  # a unit with constant term 1, index coprime to p
        assume(gcd(n, field.p) == 1)
        val, coeffs[0] = 0, 1
    prec = val + len(coeffs)
    low = LaurentSeries(field, val, coeffs, prec)
    high = LaurentSeries(field, val, coeffs + [d % field.q for d in digits[:extra]], prec + extra)
    low_out, high_out = apply(low, e, n), apply(high, e, n)
    assert low_out.prec == documented(low, e, n)
    assert high_out.truncate(low_out.prec).agrees(low_out)
    if op == "invert":
        assert (low_out * low).agrees(LaurentSeries.one(field, low_out.prec + val))


def test_product_rule():
    rng = random.Random(99)
    for ctx in (F2, F3, F5):
        for _ in range(50):
            f = random_series(ctx, rng, 14)
            g = random_series(ctx, rng, 14)
            lhs = (f * g).derivative()
            rhs = f.derivative() * g + f * g.derivative()
            assert lhs.agrees(rhs)


def test_precision_is_never_fabricated():
    f = series(F3, {0: 1, 1: 1}, 5)
    with pytest.raises(InsufficientPrecisionError):
        f.coefficient(5)
    with pytest.raises(InsufficientPrecisionError):
        f.truncate(6)
    g = f * LaurentSeries.monomial(F3, 2, 4)  # prec min(5 + 2, 4 + 0) = 4
    assert g.prec == 4
    assert (f - f).is_zero


def test_invert_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        LaurentSeries.zero(F3, 6).invert()
    with pytest.raises(ZeroDivisionError):
        LaurentSeries.zero(F3, 6) ** -1


def test_context_mismatch_rejected():
    with pytest.raises(ValueError):
        LaurentSeries.one(F3, 5) + LaurentSeries.one(F5, 5)


def test_scale_and_shift():
    f = series(F4, {0: 1, 1: 2}, 6)
    assert f.scale(2) == series(F4, {0: 2, 1: F4.mul(2, 2)}, 6)
    assert f.shift(3) == series(F4, {3: 1, 4: 2}, 9)


KERNEL_FIELDS = {
    "GF2": F2,
    "GF3": F3,
    "GF5": F5,
    "GF101": F101,
    "GF4": F4,
    "GF9": F9,
    "GF25": FieldCtx(5, (2, 0, 1)),
    "GF40009": FieldCtx(40009),
    "GF2^31-1": FieldCtx((1 << 31) - 1),
}


def random_nonzero_series(ctx, rng):
    """Leading coefficient nonzero; one code in five from the top codes,
    where int64 products of the large primes would overflow."""
    coeffs = [rng.randrange(ctx.q) if rng.random() < 0.8
              else ctx.q - 1 - rng.randrange(min(3, ctx.q)) for _ in range(rng.randint(1, 12))]
    coeffs[0] = coeffs[0] or 1
    val = rng.randint(-3, 3)
    return LaurentSeries(ctx, val, coeffs, val + len(coeffs) + rng.randint(0, 4))


@pytest.mark.parametrize("name", KERNEL_FIELDS)
@settings(max_examples=30, deadline=None)
@given(rng=st.randoms(use_true_random=True))
def test_product_matches_schoolbook_convolution(name, rng):
    ctx = KERNEL_FIELDS[name]
    f, g = random_nonzero_series(ctx, rng), random_nonzero_series(ctx, rng)
    val = f.val + g.val
    prec = min(f.prec + g.val, g.prec + f.val)
    expected = LaurentSeries(ctx, val, oracles.schoolbook_product(ctx, f.coeffs, g.coeffs), prec)
    product = f * g
    assert (product.val, product.coeffs, product.prec) == (
        expected.val, expected.coeffs, expected.prec)


# -- the array kernels of +, -, negation, scale, derivative, agrees and truncate --


def oracle_draw(ctx, rng):
    """A random series: one draw in five is the zero series, one in five is
    built from digits that all lie at or above prec, the rest mix leading and
    trailing zeros."""
    prec = rng.randint(-3, 14)
    kind = rng.randrange(5)
    if kind == 0:
        return LaurentSeries.zero(ctx, prec)
    val = prec + rng.randint(0, 3) if kind == 1 else rng.randint(prec - 12, prec - 1)
    digits = [rng.randrange(ctx.q) if rng.random() < 0.7 else 0 for _ in range(rng.randint(0, 14))]
    return LaurentSeries(ctx, val, digits, prec)


def from_dict(ctx, terms, prec):
    """The series of a term dict, keeping only the exponents below prec."""
    return LaurentSeries.from_terms(ctx, {e: c for e, c in terms.items() if e < prec}, prec)


def dict_sum(f, g, sign):
    """f + g (sign 1) or f - g (sign -1), term by term on the scalar field operations."""
    ctx, terms = f.ctx, dict(f.terms())
    for e, c in g.terms().items():
        terms[e] = ctx.add(terms.get(e, 0), c if sign > 0 else ctx.neg(c))
    return from_dict(ctx, terms, min(f.prec, g.prec))


ORACLE_FIELDS = (F2, F3, F101, F4, F9)


@pytest.mark.parametrize("ctx", ORACLE_FIELDS, ids=repr)
def test_elementwise_ops_match_term_dicts(ctx):
    rng = random.Random(1900 + ctx.q)
    seen = set()
    for _ in range(300):
        f, g = oracle_draw(ctx, rng), oracle_draw(ctx, rng)
        c = rng.randrange(ctx.q) if rng.random() < 0.8 else 0
        if f.is_zero:
            seen.add("zero")
        elif f.val >= g.prec:
            seen.add("val above the other prec")
        seen.add("scale by 0" if c == 0 else "scale by c")
        assert same_series(f + g, dict_sum(f, g, 1))
        assert same_series(f - g, dict_sum(f, g, -1))
        assert same_series(-f, from_dict(ctx, {e: ctx.neg(x) for e, x in f.terms().items()},
                                         f.prec))
        assert same_series(f.scale(c), from_dict(ctx, {e: ctx.mul(c, x)
                                                       for e, x in f.terms().items()}, f.prec))
        assert same_series(f.derivative(), from_dict(
            ctx, {e - 1: ctx.mul(ctx.embed(e), x) for e, x in f.terms().items()}, f.prec - 1))
        m = min(f.prec, g.prec)
        below = [{e: x for e, x in s.terms().items() if e < m} for s in (f, g)]
        assert f.agrees(g) == (below[0] == below[1])
        # random pairs rarely agree: (g + f) - g must, modulo the smaller precision
        assert f.agrees((g + f) - g)
        cut = rng.randint(f.prec - 15, f.prec)
        assert same_series(f.truncate(cut), from_dict(ctx, f.terms(), cut))
    built_above_prec = LaurentSeries(ctx, 6, [1, 1], 4)
    assert same_series(built_above_prec, LaurentSeries.zero(ctx, 4))
    assert seen == {"zero", "val above the other prec", "scale by 0", "scale by c"}


def test_elementwise_ops_make_no_scalar_field_call(monkeypatch):
    calls = []
    for name in ("add", "sub", "mul", "neg"):
        def counted(self, *args, _name=name, _op=getattr(FieldCtx, name)):
            calls.append(_name)
            return _op(self, *args)
        monkeypatch.setattr(FieldCtx, name, counted)
    rng = random.Random(19)
    for ctx in (F101, F4):
        f = LaurentSeries(ctx, -3, [rng.randrange(1, ctx.q) for _ in range(200)], 197)
        g = LaurentSeries(ctx, 2, [rng.randrange(1, ctx.q) for _ in range(150)], 190)
        c = ctx.q - 1
        _ = (f + g, f - g, -f, f.scale(c), f.derivative(), f.agrees(g), f * g)
    assert calls == []


def test_support_step_is_the_gcd_of_the_nonzero_indices():
    for digits, length, want in [
        ([3], 7, 7),  # only digit 0 is nonzero
        ([2, 0, 0, 0], 4, 4),
        ([1, 0, 0, 0, 5, 0, 1], 7, 2),
        ([1, 0, 0, 4, 0, 0, 0, 0, 0, 2], 10, 3),
        ([1, 1], 9, 1),
    ]:
        assert support_step(np.array(digits), length) == want
    rng = random.Random(20)
    for _ in range(200):
        digits = [rng.randrange(1, 5)] + [rng.randrange(5) * (rng.random() < 0.3)
                                          for _ in range(rng.randint(0, 30))]
        want = reduce(gcd, [i for i, d in enumerate(digits) if d], 0) or 41
        got = support_step(np.array(digits), 41)
        assert got == want and type(got) is int


BOUNDARY_FIELDS = (F3, F101, F4, FieldCtx(32771))  # the last one holds its codes as Python ints


@pytest.mark.parametrize("ctx", BOUNDARY_FIELDS, ids=repr)
def test_boundary_values_are_python_ints(ctx):
    f = LaurentSeries(ctx, -2, np.array([0, 1, 2, 0, ctx.q - 1, 0], dtype=np.int64), 9)
    one = LaurentSeries.one(ctx, 12)
    unit = one + LaurentSeries.monomial(ctx, 2, 12, ctx.q - 1)
    results = [f, f + one, f - one, -f, f.scale(ctx.q - 1), f.derivative(), f * f, f.invert(),
               f ** 3, f ** -2, unit.nth_root(2 if ctx.p != 2 else 3), f.shift(4), f.truncate(3)]
    for s in results:
        assert type(s.val) is int and type(s.prec) is int
        assert type(s.valuation()) is int
        assert all(type(c) is int for c in s.coeffs)
        assert all(type(s.coefficient(e)) is int for e in range(s.val - 1, s.prec))
        json.dumps([s.val, list(s.coeffs), s.prec])


def test_series_digits_are_read_only_and_private():
    source = [0, 1, 2, 3]
    s = LaurentSeries(F5, 0, source, 6)
    source[1] = 4
    array = np.array([1, 2, 3])
    a = LaurentSeries(F5, 0, array, 6)
    array[0] = 4
    assert (s.val, s.coeffs, a.coeffs) == (1, (1, 2, 3), (1, 2, 3))
    for series_ in (s, a, s.shift(2), s * a, s + a):
        with pytest.raises(ValueError):
            series_.digits[0] = 0
    # a series built from another's digits owns a copy of them
    b = LaurentSeries(F5, 0, a.digits, 6)
    assert b.digits is not a.digits and not np.shares_memory(b.digits, a.digits)


def test_every_public_field_and_series_name_serves_src_or_the_tracer():
    # one kernel per operation: each public FieldCtx method, and each public
    # function or class of laurent, has a caller in another module of the
    # package, or bench/tracer.py wraps it by name
    assert test_api_reach.unreached_field_and_series() == []
