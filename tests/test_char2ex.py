"""The order-24 automorphism group of y^2 + y = x^3 and its invariants.

Ramification orders come from honest series arithmetic; the involution's
order 4 is cross-checked against the symbolic closed form x^-2 and, as an
independent global oracle, against Riemann-Hurwitz for the quotient map,
which only balances with the computed filtration.
"""

import math
import random

import pytest

from wildcoh import acceptance, char2ex, linalg
from wildcoh.char2ex import F4, IDENTITY, OMEGA, AutTriple
from wildcoh.laurent import InsufficientPrecisionError, LaurentSeries

import oracles

OMEGA2 = 3


def conjugacy_classes():
    elements = char2ex.enumerate_group()
    inverse = char2ex.group_table().inverse
    remaining = set(elements)
    classes = []
    for g in elements:
        if g not in remaining:
            continue
        cls = {char2ex.compose(char2ex.compose(h, g), inverse(h)) for h in elements}
        classes.append(sorted(cls))
        remaining -= cls
    return classes


def test_enumeration():
    group = char2ex.enumerate_group()
    assert len(group) == 24
    assert len(set(group)) == 24
    assert all(g.is_valid() for g in group)
    assert sorted(g.t for g in group if g.r == 0 and g.u == 1) == [0, 1]
    assert sum(1 for g in group if g.u == 1) == 8


def test_compose_worked_values():
    inv = AutTriple(1, 0, 1)
    assert char2ex.compose(inv, inv) == IDENTITY
    w = AutTriple(OMEGA, 0, 0)
    assert char2ex.compose(char2ex.compose(w, w), w) == IDENTITY


def test_closure_and_group_axioms():
    group = char2ex.enumerate_group()
    members = set(group)
    for g in group:
        for h in group:
            assert char2ex.compose(g, h) in members
    rng = random.Random(11)
    for _ in range(10000):
        g, h, k = (group[rng.randrange(24)] for _ in range(3))
        assert char2ex.compose(char2ex.compose(g, h), k) == char2ex.compose(
            g, char2ex.compose(h, k)
        )
    table = char2ex.group_table()
    for g in group:
        assert char2ex.compose(g, table.inverse(g)) == IDENTITY
        assert char2ex.compose(table.inverse(g), g) == IDENTITY


def test_inverse_closed_form():
    # g^-1 = (u^2, u r, t + r^3), the inverse derham_rep's docstring derives from
    table = char2ex.group_table()
    for g in table.elements:
        closed = AutTriple(F4.mul(g.u, g.u), F4.mul(g.u, g.r), F4.add(g.t, F4.pow(g.r, 3)))
        assert table.inverse(g) == closed, g
    assert len(table.elements) == 24


def test_rep_matrices():
    assert char2ex.rep(AutTriple(1, 0, 1)) == [[1, 1], [0, 1]]
    squared = linalg.mat_mul(F4, char2ex.rep(AutTriple(1, 0, 1)), char2ex.rep(AutTriple(1, 0, 1)))
    assert squared == oracles.identity(2)
    w_mat = char2ex.rep(AutTriple(OMEGA, 0, 0))
    assert w_mat == [[OMEGA2, 0], [0, OMEGA]]
    cubed = linalg.mat_mul(F4, linalg.mat_mul(F4, w_mat, w_mat), w_mat)
    assert cubed == oracles.identity(2)


def test_rep_is_not_a_homomorphism():
    # independent minimal counterexample, convention-free because it is a
    # self-composition: g o g is the central involution for g = (1, 1, w),
    # but rep(g)^2 is the identity while rep(g o g) is a Jordan block
    g = AutTriple(1, 1, OMEGA)
    assert char2ex.compose(g, g) == AutTriple(1, 0, 1)
    assert linalg.mat_mul(F4, char2ex.rep(g), char2ex.rep(g)) == oracles.identity(2)
    assert char2ex.rep(AutTriple(1, 0, 1)) != oracles.identity(2)

    check = char2ex.rep_homomorphism_check(char2ex.rep)
    assert not check.holds
    assert check.pairs_checked == 576
    assert (g, g) in check.failures


@pytest.mark.parametrize("matrix", [char2ex.rep, char2ex.derham_rep], ids=["rep", "derham_rep"])
def test_rep_homomorphism_failures_match_brute_force(matrix):
    group = char2ex.enumerate_group()
    expected = [(g, h) for g in group for h in group
                if matrix(char2ex.compose(g, h)) != linalg.mat_mul(F4, matrix(g), matrix(h))]
    check = char2ex.rep_homomorphism_check(matrix)
    assert check.failures == expected  # the same pairs in the same g-major order
    assert check.holds == (matrix is char2ex.derham_rep)


def test_criterion_7_and_8c_compose_each_pair_once(monkeypatch):
    calls = []
    compose = char2ex.compose

    def counting(g, h):
        calls.append((g, h))
        return compose(g, h)

    char2ex.group_table.cache_clear()
    monkeypatch.setattr(char2ex, "compose", counting)
    try:
        assert all(r.passed for r in acceptance.criterion_7())
        assert acceptance._order24_averaging_check()
    finally:
        char2ex.group_table.cache_clear()  # drop the table that holds the counter
    assert len(calls) == len(set(calls)) == 576


def test_rep_kernel_is_trivial():
    assert char2ex.rep_kernel(char2ex.rep) == [IDENTITY]


def _pullback_matrix_by_series(g, x, y):
    """Matrix of g^* on (v1, v2) solved from expansions at infinity.

    v1 = (dx, dx, 0) and v2 = (x dx, x/(y+1) dx, y/x) in the Cech model of
    X - {inf} and k((tau)); differentials are stored as their d/dtau
    coefficient.  Every coboundary equation behind the matrix is asserted.
    """
    prec = x.prec

    def const(c):
        return LaurentSeries.monomial(F4, 0, prec, c)

    dx = x.derivative()
    w_inf = x * (y + const(1)).invert() * dx
    tau_inv = y * x.invert()
    # v2 is a cocycle, regular at infinity, lifting tau^-1
    assert tau_inv == LaurentSeries.monomial(F4, -1, tau_inv.prec)
    assert (x * dx - w_inf - tau_inv.derivative()).is_zero
    assert w_inf.valuation() >= 0

    u2 = F4.mul(g.u, g.u)
    gx = x.scale(u2) + const(g.r)
    gy = y + x.scale(F4.mul(u2, F4.mul(g.r, g.r))) + const(g.t)
    gdx = gx.derivative()
    # g^* v1 = c v1
    c = F4.mul(gdx.coefficient(0), F4.inv(dx.coefficient(0)))
    assert (gdx - dx.scale(c)).is_zero
    # the H^1(O) component of g^* v2 is the tau^-1 coefficient of g^*(y/x)
    g_tau_inv = gy * gx.invert()
    assert g_tau_inv.valuation() >= -1
    b = g_tau_inv.coefficient(-1)
    f = g_tau_inv - tau_inv.scale(b)
    assert f.is_zero or f.valuation() >= 0
    # affine component: g^*(x dx) - b x dx = a dx exactly (h_U = 0)
    ratio = (gx * gdx - (x * dx).scale(b)) * dx.invert()
    a = ratio.coefficient(0)
    assert (ratio - const(a)).is_zero
    # component at infinity: g^* w_inf - b w_inf - a dx = d(f) (h_inf = f)
    g_w_inf = gx * (gy + const(1)).invert() * gdx
    assert (g_w_inf - w_inf.scale(b) - dx.scale(a) - f.derivative()).is_zero
    return [[c, a], [0, b]]


def test_derham_rep_matches_series_oracle():
    x, y = char2ex.expand_at_infinity(32)
    group = char2ex.enumerate_group()
    pullback = {g: _pullback_matrix_by_series(g, x, y) for g in group}
    # g_* = (g^-1)^* is the action whose closed form derham_rep states
    series_rep = {g: pullback[char2ex.group_table().inverse(g)] for g in group}
    for g in group:
        assert series_rep[g] == char2ex.derham_rep(g), g
    kernel = [g for g in group if series_rep[g] == oracles.identity(2)]
    assert kernel == [IDENTITY, AutTriple(1, 0, 1)]
    check = char2ex.rep_homomorphism_check(series_rep.__getitem__)
    assert check.holds and check.pairs_checked == 576


def test_indecomposability_certificate():
    cert = char2ex.indecomposability_certificate(char2ex.rep)
    # span(v1) is stable: no element moves it off itself
    assert all(char2ex.rep(g)[1][0] == 0 for g in char2ex.enumerate_group())
    assert cert.indecomposable
    assert AutTriple(1, 0, 1) in cert.witnesses
    for zeta in (OMEGA, OMEGA2):
        assert AutTriple(1, 1, zeta) in cert.witnesses
    # the u = 1 (quaternion) restriction is already inconsistent
    assert cert.q8_witnesses


def test_expansion_at_infinity():
    x, y = char2ex.expand_at_infinity(32)
    assert x.valuation() == -2
    assert y.valuation() == -3
    # w = t^3 + t^6 + t^12 + ... gives y = t^-3 + 1 + t^3 + t^9 + ...
    for e, c in ((-3, 1), (0, 1), (3, 1), (9, 1)):
        assert y.coefficient(e) == c
    assert y.coefficient(6) == 0
    residue = y * y + y - x * x * x
    assert residue.is_zero
    with pytest.raises(ValueError):
        char2ex.expand_at_infinity(8)


def test_ramification_orders():
    assert char2ex.ramification_order(AutTriple(OMEGA, 0, 0)) == 1
    for zeta in (OMEGA, OMEGA2):
        assert char2ex.ramification_order(AutTriple(1, 1, zeta)) == 2
    assert char2ex.ramification_order(AutTriple(1, 0, 1)) == 4
    with pytest.raises(ValueError):
        char2ex.ramification_order(IDENTITY)


def test_involution_order_matches_symbolic_form_at_two_precisions():
    # symbolic evaluation of g(t) - t at (1, 0, 1): numerator x, denominator
    # y^2 + y = x^3, so the difference is x^-2 of order 4
    x, _ = char2ex.expand_at_infinity(32)
    assert (x ** -2).valuation() == 4
    assert char2ex.ramification_order(AutTriple(1, 0, 1), prec=16) == 4
    assert char2ex.ramification_order(AutTriple(1, 0, 1), prec=32) == 4


def test_order_hidden_by_precision_raises(monkeypatch):
    # expand_at_infinity refuses prec < 16, where every order is visible, so
    # hand ramification_order an expansion cut to O(t^1), O(t^0) instead:
    # g(t) - t is then known only mod t^4, and (1, 0, 1) has order 4
    x, y = char2ex.expand_at_infinity(16)
    monkeypatch.setattr(char2ex, "expand_at_infinity", lambda prec: (x.truncate(1), y.truncate(0)))
    assert char2ex.ramification_order(AutTriple(OMEGA, 0, 0)) == 1
    with pytest.raises(InsufficientPrecisionError, match="cannot distinguish"):
        char2ex.ramification_order(AutTriple(1, 0, 1))


def test_order_counts_per_case():
    group = char2ex.enumerate_group()
    orders = {g: char2ex.ramification_order(g) for g in group if g != IDENTITY}
    assert sum(1 for g, o in orders.items() if g.u != 1) == 16
    assert all(o == 1 for g, o in orders.items() if g.u != 1)
    six = [g for g in orders if g.u == 1 and g.r != 0]
    assert len(six) == 6 and all(orders[g] == 2 for g in six)
    assert all(o is not math.inf for o in orders.values())


def test_ramification_constant_on_conjugacy_classes():
    for cls in conjugacy_classes():
        if cls == [IDENTITY]:
            continue
        orders = {char2ex.ramification_order(g) for g in cls}
        assert len(orders) == 1


def test_filtration_report():
    report = char2ex.filtration_report()
    assert report.group_order == 24
    assert report.filtration_sizes() == [24, 8, 2, 2, 1]
    assert report.sylow2_structure == "Q8"
    assert report.indecomposable
    assert any("G_2" in flag for flag in report.paper_discrepancies)
    assert any("ord(g(t) - t) = 2" in flag for flag in report.paper_discrepancies)
    assert any("not multiplicative" in flag for flag in report.paper_discrepancies)
    payload = report.to_dict()
    assert payload["filtration"][0] == {"i": 0, "size": 24}


def test_sylow_has_single_involution():
    table = char2ex.group_table()
    sylow = [g for g in table.elements if g.u == 1]
    counts = {}
    for g in sylow:
        counts[table.element_order(g)] = counts.get(table.element_order(g), 0) + 1
    assert counts == {1: 1, 2: 1, 4: 6}


def test_riemann_hurwitz_balances_only_with_computed_filtration():
    # quotient of the elliptic curve by all 24 automorphisms is rational;
    # besides infinity, the eight affine GF(4)-points form one orbit with
    # tame stabilizers of order 3 (conductor 2 each)
    sizes = char2ex.filtration_report().filtration_sizes()
    d_infinity = sum(s - 1 for s in sizes)
    assert d_infinity == 32
    total = 24 * (2 * 0 - 2) + d_infinity + 8 * 2
    assert total == 2 * 1 - 2
    # the claimed filtration [24, 8, 1] would give conductor 30 and not balance
    assert 24 * (2 * 0 - 2) + 30 + 8 * 2 != 0
