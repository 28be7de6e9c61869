"""The order-24 automorphism group of y^2 + y = x^3 over GF(4), mechanized.

Automorphisms fixing the point at infinity are the triples
(u, r, t) with u in GF(4)^x, t^2 + t + r^3 = 0, acting by
(x, y) -> (u^2 x + r, y + u^2 r^2 x + t).  This module enumerates the
group, certifies its structure, computes the 2-dimensional action
matrices on the first de Rham cohomology (``derham_rep``; the commonly
stated matrices are kept as ``rep`` and flagged as not multiplicative),
derives the indecomposability certificate, and measures the ramification
filtration at infinity from honest Laurent expansions of the coordinate
functions.

Ground truth for ramification is the series computation: the widely
quoted order-2 value for the central involution is contradicted both by
the series and by the symbolic closed form g(t) - t = x^(-2), and the
filtration report flags the discrepancy instead of asserting either
value blindly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple

from wildcoh.gf import FieldCtx
from wildcoh.laurent import InsufficientPrecisionError, LaurentSeries
from wildcoh.modrep import GroupTable

F4 = FieldCtx(2, (1, 1, 1))
OMEGA = 2  # code of the generator w, w^2 + w + 1 = 0
DEFAULT_PREC = 32


class AutTriple(NamedTuple):
    """Automorphism parameters (u, r, t), as GF(4) codes."""

    u: int
    r: int
    t: int

    def is_valid(self) -> bool:
        u_ok = self.u != 0
        lhs = F4.add(F4.add(F4.mul(self.t, self.t), self.t), F4.pow(self.r, 3))
        return u_ok and lhs == 0


IDENTITY = AutTriple(1, 0, 0)


def enumerate_group() -> list[AutTriple]:
    """All 24 automorphism triples, in a fixed enumeration order."""
    out = []
    for u in range(1, 4):
        for r in range(4):
            for t in range(4):
                g = AutTriple(u, r, t)
                if g.is_valid():
                    out.append(g)
    return out


def compose(g: AutTriple, h: AutTriple) -> AutTriple:
    """Triple of the map P -> g(h(P))."""
    mul, add = F4.mul, F4.add
    u = mul(g.u, h.u)
    u2 = mul(g.u, g.u)
    r = add(mul(u2, h.r), g.r)
    t = add(add(h.t, mul(mul(u2, mul(g.r, g.r)), h.r)), g.t)
    return AutTriple(u, r, t)


@lru_cache(maxsize=None)
def group_table() -> GroupTable:
    return GroupTable(enumerate_group(), compose)


def rep(g: AutTriple) -> list[list[int]]:
    """Stated 2x2 action matrix [[u^2, u^2 t], [0, u]] on (v1, v2).

    This is the formula commonly quoted for the action, kept as stated so
    that its failure stays on record: it is not multiplicative (see
    rep_homomorphism_check) and so is not the action on cohomology, which
    is derham_rep.
    """
    u2 = F4.mul(g.u, g.u)
    return [[u2, F4.mul(u2, g.t)], [0, g.u]]


def derham_rep(g: AutTriple) -> list[list[int]]:
    """Matrix [[u, u^2 r], [0, u^2]] of g_* = (g^-1)^* on H^1_dR in (v1, v2).

    Derivation, in the Cech model of the cover U = X - {inf}, where
    O(U) = k[x, y], and the formal neighbourhood k((tau)) of infinity with
    tau = x/y (see expand_at_infinity).  A class is a triple
    (w_U, w_inf, f) with w_U - w_inf = df; coboundaries are
    (dh_U, dh_inf, h_U - h_inf).

    * v1 = [(dx, dx, 0)] spans H^0(Omega): dx is regular and nowhere zero.
    * v2 = [(x dx, x/(y+1) dx, y/x)] lifts tau^-1 = y/x, which spans
      H^1(O) = k((tau)) / (k[x, y] + k[[tau]]); it is a cocycle because
      d(y/x) = (y^2/x^2) dx = (x + x/(y+1)) dx.
    * Pull-backs: g^*(dx) = u^2 dx, so g^* v1 = u^2 v1.  Further
      g^*(x dx) = u x dx + u^2 r dx, and f = g^*(y/x) - u y/x is regular
      at infinity, so g^* v2 - u v2 - u^2 r v1 = (0, df, f) is the
      coboundary of h_U = 0, h_inf = f.  Hence g^* v2 = u^2 r v1 + u v2.
    * g -> g^* is an anti-homomorphism, g -> g_* = (g^-1)^* a homomorphism;
      with g^-1 = (u^2, u r, t + r^3) the matrix of g^* turns into the
      one returned here.

    The stated formula rep is the matrix of g^* with t where r belongs.
    The kernel here is {id, (1, 0, 1)}: the central involution is [-1],
    which acts as -1 = 1 on H^1_dR of an elliptic curve.
    """
    u2 = F4.mul(g.u, g.u)
    return [[g.u, F4.mul(u2, g.r)], [0, u2]]


MatrixFn = Callable[[AutTriple], list[list[int]]]


@dataclass
class RepHomomorphismCheck:
    holds: bool
    pairs_checked: int
    failures: list[tuple[AutTriple, AutTriple]]


def rep_homomorphism_check(matrix: MatrixFn) -> RepHomomorphismCheck:
    """Exhaustively test matrix(g o h) = matrix(g) matrix(h) over all pairs.

    The check fails for the stated formula rep: on the u = 1 subgroup its
    matrices depend only on t and commute, while the subgroup itself is
    the nonabelian quaternion group, so e.g. rep(g)^2 = id for
    g = (1, 1, w) although g o g is the central involution whose stated
    matrix is a nontrivial Jordan block.  It holds for derham_rep.
    """
    table = group_table()
    elements = table.elements
    mats = F4.array([matrix(g) for g in elements])
    # every product matrix(g) matrix(h) in one call: g along axis 0, h along axis 1
    products = F4.matmul(mats[:, None], mats[None, :])
    bad = (products != mats[table.cayley]).any(axis=(2, 3))
    failures = [(elements[i], elements[j]) for i, j in zip(*bad.nonzero())]  # g-major
    return RepHomomorphismCheck(
        holds=not failures, pairs_checked=len(elements) ** 2, failures=failures
    )


def rep_kernel(matrix: MatrixFn) -> list[AutTriple]:
    """Elements whose matrix is the identity."""
    return [g for g in group_table().elements if matrix(g) == [[1, 0], [0, 1]]]


@dataclass
class IndecomposabilityCertificate:
    """Witnesses that span(v1) is the only stable line, over any extension.

    A complementary stable line span(alpha v1 + v2) would need
    (m11 - m00) alpha = m01 for the matrix m of every element; any witness
    with m00 = m11 and m01 != 0 makes the system inconsistent independently
    of alpha and of the coefficient field.  Under derham_rep the witnesses
    are the six elements with u = 1 and r != 0.
    """

    witnesses: list[AutTriple]
    q8_witnesses: list[AutTriple]
    indecomposable: bool


def indecomposability_certificate(matrix: MatrixFn) -> IndecomposabilityCertificate:
    """Certificate for the matrices given."""
    mats = {g: matrix(g) for g in group_table().elements}
    stable = all(m[1][0] == 0 for m in mats.values())
    witnesses = []
    for g, m in mats.items():
        coeff = F4.sub(m[1][1], m[0][0])  # (m11 - m00) alpha = m01
        if coeff == 0 and m[0][1] != 0:
            witnesses.append(g)
    q8_witnesses = [g for g in witnesses if g.u == 1]
    return IndecomposabilityCertificate(
        witnesses=witnesses,
        q8_witnesses=q8_witnesses,
        indecomposable=stable and bool(witnesses),
    )


@lru_cache(maxsize=None)
def expand_at_infinity(prec: int = DEFAULT_PREC) -> tuple[LaurentSeries, LaurentSeries]:
    """Laurent expansions (x, y) in the uniformizer t = x/y at infinity.

    y = t^-3 (1 + w) and x = t y, where w solves w^2 + w = t^3; the
    defining equation is re-verified to the working precision.
    """
    if prec < 16:
        raise ValueError("precision below 16 cannot separate the filtration steps")
    wp = prec + 9
    cube = LaurentSeries.monomial(F4, 3, wp)
    w = LaurentSeries.zero(F4, wp)
    while True:
        nxt = cube + w * w
        if nxt.agrees(w):
            break
        w = nxt
    y = (LaurentSeries.one(F4, wp) + w).shift(-3)
    x = y.shift(1)
    residue = y * y + y - x * x * x
    if not residue.is_zero:
        raise RuntimeError("expansion does not satisfy y^2 + y = x^3")
    if x.valuation() != -2 or y.valuation() != -3:
        raise RuntimeError("expansion has wrong pole orders")
    return x, y


def ramification_order(g: AutTriple, prec: int = DEFAULT_PREC) -> int:
    """ord of g(t) - t at infinity; raises when it is 0 to the given precision."""
    if g == IDENTITY:
        raise ValueError("ramification order is only defined for g != id")
    x, y = expand_at_infinity(prec)
    u2 = F4.mul(g.u, g.u)
    gx = x.scale(u2) + LaurentSeries.monomial(F4, 0, x.prec, g.r)
    gy = y + x.scale(F4.mul(u2, F4.mul(g.r, g.r))) + LaurentSeries.monomial(
        F4, 0, y.prec, g.t
    )
    gt = gx * gy.invert()
    diff = gt - LaurentSeries.monomial(F4, 1, gt.prec)
    if diff.is_zero:
        raise InsufficientPrecisionError(
            f"precision {prec} cannot distinguish g(t) from t for {tuple(g)}"
        )
    return diff.valuation()


@dataclass
class FiltrationReport:
    """Ramification filtration at infinity plus structural certificates."""

    group_order: int
    sylow2_structure: str
    stable_lines: int | None  # None when the certificate cannot pin the count
    indecomposable: bool
    filtration: list[dict]
    ramification_orders: dict[AutTriple, int] = field(repr=False)
    paper_discrepancies: list[str] = field(default_factory=list)

    def filtration_sizes(self) -> list[int]:
        return [entry["size"] for entry in self.filtration]

    def to_dict(self) -> dict:
        return {
            "group_order": self.group_order,
            "sylow2_structure": self.sylow2_structure,
            "stable_lines": self.stable_lines,
            "indecomposable": self.indecomposable,
            "filtration": self.filtration,
            "paper_discrepancies": self.paper_discrepancies,
        }


def filtration_report() -> FiltrationReport:
    """Sizes of the higher ramification groups at infinity, with flags.

    G_i consists of the identity together with every g whose g(t) - t has
    order at least i + 1; the report compares the computed orders with
    the claimed uniform value 2 on the u = 1 subgroup and records any
    divergence instead of silently adopting either side.  The orders are
    read at DEFAULT_PREC; check 7d re-reads the involution's at 48.
    """
    table = group_table()
    elements = table.elements
    orders = {g: ramification_order(g) for g in elements if g != IDENTITY}
    max_order = max(orders.values())
    filtration = []
    for i in range(0, max_order + 1):
        size = 1 + sum(1 for o in orders.values() if o >= i + 1)
        filtration.append({"i": i, "size": size})
        if size == 1:
            break

    sylow = [g for g in elements if g.u == 1]
    order_counts = Counter(table.element_order(g) for g in sylow)
    is_q8 = len(sylow) == 8 and order_counts == {1: 1, 2: 1, 4: 6}

    discrepancies = []
    wrong_u1 = sorted(g for g, o in orders.items() if g.u == 1 and o != 2)
    if wrong_u1:
        discrepancies.append(
            "claimed ord(g(t) - t) = 2 for every u = 1 element; computed "
            + ", ".join(f"{tuple(g)} -> {orders[g]}" for g in wrong_u1)
        )
    depth2 = [g for g, o in orders.items() if o >= 3]
    if depth2:
        discrepancies.append(
            "claimed G_2 = 0; computed G_2 = {id} + "
            + ", ".join(str(tuple(g)) for g in sorted(depth2))
        )
    hom = rep_homomorphism_check(rep)
    if not hom.holds:
        g_bad, h_bad = hom.failures[0]
        discrepancies.append(
            "stated 2x2 action matrices are not multiplicative: "
            f"{hom.pairs_checked - len(hom.failures)}/{hom.pairs_checked} pairs "
            f"compose correctly, first failure at {tuple(g_bad)} o {tuple(h_bad)}"
        )

    cert = indecomposability_certificate(derham_rep)
    return FiltrationReport(
        group_order=len(elements),
        sylow2_structure="Q8" if is_q8 else "unexpected",
        stable_lines=1 if cert.indecomposable else None,
        indecomposable=cert.indecomposable,
        filtration=filtration,
        ramification_orders=orders,
        paper_discrepancies=discrepancies,
    )
