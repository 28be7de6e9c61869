"""Executable acceptance suite: every release gate as a named check.

Each criterion returns CheckResult records so the CLI and the test suite
share one implementation.  Checks are deterministic for a fixed seed.

One check is expected to FAIL because the claim it encodes is
mathematically false; it is kept as stated, with a concrete counterexample
in its detail string, rather than being weakened to pass:

* 8b asserts that right-exactness of invariants forces an exact sequence
  of cyclic-p-group modules to split (refuted by explicit non-split
  sequences with right-exact invariants).

Check 7b tests the computed action of the order-24 group on H^1_dR
(char2ex.derham_rep); the commonly stated matrices (char2ex.rep) are not
multiplicative, which the char2 filtration report flags.  The README
section "Deliberately failing checks" documents both analyses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from wildcoh import ascover, char2ex, cohom, modrep, profile
from wildcoh.char2ex import F4, OMEGA, AutTriple
from wildcoh.gf import FieldCtx
from wildcoh.modrep import CyclicModule

DEFAULT_SEED = 287

PRIMES = (2, 3, 5, 7)
JUMPS = tuple(range(1, 10))


@dataclass
class CheckResult:
    criterion: str
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        tail = f" ({self.detail})" if self.detail else ""
        return f"{status} criterion {self.criterion}: {self.name}{tail}"


def _grid() -> list[tuple[int, int]]:
    return [(p, n) for p in PRIMES for n in JUMPS if n % p != 0]


def criterion_1(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Lattice H^1 dimension equals the closed form on the whole grid."""
    mismatches = []
    cases = 0
    for p, n in _grid():
        cov = cohom.cached_cover(p, n)
        for a in range(-3, n + 4):
            cases += 1
            got = cohom.h1_lattice(cov, a).dim
            want = cohom.h1_closed_form(p, n, a)
            if got != want:
                mismatches.append((p, n, a, got, want))
    return [
        CheckResult(
            "1",
            "local H^1 oracle equivalence",
            not mismatches,
            f"{cases} cases" + (f", mismatches: {mismatches[:5]}" if mismatches else ""),
        )
    ]


def criterion_2(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Differential-image rank equals the closed form on the (p, n) grid."""
    mismatches = []
    for p, n in _grid():
        got = cohom.d_image_rank(cohom.cached_cover(p, n))
        want = cohom.d_image_closed_form(p, n)
        if got != want:
            mismatches.append((p, n, got, want))
    return [
        CheckResult(
            "2",
            "d-image oracle equivalence",
            not mismatches,
            f"{len(_grid())} cases" + (f", mismatches: {mismatches}" if mismatches else ""),
        )
    ]


def criterion_3(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Per-point defect term vanishes exactly for n = 1 when p > 2; always for p = 2."""
    bad = []
    for p in (3, 5, 7):
        for n in range(1, 16):
            if n % p == 0:
                continue
            term = cohom.d_image_closed_form(p, n)
            if (term == 0) != (n == 1):
                bad.append((p, n, term))
    for n in range(1, 16, 2):
        if cohom.d_image_closed_form(2, n) != 0:
            bad.append((2, n))
    return [
        CheckResult(
            "3",
            "defect term zero iff n = 1 (p > 2); p = 2 exception",
            not bad,
            f"violations: {bad}" if bad else "n in 1..15",
        )
    ]


def _random_profiles(rng: random.Random, count: int = 50) -> list[profile.RamificationProfile]:
    out = []
    while len(out) < count:
        p = rng.choice(PRIMES)
        jumps = tuple(
            rng.choice([n for n in JUMPS if n % p != 0])
            for _ in range(rng.randint(0, 4))
        )
        prof = profile.RamificationProfile(p=p, g_y=rng.randint(0, 3), jumps=jumps)
        try:
            profile.genus_upstairs(prof)
        except ValueError:
            continue
        out.append(prof)
    return out


def criterion_4(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Global defect equals the sum of per-point linear-algebra ranks."""
    rng = random.Random(seed)
    profiles = _random_profiles(rng)
    bad = []
    for prof in profiles:
        formula = profile.defect(prof)
        ranks = profile.defect_by_linear_algebra(prof)
        if formula != ranks:
            bad.append((prof.to_dict(), formula, ranks))
    return [
        CheckResult(
            "4",
            "defect identity, formula vs per-point ranks",
            not bad,
            f"{len(profiles)} random profiles" + (f", failures: {bad[:3]}" if bad else ""),
        )
    ]


def criterion_5(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Three-route dimension concordance plus the worked instance."""
    rng = random.Random(seed)
    failures = []
    for prof in _random_profiles(rng):
        try:
            report = profile.dims(prof)
        except AssertionError as exc:
            failures.append((prof.to_dict(), str(exc)))
            continue
        if report.h1_dr_inv != report.h0_omega_inv + report.h1_o_inv - report.defect:
            failures.append((prof.to_dict(), "defect identity violated"))
    worked = profile.dims(profile.RamificationProfile(3, 1, (2,)))
    instance_ok = (
        worked.h0_omega_inv,
        worked.h1_o_inv,
        worked.h1_dr_inv,
        worked.defect,
    ) == (2, 2, 3, 1)
    results = [
        CheckResult(
            "5",
            "dimension-formula concordance on random profiles",
            not failures,
            f"failures: {failures[:3]}" if failures else "50 profiles, three routes agree",
        ),
        CheckResult(
            "5",
            "worked instance (p=3, gY=1, jumps=[2]) -> (2, 2, 3, 1)",
            instance_ok,
            f"got ({worked.h0_omega_inv}, {worked.h1_o_inv}, {worked.h1_dr_inv}, {worked.defect})",
        ),
    ]
    return results


def criterion_6(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Normal-form identities of the local cover, to precision, on the grid."""
    failures = []
    for p, n in _grid():
        cov = cohom.cached_cover(p, n)
        try:
            ascover.verify_normal_form(cov)
        except ascover.NormalFormError as exc:
            failures.append((p, n, str(exc)))
            continue
        check = ascover.invariant_differential_check(cov)
        if not check.ok:
            failures.append((p, n, "; ".join(check.failures)))
        cov.window(1, 1 - ascover.least_window(p, n)).verify_order()
    return [
        CheckResult(
            "6",
            "normal-form and invariant-differential identities",
            not failures,
            f"failures: {failures[:3]}" if failures else f"{len(_grid())} (p, n) pairs",
        )
    ]


def criterion_7(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Characteristic-2 counterexample, split into its separately testable claims."""
    results = []

    table = char2ex.group_table()
    # building the table composed every pair and found each product in the group
    closure_ok = table.cayley.shape == (24, 24)
    results.append(
        CheckResult("7a", "group order 24 with exhaustive closure", closure_ok, "576 products")
    )

    hom = char2ex.rep_homomorphism_check(char2ex.derham_rep)
    kernel = char2ex.rep_kernel(char2ex.derham_rep)
    detail = f"{hom.pairs_checked} pairs, kernel {[tuple(g) for g in kernel]}"
    if not hom.holds:
        g, h = hom.failures[0]
        detail = (
            f"{len(hom.failures)}/{hom.pairs_checked} pairs fail, first at "
            f"{tuple(g)} o {tuple(h)}"
        )
    results.append(
        CheckResult("7b", "H^1_dR action homomorphism on all 576 pairs", hom.holds, detail)
    )

    cert = char2ex.indecomposability_certificate(char2ex.derham_rep)
    cert_ok = (
        cert.indecomposable
        and AutTriple(1, 1, OMEGA) in cert.witnesses
        and AutTriple(1, 0, 1) not in cert.witnesses
        and bool(cert.q8_witnesses)
    )
    results.append(
        CheckResult(
            "7c",
            "indecomposability certificate with witness (1, 1, w), not (1, 0, 1)",
            cert_ok,
            f"{len(cert.witnesses)} witnesses, Q8 restriction already inconsistent",
        )
    )

    report = char2ex.filtration_report()
    orders = report.ramification_orders
    sixteen = [g for g in orders if g.u != 1]
    six = [g for g in orders if g.u == 1 and g.r != 0]
    involution = AutTriple(1, 0, 1)
    x, _ = char2ex.expand_at_infinity()
    symbolic = (x ** -2).valuation()
    ram_ok = (
        len(sixteen) == 16
        and all(orders[g] == 1 for g in sixteen)
        and len(six) == 6
        and all(orders[g] == 2 for g in six)
        and orders[involution] == 4
        and symbolic == 4
        and orders[involution] == char2ex.ramification_order(involution, prec=48)
    )
    flagged = any("ord(g(t) - t) = 2" in f for f in report.paper_discrepancies)
    results.append(
        CheckResult(
            "7d",
            "ramification orders 1 (u != 1), 2 (u = 1, r != 0), involution 4 = ord x^-2",
            ram_ok and flagged,
            "divergence from the claimed uniform 2 is flagged in the report",
        )
    )

    sizes = report.filtration_sizes()
    results.append(
        CheckResult(
            "7e",
            "filtration sizes [24, 8, 2, 2, 1]",
            sizes == [24, 8, 2, 2, 1],
            f"got {sizes}",
        )
    )
    return results


def _order24_averaging_check() -> bool:
    table = char2ex.group_table()
    sylow = [g for g in table.elements if g.u == 1]
    regular = table.regular_representation()
    ident = np.eye(table.order, dtype=np.int64)
    on_total = {g: np.kron(np.eye(2, dtype=np.int64), m) for g, m in regular.items()}
    projection = np.hstack([np.zeros_like(ident), ident])
    # P-equivariant but not G-equivariant: project onto the P-coset of the identity
    psi = np.diag([int(h in sylow) for h in table.elements])
    section = np.vstack([psi, ident])
    averaged = modrep.average_section(table, sylow, section, ctx=F4, on_total=on_total,
                                      on_quotient=regular, projection=projection)
    return len(averaged) == 2 * table.order


def criterion_8(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Splitting criterion equivalence on random triples; Maschke averaging.

    Check 8b asserts the forward implication (invariants additive implies
    splits) over the seeded sample.  That implication is false: already
    over k[Z/3] the non-split sequence 0 -> J2 -> J3 + J1 -> J2 -> 0 has
    right-exact invariants (1 + 1 = 2), so 8b is expected to FAIL with
    the counterexamples it finds; see the README section "Deliberately
    failing checks".
    """
    rng = random.Random(seed)
    backward_bad = []
    forward_bad = []
    split_seen = nonsplit_seen = 0
    for q, p in ((3, 3), (4, 2), (5, 5), (8, 2), (9, 3)):
        ctx = FieldCtx(p)
        for _ in range(200):
            triple = modrep.random_exact_triple(ctx, q, rng)
            s = modrep.splits(triple)
            add = modrep.invariants_additive(triple)
            split_seen += s
            nonsplit_seen += not s
            if s and not add:
                backward_bad.append((q, triple.b.sigma, triple.a_basis))
            if add and not s:
                forward_bad.append((q, triple.b.sigma, triple.a_basis))
    results = [
        CheckResult(
            "8a",
            "splits => invariants additive",
            bool(not backward_bad and split_seen and nonsplit_seen),
            f"1000 triples ({split_seen} split, {nonsplit_seen} non-split)"
            + (f"; failures: {backward_bad[:2]}" if backward_bad else ""),
        ),
        CheckResult(
            "8b",
            "invariants additive => splits",
            not forward_bad,
            f"{len(forward_bad)} counterexamples in 1000 triples; e.g. over k[Z/q] "
            "a J_(m+1)+J_1 middle term can have right-exact invariants without "
            "splitting (see README, deliberately failing checks)"
            if forward_bad
            else "1000 triples",
        ),
    ]
    try:
        averaging_ok = _order24_averaging_check()
        detail = "order-24 group, Q8 subgroup, index 3"
    except (ValueError, AssertionError) as exc:
        averaging_ok = False
        detail = str(exc)
    results.append(
        CheckResult("8c", "averaging yields a G-equivariant section", averaging_ok, detail)
    )
    return results


def criterion_9(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Free modules are acyclic in degrees 1 and 2."""
    bad = []
    for p in PRIMES:
        ctx = FieldCtx(p)
        cycle = [[1 if i == (j + 1) % p else 0 for j in range(p)] for i in range(p)]
        for r in (1, 2, 3):
            mod = CyclicModule(ctx=ctx, sigma=np.kron(np.eye(r, dtype=np.int64), cycle), q=p)
            h1 = modrep.periodic_cohomology(mod, 1)
            h2 = modrep.periodic_cohomology(mod, 2)
            if h1 or h2:
                bad.append((p, r, h1, h2))
    return [
        CheckResult(
            "9",
            "free-module acyclicity H^1 = H^2 = 0",
            not bad,
            f"violations: {bad}" if bad else "p in {2,3,5,7}, rank up to 3",
        )
    ]


ALL_CRITERIA = {
    "1": criterion_1,
    "2": criterion_2,
    "3": criterion_3,
    "4": criterion_4,
    "5": criterion_5,
    "6": criterion_6,
    "7": criterion_7,
    "8": criterion_8,
    "9": criterion_9,
}


def run(ids: list[str] | None = None, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run the selected criteria (all by default); an unknown or repeated id raises first."""
    selected = ids if ids is not None else list(ALL_CRITERIA)
    for i, cid in enumerate(selected):
        if cid not in ALL_CRITERIA:
            raise ValueError(f"unknown criterion {cid!r}")
        if cid in selected[:i]:
            raise ValueError(f"criterion {cid} is selected twice")
    return [result for cid in selected for result in ALL_CRITERIA[cid](seed)]
