"""Seeded workloads: input generation, one operation per input, oracle checks.

Each workload turns a seed into a fixed list of operation descriptors and
runs one operation at a time through the public functions of ``wildcoh``.
Every operation compares its computed route with an independent oracle:
a closed form, a second computational route, or an implication that must
hold.  A disagreement is reported as a problem string; the caller counts
the operation as failed.

The seed varies the inputs (lattice exponents, quotient genera, cover
precision, random modules).  The set of (p, n) covers, the profile jump
lists and the number of operations are fixed per workload, so runs with
different seeds measure comparable work; only the sizes of the random
modules vary with the seed.

Modules of ``wildcoh`` are always reached by attribute (``cohom.h1_lattice``),
never imported by name, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from math import gcd
from typing import Callable

from wildcoh import ascover, cohom, modrep, profile
from wildcoh.gf import FieldCtx

NAMES = ("lattice_sweep", "normal_form", "module_triples")

# lattice_sweep: the p-ladder and a fixed jump set per p.  p = 101 gets
# two small jumps because its windows are about 110 wide.
SWEEP_JUMPS = {
    3: (1, 2, 5, 8, 11),
    5: (1, 3, 6, 9, 12),
    7: (1, 3, 6, 9, 12),
    13: (1, 3, 6, 9, 12),
    31: (1, 3, 6, 9, 12),
    101: (3, 7),
}
ROWS_PER_COVER = {101: 2}  # other primes: DEFAULT_ROWS
DEFAULT_ROWS = 4
PROFILE_PRIMES = (3, 5, 7, 13, 31)
PROFILE_SIZES = (0, 1, 2, 2, 2, 3, 3, 3)  # jumps per profile, 8 profiles per p
MAX_SWEEP_JUMP = 12

# normal_form: every jump n <= 20 coprime to p, at a seeded precision a
# little above the recommended one.  The cheap primes 3 and 5 get two
# precisions per jump, so a pass has more than 100 operations.
NORMAL_FORM_PRIMES = (3, 5, 7, 11, 13)
MAX_NORMAL_FORM_JUMP = 20
EXTRA_PREC = 8
PRECISIONS_PER_JUMP = {3: 2, 5: 2}  # other primes: 1

# module_triples: (label, field, group order q); the first 200 draws of
# random_exact_triple per field, taken as they come, as criterion 8 does.
# With 100 per field the seed alone moved op_p90_ms by an interquartile
# range of 8% of its median over 16 seeds; with 200, by 6.5%.
TRIPLES_PER_FIELD = 200


def _triple_fields() -> list[tuple[str, FieldCtx, int]]:
    f2, f3 = FieldCtx(2), FieldCtx(3)
    return [
        ("GF3", f3, 3),
        ("GF2", f2, 4),
        ("GF5", FieldCtx(5), 5),
        ("GF2", f2, 8),
        ("GF3", f3, 9),
        ("GF4", FieldCtx(2, (1, 1, 1)), 4),
        ("GF9", FieldCtx(3, (1, 0, 1)), 9),
    ]


@dataclass
class Outcome:
    """Canonical result of one operation and the oracle disagreements found."""

    result: list
    problems: list[str]
    finding: bool = False  # additive-but-non-split triple (the 8b finding)


@dataclass
class Workload:
    name: str
    inputs: list
    input_digest: str
    reset: Callable[[], None]
    run_op: Callable[[tuple], Outcome]


def canonical_digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- oracle checks ------------------------------------------------------------


def check_h1(p: int, n: int, a: int, got: int) -> str | None:
    want = cohom.h1_closed_form(p, n, a)
    if got != want:
        return f"h1 lattice {got} != closed form {want} at (p={p}, n={n}, a={a})"
    return None


def check_d_rank(p: int, n: int, got: int) -> str | None:
    want = cohom.d_image_closed_form(p, n)
    if got != want:
        return f"d-image rank {got} != closed form {want} at (p={p}, n={n})"
    return None


def check_defect(formula: int, by_linear_algebra: int) -> str | None:
    if formula != by_linear_algebra:
        return f"defect {formula} != defect_by_linear_algebra {by_linear_algebra}"
    return None


def check_triple(split: bool, additive: bool) -> str | None:
    if split and not additive:
        return "triple splits but invariants are not additive"
    return None


def _problems(*checks: str | None) -> list[str]:
    return [c for c in checks if c is not None]


# -- lattice_sweep --------------------------------------------------------------


def _sweep_inputs(rng: random.Random) -> list[tuple]:
    ops: list[tuple] = []
    for p, jumps in SWEEP_JUMPS.items():
        for n in jumps:
            a_values = rng.sample(range(-3, n + 4), ROWS_PER_COVER.get(p, DEFAULT_ROWS))
            for k, a in enumerate(a_values):
                ops.append(("row", p, n, a, k == 0))
    for p in PROFILE_PRIMES:
        # The jump lists are fixed so that a pass costs the same for every
        # seed; the seed draws the quotient genera.
        spare = next(n for n in range(1, MAX_SWEEP_JUMP + 1)
                     if gcd(n, p) == 1 and n not in SWEEP_JUMPS[p])
        pool = list(SWEEP_JUMPS[p]) * 3 + [spare]
        at = 0
        for size in PROFILE_SIZES:
            jumps = tuple(pool[at:at + size])
            at += size
            while True:
                prof = profile.RamificationProfile(p=p, g_y=rng.randint(0, 3), jumps=jumps)
                try:
                    profile.genus_upstairs(prof)
                except ValueError:
                    continue
                break
            ops.append(("profile", prof.p, prof.g_y, prof.jumps))
    return ops


def _sweep_op(desc: tuple) -> Outcome:
    if desc[0] == "row":
        _, p, n, a, first = desc
        cov = cohom.cached_cover(p, n)
        checks = []
        d_rank = None
        if first:
            # the first row of each cover pays the d-rank before any h1, in
            # the call order of `wildcoh sweep` (see README, known defect)
            d_rank = cohom.d_image_rank(cov)
            checks.append(check_d_rank(p, n, d_rank))
        h1 = cohom.h1_lattice(cov, a).dim
        checks.append(check_h1(p, n, a, h1))
        return Outcome(["row", p, n, a, h1, d_rank], _problems(*checks))
    _, p, g_y, jumps = desc
    prof = profile.RamificationProfile(p=p, g_y=g_y, jumps=jumps)
    report = profile.dims(prof)
    by_rank = profile.defect_by_linear_algebra(prof)
    result = ["profile", p, g_y, list(jumps), report.to_dict(), by_rank]
    return Outcome(result, _problems(check_defect(report.defect, by_rank)))


# -- normal_form ------------------------------------------------------------------


def _normal_form_inputs(rng: random.Random) -> list[tuple]:
    ops = []
    for p in NORMAL_FORM_PRIMES:
        for n in range(1, MAX_NORMAL_FORM_JUMP + 1):
            if gcd(n, p) == 1:
                base = ascover.recommended_precision(p, n)
                for extra in rng.sample(range(EXTRA_PREC), PRECISIONS_PER_JUMP.get(p, 1)):
                    ops.append(("cover", p, n, base + extra))
    rng.shuffle(ops)
    return ops


def _series_digest(s) -> str:
    return canonical_digest([s.val, list(s.coeffs), s.prec])


def _normal_form_op(desc: tuple) -> Outcome:
    _, p, n, prec = desc
    cov = ascover.build(p, n, prec)
    report = ascover.verify_normal_form(cov)  # raises NormalFormError on failure
    diff = ascover.invariant_differential_check(cov)
    problems = [f"invariant differential: {f}" for f in diff.failures]
    if len(report.checked) != 4:
        problems.append(f"normal form checked {len(report.checked)} identities, not 4")
    result = ["cover", p, n, prec, report.checked, diff.ok,
              _series_digest(cov.sigma_t), _series_digest(cov.x_t)]
    return Outcome(result, problems)


# -- module_triples -----------------------------------------------------------------


def _triple_inputs(rng: random.Random) -> list[tuple]:
    ops = []
    for label, ctx, q in _triple_fields():
        for _ in range(TRIPLES_PER_FIELD):
            ops.append(("triple", label, q, modrep.random_exact_triple(ctx, q, rng)))
    return ops


def _triple_op(desc: tuple) -> Outcome:
    _, label, q, triple = desc
    split = modrep.splits(triple)
    additive = modrep.invariants_additive(triple)
    result = ["triple", label, q, triple.b.dim, triple.a_dim, split, additive]
    return Outcome(result, _problems(check_triple(split, additive)),
                   finding=additive and not split)


def _describe(desc: tuple):
    if desc[0] == "triple":
        _, label, q, triple = desc
        return ["triple", label, q, triple.b.sigma, triple.a_basis]
    return list(desc)


def _no_reset() -> None:
    return None


def build(name: str, seed: int) -> Workload:
    """Generate the workload's inputs from the seed (this is set-up work)."""
    rng = random.Random(seed)
    if name == "lattice_sweep":
        # every pass starts cold, as every CLI process does
        inputs, reset, run_op = _sweep_inputs(rng), cohom.cached_cover.cache_clear, _sweep_op
    elif name == "normal_form":
        inputs, reset, run_op = _normal_form_inputs(rng), _no_reset, _normal_form_op
    elif name == "module_triples":
        inputs, reset, run_op = _triple_inputs(rng), _no_reset, _triple_op
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    digest = canonical_digest([_describe(d) for d in inputs])
    return Workload(name, inputs, digest, reset, run_op)
