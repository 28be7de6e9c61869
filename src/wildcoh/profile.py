"""Global bookkeeping for Z/p-covers of curves.

A ramification profile records the quotient genus and the list of jumps
at the branch points; everything else (the pushed-down ramification
divisor R', the upstairs genus, the splitting defect, and the invariant
dimensions of the three cohomology spaces) is derived by closed integer
formulas.  The dimension report is computed along three independent
formula routes that must agree, so a transcription slip in any one of
them is caught at run time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd

from wildcoh import ascover, cohom
from wildcoh.gf import is_prime


def _is_int(value) -> bool:
    """A JSON integer: bool is an int subclass but not a number here."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class RamificationProfile:
    """Branch data of a Z/p-cover: characteristic, quotient genus, jump list."""

    p: int
    g_y: int
    jumps: tuple[int, ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.g_y < 0:
            raise ValueError("quotient genus must be nonnegative")
        object.__setattr__(self, "jumps", tuple(self.jumps))
        for n in self.jumps:
            ascover.check_jump(self.p, n)

    @property
    def is_free(self) -> bool:
        return not self.jumps

    def to_dict(self) -> dict:
        return {"p": self.p, "gY": self.g_y, "jumps": list(self.jumps)}

    @classmethod
    def from_dict(cls, data: dict) -> "RamificationProfile":
        """Read {"p": int, "gY": int, "jumps": [int, ...]}; ValueError names a bad key."""
        if not isinstance(data, dict):
            raise ValueError("profile must be a JSON object")
        for key in ("p", "gY", "jumps"):
            if key not in data:
                raise ValueError(f"profile is missing the key {key!r}")
        for key in data:
            if key not in ("p", "gY", "jumps"):
                raise ValueError(f"profile has an unknown key {key!r}")
        p, g_y, jumps = data["p"], data["gY"], data["jumps"]
        for key, value in (("p", p), ("gY", g_y)):
            if not _is_int(value):
                raise ValueError(f"profile key {key!r} must be an int, not {value!r}")
        if not isinstance(jumps, list) or not all(_is_int(n) for n in jumps):
            raise ValueError(f"profile key 'jumps' must be a list of ints, not {jumps!r}")
        return cls(p=p, g_y=g_y, jumps=tuple(jumps))

    @classmethod
    def from_json(cls, text: str) -> "RamificationProfile":
        return cls.from_dict(json.loads(text))


@dataclass
class DefectReport:
    """All derived dimensions of one profile and the main-theorem verdict;
    the dimensions serialize flat."""

    defect: int
    deg_r_prime: int
    g_x: int
    h0_omega_inv: int
    h1_o_inv: int
    h1_dr_inv: int
    weakly_ramified: bool
    main_theorem_consistent: bool
    p2_exception: bool

    def to_dict(self) -> dict:
        return {
            "defect": self.defect,
            "deg_R_prime": self.deg_r_prime,
            "g_X": self.g_x,
            "h0_omega_inv": self.h0_omega_inv,
            "h1_O_inv": self.h1_o_inv,
            "h1_dR_inv": self.h1_dr_inv,
            "weakly_ramified": self.weakly_ramified,
            # the conductor at a jump-n point is (n+1)(p-1); reports carry the
            # convention explicitly because the naive (n+1)p overcounts
            "conductor_convention": "(n+1)(p-1)",
        }


def defect(prof: RamificationProfile) -> int:
    """Splitting defect: sum of the per-point image dimensions, closed form."""
    return sum(cohom.d_image_closed_form(prof.p, n) for n in prof.jumps)


def r_prime_degree(prof: RamificationProfile) -> int:
    """deg R' = sum over branch points of floor((n+1)(p-1)/p)."""
    return sum(((n + 1) * (prof.p - 1)) // prof.p for n in prof.jumps)


def genus_upstairs(prof: RamificationProfile) -> int:
    """Genus of the cover from Riemann-Hurwitz with conductor (n+1)(p-1)."""
    rhs = prof.p * (2 * prof.g_y - 2) + sum((n + 1) * (prof.p - 1) for n in prof.jumps)
    g_x = rhs // 2 + 1
    if g_x < 0:
        raise ValueError("inconsistent profile: negative upstairs genus")
    return g_x


def dims(prof: RamificationProfile) -> DefectReport:
    """Full dimension report, cross-checked along three formula routes."""
    p = prof.p
    d = defect(prof)
    deg_rp = r_prime_degree(prof)
    g_x = genus_upstairs(prof)

    # invariant differentials from the quotient twisted by R'
    h0_route_a = prof.g_y if deg_rp == 0 else prof.g_y - 1 + deg_rp

    if prof.is_free:
        h0_route_b = prof.g_y
        h1_o_route_b = prof.g_y
        h1_dr_route_b = 2 * prof.g_y
        h1_o_route_c = prof.g_y
    else:
        per_point = [((n + 1) * (p - 1)) // p for n in prof.jumps]
        h0_route_b = prof.g_y - 1 + sum(per_point)
        h1_o_route_b = h0_route_b
        h1_dr_route_b = 2 * (prof.g_y - 1) + sum(
            t + 1 + (n - 1) // p for t, n in zip(per_point, prof.jumps)
        )
        # local H^1 dimensions summed against the quotient, minus H^1(Z/p, k)
        h1_o_route_c = prof.g_y + sum(per_point) - cohom.trivial_module_h1(p)

    if h0_route_a != h0_route_b:
        raise AssertionError(
            f"h0 formula routes disagree: {h0_route_a} vs {h0_route_b}"
        )
    if h1_o_route_b != h1_o_route_c:
        raise AssertionError(
            f"h1_O formula routes disagree: {h1_o_route_b} vs {h1_o_route_c}"
        )
    if h1_dr_route_b != h0_route_b + h1_o_route_b - d:
        raise AssertionError("h1_dR route disagrees with h0 + h1_O - defect")

    # the main theorem: for p > 2, defect 0 iff every jump is <= 1; for
    # p = 2 the defect vanishes at every odd jump, an exception flagged
    # rather than counted as an inconsistency
    weak = all(n <= 1 for n in prof.jumps)
    return DefectReport(
        defect=d,
        deg_r_prime=deg_rp,
        g_x=g_x,
        h0_omega_inv=h0_route_a,
        h1_o_inv=h1_o_route_b,
        h1_dr_inv=h1_dr_route_b,
        weakly_ramified=weak,
        main_theorem_consistent=(d == 0) == weak if p > 2 else not weak or d == 0,
        p2_exception=p == 2 and d == 0 and not weak,
    )


def superelliptic(m: int, d: int, p: int) -> RamificationProfile:
    """Profile of the Z/p-cover of y^m = f(x), deg f = d, f separable.

    The cover substitutes an Artin-Schreier variable for x; it is ramified
    exactly over the gcd(m, d) points at infinity, each with jump m/gcd(m, d).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if d < 1:
        raise ValueError("polynomial degree must be positive")
    if m < 1 or m % p == 0:
        raise ValueError(f"exponent {m} must be positive and coprime to {p}")
    delta = gcd(m, d)
    jump = m // delta
    # genus of y^m = f(x) from tame Riemann-Hurwitz over the projective line
    g_y = ((m - 1) * (d - 1) + 1 - delta) // 2
    return RamificationProfile(p=p, g_y=g_y, jumps=(jump,) * delta)


def defect_by_linear_algebra(prof: RamificationProfile) -> int:
    """Defect as the sum of per-point differential-image ranks (no formulas).

    Each rank is computed once per cover and lives on the shared
    cover, so branch points with one jump share one computation.
    """
    return sum(cohom.d_image_rank(cohom.cached_cover(prof.p, n)) for n in prof.jumps)
