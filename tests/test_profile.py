"""Global profiles: defect, R', genus, dimension routes, serialization."""

import itertools
import json
from math import gcd

import pytest

from wildcoh import cohom, modrep, profile
from wildcoh.profile import RamificationProfile


def rh_genus_oracle(p, g_y, jumps):
    # independent Riemann-Hurwitz arithmetic: conductor (n+1)(p-1) per point
    total = p * (2 * g_y - 2) + sum((n + 1) * (p - 1) for n in jumps)
    assert total % 2 == 0
    return total // 2 + 1


def tame_rh_oracle(m, d):
    # genus of y^m = f(x), f separable of degree d: degree-m cover of the line,
    # totally ramified over the d roots, gcd(m, d) points over infinity
    delta = gcd(m, d)
    total = -2 * m + d * (m - 1) + (m - delta)
    assert total % 2 == 0
    return total // 2 + 1


def test_defect_values():
    assert profile.defect(RamificationProfile(3, 0, (2,))) == 1
    assert profile.defect(RamificationProfile(3, 0, (1, 1, 1))) == 0
    assert profile.defect(RamificationProfile(2, 0, (3, 5, 7))) == 0


def test_r_prime_degree_values():
    assert profile.r_prime_degree(RamificationProfile(3, 0, (2,))) == 2
    assert profile.r_prime_degree(RamificationProfile(3, 0, ())) == 0
    assert profile.r_prime_degree(RamificationProfile(5, 0, (7,))) == 6


def test_genus_upstairs():
    assert profile.genus_upstairs(RamificationProfile(3, 1, (2,))) == 4
    prof = RamificationProfile(5, 0, (1, 1))
    assert profile.genus_upstairs(prof) == rh_genus_oracle(5, 0, (1, 1)) == 4
    assert profile.genus_upstairs(RamificationProfile(2, 0, (1,))) == 0
    with pytest.raises(ValueError):
        # free action of Z/3 on a genus-0 quotient is impossible
        profile.genus_upstairs(RamificationProfile(3, 0, ()))


def test_genus_totals_are_even():
    # why genus_upstairs and superelliptic halve with no parity check: for odd
    # p every (n+1)(p-1) is even, and for p = 2 every jump is odd; the oracle
    # asserts the Riemann-Hurwitz total even, and p(2 gY - 2) is even for any gY
    for p in (2, 3, 5, 7, 11, 13):
        jumps = [n for n in range(1, 13) if gcd(n, p) == 1]
        for k in range(4):
            for chosen in itertools.combinations_with_replacement(jumps, k):
                prof = RamificationProfile(p, 1, chosen)
                assert profile.genus_upstairs(prof) == rh_genus_oracle(p, 1, chosen)
    # (m-1)(d-1) + 1 - gcd(m, d) over the four parity cases of m and d
    for m in range(1, 31):
        for d in range(1, 31):
            assert ((m - 1) * (d - 1) + 1 - gcd(m, d)) % 2 == 0, (m, d)


def test_dims_worked_cases():
    report = profile.dims(RamificationProfile(3, 1, (2,)))
    assert (report.h0_omega_inv, report.h1_o_inv, report.h1_dr_inv) == (2, 2, 3)
    assert report.defect == 1
    assert not report.weakly_ramified

    free = profile.dims(RamificationProfile(3, 2, ()))
    assert (free.h0_omega_inv, free.h1_o_inv, free.h1_dr_inv) == (2, 2, 4)
    assert free.defect == 0 and free.deg_r_prime == 0

    small = profile.dims(RamificationProfile(3, 0, (1,)))
    assert (small.h0_omega_inv, small.h1_o_inv, small.h1_dr_inv) == (0, 0, 0)
    assert small.defect == 0 and small.weakly_ramified

    # above 2**15 the codes are Python ints: the trivial module's Jordan
    # type is read through the object-code elimination
    big = RamificationProfile(32771, 1, (1,))
    wide = profile.dims(big)
    assert (wide.h0_omega_inv, wide.h1_o_inv, wide.h1_dr_inv) == (1, 1, 2)
    assert wide.defect == 0 and wide.weakly_ramified
    assert profile.dims(big) == wide


def test_dims_defect_identity():
    for prof in (
        RamificationProfile(3, 1, (2,)),
        RamificationProfile(5, 2, (3, 4)),
        RamificationProfile(2, 1, (3, 5)),
        RamificationProfile(7, 0, (9, 9)),
    ):
        report = profile.dims(prof)
        assert report.h1_dr_inv == report.h0_omega_inv + report.h1_o_inv - report.defect


def test_superelliptic_profiles():
    prof = profile.superelliptic(2, 3, 3)
    assert prof.jumps == (2,) and prof.g_y == 1 == tame_rh_oracle(2, 3)

    prof = profile.superelliptic(2, 4, 3)
    assert prof.jumps == (1, 1) and prof.g_y == 1 == tame_rh_oracle(2, 4)

    prof = profile.superelliptic(3, 4, 2)
    assert prof.jumps == (3,) and prof.g_y == 3 == tame_rh_oracle(3, 4)

    with pytest.raises(ValueError):
        profile.superelliptic(3, 4, 3)  # p divides m
    with pytest.raises(ValueError):
        profile.superelliptic(2, 0, 3)


def test_main_theorem_check():
    strong = profile.dims(RamificationProfile(3, 0, (2,)))
    assert strong.defect == 1 and not strong.weakly_ramified
    assert strong.main_theorem_consistent and not strong.p2_exception

    weak = profile.dims(RamificationProfile(5, 0, (1, 1)))
    assert weak.defect == 0 and weak.weakly_ramified
    assert weak.main_theorem_consistent and not weak.p2_exception

    char2 = profile.dims(RamificationProfile(2, 0, (3,)))
    assert char2.defect == 0 and not char2.weakly_ramified
    assert char2.main_theorem_consistent and char2.p2_exception


def test_main_theorem_verdict_over_a_profile_grid():
    # every valid profile with p <= 29, gY <= 2 and up to two jumps <= 24:
    # the verdict holds, so `defect` exits 2 only on the linear-algebra
    # cross-check, and the p = 2 exception is exactly p = 2 with a jump > 1
    checked = 0
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
        jumps = [n for n in range(1, 25) if n % p]
        for g_y, k in itertools.product(range(3), range(3)):
            for chosen in itertools.combinations_with_replacement(jumps, k):
                prof = RamificationProfile(p, g_y, chosen)
                try:
                    report = profile.dims(prof)
                except ValueError:  # negative upstairs genus
                    continue
                assert report.main_theorem_consistent, prof
                assert report.p2_exception == (p == 2 and any(n > 1 for n in chosen)), prof
                checked += 1
    assert checked == 7577


def test_defect_matches_linear_algebra():
    for prof in (
        RamificationProfile(3, 0, (2,)),
        RamificationProfile(2, 1, (3, 5)),
        RamificationProfile(5, 0, (2, 3)),
        RamificationProfile(7, 1, ()),
    ):
        assert profile.defect(prof) == profile.defect_by_linear_algebra(prof)


def test_cross_module_identity_uses_ranks_not_formulas():
    prof = RamificationProfile(5, 0, (7,))
    rank_route = cohom.d_image_rank(cohom.cached_cover(5, 7))
    assert profile.defect(prof) == rank_route == 4


def test_dims_reads_h1_of_the_trivial_module_on_every_call(monkeypatch):
    # dim H^1(Z/p, k) comes from the Jordan blocks of the trivial module,
    # decomposed afresh by every report with a jump and kept nowhere
    decomposed = []
    block_decomposition = modrep.block_decomposition

    def counting(mod):
        decomposed.append((mod.dim, mod.q))
        return block_decomposition(mod)

    monkeypatch.setattr(modrep, "block_decomposition", counting)
    profiles = [RamificationProfile(p, 1, (1,)) for p in (2, 3, 5)]
    profiles.append(RamificationProfile(5, 0, (2, 3)))
    reports = []
    for prof in profiles:
        del decomposed[:]
        reports.append(profile.dims(prof))
        assert reports[-1].h1_o_inv == prof.g_y - 1 + profile.r_prime_degree(prof)
        assert decomposed == [(1, prof.p)]
    del decomposed[:]
    assert profile.dims(RamificationProfile(7, 2, ())).h1_o_inv == 2
    assert decomposed == []
    cohom.cached_cover.cache_clear()
    assert [profile.dims(prof) for prof in profiles] == reports


def test_profile_validation():
    with pytest.raises(ValueError):
        RamificationProfile(4, 0, (1,))
    with pytest.raises(ValueError):
        RamificationProfile(3, -1, (1,))
    with pytest.raises(ValueError):
        RamificationProfile(3, 0, (3,))
    with pytest.raises(ValueError):
        RamificationProfile(3, 0, (0,))


def test_json_round_trip():
    prof = RamificationProfile(5, 2, (3, 4, 9))
    again = RamificationProfile.from_json(json.dumps(prof.to_dict(), sort_keys=True))
    assert again == prof
    assert prof.to_dict() == {"p": 5, "gY": 2, "jumps": [3, 4, 9]}
    report = profile.dims(prof).to_dict()
    assert report["h1_dR_inv"] == report["h0_omega_inv"] + report["h1_O_inv"] - report["defect"]
