"""Acceptance gate: every stated criterion, one pass/fail line each.

One test is EXPECTED TO FAIL and is deliberately not marked xfail,
because the criterion it implements asserts a mathematically false claim
and the suite must say so out loud rather than smooth it over:

* test_criterion_8b_additive_implies_splits - right-exactness of
  invariants does not force splitting: 0 -> J2 -> J3 + J1 -> J2 -> 0
  over k[Z/3] is a counterexample (see tests/test_modrep.py, where the
  absence of a stable complement is verified by brute force).

test_criterion_7b_rep_homomorphism checks the computed action on H^1_dR
(char2ex.derham_rep), which is multiplicative; the commonly stated
matrices are not, and tests/test_char2ex.py keeps that on record.  The
README section "Deliberately failing checks" carries the full analyses.
Everything else must pass; run `wildcoh verify-all` for the same checks
from the CLI.
"""

import pytest

from wildcoh import acceptance


@pytest.fixture(scope="module")
def results(acceptance_results):
    return _index(acceptance_results)


def _index(collected):
    by_id = {}
    for result in collected:
        by_id.setdefault(result.criterion, []).append(result)
    return by_id


def _assert_all(results, cid):
    for result in results[cid]:
        print(result.line())
        assert result.passed, result.line()


def test_every_result_passed_is_a_bool(results):
    for checks in results.values():
        for result in checks:
            assert type(result.passed) is bool, result.line()


def test_criterion_1_h1_oracle_equivalence(results):
    _assert_all(results, "1")


def test_criterion_2_d_image_oracle_equivalence(results):
    _assert_all(results, "2")


def test_criterion_3_main_theorem_desk_scale(results):
    _assert_all(results, "3")


def test_criterion_4_defect_identity(results):
    _assert_all(results, "4")


def test_criterion_5_dimension_concordance(results):
    _assert_all(results, "5")


def test_criterion_6_normal_form_identities(results):
    _assert_all(results, "6")


def test_criterion_7a_group_closure(results):
    _assert_all(results, "7a")


def test_criterion_7b_rep_homomorphism(results):
    # the computed H^1_dR action, not the stated formula; see module docstring
    _assert_all(results, "7b")


def test_criterion_7c_indecomposability(results):
    _assert_all(results, "7c")


def test_criterion_7d_ramification_orders(results):
    _assert_all(results, "7d")


def test_criterion_7e_filtration_sizes(results):
    _assert_all(results, "7e")


def test_criterion_8a_splits_implies_additive(results):
    _assert_all(results, "8a")


def test_criterion_8b_additive_implies_splits(results):
    # implemented faithfully as stated; fails, see module docstring
    _assert_all(results, "8b")


def test_criterion_8c_averaging(results):
    _assert_all(results, "8c")


def test_criterion_9_free_module_acyclicity(results):
    _assert_all(results, "9")
