"""Command-line interface: formats, exit codes, round trips."""

import argparse
import hashlib
import json
import re
from pathlib import Path

import pytest

from wildcoh import char2ex, cli, cohom
from wildcoh.profile import RamificationProfile


README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_local_match(capsys):
    code, out, _ = run_cli(capsys, "local", "--p", "3", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["h1_lattice"] == payload["h1_closed"] == 2
    assert payload["d_rank_lattice"] == payload["d_rank_closed"] == 1
    assert payload["basis_exponents"] == [-2, -1]
    assert payload["match"] is True


def test_local_h1_first_on_fresh_cover(capsys):
    # h1 runs before anything else has filled the cover's x-power cache
    cohom.cached_cover.cache_clear()
    code, out, _ = run_cli(capsys, "local", "--p", "13", "--n", "3", "--a", "5",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["h1_lattice"] == payload["h1_closed"] == cohom.h1_closed_form(13, 3, 5)
    assert payload["match"] is True


def test_local_computes_h1_once(capsys, monkeypatch):
    calls = []
    h1_lattice = cohom.h1_lattice

    def counting(*args):
        calls.append(args[1:])
        return h1_lattice(*args)

    monkeypatch.setattr(cohom, "h1_lattice", counting)
    code, out, _ = run_cli(capsys, "local", "--p", "3", "--n", "2", "--format", "json")
    assert code == 0 and json.loads(out)["h1_lattice"] == 2
    assert calls == [(0,)]  # the basis certificate's own run


def test_local_weakly_ramified_note(capsys):
    code, out, _ = run_cli(capsys, "local", "--p", "3", "--n", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["d_rank_lattice"] == 0
    assert payload["weakly_ramified_point"] is True


def test_local_rejects_jump_divisible_by_p(capsys):
    code, _, err = run_cli(capsys, "local", "--p", "3", "--n", "3")
    assert code == 1
    assert "coprime" in err


@pytest.mark.parametrize(
    "argv, profile, message",
    [
        (("local", "--p", "4", "--n", "1"), None, "4 is not prime"),
        (("local", "--p", "3", "--n", "0"), None, "jump 0 must be positive and coprime to 3"),
        (("defect",), {}, "missing the key 'p'"),
        (("defect",), {"p": 3, "gY": 0}, "missing the key 'jumps'"),
        (("defect",), {"p": 3, "gY": 0, "jumps": "12"}, "'jumps' must be a list of ints"),
        (("defect",), {"p": 3, "gY": 0, "jumps": [2.5]}, "'jumps' must be a list of ints"),
        (("defect",), {"p": 3, "gY": 0, "jumps": 2}, "'jumps' must be a list of ints"),
        (("defect",), [], "must be a JSON object"),
        (("defect",), {"p": None, "gY": 0, "jumps": []}, "'p' must be an int"),
        # trial division would run for hours on a 61-bit prime
        (("defect", "--p", "2305843009213693951", "--gy", "0", "--jumps", "1"), None,
         "bound 2**31"),
        (("sweep", "--p", "2305843009213693951", "--n", "1", "--a", "0"), None, "bound 2**31"),
        (("sweep", "--p", "3", "--n", "3", "--a", "0"), None, "no pair (p, n) to sweep"),
        (("sweep", "--p", "3", "--n", "-2", "--a", "0"), None, "no pair (p, n) to sweep"),
        (("sweep", "--p", "4", "--n", "1..3", "--a", "0"), None, "4 is not prime"),
        (("sweep", "--p", "3", "--n", "1", "--a", "5..3"), None, "empty range"),
        (("defect", "--superelliptic", "3", "2"), None, "--superelliptic requires --p"),
        (("defect", "--superelliptic", "3", "2", "--p", "4"), None, "4 is not prime"),
        (("defect",), {"p": 3, "gY": 1, "jumps": [], "jmps": [2]},
         "profile has an unknown key 'jmps'"),
        (("defect", "--p", "7"), {"p": 3, "gY": 1, "jumps": [2]},
         "--profile cannot be combined with --p"),
        (("defect", "--superelliptic", "3", "2", "--p", "5", "--gy", "7"), None,
         "--superelliptic cannot be combined with --gy"),
    ],
    ids=["local-not-prime", "local-jump-zero",
         "defect-empty-profile", "defect-no-jumps", "defect-jumps-string", "defect-jumps-float",
         "defect-jumps-int", "defect-list-profile", "defect-null-p", "defect-huge-p",
         "sweep-huge-p", "sweep-n-divisible-by-p", "sweep-n-negative", "sweep-not-prime",
         "sweep-empty-a-range", "defect-superelliptic-no-p", "defect-superelliptic-not-prime",
         "defect-unknown-key", "defect-profile-and-p", "defect-superelliptic-and-gy"],
)
def test_bad_input_is_an_error_not_a_traceback(tmp_path, capsys, argv, profile, message):
    if profile is not None:
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(profile), encoding="utf-8")
        argv += ("--profile", str(path))
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_verification_mismatch_exits_2(capsys, monkeypatch):
    def unstable(cov):
        raise cohom.StabilizationError("planted")

    monkeypatch.setattr(cohom, "d_image_rank", unstable)
    code, out, err = run_cli(capsys, "local", "--p", "3", "--n", "2")
    assert code == 2
    assert out == ""
    assert err == "verification mismatch: planted\n"


@pytest.mark.parametrize("argv, flag", [
    (("local", "--p", "3", "--n", "2", "--window", "6"), "--window 6"),
    (("char2", "--prec", "32"), "--prec 32"),
], ids=["local-window", "char2-prec"])
def test_derived_window_and_precision_are_not_options(capsys, argv, flag):
    # local's window is n + p + 1 and char2's precision DEFAULT_PREC, both derived
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert f"error: unrecognized arguments: {flag}" in err


@pytest.mark.parametrize("target, name, argv", [
    (cohom, "cached_cover", ("local", "--p", "3", "--n", "200000")),
    (char2ex, "filtration_report", ("char2",)),
], ids=["local-huge-window", "char2-out-of-memory"])
def test_out_of_memory_is_an_error_not_a_traceback(capsys, monkeypatch, target, name, argv):
    # a real allocation of that size could be granted by an overcommitting host, then killed
    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 298. GiB for an array")

    monkeypatch.setattr(target, name, out_of_memory)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "error: Unable to allocate 298. GiB for an array\n"


def test_defect_superelliptic(capsys):
    code, out, _ = run_cli(
        capsys, "defect", "--superelliptic", "2", "3", "--p", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["defect"] == 1
    assert payload["h1_dR_inv"] == 3
    assert payload["cross_check"] is True


def test_defect_free_case(capsys):
    code, out, _ = run_cli(
        capsys, "defect", "--p", "3", "--gy", "2", "--jumps", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["h1_dR_inv"] == 4
    assert payload["defect"] == 0


def test_defect_char2_exception_flag(capsys):
    code, out, _ = run_cli(
        capsys, "defect", "--p", "2", "--gy", "0", "--jumps", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["defect"] == 0
    assert payload["p2_exception"] is True
    assert payload["weakly_ramified"] is False


def test_defect_profile_file_round_trip(tmp_path, capsys):
    prof = RamificationProfile(5, 1, (2, 3))
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(prof.to_dict(), sort_keys=True), encoding="utf-8")
    code, out, _ = run_cli(capsys, "defect", "--profile", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert RamificationProfile.from_dict(payload["profile"]) == prof


def test_defect_requires_some_input(capsys):
    code, _, err = run_cli(capsys, "defect")
    assert code == 1
    assert "specify" in err


def test_char2_report(capsys):
    code, out, _ = run_cli(capsys, "char2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["group_order"] == 24
    assert payload["indecomposable"] is True
    assert [entry["size"] for entry in payload["filtration"]] == [24, 8, 2, 2, 1]
    assert payload["paper_discrepancies"]


def test_sweep_csv_schema_and_negative_range(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--p", "3", "--n", "1..2", "--a", "-3..3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == cli.CSV_HEADER
    assert len(lines) == 1 + 2 * 7
    assert all(line.endswith(",true") for line in lines[1:])
    # byte-stable: a second run prints the identical table
    code2, out2, _ = run_cli(capsys, "sweep", "--p", "3", "--n", "1..2", "--a", "-3..3")
    assert code2 == 0 and out2 == out


def test_sweep_keeps_the_pairs_that_remain(capsys):
    # n = 3 is divisible by 3 but prime to 5: only the 5,3 rows are printed
    code, out, _ = run_cli(capsys, "sweep", "--p", "3", "5", "--n", "3", "--a", "0..1")
    assert code == 0
    assert out == cli.CSV_HEADER + "\n5,3,0,3,3,2,2,true\n5,3,1,2,2,2,2,true\n"


@pytest.mark.parametrize("p, n", [(3, 2), (5, 2), (101, 7)])
@pytest.mark.parametrize("a", [10**19, 10**30, -10**30, -2**63])
def test_windows_far_from_t0_match_the_closed_forms(capsys, p, n, a):
    # windows whose exponents leave int64: x^j's digits are placed relative
    # to the window's first power of x, not to t^0
    args = ("--p", str(p), "--n", str(n), "--a", str(a))
    code, out, _ = run_cli(capsys, "local", *args, "--format", "json")
    assert code == 0 and json.loads(out)["match"] is True
    code, out, _ = run_cli(capsys, "sweep", *args)
    header, row = out.strip().splitlines()
    assert code == 0 and header == cli.CSV_HEADER
    assert row.startswith(f"{p},{n},{a},") and row.endswith(",true")


def test_verify_all_subset_passes(capsys):
    code, out, _ = run_cli(capsys, "verify-all", "--criteria", "3,9")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "2/2 checks passed"
    assert all(line.startswith("PASS") for line in lines[:-1])


def test_verify_all_reports_documented_failures(capsys):
    # criterion 8 contains the faithfully-red splitting check (8b)
    code, out, _ = run_cli(capsys, "verify-all", "--criteria", "8")
    assert code == 2
    lines = out.strip().splitlines()
    assert any(line.startswith("FAIL criterion 8b") for line in lines)
    assert sum(1 for line in lines if line.startswith("PASS")) == 2


@pytest.mark.parametrize("criteria, message", [
    ("", "unknown criterion ''"),
    ("3,", "unknown criterion ''"),
    ("3,3", "criterion 3 is selected twice"),
], ids=["empty", "trailing-comma", "repeated"])
def test_empty_or_repeated_criteria_are_usage_errors(capsys, criteria, message):
    code, out, err = run_cli(capsys, "verify-all", "--criteria", criteria)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_unknown_criterion_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify-all", "--criteria", "42")
    assert code == 1
    assert "unknown criterion" in err


# sha256 of the standard output: a changed answer, pivot choice or
# format changes these
GOLDEN = {
    "char2 --format json": "afa1e3de870be50ba4c5282111042e24c96d397bd79b6b019bc1dcc9c4a01062",
    "sweep --p 3 5 7 13 --n 6 --a 4":
        "2a70b3844018ae77f5467aeef3c8cb1f60fe027d7cfcc71d63b3e58501ebfe7c",
    "char2 --format text": "5b136b910c31ce4fc8356795bc3bf39987d3ea604932e48daf204fcc4f54f07d",
    "verify-all": "2099fc72b66a84565fbe16b1a841d70955398c0c27e80083cd2735a741cdab5d",
    "local --p 13 --n 3 --a 5 --format json":
        "6394687217cab1ef463b3f7b0c24567d4709228a97fc8c4465634b6cbb702d28",
    "local --p 101 --n 7 --a 3 --format json":
        "2e4de21f575e5a68a099a0934fd8e18f21940c7a1f76ade1254b984876eb27a2",
    "defect --p 5 --gy 1 --jumps 1 3 6 --format json":
        "0df03e63bf4de05d203d9040ee50dbbbe52bb4d6e117abb6808346286d1a447d",
}


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv", [
    ("char2", "--format", "json"),
    ("sweep", "--p", "3", "5", "7", "13", "--n", "6", "--a", "4"),
    ("char2", "--format", "text"),
])
def test_output_is_byte_identical(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert sha256(out) == GOLDEN[" ".join(argv)]


@pytest.mark.parametrize("command", [
    "local --p 13 --n 3 --a 5 --format json",
    "local --p 101 --n 7 --a 3 --format json",
    "defect --p 5 --gy 1 --jumps 1 3 6 --format json",
])
def test_local_and_defect_output_is_byte_identical(capsys, command):
    # lattice windows reach these commands, which the pins above do not cover
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert sha256(out) == GOLDEN[command]


def test_verify_all_output_is_byte_identical(acceptance_results):
    # what `wildcoh verify-all` prints, from the session's acceptance run
    passed = sum(1 for r in acceptance_results if r.passed)
    lines = [r.line() for r in acceptance_results]
    lines.append(f"{passed}/{len(acceptance_results)} checks passed")
    assert sha256("\n".join(lines) + "\n") == GOLDEN["verify-all"]


def test_readme_shows_every_cli_option_and_no_other():
    # the options on the README's `wildcoh S ...` lines, comments cut, against S's parser
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    readme = README.read_text(encoding="utf-8").splitlines()
    for name, sub in subparsers.choices.items():
        shown = {option for line in readme if re.match(rf"wildcoh {name}( |$)", line)
                 for option in re.findall(r"--[a-z][a-z-]*", line.split("#")[0])}
        options = {option for action in sub._actions for option in action.option_strings
                   if option.startswith("--")} - {"--help"}
        assert shown == options, name
