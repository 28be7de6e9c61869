"""Command-line front end: local checks, defect reports, sweeps, verification.

Exit codes: 0 everything matched, 1 invalid usage or input, 2 a
verification mismatch was detected.  Output is byte-stable for a fixed
seed and configuration.
"""

from __future__ import annotations

import argparse
import json
import sys

from wildcoh import acceptance, ascover, char2ex, cohom, profile
from wildcoh.gf import is_prime

CSV_HEADER = "p,n,a,h1_lattice,h1_closed,d_rank_lattice,d_rank_closed,match"


class CliError(Exception):
    """Invalid input; reported on stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise CliError(message)


def _parse_range(text: str) -> list[int]:
    """Parse '3', '1..9', or '-3..12' into an inclusive integer list."""
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise CliError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for key in sorted(payload):
            print(f"{key}: {payload[key]}")


def cmd_local(args) -> int:
    p, n = args.p, args.n
    a = args.a
    cov = cohom.cached_cover(p, n)
    cert = cohom.h1_basis_certificate(cov, a)  # runs h1_lattice once
    closed = cohom.h1_closed_form(p, n, a)
    d_rank = cohom.d_image_rank(cov)
    d_closed = cohom.d_image_closed_form(p, n)
    match = cert.dim == closed and d_rank == d_closed
    payload = {
        "p": p,
        "n": n,
        "a": a,
        "h1_lattice": cert.dim,
        "h1_closed": closed,
        "basis_exponents": cert.monomial_exponents,
        "vanishing_classes": [list(v) for v in cert.vanishing],
        "d_rank_lattice": d_rank,
        "d_rank_closed": d_closed,
        "weakly_ramified_point": n <= 1,
        "match": match,
    }
    _emit(payload, args.format)
    return 0 if match else 2


def _profile_from_args(args) -> profile.RamificationProfile:
    # the three sources are exclusive: none may silently override another
    given = [flag for flag, value in (("--superelliptic", args.superelliptic), ("--p", args.p),
                                      ("--gy", args.gy), ("--jumps", args.jumps))
             if value is not None]
    if args.profile is not None:
        if given:
            raise CliError(f"--profile cannot be combined with {' '.join(given)}")
        with open(args.profile, "r", encoding="utf-8") as handle:
            return profile.RamificationProfile.from_json(handle.read())
    if args.superelliptic:
        clash = [flag for flag in given if flag in ("--gy", "--jumps")]
        if clash:
            raise CliError(f"--superelliptic cannot be combined with {' '.join(clash)}")
        if args.p is None:
            raise CliError("--superelliptic requires --p")
        m, d = args.superelliptic
        return profile.superelliptic(m, d, args.p)
    if args.p is None or args.gy is None:
        raise CliError("specify --profile, --superelliptic M D --p P, or --p/--gy/--jumps")
    return profile.RamificationProfile(p=args.p, g_y=args.gy, jumps=tuple(args.jumps or ()))


def cmd_defect(args) -> int:
    prof = _profile_from_args(args)
    report = profile.dims(prof)
    cross = profile.defect_by_linear_algebra(prof)
    payload = report.to_dict()
    payload["profile"] = prof.to_dict()
    payload["defect_by_linear_algebra"] = cross
    payload["cross_check"] = cross == report.defect
    payload["main_theorem_consistent"] = report.main_theorem_consistent
    payload["p2_exception"] = report.p2_exception
    _emit(payload, args.format)
    return 0 if payload["cross_check"] and report.main_theorem_consistent else 2


def cmd_char2(args) -> int:
    report = char2ex.filtration_report()
    payload = report.to_dict()
    _emit(payload, args.format)
    return 0


def cmd_sweep(args) -> int:
    rows = []
    all_match = True
    for p in sorted(set(args.p)):
        if not is_prime(p):
            raise CliError(f"{p} is not prime")
        for n in args.n:
            if n < 1 or n % p == 0:
                continue
            cov = cohom.cached_cover(p, n)
            d_rank = cohom.d_image_rank(cov)
            d_closed = cohom.d_image_closed_form(p, n)
            for a in args.a:
                h1 = cohom.h1_lattice(cov, a).dim
                closed = cohom.h1_closed_form(p, n, a)
                match = h1 == closed and d_rank == d_closed
                all_match = all_match and match
                rows.append(
                    f"{p},{n},{a},{h1},{closed},{d_rank},{d_closed},{str(match).lower()}"
                )
    if not rows:  # every --a range holds a value, so no pair (p, n) was kept
        raise CliError("no pair (p, n) to sweep: every n is below 1 or divisible by p")
    print(CSV_HEADER)
    for row in rows:
        print(row)
    return 0 if all_match else 2


def cmd_verify_all(args) -> int:
    ids = args.criteria.split(",") if args.criteria is not None else None
    results = acceptance.run(ids, seed=args.seed)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="wildcoh", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    local = sub.add_parser("local", help="lattice vs closed-form check at one point")
    local.add_argument("--p", type=int, required=True)
    local.add_argument("--n", type=int, required=True)
    local.add_argument("--a", type=int, default=0)
    local.add_argument("--format", choices=("text", "json"), default="text")
    local.set_defaults(func=cmd_local)

    defect = sub.add_parser("defect", help="defect report for a ramification profile")
    defect.add_argument("--profile", help="path to a profile JSON file")
    defect.add_argument("--superelliptic", nargs=2, type=int, metavar=("M", "D"))
    defect.add_argument("--p", type=int)
    defect.add_argument("--gy", type=int)
    defect.add_argument("--jumps", nargs="*", type=int)
    defect.add_argument("--format", choices=("text", "json"), default="text")
    defect.set_defaults(func=cmd_defect)

    char2 = sub.add_parser("char2", help="characteristic-2 counterexample report")
    char2.add_argument("--format", choices=("text", "json"), default="json")
    char2.set_defaults(func=cmd_char2)

    sweep = sub.add_parser("sweep", help="CSV sweep of lattice vs closed forms")
    sweep.add_argument("--p", nargs="+", type=int, required=True)
    sweep.add_argument("--n", type=_parse_range, required=True)
    sweep.add_argument("--a", type=_parse_range, required=True)
    sweep.set_defaults(func=cmd_sweep)

    verify = sub.add_parser("verify-all", help="run the acceptance suite")
    verify.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    verify.add_argument("--criteria", help="comma-separated subset, e.g. 1,2,7")
    verify.set_defaults(func=cmd_verify_all)

    return parser


def _mend_negative_ranges(argv: list[str]) -> list[str]:
    """Let '--a -3..12' parse: merge a value starting with '-' into its flag."""
    value_flags = {"--a", "--n", "--p", "--gy", "--seed"}
    out = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if token in value_flags and nxt is not None and nxt.startswith("-") and len(nxt) > 1:
            probe = nxt[1:]
            if probe[0].isdigit():
                out.append(f"{token}={nxt}")
                skip = True
                continue
        out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_mend_negative_ranges(argv))
        return args.func(args)
    except (cohom.StabilizationError, cohom.CertificateError, ascover.NormalFormError) as exc:
        print(f"verification mismatch: {exc}", file=sys.stderr)
        return 2
    except (CliError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
