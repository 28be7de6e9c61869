"""Benchmark entry point: one workload, one seed, one fresh worker process.

Usage (from the repository root):

    python3 bench/run.py --workload lattice_sweep --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the worker runs untraced and the end-to-end metrics are
reported; with ``--trace 1`` the public functions of wildcoh are wrapped
in spans and the per-layer metrics are reported.  Two set-up-only workers
run before the measured worker and two after it, so that ``setup_s`` is
a median of five set-ups spread over the run.  Every timing is scaled to
a reference host speed by the probes of ``hostspeed.py``.
Every operation is checked against an independent oracle; the process
exits 1 (after printing the result) if any check failed, and 2 without a
result if the package source is missing or a worker died.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import threading
from pathlib import Path
from statistics import median
from time import perf_counter

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("lattice_sweep", "normal_form", "module_triples")
CHILD_GRACE_S = 120  # worker time allowed beyond --seconds before it is killed
SETUP_PROBE_S = 0.2  # host-speed probing before and after each set-up-only worker
SETUP_ONLY_EACH_SIDE = 2  # set-up-only workers before and after the measured one

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}

PER_LAYER = (
    "gf.scalar_ops",
    "linalg.rref.calls", "linalg.rref.self_s", "linalg.rref.cells",
    "linalg.mat_mul.calls", "linalg.mat_mul.self_s",
    "linalg.row_echelon.calls", "linalg.row_echelon.self_s",
    "linalg.nullspace.self_s", "linalg.elementwise.self_s", "linalg.ext_field.self_s",
    "laurent.mul.calls", "laurent.mul.self_s", "laurent.mul.coeffs",
    "laurent.invert.calls", "laurent.invert.self_s",
    "laurent.substitute.calls", "laurent.substitute.self_s",
    "laurent.nth_root.self_s", "laurent.pow.self_s",
    "ascover.build.calls", "ascover.build.self_s", "ascover.sigma_power.self_s",
    "ascover.window.calls", "ascover.window.self_s", "ascover.window.cells",
    "ascover.verify_normal_form.self_s", "ascover.invariant_differential_check.self_s",
    "cohom.h1_lattice.calls", "cohom.h1_lattice.self_s", "cohom.d_image_rank.self_s",
    "cohom.cached_cover.misses", "cohom.cached_cover.hit_ratio",
    "profile.dims.self_s", "profile.defect_by_linear_algebra.self_s",
    "modrep.block_decomposition.calls", "modrep.block_decomposition.self_s",
    "modrep.splits.self_s", "modrep.invariants_additive.self_s",
    "modrep.random_exact_triple.self_s",
    "gf.errors", "linalg.errors", "laurent.errors", "ascover.errors",
    "cohom.errors", "profile.errors", "modrep.errors",
    "trace.overhead", "trace.coverage",
)

MIN_COVERAGE = 0.9  # named spans must cover this share of traced operation time


class BenchError(Exception):
    """The benchmark could not run; reported on stderr, no result printed."""


def per_layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("hit_ratio") or name.startswith("trace."):
        return "ratio"
    return "count"


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every run compiles alike, nothing is written
    return env


def _start_worker(args: argparse.Namespace, setup_only: bool, trace_path: Path | None):
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_path is not None:
        cmd += ["--trace-path", str(trace_path)]
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_child_env(),
                            cwd=str(ROOT))


def _run_worker(args, setup_only: bool, trace_path: Path | None = None) -> tuple[float, dict, dict]:
    """Start a worker; return (set-up seconds, ready record, result record)."""
    start = perf_counter()
    proc = _start_worker(args, setup_only, trace_path)
    killer = threading.Timer(args.seconds + CHILD_GRACE_S, proc.kill)
    killer.start()
    try:
        ready_line = proc.stdout.readline()
        setup_s = perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or not ready_line:
        raise BenchError(f"worker exited with code {code} (workload {args.workload})")
    ready = json.loads(ready_line)
    result = {}
    if not setup_only:
        lines = [line for line in rest.splitlines() if line.strip()]
        if not lines:
            raise BenchError("worker printed no result")
        result = json.loads(lines[-1])
    return setup_s, ready, result


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args: argparse.Namespace) -> int:
    if not (SRC / "wildcoh" / "__init__.py").is_file():
        raise BenchError(f"package source not found under {SRC}; run from a full checkout")
    load_before = os.getloadavg()
    problems: list[str] = []
    setups: list[float] = []
    digests = set()

    # probes around the set-ups give setup_s its host-speed factor
    probe = hostspeed.Probe()

    def set_up_only() -> None:
        probe.burst(SETUP_PROBE_S)
        setup_s, ready, _ = _run_worker(args, setup_only=True)
        setups.append(setup_s)
        digests.add(ready["input_digest"])
        probe.burst(SETUP_PROBE_S)

    trace_path = None
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"{args.workload}-seed{args.seed}.trace.jsonl"
    else:
        for _ in range(SETUP_ONLY_EACH_SIDE):
            set_up_only()
    setup_s, ready, result = _run_worker(args, setup_only=False, trace_path=trace_path)
    setups.append(setup_s)
    digests.add(ready["input_digest"])
    if not args.trace:
        for _ in range(SETUP_ONLY_EACH_SIDE):
            set_up_only()
    if len(digests) > 1:
        problems.append("set-up produced different inputs for one seed")
    problems += result["problems"]

    attempted, failed = result["attempted"], result["failed"]
    env = {
        "git_sha": _git_sha(),
        "python": result["python"],
        "numpy": result["numpy"],
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "load_before": load_before,
        "load_after": os.getloadavg(),
        "wildcoh": result["wildcoh_file"],
    }
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("env " + json.dumps(env))
    print(f"passes {result['passes']} ops_per_pass {result['ops_per_pass']} "
          f"digest {result['digest']} findings_8b {result['findings_8b']}")
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted})")

    if args.trace:
        values = result["metrics"]
        if set(values) != set(PER_LAYER):
            raise BenchError(f"traced metrics do not match the declared set: "
                             f"{sorted(set(values) ^ set(PER_LAYER))}")
        metrics = {name: _metric(values[name], per_layer_unit(name)) for name in PER_LAYER}
        if values["trace.coverage"] < MIN_COVERAGE:
            print(f"warning: named spans cover {values['trace.coverage']:.1%} of "
                  f"operation time, below {MIN_COVERAGE:.0%}", file=sys.stderr)
        print(f"trace_file {result['trace_file']} spans {result['spans_written']} "
              f"plain_passes {result['plain_passes']} traced_passes {result['traced_passes']}")
    else:
        metrics = {
            "setup_s": _metric(median(setups) * probe.scale(), "s"),
            "ops_per_s": _metric(result["ops_per_s"], "1/s"),
            "op_p50_ms": _metric(result["op_p50_ms"], "ms"),
            "op_p90_ms": _metric(result["op_p90_ms"], "ms"),
            "peak_rss_mb": _metric(result["peak_rss_mb"], "MiB"),
        }
        print(f"cpu_over_wall {result['cpu_over_wall']:.4f} wall_s {result['wall_s']:.3f} "
              f"setup_samples {[round(s, 4) for s in setups]}")
        print(f"probe_ms worker {result['probe_ms']:.4f} ({result['probes']} probes) "
              f"set-up {median(probe.times) * 1e3:.4f} ({len(probe.times)} probes); "
              f"reference {hostspeed.REFERENCE_PROBE_S * 1e3:.4f}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for msg in problems:
        print(f"problem: {msg}", file=sys.stderr)
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still stops its worker (see _run_worker's finally)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
