"""One workload in one process: set up, run passes for a while, report.

Started by run.py.  Prints JSON lines on standard output:
``{"event": "ready", ...}`` once the inputs exist (the parent times
process start to this line as set-up), then ``{"event": "result", ...}``.

A pass runs every operation of the workload once, in order, as a closed
loop with one caller.  Passes repeat until the time budget is spent;
each starts from a cold cover cache, so passes do identical work and
give identical result digests.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from dataclasses import dataclass
from statistics import median, quantiles
from time import perf_counter, process_time

import hostspeed
import workloads

MIN_PASSES = 3  # a run compares result digests across passes, so it needs several
MAX_PROBLEMS = 5  # problem strings kept per pass for the report


@dataclass
class PassResult:
    latencies: list[float]
    marks: list[int]  # host-speed probe mark of each latency (empty without a probe)
    failed: int
    findings: int
    digest: str
    wall_s: float
    problems: list[str]

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def run_pass(wl: workloads.Workload, tracer=None, probe=None) -> PassResult:
    """Run every operation once; a failing operation is recorded, not fatal.

    A host-speed ``probe`` runs between operations, outside their latencies.
    """
    pass_start = perf_counter()
    wl.reset()
    latencies, marks, results, problems = [], [], [], []
    failed = findings = 0
    for op_id, desc in enumerate(wl.inputs):
        start = perf_counter()
        try:
            if tracer is None:
                outcome = wl.run_op(desc)
            else:
                outcome = tracer.run_op(op_id, wl.run_op, desc)
        except Exception as exc:  # boundary: one failed operation must not end the run
            tail = traceback.format_exception_only(type(exc), exc)[-1].strip()
            outcome = workloads.Outcome(["error", type(exc).__name__], [f"op {op_id}: {tail}"])
        latencies.append(perf_counter() - start)
        if probe is not None:
            marks.append(probe.mark())
            probe.maybe()
        results.append(outcome.result)
        if outcome.problems:
            failed += 1
            problems.extend(outcome.problems)
        findings += outcome.finding
    digest = workloads.canonical_digest({"results": results, "findings": findings})
    return PassResult(latencies, marks, failed, findings, digest, perf_counter() - pass_start,
                      problems[:MAX_PROBLEMS])


def _merge(passes: list[PassResult]) -> dict:
    digests = {p.digest for p in passes}
    problems = [msg for p in passes for msg in p.problems][:MAX_PROBLEMS]
    if len(digests) > 1:
        problems.append("result digest differs between passes")
    return {
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "ops_per_pass": passes[0].attempted,
        "passes": len(passes),
        "digest": passes[0].digest,
        "findings_8b": passes[0].findings,
        "problems": problems,
    }


def timed_run(wl: workloads.Workload, seconds: float) -> dict:
    """Passes until the budget is spent (at least MIN_PASSES).

    ``ops_per_s`` is completed operations over the wall time of all
    passes; the latency percentiles are over every operation of every
    pass.  Every time is taken at the reference host speed, scaled by the
    probes around it (see hostspeed.py), and the probes themselves are
    left out.
    """
    passes: list[PassResult] = []
    probe = hostspeed.Probe()
    wall0, cpu0 = perf_counter(), process_time()
    while True:
        passes.append(run_pass(wl, probe=probe))
        elapsed = perf_counter() - wall0
        if elapsed >= seconds and len(passes) >= MIN_PASSES:
            break
    cpu = process_time() - cpu0
    scales = probe.finish()
    out = _merge(passes)
    latencies = [t * scales[m] for p in passes for t, m in zip(p.latencies, p.marks)]
    wall = sum(s * f for s, f in zip(probe.segments, scales))
    out.update({
        "wall_s": elapsed,
        "cpu_over_wall": cpu / elapsed,
        "probe_ms": median(probe.times) * 1e3,
        "probes": len(probe.times),
        "ops_per_s": (out["attempted"] - out["failed"]) / wall,
        "op_p50_ms": median(latencies) * 1e3,
        "op_p90_ms": quantiles(latencies, n=10)[8] * 1e3,
    })
    return out


def traced_run(wl: workloads.Workload, seed: int, seconds: float, trace_path: str) -> dict:
    """Untraced passes for a third of the budget, then traced passes.

    The inputs are generated again under the tracer, so set-up layers
    (random_exact_triple) get spans; they must equal the untraced inputs.
    Spans of the set-up and the first traced pass are written to
    trace_path; later passes are summarized and their spans dropped.
    """
    import tracer as tracing

    wall0 = perf_counter()
    plain = [run_pass(wl)]
    while perf_counter() - wall0 < seconds / 3:
        plain.append(run_pass(wl))
    tr = tracing.Tracer()
    tr.install()
    try:
        wl.reset()  # zero the cover-cache statistics before the set-up is traced
        tr.collect()
        traced_wl = workloads.build(wl.name, seed)
        setup = tr.collect()
        traced, summaries = [], []
        while len(traced) < 2 or perf_counter() - wall0 < seconds:
            traced.append(run_pass(traced_wl, tr))
            pass_trace = tr.collect()
            summaries.append(tracing.summarize(pass_trace))
            if len(traced) == 1:
                spans_written = tracing.write_spans(trace_path, [setup, pass_trace])
            del pass_trace
    finally:
        tr.uninstall()
    out = _merge(plain + traced)
    metrics, counts_repeat = tracing.combine(tracing.summarize(setup), summaries)
    metrics["trace.overhead"] = median(p.wall_s for p in traced) / median(p.wall_s for p in plain)
    if traced_wl.input_digest != wl.input_digest:
        out["problems"].append("inputs generated under the tracer differ")
    if not counts_repeat:
        out["problems"].append("traced counts differ between passes")
    out.update({"metrics": metrics, "trace_file": trace_path, "spans_written": spans_written,
                "traced_passes": len(traced), "plain_passes": len(plain)})
    return out


def _emit(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-path", default=None)
    args = parser.parse_args(argv)

    wl = workloads.build(args.workload, args.seed)
    _emit({"event": "ready", "input_digest": wl.input_digest, "ops_per_pass": len(wl.inputs)})
    if args.setup_only:
        return 0
    if args.trace:
        out = traced_run(wl, args.seed, args.seconds, args.trace_path)
    else:
        out = timed_run(wl, args.seconds)
    import numpy

    out.update({
        "event": "result",
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "wildcoh_file": workloads.cohom.__file__,
    })
    _emit(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
