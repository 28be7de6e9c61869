"""Tests of the benchmark itself: determinism, oracles, failure accounting.

Run from the repository root with ``python -m pytest bench/tests``.  The
passes here run on small slices of each workload so the suite stays fast.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import hostspeed
import run
import tracer
import worker
import workloads
from wildcoh import cohom, linalg


def small(name: str, seed: int) -> workloads.Workload:
    """The workload with its inputs cut to a cheap but representative slice."""
    wl = workloads.build(name, seed)
    if name == "lattice_sweep":
        keep = [d for d in wl.inputs if d[1] in (3, 5)]  # rows and profiles
    elif name == "normal_form":
        keep = [d for d in wl.inputs if d[1] <= 5]
    else:
        keep = wl.inputs[::50]  # four triples from each of the seven fields
    return dataclasses.replace(wl, inputs=keep)


def traced_pass(wl: workloads.Workload):
    tr = tracer.Tracer()
    tr.install()
    try:
        wl.reset()
        tr.collect()
        result = worker.run_pass(wl, tr)
        counts, times = tracer.summarize(tr.collect())
    finally:
        tr.uninstall()
    return result, counts, times


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_runs_repeat_counts_and_digest(name):
    first, counts1, times = traced_pass(small(name, 7))
    second, counts2, _ = traced_pass(small(name, 7))
    assert first.failed == 0 and second.failed == 0
    assert first.digest == second.digest
    assert counts1 == counts2
    assert times["op_covered_s"] >= run.MIN_COVERAGE * times["op_time_s"]


def test_untraced_digest_equals_traced_digest():
    wl = small("lattice_sweep", 3)
    traced, _, _ = traced_pass(wl)
    assert worker.run_pass(wl).digest == traced.digest


def test_uninstall_restores_the_program():
    original_rref = linalg.rref
    original_cache = cohom.cached_cover
    tr = tracer.Tracer()
    tr.install()
    assert linalg.rref is not original_rref
    tr.uninstall()
    assert linalg.rref is original_rref
    assert cohom.cached_cover is original_cache


@pytest.mark.parametrize("name", workloads.NAMES)
def test_other_seed_same_count_different_digest(name):
    count = len(workloads.build(name, 1).inputs)
    assert count == len(workloads.build(name, 2).inputs)
    assert count >= 110  # so the p90 over operations has ten beyond it
    one, two = worker.run_pass(small(name, 1)), worker.run_pass(small(name, 2))
    assert one.attempted == two.attempted
    assert one.digest != two.digest



def test_probe_scales_each_stretch_by_the_probes_around_it():
    probe = hostspeed.Probe()
    ref = hostspeed.REFERENCE_PROBE_S
    probe.times = [2 * ref] * 20 + [ref] * 20  # the host doubles its speed halfway
    probe.segments = [0.02] * 40
    scales = probe.finish()
    assert len(scales) == len(probe.segments) == 41
    assert scales[0] == pytest.approx(0.5)  # a slow stretch counts half its wall time
    assert scales[-1] == pytest.approx(1.0)


def test_timed_run_reports_times_at_the_reference_speed():
    out = worker.timed_run(small("normal_form", 2), seconds=0)
    assert out["probes"] >= 1 and out["probe_ms"] > 0
    assert out["ops_per_s"] > 0 and 0 < out["op_p50_ms"] <= out["op_p90_ms"]


def test_oracle_checks_flag_planted_mismatches():
    p, n, a = 5, 3, 2
    h1 = cohom.h1_closed_form(p, n, a)
    assert workloads.check_h1(p, n, a, h1) is None
    assert workloads.check_h1(p, n, a, h1 + 1) is not None
    d_rank = cohom.d_image_closed_form(p, n)
    assert workloads.check_d_rank(p, n, d_rank) is None
    assert workloads.check_d_rank(p, n, d_rank - 1) is not None
    assert workloads.check_defect(2, 2) is None
    assert workloads.check_defect(2, 3) is not None
    assert workloads.check_triple(True, False) is not None
    # additive but not split is the 8b finding, not a failure
    assert workloads.check_triple(False, True) is None


def test_closed_form_off_by_one_fails_every_row(monkeypatch):
    wl = small("lattice_sweep", 4)
    rows = sum(d[0] == "row" for d in wl.inputs)
    closed = cohom.h1_closed_form
    monkeypatch.setattr(cohom, "h1_closed_form", lambda p, n, a: closed(p, n, a) + 1)
    result = worker.run_pass(wl)
    assert result.attempted == len(wl.inputs)
    assert result.failed == rows


def test_failed_operation_counts_without_aborting(monkeypatch):
    wl = small("lattice_sweep", 5)
    rows = sum(d[0] == "row" for d in wl.inputs)
    h1_lattice = cohom.h1_lattice
    calls = []

    def flaky(cov, a, w=None):
        calls.append(a)
        if len(calls) % rows == 2:  # the second row of every pass
            raise cohom.StabilizationError("planted")
        return h1_lattice(cov, a, w)

    monkeypatch.setattr(cohom, "h1_lattice", flaky)
    out = worker.timed_run(wl, seconds=0)
    assert out["passes"] == worker.MIN_PASSES
    assert out["attempted"] == worker.MIN_PASSES * len(wl.inputs)
    assert out["failed"] == worker.MIN_PASSES
    assert out["ops_per_s"] > 0
    assert any("StabilizationError: planted" in msg for msg in out["problems"])


def test_module_triples_count_8b_findings_without_failing():
    result = worker.run_pass(workloads.build("module_triples", 1))
    assert result.failed == 0
    assert result.findings >= 1


def test_benchmark_json_declares_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    for m in spec["per_layer"]:
        assert m["unit"] == run.per_layer_unit(m["name"])


def test_run_without_package_source_fails_without_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "normal_form", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
