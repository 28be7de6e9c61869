"""The benchmark's seed-1 passes still give the same results.

Byte-identical output for a fixed seed is part of the project's contract,
and the benchmark's result digests are the widest net for it: one pass of
each workload covers the lattice sweep, the normal forms and the random
module triples.  This loads bench/workloads.py and bench/worker.py by
path, runs one seed-1 pass of each workload, and checks its digests, its
failed operations and its findings; it changes no file.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"

# workload: (pass digest prefix, input digest prefix, findings)
SEED_1 = {
    "lattice_sweep": ("1acfc4f3", "04239e1e", 0),
    "normal_form": ("6aba50a0", "b7981858", 0),
    "module_triples": ("11d1c740", "41b9094b", 11),
}


@pytest.fixture(scope="module")
def worker():
    # worker.py imports its siblings by their bare names
    with pytest.MonkeyPatch.context() as mp:
        for name in ("hostspeed", "workloads", "worker"):
            spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            mp.setitem(sys.modules, name, module)
            spec.loader.exec_module(module)
        yield module


@pytest.mark.parametrize("name", SEED_1)
def test_seed_1_pass_keeps_its_digests(worker, name):
    pass_digest, input_digest, findings = SEED_1[name]
    wl = worker.workloads.build(name, 1)
    result = worker.run_pass(wl)
    assert result.problems == [] and result.failed == 0
    assert result.findings == findings
    assert wl.input_digest.startswith(input_digest)
    assert result.digest.startswith(pass_digest)
