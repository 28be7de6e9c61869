"""The benchmark's span recorder still finds every name it wraps.

bench/tracer.py wraps public functions of wildcoh by name and raises on a
name that is missing, so renaming or deleting one breaks the benchmark.
This loads the recorder by path, installs and uninstalls it, and checks
that every wrapped attribute comes back as it was; it changes no file.
"""

import importlib.util
import sys
from pathlib import Path

from wildcoh import gf

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_installs_and_restores_every_wrapped_attribute(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    wrapped = [(owner, attr) for owner, attr, *_ in tracer.TARGETS]
    wrapped += [(gf.FieldCtx, attr) for attr in tracer.SCALAR_OPS]
    originals = [owner.__dict__[attr] for owner, attr in wrapped]
    recorder = tracer.Tracer()
    recorder.install()
    try:
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr), original in zip(wrapped, originals))
    finally:
        recorder.uninstall()
    assert all(owner.__dict__[attr] is original
               for (owner, attr), original in zip(wrapped, originals))
