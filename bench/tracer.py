"""Span recorder that wraps the public functions of ``wildcoh`` from outside.

``Tracer.install()`` replaces each function named in ``TARGETS`` (module
functions and class methods) with a wrapper that records a span: name,
start, end, parent span, operation id and size attributes.  Spans are
kept in memory; ``collect()`` hands over the spans of one pass together
with the scalar field-operation count, the per-layer error counts and
the cover-cache statistics.  ``uninstall()`` restores the originals.

Field arithmetic (``FieldCtx.add/sub/neg/mul/inv``) is counted, not
spanned: there are hundreds of thousands of such calls per pass.

When the program grows in-program spans, these wrappers are to be
replaced by them rather than kept beside them.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from dataclasses import dataclass
from statistics import median
from time import perf_counter

from wildcoh import ascover, cohom, gf, laurent, linalg, modrep, profile

LAYERS = ("gf", "linalg", "laurent", "ascover", "cohom", "profile", "modrep")
OP_SPAN = "bench.op"

# Span fields, in list order.
NAME, START, END, PARENT, OP, ATTRS, CHILD = range(7)


def _matrix(ctx, a, *rest):
    return {"q": ctx.q, "m": ctx.m, "rows": len(a), "cols": len(a[0]) if a else 0}


def _mat_mul(ctx, a, b):
    return {"q": ctx.q, "m": ctx.m, "rows": len(a), "inner": len(b),
            "cols": len(b[0]) if b else 0}


def _echelon(ech, vec):
    return {"q": ech.ctx.q, "m": ech.ctx.m, "len": len(vec), "rank": ech.rank}


def _series_len(s) -> int:
    return s.prec - s.val


def _mul(a, b):
    return {"q": a.ctx.q, "la": len(a.coeffs), "lb": len(b.coeffs),
            "out": max(0, min(_series_len(a), _series_len(b)))}


def _series(s, *rest):
    return {"q": s.ctx.q, "len": _series_len(s)}


def _substitute(s, g):
    return {"q": s.ctx.q, "len": len(s.coeffs), "prec": g.prec}


def _build(p, n, prec):
    return {"p": p, "n": n, "prec": prec}


def _cover(cov, *args):
    out = {"p": cov.p, "n": cov.n, "prec": cov.prec}
    if len(args) == 2:  # window(a, lo)
        out["size"] = args[0] - args[1]
    return out


def _h1(cov, a, w=None):
    return {"p": cov.p, "n": cov.n, "a": a, "w": w if w is not None else cov.n + cov.p + 1}


def _cached_cover(p, n, w=None):
    return {"p": p, "n": n}


def _profile(prof, *rest):
    return {"p": prof.p, "jumps": len(prof.jumps)}


def _module(mod):
    return {"q": mod.ctx.q, "group": mod.q, "dim": mod.dim}


def _triple(triple):
    return {"q": triple.b.ctx.q, "group": triple.b.q, "dim": triple.b.dim}


def _random_triple(ctx, q, rng, max_dim=10):
    return {"q": ctx.q, "group": q}


# (owner, attribute, span name, size attributes)
TARGETS = (
    (linalg, "rref", "linalg.rref", _matrix),
    (linalg, "mat_mul", "linalg.mat_mul", _mat_mul),
    (linalg, "nullspace", "linalg.nullspace", _matrix),
    (linalg, "mat_add", "linalg.elementwise", _matrix),
    (linalg, "mat_sub", "linalg.elementwise", _matrix),
    (linalg.RowEchelon, "add", "linalg.row_echelon", _echelon),
    (linalg.RowEchelon, "reduce", "linalg.row_echelon", _echelon),
    (laurent.LaurentSeries, "__mul__", "laurent.mul", _mul),
    (laurent.LaurentSeries, "invert", "laurent.invert", _series),
    (laurent.LaurentSeries, "substitute", "laurent.substitute", _substitute),
    (laurent.LaurentSeries, "nth_root", "laurent.nth_root", _series),
    (laurent.LaurentSeries, "__pow__", "laurent.pow", _series),
    (ascover, "build", "ascover.build", _build),
    (ascover.LocalCover, "sigma_power", "ascover.sigma_power", _cover),
    (ascover.LocalCover, "window", "ascover.window", _cover),
    (ascover, "verify_normal_form", "ascover.verify_normal_form", _cover),
    (ascover, "invariant_differential_check", "ascover.invariant_differential_check", _cover),
    (cohom, "h1_lattice", "cohom.h1_lattice", _h1),
    (cohom, "d_image_rank", "cohom.d_image_rank", _cover),
    (cohom, "cached_cover", "cohom.cached_cover", _cached_cover),
    (profile, "dims", "profile.dims", _profile),
    (profile, "defect_by_linear_algebra", "profile.defect_by_linear_algebra", _profile),
    (modrep, "block_decomposition", "modrep.block_decomposition", _module),
    (modrep, "splits", "modrep.splits", _triple),
    (modrep, "invariants_additive", "modrep.invariants_additive", _triple),
    (modrep, "random_exact_triple", "modrep.random_exact_triple", _random_triple),
)

SCALAR_OPS = ("add", "sub", "neg", "mul", "inv")


@dataclass
class PassTrace:
    """What one traced stretch of work left behind."""

    spans: list
    scalar_ops: int
    errors: Counter
    cache_hits: int
    cache_misses: int


class Tracer:
    """In-memory span recorder; a no-op until installed."""

    def __init__(self):
        self._spans: list = []
        self._stack: list[int] = []
        self._scalar_ops = 0
        self._errors: Counter = Counter()
        self._originals: list = []
        self._cache = cohom.cached_cover  # the lru_cache object itself
        self.op: int | None = None

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, attrs in TARGETS:
            self._replace(owner, attr, self._span_wrapper(owner.__dict__[attr], name, attrs))
        for attr in SCALAR_OPS:
            self._replace(gf.FieldCtx, attr, self._counting_wrapper(gf.FieldCtx.__dict__[attr]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals = []

    def _replace(self, owner, attr, wrapper) -> None:
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, fn, name, attrs):
        layer = name.split(".", 1)[0]
        spans, stack, errors = self._spans, self._stack, self._errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            rec = [name, 0.0, 0.0, parent, self.op, attrs(*args, **kwargs), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                # count an exception once per layer boundary it crosses
                if parent is None or not spans[parent][NAME].startswith(layer + "."):
                    errors[layer] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                rec[START], rec[END] = start, end
                if parent is not None:
                    spans[parent][CHILD] += end - start

        for extra in ("cache_info", "cache_clear"):
            if hasattr(fn, extra):
                setattr(wrapper, extra, getattr(fn, extra))
        return wrapper

    def _counting_wrapper(self, fn):
        def wrapper(*args):
            self._scalar_ops += 1
            try:
                return fn(*args)
            except BaseException:
                self._errors["gf"] += 1
                raise

        return functools.update_wrapper(wrapper, fn)

    # -- operation spans ------------------------------------------------------

    def run_op(self, op_id: int, fn, *args):
        """Run one benchmark operation inside a root span carrying its id."""
        self.op = op_id
        spans, stack = self._spans, self._stack
        rec = [OP_SPAN, 0.0, 0.0, None, op_id, None, 0.0]
        stack.append(len(spans))
        spans.append(rec)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            rec[START], rec[END] = start, perf_counter()
            stack.pop()
            self.op = None

    def collect(self) -> PassTrace:
        """Hand over everything recorded since the last collect and start afresh."""
        if self._stack:
            raise RuntimeError("collect() called inside an open span")
        info = self._cache.cache_info()
        out = PassTrace(list(self._spans), self._scalar_ops, Counter(self._errors),
                        info.hits, info.misses)
        self._spans.clear()
        self._scalar_ops = 0
        self._errors.clear()
        return out


# -- metrics ------------------------------------------------------------------

COUNT_METRICS = {
    "linalg.rref.calls": ("calls", "linalg.rref"),
    "linalg.rref.cells": ("cells", "linalg.rref"),
    "linalg.mat_mul.calls": ("calls", "linalg.mat_mul"),
    "linalg.row_echelon.calls": ("calls", "linalg.row_echelon"),
    "laurent.mul.calls": ("calls", "laurent.mul"),
    "laurent.mul.coeffs": ("coeffs", "laurent.mul"),
    "laurent.invert.calls": ("calls", "laurent.invert"),
    "laurent.substitute.calls": ("calls", "laurent.substitute"),
    "ascover.build.calls": ("calls", "ascover.build"),
    "ascover.window.calls": ("calls", "ascover.window"),
    "ascover.window.cells": ("cells", "ascover.window"),
    "cohom.h1_lattice.calls": ("calls", "cohom.h1_lattice"),
    "modrep.block_decomposition.calls": ("calls", "modrep.block_decomposition"),
}

SELF_METRICS = (
    "linalg.rref", "linalg.mat_mul", "linalg.row_echelon", "linalg.nullspace",
    "linalg.elementwise", "laurent.mul", "laurent.invert", "laurent.substitute",
    "laurent.nth_root", "laurent.pow", "ascover.build", "ascover.sigma_power",
    "ascover.window", "ascover.verify_normal_form",
    "ascover.invariant_differential_check", "cohom.h1_lattice", "cohom.d_image_rank",
    "profile.dims", "profile.defect_by_linear_algebra", "modrep.block_decomposition",
    "modrep.splits", "modrep.invariants_additive", "modrep.random_exact_triple",
)


def _cells(name: str, attrs: dict) -> int:
    if name == "linalg.rref":
        return attrs["rows"] * attrs["cols"]
    if name == "ascover.window":
        return attrs["size"] * attrs["size"]
    if name == "laurent.mul":
        return attrs["out"]
    return 0


def summarize(trace: PassTrace) -> tuple[dict, dict]:
    """Counts and times of one traced stretch of work, keyed by metric name."""
    calls: Counter = Counter()
    work: Counter = Counter()
    self_s: dict = defaultdict(float)
    ext_field = op_time = op_covered = 0.0
    for rec in trace.spans:
        name = rec[NAME]
        own = rec[END] - rec[START] - rec[CHILD]
        if name == OP_SPAN:
            op_time += rec[END] - rec[START]
            op_covered += rec[CHILD]
            continue
        calls[name] += 1
        self_s[name] += own
        work[name] += _cells(name, rec[ATTRS])
        if name.startswith("linalg.") and rec[ATTRS]["m"] > 1:
            ext_field += own
    counts = {
        "gf.scalar_ops": trace.scalar_ops,
        "cohom.cached_cover.hits": trace.cache_hits,
        "cohom.cached_cover.misses": trace.cache_misses,
    }
    for metric, (kind, name) in COUNT_METRICS.items():
        counts[metric] = calls[name] if kind == "calls" else work[name]
    for layer in LAYERS:
        counts[f"{layer}.errors"] = trace.errors[layer]
    times = {f"{name}.self_s": self_s[name] for name in SELF_METRICS}
    times["linalg.ext_field.self_s"] = ext_field
    times["op_time_s"] = op_time
    times["op_covered_s"] = op_covered
    return counts, times


def combine(setup: tuple[dict, dict], passes: list[tuple[dict, dict]]) -> tuple[dict, bool]:
    """Per-layer metrics of set-up plus one pass.

    Counts are set-up plus the first pass; times are set-up plus the
    median over passes.  Also reports whether every pass gave the same
    counts, which a deterministic program must.
    """
    counts = {k: setup[0][k] + v for k, v in passes[0][0].items()}
    counts_repeat = all(c == passes[0][0] for c, _ in passes)
    times = {k: setup[1][k] + median(t[k] for _, t in passes) for k in setup[1]}
    # the cache is cleared at every pass start, so its ratio is per pass
    hits = passes[0][0]["cohom.cached_cover.hits"]
    lookups = hits + passes[0][0]["cohom.cached_cover.misses"]
    del counts["cohom.cached_cover.hits"]
    metrics = {**counts, **times}
    metrics["cohom.cached_cover.hit_ratio"] = hits / lookups if lookups else 0.0
    metrics["trace.coverage"] = metrics.pop("op_covered_s") / metrics.pop("op_time_s")
    return metrics, counts_repeat


def write_spans(path, traces: list[PassTrace]) -> int:
    """Write spans as JSON lines (times relative to the first span); returns the count."""
    written = 0
    origin = None
    with open(path, "w", encoding="utf-8") as handle:
        for phase, trace in enumerate(traces):
            for i, rec in enumerate(trace.spans):
                if origin is None:
                    origin = rec[START]
                handle.write(json.dumps({
                    "phase": phase, "id": i, "name": rec[NAME], "parent": rec[PARENT],
                    "op": rec[OP], "start": rec[START] - origin, "end": rec[END] - origin,
                    "self_s": rec[END] - rec[START] - rec[CHILD], "attrs": rec[ATTRS],
                }) + "\n")
                written += 1
    return written
