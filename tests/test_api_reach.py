"""No API layer that nothing uses: the package-wide reach guard.

Every public module-level function or class of wildcoh is used by code
in src/ outside its own definition, or is named in bench/ (which wraps and
calls the package by name), and names deleted for want of a caller stay
deleted.  The field, series and linear-algebra layers keep their stricter
rules here too; tests/test_laurent.py and tests/test_linalg.py run them.
"""

import ast
import dataclasses
import importlib
import inspect
import io
import re
import tokenize
from pathlib import Path

from wildcoh import ascover, char2ex, cohom, laurent, linalg, modrep, profile
from wildcoh.gf import FieldCtx

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wildcoh"

# (owner, attribute) pairs that were deleted because nothing reached them
REMOVED = [
    (modrep, "SectionAction"),
    (modrep.GroupTable, "__contains__"),
    (ascover.DifferentialCheck, "__bool__"),
    (profile.RamificationProfile, "to_json"),
    (cohom, "_window_size"),
    (char2ex, "inverse"),
    (profile, "main_theorem_check"),
    (profile, "MainTheoremVerdict"),
    (FieldCtx, "sub_outer"),
    (cohom, "trivial_module_h1"),
    (cohom, "_cover"),
    (cohom, "_clear_shared"),
    (cohom, "_x_image"),
    (FieldCtx, "_sum"),
]
# dataclass fields that only echoed the call's arguments, or that nothing in src/ read
REMOVED_FIELDS = [
    (ascover.NormalFormReport, {"p", "n", "prec"}),
    (cohom.BasisCertificate, {"a"}),
    (char2ex.IndecomposabilityCertificate, {"first_line_stable"}),
]
# messages of checks that an earlier check on the same data implies
UNREACHABLE = ["composition left", "sigma-fixed in the window", "divisible by the characteristic",
               "total is odd", "non-integral quotient genus",
               "coset count does not match the index"]


def _names(text):
    """(identifier, line) for the code of Python source, without its comments and strings.

    The name a def or a class statement binds is no use of it, and an
    attribute .name is kept with what precedes its dot, as "x.name": it
    uses a module's function only when x is that module.
    """
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}
    tokens = [tok for tok in tokenize.generate_tokens(io.StringIO(text).readline)
              if tok.type not in layout]
    names = []
    for i, tok in enumerate(tokens):
        prev = tokens[i - 1].string if i else ""
        if tok.type != tokenize.NAME or prev in ("def", "class"):
            continue
        name = f"{tokens[i - 2].string}.{tok.string}" if prev == "." else tok.string
        names.append((name, tok.start[0]))
    return names


def _public(module):
    return [name for name, obj in vars(module).items()
            if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == module.__name__]


def _sources():
    """(code of each src module but __init__, all of bench/, bench/tracer.py)."""
    # a re-export in __init__.py is not a use
    texts = {path.stem: path.read_text(encoding="utf-8")
             for path in PACKAGE.glob("*.py") if path.stem != "__init__"}
    bench = "".join(path.read_text(encoding="utf-8") for path in (ROOT / "bench").rglob("*.py"))
    tracer = (ROOT / "bench" / "tracer.py").read_text(encoding="utf-8")
    return texts, bench, tracer


def _outside(texts, stem):
    return "".join(text for name, text in texts.items() if name != stem)


def unreached_modules():
    """Public functions and classes used nowhere in src/ outside their own
    definition and not named in bench/."""
    texts, bench, _ = _sources()
    # a use in src/ is code, not a comment or a docstring
    names = {stem: _names(text) for stem, text in texts.items()}
    unused = []
    for stem in texts:
        module = importlib.import_module(f"wildcoh.{stem}")
        elsewhere = {name for other, found in names.items() if other != stem for name, _ in found}
        for name in _public(module):
            lines, first = inspect.getsourcelines(getattr(module, name))
            used = elsewhere | {found for found, line in names[stem]
                                if not first <= line < first + len(lines)}
            if not used & {name, f"{stem}.{name}"} and not re.search(rf"\b{name}\b", bench):
                unused.append(f"{stem}.{name}")
    return unused


def unreached_field_and_series():
    """Public FieldCtx methods and laurent names with no caller in another
    module of the package that bench/tracer.py does not wrap by name."""
    texts, _, tracer = _sources()
    # one kernel per operation: the library names a field context ctx (or
    # F4 in char2ex); the tracer names what it wraps in strings
    methods = [name for name, obj in vars(FieldCtx).items()
               if not name.startswith("_") and inspect.isfunction(obj)]
    traced = re.findall(r'"(\w+)"', re.search(r"SCALAR_OPS = \(([^)]*)\)", tracer)[1])
    series = _public(laurent)
    assert "convolve" in methods and "mul_sub" in methods and "spread" in series
    unused = [f"FieldCtx.{name}" for name in methods
              if not re.search(rf"\b(?:ctx|F4)\.{name}\b", _outside(texts, "gf"))
              and name not in traced]
    return unused + [f"laurent.{name}" for name in series
                     if not re.search(rf"\b{name}\b", _outside(texts, "laurent"))
                     and not re.search(rf'\blaurent(\.{name}\b|, "{name}")', tracer)]


def unreached_linalg():
    """Public linalg names that no other module of the package calls as
    linalg.<name> and bench/tracer.py does not wrap by name (a list helper
    the tests alone need lives in tests/oracles.py)."""
    texts, _, tracer = _sources()
    matrices = _public(linalg)
    assert "rref" in matrices and "RowEchelon" in matrices
    return [f"linalg.{name}" for name in matrices
            if not re.search(rf"\blinalg\.{name}\b", _outside(texts, "linalg"))
            and not re.search(rf'\blinalg(\.{name}\b|, "{name}")', tracer)]


def test_every_public_name_serves_src_or_bench():
    # the field, series and linear-algebra rules run under their own
    # names in tests/test_laurent.py and tests/test_linalg.py
    assert unreached_modules() == []

    # what was deleted for want of a caller does not grow back
    texts, _, _ = _sources()
    assert [name for owner, name in REMOVED if name in vars(owner)] == []
    assert [cls.__name__ for cls, gone in REMOVED_FIELDS
            if gone & {field.name for field in dataclasses.fields(cls)}] == []
    assert [message for message in UNREACHABLE
            if any(message in text for text in texts.values())] == []


def wildcoh_imports():
    """The wildcoh modules that each module of the package imports, read from its syntax tree."""
    imports = {}
    for path in PACKAGE.glob("*.py"):
        found = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[1] for alias in node.names
                             if alias.name.startswith("wildcoh."))
            elif isinstance(node, ast.ImportFrom) and node.module == "wildcoh":
                found.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("wildcoh."):
                found.add(node.module.split(".")[1])
        imports[path.stem] = found
    return imports


def test_the_module_layer_stands_alone():
    # modules over cyclic groups need the field and linear algebra, not the
    # local-cover stack (cohom -> ascover -> laurent)
    imports = wildcoh_imports()
    # the reader finds both import forms, so the subset test is not vacuous
    assert {"ascover", "char2ex", "gf", "modrep"} <= imports["acceptance"]
    assert imports["modrep"] <= {"gf", "linalg"}
    # cohom is the lattice route alone: it reads no module's Jordan type
    assert imports["cohom"] <= {"ascover", "linalg"}
    # the module class and its cohomology live in modrep alone, with no alias in cohom
    assert not {"CyclicModule", "periodic_cohomology"} & set(vars(cohom))
