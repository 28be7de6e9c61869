"""Exact-arithmetic toolkit for equivariant cohomology of Z/p-covers of curves.

Everything is computed over explicit finite fields with no floating point:
truncated Laurent series model the completed local rings of a wildly
ramified cyclic cover, group cohomology is done by exact linear algebra,
and the global splitting-defect bookkeeping is plain integer arithmetic.
"""

from wildcoh.gf import FieldCtx, NoRootError
from wildcoh.laurent import LaurentSeries
from wildcoh.ascover import LocalCover, build
from wildcoh.profile import RamificationProfile, DefectReport

__version__ = "0.1.0"

__all__ = [
    "FieldCtx",
    "NoRootError",
    "LaurentSeries",
    "LocalCover",
    "build",
    "RamificationProfile",
    "DefectReport",
    "__version__",
]
