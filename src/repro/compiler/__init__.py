"""The Sloth "lazifying" compiler over the paper's kernel language.

The paper formalizes extended lazy evaluation on a small imperative language
(Fig. 4) and proves the lazy semantics equivalent to the standard semantics
once all thunks are forced.  This package implements that formalism:

- :mod:`repro.compiler.kernel` — the kernel-language AST and program model,
- :mod:`repro.compiler.standard_interp` — standard (eager) semantics,
- :mod:`repro.compiler.lazy_interp` — extended lazy semantics with a query
  store, thunks as ``(environment, expression)`` pairs and a ``force``
  function, plus the §4 optimizations as interpreter flags,
- :mod:`repro.compiler.analysis` — the compiler's analysis passes:
  persistence analysis (selective compilation, §4.1), side-effect/deferrable
  labeling (branch deferral, §4.2) and liveness (thunk coalescing, §4.3),
- :mod:`repro.compiler.optimize` — applies the analyses to label a program,
- :mod:`repro.compiler.parser` — a concrete syntax for writing kernel
  programs in tests and examples.

The property-based tests in ``tests/compiler`` exercise the soundness
theorem on randomly generated programs.
"""

from repro.compiler.errors import KernelError, KernelParseError
from repro.compiler.kernel import Program
from repro.compiler.lazy_interp import LazyInterpreter, LazyResult
from repro.compiler.standard_interp import StandardInterpreter, StandardResult
from repro.compiler.analysis import (
    classify_functions, liveness, persistent_functions,
)
from repro.compiler.optimize import coalesce_plan

__all__ = [
    "Program",
    "StandardInterpreter",
    "StandardResult",
    "LazyInterpreter",
    "LazyResult",
    "classify_functions",
    "persistent_functions",
    "liveness",
    "coalesce_plan",
    "KernelError",
    "KernelParseError",
]
