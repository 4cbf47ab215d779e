"""The Sloth "lazifying" compiler over the paper's kernel language.

The paper formalizes extended lazy evaluation on a small imperative language
(Fig. 4) and proves the lazy semantics equivalent to the standard semantics
once all thunks are forced.  This package implements that formalism:

- :mod:`repro.compiler.kernel` — the kernel-language AST and program model,
- :mod:`repro.compiler.standard_interp` — standard (eager) semantics,
- :mod:`repro.compiler.lazy_interp` — extended lazy semantics, run on the
  production runtime library: thunks, ``force`` and the query store are
  :mod:`repro.core`'s, the database is the appendix's dict behind the
  server contract :mod:`repro.net`'s batch driver speaks, and the §4
  optimizations are the runtime's flags,
- :mod:`repro.compiler.analysis` — the compiler's analysis passes:
  persistence analysis (selective compilation, §4.1), side-effect/deferrable
  labeling (branch deferral, §4.2) and liveness (thunk coalescing, §4.3),
- :mod:`repro.compiler.optimize` — applies the analyses to label a program,
- :mod:`repro.compiler.parser` — a concrete syntax for writing kernel
  programs in tests and examples.

Compiled code *calls* the runtime library (paper §5), so this package sits
above ``core`` and ``net`` in the import order.  The property-based tests in
``tests/compiler`` exercise the soundness theorem on randomly generated
programs — through the production dedup key, write barrier and failed-batch
contract.
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
