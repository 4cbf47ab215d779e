"""Sloth core: extended lazy evaluation.

This is the paper's primary contribution, realized as a runtime library:

- :mod:`repro.core.thunk` — :class:`Thunk`, :class:`QueryThunk` and
  :class:`ThunkBlock`, with memoized forcing (paper §3.2, §3.3, §4.3),
- :mod:`repro.core.query_store` — the query store that accumulates reads
  into batches, deduplicates registrations, eagerly flushes on writes, and
  lands each result on the id that names it (paper §3.3),
- :mod:`repro.core.runtime` — the per-request :class:`SlothRuntime` holding
  the query store, the optimization flags (SC/TC/BD, paper §4) and the
  lazy-evaluation overhead accounting,
- :mod:`repro.core.proxy` — transparent lazy proxies, the Python idiom for
  thunk-ified values flowing through unmodified application code.

There is one lazy runtime: the pages of ``repro.apps`` run on it, and so
does the kernel-language interpreter of :mod:`repro.compiler`, which is how
the paper's soundness theorem (§3.8) reaches this package.
"""

from repro.core.query_store import QueryId, QueryStore
from repro.core.runtime import OptimizationFlags, SlothRuntime
from repro.core.thunk import QueryThunk, Thunk, ThunkBlock, force
from repro.core.proxy import LazyProxy, unwrap

__all__ = [
    "Thunk",
    "QueryThunk",
    "ThunkBlock",
    "force",
    "QueryStore",
    "QueryId",
    "SlothRuntime",
    "OptimizationFlags",
    "LazyProxy",
    "unwrap",
]
