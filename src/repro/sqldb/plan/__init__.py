"""The query-planning subsystem.

The classic optimizer pipeline, in miniature:

1. :mod:`repro.sqldb.plan.planner` translates a parsed ``SELECT`` into a tree
   of **logical** plan nodes (:mod:`repro.sqldb.plan.logical`).
2. :mod:`repro.sqldb.plan.optimizer` rewrites the logical tree with
   rule-based transformations: cost-based join reordering, predicate
   pushdown below joins, access-path (index) selection, ordered-index
   range scans with sort elision, and join-strategy choice.
3. :mod:`repro.sqldb.plan.physical` lowers the logical tree into
   Volcano-style physical operators and runs them, producing an
   :class:`repro.sqldb.result.ExecResult`.  The physical plan keeps the
   optimized logical tree (``PhysicalPlan.logical``), which is what EXPLAIN
   and EXPLAIN ANALYZE render.

:mod:`repro.sqldb.plan.access` holds the index-selection machinery of the
index access operators, and
:mod:`repro.sqldb.plan.batch` implements the batch-level shared-scan
optimizer used by the simulated database server.
"""

from repro.sqldb.plan.logical import explain
from repro.sqldb.plan.optimizer import (
    DEFAULT_OPTIONS,
    FROM_ORDER_OPTIONS,
    OptimizerOptions,
    optimize,
)
from repro.sqldb.plan.physical import build_physical
from repro.sqldb.plan.planner import build_select_plan

__all__ = [
    "build_select_plan",
    "optimize",
    "build_physical",
    "explain",
    "plan_select",
    "OptimizerOptions",
    "DEFAULT_OPTIONS",
    "FROM_ORDER_OPTIONS",
]


def plan_select(db, stmt):
    """Full pipeline for a SELECT: plan, optimize, lower to physical.

    Returns an executable :class:`repro.sqldb.plan.physical.PhysicalPlan`.
    """
    logical, sctx = build_select_plan(db, stmt)
    logical = optimize(logical, sctx, db)
    return build_physical(logical, sctx)
