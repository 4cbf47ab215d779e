"""Optimization planning (paper §4).

The lazy interpreter consults an :class:`OptimizationPlan` built here:

- **Selective compilation (SC, §4.1)** — functions whose effect summary
  shows no (transitive) database access are executed eagerly, with no thunk
  allocation at all.
- **Branch deferral (BD, §4.2)** — If statements whose arms are fully
  deferrable are wrapped whole into a block thunk instead of forcing the
  condition.
- **Thunk coalescing (TC, §4.3)** — maximal runs of consecutive deferrable
  assignments are merged into a single block thunk; only variables that are
  live after the run get output thunks, eliminating the per-temporary
  allocations that code simplification introduces.
"""

from repro.compiler import analysis
from repro.compiler import kernel as K


class CoalesceGroup:
    """A run of statements merged into one thunk block."""

    __slots__ = ("stmts", "outputs", "uses")

    def __init__(self, stmts, outputs, uses=frozenset()):
        self.stmts = stmts  # list of Assign statements
        self.outputs = outputs  # variables needing output thunks
        self.uses = uses  # upward-exposed variable reads

    def __repr__(self):
        return (f"CoalesceGroup({len(self.stmts)} stmts, "
                f"outputs={sorted(self.outputs)})")


class OptimizationPlan:
    """Pre-computed decisions the lazy interpreter executes against."""

    def __init__(self, program, selective_compilation=False,
                 thunk_coalescing=False, branch_deferral=False):
        self.program = program
        self.selective_compilation = selective_compilation
        self.thunk_coalescing = thunk_coalescing
        self.branch_deferral = branch_deferral
        self.summaries = analysis.classify_functions(program)
        self.deferrable_ifs = (
            analysis.deferrable_branches(program, self.summaries)
            if branch_deferral else frozenset())
        self._eager_functions = frozenset(
            name for name, effects in self.summaries.items()
            if selective_compilation
            and program.functions[name].kind != K.EXTERNAL
            and not effects.touches_database
        )
        self._coalesce_cache = {}

    def function_is_eager(self, name):
        """SC: query-free functions run without lazy semantics."""
        return name in self._eager_functions

    def branch_is_deferrable(self, if_stmt):
        return id(if_stmt) in self.deferrable_ifs

    def coalesce_groups(self, seq_stmt, live_out=frozenset()):
        """TC: partition a Seq's statements into coalesce groups and
        singleton statements.  Returns a list whose items are either a
        single statement or a :class:`CoalesceGroup`."""
        key = (id(seq_stmt), frozenset(live_out))
        cached = self._coalesce_cache.get(key)
        if cached is not None:
            return cached
        plan = coalesce_plan(seq_stmt, self.summaries, live_out)
        self._coalesce_cache[key] = plan
        return plan


def coalesce_plan(seq_stmt, summaries, live_out=frozenset()):
    """Greedy maximal-run coalescing with liveness-pruned outputs (§4.3).

    Only plain variable assignments whose right-hand side is deferrable are
    eligible; a group must contain at least two statements to be worth a
    block (a singleton gains nothing over a plain thunk).
    """
    stmts = K.statements_of(seq_stmt)
    live_after = analysis.liveness(stmts, live_out)

    plan = []
    run = []

    def close_run(end_index):
        if len(run) >= 2:
            defined = set()
            uses = set()
            for s in run:
                s_uses, _ = analysis.stmt_uses_defs(s)
                uses |= (s_uses - defined)
                defined.add(s.target.name)
            outputs = defined & live_after[end_index]
            plan.append(CoalesceGroup(list(run), outputs, frozenset(uses)))
        else:
            plan.extend(run)
        run.clear()

    for i, stmt in enumerate(stmts):
        eligible = (
            isinstance(stmt, K.Assign)
            and isinstance(stmt.target, K.Var)
            and analysis._is_deferrable_expr(stmt.expr, summaries)
        )
        if eligible:
            run.append(stmt)
            continue
        close_run(i - 1)
        plan.append(stmt)
    close_run(len(stmts) - 1)
    return plan
