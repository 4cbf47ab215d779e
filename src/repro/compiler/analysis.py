"""Compiler analysis passes (paper §4).

- :func:`classify_functions` — effect analysis: which functions perform
  database reads/writes, heap writes or output, transitively through calls.
  Drives both the §3.4 call-compilation rules and §4.1 selective
  compilation.
- :func:`persistent_functions` — the §4.1 inter-procedural, flow-insensitive
  persistence analysis over an abstract call graph (also used standalone by
  the Fig. 11 experiment on the benchmark applications' method inventories).
- :func:`is_deferrable_stmt` / :func:`deferrable_branches` — the §4.2 test:
  a branch may be deferred whole when neither arm issues queries, forces
  thunks (heap/output effects) or calls non-deferrable functions.
- :func:`liveness` — backwards liveness over a statement list, used by
  thunk coalescing (§4.3).
"""

from repro.compiler import kernel as K


class FunctionEffects:
    """Summary of one function's effects."""

    __slots__ = ("reads", "writes", "heap_writes", "outputs", "calls")

    def __init__(self):
        self.reads = False
        self.writes = False
        self.heap_writes = False
        self.outputs = False
        self.calls = set()

    @property
    def has_external_effects(self):
        """Effects that forbid deferring the whole call (§3.4)."""
        return self.writes or self.heap_writes or self.outputs

    @property
    def touches_database(self):
        return self.reads or self.writes


def classify_functions(program):
    """Effect summaries for every function, with transitive propagation.

    Returns ``{name: FunctionEffects}``.  External functions are treated as
    having arbitrary effects (the compiler has no source for them).
    """
    summaries = {}
    for name, fn in program.functions.items():
        effects = FunctionEffects()
        if fn.kind == K.EXTERNAL:
            effects.writes = True
            effects.heap_writes = True
            effects.outputs = True
            effects.reads = True
        else:
            _collect_stmt_effects(fn.body, effects)
            _collect_expr_effects(fn.ret, effects)
        summaries[name] = effects

    # Propagate callee effects to callers until fixpoint
    # (flow-insensitive, like the paper's analysis built on [20]).
    changed = True
    while changed:
        changed = False
        for effects in summaries.values():
            for callee in effects.calls:
                sub = summaries.get(callee)
                if sub is None:
                    continue
                for attr in ("reads", "writes", "heap_writes", "outputs"):
                    if getattr(sub, attr) and not getattr(effects, attr):
                        setattr(effects, attr, True)
                        changed = True
    return summaries


def effective_kind(fn, summaries):
    """How the lazy compiler treats a call to ``fn`` (paper §3.4).

    - external → force arguments, run eagerly;
    - internal with external effects or queries → run body eagerly with
      thunk parameters (queries must register at call time to keep their
      ordering against writes);
    - internal, effect-free and query-free → defer the whole call.
    """
    if fn.kind == K.EXTERNAL:
        return K.EXTERNAL
    effects = summaries[fn.name]
    if effects.has_external_effects or effects.touches_database:
        return K.IMPURE
    return K.PURE


def _collect_stmt_effects(stmt, effects):
    kind = type(stmt)
    if kind is K.Seq:
        for child in stmt.stmts:
            _collect_stmt_effects(child, effects)
    elif kind is K.Assign:
        if isinstance(stmt.target, K.Field):
            effects.heap_writes = True
            _collect_expr_effects(stmt.target.obj, effects)
        _collect_expr_effects(stmt.expr, effects)
    elif kind is K.If:
        _collect_expr_effects(stmt.cond, effects)
        _collect_stmt_effects(stmt.then, effects)
        _collect_stmt_effects(stmt.orelse, effects)
    elif kind is K.While:
        _collect_expr_effects(stmt.cond, effects)
        _collect_stmt_effects(stmt.body, effects)
    elif kind is K.WriteQuery:
        effects.writes = True
        _collect_expr_effects(stmt.query, effects)
    elif kind is K.Output:
        effects.outputs = True
        _collect_expr_effects(stmt.expr, effects)


def _collect_expr_effects(expr, effects):
    kind = type(expr)
    if kind is K.Read:
        effects.reads = True
        _collect_expr_effects(expr.query, effects)
    elif kind is K.BinOp:
        _collect_expr_effects(expr.left, effects)
        _collect_expr_effects(expr.right, effects)
    elif kind is K.UnOp:
        _collect_expr_effects(expr.operand, effects)
    elif kind is K.Field:
        _collect_expr_effects(expr.obj, effects)
    elif kind is K.Record:
        for value in expr.fields.values():
            _collect_expr_effects(value, effects)
    elif kind is K.Call:
        effects.calls.add(expr.fn)
        for arg in expr.args:
            _collect_expr_effects(arg, effects)
    elif kind is K.Index:
        _collect_expr_effects(expr.arr, effects)
        _collect_expr_effects(expr.idx, effects)


# -----------------------------------------------------------------------------
# Persistence analysis over abstract call graphs (§4.1 / Fig. 11)
# -----------------------------------------------------------------------------

def persistent_functions(call_graph, persistent_leaves):
    """The paper's inter-procedural persistence analysis.

    ``call_graph`` maps method name -> iterable of called method names;
    ``persistent_leaves`` is the set of methods that directly issue queries
    or touch persistently-stored objects.  Returns the full set of methods
    labelled persistent: the leaves plus everything that can reach them.
    """
    persistent = set(persistent_leaves)
    changed = True
    while changed:
        changed = False
        for caller, callees in call_graph.items():
            if caller in persistent:
                continue
            if any(callee in persistent for callee in callees):
                persistent.add(caller)
                changed = True
    return persistent


# -----------------------------------------------------------------------------
# Branch deferral (§4.2)
# -----------------------------------------------------------------------------

def is_deferrable_stmt(stmt, summaries):
    """Whether a statement can live inside a deferred branch/block.

    Disallowed: queries (R/W), output, heap writes, loops (their conditions
    force), and calls to functions that are not pure-deferrable.
    """
    kind = type(stmt)
    if kind is K.Skip:
        return True
    if kind is K.Seq:
        return all(is_deferrable_stmt(s, summaries) for s in stmt.stmts)
    if kind is K.Assign:
        if isinstance(stmt.target, K.Field):
            return False
        return _is_deferrable_expr(stmt.expr, summaries)
    if kind is K.If:
        return (_is_deferrable_expr(stmt.cond, summaries)
                and is_deferrable_stmt(stmt.then, summaries)
                and is_deferrable_stmt(stmt.orelse, summaries))
    return False


def _is_deferrable_expr(expr, summaries):
    kind = type(expr)
    if kind in (K.Const, K.Var):
        return True
    if kind is K.Read:
        return False
    if kind is K.BinOp:
        return (_is_deferrable_expr(expr.left, summaries)
                and _is_deferrable_expr(expr.right, summaries))
    if kind is K.UnOp:
        return _is_deferrable_expr(expr.operand, summaries)
    if kind is K.Field:
        # Field reads force the receiver — not deferrable inside a block.
        return False
    if kind is K.Record:
        return False
    if kind is K.Index:
        return False
    if kind is K.Call:
        fn_effects = summaries.get(expr.fn)
        if fn_effects is None:
            return False
        if fn_effects.has_external_effects or fn_effects.touches_database:
            return False
        return all(_is_deferrable_expr(a, summaries) for a in expr.args)
    return False


def deferrable_branches(program, summaries):
    """The set of If nodes (by identity) that §4.2 may defer whole."""
    found = set()

    def visit(stmt):
        kind = type(stmt)
        if kind is K.Seq:
            for child in stmt.stmts:
                visit(child)
        elif kind is K.If:
            if (is_deferrable_stmt(stmt.then, summaries)
                    and is_deferrable_stmt(stmt.orelse, summaries)):
                found.add(id(stmt))
            visit(stmt.then)
            visit(stmt.orelse)
        elif kind is K.While:
            visit(stmt.body)

    visit(program.main)
    for fn in program.functions.values():
        if fn.kind != K.EXTERNAL:
            visit(fn.body)
    return found


# -----------------------------------------------------------------------------
# Liveness (§4.3, thunk coalescing)
# -----------------------------------------------------------------------------

def _expr_vars(expr, out):
    kind = type(expr)
    if kind is K.Var:
        out.add(expr.name)
    elif kind is K.BinOp:
        _expr_vars(expr.left, out)
        _expr_vars(expr.right, out)
    elif kind is K.UnOp:
        _expr_vars(expr.operand, out)
    elif kind is K.Field:
        _expr_vars(expr.obj, out)
    elif kind is K.Record:
        for value in expr.fields.values():
            _expr_vars(value, out)
    elif kind is K.Call:
        for arg in expr.args:
            _expr_vars(arg, out)
    elif kind is K.Index:
        _expr_vars(expr.arr, out)
        _expr_vars(expr.idx, out)
    elif kind is K.Read:
        _expr_vars(expr.query, out)


def stmt_uses_defs(stmt):
    """(used variables, defined variables) of one statement."""
    uses = set()
    defs = set()
    kind = type(stmt)
    if kind is K.Assign:
        _expr_vars(stmt.expr, uses)
        if isinstance(stmt.target, K.Var):
            defs.add(stmt.target.name)
        else:
            _expr_vars(stmt.target.obj, uses)
    elif kind is K.If:
        _expr_vars(stmt.cond, uses)
        for branch in (stmt.then, stmt.orelse):
            b_uses, b_defs = _block_uses_defs(branch)
            uses |= b_uses
            defs |= b_defs
    elif kind is K.While:
        _expr_vars(stmt.cond, uses)
        b_uses, b_defs = _block_uses_defs(stmt.body)
        uses |= b_uses
        defs |= b_defs
    elif kind is K.WriteQuery:
        _expr_vars(stmt.query, uses)
    elif kind is K.Output:
        _expr_vars(stmt.expr, uses)
    elif kind is K.Seq:
        return _block_uses_defs(stmt)
    return uses, defs


def _block_uses_defs(stmt):
    uses = set()
    defs = set()
    for child in K.statements_of(stmt):
        c_uses, c_defs = stmt_uses_defs(child)
        # A use before any def in this block is an upward-exposed use.
        uses |= (c_uses - defs)
        defs |= c_defs
    return uses, defs


def liveness(stmts, live_out=frozenset()):
    """Backwards liveness over a flat statement list.

    Returns ``live_after[i]`` — the set of variables live immediately after
    statement ``i``.
    """
    live_after = [set() for _ in stmts]
    live = set(live_out)
    for i in range(len(stmts) - 1, -1, -1):
        live_after[i] = set(live)
        uses, defs = stmt_uses_defs(stmts[i])
        live = (live - defs) | uses
    return live_after
