"""Extended lazy semantics for the kernel language (paper §3.8 + appendix).

Compiled code *calls* the runtime library (§5), and so does this
interpreter: every delayed value is a :mod:`repro.core.thunk` thunk
allocated by a :class:`repro.core.runtime.SlothRuntime`, every query goes
through that runtime's :class:`repro.core.query_store.QueryStore`, and the
database is the appendix's dict behind the server contract the batch driver
speaks (:class:`KernelServer`).  The interpreter counts nothing itself:
round trips, allocations, batches and dedup hits are the production stats
objects, and a kernel program has a virtual clock.  The appendix's
evaluation rules, in those terms:

- expression evaluation produces *thunks* instead of values; a thunk
  captures the environment snapshot it needs and is forced at most once
  (``runtime.defer``);
- ``R(e)`` eagerly forces the query value and **registers** it with the
  query store, returning a thunk that fetches the result set
  (``runtime.query``); registration deduplicates identical pending queries;
- forcing an unissued query flushes the whole pending batch in one round
  trip;
- ``W(e)`` is never deferred (``runtime.execute_write``): the pending batch
  (reads first, then the write) ships in a single round trip, reads
  observing the pre-write database — the appendix's [Write query] rule is
  ``QueryStore._flush(has_write=True)``;
- a batch fails as one: an error in any of its statements is re-raised by
  every thunk of the batch, on every force;
- heap writes, output, branch conditions and loop conditions force eagerly
  (§3.5, §3.6) unless branch deferral applies (§4.2);
- calls follow §3.4: effect-free query-free internal calls defer whole;
  other internal calls run their bodies now with thunk parameters; external
  calls force their arguments and run eagerly.

Optimizations (§4) are applied through an
:class:`repro.compiler.optimize.OptimizationPlan`, whose three switches
become the runtime's :class:`repro.core.runtime.OptimizationFlags`; they
change how many thunks are allocated and when batches flush, never the
final state — the property tests assert exactly that.
"""

from repro.compiler import kernel as K
from repro.compiler.analysis import (
    classify_functions, effective_kind, stmt_uses_defs,
)
from repro.compiler.errors import KernelError
from repro.compiler.standard_interp import (
    Address, HeapObject, apply_binop, apply_unop, truthy,
)
from repro.core.runtime import OptimizationFlags, SlothRuntime
from repro.core.thunk import force, is_thunk
from repro.net.clock import CostModel, SimClock
from repro.net.driver import BatchDriver

_MAX_STEPS = 400_000

# ``R(v)`` and ``W(v)`` over the appendix's one relation, as statements the
# query store can classify (it parses them); ``v`` is the
# one parameter.  :class:`KernelServer` gives them the kernel's meaning.
_READ_SQL = "SELECT result FROM db WHERE query = ?"
_WRITE_SQL = "UPDATE db SET result = result + 1 WHERE query = ?"


class KernelServer:
    """The appendix's database — a dict from query value to result — behind
    the server contract :class:`repro.net.driver.BatchDriver` speaks."""

    def __init__(self, db, cost_model):
        self.db = db
        self.cost_model = cost_model

    def execute_batch(self, statements, batch_optimize=False, stats=None):
        """Run ``statements`` in batch order — a write is the last of its
        batch, so the reads shipped with it observe the pre-write database.
        Each statement is priced as one row touched, one after the other."""
        results = []
        for sql, (query_value,) in statements:
            if sql == _READ_SQL:
                results.append(K.read_db(self.db, query_value))
            else:
                self.db = K.update_db(self.db, query_value)
                results.append(True)  # not None: that means "not issued"
        return results, self.cost_model.query_cost_ms(1) * len(statements)


class LazyResult:
    """Final state of a lazy-semantics run (after force-all).  The counters
    are read off the run's runtime: ``round_trips`` — like every count of
    what crossed the wire — is the driver's (``runtime.driver.stats``);
    ``thunks_allocated`` and ``store.stats`` are the query store's one
    stats object, which is also ``runtime.stats``."""

    def __init__(self, env, heap, db, output, runtime):
        self.env = env
        self.heap = heap
        self.db = db
        self.output = output
        self.runtime = runtime
        self.store = runtime.query_store
        self.round_trips = runtime.driver.stats.round_trips
        self.thunks_allocated = runtime.stats.thunks_allocated


class LazyInterpreter:
    """Evaluates programs under extended lazy semantics."""

    def __init__(self, program, db=None, plan=None):
        self.program = program
        self.heap = []
        self.output = []
        self.plan = plan
        self.summaries = (plan.summaries if plan is not None
                          else classify_functions(program))
        cost_model = CostModel()
        clock = SimClock()
        self.server = KernelServer(dict(db or {}), cost_model)
        self.runtime = SlothRuntime(
            BatchDriver(self.server, clock), clock, cost_model,
            optimizations=OptimizationFlags.none() if plan is None
            else OptimizationFlags(plan.selective_compilation,
                                   plan.thunk_coalescing,
                                   plan.branch_deferral))
        self.store = self.runtime.query_store
        self._steps = 0

    # -- public -------------------------------------------------------------

    def run(self, env=None, force_final=True):
        """Execute the program; ``force_final`` applies the theorem's
        closing force-all (disable it to observe which queries the program
        itself never needed)."""
        env = dict(env or {})
        self.exec_stmt(self.program.main, env)
        if force_final:
            self._force_state(env)
        return LazyResult(env, self.heap, self.server.db, self.output,
                          self.runtime)

    def _force_state(self, env):
        """Force every thunk reachable from env and heap (the theorem's
        closing step)."""
        for name in list(env):
            env[name] = force(env[name])
        for obj in self.heap:
            for field in list(obj.fields):
                obj.fields[field] = force(obj.fields[field])

    # -- statements -------------------------------------------------------------

    def exec_stmt(self, stmt, env):
        self._tick()
        kind = type(stmt)
        if kind is K.Skip:
            return
        if kind is K.Seq:
            if self.runtime.opts.thunk_coalescing:
                self._exec_seq_coalesced(stmt, env)
            else:
                for child in stmt.stmts:
                    self.exec_stmt(child, env)
            return
        if kind is K.Assign:
            self._exec_assign(stmt, env)
            return
        if kind is K.If:
            if (self.runtime.opts.branch_deferral
                    and self.plan.branch_is_deferrable(stmt)):
                self._defer_branch(stmt, env)
                return
            cond = force(self.eval_lazy(stmt.cond, env))
            self.exec_stmt(stmt.then if truthy(cond) else stmt.orelse, env)
            return
        if kind is K.While:
            while truthy(force(self.eval_lazy(stmt.cond, env))):
                self._tick()
                self.exec_stmt(stmt.body, env)
            return
        if kind is K.WriteQuery:
            # One round trip carries the pending reads plus the write;
            # reads observe the pre-write database ([Write query] rule).
            self.runtime.execute_write(
                _WRITE_SQL, (force(self.eval_lazy(stmt.query, env)),))
            return
        if kind is K.Output:
            self.output.append(force(self.eval_lazy(stmt.expr, env)))
            return
        raise KernelError(f"cannot execute {stmt!r}")

    def _exec_assign(self, stmt, env):
        value = self.eval_lazy(stmt.expr, env)
        target = stmt.target
        if isinstance(target, K.Var):
            env[target.name] = value
        else:
            # Heap writes are not delayed (§3.5): force the receiver; the
            # written value stays a thunk.
            obj = force(self.eval_lazy(target.obj, env))
            self._heap_object(obj).fields[target.name] = value

    def _exec_seq_coalesced(self, stmt, env):
        """TC (§4.3): run coalesce groups as single block thunks."""
        for item in self.plan.coalesce_groups(stmt):
            if isinstance(item, K.Node):
                self.exec_stmt(item, env)
            elif any(is_thunk(env.get(name)) for name in item.uses):
                # Dead temporaries get no thunk object in compiled code.
                self._defer_block(item.stmts, env,
                                  {s.target.name for s in item.stmts},
                                  item.outputs)
            else:
                # Constant folding: when every upward-exposed input is
                # already concrete, the block's statements evaluate to plain
                # values — run them now with zero thunk allocations
                # (matching what the basic compiler's folding achieves on
                # constant runs).
                for child in item.stmts:
                    self.exec_eager_stmt(child, env)

    def _defer_branch(self, stmt, env):
        """BD (§4.2): wrap the whole If into a block thunk."""
        _, defs_then = stmt_uses_defs(stmt.then)
        _, defs_else = stmt_uses_defs(stmt.orelse)
        # A variable defined in only one arm and unbound beforehand would
        # make the block's output undefined when the other arm is taken;
        # fall back to forcing the condition in that (rare) case.
        if any(name not in env for name in defs_then ^ defs_else):
            cond = force(self.eval_lazy(stmt.cond, env))
            self.exec_stmt(stmt.then if truthy(cond) else stmt.orelse, env)
            return
        defs = defs_then | defs_else
        self._defer_block([stmt], env, defs, defs)

    def _defer_block(self, stmts, env, defined, live):
        """Bind ``defined`` to the outputs of one block thunk that runs the
        effect-free ``stmts`` eagerly, over a snapshot of ``env``, when the
        first output is forced: one allocation for the block plus one per
        *live* output."""
        snapshot = dict(env)

        def run():
            local = dict(snapshot)
            for stmt in stmts:
                self.exec_eager_stmt(stmt, local)
            # Only what the block defines: ``force_block`` forces every
            # value it is handed, and the pending thunks of the snapshot
            # are not this block's to force.
            return {name: local[name] for name in defined}

        block = self.runtime.defer_block(run)
        for name in defined:
            env[name] = block.output(name, live=name in live)

    # -- lazy expression evaluation ------------------------------------------------

    def eval_lazy(self, expr, env):
        self._tick()
        kind = type(expr)
        if kind is K.Const:
            return expr.value
        if kind is K.Var:
            if expr.name not in env:
                raise KernelError(f"unbound variable {expr.name!r}")
            return env[expr.name]
        if kind is K.BinOp:
            left = self.eval_lazy(expr.left, env)
            right = self.eval_lazy(expr.right, env)
            if not is_thunk(left) and not is_thunk(right):
                # Constant folding keeps thunk counts comparable with the
                # paper's simplified three-address form.
                return apply_binop(expr.op, left, right)
            return self.runtime.defer(
                lambda: apply_binop(expr.op, force(left), force(right)))
        if kind is K.UnOp:
            operand = self.eval_lazy(expr.operand, env)
            if not is_thunk(operand):
                return apply_unop(expr.op, operand)
            return self.runtime.defer(
                lambda: apply_unop(expr.op, force(operand)))
        if kind is K.Field:
            obj = force(self.eval_lazy(expr.obj, env))
            fields = self._heap_object(obj).fields
            if expr.name not in fields:
                raise KernelError(f"no field {expr.name!r}")
            return fields[expr.name]
        if kind is K.Record:
            address = len(self.heap)
            self.heap.append(HeapObject({
                name: self.eval_lazy(value, env)
                for name, value in expr.fields.items()
            }))
            return Address(address)
        if kind is K.Index:
            arr = force(self.eval_lazy(expr.arr, env))
            idx = force(self.eval_lazy(expr.idx, env))
            fields = self._heap_object(arr).fields
            if idx not in fields:
                raise KernelError(f"index {idx!r} out of range")
            return fields[idx]
        if kind is K.Read:
            return self.runtime.query(
                _READ_SQL, (force(self.eval_lazy(expr.query, env)),))
        if kind is K.Call:
            return self._call_lazy(expr, env)
        raise KernelError(f"cannot evaluate {expr!r}")

    def _call_lazy(self, expr, env):
        fn = self.program.function(expr.fn)
        if len(expr.args) != len(fn.params):
            raise KernelError(
                f"{fn.name} expects {len(fn.params)} args, got "
                f"{len(expr.args)}")
        if (self.runtime.opts.selective_compilation
                and self.plan.function_is_eager(fn.name)):
            # SC (§4.1): not persistent — compiled as-is, fully eager.
            local = {
                param: force(self.eval_lazy(arg, env))
                for param, arg in zip(fn.params, expr.args)
            }
            self.exec_eager_stmt(fn.body, local)
            return self.eval_eager(fn.ret, local)
        kind = effective_kind(fn, self.summaries)
        if kind == K.PURE:
            # Defer the whole call (§3.4); body runs at force time.
            arg_values = [self.eval_lazy(arg, env) for arg in expr.args]

            def run():
                local = dict(zip(fn.params, arg_values))
                self.exec_eager_stmt(fn.body, local)
                return self.eval_eager(fn.ret, local)

            return self.runtime.defer(run)
        if kind == K.IMPURE:
            # Run the body now with thunk parameters (§3.4); queries inside
            # register now, keeping their order against writes.
            local = {
                param: self.eval_lazy(arg, env)
                for param, arg in zip(fn.params, expr.args)
            }
            self.exec_stmt(fn.body, local)
            return self.eval_lazy(fn.ret, local)
        # External: force arguments, run eagerly (§3.4).
        local = {
            param: force(self.eval_lazy(arg, env))
            for param, arg in zip(fn.params, expr.args)
        }
        self.exec_eager_stmt(fn.body, local)
        return self.eval_eager(fn.ret, local)

    # -- eager evaluation (inside forced blocks / SC functions / externals) ----

    def eval_eager(self, expr, env):
        self._tick()
        kind = type(expr)
        if kind is K.Const:
            return expr.value
        if kind is K.Var:
            if expr.name not in env:
                raise KernelError(f"unbound variable {expr.name!r}")
            return force(env[expr.name])
        if kind is K.BinOp:
            return apply_binop(expr.op,
                               self.eval_eager(expr.left, env),
                               self.eval_eager(expr.right, env))
        if kind is K.UnOp:
            return apply_unop(expr.op, self.eval_eager(expr.operand, env))
        if kind is K.Field:
            obj = self.eval_eager(expr.obj, env)
            fields = self._heap_object(obj).fields
            if expr.name not in fields:
                raise KernelError(f"no field {expr.name!r}")
            return force(fields[expr.name])
        if kind is K.Record:
            address = len(self.heap)
            self.heap.append(HeapObject({
                name: self.eval_eager(value, env)
                for name, value in expr.fields.items()
            }))
            return Address(address)
        if kind is K.Index:
            arr = self.eval_eager(expr.arr, env)
            idx = self.eval_eager(expr.idx, env)
            fields = self._heap_object(arr).fields
            if idx not in fields:
                raise KernelError(f"index {idx!r} out of range")
            return force(fields[idx])
        if kind is K.Read:
            # Needed now and no value of the compiled code: not a thunk.
            return self.store.get_result_set(self.store.register_query(
                _READ_SQL, (self.eval_eager(expr.query, env),)))
        if kind is K.Call:
            fn = self.program.function(expr.fn)
            local = {
                param: self.eval_eager(arg, env)
                for param, arg in zip(fn.params, expr.args)
            }
            self.exec_eager_stmt(fn.body, local)
            return self.eval_eager(fn.ret, local)
        raise KernelError(f"cannot evaluate {expr!r}")

    def exec_eager_stmt(self, stmt, env):
        self._tick()
        kind = type(stmt)
        if kind is K.Skip:
            return
        if kind is K.Seq:
            for child in stmt.stmts:
                self.exec_eager_stmt(child, env)
            return
        if kind is K.Assign:
            value = self.eval_eager(stmt.expr, env)
            if isinstance(stmt.target, K.Var):
                env[stmt.target.name] = value
            else:
                obj = self.eval_eager(stmt.target.obj, env)
                self._heap_object(obj).fields[stmt.target.name] = value
            return
        if kind is K.If:
            cond = self.eval_eager(stmt.cond, env)
            self.exec_eager_stmt(
                stmt.then if truthy(cond) else stmt.orelse, env)
            return
        if kind is K.While:
            while truthy(self.eval_eager(stmt.cond, env)):
                self._tick()
                self.exec_eager_stmt(stmt.body, env)
            return
        if kind is K.WriteQuery:
            self.runtime.execute_write(
                _WRITE_SQL, (self.eval_eager(stmt.query, env),))
            return
        if kind is K.Output:
            self.output.append(self.eval_eager(stmt.expr, env))
            return
        raise KernelError(f"cannot execute {stmt!r}")

    # -- misc ------------------------------------------------------------------

    def _heap_object(self, value):
        if not isinstance(value, Address):
            raise KernelError(f"{value!r} is not a heap address")
        return self.heap[value.index]

    def _tick(self):
        self._steps += 1
        if self._steps > _MAX_STEPS:
            raise KernelError("program exceeded step budget (diverging?)")
