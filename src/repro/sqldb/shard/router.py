"""Statement routing: which shards must run a statement, and how.

The router sits *above* the per-shard planner.  For every statement it
produces a static :class:`RoutePlan` (cached on AST identity, like the plan
cache) and, per execution, resolves the bound parameters into a concrete
:class:`RouteDecision`:

``single``
    every partitioned table the statement references is restricted — by a
    partition-key equality or an ``IN`` list, directly or propagated
    through INNER-join equality classes — to one common shard.
``scatter``
    the statement is *distributive*: running it unchanged on every shard
    and concatenating (or merge-sorting) the per-shard streams yields the
    single-node answer.  A partition-key ``IN`` list spanning several
    shards scatters over exactly that subset.
``gather``
    everything else (aggregates, DISTINCT, GROUP BY, cross-shard joins):
    the coordinator pulls the partitioned tables and executes locally.
``broadcast_read``
    the statement touches no partitioned table; any one shard can serve
    it.  The shard is chosen by CRC-32 of the SQL text so a given
    statement always lands on the same shard (result-cache friendly)
    while distinct statements spread across the cluster.

Distributivity rules (the heart of scatter classification):

- no aggregates, GROUP BY, HAVING, DISTINCT, or OFFSET-without-LIMIT
  semantics the merge cannot reproduce;
- either exactly one partitioned table is referenced and every LEFT join
  keeps it on the preserved (left/base) side, or all joins are INNER and
  the partitioned tables are pairwise *co-partitioned*: their partition
  columns sit in one join-equality class and their specs place equal keys
  on equal shards (:meth:`PartitionSpec.placement_compatible`).
"""

import zlib

from repro.sqldb import ast_nodes as A
from repro.sqldb.errors import SqlError
from repro.sqldb.expressions import split_conjuncts
from repro.sqldb.plan.planner import contains_aggregate, order_by_position

KIND_SINGLE = "single"
KIND_SCATTER = "scatter"
KIND_GATHER = "gather"
KIND_BROADCAST_READ = "broadcast_read"


class RouteDecision:
    """One execution's routing: kind + target shards + display detail."""

    __slots__ = ("kind", "shards", "detail")

    def __init__(self, kind, shards, detail=""):
        self.kind = kind
        self.shards = tuple(shards)
        self.detail = detail

    def __repr__(self):
        return f"RouteDecision({self.kind!r}, shards={list(self.shards)})"


class RoutePlan:
    """The parameter-independent routing analysis of one SELECT."""

    __slots__ = ("stmt", "partitioned", "restrictions", "distributive",
                 "gather_reason", "merge")

    def __init__(self, stmt, partitioned, restrictions, distributive,
                 gather_reason, merge):
        self.stmt = stmt  # strong ref: pins id(stmt) for the cache
        #: {table_name: spec} for every referenced partitioned table
        self.partitioned = partitioned
        #: {table_name: [candidate-key expression lists]} — each entry is
        #: one conjunct's key set; an execution intersects their shard sets
        self.restrictions = restrictions
        self.distributive = distributive
        self.gather_reason = gather_reason
        #: scatter-merge recipe (None when order is irrelevant):
        #: (rewritten_stmt, key_positions, extra_cols, pushed_limit)
        self.merge = merge


class ScatterMerge:
    """How to merge ordered per-shard streams of a scatter SELECT.

    ``stmt`` — the per-shard statement: ORDER BY kept (so each shard's
    sort elision / ``limit_hint`` machinery applies), ORDER BY key columns
    appended to the select list when not already projected, and
    ``LIMIT + OFFSET`` pushed down per shard when both are literals.
    ``key_positions`` — ``[(column_index, descending), ...]`` into the
    rewritten row for the k-way merge rank.
    ``extra_cols`` — trailing columns to strip after merging.
    ``pushed_limit`` — the per-shard row cap, or None.
    """

    __slots__ = ("stmt", "key_positions", "extra_cols", "pushed_limit")

    def __init__(self, stmt, key_positions, extra_cols, pushed_limit):
        self.stmt = stmt
        self.key_positions = key_positions
        self.extra_cols = extra_cols
        self.pushed_limit = pushed_limit


class Router:
    """Classifies statements against one :class:`ShardTopology`."""

    def __init__(self, topology):
        self.topology = topology
        self._plans = {}  # id(stmt) -> RoutePlan

    # -- public API ---------------------------------------------------------

    def plan_select(self, stmt):
        plan = self._plans.get(id(stmt))
        if plan is None or plan.stmt is not stmt:
            plan = self._analyze(stmt)
            self._plans[id(stmt)] = plan
        return plan

    def decide(self, stmt, params):
        """Resolve a SELECT's route for one set of bound parameters."""
        plan = self.plan_select(stmt)
        shards = self.topology.shards
        if not plan.partitioned:
            target = self.broadcast_read_shard(stmt, params)
            return RouteDecision(KIND_BROADCAST_READ, (target,),
                                 detail=f"no partitioned tables; "
                                        f"pinned to shard {target}")
        # Resolve every restricted table's shard set.
        sets = {}
        for name, groups in plan.restrictions.items():
            spec = plan.partitioned[name]
            table_set = None
            for exprs in groups:
                one = set()
                for expr in exprs:
                    value = _resolve_value(expr, params)
                    one.add(spec.shard_of(value, shards))
                table_set = one if table_set is None else (table_set & one)
            sets[name] = table_set if table_set is not None else set(
                range(shards))
        unrestricted = [n for n in plan.partitioned if n not in sets]
        if not unrestricted and sets:
            common = None
            for s in sets.values():
                common = set(s) if common is None else (common & s)
            if len(common) == 1:
                (target,) = common
                keys = ", ".join(sorted(
                    f"{n}.{plan.partitioned[n].column}" for n in sets))
                return RouteDecision(KIND_SINGLE, (target,),
                                     detail=f"key match on {keys}")
            if plan.distributive and common:
                return RouteDecision(
                    KIND_SCATTER, sorted(common),
                    detail=f"key set spans {len(common)} shards")
            if not common:
                # Contradictory restrictions: no shard can hold a match.
                return RouteDecision(
                    KIND_SINGLE,
                    (self.broadcast_read_shard(stmt, params),),
                    detail="empty shard set (contradictory keys); any shard "
                           "returns zero rows")
        if plan.distributive:
            return RouteDecision(KIND_SCATTER, range(shards),
                                 detail="distributive over all shards")
        return RouteDecision(KIND_GATHER, range(shards),
                             detail=plan.gather_reason or "not distributive")

    def broadcast_read_shard(self, stmt, params=()):
        """Deterministic home shard for a read of broadcast tables only.

        Pinned by statement text *and* bound parameters: every shard holds
        a full copy, so any shard can serve, and hashing the params spreads
        per-entity point lookups (``WHERE id = ?`` with many ids) across
        the fleet instead of funnelling one hot statement shape onto a
        single shard.  The pin stays deterministic per (sql, params), so
        repeats still land on the shard whose result cache is warm.
        """
        text = f"{stmt.sql or type(stmt).__name__}|{tuple(params)!r}"
        return zlib.crc32(text.encode()) % self.topology.shards

    def write_shards(self, stmt, params):
        """Target primary shards for an UPDATE/DELETE/TRUNCATE on a
        partitioned table (INSERT row splitting lives in the facade)."""
        table = stmt.table if isinstance(stmt.table, str) else stmt.table.name
        spec = self.topology.spec_for(table)
        if spec is None:
            return None  # broadcast: caller fans out to every shard
        where = getattr(stmt, "where", None)
        if where is not None:
            groups = _key_restrictions_for(where, table, spec.column)
            if groups:
                shards = None
                for exprs in groups:
                    one = {spec.shard_of(_resolve_value(e, params),
                                         self.topology.shards)
                           for e in exprs}
                    shards = one if shards is None else (shards & one)
                return sorted(shards)
        return list(range(self.topology.shards))

    # -- static analysis ----------------------------------------------------

    def _analyze(self, stmt):
        refs = _table_refs(stmt)
        partitioned = {}
        for _alias, name in refs:
            spec = self.topology.spec_for(name)
            if spec is not None:
                partitioned[name] = spec
        if not partitioned:
            return RoutePlan(stmt, {}, {}, False, "", None)

        alias_map = {}
        duplicate_refs = False
        for alias, name in refs:
            if alias in alias_map and alias_map[alias] != name:
                duplicate_refs = True
            alias_map[alias] = name
        ref_names = [name for _a, name in refs]
        if len(set(ref_names)) != len(ref_names):
            duplicate_refs = True  # self-join: per-shard join is wrong
        single_table = len(refs) == 1

        classes = _EquivClasses()
        restrict_conjuncts = []
        for conj in split_conjuncts(stmt.where) if stmt.where else ():
            _collect(conj, alias_map, single_table, classes,
                     restrict_conjuncts)
        all_inner = all(j.kind == "INNER" for j in stmt.joins)
        for join in stmt.joins:
            if join.kind == "INNER" and join.condition is not None:
                for conj in split_conjuncts(join.condition):
                    _collect(conj, alias_map, single_table, classes,
                             restrict_conjuncts)

        # Propagate value restrictions through the equality classes, then
        # keep only those landing on partition columns.
        restrictions = {}
        for (name, column), exprs in restrict_conjuncts:
            for peer_name, peer_col in classes.members(name, column):
                spec = partitioned.get(peer_name)
                if spec is not None and spec.column == peer_col:
                    restrictions.setdefault(peer_name, []).append(exprs)

        distributive, reason = self._distributivity(
            stmt, refs, partitioned, classes, all_inner, duplicate_refs)
        merge = _build_merge(stmt) if distributive else None
        if distributive and merge is None and stmt.order_by:
            distributive, reason = False, "unmergeable ORDER BY"
        return RoutePlan(stmt, partitioned, restrictions, distributive,
                         reason, merge)

    def _distributivity(self, stmt, refs, partitioned, classes, all_inner,
                        duplicate_refs):
        if duplicate_refs:
            return False, "self-join on a partitioned table"
        if stmt.distinct:
            return False, "DISTINCT needs global dedup"
        if stmt.group_by or stmt.having:
            return False, "GROUP BY/HAVING needs global grouping"
        if any(contains_aggregate(item.expr) for item in stmt.items
               if not isinstance(item.expr, A.Star)):
            return False, "aggregate needs global combine"
        for bound in (stmt.limit, stmt.offset):
            if bound is not None and not isinstance(
                    bound, (A.Literal, A.Param)):
                return False, "computed LIMIT/OFFSET"
        names = list(partitioned)
        if len(names) == 1:
            name = names[0]
            base = _ref_name(stmt.table)
            if base == name:
                return True, ""
            if all_inner:
                return True, ""
            return False, (f"partitioned table {name!r} on the NULL-"
                           "supplying side of an outer join")
        if not all_inner:
            return False, "outer join across partitioned tables"
        # Several partitioned tables: all pairs must be co-partitioned via
        # one equality class over their partition columns.
        first = names[0]
        spec0 = partitioned[first]
        linked = classes.members(first, spec0.column)
        for name in names:
            spec = partitioned[name]
            if not spec.placement_compatible(spec0):
                return False, "incompatible partition specs"
            if (name, spec.column) not in linked:
                return False, ("join does not align partition keys of "
                               f"{first!r} and {name!r}")
        return True, ""


# ---------------------------------------------------------------------------
# analysis helpers
# ---------------------------------------------------------------------------

def _ref_name(table):
    return table.name if isinstance(table, A.TableRef) else table


def _table_refs(stmt):
    """``[(alias_or_name, table_name), ...]`` for base + joined tables."""
    refs = []
    base = stmt.table
    refs.append((base.alias or base.name, base.name))
    for join in stmt.joins:
        ref = join.table
        refs.append((ref.alias or ref.name, ref.name))
    return refs


def _resolve_column(col, alias_map, single_table):
    """``(table_name, column)`` for a ColumnRef, or None when ambiguous."""
    if col.table is not None:
        name = alias_map.get(col.table)
        return (name, col.column) if name is not None else None
    if single_table:
        (name,) = set(alias_map.values())
        return (name, col.column)
    return None


def _value_exprs(node):
    """The routable value expressions of an equality/IN conjunct side."""
    if isinstance(node, (A.Literal, A.Param)):
        return [node]
    return None


def _collect(conj, alias_map, single_table, classes, restrict_out):
    """Harvest one conjunct into equality classes / key restrictions."""
    if isinstance(conj, A.BinaryOp) and conj.op == "=":
        left_col = isinstance(conj.left, A.ColumnRef)
        right_col = isinstance(conj.right, A.ColumnRef)
        if left_col and right_col:
            a = _resolve_column(conj.left, alias_map, single_table)
            b = _resolve_column(conj.right, alias_map, single_table)
            if a is not None and b is not None:
                classes.union(a, b)
            return
        col, value = ((conj.left, conj.right) if left_col
                      else (conj.right, conj.left) if right_col
                      else (None, None))
        if col is not None:
            target = _resolve_column(col, alias_map, single_table)
            exprs = _value_exprs(value)
            if target is not None and exprs is not None:
                restrict_out.append((target, exprs))
        return
    if isinstance(conj, A.InList) and not conj.negated \
            and isinstance(conj.expr, A.ColumnRef):
        target = _resolve_column(conj.expr, alias_map, single_table)
        if target is None:
            return
        exprs = []
        for item in conj.items:
            got = _value_exprs(item)
            if got is None:
                return
            exprs.extend(got)
        if exprs:
            restrict_out.append((target, exprs))


def _key_restrictions_for(where, table, column):
    """Key restrictions of a single-table write statement's WHERE."""
    alias_map = {table: table}
    out = []
    classes = _EquivClasses()
    for conj in split_conjuncts(where):
        _collect(conj, alias_map, True, classes, out)
    return [exprs for (name, col), exprs in out
            if name == table and col == column]


def _resolve_value(expr, params):
    if isinstance(expr, A.Literal):
        return expr.value
    if isinstance(expr, A.Param):
        if expr.index >= len(params):
            raise SqlError(f"missing parameter {expr.index}")
        return params[expr.index]
    raise SqlError("unroutable key expression")


class _EquivClasses:
    """Union-find over ``(table, column)`` pairs from join equalities."""

    def __init__(self):
        self._parent = {}

    def _find(self, key):
        parent = self._parent.setdefault(key, key)
        while parent != key:
            self._parent[key] = parent = self._parent[parent]
            key = parent
            parent = self._parent.setdefault(key, key)
        return key

    def union(self, a, b):
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            self._parent[ra] = rb

    def members(self, table, column):
        """Every (table, column) equivalent to the given one (inclusive)."""
        key = (table, column)
        if key not in self._parent:
            return {key}
        root = self._find(key)
        return {k for k in self._parent if self._find(k) == root}


# ---------------------------------------------------------------------------
# scatter-merge rewrite
# ---------------------------------------------------------------------------

def _build_merge(stmt):
    """The per-shard statement + merge recipe for a distributive SELECT.

    Returns None when the statement's ORDER BY cannot be keyed off the
    projected row (non-column expressions that are not already projected
    stay unsupported — such statements fall back to gather).
    """
    if not stmt.order_by and stmt.limit is None and stmt.offset is None:
        return ScatterMerge(stmt, [], 0, None)
    items = list(stmt.items)
    if any(isinstance(item.expr, A.Star) for item in items):
        # ``SELECT *`` output positions depend on catalog order; merge
        # keys are resolved by column *name* at execution instead.
        star_ok = all(isinstance(oi.expr, A.ColumnRef)
                      for oi in stmt.order_by)
        if not star_ok and stmt.order_by:
            return None
        key_positions = [(("name", oi.expr.column), oi.descending)
                         for oi in stmt.order_by]
        pushed, per_shard_limit = _pushdown_limit(stmt)
        rewritten = A.Select(
            items, stmt.table, joins=list(stmt.joins), where=stmt.where,
            order_by=list(stmt.order_by), limit=per_shard_limit,
            offset=None)
        return ScatterMerge(rewritten, key_positions, 0, pushed)

    alias_of = {}
    for pos, item in enumerate(items):
        if item.alias:
            alias_of.setdefault(item.alias, pos)
        elif isinstance(item.expr, A.ColumnRef):
            alias_of.setdefault(item.expr.column, pos)
    key_positions = []
    extra = []
    for oi in stmt.order_by:
        expr = oi.expr
        pos = order_by_position(expr, len(items))
        if pos is None:
            for i, item in enumerate(items):
                if item.expr == expr:
                    pos = i
                    break
        if pos is None and isinstance(expr, A.ColumnRef) \
                and expr.table is None:
            pos = alias_of.get(expr.column)
        if pos is None:
            pos = len(items) + len(extra)
            extra.append(A.SelectItem(expr, alias=f"__shard_key_{pos}"))
        key_positions.append((pos, oi.descending))
    pushed, per_shard_limit = _pushdown_limit(stmt)
    rewritten = A.Select(
        items + extra, stmt.table, joins=list(stmt.joins), where=stmt.where,
        order_by=list(stmt.order_by), limit=per_shard_limit, offset=None)
    return ScatterMerge(rewritten, key_positions, len(extra), pushed)


def _pushdown_limit(stmt):
    """``(pushed_rowcap, per_shard_limit_expr)`` — every shard needs the
    first ``LIMIT + OFFSET`` rows of its stream for the global cut to be
    exact; non-literal bounds are not pushed."""
    if stmt.limit is None:
        return None, None
    if not isinstance(stmt.limit, A.Literal) \
            or not isinstance(stmt.limit.value, int):
        return None, None
    cap = stmt.limit.value
    if stmt.offset is not None:
        if not isinstance(stmt.offset, A.Literal) \
                or not isinstance(stmt.offset.value, int):
            return None, None
        cap += stmt.offset.value
    return cap, A.Literal(cap)
