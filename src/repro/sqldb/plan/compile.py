"""Chunk compilation: lower expression ASTs to kernels over column chunks.

The engine has two expression evaluators.  The interpreter
(:func:`repro.sqldb.expressions.evaluate`) re-walks an AST for every row.
This module is the other one.  It lowers an expression **once** (when the
physical plan is built) into a kernel over a whole
:class:`repro.sqldb.columnar.ColumnChunk`:

- :func:`compile_filter` — a predicate becomes ``fn(chunk, params) ->
  sel``, the selection vector of rows evaluating to SQL TRUE, **and**, out
  of the same walk, a test over a chunk's zone map that can rule the
  chunk out before it is scanned;
- :func:`compile_project` — select items become per-column gathers and
  element-wise loops;
- :func:`compile_values` — any expression becomes ``fn(chunk, sel,
  params) -> list``, its value at each selected row: the lane the
  aggregate fold and the Sort read (see :mod:`repro.sqldb.plan.physical`).

**Every shape without a kernel is one interpreted lane.**  ``_compile_vec``
lowers literals, parameters, column references and ``+ - * / %`` to
vector forms and every other shape (an unknown or ambiguous column
included) to ``interpreted_lane``: ``evaluate`` over ``chunk.row(i)`` for
each selected row, the one place this module calls the interpreter per
row.  A predicate (or an AND operand) with no kernel reads that lane, as
does a select item, an aggregate argument, a GROUP BY key or a Sort key.
A gap in kernel coverage is therefore the interpreter's own code — same
values, same errors — and never a third evaluator to keep in step by
hand; a kernel for a new shape is one more case in ``_compile_vec`` (or
``_compile_pred`` for a predicate with a zone test).
What has a kernel: comparisons and BETWEEN of a column against
literals/parameters, ``IS [NOT] NULL`` of a column, AND over those — the
sargable conjunctions :mod:`repro.sqldb.plan.access` recognises for index
paths, and the only WHERE shapes any workload issues; arithmetic over
columns, literals and parameters wherever an expression is read.  What
does not (a kernel needs a workload that issues its shape — see ROADMAP):
OR, NOT, IN and LIKE, column-vs-column and computed-operand predicates,
``||``, unary minus, scalar function calls, boolean-valued expressions.

Internally every predicate node is ``node(chunk, sel, params) -> (t, u)``
— the ascending index lists where the node is TRUE and UNKNOWN (FALSE is
the remainder) — so AND combines Kleene-exactly and preserves the
interpreter's short-circuit scope: it evaluates its right operand only
over the left's TRUE∪UNKNOWN rows, which is also all an interpreted
operand beside a selective fused leaf ever sees.
Dictionary-encoded columns get code-level equality.  Errors the
interpreter raises only when a row is actually evaluated (missing
parameters, type errors) are raised by the kernels only when a row is
evaluated too, so an empty input still raises nothing.

**Generated loops.**  ``_loop`` builds the per-value loops from source
templates: one function per key, at most once per process, shared by
every plan and compiled under this file's name (``cmp_ge_num``,
``between_num_exact``, ``arith_mul_vs``).  Comparison and BETWEEN loops
bake in the interpreter's comparability lattice and ``a < b`` / ``a > b``
probes, so NaN and mixed-type behaviour are bit-identical.  Arithmetic
``+ - *`` has one per operator × shape (column∘column, column∘constant,
constant∘column): two values whose class is exactly ``int`` or ``float``
combine inline, any other goes to :func:`repro.sqldb.expressions.arithmetic`
(the one home of the arithmetic rules) for its element, and an
``OverflowError`` — an int no float holds meeting a float — sends the
chunk through the helper again, which raises the interpreter's
:class:`SqlTypeError` at that element.  ``/`` and ``%`` call the helper
per value: no workload divides.

Kernels live exactly as long as the physical plan that owns them: the
executor's plan cache drops a plan on DDL, the only event that could
shift column positions, and on a size shift of a table it reads, so a
cached kernel can never read a stale layout.

Fused evaluation runs column-at-a-time, so when *several* rows of one
chunk would raise (mixed-type data smuggled past the typed storage
layer), the row whose error is raised follows that order, not row order.
Whether an error is raised at all, and the result when none is, are what
row-at-a-time evaluation gives.
"""

from repro.sqldb import ast_nodes as A
from repro.sqldb.columnar import DictColumn
from repro.sqldb.errors import SqlTypeError
from repro.sqldb.expressions import RowContext, _truthy, arithmetic, evaluate
from repro.sqldb.types import is_comparable

__all__ = ["compile_filter", "compile_project", "compile_values"]


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------


def column_position(expr, positions, ambiguous):
    """The flat row position of a ColumnRef, or None when the reference is
    ambiguous or unknown: the shape then has no kernel, and the interpreted
    lane raises the resolution error for each row it evaluates."""
    if expr.table is None and expr.column in ambiguous:
        return None
    return positions.get((expr.table, expr.column))


def _row_independent(expr):
    """True when ``expr`` resolves without a row: a literal or parameter.
    Kernels resolve such an operand once per chunk with
    ``evaluate(expr, None, params)`` — the interpreter never consults the
    row context for these two node types, so none is bound, and a missing
    parameter raises the interpreter's own error."""
    return isinstance(expr, (A.Literal, A.Param))


# ---------------------------------------------------------------------------
# Fused predicates: one walk, two products
# ---------------------------------------------------------------------------
#
# A fused predicate is AND over sargable leaves — ``col <cmp> c``,
# ``col [NOT] BETWEEN c AND c``, ``col IS [NOT] NULL``, every ``c`` a
# literal or parameter.  Each builder below recognises its shape once and
# returns a pair:
#
# - the kernel ``node(chunk, sel, params) -> (t, u)``, where ``sel`` is an
#   ascending iterable of candidate row indices and ``t``/``u`` are the
#   ascending index lists where the node evaluates to TRUE and UNKNOWN;
#   FALSE is implicit (see the module docstring);
# - the zone test ``zone_test(zone_of, params) -> (may_true, may_unknown,
#   may_raise)`` — conservative upper bounds on whether *any* row of the
#   chunk could evaluate TRUE / UNKNOWN / raise — or None when the shape
#   can rule no chunk out (an interpreted operand, NOT BETWEEN).
#   ``zone_of(pos)`` returns the chunk's ``(lo, hi, nulls, count)`` for a
#   flat column position, or None when no zone is known for it.  A chunk
#   may be skipped only when it can neither produce a TRUE row nor raise:
#   pruning must never suppress an error the full scan would surface.

_ALWAYS = (True, True, True)
_NEVER = (False, False, False)


def compile_filter(expr, positions, ambiguous=frozenset()):
    """Compile a WHERE predicate to ``(filter_fn, prune_fn)``, both built
    in the same walk so they cannot disagree about which shapes they cover.

    ``filter_fn(chunk, params) -> sel`` is the selection vector (ascending
    live indices) of chunk rows where the predicate is strictly TRUE.
    ``prune_fn(zone_of, params) -> must_scan`` is False only when the zone
    maps prove no chunk row can be TRUE and none can raise; it is None when
    no conjunct is zone-prunable (the scan then skips the per-chunk call
    entirely).  Never raises at compile time; a shape without a kernel
    reads its lane (:func:`compile_values`).
    """
    try:
        compiled = _compile_pred(expr, positions, ambiguous)
    except Exception:  # defensive: compilation must never change behaviour
        compiled = None
    if compiled is None:
        # Top-level fallback is *strict* (`is True`), as a WHERE is: a
        # non-boolean predicate value keeps nothing and raises nothing
        # (unlike the truthy classification AND operands use).
        values = compile_values(expr, positions, ambiguous)

        def lane_filter_fn(chunk, params):
            sel = chunk.live_indices()
            return [i for i, value in zip(sel, values(chunk, sel, params))
                    if value is True]

        return lane_filter_fn, None
    node, zone_test = compiled

    def filter_fn(chunk, params):
        return node(chunk, chunk.live_indices(), params)[0]

    if zone_test is None:
        return filter_fn, None

    def prune_fn(zone_of, params):
        may_true, _, may_raise = zone_test(zone_of, params)
        return may_true or may_raise

    return filter_fn, prune_fn


def _compile_pred(expr, positions, ambiguous):
    """``(kernel, zone test or None)`` for one predicate, or None when the
    shape has no kernel at this level (callers read its lane)."""
    kind = type(expr)
    if kind is A.BinaryOp:
        if expr.op == "AND":
            return _and_pair(_pred_operand(expr.left, positions, ambiguous),
                             _pred_operand(expr.right, positions, ambiguous))
        if expr.op in _CMP_EXPRS:
            return _cmp_leaf(expr, positions, ambiguous)
        return None
    if kind is A.IsNull:
        return _isnull_leaf(expr, positions, ambiguous)
    if kind is A.Between:
        return _between_leaf(expr, positions, ambiguous)
    return None


def _pred_operand(expr, positions, ambiguous):
    """The pair for an AND operand: its kernel and zone test, or its lane
    over the candidate rows — each value classified as AND classifies an
    operand (NULL is UNKNOWN, numbers count by ``!= 0``, non-numeric
    non-bools raise — ``_truthy``) — with no zone test: a lane may raise
    on any row."""
    compiled = _compile_pred(expr, positions, ambiguous)
    if compiled is not None:
        return compiled
    values = compile_values(expr, positions, ambiguous)

    def lane_node(chunk, sel, params):
        t, u = [], []
        for i, value in zip(sel, values(chunk, sel, params)):
            if value is None:
                u.append(i)
            elif _truthy(value):
                t.append(i)
        return t, u

    return lane_node, None


def _merge(a, b):
    """Merge two ascending, disjoint index lists."""
    if not a:
        return b if type(b) is list else list(b)
    if not b:
        return a if type(a) is list else list(a)
    out = []
    append = out.append
    ia = ib = 0
    na, nb = len(a), len(b)
    while ia < na and ib < nb:
        va, vb = a[ia], b[ib]
        if va < vb:
            append(va)
            ia += 1
        else:
            append(vb)
            ib += 1
    out.extend(a[ia:])
    out.extend(b[ib:])
    return out


def _and_pair(left, right):
    """Kleene AND with the interpreter's short-circuit scope: the right
    operand is evaluated only where the left is TRUE or UNKNOWN — in the
    kernel row by row, in the zone test chunk by chunk.  A prunable left
    conjunct suffices to rule chunks out (AND ``may_true`` needs both)."""
    lnode, lzone = left
    rnode, rzone = right

    def node(chunk, sel, params):
        lt, lu = lnode(chunk, sel, params)
        cand = _merge(lt, lu)
        rt, ru = rnode(chunk, cand, params)
        if not lu:
            return rt, ru
        lu_set = set(lu)
        rt_set = set(rt)
        ru_set = set(ru)
        t = [i for i in rt if i not in lu_set]
        u = [i for i in cand
             if i in ru_set or (i in rt_set and i in lu_set)]
        return t, u

    if lzone is None:
        # The left operand runs on every row and may raise on any of
        # them: whatever the right knows, no chunk can be ruled out.
        return node, None

    def zone_test(zone_of, params):
        lt, lu, lr = lzone(zone_of, params)
        if lr:
            return _ALWAYS
        if not lt and not lu:
            # Every row FALSE on the left: the interpreter never
            # evaluates the right operand (its errors included).
            return _NEVER
        if rzone is None:
            return _ALWAYS
        rt, ru, rr = rzone(zone_of, params)
        return (lt and rt, lu or ru, rr)

    return node, zone_test


def _isnull_leaf(expr, positions, ambiguous):
    """Kernel and zone test for ``col IS [NOT] NULL``, or None."""
    if not isinstance(expr.expr, A.ColumnRef):
        return None
    pos = column_position(expr.expr, positions, ambiguous)
    if pos is None:
        return None
    negated = expr.negated

    def node(chunk, sel, params):
        col = chunk.columns[pos]
        if col is None:  # all-NULL lane
            if negated:
                return [], []
            return sel if type(sel) is list else list(sel), []
        if type(col) is DictColumn:
            codes = col.codes
            nulls = [i for i in sel if codes[i] < 0]
        else:
            nulls = [i for i in sel if col[i] is None]
        if not negated:
            return nulls, []
        null_set = set(nulls)
        return [i for i in sel if i not in null_set], []

    def zone_test(zone_of, params):
        zone = zone_of(pos)
        if zone is None:
            return _ALWAYS
        _, _, nulls, count = zone
        if count == 0:
            return _NEVER
        if negated:
            return (nulls < count, False, False)
        return (nulls > 0, False, False)

    return node, zone_test


# Comparison expressions over (a, c), derived from the interpreter's
# `a < b` / `a > b` probes (``_compare``), not the native ==/!=, so NaN
# behaviour is identical.
_CMP_EXPRS = {
    "=": "not (a < c or a > c)",
    "<>": "a < c or a > c",
    "<": "a < c",
    ">": "a > c",
    "<=": "not (a > c)",
    ">=": "not (a < c)",
}

# Flip table for constant-on-the-left comparisons: `5 < v` == `v > 5`.
_FLIP = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "=": "=", "<>": "<>"}

# Per type-family row-value checks matching is_comparable(a, constant)
# for a known non-NULL constant; ``{cls}`` names the constant's class.
_KERNEL_CHECKS = {
    "num": ("a.__class__ is int or a.__class__ is float"
            " or (isinstance(a, (int, float))"
            " and not isinstance(a, bool))"),
    "bool": "a.__class__ is bool",
    "exact": "type(a) is {cls}",
}

# Operators as a generated loop's name spells them.
_LOOP_NAMES = {"=": "eq", "<>": "ne", "<": "lt", ">": "gt", "<=": "le",
               ">=": "ge", "+": "add", "-": "sub", "*": "mul", "/": "div",
               "%": "mod"}

_LOOPS = {}


def _loop(key, source):
    """The generated loop for ``key`` = ``(kind, *parts)``, named
    ``kind_part_part`` and built from ``source(name, *parts)`` on first
    use (its line numbers are the generated source's)."""
    fn = _LOOPS.get(key)
    if fn is None:
        name = "_".join(_LOOP_NAMES.get(part, part) for part in key)
        namespace = {"arithmetic": arithmetic}
        code = compile(source(name, *key[1:]), __file__, "exec")
        exec(code, namespace)  # noqa: S102 - trusted, templated source
        fn = _LOOPS[key] = namespace[name]
    return fn


def _family(constant):
    """``(kind, cls)`` of a non-NULL constant: which ``_KERNEL_CHECKS``
    entry a row value must pass to be comparable with it."""
    if constant.__class__ is bool:
        return "bool", None
    if isinstance(constant, (int, float)):
        return "num", None
    return "exact", type(constant)


def _pred_source(name, args, branches):
    """A predicate loop ``name(col, sel, *args) -> (t, u)`` over the rows
    ``sel``: NULL is UNKNOWN, ``branches`` decide every other value."""
    return (f"def {name}(col, sel, {args}):\n"
            "    t = []\n"
            "    u = []\n"
            "    ta = t.append\n"
            "    ua = u.append\n"
            "    for i in sel:\n"
            "        a = col[i]\n"
            "        if a is None:\n"
            "            ua(i)\n"
            f"{branches}"
            "    return t, u\n")


def _cmp_source(name, op, kind):
    """``col <op> c``; ``fail(a, c)`` raises the incomparable-value error
    (``_fail_const_*``)."""
    return _pred_source(name, "c, cls, fail", (
        f"        elif {_KERNEL_CHECKS[kind].format(cls='cls')}:\n"
        f"            if {_CMP_EXPRS[op]}:\n"
        "                ta(i)\n"
        "        else:\n"
        "            fail(a, c)\n"))


def _between_source(name, low_kind, high_kind):
    """``col BETWEEN low AND high``, checked in the interpreter's order:
    the low bound's type, ``a < low`` (then the high bound is never looked
    at), the high bound's type, ``a > high``."""
    low_ok = _KERNEL_CHECKS[low_kind].format(cls="low_cls")
    high_ok = _KERNEL_CHECKS[high_kind].format(cls="high_cls")
    return _pred_source(name, "low, high, low_cls, high_cls, fail", (
        f"        elif not ({low_ok}):\n"
        "            fail(a, low)\n"
        "        elif a < low:\n"
        "            pass\n"
        f"        elif not ({high_ok}):\n"
        "            fail(a, high)\n"
        "        elif not (a > high):\n"
        "            ta(i)\n"))


# What an arithmetic loop iterates, per shape: each side a vector (``v``,
# a list aligned with the selection) or a scalar (``s``).
_ARITH_ITERATIONS = {"vv": "for a, b in zip(left, right)",
                     "vs": "for a in left", "sv": "for b in right"}


def _arith_source(name, op, shape):
    """``name(left, right) -> list``: ``left <op> right`` per value, inline
    for two exact ints / floats under ``+ - *`` (a chunk that overflows
    is redone through the helper), else by :func:`arithmetic`."""
    each = _ARITH_ITERATIONS[shape]
    number = "({0}.__class__ is int or {0}.__class__ is float)".format
    scalars = [x for x, side in zip("ab", shape) if side == "s"]
    vectors = [x for x, side in zip("ab", shape) if side == "v"]
    lines = [f"def {name}(left, right):"]
    lines += [f"    {x} = {'left' if x == 'a' else 'right'}" for x in scalars]
    if op in ("+", "-", "*"):
        inline = " and ".join(map(number, vectors))
        lines += [
            f"    if {' and '.join(map(number, scalars)) or 'True'}:",
            "        try:",
            f"            return [a {op} b if {inline}"
            f" else arithmetic({op!r}, a, b) {each}]",
            "        except OverflowError:",
            "            pass",
        ]
    lines.append(f"    return [arithmetic({op!r}, a, b) {each}]")
    return "\n".join(lines) + "\n"


def _fail_const_right(a, c):
    """The incomparable-value error of ``col <op> c``."""
    raise SqlTypeError(f"cannot compare {a!r} with {c!r}")


def _fail_const_left(a, c):
    """The incomparable-value error of ``c <op> col``."""
    raise SqlTypeError(f"cannot compare {c!r} with {a!r}")


def _dict_eq(col, sel, constant, op):
    """Equality over a dictionary-encoded column: compare codes, never
    strings.  A constant outside the dictionary matches nothing (``=``)
    or every non-NULL row (``<>``)."""
    code = col.meta.code_of.get(constant, -2)
    codes = col.codes
    t, u = [], []
    ta = t.append
    ua = u.append
    if op == "=":
        for i in sel:
            cd = codes[i]
            if cd == code:
                ta(i)
            elif cd < 0:
                ua(i)
    else:  # <>
        for i in sel:
            cd = codes[i]
            if cd < 0:
                ua(i)
            elif cd != code:
                ta(i)
    return t, u


def _cmp_leaf(expr, positions, ambiguous):
    """Kernel and zone test for a column compared with a row-independent
    operand, or None (column-vs-column and arbitrary expressions are
    interpreted)."""
    left, right = expr.left, expr.right
    if isinstance(left, A.ColumnRef) and _row_independent(right):
        col_expr, const_expr, const_is_right, kop = left, right, True, expr.op
    elif isinstance(right, A.ColumnRef) and _row_independent(left):
        col_expr, const_expr = right, left
        const_is_right, kop = False, _FLIP[expr.op]
    else:
        return None
    pos = column_position(col_expr, positions, ambiguous)
    if pos is None:
        return None  # the interpreter raises the unknown-column error
    fail = _fail_const_right if const_is_right else _fail_const_left

    def node(chunk, sel, params):
        if not sel:
            return [], []  # nothing evaluated, nothing raised
        c = evaluate(const_expr, None, params)
        col = chunk.columns[pos]
        if c is None or col is None:
            return [], list(sel)
        if (type(col) is DictColumn and c.__class__ is str
                and (kop == "=" or kop == "<>")):
            return _dict_eq(col, sel, c, kop)
        kind, cls = _family(c)
        return _loop(("cmp", kop, kind), _cmp_source)(col, sel, c, cls, fail)

    def zone_test(zone_of, params):
        zone = zone_of(pos)
        if zone is None:
            return _ALWAYS
        lo, hi, nulls, count = zone
        if count == 0:
            return _NEVER
        c = evaluate(const_expr, None, params)
        if c is None or nulls == count:
            return (False, True, False)  # UNKNOWN on every evaluated row
        if lo is None:
            return _ALWAYS  # chunk has values but no orderable range
        if not (is_comparable(lo, c) and is_comparable(hi, c)):
            # Some chunk value is incomparable with the constant — the
            # fused kernel would raise; the chunk must be scanned.
            return (True, nulls > 0, True)
        try:
            if kop == "=":
                may_true = not (c < lo or c > hi)
            elif kop == "<":
                may_true = lo < c
            elif kop == "<=":
                may_true = not (lo > c)
            elif kop == ">":
                may_true = hi > c
            elif kop == ">=":
                may_true = not (hi < c)
            else:  # <> — only an all-equal chunk (lo == hi == c) fails
                may_true = (lo < c or lo > c) or (hi < c or hi > c)
        except TypeError:
            return _ALWAYS
        return (may_true, nulls > 0, False)

    return node, zone_test


def _between_leaf(expr, positions, ambiguous):
    """Kernel and zone test for ``col [NOT] BETWEEN c AND c``, or None."""
    if not (isinstance(expr.expr, A.ColumnRef)
            and _row_independent(expr.low)
            and _row_independent(expr.high)):
        return None
    pos = column_position(expr.expr, positions, ambiguous)
    if pos is None:
        return None
    negated = expr.negated

    def node(chunk, sel, params):
        if not sel:
            return [], []
        low = evaluate(expr.low, None, params)
        high = evaluate(expr.high, None, params)
        col = chunk.columns[pos]
        if low is None or high is None or col is None:
            return [], list(sel)
        low_kind, low_cls = _family(low)
        high_kind, high_cls = _family(high)
        between = _loop(("between", low_kind, high_kind), _between_source)
        t, u = between(col, sel, low, high, low_cls, high_cls,
                       _fail_const_right)
        if negated:
            t_set = set(t)
            u_set = set(u)
            t = [i for i in sel if i not in t_set and i not in u_set]
        return t, u

    if negated:
        return node, None  # both bounds open-ended: rules no chunk out

    def zone_test(zone_of, params):
        zone = zone_of(pos)
        if zone is None:
            return _ALWAYS
        lo, hi, nulls, count = zone
        if count == 0:
            return _NEVER
        low = evaluate(expr.low, None, params)
        high = evaluate(expr.high, None, params)
        if low is None or high is None or nulls == count:
            return (False, True, False)
        if lo is None:
            return _ALWAYS
        if not (is_comparable(lo, low) and is_comparable(hi, low)):
            return (True, True, True)
        try:
            if hi < low:
                # Every value below the range: the fused loop never
                # touches the high bound, so it cannot raise either.
                return (False, nulls > 0, False)
            if not (is_comparable(lo, high) and is_comparable(hi, high)):
                return (True, nulls > 0, True)
            may_true = not (lo > high)
        except TypeError:
            return _ALWAYS
        return (may_true, nulls > 0, False)

    return node, zone_test


# -- lanes: one expression over a chunk's selected rows ---------------------


def _compile_vec(expr, positions, ambiguous):
    """Compile an expression to ``fn(chunk, sel, params) -> (scalar, v)``
    — ``v`` a single broadcast value when ``scalar`` is true, else a list
    aligned with ``sel``.  Literals, parameters, column references and
    ``+ - * / %`` over them have vector forms; every other shape is the
    interpreted lane.
    """
    kind = type(expr)
    if kind is A.Literal:
        value = expr.value
        return lambda chunk, sel, params: (True, value)
    if kind is A.Param:
        return lambda chunk, sel, params: (
            True, evaluate(expr, None, params))
    pos = (column_position(expr, positions, ambiguous)
           if kind is A.ColumnRef else None)
    if pos is not None:
        return lambda chunk, sel, params: (False, chunk.gather_at(pos, sel))
    if kind is A.BinaryOp and expr.op in ("+", "-", "*", "/", "%"):
        lv = _compile_vec(expr.left, positions, ambiguous)
        rv = _compile_vec(expr.right, positions, ambiguous)
        op = expr.op

        def binary_vec(chunk, sel, params):
            lscalar, lval = lv(chunk, sel, params)
            rscalar, rval = rv(chunk, sel, params)
            if lscalar and rscalar:
                return True, arithmetic(op, lval, rval)
            shape = ("s" if lscalar else "v") + ("s" if rscalar else "v")
            loop = _loop(("arith", op, shape), _arith_source)
            return False, loop(lval, rval)

        return binary_vec

    def interpreted_lane(chunk, sel, params):
        ctx = RowContext(positions, ambiguous)
        row = chunk.row
        return False, [evaluate(expr, ctx.bind(row(i)), params) for i in sel]

    return interpreted_lane


def compile_values(expr, positions, ambiguous):
    """``fn(chunk, sel, params) -> list``: ``expr``'s value at each row of
    ``sel`` (a scalar broadcast).  Over no row nothing is evaluated, so a
    missing parameter raises only where a row reaches it.  The list may be
    the chunk's own lane: callers read it and never write to it."""
    vec = _compile_vec(expr, positions, ambiguous)

    def values(chunk, sel, params):
        if not sel:
            return []
        scalar, value = vec(chunk, sel, params)
        return [value] * len(sel) if scalar else value

    return values


_PLAIN_LANES = frozenset((list, tuple))  # a plain-column select list zips


def compile_project(items, expansions, positions, ambiguous):
    """Compile a select list to ``fn(chunk, params) -> list of tuples``
    (the chunk's live output rows).  ``expansions`` is ProjectOp's
    star-expansion table: expanded positions and plain column items become
    straight column gathers, every other item its lane."""
    makers = []  # a flat position (a gather) or a lane
    for item, expansion in zip(items, expansions):
        if expansion is not None:
            makers.extend(pos for pos, _ in expansion)
        else:
            pos = (column_position(item.expr, positions, ambiguous)
                   if type(item.expr) is A.ColumnRef else None)
            makers.append(pos if pos is not None
                          else compile_values(item.expr, positions, ambiguous))
    if all(type(maker) is int for maker in makers):
        # Plain columns: the lanes zipped — as they stand on a fully-live
        # chunk of plain lanes, else each gathered once.
        def zip_columns(chunk, params):
            if chunk.sel is None:
                lanes = list(map(chunk.columns.__getitem__, makers))
                if _PLAIN_LANES.issuperset(map(type, lanes)):
                    return list(zip(*lanes))
            sel = chunk.live_indices()
            return list(zip(*[chunk.gather_at(pos, sel) for pos in makers]))

        return zip_columns

    def project_fn(chunk, params):
        sel = chunk.live_indices()
        return list(zip(*[chunk.gather_at(maker, sel) if type(maker) is int
                          else maker(chunk, sel, params)
                          for maker in makers]))

    return project_fn
