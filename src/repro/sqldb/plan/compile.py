"""Chunk compilation: lower expression ASTs to kernels over column chunks.

The engine has two expression evaluators.  The interpreter
(:func:`repro.sqldb.expressions.evaluate`) re-walks an AST for every row.
This module is the other one.  It lowers an expression **once** (when the
physical plan is built) into a kernel over a whole
:class:`repro.sqldb.columnar.ColumnChunk`:

- :func:`compile_filter` — a predicate becomes ``fn(chunk, params) ->
  sel``, the selection vector of rows evaluating to SQL TRUE, **and**, out
  of the same walk, a test over a chunk's zone maps and equality facets
  that can rule the chunk out before it is scanned;
- :func:`compile_project` — select items become per-column reads and
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
operand beside a selective fused leaf ever sees.  Errors the
interpreter raises only when a row is actually evaluated (missing
parameters, type errors) are raised by the kernels only when a row is
evaluated too, so an empty input still raises nothing.

``col = c`` over a chunk a sequential scan sliced off a snapshot reads
``c``'s rows off the slice's equality facet (:func:`_facet_eq`); a chunk
no snapshot backs (index hits, join output, shared-scan rows) runs the
loop.

**Generated loops.**  ``_loop`` builds the per-value loops from source
templates: one function per key, at most once per process, shared by
every plan and compiled under this file's name (``cmp_ge_num``,
``between_num_exact``, ``arith_mul_vs``, ``project_ppd``).  Comparison
and BETWEEN loops bake in the interpreter's comparability lattice and
``a < b`` / ``a > b`` probes, so NaN and mixed-type behaviour are
bit-identical.  A projection loop builds the rows at ``sel`` in one pass,
one per sequence of lane kinds (plain, dictionary, all-NULL).  Arithmetic
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

from operator import itemgetter

from repro.sqldb import ast_nodes as A
from repro.sqldb.columnar import DictColumn
from repro.sqldb.errors import SqlTypeError
from repro.sqldb.expressions import RowContext, _truthy, arithmetic, evaluate
from repro.sqldb.types import is_comparable

__all__ = ["compile_filter", "compile_operand", "compile_project",
           "compile_values"]


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
    """True when ``expr`` resolves without a row: a literal or parameter,
    which a kernel reads through :func:`compile_operand`."""
    return isinstance(expr, (A.Literal, A.Param))


def compile_operand(expr):
    """``resolve(params)``: a literal's value, or a parameter read by its
    index, built with the plan.  A missing parameter raises the
    interpreter's own error when this is called, and a kernel calls it
    only over rows: over no row nothing raises."""
    if type(expr) is A.Literal:
        value = expr.value
        return lambda params: value
    index = expr.index

    def parameter(params):
        try:
            return params[index]
        except IndexError:
            return evaluate(expr, None, params)  # the error, as it words it

    return parameter


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
# - the zone test ``zone_test(zone_of, facet_of, params) -> (may_true,
#   may_unknown, may_raise)`` — conservative upper bounds on whether *any*
#   row of the chunk could evaluate TRUE / UNKNOWN / raise — or None when
#   the shape can rule no chunk out (an interpreted operand, NOT BETWEEN).
#   ``zone_of(pos)`` / ``facet_of(pos)`` return the chunk's ``(lo, hi,
#   nulls, count)`` / equality facet for a flat column position, or None.
#   A chunk may be skipped only when it can neither produce a TRUE row nor
#   raise: pruning must never suppress an error the full scan would surface.
#   Each builder adds its column to ``reads = (zoned, equal)``: the zone
#   maps its zone test reads, or the facets an ``=`` leaf reads.

_ALWAYS = (True, True, True)
_NEVER = (False, False, False)


def compile_filter(expr, positions, ambiguous=frozenset()):
    """Compile a WHERE predicate to ``(filter_fn, prune_fn, reads)``, all
    built in the same walk so they cannot disagree about which shapes they
    cover.

    ``filter_fn(chunk, params) -> sel`` is the selection vector (ascending
    live indices) of chunk rows where the predicate is strictly TRUE.
    ``prune_fn(zone_of, facet_of, params) -> must_scan`` is False only when
    the zone maps and facets prove no chunk row can be TRUE and none can
    raise; it is None when no conjunct is zone-prunable (the scan then
    skips the per-chunk call entirely).  ``reads = (zoned, equal)``: the
    flat positions whose zone maps ``prune_fn`` reads, and whose equality
    facets the ``=`` leaves read.  Never raises at compile time; a shape
    without a kernel reads its lane (:func:`compile_values`).
    """
    reads = (set(), set())
    try:
        compiled = _compile_pred(expr, positions, ambiguous, reads)
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

        return lane_filter_fn, None, ((), ())
    node, zone_test = compiled
    zoned, equal = reads

    def filter_fn(chunk, params):
        return node(chunk, chunk.live_indices(), params)[0]

    if zone_test is None:
        return filter_fn, None, ((), equal)

    def prune_fn(zone_of, facet_of, params):
        may_true, _, may_raise = zone_test(zone_of, facet_of, params)
        return may_true or may_raise

    return filter_fn, prune_fn, (zoned, equal)


def _compile_pred(expr, positions, ambiguous, reads):
    """``(kernel, zone test or None)`` for one predicate, or None when the
    shape has no kernel at this level (callers read its lane)."""
    kind = type(expr)
    if kind is A.BinaryOp:
        if expr.op == "AND":
            return _and_pair(
                _pred_operand(expr.left, positions, ambiguous, reads),
                _pred_operand(expr.right, positions, ambiguous, reads))
        if expr.op in _CMP_EXPRS:
            return _cmp_leaf(expr, positions, ambiguous, reads)
        return None
    if kind is A.IsNull:
        return _isnull_leaf(expr, positions, ambiguous, reads)
    if kind is A.Between:
        return _between_leaf(expr, positions, ambiguous, reads)
    return None


def _pred_operand(expr, positions, ambiguous, reads):
    """The pair for an AND operand: its kernel and zone test, or its lane
    over the candidate rows — each value classified as AND classifies an
    operand (NULL is UNKNOWN, numbers count by ``!= 0``, non-numeric
    non-bools raise — ``_truthy``) — with no zone test: a lane may raise
    on any row."""
    compiled = _compile_pred(expr, positions, ambiguous, reads)
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

    def zone_test(zone_of, facet_of, params):
        lt, lu, lr = lzone(zone_of, facet_of, params)
        if lr:
            return _ALWAYS
        if not lt and not lu:
            # Every row FALSE on the left: the interpreter never
            # evaluates the right operand (its errors included).
            return _NEVER
        if rzone is None:
            return _ALWAYS
        rt, ru, rr = rzone(zone_of, facet_of, params)
        return (lt and rt, lu or ru, rr)

    return node, zone_test


def _isnull_leaf(expr, positions, ambiguous, reads):
    """Kernel and zone test for ``col IS [NOT] NULL``, or None."""
    if not isinstance(expr.expr, A.ColumnRef):
        return None
    pos = column_position(expr.expr, positions, ambiguous)
    if pos is None:
        return None
    negated = expr.negated
    reads[0].add(pos)

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

    def zone_test(zone_of, facet_of, params):
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
# `a < b` / `a > b` probes (``_compare``), not the native ==/!=: a NaN
# computed from ±inf (``inf - inf``; SQLite's would be NULL, a kept gap)
# compares here as it does there.
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


# The value classes each constant family meets without raising, as
# ``_KERNEL_CHECKS`` admits them (an exact family meets its own class).
_MEETS = {"num": frozenset((int, float)), "bool": frozenset((bool,))}


def _facet_eq(facet, c, sel, length):
    """``col = c`` off the chunk's equality facet: ``c``'s rows TRUE and
    the NULL rows UNKNOWN, within ``sel`` (over a whole chunk, the facet's
    own lists: nobody writes to them).  It is the loop's ``not (a < c or
    a > c)`` because the caller checked that ``c`` meets every class in
    the slice (``_MEETS``): there ``a == c`` exactly when neither ``a < c``
    nor ``a > c``, ints and floats mixed (``1 = 1.0``) as bools or strings,
    and equal values hash alike.  Only NaN breaks that, and no stored value
    or bound constant is NaN (it enters as NULL).  A bool never meets a
    number: such a slice runs the loop, which raises at its first such
    row of ``sel``."""
    positions, nulls, _ = facet
    t = positions.get(c) or []
    if len(sel) < length and (t or nulls):
        kept = set(sel)
        return [i for i in t if i in kept], [i for i in nulls if i in kept]
    return t, nulls


def _cmp_leaf(expr, positions, ambiguous, reads):
    """Kernel and zone test for a column compared with a row-independent
    operand, or None (column-vs-column and arbitrary expressions are
    interpreted).  ``=`` reads a chunk's equality facet where it has one
    (:func:`_facet_eq`); every other chunk, and every other comparison,
    runs the generated loop."""
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
    resolve = compile_operand(const_expr)
    faceted = kop == "="
    zoned, equal = reads
    (equal if faceted else zoned).add(pos)
    # The constant's class -> its loop, the class it checks and the
    # classes it meets; ``family`` fills it on a class's first sight.
    families = {}

    def family(c):
        kind, cls = _family(c)
        found = families[c.__class__] = (
            _loop(("cmp", kop, kind), _cmp_source), cls,
            _MEETS.get(kind) or frozenset((cls,)))
        return found

    def node(chunk, sel, params):
        if not sel:
            return [], []  # nothing evaluated, nothing raised
        c = resolve(params)
        col = chunk.columns[pos]
        if c is None or col is None:
            return [], list(sel)
        loop, cls, meets = families.get(c.__class__) or family(c)
        if faceted and chunk.facets is not None:
            facet = chunk.facets(pos)
            if facet is not None and facet[2] <= meets:
                return _facet_eq(facet, c, sel, chunk.length)
        return loop(col, sel, c, cls, fail)

    def zone_test(zone_of, facet_of, params):
        if faceted:
            facet = facet_of(pos)
            if facet is None:
                return _ALWAYS
            c = resolve(params)
            values, nulls, classes = facet
            if c is None or not classes:
                return (False, True, False)  # UNKNOWN on every row
            if not classes <= (families.get(c.__class__) or family(c))[2]:
                return (True, bool(nulls), True)  # the loop would raise
            return (c in values, bool(nulls), False)
        zone = zone_of(pos)
        if zone is None:
            return _ALWAYS
        lo, hi, nulls, count = zone
        if count == 0:
            return _NEVER
        c = resolve(params)
        if c is None or nulls == count:
            return (False, True, False)  # UNKNOWN on every evaluated row
        if lo is None:
            return _ALWAYS  # chunk has values but no orderable range
        if not (is_comparable(lo, c) and is_comparable(hi, c)):
            # Some chunk value is incomparable with the constant — the
            # fused kernel would raise; the chunk must be scanned.
            return (True, nulls > 0, True)
        try:
            if kop == "<":
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


def _between_leaf(expr, positions, ambiguous, reads):
    """Kernel and zone test for ``col [NOT] BETWEEN c AND c``, or None."""
    if not (isinstance(expr.expr, A.ColumnRef)
            and _row_independent(expr.low)
            and _row_independent(expr.high)):
        return None
    pos = column_position(expr.expr, positions, ambiguous)
    if pos is None:
        return None
    negated = expr.negated
    low_of, high_of = compile_operand(expr.low), compile_operand(expr.high)

    def node(chunk, sel, params):
        if not sel:
            return [], []
        low = low_of(params)
        high = high_of(params)
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
    reads[0].add(pos)

    def zone_test(zone_of, facet_of, params):
        zone = zone_of(pos)
        if zone is None:
            return _ALWAYS
        lo, hi, nulls, count = zone
        if count == 0:
            return _NEVER
        low = low_of(params)
        high = high_of(params)
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
    if kind is A.Literal or kind is A.Param:
        resolve = compile_operand(expr)
        return lambda chunk, sel, params: (True, resolve(params))
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
    pos = (column_position(expr, positions, ambiguous)
           if type(expr) is A.ColumnRef else None)
    if pos is not None:
        return lambda chunk, sel, params: chunk.gather_at(pos, sel)
    vec = _compile_vec(expr, positions, ambiguous)

    def values(chunk, sel, params):
        if not sel:
            return []
        scalar, value = vec(chunk, sel, params)
        return [value] * len(sel) if scalar else value

    return values


_PLAIN_LANES = frozenset((list, tuple))  # a plain-column select list zips

# What a projection loop binds and reads per lane, by the lane's kind: a
# plain list or tuple by index, a dictionary lane through its codes, an
# all-NULL lane not at all.
_LANE_KINDS = {list: "p", tuple: "p", DictColumn: "d", type(None): "n"}
_LANE_CODE = {"p": ("l{0} = lanes[{0}]", "l{0}[i]"),
              "d": ("c{0}, v{0} = lanes[{0}].codes, lanes[{0}].meta.values",
                    "(None if c{0}[i] < 0 else v{0}[c{0}[i]])"),
              "n": ("pass", "None")}


def _project_source(name, kinds):
    """``name(lanes, sel) -> list of tuples``: the rows at ``sel`` in one
    pass, lane ``k`` read as its kind ``kinds[k]`` says."""
    code = [(bind.format(k), read.format(k))
            for k, (bind, read) in enumerate(map(_LANE_CODE.get, kinds))]
    return "".join([f"def {name}(lanes, sel):\n",
                    *(f"    {bind}\n" for bind, _ in code),
                    f"    return [({', '.join(r for _, r in code)},)"
                    " for i in sel]\n"])


def compile_project(items, expansions, positions, ambiguous):
    """Compile a select list to ``fn(chunk, params) -> list of tuples``
    (the chunk's live output rows).  ``expansions`` is ProjectOp's
    star-expansion table: expanded positions and plain column items become
    straight column reads, every other item its lane."""
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
        # Plain columns: the lanes zipped as they stand on a fully-live
        # chunk of plain lanes, else the live rows built in one pass by
        # the projection loop for the lanes' kinds (``plain`` when every
        # lane is).  ``pick`` takes the lanes off a chunk in one step: a
        # slice where they sit side by side, in order (``*``, or the
        # table's columns as declared).
        first, last = makers[0], makers[0] + len(makers)
        pick = (itemgetter(slice(first, last))
                if makers == list(range(first, last)) else itemgetter(*makers))
        plain = _loop(("project", "p" * len(makers)), _project_source)
        loops = {}  # the lanes' kinds -> their projection loop

        def zip_columns(chunk, params):
            lanes = pick(chunk.columns)
            if _PLAIN_LANES.issuperset(map(type, lanes)):
                sel = chunk.sel
                return list(zip(*lanes)) if sel is None else plain(lanes, sel)
            # Keyed by a str: keyed by a tuple of the lanes' types, the page
            # sweeps read about 1 MB more peak RSS.
            kinds = "".join(map(_LANE_KINDS.__getitem__, map(type, lanes)))
            loop = loops.get(kinds)
            if loop is None:
                loop = loops[kinds] = _loop(("project", kinds),
                                            _project_source)
            return loop(lanes, chunk.live_indices())

        return zip_columns

    def project_fn(chunk, params):
        sel = chunk.live_indices()
        return list(zip(*[chunk.gather_at(maker, sel) if type(maker) is int
                          else maker(chunk, sel, params)
                          for maker in makers]))

    return project_fn
