"""Expression evaluation over rows, with SQL three-valued logic.

The evaluator works against a :class:`RowContext` that resolves (possibly
qualified) column references to values of the current joined row.  NULL
propagates through arithmetic and comparisons; ``AND``/``OR`` use
three-valued logic (``None`` stands for UNKNOWN).
"""

import operator
import re

from repro.sqldb import ast_nodes as A
from repro.sqldb.errors import SqlError, SqlTypeError
from repro.sqldb.types import _OUT_OF_RANGE, is_comparable


class RowContext:
    """Resolves column references against the current row.

    ``columns`` maps ``(alias, column)`` and ``(None, column)`` keys to
    positions in the flat ``values`` list.  Unqualified names that are
    ambiguous across tables must be registered as ambiguous by the executor.
    """

    __slots__ = ("positions", "ambiguous", "values")

    def __init__(self, positions, ambiguous=frozenset()):
        self.positions = positions
        self.ambiguous = ambiguous
        self.values = None

    def bind(self, values):
        self.values = values
        return self

    def resolve(self, table, column):
        if table is None and column in self.ambiguous:
            raise SqlError(f"ambiguous column reference {column!r}")
        pos = self.positions.get((table, column))
        if pos is None:
            where = f"table {table!r}" if table else "any table"
            raise SqlError(f"unknown column {column!r} in {where}")
        return self.values[pos]


def like_to_regex(pattern):
    """Convert a SQL LIKE pattern to an anchored Python regex that, as
    SQLite's LIKE, ignores the case of ASCII letters and of no other."""
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$",
                      re.DOTALL | re.IGNORECASE | re.ASCII)


_LIKE_CACHE = {}


def _like_match(value, pattern):
    regex = _LIKE_CACHE.get(pattern)
    if regex is None:
        regex = like_to_regex(pattern)
        if len(_LIKE_CACHE) < 1024:
            _LIKE_CACHE[pattern] = regex
    return regex.match(value) is not None


def evaluate(expr, ctx, params=()):
    """Evaluate ``expr`` against a bound :class:`RowContext`.

    ``params`` supplies values for ``?`` placeholders.  Returns a Python
    value; ``None`` means SQL NULL / UNKNOWN.
    """
    kind = type(expr)
    if kind is A.Literal:
        return expr.value
    if kind is A.Param:
        try:
            return params[expr.index]
        except IndexError:
            raise SqlError(
                f"missing parameter #{expr.index + 1} "
                f"(got {len(params)} parameters)") from None
    if kind is A.ColumnRef:
        return ctx.resolve(expr.table, expr.column)
    if kind is A.BinaryOp:
        return _eval_binary(expr, ctx, params)
    if kind is A.UnaryOp:
        value = evaluate(expr.operand, ctx, params)
        if expr.op == "NOT":
            return None if value is None else (not _truthy(value))
        if expr.op == "-":
            if value is None:
                return None
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SqlTypeError(f"cannot negate {value!r}")
            return -value
        raise SqlError(f"unknown unary operator {expr.op!r}")
    if kind is A.IsNull:
        value = evaluate(expr.expr, ctx, params)
        result = value is None
        return (not result) if expr.negated else result
    if kind is A.InList:
        return _eval_in(expr, ctx, params)
    if kind is A.Between:
        value = evaluate(expr.expr, ctx, params)
        low = evaluate(expr.low, ctx, params)
        high = evaluate(expr.high, ctx, params)
        if value is None or low is None or high is None:
            return None
        result = _compare(value, low) >= 0 and _compare(value, high) <= 0
        return (not result) if expr.negated else result
    if kind is A.Like:
        value = evaluate(expr.expr, ctx, params)
        pattern = evaluate(expr.pattern, ctx, params)
        if value is None or pattern is None:
            return None
        if not isinstance(value, str) or not isinstance(pattern, str):
            raise SqlTypeError("LIKE requires text operands")
        result = _like_match(value, pattern)
        return (not result) if expr.negated else result
    if kind is A.FuncCall:
        return _eval_scalar_func(expr, ctx, params)
    if kind is A.Star:
        raise SqlError("'*' is only valid in a select list or COUNT(*)")
    raise SqlError(f"cannot evaluate expression node {expr!r}")


def _truthy(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    raise SqlTypeError(f"expected a boolean, got {value!r}")


def _compare(a, b):
    if not is_comparable(a, b):
        raise SqlTypeError(f"cannot compare {a!r} with {b!r}")
    if a < b:
        return -1
    if a > b:
        return 1
    return 0


# Comparison operator -> the test of ``_compare``'s -1 / 0 / 1 against 0.
_COMPARISONS = {"=": operator.eq, "<>": operator.ne, "<": operator.lt,
                ">": operator.gt, "<=": operator.le, ">=": operator.ge}


def _eval_binary(expr, ctx, params):
    op = expr.op
    if op == "AND":
        left = evaluate(expr.left, ctx, params)
        if left is not None and not _truthy(left):
            return False
        right = evaluate(expr.right, ctx, params)
        if right is not None and not _truthy(right):
            return False
        if left is None or right is None:
            return None
        return True
    if op == "OR":
        left = evaluate(expr.left, ctx, params)
        if left is not None and _truthy(left):
            return True
        right = evaluate(expr.right, ctx, params)
        if right is not None and _truthy(right):
            return True
        if left is None or right is None:
            return None
        return False
    left = evaluate(expr.left, ctx, params)
    right = evaluate(expr.right, ctx, params)
    if left is None or right is None:
        return None
    holds = _COMPARISONS.get(op)
    if holds is not None:
        return holds(_compare(left, right), 0)
    if op == "||":
        if not isinstance(left, str) or not isinstance(right, str):
            raise SqlTypeError("'||' requires text operands")
        return left + right
    if op in ("+", "-", "*", "/", "%"):
        return arithmetic(op, left, right)
    raise SqlError(f"unknown binary operator {op!r}")


def arithmetic(op, left, right):
    """One application of ``+ - * / %`` — the one home of SQL's arithmetic
    rules, for the interpreter and the compiled loops alike: NULL
    propagates, only non-bool numbers combine, division by zero yields
    NULL, an int divided by an int is exact when it divides evenly, ``%``
    is SQLite's (:func:`_remainder`), and a result no float can hold
    raises :class:`SqlTypeError`."""
    if left is None or right is None:
        return None
    if (isinstance(left, bool) or isinstance(right, bool)
            or not isinstance(left, (int, float))
            or not isinstance(right, (int, float))):
        raise SqlTypeError(
            f"arithmetic requires numbers, got {left!r} {op} {right!r}")
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "%":
            return _remainder(left, right)
        if right == 0:
            return None  # SQL semantics: division by zero yields NULL
        if isinstance(left, int) and isinstance(right, int):
            quotient, remainder = divmod(left, right)
            if remainder == 0:
                return quotient
        return left / right
    except OverflowError:
        raise SqlTypeError(_OUT_OF_RANGE) from None


def _remainder(left, right):
    """SQLite's ``%``: the remainder takes the dividend's sign; a REAL
    operand makes both integers first (truncated toward zero, clamped to
    64 bits) and the result REAL; a divisor of 0 yields NULL."""
    if isinstance(left, float) or isinstance(right, float):
        result = _remainder(_truncated(left), _truncated(right))
        return None if result is None else float(result)
    if right == 0:
        return None
    result = abs(left) % abs(right)
    return -result if left < 0 else result


def _truncated(value):
    if isinstance(value, int):
        float(value)  # an int no float holds meets a float: out of range
        return value
    if value >= 2.0 ** 63:
        return 2 ** 63 - 1
    return int(value) if value > -2.0 ** 63 else -2 ** 63


def average(total, count):
    """AVG's final ``total / count`` — every AVG form's, so a total no
    float can hold is the same :class:`SqlTypeError` everywhere."""
    try:
        return total / count
    except OverflowError:
        raise SqlTypeError(_OUT_OF_RANGE) from None


def _eval_in(expr, ctx, params):
    value = evaluate(expr.expr, ctx, params)
    if value is None:
        return None
    saw_null = False
    for item in expr.items:
        candidate = evaluate(item, ctx, params)
        if candidate is None:
            saw_null = True
            continue
        if is_comparable(value, candidate) and _compare(value, candidate) == 0:
            return not expr.negated
    if saw_null:
        return None
    return expr.negated


# One-argument scalar functions: name -> (types accepted, their name, body).
_SCALAR_FUNCS = {
    "UPPER": ((str,), "a text", str.upper),
    "LOWER": ((str,), "a text", str.lower),
    "LENGTH": ((str,), "a text", len),
    "ABS": ((int, float), "a numeric", abs),
}


def _eval_scalar_func(expr, ctx, params):
    name = expr.name
    if name in ("COUNT", "SUM", "AVG", "MIN", "MAX"):
        raise SqlError(
            f"aggregate {name} is not allowed in this context")
    args = [evaluate(arg, ctx, params) for arg in expr.args]
    if name == "COALESCE":
        for value in args:
            if value is not None:
                return value
        return None
    if len(args) != 1:
        raise SqlError(f"{name} expects exactly one argument")
    value = args[0]
    if value is None:
        return None
    if name not in _SCALAR_FUNCS:
        raise SqlError(f"unknown function {name!r}")
    accepted, what, apply = _SCALAR_FUNCS[name]
    if type(value) not in accepted:  # names the type, never the value
        raise SqlTypeError(
            f"{name} requires {what} value, got {type(value).__name__}")
    return apply(value)


def aggregate_type_error(name, values):
    """The error SUM/AVG raise for the first non-numeric entry of
    ``values``.  It names the aggregate and the value's *type*, never the
    value: grouped and chunked accumulation may meet a different offending
    row first than the row-at-a-time fold does, and the text must not
    depend on which."""
    bad = next(v for v in values if not isinstance(v, (int, float)))
    return SqlTypeError(
        f"{name} requires numeric values, got {type(bad).__name__}")


def first_occurrences(values, clause):
    """``values`` without duplicates, in first-occurrence order — the one
    dedup behind DISTINCT and an aggregate's DISTINCT.  A value that cannot
    be hashed (only a parameter can bind a list or a dict) raises
    :class:`SqlTypeError` naming the ``clause``."""
    try:
        return list(dict.fromkeys(values))
    except TypeError as exc:
        raise SqlTypeError(f"cannot compare {clause} values: {exc}") from None


def fold_aggregate(name, values):
    """COUNT/SUM/AVG/MIN/MAX over the collected non-NULL argument values
    (already deduplicated for DISTINCT) — the one fold behind every
    aggregate form that collects a list, interpreted or compiled."""
    if name == "COUNT":
        return len(values)
    if not values:
        return None
    if name == "SUM" or name == "AVG":
        try:
            total = sum(values)
        except TypeError:
            raise aggregate_type_error(name, values) from None
        except OverflowError:
            raise SqlTypeError(_OUT_OF_RANGE) from None
        return total if name == "SUM" else average(total, len(values))
    if name == "MIN" or name == "MAX":
        try:
            return min(values) if name == "MIN" else max(values)
        except TypeError as exc:  # values without an order: dicts
            raise SqlTypeError(f"cannot compare {name} values: {exc}") \
                from None
    raise SqlError(f"unknown aggregate {name!r}")


def split_conjuncts(expr):
    """Split a predicate on top-level ANDs, left to right.

    Three-valued logic makes this safe for WHERE processing: the conjunction
    evaluates to TRUE exactly when every conjunct does, so filters may apply
    the pieces independently (the planner's predicate-pushdown rule).
    """
    if isinstance(expr, A.BinaryOp) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def conjoin(conjuncts):
    """Rebuild a predicate from conjuncts (left-associated ANDs), or None."""
    if not conjuncts:
        return None
    combined = conjuncts[0]
    for conjunct in conjuncts[1:]:
        combined = A.BinaryOp("AND", combined, conjunct)
    return combined


def expr_columns(expr):
    """Collect all ColumnRef nodes in an expression (for planning)."""
    found = []
    _walk_columns(expr, found)
    return found


def _walk_columns(expr, found):
    if isinstance(expr, A.ColumnRef):
        found.append(expr)
        return
    if isinstance(expr, A.BinaryOp):
        _walk_columns(expr.left, found)
        _walk_columns(expr.right, found)
    elif isinstance(expr, A.UnaryOp):
        _walk_columns(expr.operand, found)
    elif isinstance(expr, A.FuncCall):
        for arg in expr.args:
            _walk_columns(arg, found)
    elif isinstance(expr, A.InList):
        _walk_columns(expr.expr, found)
        for item in expr.items:
            _walk_columns(item, found)
    elif isinstance(expr, A.Between):
        _walk_columns(expr.expr, found)
        _walk_columns(expr.low, found)
        _walk_columns(expr.high, found)
    elif isinstance(expr, (A.IsNull, A.Like)):
        _walk_columns(expr.expr, found)
        if isinstance(expr, A.Like):
            _walk_columns(expr.pattern, found)
