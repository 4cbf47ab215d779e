"""SQL's per-value rules, with three-valued logic, and the AST helpers the
planner shares.

Each rule here takes values that are already computed (``None`` is NULL
or UNKNOWN) and is the one definition of its operator: :func:`arithmetic`,
the comparisons and ``||`` (:data:`BINARY_RULES`), :func:`negate`,
:func:`_truthy` (how AND, OR and NOT read an operand), :func:`between`,
:func:`like`, :func:`in_match` and :func:`scalar_function`.  The engine's
one evaluator, :mod:`repro.sqldb.plan.compile`, maps them over a chunk's
rows and decides which operands are evaluated on which rows.
"""

import operator
import re

from repro.sqldb import ast_nodes as A
from repro.sqldb.errors import SqlError, SqlTypeError
from repro.sqldb.types import _OUT_OF_RANGE, is_comparable


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


def _comparison(holds):
    """The rule of one comparison: ``holds`` tests :func:`_compare`'s
    -1 / 0 / 1 against 0."""
    def compare(left, right):
        if left is None or right is None:
            return None
        return holds(_compare(left, right), 0)
    return compare


def concat(left, right):
    """``||``: NULL propagates, only text concatenates."""
    if left is None or right is None:
        return None
    if not isinstance(left, str) or not isinstance(right, str):
        raise SqlTypeError("'||' requires text operands")
    return left + right


# Binary operator -> its rule over two values, but for AND / OR (which
# read their operands with ``_truthy``) and ``+ - * / %`` (arithmetic).
BINARY_RULES = {"=": _comparison(operator.eq), "<>": _comparison(operator.ne),
                "<": _comparison(operator.lt), ">": _comparison(operator.gt),
                "<=": _comparison(operator.le), ">=": _comparison(operator.ge),
                "||": concat}


def negate(value):
    """Unary minus: NULL propagates, only non-bool numbers negate."""
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SqlTypeError(f"cannot negate {value!r}")
    return -value


def between(value, low, high):
    """``value BETWEEN low AND high``; the high bound is compared only
    when the value is not below the low one."""
    if value is None or low is None or high is None:
        return None
    return _compare(value, low) >= 0 and _compare(value, high) <= 0


def like(value, pattern):
    """``value LIKE pattern``: NULL propagates, only text matches."""
    if value is None or pattern is None:
        return None
    if not isinstance(value, str) or not isinstance(pattern, str):
        raise SqlTypeError("LIKE requires text operands")
    return _like_match(value, pattern)


def in_match(value, item):
    """One IN item against a non-NULL value: True when they are equal,
    None for a NULL item (the list may still match, else it is UNKNOWN),
    False otherwise — an item of another type never matches."""
    if item is None:
        return None
    return is_comparable(value, item) and _compare(value, item) == 0


def arithmetic(op, left, right):
    """One application of ``+ - * / %`` — the one home of SQL's arithmetic
    rules, for the generated loops and every other caller: NULL
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


# One-argument scalar functions: name -> (types accepted, their name, body).
_SCALAR_FUNCS = {
    "UPPER": ((str,), "a text", str.upper),
    "LOWER": ((str,), "a text", str.lower),
    "LENGTH": ((str,), "a text", len),
    "ABS": ((int, float), "a numeric", abs),
}


def scalar_function(name, *args):
    """A scalar function over its argument values: COALESCE's first
    non-NULL one, else the one-argument function ``name``."""
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
    aggregate form that collects a list."""
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


def operands(expr):
    """``expr``'s direct sub-expressions, in the order they are written."""
    kind = type(expr)
    return (expr.args if kind is A.FuncCall else
            (expr.left, expr.right) if kind is A.BinaryOp else
            (expr.operand,) if kind is A.UnaryOp else
            (expr.expr, *expr.items) if kind is A.InList else
            (expr.expr, expr.low, expr.high) if kind is A.Between else
            (expr.expr, expr.pattern) if kind is A.Like else
            (expr.expr,) if kind is A.IsNull else ())


def expr_columns(expr):
    """Collect all ColumnRef nodes in an expression (for planning)."""
    if type(expr) is A.ColumnRef:
        return [expr]
    return [ref for operand in operands(expr) for ref in expr_columns(operand)]
