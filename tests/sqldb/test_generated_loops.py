"""The generated per-value loops of ``plan/compile.py`` against the
per-value rules, element by element.

Arithmetic (``+ - * / %``, each over column∘column, column∘parameter and
parameter∘column) and BETWEEN (each pair of bound families, negated, NULL
bounds) run as loops generated per key.  A loop inlines the common case
and sends every other value to the shared helper, so over any chunk it
must give what the rule (``expressions.arithmetic``, or
``expressions.between`` for the kept rows) gives row by row: the same values
— NaN-aware, and of the same type — or, when a row raises, the error of
the first raising row, same type and message.  Value kinds: ints, floats,
NaN, ±inf, bools, NULL, text, an int no float can hold (``10**400``) and
one a float rounds (``2**53 + 1``); chunk sizes 1 / 1023 / 1024 / 1025.
"""

import itertools
import math

import pytest

from repro.sqldb import ast_nodes as A
from repro.sqldb.columnar import ColumnChunk
from repro.sqldb.errors import SqlError
from repro.sqldb.expressions import arithmetic, between
from repro.sqldb.plan import compile as C

POSITIONS = {(None, "a"): 0, (None, "b"): 1}
NAN = float("nan")
INF = float("inf")
HUGE = 10 ** 400
VALUES = (0, 3, -7, 2 ** 53 + 1, HUGE, 2.5, -0.0, NAN, INF, -INF, True,
          False, None, "x")
# Values no arithmetic row raises on, beside any other of them.
SAFE = (0, 3, -7, 2 ** 53 + 1, 2.5, -0.0, NAN, INF, -INF, None)
SIZES = (1, 1023, 1024, 1025)
SHAPES = {
    "vv": lambda op: A.BinaryOp(op, A.ColumnRef(None, "a"),
                                A.ColumnRef(None, "b")),
    "vs": lambda op: A.BinaryOp(op, A.ColumnRef(None, "a"), A.Param(0)),
    "sv": lambda op: A.BinaryOp(op, A.Param(0), A.ColumnRef(None, "b")),
}


def _same(x, y):
    if isinstance(x, float) and isinstance(y, float) and math.isnan(x):
        return math.isnan(y)
    return type(x) is type(y) and x == y


def _same_rows(got, want):
    return len(got) == len(want) and all(
        all(map(_same, g, w)) for g, w in zip(got, want))


def _outcome(fn):
    try:
        return fn()
    except SqlError as error:  # anything else is a leak and fails the test
        return type(error), str(error)


def _operand(expr, row, params):
    """A loop operand's value at ``row``: a column or a parameter."""
    if type(expr) is A.ColumnRef:
        return row[POSITIONS[None, expr.column]]
    return params[expr.index]


def _reference(expr, lanes, params):
    """What ``arithmetic`` gives row by row: the values, or the first
    raising row's error."""
    return _outcome(lambda: [
        arithmetic(expr.op, _operand(expr.left, row, params),
                   _operand(expr.right, row, params))
        for row in zip(*lanes)])


def _projected(expr, lanes, params):
    project = C.compile_project([A.SelectItem(expr)], [None], POSITIONS,
                                frozenset())
    chunk = ColumnChunk([list(lane) for lane in lanes], len(lanes[0]))
    return _outcome(lambda: [row[0] for row in project(chunk, params)])


def _agree(got, want):
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, list) and _same_rows([got], [want]), (got, want)


def _arith_case(op, shape, left, right):
    """``(expr, lanes, params)`` with ``left`` / ``right`` the operand
    values: a parameter side takes the first value of its list."""
    expr = SHAPES[shape](op)
    n = len(left) if shape[0] == "v" else len(right)
    lanes = [left if shape[0] == "v" else [None] * n,
             right if shape[1] == "v" else [None] * n]
    params = (right[0],) if shape == "vs" else (
        (left[0],) if shape == "sv" else ())
    return expr, lanes, params


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("op", ["+", "-", "*", "/", "%"])
def test_arithmetic_pairs_match_the_rule(op, shape):
    """Every pair of value kinds, one row at a time."""
    for a, b in itertools.product(VALUES, repeat=2):
        expr, lanes, params = _arith_case(op, shape, [a], [b])
        _agree(_projected(expr, lanes, params),
               _reference(expr, lanes, params))


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("op", ["+", "-", "*", "/", "%"])
@pytest.mark.parametrize("poison", [None, True, "x", HUGE],
                         ids=["none", "bool", "text", "huge"])
def test_arithmetic_chunks_match_the_rule(op, shape, size, poison):
    """Whole chunks of safe values, with one value that raises (or, for
    ``10**400`` beside an int, does not) last: the inline pass and, when
    it overflows, the helper's second pass give the rule's rows or
    its first error."""
    for offset in range(len(SAFE)):
        left = [SAFE[(i + offset) % len(SAFE)] for i in range(size)]
        right = [SAFE[(i * 7 + offset) % len(SAFE)] for i in range(size)]
        cases = [(left, right)]
        if poison is not None:
            vector = right if shape == "sv" else left
            vector[-1] = poison
            if shape != "vv":  # the poison as the parameter, too
                param = [poison] + (left if shape == "sv" else right)[1:]
                cases.append((param, right) if shape == "sv"
                             else (left, param))
        for case in cases:
            expr, lanes, params = _arith_case(op, shape, *case)
            _agree(_projected(expr, lanes, params),
                   _reference(expr, lanes, params))


def _filtered(expr, lanes, params):
    keep = C.compile_filter(expr, POSITIONS)[0]
    chunk = ColumnChunk([list(lane) for lane in lanes], len(lanes[0]))
    return _outcome(lambda: list(keep(chunk, params)))


def _kept(expr, lanes, params):
    """The rows where ``between`` (negated under NOT) is TRUE, or the
    first raising row's error."""
    def holds(row):
        result = between(row[0], *params)
        return (result is not None and not result) if expr.negated \
            else result is True
    return _outcome(lambda: [
        i for i, row in enumerate(zip(*lanes)) if holds(row)])


BOUNDS = {"num": (1, 2.5, NAN, HUGE), "bool": (False, True),
          "exact": ("b", "m"), "null": (None,)}
COLUMN = (0, 1, 2, 2.5, 3, NAN, INF, -INF, HUGE, 2 ** 53 + 1, False, True,
          "a", "b", "m", "z", None)


@pytest.mark.parametrize("negated", [False, True])
@pytest.mark.parametrize("low_family, high_family",
                         list(itertools.product(BOUNDS, repeat=2)))
def test_between_matches_the_rule(low_family, high_family, negated):
    """Every column value kind against every bound pair of two families,
    one row at a time, then as whole chunks of each value's own family."""
    expr = A.Between(A.ColumnRef(None, "a"), A.Param(0), A.Param(1), negated)
    for low, high in itertools.product(BOUNDS[low_family],
                                       BOUNDS[high_family]):
        for value in COLUMN:
            lanes = [[value], [None]]
            _agree(_filtered(expr, lanes, (low, high)),
                   _kept(expr, lanes, (low, high)))
        for size in SIZES:
            for family in ((0, 1, 2.5, 3, NAN, None), (False, True, None),
                           ("a", "b", "m", "z", None)):
                lanes = [[family[i % len(family)] for i in range(size)],
                         [None] * size]
                _agree(_filtered(expr, lanes, (low, high)),
                       _kept(expr, lanes, (low, high)))


def test_a_second_plan_with_the_same_key_reuses_the_loop():
    """A loop is built once per key per process: two plans over different
    columns and parameters that share ``arith_mul_vs`` share the function,
    and neither builds another."""
    lanes = [[1, 2, 3], [4.0, 5.0, 6.0]]
    first = A.BinaryOp("*", A.ColumnRef(None, "a"), A.Param(0))
    second = A.BinaryOp("*", A.ColumnRef(None, "b"), A.Literal(3))
    assert _projected(first, lanes, (2,)) == [2, 4, 6]
    loop = C._LOOPS[("arith", "*", "vs")]
    assert loop.__name__ == "arith_mul_vs"
    assert loop.__code__.co_filename == C.__file__
    built = dict(C._LOOPS)
    assert _projected(second, lanes, ()) == [12.0, 15.0, 18.0]
    assert C._LOOPS == built
    assert C._LOOPS[("arith", "*", "vs")] is loop
