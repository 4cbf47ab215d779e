import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sqldb import ast_nodes as A
from repro.sqldb.catalog import Column
from repro.sqldb.columnar import ColumnChunk
from repro.sqldb.errors import SqlTypeError
from repro.sqldb.expressions import like_to_regex
from repro.sqldb.plan.compile import compile_values
from repro.sqldb.types import (
    ALL_TYPES, BOOLEAN, COERCERS, DATE, FLOAT, INTEGER, TEXT, canonical_type,
    is_comparable,
)


class TestTypes:
    def test_aliases(self):
        assert canonical_type("varchar") == TEXT
        assert canonical_type("BIGINT") == INTEGER
        assert canonical_type("double") == FLOAT
        assert canonical_type("bool") == BOOLEAN

    def test_unknown_type_raises(self):
        with pytest.raises(SqlTypeError):
            canonical_type("blob")

    def test_coerce_none_passthrough(self):
        assert COERCERS[INTEGER](None) is None

    def test_int_widens_to_float(self):
        assert COERCERS[FLOAT](3) == 3.0
        assert isinstance(COERCERS[FLOAT](3), float)

    def test_integral_float_narrows_to_int(self):
        assert COERCERS[INTEGER](4.0) == 4

    def test_fractional_float_rejected_for_int(self):
        with pytest.raises(SqlTypeError):
            COERCERS[INTEGER](4.5)

    def test_bool_for_integer_column(self):
        assert COERCERS[INTEGER](True) == 1

    def test_int_01_for_boolean_column(self):
        assert COERCERS[BOOLEAN](1) is True
        assert COERCERS[BOOLEAN](0) is False
        with pytest.raises(SqlTypeError):
            COERCERS[BOOLEAN](2)

    def test_text_rejects_numbers(self):
        with pytest.raises(SqlTypeError):
            COERCERS[TEXT](5)

    def test_comparability(self):
        assert is_comparable(1, 2.5)
        assert is_comparable("a", "b")
        assert not is_comparable(1, "a")
        assert not is_comparable(True, 1)  # bools only compare to bools


def _dispatching_coerce(value, type_name):
    """Coercion as one function dispatching on the type's name per value —
    ``types.coerce_value``, before each column resolved its coercer — kept as
    the reference the coercers must equal."""
    if value is None:
        return None
    if type_name == INTEGER:
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise SqlTypeError(f"cannot store {value!r} in INTEGER column")
    if type_name == FLOAT:
        if isinstance(value, bool):
            raise SqlTypeError(f"cannot store {value!r} in FLOAT column")
        if isinstance(value, (int, float)):
            value = float(value)
            return None if value != value else value  # NaN is NULL
        raise SqlTypeError(f"cannot store {value!r} in FLOAT column")
    if type_name == TEXT or type_name == DATE:
        if isinstance(value, str):
            return value
        raise SqlTypeError(f"cannot store {value!r} in {type_name} column")
    if type_name == BOOLEAN:
        if isinstance(value, bool):
            return value
        if isinstance(value, int) and value in (0, 1):
            return bool(value)
        raise SqlTypeError(f"cannot store {value!r} in BOOLEAN column")
    raise SqlTypeError(f"unknown type {type_name!r}")


def _outcome(fn, *args):
    """``(type, value)`` of a result — NaN by its repr, so that it equals
    itself — or ``(error type, message)``."""
    try:
        value = fn(*args)
    except SqlTypeError as error:
        return type(error), str(error)
    return type(value), (repr(value) if value != value else value)


cells = st.one_of(st.integers(), st.integers(-3, 3).map(float),
                  st.floats(allow_nan=True, allow_infinity=True),
                  st.booleans(), st.text(max_size=3), st.none())


class TestCoercers:
    @given(value=cells, type_name=st.sampled_from(ALL_TYPES))
    @example(value=float("nan"), type_name=FLOAT)
    @settings(max_examples=500, deadline=None)
    def test_each_coercer_is_the_dispatching_coerce(self, value, type_name):
        expected = _outcome(_dispatching_coerce, value, type_name)
        assert _outcome(COERCERS[type_name], value) == expected
        assert Column("c", type_name).coerce is COERCERS[type_name]

    def test_every_type_has_one(self):
        assert set(COERCERS) == set(ALL_TYPES)


def ev(expr, **env):
    """``expr``'s lane over a one-row chunk holding ``env``."""
    names = sorted(env)
    values = compile_values(expr, {(None, k): i for i, k in enumerate(names)},
                            frozenset())
    return values(ColumnChunk([[env[k]] for k in names], 1), [0], ())[0]


class TestThreeValuedLogic:
    def test_null_propagates_through_arithmetic(self):
        expr = A.BinaryOp("+", A.ColumnRef(None, "x"), A.Literal(1))
        assert ev(expr, x=None) is None

    def test_and_short_circuit_with_null(self):
        # FALSE AND NULL = FALSE; TRUE AND NULL = NULL
        null = A.ColumnRef(None, "x")
        assert ev(A.BinaryOp("AND", A.Literal(False), null), x=None) is False
        assert ev(A.BinaryOp("AND", A.Literal(True), null), x=None) is None

    def test_or_with_null(self):
        null = A.ColumnRef(None, "x")
        assert ev(A.BinaryOp("OR", A.Literal(True), null), x=None) is True
        assert ev(A.BinaryOp("OR", A.Literal(False), null), x=None) is None

    def test_not_null_is_null(self):
        assert ev(A.UnaryOp("NOT", A.ColumnRef(None, "x")), x=None) is None

    def test_in_with_null_member(self):
        expr = A.InList(A.Literal(1),
                        [A.Literal(2), A.Literal(None)])
        assert ev(expr) is None  # unknown: 1 might equal NULL
        hit = A.InList(A.Literal(2), [A.Literal(2), A.Literal(None)])
        assert ev(hit) is True

    def test_division_by_zero_yields_null(self):
        expr = A.BinaryOp("/", A.Literal(1), A.Literal(0))
        assert ev(expr) is None

    def test_integer_division_stays_exact(self):
        assert ev(A.BinaryOp("/", A.Literal(7), A.Literal(2))) == 3.5
        assert ev(A.BinaryOp("/", A.Literal(8), A.Literal(2))) == 4

    def test_concat(self):
        assert ev(A.BinaryOp("||", A.Literal("a"), A.Literal("b"))) == "ab"

    def test_coalesce(self):
        expr = A.FuncCall("COALESCE",
                          [A.Literal(None), A.Literal(None), A.Literal(3)])
        assert ev(expr) == 3


class TestLike:
    @pytest.mark.parametrize("pattern,value,matches", [
        ("a%", "abc", True),
        ("a%", "ba", False),
        ("%c", "abc", True),
        ("a_c", "abc", True),
        ("a_c", "abbc", False),
        ("%", "", True),
        ("a.c", "abc", False),  # dot is literal, not regex
    ])
    def test_patterns(self, pattern, value, matches):
        assert bool(like_to_regex(pattern).match(value)) is matches
