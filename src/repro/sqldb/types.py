"""SQL value types and coercion rules.

The engine supports a small but realistic type lattice: ``INTEGER``,
``FLOAT``, ``TEXT``, ``BOOLEAN`` and ``DATE`` (stored as ISO strings).
``NULL`` is represented by Python ``None`` and propagates through
expressions with three-valued logic handled in
:mod:`repro.sqldb.expressions`.
"""

from repro.sqldb.errors import SqlTypeError

INTEGER = "INTEGER"
FLOAT = "FLOAT"
TEXT = "TEXT"
BOOLEAN = "BOOLEAN"
DATE = "DATE"

ALL_TYPES = (INTEGER, FLOAT, TEXT, BOOLEAN, DATE)

# What a number no float can hold raises, wherever it meets one.
_OUT_OF_RANGE = "numeric value out of range"

# Aliases accepted in DDL, mapped to canonical names.
TYPE_ALIASES = {
    "INT": INTEGER,
    "INTEGER": INTEGER,
    "BIGINT": INTEGER,
    "SMALLINT": INTEGER,
    "FLOAT": FLOAT,
    "REAL": FLOAT,
    "DOUBLE": FLOAT,
    "DECIMAL": FLOAT,
    "NUMERIC": FLOAT,
    "TEXT": TEXT,
    "VARCHAR": TEXT,
    "CHAR": TEXT,
    "STRING": TEXT,
    "BOOLEAN": BOOLEAN,
    "BOOL": BOOLEAN,
    "DATE": DATE,
    "DATETIME": DATE,
    "TIMESTAMP": DATE,
}


def canonical_type(name):
    """Return the canonical type for a DDL type name.

    >>> canonical_type("varchar")
    'TEXT'
    """
    key = name.upper()
    if key not in TYPE_ALIASES:
        raise SqlTypeError(f"unknown column type: {name!r}")
    return TYPE_ALIASES[key]


def _to_integer(value):
    if value is None or type(value) is int:
        return value
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise SqlTypeError(f"cannot store {value!r} in INTEGER column")


def _to_float(value):
    if value is None or type(value) is float:
        return value
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:
            raise SqlTypeError(_OUT_OF_RANGE) from None
    raise SqlTypeError(f"cannot store {value!r} in FLOAT column")


def _to_text(type_name):
    def to_text(value):
        if value is None or isinstance(value, str):
            return value
        raise SqlTypeError(f"cannot store {value!r} in {type_name} column")
    return to_text


def _to_boolean(value):
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, int) and value in (0, 1):
        return bool(value)
    raise SqlTypeError(f"cannot store {value!r} in BOOLEAN column")


#: Canonical type -> the function coercing a Python value to it or raising
#: ``SqlTypeError``; a :class:`~repro.sqldb.catalog.Column` resolves its
#: own once.  ``None`` passes through (NULL is valid for any type until
#: constraints are checked); ints widen to FLOAT, integral floats narrow to
#: INTEGER, bools are 0 / 1 for INTEGER and 0 / 1 is a BOOLEAN.
COERCERS = {
    INTEGER: _to_integer,
    FLOAT: _to_float,
    TEXT: _to_text(TEXT),
    BOOLEAN: _to_boolean,
    DATE: _to_text(DATE),
}


#: One value of what each type stores: an index over a column of the type
#: is probed only with a key :func:`is_comparable` with it.
STORED_SAMPLES = {INTEGER: 0, FLOAT: 0.0, TEXT: "", BOOLEAN: False, DATE: ""}


def is_comparable(a, b):
    """Whether two non-null Python values can be compared with <, >, =."""
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return True
    return type(a) is type(b)
