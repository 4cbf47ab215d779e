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

_PY_FOR_TYPE = {
    INTEGER: int,
    FLOAT: float,
    TEXT: str,
    BOOLEAN: bool,
    DATE: str,
}

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


def coerce_value(value, type_name):
    """Coerce a Python value to the given SQL type, or raise ``SqlTypeError``.

    ``None`` passes through unchanged (NULL is valid for any type until
    constraints are checked).  Integers are accepted for FLOAT columns and
    widened; bools are accepted for INTEGER columns (0/1) to match common
    driver behaviour.
    """
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
            return float(value)
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


def is_comparable(a, b):
    """Whether two non-null Python values can be compared with <, >, =."""
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return True
    return type(a) is type(b)
