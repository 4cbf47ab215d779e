"""AST node definitions for the SQL subset understood by the engine.

Expression nodes
----------------
``Literal``, ``Param``, ``ColumnRef``, ``BinaryOp``, ``UnaryOp``, ``FuncCall``,
``InList``, ``Between``, ``IsNull``, ``Like``, ``Star``.

Statement nodes
---------------
``Select`` (with ``TableRef``/``Join``/``OrderItem`` helpers), ``Insert``,
``Update``, ``Delete``, ``CreateTable`` (with ``ColumnDef``), ``CreateIndex``,
``DropTable``, ``Begin``, ``Commit``, ``Rollback``.
"""


class Node:
    """Base class: structural equality and a compact repr for debugging."""

    _fields = ()
    #: the source text of a statement the parser built (not a field: it
    #: takes no part in equality), so the text and the AST name each other.
    sql = None

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        return all(
            getattr(self, f) == getattr(other, f) for f in self._fields
        )

    def __hash__(self):
        return hash((type(self).__name__,) + tuple(
            tuple(v) if isinstance(v, list) else v
            for v in (getattr(self, f) for f in self._fields)
        ))

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------

class Literal(Node):
    _fields = ("value",)

    def __init__(self, value):
        self.value = value


class Param(Node):
    """A ``?`` placeholder; ``index`` is its zero-based position."""

    _fields = ("index",)

    def __init__(self, index):
        self.index = index


class ColumnRef(Node):
    """A possibly-qualified column reference (``table`` may be None)."""

    _fields = ("table", "column")

    def __init__(self, table, column):
        self.table = table
        self.column = column


class Star(Node):
    """``*`` or ``alias.*`` in a select list or COUNT(*)."""

    _fields = ("table",)

    def __init__(self, table=None):
        self.table = table


class BinaryOp(Node):
    _fields = ("op", "left", "right")

    def __init__(self, op, left, right):
        self.op = op
        self.left = left
        self.right = right


class UnaryOp(Node):
    _fields = ("op", "operand")

    def __init__(self, op, operand):
        self.op = op
        self.operand = operand


class FuncCall(Node):
    """Function call; ``distinct`` is used by COUNT(DISTINCT x)."""

    _fields = ("name", "args", "distinct")

    def __init__(self, name, args, distinct=False):
        self.name = name.upper()
        self.args = args
        self.distinct = distinct


class InList(Node):
    _fields = ("expr", "items", "negated")

    def __init__(self, expr, items, negated=False):
        self.expr = expr
        self.items = items
        self.negated = negated


class Between(Node):
    _fields = ("expr", "low", "high", "negated")

    def __init__(self, expr, low, high, negated=False):
        self.expr = expr
        self.low = low
        self.high = high
        self.negated = negated


class IsNull(Node):
    _fields = ("expr", "negated")

    def __init__(self, expr, negated=False):
        self.expr = expr
        self.negated = negated


class Like(Node):
    _fields = ("expr", "pattern", "negated")

    def __init__(self, expr, pattern, negated=False):
        self.expr = expr
        self.pattern = pattern
        self.negated = negated


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------

class TableRef(Node):
    """A table in FROM, with an optional alias."""

    _fields = ("name", "alias")

    def __init__(self, name, alias=None):
        self.name = name
        self.alias = alias or name


class Join(Node):
    """An INNER or LEFT join against ``table`` with an ON condition."""

    _fields = ("kind", "table", "condition")

    def __init__(self, kind, table, condition):
        self.kind = kind  # "INNER" | "LEFT"
        self.table = table
        self.condition = condition


class SelectItem(Node):
    _fields = ("expr", "alias")

    def __init__(self, expr, alias=None):
        self.expr = expr
        self.alias = alias


class OrderItem(Node):
    _fields = ("expr", "descending")

    def __init__(self, expr, descending=False):
        self.expr = expr
        self.descending = descending


class Select(Node):
    _fields = (
        "items", "table", "joins", "where", "group_by", "having",
        "order_by", "limit", "offset", "distinct",
    )

    def __init__(self, items, table, joins=None, where=None, group_by=None,
                 having=None, order_by=None, limit=None, offset=None,
                 distinct=False):
        self.items = items
        self.table = table
        self.joins = joins or []
        self.where = where
        self.group_by = group_by or []
        self.having = having
        self.order_by = order_by or []
        self.limit = limit
        self.offset = offset
        self.distinct = distinct


class Insert(Node):
    _fields = ("table", "columns", "rows")

    def __init__(self, table, columns, rows):
        self.table = table
        self.columns = columns
        self.rows = rows  # list of lists of expressions


class Update(Node):
    _fields = ("table", "assignments", "where")

    def __init__(self, table, assignments, where=None):
        self.table = table
        self.assignments = assignments  # list of (column, expr)
        self.where = where


class Delete(Node):
    _fields = ("table", "where")

    def __init__(self, table, where=None):
        self.table = table
        self.where = where


class ColumnDef(Node):
    _fields = ("name", "type_name", "primary_key", "not_null")

    def __init__(self, name, type_name, primary_key=False, not_null=False):
        self.name = name
        self.type_name = type_name
        self.primary_key = primary_key
        self.not_null = not_null


class CreateTable(Node):
    _fields = ("name", "columns")

    def __init__(self, name, columns):
        self.name = name
        self.columns = columns


class CreateIndex(Node):
    """``CREATE [UNIQUE] INDEX ... [USING ORDERED]``; ``method`` is
    ``"hash"`` (the default, equality-only) or ``"ordered"`` (sorted keys,
    serving range scans and ORDER BY)."""

    _fields = ("name", "table", "columns", "unique", "method")

    def __init__(self, name, table, columns, unique=False, method="hash"):
        self.name = name
        self.table = table
        self.columns = columns
        self.unique = unique
        self.method = method


class DropTable(Node):
    _fields = ("name",)

    def __init__(self, name):
        self.name = name


class DropIndex(Node):
    _fields = ("name",)

    def __init__(self, name):
        self.name = name


class Truncate(Node):
    """``TRUNCATE [TABLE] name`` — delete every row, resetting table stats."""

    _fields = ("table",)

    def __init__(self, table):
        self.table = table


class Begin(Node):
    _fields = ()


class Commit(Node):
    _fields = ()


class Rollback(Node):
    _fields = ()


READ_STATEMENTS = (Select,)
WRITE_STATEMENTS = (Insert, Update, Delete, CreateTable, CreateIndex,
                    DropTable, DropIndex, Truncate, Begin, Commit, Rollback)
