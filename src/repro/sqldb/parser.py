"""Recursive-descent SQL parser.

Entry point is :func:`parse`, which returns a single statement AST from
:mod:`repro.sqldb.ast_nodes`.  The grammar covers the subset exercised by the
ORM, the benchmark applications and the TPC workloads:

.. code-block:: text

    statement  := select | insert | update | delete | create_table
                | create_index | drop_table | BEGIN | COMMIT | ROLLBACK
    select     := SELECT [DISTINCT] items FROM table_ref join* [WHERE expr]
                  [GROUP BY exprs] [HAVING expr] [ORDER BY order_items]
                  [LIMIT n [OFFSET m]]
    join       := [INNER | LEFT [OUTER]] JOIN table_ref ON expr
    create_index := CREATE [UNIQUE] INDEX name ON table (columns)
                    [USING ORDERED]
    expr       := or_expr with the usual precedence
                  (OR < AND < NOT < comparison < additive < multiplicative)

Parsed statements are cached in a process-wide dict keyed by the SQL string
(parameterized queries are parsed once and re-executed many times by the
benchmarks).  A hit is one dict probe; a miss that would take the cache
past ``_PARSE_CACHE_LIMIT`` entries empties it first, as the executor's
plan cache does, so it stays bounded without keeping an LRU order on every
hit.  The cache is shared by every consumer of :func:`parse` — the query
store's write/read classification on one side of the wire, the simulated
database server's execution on the other (it ships ``(sql, params)``, not
ASTs) — so each distinct SQL string is parsed once per process and a
shipped statement costs two probes.
"""

from repro.sqldb import ast_nodes as A
from repro.sqldb.errors import SqlParseError
from repro.sqldb.lexer import (
    EOF, IDENT, KEYWORD, NUMBER, OP, PARAM, STRING, tokenize,
)

_AGGREGATES = frozenset(["COUNT", "SUM", "AVG", "MIN", "MAX"])
_SCALAR_FUNCS = frozenset(["UPPER", "LOWER", "LENGTH", "ABS", "COALESCE"])

_PARSE_CACHE = {}
_PARSE_CACHE_LIMIT = 4096
_parse_cache_hits = 0
_parse_cache_misses = 0


def parse(sql):
    """Parse ``sql`` into a statement AST (cached per process)."""
    global _parse_cache_hits, _parse_cache_misses
    cached = _PARSE_CACHE.get(sql)
    if cached is not None:
        _parse_cache_hits += 1
        return cached
    _parse_cache_misses += 1
    stmt = _Parser(sql).parse_statement()
    stmt.sql = sql
    if len(_PARSE_CACHE) >= _PARSE_CACHE_LIMIT:
        _PARSE_CACHE.clear()
    _PARSE_CACHE[sql] = stmt
    return stmt


def parse_cache_stats():
    """Hit/miss/size counters for the process-wide parse cache."""
    return {
        "hits": _parse_cache_hits,
        "misses": _parse_cache_misses,
        "size": len(_PARSE_CACHE),
    }


class _Parser:
    def __init__(self, sql):
        self.sql = sql
        self.tokens = tokenize(sql)
        self.pos = 0
        self.param_count = 0

    # -- token helpers ------------------------------------------------------

    def _peek(self, offset=0):
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def _next(self):
        token = self.tokens[self.pos]
        if token.kind != EOF:
            self.pos += 1
        return token

    def _check(self, kind, value=None):
        return self._peek().matches(kind, value)

    def _accept(self, kind, value=None):
        if self._check(kind, value):
            return self._next()
        return None

    def _expect(self, kind, value=None):
        token = self._accept(kind, value)
        if token is None:
            actual = self._peek()
            raise SqlParseError(
                f"expected {value or kind}, found {actual.value!r}",
                position=actual.pos, sql=self.sql)
        return token

    def _expect_ident(self):
        token = self._peek()
        # Permit non-reserved keywords as identifiers where unambiguous.
        if token.kind == IDENT:
            return self._next().value
        raise SqlParseError(
            f"expected identifier, found {token.value!r}",
            position=token.pos, sql=self.sql)

    # -- statements ---------------------------------------------------------

    def parse_statement(self):
        token = self._peek()
        if token.kind != KEYWORD:
            raise SqlParseError(
                f"expected statement keyword, found {token.value!r}",
                position=token.pos, sql=self.sql)
        handlers = {
            "SELECT": self._parse_select,
            "INSERT": self._parse_insert,
            "UPDATE": self._parse_update,
            "DELETE": self._parse_delete,
            "CREATE": self._parse_create,
            "DROP": self._parse_drop,
            "TRUNCATE": self._parse_truncate,
            "BEGIN": lambda: (self._next(), A.Begin())[1],
            "COMMIT": lambda: (self._next(), A.Commit())[1],
            "ROLLBACK": lambda: (self._next(), A.Rollback())[1],
        }
        handler = handlers.get(token.value)
        if handler is None:
            raise SqlParseError(
                f"unsupported statement {token.value!r}",
                position=token.pos, sql=self.sql)
        stmt = handler()
        self._expect(EOF)
        return stmt

    def _parse_select(self):
        self._expect(KEYWORD, "SELECT")
        distinct = self._accept(KEYWORD, "DISTINCT") is not None
        items = [self._parse_select_item()]
        while self._accept(OP, ","):
            items.append(self._parse_select_item())
        self._expect(KEYWORD, "FROM")
        table = self._parse_table_ref()
        joins = []
        while True:
            join = self._parse_join()
            if join is None:
                break
            joins.append(join)
        where = None
        if self._accept(KEYWORD, "WHERE"):
            where = self._parse_expr()
        group_by = []
        if self._accept(KEYWORD, "GROUP"):
            self._expect(KEYWORD, "BY")
            group_by.append(self._parse_expr())
            while self._accept(OP, ","):
                group_by.append(self._parse_expr())
        having = None
        if self._accept(KEYWORD, "HAVING"):
            having = self._parse_expr()
        order_by = []
        if self._accept(KEYWORD, "ORDER"):
            self._expect(KEYWORD, "BY")
            order_by.append(self._parse_order_item())
            while self._accept(OP, ","):
                order_by.append(self._parse_order_item())
        limit = offset = None
        if self._accept(KEYWORD, "LIMIT"):
            limit = self._parse_expr()
            if self._accept(KEYWORD, "OFFSET"):
                offset = self._parse_expr()
        return A.Select(items, table, joins, where, group_by, having,
                        order_by, limit, offset, distinct)

    def _parse_select_item(self):
        if self._check(OP, "*"):
            self._next()
            return A.SelectItem(A.Star())
        # alias.* form
        if (self._check(IDENT) and self._peek(1).matches(OP, ".")
                and self._peek(2).matches(OP, "*")):
            table = self._next().value
            self._next()
            self._next()
            return A.SelectItem(A.Star(table))
        expr = self._parse_expr()
        alias = None
        if self._accept(KEYWORD, "AS"):
            alias = self._expect_ident()
        elif self._check(IDENT):
            alias = self._next().value
        return A.SelectItem(expr, alias)

    def _parse_order_item(self):
        expr = self._parse_expr()
        descending = False
        if self._accept(KEYWORD, "DESC"):
            descending = True
        else:
            self._accept(KEYWORD, "ASC")
        return A.OrderItem(expr, descending)

    def _parse_table_ref(self):
        name = self._expect_ident()
        alias = None
        if self._accept(KEYWORD, "AS"):
            alias = self._expect_ident()
        elif self._check(IDENT):
            alias = self._next().value
        return A.TableRef(name, alias)

    def _parse_join(self):
        kind = None
        if self._check(KEYWORD, "JOIN"):
            kind = "INNER"
            self._next()
        elif self._check(KEYWORD, "INNER") and self._peek(1).matches(KEYWORD, "JOIN"):
            kind = "INNER"
            self._next()
            self._next()
        elif self._check(KEYWORD, "LEFT"):
            kind = "LEFT"
            self._next()
            self._accept(KEYWORD, "OUTER")
            self._expect(KEYWORD, "JOIN")
        if kind is None:
            return None
        table = self._parse_table_ref()
        self._expect(KEYWORD, "ON")
        condition = self._parse_expr()
        return A.Join(kind, table, condition)

    def _parse_insert(self):
        self._expect(KEYWORD, "INSERT")
        self._expect(KEYWORD, "INTO")
        table = self._expect_ident()
        columns = None
        if self._accept(OP, "("):
            columns = [self._expect_ident()]
            while self._accept(OP, ","):
                columns.append(self._expect_ident())
            self._expect(OP, ")")
        self._expect(KEYWORD, "VALUES")
        rows = [self._parse_value_row()]
        while self._accept(OP, ","):
            rows.append(self._parse_value_row())
        return A.Insert(table, columns, rows)

    def _parse_value_row(self):
        self._expect(OP, "(")
        values = [self._parse_expr()]
        while self._accept(OP, ","):
            values.append(self._parse_expr())
        self._expect(OP, ")")
        return values

    def _parse_update(self):
        self._expect(KEYWORD, "UPDATE")
        table = self._expect_ident()
        self._expect(KEYWORD, "SET")
        assignments = [self._parse_assignment()]
        while self._accept(OP, ","):
            assignments.append(self._parse_assignment())
        where = None
        if self._accept(KEYWORD, "WHERE"):
            where = self._parse_expr()
        return A.Update(table, assignments, where)

    def _parse_assignment(self):
        column = self._expect_ident()
        self._expect(OP, "=")
        return (column, self._parse_expr())

    def _parse_delete(self):
        self._expect(KEYWORD, "DELETE")
        self._expect(KEYWORD, "FROM")
        table = self._expect_ident()
        where = None
        if self._accept(KEYWORD, "WHERE"):
            where = self._parse_expr()
        return A.Delete(table, where)

    def _parse_create(self):
        self._expect(KEYWORD, "CREATE")
        if self._accept(KEYWORD, "TABLE"):
            return self._parse_create_table()
        unique = self._accept(KEYWORD, "UNIQUE") is not None
        self._expect(KEYWORD, "INDEX")
        name = self._expect_ident()
        self._expect(KEYWORD, "ON")
        table = self._expect_ident()
        self._expect(OP, "(")
        columns = [self._expect_ident()]
        while self._accept(OP, ","):
            columns.append(self._expect_ident())
        self._expect(OP, ")")
        method = "hash"
        if self._accept(KEYWORD, "USING"):
            self._expect(KEYWORD, "ORDERED")
            method = "ordered"
        return A.CreateIndex(name, table, columns, unique, method)

    def _parse_create_table(self):
        name = self._expect_ident()
        self._expect(OP, "(")
        columns = [self._parse_column_def()]
        while self._accept(OP, ","):
            columns.append(self._parse_column_def())
        self._expect(OP, ")")
        return A.CreateTable(name, columns)

    def _parse_column_def(self):
        name = self._expect_ident()
        type_token = self._peek()
        if type_token.kind not in (IDENT, KEYWORD):
            raise SqlParseError("expected column type",
                                position=type_token.pos, sql=self.sql)
        self._next()
        type_name = str(type_token.value)
        # Swallow VARCHAR(255)-style length arguments.
        if self._accept(OP, "("):
            self._expect(NUMBER)
            self._expect(OP, ")")
        primary_key = False
        not_null = False
        while True:
            if self._accept(KEYWORD, "PRIMARY"):
                self._expect(KEYWORD, "KEY")
                primary_key = True
                continue
            if self._check(KEYWORD, "NOT") and self._peek(1).matches(KEYWORD, "NULL"):
                self._next()
                self._next()
                not_null = True
                continue
            break
        return A.ColumnDef(name, type_name, primary_key, not_null)

    def _parse_drop(self):
        self._expect(KEYWORD, "DROP")
        if self._accept(KEYWORD, "INDEX"):
            return A.DropIndex(self._expect_ident())
        self._expect(KEYWORD, "TABLE")
        return A.DropTable(self._expect_ident())

    def _parse_truncate(self):
        self._expect(KEYWORD, "TRUNCATE")
        self._accept(KEYWORD, "TABLE")  # optional, as in most dialects
        return A.Truncate(self._expect_ident())

    # -- expressions --------------------------------------------------------

    def _parse_expr(self):
        return self._parse_or()

    def _parse_or(self):
        left = self._parse_and()
        while self._accept(KEYWORD, "OR"):
            left = A.BinaryOp("OR", left, self._parse_and())
        return left

    def _parse_and(self):
        left = self._parse_not()
        while self._accept(KEYWORD, "AND"):
            left = A.BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self):
        if self._accept(KEYWORD, "NOT"):
            return A.UnaryOp("NOT", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self):
        left = self._parse_additive()
        token = self._peek()
        if token.kind == OP and token.value in ("=", "<", ">", "<=", ">=", "<>"):
            self._next()
            return A.BinaryOp(token.value, left, self._parse_additive())
        negated = False
        if self._check(KEYWORD, "NOT") and self._peek(1).value in ("IN", "LIKE", "BETWEEN"):
            self._next()
            negated = True
        if self._accept(KEYWORD, "IS"):
            is_negated = self._accept(KEYWORD, "NOT") is not None
            self._expect(KEYWORD, "NULL")
            return A.IsNull(left, is_negated)
        if self._accept(KEYWORD, "IN"):
            self._expect(OP, "(")
            items = [self._parse_expr()]
            while self._accept(OP, ","):
                items.append(self._parse_expr())
            self._expect(OP, ")")
            return A.InList(left, items, negated)
        if self._accept(KEYWORD, "LIKE"):
            return A.Like(left, self._parse_additive(), negated)
        if self._accept(KEYWORD, "BETWEEN"):
            low = self._parse_additive()
            self._expect(KEYWORD, "AND")
            high = self._parse_additive()
            return A.Between(left, low, high, negated)
        return left

    def _parse_additive(self):
        left = self._parse_multiplicative()
        while True:
            token = self._peek()
            if token.kind == OP and token.value in ("+", "-", "||"):
                self._next()
                left = A.BinaryOp(token.value, left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self):
        left = self._parse_unary()
        while True:
            token = self._peek()
            if token.kind == OP and token.value in ("*", "/", "%"):
                self._next()
                left = A.BinaryOp(token.value, left, self._parse_unary())
            else:
                return left

    def _parse_unary(self):
        if self._accept(OP, "-"):
            return A.UnaryOp("-", self._parse_unary())
        self._accept(OP, "+")
        return self._parse_primary()

    def _parse_primary(self):
        token = self._peek()
        if token.kind == NUMBER or token.kind == STRING:
            self._next()
            return A.Literal(token.value)
        if token.kind == PARAM:
            self._next()
            param = A.Param(self.param_count)
            self.param_count += 1
            return param
        if token.kind == KEYWORD and token.value in ("TRUE", "FALSE"):
            self._next()
            return A.Literal(token.value == "TRUE")
        if token.kind == KEYWORD and token.value == "NULL":
            self._next()
            return A.Literal(None)
        if token.kind == KEYWORD and token.value in _AGGREGATES:
            self._next()
            return self._parse_func_call(token.value)
        if token.kind == OP and token.value == "(":
            self._next()
            expr = self._parse_expr()
            self._expect(OP, ")")
            return expr
        if token.kind == IDENT:
            # function call?
            if self._peek(1).matches(OP, "("):
                name = self._next().value
                if name.upper() not in _SCALAR_FUNCS:
                    raise SqlParseError(
                        f"unknown function {name!r}",
                        position=token.pos, sql=self.sql)
                return self._parse_func_call(name)
            name = self._next().value
            if self._accept(OP, "."):
                column = self._expect_ident()
                return A.ColumnRef(name, column)
            return A.ColumnRef(None, name)
        raise SqlParseError(
            f"unexpected token {token.value!r} in expression",
            position=token.pos, sql=self.sql)

    def _parse_func_call(self, name):
        self._expect(OP, "(")
        distinct = self._accept(KEYWORD, "DISTINCT") is not None
        args = []
        if self._check(OP, "*"):
            self._next()
            args.append(A.Star())
        elif not self._check(OP, ")"):
            args.append(self._parse_expr())
            while self._accept(OP, ","):
                args.append(self._parse_expr())
        self._expect(OP, ")")
        return A.FuncCall(name, args, distinct)
