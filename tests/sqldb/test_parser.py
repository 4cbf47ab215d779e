import pytest

from repro.sqldb import ast_nodes as A
from repro.sqldb import parser
from repro.sqldb.errors import SqlParseError
from repro.sqldb.parser import parse, parse_cache_stats


def test_simple_select():
    stmt = parse("SELECT a, b FROM t")
    assert isinstance(stmt, A.Select)
    assert stmt.table.name == "t"
    assert len(stmt.items) == 2


def test_select_star():
    stmt = parse("SELECT * FROM t")
    assert isinstance(stmt.items[0].expr, A.Star)


def test_qualified_star():
    stmt = parse("SELECT u.* FROM users u")
    assert stmt.items[0].expr.table == "u"


def test_aliases():
    stmt = parse("SELECT a AS x, b y FROM t AS tt")
    assert stmt.items[0].alias == "x"
    assert stmt.items[1].alias == "y"
    assert stmt.table.alias == "tt"


def test_where_precedence_or_and():
    stmt = parse("SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3")
    assert isinstance(stmt.where, A.BinaryOp)
    assert stmt.where.op == "OR"
    assert stmt.where.right.op == "AND"


def test_joins():
    stmt = parse("SELECT a FROM t JOIN s ON t.id = s.tid "
                 "LEFT JOIN r ON s.id = r.sid")
    assert [j.kind for j in stmt.joins] == ["INNER", "LEFT"]


def test_group_by_having_order_limit():
    stmt = parse("SELECT city, COUNT(*) AS n FROM t GROUP BY city "
                 "HAVING COUNT(*) > 1 ORDER BY n DESC LIMIT 5 OFFSET 2")
    assert len(stmt.group_by) == 1
    assert stmt.having is not None
    assert stmt.order_by[0].descending
    assert stmt.limit == A.Literal(5)
    assert stmt.offset == A.Literal(2)


def test_in_like_between_is_null():
    stmt = parse("SELECT a FROM t WHERE a IN (1, 2) AND b LIKE 'x%' "
                 "AND c BETWEEN 1 AND 5 AND d IS NOT NULL")
    text = repr(stmt.where)
    assert "InList" in text and "Like" in text
    assert "Between" in text and "IsNull" in text


def test_not_in():
    stmt = parse("SELECT a FROM t WHERE a NOT IN (1)")
    assert stmt.where.negated


def test_params_are_indexed_in_order():
    stmt = parse("SELECT a FROM t WHERE x = ? AND y = ?")
    params = []

    def walk(node):
        if isinstance(node, A.Param):
            params.append(node.index)
        elif isinstance(node, A.BinaryOp):
            walk(node.left)
            walk(node.right)

    walk(stmt.where)
    assert params == [0, 1]


def test_insert_multi_row():
    stmt = parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
    assert isinstance(stmt, A.Insert)
    assert stmt.columns == ["a", "b"]
    assert len(stmt.rows) == 2


def test_update():
    stmt = parse("UPDATE t SET a = a + 1, b = ? WHERE id = 3")
    assert isinstance(stmt, A.Update)
    assert len(stmt.assignments) == 2


def test_delete():
    stmt = parse("DELETE FROM t WHERE id = 1")
    assert isinstance(stmt, A.Delete)


def test_create_table_with_constraints():
    stmt = parse("CREATE TABLE t (id INT PRIMARY KEY, "
                 "name VARCHAR(100) NOT NULL, age INT)")
    assert stmt.columns[0].primary_key
    assert stmt.columns[1].not_null
    assert not stmt.columns[2].not_null


def test_create_index_unique():
    stmt = parse("CREATE UNIQUE INDEX i ON t (a, b)")
    assert stmt.unique
    assert stmt.columns == ["a", "b"]


def test_transaction_statements():
    assert isinstance(parse("BEGIN"), A.Begin)
    assert isinstance(parse("COMMIT"), A.Commit)
    assert isinstance(parse("ROLLBACK"), A.Rollback)


def test_drop_index():
    stmt = parse("DROP INDEX idx_t_a")
    assert isinstance(stmt, A.DropIndex)
    assert stmt.name == "idx_t_a"


def test_truncate_with_and_without_table_keyword():
    assert parse("TRUNCATE TABLE t") == A.Truncate("t")
    assert parse("TRUNCATE t") == A.Truncate("t")


def test_parse_cache_returns_same_object():
    assert parse("SELECT a FROM cache_test") is parse(
        "SELECT a FROM cache_test")


def test_parse_cache_stays_bounded_and_counts_hits_and_misses(monkeypatch):
    """A hit is one probe and keeps no order; the miss that would take the
    cache past ``_PARSE_CACHE_LIMIT`` entries empties it first, as the
    plan cache does.  Every probe is counted as a hit or a miss."""
    monkeypatch.setattr(parser, "_PARSE_CACHE", {})
    limit = parser._PARSE_CACHE_LIMIT
    before = parse_cache_stats()
    sizes = []
    for index in range(limit + 2):
        sql = f"SELECT a FROM bound_test_{index}"
        assert parse(sql) is parse(sql)
        sizes.append(parse_cache_stats()["size"])
    after = parse_cache_stats()
    assert after["misses"] - before["misses"] == limit + 2
    assert after["hits"] - before["hits"] == limit + 2
    assert max(sizes) == limit
    assert sizes[limit - 1:] == [limit, 1, 2]
    # Emptied, not evicted: the first statement is parsed anew.
    first = parse("SELECT a FROM bound_test_0")
    assert parse_cache_stats()["misses"] - after["misses"] == 1
    assert first is parse("SELECT a FROM bound_test_0")


def test_trailing_garbage_raises():
    with pytest.raises(SqlParseError):
        parse("SELECT a FROM t extra ,")


def test_unknown_function_raises():
    with pytest.raises(SqlParseError):
        parse("SELECT nosuchfn(a) FROM t")


def test_arithmetic_precedence():
    stmt = parse("SELECT a + b * c FROM t")
    expr = stmt.items[0].expr
    assert expr.op == "+"
    assert expr.right.op == "*"
