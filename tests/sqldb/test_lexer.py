import pytest

from repro.sqldb.errors import SqlParseError
from repro.sqldb.lexer import (
    EOF, IDENT, KEYWORD, NUMBER, OP, PARAM, STRING, tokenize,
)
from repro.sqldb.parser import parse


def kinds(sql):
    return [t.kind for t in tokenize(sql)]


def values(sql):
    return [t.value for t in tokenize(sql)[:-1]]


def test_keywords_are_case_insensitive():
    assert values("select SELECT SeLeCt") == ["SELECT"] * 3


def test_identifiers_preserve_case():
    tokens = tokenize("myTable")
    assert tokens[0].kind == IDENT
    assert tokens[0].value == "myTable"


def test_numbers_int_and_float():
    tokens = tokenize("42 3.14 .5")
    assert tokens[0].value == 42
    assert tokens[1].value == pytest.approx(3.14)
    assert tokens[2].value == pytest.approx(0.5)


def test_string_literal_with_escape():
    tokens = tokenize("'it''s'")
    assert tokens[0].kind == STRING
    assert tokens[0].value == "it's"


def test_unterminated_string_raises():
    with pytest.raises(SqlParseError):
        tokenize("'oops")


def test_two_char_operators():
    assert values("<= >= <> != ||") == ["<=", ">=", "<>", "<>", "||"]


def test_params_and_ops():
    assert kinds("? + ?") == [PARAM, OP, PARAM, EOF]


def test_line_comments_are_skipped():
    assert values("SELECT -- comment\n 1") == ["SELECT", 1]


def test_unexpected_character_raises_with_position():
    with pytest.raises(SqlParseError) as excinfo:
        tokenize("SELECT @")
    assert excinfo.value.position == 7


@pytest.mark.parametrize("sql, position", [
    ("SELECT id FROM t WHERE 12345 6", 29),
    ("SELECT id FROM t WHERE 'abc' 'd'", 29),
    ("SELECT id FROM t WHERE x 6", 25),
])
def test_a_parse_error_points_at_the_start_of_the_token(sql, position):
    """A literal's position is where it starts, as a word's is: a parse
    error once pointed just past the NUMBER or STRING token it named."""
    with pytest.raises(SqlParseError) as excinfo:
        parse(sql)
    assert excinfo.value.position == position
    assert [t.pos for t in tokenize("12 'a''b' x")] == [0, 3, 10, 11]


def test_ends_with_eof():
    assert tokenize("")[-1].kind == EOF


def test_keyword_vs_ident_mix():
    tokens = tokenize("SELECT name FROM users")
    assert [t.kind for t in tokens[:-1]] == [KEYWORD, IDENT, KEYWORD, IDENT]
