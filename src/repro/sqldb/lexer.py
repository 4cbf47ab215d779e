"""SQL tokenizer.

Produces a flat list of :class:`Token` objects for the recursive-descent
parser in :mod:`repro.sqldb.parser`.  Keywords are case-insensitive;
identifiers preserve case.  String literals use single quotes with ``''``
escaping, as in standard SQL.
"""

import re

from repro.sqldb.errors import SqlParseError

# Token kinds
KEYWORD = "KEYWORD"
IDENT = "IDENT"
NUMBER = "NUMBER"
STRING = "STRING"
OP = "OP"
PARAM = "PARAM"
EOF = "EOF"

KEYWORDS = frozenset(
    """
    SELECT FROM WHERE AND OR NOT IN LIKE IS NULL AS JOIN INNER LEFT OUTER ON
    GROUP BY HAVING ORDER ASC DESC LIMIT OFFSET DISTINCT INSERT INTO VALUES
    UPDATE SET DELETE CREATE TABLE INDEX UNIQUE DROP PRIMARY KEY NOT
    BEGIN COMMIT ROLLBACK TRUE FALSE BETWEEN EXISTS COUNT SUM AVG MIN MAX
    TRUNCATE USING ORDERED
    """.split()
)

_TWO_CHAR_OPS = ("<=", ">=", "<>", "!=", "||")
_ONE_CHAR_OPS = "+-*/%(),.=<>"


# One statement of a script: any run of string literals (an unterminated one
# runs to the end, for tokenize to report), ``--`` comments and other
# characters up to a ``;`` — the same quoting and comment rules as tokenize.
_STATEMENT = re.compile(r"(?:'[^']*(?:'|$)|--[^\n]*|[^;'])+")


def split_statements(script):
    """The non-empty statements of a ``;``-separated script.  A ``;`` inside
    a string literal or a ``--`` comment does not end a statement."""
    pieces = (piece.strip() for piece in _STATEMENT.findall(script))
    return [piece for piece in pieces if piece]


class Token:
    """A single lexical token.

    ``kind`` is one of the module-level constants; ``value`` is the keyword
    (upper-cased), identifier text, operator string, or literal value.
    """

    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos

    def __repr__(self):
        return f"Token({self.kind}, {self.value!r})"

    def matches(self, kind, value=None):
        if self.kind != kind:
            return False
        return value is None or self.value == value


def tokenize(sql):
    """Tokenize ``sql`` into a list of tokens ending with an EOF token."""
    tokens = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if sql.startswith("--", i):
            end = sql.find("\n", i)
            i = n if end == -1 else end + 1
            continue
        start = i  # a token's position is where it starts
        if ch == "'":
            value, i = _read_string(sql, i)
            tokens.append(Token(STRING, value, start))
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            value, i = _read_number(sql, i)
            tokens.append(Token(NUMBER, value, start))
            continue
        if ch.isalpha() or ch == "_":
            while i < n and (sql[i].isalnum() or sql[i] == "_"):
                i += 1
            word = sql[start:i]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token(KEYWORD, upper, start))
            else:
                tokens.append(Token(IDENT, word, start))
            continue
        if ch == "?":
            tokens.append(Token(PARAM, "?", i))
            i += 1
            continue
        two = sql[i:i + 2]
        if two in _TWO_CHAR_OPS:
            tokens.append(Token(OP, "<>" if two == "!=" else two, i))
            i += 2
            continue
        if ch in _ONE_CHAR_OPS:
            tokens.append(Token(OP, ch, i))
            i += 1
            continue
        raise SqlParseError(f"unexpected character {ch!r}", position=i, sql=sql)
    tokens.append(Token(EOF, None, n))
    return tokens


def _read_string(sql, i):
    """Read a single-quoted string starting at ``i``; handles '' escapes."""
    assert sql[i] == "'"
    i += 1
    parts = []
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch == "'":
            if i + 1 < n and sql[i + 1] == "'":
                parts.append("'")
                i += 2
                continue
            return "".join(parts), i + 1
        parts.append(ch)
        i += 1
    raise SqlParseError("unterminated string literal", position=i, sql=sql)


# Digits with at most one dot, then an optional exponent.
_NUMBER = re.compile(r"\d*\.?\d*([eE][+-]?\d+)?")


def _read_number(sql, i):
    """Read a numeric literal starting at ``i``: an integer, or a float when
    it has a dot or an exponent (``1e3``, ``1E+2``, ``3.6e-05``; one too
    large for a float reads as ``inf``), as SQLite reads them.  A letter
    straight after it is no token (``1x``, ``1e``), as in SQLite."""
    match = _NUMBER.match(sql, i)
    end = match.end()
    if end < len(sql) and (sql[end].isalpha() or sql[end] == "_"):
        raise SqlParseError("unrecognized token", position=i, sql=sql)
    text = match.group()
    if match.group(1) or "." in text:
        return float(text), end
    return int(text), end
