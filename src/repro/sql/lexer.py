"""The one SQL lexer: which characters of a SQL string are statement text.

Every reader of SQL text — the policy gate's raw rules, the executor's
multi-statement check, the Execution Accuracy order check and the parser
— goes through :func:`lex_sql`, so all of them read quotes, brackets and
comments the way SQLite does:

* the four quoted forms ``'…'``, ``"…"`` and ```…``` (a doubled
  delimiter escapes), plus ``[…]`` (no escape); an unterminated form runs
  to the end of the string;
* comments: ``--`` to the newline and ``/*…*/`` (an unterminated one
  runs to the end);
* everything else is statement tokens.

One regex pass that never raises yields :class:`LexedSql`, which carries
two views of the same lexing:

* ``masked`` has the input's length, with the contents of quoted forms
  blanked.  Comment text stays visible: a comment only stops a quote
  inside it from opening a string, so a keyword or ``;`` inside a comment
  still counts.  The raw policy rules and the executor's
  ``reject_multi_statement`` and ``gold_orders_rows`` read this view.
* ``tokens`` is the token stream.  :func:`tokenize_sql` is the parser's
  strict view of it: string literals keep their quotes stripped but
  remember that they were quoted (so ``'20'`` and ``20`` stay
  distinguishable), keywords are lowercased, and a comment, a backtick
  or bracket identifier, an unterminated quote, ``;`` or any other
  character outside the Spider subset raises :class:`SqlParseError`.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import NamedTuple

from repro.errors import SqlParseError

KEYWORDS = {
    "select", "distinct", "from", "as", "join", "inner", "left", "on",
    "where", "and", "or", "not", "in", "like", "between", "group", "order",
    "by", "having", "asc", "desc", "limit", "union", "intersect", "except",
    "count", "sum", "avg", "min", "max",
}


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCT = "punct"
    END = "end"
    # Lexemes outside the Spider subset: the parser refuses them.
    QUOTED = "quoted"  # `…` or […] identifier, or an unterminated quote
    COMMENT = "comment"
    SEPARATOR = "separator"  # ;
    OTHER = "other"  # any other non-blank character


class SqlToken(NamedTuple):
    type: TokenType
    value: str
    position: int

    def is_keyword(self, *keywords: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value in keywords


# Each match swallows the blanks before it, so the scan tries the
# alternatives once per lexeme rather than once per blank.
_LEXEME_RE = re.compile(
    r"""
    \s*
    (?:
      (?P<string>'[^']*(?:''[^']*)*'|"[^"]*(?:""[^"]*)*")
    | (?P<quoted>`[^`]*(?:``[^`]*)*`|\[[^\]]*\])
    | (?P<open>['"`\[][\s\S]*)
    | (?P<comment>--[^\n]*|/\*[\s\S]*?(?:\*/|\Z))
    | (?P<number>\d+(?:\.\d+)?)
    | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<operator><=|>=|!=|<>|=|<|>)
    | (?P<punct>[(),.*])
    | (?P<separator>;)
    | (?P<other>\S)
    )
    """,
    re.VERBOSE,
)

_TYPES = {
    "number": TokenType.NUMBER,
    "punct": TokenType.PUNCT,
    "comment": TokenType.COMMENT,
    "separator": TokenType.SEPARATOR,
    "other": TokenType.OTHER,
}
_PARSEABLE = frozenset({
    TokenType.KEYWORD, TokenType.IDENTIFIER, TokenType.NUMBER,
    TokenType.STRING, TokenType.OPERATOR, TokenType.PUNCT, TokenType.END,
})
# A ";" with statement text (anything non-blank) after it.
_SEPARATOR_RE = re.compile(r";(?=\s*\S)")


@dataclass(frozen=True)
class LexedSql:
    """One lexing of ``sql``: its token stream and its masked view."""

    sql: str
    #: Every non-blank lexeme in order, then one END token.
    tokens: tuple[SqlToken, ...]
    #: ``sql`` with the contents of every quoted form blanked.
    masked: str

    def separator(self) -> int | None:
        """Offset of the first ``;`` followed by more statement text.

        A single trailing ``;`` is legal; a ``;`` inside a quoted form is
        not a separator.
        """
        match = _SEPARATOR_RE.search(self.masked)
        return None if match is None else match.start()


def lex_sql(sql: str) -> LexedSql:
    """Split ``sql`` into SQLite's regions in one pass; never raises."""
    tokens: list[SqlToken] = []
    masked: list[str] = []
    masked_to = 0
    for match in _LEXEME_RE.finditer(sql):
        kind = match.lastgroup
        text = match[kind]
        start = match.end() - len(text)
        if kind == "word":
            lowered = text.lower()
            if lowered in KEYWORDS:
                tokens.append(SqlToken(TokenType.KEYWORD, lowered, start))
            else:
                tokens.append(SqlToken(TokenType.IDENTIFIER, text, start))
        elif kind in ("string", "quoted", "open"):
            # Blank everything between the delimiters (to the end when
            # the form is unterminated); the delimiters stay visible.
            close = match.end() - (kind != "open")
            masked += (sql[masked_to:start + 1], " " * (close - start - 1))
            masked_to = close
            if kind == "string":
                quote = text[0]
                inner = text[1:-1].replace(quote * 2, quote)
                tokens.append(SqlToken(TokenType.STRING, inner, start))
            else:
                tokens.append(SqlToken(TokenType.QUOTED, text, start))
        elif kind == "operator":
            value = "!=" if text == "<>" else text
            tokens.append(SqlToken(TokenType.OPERATOR, value, start))
        else:
            tokens.append(SqlToken(_TYPES[kind], text, start))
    tokens.append(SqlToken(TokenType.END, "", len(sql)))
    masked.append(sql[masked_to:])
    return LexedSql(sql, tuple(tokens), "".join(masked))


def tokenize_sql(sql: str | LexedSql) -> tuple[SqlToken, ...]:
    """The parser's strict view of ``sql``'s tokens.

    Raises :class:`SqlParseError` at the first lexeme outside the Spider
    subset.  Accepts a :class:`LexedSql` so a caller that already lexed
    the string does not lex it again.
    """
    lexed = sql if isinstance(sql, LexedSql) else lex_sql(sql)
    for token in lexed.tokens:
        if token.type not in _PARSEABLE:
            position = token.position
            raise SqlParseError(
                "cannot tokenize SQL at position "
                f"{position}: {lexed.sql[position:position + 20]!r}"
            )
    return lexed.tokens
