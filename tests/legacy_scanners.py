"""The four SQL scanners that :mod:`repro.sql.lexer` replaced, kept as a reference.

Each is a copy of the code that used to decide, on its own, which
characters of a SQL string are statement text: the policy's
``mask_strings`` and its three raw rules, the executor's
``reject_multi_statement`` and ``gold_orders_rows`` (with
``_skip_quoted``), and the parser's tokenizer regex.  The lexer tests
compare the new readers against them: identical answers on generated
SQL, and no looser verdict on bracket-free text outside the one case the
old scanners misread (a quote inside a comment).
"""

from __future__ import annotations

import re

from repro.errors import SqlParseError
from repro.policy import DEFAULT_BLOCKED_KEYWORDS
from repro.sql.lexer import KEYWORDS, SqlToken, TokenType


def mask_strings(sql: str) -> str:
    out = list(sql)
    i = 0
    length = len(sql)
    while i < length:
        ch = sql[i]
        if ch in ("'", '"', "`"):
            i += 1
            while i < length:
                if sql[i] == ch:
                    if ch != "`" and i + 1 < length and sql[i + 1] == ch:
                        out[i] = " "
                        out[i + 1] = " "
                        i += 2
                        continue
                    break
                out[i] = " "
                i += 1
        i += 1
    return "".join(out)


def raw_rule_ids(sql: str, blocked=DEFAULT_BLOCKED_KEYWORDS) -> set[str]:
    """The ids the ``multi-statement``, ``blocked-keyword`` and
    ``read-only`` rules fired on ``sql`` (default config)."""
    masked = mask_strings(sql)
    fired = set()
    for offset, ch in enumerate(masked):
        if ch == ";" and masked[offset + 1 :].strip():
            fired.add("multi-statement")
            break
    word = []
    for ch in masked + " ":
        if ch.isalnum() or ch == "_":
            word.append(ch)
            continue
        if word:
            token = "".join(word).lower()
            word.clear()
            if token in blocked:
                fired.add("blocked-keyword")
    stripped = masked.strip()
    first = ""
    for ch in stripped:
        if not (ch.isalnum() or ch == "_"):
            break
        first += ch
    if first.lower() != "select":
        fired.add("read-only")
    return fired


def _skip_quoted(text: str, start: int) -> int:
    quote = text[start]
    i = start + 1
    n = len(text)
    while i < n:
        if text[i] == quote:
            if i + 1 < n and text[i + 1] == quote:
                i += 2
                continue
            return i + 1
        i += 1
    return n


def rejects_multi_statement(sql: str) -> bool:
    """True where the executor's ``reject_multi_statement`` raised."""
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch in ("'", '"', "`"):
            i = _skip_quoted(sql, i)
            continue
        if ch == "[":
            end = sql.find("]", i + 1)
            i = n if end == -1 else end + 1
            continue
        if ch == ";" and sql[i + 1 :].strip():
            return True
        i += 1
    return False


def gold_orders_rows(gold_sql: str) -> bool:
    depth = 0
    lowered = gold_sql.lower()
    i = 0
    n = len(lowered)
    while i < n:
        ch = lowered[i]
        if ch in ("'", '"', "`"):
            i = _skip_quoted(lowered, i)
            continue
        if ch == "[":
            end = lowered.find("]", i + 1)
            i = n if end == -1 else end + 1
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif (
            depth == 0
            and lowered.startswith("order by", i)
            and (i == 0 or not (lowered[i - 1].isalnum() or lowered[i - 1] == "_"))
        ):
            return True
        i += 1
    return False


_TOKEN_RE = re.compile(
    r"""
      (?P<string>'(?:[^']|'')*'|"(?:[^"]|"")*")
    | (?P<number>\d+(?:\.\d+)?)
    | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<operator><=|>=|!=|<>|=|<|>)
    | (?P<punct>[(),.*])
    | (?P<space>\s+)
    """,
    re.VERBOSE,
)


def tokenize_sql(sql: str) -> list[SqlToken]:
    tokens: list[SqlToken] = []
    position = 0
    while position < len(sql):
        match = _TOKEN_RE.match(sql, position)
        if match is None:
            raise SqlParseError(
                f"cannot tokenize SQL at position {position}: {sql[position:position + 20]!r}"
            )
        if match.lastgroup == "space":
            position = match.end()
            continue
        text = match.group(0)
        if match.lastgroup == "string":
            quote = text[0]
            inner = text[1:-1].replace(quote * 2, quote)
            tokens.append(SqlToken(TokenType.STRING, inner, position))
        elif match.lastgroup == "number":
            tokens.append(SqlToken(TokenType.NUMBER, text, position))
        elif match.lastgroup == "word":
            lowered = text.lower()
            if lowered in KEYWORDS:
                tokens.append(SqlToken(TokenType.KEYWORD, lowered, position))
            else:
                tokens.append(SqlToken(TokenType.IDENTIFIER, text, position))
        elif match.lastgroup == "operator":
            value = "!=" if text == "<>" else text
            tokens.append(SqlToken(TokenType.OPERATOR, value, position))
        else:
            tokens.append(SqlToken(TokenType.PUNCT, text, position))
        position = match.end()
    tokens.append(SqlToken(TokenType.END, "", len(sql)))
    return tokens
