"""SQL lexer: text -> token stream.

One compiled pattern, :data:`TOKEN_PATTERN`, is the only lexical
definition: :func:`tokenize` walks its matches into ``Token``s and
``repro.sql.parameterize`` walks the same matches into the two identity
strings without building any.  Keywords are case-insensitive;
identifiers are lower-cased at lexing time (the workload schemas use
lower-case names throughout).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from repro.errors import ParseError


class TokenType(enum.Enum):
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    KEYWORD = "keyword"
    SYMBOL = "symbol"
    EOF = "eof"


KEYWORDS = {
    "select",
    "distinct",
    "from",
    "where",
    "group",
    "by",
    "having",
    "order",
    "limit",
    "join",
    "inner",
    "on",
    "and",
    "or",
    "not",
    "in",
    "between",
    "as",
    "asc",
    "desc",
    "date",
}

#: One alternative per token class, tried in order: whitespace and
#: ``--`` comments match outside every group (skipped); a word starts
#: with any ``\w`` character that is not a decimal digit; a dot is a
#: decimal point only when a digit follows (``t1.c2`` is a qualifier);
#: a string closes at the first quote run of odd length (``''`` is an
#: escaped quote — the lookahead stops backtracking from splitting
#: one); multi-character symbols come first so the scan is greedy.
#: ``bad`` catches everything else, so no character is passed over.
TOKEN_PATTERN = re.compile(
    r"\s+|--[^\n]*"
    r"|(?P<word>[^\W\d]\w*)"
    r"|(?P<number>\d+(?:\.\d+)?|\.\d+)"
    r"|(?P<string>'[^']*(?:''[^']*)*'(?!'))"
    r"|(?P<symbol><>|!=|<=|>=|[<>=(),.+\-*/;])"
    r"|(?P<bad>.)",
    re.DOTALL,
)
#: ``match.lastindex`` of each token class (``None`` for skipped text).
WORD, NUMBER, STRING, SYMBOL = (
    TOKEN_PATTERN.groupindex[name] for name in ("word", "number", "string", "symbol")
)


@dataclass(frozen=True)
class Token:
    type: TokenType
    text: str
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.type is TokenType.KEYWORD and self.text == word

    def is_symbol(self, symbol: str) -> bool:
        return self.type is TokenType.SYMBOL and self.text == symbol


def lex_error(match: re.Match) -> ParseError:
    """The error for a ``bad`` match: a quote the string alternative
    refused never closes; anything else is not SQL."""
    if match.group() == "'":
        return ParseError("unterminated string literal", match.start())
    return ParseError(f"unexpected character {match.group()!r}", match.start())


def unquote(literal: str) -> str:
    """The value of a ``string`` match (its quoted source form)."""
    return literal[1:-1].replace("''", "'")


def tokenize(sql: str) -> list[Token]:
    """Scan ``sql`` into tokens, ending with an EOF token."""
    tokens: list[Token] = []
    for match in TOKEN_PATTERN.finditer(sql):
        kind = match.lastindex
        if kind is None:
            continue
        text = match.group()
        if kind == WORD:
            text = text.lower()
            token_type = TokenType.KEYWORD if text in KEYWORDS else TokenType.IDENT
        elif kind == NUMBER:
            token_type = TokenType.NUMBER
        elif kind == STRING:
            token_type, text = TokenType.STRING, unquote(text)
        elif kind == SYMBOL:
            token_type = TokenType.SYMBOL
        else:
            raise lex_error(match)
        tokens.append(Token(token_type, text, match.start()))
    tokens.append(Token(TokenType.EOF, "", len(sql)))
    return tokens
