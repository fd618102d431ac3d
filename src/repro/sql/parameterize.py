"""Template parameterization: SQL text -> (template key, constants).

Real report traffic re-issues the same SQL *shape* with different
literals, so keying a plan cache on the literal-bearing text makes every
parameter change a full miss.  One scan of the lexer's pattern writes
each token's canonical text (words lower-cased, numbers verbatim,
strings in their quoted source form) into two space-joined strings:

- the **normalized** string, literals in place — whitespace-, case- and
  comment-insensitive, and itself executable SQL whose re-lexing
  reproduces the token stream (the exact-match key);
- the **template key**, every literal replaced by :data:`PARAM` — shared
  by all instantiations of one template, and interned, so they share one
  object;

plus the **constants**, the extracted ``(kind, text)`` literals in query
order.  A ``str`` caches its hash, compares by ``memcmp`` and is
invisible to the cycle collector, which is why the identity is two
strings and not two tuples of tokens.

``bind_constants(template_key, constants)`` is the exact inverse: it
reproduces the normalized string, so the pair is a lossless
factorization of :func:`normalize_sql` (property-tested in
``tests/sql/test_parameterize.py``).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache

from repro.errors import ReproError
from repro.sql.lexer import (
    NUMBER,
    STRING,
    SYMBOL,
    TOKEN_PATTERN,
    WORD,
    lex_error,
    unquote,
)

#: Placeholder for a literal inside template keys.  The lexer rejects
#: the character, so it cannot collide with a real token.
PARAM = "?"


@dataclass(frozen=True)
class ParameterizedSQL:
    """The two-part identity of a SQL text: the interned literal-free
    ``template_key``, the extracted ``(kind, text)`` ``constants`` in
    order, and ``normalized``, the literal-bearing exact-match key
    (precomputed because the serving path reads it on every arrival)."""

    template_key: str
    constants: tuple[tuple[str, str], ...]
    normalized: str


def normalize_sql(sql: str) -> str:
    """Whitespace/case/comment-insensitive identity of a SQL text.

    String and numeric literals keep their exact text — two queries with
    different parameters are different exact-match keys (the skeleton
    level uses the template key to collapse them).
    """
    return parameterize_sql(sql).normalized


#: As many entries as a plan cache holds by default.  At 4,096 the
#: entries past the 256th answered 314 of ``adhoc_cold``'s 6,656 lookups
#: and held 2.1 MB.
@lru_cache(maxsize=256)  # lint-allow: process-memo spares every exact plan-cache hit a re-scan: 16,600 of 16,640 lookups hit on dashboard_single
def parameterize_sql(sql: str) -> ParameterizedSQL:
    """Split ``sql`` into a literal-free template key plus its constants.

    One scan produces both halves plus the exact-match key, so callers
    need only this function on the serving path.  Memoized on the raw
    text (a pure function of it): report traffic re-sends byte-identical
    SQL per (template, parameters) pair, and one arrival is typically
    planned under more than one constraint.
    """
    template: list[str] = []
    constants: list[tuple[str, str]] = []
    normalized: list[str] = []
    for match in TOKEN_PATTERN.finditer(sql):
        kind = match.lastindex
        if kind is None:
            continue
        text = match.group()
        if kind == WORD:
            text = text.lower()
            template.append(text)
        elif kind == SYMBOL:
            template.append(text)
        elif kind == NUMBER:
            constants.append(("NUMBER", text))
            template.append(PARAM)
        elif kind == STRING:
            constants.append(("STRING", unquote(text)))
            template.append(PARAM)
        else:
            raise lex_error(match)
        normalized.append(text)
    return ParameterizedSQL(
        template_key=sys.intern(" ".join(template)),
        constants=tuple(constants),
        normalized=" ".join(normalized),
    )


def bind_constants(template_key: str, constants: tuple[tuple[str, str], ...]) -> str:
    """Substitute ``constants`` into the :data:`PARAM` slots of
    ``template_key``.

    Returns the normalized string the original query produces
    (``normalize_sql(sql)``) — executable SQL; raises when the constant
    count does not match the template's placeholder count.
    """
    pieces = template_key.split(PARAM)
    if len(pieces) != len(constants) + 1:
        raise ReproError(
            f"template takes {len(pieces) - 1} constants, got {len(constants)}"
        )
    bound = [pieces[0]]
    for (kind, text), piece in zip(constants, pieces[1:]):
        bound.append("'" + text.replace("'", "''") + "'" if kind == "STRING" else text)
        bound.append(piece)
    return "".join(bound)
