"""The lexer is one compiled pattern; this file holds it to the scanner
it replaced and holds the string identity built on it.

``lexer_fixture.json`` was captured from :func:`statements` at the
commit before the hand-rolled character loop was deleted
(``PYTHONPATH=src python tests/sql/test_lexer_parity.py <out.json>``
regenerates it): ``tokenize`` must keep producing that
``[type, text, position]`` stream — or that ``ParseError`` — row for row.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParseError
from repro.sql.lexer import KEYWORDS, TokenType, tokenize
from repro.sql.parameterize import PARAM, bind_constants, parameterize_sql
from repro.workloads.adhoc import AdhocQueryGenerator
from repro.workloads.tpch_queries import instantiate, template_names

FIXTURE = Path(__file__).with_name("lexer_fixture.json")

EDGE_CASES = (
    "t1.c2",
    "1.",
    ".5",
    "1.2.3",
    "a.1",
    "1.a",
    "1..2",
    "12abc",
    "x=.5",
    "'it''s'",
    "''",
    "''''",
    "'a''",
    "'oops",
    "select 'never closed",
    "select 1 -- comment at end of input",
    "select -- mid-line comment\n 1 - -2",
    "--",
    "a--b\nc",
    "a - - b",
    "a <> b != c <= d >= e < f > g = h",
    "a<>b!=c<=d>=e<f>g=h",
    "a < = b",
    "a ! b",
    "SeLeCt DISTINCT Foo FROM Bar WhErE baz BETWEEN 1 AND 2",
    "select café, naïve_col from tâble",
    "select ß, ǅ, 変数 from t",
    "select ٣ from t",
    "select x² from t",
    "select a from t",
    "select a\x1cfrom t",
    "select ? from t",
    "select @",
    "select a # b",
    'select "quoted" from t',
    "select 'a\tb\nc' from t",
    "select\ta\r\nfrom\x0bt\x0c;",
    "_lead, __x, a_1, _1",
    "count(*), sum(a+b)/2.50*(c-1)",
    "",
    "   \n\t ",
    ";",
)


def statements() -> list[str]:
    out = [
        instantiate(name, seed=seed)
        for name in template_names()
        for seed in range(20)
    ]
    out.extend(AdhocQueryGenerator(seed=11).batch(150))
    out.extend(EDGE_CASES)
    return out


def lex_row(sql: str) -> dict:
    try:
        tokens = tokenize(sql)
    except ParseError as exc:
        return {"sql": sql, "error": [str(exc), exc.position]}
    return {
        "sql": sql,
        "tokens": [[t.type.name, t.text, t.position] for t in tokens],
    }


def test_tokenize_reproduces_the_hand_rolled_scanner_row_for_row():
    rows = json.loads(FIXTURE.read_text())
    assert [row["sql"] for row in rows] == statements()
    assert sum("error" in row for row in rows) >= 5
    for row in rows:
        assert lex_row(row["sql"]) == row


def test_digit_like_characters_that_are_not_decimal_start_a_word():
    """The one deliberate difference from the character loop: it took
    ``str.isdigit`` characters outside category Nd (superscripts,
    circled digits) for NUMBER tokens the parser's ``int()`` then died on
    with a ``ValueError``, and rejected ``str.isnumeric``-only ones
    (fractions, Roman numerals).  Both are ``\\w`` and not ``\\d``."""
    assert [(t.type, t.text) for t in tokenize("² ½x")[:-1]] == [
        (TokenType.IDENT, "²"),
        (TokenType.IDENT, "½x"),
    ]


# ---------------------------- string identity -------------------------- #
_WORDS = st.one_of(
    st.sampled_from(sorted(KEYWORDS) + ["SELECT", "From", "t1", "c2", "_x", "café", "Ñ"]),
    st.text("abXY_019é", min_size=1, max_size=6).filter(
        lambda w: not w[0].isdigit()
    ),
)
_NUMBERS = st.sampled_from(["0", "1", "42", "2.5", ".5", "007", "1.25", "٣"])
_STRINGS = st.text("ab '\t\n-?é", max_size=6).map(
    lambda text: "'" + text.replace("'", "''") + "'"
)
#: ... and, now and then, something the lexer rejects.
_SYMBOLS = st.sampled_from(
    ["<>", "!=", "<=", ">=", "<", ">", "=", "(", ")", ",", ".", "+", "-", "*", "/", ";"]
    + ["'", "@", "?"]
)
_SEPARATORS = st.sampled_from(["", " ", " ", "  ", "\n", "\t", " -- x\n", "--\n"])
_PIECES = st.lists(
    st.tuples(st.one_of(_WORDS, _NUMBERS, _STRINGS, _SYMBOLS), _SEPARATORS),
    max_size=12,
)


def _sql(pieces) -> str:
    return "".join(text + separator for text, separator in pieces)


def _stream(sql: str) -> list[tuple[TokenType, str]]:
    return [(t.type, t.text) for t in tokenize(sql)[:-1]]


def _masked(stream) -> list:
    literal = (TokenType.NUMBER, TokenType.STRING)
    return [PARAM if kind in literal else (kind, text) for kind, text in stream]


@st.composite
def _variants(draw) -> tuple[str, str]:
    """A statement and a rewrite of it: new separators, letter case,
    literal values, and now and then a different token."""
    pieces = draw(_PIECES)
    rewritten = []
    for text, separator in pieces:
        choice = draw(st.integers(0, 9))
        if choice == 0:
            text = draw(st.one_of(_WORDS, _NUMBERS, _STRINGS, _SYMBOLS))
        elif choice == 1 and text[0] in "'.0123456789٣":
            text = draw(st.one_of(_NUMBERS, _STRINGS))
        elif choice == 2 and text[0] != "'":
            text = text.swapcase()
        if choice >= 5:
            separator = draw(_SEPARATORS)
        rewritten.append((text, separator))
    return _sql(pieces), _sql(rewritten)


@given(_PIECES)
@settings(max_examples=300, deadline=None)
def test_normalized_is_sql_that_relexes_to_the_same_stream(pieces):
    sql = _sql(pieces)
    try:
        stream = _stream(sql)
    except ParseError as exc:
        with pytest.raises(ParseError) as raised:
            parameterize_sql(sql)
        assert str(raised.value) == str(exc)
        return
    parameterized = parameterize_sql(sql)
    assert _stream(parameterized.normalized) == stream
    assert parameterized.constants == tuple(
        (kind.name, text)
        for kind, text in stream
        if kind in (TokenType.NUMBER, TokenType.STRING)
    )
    assert (
        bind_constants(parameterized.template_key, parameterized.constants)
        == parameterized.normalized
    )


@given(_variants())
@settings(max_examples=300, deadline=None)
def test_keys_are_equal_exactly_when_the_streams_are(pair):
    first, second = pair
    try:
        streams = _stream(first), _stream(second)
    except ParseError:
        return
    a, b = parameterize_sql(first), parameterize_sql(second)
    assert (a.normalized == b.normalized) == (streams[0] == streams[1])
    assert (a.template_key == b.template_key) == (
        _masked(streams[0]) == _masked(streams[1])
    )
    assert (a.template_key is b.template_key) == (a.template_key == b.template_key)


if __name__ == "__main__":
    with open(sys.argv[1], "w") as handle:
        handle.write("[\n")
        handle.write(
            ",\n".join(
                json.dumps(lex_row(sql), separators=(",", ":")) for sql in statements()
            )
        )
        handle.write("\n]\n")
