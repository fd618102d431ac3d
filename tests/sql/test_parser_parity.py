"""The parser reads token texts; this file holds it to the parser it
replaced and holds its two feeders to each other.

``parser_fixture.json`` was captured from :func:`statements` at the
commit before the token-object parser was deleted
(``PYTHONPATH=src python tests/sql/test_parser_parity.py <out.json>``
regenerates it): for every statement, ``parse`` must keep producing that
AST — or that ``ParseError`` — and the template parse that statement's
slots, readers and LIMIT slot.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParseError
from repro.sql.ast_nodes import AstLiteral
from repro.sql.parameterize import parameterize_sql
from repro.sql.parser import parse, parse_parameterized
from repro.workloads.adhoc import AdhocQueryGenerator
from repro.workloads.tpch_queries import instantiate, template_names

FIXTURE = Path(__file__).with_name("parser_fixture.json")

#: Every construct the workloads do not write.
CONSTRUCTS = (
    "SELECT DISTINCT t.a, b AS bee, c cee FROM t1 t, t2 AS u WHERE t.a != u.b",
    "SELECT count(DISTINCT a), count(*), abs(b - 2), year(d) FROM t "
    "INNER JOIN u ON t.k = u.k JOIN v ON u.j = v.j",
    "SELECT a FROM t WHERE a IN (-1, 2.5, -0.25) AND b NOT IN ('x y', 'it''s')",
    "SELECT a FROM t WHERE d NOT BETWEEN DATE '1995-01-01' AND DATE '1996-02-29' "
    "OR NOT (e >= -DATE '1970-01-02') AND f IN ((-DATE '1996-02-02'))",
    "SELECT -a * (b + 1) / 2 - -3 FROM t WHERE ((a < 1 OR b > 2) AND c <= 3)",
    "SELECT a, sum(b) s FROM t GROUP BY a, t.c HAVING sum(b) > 10 AND count(*) <> 2 "
    "ORDER BY s DESC, a ASC, 1 LIMIT 7.9;",
    "select A from T where S = 'SELECT from '' ? where' limit 0",
)
#: The malformed statements of ``test_parser.py``, and one per other
#: error the parser raises.
MALFORMED = (
    "SELECT a FROM t WHERE m IN (a, b)",
    "SELECT sum(*) FROM t",
    "SELECT a FROM t GROUP BY a + 1",
    "SELECT a FROM t extra nonsense ,",
    "SELECT a",
    "",
    "FROM t",
    "SELECT FROM t",
    "SELECT a FROM",
    "SELECT a FROM t WHERE",
    "SELECT a FROM t WHERE (a = 1",
    "SELECT a FROM t WHERE a = 'x' 'y'",
    "SELECT a FROM t WHERE a = 1 2.5",
    "SELECT a FROM t LIMIT x",
    "SELECT a FROM t LIMIT 'ten'",
    "SELECT a FROM t WHERE d = DATE 5",
    "SELECT a FROM t WHERE d = DATE x",
    "SELECT a FROM t WHERE d = DATE '1995-13-01'",
    "SELECT a FROM t WHERE a IN (-'x')",
    "SELECT a FROM t WHERE a IN ()",
    "SELECT a FROM t WHERE a IN (1 2)",
    "SELECT a FROM t WHERE a IN (1, b + 2)",
    "SELECT a FROM t WHERE a NOT = 1",
    "SELECT a FROM t WHERE NOT",
    "SELECT a AS 1 FROM t",
    "SELECT a FROM t AS 'x'",
    "SELECT a FROM t JOIN u",
    "SELECT a FROM t JOIN u ON",
    "SELECT a FROM t INNER u ON a = b",
    "SELECT count(DISTINCT *) FROM t",
    "SELECT max(*) FROM t",
    "SELECT a. FROM t",
    "SELECT a FROM t GROUP a",
    "SELECT a FROM t ORDER BY",
    "SELECT a FROM t WHERE a BETWEEN 1 OR 2",
    "SELECT a FROM t ; ;",
    "SELECT DISTINCT FROM t",
    "SELECT a FROM t WHERE a = 'it''s a' extra",
)


def statements() -> list[str]:
    out = [
        instantiate(name, seed=seed)
        for name in template_names()
        for seed in range(20)
    ]
    out.extend(AdhocQueryGenerator(seed=11).batch(2000))
    out.extend(CONSTRUCTS)
    out.extend(MALFORMED)
    return out


def _message(exc: ParseError) -> str:
    """The error's message without its source offset: the template
    feeder reads no source text, so it has none."""
    text = str(exc)
    suffix = f" (at offset {exc.position})"
    return text[: -len(suffix)] if exc.position is not None else text


def _literals(node, out: list) -> list:
    """Every literal node under ``node``, in field order."""
    if isinstance(node, AstLiteral):
        out.append(node)
    elif isinstance(node, (list, tuple)):
        for item in node:
            _literals(item, out)
    elif dataclasses.is_dataclass(node):
        for item in dataclasses.fields(node):
            _literals(getattr(node, item.name), out)
    return out


def _reader_name(reader) -> str:
    """``_number``, ``str``, ``parse_date``, ``_limit``, or a negated
    reader's name after a ``-``."""
    if getattr(reader, "__closure__", None):
        return "-" + _reader_name(reader.__closure__[0].cell_contents)
    return reader.__name__


def template_row(sql: str, full: str | None) -> dict:
    """The template parse of ``sql``; its statement only where it is not
    ``full``, the text's own parse (on every row of the fixture, it is)."""
    parameterized = parameterize_sql(sql)
    try:
        parsed = parse_parameterized(parameterized.template_key, parameterized.constants)
    except ParseError as exc:
        return {"error": _message(exc)}
    row = {
        "slots": [parsed.slots.get(id(node)) for node in _literals(parsed.stmt, [])],
        "readers": [_reader_name(reader) for reader in parsed.readers],
        "limit_slot": parsed.limit_slot,
    }
    if repr(parsed.stmt) != full:
        row["stmt"] = repr(parsed.stmt)
    return row


def parse_row(sql: str) -> dict:
    try:
        full = {"parse": repr(parse(sql))}
    except ParseError as exc:
        full = {"error": [str(exc), exc.position]}
    return {"sql": sql, **full, "template": template_row(sql, full.get("parse"))}


def test_both_feeders_reproduce_the_token_object_parser_row_for_row():
    rows = json.loads(FIXTURE.read_text())
    assert [row["sql"] for row in rows] == statements()
    assert sum("error" in row for row in rows) == len(MALFORMED)
    assert sum(row["template"].get("limit_slot") is not None for row in rows) >= 20
    assert not any("stmt" in row["template"] for row in rows)
    for row in rows:
        assert parse_row(row["sql"]) == row


# ----------------------- the two feeders agree ------------------------ #
_COLUMNS = st.sampled_from(["a", "b_2", "t.c", "x.y", "l_shipdate", "date_col"])
_NUMBERS = st.one_of(
    st.integers(-10_000, 10_000).map(str),
    st.decimals(-100, 100, places=2, allow_nan=False).map(str),
)
#: Strings with spaces, quotes, keywords and the placeholder inside.
_STRINGS = st.text(" ab'?-,SELECT", max_size=8).map(
    lambda text: "'" + text.replace("'", "''") + "'"
)
_DATES = st.dates(datetime.date(1990, 1, 1), datetime.date(2000, 12, 31)).map(
    lambda day: f"DATE '{day.isoformat()}'"
)
_LITERALS = st.one_of(
    _NUMBERS, _STRINGS, _DATES, _DATES.map(lambda date: "-" + date)
)
_COMPARE = st.sampled_from(["=", "<>", "!=", "<", "<=", ">", ">="])


@st.composite
def _predicate(draw) -> str:
    column = draw(_COLUMNS)
    shape = draw(st.integers(0, 4))
    if shape == 0:
        return f"{column} {draw(_COMPARE)} {draw(_LITERALS)}"
    if shape == 1:
        return f"{column} {draw(_COMPARE)} {draw(_COLUMNS)} * {draw(_NUMBERS)}"
    negated = draw(st.sampled_from(["", "NOT "]))
    if shape == 2:
        low, high = draw(_LITERALS), draw(_LITERALS)
        return f"{column} {negated}BETWEEN {low} AND {high}"
    if shape == 3:
        values = draw(st.lists(_LITERALS, min_size=1, max_size=4))
        return f"{column} {negated}IN ({', '.join(values)})"
    return f"NOT ({column} {draw(_COMPARE)} {draw(_LITERALS)})"


@st.composite
def _statements(draw) -> str:
    items = draw(
        st.lists(
            st.one_of(
                _COLUMNS,
                _COLUMNS.map(lambda column: f"sum({column}) AS s"),
                st.just("count(*)"),
                st.tuples(_COLUMNS, _NUMBERS).map(lambda pair: f"{pair[0]} - {pair[1]} v"),
            ),
            min_size=1,
            max_size=3,
        )
    )
    pieces = ["SELECT", ", ".join(items), "FROM t, x"]
    predicates = draw(st.lists(_predicate(), max_size=4))
    if predicates:
        joiner = draw(st.sampled_from([" AND ", " OR "]))
        pieces += ["WHERE", joiner.join(predicates)]
    if draw(st.booleans()):
        pieces += ["GROUP BY a", "HAVING count(*) >", draw(_NUMBERS)]
    if draw(st.booleans()):
        pieces += ["ORDER BY", draw(_COLUMNS), draw(st.sampled_from(["", "ASC", "DESC"]))]
    if draw(st.booleans()):
        pieces += ["LIMIT", draw(st.one_of(_NUMBERS, _STRINGS))]
    # Now and then, drop one piece: the feeders must fail alike too.
    if draw(st.integers(0, 4)) == 0:
        del pieces[draw(st.integers(0, len(pieces) - 1))]
    return " ".join(pieces)


@given(_statements())
@settings(max_examples=300, deadline=None)
def test_the_template_feeder_parses_what_the_text_feeder_does(sql):
    """``parse_parameterized`` reads the template key's words and the
    constants; ``parse`` lexes the text.  Same statement, same error."""
    parameterized = parameterize_sql(sql)
    try:
        expected = repr(parse(sql))
    except ParseError as exc:
        try:
            parse_parameterized(parameterized.template_key, parameterized.constants)
        except ParseError as raised:
            assert _message(raised) == _message(exc)
            return
        raise AssertionError(f"the template feeder parsed {sql!r}") from None
    parsed = parse_parameterized(parameterized.template_key, parameterized.constants)
    assert repr(parsed.stmt) == expected


if __name__ == "__main__":
    with open(sys.argv[1], "w") as handle:
        handle.write("[\n")
        handle.write(
            ",\n".join(
                json.dumps(parse_row(sql), separators=(",", ":")) for sql in statements()
            )
        )
        handle.write("\n]\n")
