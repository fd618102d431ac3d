"""Bound templates: filling a template's bound form with an instance's
literals equals binding a full parse of the instance's text.

``Binder.bind_parameterized`` binds each (template key, literal kinds)
once per catalog version and fills every later instance into it; the
reference is ``Binder.bind(parse(sql))``, compared field by field by
``repr`` (so ``Literal(1)`` and ``Literal(1.0)`` differ).
"""

from __future__ import annotations

import dataclasses
import datetime
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import BindError, ParseError, ReproError
from repro.sql.binder import Binder
from repro.sql.parameterize import bind_constants, parameterize_sql
from repro.sql.parser import parse
from repro.workloads.adhoc import AdhocQueryGenerator
from repro.workloads.tpch_queries import instantiate, template_names
from repro.workloads.tpch_stats import synthetic_tpch_catalog


@pytest.fixture(scope="module")
def catalog():
    return synthetic_tpch_catalog(1.0)


def fields(bound) -> dict[str, str]:
    return {name: repr(value) for name, value in vars(bound).items() if name != "_columns_needed"}


def bind_both(binder: Binder, sql: str):
    """``(through the template, from a full parse)``; an error on either
    side is returned in place of its query."""
    results = []
    for bind in (
        lambda: binder.bind_parameterized(*_pair(sql), sql),
        lambda: binder.bind(parse(sql), sql=sql),
    ):
        try:
            results.append(bind())
        except ReproError as error:
            results.append(error)
    return results


def _pair(sql: str) -> tuple:
    parameterized = parameterize_sql(sql)
    return parameterized.template_key, parameterized.constants


def assert_parity(binder: Binder, sql: str) -> None:
    filled, reference = bind_both(binder, sql)
    if isinstance(reference, ReproError):
        assert (type(filled), str(filled)) == (type(reference), str(reference)), sql
        return
    assert fields(filled) == fields(reference), sql
    for table in reference.table_names:
        assert filled.columns_needed(table) == reference.columns_needed(table)


def with_new_literals(sql: str, salt: int) -> str:
    """``sql``'s template with every literal moved (numbers scaled,
    dates shifted by days, other strings kept)."""
    template_key, constants = _pair(sql)
    moved = []
    for kind, text in constants:
        if kind == "NUMBER":
            text = (
                f"{float(text) * (1.5 + salt) + 0.25:.2f}"
                if "." in text
                else str(int(text) * (2 + salt) + 1)
            )
        else:
            try:
                day = datetime.date.fromisoformat(text)
            except ValueError:
                pass
            else:
                text = (day + datetime.timedelta(days=37 * salt + 11)).isoformat()
        moved.append((kind, text))
    return bind_constants(template_key, tuple(moved))


def test_every_tpch_template_over_fifty_literal_seeds(catalog):
    binder = Binder(catalog)
    for name in template_names():
        for seed in range(50):
            assert_parity(binder, instantiate(name, seed=seed))
    # One bound template per template: the other 49 instances each were fills.
    assert len(binder.templates) == len(template_names())


def test_adhoc_shapes_bound_again_with_new_literals(catalog):
    binder = Binder(catalog)
    generator = AdhocQueryGenerator(seed=11)
    shapes = [generator.next_query() for _ in range(500)]
    for sql in shapes:
        assert_parity(binder, sql)
    for sql in shapes:
        for salt in (1, 2):
            moved = with_new_literals(sql, salt)
            assert _pair(moved)[0] == _pair(sql)[0]
            assert_parity(binder, moved)


def test_a_catalog_version_bump_binds_the_template_again(catalog):
    """A string's dictionary code is the catalog's: after a change that
    moves it, the next instance is bound against the new dictionary."""
    local = catalog.overlay()
    binder = Binder(local)
    template = "SELECT count(*) AS n FROM customer WHERE c_mktsegment = '{}'"
    assert_parity(binder, template.format("BUILDING"))
    (stored,) = binder.templates._entries.values()
    assert_parity(binder, template.format("MACHINERY"))
    assert binder.templates.lookup(next(iter(binder.templates._entries))) is stored
    entry = local.table("customer")
    segments = entry.dictionaries["c_mktsegment"]
    local.register_table(
        dataclasses.replace(
            entry,
            dictionaries={**entry.dictionaries, "c_mktsegment": segments[1:]},
        ),
        replace_existing=True,
    )
    bound = binder.bind_sql(template.format("MACHINERY"))
    (rebound,) = binder.templates._entries.values()
    assert rebound is not stored and rebound.version == local.version
    assert bound.filters["customer"][0].right.value == segments.index("MACHINERY") - 1
    assert_parity(binder, template.format("BUILDING"))


def test_a_literal_in_order_by_binds_every_instance_in_full(catalog):
    """ORDER BY keeps no literal in the bound query, yet the binder
    checks it against the select list: such a template fills nothing.
    Whichever instance comes first, valid or rejected, neither decides
    how the other binds, in any binder."""
    valid = "SELECT c_acctbal + 1 AS {} FROM customer ORDER BY c_acctbal + 1"
    invalid = "SELECT c_acctbal + 1 AS {} FROM customer ORDER BY c_acctbal + 2"
    for alias, order in (("valid_first", (valid, invalid)), ("invalid_first", (invalid, valid))):
        for binder in (Binder(catalog), Binder(catalog)):
            for sql in order * 2:
                assert_parity(binder, sql.format(alias))
            assert binder.bind_sql(valid.format(alias)).order_by == [(alias, True)]
            with pytest.raises(BindError):
                binder.bind_sql(invalid.format(alias))
            assert len(binder.templates) == 0


def test_a_statement_that_does_not_parse_reports_its_offset_in_the_text(catalog):
    """The template parse reads the key, which has no offsets into the
    text; the error a binder raises still points into the text."""
    sql = "SELECT c_name   FROM customer WHERE c_acctbal > 'x' AND"
    with pytest.raises(ParseError) as raised:
        Binder(catalog).bind_sql(sql)
    assert raised.value.position == len(sql)
    with pytest.raises(ParseError) as full:
        parse(sql)
    assert str(raised.value) == str(full.value)


def test_aggregates_that_coincide_under_new_literals_are_merged(catalog):
    """The binder merges equal aggregates, so whether two aggregates that
    differ only in a literal are one depends on the literals: checked on
    every fill, whichever instance the template was bound from."""
    sql = "SELECT sum(c_acctbal * {}) AS a, sum(c_acctbal * {}) AS b FROM customer"
    for pairs in (((2, 3), (4, 4), (5, 6), (7, 7)), ((4, 4), (2, 3), (7, 7))):
        binder = Binder(catalog)
        for first, second in pairs:
            assert_parity(binder, sql.format(first, second))
        merged = binder.bind_sql(sql.format(4, 4))
        assert len(merged.aggregates) == 1
        assert merged.select_exprs[0] == merged.select_exprs[1]
    # A template first parsed from merging literals is not kept; the
    # first instance whose literals keep both aggregates binds it.
    fresh = "SELECT sum(c_acctbal * {}) AS merged_first, sum(c_acctbal * {}) AS b FROM customer"
    binder = Binder(catalog)
    for first, second, kept in ((4, 4, 0), (7, 7, 0), (2, 3, 1), (5, 6, 1), (8, 8, 1)):
        assert_parity(binder, fresh.format(first, second))
        assert len(binder.templates) == kept


def test_threads_sharing_a_binder_bind_what_a_full_parse_does(catalog):
    """Eight threads over one binder whose three template slots keep
    evicting each other: every instance still equals its full bind."""
    binder = Binder(catalog)
    binder.templates.capacity = 3
    sqls = [instantiate(name, seed=seed) for name in template_names() for seed in range(6)]
    expected = {sql: fields(binder.bind(parse(sql), sql=sql)) for sql in sqls}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            bound = list(pool.map(binder.bind_sql, sqls * 4, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert [fields(query) for query in bound] == [expected[sql] for sql in sqls * 4]
    assert len(binder.templates) <= 3


# ------------------------------------------------------------------ #
# Generated queries
# ------------------------------------------------------------------ #
SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY")
STRINGS = st.sampled_from(SEGMENTS + ("AAA", "BUILDINGS", "ZZZ", "it''s"))
NUMBERS = st.one_of(
    st.integers(-60, 60).map(str),
    st.floats(-60, 60, allow_nan=False).map(lambda x: f"{x:.2f}"),
)
DATES = st.dates(datetime.date(1992, 1, 1), datetime.date(1998, 12, 31)).map(
    lambda day: f"DATE '{day.isoformat()}'"
)
OPS = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])


def _shape():
    """A query shape: which predicates, operators and clauses it has."""
    return st.fixed_dictionaries(
        {
            "segment": st.one_of(st.none(), st.tuples(OPS, st.booleans())),
            "segments_in": st.one_of(st.none(), st.tuples(st.booleans(), st.integers(1, 3))),
            "balance": st.one_of(st.none(), OPS),
            "balances_in": st.one_of(st.none(), st.integers(1, 3)),
            "date": st.one_of(st.none(), OPS),
            "dates_between": st.booleans(),
            "aggregates": st.booleans(),
            "having": st.booleans(),
            "limit": st.booleans(),
        }
    )


def _render(draw, shape) -> str:
    where = ["c_custkey = o_custkey"]
    if shape["segment"] is not None:
        op, flipped = shape["segment"]
        literal = f"'{draw(STRINGS)}'"
        where.append(f"{literal} {op} c_mktsegment" if flipped else f"c_mktsegment {op} {literal}")
    if shape["segments_in"] is not None:
        negated, count = shape["segments_in"]
        items = ", ".join(f"'{draw(STRINGS)}'" for _ in range(count))
        where.append(f"c_mktsegment {'NOT IN' if negated else 'IN'} ({items})")
    if shape["balance"] is not None:
        where.append(f"c_acctbal {shape['balance']} {draw(NUMBERS)}")
    if shape["balances_in"] is not None:
        items = ", ".join(draw(NUMBERS) for _ in range(shape["balances_in"]))
        where.append(f"c_acctbal IN ({items})")
    if shape["date"] is not None:
        where.append(f"o_orderdate {shape['date']} {draw(DATES)}")
    if shape["dates_between"]:
        where.append(f"o_orderdate BETWEEN {draw(DATES)} AND {draw(DATES)}")
    if shape["aggregates"]:
        # Two aggregates that differ only in a literal.
        factors = st.sampled_from(["1", "2", "2.5"])
        select = (
            f"c_mktsegment, sum(c_acctbal * {draw(factors)}) AS a, "
            f"sum(c_acctbal * {draw(factors)}) AS b"
        )
        tail = " GROUP BY c_mktsegment"
        if shape["having"]:
            tail += f" HAVING sum(c_acctbal * {draw(factors)}) > {draw(NUMBERS)}"
        tail += " ORDER BY a"
    else:
        select, tail = "c_custkey, o_orderdate", " ORDER BY o_orderdate"
    if shape["limit"]:
        tail += f" LIMIT {draw(st.integers(1, 500))}"
    return f"SELECT {select} FROM customer, orders WHERE {' AND '.join(where)}{tail}"


@given(st.data())
def test_generated_instances_bind_as_a_full_parse_does(catalog, data):
    binder = Binder(catalog)
    shape = data.draw(_shape())
    for _ in range(4):
        assert_parity(binder, _render(data.draw, shape))
