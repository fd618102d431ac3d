"""Tests for template parameterization (literal extraction).

The serving layer's two-level plan cache rests on two properties:

- normalization is whitespace/case/comment-insensitive but keeps
  literals distinct (the exact-match level);
- ``(template_key, constants)`` is a lossless factorization of the
  normalized string, and re-binding the constants reproduces the
  original query's semantics (the skeleton level).

Both keys are plain strings (``tests/sql/test_lexer_parity.py`` holds
them to the token stream they stand for).
"""

import pickle
import sys

import pytest

from repro.errors import ReproError
from repro.sql.parameterize import (
    PARAM,
    bind_constants,
    normalize_sql,
    parameterize_sql,
)
from repro.sql.parser import parse, parse_parameterized
from repro.workloads.tpch_queries import instantiate, template_names


# --------------------------- normalization ---------------------------- #
def test_normalize_collapses_case_whitespace_comments():
    variants = [
        "SELECT a FROM t WHERE a < 5",
        "select A\n  from T\twhere a<5",
        "select a from t -- trailing comment\nwhere a < 5",
        "SELECT a -- c1\n-- c2\nFROM t WHERE a < 5",
    ]
    keys = {normalize_sql(sql) for sql in variants}
    assert len(keys) == 1


def test_normalize_keeps_literals_distinct():
    assert normalize_sql("SELECT a FROM t WHERE a < 5") != normalize_sql(
        "SELECT a FROM t WHERE a < 6"
    )
    assert normalize_sql("SELECT a FROM t WHERE s = 'X'") != normalize_sql(
        "SELECT a FROM t WHERE s = 'Y'"
    )


# ------------------------- literal extraction ------------------------- #
def test_extracts_numeric_and_string_literals_in_order():
    parameterized = parameterize_sql(
        "SELECT a FROM t WHERE s = 'hello' AND a BETWEEN 1 AND 2.5"
    )
    assert parameterized.constants == (
        ("STRING", "hello"),
        ("NUMBER", "1"),
        ("NUMBER", "2.5"),
    )
    assert parameterized.template_key.split().count(PARAM) == 3
    # Structural tokens keep their identity.
    assert parameterized.template_key.split()[0] == "select"
    assert parameterized.template_key == (
        "select a from t where s = ? and a between ? and ?"
    )


def test_literal_varying_queries_share_a_template():
    a = parameterize_sql("SELECT a FROM t WHERE a < 5")
    b = parameterize_sql("select a from t where a < 99")
    assert a.template_key == b.template_key
    assert a.constants != b.constants
    assert a.normalized != b.normalized


def test_string_and_number_templates_differ_from_structure():
    # A literal's kind lives in the constants, not the template, so the
    # same shape with a string vs a number shares a template key.
    a = parameterize_sql("SELECT a FROM t WHERE a = 5")
    b = parameterize_sql("SELECT a FROM t WHERE a = 'x'")
    assert a.template_key == b.template_key
    assert a.constants[0][0] == "NUMBER"
    assert b.constants[0][0] == "STRING"


def test_bind_constants_is_inverse_of_extraction():
    for name in template_names():
        sql = instantiate(name, seed=7)
        parameterized = parameterize_sql(sql)
        rebound = bind_constants(
            parameterized.template_key, parameterized.constants
        )
        assert rebound == normalize_sql(sql)
        assert rebound == parameterized.normalized


def test_bind_constants_arity_mismatch_raises():
    parameterized = parameterize_sql("SELECT a FROM t WHERE a < 5")
    with pytest.raises(ReproError):
        bind_constants(parameterized.template_key, ())
    with pytest.raises(ReproError):
        bind_constants(
            parameterized.template_key,
            parameterized.constants + (("NUMBER", "1"),),
        )


# ------------------------------ round trip ---------------------------- #
@pytest.mark.parametrize("template", template_names())
def test_render_roundtrip_reproduces_semantics(template, big_binder):
    """Re-rendering extracted constants yields a query that binds to the
    same bound-query graph as the original text (property test over the
    whole template pool)."""
    for seed in (1, 5, 11):
        sql = instantiate(template, seed=seed)
        parameterized = parameterize_sql(sql)
        rendered = bind_constants(
            parameterized.template_key, parameterized.constants
        )
        assert rendered == parameterized.normalized
        assert normalize_sql(rendered) == parameterized.normalized
        original = big_binder.bind_sql(sql)
        roundtrip = big_binder.bind_sql(rendered)
        assert [f.sql() for fs in original.filters.values() for f in fs] == [
            f.sql() for fs in roundtrip.filters.values() for f in fs
        ]
        assert original.table_names == roundtrip.table_names
        assert [e.sql() for e in original.select_exprs] == [
            e.sql() for e in roundtrip.select_exprs
        ]
        assert original.limit == roundtrip.limit


def test_string_literal_quotes_roundtrip():
    sql = "SELECT a FROM t WHERE s = 'it''s'"
    parameterized = parameterize_sql(sql)
    assert parameterized.constants == (("STRING", "it's"),)
    rendered = bind_constants(parameterized.template_key, parameterized.constants)
    assert rendered == parameterized.normalized == "select a from t where s = 'it''s'"
    assert normalize_sql(rendered) == parameterized.normalized


# ------------------------- template-AST cache ------------------------- #
@pytest.mark.parametrize("template", template_names())
def test_parse_parameterized_matches_full_parse(template):
    """Substituting fresh constants into the cached template AST yields
    exactly the AST a full parse of the text produces."""
    for seed in (2, 3, 9):
        sql = instantiate(template, seed=seed)
        parameterized = parameterize_sql(sql)
        cached = parse_parameterized(
            parameterized.template_key, parameterized.constants
        )
        direct = parse(sql)
        assert str(cached.__dict__) == str(direct.__dict__)


def test_parse_parameterized_negated_date_matches_full_parse():
    """Regression: the negation fold drops the date flag; substitution
    must mirror that, or cache hit/miss changes the AST."""
    first = "SELECT a FROM t WHERE x IN ((-DATE '1996-02-02'))"
    second = "SELECT a FROM t WHERE x IN ((-DATE '1997-05-09'))"
    p1 = parameterize_sql(first)
    p2 = parameterize_sql(second)
    assert p1.template_key == p2.template_key
    parse_parameterized(p1.template_key, p1.constants)  # populate cache
    substituted = parse_parameterized(p2.template_key, p2.constants)
    assert str(substituted.__dict__) == str(parse(second).__dict__)


def test_parse_parameterized_substitutes_limit_and_dates():
    first = "SELECT a FROM t WHERE d >= DATE '1995-03-04' LIMIT 2"
    second = "SELECT a FROM t WHERE d >= DATE '1996-07-01' LIMIT 9"
    p1 = parameterize_sql(first)
    p2 = parameterize_sql(second)
    assert p1.template_key == p2.template_key
    parse_parameterized(p1.template_key, p1.constants)  # populate cache
    substituted = parse_parameterized(p2.template_key, p2.constants)
    assert str(substituted.__dict__) == str(parse(second).__dict__)
    assert substituted.limit == 9


def test_bind_parameterized_matches_bind_sql(big_binder):
    sql = instantiate("q5_local_supplier", seed=4)
    parameterized = parameterize_sql(sql)
    via_template = big_binder.bind_parameterized(
        parameterized.template_key, parameterized.constants, sql=sql
    )
    direct = big_binder.bind_sql(sql)
    assert via_template.table_names == direct.table_names
    assert [e.sql() for e in via_template.select_exprs] == [
        e.sql() for e in direct.select_exprs
    ]


# ------------------------------- keys --------------------------------- #
def test_keys_are_plain_strings_and_templates_are_interned():
    """What ``HashedKey`` was for — equal to and hashing like the plain
    value, hashed once — is what a ``str`` does; instances of a template
    share one interned key object, here and across a pickle."""
    a = parameterize_sql("SELECT a FROM t WHERE a = 1")
    b = parameterize_sql("select a  from t where a = 22")
    assert type(a.template_key) is type(a.normalized) is str
    assert a.normalized == "select a from t where a = 1"
    assert hash(a.normalized) == hash("select a from t where a = 1")
    assert a.template_key is b.template_key
    assert pickle.loads(pickle.dumps(a)) == a


def _reachable_bytes(roots) -> int:
    """``sys.getsizeof`` summed over every distinct object reachable from
    ``roots`` through tuples and instance dicts."""
    sizes: dict[int, int] = {}
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in sizes:
            continue
        sizes[id(obj)] = sys.getsizeof(obj)
        if isinstance(obj, tuple):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif hasattr(obj, "__dict__"):
            stack.append(obj.__dict__)
    return sum(sizes.values())


@pytest.mark.parametrize("template", template_names())
def test_identity_footprint_stays_small(template):
    """The identity is what every served SQL string leaves behind in the
    4,096-entry memo (≈ 4,960 bytes an entry as two token tuples): all
    instances of a template share one key object, and an entry — that
    shared key counted once — stays under 1,200 bytes."""
    instances = [
        parameterize_sql(instantiate(template, seed=seed)) for seed in range(50)
    ]
    assert all(p.template_key is instances[0].template_key for p in instances)
    assert len({p.normalized for p in instances}) > 1
    assert _reachable_bytes(instances) / len(instances) <= 1200
