import pytest

from repro.errors import ParseError
from repro.sql.lexer import TokenType, tokenize


def kinds(sql):
    return [(t.type, t.text) for t in tokenize(sql)[:-1]]


def test_keywords_case_insensitive():
    assert kinds("SELECT select SeLeCt") == [(TokenType.KEYWORD, "select")] * 3


def test_identifiers_lowercased():
    assert kinds("Lineitem")[0] == (TokenType.IDENT, "lineitem")


def test_numbers():
    assert kinds("1 2.5 0.75") == [
        (TokenType.NUMBER, "1"),
        (TokenType.NUMBER, "2.5"),
        (TokenType.NUMBER, "0.75"),
    ]


def test_qualified_name_not_decimal():
    assert kinds("t1.c2") == [
        (TokenType.IDENT, "t1"),
        (TokenType.SYMBOL, "."),
        (TokenType.IDENT, "c2"),
    ]


def test_string_literal_with_escape():
    tokens = tokenize("'it''s'")
    assert tokens[0].type is TokenType.STRING
    assert tokens[0].text == "it's"


def test_unterminated_string():
    with pytest.raises(ParseError):
        tokenize("'oops")


def test_multichar_symbols_greedy():
    assert [t for _, t in kinds("a <= b <> c >= d")] == ["a", "<=", "b", "<>", "c", ">=", "d"]


def test_line_comments_skipped():
    tokens = tokenize("select -- comment here\n 1")
    assert [t.text for t in tokens[:-1]] == ["select", "1"]


def test_unexpected_character():
    with pytest.raises(ParseError):
        tokenize("select @")


def test_eof_token_present():
    assert tokenize("")[-1].type is TokenType.EOF
