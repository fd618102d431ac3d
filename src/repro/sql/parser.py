"""Recursive-descent SQL parser: token texts -> unbound AST.

Grammar (roughly):

    select    := SELECT [DISTINCT] item (',' item)*
                 FROM table_ref (',' table_ref | JOIN table_ref ON expr)*
                 [WHERE expr] [GROUP BY column (',' column)*] [HAVING expr]
                 [ORDER BY order_item (',' order_item)*] [LIMIT number] [';']
    expr      := or_expr
    or_expr   := and_expr (OR and_expr)*
    and_expr  := not_expr (AND not_expr)*
    not_expr  := NOT not_expr | predicate
    predicate := additive [comparison | BETWEEN | IN]
    additive  := term (('+'|'-') term)*
    term      := factor (('*'|'/') factor)*
    factor    := '-' factor | primary
    primary   := literal | func '(' ... ')' | column | '(' expr ')'

The parser reads a list of token *texts*, words lower-cased.  Every
literal reads :data:`~repro.sql.parameterize.PARAM` and its ``(kind,
text)`` is the statement's next constant, in token order.  No keyword,
symbol or identifier is spelled ``?``, and a word is a keyword exactly
when it is in ``KEYWORDS``, so a keyword or symbol test is one string
comparison.  Two feeders fill it:

- :func:`parse_parameterized` splits a template key on its single
  spaces: the key already *is* the canonical token stream
  (``parameterize_sql`` joins the token texts and writes ``?`` for each
  literal), so the serving path never lexes a template again;
- :func:`parse` lexes the text, so its ``ParseError`` offsets point into
  it.

A template parse costs ~0.06 ms on the ad-hoc shapes, so nothing keeps
one: each instance is parsed for itself.
"""

from __future__ import annotations

import datetime
import sys
from typing import Callable, NamedTuple

from repro.errors import ParseError, ReproError
from repro.sql.ast_nodes import (
    AstBetween,
    AstBinary,
    AstColumn,
    AstExpr,
    AstFuncCall,
    AstInList,
    AstJoin,
    AstLiteral,
    AstOrderItem,
    AstSelect,
    AstSelectItem,
    AstTableRef,
    AstUnary,
)
from repro.sql.lexer import KEYWORDS, TokenType, tokenize
from repro.sql.parameterize import PARAM

_COMPARISONS = frozenset({"=", "<>", "!=", "<", "<=", ">", ">="})
_FUNCTION_NAMES = frozenset({"sum", "count", "avg", "min", "max", "abs", "year"})
#: The text after the last token.  A token list ends with two, so a
#: one-token lookahead never runs off it.
_END = ""
#: Every token text that is not an identifier.
_NOT_NAMES = frozenset(
    KEYWORDS
    | {"<>", "!=", "<=", ">=", "<", ">", "=", "(", ")", ",", ".", "+", "-", "*", "/", ";"}
    | {PARAM, _END}
)


def parse(sql: str) -> AstSelect:
    """Parse one SELECT statement."""
    texts: list[str] = []
    constants: list[tuple[str, str]] = []
    positions: list[int] = []
    for token in tokenize(sql):
        kind = token.type
        if kind is TokenType.NUMBER or kind is TokenType.STRING:
            texts.append(PARAM)
            constants.append((kind.name, token.text))
        else:
            texts.append(token.text)
        positions.append(token.position)
    texts.append(_END)
    positions.append(positions[-1])
    return _Parser(texts, constants, positions).parse_select()


class TemplateParse(NamedTuple):
    """One instance's parse, and where its literals sit.  ``slots`` maps
    ``id()`` of every literal node in ``stmt`` to its position among the
    constants; ``readers`` holds, per position, the function the parser
    applies to that literal's text (numbers, dates, negation, LIMIT);
    ``limit_slot`` is the LIMIT's position, or ``None``."""

    stmt: AstSelect
    slots: dict[int, int]
    readers: tuple[Callable[[str], object], ...]
    limit_slot: int | None


def parse_parameterized(template_key: str, constants: tuple) -> TemplateParse:
    """Parse the statement a ``(template_key, constants)`` pair stands
    for, from the key's words and the constants, and record its slots.

    Grammar structure depends only on token kinds and keyword/symbol
    text — literal *values* never steer the parser — so every instance
    of a template parses to one statement shape; the binder binds it
    once and fills each later instance's constants into the slots
    recorded here.  Errors carry no offset: there is no text to point
    into.
    """
    texts = list(map(sys.intern, template_key.split(" ")))
    if texts.count(PARAM) != len(constants):
        raise ReproError(
            f"template takes {texts.count(PARAM)} constants, got {len(constants)}"
        )
    texts += (_END, _END)
    parser = _Parser(texts, constants, None)
    stmt = parser.parse_select()
    slots = parser.literal_slots
    return TemplateParse(
        stmt,
        {id(node): i for i, (node, _) in enumerate(slots) if node is not None},
        tuple(reader for _, reader in slots),
        next((i for i, (node, _) in enumerate(slots) if node is None), None),
    )


def _number(text: str) -> int | float:
    return float(text) if "." in text else int(text)


def _limit(text: str) -> int:
    return int(float(text))


def _negated(reader: Callable[[str], object]) -> Callable[[str], object]:
    """The reader of a literal the parser folded a unary minus into."""
    return lambda text: -reader(text)  # type: ignore[operator]


def parse_date(text: str, position: int | None = 0) -> int:
    """Convert ``YYYY-MM-DD`` into epoch days (the engine's date encoding)."""
    try:
        parsed = datetime.date.fromisoformat(text)
    except ValueError as exc:
        raise ParseError(f"invalid date literal {text!r}: {exc}", position) from None
    return (parsed - datetime.date(1970, 1, 1)).days


class _Parser:
    __slots__ = ("_texts", "_constants", "_positions", "_pos", "literal_slots")

    def __init__(
        self, texts: list[str], constants: tuple | list, positions: list[int] | None
    ) -> None:
        self._texts = texts
        self._constants = constants
        #: Each token's offset into the source text, or ``None``.
        self._positions = positions
        self._pos = 0
        #: One ``[literal node, reader]`` per literal token consumed, in
        #: token order: the node the literal became (``None`` for LIMIT's
        #: number) and the function that read its text (see
        #: :func:`parse_parameterized`).  Its length indexes the next
        #: literal's constant.
        self.literal_slots: list[list] = []

    # ------------------------------------------------------------------ #
    # Token helpers
    # ------------------------------------------------------------------ #
    def _accept(self, text: str) -> bool:
        """Consume the next token if it reads ``text`` (a keyword or a
        symbol)."""
        if self._texts[self._pos] == text:
            self._pos += 1
            return True
        return False

    def _expect(self, text: str) -> None:
        if self._texts[self._pos] != text:
            wanted = text.upper() if text in KEYWORDS else repr(text)
            raise self._error(f"expected {wanted}, found {self._found()!r}")
        self._pos += 1

    def _name(self) -> str:
        text = self._texts[self._pos]
        if text in _NOT_NAMES:
            raise self._error(f"expected identifier, found {self._found()!r}")
        self._pos += 1
        return text

    def _constant(self) -> tuple[str, str]:
        """The next literal's ``(kind, text)``."""
        return self._constants[len(self.literal_slots)]

    def _found(self) -> str:
        """The next token as written: a literal's own text."""
        text = self._texts[self._pos]
        return self._constant()[1] if text == PARAM else text

    def _position(self, index: int) -> int | None:
        return None if self._positions is None else self._positions[index]

    def _error(self, message: str, index: int | None = None) -> ParseError:
        """An error at the token ``index`` (the next token by default)."""
        return ParseError(message, self._position(self._pos if index is None else index))

    # ------------------------------------------------------------------ #
    # Statement
    # ------------------------------------------------------------------ #
    def parse_select(self) -> AstSelect:
        texts = self._texts
        self._expect("select")
        stmt = AstSelect()
        stmt.distinct = self._accept("distinct")
        stmt.items.append(self._select_item())
        while self._accept(","):
            stmt.items.append(self._select_item())

        self._expect("from")
        stmt.tables.append(self._table_ref())
        while True:
            text = texts[self._pos]
            if text == ",":
                self._pos += 1
                stmt.tables.append(self._table_ref())
            elif text == "inner" or text == "join":
                self._accept("inner")
                self._expect("join")
                table = self._table_ref()
                self._expect("on")
                stmt.joins.append(AstJoin(table=table, condition=self._or_expr()))
            else:
                break

        if self._accept("where"):
            stmt.where = self._or_expr()
        if self._accept("group"):
            self._expect("by")
            stmt.group_by.append(self._group_column())
            while self._accept(","):
                stmt.group_by.append(self._group_column())
        if self._accept("having"):
            stmt.having = self._or_expr()
        if self._accept("order"):
            self._expect("by")
            stmt.order_by.append(self._order_item())
            while self._accept(","):
                stmt.order_by.append(self._order_item())
        if self._accept("limit"):
            if texts[self._pos] != PARAM or self._constant()[0] != "NUMBER":
                raise self._error("LIMIT requires a number")
            stmt.limit = _limit(self._constant()[1])
            self._pos += 1
            self.literal_slots.append([None, _limit])
        self._accept(";")
        if texts[self._pos] != _END:
            raise self._error(f"unexpected trailing input {self._found()!r}")
        return stmt

    def _alias(self) -> str | None:
        """``AS name``, a bare name, or nothing."""
        if self._accept("as") or self._texts[self._pos] not in _NOT_NAMES:
            return self._name()
        return None

    def _select_item(self) -> AstSelectItem:
        expr = self._or_expr()
        return AstSelectItem(expr=expr, alias=self._alias())

    def _table_ref(self) -> AstTableRef:
        name = self._name()
        return AstTableRef(name=name, alias=self._alias())

    def _group_column(self) -> AstColumn:
        expr = self._or_expr()
        if not isinstance(expr, AstColumn):
            raise self._error("GROUP BY supports plain columns only")
        return expr

    def _order_item(self) -> AstOrderItem:
        expr = self._or_expr()
        if self._accept("desc"):
            return AstOrderItem(expr=expr, ascending=False)
        self._accept("asc")
        return AstOrderItem(expr=expr, ascending=True)

    # ------------------------------------------------------------------ #
    # Expressions
    # ------------------------------------------------------------------ #
    def _or_expr(self) -> AstExpr:
        left = self._and_expr()
        while self._texts[self._pos] == "or":
            self._pos += 1
            left = AstBinary("or", left, self._and_expr())
        return left

    def _and_expr(self) -> AstExpr:
        left = self._not_expr()
        while self._texts[self._pos] == "and":
            self._pos += 1
            left = AstBinary("and", left, self._not_expr())
        return left

    def _not_expr(self) -> AstExpr:
        if self._texts[self._pos] == "not":
            self._pos += 1
            return AstUnary("not", self._not_expr())
        return self._predicate()

    def _predicate(self) -> AstExpr:
        left = self._additive()
        texts = self._texts
        text = texts[self._pos]
        if text in _COMPARISONS:
            self._pos += 1
            return AstBinary("<>" if text == "!=" else text, left, self._additive())
        negated = text == "not" and texts[self._pos + 1] in ("between", "in")
        if negated:
            self._pos += 1
            text = texts[self._pos]
        if text == "between":
            self._pos += 1
            low = self._additive()
            self._expect("and")
            return AstBetween(left, low, self._additive(), negated=negated)
        if text == "in":
            self._pos += 1
            self._expect("(")
            values = [self._literal()]
            while self._accept(","):
                values.append(self._literal())
            self._expect(")")
            return AstInList(left, tuple(values), negated=negated)
        return left

    def _additive(self) -> AstExpr:
        left = self._term()
        texts = self._texts
        while True:
            text = texts[self._pos]
            if text != "+" and text != "-":
                return left
            self._pos += 1
            left = AstBinary(text, left, self._term())

    def _term(self) -> AstExpr:
        left = self._factor()
        texts = self._texts
        while True:
            text = texts[self._pos]
            if text != "*" and text != "/":
                return left
            self._pos += 1
            left = AstBinary(text, left, self._factor())

    def _factor(self) -> AstExpr:
        if self._texts[self._pos] == "-":
            self._pos += 1
            return AstUnary("-", self._factor())
        return self._primary()

    def _primary(self) -> AstExpr:
        texts = self._texts
        pos = self._pos
        text = texts[pos]
        if text == PARAM:
            self._pos = pos + 1
            kind, value = self._constant()
            if kind == "NUMBER":
                node = AstLiteral(_number(value))
                self.literal_slots.append([node, _number])
            else:
                node = AstLiteral(value)
                self.literal_slots.append([node, str])
            return node
        if text == "date":
            pos += 1
            if texts[pos] != PARAM or self._constant()[0] != "STRING":
                raise self._error("DATE must be followed by a string", pos)
            self._pos = pos + 1
            days = parse_date(self._constant()[1], self._position(pos))
            node = AstLiteral(days, is_date=True)
            self.literal_slots.append([node, parse_date])
            return node
        if text == "(":
            self._pos = pos + 1
            inner = self._or_expr()
            self._expect(")")
            return inner
        if text not in _NOT_NAMES:
            following = texts[pos + 1]
            if following == "(" and text in _FUNCTION_NAMES:
                return self._func_call()
            if following == ".":
                self._pos = pos + 2
                return AstColumn(name=self._name(), qualifier=text)
            self._pos = pos + 1
            return AstColumn(name=text)
        raise self._error(f"unexpected token {self._found()!r}")

    def _literal(self) -> AstLiteral:
        expr = self._factor()
        if isinstance(expr, AstUnary) and expr.op == "-" and isinstance(expr.operand, AstLiteral):
            value = expr.operand.value
            if isinstance(value, str):
                raise self._error("cannot negate a string literal")
            node = AstLiteral(-value)
            # The negation folds into the literal: repoint its slot at
            # the folded node and read its text negated.
            slot = self.literal_slots[-1]
            assert slot[0] is expr.operand
            slot[0] = node
            slot[1] = _negated(slot[1])
            return node
        if not isinstance(expr, AstLiteral):
            raise self._error("expected a literal value")
        return expr

    def _func_call(self) -> AstExpr:
        start = self._pos
        name = self._texts[start]
        self._pos = start + 2  # the name and its "("
        if self._accept("*"):
            self._expect(")")
            if name != "count":
                raise self._error(f"{name}(*) is not supported", start)
            return AstFuncCall(name=name, args=(), star=True)
        distinct = self._accept("distinct")
        args = [self._or_expr()]
        while self._accept(","):
            args.append(self._or_expr())
        self._expect(")")
        return AstFuncCall(name=name, args=tuple(args), distinct=distinct)
