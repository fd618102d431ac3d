"""Recursive-descent SQL parser: token stream -> unbound AST.

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
"""

from __future__ import annotations

import datetime
import threading
from collections import OrderedDict
from typing import Callable, NamedTuple

from repro.errors import ParseError
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
from repro.sql.lexer import Token, TokenType, tokenize

_COMPARISONS = {"=", "<>", "!=", "<", "<=", ">", ">="}
_FUNCTION_NAMES = {"sum", "count", "avg", "min", "max", "abs", "year"}


def parse(sql: str) -> AstSelect:
    """Parse one SELECT statement."""
    return _Parser(tokenize(sql)).parse_select()


class TemplateParse(NamedTuple):
    """One template's parse: the statement as parsed from an instance
    (whose ``constants`` it keeps), and where its literals sit.
    ``slots`` maps ``id()`` of every literal node in ``stmt`` to its
    position among the constants; ``readers`` holds, per position, the
    function the parser applies to that literal's token text (numbers,
    dates, negation, LIMIT); ``limit_slot`` is the LIMIT's position, or
    ``None``."""

    stmt: AstSelect
    constants: tuple
    slots: dict[int, int]
    readers: tuple[Callable[[str], object], ...]
    limit_slot: int | None


class MemoInfo(NamedTuple):
    """A process-wide memo's traffic and size, with the field names of
    ``functools.lru_cache``'s ``cache_info()``."""

    hits: int
    misses: int
    maxsize: int
    currsize: int


#: Template parses keyed on ``(template key, literal kinds)``, least
#: recently used first; the entries are pure functions of the key.
#: Process-wide because a warehouse built later in the process reuses
#: the parses of one built earlier.
_TEMPLATE_CACHE: OrderedDict = OrderedDict()  # lint-allow: process-memo without it adhoc_cold p50 rose 5-13 % and setup_s 13-41 % (4 of 4 pairs): later set-ups reuse the first's parses
_TEMPLATE_CACHE_CAP = 4096
_TEMPLATE_LOCK = threading.Lock()
_template_hits = 0
_template_misses = 0


def parse_parameterized(
    template_key: str, constants: tuple, sql: str = ""
) -> TemplateParse:
    """The parse of a ``(template_key, constants)`` pair's template.

    Grammar structure depends only on token kinds and keyword/symbol
    text — literal *values* never steer the parser — so all instances of
    a template whose literals have the same kinds parse to one statement
    shape.  It is parsed once per process; the binder binds it once and
    fills each instance's constants into the slots recorded here.  A
    template seen for the first time is parsed from ``sql`` (the text the
    pair was split from) or, without it, from the text the pair renders
    to.
    """
    global _template_hits, _template_misses
    key = (template_key, tuple(kind for kind, _ in constants))
    with _TEMPLATE_LOCK:
        found = _TEMPLATE_CACHE.get(key)
        if found is not None:
            _template_hits += 1
            _TEMPLATE_CACHE.move_to_end(key)
            return found
        _template_misses += 1
    found = parse_template(template_key, constants, sql)
    with _TEMPLATE_LOCK:
        found = _TEMPLATE_CACHE.setdefault(key, found)
        if len(_TEMPLATE_CACHE) > _TEMPLATE_CACHE_CAP:
            _TEMPLATE_CACHE.popitem(last=False)
    return found


def template_cache_info() -> MemoInfo:
    """Hits, misses, capacity and live entries of the template-parse
    memo behind :func:`parse_parameterized`."""
    with _TEMPLATE_LOCK:
        return MemoInfo(
            _template_hits, _template_misses, _TEMPLATE_CACHE_CAP, len(_TEMPLATE_CACHE)
        )


def parse_template(template_key: str, constants: tuple, sql: str = "") -> TemplateParse:
    """This very instance's template parse, kept nowhere: what
    :func:`parse_parameterized` caches, and what a binder binds when the
    cached parse's literals do not bind (see :mod:`repro.sql.binder`)."""
    from repro.sql.parameterize import bind_constants

    parser = _Parser(tokenize(sql or bind_constants(template_key, constants)))
    stmt = parser.parse_select()
    slots = parser.literal_slots
    return TemplateParse(
        stmt,
        constants,
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


def parse_date(text: str, position: int = 0) -> int:
    """Convert ``YYYY-MM-DD`` into epoch days (the engine's date encoding)."""
    try:
        parsed = datetime.date.fromisoformat(text)
    except ValueError as exc:
        raise ParseError(f"invalid date literal {text!r}: {exc}", position) from None
    return (parsed - datetime.date(1970, 1, 1)).days


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0
        #: One ``[literal node, reader]`` per literal token consumed, in
        #: token order: the node the literal became (``None`` for LIMIT's
        #: number) and the function that read its token text (see
        #: :func:`parse_parameterized`).
        self.literal_slots: list[list] = []

    # ------------------------------------------------------------------ #
    # Token helpers
    # ------------------------------------------------------------------ #
    def _peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _accept_keyword(self, word: str) -> bool:
        if self._peek().is_keyword(word):
            self._advance()
            return True
        return False

    def _accept_symbol(self, symbol: str) -> bool:
        if self._peek().is_symbol(symbol):
            self._advance()
            return True
        return False

    def _expect_keyword(self, word: str) -> Token:
        token = self._peek()
        if not token.is_keyword(word):
            raise ParseError(f"expected {word.upper()}, found {token.text!r}", token.position)
        return self._advance()

    def _expect_symbol(self, symbol: str) -> Token:
        token = self._peek()
        if not token.is_symbol(symbol):
            raise ParseError(f"expected {symbol!r}, found {token.text!r}", token.position)
        return self._advance()

    def _expect_ident(self) -> Token:
        token = self._peek()
        if token.type is not TokenType.IDENT:
            raise ParseError(f"expected identifier, found {token.text!r}", token.position)
        return self._advance()

    # ------------------------------------------------------------------ #
    # Statement
    # ------------------------------------------------------------------ #
    def parse_select(self) -> AstSelect:
        self._expect_keyword("select")
        stmt = AstSelect()
        stmt.distinct = self._accept_keyword("distinct")
        stmt.items.append(self._select_item())
        while self._accept_symbol(","):
            stmt.items.append(self._select_item())

        self._expect_keyword("from")
        stmt.tables.append(self._table_ref())
        while True:
            if self._accept_symbol(","):
                stmt.tables.append(self._table_ref())
                continue
            if self._peek().is_keyword("inner") or self._peek().is_keyword("join"):
                self._accept_keyword("inner")
                self._expect_keyword("join")
                table = self._table_ref()
                self._expect_keyword("on")
                condition = self.expr()
                stmt.joins.append(AstJoin(table=table, condition=condition))
                continue
            break

        if self._accept_keyword("where"):
            stmt.where = self.expr()
        if self._accept_keyword("group"):
            self._expect_keyword("by")
            stmt.group_by.append(self._group_column())
            while self._accept_symbol(","):
                stmt.group_by.append(self._group_column())
        if self._accept_keyword("having"):
            stmt.having = self.expr()
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            stmt.order_by.append(self._order_item())
            while self._accept_symbol(","):
                stmt.order_by.append(self._order_item())
        if self._accept_keyword("limit"):
            token = self._peek()
            if token.type is not TokenType.NUMBER:
                raise ParseError("LIMIT requires a number", token.position)
            self._advance()
            stmt.limit = _limit(token.text)
            self.literal_slots.append([None, _limit])
        self._accept_symbol(";")
        tail = self._peek()
        if tail.type is not TokenType.EOF:
            raise ParseError(f"unexpected trailing input {tail.text!r}", tail.position)
        return stmt

    def _select_item(self) -> AstSelectItem:
        expr = self.expr()
        alias: str | None = None
        if self._accept_keyword("as"):
            alias = self._expect_ident().text
        elif self._peek().type is TokenType.IDENT:
            alias = self._advance().text
        return AstSelectItem(expr=expr, alias=alias)

    def _table_ref(self) -> AstTableRef:
        name = self._expect_ident().text
        alias: str | None = None
        if self._accept_keyword("as"):
            alias = self._expect_ident().text
        elif self._peek().type is TokenType.IDENT:
            alias = self._advance().text
        return AstTableRef(name=name, alias=alias)

    def _group_column(self) -> AstColumn:
        expr = self.expr()
        if not isinstance(expr, AstColumn):
            raise ParseError("GROUP BY supports plain columns only", self._peek().position)
        return expr

    def _order_item(self) -> AstOrderItem:
        expr = self.expr()
        ascending = True
        if self._accept_keyword("asc"):
            ascending = True
        elif self._accept_keyword("desc"):
            ascending = False
        return AstOrderItem(expr=expr, ascending=ascending)

    # ------------------------------------------------------------------ #
    # Expressions
    # ------------------------------------------------------------------ #
    def expr(self) -> AstExpr:
        return self._or_expr()

    def _or_expr(self) -> AstExpr:
        left = self._and_expr()
        while self._accept_keyword("or"):
            left = AstBinary("or", left, self._and_expr())
        return left

    def _and_expr(self) -> AstExpr:
        left = self._not_expr()
        while self._accept_keyword("and"):
            left = AstBinary("and", left, self._not_expr())
        return left

    def _not_expr(self) -> AstExpr:
        if self._accept_keyword("not"):
            return AstUnary("not", self._not_expr())
        return self._predicate()

    def _predicate(self) -> AstExpr:
        left = self._additive()
        token = self._peek()
        if token.type is TokenType.SYMBOL and token.text in _COMPARISONS:
            self._advance()
            op = "<>" if token.text == "!=" else token.text
            return AstBinary(op, left, self._additive())
        negated = False
        if token.is_keyword("not"):
            lookahead = self._peek(1)
            if lookahead.is_keyword("between") or lookahead.is_keyword("in"):
                self._advance()
                negated = True
                token = self._peek()
        if token.is_keyword("between"):
            self._advance()
            low = self._additive()
            self._expect_keyword("and")
            high = self._additive()
            return AstBetween(left, low, high, negated=negated)
        if token.is_keyword("in"):
            self._advance()
            self._expect_symbol("(")
            values = [self._literal()]
            while self._accept_symbol(","):
                values.append(self._literal())
            self._expect_symbol(")")
            return AstInList(left, tuple(values), negated=negated)
        if negated:
            raise ParseError("expected BETWEEN or IN after NOT", token.position)
        return left

    def _additive(self) -> AstExpr:
        left = self._term()
        while True:
            token = self._peek()
            if token.is_symbol("+") or token.is_symbol("-"):
                self._advance()
                left = AstBinary(token.text, left, self._term())
            else:
                return left

    def _term(self) -> AstExpr:
        left = self._factor()
        while True:
            token = self._peek()
            if token.is_symbol("*") or token.is_symbol("/"):
                self._advance()
                left = AstBinary(token.text, left, self._factor())
            else:
                return left

    def _factor(self) -> AstExpr:
        if self._accept_symbol("-"):
            return AstUnary("-", self._factor())
        return self._primary()

    def _primary(self) -> AstExpr:
        token = self._peek()
        if token.type is TokenType.NUMBER:
            self._advance()
            node = AstLiteral(_number(token.text))
            self.literal_slots.append([node, _number])
            return node
        if token.type is TokenType.STRING:
            self._advance()
            node = AstLiteral(token.text)
            self.literal_slots.append([node, str])
            return node
        if token.is_keyword("date"):
            self._advance()
            literal = self._peek()
            if literal.type is not TokenType.STRING:
                raise ParseError("DATE must be followed by a string", literal.position)
            self._advance()
            node = AstLiteral(parse_date(literal.text, literal.position), is_date=True)
            self.literal_slots.append([node, parse_date])
            return node
        if token.is_symbol("("):
            self._advance()
            inner = self.expr()
            self._expect_symbol(")")
            return inner
        if token.type is TokenType.IDENT:
            if token.text in _FUNCTION_NAMES and self._peek(1).is_symbol("("):
                return self._func_call()
            self._advance()
            if self._accept_symbol("."):
                column = self._expect_ident()
                return AstColumn(name=column.text, qualifier=token.text)
            return AstColumn(name=token.text)
        raise ParseError(f"unexpected token {token.text!r}", token.position)

    def _literal(self) -> AstLiteral:
        expr = self._factor()
        if isinstance(expr, AstUnary) and expr.op == "-" and isinstance(expr.operand, AstLiteral):
            value = expr.operand.value
            if isinstance(value, str):
                raise ParseError("cannot negate a string literal", self._peek().position)
            node = AstLiteral(-value)
            # The negation folds into the literal: repoint its slot at
            # the folded node and read its text negated.
            slot = self.literal_slots[-1]
            assert slot[0] is expr.operand
            slot[0] = node
            slot[1] = _negated(slot[1])
            return node
        if not isinstance(expr, AstLiteral):
            raise ParseError("expected a literal value", self._peek().position)
        return expr

    def _func_call(self) -> AstExpr:
        name_token = self._advance()
        name = name_token.text
        self._expect_symbol("(")
        if self._accept_symbol("*"):
            self._expect_symbol(")")
            if name != "count":
                raise ParseError(f"{name}(*) is not supported", name_token.position)
            return AstFuncCall(name=name, args=(), star=True)
        distinct = self._accept_keyword("distinct")
        args = [self.expr()]
        while self._accept_symbol(","):
            args.append(self.expr())
        self._expect_symbol(")")
        return AstFuncCall(name=name, args=tuple(args), distinct=distinct)
