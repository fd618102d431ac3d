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


#: Parsed template ASTs keyed on the literal-free template key:
#: ``(statement, slot specs, id(literal node) -> slot index, limit slot
#: index or None)``.  Bounded by wholesale reset — template pools are
#: tiny next to the cap, and the entries are pure functions of the key.
_TEMPLATE_CACHE: dict = {}
_TEMPLATE_CACHE_CAP = 4096


def parse_parameterized(
    template_key: str, constants: tuple, sql: str = ""
) -> AstSelect:
    """Parse a ``(template_key, constants)`` pair, reusing the template.

    Grammar structure depends only on token kinds and keyword/symbol
    text — literal *values* never steer the parser — so the template's
    AST is parsed once and subsequent instantiations substitute fresh
    constants into a structural copy: bit-identical to re-parsing the
    full token stream, minus the token walk.  Error cases a real parse
    would reject (a non-string after DATE, a negated string, a
    non-numeric LIMIT) are re-checked during substitution.  A template
    seen for the first time is lexed from ``sql`` (the text the pair was
    split from) or, without it, from the identity the pair renders to.
    """
    from repro.sql.parameterize import bind_constants

    entry = _TEMPLATE_CACHE.get(template_key)
    if entry is None:
        parser = _Parser(tokenize(sql or bind_constants(template_key, constants)))
        stmt = parser.parse_select()
        slots = parser.literal_slots
        if len(slots) != len(constants):
            # A literal token the parser consumed outside the recorded
            # slots would make substitution unsound; fall back to plain
            # parsing for this template.
            entry = None
        else:
            id_map = {
                id(marker): index
                for index, (marker, kind, _) in enumerate(slots)
                if kind != "limit"
            }
            limit_slot = next(
                (i for i, (_, kind, _) in enumerate(slots) if kind == "limit"),
                None,
            )
            specs = tuple((kind, negated) for _, kind, negated in slots)
            if len(_TEMPLATE_CACHE) >= _TEMPLATE_CACHE_CAP:
                _TEMPLATE_CACHE.clear()
            _TEMPLATE_CACHE[template_key] = (stmt, specs, id_map, limit_slot)
        return stmt

    stmt, specs, id_map, limit_slot = entry
    values = [
        _slot_value(kind, negated, constant)
        for (kind, negated), constant in zip(specs, constants)
    ]
    return _substitute_select(stmt, id_map, values, limit_slot)


def _slot_value(kind: str, negated: bool, constant: tuple[str, str]):
    token_kind, text = constant
    if kind == "limit":
        if token_kind != TokenType.NUMBER.name:
            raise ParseError("LIMIT requires a number", 0)
        return int(float(text))
    if kind == "date":
        if token_kind != TokenType.STRING.name:
            raise ParseError("DATE must be followed by a string", 0)
        value: int | float | str = parse_date(text)
    elif token_kind == TokenType.NUMBER.name:
        value = float(text) if "." in text else int(text)
    else:
        value = text
    if negated:
        if isinstance(value, str):
            raise ParseError("cannot negate a string literal", 0)
        # The parser's negation fold builds a plain AstLiteral(-value)
        # without the date flag; mirror it exactly.
        return AstLiteral(-value)
    return AstLiteral(value, is_date=(kind == "date"))


def _substitute_expr(node: AstExpr, id_map: dict, values: list) -> AstExpr:
    index = id_map.get(id(node))
    if index is not None:
        return values[index]
    if isinstance(node, AstBinary):
        left = _substitute_expr(node.left, id_map, values)
        right = _substitute_expr(node.right, id_map, values)
        if left is node.left and right is node.right:
            return node
        return AstBinary(node.op, left, right)
    if isinstance(node, AstUnary):
        operand = _substitute_expr(node.operand, id_map, values)
        return node if operand is node.operand else AstUnary(node.op, operand)
    if isinstance(node, AstBetween):
        operand = _substitute_expr(node.operand, id_map, values)
        low = _substitute_expr(node.low, id_map, values)
        high = _substitute_expr(node.high, id_map, values)
        if operand is node.operand and low is node.low and high is node.high:
            return node
        return AstBetween(operand, low, high, node.negated)
    if isinstance(node, AstInList):
        in_values = tuple(
            _substitute_expr(value, id_map, values) for value in node.values
        )
        operand = _substitute_expr(node.operand, id_map, values)
        if operand is node.operand and all(
            new is old for new, old in zip(in_values, node.values)
        ):
            return node
        return AstInList(operand, in_values, node.negated)  # type: ignore[arg-type]
    if isinstance(node, AstFuncCall):
        args = tuple(_substitute_expr(arg, id_map, values) for arg in node.args)
        if all(new is old for new, old in zip(args, node.args)):
            return node
        return AstFuncCall(node.name, args, node.distinct, node.star)
    # Columns and unmapped literals carry no substitutable state.
    return node


def _substitute_select(
    stmt: AstSelect, id_map: dict, values: list, limit_slot: int | None
) -> AstSelect:
    fresh = AstSelect()
    fresh.items = [
        AstSelectItem(_substitute_expr(item.expr, id_map, values), item.alias)
        for item in stmt.items
    ]
    fresh.tables = list(stmt.tables)
    fresh.joins = [
        AstJoin(join.table, _substitute_expr(join.condition, id_map, values))
        for join in stmt.joins
    ]
    if stmt.where is not None:
        fresh.where = _substitute_expr(stmt.where, id_map, values)
    fresh.group_by = list(stmt.group_by)
    if stmt.having is not None:
        fresh.having = _substitute_expr(stmt.having, id_map, values)
    fresh.order_by = [
        AstOrderItem(_substitute_expr(item.expr, id_map, values), item.ascending)
        for item in stmt.order_by
    ]
    fresh.limit = values[limit_slot] if limit_slot is not None else stmt.limit
    fresh.distinct = stmt.distinct
    return fresh


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
        #: Literal substitution slots in token order, one per literal
        #: token consumed: ``[node_or_marker, kind, negated]`` where
        #: ``kind`` is "plain" (number/string), "date", or "limit".
        #: The template-AST cache uses these to re-bind fresh constants
        #: into a cached parse (see :func:`parse_parameterized`).
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
            stmt.limit = int(float(token.text))
            self.literal_slots.append(["limit", "limit", False])
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
            text = token.text
            value: int | float = float(text) if "." in text else int(text)
            node = AstLiteral(value)
            self.literal_slots.append([node, "plain", False])
            return node
        if token.type is TokenType.STRING:
            self._advance()
            node = AstLiteral(token.text)
            self.literal_slots.append([node, "plain", False])
            return node
        if token.is_keyword("date"):
            self._advance()
            literal = self._peek()
            if literal.type is not TokenType.STRING:
                raise ParseError("DATE must be followed by a string", literal.position)
            self._advance()
            node = AstLiteral(parse_date(literal.text, literal.position), is_date=True)
            self.literal_slots.append([node, "date", False])
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
        expr = self._primary()
        if isinstance(expr, AstUnary) and expr.op == "-" and isinstance(expr.operand, AstLiteral):
            value = expr.operand.value
            if isinstance(value, str):
                raise ParseError("cannot negate a string literal", self._peek().position)
            node = AstLiteral(-value)
            # The negation folds into the literal: repoint its slot at
            # the folded node and remember the sign for substitution.
            slot = self.literal_slots[-1]
            assert slot[0] is expr.operand
            slot[0] = node
            slot[2] = True
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
