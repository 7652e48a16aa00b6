"""Recursive-descent parser for the CQL subset.

Grammar (informally)::

    query      := SELECT [DISTINCT] select_list FROM from_list
                  [WHERE expr] [GROUP BY column (',' column)*] [HAVING expr]
    select_list:= '*' | item (',' item)*          item := expr [AS ident]
    from_list  := from_item (',' from_item)*
    from_item  := ident ['[' window ']'] [[AS] ident]
    window     := RANGE number [unit] | ROWS number | NOW | UNBOUNDED
    unit       := MILLISECONDS | SECONDS | MINUTES | HOURS
    expr       := or; or := and (OR and)*; and := not (AND not)*
    not        := NOT not | cmp
    cmp        := add [cmp_op add]          cmp_op := = != < <= > >=
    add        := mul (('+'|'-') mul)*      mul := unary (('*'|'/'|'%') unary)*
    unary      := '-' unary | atom
    atom       := number | string | aggregate | column | '(' expr ')'
    aggregate  := (COUNT|SUM|AVG|MIN|MAX) '(' ('*' | column) ')'
    column     := ident ['.' ident]

Window sizes are scaled by ``time_scale`` chronons per second (default
1000, i.e. millisecond chronons), so ``[RANGE 10 SECONDS]`` with the
default scale yields a 10 000-chronon window.
"""

from __future__ import annotations

from typing import List, Optional

from .ast import (
    AggregateCall,
    BinaryOp,
    ColumnRef,
    ExprAST,
    FromItem,
    NumberLiteral,
    SelectItem,
    SelectStatement,
    StringLiteral,
    UnaryOp,
    WindowSpec,
)
from .lexer import CQLSyntaxError, Token, tokenize

_UNIT_SECONDS = {
    "MILLISECONDS": 0.001,
    "SECONDS": 1.0,
    "MINUTES": 60.0,
    "HOURS": 3600.0,
}

_AGGREGATES = ("COUNT", "SUM", "AVG", "MIN", "MAX")


class Parser:
    """Parses one CQL statement into a :class:`SelectStatement`."""

    def __init__(self, text: str, time_scale: int = 1000) -> None:
        self.text = text
        self.time_scale = time_scale
        self.tokens: List[Token] = tokenize(text)
        self.position = 0

    # ------------------------------------------------------------------ #
    # Token plumbing
    # ------------------------------------------------------------------ #

    def _peek(self) -> Token:
        return self.tokens[self.position]

    def _advance(self) -> Token:
        token = self.tokens[self.position]
        if token.kind != "EOF":
            self.position += 1
        return token

    def _accept(self, kind: str, value: str = "") -> Optional[Token]:
        if self._peek().matches(kind, value):
            return self._advance()
        return None

    def _expect(self, kind: str, value: str = "") -> Token:
        token = self._peek()
        if not token.matches(kind, value):
            expected = value or kind
            raise CQLSyntaxError(
                f"expected {expected}, found {token.value or token.kind!r}",
                token.position,
                self.text,
            )
        return self._advance()

    def _error(self, message: str) -> CQLSyntaxError:
        """Error path: reached only on malformed query text."""
        return CQLSyntaxError(message, self._peek().position, self.text)

    # ------------------------------------------------------------------ #
    # Grammar
    # ------------------------------------------------------------------ #

    def parse(self) -> SelectStatement:
        """Parse the full statement; input must be fully consumed."""
        self._expect("KEYWORD", "SELECT")
        distinct = self._accept("KEYWORD", "DISTINCT") is not None
        items = self._select_list()
        self._expect("KEYWORD", "FROM")
        from_items = [self._from_item()]
        while self._accept("SYMBOL", ","):
            from_items.append(self._from_item())
        where = None
        if self._accept("KEYWORD", "WHERE"):
            where = self._expression()
        group_by: List[ColumnRef] = []
        if self._accept("KEYWORD", "GROUP"):
            self._expect("KEYWORD", "BY")
            group_by.append(self._column())
            while self._accept("SYMBOL", ","):
                group_by.append(self._column())
        having = None
        if self._accept("KEYWORD", "HAVING"):
            having = self._expression()
        self._expect("EOF")
        return SelectStatement(
            distinct=distinct,
            items=items,
            from_items=from_items,
            where=where,
            group_by=group_by,
            having=having,
        )

    def _select_list(self) -> Optional[List[SelectItem]]:
        if self._accept("SYMBOL", "*"):
            return None
        items = [self._select_item()]
        while self._accept("SYMBOL", ","):
            items.append(self._select_item())
        return items

    def _select_item(self) -> SelectItem:
        expression = self._expression()
        alias = None
        if self._accept("KEYWORD", "AS"):
            alias = self._expect("IDENT").value
        return SelectItem(expression, alias)

    def _from_item(self) -> FromItem:
        stream = self._expect("IDENT").value
        window = None
        if self._accept("SYMBOL", "["):
            window = self._window()
            self._expect("SYMBOL", "]")
        alias = None
        if self._accept("KEYWORD", "AS"):
            alias = self._expect("IDENT").value
        elif self._peek().kind == "IDENT":
            alias = self._advance().value
        return FromItem(stream, window, alias)

    def _window(self) -> WindowSpec:
        if self._accept("KEYWORD", "NOW"):
            return WindowSpec("now")
        if self._accept("KEYWORD", "UNBOUNDED"):
            return WindowSpec("unbounded")
        if self._accept("KEYWORD", "ROWS"):
            count = self._number()
            return WindowSpec("rows", int(count))
        self._expect("KEYWORD", "RANGE")
        amount = self._number()
        scale = 1.0
        for unit, seconds in _UNIT_SECONDS.items():
            if self._accept("KEYWORD", unit):
                scale = seconds * self.time_scale
                break
        size = int(round(amount * scale))
        return WindowSpec("range", size)

    def _number(self) -> float:
        token = self._expect("NUMBER")
        return float(token.value) if "." in token.value else int(token.value)

    # ------------------------------------------------------------------ #
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------ #

    def _expression(self) -> ExprAST:
        return self._or()

    def _or(self) -> ExprAST:
        left = self._and()
        while self._accept("KEYWORD", "OR"):
            left = BinaryOp("OR", left, self._and())
        return left

    def _and(self) -> ExprAST:
        left = self._not()
        while self._accept("KEYWORD", "AND"):
            left = BinaryOp("AND", left, self._not())
        return left

    def _not(self) -> ExprAST:
        if self._accept("KEYWORD", "NOT"):
            return UnaryOp("NOT", self._not())
        return self._comparison()

    def _comparison(self) -> ExprAST:
        left = self._additive()
        for op in ("<=", ">=", "!=", "=", "<", ">"):
            if self._accept("SYMBOL", op):
                return BinaryOp(op, left, self._additive())
        return left

    def _additive(self) -> ExprAST:
        left = self._multiplicative()
        while True:
            if self._accept("SYMBOL", "+"):
                left = BinaryOp("+", left, self._multiplicative())
            elif self._accept("SYMBOL", "-"):
                left = BinaryOp("-", left, self._multiplicative())
            else:
                return left

    def _multiplicative(self) -> ExprAST:
        left = self._unary()
        while True:
            if self._accept("SYMBOL", "*"):
                left = BinaryOp("*", left, self._unary())
            elif self._accept("SYMBOL", "/"):
                left = BinaryOp("/", left, self._unary())
            elif self._accept("SYMBOL", "%"):
                left = BinaryOp("%", left, self._unary())
            else:
                return left

    def _unary(self) -> ExprAST:
        if self._accept("SYMBOL", "-"):
            return UnaryOp("-", self._unary())
        return self._atom()

    def _atom(self) -> ExprAST:
        token = self._peek()
        if token.kind == "NUMBER":
            self._advance()
            value = float(token.value) if "." in token.value else int(token.value)
            return NumberLiteral(value)
        if token.kind == "STRING":
            self._advance()
            return StringLiteral(token.value)
        if token.kind == "KEYWORD" and token.value in _AGGREGATES:
            return self._aggregate()
        if token.kind == "IDENT":
            return self._column()
        if self._accept("SYMBOL", "("):
            inner = self._expression()
            self._expect("SYMBOL", ")")
            return inner
        raise self._error(f"unexpected token {token.value or token.kind!r}")

    def _aggregate(self) -> AggregateCall:
        function = self._advance().value.lower()
        self._expect("SYMBOL", "(")
        if self._accept("SYMBOL", "*"):
            if function != "count":
                raise self._error(f"{function.upper()}(*) is not defined")
            argument = None
        else:
            argument = self._column()
        self._expect("SYMBOL", ")")
        return AggregateCall(function, argument)

    def _column(self) -> ColumnRef:
        first = self._expect("IDENT").value
        if self._accept("SYMBOL", "."):
            second = self._expect("IDENT").value
            return ColumnRef(first, second)
        return ColumnRef(None, first)


def parse(text: str, time_scale: int = 1000) -> SelectStatement:
    """Parse one CQL statement."""
    return Parser(text, time_scale).parse()
