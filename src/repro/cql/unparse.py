"""Render CQL ASTs back to query text.

``unparse`` produces canonical CQL text from a parsed statement — used by
the parser round-trip property tests, and the text form a generator of
random CQL cases will print.
"""

from __future__ import annotations

from typing import Optional

from .ast import (
    AggregateCall,
    BinaryOp,
    ColumnRef,
    ExprAST,
    FromItem,
    NumberLiteral,
    SelectStatement,
    StringLiteral,
    UnaryOp,
    WindowSpec,
)

_PRECEDENCE = {
    "OR": 1,
    "AND": 2,
    "=": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
    "+": 4, "-": 4,
    "*": 5, "/": 5, "%": 5,
}


def unparse_expression(node: ExprAST, parent_precedence: int = 0) -> str:
    """Render one expression, parenthesising only where precedence demands.

    Kept for the ROADMAP's random-CQL case generator (see :func:`unparse`).
    """
    if isinstance(node, ColumnRef):
        return str(node)
    if isinstance(node, NumberLiteral):
        return repr(node.value)
    if isinstance(node, StringLiteral):
        return f"'{node.value}'"
    if isinstance(node, AggregateCall):
        inner = str(node.argument) if node.argument is not None else "*"
        return f"{node.function.upper()}({inner})"
    if isinstance(node, UnaryOp):
        if node.op == "NOT":
            return f"NOT {unparse_expression(node.operand, _PRECEDENCE['AND'])}"
        return f"-{unparse_expression(node.operand, 6)}"
    if isinstance(node, BinaryOp):
        precedence = _PRECEDENCE[node.op]
        left = unparse_expression(node.left, precedence)
        right = unparse_expression(node.right, precedence + 1)
        rendered = f"{left} {node.op} {right}"
        if precedence < parent_precedence:
            return f"({rendered})"
        return rendered
    raise TypeError(f"cannot unparse {type(node).__name__}")


def _unparse_window(window: Optional[WindowSpec]) -> str:
    if window is None:
        return ""
    if window.kind == "now":
        return " [NOW]"
    if window.kind == "unbounded":
        return " [UNBOUNDED]"
    if window.kind == "rows":
        return f" [ROWS {window.size}]"
    return f" [RANGE {window.size}]"


def _unparse_from_item(item: FromItem) -> str:
    rendered = item.stream + _unparse_window(item.window)
    if item.alias:
        rendered += f" AS {item.alias}"
    return rendered


def unparse(statement: SelectStatement) -> str:
    """Render a statement as canonical CQL text.

    Window sizes are printed in chronons (no unit keyword), so parsing the
    result with any ``time_scale`` reproduces the same statement.

    Kept for the ROADMAP's random-CQL case generator, which prints its
    statements with it.
    """
    parts = ["SELECT"]
    if statement.distinct:
        parts.append("DISTINCT")
    if statement.items is None:
        parts.append("*")
    else:
        parts.append(
            ", ".join(
                unparse_expression(item.expression)
                + (f" AS {item.alias}" if item.alias else "")
                for item in statement.items
            )
        )
    parts.append("FROM")
    parts.append(", ".join(_unparse_from_item(item) for item in statement.from_items))
    if statement.where is not None:
        parts.append("WHERE")
        parts.append(unparse_expression(statement.where))
    if statement.group_by:
        parts.append("GROUP BY")
        parts.append(", ".join(str(column) for column in statement.group_by))
    if statement.having is not None:
        parts.append("HAVING")
        parts.append(unparse_expression(statement.having))
    return " ".join(parts)
