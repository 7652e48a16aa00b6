"""A CQL front end: parse sliding-window continuous queries to logical plans.

GenMig's claim is the dynamic optimization of *arbitrary CQL queries*; this
package provides the concrete path from query text to an executable box::

    catalog = Catalog({"bids": ("item", "price")})
    query = compile_query(
        "SELECT DISTINCT item FROM bids [RANGE 10 SECONDS] WHERE price > 100",
        catalog,
    )
    box = PhysicalBuilder().build(query.plan)
"""

from .ast import (
    AggregateCall,
    BinaryOp,
    ColumnRef,
    FromItem,
    NumberLiteral,
    SelectItem,
    SelectStatement,
    StringLiteral,
    UnaryOp,
    WindowSpec,
)
from .lexer import CQLSyntaxError, Token, tokenize
from .parser import Parser, parse
from .translate import Catalog, TranslationError, Translator, compile_query
from .unparse import unparse, unparse_expression

__all__ = [
    "AggregateCall",
    "BinaryOp",
    "CQLSyntaxError",
    "Catalog",
    "ColumnRef",
    "FromItem",
    "NumberLiteral",
    "Parser",
    "SelectItem",
    "SelectStatement",
    "StringLiteral",
    "Token",
    "TranslationError",
    "Translator",
    "UnaryOp",
    "WindowSpec",
    "compile_query",
    "parse",
    "tokenize",
    "unparse",
    "unparse_expression",
]
