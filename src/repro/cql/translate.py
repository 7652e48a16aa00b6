"""Translate parsed CQL into logical plans.

The translator resolves stream and column references against a catalog of
registered stream schemas, places the window specifications with the
sources (Section 2.2: "window operators are placed downstream of the
source"), decomposes a conjunctive WHERE clause into per-source selections
and join predicates, and builds the initial left-deep join tree in FROM
order — the plan the optimizer may later reorder and GenMig may migrate.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..optimizer.rules import JoinGraph
from ..plans.expressions import (
    And,
    Arithmetic,
    Comparison,
    Expression,
    Field,
    Literal,
    Not,
    Or,
    conjuncts,
)
from ..plans.logical import (
    AggregateNode,
    AggregateSpec,
    DistinctNode,
    LogicalPlan,
    ProjectNode,
    Query,
    SelectNode,
    Source,
)
from ..temporal.time import Time
from .ast import (
    AggregateCall,
    BinaryOp,
    ColumnRef,
    ExprAST,
    NumberLiteral,
    SelectStatement,
    StringLiteral,
    UnaryOp,
)
from .parser import parse


class TranslationError(ValueError):
    """Raised when a parsed query cannot be bound against the catalog."""


class Catalog:
    """Registered stream schemas: stream name → column names."""

    def __init__(self, schemas: Optional[Dict[str, Sequence[str]]] = None) -> None:
        self._schemas: Dict[str, Tuple[str, ...]] = {}
        for name, columns in (schemas or {}).items():
            self.register(name, columns)

    def register(self, name: str, columns: Sequence[str]) -> None:
        """Register (or replace) a stream schema."""
        if not columns:
            raise ValueError(f"stream {name!r} needs at least one column")
        self._schemas[name] = tuple(columns)

    def columns(self, name: str) -> Tuple[str, ...]:
        try:
            return self._schemas[name]
        except KeyError:
            raise TranslationError(f"unknown stream {name!r}") from None

    def schemas(self) -> Dict[str, Tuple[str, ...]]:
        """All registered schemas, name → columns (a copy)."""
        return dict(self._schemas)

    def __contains__(self, name: str) -> bool:
        return name in self._schemas


class Translator:
    """Binds one parsed statement to a :class:`Query`."""

    def __init__(self, catalog: Catalog, default_window: Optional[Time] = None) -> None:
        self.catalog = catalog
        self.default_window = default_window

    def translate(self, statement: SelectStatement) -> Query:
        bindings = self._bind_sources(statement)
        windows = self._windows(statement)
        plan = self._from_where(statement, bindings)
        plan = self._select_list(statement, plan, bindings)
        if statement.distinct:
            plan = DistinctNode(plan)
        return Query(plan=plan, windows=windows)

    # ------------------------------------------------------------------ #
    # FROM clause
    # ------------------------------------------------------------------ #

    def _bind_sources(self, statement: SelectStatement) -> Dict[str, Source]:
        bindings: Dict[str, Source] = {}
        for item in statement.from_items:
            if item.binding in bindings:
                raise TranslationError(f"duplicate stream binding {item.binding!r}")
            columns = self.catalog.columns(item.stream)
            bindings[item.binding] = Source(item.binding, columns)
        return bindings

    def _windows(self, statement: SelectStatement) -> Dict[str, Time]:
        windows: Dict[str, Time] = {}
        for item in statement.from_items:
            spec = item.window
            if spec is None:
                if self.default_window is None:
                    raise TranslationError(
                        f"stream {item.binding!r} needs a window specification "
                        f"(e.g. [RANGE 10 SECONDS]) or a default window"
                    )
                windows[item.binding] = self.default_window
            elif spec.kind == "range":
                windows[item.binding] = spec.size
            elif spec.kind == "now":
                windows[item.binding] = 0
            else:
                raise TranslationError(
                    f"{spec.kind.upper()} windows parse but are not executable "
                    f"in this engine; use time-based RANGE windows"
                )
        return windows

    def _from_where(
        self, statement: SelectStatement, bindings: Dict[str, Source]
    ) -> LogicalPlan:
        where = (
            self._expression(statement.where, bindings)
            if statement.where is not None
            else None
        )
        leaves: List[LogicalPlan] = list(bindings.values())
        if where is None:
            predicates: List[Expression] = []
        else:
            predicates = list(conjuncts(where))

        # Push single-source conjuncts onto their source.
        remaining: List[Expression] = []
        dressed: List[LogicalPlan] = []
        for leaf in leaves:
            own = [p for p in predicates if p.columns() <= set(leaf.schema) and p.columns()]
            predicates = [p for p in predicates if p not in own]
            dressed.append(SelectNode(leaf, And(*own)) if own else leaf)
        remaining = predicates

        if len(dressed) == 1:
            plan = dressed[0]
            if remaining:
                plan = SelectNode(plan, And(*remaining))
            return plan
        graph = JoinGraph(dressed, remaining)
        return graph.build(list(range(len(dressed))))

    # ------------------------------------------------------------------ #
    # SELECT clause
    # ------------------------------------------------------------------ #

    def _select_list(
        self,
        statement: SelectStatement,
        plan: LogicalPlan,
        bindings: Dict[str, Source],
    ) -> LogicalPlan:
        if statement.items is None:
            if statement.group_by:
                raise TranslationError("SELECT * cannot be combined with GROUP BY")
            return plan

        aggregating = (
            any(isinstance(item.expression, AggregateCall) for item in statement.items)
            or bool(statement.group_by)
            or statement.having is not None
        )
        if not aggregating:
            outputs = []
            for index, item in enumerate(statement.items):
                expression = self._expression(item.expression, bindings)
                name = item.alias or self._default_name(item.expression, index)
                outputs.append((expression, name))
            return ProjectNode(plan, outputs)
        return self._aggregate_select(statement, plan, bindings)

    def _aggregate_select(
        self,
        statement: SelectStatement,
        plan: LogicalPlan,
        bindings: Dict[str, Source],
    ) -> LogicalPlan:
        group_by = [
            self._resolve(column, bindings) for column in statement.group_by
        ]
        specs: List[AggregateSpec] = []
        outputs: List[Tuple[Expression, str]] = []
        for index, item in enumerate(statement.items):
            expression = item.expression
            if isinstance(expression, AggregateCall):
                column = (
                    self._resolve(expression.argument, bindings)
                    if expression.argument is not None
                    else None
                )
                spec = AggregateSpec(expression.function, column)
                specs.append(spec)
                name = item.alias or spec.output_name()
                outputs.append((Field(spec.output_name()), name))
            elif isinstance(expression, ColumnRef):
                resolved = self._resolve(expression, bindings)
                if resolved not in group_by:
                    raise TranslationError(
                        f"column {resolved!r} must appear in GROUP BY to be selected "
                        f"alongside aggregates"
                    )
                outputs.append((Field(resolved), item.alias or str(expression)))
            else:
                raise TranslationError(
                    "SELECT items must be plain columns or aggregate calls "
                    "when aggregating"
                )
        having = None
        if statement.having is not None:
            # Aggregates referenced only in HAVING must be computed too.
            having = self._having_expression(
                statement.having, bindings, group_by, specs
            )
        if not specs:
            raise TranslationError(
                "GROUP BY requires at least one aggregate in SELECT or HAVING"
            )
        aggregated = AggregateNode(plan, specs, group_by)
        if having is not None:
            aggregated = SelectNode(aggregated, having)
        if tuple(name for _, name in outputs) == aggregated.schema and all(
            isinstance(expr, Field) and expr.name == name for expr, name in outputs
        ):
            return aggregated
        return ProjectNode(aggregated, outputs)

    def _having_expression(
        self,
        node: ExprAST,
        bindings: Dict[str, Source],
        group_by: List[str],
        specs: List[AggregateSpec],
    ) -> Expression:
        """Translate a HAVING predicate against the aggregation output.

        Plain columns must be grouping columns; aggregate calls resolve to
        their output column, and are appended to ``specs`` when the SELECT
        list did not already compute them.

        CQL surface: HAVING; no example or benchmark query uses it.
        """
        if isinstance(node, ColumnRef):
            resolved = self._resolve(node, bindings)
            if resolved not in group_by:
                raise TranslationError(
                    f"HAVING may only reference grouping columns or "
                    f"aggregates; {resolved!r} is neither"
                )
            return Field(resolved)
        if isinstance(node, AggregateCall):
            column = (
                self._resolve(node.argument, bindings)
                if node.argument is not None
                else None
            )
            spec = AggregateSpec(node.function, column)
            if spec not in specs:
                specs.append(spec)
            return Field(spec.output_name())
        if isinstance(node, (NumberLiteral, StringLiteral)):
            return Literal(node.value)
        if isinstance(node, UnaryOp):
            inner = self._having_expression(node.operand, bindings, group_by, specs)
            if node.op == "NOT":
                return Not(inner)
            return Arithmetic("-", Literal(0), inner)
        if isinstance(node, BinaryOp):
            left = self._having_expression(node.left, bindings, group_by, specs)
            right = self._having_expression(node.right, bindings, group_by, specs)
            if node.op == "AND":
                return And(left, right)
            if node.op == "OR":
                return Or(left, right)
            if node.op in ("=", "!=", "<", "<=", ">", ">="):
                return Comparison(node.op, left, right)
            return Arithmetic(node.op, left, right)
        raise TranslationError(f"cannot translate HAVING expression {node!r}")

    # ------------------------------------------------------------------ #
    # Expressions
    # ------------------------------------------------------------------ #

    def _expression(self, node: ExprAST, bindings: Dict[str, Source]) -> Expression:
        if isinstance(node, ColumnRef):
            return Field(self._resolve(node, bindings))
        if isinstance(node, NumberLiteral):
            return Literal(node.value)
        if isinstance(node, StringLiteral):
            return Literal(node.value)
        if isinstance(node, AggregateCall):
            raise TranslationError("aggregate calls are only allowed in the SELECT list")
        if isinstance(node, UnaryOp):
            if node.op == "NOT":
                return Not(self._expression(node.operand, bindings))
            return Arithmetic("-", Literal(0), self._expression(node.operand, bindings))
        if isinstance(node, BinaryOp):
            left = self._expression(node.left, bindings)
            right = self._expression(node.right, bindings)
            if node.op == "AND":
                return And(left, right)
            if node.op == "OR":
                return Or(left, right)
            if node.op in ("=", "!=", "<", "<=", ">", ">="):
                return Comparison(node.op, left, right)
            return Arithmetic(node.op, left, right)
        raise TranslationError(f"cannot translate expression {node!r}")

    def _resolve(self, column: ColumnRef, bindings: Dict[str, Source]) -> str:
        if column.qualifier is not None:
            source = bindings.get(column.qualifier)
            if source is None:
                raise TranslationError(f"unknown stream binding {column.qualifier!r}")
            qualified = f"{column.qualifier}.{column.name}"
            if qualified not in source.schema:
                raise TranslationError(
                    f"stream {column.qualifier!r} has no column {column.name!r}"
                )
            return qualified
        matches = [
            qualified
            for source in bindings.values()
            for qualified in source.schema
            if qualified.split(".", 1)[1] == column.name
        ]
        if not matches:
            raise TranslationError(f"unknown column {column.name!r}")
        if len(matches) > 1:
            raise TranslationError(
                f"ambiguous column {column.name!r}: matches {sorted(matches)}"
            )
        return matches[0]

    def _default_name(self, expression: ExprAST, index: int) -> str:
        if isinstance(expression, ColumnRef):
            return str(expression) if expression.qualifier else expression.name
        return f"column{index}"


def compile_query(
    text: str,
    catalog: Catalog,
    time_scale: int = 1000,
    default_window: Optional[Time] = None,
) -> Query:
    """Parse and translate one CQL statement into an executable query."""
    statement = parse(text, time_scale=time_scale)
    return Translator(catalog, default_window=default_window).translate(statement)
