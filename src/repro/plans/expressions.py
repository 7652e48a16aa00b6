"""A small expression language over named payload columns.

Logical plans carry predicates and projections as introspectable expression
trees rather than opaque callables, so the optimizer can reason about them
(which columns a predicate touches decides where it may be pushed) and the
physical builder can compile them against the schema at hand.
"""

from __future__ import annotations

import operator as _operator
from typing import Any, Callable, FrozenSet, Sequence, Tuple

from ..temporal.element import Payload

#: A schema is an ordered tuple of column names.
Schema = Tuple[str, ...]

_COMPARISONS = {
    "=": _operator.eq,
    "!=": _operator.ne,
    "<": _operator.lt,
    "<=": _operator.le,
    ">": _operator.gt,
    ">=": _operator.ge,
}

_ARITHMETIC = {
    "+": _operator.add,
    "-": _operator.sub,
    "*": _operator.mul,
    "/": _operator.truediv,
    "%": _operator.mod,
}


class Expression:
    """Base class of all expressions.

    Equality and hashing are *structural*: each subclass exposes its
    defining fields through :meth:`_key`, and two expressions are equal
    exactly when they are the same type over equal fields.  The tuples
    nest (sub-expressions appear in their parent's key), so whole trees
    hash in one pass — fast and stable across processes, which the kernel
    compile cache (:mod:`repro.plans.kernels`) relies on for its
    ``(expression tree, schema)`` keys.
    """

    def columns(self) -> FrozenSet[str]:
        """The column names this expression references."""
        raise NotImplementedError

    def compile(self, schema: Schema) -> Callable[[Payload], Any]:
        """Compile into a payload function for the given schema."""
        raise NotImplementedError

    def _key(self) -> Tuple[Any, ...]:
        """The structural identity of this node (sub-expressions included)."""
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__,) + self._key())


class Field(Expression):
    """Reference to a named column."""

    def __init__(self, name: str) -> None:
        self.name = name

    def columns(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def compile(self, schema: Schema) -> Callable[[Payload], Any]:
        try:
            index = schema.index(self.name)
        except ValueError:
            raise KeyError(f"column {self.name!r} not in schema {schema}") from None
        return lambda row: row[index]

    def _key(self) -> Tuple[Any, ...]:
        return (self.name,)

    def __repr__(self) -> str:
        return self.name


class Literal(Expression):
    """A constant value."""

    def __init__(self, value: Any) -> None:
        self.value = value

    def columns(self) -> FrozenSet[str]:
        return frozenset()

    def compile(self, schema: Schema) -> Callable[[Payload], Any]:
        value = self.value
        return lambda row: value

    def _key(self) -> Tuple[Any, ...]:
        # Unhashable constants (lists, dicts) degrade to their repr so the
        # tree stays hashable; scalar literals — the normal case — compare
        # by value.
        try:
            hash(self.value)
        except TypeError:
            return (repr(self.value),)
        return (self.value,)

    def __repr__(self) -> str:
        return repr(self.value)


class Comparison(Expression):
    """A binary comparison ``left op right``."""

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in _COMPARISONS:
            raise ValueError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def columns(self) -> FrozenSet[str]:
        return self.left.columns() | self.right.columns()

    def compile(self, schema: Schema) -> Callable[[Payload], bool]:
        fn = _COMPARISONS[self.op]
        left = self.left.compile(schema)
        right = self.right.compile(schema)
        return lambda row: fn(left(row), right(row))

    def _key(self) -> Tuple[Any, ...]:
        return (self.op, self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"

    @property
    def is_equi(self) -> bool:
        """Whether this is an equality between two plain columns."""
        return self.op == "=" and isinstance(self.left, Field) and isinstance(self.right, Field)


class Arithmetic(Expression):
    """A binary arithmetic expression ``left op right``.

    CQL surface: arithmetic in SELECT and WHERE; no example or benchmark query
    uses it.
    """

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in _ARITHMETIC:
            raise ValueError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def columns(self) -> FrozenSet[str]:
        return self.left.columns() | self.right.columns()

    def compile(self, schema: Schema) -> Callable[[Payload], Any]:
        fn = _ARITHMETIC[self.op]
        left = self.left.compile(schema)
        right = self.right.compile(schema)
        return lambda row: fn(left(row), right(row))

    def _key(self) -> Tuple[Any, ...]:
        return (self.op, self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class And(Expression):
    """Conjunction of one or more predicates."""

    def __init__(self, *terms: Expression) -> None:
        if not terms:
            raise ValueError("And requires at least one term")
        self.terms = tuple(terms)

    def columns(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for term in self.terms:
            result |= term.columns()
        return result

    def compile(self, schema: Schema) -> Callable[[Payload], bool]:
        compiled = [term.compile(schema) for term in self.terms]
        return lambda row: all(fn(row) for fn in compiled)

    def _key(self) -> Tuple[Any, ...]:
        return self.terms

    def __repr__(self) -> str:
        return " AND ".join(repr(term) for term in self.terms)


class Or(Expression):
    """Disjunction of one or more predicates.

    CQL surface: OR in WHERE; no example or benchmark query uses it.
    """

    def __init__(self, *terms: Expression) -> None:
        if not terms:
            raise ValueError("Or requires at least one term")
        self.terms = tuple(terms)

    def columns(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for term in self.terms:
            result |= term.columns()
        return result

    def compile(self, schema: Schema) -> Callable[[Payload], bool]:
        compiled = [term.compile(schema) for term in self.terms]
        return lambda row: any(fn(row) for fn in compiled)

    def _key(self) -> Tuple[Any, ...]:
        return self.terms

    def __repr__(self) -> str:
        return "(" + " OR ".join(repr(term) for term in self.terms) + ")"


class Not(Expression):
    """Negation of a predicate.

    CQL surface: NOT in WHERE; no example or benchmark query uses it.
    """

    def __init__(self, term: Expression) -> None:
        self.term = term

    def columns(self) -> FrozenSet[str]:
        return self.term.columns()

    def compile(self, schema: Schema) -> Callable[[Payload], bool]:
        inner = self.term.compile(schema)
        return lambda row: not inner(row)

    def _key(self) -> Tuple[Any, ...]:
        return (self.term,)

    def __repr__(self) -> str:
        return f"NOT {self.term!r}"


def conjuncts(predicate: Expression) -> Tuple[Expression, ...]:
    """Flatten a predicate into its top-level AND-ed conjuncts."""
    if isinstance(predicate, And):
        result: Tuple[Expression, ...] = ()
        for term in predicate.terms:
            result += conjuncts(term)
        return result
    return (predicate,)


def conjunction(terms: Sequence[Expression]) -> Expression:
    """Combine conjuncts back into a single predicate."""
    if not terms:
        raise ValueError("cannot build a conjunction of zero terms")
    if len(terms) == 1:
        return terms[0]
    return And(*terms)
