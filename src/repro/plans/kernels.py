"""Expression code generation: compiled per-run kernels for fused chains.

A *kernel* is one generated Python function evaluating a whole chain of
stateless stages (selections and projections) over an ordered run of
stream elements.  Each stage becomes a single list comprehension with the
stage's expression tree inlined as native Python source — no per-element
operator dispatch, no closure tree per expression node — which is where
the fused hot path gets its speed:

* a ``Comparison("<", Field("a.v"), Literal(5))`` compiles to the literal
  source ``e.payload[1] < 5`` instead of three nested lambdas;
* a selection stage is ``[e for e in s0 if <predicate>]``;
* a projection stage is ``[e.with_payload((<expr>, ...)) for e in s0]``.

Stage *input counts* fall out as ``len()`` of the intermediate lists, so
the kernel can report exactly the per-element meter charges the unfused
operator chain would have made — one aggregated ``charge(n * cost)`` per
stage per run, same totals, same categories.

Kernels are cached process-wide, keyed on the structural identity of the
``(expression trees, schemas)`` pair (see :meth:`Expression._key`); the
hit/miss counters are surfaced through
:meth:`repro.engine.metrics.MetricsRecorder.to_dict` and the hot-path
benchmark.  Kernel inputs must be side-effect-free expression trees —
bare callables cannot be inlined, verified, or cached, and lint rule
``RLB004`` rejects them statically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

from ..temporal.element import StreamElement
from .expressions import (
    And,
    Arithmetic,
    Comparison,
    Expression,
    Field,
    Literal,
    Not,
    Or,
    Schema,
)

#: Kinds of fusable stages.
SELECT = "select"
PROJECT = "project"

#: Comparison spellings translated to Python operators.
_PY_COMPARISONS = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

#: Literal types whose ``repr`` round-trips and may be embedded verbatim.
_EMBEDDABLE = (int, float, bool, str, bytes, type(None))


@dataclass(frozen=True)
class FusedStep:
    """One stateless stage of a fused chain, described by expressions.

    Attributes:
        kind: :data:`SELECT` (filter by ``exprs[0]``) or :data:`PROJECT`
            (rebuild the payload from ``exprs``).
        exprs: the stage's expression trees over ``input_schema``.
        input_schema: the column names of the stage's input payloads.
        output_schema: the columns the stage produces; selections pass
            their input schema through.
        cost: meter units per input element (``Select.cost`` semantics).
        category: meter category charged, e.g. ``"select"``/``"project"``.
    """

    kind: str
    exprs: Tuple[Expression, ...]
    input_schema: Schema
    output_schema: Schema
    cost: int = 1
    category: str = "misc"

    def __post_init__(self) -> None:
        if self.kind not in (SELECT, PROJECT):
            raise ValueError(f"unknown fused step kind {self.kind!r}")
        if self.kind == SELECT and len(self.exprs) != 1:
            raise ValueError("a select step takes exactly one predicate")
        if self.kind == SELECT and self.output_schema != self.input_schema:
            raise ValueError("a select step cannot change the schema")
        if self.kind == PROJECT and len(self.exprs) != len(self.output_schema):
            raise ValueError("a project step needs one expression per output column")
        for expr in self.exprs:
            if not isinstance(expr, Expression):
                raise TypeError(
                    f"kernel inputs must be Expression trees, got "
                    f"{type(expr).__name__}: bare callables cannot be "
                    "inlined or verified side-effect-free (RLB004)"
                )


def select_step(
    predicate: Expression, schema: Schema, cost: int = 1
) -> FusedStep:
    """A selection stage: keep payloads satisfying ``predicate``."""
    return FusedStep(
        kind=SELECT,
        exprs=(predicate,),
        input_schema=tuple(schema),
        output_schema=tuple(schema),
        cost=cost,
        category="select",
    )


def project_step(
    outputs: Sequence[Tuple[Expression, str]], schema: Schema, cost: int = 1
) -> FusedStep:
    """A projection stage: rebuild the payload from named expressions."""
    return FusedStep(
        kind=PROJECT,
        exprs=tuple(expr for expr, _ in outputs),
        input_schema=tuple(schema),
        output_schema=tuple(name for _, name in outputs),
        cost=cost,
        category="project",
    )


# --------------------------------------------------------------------- #
# Expression → Python source
# --------------------------------------------------------------------- #


def expression_source(
    expr: Expression, schema: Schema, row: str, hoisted: Dict[str, Any]
) -> str:
    """Render ``expr`` as Python source reading columns from ``row``.

    Non-embeddable constants and unknown expression types are *hoisted*:
    they become entries of ``hoisted`` (the generated function's globals)
    referenced by name, so every expression the interpreter can evaluate
    can also be kernel-compiled — unknown types just keep their compiled-
    closure cost.  Type checks are deliberately *exact* (not isinstance):
    a subclass of a known node may override ``compile`` with different
    semantics, and inlining the base behaviour would silently diverge
    from the interpreter; subclasses take the hoisted-closure path.
    """
    node_type = type(expr)
    if node_type is Field:
        try:
            index = schema.index(expr.name)
        except ValueError:
            raise KeyError(f"column {expr.name!r} not in schema {schema}") from None
        return f"{row}[{index}]"
    if node_type is Literal:
        value = expr.value
        if type(value) in _EMBEDDABLE:
            return repr(value)
        name = f"_k{len(hoisted)}"
        hoisted[name] = value
        return name
    if node_type is Comparison:
        left = expression_source(expr.left, schema, row, hoisted)
        right = expression_source(expr.right, schema, row, hoisted)
        return f"({left} {_PY_COMPARISONS[expr.op]} {right})"
    if node_type is Arithmetic:
        left = expression_source(expr.left, schema, row, hoisted)
        right = expression_source(expr.right, schema, row, hoisted)
        return f"({left} {expr.op} {right})"
    if node_type is And:
        terms = [expression_source(t, schema, row, hoisted) for t in expr.terms]
        return "(" + " and ".join(terms) + ")"
    if node_type is Or:
        terms = [expression_source(t, schema, row, hoisted) for t in expr.terms]
        return "(" + " or ".join(terms) + ")"
    if node_type is Not:
        return f"(not {expression_source(expr.term, schema, row, hoisted)})"
    # Unknown Expression subclass: hoist its compiled form.  Still an
    # Expression — the side-effect-free contract holds — it just keeps the
    # closure-call cost the built-in node types shed.
    name = f"_k{len(hoisted)}"
    hoisted[name] = expr.compile(schema)
    return f"{name}({row})"


# --------------------------------------------------------------------- #
# Kernel compilation
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class CompiledKernel:
    """A generated per-run kernel plus the metadata to account for it.

    ``fn(elements)`` evaluates the whole chain over one ordered run and
    returns ``(survivors, counts)`` where ``counts[i]`` is the number of
    elements that *entered* stage ``i`` — exactly the number of meter
    charges the unfused operator chain would have made there.
    """

    fn: Callable[[Sequence[StreamElement]], Tuple[List[StreamElement], Tuple[int, ...]]]
    source: str
    steps: Tuple[FusedStep, ...]
    input_schema: Schema
    output_schema: Schema


def generate_source(steps: Sequence[FusedStep], hoisted: Dict[str, Any]) -> str:
    """Generate the kernel function source for a validated chain."""
    lines = ["def _kernel(s0):"]
    current = "s0"
    counts: List[str] = []
    for index, step in enumerate(steps):
        counts.append(f"len({current})")
        out = f"s{index + 1}"
        if step.kind == SELECT:
            predicate = expression_source(
                step.exprs[0], step.input_schema, "e.payload", hoisted
            )
            lines.append(f"    {out} = [e for e in {current} if {predicate}]")
        else:
            rendered = [
                expression_source(expr, step.input_schema, "e.payload", hoisted)
                for expr in step.exprs
            ]
            payload = "(" + ", ".join(rendered) + ("," if len(rendered) == 1 else "") + ")"
            lines.append(
                f"    {out} = [e.with_payload({payload}) for e in {current}]"
            )
        current = out
    lines.append(f"    return {current}, ({', '.join(counts)},)")
    return "\n".join(lines) + "\n"


def _validate_chain(steps: Sequence[FusedStep]) -> None:
    if not steps:
        raise ValueError("cannot compile an empty fused chain")
    for previous, step in zip(steps, steps[1:]):
        if step.input_schema != previous.output_schema:
            raise ValueError(
                f"fused chain schema mismatch: stage consumes "
                f"{step.input_schema} but upstream produces "
                f"{previous.output_schema}"
            )


#: The process-wide compile cache.  Fused stateless chains key on their
#: structural identity — a tuple of :class:`FusedStep`\ s, each hashing
#: over its expression trees (structural ``Expression._key`` tuples) and
#: schemas.  Stateful kernels key on tagged tuples such as
#: ``("hash-probe", port, key_index)`` — a leading string tag no
#: ``FusedStep`` tuple can collide with.
_CACHE: Dict[Any, Any] = {}
_HITS = 0
_MISSES = 0

#: Lifetime counters: like the pair above but *never* reset by
#: :func:`clear_kernel_cache`, so per-query deltas (see
#: :meth:`repro.engine.metrics.MetricsRecorder.to_dict`) survive a
#: mid-run cache clear instead of going negative or skewing hit rates.
_LIFETIME_HITS = 0
_LIFETIME_MISSES = 0
_LIFETIME_COMPILED = 0


def _compile_cached(key: Any, build: Callable[[], Any]) -> Any:
    """Fetch ``key`` from the process-wide cache, building on a miss."""
    global _HITS, _MISSES, _LIFETIME_HITS, _LIFETIME_MISSES, _LIFETIME_COMPILED
    cached = _CACHE.get(key)
    if cached is not None:
        _HITS += 1
        _LIFETIME_HITS += 1
        return cached
    _MISSES += 1
    _LIFETIME_MISSES += 1
    kernel = build()
    _CACHE[key] = kernel
    _LIFETIME_COMPILED += 1
    return kernel


def _exec_kernel(source: str, namespace: Dict[str, Any]) -> Callable[..., Any]:
    """Compile ``source`` and return its ``_kernel`` function."""
    code = compile(source, f"<kernel:{len(_CACHE)}>", "exec")
    exec(code, namespace)
    return namespace["_kernel"]


def compile_kernel(steps: Sequence[FusedStep]) -> CompiledKernel:
    """Compile (or fetch from cache) the kernel for a fused chain."""
    key = tuple(steps)

    def build() -> CompiledKernel:
        _validate_chain(key)
        hoisted: Dict[str, Any] = {}
        source = generate_source(key, hoisted)
        namespace: Dict[str, Any] = {"__builtins__": {"len": len}}
        namespace.update(hoisted)
        return CompiledKernel(
            fn=_exec_kernel(source, namespace),
            source=source,
            steps=key,
            input_schema=key[0].input_schema,
            output_schema=key[-1].output_schema,
        )

    return _compile_cached(key, build)


def kernel_cache_stats() -> Dict[str, int]:
    """Process-wide compile-cache counters.

    ``hits``/``misses``/``compiled`` reflect the current cache epoch
    (reset by :func:`clear_kernel_cache`); the ``lifetime_*`` trio is
    monotone over the whole process, the basis for per-query deltas.
    """
    return {
        "hits": _HITS,
        "misses": _MISSES,
        "compiled": len(_CACHE),
        "lifetime_hits": _LIFETIME_HITS,
        "lifetime_misses": _LIFETIME_MISSES,
        "lifetime_compiled": _LIFETIME_COMPILED,
    }


def clear_kernel_cache() -> None:
    """Drop all cached kernels and zero the epoch counters.

    Test isolation and bench cold-start measurement; the lifetime
    counters keep running so metric deltas stay meaningful.
    """
    global _HITS, _MISSES
    _CACHE.clear()
    _HITS = 0
    _MISSES = 0


# --------------------------------------------------------------------- #
# Stateful kernels: hash-join probe, window assignment
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class StatefulKernel:
    """A generated kernel over columnar state, plus its cache identity.

    Unlike :class:`CompiledKernel` these functions read parallel
    start/end/row columns (of a
    :class:`~repro.temporal.columnar.ColumnarBatch` and of columnar
    operator state) rather than boxed elements; ``key`` is the tagged
    cache-key tuple that produced the kernel.
    """

    fn: Callable[..., Any]
    source: str
    key: Tuple[Any, ...]


def compile_probe_kernel(port: int, key_index: int) -> StatefulKernel:
    """The hash-join probe loop for one input port, as generated code.

    ``fn(lo, hi, starts, ends, rows, buckets, p_starts, p_ends, p_rows,
    out_s, out_e, out_r)`` probes the *partner* side's columnar state
    (``buckets`` maps key → partner row indices in insertion order) for
    the run slice ``[lo, hi)``, appends every intersecting result to the
    ``out_*`` columns, and returns ``(matches, ahead)``:

    * ``matches`` counts every bucket candidate *before* the interval
      intersection — exactly the element path's predicate-charge count;
    * ``ahead`` is True when some result starts after the run's own
      start (possible only when the partner watermark runs ahead), in
      which case the caller must stage instead of fast-emitting.

    Payload concatenation order follows the port: a port-0 probe emits
    ``row + partner_row``, a port-1 probe the reverse.  The kernel is
    flag-free — Parallel Track (the only flag producer) feeds the
    element path, so columnar callers bail out on flagged input.
    """
    key = ("hash-probe", port, key_index)

    def build() -> StatefulKernel:
        pair = "row + p_rows[j]" if port == 0 else "p_rows[j] + row"
        source = (
            "def _kernel(lo, hi, starts, ends, rows, buckets,"
            " p_starts, p_ends, p_rows, out_s, out_e, out_r):\n"
            "    get = buckets.get\n"
            "    app_s = out_s.append\n"
            "    app_e = out_e.append\n"
            "    app_r = out_r.append\n"
            "    matches = 0\n"
            "    ahead = False\n"
            "    for i in range(lo, hi):\n"
            "        row = rows[i]\n"
            f"        bucket = get(row[{key_index}])\n"
            "        if bucket:\n"
            "            s = starts[i]\n"
            "            e = ends[i]\n"
            "            for j in bucket:\n"
            "                matches += 1\n"
            "                ps = p_starts[j]\n"
            "                pe = p_ends[j]\n"
            "                s2 = ps if ps > s else s\n"
            "                e2 = pe if pe < e else e\n"
            "                if s2 < e2:\n"
            "                    if s2 > s:\n"
            "                        ahead = True\n"
            "                    app_s(s2)\n"
            "                    app_e(e2)\n"
            f"                    app_r({pair})\n"
            "    return matches, ahead\n"
        )
        namespace: Dict[str, Any] = {"__builtins__": {"range": range}}
        return StatefulKernel(fn=_exec_kernel(source, namespace), source=source, key=key)

    return _compile_cached(key, build)


def compile_extend_kernel() -> StatefulKernel:
    """The time-window end-extension map over a ``t_E`` column.

    ``fn(ends, window)`` returns the new end column — each entry
    extended by the window size, the columnar twin of
    :meth:`TimeInterval.extend` applied element-wise.
    """
    key = ("window-extend",)

    def build() -> StatefulKernel:
        source = (
            "def _kernel(ends, window):\n"
            "    return [e + window for e in ends]\n"
        )
        namespace: Dict[str, Any] = {"__builtins__": {}}
        return StatefulKernel(fn=_exec_kernel(source, namespace), source=source, key=key)

    return _compile_cached(key, build)
