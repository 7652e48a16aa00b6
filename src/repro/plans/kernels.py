"""Compiled kernels: generated per-run loops over operator state.

A *kernel* is one generated Python function whose loop body is specialised
at build time — today the hash-join probe (:func:`compile_probe_kernel`),
with the probing port's payload order and key position inlined as source
instead of read per candidate.

Kernels are cached process-wide, keyed on a tagged tuple such as
``("hash-probe", port, key_index)``; the hit/miss counters are surfaced
through :meth:`repro.engine.metrics.MetricsRecorder.to_dict` and the
hot-path benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

#: The process-wide compile cache, keyed on tagged tuples such as
#: ``("hash-probe", port, key_index)``.
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


@dataclass(frozen=True)
class StatefulKernel:
    """A generated kernel over operator state, plus its cache identity.

    The function reads a :class:`~repro.temporal.batch.Batch`'s column
    view and the entry tuples of operator state rather than boxed
    elements; ``key`` is the tagged cache-key tuple that produced the
    kernel.
    """

    fn: Callable[..., Any]
    source: str
    key: Tuple[Any, ...]


def compile_probe_kernel(port: int, key_index: int) -> StatefulKernel:
    """The hash-join probe loop for one input port, as generated code.

    ``fn(lo, hi, starts, ends, rows, buckets, out_s, out_e, out_r)``
    probes the *partner* side's state (``buckets`` maps key → that key's
    ``(start, end, row, flag)`` entries in insertion order) for the run
    slice ``[lo, hi)``, appends every intersecting result to the
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
        pair = "row + prow" if port == 0 else "prow + row"
        source = (
            "def _kernel(lo, hi, starts, ends, rows, buckets, out_s, out_e, out_r):\n"
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
            "            matches += len(bucket)\n"
            "            for ps, pe, prow, _ in bucket:\n"
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
        namespace: Dict[str, Any] = {"__builtins__": {"range": range, "len": len}}
        return StatefulKernel(fn=_exec_kernel(source, namespace), source=source, key=key)

    return _compile_cached(key, build)
