"""Operator fusion: collapse stateless chains into compiled-kernel operators.

A chain of stateless operators — selections, projections, scalar maps —
costs one full Python ``process`` → ``_on_element`` → ``_stage`` →
``_emit`` round-trip per element *per operator*.  Fusion rewrites a built
:class:`~repro.engine.box.Box` so that every maximal chain of fusable
operators becomes a single :class:`FusedStateless` operator driving one
compiled kernel (:mod:`repro.plans.kernels`): a whole run of a ``Batch``
is filtered and projected by generated list comprehensions, with no
per-element operator dispatch in between.

The rewrite is semantics-preserving in the strongest sense this engine
tests: fused and unfused boxes are *byte-identical* — same output
elements, same delivery order, same aggregate meter charges per category
(the kernel reports per-stage input counts so each stage charges exactly
``n * cost`` as the unfused loop would).  That makes a fused plan just
another snapshot-equivalent box in the paper's sense, so it composes with
migration: GenMig can move a running query from an unfused old box onto a
fused new box without either side knowing.

Fusion boundaries:

* stateful operators (joins, aggregation, duplicate elimination,
  difference, the order-restoring union) are never fused — a chain
  *feeding* a Union port fuses up to the port and re-subscribes there,
  which is all the pass-through routing a union's inputs need;
* operators without a :data:`FUSION_SPEC_ATTR` annotation (hand-built
  closures the kernel compiler cannot see into) are left untouched;
* a chain interior never crosses an operator that is externally observed
  (the box root, a tapped port, a multi-subscriber fan-out).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..engine.box import Box, InputPort
from ..operators.base import Operator, StatelessOperator
from ..operators import base as _operator_base
from ..temporal.batch import Batch
from ..temporal.columnar import ColumnarBatch
from ..temporal.element import StreamElement
from .kernels import CompiledKernel, FusedStep, compile_kernel

#: Attribute the physical builder attaches to fusable operators: the
#: operator's behaviour as a :class:`FusedStep` over expression trees.
FUSION_SPEC_ATTR = "fusion_spec"


class FusedStateless(StatelessOperator):
    """A maximal stateless chain evaluated by one compiled kernel.

    Args:
        steps: the member stages, upstream first.
        members: diagnostic names of the operators the chain replaces
            (rendered as a cluster by ``box_to_dot``).
        member_profiles: the members' migration-profile kinds; the plan
            verifier derives this operator's classification from them
            (all-stateless members make a stateless fused operator).
    """

    def __init__(
        self,
        steps: Sequence[FusedStep],
        members: Sequence[str] = (),
        member_profiles: Optional[Sequence[str]] = None,
        name: str = "",
    ) -> None:
        chain = tuple(steps)
        kernel = compile_kernel(chain)
        super().__init__(name=name or f"fused[{'+'.join(s.kind for s in chain)}]")
        self.steps = chain
        self.kernel: CompiledKernel = kernel
        self.members = tuple(members) or tuple(
            f"{s.kind}#{i}" for i, s in enumerate(chain)
        )
        self.member_profiles = (
            tuple(member_profiles)
            if member_profiles is not None
            else ("stateless",) * len(chain)
        )

    def _charge(self, counts: Tuple[int, ...]) -> None:
        # Zero-input stages are skipped entirely: the unfused operator
        # would not have charged either, and `by_category` must stay
        # key-for-key identical with the unfused run.
        meter = self.meter
        for step, n in zip(self.steps, counts):
            if n:
                meter.charge(n * step.cost, step.category)

    def _on_element(self, element: StreamElement, port: int) -> None:
        out, counts = self.kernel.fn((element,))
        self._charge(counts)
        for result in out:
            self._stage(result)

    def evaluate(self, elements: List[StreamElement]) -> List[StreamElement]:
        return self.kernel.fn(elements)[0]

    def process_batch(self, batch: Batch, port: int = 0) -> None:
        """Evaluate the whole chain over the run in one kernel call."""
        if _operator_base.SANITIZER is not None:
            _operator_base.SANITIZER.on_batch(self, batch, 0)
        watermarks = self._watermarks
        elements = batch.elements
        if elements[0].start < watermarks[0]:
            raise ValueError(
                f"{self.name}: out-of-order element on port 0: "
                f"{elements[0].start} < watermark {watermarks[0]}"
            )
        watermarks[0] = elements[-1].start
        out, counts = self.kernel.fn(elements)
        self._charge(counts)
        if out:
            if type(batch) is ColumnarBatch:
                # Fused kernels work element-wise, but a columnar run must
                # leave the chain columnar so downstream stateful kernels
                # still see struct-of-arrays input.
                self._emit_batch(
                    ColumnarBatch.from_elements(
                        out, batch.watermark, batch.source, batch.uniform_start
                    )
                )
            else:
                self._emit_batch(batch.with_elements(out))
        self._advance()
        if batch.watermark > watermarks[0]:
            self.process_heartbeat(batch.watermark, 0)

    def __repr__(self) -> str:
        return f"<FusedStateless {self.name!r} members={list(self.members)}>"


# --------------------------------------------------------------------- #
# The fusion pass
# --------------------------------------------------------------------- #


def fusable(op: Operator) -> bool:
    """Whether ``op`` may become a member of a fused chain."""
    return (
        isinstance(op, StatelessOperator)
        and op.arity == 1
        and isinstance(getattr(op, FUSION_SPEC_ATTR, None), FusedStep)
    )


def _chains(box: Box) -> List[List[Operator]]:
    """Maximal fusable chains in subscription order, upstream first.

    A link ``A → B`` joins a chain when the edge is exclusive on both
    sides: ``A`` has exactly one subscriber and no sinks (nothing else
    observes its output, and it is not the box root), and ``B``'s single
    input port is fed only by ``A`` (no tap, no second upstream).
    """
    members = [op for op in box.operators if fusable(op)]
    member_ids = {id(op) for op in members}

    # How many distinct feeds each (operator, port) receives, and from whom.
    feed_count: Dict[Tuple[int, int], int] = {}
    fed_by: Dict[int, Optional[int]] = {}
    for ports in box.taps.values():
        for op, port in ports:
            feed_count[(id(op), port)] = feed_count.get((id(op), port), 0) + 1
            fed_by[id(op)] = None  # a tap is not a fusable upstream
    for op in box.operators:
        for downstream, port in op.subscribers:
            key = (id(downstream), port)
            feed_count[key] = feed_count.get(key, 0) + 1
            fed_by.setdefault(id(downstream), id(op))

    def links_to(a: Operator) -> Optional[Operator]:
        if a is box.root or a._sinks:
            return None
        subs = a.subscribers
        if len(subs) != 1:
            return None
        b, port = subs[0]
        if id(b) not in member_ids or port != 0:
            return None
        if feed_count.get((id(b), 0), 0) != 1 or fed_by.get(id(b)) != id(a):
            return None
        return b

    successor: Dict[int, Operator] = {}
    has_predecessor: set = set()
    for op in members:
        nxt = links_to(op)
        if nxt is not None:
            successor[id(op)] = nxt
            has_predecessor.add(id(nxt))

    chains: List[List[Operator]] = []
    for op in members:
        if id(op) in has_predecessor:
            continue
        chain = [op]
        while id(chain[-1]) in successor:
            chain.append(successor[id(chain[-1])])
        chains.append(chain)
    return chains


def fuse_box(box: Box, min_length: int = 2) -> Box:
    """Fuse every maximal stateless chain of ``box``, in place.

    Chains shorter than ``min_length`` stay as-is (fusing a single
    operator would only add kernel-compile latency for no dispatch win).
    Returns the same box for chaining.
    """
    for chain in _chains(box):
        if len(chain) < min_length:
            continue
        head, tail = chain[0], chain[-1]
        fused = FusedStateless(
            steps=[getattr(op, FUSION_SPEC_ATTR) for op in chain],
            members=[op.name for op in chain],
        )

        # Incoming edges: taps and upstream subscriptions pointing at the
        # chain head now point at the fused operator (in place, so the
        # relative dispatch order of sibling subscribers is preserved).
        for ports in box.taps.values():
            for index, (op, port) in enumerate(ports):
                if op is head:
                    ports[index] = (fused, port)
        chain_ids = {id(op) for op in chain}
        for op in box.operators:
            if id(op) in chain_ids:
                continue
            subscriptions = op._subscribers
            for index, (downstream, port) in enumerate(subscriptions):
                if downstream is head:
                    subscriptions[index] = (fused, 0)

        # Outgoing edges: the fused operator inherits the tail's
        # subscribers and sinks; the members are fully disconnected.
        for downstream, port in tail.subscribers:
            fused.subscribe(downstream, port)
        for sink in list(tail._sinks):
            fused.attach_sink(sink)
        for op in chain:
            op.clear_subscribers()

        position = box.operators.index(head)
        box.operators = [op for op in box.operators if id(op) not in chain_ids]
        box.operators.insert(position, fused)
        if tail is box.root:
            box.root = fused
    return box


def fused_operators(box: Box) -> List[FusedStateless]:
    """The fused operators of a box (diagnostics and tests)."""
    return [op for op in box.operators if isinstance(op, FusedStateless)]
