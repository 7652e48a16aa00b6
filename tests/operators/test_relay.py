"""The relay contract of stateless single-input operators.

``StatelessOperator`` (and ``Router``, which is one) moves progress with a
relay — set the three marks, pass the heartbeat on — instead of the
generic ``Operator`` watermark protocol.  The contract: nobody can tell.
For every concrete class, under random interleavings of ``process`` /
``process_batch`` / ``process_heartbeat``, the relay leaves the same
``progress_state()`` after every call, shows its subscribers and sinks the
same trace (up to heartbeats that move no receiver's watermark, which a
relay may drop), and reports to the sanitizer after every advance, exactly
as the same class run through the generic protocol does.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import STATELESS_FACTORIES as FACTORIES
from helpers import concrete_stateless_classes
from repro.analysis.sanitizer import StreamSanitizer, sanitized
from repro.operators import Project, Select
from repro.operators.base import Operator, StatelessOperator
from repro.temporal import element
from repro.temporal.batch import Batch
from repro.temporal.time import MAX_TIME

def generic_twin(cls):
    """``cls`` with the relay taken out: the generic protocol's methods."""
    return type(
        f"Generic{cls.__name__}",
        (cls,),
        {
            "process_heartbeat": Operator.process_heartbeat,
            "_advance": Operator._advance,
        },
    )


class Probe:
    """A subscriber / sink recording what reaches it, dropping heartbeats
    that do not move its watermark (no-ops at any receiver)."""

    arity = 1

    def __init__(self):
        self.trace = []
        self.watermark = 0

    def process(self, e, port=0):
        self.trace.append(("element", e.payload, e.start, e.end, e.flag))
        self.watermark = max(self.watermark, e.start)

    def process_batch(self, batch, port=0):
        for e in batch.elements:
            self.process(e, port)
        self.process_heartbeat(batch.watermark, port)

    def process_heartbeat(self, t, port=0):
        if t > self.watermark:
            self.watermark = t
            self.trace.append(("heartbeat", t))


class CountingSanitizer(StreamSanitizer):
    def __init__(self):
        super().__init__()
        self.advances = []

    def on_advance(self, op):
        self.advances.append(op.name)
        super().on_advance(op)


call = st.one_of(
    st.tuples(st.just("process"), st.integers(0, 4), st.integers(0, 5)),
    st.tuples(st.just("heartbeat"), st.integers(-3, 6)),  # may fall behind: a no-op
    st.tuples(
        st.just("batch"),
        st.integers(0, 4),
        st.lists(st.tuples(st.integers(0, 2), st.integers(0, 5)), min_size=1, max_size=4),
        st.integers(0, 3),
    ),
    st.tuples(st.just("end")),
)


def drive(op, calls, tail=None):
    """Run ``calls`` through ``op``; snapshot progress after each.

    With ``tail`` given, ``op`` heads a chain ending in ``tail``: the
    probes listen there and both operators' progress is recorded.
    """
    subscriber, sink = Probe(), Probe()
    (tail or op).subscribe(subscriber, 0)
    (tail or op).attach_sink(sink)
    op.name = "under-test"
    progress = []
    t = 0
    with sanitized(CountingSanitizer()) as sanitizer:
        for kind, *args in calls:
            if kind == "process":
                delta, value = args
                t += delta
                op.process(element((value,), t, t + 2))
            elif kind == "heartbeat":
                op.process_heartbeat(max(0, t + args[0]))
                t = max(t, t + args[0])
            elif kind == "batch":
                delta, members, ahead = args
                t += delta
                elements = []
                for step, value in members:
                    t += step
                    elements.append(element((value,), t, t + 2))
                op.process_batch(Batch(elements, watermark=t + ahead))
                t += ahead
            else:
                op.process_heartbeat(MAX_TIME)
                t = MAX_TIME
                progress.append((op.progress_state(), tail and tail.progress_state()))
                break
            progress.append((op.progress_state(), tail and tail.progress_state()))
    return progress, subscriber.trace, sink.trace, sanitizer.advances


every_class = pytest.mark.parametrize(
    "cls", sorted(FACTORIES, key=lambda c: c.__name__), ids=lambda c: c.__name__
)


def test_every_concrete_stateless_class_is_covered():
    assert set(concrete_stateless_classes()) == set(FACTORIES)


@every_class
@settings(max_examples=40, deadline=None)
@given(calls=st.lists(call, min_size=1, max_size=20))
def test_relay_matches_generic_protocol(cls, calls):
    relay = FACTORIES[cls]()
    generic = FACTORIES[cls]()
    generic.__class__ = generic_twin(cls)
    assert type(relay).process_heartbeat is StatelessOperator.process_heartbeat
    assert type(relay)._advance is StatelessOperator._advance
    assert drive(relay, calls) == drive(generic, calls)


@settings(max_examples=40, deadline=None)
@given(calls=st.lists(call, min_size=1, max_size=20))
def test_select_project_chain_matches_generic_protocol(calls):
    """The relay composes: a select → project chain hands its subscribers
    what the same chain run through the generic protocol does."""

    def chain(select_cls, project_cls):
        head = FACTORIES[Select]()
        tail = FACTORIES[Project]()
        head.__class__, tail.__class__ = select_cls, project_cls
        tail.name = "under-test"
        head.subscribe(tail, 0)
        return head, tail

    head, tail = chain(Select, Project)
    generic_head, generic_tail = chain(generic_twin(Select), generic_twin(Project))
    assert drive(head, calls, tail) == drive(generic_head, calls, generic_tail)


@every_class
def test_relay_reports_every_advance_to_the_sanitizer(cls):
    op = FACTORIES[cls]()
    calls = [
        ("process", 1, 2),
        ("heartbeat", 3),
        ("heartbeat", -1),
        ("batch", 1, [(0, 2), (1, 4)], 2),
    ]
    _, _, _, advances = drive(op, calls)
    # One advance per element, per moving heartbeat, per batch and per
    # batch watermark; the heartbeat that falls behind advances nothing.
    assert advances == ["under-test"] * 4
