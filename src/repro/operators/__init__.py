"""Physical operator algebra (interval-based implementation).

Snapshot-reducible stream-to-stream operators per Section 2.2 of the paper,
plus the window operators that assign validity.  All operators are
push-based, watermark-driven, and account for their state size and CPU
cost, which powers the Figure 4-6 instrumentation.
"""

from .aggregate import Aggregate, merge_flags
from .base import (
    NULL_METER,
    CostMeter,
    Operator,
    StatefulOperator,
    StatelessOperator,
)
from .difference import Difference
from .duplicate import DuplicateElimination
from .filter import Select
from .join import (
    HashJoin,
    NestedLoopsJoin,
    equi_join,
    theta_join,
)
from .project import Project, ProjectFields
from .scalar import (
    AggregateFunction,
    avg_of,
    count,
    max_of,
    min_of,
    sum_of,
)
from .union import Union
from .window import CountWindow, NowWindow, TimeWindow, UnboundedWindow

__all__ = [
    "Aggregate",
    "AggregateFunction",
    "CostMeter",
    "CountWindow",
    "Difference",
    "DuplicateElimination",
    "HashJoin",
    "NULL_METER",
    "NestedLoopsJoin",
    "NowWindow",
    "Operator",
    "Project",
    "ProjectFields",
    "Select",
    "StatefulOperator",
    "StatelessOperator",
    "TimeWindow",
    "UnboundedWindow",
    "Union",
    "avg_of",
    "count",
    "equi_join",
    "max_of",
    "merge_flags",
    "min_of",
    "sum_of",
    "theta_join",
]
