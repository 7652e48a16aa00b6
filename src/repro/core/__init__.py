"""Dynamic plan migration strategies — the paper's contribution.

* :class:`GenMig` — the general black-box strategy (Section 4).
* :class:`ShortenedGenMig` — Optimization 2: end-timestamp-based
  ``T_split``.
* :class:`ReferencePointGenMig` — Optimization 1: reference-point method
  replacing the coalesce operator.
* :class:`ParallelTrack` — the prior-art baseline [Zhu et al. 2004],
  including the Section-3 defect on non-join stateful operators.
* :class:`MovingStates` — the other strategy of [Zhu et al. 2004], for
  join trees only.
* :class:`FluidMigration` — Megaphone-style per-key-range handover behind
  a routing frontier, for keyed join trees.
"""

from .coalesce import Coalesce
from .fluid import FluidMigration, FrontierRouter
from .genmig import GenMig, ShortenedGenMig
from .moving_states import MovingStates
from .parallel_track import ParallelTrack
from .reference_point import ReferencePointGenMig
from .split import ReferencePointSplit, Split
from .strategy import (
    MigrationReport,
    MigrationStrategy,
    UnsoundPreferenceError,
    UnsupportedPlanError,
    select_strategy,
)

__all__ = [
    "Coalesce",
    "FluidMigration",
    "FrontierRouter",
    "GenMig",
    "MigrationReport",
    "MigrationStrategy",
    "MovingStates",
    "ParallelTrack",
    "ReferencePointGenMig",
    "ReferencePointSplit",
    "ShortenedGenMig",
    "Split",
    "UnsoundPreferenceError",
    "UnsupportedPlanError",
    "select_strategy",
]
