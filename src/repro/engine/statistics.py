"""Runtime statistics: stream rates and operator selectivities.

A DSMS keeps "a plethora of runtime statistics, e.g., on stream rates and
selectivities" (Section 1) to let the optimizer spot stale plans.  The
collectors here are deliberately simple — exponentially decayed counters —
but they provide exactly the inputs the cost model needs.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..temporal.time import Time


class RateEstimator:
    """Exponentially decayed arrival-rate estimate (elements per time unit)."""

    def __init__(self, half_life: Time = 5000) -> None:
        if half_life <= 0:
            raise ValueError(f"half_life must be positive, got {half_life}")
        self.half_life = half_life
        self._weight = 0.0
        self._last_time: Optional[Time] = None
        self.count = 0

    def observe(self, t: Time) -> None:
        """Record one arrival at application time ``t``."""
        self.count += 1
        if self._last_time is not None and t > self._last_time:
            decay = 0.5 ** (float(t - self._last_time) / float(self.half_life))
            self._weight *= decay
        self._weight += 1.0
        if self._last_time is None or t > self._last_time:
            self._last_time = t

    @property
    def rate(self) -> float:
        """Estimated arrivals per time unit (0.0 before any observation)."""
        if self._last_time is None or self._weight <= 1.0:
            return 0.0
        # The decayed weight corresponds to roughly 1.44 * half_life worth
        # of recent arrivals.
        effective_window = 1.443 * float(self.half_life)
        return self._weight / effective_window


class SelectivityEstimator:
    """Observed output/input ratio of a predicate or join."""

    def __init__(self, prior: float = 0.1, prior_weight: int = 10) -> None:
        if not 0.0 <= prior <= 1.0:
            raise ValueError(f"prior must be in [0, 1], got {prior}")
        self._tested = prior_weight
        self._matched = prior * prior_weight

    def observe(self, tested: int, matched: int) -> None:
        """Record ``tested`` candidate evaluations with ``matched`` hits."""
        if matched > tested:
            raise ValueError(f"matched {matched} exceeds tested {tested}")
        self._tested += tested
        self._matched += matched

    @property
    def selectivity(self) -> float:
        """Current estimate in ``[0, 1]``."""
        if self._tested == 0:
            return 0.0
        return self._matched / self._tested


class StatisticsCatalog:
    """Named registry of rate and selectivity estimators for one query."""

    def __init__(self) -> None:
        self.rates: Dict[str, RateEstimator] = {}
        self.selectivities: Dict[str, SelectivityEstimator] = {}

    def rate_of(self, source: str) -> RateEstimator:
        """Get or create the rate estimator of a source."""
        estimator = self.rates.get(source)
        if estimator is None:
            estimator = RateEstimator()
            self.rates[source] = estimator
        return estimator

    def selectivity_of(self, key: str) -> SelectivityEstimator:
        """Get or create the selectivity estimator of a predicate/join."""
        estimator = self.selectivities.get(key)
        if estimator is None:
            estimator = SelectivityEstimator()
            self.selectivities[key] = estimator
        return estimator

    def ready(
        self,
        sources: Optional[Iterable[str]] = None,
        min_observations: int = 2,
    ) -> bool:
        """Whether the rate estimators have warmed up enough to be trusted.

        ``RateEstimator.rate`` is 0.0 until the second observation, so cost
        estimates built from a cold catalog compare garbage against garbage.
        ``ReOptimizer.decide`` — the one place plan migrations are decided,
        on the autonomic controller's behalf — does not act before every
        source named in ``sources`` (default: every registered source) has
        at least ``min_observations`` arrivals on record.
        """
        names = list(sources) if sources is not None else list(self.rates)
        if not names:
            return False
        for name in names:
            estimator = self.rates.get(name)
            if estimator is None or estimator.count < min_observations:
                return False
        return True

    def snapshot(self) -> Dict[str, float]:
        """A flat view of all current estimates.

        No system caller; kept until its unit tests retire (ROADMAP, audit follow-up).
        """
        view: Dict[str, float] = {}
        for name, estimator in self.rates.items():
            view[f"rate:{name}"] = estimator.rate
        for name, estimator in self.selectivities.items():
            view[f"sel:{name}"] = estimator.selectivity
        return view
