"""Metrics registry: counters, gauges, and histograms.

A :class:`MetricsRegistry` is a named bag of instruments with
get-or-create semantics, generalizing the ad-hoc ``DPStats`` counters
of :mod:`repro.engine.stats`: DP layers publish their stats as
``dp.*`` counter deltas through :func:`repro.obs.add_metric`, and any
subsystem can add its own instruments without touching this module.

Instruments are deliberately minimal — plain Python, no locks (the
solvers are single-threaded per context; a `Tracer` and its registry
are per-context objects).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


@dataclass
class Counter:
    """A monotonically accumulated value (increments may be fractional)."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` to the counter."""
        self.value += amount


@dataclass
class Gauge:
    """A last-write-wins value, tracking how many times it was set."""

    name: str
    value: float = 0.0
    updates: int = 0

    def set(self, value: float) -> None:
        """Record the latest reading."""
        self.value = value
        self.updates += 1


@dataclass
class Histogram:
    """Streaming summary of observed values: count/sum/min/max/mean."""

    name: str
    count: int = 0
    total: float = 0.0
    minimum: Optional[float] = None
    maximum: Optional[float] = None

    def observe(self, value: float) -> None:
        """Fold one sample into the summary."""
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        """Average of the observed samples (0.0 before any sample)."""
        if self.count == 0:
            return 0.0
        return self.total / self.count


class MetricsRegistry:
    """Get-or-create store of named :class:`Counter`/:class:`Gauge`/:class:`Histogram`."""

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name``, created on first use."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name``, created on first use."""
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        """The histogram registered under ``name``, created on first use."""
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    @property
    def counters(self) -> Mapping[str, Counter]:
        """Read-only view of the registered counters."""
        return self._counters

    @property
    def gauges(self) -> Mapping[str, Gauge]:
        """Read-only view of the registered gauges."""
        return self._gauges

    @property
    def histograms(self) -> Mapping[str, Histogram]:
        """Read-only view of the registered histograms."""
        return self._histograms

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        """JSON-friendly snapshot of every instrument."""
        return {
            "counters": {k: v.value for k, v in self._counters.items()},
            "gauges": {k: v.value for k, v in self._gauges.items()},
            "histograms": {
                k: {
                    "count": v.count,
                    "sum": v.total,
                    "min": v.minimum,
                    "max": v.maximum,
                    "mean": v.mean,
                }
                for k, v in self._histograms.items()
            },
        }
