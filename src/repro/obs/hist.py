"""Fixed-bucket duration histograms: the registry's one timer kind.

Two related pieces live here:

* :class:`Histogram` — a fixed-bucket duration histogram. Every
  registry timer is one (:meth:`repro.obs.registry.MetricsRegistry.timer`),
  so a duration costs O(1) per observation and O(buckets) in memory no
  matter how many samples arrive — one experiment's stage timers and a
  server's per-batch timers that never restart are recorded the same
  way. ``count`` and ``total`` are exact; snapshots estimate p50/p95/p99
  by linear interpolation *within* the owning bucket, clamped to the
  observed min/max so a sparsely-filled histogram never invents values
  outside the data.
* :func:`percentile_interpolated` — the *exact* linearly-interpolated
  percentile of a raw sample list, for callers that hold every sample
  themselves (``scripts/load_serve.py``). With small sample counts
  nearest-rank p99 degenerates to the max, which made the load
  generator report ``p99 == max`` for a 40-sample run.

Buckets are latency-shaped by default: a 1-2-5 decade series from 10 µs
to 100 s (:data:`DEFAULT_LATENCY_BUCKETS`), with an implicit +inf
overflow bucket. Both pieces are deliberately dependency-free.
"""

from __future__ import annotations

import bisect
import math
import threading
from collections.abc import Iterable, Sequence

from repro.errors import ConfigurationError

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Histogram",
    "percentile_interpolated",
]


def _decade_series(lowest: float, highest: float) -> tuple[float, ...]:
    """The 1-2-5 bucket ladder covering [lowest, highest]."""
    bounds: list[float] = []
    magnitude = lowest
    while magnitude <= highest * 1.0000001:
        for step in (1.0, 2.0, 5.0):
            bound = magnitude * step
            if lowest <= bound <= highest * 1.0000001:
                bounds.append(bound)
        magnitude *= 10.0
    return tuple(bounds)


#: Upper bounds (seconds) of the default latency buckets: 10 µs to 100 s
#: in a 1-2-5 series; anything larger lands in the +inf overflow bucket.
DEFAULT_LATENCY_BUCKETS = _decade_series(1e-5, 100.0)


def percentile_interpolated(samples: Iterable[float], q: float) -> float:
    """Linearly-interpolated percentile of *samples* (q in [0, 100]).

    Uses the "linear" (inclusive) method: rank ``(n - 1) * q / 100``
    interpolated between its neighbouring order statistics — the method
    numpy's default ``percentile`` uses, so p99 of a small sample set
    lands *between* the top samples instead of collapsing onto the max.

    >>> percentile_interpolated([1.0, 2.0, 3.0, 4.0], 50)
    2.5
    """
    items = sorted(samples)
    if not items:
        raise ConfigurationError("percentile of no samples")
    if any(math.isnan(item) for item in items):
        # NaN is unordered: sorted() leaves it wherever it started and
        # every comparison-based rank silently becomes garbage.
        raise ConfigurationError("percentile of NaN samples")
    if not 0.0 <= q <= 100.0:
        raise ConfigurationError(f"percentile q must be in [0, 100], got {q}")
    rank = (len(items) - 1) * q / 100.0
    lower = math.floor(rank)
    upper = math.ceil(rank)
    if lower == upper:
        return items[lower]
    weight = rank - lower
    return items[lower] * (1.0 - weight) + items[upper] * weight


class Histogram:
    """A fixed-bucket duration histogram (seconds); the timer kind.

    Observations are O(1) (a bisect into the bound list); memory is
    O(buckets) forever. ``observe`` is thread-safe — the serve layer
    records queue waits from the scheduler thread while ``/metrics``
    scrapes from the event loop. Negative and non-finite durations are
    rejected: callers that difference wall-clock stamps clamp at zero.
    """

    __slots__ = (
        "name",
        "bounds",
        "counts",
        "count",
        "total",
        "min",
        "max",
        "_lock",
    )

    def __init__(
        self, name: str, bounds: Sequence[float] | None = None
    ) -> None:
        self.name = name
        chosen = tuple(bounds) if bounds is not None else DEFAULT_LATENCY_BUCKETS
        if not chosen or list(chosen) != sorted(chosen) or chosen[0] <= 0:
            raise ConfigurationError(
                f"histogram {name!r} bounds must be positive and ascending, "
                f"got {chosen!r}"
            )
        self.bounds = chosen
        #: counts[i] is the samples with value <= bounds[i]; the final
        #: slot is the +inf overflow bucket.
        self.counts = [0] * (len(chosen) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        if not math.isfinite(seconds):
            # NaN would fall through every bucket comparison into the
            # first bucket and poison total/mean forever; inf likewise.
            raise ConfigurationError(
                f"histogram {self.name} observed non-finite duration "
                f"{seconds}"
            )
        if seconds < 0:
            raise ConfigurationError(
                f"histogram {self.name} observed negative duration {seconds}"
            )
        index = bisect.bisect_left(self.bounds, seconds)
        with self._lock:
            self.counts[index] += 1
            self.count += 1
            self.total += seconds
            if seconds < self.min:
                self.min = seconds
            if seconds > self.max:
                self.max = seconds

    def quantile(self, q: float) -> float:
        """Estimated q-th percentile, interpolated within its bucket.

        The estimate is exact to within one bucket width and clamped to
        the observed [min, max], so sparse histograms never report a
        latency outside the recorded data.
        """
        if not 0.0 <= q <= 100.0:
            raise ConfigurationError(
                f"percentile q must be in [0, 100], got {q}"
            )
        with self._lock:
            counts = list(self.counts)
            count = self.count
            low, high = self.min, self.max
        if count == 0:
            raise ConfigurationError(f"histogram {self.name} has no samples")
        target = q / 100.0 * count
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            cumulative += bucket_count
            if cumulative >= target and bucket_count:
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = (
                    self.bounds[index] if index < len(self.bounds) else high
                )
                position = (target - (cumulative - bucket_count)) / bucket_count
                estimate = lower + (upper - lower) * position
                return min(max(estimate, low), high)
        return high

    def snapshot(self) -> dict[str, float]:
        """count/total/mean/min/max plus interpolated p50/p95/p99."""
        if self.count == 0:
            return {"count": 0, "total_s": 0.0}
        return {
            "count": self.count,
            "total_s": self.total,
            "mean_s": self.total / self.count,
            "min_s": self.min,
            "max_s": self.max,
            "p50_s": self.quantile(50),
            "p95_s": self.quantile(95),
            "p99_s": self.quantile(99),
        }

    def bucket_counts(self) -> list[tuple[float, int]]:
        """(upper bound, cumulative count) pairs, +inf bucket last."""
        pairs: list[tuple[float, int]] = []
        cumulative = 0
        with self._lock:
            counts = list(self.counts)
        for index, bucket_count in enumerate(counts):
            cumulative += bucket_count
            bound = (
                self.bounds[index] if index < len(self.bounds) else math.inf
            )
            pairs.append((bound, cumulative))
        return pairs

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count} total={self.total:.4f}s>"
