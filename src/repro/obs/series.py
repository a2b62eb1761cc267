"""Sim-clock time series: ring buffers with windowed aggregators.

Metrics (:mod:`repro.obs.metrics`) answer "what is the total now?";
this module answers "how did it evolve?".  A :class:`SeriesRegistry`
holds labeled :class:`Series` — per-group, per-gateway, per-domain —
each backed by a fixed-size ring of ``(t, value)`` samples plus three
windowed aggregators:

* :class:`SlidingRate` — events (or summed amounts) per second over a
  sliding window;
* :class:`Ewma` — a time-decayed exponentially weighted moving average
  (irregular sampling intervals are handled by deriving alpha from the
  gap, so a burst does not get extra weight);
* :class:`QuantileSketch` — a windowed streaming quantile estimate over
  the same exponential buckets as :class:`~repro.obs.metrics.Histogram`
  (two rotating half-window epochs, so an estimate covers between half
  and one full window of history).

Series come in two flavours.  *Event* series are fed directly from
instrumentation sites (``registry.observe(name, value, group="3")``).
*Sampled* series poll a callback on a periodic scheduler tick
(``registry.sample(name, fn)``); the sampler is only armed when the
registry is enabled AND at least one sampled source is registered, so
an enabled registry with purely event-driven series adds **zero**
scheduler events — the simulated event stream stays byte-identical to
a disabled run.

Laziness contract (repo convention, see ``CallbackCounter``): when the
registry is disabled — the default — instrumentation sites pay one
attribute load and one boolean test, no allocation, no metric objects.

Everything reads the simulated clock; two runs of a seeded scenario
(on either twin scheduler) export byte-identical JSON.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from typing import (Any, Callable, Deque, Dict, List, Optional, TYPE_CHECKING,
                    Tuple)

from ..errors import ConfigurationError
from .export import canonical_json
from .metrics import ClockFn, Histogram, _validate_name

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .flight import FlightRecorder

SERIES_SCHEMA_VERSION = 1

LabelItems = Tuple[Tuple[str, str], ...]

_LABEL_KEY_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789_")


def _label_items(labels: Dict[str, Any]) -> LabelItems:
    items: List[Tuple[str, str]] = []
    for key in sorted(labels):
        if not key or not set(key) <= _LABEL_KEY_CHARS:
            raise ConfigurationError(
                f"invalid series label key {key!r}: want lowercase [a-z0-9_]")
        items.append((key, str(labels[key])))
    return tuple(items)


def render_key(name: str, labels: LabelItems) -> str:
    """Canonical ``name{k="v",...}`` identity (labels pre-sorted)."""
    if not labels:
        return name
    rendered = ",".join(
        '%s="%s"' % (k, v.replace("\\", "\\\\").replace('"', '\\"'))
        for k, v in labels)
    return f"{name}{{{rendered}}}"


class RingBuffer:
    """Fixed-capacity ring of ``(t, value)`` samples, oldest evicted."""

    __slots__ = ("_ring", "capacity", "appended")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.appended = 0
        self._ring: Deque[Tuple[float, float]] = deque(maxlen=capacity)

    def append(self, t: float, value: float) -> None:
        self.appended += 1
        self._ring.append((t, value))

    def items(self) -> List[Tuple[float, float]]:
        """Retained samples, oldest first."""
        return list(self._ring)

    @property
    def dropped(self) -> int:
        return self.appended - len(self._ring)

    def __len__(self) -> int:
        return len(self._ring)


class SlidingRate:
    """Events (or summed amounts) per second over a sliding window."""

    __slots__ = ("window_s", "_events")

    def __init__(self, window_s: float) -> None:
        if window_s <= 0:
            raise ConfigurationError(
                f"rate window must be positive, got {window_s}")
        self.window_s = window_s
        self._events: Deque[Tuple[float, float]] = deque()

    def _evict(self, now: float) -> None:
        horizon = now - self.window_s
        events = self._events
        while events and events[0][0] <= horizon:
            events.popleft()

    def add(self, t: float, amount: float = 1.0) -> None:
        self._evict(t)
        self._events.append((t, amount))

    def rate(self, now: float) -> float:
        """Summed amounts inside ``(now - window, now]`` per second."""
        self._evict(now)
        if not self._events:
            return 0.0
        return sum(amount for _, amount in self._events) / self.window_s


class Ewma:
    """Time-decayed EWMA: ``alpha = 1 - exp(-dt / tau)`` per update.

    Because every update is a convex combination of the previous value
    and the new observation, the estimate is always bounded by the
    min/max of the observations seen so far (a Hypothesis-checked
    property).
    """

    __slots__ = ("tau_s", "value", "_last_t")

    def __init__(self, tau_s: float) -> None:
        if tau_s <= 0:
            raise ConfigurationError(
                f"ewma time constant must be positive, got {tau_s}")
        self.tau_s = tau_s
        self.value: Optional[float] = None
        self._last_t: Optional[float] = None

    def observe(self, t: float, value: float) -> None:
        if self.value is None or self._last_t is None:
            self.value = value
        else:
            dt = max(0.0, t - self._last_t)
            alpha = 1.0 - math.exp(-dt / self.tau_s) if dt > 0 else 0.0
            self.value += alpha * (value - self.value)
        self._last_t = t


class QuantileSketch:
    """Windowed streaming quantiles over exponential buckets.

    Same bucket geometry as :class:`~repro.obs.metrics.Histogram`
    (``BASE=1e-6``, ``GROWTH=1.15``), windowed by keeping two
    half-window epochs and rotating: an estimate therefore covers
    between ``window/2`` and ``window`` of recent history.  The rank
    error of an estimate is bounded by the occupancy of the bucket the
    requested rank falls in (a Hypothesis-checked property); the value
    error by that bucket's width.
    """

    __slots__ = ("window_s", "_half", "_epoch_start", "_cur", "_prev",
                 "_cur_stats", "_prev_stats")

    _BOUNDS = Histogram._BOUNDS

    def __init__(self, window_s: float) -> None:
        if window_s <= 0:
            raise ConfigurationError(
                f"sketch window must be positive, got {window_s}")
        self.window_s = window_s
        self._half = window_s / 2.0
        self._epoch_start: Optional[float] = None
        self._cur: Dict[int, int] = {}
        self._prev: Dict[int, int] = {}
        # Per-epoch (count, min, max) so estimates clamp to observed.
        self._cur_stats: Optional[Tuple[int, float, float]] = None
        self._prev_stats: Optional[Tuple[int, float, float]] = None

    def _roll(self, t: float) -> None:
        if self._epoch_start is None:
            self._epoch_start = t
            return
        if t < self._epoch_start + self._half:
            return
        if t < self._epoch_start + 2.0 * self._half:
            self._prev, self._cur = self._cur, {}
            self._prev_stats, self._cur_stats = self._cur_stats, None
            self._epoch_start += self._half
        else:  # both epochs stale: restart the window at t
            self._cur = {}
            self._prev = {}
            self._cur_stats = None
            self._prev_stats = None
            self._epoch_start = t

    def observe(self, t: float, value: float) -> None:
        if value < 0 or value != value:  # negative or NaN (Histogram rule)
            value = 0.0
        self._roll(t)
        index = bisect_right(self._BOUNDS, value)
        self._cur[index] = self._cur.get(index, 0) + 1
        if self._cur_stats is None:
            self._cur_stats = (1, value, value)
        else:
            count, lo, hi = self._cur_stats
            self._cur_stats = (count + 1, min(lo, value), max(hi, value))

    def quantile(self, q: float, now: float) -> Optional[float]:
        """Estimated q-quantile of the current window; None when empty."""
        self._roll(now)
        merged: Dict[int, int] = dict(self._prev)
        for index, count in self._cur.items():
            merged[index] = merged.get(index, 0) + count
        total = 0
        lo: Optional[float] = None
        hi: Optional[float] = None
        for stats in (self._prev_stats, self._cur_stats):
            if stats is not None:
                total += stats[0]
                lo = stats[1] if lo is None else min(lo, stats[1])
                hi = stats[2] if hi is None else max(hi, stats[2])
        if total == 0 or lo is None or hi is None:
            return None
        rank = max(1, math.ceil(q * total))
        cumulative = 0
        for index in sorted(merged):
            in_bucket = merged[index]
            if cumulative + in_bucket >= rank:
                lower = 0.0 if index == 0 else self._BOUNDS[index - 1]
                upper = (self._BOUNDS[index] if index < len(self._BOUNDS)
                         else hi)
                fraction = (rank - cumulative) / in_bucket
                estimate = lower + (upper - lower) * fraction
                return min(max(estimate, lo), hi)
            cumulative += in_bucket
        return hi  # pragma: no cover - unreachable (counts agree)

    @property
    def count(self) -> int:
        total = 0
        for stats in (self._prev_stats, self._cur_stats):
            if stats is not None:
                total += stats[0]
        return total


class Series:
    """One labeled time series: sample ring + windowed aggregators."""

    __slots__ = ("name", "labels", "key", "ring", "last_t", "last_value",
                 "_rate", "_ewma", "_sketch", "sampled", "_fn",
                 "flight_delta")

    def __init__(self, name: str, labels: LabelItems, capacity: int,
                 window_s: float, ewma_tau_s: float) -> None:
        self.name = name
        self.labels = labels
        self.key = render_key(name, labels)
        self.ring = RingBuffer(capacity)
        self.last_t: Optional[float] = None
        self.last_value: Optional[float] = None
        self._rate = SlidingRate(window_s)
        self._ewma = Ewma(ewma_tau_s)
        self._sketch = QuantileSketch(window_s)
        self.sampled = False
        self._fn: Optional[Callable[[], float]] = None
        # Sampled series only: |value - previous| >= flight_delta emits
        # a flight-recorder event (metric-delta-over-threshold).
        self.flight_delta: Optional[float] = None

    def record(self, t: float, value: float) -> None:
        self.ring.append(t, value)
        self.last_t = t
        self.last_value = value
        self._rate.add(t, value)
        self._ewma.observe(t, value)
        self._sketch.observe(t, value)

    # -- windowed reads -------------------------------------------------

    def rate(self, now: float) -> float:
        """Summed recorded amounts per second over the window."""
        return self._rate.rate(now)

    @property
    def ewma(self) -> Optional[float]:
        return self._ewma.value

    def quantile(self, q: float, now: float) -> Optional[float]:
        return self._sketch.quantile(q, now)

    def window_count(self, now: float) -> int:
        """Observations inside the sketch's current window."""
        self._sketch._roll(now)
        return self._sketch.count

    def snapshot(self, now: float) -> Dict[str, Any]:
        return {
            "name": self.name,
            "labels": {k: v for k, v in self.labels},
            "sampled": self.sampled,
            "count": self.ring.appended,
            "dropped": self.ring.dropped,
            "last_t": self.last_t,
            "last": self.last_value,
            "rate": self.rate(now),
            "ewma": self.ewma,
            "p50": self.quantile(0.50, now),
            "p95": self.quantile(0.95, now),
            "p99": self.quantile(0.99, now),
            "points": [[t, v] for t, v in self.ring.items()],
        }


class SeriesRegistry:
    """Labeled time series sharing one simulated clock.

    Disabled (the default) the registry is inert: instrumentation sites
    guard with ``if sr.enabled:`` and never allocate.  Enabled, event
    series record on ``observe`` and sampled series poll on a periodic
    scheduler tick (armed lazily on the first ``sample()``
    registration, so purely event-driven use adds no scheduler events).
    """

    def __init__(self, clock: Optional[ClockFn] = None, enabled: bool = False,
                 capacity: int = 240, window_s: float = 1.0,
                 ewma_tau_s: Optional[float] = None,
                 sample_interval: float = 0.25,
                 flight: Optional["FlightRecorder"] = None) -> None:
        self.clock: ClockFn = clock if clock is not None else (lambda: 0.0)
        self.enabled = enabled
        self.capacity = capacity
        self.window_s = window_s
        self.ewma_tau_s = ewma_tau_s if ewma_tau_s is not None else window_s
        self.sample_interval = sample_interval
        self.flight = flight
        self._series: Dict[str, Series] = {}
        self._sampled: List[Series] = []
        self._scheduler: Optional[Any] = None
        self._armed = False

    # -- creation / lookup ----------------------------------------------

    def series(self, name: str, **labels: Any) -> Series:
        """Get-or-create the series ``name`` with these labels."""
        items = _label_items(labels)
        key = render_key(_validate_name(name), items)
        existing = self._series.get(key)
        if existing is not None:
            return existing
        created = Series(name, items, self.capacity, self.window_s,
                         self.ewma_tau_s)
        self._series[key] = created
        return created

    def get(self, name: str, **labels: Any) -> Optional[Series]:
        return self._series.get(render_key(name, _label_items(labels)))

    def keys(self) -> List[str]:
        return sorted(self._series)

    # -- recording ------------------------------------------------------

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record one event sample (no-op while disabled)."""
        if not self.enabled:
            return
        self.series(name, **labels).record(self.clock(), value)

    def sample(self, name: str, fn: Callable[[], float],
               flight_delta: Optional[float] = None,
               **labels: Any) -> Optional[Series]:
        """Register a sampled source polled every ``sample_interval``.

        Arming the periodic sampler changes the simulated event stream,
        which is why sampled sources are opt-in per run (benches and
        goldens use event series only).  Returns None while disabled.
        """
        if not self.enabled:
            return None
        created = self.series(name, **labels)
        if not created.sampled:
            created.sampled = True
            created._fn = fn
            created.flight_delta = flight_delta
            self._sampled.append(created)
        self._arm()
        return created

    def attach_scheduler(self, scheduler: Any) -> None:
        """Give the registry its timer source (called by the World)."""
        self._scheduler = scheduler
        self._arm()

    def _arm(self) -> None:
        if (self._armed or not self.enabled or self._scheduler is None
                or not self._sampled):
            return
        self._armed = True
        self._scheduler.call_every(self.sample_interval, self._tick)

    def _tick(self) -> None:
        now = self.clock()
        flight = self.flight
        for entry in self._sampled:  # registration order: deterministic
            if entry._fn is None:
                continue
            value = float(entry._fn())
            previous = entry.last_value
            entry.record(now, value)
            if (flight is not None and flight.enabled
                    and entry.flight_delta is not None
                    and (previous is None
                         or abs(value - previous) >= entry.flight_delta)):
                flight.record("flight.series", series=entry.key,
                              previous=previous, value=value)

    # -- export ---------------------------------------------------------

    def snapshot(self, now: Optional[float] = None) -> Dict[str, Any]:
        """Deterministic dump of every series, sorted by key."""
        at = self.clock() if now is None else now
        return {
            "schema": SERIES_SCHEMA_VERSION,
            "t": at,
            "window_s": self.window_s,
            "capacity": self.capacity,
            "series": {key: self._series[key].snapshot(at)
                       for key in sorted(self._series)},
        }

    def to_json(self, now: Optional[float] = None) -> str:
        return canonical_json(self.snapshot(now))

    def last_values(self) -> List[Tuple[str, LabelItems, float]]:
        """(name, labels, last value) rows for the Prometheus exporter."""
        rows: List[Tuple[str, LabelItems, float]] = []
        for key in sorted(self._series):
            entry = self._series[key]
            if entry.last_value is not None:
                rows.append((entry.name, entry.labels, entry.last_value))
        return rows
