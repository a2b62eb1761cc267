"""Black-box flight recorder: a bounded ring of high-signal events.

The paper's gateways mask faults so well that a failed run's history is
invisible by the time anyone looks; snapshots and traces only show the
end state.  The :class:`FlightRecorder` keeps the last N *interesting*
moments — fault-injector actions, Totem membership/token transitions,
span closes, audit deltas, metric-delta-over-threshold samples, style
switches — and dumps them as deterministic JSON post-mortem (chaos
sweep failures, the pytest on-failure fixture, ``python -m repro
--flight-dump``).

Recording is purely passive: ``record`` appends to a deque and never
schedules events, touches metrics, or allocates per-call beyond the
event dict, so arming the recorder does not perturb the simulation —
a flight-enabled run is behaviourally identical to a disabled one.
Disabled (the default), hooks pay one attribute load and one boolean
test (the ``CallbackCounter`` laziness convention).

Event kinds are dot-separated names under ``flight.*`` and must appear
in the docs/OBSERVABILITY.md catalogue (enforced by OBS001).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional

from .export import canonical_json
from .metrics import ClockFn, _validate_name

FLIGHT_SCHEMA_VERSION = 1


class FlightRecorder:
    """Bounded ring of recent high-signal events on the simulated clock."""

    def __init__(self, clock: Optional[ClockFn] = None, enabled: bool = False,
                 capacity: int = 256) -> None:
        self.clock: ClockFn = clock if clock is not None else (lambda: 0.0)
        self.enabled = enabled
        self.capacity = capacity
        self.recorded = 0
        self._events: Deque[Dict[str, Any]] = deque(maxlen=capacity)

    def record(self, kind: str, **detail: Any) -> None:
        """Append one event (no-op while disabled).

        ``detail`` values must be JSON-serialisable scalars; callers
        stringify rich objects so dumps stay canonical.
        """
        if not self.enabled:
            return
        self.recorded += 1
        self._events.append({
            "seq": self.recorded,
            "t": self.clock(),
            "kind": _validate_name(kind),
            "detail": {key: detail[key] for key in sorted(detail)},
        })

    # -- reads ----------------------------------------------------------

    def events(self, kind: Optional[str] = None) -> List[Dict[str, Any]]:
        """Retained events oldest-first, optionally filtered by kind."""
        if kind is None:
            return list(self._events)
        return [event for event in self._events if event["kind"] == kind]

    @property
    def dropped(self) -> int:
        return self.recorded - len(self._events)

    def clear(self) -> None:
        self._events.clear()
        self.recorded = 0

    # -- export ---------------------------------------------------------

    def dump(self) -> Dict[str, Any]:
        return {
            "schema": FLIGHT_SCHEMA_VERSION,
            "t": self.clock(),
            "capacity": self.capacity,
            "recorded": self.recorded,
            "dropped": self.dropped,
            "events": list(self._events),
        }

    def dump_json(self) -> str:
        return canonical_json(self.dump())
