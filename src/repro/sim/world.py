"""Convenience container wiring the simulation substrate together.

A :class:`World` owns one scheduler, one network, one TCP stack, one
tracer, one fault injector, and one seeded RNG.  Every test, example and
benchmark starts by constructing a ``World`` and building domains,
gateways and clients inside it.  ``World.run_until_done`` drives the
event loop until a set of promises resolves, which is the idiomatic way
to make synchronous-looking test code out of the asynchronous
simulation.
"""

from __future__ import annotations

import random
from typing import Any, Iterable, Optional

from ..errors import SimulationError
from ..obs import (AuditReport, AuditScope, FlightRecorder, MetricsRegistry,
                   SeriesRegistry, TraceCollector, render_text, to_json)
from .faults import FaultInjector
from .host import Host
from .network import LatencyModel, Network
from .scheduler import _COMPACT_MIN_QUEUE, Scheduler
from .tcp import TcpStack
from .trace import Tracer


class Promise:
    """A single-assignment result used to bridge async simulation to tests.

    Resolve with :meth:`resolve` or fail with :meth:`reject`; registered
    callbacks fire immediately on completion.  ``result()`` raises the
    stored exception if the promise was rejected.
    """

    __slots__ = ("done", "_value", "_error", "_callbacks")

    def __init__(self) -> None:
        self.done = False
        self._value: Any = None
        self._error: Optional[BaseException] = None
        self._callbacks = []

    def resolve(self, value: Any = None) -> None:
        if self.done:
            return
        self.done = True
        self._value = value
        for fn in self._callbacks:
            fn(self)
        self._callbacks.clear()

    def reject(self, error: BaseException) -> None:
        if self.done:
            return
        self.done = True
        self._error = error
        for fn in self._callbacks:
            fn(self)
        self._callbacks.clear()

    def on_done(self, fn) -> None:
        if self.done:
            fn(self)
        else:
            self._callbacks.append(fn)

    @property
    def failed(self) -> bool:
        return self.done and self._error is not None

    @property
    def value(self) -> Any:
        """The resolved value (None until resolution or when rejected)."""
        return self._value

    @property
    def error(self) -> Optional[BaseException]:
        return self._error

    def result(self) -> Any:
        if not self.done:
            raise SimulationError("promise not yet resolved")
        if self._error is not None:
            raise self._error
        return self._value


class World:
    """One simulated universe: scheduler + network + TCP + faults + RNG."""

    def __init__(
        self,
        seed: int = 0,
        latency_model: Optional[LatencyModel] = None,
        trace: bool = True,
        mtu: Optional[int] = None,
        trace_spans: bool = False,
        trace_max_records: Optional[int] = None,
        scheduler: Optional[Scheduler] = None,
        series: bool = False,
        series_window: float = 1.0,
        series_capacity: int = 240,
        series_sample_interval: float = 0.25,
        flight: bool = False,
        flight_capacity: int = 256,
    ) -> None:
        # An injected scheduler (e.g. the race detector's cohort-
        # permuting subclass) must be fresh: it becomes this world's
        # clock and the anchor of every component built below.
        self.scheduler: Scheduler = (
            scheduler if scheduler is not None else Scheduler())
        self.tracer = Tracer(enabled=trace, max_records=trace_max_records)
        # One registry per world: the simulated clock is the scheduler,
        # and every component reads the same registry via its network.
        self.metrics = MetricsRegistry(clock=lambda: self.scheduler.now)
        self.scheduler.attach_metrics(self.metrics)
        # One audit scope per world (see repro.obs.audit): components
        # register their stateful collections as they are built, and
        # world.audit() checks every one against its declared floor.
        self.audit_scope = AuditScope(metrics=self.metrics,
                                      clock=lambda: self.scheduler.now)
        # Causal tracing (repro.obs.tracing): disabled by default so a
        # traced build is byte-identical — metrics, goldens, wire bytes
        # — to one without the subsystem; ``trace_spans=True`` records
        # per-invocation span trees on the simulated clock.
        # Flight recorder (repro.obs.flight): a bounded ring of recent
        # high-signal events.  Recording is purely passive (no scheduler
        # events, no metrics), so arming it never perturbs a run.
        self.flight = FlightRecorder(clock=lambda: self.scheduler.now,
                                     enabled=flight,
                                     capacity=flight_capacity)
        # Time-series layer (repro.obs.series): disabled by default so
        # the simulated event stream and metric key set stay
        # byte-identical to a build without it; ``series=True`` arms
        # event-driven per-group/per-gateway series (sampled sources
        # stay opt-in via ``world.series.sample`` because the periodic
        # sampler does add scheduler events).
        self.series = SeriesRegistry(
            clock=lambda: self.scheduler.now, enabled=series,
            capacity=series_capacity, window_s=series_window,
            sample_interval=series_sample_interval, flight=self.flight)
        self.series.attach_scheduler(self.scheduler)
        self.trace_collector = TraceCollector(
            enabled=trace_spans, clock=lambda: self.scheduler.now,
            metrics=self.metrics, flight=self.flight)
        self.network = Network(self.scheduler, latency_model=latency_model,
                               tracer=self.tracer, metrics=self.metrics,
                               audit=self.audit_scope,
                               spans=self.trace_collector,
                               series=self.series, flight=self.flight)
        self._register_scheduler_audit()
        self.tcp = TcpStack(self.network, mtu=mtu)
        self.faults = FaultInjector(self.scheduler, self.network,
                                    flight=self.flight)
        self.rng = random.Random(seed)
        self.seed = seed

    @property
    def now(self) -> float:
        return self.scheduler.now

    def _register_scheduler_audit(self) -> None:
        """Declare the event queue's hygiene contract to the audit scope.

        The queue itself legitimately holds live periodic timers at any
        quiescent instant (token rotation never stops), so its depth is
        snapshot-only; what must stay bounded is the *stale* entry count
        — cancelled or superseded heap entries — which compaction keeps
        below half the queue (or below the compaction threshold for
        small queues).
        """
        sched = self.scheduler
        self.audit_scope.register(
            "sched.queue", lambda: sched.pending_events, floor=None,
            owner="scheduler", gauge="sched.state.queue_depth")
        self.audit_scope.register(
            "sched.queue.stale", lambda: sched.stale_entries,
            floor=lambda: max(sched.pending_events // 2,
                              _COMPACT_MIN_QUEUE - 1),
            owner="scheduler", gauge="sched.state.stale_entries")

    def audit(self, strict: bool = False) -> AuditReport:
        """Run the resource-leak audit over every registered collection.

        Returns the :class:`~repro.obs.AuditReport`; with ``strict=True``
        raises :class:`~repro.errors.AuditError` on any collection above
        its declared floor.  Also publishes the ``*.state.*`` gauge
        family into ``world.metrics`` (created on first audit)."""
        report = self.audit_scope.audit()
        flight = self.flight
        if flight.enabled:
            for row in report.violations:
                flight.record("flight.audit", name=row.name, owner=row.owner,
                              size=row.size, floor=row.floor)
        if strict:
            report.assert_clean()
        return report

    def trace_chrome_json(self) -> str:
        """Chrome ``trace_event`` JSON of the recorded spans
        (byte-identical across seeded reruns); load in ``about:tracing``
        or Perfetto, or feed to ``tools/trace_report.py``."""
        return self.trace_collector.export_chrome()

    def trace_tree(self) -> str:
        """Aligned text tree of the recorded spans, one tree per trace."""
        return self.trace_collector.export_tree()

    def series_json(self) -> str:
        """Canonical JSON dump of every time series (byte-identical
        across seeded reruns)."""
        return self.series.to_json()

    def flight_json(self) -> str:
        """Canonical JSON dump of the flight recorder's event ring."""
        return self.flight.dump_json()

    def metrics_json(self, include_wall: bool = False) -> str:
        """Canonical JSON snapshot (byte-identical across seeded reruns
        when ``include_wall`` is False)."""
        return to_json(self.metrics, include_wall=include_wall)

    def metrics_report(self, include_wall: bool = False) -> str:
        """Human-readable metrics table for this world."""
        return render_text(self.metrics, include_wall=include_wall)

    def add_host(self, name: str, site: Optional[str] = None) -> Host:
        return self.network.add_host(name, site=site)

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> int:
        return self.scheduler.run(until=until, max_events=max_events)

    def run_until_done(self, promises: Iterable[Promise],
                       timeout: float = 120.0) -> None:
        """Drive the simulation until every promise completes."""
        pending = list(promises)
        self.scheduler.run_until(
            lambda: all(p.done for p in pending), timeout=timeout,
        )

    def await_promise(self, promise: Promise, timeout: float = 120.0) -> Any:
        """Run until ``promise`` completes and return (or raise) its result."""
        self.scheduler.run_until(lambda: promise.done, timeout=timeout)
        return promise.result()
