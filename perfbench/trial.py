"""One trial: build a ``World`` for a workload's schedule, run it, check it.

A trial is the benchmark's unit of work.  Its simulated results depend
only on the workload and seed, so every trial of one seed must agree
with the first, traced or not; only the wall-clock figures differ.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro import World

from hostspeed import SpeedMeter
from ledger import Ledger
from workloads import RUN_TIMEOUT_S, WORKLOADS

#: Simulated seconds run after the last reply, before the checks, so
#: state transfers and passive updates reach every replica.
SETTLE_S = 2.0

#: Wall seconds of simulation between two host-speed measurements.
SLICE_S = 0.25


@dataclass
class Trial:
    """Outcome of one trial.  ``sim`` holds the simulated results (equal
    across trials of one seed); the rest is wall-clock or ledger data.
    It keeps no reference to the trial's ``World``, so one trial's
    objects never weigh on the next one's memory or garbage collection."""

    setup_s: float
    run_s: float
    #: The same two times at reference host speed (see hostspeed.py).
    setup_ref_s: float
    run_ref_s: float
    sim: Dict[str, Any]
    problems: List[str]
    counts: Dict[str, Optional[float]]
    ledger: Optional[Ledger]

    @property
    def scale(self) -> float:
        """Reference seconds per wall second over the timed run."""
        return self.run_ref_s / self.run_s


def _series(snapshot: Dict[str, Dict[str, Any]], name: str,
            key: str = "value") -> Optional[float]:
    """A registry series' field, or None (absent) when not registered."""
    data = snapshot.get(name)
    return None if data is None else data[key]


def _delta(before: Optional[float], after: Optional[float]
           ) -> Optional[float]:
    if after is None:
        return None
    return after - (before or 0)


def _gateway_stat(gateways: List[Any], key: str) -> Optional[int]:
    """Sum of one key of the gateways' public ``stats``; None if absent."""
    values = [gw.stats.get(key) for gw in gateways]
    if any(v is None for v in values):
        return None
    return sum(values)


def _drive(workload: Any, ledger: Optional[Ledger]) -> Tuple[float, float]:
    """Run the workload's schedule to completion in wall-clock slices of
    about :data:`SLICE_S`, measuring host speed between slices; return
    the run's wall seconds and reference seconds.  Pausing the scheduler
    between events leaves the simulated run unchanged."""
    scheduler = workload.world.scheduler
    deadline = scheduler.now + RUN_TIMEOUT_S
    clock = time.perf_counter
    meter = SpeedMeter()
    slice_end = 0.0

    def pause() -> bool:
        return workload.finished() or clock() >= slice_end

    def run_slice() -> None:
        scheduler.run_until(pause, timeout=deadline - scheduler.now)

    workload.start()
    while not workload.finished():
        started = clock()
        slice_end = started + SLICE_S
        if ledger is not None:
            meter.account(ledger.run_root(run_slice))
        else:
            run_slice()
            meter.account(clock() - started)
    return meter.wall_s, meter.reference_s


def run_trial(name: str, seed: int, traced: bool = False) -> Trial:
    """Run workload ``name`` on ``seed`` once; trace it when ``traced``."""
    workload = WORKLOADS[name](seed)
    ledger = Ledger() if traced else None
    gc.collect()
    if ledger is not None:
        ledger.install()
        workload.loadgen_span = lambda fn: ledger.span("loadgen", None, fn)
    try:
        meter = SpeedMeter()
        started = time.perf_counter()
        world = World(seed=seed)
        workload.build(world)
        setup_s = time.perf_counter() - started
        setup_ref_s = meter.account(setup_s)

        scheduler, network = world.scheduler, world.network
        events0 = scheduler.events_processed
        datagrams0 = network.datagrams_delivered
        before = world.metrics.snapshot()
        gateway_stats0 = {key: _gateway_stat(workload.domain.gateways, key)
                          for key in ("requests_received", "requests_queued",
                                      "requests_shed", "takeover_forwards")}

        if ledger is not None:
            ledger.reset()
        run_s, run_ref_s = _drive(workload, ledger)
    finally:
        if ledger is not None:
            ledger.restore()

    events = scheduler.events_processed - events0
    datagrams = network.datagrams_delivered - datagrams0
    after = world.metrics.snapshot()
    gateways = workload.domain.gateways
    counts: Dict[str, Optional[float]] = {
        "sim.events": events,
        "sim.datagrams": datagrams,
        "totem.retransmits": _delta(
            _series(before, "totem.retransmit.count"),
            _series(after, "totem.retransmit.count")),
        "eternal.executions": _delta(
            _series(before, "eternal.invocations.executed"),
            _series(after, "eternal.invocations.executed")),
        "eternal.duplicates": _delta(
            _series(before, "eternal.invocations.duplicate"),
            _series(after, "eternal.invocations.duplicate")),
        "eternal.replays": _delta(
            _series(before, "fault.recovery.replays"),
            _series(after, "fault.recovery.replays")),
        "eternal.state_transfer_bytes": _delta(
            _series(before, "fault.state_transfer.bytes", "sum"),
            _series(after, "fault.state_transfer.bytes", "sum")),
        "core.client.reissued": sum(
            requester.stats["reissued"]
            for layer in workload.layers for requester in layer.requesters),
    }
    for key, value in gateway_stats0.items():
        counts[f"core.gateway.{key}"] = _delta(
            value, _gateway_stat(gateways, key))

    # Not timed: let the domain settle, then check the outcome.
    world.run(until=world.now + SETTLE_S)
    problems = workload.check()
    served = len(workload.done_at)
    if served + workload.shed + workload.failed != workload.attempted:
        problems.append(
            f"served {served} + shed {workload.shed} + failed "
            f"{workload.failed} != attempted {workload.attempted}")
    if workload.attempted != workload.planned:
        problems.append(f"attempted {workload.attempted} != planned "
                        f"{workload.planned}")
    if workload.open_loop and workload.lateness > 1e-9:
        problems.append(f"generator ran late by {workload.lateness} s")
    sim = {
        "served": served,
        "shed": workload.shed,
        "failed": workload.failed,
        "attempted": workload.attempted,
        "latencies": workload.latencies(),
        "outage_s": workload.outage(),
        "faults": len(workload.faults_at),
        "lateness_s": workload.lateness,
        "metrics_json": world.metrics_json(),
    }
    return Trial(setup_s=setup_s, run_s=run_s, setup_ref_s=setup_ref_s,
                 run_ref_s=run_ref_s, sim=sim, problems=problems,
                 counts=counts, ledger=ledger)
