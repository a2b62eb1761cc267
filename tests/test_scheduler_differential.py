"""Differential oracle: the scheduler against a sorted-list model.

:class:`repro.sim.scheduler.Scheduler` promises that events fire in
``(time, tiebreak)`` order, with the tiebreak drawn when an event is
scheduled, rescheduled or re-armed.  :class:`ModelScheduler` below
states that promise in the plainest possible form — one list of
``(time, tiebreak, handle)`` entries, the minimum pops first, cancels
and reschedules edit the list eagerly — with none of the kernel's lazy
reschedules, stale-entry accounting or compaction.  This module pins
the kernel to the model two ways:

* Hypothesis generates random programs over the full scheduling API —
  ``call_at`` / ``call_after`` / ``call_soon`` / ``post`` /
  ``post_batch`` / ``call_every`` / ``cancel`` / ``reschedule`` /
  ``reschedule_after`` / ``rearm_after`` — executed from *inside*
  running events, and kernel and model must produce identical firing
  logs, final clocks and event counts;
* segmented ``run(until=...)`` / ``step()`` drives (which leave stale
  and lazily rescheduled entries queued across the cut) must match the
  model at every cut point.

Any kernel change that alters observable ordering fails here first,
long before a golden file drifts; ``tests/test_perf_goldens.py`` pins
the goldens themselves.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.scheduler import Scheduler


# ----------------------------------------------------------------------
# The model
# ----------------------------------------------------------------------


class ModelTimer:
    """Handle with the kernel Timer's observable surface."""

    def __init__(self, sched, fn, args):
        self.sched = sched
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.fired = False

    @property
    def active(self):
        return not self.cancelled and not self.fired

    def cancel(self):
        if self.active:
            self.cancelled = True
            self.sched._remove(self)


class ModelScheduler:
    """Sorted-list reference semantics for the scheduler kernel."""

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self._entries = []  # (time, tiebreak, handle)
        self._tiebreak = itertools.count()

    def _push(self, time, handle):
        self._entries.append((time, next(self._tiebreak), handle))
        return handle

    def _remove(self, handle):
        self._entries = [e for e in self._entries if e[2] is not handle]

    def call_at(self, time, fn, *args):
        return self._push(time, ModelTimer(self, fn, args))

    def call_after(self, delay, fn, *args):
        return self.call_at(self.now + delay, fn, *args)

    def call_soon(self, fn, *args):
        return self.call_at(self.now, fn, *args)

    def post(self, delay, fn, *args):
        self.call_after(delay, fn, *args)

    def post_batch(self, delay, fn, argss):
        for args in argss:
            self.call_after(delay, fn, *args)

    def call_every(self, interval, fn, *args):
        def tick():
            self.rearm_after(timer, interval)
            fn(*args)

        timer = self.call_after(interval, tick)
        return timer

    def reschedule(self, timer, time):
        self._remove(timer)
        return self._push(time, timer)

    def reschedule_after(self, timer, delay):
        return self.reschedule(timer, self.now + delay)

    def rearm_after(self, timer, delay):
        timer.fired = False
        return self._push(self.now + delay, timer)

    def step(self):
        if not self._entries:
            return False
        entry = min(self._entries)
        self._entries.remove(entry)
        time, _, timer = entry
        self.now = time
        timer.fired = True
        self.events_processed += 1
        timer.fn(*timer.args)
        return True

    def run(self, until=None, max_events=10_000_000):
        processed = 0
        while self._entries and processed < max_events:
            if until is not None and min(self._entries)[0] > until:
                break
            self.step()
            processed += 1
        if processed >= max_events:
            raise SimulationError("event budget exhausted")
        if until is not None and self.now < until:
            self.now = until
        return processed


# ----------------------------------------------------------------------
# Random programs over the scheduling API
# ----------------------------------------------------------------------

# Times/delays on a 2.5ms grid spanning 0–150ms: coarse enough that
# most events share their instant with others (same-time cohorts are
# where tiebreak order is observable).
_TIMES = st.integers(0, 60).map(lambda k: k * 0.0025)
_DELAYS = st.integers(0, 40).map(lambda k: k * 0.0025)
_IDX = st.integers(0, 99)

_OPS = st.one_of(
    st.tuples(st.just("timer"), _TIMES, _DELAYS, st.just(0)),
    st.tuples(st.just("at"), _TIMES, _DELAYS, st.just(0)),
    st.tuples(st.just("soon"), _TIMES, st.just(0), st.just(0)),
    st.tuples(st.just("post"), _TIMES, _DELAYS, st.just(0)),
    st.tuples(st.just("post_batch"), _TIMES, _DELAYS,
              st.integers(0, 5)),
    st.tuples(st.just("every"), _TIMES,
              st.integers(1, 8).map(lambda k: k * 0.003),
              st.integers(1, 5).map(lambda k: k * 0.01)),
    st.tuples(st.just("cancel"), _TIMES, _IDX, st.just(0)),
    st.tuples(st.just("resched"), _TIMES, _IDX, _DELAYS),
    st.tuples(st.just("resched_after"), _TIMES, _IDX, _DELAYS),
    st.tuples(st.just("rearm"), _TIMES, _IDX, _DELAYS),
)

_PROGRAMS = st.lists(_OPS, min_size=1, max_size=30)


def _run_program(kernel, program):
    """Execute ``program`` on a fresh kernel; each op runs as an event
    at its own simulated time, so cancels/reschedules/rearms interleave
    with firings exactly as application code would issue them."""
    sched = kernel()
    log = []
    handles = []

    def note(tag):
        log.append((sched.now, "fire", tag))

    def run_op(i, op):
        kind, _, p1, p2 = op
        if kind == "timer":
            handles.append(sched.call_after(p1, note, i))
        elif kind == "at":
            handles.append(sched.call_at(sched.now + p1, note, i))
        elif kind == "soon":
            handles.append(sched.call_soon(note, i))
        elif kind == "post":
            sched.post(p1, note, i)
        elif kind == "post_batch":
            sched.post_batch(p1, note, [(f"{i}.{j}",) for j in range(p2)])
        elif kind == "every":
            timer = sched.call_every(p1, note, i)
            handles.append(timer)
            # Bound the series: cancel it a fixed delay later.
            sched.call_after(p2, timer.cancel)
        elif kind == "cancel":
            if handles:
                target = p1 % len(handles)
                handles[target].cancel()
                log.append((sched.now, "cancel", target))
        elif kind == "resched":
            if handles:
                target = handles[p1 % len(handles)]
                if target.active:
                    sched.reschedule(target, sched.now + p2)
                    log.append((sched.now, "resched", p1 % len(handles)))
        elif kind == "resched_after":
            if handles:
                target = handles[p1 % len(handles)]
                if target.active:
                    sched.reschedule_after(target, p2)
                    log.append((sched.now, "resched_after",
                                p1 % len(handles)))
        elif kind == "rearm":
            if handles:
                target = handles[p1 % len(handles)]
                if target.fired and not target.cancelled:
                    sched.rearm_after(target, p2)
                    log.append((sched.now, "rearm", p1 % len(handles)))
    for i, op in enumerate(program):
        sched.call_at(op[1], run_op, i, op)
    returned = sched.run(max_events=100_000)
    return log, sched.now, sched.events_processed, returned


@settings(max_examples=200, deadline=None)
@given(program=_PROGRAMS)
def test_random_programs_fire_identically(program):
    """The headline differential: 200 random API programs, identical
    firing order (the log captures every fire/cancel/reschedule/rearm
    with its simulated time), final clock, and event count."""
    assert (_run_program(Scheduler, program)
            == _run_program(ModelScheduler, program))


@settings(max_examples=50, deadline=None)
@given(
    timers=st.lists(st.tuples(_TIMES, st.booleans()), min_size=1,
                    max_size=25),
    cuts=st.lists(st.integers(1, 70), min_size=1, max_size=5),
    steps=st.integers(0, 3),
)
def test_segmented_until_and_step_drives_match(timers, cuts, steps):
    """run(until=...) leaves partially drained state behind (stale and
    lazily rescheduled entries stay queued across the cut).  Driving
    kernel and model through the same cut points — with step() calls
    and mid-segment cancels thrown in — must keep them in lockstep at
    every boundary."""
    bounds = sorted(k * 0.0025 for k in cuts)
    results = []
    for kernel in (Scheduler, ModelScheduler):
        sched = kernel()
        log = []
        handles = [sched.call_after(t, log.append, (t, i))
                   for i, (t, flag) in enumerate(timers)]
        # Pre-run hygiene: cancel the flagged half before anything runs.
        for handle, (_, flag) in zip(handles, timers):
            if flag:
                handle.cancel()
        observations = []
        for _ in range(steps):
            observations.append(("step", sched.step(), sched.now,
                                 tuple(log)))
        for bound in bounds:
            processed = sched.run(until=bound)
            observations.append(("run", bound, processed, sched.now,
                                 tuple(log)))
            # Mid-drive mutation: push the first still-active timer out
            # past the next bound, exercising lazy reschedule across
            # segment boundaries.
            for handle in handles:
                if handle.active:
                    sched.reschedule(handle, sched.now + 0.02)
                    break
        final = sched.run()
        observations.append(("final", final, sched.now, tuple(log),
                             sched.events_processed))
        results.append(observations)
    assert results[0] == results[1]
