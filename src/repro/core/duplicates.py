"""Duplicate detection and suppression of responses (paper section 3.3).

With active replication, *every* replica of the server returns a
response; the receiver — a gateway, or the Replication Mechanisms of an
invoking group — must deliver exactly one copy and discard the rest,
comparing response identifiers.  With active-with-voting replication,
the receiver instead delivers the first response value returned by a
majority of replicas, masking value faults of a minority.

:class:`DuplicateSuppressor` implements both receiver policies keyed by
the (source group, client id, operation id) deduplication key, and
remembers recently delivered operations so that late duplicates — even
ones arriving after delivery — are still recognised and counted.

A first-wins expectation (``votes_needed`` 1, the common case) is held
as a bare ``None`` entry: the first copy offered is delivered, so there
are no vote counts or responders to keep.  Only voting expectations
allocate a :class:`_Pending`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Hashable, Optional, Set, Tuple


@dataclass
class _Pending:
    votes_needed: int
    counts: Dict[bytes, int] = field(default_factory=dict)
    responders: Set[Hashable] = field(default_factory=set)


# offer()'s lookup default: no expectation is registered for the key.
_UNEXPECTED = _Pending(votes_needed=0)


class DuplicateSuppressor:
    """First-wins or majority-vote response delivery with dedup."""

    # offer() verdicts
    DELIVER = "deliver"        # deliver this payload now (exactly once)
    DUPLICATE = "duplicate"    # already delivered: suppress
    PENDING = "pending"        # voting: not enough agreeing votes yet
    UNEXPECTED = "unexpected"  # no expectation registered for this key

    def __init__(self, remember_delivered: int = 100_000) -> None:
        # key -> _Pending for a voting expectation, None for first-wins.
        self._pending: Dict[Hashable, Optional[_Pending]] = {}
        self._delivered: "OrderedDict[Hashable, bool]" = OrderedDict()
        self._remember = remember_delivered
        # reprolint: disable=AUD001 -- fixed key set, bounded by construction
        self.stats = {
            "delivered": 0,
            "duplicates_suppressed": 0,
            "votes_counted": 0,
            "unexpected": 0,
        }

    # ------------------------------------------------------------------

    def expect(self, key: Hashable, votes_needed: int = 1) -> None:
        """Announce interest in responses for ``key``.

        ``votes_needed`` is 1 for plain active/passive replication and
        the majority size for active-with-voting.
        """
        if key in self._delivered or key in self._pending:
            return
        self._pending[key] = (_Pending(votes_needed=votes_needed)
                              if votes_needed > 1 else None)

    def cancel(self, key: Hashable) -> None:
        self._pending.pop(key, None)

    def is_expected(self, key: Hashable) -> bool:
        return key in self._pending

    def was_delivered(self, key: Hashable) -> bool:
        return key in self._delivered

    def suppress_delivered(self, key: Hashable) -> bool:
        """Count and suppress a copy of an already-delivered ``key``.

        The receiver's fast path: one membership test, and on a hit the
        same ``duplicates_suppressed`` count :meth:`offer` would make.
        Returns False (counting nothing) when ``key`` is not delivered;
        the caller then offers the copy."""
        if key in self._delivered:
            self.stats["duplicates_suppressed"] += 1
            return True
        return False

    def offer(self, key: Hashable, payload: bytes,
              responder: Optional[Hashable] = None) -> Tuple[str, Optional[bytes]]:
        """Offer one response copy; returns (verdict, payload-to-deliver)."""
        if key in self._delivered:
            self.stats["duplicates_suppressed"] += 1
            return (DuplicateSuppressor.DUPLICATE, None)
        pending = self._pending.get(key, _UNEXPECTED)
        if pending is None:
            # First-wins: the first copy offered is delivered.
            self.stats["votes_counted"] += 1
            self._mark_delivered(key)
            self.stats["delivered"] += 1
            return (DuplicateSuppressor.DELIVER, payload)
        if pending is _UNEXPECTED:
            self.stats["unexpected"] += 1
            return (DuplicateSuppressor.UNEXPECTED, None)
        if responder is not None:
            if responder in pending.responders:
                # The same replica re-sent its response (e.g. recovery
                # replay): not a fresh vote.
                self.stats["duplicates_suppressed"] += 1
                return (DuplicateSuppressor.DUPLICATE, None)
            pending.responders.add(responder)
        pending.counts[payload] = pending.counts.get(payload, 0) + 1
        self.stats["votes_counted"] += 1
        if pending.counts[payload] >= pending.votes_needed:
            self._mark_delivered(key)
            self.stats["delivered"] += 1
            return (DuplicateSuppressor.DELIVER, payload)
        return (DuplicateSuppressor.PENDING, None)

    @property
    def pending_count(self) -> int:
        """Expectations still awaiting delivery (0 at quiescence)."""
        return len(self._pending)

    @property
    def delivered_count(self) -> int:
        """Delivered-memory entries (bounded by the remember window)."""
        return len(self._delivered)

    @property
    def remember_limit(self) -> int:
        return self._remember

    def register_audit(self, scope, owner: str = "", active=None,
                       prefix: str = "filter",
                       gauge_prefix: Optional[str] = None) -> None:
        """Declare this suppressor's two maps to a resource-audit scope.

        Every expectation must eventually resolve (response delivered,
        cancelled, or purged with its client), so ``_pending`` floors at
        zero; the delivered-memory is legitimately full up to its
        remember window."""
        gp = gauge_prefix
        scope.register(f"{prefix}.pending", lambda: len(self._pending),
                       floor=0, owner=owner, active=active,
                       gauge=None if gp is None else f"{gp}.pending")
        scope.register(f"{prefix}.delivered", lambda: len(self._delivered),
                       floor=lambda: self._remember, owner=owner,
                       active=active,
                       gauge=None if gp is None else f"{gp}.delivered")

    def reduce_votes(self, predicate, votes_needed: int = 1):
        """Lower the vote requirement of matching pending expectations.

        A live VOTING→non-voting style switch strands in-flight
        expectations that were registered with a majority requirement:
        after the switch only one responder will ever speak, so the
        quorum can never form.  Receivers relax those expectations to
        ``votes_needed`` at the switch point (a total-order event, hence
        consistent everywhere).  Any payload that already satisfies the
        relaxed requirement is delivered immediately; the newly-ready
        ``(key, payload)`` pairs are returned (in pending-map insertion
        order) for the caller to route.
        """
        target = max(1, votes_needed)
        ready = []
        for key in [k for k in self._pending if predicate(k)]:
            pending = self._pending[key]
            if pending is None or pending.votes_needed <= target:
                continue
            pending.votes_needed = target
            for payload, count in pending.counts.items():
                if count >= target:
                    self._mark_delivered(key)
                    self.stats["delivered"] += 1
                    ready.append((key, payload))
                    break
        return ready

    def forget_where(self, predicate) -> int:
        """Drop pending expectations and delivered-memory whose key
        matches ``predicate``; returns how many entries were removed.

        Used when all state for a client is purged (CLIENT_GONE): a
        later reincarnation of the same identifiers must be re-servable,
        not silently suppressed.
        """
        removed = 0
        for key in [k for k in self._pending if predicate(k)]:
            del self._pending[key]
            removed += 1
        for key in [k for k in self._delivered if predicate(k)]:
            del self._delivered[key]
            removed += 1
        return removed

    # ------------------------------------------------------------------

    def _mark_delivered(self, key: Hashable) -> None:
        self._pending.pop(key, None)
        self._delivered[key] = True
        while len(self._delivered) > self._remember:
            self._delivered.popitem(last=False)
