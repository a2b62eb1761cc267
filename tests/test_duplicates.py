"""Unit tests for duplicate response suppression and voting (section 3.3)."""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DuplicateSuppressor


def test_first_response_delivered_rest_suppressed():
    s = DuplicateSuppressor()
    s.expect("op1")
    verdict, payload = s.offer("op1", b"reply", responder="r0")
    assert verdict == DuplicateSuppressor.DELIVER
    assert payload == b"reply"
    for responder in ("r1", "r2"):
        verdict, _ = s.offer("op1", b"reply", responder=responder)
        assert verdict == DuplicateSuppressor.DUPLICATE
    assert s.stats["delivered"] == 1
    assert s.stats["duplicates_suppressed"] == 2


def test_unexpected_response_reported():
    s = DuplicateSuppressor()
    verdict, _ = s.offer("unknown", b"x")
    assert verdict == DuplicateSuppressor.UNEXPECTED
    assert s.stats["unexpected"] == 1


def test_voting_requires_majority():
    s = DuplicateSuppressor()
    s.expect("op", votes_needed=2)
    verdict, _ = s.offer("op", b"good", responder="r0")
    assert verdict == DuplicateSuppressor.PENDING
    verdict, payload = s.offer("op", b"good", responder="r1")
    assert verdict == DuplicateSuppressor.DELIVER
    assert payload == b"good"


def test_voting_masks_minority_value_fault():
    """One faulty replica returns different bytes; majority wins."""
    s = DuplicateSuppressor()
    s.expect("op", votes_needed=2)
    assert s.offer("op", b"WRONG", responder="bad")[0] == DuplicateSuppressor.PENDING
    assert s.offer("op", b"good", responder="r1")[0] == DuplicateSuppressor.PENDING
    verdict, payload = s.offer("op", b"good", responder="r2")
    assert verdict == DuplicateSuppressor.DELIVER
    assert payload == b"good"


def test_same_responder_cannot_vote_twice():
    s = DuplicateSuppressor()
    s.expect("op", votes_needed=2)
    assert s.offer("op", b"x", responder="r0")[0] == DuplicateSuppressor.PENDING
    assert s.offer("op", b"x", responder="r0")[0] == DuplicateSuppressor.DUPLICATE
    assert s.offer("op", b"x", responder="r1")[0] == DuplicateSuppressor.DELIVER


def test_expect_is_idempotent():
    s = DuplicateSuppressor()
    s.expect("op", votes_needed=2)
    s.expect("op", votes_needed=1)  # later expect does not weaken voting
    assert s.offer("op", b"x", responder="a")[0] == DuplicateSuppressor.PENDING


def test_expect_after_delivery_is_ignored():
    s = DuplicateSuppressor()
    s.expect("op")
    s.offer("op", b"x")
    s.expect("op")
    assert s.offer("op", b"x")[0] == DuplicateSuppressor.DUPLICATE


def test_cancel_removes_expectation():
    s = DuplicateSuppressor()
    s.expect("op")
    s.cancel("op")
    assert s.offer("op", b"x")[0] == DuplicateSuppressor.UNEXPECTED


def test_delivered_memory_is_bounded():
    s = DuplicateSuppressor(remember_delivered=10)
    for i in range(25):
        s.expect(i)
        s.offer(i, b"r")
    # The oldest delivered keys have been evicted.
    assert not s.was_delivered(0)
    assert s.was_delivered(24)


def test_independent_keys_do_not_interfere():
    s = DuplicateSuppressor()
    s.expect("a")
    s.expect("b")
    assert s.offer("a", b"ra")[0] == DuplicateSuppressor.DELIVER
    assert s.offer("b", b"rb")[0] == DuplicateSuppressor.DELIVER


@given(st.integers(1, 7), st.integers(1, 7))
def test_exactly_one_delivery_property(replicas, votes_needed):
    """However many replica responses arrive, at most one is delivered,
    and it is delivered iff enough identical votes arrived."""
    s = DuplicateSuppressor()
    s.expect("op", votes_needed=votes_needed)
    delivered = 0
    for i in range(replicas):
        verdict, _ = s.offer("op", b"same", responder=f"r{i}")
        if verdict == DuplicateSuppressor.DELIVER:
            delivered += 1
    assert delivered == (1 if replicas >= votes_needed else 0)


# ----------------------------------------------------------------------
# Differential: first-wins entries against an all-_Pending oracle
# ----------------------------------------------------------------------

class _OraclePending:
    def __init__(self, votes_needed):
        self.votes_needed = votes_needed
        self.counts = {}
        self.responders = set()


class OracleSuppressor:
    """The suppressor as it was before first-wins entries: every
    expectation, voting or not, holds vote counts and a responder set."""

    def __init__(self, remember_delivered):
        self._pending = {}
        self._delivered = OrderedDict()
        self._remember = remember_delivered
        self.stats = {"delivered": 0, "duplicates_suppressed": 0,
                      "votes_counted": 0, "unexpected": 0}

    def expect(self, key, votes_needed=1):
        if key in self._delivered or key in self._pending:
            return
        self._pending[key] = _OraclePending(max(1, votes_needed))

    def cancel(self, key):
        self._pending.pop(key, None)

    def offer(self, key, payload, responder=None):
        if key in self._delivered:
            self.stats["duplicates_suppressed"] += 1
            return (DuplicateSuppressor.DUPLICATE, None)
        pending = self._pending.get(key)
        if pending is None:
            self.stats["unexpected"] += 1
            return (DuplicateSuppressor.UNEXPECTED, None)
        if responder is not None:
            if responder in pending.responders:
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

    def reduce_votes(self, predicate, votes_needed=1):
        target = max(1, votes_needed)
        ready = []
        for key in [k for k in self._pending if predicate(k)]:
            pending = self._pending[key]
            if pending.votes_needed <= target:
                continue
            pending.votes_needed = target
            for payload, count in pending.counts.items():
                if count >= target:
                    self._mark_delivered(key)
                    self.stats["delivered"] += 1
                    ready.append((key, payload))
                    break
        return ready

    def forget_where(self, predicate):
        removed = 0
        for key in [k for k in self._pending if predicate(k)]:
            del self._pending[key]
            removed += 1
        for key in [k for k in self._delivered if predicate(k)]:
            del self._delivered[key]
            removed += 1
        return removed

    def _mark_delivered(self, key):
        self._pending.pop(key, None)
        self._delivered[key] = True
        while len(self._delivered) > self._remember:
            self._delivered.popitem(last=False)


_KEYS = st.integers(0, 3)
_OP_ARGS = {
    "expect": st.tuples(_KEYS, st.integers(0, 3)),
    "offer": st.tuples(_KEYS, st.sampled_from([b"a", b"b"]),
                       st.sampled_from([None, "r0", "r1", "r2"])),
    "suppress": st.tuples(_KEYS),
    "cancel": st.tuples(_KEYS),
    "reduce_votes": st.tuples(st.integers(0, 2), st.integers(1, 2)),
    "forget_where": st.tuples(st.integers(0, 2)),
}
# Weighted toward expectations and offers, so keys get delivered,
# re-offered, relaxed and pushed out of the remember window.
_OP_NAMES = (["expect"] * 4 + ["offer"] * 6 + ["suppress"] * 2
             + ["cancel", "reduce_votes", "forget_where"])
_FILTER_OPS = st.sampled_from(_OP_NAMES).flatmap(
    lambda name: _OP_ARGS[name].map(lambda args: (name,) + args))


def _apply(suppressor, op):
    name = op[0]
    if name == "expect":
        return suppressor.expect(op[1], votes_needed=op[2])
    if name == "offer":
        return suppressor.offer(op[1], op[2], responder=op[3])
    if name == "suppress":
        if isinstance(suppressor, OracleSuppressor):
            # The fast path is an offer that finds the key delivered.
            if op[1] in suppressor._delivered:
                suppressor.offer(op[1], b"")
                return True
            return False
        return suppressor.suppress_delivered(op[1])
    if name == "cancel":
        return suppressor.cancel(op[1])
    residue = op[1]
    if name == "reduce_votes":
        return suppressor.reduce_votes(lambda key: key % 3 == residue, op[2])
    return suppressor.forget_where(lambda key: key % 3 == residue)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.lists(_FILTER_OPS, min_size=10, max_size=80))
def test_first_wins_entries_match_the_all_pending_oracle(remember, program):
    """Verdicts, payloads, reduce/forget results, stats and both sizes
    agree after every step, including remember-window overflow and a
    responder re-sending its copy."""
    real = DuplicateSuppressor(remember_delivered=remember)
    oracle = OracleSuppressor(remember_delivered=remember)
    for op in program:
        assert _apply(real, op) == _apply(oracle, op), op
        assert real.stats == oracle.stats, op
        assert real.pending_count == len(oracle._pending), op
        assert real.delivered_count == len(oracle._delivered), op
        for key in range(4):
            assert real.is_expected(key) == (key in oracle._pending)
            assert real.was_delivered(key) == (key in oracle._delivered)


def test_first_wins_expectation_allocates_no_vote_state():
    s = DuplicateSuppressor()
    s.expect("plain")
    s.expect("voting", votes_needed=2)
    assert s._pending["plain"] is None
    assert s._pending["voting"].votes_needed == 2
