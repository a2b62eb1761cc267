"""DomainMessage's once-per-multicast memos: the weight and the decoded
request.

Every receiver of a multicast shares one :class:`DomainMessage`, so
pure work on it is memoised there.  These tests pin that the memoised
results are the ones the per-receiver work produced: ``size_hint`` for
the state-carrying control messages, :func:`_value_weight` against the
plain recursive walk it replaced, and ``request()`` against a fresh
``decode_request`` (failures included).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.identifiers import OperationId
from repro.errors import MarshalError
from repro.eternal.messages import DomainMessage, MsgKind, _value_weight
from repro.iiop.giop import RequestMessage, decode_request, encode_request


def reference_weight(value):
    """The recursive walk ``_value_weight`` had before its flat-``str``
    fast path; the oracle for the property test below."""
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, str):
        return 8 + len(value)
    if isinstance(value, dict):
        return 8 + sum(reference_weight(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return 8 + sum(reference_weight(v) for v in value)
    return 16


class _Str(str):
    """A str subclass: weighed like a str, but not on the fast path."""


class _Opaque:
    """An arbitrary object: weighs 16."""


_scalars = st.one_of(
    st.text(max_size=8),
    st.text(max_size=8).map(_Str),
    st.binary(max_size=8),
    st.binary(max_size=8).map(bytearray),
    st.integers(),
    st.none(),
    st.builds(_Opaque),
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=5),
    ),
    max_leaves=25,
)
# A flat list of str with one item of any other kind spliced in: the
# fast path must decline it and the walk must weigh the odd one out.
_all_str_but_one = st.builds(
    lambda strs, odd, at: strs[:at] + [odd] + strs[at:],
    st.lists(st.text(max_size=8), max_size=8), _values, st.integers(0, 8))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    _values,
    _all_str_but_one,
    st.lists(st.text(max_size=8), max_size=12),
    st.lists(st.text(max_size=8), max_size=12).map(tuple),
    st.dictionaries(st.text(max_size=4), st.text(max_size=8), max_size=8),
    st.dictionaries(st.text(max_size=4), _all_str_but_one, max_size=3),
))
def test_value_weight_equals_reference_walk(value):
    assert _value_weight(value) == reference_weight(value)


def test_value_weight_edge_cases():
    assert _value_weight([]) == _value_weight({}) == _value_weight(()) == 8
    assert _value_weight(["ab", "c"]) == 8 + 10 + 9
    assert _value_weight(["ab", _Str("c")]) == 8 + 10 + 9
    assert _value_weight(["ab", b"c"]) == 8 + 10 + 1
    assert _value_weight({"k": "ab", "j": 3}) == 8 + 10 + 16


# ----------------------------------------------------------------------
# size_hint of the state-carrying control messages
# ----------------------------------------------------------------------

def test_size_hint_state_update():
    msg = DomainMessage(
        kind=MsgKind.STATE_UPDATE, source_group=3, target_group=3,
        data={"state": {"log": ["a->b:5", "c->d:7"]}, "upto_ts": 12})
    # header 40 + state dict (8 + log list (8 + 2 * (8 + 6))) + upto_ts 16
    assert msg.size_hint() == 40 + (8 + (8 + 28)) + 16 == 100


def test_size_hint_checkpoint():
    msg = DomainMessage(
        kind=MsgKind.CHECKPOINT, source_group=3, target_group=3,
        data={"state": {"count": 3, "owner": "alice"}, "upto_ts": 4,
              "version": 2})
    # header 40 + state dict (8 + 16 + (8 + 5)) + upto_ts 16 + version 16
    assert msg.size_hint() == 40 + 37 + 16 + 16 == 109


def test_size_hint_state_transfer():
    class _Record:
        pass

    msg = DomainMessage(
        kind=MsgKind.STATE_TRANSFER, source_group=7, target_group=7,
        data={
            "group_id": 7,
            "recipient": "h3",
            "state": {"balances": {"alice": 60, "bob": 40},
                      "log": ["x", "yy"], "blob": b"\x00" * 5},
            "version": 2,
            "cut_ts": 30,
            "dedup": {(1, 2, 3): _Record(), (1, 2, 4): _Record()},
        })
    state = 8 + (8 + 16 + 16) + (8 + 9 + 10) + 5
    assert msg.size_hint() == (40 + 16 + (8 + 2) + state + 16 + 16
                               + (8 + 16 + 16)) == 218


def test_size_hint_counts_iiop_and_is_cached():
    msg = DomainMessage(kind=MsgKind.INVOCATION, source_group=1,
                        target_group=2, iiop=b"\x01" * 60)
    assert msg.size_hint() == 100
    msg.data["late"] = "ignored"  # the weight is taken once
    assert msg.size_hint() == 100


# ----------------------------------------------------------------------
# request(): decoded once per message
# ----------------------------------------------------------------------

def _invocation(iiop):
    return DomainMessage(kind=MsgKind.INVOCATION, source_group=1,
                         target_group=2, op_id=OperationId(5, 0), iiop=iiop)


def test_request_is_decoded_once_and_matches_a_fresh_decode():
    iiop = encode_request(RequestMessage(
        request_id=9, response_expected=True, object_key=b"dom/2",
        operation="increment", body=b"\x00\x00\x00\x07"))
    msg = _invocation(iiop)
    request = msg.request()
    assert request is msg.request()
    assert request == decode_request(iiop)


def test_malformed_request_raises_at_every_call_and_caches_nothing():
    msg = _invocation(b"GIOP\x01\x00\x00\x00\x00\x00\x00\x40junk")
    for _ in range(3):
        with pytest.raises(MarshalError):
            msg.request()
        assert msg._request is None
