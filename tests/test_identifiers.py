"""Tests for Figure 6 invocation/response/operation identifiers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    InvocationId,
    OperationId,
    ResponseId,
    UNUSED_CLIENT_ID,
    dedup_key,
    external_operation_id,
)
from repro.eternal.messages import DomainMessage, MsgKind, _value_weight
from repro.eternal.replication import ReplicationMechanisms

from tests.helpers import external_client, make_counter_group, make_domain


def test_figure6_worked_example():
    """The example of Figure 6: T_A_inv=100, S_A_inv=3, T_B_inv=120,
    T_B_res=171; invocation and response share the operation id."""
    op = OperationId(parent_ts=100, child_seq=3)
    invocation = InvocationId(ts=120, op=op)
    response = ResponseId(ts=171, op=op)
    assert invocation.op == response.op
    assert invocation.ts == 120
    assert response.ts == 171
    assert str(invocation) == "inv[120,op(100,3)]"
    assert str(response) == "res[171,op(100,3)]"


def test_operation_ids_are_value_objects():
    assert OperationId(1, 2) == OperationId(1, 2)
    assert OperationId(1, 2) != OperationId(1, 3)
    assert hash(OperationId(1, 2)) == hash(OperationId(1, 2))
    assert len({OperationId(1, 2), OperationId(1, 2)}) == 1


def test_external_operation_id_has_no_parent():
    op = external_operation_id(17)
    assert op.parent_ts == 0
    assert op.child_seq == 17


def test_dedup_key_distinguishes_clients():
    """Section 3.2: source group, client id and operation id are used
    collectively — two clients with the same request numbers differ."""
    op = external_operation_id(1)
    key_a = dedup_key(1, 5, op)
    key_b = dedup_key(1, 6, op)
    assert key_a != key_b


def test_dedup_key_distinguishes_source_groups():
    op = OperationId(100, 1)
    assert dedup_key(1, UNUSED_CLIENT_ID, op) != dedup_key(2, UNUSED_CLIENT_ID, op)


def test_dedup_key_matches_for_reinvocation():
    """A reissued request (same client uid, same request id) maps to the
    same key — the property gateway failover relies on (section 3.5)."""
    first = dedup_key(1, "ftclient/browser/1#1", external_operation_id(42))
    reissued = dedup_key(1, "ftclient/browser/1#1", external_operation_id(42))
    assert first == reissued


def test_unused_client_id_collides_with_no_counter_or_uid():
    assert UNUSED_CLIENT_ID != 0
    assert UNUSED_CLIENT_ID > 2**31  # above any plausible counter value
    assert not isinstance(UNUSED_CLIENT_ID, str)


@given(st.integers(0, 2**32), st.integers(0, 2**16),
       st.integers(0, 2**32), st.integers(0, 2**16))
def test_distinct_parents_never_collide_property(ts1, seq1, ts2, seq2):
    op1, op2 = OperationId(ts1, seq1), OperationId(ts2, seq2)
    if (ts1, seq1) != (ts2, seq2):
        assert op1 != op2
    else:
        assert op1 == op2


@given(st.lists(st.tuples(st.integers(1, 1000), st.integers(1, 50)),
                min_size=1, max_size=200, unique=True))
def test_operation_ids_unique_across_parent_children_property(pairs):
    """Totem timestamps are unique, child counters restart per parent:
    the pair is globally unique — the paper's uniqueness argument."""
    ids = {OperationId(ts, seq) for ts, seq in pairs}
    assert len(ids) == len(pairs)


# ----------------------------------------------------------------------
# OperationId is a named tuple: pins on what must not move
# ----------------------------------------------------------------------

@given(st.integers(-2**63, 2**63), st.integers(-2**63, 2**63))
def test_operation_id_hashes_like_its_field_tuple(parent_ts, child_seq):
    """The same hash a frozen dataclass of the two fields had, so no
    dict or set holding dedup keys changes its iteration order."""
    assert hash(OperationId(parent_ts, child_seq)) == hash(
        (parent_ts, child_seq))


def test_operation_id_repr_and_str_are_unchanged():
    op = OperationId(100, 3)
    assert repr(op) == "OperationId(parent_ts=100, child_seq=3)"
    assert str(op) == "op(100,3)"
    assert f"{op}" == "op(100,3)"


def test_operation_id_is_immutable():
    op = OperationId(1, 2)
    with pytest.raises(AttributeError):
        op.parent_ts = 5
    with pytest.raises(AttributeError):
        op.extra = 1


def _op_ids_in_values(value):
    """Op ids anywhere in a control-data value (dict keys excluded)."""
    if isinstance(value, OperationId):
        return 1
    if isinstance(value, dict):
        return sum(_op_ids_in_values(v) for v in value.values())
    if isinstance(value, (list, tuple, set)):
        return sum(_op_ids_in_values(v) for v in value)
    return 0


def test_state_transfer_with_dedup_keys_keeps_its_size_hint(world,
                                                            monkeypatch):
    """A STATE_TRANSFER carries the dedup table, keyed by (source
    group, client id, op id).  Dict keys are not weighed, so making op
    ids tuples leaves the message's weight alone; and no control data
    carries an op id as a value, where a tuple would weigh more."""
    sent = []
    original = ReplicationMechanisms.multicast

    def record(rm, message):
        sent.append(message)
        return original(rm, message)

    monkeypatch.setattr(ReplicationMechanisms, "multicast", record)
    domain = make_domain(world, num_hosts=4, gateways=1)
    group = make_counter_group(domain, replicas=2)
    domain.await_ready(group)
    _, stub, _ = external_client(world, domain, group, enhanced=True)
    for _ in range(3):
        world.await_promise(stub.call("increment", 1))
    spare = [h for h in domain.replica_host_names
             if h not in group.info().placement][0]
    domain.coordinator_rm().multicast(DomainMessage(
        kind=MsgKind.ADD_REPLICA, source_group=0, target_group=0,
        data={"group_id": group.group_id, "host": spare}))
    world.run(until=world.now + 1.0)
    assert domain.rms[spare].replicas[group.group_id].servant.count == 3

    transfers = [m for m in sent if m.kind is MsgKind.STATE_TRANSFER]
    assert len(transfers) == 1
    data = transfers[0].data
    dedup = data["dedup"]
    assert len(dedup) == 3
    assert all(isinstance(key[2], OperationId) for key in dedup)
    # 40 header bytes; each record value weighs 16, keys nothing.
    expected = 40 + sum(_value_weight(v) for k, v in data.items()
                        if k != "dedup") + 8 + 16 * len(dedup)
    assert transfers[0].size_hint() == expected
    assert world.metrics.histogram("fault.state_transfer.bytes").max == (
        expected)
    assert sum(_op_ids_in_values(m.data) for m in sent) == 0
