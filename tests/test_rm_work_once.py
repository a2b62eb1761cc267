"""Per-multicast work done once, not once per receiver.

Every receiver of a Totem multicast shares one ``DomainMessage``.  The
Replication Mechanisms decode an invocation's request header once per
message (``DomainMessage.request``) and a leader-follower follower
never marshals the nested invocations only its leader multicasts.
These tests pin that neither shortcut is observable: replicas still
get their own argument objects, a malformed request still fails at
every receiver, and a promoted follower re-multicasts exactly the
nested invocation it would have built eagerly.
"""

import pytest

from repro import ReplicationStyle, World
from repro.apps import (
    ACCOUNT_INTERFACE,
    AccountServant,
    LEDGER_INTERFACE,
    LedgerServant,
    TRANSFER_INTERFACE,
    TransferAgentServant,
)
from repro.core.identifiers import OperationId, UNUSED_CLIENT_ID
from repro.errors import MarshalError
from repro.eternal.messages import DomainMessage, MsgKind
from repro.eternal.naming import make_object_key
from repro.eternal.replication import _deterministic_request_id
from repro.iiop import TC_LONG, SequenceTC
from repro.iiop.giop import RequestMessage, encode_request
from repro.orb import Interface, Operation, Param, Servant, encode_arguments

from tests.helpers import SLOW_TOTEM, external_client, make_domain

MUTATOR = Interface("Mutator", [
    Operation("consume", [Param("items", SequenceTC(TC_LONG))], TC_LONG),
])


class MutatorServant(Servant):
    """Mutates its sequence argument in place, as a servant may."""

    interface = MUTATOR

    def __init__(self):
        self.received = []
        self._arguments = []

    def consume(self, items):
        self.received.append(list(items))
        self._arguments.append(items)
        total = sum(items)
        items.append(99)
        items[0] = -1
        return total


def _mutator_group(domain):
    servants = []

    def factory():
        servant = MutatorServant()
        servants.append(servant)
        return servant

    group = domain.create_group("Mutator", MUTATOR, factory,
                                style=ReplicationStyle.ACTIVE, num_replicas=3)
    domain.await_ready(group)
    return group, servants


def test_active_replicas_share_the_request_but_not_the_arguments(world):
    domain = make_domain(world)
    group, servants = _mutator_group(domain)
    executed = []
    for rm in domain.rms.values():
        def execute(msg, record, info, request, key, _real=rm._execute,
                    **kwargs):
            if msg.target_group == group.group_id:
                executed.append((msg, request))
            return _real(msg, record, info, request, key, **kwargs)
        rm._execute = execute

    assert world.await_promise(group.invoke("consume", [1, 2, 3])) == 6
    world.run(until=world.now + 0.2)

    assert len(servants) == 3
    # Each replica saw the arguments as sent, whatever the others did
    # to theirs, and got its own list object.
    assert [s.received for s in servants] == [[[1, 2, 3]]] * 3
    arguments = [s._arguments[0] for s in servants]
    assert all(a == [-1, 2, 3, 99] for a in arguments)
    assert len({id(a) for a in arguments}) == 3
    # One delivered message, one decoded request, three executions.
    assert len(executed) == 3
    message, request = executed[0]
    assert all(m is message and r is request for m, r in executed)
    assert request is message.request()


def test_malformed_invocation_fails_at_every_receiver(world):
    domain = make_domain(world)
    group, servants = _mutator_group(domain)
    msg = DomainMessage(kind=MsgKind.INVOCATION, source_group=77,
                        target_group=group.group_id, client_id="bad",
                        op_id=OperationId(1, 0),
                        iiop=b"GIOP\x01\x00\x00\x00\x00\x00\x00\x40junk")
    hosting = [rm for rm in domain.rms.values()
               if group.group_id in rm.replicas]
    assert len(hosting) == 3
    for seq, rm in enumerate(hosting, start=500):
        executed = rm.stats["invocations_executed"]
        with pytest.raises(MarshalError):
            rm._on_deliver(seq, "h", msg)
        # Nothing recorded, nothing executed, nothing cached.
        seen = rm._invocations_seen.get(group.group_id, {})
        assert ((77, "bad", OperationId(1, 0)) not in seen
                and not any(k[0] == 77 for k in seen))
        assert rm.stats["invocations_executed"] == executed
        assert msg._request is None
    assert all(s.received == [] for s in servants)


def _eager_nested_invocation(rm, execution, call, original, info):
    """The nested INVOCATION exactly as every replica built it before
    followers deferred the build: the oracle for the promotion test."""
    op_id = OperationId(execution.parent_ts, execution._child_counter + 1)
    target = rm.registry.by_name(call.target)
    nested_op = rm.interfaces[target.interface_name].operation(call.operation)
    message = DomainMessage(
        kind=MsgKind.INVOCATION,
        source_group=info.group_id,
        target_group=target.group_id,
        client_id=UNUSED_CLIENT_ID,
        op_id=op_id,
        iiop=encode_request(RequestMessage(
            request_id=_deterministic_request_id(op_id),
            response_expected=not nested_op.oneway,
            object_key=make_object_key(rm.domain_name, target.group_id),
            operation=nested_op.name,
            body=encode_arguments(nested_op, call.args),
        )),
    )
    tr = original.trace
    if tr is not None and rm._span_collector.enabled:
        message.trace = (tr[0], execution.trace_span or tr[1], tr[2])
    return message


@pytest.mark.parametrize("spans", [False, True], ids=["untraced", "traced"])
def test_promoted_follower_reissues_the_eager_nested_invocation(spans):
    world = World(seed=1234, trace_spans=spans)
    domain = make_domain(world, num_hosts=4, gateways=1,
                         totem_config=SLOW_TOTEM)
    lf = ReplicationStyle.LEADER_FOLLOWER
    accounts = domain.create_group("Accounts", ACCOUNT_INTERFACE,
                                   AccountServant)
    domain.create_group("Ledger", LEDGER_INTERFACE, LedgerServant,
                        style=ReplicationStyle.WARM_PASSIVE)
    agent = domain.create_group("Transfers", TRANSFER_INTERFACE,
                                TransferAgentServant, style=lf,
                                num_replicas=3, min_replicas=2)
    for group in (accounts, agent):
        domain.await_ready(group)
    world.await_promise(accounts.invoke("deposit", "alice", 100))
    _, stub, _ = external_client(world, domain, agent, enhanced=False)

    leader = agent.info().primary(domain.coordinator_rm().live_hosts)
    eager, multicast = {}, []
    for host_name, rm in domain.rms.items():
        if agent.group_id not in rm.replicas:
            continue

        def issue(execution, call, original, info, key, _rm=rm,
                  _real=rm._issue_nested):
            if info.group_id == agent.group_id:
                built = _eager_nested_invocation(_rm, execution, call,
                                                 original, info)
                eager[(_rm.host.name, built.op_id)] = built
            return _real(execution, call, original, info, key)

        def send(message, _rm=rm, _real=rm.multicast):
            if (message.kind is MsgKind.INVOCATION
                    and message.source_group == agent.group_id):
                multicast.append((_rm.host.name, message))
                if _rm.host.name == leader and len(multicast) == 1:
                    # The leader dies with its first nested call
                    # outstanding.
                    world.scheduler.call_after(0.0, world.faults.crash_now,
                                               leader)
            return _real(message)

        rm._issue_nested, rm.multicast = issue, send

    assert world.await_promise(stub.call("transfer", "alice", "bob", 40),
                               timeout=30.0) == 40
    world.run(until=world.now + 1.0)

    assert world.metrics.value("rm.style.promotions") >= 1
    new_leader = agent.info().primary(domain.coordinator_rm().live_hosts)
    assert new_leader != leader
    reissued = [m for host, m in multicast if host == new_leader]
    assert reissued, "the promoted follower re-multicast nothing"
    first = reissued[0]
    built = eager[(new_leader, first.op_id)]
    assert first.op_id == OperationId(first.op_id.parent_ts, 1)
    assert first.iiop == built.iiop
    assert (first.source_group, first.target_group, first.client_id) == (
        built.source_group, built.target_group, built.client_id)
    assert first.trace == built.trace
    assert (first.trace is not None) is spans
    # Every later nested call from the new leader matches its eager
    # build too.
    for message in reissued:
        assert message.iiop == eager[(new_leader, message.op_id)].iiop
        assert message.trace == eager[(new_leader, message.op_id)].trace

    assert world.await_promise(accounts.invoke("balance", "alice")) == 60
    assert world.await_promise(accounts.invoke("balance", "bob")) == 40
    assert world.metrics.value("rm.style.order.mismatch") == 0
    # One ordering record per two-way nested call (three) plus one for
    # the promoted follower's re-issue of the first: building the
    # invocation late changes no record.
    assert world.metrics.value("rm.style.order.records") == 4
