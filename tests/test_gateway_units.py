"""Unit-level tests of gateway internals (bookkeeping, not scenarios)."""

import pytest

from repro import ReplicationStyle, World
from repro.core import UNUSED_CLIENT_ID
from repro.core.gateway import Gateway
from repro.core.identifiers import external_operation_id
from repro.eternal.messages import DomainMessage, MsgKind
from repro.eternal.naming import GATEWAY_GROUP
from repro.eternal.replication import ReplicationMechanisms

from tests.helpers import external_client, make_counter_group, make_domain


def test_votes_for_plain_group_is_one(world):
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    domain.await_ready(group)
    gateway = domain.gateways[0]
    assert gateway._votes_for(group.info()) == 1


def test_votes_for_voting_group_is_majority(world):
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain,
                               style=ReplicationStyle.ACTIVE_WITH_VOTING,
                               replicas=3)
    domain.await_ready(group)
    gateway = domain.gateways[0]
    assert gateway._votes_for(group.info()) == 2


def test_votes_shrink_with_live_replicas(world):
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain,
                               style=ReplicationStyle.ACTIVE_WITH_VOTING,
                               replicas=3, min_replicas=1)
    domain.await_ready(group)
    world.faults.crash_now(group.info().placement[0])
    world.run(until=world.now + 0.5)
    gateway = domain.gateways[0]
    info = gateway.rm.registry.get(group.group_id)
    assert gateway._votes_for(info) == 2  # 2 live -> majority still 2


def test_connection_keeps_its_client_id_across_requests(world):
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    gateway = domain.gateways[0]
    _, stub, _ = external_client(world, domain, group, enhanced=False)
    world.await_promise(stub.call("increment", 1))
    world.await_promise(stub.call("increment", 1))
    ids = set(gateway._conn_ids.values())
    assert len(ids) == 1  # one connection, one id, however many requests


def test_live_gateway_hosts_falls_back_to_self(world):
    domain = make_domain(world, gateways=1)
    gateway = domain.gateways[0]
    # Before the gateway-group announce is applied, fall back to self.
    gateway.rm.registry.remove(GATEWAY_GROUP)
    assert gateway._live_gateway_hosts() == [gateway.host.name]


def test_forwarded_flag_set_when_invocation_observed(world):
    domain = make_domain(world, gateways=2)
    group = make_counter_group(domain)
    gateway = domain.gateways[0]
    peer = domain.gateways[1]
    _, stub, _ = external_client(world, domain, group, enhanced=True)
    world.await_promise(stub.call("increment", 1))
    world.run(until=world.now + 0.5)
    # The peer recorded the mirror and saw the forward in the total
    # order, so its copy is marked forwarded (no takeover needed).
    mirrored = [p for p in peer._pending.values()]
    assert all(p.forwarded for p in mirrored) or not mirrored


def test_unused_client_id_responses_never_reach_gateway_routing(world):
    """Intra-domain responses (UNUSED client id) target application
    groups, not the gateway group; the gateway must stay silent."""
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    gateway = domain.gateways[0]
    # Driver-originated invocation: responses go to EXTERNAL, not gateway.
    world.await_promise(group.invoke("increment", 1))
    world.run(until=world.now + 0.5)
    assert gateway.stats["responses_delivered"] == 0
    assert gateway.stats["responses_unexpected"] == 0


def test_gateway_index_partitions_counter_space(world):
    domain = make_domain(world, gateways=2)
    a, b = domain.gateways
    assert a.index != b.index
    # Counter ids from different gateways can never collide.
    id_a = a.index * 1_000_000 + 1
    id_b = b.index * 1_000_000 + 1
    assert id_a != id_b


def test_purge_client_clears_all_tables(world):
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    gateway = domain.gateways[0]
    _, stub, layer = external_client(world, domain, group, enhanced=True)
    world.await_promise(stub.call("increment", 1))
    world.run(until=world.now + 0.2)
    client_id = f"{layer.client_uid}#1"
    assert client_id in gateway._routing
    gateway._purge_client(client_id)
    assert client_id not in gateway._routing
    assert not any(k[0] == client_id for k in gateway._pending)
    assert not any(k[0] == client_id for k in gateway._cache)


def test_observe_delivered_ignores_unrelated_kinds(world):
    domain = make_domain(world, gateways=1)
    gateway = domain.gateways[0]
    before = dict(gateway.stats)
    gateway.observe_delivered(DomainMessage(
        kind=MsgKind.STATE_UPDATE, source_group=10, target_group=10,
        data={"state": {}, "upto_ts": 1}))
    assert gateway.stats == before


def test_stopping_gateway_closes_listener(world):
    domain = make_domain(world, gateways=1)
    gateway = domain.gateways[0]
    gateway.stop()
    state = {}
    host = world.add_host("probe")
    world.tcp.connect(host, (gateway.host.name, gateway.port),
                      lambda ep: state.setdefault("ok", ep),
                      lambda exc: state.setdefault("err", exc))
    world.scheduler.run_until(lambda: state)
    assert "err" in state


# ----------------------------------------------------------------------
# Delivery routing at a gateway host (fixed in attach_gateway)
# ----------------------------------------------------------------------

_RM_HANDLERS = {
    MsgKind.INVOCATION: "_on_invocation",
    MsgKind.RESPONSE: "_on_response",
    MsgKind.GROUP_ANNOUNCE: "_apply_group_announce",
    MsgKind.GROUP_REMOVE: "_apply_group_remove",
    MsgKind.ADD_REPLICA: "_apply_add_replica",
    MsgKind.REMOVE_REPLICA: "_apply_remove_replica",
    MsgKind.REPLICA_READY: "_on_replica_ready_delivered",
    MsgKind.CHECKPOINT: "_apply_checkpoint",
    MsgKind.STATE_UPDATE: "_apply_state_update",
    MsgKind.STATE_TRANSFER: "_apply_state_transfer",
    MsgKind.GATEWAY_MIRROR: "_on_gateway_kind",
    MsgKind.CLIENT_GONE: "_on_gateway_kind",
    MsgKind.ORDER_RECORD: "_apply_order_record",
    MsgKind.STYLE_SWITCH: "_apply_style_switch",
    MsgKind.REGISTRY_SYNC: "_on_registry_sync_delivered",
    MsgKind.REGISTRY_SYNC_REQUEST: "_on_registry_sync_request",
}


def _probe_messages(app_group):
    """One message of every kind, plus the two application-traffic
    variants the gateway does not own: (label, message)."""
    probes = []
    for kind in MsgKind:
        source = target = app_group
        if kind is MsgKind.INVOCATION:
            source = GATEWAY_GROUP
        elif kind is MsgKind.RESPONSE:
            target = GATEWAY_GROUP
        probes.append((kind.name, DomainMessage(
            kind=kind, source_group=source, target_group=target)))
    probes.append(("INVOCATION from app", DomainMessage(
        kind=MsgKind.INVOCATION, source_group=app_group,
        target_group=app_group)))
    probes.append(("RESPONSE to app", DomainMessage(
        kind=MsgKind.RESPONSE, source_group=app_group,
        target_group=app_group)))
    return probes


# Gateway-owned cases, each with the RM handler that runs first (or
# None: the RM has nothing to do for it at a host holding no replica).
_GATEWAY_OWNED = {
    "INVOCATION": None,
    "RESPONSE": None,
    "STYLE_SWITCH": "_apply_style_switch",
    "GATEWAY_MIRROR": None,
    "CLIENT_GONE": None,
}


def test_gateway_host_routes_each_kind_once(monkeypatch):
    """At a gateway host holding no replica, observe_delivered is
    entered for exactly the five gateway-owned cases; every other kind
    reaches only its RM handler (an INVOCATION for a group not hosted
    here reaches neither), live and when replayed after presync."""
    probe = {"rm": None, "gateway": None}
    log = []

    def spy(cls, name, owner_key):
        original = getattr(cls, name)

        def wrapper(self, msg, *args, **kwargs):
            if self is probe[owner_key]:
                log.append(name)
                return None
            return original(self, msg, *args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    for name in sorted(set(_RM_HANDLERS.values())):
        spy(ReplicationMechanisms, name, "rm")
    spy(Gateway, "observe_delivered", "gateway")

    world = World(seed=7)
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    domain.await_ready(group)
    gateway = domain.gateways[0]
    rm = gateway.rm
    assert group.group_id not in rm.replicas
    probe.update(rm=rm, gateway=gateway)

    def expected(label):
        if label in _GATEWAY_OWNED:
            first = _GATEWAY_OWNED[label]
            return ([first] if first else []) + ["observe_delivered"]
        if label == "INVOCATION from app":
            return []
        if label == "RESPONSE to app":
            return ["_on_response"]
        return [_RM_HANDLERS[MsgKind[label]]]

    probes = _probe_messages(group.group_id)
    for seq, (label, msg) in enumerate(probes, start=1):
        log.clear()
        rm._on_deliver(seq, "peer", msg)
        assert log == expected(label), label

    # Presync: everything but the snapshot itself is buffered, then
    # replayed through _dispatch when the snapshot applies.
    rm.synced = False
    buffered = [(label, msg) for label, msg in probes
                if msg.kind is not MsgKind.REGISTRY_SYNC]
    log.clear()
    for seq, (_, msg) in enumerate(buffered, start=100):
        rm._on_deliver(seq, "peer", msg)
    assert log == []
    rm._apply_registry_sync(DomainMessage(
        kind=MsgKind.REGISTRY_SYNC, source_group=0, target_group=0,
        data={"groups": []}))
    assert log == [name for label, _ in buffered for name in expected(label)]
