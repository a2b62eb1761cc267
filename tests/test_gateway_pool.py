"""Tests: the gateway farm (pool sharding, breakers, re-homing).

Covers the :class:`repro.core.GatewayPool` surface end to end:
circuit-breaker state machine units, consistent-hash routing and
rebalancing, enhanced-client failover across pool-aware IOR profiles,
plain-ORB re-homing via GIOP ``OBJECT_FORWARD``, admission-control
shedding, and logical-client identity multiplexing — all with the
exactly-once guarantees the farm inherits from request mirroring and
duplicate suppression.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CircuitBreaker, FtClientLayer, GatewayPool, Orb, World
from repro.core import gateway_pool
from repro.core.gateway_pool import ring_hash
from repro.eternal.messages import MsgKind
from repro.eternal.naming import GATEWAY_GROUP, make_object_key
from repro.iiop import (
    GiopFramer,
    LocateStatus,
    decode_locate_forward,
    decode_locate_reply,
    encode_locate_request,
    stitch_profiles,
)
from repro.iiop import ior as ior_module

from tests.helpers import (
    crash_gateway_on_response,
    make_counter_group,
    make_domain,
    replica_counts,
)


# ----------------------------------------------------------------------
# Circuit breaker units (manual clock)
# ----------------------------------------------------------------------

def make_breaker(**kwargs):
    clock = {"now": 0.0}
    events = []
    breaker = CircuitBreaker(clock=lambda: clock["now"],
                             listener=events.append, **kwargs)
    return breaker, clock, events


def test_breaker_trips_after_consecutive_failures():
    breaker, _, events = make_breaker(failure_threshold=3)
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.CLOSED and breaker.can_accept()
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.OPEN
    assert not breaker.can_accept()
    assert events == ["trip"]


def test_breaker_success_resets_the_failure_count():
    breaker, _, _ = make_breaker(failure_threshold=2)
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.CLOSED


def test_breaker_half_opens_lazily_and_bounds_probes():
    breaker, clock, events = make_breaker(
        failure_threshold=1, reset_timeout=0.25, probe_quota=2)
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.OPEN
    clock["now"] = 0.24
    assert not breaker.can_accept()          # not yet
    clock["now"] = 0.25
    assert breaker.state == CircuitBreaker.HALF_OPEN
    assert breaker.can_accept()
    breaker.note_routed()
    breaker.note_routed()
    assert not breaker.can_accept()          # probe quota exhausted
    assert events == ["trip", "probe", "probe"]


def test_breaker_closes_after_enough_probe_successes():
    breaker, clock, events = make_breaker(
        failure_threshold=1, reset_timeout=0.1, close_after=2)
    breaker.record_failure()
    clock["now"] = 0.1
    breaker.note_routed()
    breaker.record_success()
    assert breaker.state == CircuitBreaker.HALF_OPEN
    breaker.note_routed()
    breaker.record_success()
    assert breaker.state == CircuitBreaker.CLOSED
    assert events[-1] == "close"


def test_breaker_reopens_on_probe_failure():
    breaker, clock, events = make_breaker(failure_threshold=1,
                                          reset_timeout=0.1)
    breaker.record_failure()
    clock["now"] = 0.1
    assert breaker.state == CircuitBreaker.HALF_OPEN
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.OPEN
    assert events[-1] == "reopen"
    # The reset window restarts from the re-open instant.
    clock["now"] = 0.15
    assert breaker.state == CircuitBreaker.OPEN
    clock["now"] = 0.2
    assert breaker.state == CircuitBreaker.HALF_OPEN


def test_breaker_force_open_is_immediate():
    breaker, _, events = make_breaker(failure_threshold=100)
    breaker.force_open()
    assert breaker.state == CircuitBreaker.OPEN
    assert events == ["trip"]


# ----------------------------------------------------------------------
# Consistent-hash ring and routing
# ----------------------------------------------------------------------

def make_pool(world, size, **kwargs):
    domain = make_domain(world, gateways=0)
    pool = GatewayPool(domain, size=size, **kwargs)
    domain.await_stable()
    return domain, pool


def test_ring_rebalances_a_minority_of_keys(world):
    _, pool = make_pool(world, size=3)
    keys = [f"client/{i}#1" for i in range(200)]
    before = {key: pool.hash_owner(key) for key in keys}
    pool.add_gateway()
    pool.domain.await_stable()
    moved = sum(1 for key in keys if pool.hash_owner(key) is not before[key])
    # Consistent hashing: adding one gateway to three moves ~1/4 of the
    # key space, never a wholesale reshuffle.
    assert 0 < moved < len(keys) // 2


def reference_walk(ring, key):
    """The original linear scan: first virtual node at or after the
    key's point (index 0 past the largest), then every distinct gateway
    in ring order from there."""
    if not ring:
        return []
    point = gateway_pool.ring_hash(key)
    start = 0
    for i, (node_point, _) in enumerate(ring):
        if node_point >= point:
            start = i
            break
    walk = []
    for i in range(len(ring)):
        gateway = ring[(start + i) % len(ring)][1]
        if gateway not in walk:
            walk.append(gateway)
    return walk


def wrap_keys(pool, count):
    """Keys hashing above the ring's largest point (owner wraps to 0),
    from a bounded search."""
    top = pool._ring[-1][0]
    return list(itertools.islice(
        (key for key in (f"wrap/{i}" for i in range(20000))
         if gateway_pool.ring_hash(key) > top), count))


def check_walks_match_scan(pool):
    """Property check: the bisect + memo walk equals the linear scan for
    arbitrary keys, keys landing exactly on virtual nodes, and keys
    that wrap around."""
    vnode_keys = [f"{gw.host.name}#{v}" for gw in pool.gateways
                  for v in range(pool.virtual_nodes)]
    keys = st.one_of(st.text(max_size=24), st.sampled_from(vnode_keys))
    wrapping = wrap_keys(pool, 4)
    if wrapping:
        keys = keys | st.sampled_from(wrapping)

    @settings(max_examples=150, deadline=None)
    @given(keys)
    def check(key):
        expected = reference_walk(pool._ring, key)
        assert list(pool._ring_walk(key)) == expected
        assert pool.hash_owner(key) is expected[0]

    check()


def test_ring_walk_matches_linear_scan(world):
    domain, pool = make_pool(world, size=3)
    assert wrap_keys(pool, 4)
    check_walks_match_scan(pool)
    # Rings rebuilt by membership changes, through both entry points.
    pool.add_gateway()
    check_walks_match_scan(pool)
    pool.adopt(domain.add_gateway(port=2809))
    assert len(pool.gateways) == 5
    check_walks_match_scan(pool)


def test_ring_walk_ties_break_on_host_name(world, monkeypatch):
    # A coarse hash makes virtual nodes collide often, so the order
    # among equal points (host name) decides owners and walks.
    _, pool = make_pool(world, size=4)
    monkeypatch.setattr(gateway_pool, "ring_hash",
                        lambda key: ring_hash(key) % 251)
    pool._rebuild_ring()
    points = [point for point, _ in pool._ring]
    assert len(set(points)) < len(points)
    check_walks_match_scan(pool)


def test_a_returned_walk_cannot_alter_the_next_one(world):
    _, pool = make_pool(world, size=3)
    walk = pool._ring_walk("alice#1")
    expected = list(walk)
    with pytest.raises((AttributeError, TypeError)):
        walk.append(walk[0])
    assert list(pool._ring_walk("alice#1")) == expected
    assert len(pool._walks) <= len(pool._ring)


def test_route_prefers_the_hash_owner(world):
    _, pool = make_pool(world, size=3)
    key = "client/route#1"
    owner = pool.hash_owner(key)
    assert pool.route(key) is owner
    snapshot = world.metrics.snapshot()
    assert snapshot["pool.route.owner"]["value"] == 1
    assert snapshot["pool.route.reroutes"]["value"] == 0


def test_route_skips_open_breakers_then_goes_unroutable(world):
    _, pool = make_pool(world, size=2, failure_threshold=2)
    key = "client/breaker#1"
    owner = pool.hash_owner(key)
    sibling = next(g for g in pool.gateways if g is not owner)
    for _ in range(2):
        pool.on_shed(owner)
    assert pool.breaker(owner).state == CircuitBreaker.OPEN
    assert pool.route(key) is sibling
    snapshot = world.metrics.snapshot()
    assert snapshot["pool.breaker.trips"]["value"] == 1
    assert snapshot["pool.route.reroutes"]["value"] == 1
    for _ in range(2):
        pool.on_shed(sibling)
    assert pool.route(key) is None
    assert world.metrics.snapshot()["pool.route.unroutable"]["value"] == 1


def test_breaker_probes_and_recloses_through_the_pool(world):
    _, pool = make_pool(world, size=2, failure_threshold=1,
                        reset_timeout=0.25, close_after=2)
    key = "client/recovery#1"
    owner = pool.hash_owner(key)
    pool.on_shed(owner)
    assert pool.breaker(owner).state == CircuitBreaker.OPEN
    assert pool.route(key) is not owner
    world.run(until=world.now + 0.3)
    # Lazy half-open: the next route is a probe back to the owner.
    assert pool.route(key) is owner
    pool.on_served(owner)
    assert pool.route(key) is owner
    pool.on_served(owner)
    assert pool.breaker(owner).state == CircuitBreaker.CLOSED
    snapshot = world.metrics.snapshot()
    assert snapshot["pool.breaker.probes"]["value"] >= 1
    assert snapshot["pool.breaker.closes"]["value"] == 1


def test_pool_state_is_audit_registered(world):
    _, pool = make_pool(world, size=2)
    world.run(until=world.now + 2.0)   # let the ring quiesce (totem gc)
    report = world.audit()
    assert report.ok
    snapshot = world.metrics.snapshot()
    assert snapshot["pool.state.gateways"]["value"] == 2
    assert snapshot["pool.state.breakers"]["value"] == 2


# ----------------------------------------------------------------------
# Enhanced clients: pool-aware IOR profiles, failover, exactly-once
# ----------------------------------------------------------------------

def pool_client(world, domain, pool, group, uid, host_name="browser",
                multiplexed=False):
    host = world.network.hosts.get(host_name) or world.add_host(host_name)
    orb = Orb(world, host, request_timeout=None)
    layer = FtClientLayer(orb, client_uid=uid)
    ior = pool.ior_for(group, f"{uid}#1")
    stub = layer.string_to_object(ior.to_string(), group.interface,
                                  multiplexed=multiplexed)
    return orb, stub, layer


def test_pool_ior_walks_the_ring_from_the_owner(world):
    domain, pool = make_pool(world, size=3)
    group = make_counter_group(domain)
    domain.await_ready(group)
    key = "alice#1"
    ior = pool.ior_for(group, key)
    profiles = [p.address for p in ior.iiop_profiles()]
    assert len(profiles) == 3
    owner = pool.hash_owner(key)
    assert profiles[0] == (owner.host.name, owner.port)
    assert len(set(profiles)) == 3    # every gateway appears exactly once


def test_pool_ior_matches_a_from_scratch_stitch(world):
    """The memoised profiles marshal to exactly the bytes a fresh
    stitch of the same walk produces."""
    domain, pool = make_pool(world, size=3)
    group = make_counter_group(domain)
    domain.await_ready(group)
    handle = domain.resolve(group)
    for key in ("alice#1", "bob#1", "alice#1"):
        issued = pool.ior_for(group, key).to_string()
        ior_module._encoded.clear()
        ior_module._decoded.clear()
        fresh = stitch_profiles(
            handle.interface.repo_id,
            [(gw.host.name, gw.port) for gw in reference_walk(pool._ring,
                                                                key)],
            make_object_key(domain.name, handle.group_id))
        assert issued == fresh.to_string()


def test_enhanced_client_fails_over_to_ring_sibling_exactly_once(world):
    domain, pool = make_pool(world, size=3)
    group = make_counter_group(domain)
    domain.await_ready(group)
    _, stub, layer = pool_client(world, domain, pool, group, "alice")
    assert world.await_promise(stub.call("increment", 1), timeout=240) == 1
    owner = pool.hash_owner("alice#1")
    # Crash the home gateway after the domain executed the next request
    # but before the reply leaves: the precise section 3.5 window.
    crash_gateway_on_response(world, owner)
    result = world.await_promise(stub.call("increment", 1), timeout=240)
    assert result == 2
    # The reissue through the ring sibling was suppressed, not
    # re-executed: state moved exactly twice.
    world.run(until=world.now + 1.0)
    assert set(replica_counts(domain, group).values()) == {2}
    assert layer.failover_log          # the layer recorded the traversal


def test_gateway_kill_mid_burst_loses_and_duplicates_nothing(world):
    domain, pool = make_pool(world, size=3)
    group = make_counter_group(domain)
    domain.await_ready(group)
    burst = 12
    promises = []
    dead = pool.gateways[0]
    for i in range(burst):
        _, stub, _ = pool_client(world, domain, pool, group, f"burst/{i}",
                                 host_name="browser", multiplexed=True)
        promises.append(stub.call("increment", 1))
    # Kill one gateway while the burst is in flight (requests arrive at
    # t+40ms WAN; responses normally return around t+80ms).
    world.scheduler.call_after(0.06, world.faults.crash_now, dead.host.name)
    world.scheduler.run_until(lambda: all(p.done for p in promises),
                              timeout=300)
    results = sorted(p.result() for p in promises)
    # Every invocation completed with a distinct counter value: none
    # lost, none executed twice (the total order serialised them 1..N).
    assert results == list(range(1, burst + 1))
    world.run(until=world.now + 1.0)
    assert set(replica_counts(domain, group).values()) == {burst}
    # The pool notices the death lazily at the next routing decision.
    key = next(f"burst/{i}#1" for i in range(burst, burst + 100)
               if pool.hash_owner(f"burst/{i}#1") is dead)
    assert pool.route(key) is not dead
    snapshot = world.metrics.snapshot()
    assert snapshot["pool.breaker.trips"]["value"] >= 1
    assert snapshot["pool.route.reroutes"]["value"] >= 1


# ----------------------------------------------------------------------
# Plain ORBs: GIOP locate re-homing
# ----------------------------------------------------------------------

def raw_connection(world, gateway, host_name="prober"):
    host = world.network.hosts.get(host_name) or world.add_host(host_name)
    state = {}
    world.tcp.connect(host, (gateway.host.name, gateway.port),
                      lambda ep: state.setdefault("ep", ep),
                      lambda exc: state.setdefault("err", exc))
    world.scheduler.run_until(lambda: state)
    endpoint = state["ep"]
    framer = GiopFramer()
    replies = []
    endpoint.on_data = lambda data: replies.extend(framer.feed(data))
    return endpoint, replies


def test_plain_client_rehomed_by_locate_forward(world):
    domain, pool = make_pool(world, size=3)
    group = make_counter_group(domain)
    domain.await_ready(group)
    owner = pool.hash_owner("prober")    # plain ORBs key on host name
    wrong = next(g for g in pool.gateways if g is not owner)
    endpoint, replies = raw_connection(world, wrong)
    key = make_object_key(domain.name, group.group_id)
    endpoint.send(encode_locate_request(7, key))
    world.scheduler.run_until(lambda: replies, timeout=30.0)
    request_id, status = decode_locate_reply(replies[0])
    assert request_id == 7
    assert status == LocateStatus.OBJECT_FORWARD
    forward = decode_locate_forward(replies[0])
    assert forward is not None
    assert forward.iiop_profiles()[0].address == (owner.host.name, owner.port)
    assert world.metrics.snapshot()["pool.locate.forwards"]["value"] == 1
    # A year-2000 ORB follows the forward and works through its home.
    host = world.network.hosts["prober"]
    orb = Orb(world, host, request_timeout=None)
    stub = orb.string_to_object(forward.to_string(), group.interface)
    assert world.await_promise(stub.call("increment", 1), timeout=240) == 1


def test_locate_at_the_home_gateway_is_object_here(world):
    domain, pool = make_pool(world, size=3)
    group = make_counter_group(domain)
    domain.await_ready(group)
    owner = pool.hash_owner("prober")
    endpoint, replies = raw_connection(world, owner)
    endpoint.send(encode_locate_request(8, make_object_key(
        domain.name, group.group_id)))
    world.scheduler.run_until(lambda: replies, timeout=30.0)
    _, status = decode_locate_reply(replies[0])
    assert status == LocateStatus.OBJECT_HERE


# ----------------------------------------------------------------------
# Admission control and multiplexing
# ----------------------------------------------------------------------

def flood(world, seed=99):
    """A fresh over-capacity scenario; returns (results, sheds, world)."""
    domain = make_domain(world, gateways=0)
    pool = GatewayPool(domain, size=1, admission_window=1,
                       admission_queue_limit=2)
    domain.await_stable()
    group = make_counter_group(domain)
    domain.await_ready(group)
    host = world.add_host("flooder")
    orb = Orb(world, host, request_timeout=None)
    ior = pool.ior_for(group, "flooder")
    stub = orb.string_to_object(ior.to_string(), group.interface)
    promises = [stub.call("increment", 1) for _ in range(8)]
    world.scheduler.run_until(lambda: all(p.done for p in promises),
                              timeout=300)
    served = sorted(p.result() for p in promises if not p.failed)
    sheds = [p.error for p in promises if p.failed]
    world.run(until=world.now + 1.0)
    return served, sheds, domain, group


def test_admission_control_sheds_with_transient(world):
    served, sheds, domain, group = flood(world)
    assert served and sheds
    assert len(served) + len(sheds) == 8
    for exc in sheds:
        assert "Transient" in str(exc)
    # Served requests executed exactly once each; shed ones not at all.
    assert set(replica_counts(domain, group).values()) == {len(served)}
    snapshot = world.metrics.snapshot()
    assert snapshot["gateway.adm.shed"]["value"] == len(sheds)
    assert snapshot["pool.admission.shed"]["value"] == len(sheds)
    assert snapshot["pool.admission.served"]["value"] == len(served)


def test_admission_shedding_is_deterministic():
    from repro import World
    outcomes = []
    for _ in range(2):
        world = World(seed=99)
        served, sheds, _, _ = flood(world)
        snapshot = world.metrics.snapshot()
        pool_metrics = {name: data for name, data in snapshot.items()
                        if name.startswith(("pool.", "gateway.adm."))}
        outcomes.append((served, len(sheds), pool_metrics))
    assert outcomes[0] == outcomes[1]


def test_mux_clients_share_one_connection(world):
    domain, pool = make_pool(world, size=1)
    group = make_counter_group(domain)
    domain.await_ready(group)
    host = world.add_host("muxhost")
    orb = Orb(world, host, request_timeout=None)
    clients = 5
    stubs = []
    for i in range(clients):
        layer = FtClientLayer(orb, client_uid=f"mux/{i}")
        ior = pool.ior_for(group, f"mux/{i}#1")
        stubs.append(layer.string_to_object(ior.to_string(), group.interface,
                                            multiplexed=True))
    for i, stub in enumerate(stubs):
        assert world.await_promise(stub.call("increment", 1),
                                   timeout=240) == i + 1
    # One shared TCP connection carries every logical client identity.
    gateway = pool.gateways[0]
    assert len(gateway._conn_members) == 1
    members = sum(len(ids) for ids in gateway._conn_members.values())
    assert members == clients
    assert set(replica_counts(domain, group).values()) == {clients}


# ----------------------------------------------------------------------
# Mirrored responses at farm shape: counter partition and takeover
# ----------------------------------------------------------------------

_RESPONSE_COUNTERS = ("gateway.resp.received", "gateway.dup.suppressed",
                      "gateway.resp.unexpected", "gateway.resp.vote_pending",
                      "gateway.resp.delivered", "gateway.resp.unroutable")


@pytest.mark.parametrize("trace_spans", [False, True],
                         ids=["spans-off", "spans-on"])
def test_farm_response_partition_and_mirrored_takeover(trace_spans):
    """A 4-gateway pool, multiplexed enhanced clients and an ACTIVE
    3-replica counter: every gateway handles every response multicast
    to the gateway group, and each gateway's share of the world's
    response counters partitions exactly (docs/OBSERVABILITY.md) and
    agrees with its ``stats``.  Then the owning gateway dies after the
    response reached its peers; the client's reissue is answered from
    a peer's cache, executing nothing again."""
    world = World(seed=11, trace_spans=trace_spans)
    domain, pool = make_pool(world, size=4, admission_window=8,
                             admission_queue_limit=64)
    group = make_counter_group(domain)
    domain.await_ready(group)
    metrics = world.metrics
    gateways = pool.gateways

    shares = {gw.name: dict.fromkeys(_RESPONSE_COUNTERS, 0)
              for gw in gateways}

    def attribute(gateway):
        handle = gateway._on_domain_response
        share = shares[gateway.name]

        def counted(msg):
            before = [metrics.value(n) for n in _RESPONSE_COUNTERS]
            handle(msg)
            for name, old in zip(_RESPONSE_COUNTERS, before):
                share[name] += metrics.value(name) - old

        gateway._on_domain_response = counted

    for gateway in gateways:
        attribute(gateway)

    to_gateways = []
    for rm in domain.rms.values():
        def counting(message, send=rm.multicast):
            if (message.kind is MsgKind.RESPONSE
                    and message.target_group == GATEWAY_GROUP):
                to_gateways.append(message)
            send(message)
        rm.multicast = counting

    clients = 24
    promises = []
    for i in range(clients):
        _, stub, _ = pool_client(world, domain, pool, group, f"farm/{i}",
                                 host_name=f"farmhost{i % 2}",
                                 multiplexed=True)
        promises.append(stub.call("increment", 1))
    world.run_until_done(promises, timeout=600)
    assert sorted(p.result() for p in promises) == list(
        range(1, clients + 1))
    world.run(until=world.now + 1.0)

    assert len(to_gateways) == 3 * clients
    for gateway in gateways:
        share, stats = shares[gateway.name], gateway.stats
        assert share["gateway.resp.received"] == len(to_gateways)
        assert share["gateway.resp.received"] == sum(
            share[name] for name in _RESPONSE_COUNTERS[1:])
        assert share["gateway.dup.suppressed"] == (
            stats["duplicates_suppressed"])
        assert share["gateway.dup.suppressed"] == (
            gateway._filter.stats["duplicates_suppressed"])
        assert share["gateway.resp.delivered"] == stats["responses_delivered"]
        assert share["gateway.resp.unroutable"] == (
            stats["responses_unroutable"])
        assert share["gateway.resp.unexpected"] == (
            stats["responses_unexpected"])
        # ACTIVE: the first copy wins, the other two are duplicates.
        assert share["gateway.dup.suppressed"] == 2 * clients
    assert metrics.value("gateway.resp.received") == (
        len(gateways) * len(to_gateways))
    assert metrics.value("gateway.resp.delivered") == clients
    if trace_spans:
        verdicts = world.trace_collector.select(name="gateway.response")
        assert len(verdicts) == len(gateways) * len(to_gateways)

    # Takeover: the owner dies once the response has reached its peers.
    uid = "farm/late"
    _, stub, layer = pool_client(world, domain, pool, group, uid,
                                 host_name="farmhost0", multiplexed=True)
    owner = pool.hash_owner(f"{uid}#1")
    peers = [gw for gw in gateways if gw is not owner]
    seen = {}

    def crash_after_peers(msg):
        if seen:
            return
        seen["executed"] = metrics.value("eternal.invocations.executed")

        def crash():
            seen["peers_cached"] = all(
                (msg.client_id, msg.op_id) in gw._cache for gw in peers)
            world.faults.crash_now(owner.host.name)

        world.scheduler.call_after(0.0, crash)

    owner._on_domain_response = crash_after_peers
    replays = sum(gw.stats["cache_replays"] for gw in peers)
    assert world.await_promise(stub.call("increment", 1),
                               timeout=240) == clients + 1
    world.run(until=world.now + 1.0)
    assert seen["peers_cached"]
    assert layer.failover_log
    assert sum(gw.stats["cache_replays"] for gw in peers) == replays + 1
    assert metrics.value("eternal.invocations.executed") == seen["executed"]
    assert set(replica_counts(domain, group).values()) == {clients + 1}
