"""Agreed delivery's two paths: direct (in order, nothing held back)
and buffered (out of order, delivered once the gap fills).

The unit tests feed ``RegularMessage`` objects straight into one
member's ``receive``; the ring test checks the same properties end to
end.  The last test pins the transport's broadcast target order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import World
from repro.totem import RegularMessage, TotemMember, TotemTransport


def lone_member(world, listeners=True):
    """One started member (still gathering, on the initial ring) whose
    agreed and safe deliveries are recorded."""
    transport = TotemTransport(world.network, "d")
    member = TotemMember(world.add_host("p0", site="lan"), "p0", transport)
    agreed, safe = [], []
    if listeners:
        member.on_deliver(lambda seq, snd, p: agreed.append(seq))
        member.on_deliver_safe(lambda seq, snd, p: safe.append(seq))
    member.start()
    return member, agreed, safe


def regular(member, seq):
    return RegularMessage(member.ring_id, seq, "p1", f"m{seq}")


def feed(member, seqs):
    for seq in seqs:
        member.receive(regular(member, seq))


def delivered_metric(world):
    return world.metrics.value("totem.msg.delivered")


def test_in_order_arrivals_deliver_without_buffering(world):
    member, agreed, _ = lone_member(world)
    for seq in range(1, 6):
        feed(member, [seq])
        assert member._buffer == {}
    assert agreed == [1, 2, 3, 4, 5]
    assert member.delivered_up_to == member.my_aru == 5
    assert sorted(member._store) == [1, 2, 3, 4, 5]


def test_out_of_order_arrivals_wait_for_the_gap(world):
    member, agreed, _ = lone_member(world)
    feed(member, [3, 2, 5])
    assert agreed == []
    assert sorted(member._buffer) == [2, 3, 5]
    feed(member, [1])
    assert agreed == [1, 2, 3]
    assert sorted(member._buffer) == [5]
    feed(member, [4])
    assert agreed == [1, 2, 3, 4, 5]
    assert member._buffer == {}
    # Once the buffer drains, the next in-order arrival is direct again.
    feed(member, [6])
    assert agreed[-1] == 6 and member._buffer == {}


def test_duplicates_and_retransmissions_are_ignored(world):
    member, agreed, _ = lone_member(world)
    feed(member, [1, 2, 1, 2])          # already delivered
    feed(member, [4, 4])                # held back twice
    assert sorted(member._buffer) == [4]
    feed(member, [3, 3, 4])
    assert agreed == [1, 2, 3, 4]
    assert member.stats["delivered"] == 4


def test_other_ring_messages_are_ignored(world):
    member, agreed, _ = lone_member(world)
    member.receive(RegularMessage((99, "x"), 1, "p1", "stale"))
    assert agreed == [] and member._store == {}


def _crash_on(member, k, seen):
    def listener(seq, snd, payload):
        seen.append(seq)
        if len(seen) == k:
            member.host.crash()
    return listener


def test_listener_crash_stops_direct_delivery(world):
    member, _, _ = lone_member(world, listeners=False)
    seen = []
    member.on_deliver(_crash_on(member, 3, seen))
    feed(member, [1, 2, 3, 4, 5])
    assert seen == [1, 2, 3]
    assert member.delivered_up_to == 3


def test_listener_crash_stops_buffered_delivery(world):
    member, _, _ = lone_member(world, listeners=False)
    seen = []
    member.on_deliver(_crash_on(member, 3, seen))
    feed(member, [5, 4, 3, 2])
    feed(member, [1])
    assert seen == [1, 2, 3]
    assert member.delivered_up_to == 3
    assert sorted(member._buffer) == [4, 5]


def test_safe_listeners_see_messages_from_both_paths(world):
    member, agreed, safe = lone_member(world)
    feed(member, [1, 2, 4, 3, 5])       # direct, direct, held, fill, direct
    assert agreed == [1, 2, 3, 4, 5]
    assert sorted(member._safe_buffer) == [1, 2, 3, 4, 5]
    member._flush_safe(5)
    assert safe == [1, 2, 3, 4, 5]


def test_delivered_stat_matches_registry_counter(world):
    member, agreed, _ = lone_member(world)
    feed(member, [1, 3, 2, 2, 4, 6, 5])
    assert member.stats["delivered"] == len(agreed) == 6
    assert delivered_metric(world) == 6


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 12), max_size=40))
def test_delivery_matches_a_reorder_buffer_model(arrivals):
    """Any arrival sequence delivers exactly what a plain reorder
    buffer would: each seq once, in order, up to the first gap."""
    world = World(seed=1)
    member, agreed, _ = lone_member(world)
    feed(member, arrivals)
    expected, held = [], set()
    for seq in arrivals:
        held.add(seq)
        while len(expected) + 1 in held:
            expected.append(len(expected) + 1)
    assert agreed == expected
    assert sorted(member._buffer) == sorted(held - set(expected))
    assert sorted(member._store) == sorted(held)
    assert member.stats["delivered"] == delivered_metric(world) == len(expected)


def test_ring_delivers_every_message_agreed_and_safe(world):
    transport = TotemTransport(world.network, "d")
    members, agreed, safe = [], {}, {}
    for i in range(4):
        member = TotemMember(world.add_host(f"r{i}", site="lan"), f"r{i}",
                             transport)
        agreed[member.name], safe[member.name] = [], []
        member.on_deliver(lambda seq, snd, p, n=member.name:
                          agreed[n].append(p))
        member.on_deliver_safe(lambda seq, snd, p, n=member.name:
                               safe[n].append(p))
        members.append(member)
    for member in members:
        member.start()
    for i in range(40):
        members[i % 4].multicast(i)
    world.scheduler.run_until(
        lambda: all(len(safe[m.name]) == 40 for m in members), timeout=60.0)
    reference = agreed["r0"]
    assert sorted(reference) == list(range(40))
    for member in members:
        assert agreed[member.name] == safe[member.name] == reference
    assert (sum(m.stats["delivered"] for m in members)
            == delivered_metric(world) == 160)


def test_broadcast_targets_follow_registration_order(world):
    transport = TotemTransport(world.network, "d")
    members = [TotemMember(world.add_host(f"t{i}", site="lan"), f"t{i}",
                           transport) for i in range(3)]
    seen = []
    for member in members:
        member.receive = (lambda message, n=member.name: seen.append(n))
        transport.register(member)
    transport.deregister("t0")
    transport.deregister("absent")      # unknown name: no change
    transport.broadcast(members[1], "a")
    world.scheduler.run()
    assert seen == ["t1", "t2"]
    seen.clear()
    transport.register(members[0])      # re-registered: now last
    transport.broadcast(members[1], "b")
    world.scheduler.run()
    assert seen == ["t1", "t2", "t0"]   # the sender's loopback first
    assert transport.datagrams == 5
