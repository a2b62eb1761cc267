"""Unit tests for the datagram network and fault injector."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import FaultInjector, LatencyModel, Network, Scheduler, Tracer, World


def make_network():
    scheduler = Scheduler()
    network = Network(scheduler, latency_model=LatencyModel(
        local_latency=0.001, wan_latency=0.05))
    return scheduler, network


def test_datagram_delivered_after_latency():
    scheduler, network = make_network()
    a = network.add_host("a", site="s")
    b = network.add_host("b", site="s")
    received = []
    network.send(a, b, "hello", received.append)
    scheduler.run()
    assert received == ["hello"]
    assert scheduler.now == pytest.approx(0.001)


def test_wan_latency_applies_across_sites():
    scheduler, network = make_network()
    a = network.add_host("a", site="s1")
    b = network.add_host("b", site="s2")
    received = []
    network.send(a, b, "x", received.append)
    scheduler.run()
    assert scheduler.now == pytest.approx(0.05)


def test_send_from_dead_host_dropped():
    scheduler, network = make_network()
    a = network.add_host("a")
    b = network.add_host("b")
    a.crash()
    received = []
    network.send(a, b, "x", received.append)
    scheduler.run()
    assert received == []


def test_delivery_to_host_that_dies_in_flight_dropped():
    scheduler, network = make_network()
    a = network.add_host("a", site="s1")
    b = network.add_host("b", site="s2")
    received = []
    network.send(a, b, "x", received.append)
    scheduler.call_at(0.01, b.crash)  # mid-flight (latency 0.05)
    scheduler.run()
    assert received == []


def test_partition_blocks_and_heals():
    scheduler, network = make_network()
    a = network.add_host("a")
    b = network.add_host("b")
    network.partition({"a"}, {"b"})
    received = []
    network.send(a, b, "blocked", received.append)
    scheduler.run()
    assert received == []
    network.heal_partitions()
    network.send(a, b, "through", received.append)
    scheduler.run()
    assert received == ["through"]


def test_partition_blocks_both_directions():
    scheduler, network = make_network()
    a = network.add_host("a")
    b = network.add_host("b")
    network.partition({"a"}, {"b"})
    assert not network.can_communicate("a", "b")
    assert not network.can_communicate("b", "a")


def test_partition_leaves_third_parties_untouched():
    scheduler, network = make_network()
    network.add_host("a")
    network.add_host("b")
    network.add_host("c")
    network.partition({"a"}, {"b"})
    assert network.can_communicate("a", "c")
    assert network.can_communicate("b", "c")


def test_crash_and_recovery_listeners():
    scheduler, network = make_network()
    a = network.add_host("a")
    events = []
    network.on_host_crash(lambda host: events.append(("down", host.name)))
    network.on_host_recovery(lambda host: events.append(("up", host.name)))
    a.crash()
    a.recover()
    assert events == [("down", "a"), ("up", "a")]


def test_crash_is_idempotent():
    scheduler, network = make_network()
    a = network.add_host("a")
    a.crash()
    a.crash()
    assert a.crash_count == 1


def test_fault_injector_schedules_crash_and_recovery():
    world = World(seed=1)
    world.add_host("h")
    world.faults.crash_host("h", at=1.0)
    world.faults.recover_host("h", at=2.0)
    world.run(until=1.5)
    assert not world.network.host("h").alive
    world.run(until=2.5)
    assert world.network.host("h").alive
    assert [kind for (_, kind, _) in world.faults.injected] == ["crash", "recover"]


def test_fault_injector_partition_window():
    world = World(seed=1)
    world.add_host("a")
    world.add_host("b")
    world.faults.partition({"a"}, {"b"}, at=1.0, heal_at=2.0)
    world.run(until=1.5)
    assert not world.network.can_communicate("a", "b")
    world.run(until=2.5)
    assert world.network.can_communicate("a", "b")


def test_tracer_counts_and_filters():
    tracer = Tracer(enabled=True, categories={"keep"})
    tracer.emit(0.0, "keep", "src", "kept message", detail=1)
    tracer.emit(0.0, "drop", "src", "filtered message")
    assert tracer.count("keep") == 1
    assert tracer.count("drop") == 1     # counted even when filtered
    assert len(tracer.records) == 1      # but not retained
    assert tracer.select("keep")[0].message == "kept message"
    assert "kept message" in tracer.dump()


def test_tracer_disabled_still_counts():
    tracer = Tracer(enabled=False)
    tracer.emit(0.0, "cat", "src", "m")
    assert tracer.count("cat") == 1
    assert tracer.records == []


def test_network_accounting():
    scheduler, network = make_network()
    a = network.add_host("a")
    b = network.add_host("b")
    network.send(a, b, "x", lambda _: None, size=100)
    scheduler.run()
    assert network.datagrams_sent == 1
    assert network.datagrams_delivered == 1
    assert network.bytes_sent == 100


# ----------------------------------------------------------------------
# Broadcast cohorts: one scheduler event per distinct latency
# ----------------------------------------------------------------------

def make_lan(count, site="lan"):
    scheduler, network = make_network()
    hosts = [network.add_host(f"h{i}", site=site) for i in range(count)]
    return scheduler, network, hosts


def recording_targets(hosts, log, scheduler, on_deliver=None):
    def deliver_to(host):
        def deliver(payload):
            log.append((scheduler.now, host.name, payload))
            if on_deliver is not None:
                on_deliver(host)
        return deliver
    return [(host, deliver_to(host)) for host in hosts]


def test_broadcast_to_same_site_targets_costs_two_events():
    scheduler, network, hosts = make_lan(5)
    log = []
    # Targets in a non-sorted order, the sender among them.
    order = [hosts[3], hosts[0], hosts[4], hosts[1], hosts[2]]
    scheduled = network.broadcast(
        hosts[0], recording_targets(order, log, scheduler), "m")
    assert scheduled == 5
    assert scheduler.pending_events == 2    # loopback + the LAN cohort
    scheduler.run()
    assert scheduler.events_processed == 2
    # The sender's loopback arrives first; the LAN cohort follows in
    # target order, every target at the same instant.
    assert [dst for _, dst, _ in log] == ["h0", "h3", "h4", "h1", "h2"]
    assert log[0][0] == pytest.approx(0.0001)
    assert len({t for t, _, _ in log[1:]}) == 1
    assert log[1][0] == pytest.approx(0.001)
    assert network.datagrams_sent == network.datagrams_delivered == 5


def test_callback_crashing_a_later_target_skips_it():
    scheduler, network, hosts = make_lan(5)
    log = []

    def crash_h3(host):
        if host.name == "h1":
            hosts[3].crash()
            hosts[0].crash()    # an earlier target: already delivered

    targets = recording_targets(hosts[1:], log, scheduler,
                                on_deliver=crash_h3)
    network.broadcast(hosts[0], targets, "m")
    scheduler.run()
    assert [dst for _, dst, _ in log] == ["h1", "h2", "h4"]
    assert network.datagrams_sent == 4
    assert network.datagrams_delivered == 3


def test_callback_installing_a_partition_skips_later_targets():
    scheduler, network, hosts = make_lan(5)
    log = []

    def cut_h2_h4(host):
        if host.name == "h1":
            network.partition({"h0"}, {"h2", "h4"})

    targets = recording_targets(hosts[1:], log, scheduler,
                                on_deliver=cut_h2_h4)
    network.broadcast(hosts[0], targets, "m")
    scheduler.run()
    assert [dst for _, dst, _ in log] == ["h1", "h3"]
    assert network.datagrams_delivered == 2


def test_broadcast_from_dead_sender_delivers_nothing():
    scheduler, network, hosts = make_lan(3)
    log = []
    hosts[0].crash()
    scheduled = network.broadcast(
        hosts[0], recording_targets(hosts, log, scheduler), "m", size=10)
    scheduler.run()
    assert scheduled == 0
    assert log == []
    assert scheduler.events_processed == 0
    # Sent (and counted) on the wire, never delivered.
    assert network.datagrams_sent == 3
    assert network.bytes_sent == 30
    assert network.datagrams_delivered == 0


def test_broadcast_skips_partitioned_targets_at_send_time():
    scheduler, network, hosts = make_lan(4)
    log = []
    network.partition({"h0"}, {"h2"})
    scheduled = network.broadcast(
        hosts[0], recording_targets(hosts, log, scheduler), "m")
    scheduler.run()
    assert scheduled == 3
    assert [dst for _, dst, _ in log] == ["h0", "h1", "h3"]


def test_broadcast_splits_cohorts_by_site():
    scheduler, network = make_network()
    near = [network.add_host(f"n{i}", site="s1") for i in range(3)]
    far = [network.add_host(f"f{i}", site="s2") for i in range(2)]
    log = []
    order = [far[0], near[1], far[1], near[0], near[2]]
    network.broadcast(near[0], recording_targets(order, log, scheduler), "m")
    assert scheduler.pending_events == 3    # loopback, LAN, WAN
    scheduler.run()
    assert [dst for _, dst, _ in log] == ["n0", "n1", "n2", "f0", "f1"]
    assert log[-1][0] == pytest.approx(0.05)


# ----------------------------------------------------------------------
# Differential: cohort delivery against one arrival event per target
# ----------------------------------------------------------------------

class PerTargetNetwork(Network):
    """Reference: one arrival event per target — ``broadcast`` is a
    loop of ``send`` calls, and each send is its own event."""

    def send(self, src, dst, payload, deliver, size=0):
        self.datagrams_sent += 1
        self.bytes_sent += size
        if not src.alive:
            return
        if not self.can_communicate(src.name, dst.name):
            return
        delay = self.latency_model.latency(src.name, dst.name)
        self.scheduler.post(delay, self._arrive_one, src.name, dst,
                            payload, deliver)

    def _arrive_one(self, src_name, dst, payload, deliver):
        if not dst.alive:
            return
        if not self.can_communicate(src_name, dst.name):
            return
        self.datagrams_delivered += 1
        deliver(payload)

    def broadcast(self, src, targets, payload, size=0):
        scheduled = 0
        for dst, deliver in targets:
            reachable = src.alive and self.can_communicate(src.name, dst.name)
            self.send(src, dst, payload, deliver, size=size)
            scheduled += reachable
        return scheduled


_HOSTS = 5
_host_ix = st.integers(0, _HOSTS - 1)
_side = st.frozensets(_host_ix, min_size=1, max_size=2)
# Delivery-time side effects, fired when the datagram reaches one host.
_reaction = st.one_of(
    st.none(),
    st.tuples(_host_ix, st.just("crash"), _host_ix),
    st.tuples(_host_ix, st.just("recover"), _host_ix),
    st.tuples(_host_ix, st.just("partition"), _side, _side),
    st.tuples(_host_ix, st.just("heal")),
)
_at = st.integers(0, 12).map(lambda k: k * 0.0005)
_op = st.one_of(
    st.tuples(st.just("send"), _at, _host_ix, _host_ix, _reaction),
    st.tuples(st.just("broadcast"), _at, _host_ix,
              st.lists(_host_ix, min_size=1, max_size=7), _reaction),
    st.tuples(st.just("crash"), _at, _host_ix),
    st.tuples(st.just("recover"), _at, _host_ix),
    st.tuples(st.just("partition"), _at, _side, _side),
    st.tuples(st.just("heal"), _at),
)


def _run_program(network_cls, program):
    scheduler = Scheduler()
    network = network_cls(scheduler, latency_model=LatencyModel(
        local_latency=0.001, wan_latency=0.004))
    hosts = [network.add_host(f"h{i}", site="ab"[i % 2])
             for i in range(_HOSTS)]
    log = []
    returns = []

    def apply(kind, *args):
        if kind == "crash":
            hosts[args[0]].crash()
        elif kind == "recover":
            hosts[args[0]].recover()
        elif kind == "partition":
            network.partition({f"h{i}" for i in args[0]},
                              {f"h{i}" for i in args[1]})
        elif kind == "heal":
            network.heal_partitions()

    def deliver_to(index, reaction):
        def deliver(payload):
            log.append((scheduler.now, index, payload))
            if reaction is not None and reaction[0] == index:
                apply(*reaction[1:])
        return deliver

    def issue(number, op):
        kind = op[0]
        if kind == "send":
            _, _, src, dst, reaction = op
            network.send(hosts[src], hosts[dst], number,
                         deliver_to(dst, reaction), size=8)
        elif kind == "broadcast":
            _, _, src, dsts, reaction = op
            targets = [(hosts[d], deliver_to(d, reaction)) for d in dsts]
            returns.append(network.broadcast(hosts[src], targets, number,
                                             size=8))
        else:
            apply(kind, *op[2:])

    for number, op in enumerate(program):
        scheduler.call_at(op[1], issue, number, op)
    scheduler.run()
    counters = (network.datagrams_sent, network.datagrams_delivered,
                network.bytes_sent)
    return log, counters, returns, scheduler.events_processed


@settings(max_examples=300, deadline=None)
@given(st.lists(_op, min_size=1, max_size=25))
def test_cohort_delivery_matches_per_target_arrivals(program):
    log, counters, returns, events = _run_program(Network, program)
    ref_log, ref_counters, ref_returns, ref_events = _run_program(
        PerTargetNetwork, program)
    assert log == ref_log
    assert counters == ref_counters
    assert returns == ref_returns
    assert events <= ref_events
