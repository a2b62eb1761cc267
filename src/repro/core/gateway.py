"""The gateway: entry point of a fault tolerance domain (paper section 3).

A gateway is *not* a CORBA object: it is infrastructure that bridges
two worlds whose semantics it alone understands —

* **outside**: unreplicated IIOP clients over TCP/IP, addressing the
  gateway's {host, port} (placed into published IORs by the Eternal
  Interceptor) and believing it to be the server;
* **inside**: the reliable totally-ordered multicast of the fault
  tolerance domain, where replicated objects are addressed by group id.

Per Figure 5, for every complete IIOP request picked off a client
socket the gateway: obtains the TCP client identifier (from the
section 3.5 service context if the client is enhanced, otherwise from
the per-server-group counter of section 3.2), maps the socket to that
identifier, generates the operation identifier, builds the Figure 4
header, and multicasts header + IIOP message into the domain.  For
every multicast response it: extracts the operation identifier, filters
duplicates (one response arrives per server replica — section 3.3),
finds the socket for the TCP client identifier, and forwards the IIOP
reply bytes verbatim.

With ``mirror_requests`` (section 3.5), each request is first multicast
to the *gateway group* so every redundant gateway records it; the
gateway group — not the connected gateway alone — receives the
response, so any gateway can serve the reply after a failover, and a
surviving gateway re-forwards requests a crashed peer had accepted but
not yet forwarded.  Gateways also tell their peers when a client goes
away so per-client state can be deleted everywhere.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from ..errors import ObjectNotExist, TransientError
from ..eternal.messages import DomainMessage, MsgKind
from ..eternal.naming import GATEWAY_GROUP, parse_object_key
from ..eternal.styles import ReplicationStyle
from ..iiop.giop import (LocateStatus, MsgType, decode_cancel_request,
                         decode_locate_request, decode_request,
                         encode_locate_reply, parse_header)
from ..iiop.service_context import extract_client_id, extract_trace_context
from ..orb.connection import IiopServerConnection
from ..orb.dispatch import reply_for_exception
from ..sim.host import Host, Process
from ..sim.tcp import TcpEndpoint
from ..sim.world import Promise
from .duplicates import DuplicateSuppressor
from .identifiers import ClientId, OperationId, external_operation_id

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..eternal.domain import FaultToleranceDomain


@dataclass
class _PendingRequest:
    """A client request forwarded into the domain, awaiting its response."""

    client_id: ClientId
    op_id: OperationId
    target_group: int
    iiop: bytes
    forwarder: str
    forwarded: bool = False
    response_expected: bool = True
    # Simulated receipt time at the gateway that read the request off its
    # client socket; None for records reconstructed from mirrors (the
    # mirror observer never saw the request arrive).
    received_at: float = None  # type: ignore[assignment]
    # The INVOCATION message built on first forward and reused for
    # takeover re-forwards: its payload (marshalled request bytes and
    # header fields) never changes between forwards, so there is no
    # reason to rebuild and re-weigh it per forward.
    forward_message: "DomainMessage" = None  # type: ignore[assignment]
    # Causal tracing (repro.obs.tracing): the invocation's trace id,
    # hop count, container span (gateway.request, receipt -> egress)
    # and the open ordering-wait span of the last forward.  All zero
    # when tracing is disabled or the record came from an untraced
    # mirror.
    trace_id: str = ""
    trace_hop: int = 0
    trace_span: int = 0
    order_span: int = 0
    # True while this request occupies a slot of the gateway's bounded
    # admission window (gateway-farm backpressure); always False when
    # admission control is disabled or on mirror-reconstructed records.
    admitted: bool = False


class Gateway(Process):
    """One gateway processor on the edge of a fault tolerance domain."""

    _indexes = itertools.count(0)

    def __init__(self, domain: "FaultToleranceDomain", host: Host, port: int,
                 mirror_requests: bool = True,
                 response_cache_limit: int = 10_000,
                 cancel_ttl: float = 30.0,
                 oneway_ttl: float = 30.0,
                 admission_window: Optional[int] = None,
                 admission_queue_limit: int = 64) -> None:
        super().__init__(host, f"gateway@{host.name}:{port}")
        self.domain = domain
        self.port = port
        self.mirror_requests = mirror_requests
        self.response_cache_limit = response_cache_limit
        self.index = next(Gateway._indexes)
        self.rm = domain.rms[host.name]
        self.rm.attach_gateway(self)
        self.rm.on_membership_change(self._on_membership)
        self.tracer = domain.world.tracer
        # World-shared causal-trace collector, cached off the property
        # for the hot path; every hook below checks ``.enabled`` first.
        self._span_collector = host.network.spans

        self._listener = None
        # Per-server-group client-id counters (section 3.2); the counter
        # space is partitioned per gateway so concurrent gateways never
        # accidentally alias (a crash/restart still reuses ids, which is
        # the section 3.4 weakness the paper analyses).
        self._counters: Dict[int, itertools.count] = {}
        self._conn_ids: Dict[IiopServerConnection, ClientId] = {}
        # Every ClientId a connection has carried: one TCP connection
        # may multiplex many logical clients (farm workloads), and each
        # of them needs gone/purge handling when the socket closes.
        self._conn_members: Dict[IiopServerConnection, Set[ClientId]] = {}
        self._routing: Dict[ClientId, IiopServerConnection] = {}
        self._pending: Dict[Tuple[ClientId, OperationId], _PendingRequest] = {}
        self._cache: Dict[Tuple[ClientId, OperationId], bytes] = {}
        self._cancelled: set = set()
        self._filter = DuplicateSuppressor()
        # Clients that closed their connection while operations were
        # still pending: the CLIENT_GONE broadcast is deferred until the
        # last pending operation resolves, so peers keep the mirror
        # records they need to collect the in-flight responses
        # (section 3.5) and the records themselves are reclaimed.
        self._gone_pending: set = set()
        # Retention layer: cancel tombstones and one-way pending records
        # have no response to resolve them, so each is reaped after a
        # TTL.  One on-demand timer serves the whole expiry heap;
        # nothing is armed while the heap is empty.
        self.cancel_ttl = cancel_ttl
        self.oneway_ttl = oneway_ttl
        self._reap_heap: list = []
        self._reap_seq = itertools.count()
        self._reap_timer = None

        # Admission control (gateway farm, paper section 3.3 scaled
        # out): a bounded in-flight window for two-way requests plus a
        # bounded overflow queue.  ``None`` disables the gate entirely —
        # the pre-farm behaviour, byte-identical event ordering.
        self.admission_window = admission_window
        self.admission_queue_limit = admission_queue_limit
        self._admission_queue: Deque[
            Tuple[Any, bytes, IiopServerConnection, float]] = deque()
        self._own_inflight = 0
        # Back-reference installed by GatewayPool.adopt(); None outside
        # a pool.
        self.pool = None

        # reprolint: disable=AUD001 -- fixed key set, bounded by construction
        self.stats = {
            "requests_received": 0,
            "requests_forwarded": 0,
            "cache_replays": 0,
            "responses_delivered": 0,
            "duplicates_suppressed": 0,
            "responses_unroutable": 0,
            "responses_unexpected": 0,
            "mirrors_recorded": 0,
            "takeover_forwards": 0,
            "clients_connected": 0,
            "clients_gone": 0,
            "bad_object_key": 0,
            "cancels": 0,
            "cancels_reaped": 0,
            "oneways_completed": 0,
            "oneways_reaped": 0,
            "client_gone_deferred": 0,
            "requests_queued": 0,
            "requests_shed": 0,
            "queued_dropped": 0,
            "requests_unservable": 0,
            "votes_relaxed": 0,
        }

        # Style-era metrics (live style switching, unservable voting
        # targets) are created on first use so pre-existing scenarios
        # keep their exact metric key set.
        # reprolint: disable=AUD001 -- metric-object cache, bounded by the fixed name set
        self._lazy_counters: Dict[str, Any] = {}

        # World-shared metrics (one registry per world; every gateway of
        # the world aggregates into the same series).  The response
        # counters partition gateway.resp.received exactly:
        # received == suppressed + unexpected + vote_pending
        #             + delivered + unroutable.
        m = self.metrics
        # Per-group / per-gateway time series (repro.obs.series); the
        # registry is disabled by default, making every hook below one
        # attribute load plus one boolean test.
        self._series = host.network.series
        self._m_req_latency = m.histogram("gateway.req.latency", unit="s")
        self._m_req_received = m.counter("gateway.req.received")
        self._m_req_forwarded = m.counter("gateway.req.forwarded")
        self._m_cache_replays = m.counter("gateway.cache.replays")
        self._m_resp_received = m.counter("gateway.resp.received")
        self._m_resp_delivered = m.counter("gateway.resp.delivered")
        self._m_dup_suppressed = m.counter("gateway.dup.suppressed")
        self._m_resp_unexpected = m.counter("gateway.resp.unexpected")
        self._m_resp_unroutable = m.counter("gateway.resp.unroutable")
        self._m_resp_vote_pending = m.counter("gateway.resp.vote_pending")
        self._m_mirrors = m.counter("gateway.mirror.recorded")
        self._m_takeovers = m.counter("gateway.takeover.forwards")
        self._m_clients = m.counter("gateway.clients.connected")
        self._m_clients_gone = m.counter("gateway.clients.gone")
        self._m_bad_key = m.counter("gateway.req.bad_object_key")
        self._m_req_cancelled = m.counter("gateway.req.cancelled")
        self._m_reap_cancelled = m.counter("gateway.reap.cancelled")
        self._m_oneway_completed = m.counter("gateway.oneway.completed")
        self._m_reap_oneway = m.counter("gateway.reap.oneway")
        self._m_gone_deferred = m.counter("gateway.clients.gone_deferred")
        # Admission counters are created only when the gate is armed, so
        # farm-free scenarios keep their exact metric key set (and the
        # bench extra_info snapshots stay baseline-comparable).
        if admission_window is not None:
            self._m_adm_admitted = m.counter("gateway.adm.admitted")
            self._m_adm_queued = m.counter("gateway.adm.queued")
            self._m_adm_shed = m.counter("gateway.adm.shed")
        else:
            self._m_adm_admitted = None
            self._m_adm_queued = None
            self._m_adm_shed = None

        self._register_audit()

    def _register_audit(self) -> None:
        """Declare every per-client collection to the world audit scope
        (see :mod:`repro.obs.audit`) with its quiescence floor."""
        scope, owner = self.audit, self.name

        def alive() -> bool:
            return self.alive

        scope.register("gateway.pending", lambda: len(self._pending),
                       floor=0, owner=owner, active=alive,
                       gauge="gateway.state.pending")
        scope.register("gateway.cache", lambda: len(self._cache),
                       floor=lambda: self.response_cache_limit,
                       owner=owner, active=alive,
                       gauge="gateway.state.cache")
        scope.register("gateway.cancelled", lambda: len(self._cancelled),
                       floor=0, owner=owner, active=alive,
                       gauge="gateway.state.cancelled")
        scope.register("gateway.routing", lambda: len(self._routing),
                       floor=lambda: sum(
                           1 for c in self._routing.values() if c.open),
                       owner=owner, active=alive,
                       gauge="gateway.state.routing")
        scope.register("gateway.conn_ids", lambda: len(self._conn_ids),
                       floor=lambda: sum(1 for c in self._conn_ids if c.open),
                       owner=owner, active=alive,
                       gauge="gateway.state.conn_ids")
        scope.register("gateway.conn_members",
                       lambda: sum(len(s)
                                   for s in self._conn_members.values()),
                       floor=lambda: sum(
                           len(s) for c, s in self._conn_members.items()
                           if c.open),
                       owner=owner, active=alive,
                       gauge="gateway.state.conn_members")
        scope.register("gateway.admission_queue",
                       lambda: len(self._admission_queue),
                       floor=0, owner=owner, active=alive,
                       gauge="gateway.state.admission_queue")
        scope.register("gateway.admission_inflight",
                       lambda: self._own_inflight,
                       floor=0, owner=owner, active=alive,
                       gauge="gateway.state.admission_inflight")
        scope.register("gateway.gone_pending",
                       lambda: len(self._gone_pending),
                       floor=0, owner=owner, active=alive,
                       gauge="gateway.state.gone_pending")
        # The reap heap is lazily drained, so it may hold entries whose
        # target is already resolved: snapshot-only.
        scope.register("gateway.reap_queue", lambda: len(self._reap_heap),
                       floor=None, owner=owner, active=alive,
                       gauge="gateway.state.reap_queue")
        # One client-id counter per server group ever addressed through
        # this gateway: bounded by the directory, snapshot-only.
        scope.register("gateway.counters", lambda: len(self._counters),
                       floor=None, owner=owner, active=alive)
        self._filter.register_audit(scope, owner=owner, active=alive,
                                    prefix="gateway.filter",
                                    gauge_prefix="gateway.state.filter")

    # ==================================================================
    # Lifecycle
    # ==================================================================

    def handle_start(self) -> None:
        self._listener = self.domain.world.tcp.listen(
            self.host, self.port, self._on_accept)

    def handle_stop(self) -> None:
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        # On a *graceful* stop, close client connections so clients
        # detect the retirement promptly.  On a host crash the TCP stack
        # itself severs them (closing here would unregister the
        # endpoints before the stack can notify the peers).
        if self.host.alive:
            for connection in list(self._conn_ids):
                connection.close()

    def drain(self, poll_interval: float = 0.01, grace: float = 0.25):
        """Graceful shutdown: stop accepting new clients, serve out the
        requests already in flight, then stop the gateway.

        ``grace`` covers requests already travelling toward the gateway
        when the drain starts (the gateway cannot see bytes still on the
        wire); it should exceed one client round-trip time.

        Returns a promise resolved once the gateway has stopped.  With
        redundant gateways this lets an operator retire a gateway with
        zero client-visible failures (enhanced clients reconnect to the
        remaining profiles on their next invocation).
        """
        promise = Promise()
        if self._listener is not None:
            self._listener.close()
            self._listener = None

        def check_drained() -> None:
            if not self.alive:
                promise.resolve(None)
                return
            own_pending = [p for p in self._pending.values()
                           if p.forwarder == self.host.name
                           and p.response_expected]
            if not own_pending and not self._admission_queue:
                self.stop()
                promise.resolve(None)
            else:
                self.after(poll_interval, check_drained)

        self.after(grace, check_drained)
        return promise

    # ==================================================================
    # TCP side (outside the domain)
    # ==================================================================

    def _on_accept(self, endpoint: TcpEndpoint) -> None:
        self.stats["clients_connected"] += 1
        self._m_clients.inc()
        IiopServerConnection(endpoint, self._on_client_message,
                             on_close=self._on_client_close)

    def _on_client_message(self, message: bytes,
                           connection: IiopServerConnection) -> None:
        message_type, _, _ = parse_header(message)
        if message_type == MsgType.CLOSE_CONNECTION:
            connection.close()
            return
        if message_type == MsgType.LOCATE_REQUEST:
            self._on_locate_request(message, connection)
            return
        if message_type == MsgType.CANCEL_REQUEST:
            self._on_cancel_request(message, connection)
            return
        if message_type != MsgType.REQUEST:
            return
        request = decode_request(message)
        self.stats["requests_received"] += 1
        self._m_req_received.inc()
        self._process_request(request, message, connection,
                              self.scheduler.now)

    def _process_request(self, request, message: bytes,
                         connection: IiopServerConnection,
                         received_at: float,
                         from_queue: bool = False) -> None:
        """Figure 5a pipeline for one decoded Request.

        ``from_queue`` marks re-entry from the admission overflow queue:
        the entry was already counted on receipt and the caller
        (``_release_admission``) guarantees a free window slot, so the
        admission gate is bypassed.  ``received_at`` is always the
        original socket receipt time, so the latency histogram includes
        queueing delay.
        """
        parsed = parse_object_key(request.object_key)
        info = None
        if parsed is not None and parsed[0] == self.domain.name:
            info = self.rm.registry.get(parsed[1])
        if info is None:
            self.stats["bad_object_key"] += 1
            self._m_bad_key.inc()
            if request.response_expected:
                connection.send(reply_for_exception(
                    request.request_id,
                    ObjectNotExist(f"no such object: {request.object_key!r}")))
            return
        target_group = info.group_id

        client_id = self._identify_client(request, connection, target_group)
        # A returning client (e.g. an egress successor reusing the same
        # identifiers) voids any deferred departure broadcast: purging
        # now would delete the state the reissues are about to claim.
        self._gone_pending.discard(client_id)
        # "Map socket to client identifier" (Figure 5a).
        self._routing[client_id] = connection
        op_id = external_operation_id(request.request_id)
        cache_key = (client_id, op_id)

        # Causal tracing: continue the trace carried in the request's
        # service context (enhanced clients), or root a gateway-owned
        # trace for plain clients.  The container span covers this
        # gateway's whole handling of the invocation, receipt to egress.
        spans = self._span_collector
        trace_id, trace_hop, container = "", 0, 0
        if spans.enabled:
            tctx = extract_trace_context(request)
            if tctx is not None:
                trace_id, parent, trace_hop = (tctx.trace_id, tctx.span_id,
                                               tctx.hop)
            else:
                trace_id, parent = (
                    f"gw/{self.name}/{client_id}/{request.request_id}", 0)
            container = spans.start(
                trace_id, "gateway.request", parent=parent, source=self.name,
                op=request.operation, client=str(client_id), hop=trace_hop)
            spans.instant(trace_id, "gateway.ingress", parent=container,
                          source=self.name)
            if self.pool is not None and not self.pool.is_hash_owner(
                    self, client_id, connection):
                # The client's consistent-hash owner is another pool
                # gateway: this invocation arrived here via failover,
                # locate re-homing, or least-connections fallback.
                spans.instant(trace_id, "pool.reroute", parent=container,
                              source=self.name)

        cached = self._cache.get(cache_key)
        if cached is not None:
            # A reinvocation whose response we already hold (the client
            # failed over to us, or retried): answer locally.
            self.stats["cache_replays"] += 1
            self._m_cache_replays.inc()
            connection.send(cached)
            if container:
                spans.instant(trace_id, "gateway.cache.replay",
                              parent=container, source=self.name)
                spans.end(container, outcome="cache_replay")
            return

        # Unservable fail-fast: a voting target with zero live replicas
        # can never assemble a majority, so a two-way request to it
        # would pin a pending record (and an admission slot) until the
        # client gives up.  Fail it now with the standard CORBA "try
        # again later" signal.  Checked before mirroring so peer
        # gateways never record a request that was never forwarded.
        votes = self._votes_for(info)
        if votes is None and request.response_expected:
            self.stats["requests_unservable"] += 1
            self._lazy_counter("gateway.req.unservable").inc()
            if container:
                spans.end(container, outcome="unservable")
            if connection.open:
                connection.send(reply_for_exception(
                    request.request_id,
                    TransientError(
                        f"server group {target_group} has no live "
                        f"replicas")))
            return

        # Admission gate (gateway farm): two-way requests occupy one
        # slot of the bounded in-flight window; overflow queues up to
        # ``admission_queue_limit`` and beyond that is shed with a
        # TRANSIENT system exception — the standard CORBA "try again
        # elsewhere/later" signal, which enhanced clients surface and
        # open-loop workloads count as lost offered load.  Cache
        # replays (above) are always served: a failed-over client
        # re-collecting a response must never be bounced.
        admitted = False
        if self.admission_window is not None and request.response_expected:
            if not from_queue and self._own_inflight >= self.admission_window:
                if len(self._admission_queue) < self.admission_queue_limit:
                    self._admission_queue.append(
                        (request, message, connection, received_at))
                    self.stats["requests_queued"] += 1
                    self._m_adm_queued.inc()
                    if container:
                        spans.end(container, outcome="queued")
                    return
                self.stats["requests_shed"] += 1
                self._m_adm_shed.inc()
                sr = self._series
                if sr.enabled:
                    sr.observe("series.gateway.group.shed", 1.0,
                               group=target_group)
                if container:
                    spans.end(container, outcome="shed")
                if connection.open:
                    connection.send(reply_for_exception(
                        request.request_id,
                        TransientError(
                            "gateway admission window and queue full")))
                if self.pool is not None:
                    self.pool.on_shed(self)
                return
            self._own_inflight += 1
            admitted = True
            self._m_adm_admitted.inc()

        pending = _PendingRequest(
            client_id=client_id, op_id=op_id, target_group=target_group,
            iiop=message, forwarder=self.host.name,
            response_expected=request.response_expected,
            received_at=received_at, admitted=admitted,
            trace_id=trace_id, trace_hop=trace_hop, trace_span=container)
        if container:
            # IIOP -> Totem translation (Figure 5a: identify, build the
            # Figure 4 header) happens here, within the receipt event.
            spans.instant(trace_id, "gateway.translate", parent=container,
                          source=self.name, group=target_group)
        self._pending[cache_key] = pending
        if request.response_expected:
            self._filter.expect((target_group, client_id, op_id),
                                votes_needed=votes or 1)
        else:
            # One-way: no response will ever pop this record.  It is
            # dropped when the forwarded INVOCATION is observed
            # delivered, or by TTL if the forward is lost.
            self._schedule_reap("oneway", cache_key, pending,
                                self.oneway_ttl)

        if self.mirror_requests:
            # Section 3.5: record the request group-wide before forwarding.
            data = {"target_group": target_group,
                    "forwarder": self.host.name}
            if not request.response_expected:
                # Key present only for one-ways, so the mirror's weight
                # (and the totem byte metrics) is unchanged for the
                # common two-way case.
                data["response_expected"] = False
            mirror = DomainMessage(
                kind=MsgKind.GATEWAY_MIRROR,
                source_group=GATEWAY_GROUP,
                target_group=GATEWAY_GROUP,
                client_id=client_id,
                op_id=op_id,
                iiop=message,
                data=data,
            )
            if container:
                # Out-of-band: lets peer gateways keep tracing the
                # invocation after a takeover (weightless, see
                # DomainMessage.trace).
                mirror.trace = (trace_id, container, trace_hop)
            self.rm.multicast(mirror)
        self._forward(pending)

    def _on_locate_request(self, message: bytes,
                           connection: IiopServerConnection) -> None:
        """Answer ORB location probes: the gateway claims to *be* every
        object of its domain (the client must keep believing the
        endpoint in the IOR is the server — section 3.1)."""
        request_id, object_key = decode_locate_request(message)
        parsed = parse_object_key(object_key)
        here = (parsed is not None and parsed[0] == self.domain.name
                and self.rm.registry.get(parsed[1]) is not None)
        if here and self.pool is not None:
            # Pool re-homing for plain ORBs: if this client's
            # consistent-hash home is another pool gateway, answer
            # OBJECT_FORWARD with an IOR ordered from that home — the
            # GIOP-standard redirect that needs no client enhancement.
            forward = self.pool.locate_forward(self, parsed[1], connection)
            if forward is not None:
                connection.send(encode_locate_reply(
                    request_id, LocateStatus.OBJECT_FORWARD,
                    forward_ior=forward))
                return
        status = LocateStatus.OBJECT_HERE if here else LocateStatus.UNKNOWN_OBJECT
        connection.send(encode_locate_reply(request_id, status))

    def _on_cancel_request(self, message: bytes,
                           connection: IiopServerConnection) -> None:
        """Best-effort CancelRequest: drop the gateway's routing intent
        for the request so a late response is not written to the socket.
        The invocation may already have executed inside the domain (the
        CORBA spec makes no promise there, and neither does the paper)."""
        cancelled_id = decode_cancel_request(message)
        client_id = self._conn_ids.get(connection)
        if client_id is None:
            return
        op_id = external_operation_id(cancelled_id)
        key = (client_id, op_id)
        record = self._pending.pop(key, None)
        self.stats["cancels"] += 1
        self._m_req_cancelled.inc()
        if record is None and key in self._cache:
            # The cancel raced the reply over the WAN and lost: the
            # response was already written back.  A tombstone now could
            # never be consumed — late duplicates are suppressed by the
            # delivered-filter before the tombstone is consulted — and
            # would sit until its TTL.
            return
        self._cancelled.add(key)
        # The tombstone is discarded when the late response arrives
        # (_on_domain_response) or, if no response ever comes, by TTL.
        self._schedule_reap("cancel", key, record, self.cancel_ttl)
        if record is not None:
            self._release_admission(record)

    def _forward(self, pending: _PendingRequest) -> None:
        self.stats["requests_forwarded"] += 1
        self._m_req_forwarded.inc()
        message = pending.forward_message
        if message is None:
            message = pending.forward_message = DomainMessage(
                kind=MsgKind.INVOCATION,
                source_group=GATEWAY_GROUP,
                target_group=pending.target_group,
                client_id=pending.client_id,
                op_id=pending.op_id,
                iiop=pending.iiop,
            )
            if pending.trace_span:
                message.trace = (pending.trace_id, pending.trace_span,
                                 pending.trace_hop)
        if pending.trace_span:
            # Ordering wait: multicast into the ring until this
            # gateway observes the agreed delivery (ended in
            # observe_delivered); a takeover re-forward opens a fresh
            # one, so the dead forwarder's wait stays truthfully open.
            pending.order_span = self._span_collector.start(
                pending.trace_id, "totem.order.invocation",
                parent=pending.trace_span, source=self.name)
        self.rm.multicast(message)

    def _identify_client(self, request, connection: IiopServerConnection,
                         target_group: int) -> ClientId:
        """Enhanced clients carry their identity; plain clients get a
        counter for the target server group (section 3.2)."""
        ctx = extract_client_id(request)
        if ctx is not None:
            client_id = f"{ctx.client_uid}#{ctx.incarnation}"
            self._conn_ids[connection] = client_id
            members = self._conn_members.get(connection)
            if members is None:
                self._conn_members[connection] = {client_id}
            else:
                members.add(client_id)
            return client_id
        known = self._conn_ids.get(connection)
        if known is not None:
            return known
        counter = self._counters.setdefault(target_group, itertools.count(1))
        client_id = self.index * 1_000_000 + next(counter)
        self._conn_ids[connection] = client_id
        self._conn_members[connection] = {client_id}
        return client_id

    def _lazy_counter(self, name: str):
        """Counter created on first use: keeps the metric key set of
        scenarios that never exercise the style-era paths unchanged."""
        counter = self._lazy_counters.get(name)
        if counter is None:
            counter = self._lazy_counters[name] = self.metrics.counter(name)
        return counter

    def _votes_for(self, info) -> Optional[int]:
        """Majority size for a voting target; 1 for non-voting styles.

        ``None`` means the voting group has no live replica at all: no
        majority can ever form, so the invocation is unservable and the
        caller must fail fast instead of registering an expectation that
        can never resolve.  Before the first membership view (bootstrap)
        the static placement stands in for liveness.
        """
        if not info.style.needs_voting:
            return 1
        live_hosts = self.rm.live_hosts
        live = (len(info.live_replicas(live_hosts)) if live_hosts
                else len(info.placement))
        if live == 0:
            return None
        return live // 2 + 1

    def _release_admission(self, record: _PendingRequest) -> None:
        """Free the window slot an admitted request held and pull queued
        requests into the freed capacity.

        Queue drains happen inside the event that resolved the slot
        (response delivery, cancel, client purge), so admission keeps
        the deterministic same-event ordering the rest of the gateway
        relies on.  Queued entries whose client connection has since
        closed are dropped — their reply could never be written.
        """
        if not record.admitted:
            return
        record.admitted = False
        self._own_inflight -= 1
        if self.pool is not None:
            self.pool.on_served(self)
        queue = self._admission_queue
        window = self.admission_window
        while queue and self._own_inflight < window:
            request, message, connection, received_at = queue.popleft()
            if not connection.open:
                self.stats["queued_dropped"] += 1
                continue
            self._process_request(request, message, connection,
                                  received_at, from_queue=True)

    def _on_client_close(self, connection: IiopServerConnection) -> None:
        members = self._conn_members.pop(connection, None)
        client_id = self._conn_ids.pop(connection, None)
        if members is None:
            if client_id is None:
                return
            members = {client_id}
        # A multiplexed connection carried many logical clients; each
        # departs independently (sorted for deterministic broadcast
        # order — ids are ints or strings, never mixed on one socket).
        for cid in sorted(members, key=str):
            if self._routing.get(cid) is connection:
                del self._routing[cid]
            has_pending = any(k[0] == cid for k in self._pending)
            if has_pending:
                # Operations are still in flight: defer the domain-wide
                # purge until the last one resolves, so peers keep the
                # mirror records they need to collect the responses
                # (section 3.5).  Without the deferral those records
                # leak — CLIENT_GONE is never re-sent once suppressed
                # here.
                self._gone_pending.add(cid)
                self.stats["client_gone_deferred"] += 1
                self._m_gone_deferred.inc()
            else:
                self._broadcast_client_gone(cid)

    def _broadcast_client_gone(self, client_id: ClientId) -> None:
        """Tell the other gateways the client is gone so they delete any
        state stored on its behalf (section 3.5)."""
        self.rm.multicast(DomainMessage(
            kind=MsgKind.CLIENT_GONE,
            source_group=GATEWAY_GROUP,
            target_group=GATEWAY_GROUP,
            client_id=client_id,
        ))

    def _maybe_flush_client_gone(self, client_id: ClientId) -> None:
        """Fire a deferred CLIENT_GONE once the departed client's last
        pending operation has resolved."""
        if client_id not in self._gone_pending:
            return
        if any(cid == client_id for (cid, _) in self._pending):
            return
        self._gone_pending.discard(client_id)
        self._broadcast_client_gone(client_id)

    # ==================================================================
    # Multicast side (inside the domain)
    # ==================================================================

    def observe_delivered(self, msg: "DomainMessage") -> None:
        """The gateway's single entry point for Totem deliveries.

        The co-located Replication Mechanisms call it only for the five
        cases the gateway owns (routing fixed in
        ``ReplicationMechanisms.attach_gateway``); any other message
        handed in directly is ignored."""
        kind = msg.kind
        if kind is MsgKind.RESPONSE and msg.target_group == GATEWAY_GROUP:
            self._on_domain_response(msg)
        elif kind is MsgKind.GATEWAY_MIRROR:
            self._on_mirror(msg)
        elif kind is MsgKind.INVOCATION and msg.source_group == GATEWAY_GROUP:
            key = (msg.client_id, msg.op_id)
            record = self._pending.get(key)
            if record is not None:
                if record.order_span:
                    # The forwarding gateway saw its own multicast come
                    # back in the total order: the ordering wait is over.
                    self._span_collector.end(record.order_span,
                                             seq=msg.timestamp)
                    record.order_span = 0
                record.forwarded = True
                if not record.response_expected:
                    # One-way: the delivered forward *is* the operation's
                    # completion — no response will ever pop the record.
                    del self._pending[key]
                    self.stats["oneways_completed"] += 1
                    self._m_oneway_completed.inc()
                    self._maybe_flush_client_gone(msg.client_id)
        elif kind is MsgKind.STYLE_SWITCH:
            self._on_style_switch(msg)
        elif kind is MsgKind.CLIENT_GONE:
            self._purge_client(msg.client_id)
        else:
            # Group-management, logging, and ordering kinds are owned by
            # the Replication Mechanisms; the gateway reacts only to the
            # five kinds above.
            return

    def _on_domain_response(self, msg: "DomainMessage") -> None:
        self._m_resp_received.inc()
        filter_key = (msg.source_group, msg.client_id, msg.op_id)
        spans = self._span_collector
        if not spans.enabled:
            if self._filter.suppress_delivered(filter_key):
                # Another replica's copy of a response already handled
                # here: the common case at every gateway of a mirrored
                # group under active replication.
                self.stats["duplicates_suppressed"] += 1
                self._m_dup_suppressed.inc()
                return
            tr = None
        else:
            tr = msg.trace
            if tr is not None and msg._trace_order:
                # First gateway to observe the agreed response ends the
                # responder's ordering-wait span (end() is
                # first-close-wins, so the remaining gateways'
                # observations are no-ops).
                spans.end(msg._trace_order, seq=msg.timestamp)
        verdict, payload = self._filter.offer(
            filter_key, msg.iiop, responder=msg.data.get("responder"))
        if tr is not None:
            # One duplicate-suppression event per gateway per response
            # (Figure 3): the verdicts across gateways partition
            # gateway.resp.received exactly like the metric counters.
            spans.instant(tr[0], "gateway.response", parent=tr[1],
                          source=self.name, verdict=str(verdict),
                          responder=str(msg.data.get("responder")))
        if verdict == DuplicateSuppressor.DUPLICATE:
            self.stats["duplicates_suppressed"] += 1
            self._m_dup_suppressed.inc()
            return
        if verdict == DuplicateSuppressor.UNEXPECTED:
            # No record of this client here: with plain counter-assigned
            # client ids and no mirroring, a response surviving its
            # gateway cannot be routed (section 3.4).
            self.stats["responses_unexpected"] += 1
            self._m_resp_unexpected.inc()
            return
        if verdict != DuplicateSuppressor.DELIVER:
            self._m_resp_vote_pending.inc()
            return  # voting still pending
        cache_key = (msg.client_id, msg.op_id)
        self._cache[cache_key] = payload
        while len(self._cache) > self.response_cache_limit:
            # FIFO eviction: the oldest responses are the least likely
            # to be reclaimed by a reissue (bounded gateway memory).
            self._cache.pop(next(iter(self._cache)))
        record = self._pending.pop(cache_key, None)
        if record is not None:
            # Resolving the slot *before* routing the reply lets the
            # freed window capacity pull queued work in this same event.
            self._release_admission(record)
        container = (record.trace_span if record is not None
                     and record.trace_span else (tr[1] if tr else 0))
        if cache_key in self._cancelled:
            # The client withdrew interest (CancelRequest): keep the
            # cached response (a reissue may still claim it) but do not
            # write to the socket.  The tombstone has now served its
            # purpose — discard it, or it pins this (client, op) pair
            # forever.
            self._cancelled.discard(cache_key)
            self.stats["responses_unroutable"] += 1
            self._m_resp_unroutable.inc()
            if tr is not None:
                spans.end(container, outcome="cancelled", by=self.name)
            self._maybe_flush_client_gone(msg.client_id)
            return
        connection = self._routing.get(msg.client_id)
        if connection is not None and connection.open:
            connection.send(payload)
            self.stats["responses_delivered"] += 1
            self._m_resp_delivered.inc()
            if record is not None and record.received_at is not None:
                # Socket receipt to socket write: the latency an
                # unreplicated client observes at this gateway.
                elapsed = self.scheduler.now - record.received_at
                self._m_req_latency.observe(elapsed)
                sr = self._series
                if sr.enabled:
                    sr.observe("series.gateway.group.latency", elapsed,
                               group=record.target_group)
                    sr.observe("series.gateway.latency", elapsed,
                               gateway=self.name)
            if tr is not None:
                # The egress instant and the container close share this
                # event's clock with the latency observation above, so
                # metrics and trace are provably consistent
                # (tests/test_obs_tracing.py).
                spans.instant(tr[0], "gateway.egress", parent=container,
                              source=self.name)
                spans.end(container, outcome="delivered", by=self.name)
            self.tracer.emit(self.scheduler.now, "gateway.deliver", self.name,
                             "response delivered",
                             client=msg.client_id, op=str(msg.op_id))
        else:
            self.stats["responses_unroutable"] += 1
            self._m_resp_unroutable.inc()
            if (tr is not None and record is not None and record.trace_span
                    and record.forwarder == self.host.name):
                # Only the gateway that owned the request closes here;
                # mirror observers without the client socket routinely
                # take this branch and must not close the container the
                # routing gateway is about to stamp its egress into.
                spans.end(container, outcome="unroutable", by=self.name)
        self._maybe_flush_client_gone(msg.client_id)

    def _on_mirror(self, msg: "DomainMessage") -> None:
        if not self.mirror_requests:
            return
        self.stats["mirrors_recorded"] += 1
        self._m_mirrors.inc()
        cache_key = (msg.client_id, msg.op_id)
        response_expected = msg.data.get("response_expected", True)
        info = self.rm.registry.get(msg.data["target_group"])
        votes = 1
        if response_expected and info is not None:
            votes = self._votes_for(info)
            if votes is None:
                # A two-way mirror for a voting target with zero live
                # replicas, delivered after the membership sweep
                # already failed the request: reconstructing a pending
                # record (or a filter expectation) here would pin state
                # that no response and no later sweep will ever resolve.
                return
        if cache_key not in self._pending and cache_key not in self._cache:
            tr = msg.trace
            record = _PendingRequest(
                client_id=msg.client_id, op_id=msg.op_id,
                target_group=msg.data["target_group"], iiop=msg.iiop,
                forwarder=msg.data["forwarder"],
                response_expected=response_expected,
                # Mirrored trace linkage: a takeover re-forward keeps
                # reporting into the original invocation's container.
                trace_id=tr[0] if tr else "",
                trace_span=tr[1] if tr else 0,
                trace_hop=tr[2] if tr else 0)
            self._pending[cache_key] = record
            if not response_expected:
                self._schedule_reap("oneway", cache_key, record,
                                    self.oneway_ttl)
        if not response_expected:
            # One-way mirrors never get a response: registering a filter
            # expectation would pin an entry that can never resolve.
            # The record is dropped when the forwarded INVOCATION is
            # observed delivered, or by TTL if it never is.
            return
        self._filter.expect((msg.data["target_group"], msg.client_id,
                             msg.op_id), votes_needed=votes)

    def _on_style_switch(self, msg: "DomainMessage") -> None:
        """A live replication-style switch (a total-order event, hence
        observed at the same logical instant by every gateway).

        If the group left a voting style, in-flight expectations
        registered with the old majority requirement can never fill —
        only one responder will speak from now on.  Relax them to a
        single vote and flush any response that already satisfies the
        relaxed requirement."""
        data = msg.data or {}
        group_id = data.get("group_id")
        try:
            style = ReplicationStyle(data.get("style"))
        except ValueError:
            return
        if group_id is None or style.needs_voting:
            return
        ready = self._filter.reduce_votes(
            lambda key, g=group_id: key[0] == g, 1)
        for key, payload in ready:
            self._deliver_relaxed(key, payload)

    def _deliver_relaxed(self, filter_key, payload: bytes) -> None:
        """Route one response freed by a vote-requirement relaxation.

        Mirrors the DELIVER arm of :meth:`_on_domain_response`, but the
        delivery is counted under ``gateway.style.vote_relaxed`` — not
        the ``gateway.resp.*`` family, which partitions
        ``gateway.resp.received`` exactly and must not absorb
        deliveries that no freshly received response carried in."""
        _, client_id, op_id = filter_key
        cache_key = (client_id, op_id)
        self.stats["votes_relaxed"] += 1
        self._lazy_counter("gateway.style.vote_relaxed").inc()
        self._cache[cache_key] = payload
        while len(self._cache) > self.response_cache_limit:
            self._cache.pop(next(iter(self._cache)))
        record = self._pending.pop(cache_key, None)
        if record is not None:
            self._release_admission(record)
            if record.order_span:
                self._span_collector.end(record.order_span)
                record.order_span = 0
        if cache_key in self._cancelled:
            self._cancelled.discard(cache_key)
            self._maybe_flush_client_gone(client_id)
            return
        connection = self._routing.get(client_id)
        if connection is not None and connection.open:
            connection.send(payload)
            if record is not None and record.received_at is not None:
                elapsed = self.scheduler.now - record.received_at
                self._m_req_latency.observe(elapsed)
                sr = self._series
                if sr.enabled:
                    sr.observe("series.gateway.group.latency", elapsed,
                               group=record.target_group)
                    sr.observe("series.gateway.latency", elapsed,
                               gateway=self.name)
            if record is not None and record.trace_span:
                spans = self._span_collector
                spans.instant(record.trace_id, "gateway.egress",
                              parent=record.trace_span, source=self.name)
                spans.end(record.trace_span, outcome="vote_relaxed",
                          by=self.name)
            self.tracer.emit(self.scheduler.now, "gateway.deliver", self.name,
                             "response delivered (votes relaxed)",
                             client=client_id, op=str(op_id))
        elif (record is not None and record.trace_span
                and record.forwarder == self.host.name):
            self._span_collector.end(record.trace_span,
                                     outcome="unroutable", by=self.name)
        self._maybe_flush_client_gone(client_id)

    def _fail_unservable_pending(self) -> None:
        """Membership changed: re-examine pending two-way requests whose
        target is a voting group.

        A voting group with zero live replicas can never again form a
        majority — those requests are failed fast with TRANSIENT (the
        domain keeps its dedup memory, so a reissue after replicas
        return is re-servable).  A voting group that merely shrank has
        a smaller live majority; expectations registered with the old
        quorum are relaxed to the new one and flushed if satisfied.
        """
        voting_targets: Dict[int, Optional[int]] = {}
        for record in self._pending.values():
            if not record.response_expected:
                continue
            gid = record.target_group
            if gid in voting_targets:
                continue
            info = self.rm.registry.get(gid)
            if info is None or not info.style.needs_voting:
                continue
            voting_targets[gid] = self._votes_for(info)
        for gid in sorted(voting_targets):
            votes = voting_targets[gid]
            if votes is None:
                self._fail_group_pending(gid)
            else:
                ready = self._filter.reduce_votes(
                    lambda key, g=gid: key[0] == g, votes)
                for key, payload in ready:
                    self._deliver_relaxed(key, payload)

    def _fail_group_pending(self, group_id: int) -> None:
        """Fail every pending two-way request addressed to a voting
        group that lost all replicas: TRANSIENT reply to the client,
        filter expectation cancelled, admission slot freed."""
        spans = self._span_collector
        for key in [k for k, r in self._pending.items()
                    if r.response_expected and r.target_group == group_id]:
            record = self._pending.pop(key)
            client_id, op_id = key
            self._filter.cancel((group_id, client_id, op_id))
            self._release_admission(record)
            self.stats["requests_unservable"] += 1
            self._lazy_counter("gateway.req.unservable").inc()
            if record.order_span:
                spans.end(record.order_span)
                record.order_span = 0
            if key in self._cancelled:
                # The client already withdrew interest: no reply, and
                # the tombstone has now served its purpose.
                self._cancelled.discard(key)
            else:
                connection = self._routing.get(client_id)
                if connection is not None and connection.open:
                    # The external request id was recovered into the
                    # child sequence of the operation id.
                    connection.send(reply_for_exception(
                        op_id.child_seq,
                        TransientError(
                            f"server group {group_id} lost all "
                            f"replicas")))
            if record.trace_span and record.forwarder == self.host.name:
                # Only the owning gateway closes the container; mirror
                # observers share the span id but must not close it.
                spans.end(record.trace_span, outcome="unservable",
                          by=self.name)
            self._maybe_flush_client_gone(client_id)

    def _purge_client(self, client_id: ClientId) -> None:
        self.stats["clients_gone"] += 1
        self._m_clients_gone.inc()
        for key in [k for k in self._pending if k[0] == client_id]:
            record = self._pending.pop(key)
            self._release_admission(record)
        for key in [k for k in self._cache if k[0] == client_id]:
            del self._cache[key]
        self._routing.pop(client_id, None)
        self._cancelled = {k for k in self._cancelled if k[0] != client_id}
        self._gone_pending.discard(client_id)
        # Forget the filter's memory as well: if the "client" returns
        # with the same identifiers (e.g. an egress successor host), its
        # reissues must be re-servable, not suppressed as duplicates.
        self._filter.forget_where(lambda key: key[1] == client_id)

    # ==================================================================
    # Retention: TTL reaping of tombstones and one-way records
    # ==================================================================

    def _schedule_reap(self, kind: str, key, record, ttl: float) -> None:
        """Queue one entry for TTL reaping and arm the shared timer.

        Entries are reaped lazily: by the time one expires its target
        may already have been resolved (one-way observed delivered,
        tombstone discarded by a late response), in which case the
        expiry is a no-op.  The single timer always sleeps until the
        earliest queued expiry."""
        expiry = self.scheduler.now + ttl
        heapq.heappush(self._reap_heap,
                       (expiry, next(self._reap_seq), kind, key, record))
        timer = self._reap_timer
        if timer is not None and timer.active:
            if timer.time <= expiry:
                return  # an earlier (or equal) wake-up covers this entry
            self._reap_timer = self.reschedule_after(
                timer, ttl, self._run_reaper)
        else:
            self._reap_timer = self.after(ttl, self._run_reaper)

    def _run_reaper(self) -> None:
        now = self.scheduler.now
        heap = self._reap_heap
        while heap and heap[0][0] <= now:
            _, _, kind, key, record = heapq.heappop(heap)
            if kind == "cancel":
                if key in self._cancelled:
                    # No response ever arrived for the cancelled
                    # operation (e.g. its server group died): drop the
                    # tombstone and the filter expectation that was
                    # waiting for the response.
                    self._cancelled.discard(key)
                    if record is not None:
                        self._filter.cancel(
                            (record.target_group, key[0], key[1]))
                    self.stats["cancels_reaped"] += 1
                    self._m_reap_cancelled.inc()
            else:  # "oneway"
                if self._pending.get(key) is record:
                    # The forwarded INVOCATION was never observed
                    # delivered (lost to a crash or partition): give up
                    # rather than pin the record forever.
                    del self._pending[key]
                    self.stats["oneways_reaped"] += 1
                    self._m_reap_oneway.inc()
                    self._maybe_flush_client_gone(key[0])
        if heap:
            self._reap_timer = self.after(heap[0][0] - now, self._run_reaper)
        else:
            self._reap_timer = None

    # ==================================================================
    # Gateway-group failover (section 3.5)
    # ==================================================================

    def _live_gateway_hosts(self) -> List[str]:
        info = self.rm.registry.get(GATEWAY_GROUP)
        if info is None:
            return [self.host.name]
        live = [h for h in info.placement if h in self.rm.live_hosts]
        return live or [self.host.name]

    def _on_membership(self, live_hosts: Tuple[str, ...]) -> None:
        """Re-forward requests a crashed peer accepted but never forwarded.

        Deterministic takeover: the lowest-named live gateway re-issues;
        duplicate detection inside the domain makes over-forwarding safe.
        """
        if not self.alive:
            return
        self._fail_unservable_pending()
        if not self.mirror_requests:
            return
        leader = min(self._live_gateway_hosts())
        if leader != self.host.name:
            return
        live = set(live_hosts)
        for record in list(self._pending.values()):
            if record.forwarder not in live and not record.forwarded:
                record.forwarder = self.host.name
                self.stats["takeover_forwards"] += 1
                self._m_takeovers.inc()
                self._forward(record)
