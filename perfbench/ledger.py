"""Per-layer host-time ledger, recorded from outside the program.

For the length of one traced trial the ledger wraps the functions
through which one ``repro`` layer enters another (:data:`BOUNDARIES`).
Each wrapper is a span: it reads ``time.perf_counter`` on entry and
exit, charges the elapsed time to its layer, and subtracts it from the
enclosing span, so a layer's *self* time is its span time minus the
part covered by child spans.  The benchmark opens the root span (layer
``sim``) around the scheduler run itself, so the self times of all
layers add up to the root span's duration by construction; what the
timed region holds beyond that is the residual the report prints.

Layers reached only through a callback they register (Totem delivery
and membership listeners, TCP ``on_data``) are wrapped at the class
before the ``World`` is built, so the bound methods the program hands
around are already wrapped.  Module-level functions are replaced in
every ``repro`` module that imported them by name.  :meth:`Ledger.
restore` puts every original back.

Some wrappers also count (calls, bytes, GIOP replies written, Totem
tokens received, the sim-clock wait from a Totem multicast to its first
agreed delivery).  They never touch program state, so a traced trial's
simulated results equal an untraced one's.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Every layer the ledger reports self time for, in report order.
#: ``loadgen`` is the benchmark's own load generator and reply
#: callbacks; ``sim`` is the root span: scheduler kernel, network, TCP,
#: and anything not reached through a wrapped boundary.
LAYERS = ("sim", "totem", "eternal", "core.gateway", "core.pool",
          "core.client", "iiop", "orb", "obs", "loadgen")

#: (module, class or None for a module function, attribute, layer).
#: The Totem listener registrations (``on_deliver``/``on_membership``)
#: are wrapped separately: the callback they register becomes an
#: ``eternal`` span.
BOUNDARIES: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.totem.member", "TotemMember", "multicast", "totem"),
    ("repro.totem.member", "TotemMember", "receive", "totem"),
    ("repro.eternal.replication", "ReplicationMechanisms", "multicast",
     "eternal"),
    ("repro.core.gateway", "Gateway", "_on_accept", "core.gateway"),
    ("repro.core.gateway", "Gateway", "_on_client_message", "core.gateway"),
    ("repro.core.gateway", "Gateway", "_on_client_close", "core.gateway"),
    ("repro.core.gateway", "Gateway", "_on_membership", "core.gateway"),
    ("repro.core.gateway", "Gateway", "observe_delivered", "core.gateway"),
    ("repro.core.gateway", "Gateway", "_on_domain_response", "core.gateway"),
    ("repro.core.gateway_pool", "GatewayPool", "ior_for", "core.pool"),
    ("repro.core.client_interceptor", "FtRequester", "send", "core.client"),
    ("repro.core.client_interceptor", "FtRequester", "service_contexts",
     "core.client"),
    ("repro.core.client_interceptor", "FtRequester", "_on_reply",
     "core.client"),
    ("repro.core.client_interceptor", "FtRequester", "_failover",
     "core.client"),
    ("repro.iiop.giop", None, "encode_request", "iiop"),
    ("repro.iiop.giop", None, "encode_reply", "iiop"),
    ("repro.iiop.giop", None, "decode_request", "iiop"),
    ("repro.iiop.giop", None, "decode_reply", "iiop"),
    ("repro.iiop.giop", "GiopFramer", "feed", "iiop"),
    ("repro.orb.orb", "Stub", "invoke", "orb"),
    ("repro.orb.connection", "IiopClientConnection", "_on_data", "orb"),
    ("repro.orb.connection", "IiopServerConnection", "_on_data", "orb"),
    ("repro.orb.connection", "IiopServerConnection", "send", "orb"),
    ("repro.obs.metrics", "Counter", "inc", "obs"),
    ("repro.obs.metrics", "Histogram", "observe", "obs"),
    ("repro.obs.metrics", "Gauge", "set", "obs"),
)

#: GIOP message type byte (offset 7 of the 12-byte header) of a Reply.
_GIOP_REPLY = 1


class Ledger:
    """Span stack, per-layer self time and boundary counts of one trial.

    :meth:`install` before building the trial's ``World``, :meth:`reset`
    once it is set up, run the schedule through :meth:`run_root`, and
    :meth:`restore` afterwards (in a ``finally``).
    """

    def __init__(self) -> None:
        self._stack: List[float] = []   # child time of each open span
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.order_waits: List[float] = []
        self._in_flight: Dict[int, Tuple[Any, float]] = {}
        self._rings_seen: set = set()
        self._responding: List[Any] = []  # gateways inside a response
        self._bindings: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def span(self, layer: str, label: Optional[str],
             fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped as a span of ``layer``; its calls and inclusive
        time are also kept under ``label`` unless that is None."""
        stack = self._stack
        self_time = self.self_time
        inclusive = self.inclusive
        calls = self.calls
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                self_time[layer] += elapsed - stack.pop()
                if label is not None:
                    inclusive[label] += elapsed
                    calls[label] += 1
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def run_root(self, fn: Callable[[], Any]) -> float:
        """Run ``fn`` as a root ``sim`` span; return its wall time.  Root
        spans are not counted: how many a run takes depends on the host."""
        root = self.span("sim", None, fn)
        started = time.perf_counter()
        root()
        return time.perf_counter() - started

    def reset(self) -> None:
        """Forget the spans and counts recorded so far (the set-up).
        Rings installed so far stay known, so only re-formations after
        this point are counted."""
        for table in (self.self_time, self.calls, self.inclusive,
                      self.counts):
            table.clear()
        self.order_waits.clear()
        self._in_flight.clear()

    # ------------------------------------------------------------------
    # Installing and restoring the wrappers
    # ------------------------------------------------------------------

    def install(self) -> "Ledger":
        """Wrap every boundary; call before the trial's ``World`` exists."""
        if self._bindings:
            raise RuntimeError("ledger already installed")
        try:
            for module_name, owner_name, name, layer in BOUNDARIES:
                module = sys.modules[module_name]
                if owner_name is None:
                    self._install_function(module, name, layer)
                else:
                    owner = getattr(module, owner_name)
                    label = f"{owner_name}.{name}"
                    inner = self._counting(label, owner.__dict__[name])
                    self._replace(owner, name, self.span(layer, label, inner))
            self._install_listener_wraps()
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        """Put every original binding back (reverse install order)."""
        while self._bindings:
            owner, name, original = self._bindings.pop()
            setattr(owner, name, original)

    def wrapped_bindings(self) -> List[Tuple[Any, str, Any]]:
        """``(owner, name, original)`` of every binding now replaced."""
        return list(self._bindings)

    def _replace(self, owner: Any, name: str, new: Any) -> None:
        self._bindings.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def _install_function(self, module: Any, name: str, layer: str) -> None:
        original = module.__dict__[name]
        wrapped = self.span(layer, name, self._counting(name, original))
        # Rebind every ``from ... import name`` alias too, so each caller
        # of the function goes through the span.
        for mod_name, mod in sorted(sys.modules.items()):
            if (mod is not None and mod_name.split(".")[0] == "repro"
                    and mod.__dict__.get(name) is original):
                self._replace(mod, name, wrapped)

    def _install_listener_wraps(self) -> None:
        member_cls = sys.modules["repro.totem.member"].TotemMember
        on_deliver = member_cls.__dict__["on_deliver"]
        on_membership = member_cls.__dict__["on_membership"]
        counts, in_flight = self.counts, self._in_flight
        order_waits, rings_seen = self.order_waits, self._rings_seen
        span = self.span

        def wrapped_on_deliver(member: Any, fn: Callable[..., Any]) -> None:
            scheduler = member.host.scheduler

            def delivered(seq: int, sender: str, payload: Any) -> None:
                counts["totem.deliveries"] += 1
                sent = in_flight.pop(id(payload), None)
                if sent is not None:
                    order_waits.append(scheduler.now - sent[1])
                fn(seq, sender, payload)

            on_deliver(member, span("eternal", "on_deliver", delivered))

        def wrapped_on_membership(member: Any,
                                  fn: Callable[..., Any]) -> None:
            def installed(members: Any, ring_id: Any) -> None:
                if ring_id not in rings_seen:
                    rings_seen.add(ring_id)
                    counts["totem.ring_installs"] += 1
                fn(members, ring_id)

            on_membership(member, span("eternal", "on_membership", installed))

        self._replace(member_cls, "on_deliver", wrapped_on_deliver)
        self._replace(member_cls, "on_membership", wrapped_on_membership)

    # ------------------------------------------------------------------
    # Boundary counts
    # ------------------------------------------------------------------

    def _counting(self, label: str,
                  fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` plus whatever per-call counts ``label`` records (``fn``
        itself when it records none)."""
        counts, in_flight = self.counts, self._in_flight
        responding = self._responding

        if label == "TotemMember.multicast":
            def multicast(member: Any, payload: Any, *args: Any,
                          **kwargs: Any) -> Any:
                # Keep the payload referenced so its id stays unique
                # until its first delivery pops it.
                in_flight.setdefault(
                    id(payload), (payload, member.host.scheduler.now))
                return fn(member, payload, *args, **kwargs)
            return multicast

        if label == "TotemMember.receive":
            def receive(member: Any, message: Any) -> Any:
                if type(message).__name__ == "Token":
                    counts["totem.tokens_received"] += 1
                return fn(member, message)
            return receive

        if label in ("encode_request", "encode_reply"):
            def encode(*args: Any, **kwargs: Any) -> Any:
                data = fn(*args, **kwargs)
                counts["iiop.messages"] += 1
                counts["iiop.bytes"] += len(data)
                return data
            return encode

        if label in ("decode_request", "decode_reply"):
            def decode(message: Any, *args: Any, **kwargs: Any) -> Any:
                counts["iiop.messages"] += 1
                counts["iiop.bytes"] += len(message)
                return fn(message, *args, **kwargs)
            return decode

        if label == "GiopFramer.feed":
            def feed(framer: Any, data: Any) -> Any:
                before = framer.zero_copy_bytes
                messages = fn(framer, data)
                counts["iiop.fed_bytes"] += len(data)
                counts["iiop.zero_copy_bytes"] += (
                    framer.zero_copy_bytes - before)
                return messages
            return feed

        if label == "Gateway._on_domain_response":
            def on_response(gateway: Any, msg: Any) -> Any:
                counts["core.gateway.responses_received"] += 1
                responding.append(gateway)
                try:
                    return fn(gateway, msg)
                finally:
                    responding.pop()
            return on_response

        if label == "IiopServerConnection.send":
            def send(connection: Any, data: Any) -> Any:
                # A Reply written while a gateway handles a domain
                # response is that response delivered to its client.
                if responding and len(data) > 7 and data[7] == _GIOP_REPLY:
                    counts["core.gateway.responses_delivered"] += 1
                return fn(connection, data)
            return send

        return fn
