"""The benchmark's three workloads, built only from public ``repro`` APIs.

Each workload turns ``--seed`` into a schedule (:meth:`Workload.
__init__`), builds one ``World`` around it (:meth:`Workload.build`:
everything up to the first request being due), drives the schedule
(:meth:`Workload.start`, then the scheduler runs until
:meth:`Workload.finished`), and checks the outcome
(:meth:`Workload.check`).  The program only ever sees the generated
schedule; the seed stays here.

* ``farm`` — open loop, seeded Poisson arrivals, each arrival its own
  logical client multiplexed over 4 client hosts through a 4-gateway
  ``GatewayPool`` into an ACTIVE 3-replica counter.
* ``nested`` — closed loop of 8 enhanced clients through 1 gateway,
  each calling ``transfer`` on a LEADER_FOLLOWER agent that makes
  nested calls on an ACTIVE ``Accounts`` and a WARM_PASSIVE ``Ledger``.
* ``churn`` — open loop over 8 enhanced clients through 3 mirrored
  gateways into a WARM_PASSIVE counter, while a seeded fault schedule
  crashes and restarts the counter's primary and kills one gateway.
"""

from __future__ import annotations

import random
import zlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import (
    FaultToleranceDomain,
    FtClientLayer,
    GatewayPool,
    Orb,
    Promise,
    ReplicationStyle,
    TotemConfig,
    World,
)
from repro.apps import (
    ACCOUNT_INTERFACE,
    AccountServant,
    COUNTER_INTERFACE,
    CounterServant,
    LEDGER_INTERFACE,
    LedgerServant,
    TRANSFER_INTERFACE,
    TransferAgentServant,
)

#: Simulated seconds allowed for the whole schedule to complete.
RUN_TIMEOUT_S = 600.0


def _is_shed(error: Optional[BaseException]) -> bool:
    """An admission-control refusal (CORBA TRANSIENT)."""
    return error is not None and "Transient" in str(error)


class Workload:
    """One seeded schedule and the world that serves it.

    Subclasses fill :attr:`due` (simulated offsets from the start of
    the run, one per request, known up front for open loops and
    appended as they are issued for closed ones) and report each
    outcome through :meth:`_issue`.
    """

    name = ""
    open_loop = True

    def __init__(self, seed: int) -> None:
        self.world: Optional[World] = None
        self.domain: Optional[FaultToleranceDomain] = None
        self.start_at = 0.0
        self.due: List[float] = []
        self.done_at: Dict[int, float] = {}
        self.values: Dict[int, Any] = {}
        self.shed = 0
        self.failed = 0
        self.lateness = 0.0
        self.faults_at: List[float] = []
        #: Set by the traced run so the load generator's own callbacks
        #: are charged to the ``loadgen`` layer; identity otherwise.
        self.loadgen_span: Callable[[Callable[..., Any]],
                                    Callable[..., Any]] = lambda fn: fn

    # -- hooks ---------------------------------------------------------

    @property
    def attempted(self) -> int:
        return len(self.due)

    def build(self, world: World) -> None:
        raise NotImplementedError

    def start(self) -> None:
        raise NotImplementedError

    def finished(self) -> bool:
        return (len(self.done_at) + self.shed + self.failed
                == self.planned)

    @property
    def planned(self) -> int:
        raise NotImplementedError

    def check(self) -> List[str]:
        """Violated correctness conditions (empty when all hold)."""
        raise NotImplementedError

    # -- shared load-generator pieces ---------------------------------

    def _issue(self, index: int, stub: Any, operation: str,
               args: List[Any],
               then: Optional[Callable[[], None]] = None) -> None:
        """Invoke ``operation`` on ``stub`` for request ``index``, which
        is due now; record its outcome when the promise settles."""
        world = self.world
        late = world.now - (self.start_at + self.due[index])
        if late > self.lateness:
            self.lateness = late
        promise: Promise = stub.invoke(operation, args)

        def settled(p: Promise) -> None:
            if p.failed:
                if _is_shed(p.error):
                    self.shed += 1
                else:
                    self.failed += 1
            else:
                self.done_at[index] = world.now
                self.values[index] = p.value
            if then is not None:
                then()

        promise.on_done(self.loadgen_span(settled))

    def latencies(self) -> List[float]:
        """Simulated seconds from due to reply, in request order."""
        start = self.start_at
        return [self.done_at[i] - (start + self.due[i])
                for i in sorted(self.done_at)]

    def outage(self) -> float:
        """Longest simulated interval, from an injected fault until the
        next fault (or the last completion), with no served completion."""
        if not self.faults_at:
            return 0.0
        done = sorted(at - self.start_at for at in self.done_at.values())
        last = done[-1] if done else 0.0
        bounds = self.faults_at + [max(last, self.faults_at[-1])]
        worst = 0.0
        for begin, end in zip(bounds, bounds[1:]):
            previous = begin
            for at in done:
                if begin <= at <= end:
                    worst = max(worst, at - previous)
                    previous = at
            worst = max(worst, min(end, last) - previous)
        return worst

    def _client_orb(self, host_name: str) -> Orb:
        host = self.world.add_host(host_name)
        return Orb(self.world, host, request_timeout=None)

    def _post(self, offset: float, fn: Callable[..., Any], *args: Any) -> None:
        self.world.scheduler.call_at(self.start_at + offset, fn, *args)


def replica_states(domain: FaultToleranceDomain, group: Any,
                   state: Callable[[Any], Any]) -> Dict[str, Any]:
    """``state(servant)`` of every live, ready replica of ``group``."""
    states = {}
    for host_name, rm in sorted(domain.rms.items()):
        record = rm.replicas.get(group.group_id)
        if rm.alive and record is not None and record.ready:
            states[host_name] = state(record.servant)
    return states


def _check_counter(workload: Workload, group: Any) -> List[str]:
    """Exactly-once on a counter fed only ``increment(1)``: every
    replica holds the served count and the replies are 1..served."""
    problems = []
    served = len(workload.done_at)
    states = replica_states(workload.domain, group, lambda s: s.count)
    if not states:
        problems.append("no live replica of the counter")
    if set(states.values()) - {served}:
        problems.append(f"counter replicas {states} != served {served}")
    if sorted(workload.values.values()) != list(range(1, served + 1)):
        problems.append("increment replies are not exactly 1..served")
    return problems


# ======================================================================
# farm
# ======================================================================

class Farm(Workload):
    """Open loop at a fixed rate near the pool's admission capacity."""

    name = "farm"
    ARRIVALS = 2000
    RATE_PER_S = 1200.0
    POOL_SIZE = 4
    CLIENT_HOSTS = 4
    ADMISSION_WINDOW = 8
    ADMISSION_QUEUE = 64
    TOKEN_QUOTA = 64

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(seed)
        at = 0.0
        for _ in range(self.ARRIVALS):
            at += rng.expovariate(self.RATE_PER_S)
            self.due.append(at)

    @property
    def planned(self) -> int:
        return self.ARRIVALS

    def build(self, world: World) -> None:
        self.world = world
        self.domain = FaultToleranceDomain(
            world, "dom", num_hosts=3,
            totem_config=TotemConfig(max_messages_per_token=self.TOKEN_QUOTA))
        self.pool = GatewayPool(self.domain, size=self.POOL_SIZE,
                                admission_window=self.ADMISSION_WINDOW,
                                admission_queue_limit=self.ADMISSION_QUEUE)
        self.domain.await_stable()
        self.group = self.domain.create_group(
            "Counter", COUNTER_INTERFACE, CounterServant,
            style=ReplicationStyle.ACTIVE, num_replicas=3)
        self.domain.await_ready(self.group)
        self.orbs = [self._client_orb(f"farmhost{i}")
                     for i in range(self.CLIENT_HOSTS)]
        self.layers: List[FtClientLayer] = []
        self.start_at = world.now

    def start(self) -> None:
        fire = self.loadgen_span(self._fire)
        for index, offset in enumerate(self.due):
            self._post(offset, fire, index)

    def _fire(self, index: int) -> None:
        # Each arrival is its own logical client, homed by the pool's
        # ring walk (the IOR's profile order) and multiplexed over the
        # shared connections of one of the client hosts.
        uid = f"farm/{index}"
        orb = self.orbs[zlib.crc32(uid.encode("utf-8")) % len(self.orbs)]
        layer = FtClientLayer(orb, client_uid=uid)
        ior = self.pool.ior_for(self.group, f"{uid}#1")
        stub = layer.string_to_object(ior, COUNTER_INTERFACE,
                                      multiplexed=True)
        self.layers.append(layer)
        self._issue(index, stub, "increment", [1])

    def check(self) -> List[str]:
        return _check_counter(self, self.group)


# ======================================================================
# nested
# ======================================================================

class Nested(Workload):
    """Closed loop of 8 clients calling a nested-invocation transfer."""

    name = "nested"
    open_loop = False
    CLIENTS = 8
    TRANSFERS_PER_CLIENT = 130
    ACCOUNTS = 16
    OPENING_BALANCE = 1_000_000
    THINK_MEAN_S = 0.002

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(seed)
        owners = [f"acct{i:02d}" for i in range(self.ACCOUNTS)]
        self.owners = owners
        # Per client: (think time before the call, src, dst, amount).
        self.plan: List[List[Tuple[float, str, str, int]]] = []
        for _ in range(self.CLIENTS):
            calls = []
            for _ in range(self.TRANSFERS_PER_CLIENT):
                src, dst = rng.sample(owners, 2)
                calls.append((rng.expovariate(1.0 / self.THINK_MEAN_S),
                              src, dst, rng.randint(1, 100)))
            self.plan.append(calls)

    @property
    def planned(self) -> int:
        return self.CLIENTS * self.TRANSFERS_PER_CLIENT

    def build(self, world: World) -> None:
        self.world = world
        domain = self.domain = FaultToleranceDomain(world, "bank",
                                                    num_hosts=4)
        domain.add_gateway(port=2809)
        domain.await_stable()
        self.accounts = domain.create_group(
            "Accounts", ACCOUNT_INTERFACE, AccountServant,
            style=ReplicationStyle.ACTIVE, num_replicas=3)
        self.ledger = domain.create_group(
            "Ledger", LEDGER_INTERFACE, LedgerServant,
            style=ReplicationStyle.WARM_PASSIVE, num_replicas=3)
        self.agent = domain.create_group(
            "Transfers", TRANSFER_INTERFACE, TransferAgentServant,
            style=ReplicationStyle.LEADER_FOLLOWER, num_replicas=3)
        for group in (self.accounts, self.ledger, self.agent):
            domain.await_ready(group)
        world.run_until_done([
            self.accounts.invoke("deposit", owner, self.OPENING_BALANCE)
            for owner in self.owners])
        self.layers = [FtClientLayer(self._client_orb(f"teller{i}"),
                                     client_uid=f"teller/{i}")
                       for i in range(self.CLIENTS)]
        ior = domain.ior_for(self.agent).to_string()
        self.stubs = [layer.string_to_object(ior, TRANSFER_INTERFACE)
                      for layer in self.layers]
        self.start_at = world.now

    def start(self) -> None:
        self._fire_span = self.loadgen_span(self._fire)
        self._next = self.loadgen_span(self._next_call)
        for client in range(self.CLIENTS):
            self._next(client, 0)

    def _next_call(self, client: int, k: int) -> None:
        if k == self.TRANSFERS_PER_CLIENT:
            return
        think = self.plan[client][k][0]
        # Closed loop: a call is due one think time after the client's
        # previous reply (or after the start, for its first call).
        self.world.scheduler.call_after(think, self._fire_span, client, k)

    def _fire(self, client: int, k: int) -> None:
        _, src, dst, amount = self.plan[client][k]
        index = len(self.due)
        self.due.append(self.world.now - self.start_at)
        self._issue(index, self.stubs[client], "transfer",
                    [src, dst, amount],
                    then=lambda: self._next(client, k + 1))

    def check(self) -> List[str]:
        problems = []
        served = len(self.done_at)
        domain = self.domain
        books = replica_states(domain, self.accounts,
                               lambda s: dict(s.balances))
        ledgers = replica_states(domain, self.ledger, lambda s: len(s.log))
        agents = replica_states(domain, self.agent, lambda s: s.completed)
        for label, states in (("Accounts", books), ("Ledger", ledgers),
                              ("TransferAgent", agents)):
            if not states:
                problems.append(f"no live replica of {label}")
            elif any(v != next(iter(states.values()))
                     for v in states.values()):
                problems.append(f"{label} replicas disagree: {states}")
        total = self.ACCOUNTS * self.OPENING_BALANCE
        for host, balances in books.items():
            if sum(balances.values()) != total:
                problems.append(
                    f"balance not conserved on {host}: "
                    f"{sum(balances.values())} != {total}")
        if set(ledgers.values()) - {served}:
            problems.append(f"ledger entries {ledgers} != served {served}")
        if set(agents.values()) - {served}:
            problems.append(f"transfers done {agents} != served {served}")
        return problems


# ======================================================================
# churn
# ======================================================================

class Churn(Workload):
    """Open loop through repeated primary crashes and a gateway kill."""

    name = "churn"
    RATE_PER_S = 200.0
    DURATION_S = 30.0
    CLIENTS = 8
    GATEWAYS = 3
    REPLICA_HOSTS = 5
    CRASH_EVERY_S = 3.0
    RESTART_AFTER_S = 1.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(seed)
        at = rng.expovariate(self.RATE_PER_S)
        self.client_of: List[int] = []
        while at < self.DURATION_S:
            self.due.append(at)
            self.client_of.append(rng.randrange(self.CLIENTS))
            at += rng.expovariate(self.RATE_PER_S)
        # Crash the counter's primary every CRASH_EVERY_S (with seeded
        # jitter), restart it RESTART_AFTER_S later, and kill one
        # gateway once, between two primary crashes.
        self.crashes = []
        at = self.CRASH_EVERY_S
        while at + self.RESTART_AFTER_S < self.DURATION_S:
            self.crashes.append(at + rng.uniform(-0.25, 0.25))
            at += self.CRASH_EVERY_S
        self.gateway_kill = (self.CRASH_EVERY_S * 1.5
                             + rng.uniform(-0.25, 0.25))

    @property
    def planned(self) -> int:
        return len(self.due)

    def build(self, world: World) -> None:
        self.world = world
        domain = self.domain = FaultToleranceDomain(
            world, "dom", num_hosts=self.REPLICA_HOSTS)
        for _ in range(self.GATEWAYS):
            domain.add_gateway(port=2809, mirror_requests=True)
        domain.await_stable()
        self.group = domain.create_group(
            "Counter", COUNTER_INTERFACE, CounterServant,
            style=ReplicationStyle.WARM_PASSIVE, num_replicas=3,
            min_replicas=3)
        domain.await_ready(self.group)
        self.layers = [FtClientLayer(self._client_orb(f"browser{i}"),
                                     client_uid=f"browser/{i}")
                       for i in range(self.CLIENTS)]
        ior = domain.ior_for(self.group).to_string()
        self.stubs = [layer.string_to_object(ior, COUNTER_INTERFACE)
                      for layer in self.layers]
        self.start_at = world.now

    def start(self) -> None:
        fire = self.loadgen_span(self._fire)
        for index, offset in enumerate(self.due):
            self._post(offset, fire, index)
        for at in self.crashes:
            self._post(at, self.loadgen_span(self._crash_primary))
        self._post(self.gateway_kill, self.loadgen_span(self._kill_gateway))

    def _fire(self, index: int) -> None:
        self._issue(index, self.stubs[self.client_of[index]],
                    "increment", [1])

    def _crash_primary(self) -> None:
        domain = self.domain
        victim = self.group.info().primary(domain.live_host_names())
        self.faults_at.append(self.world.now - self.start_at)
        self.world.faults.crash_now(victim)
        self.world.scheduler.call_after(
            self.RESTART_AFTER_S, self.loadgen_span(self._restart), victim)

    def _restart(self, victim: str) -> None:
        self.world.faults.recover_now(victim)
        self.domain.restart_host(victim)

    def _kill_gateway(self) -> None:
        self.faults_at.append(self.world.now - self.start_at)
        # The gateway of the IOR's first profile: the one every client
        # is connected to, so each fails over and reissues.
        gateway = self.domain.gateways[0]
        self.world.faults.crash_now(gateway.host.name)

    def check(self) -> List[str]:
        return _check_counter(self, self.group)


WORKLOADS = {cls.name: cls for cls in (Farm, Nested, Churn)}
