"""Fault tolerance domain orchestration.

A :class:`FaultToleranceDomain` is "the domain of control of the fault
tolerance infrastructure" (paper section 1): a set of processors that
run Totem and the Eternal Replication Mechanisms, the replicated
manager objects, zero or more gateways on its edge, and the replicated
application groups inside.

The domain object is deliberately the *only* piece of the reproduction
that knows how everything is wired; tests, examples and benchmarks
build domains and then talk CORBA.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..errors import ConfigurationError, TransientError
from ..iiop.ior import Ior, stitch_profiles
from ..orb.idl import Interface
from ..orb.servant import Servant
from ..sim.host import Host
from ..sim.world import Promise, World
from ..totem.member import TotemConfig, TotemMember
from ..totem.transport import TotemTransport
from .egress import DomainEgress
from .fault_detector import FaultDetector
from .interceptor import EternalInterceptor
from .managers import (
    EvolutionManager,
    REPLICATION_MANAGER_INTERFACE,
    ReplicationManagerServant,
    ResourceManager,
    StyleManager,
)
from .messages import DomainMessage, MsgKind
from .naming import (
    FIRST_APPLICATION_GROUP,
    GATEWAY_GROUP,
    REPLICATION_MANAGER_GROUP,
    make_object_key,
)
from .properties import FaultToleranceProperties
from .registry import GroupInfo
from .replication import ReplicationMechanisms
from .styles import ReplicationStyle, StylePolicy

REPLICATION_MANAGER_FACTORY = "eternal.replication_manager"


class GroupHandle:
    """Convenience handle for one replicated object group."""

    def __init__(self, domain: "FaultToleranceDomain", group_id: int,
                 name: str, interface: Interface) -> None:
        self.domain = domain
        self.group_id = group_id
        self.name = name
        self.interface = interface

    def invoke(self, operation: str, *args: Any) -> Promise:
        return self.domain.invoke(self, operation, list(args))

    def ior(self, first_gateway_only: bool = False) -> Ior:
        return self.domain.ior_for(self, first_gateway_only=first_gateway_only)

    def info(self) -> Optional[GroupInfo]:
        return self.domain.coordinator_rm().registry.get(self.group_id)

    def is_ready(self) -> bool:
        """True when every placed replica reports installed state."""
        info = self.info()
        if info is None or not info.placement:
            return False
        for host_name in info.placement:
            rm = self.domain.rms.get(host_name)
            if rm is None or not rm.alive:
                return False
            record = rm.replicas.get(self.group_id)
            if record is None or not record.ready:
                return False
        return True

    def __repr__(self) -> str:
        return f"<GroupHandle {self.name} gid={self.group_id}>"


class FaultToleranceDomain:
    """One fault tolerance domain: hosts, Totem ring, RMs, gateways."""

    def __init__(
        self,
        world: World,
        name: str,
        num_hosts: int = 3,
        totem_config: Optional[TotemConfig] = None,
        site: Optional[str] = None,
    ) -> None:
        self.world = world
        self.name = name
        self.site = site or name
        self.totem_config = totem_config or TotemConfig()
        self.transport = TotemTransport(world.network, name)
        self.interfaces: Dict[str, Interface] = {}
        self.factories: Dict[str, Callable[..., Servant]] = {}
        self.hosts: List[Host] = []
        self.members: Dict[str, TotemMember] = {}
        self.rms: Dict[str, ReplicationMechanisms] = {}
        self.egresses: Dict[str, DomainEgress] = {}
        self.resource_managers: Dict[str, ResourceManager] = {}
        self.fault_detectors: Dict[str, FaultDetector] = {}
        self.gateways: List[Any] = []          # repro.core.gateway.Gateway
        self.replica_host_names: List[str] = []
        self.interceptor = EternalInterceptor(self)
        self.evolution = EvolutionManager(self)
        self._next_gid = itertools.count(FIRST_APPLICATION_GROUP)
        self._invoke_seq = itertools.count(1)
        self._handles: Dict[int, GroupHandle] = {}
        self._naming: Optional[GroupHandle] = None

        self.register_interface(REPLICATION_MANAGER_INTERFACE)
        self.register_factory(REPLICATION_MANAGER_FACTORY,
                              self._make_replication_manager)

        self._bootstrapped = False
        for i in range(num_hosts):
            self._add_processor(f"{name}-h{i}", replica_host=True)
        self._bootstrap_managers()
        self._bootstrapped = True

    # ==================================================================
    # Construction
    # ==================================================================

    def _add_processor(self, host_name: str, replica_host: bool) -> Host:
        host = self.world.add_host(host_name, site=self.site)
        member = TotemMember(host, host_name, self.transport,
                             config=self.totem_config,
                             tracer=self.world.tracer)
        # Processors added after bootstrap join a running domain and must
        # receive the directory snapshot before acting on deliveries.
        rm = ReplicationMechanisms(
            host, member, self.name, self.interfaces, self.factories,
            tracer=self.world.tracer, synced=not self._bootstrapped)
        DomainEgress(rm, self.world.tcp)
        self.egresses[host_name] = rm._egress
        self.hosts.append(host)
        self.members[host_name] = member
        self.rms[host_name] = rm
        if replica_host:
            self.replica_host_names.append(host_name)
            # The live list object is shared so later-added replica hosts
            # become replacement candidates everywhere.
            self.resource_managers[host_name] = ResourceManager(
                rm, self.replica_host_names)
            self.fault_detectors[host_name] = FaultDetector(rm)
        member.start()
        return host

    def _bootstrap_managers(self) -> None:
        placement = tuple(self.replica_host_names[:3])
        info = GroupInfo(
            group_id=REPLICATION_MANAGER_GROUP,
            name="EternalReplicationManager",
            interface_name=REPLICATION_MANAGER_INTERFACE.name,
            factory_name=REPLICATION_MANAGER_FACTORY,
            style=ReplicationStyle.ACTIVE,
            placement=placement,
            min_replicas=min(2, len(placement)),
        )
        self._announce(info)

    def _make_replication_manager(self, rm: ReplicationMechanisms) -> Servant:
        return ReplicationManagerServant(
            rm, self._build_ior_string, self.replica_host_names)

    def _build_ior_string(self, group_id: int, interface_name: str) -> str:
        interface = self.interfaces.get(interface_name)
        type_id = interface.repo_id if interface else f"IDL:repro/{interface_name}:1.0"
        if not self.gateways:
            # A domain without gateways publishes a reference that only
            # in-domain callers can use; encode it with a placeholder
            # endpoint so the group id still travels in the object key.
            return stitch_profiles(type_id, [("unroutable", 0)],
                                   make_object_key(self.name, group_id)
                                   ).to_string()
        return self.interceptor.published_ior(group_id, type_id).to_string()

    # ==================================================================
    # Public configuration API
    # ==================================================================

    def register_interface(self, interface: Interface) -> None:
        self.interfaces[interface.name] = interface

    def register_factory(self, name: str,
                         factory: Callable[..., Servant]) -> None:
        self.factories[name] = factory

    def enable_naming(self, num_replicas: int = 3) -> GroupHandle:
        """Create the replicated Naming Service for this domain.

        Once enabled, every group created afterwards (and every group
        already known) is bound under its name, so external clients can
        bootstrap from the naming service's IOR alone.
        """
        # reprolint: disable=IMP001 -- layering: the infrastructure loads an application servant only when a naming service is asked for
        from ..apps.naming import NAMING_INTERFACE, NamingServant
        if self._naming is not None:
            return self._naming
        self._naming = self.create_group(
            "EternalNaming", NAMING_INTERFACE, NamingServant,
            style=ReplicationStyle.ACTIVE,
            num_replicas=min(num_replicas, len(self.replica_host_names)))
        for handle in list(self._handles.values()):
            if handle is not self._naming:
                self._bind_name(handle)
        return self._naming

    def _bind_name(self, handle: GroupHandle) -> None:
        if self._naming is None or handle is self._naming:
            return
        if not self.gateways:
            return  # nothing externally resolvable to bind yet
        self.invoke(self._naming, "rebind",
                    [handle.name, self.ior_for(handle).to_string()])

    def add_gateway(self, port: int = 2809, mirror_requests: bool = True,
                    host_name: Optional[str] = None,
                    **gateway_kwargs: Any) -> Any:
        """Add a gateway processor on the domain's edge (section 3).

        ``gateway_kwargs`` pass through to :class:`repro.core.gateway.
        Gateway` (admission window/queue limits, TTLs, cache size) —
        the gateway-pool seam.
        """
        # reprolint: disable=IMP001 -- layering: core.gateway imports repro.eternal at module scope, so the domain loads it on first use
        from ..core.gateway import Gateway
        host_name = host_name or f"{self.name}-gw{len(self.gateways)}"
        host = self._add_processor(host_name, replica_host=False)
        gateway = Gateway(self, host, port, mirror_requests=mirror_requests,
                          **gateway_kwargs)
        self.gateways.append(gateway)
        gateway.start()
        self._announce(GroupInfo(
            group_id=GATEWAY_GROUP,
            name="EternalGateways",
            interface_name="",
            factory_name="",
            style=ReplicationStyle.ACTIVE,
            placement=tuple(gw.host.name for gw in self.gateways),
            min_replicas=0,
        ))
        return gateway

    def create_group(
        self,
        name: str,
        interface: Interface,
        factory: Callable[..., Servant],
        style: ReplicationStyle = ReplicationStyle.ACTIVE,
        num_replicas: int = 3,
        min_replicas: Optional[int] = None,
        placement: Optional[Sequence[str]] = None,
        checkpoint_interval: int = 10,
        properties: Optional["FaultToleranceProperties"] = None,
    ) -> GroupHandle:
        """Create a replicated object group (configuration-time API).

        Fault tolerance properties may be given either as individual
        keyword arguments or as one validated
        :class:`~repro.eternal.properties.FaultToleranceProperties`
        object (which then wins).  The runtime equivalent is invoking
        ``create_object`` on the replicated Replication Manager; both
        paths emit the same idempotent GROUP_ANNOUNCE.
        """
        if properties is not None:
            style = properties.replication_style
            num_replicas = properties.initial_number_replicas
            min_replicas = properties.minimum_number_replicas
            checkpoint_interval = properties.checkpoint_interval
        self.register_interface(interface)
        factory_name = f"factory.{name}"
        self.register_factory(factory_name, factory)
        # Skip ids already taken by groups created through the CORBA
        # Replication Manager (whose replicas allocate from the shared
        # registry).  An announce still in flight can in principle race
        # this check; await the manager invocation before calling
        # create_group — its reply is ordered after its announcement.
        taken = {g.group_id
                 for g in self.coordinator_rm().registry.all_groups()}
        taken.update(self._handles)
        group_id = next(self._next_gid)
        while group_id in taken:
            group_id = next(self._next_gid)
        if placement is None:
            if num_replicas > len(self.replica_host_names):
                raise ConfigurationError(
                    f"asked for {num_replicas} replicas but domain has "
                    f"{len(self.replica_host_names)} replica hosts")
            offset = group_id % len(self.replica_host_names)
            rotated = (self.replica_host_names[offset:]
                       + self.replica_host_names[:offset])
            placement = rotated[:num_replicas]
        info = GroupInfo(
            group_id=group_id, name=name, interface_name=interface.name,
            factory_name=factory_name, style=style,
            placement=tuple(placement),
            min_replicas=min_replicas if min_replicas is not None else num_replicas,
            initial_replicas=num_replicas,
            checkpoint_interval=checkpoint_interval)
        self._announce(info)
        handle = GroupHandle(self, group_id, name, interface)
        self._handles[group_id] = handle
        self._bind_name(handle)
        return handle

    def _announce(self, info: GroupInfo) -> None:
        self.coordinator_rm().multicast(DomainMessage(
            kind=MsgKind.GROUP_ANNOUNCE, source_group=0, target_group=0,
            data={"info": info}))

    def switch_style(self, group: Union[GroupHandle, str, int],
                     style: ReplicationStyle) -> None:
        """Switch a live group's replication style at runtime.

        The STYLE_SWITCH control message's position in the total order
        is the quiesce point: operations ordered before it complete
        under the old engine, operations after it run under the new
        one, and no invocation is lost or duplicated across the cut
        (the Replication Mechanisms relax stranded voting expectations
        and hand state across at the switch).  Only stateful styles
        participate — a STATELESS group has no consistency contract to
        hand over.
        """
        handle = self.resolve(group)
        rm = self.coordinator_rm()
        info = rm.registry.get(handle.group_id)
        if info is None:
            raise ConfigurationError(
                f"group {handle.name} is not announced yet")
        if not info.style.has_state or not style.has_state:
            raise ConfigurationError(
                "live style switching is defined between stateful styles "
                f"only ({info.style.value} -> {style.value})")
        rm.multicast(DomainMessage(
            kind=MsgKind.STYLE_SWITCH, source_group=0, target_group=0,
            data={"group_id": handle.group_id, "style": style.value,
                  "epoch": info.style_epoch + 1}))

    def enable_adaptive_styles(self, policy: Optional["StylePolicy"] = None,
                               groups: Optional[Sequence[
                                   Union[GroupHandle, str, int]]] = None,
                               tick_interval: float = 0.25
                               ) -> Dict[str, "StyleManager"]:
        """Run a :class:`~repro.eternal.managers.StyleManager` on every
        live replica host (leaderless, like the Resource Manager).

        ``groups`` restricts adaptation to the given groups; ``None``
        adapts every application group.  Returns the managers by host.
        """
        group_ids = (None if groups is None
                     else [self.resolve(g).group_id for g in groups])
        managers: Dict[str, StyleManager] = {}
        for host_name in self.replica_host_names:
            rm = self.rms.get(host_name)
            if rm is not None and rm.alive:
                managers[host_name] = StyleManager(
                    rm, policy=policy, groups=group_ids,
                    tick_interval=tick_interval)
        self.style_managers = managers
        return managers

    # ==================================================================
    # Invocation (driver/ambassador API)
    # ==================================================================

    def coordinator_rm(self) -> ReplicationMechanisms:
        """The RM used for driver-originated traffic: first live host."""
        for host in self.hosts:
            rm = self.rms.get(host.name)
            if rm is not None and rm.alive:
                return rm
        raise ConfigurationError(f"domain {self.name!r} has no live host")

    def resolve(self, group: Union[GroupHandle, str, int]) -> GroupHandle:
        if isinstance(group, GroupHandle):
            return group
        # Locally-created handles resolve even before their announcement
        # is delivered (invoke() settles on readiness anyway).
        for handle in self._handles.values():
            if group == handle.name or group == handle.group_id:
                return handle
        registry = self.coordinator_rm().registry
        info = (registry.get(group) if isinstance(group, int)
                else registry.by_name(group))
        if info is None:
            raise ConfigurationError(f"unknown group {group!r}")
        handle = self._handles.get(info.group_id)
        if handle is None:
            interface = self.interfaces[info.interface_name]
            handle = GroupHandle(self, info.group_id, info.name, interface)
            self._handles[info.group_id] = handle
        return handle

    def invoke(self, group: Union[GroupHandle, str, int], operation: str,
               args: Sequence[Any], settle_timeout: float = 10.0) -> Promise:
        """Invoke a replicated group from the domain driver.

        Waits (in simulated time) for the group's announcement to reach
        the coordinator before issuing, so ``create_group`` +
        ``invoke`` compose without explicit settling.
        """
        handle = self.resolve(group)
        promise = Promise()
        seq = next(self._invoke_seq)
        deadline = self.world.scheduler.now + settle_timeout

        def try_issue() -> None:
            if promise.done:
                return
            try:
                rm = self.coordinator_rm()
            except ConfigurationError as exc:
                promise.reject(exc)
                return
            info = rm.registry.get(handle.group_id)
            ready = (info is not None and
                     any(rm2 is not None and rm2.alive and
                         (rec := rm2.replicas.get(handle.group_id)) is not None
                         and rec.ready
                         for rm2 in (self.rms.get(h) for h in info.placement)))
            if not ready:
                if self.world.scheduler.now >= deadline:
                    promise.reject(TransientError(
                        f"group {handle.name} never became ready"))
                else:
                    self.world.scheduler.call_after(0.002, try_issue)
                return
            inner = rm.external_invoke(
                handle.group_id, operation, list(args),
                client_uid=f"driver/{self.name}", request_seq=seq)
            inner.on_done(lambda p: promise.reject(p.error)
                          if p.failed else promise.resolve(p.value))

        try_issue()
        return promise

    # ==================================================================
    # References and status
    # ==================================================================

    def ior_for(self, group: Union[GroupHandle, str, int],
                first_gateway_only: bool = False) -> Ior:
        handle = self.resolve(group)
        return self.interceptor.published_ior(
            handle.group_id, handle.interface.repo_id,
            first_gateway_only=first_gateway_only)

    def is_stable(self) -> bool:
        """All live members operational on one ring, registries synced."""
        live = [m for m in self.members.values() if m.alive]
        if not live:
            return False
        expected = {m.name for m in live}
        if not all(m.state == TotemMember.OPERATIONAL and
                   set(m.members) == expected for m in live):
            return False
        # Synced registries that have seen the manager bootstrap: a domain
        # is not usable until its directory reached every processor.
        return all(rm.synced and REPLICATION_MANAGER_GROUP in rm.registry
                   for rm in self.rms.values() if rm.alive)

    def await_stable(self, timeout: float = 30.0) -> None:
        self.world.scheduler.run_until(self.is_stable, timeout=timeout)

    def await_ready(self, handle: GroupHandle, timeout: float = 30.0) -> None:
        self.world.scheduler.run_until(handle.is_ready, timeout=timeout)

    def rm_on(self, host_name: str) -> ReplicationMechanisms:
        return self.rms[host_name]

    def restart_host(self, host_name: str) -> ReplicationMechanisms:
        """Restart the Eternal software on a recovered replica processor.

        The processor itself must already be up (``Host.recover``); this
        starts a fresh Totem member and Replication Mechanisms on it.
        The new RM joins unsynced: it buffers deliveries until an
        incumbent sends the directory snapshot, after which the Resource
        Manager may place replacement replicas on it again.
        """
        host = self.world.network.host(host_name)
        if not host.alive:
            raise ConfigurationError(
                f"recover host {host_name} before restarting its software")
        if host_name in self.rms and self.rms[host_name].alive:
            raise ConfigurationError(f"{host_name} is already running")
        if any(gw.host.name == host_name for gw in self.gateways):
            raise ConfigurationError(
                "gateway processors are restarted via add_gateway")
        member = TotemMember(host, host_name, self.transport,
                             config=self.totem_config,
                             tracer=self.world.tracer)
        rm = ReplicationMechanisms(
            host, member, self.name, self.interfaces, self.factories,
            tracer=self.world.tracer, synced=False)
        DomainEgress(rm, self.world.tcp)
        self.egresses[host_name] = rm._egress
        self.members[host_name] = member
        self.rms[host_name] = rm
        if host_name in self.replica_host_names:
            self.resource_managers[host_name] = ResourceManager(
                rm, self.replica_host_names)
        member.start()
        return rm

    def live_host_names(self) -> List[str]:
        return [h.name for h in self.hosts if h.alive]
