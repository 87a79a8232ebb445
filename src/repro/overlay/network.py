"""The assembled overlay: brokers, links, provider, clients, pumping.

One :class:`OverlayNetwork` is a whole deployment on one machine:

* an **access bus** carrying everything the single-router fabric
  already had — clients' subscription requests to the provider,
  provider-signed registrations to routers, publications, deliveries;
* one **link bus per topology edge**, named after the edge so its
  traffic and fault counters stay attributable, each with its own
  optional :class:`~repro.network.faults.FaultPlan`;
* one full :class:`~repro.overlay.node.OverlayNode` per broker — own
  platform, own enclave, own WAL and supervisor, own metrics registry,
  own heartbeat failure detector;
* one **provider** (the keys are the provider's, not the overlay's)
  that attests and provisions every broker enclave with the same SK,
  and routes each client's registrations to that client's *home*
  broker only — remote brokers learn of the interest exclusively
  through summary adverts.

Membership is **live**: links can be severed and healed
(:meth:`sever_link` / :meth:`heal_link`), brokers can join
(:meth:`add_broker` — a fresh platform is registered with the IAS and
its enclave re-attested before provisioning, exactly like the original
fleet), leave cleanly (:meth:`remove_broker` — the provider seals the
empty advert the departed enclave can no longer export) or lose their
enclave (:meth:`crash_broker` — the supervisor recovers it like any
injected death).

Determinism: construction order, pump order and every seed are fixed,
so a network built from the same ``(topology, seeds)`` replays the
same way tick for tick. :meth:`settle` pumps with the membership
clocks frozen — heartbeats are periodic by design and would otherwise
keep the fabric from ever reporting quiescent.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.engine import LINK_PREFIX, ScbrEnclaveLibrary
from repro.core.protocol import parse_subscription_request
from repro.core.provider import ServiceProvider
from repro.core.publisher import Publisher
from repro.core.router import RetryPolicy, Router
from repro.core.subscriber import Client
from repro.errors import EnclaveError, EnclaveLost, RoutingError
from repro.network.bus import MessageBus
from repro.network.faults import FaultPlan
from repro.obs.metrics import MetricsRegistry, aggregate_snapshots
from repro.overlay.forwarding import OverlayLinks
from repro.overlay.membership import FailureDetector, MembershipConfig
from repro.overlay.node import OverlayNode
from repro.overlay.propagation import AdvertScheduler
from repro.overlay.topology import Topology
from repro.recovery.supervisor import CrashSchedule, RouterSupervisor
from repro.sgx.attestation import AttestationService
from repro.sgx.enclave import EnclaveBuilder
from repro.sgx.platform import SgxPlatform

__all__ = ["OverlayNetwork"]


class OverlayNetwork:
    """A topology of supervised SCBR brokers sharing one provider."""

    def __init__(self, topology: Topology, vendor_key,
                 rsa_bits: int = 768, ttl: Optional[int] = None,
                 link_fault_plans: Optional[
                     Dict[Tuple[str, str], FaultPlan]] = None,
                 crash_schedules: Optional[
                     Dict[str, CrashSchedule]] = None,
                 checkpoint_interval: int = 32,
                 retry_policy: Optional[RetryPolicy] = None,
                 membership: Optional[MembershipConfig] = None,
                 reconcile_mode: str = "delta",
                 matcher_backend: str = "forest") -> None:
        self.topology = topology
        self.access_registry = MetricsRegistry()
        self.access_bus = MessageBus(metrics=self.access_registry,
                                     name="access")
        self.link_registry = MetricsRegistry()
        self.ias = AttestationService(signing_key_bits=768)
        link_fault_plans = link_fault_plans or {}
        crash_schedules = crash_schedules or {}
        #: construction knobs remembered so a broker joining later is
        #: built exactly like the original fleet.
        self._vendor_key = vendor_key
        self._rsa_bits = rsa_bits
        self._auto_ttl = ttl is None
        self._ttl = topology.default_ttl() if ttl is None else ttl
        self._checkpoint_interval = checkpoint_interval
        self._retry_policy = retry_policy
        self._membership_config = membership if membership is not None \
            else MembershipConfig()
        self._reconcile_mode = reconcile_mode
        self._matcher_backend = matcher_backend

        # Every broker is its own machine: own platform, registered
        # with the one attestation service the provider trusts.
        # MRENCLAVE commits to the engine's code, defaults, ecall table
        # and declared size alone, nothing of the platform, so one
        # expected value covers the whole fleet (including brokers that
        # join later).
        self._platforms: Dict[str, SgxPlatform] = {}
        for broker in topology.brokers:
            platform = SgxPlatform(attestation_key_bits=768)
            self.ias.register_platform(platform)
            self._platforms[broker] = platform
        expected = EnclaveBuilder(
            self._platforms[topology.brokers[0]],
            ScbrEnclaveLibrary).measure()
        self.provider = ServiceProvider(
            self.access_bus, rsa_bits=rsa_bits,
            attestation_service=self.ias,
            expected_mr_enclave=expected)

        self.nodes: Dict[str, OverlayNode] = {}
        for broker in topology.brokers:
            self.nodes[broker] = self._build_node(
                broker, crash_schedules.get(broker))

        self.link_buses: Dict[Tuple[str, str], MessageBus] = {}
        for a, b in topology.edges:
            self._splice_link(a, b, link_fault_plans.get((a, b)))

        self._clients: Dict[str, Client] = {}
        self._homes: Dict[str, str] = {}
        self._publisher: Optional[Publisher] = None
        #: brokers that left: closed, but kept for metric aggregation
        #: so fleet counters never run backwards mid-run.
        self._retired: List[OverlayNode] = []
        self._closed = False

    # -- construction helpers ----------------------------------------------------

    def _build_node(self, broker: str,
                    crash_schedule: Optional[CrashSchedule] = None
                    ) -> OverlayNode:
        """One broker, built the same way whether founding or joining:
        supervised router, provisioned through attestation, with its
        own links, advert scheduler and failure detector."""
        registry = MetricsRegistry()
        router = Router(self.access_bus, self._platforms[broker],
                        self._vendor_key, name=broker,
                        rsa_bits=self._rsa_bits, metrics=registry,
                        retry_policy=self._retry_policy,
                        matcher_backend=self._matcher_backend)
        self.provider.provision_router(router)
        supervisor = RouterSupervisor(
            router, self.provider.provision_router,
            schedule=crash_schedule,
            checkpoint_interval=self._checkpoint_interval)
        links = OverlayLinks(broker, registry, ttl=self._ttl)
        scheduler = AdvertScheduler(
            router, links, registry, supervisor=supervisor,
            reconcile_mode=self._reconcile_mode)
        membership = FailureDetector(broker, registry,
                                     config=self._membership_config)
        return OverlayNode(broker, router, supervisor, links,
                           scheduler, registry, membership=membership)

    def _splice_link(self, a: str, b: str,
                     fault_plan: Optional[FaultPlan] = None) -> None:
        """Create the edge's bus and attach both brokers to it."""
        bus = MessageBus(fault_plan=fault_plan,
                         metrics=self.link_registry,
                         name=f"{a}~{b}")
        self.nodes[a].connect_link(b, bus)
        self.nodes[b].connect_link(a, bus)
        self.link_buses[(a, b)] = bus

    def _edge_bus(self, a: str, b: str) -> MessageBus:
        bus = self.link_buses.get((a, b))
        if bus is None:
            bus = self.link_buses.get((b, a))
        if bus is None:
            raise RoutingError(f"no link between {a!r} and {b!r}")
        return bus

    # -- live membership ---------------------------------------------------------

    def sever_link(self, a: str, b: str) -> None:
        """Partition one edge: the bus refuses sends (the sender
        *knows* — refused forwards are dead-lettered for requeue on
        heal). Frames already in flight stay deliverable. Idempotent."""
        self._edge_bus(a, b).set_down(True)

    def heal_link(self, a: str, b: str) -> None:
        """Restore a severed edge and start reconciliation on both
        ends: quarantined forwards are requeued and digest probes
        exchanged, so only the interest delta crosses the healed link.
        A no-op if the link was not down."""
        bus = self._edge_bus(a, b)
        if not bus.down:
            return
        bus.set_down(False)
        self.nodes[a].notice_heal(b)
        self.nodes[b].notice_heal(a)

    def down_links(self) -> List[Tuple[str, str]]:
        """Currently severed edges, sorted."""
        return sorted(edge for edge, bus in self.link_buses.items()
                      if bus.down)

    def add_broker(self, name: str, attach_to: Tuple[str, ...],
                   crash_schedule: Optional[CrashSchedule] = None,
                   link_fault_plans: Optional[
                       Dict[Tuple[str, str], FaultPlan]] = None
                   ) -> OverlayNode:
        """Join one broker live, linked to ``attach_to``.

        The newcomer gets a fresh platform registered with the IAS and
        its enclave goes through the same attested provisioning as the
        founding fleet — joining does not weaken the trust story. Both
        ends of every new link queue digest probes, so the joiner
        pulls the overlay's current interest (and advertises its own,
        initially empty, covering set) through the normal anti-entropy
        path instead of a special bootstrap flood.
        """
        if name in self.nodes or name in self._clients:
            raise RoutingError(f"name {name!r} is already taken")
        attach = tuple(attach_to)
        new_topology = self.topology.with_broker(name, attach)
        platform = SgxPlatform(attestation_key_bits=768)
        self.ias.register_platform(platform)
        self._platforms[name] = platform
        node = self._build_node(name, crash_schedule)
        self.nodes[name] = node
        self.topology = new_topology
        plans = link_fault_plans or {}
        for peer in attach:
            self._splice_link(peer, name, plans.get((peer, name)))
            node.request_probe(peer)
            self.nodes[peer].request_probe(name)
        if self._auto_ttl:
            # A grown overlay may need more hops; never shrink (frames
            # already in flight were budgeted under the old diameter).
            self._ttl = max(self._ttl, self.topology.default_ttl())
            for other in self.nodes.values():
                other.links.ttl = max(other.links.ttl, self._ttl)
        return node

    def remove_broker(self, name: str) -> None:
        """Retire one broker cleanly.

        Requires that no client calls it home and that the remaining
        graph stays connected. Each neighbour installs a provider-
        sealed *empty* advert for the departed broker — WAL-journalled
        through its router like any ``SUM``, so the withdrawal
        survives that neighbour's own crashes — and then drops the
        link. This is the **only** path that withdraws a neighbour's
        interest: partitions and confirmed-dead verdicts never do,
        because the peer may return wanting everything it subscribed
        to.
        """
        node = self.node(name)
        homed = sorted(c for c, h in self._homes.items() if h == name)
        if homed:
            raise RoutingError(
                f"broker {name!r} still homes clients {homed}")
        new_topology = self.topology.without_broker(name)
        neighbours = self.topology.neighbours(name)
        for nb in neighbours:
            nb_node = self.nodes[nb]
            withdrawal = self.provider.build_interest_withdrawal(
                name, nb)
            nb_node.router.endpoint.inject(LINK_PREFIX + name,
                                           [withdrawal])
            nb_node.supervisor.pump()
            nb_node.disconnect_link(name)
        for nb in neighbours:
            for key in ((name, nb), (nb, name)):
                self.link_buses.pop(key, None)
        node.close()
        self._retired.append(self.nodes.pop(name))
        self.topology = new_topology

    def crash_broker(self, name: str) -> None:
        """Kill one broker's enclave out-of-band (power loss, not a
        scheduled fuse). The supervisor recovers it on the next pump
        that needs the enclave; host state (inboxes, dedup, dead
        letters) survives, exactly as in the single-router story."""
        enclave = self.node(name).router.enclave
        try:
            enclave.destroy()
        except (EnclaveError, EnclaveLost):
            pass  # already a corpse; crashing it again is a no-op

    # -- population -------------------------------------------------------------

    def node(self, broker: str) -> OverlayNode:
        try:
            return self.nodes[broker]
        except KeyError:
            raise RoutingError(f"no broker named {broker!r}") from None

    def client(self, client_id: str, home: str,
               subscription=None) -> Client:
        """Admit a client whose home broker is ``home``; optionally
        register an initial subscription (settled by the caller)."""
        if client_id in self._clients:
            raise RoutingError(f"client {client_id!r} already exists")
        if client_id in self.nodes:
            raise RoutingError(
                f"client id {client_id!r} collides with a broker")
        self.node(home)  # validates the home broker exists
        client = Client(self.access_bus, client_id,
                        self.provider.keys.public_key)
        client.process_admission(
            self.provider.admit_client(client_id))
        self._clients[client_id] = client
        self._homes[client_id] = home
        if subscription is not None:
            self.subscribe(client_id, subscription)
        return client

    def subscribe(self, client_id: str, subscription) -> None:
        """Send one subscription to the provider (not yet settled)."""
        self._clients[client_id].subscribe("provider", subscription)

    def revoke(self, client_id: str) -> None:
        """Revoke a client: rotate the group key and unregister its
        subscriptions at its home broker."""
        frames = self.provider.revoke_client(client_id)
        if frames:
            self.provider.endpoint.send(self._homes[client_id], frames)

    def publisher(self, name: str = "publisher") -> Publisher:
        """The network's publisher (one shared data source)."""
        if self._publisher is None:
            self._publisher = Publisher(self.access_bus,
                                        self.provider.keys,
                                        self.provider.group,
                                        name=name)
        return self._publisher

    def publish(self, header, payload: bytes,
                at: Optional[str] = None) -> None:
        """Publish one event, entering the overlay at broker ``at``
        (default: the first broker)."""
        broker = at if at is not None else self.topology.brokers[0]
        self.node(broker)  # validates
        self.publisher().publish(broker, header, payload)

    # -- pumping ----------------------------------------------------------------

    def pump_provider(self) -> int:
        """Handle pending subscription requests, routing each signed
        registration to the requesting client's home broker (the
        stock :meth:`ServiceProvider.pump` assumes a single router)."""
        handled = 0
        for _sender, frames in self.provider.endpoint.recv_all():
            for frame in frames:
                client_id, _blob = parse_subscription_request(frame)
                register_frame = \
                    self.provider.handle_subscription_request(frame)
                self.provider.endpoint.send(self._homes[client_id],
                                            [register_frame])
                handled += 1
        return handled

    def pump_all(self, membership_active: bool = True) -> int:
        """One network tick: provider, then every broker in name
        order; returns summed observable activity.
        ``membership_active=False`` freezes every failure detector's
        clock — the settle loop's mode, since periodic heartbeats
        would otherwise never let activity reach zero."""
        activity = self.pump_provider()
        for broker in self.topology.brokers:
            activity += self.nodes[broker].pump(
                membership_active=membership_active)
        return activity

    @property
    def backlog(self) -> int:
        """Frames and retries still owed anywhere in the fabric.

        Work owed *across a severed link* (deferred adverts, queued
        probes) is excluded by the nodes' own accounting: a
        partitioned overlay still settles, and the debt is repaid on
        heal."""
        pending = self.provider.endpoint.pending
        return pending + sum(node.backlog
                             for node in self.nodes.values())

    def backlog_report(self) -> str:
        """Human-readable map of where unfinished work is stuck:
        per-broker inbox depths and owed work, per-link queue depths
        and severed state. Cheap enough to build only on failure."""
        lines = []
        pending = self.provider.endpoint.pending
        if pending:
            lines.append(f"provider: inbox={pending}")
        for broker in self.topology.brokers:
            details = self.nodes[broker].backlog_details()
            if details:
                lines.append(f"{broker}: {details}")
        for (a, b), bus in sorted(self.link_buses.items()):
            to_a, to_b = bus.pending(a), bus.pending(b)
            if to_a or to_b or bus.down:
                state = "DOWN, " if bus.down else ""
                lines.append(f"link {a}~{b}: {state}"
                             f"queued to {a}={to_a}, to {b}={to_b}")
        return "; ".join(lines) if lines else "nothing pending"

    def settle(self, max_rounds: int = 256) -> int:
        """Pump (membership frozen) until quiescent; returns rounds
        used. Raises if ``max_rounds`` was not enough — a bounded
        settle that silently stops early would make the equivalence
        tests vacuous — and names every queue still holding work."""
        for round_number in range(1, max_rounds + 1):
            activity = self.pump_all(membership_active=False)
            if activity == 0 and self.backlog == 0:
                return round_number
        raise RoutingError(
            f"overlay did not settle within {max_rounds} rounds "
            f"(backlog {self.backlog}: {self.backlog_report()})")

    # -- results / observability -------------------------------------------------

    def drain_clients(self) -> None:
        for client_id in sorted(self._clients):
            self._clients[client_id].pump()

    def deliveries(self) -> Dict[str, List[bytes]]:
        """Decrypted payloads per client, in delivery order."""
        self.drain_clients()
        return {client_id: list(client.received)
                for client_id, client in sorted(self._clients.items())}

    def snapshot(self):
        """Fleet-wide metrics: per-node registries (host + enclave)
        plus the access- and link-bus registries, summed. Retired
        brokers keep contributing their final host-side counters."""
        parts = [self.nodes[b].snapshot()
                 for b in self.topology.brokers]
        parts.extend(node.snapshot() for node in self._retired)
        parts.append(self.access_registry.snapshot())
        parts.append(self.link_registry.snapshot())
        return aggregate_snapshots(parts)

    # -- lifecycle ---------------------------------------------------------------

    def disarm(self) -> None:
        """Stop every broker's crash injection (recovery stays on)."""
        for node in self.nodes.values():
            node.supervisor.disarm()

    def close(self) -> None:
        """Tear down every node; idempotent, closes all even if some
        enclaves are already corpses."""
        if self._closed:
            return
        self._closed = True
        for broker in sorted(self.nodes):
            self.nodes[broker].close()
