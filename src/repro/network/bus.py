"""In-process message bus: the ZeroMQ substitute (paper §3.5).

The paper wires producer, filter and consumers with ZeroMQ and
serialises messages in Base64 text. Offline and single-process, we
model the same shape: named endpoints exchanging multipart frames
through a broker object, with per-endpoint FIFO inboxes and traffic
counters. Matching-time measurements are taken at the filtering engine
(as in the paper), so the bus needs determinism, not real sockets.

Two observability hooks ride on the broker:

* an optional :class:`~repro.network.faults.FaultPlan` injects seeded
  drop/duplicate/reorder/corrupt faults per link, so the fabric's
  degradation is testable without giving up reproducibility;
* an optional :class:`~repro.obs.metrics.MetricsRegistry` receives
  traffic and fault counters, so nothing the bus does to a message is
  invisible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import NetworkError
from repro.network.faults import FaultPlan
from repro.obs.metrics import MetricsRegistry

__all__ = ["Frame", "MessageBus", "Endpoint"]

Frame = List[bytes]


@dataclass
class _Mailbox:
    inbox: Deque[Tuple[str, Frame]] = field(default_factory=deque)
    received_messages: int = 0
    received_bytes: int = 0


class Endpoint:
    """One party on the bus (publisher, router, client...)."""

    def __init__(self, bus: "MessageBus", name: str) -> None:
        self._bus = bus
        self.name = name
        self.sent_messages = 0
        self.sent_bytes = 0

    def send(self, to: str, frames: Frame) -> None:
        """Deliver a multipart message to another endpoint's inbox."""
        self._bus.deliver(self.name, to, frames)

    def send_many(self, recipients: Sequence[str], frames: Frame
                  ) -> List[Tuple[str, NetworkError]]:
        """Multicast one message to many inboxes.

        Returns ``(recipient, error)`` for every recipient it could
        not be sent to, in recipient order; the others are served.
        """
        return self._bus.deliver_many(self.name, recipients, frames)

    def recv(self) -> Optional[Tuple[str, Frame]]:
        """Pop the oldest pending ``(sender, frames)``, or None."""
        return self._bus.pop(self.name)

    def requeue(self, sender: str, frames: Frame) -> None:
        """Give back a message this endpoint popped but never handled.

        The message returns to the *front* of the inbox, ahead of
        anything that arrived meanwhile — the next :meth:`recv`
        resumes exactly where the interrupted drain stopped.
        """
        self._bus.requeue(self.name, sender, frames)

    def inject(self, sender: str, frames: Frame) -> None:
        """Append a host-local message at the *tail* of the inbox.

        For traffic that should queue behind what is already pending
        (an overlay node moving link frames into its router's inbox),
        as if it had just arrived — without the fault plan or traffic
        counters a network :meth:`send` would apply.
        """
        self._bus.inject(self.name, sender, frames)

    def recv_all(self) -> List[Tuple[str, Frame]]:
        """Drain the inbox."""
        return self._bus.pop_all(self.name)

    @property
    def pending(self) -> int:
        return self._bus.pending(self.name)


class MessageBus:
    """Broker connecting named endpoints with FIFO delivery.

    ``fault_plan`` (also settable later via :meth:`install_fault_plan`)
    subjects traffic to seeded per-link faults; ``metrics`` shares a
    registry with the rest of the fabric so bus counters land in the
    same snapshot the router reports.
    """

    def __init__(self, fault_plan: Optional[FaultPlan] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 name: str = "") -> None:
        self._mailboxes: Dict[str, _Mailbox] = {}
        self._endpoints: Dict[str, Endpoint] = {}
        self.total_messages = 0
        self.total_bytes = 0
        self.fault_plan = fault_plan
        #: messages lost to an injected drop fault, per link.
        self.dropped_messages = 0
        #: severed-link state: while True every deliver() raises
        #: :class:`~repro.errors.NetworkError` — the *sender* learns of
        #: the failure (connection refused), unlike a drop fault which
        #: loses the message silently. Frames already queued in a
        #: mailbox before the sever stay readable: they reached the
        #: remote host before the cable was cut.
        self.down = False
        #: sends refused while the bus was down (never silent).
        self.refused_messages = 0
        #: optional bus identity. Overlays run one bus per broker link
        #: off a *shared* registry; naming each bus attributes traffic
        #: and fault counters per link (``bus.messages_total{bus=...}``)
        #: while the unlabelled totals still aggregate fabric-wide.
        self.name = name
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry()
        self._m_messages = self.metrics.counter(
            "bus.messages_total", "messages accepted by the broker")
        self._m_bytes = self.metrics.counter(
            "bus.bytes_total", "payload bytes accepted by the broker")
        self._m_faults = self.metrics.counter(
            "bus.faults_injected_total",
            "faults injected by the active plan, by kind")
        self._m_refused = self.metrics.counter(
            "bus.sends_refused_total",
            "sends refused because the bus was severed")
        if name:
            self._m_messages = self._m_messages.child(bus=name)
            self._m_bytes = self._m_bytes.child(bus=name)
            self._m_refused = self._m_refused.child(bus=name)
            self._m_faults_by_kind = {
                kind: self._m_faults.child(kind=kind, bus=name)
                for kind in ("drop", "duplicate", "reorder", "corrupt")}
        else:
            self._m_faults_by_kind = {
                kind: self._m_faults.child(kind=kind)
                for kind in ("drop", "duplicate", "reorder", "corrupt")}

    def install_fault_plan(self, plan: Optional[FaultPlan]) -> None:
        """Attach (or clear) the fault-injection plan."""
        self.fault_plan = plan

    def set_down(self, down: bool) -> None:
        """Sever (or heal) the bus. Idempotent either way."""
        self.down = down

    def endpoint(self, name: str) -> Endpoint:
        """Create (or fetch) the endpoint with this identity."""
        if not name:
            raise NetworkError("endpoint name must be non-empty")
        if name not in self._endpoints:
            self._endpoints[name] = Endpoint(self, name)
            self._mailboxes[name] = _Mailbox()
        return self._endpoints[name]

    def deliver(self, sender: str, to: str, frames: Frame) -> None:
        """A multicast to one recipient that raises its failure."""
        failed = self.deliver_many(sender, (to,), frames)
        if failed:
            raise failed[0][1]

    def deliver_many(self, sender: str, recipients: Sequence[str],
                     frames: Frame) -> List[Tuple[str, NetworkError]]:
        """Validate once, then apply link faults and enqueue per recipient.

        The stand-in for handing one ciphertext to the substrate for
        all matched consumers. A recipient that cannot be sent to does
        not stop the others: its ``(recipient, error)`` is returned, in
        recipient order, with the precedence a lone send has — bus
        down, then unknown endpoint, then bad frames.

        Shared by all recipients: the ``down`` test, the frame
        validation, the immutable ``bytes`` and their sizes. Per
        recipient, in recipient order (so a seeded plan's stream does
        not depend on how its traffic was grouped): the mailbox
        lookup, one :meth:`FaultPlan.decide`, a frame list of its own
        (a corrupt fault damages one copy) and the enqueue. Traffic
        totals, the sender's included, are added up once, whichever
        way the loop is left.
        """
        if self.down:
            link = self.name or "<bus>"
            failed = [(to, NetworkError(
                f"link {link} is down: {sender} -> {to} refused"))
                for to in recipients]
            if failed:
                self.refused_messages += len(failed)
                self._m_refused.inc(len(failed))
            return failed
        mailboxes = self._mailboxes
        if not isinstance(frames, list) or not all(
                isinstance(f, (bytes, bytearray)) for f in frames):
            return [(to, NetworkError(
                "frames must be a list of bytes" if to in mailboxes
                else f"no endpoint named {to!r}"))
                for to in recipients]
        payload = [bytes(f) for f in frames]
        sizes = [len(f) for f in payload]
        size = sum(sizes)
        plan = self.fault_plan
        failed = []
        sent = enqueued = 0
        try:
            for to in recipients:
                mailbox = mailboxes.get(to)
                if mailbox is None:
                    failed.append((to, NetworkError(
                        f"no endpoint named {to!r}")))
                    continue
                inbox = mailbox.inbox
                own = payload[:]
                copies = 1
                reorder = False
                if plan is not None:
                    decision = plan.decide(sender, to, sizes)
                    if decision.drop:
                        # Lost on the wire: the sender believes it
                        # succeeded (as with a real network), but the
                        # loss is accounted.
                        sent += 1
                        self.dropped_messages += 1
                        self._m_faults_by_kind["drop"].inc()
                        continue
                    if decision.corrupt_at is not None:
                        frame_index, byte_index = decision.corrupt_at
                        damaged = bytearray(payload[frame_index])
                        damaged[byte_index] ^= 0xFF
                        own[frame_index] = bytes(damaged)
                        self._m_faults_by_kind["corrupt"].inc()
                    if decision.duplicate:
                        copies = 2
                        self._m_faults_by_kind["duplicate"].inc()
                    # A reorder can only happen when a message is
                    # pending to overtake; an ineffective roll is not
                    # an injected fault.
                    reorder = decision.reorder and bool(inbox)
                    if reorder:
                        plan.injected["reorder"] += 1
                        self._m_faults_by_kind["reorder"].inc()
                message = (sender, own)
                if reorder:
                    # Overtake the most recent pending message.
                    for _ in range(copies):
                        inbox.insert(len(inbox) - 1, message)
                else:
                    inbox.append(message)
                    if copies == 2:
                        inbox.append(message)
                sent += 1
                enqueued += copies
                mailbox.received_messages += copies
                mailbox.received_bytes += copies * size
        finally:
            # Never inc(0): on a bound counter that would materialise
            # a zero-valued labelled child in the snapshot.
            if enqueued:
                self.total_messages += enqueued
                self.total_bytes += enqueued * size
                self._m_messages.inc(enqueued)
                self._m_bytes.inc(enqueued * size)
            endpoint = self._endpoints.get(sender)
            if endpoint is not None:
                endpoint.sent_messages += sent
                endpoint.sent_bytes += sent * size
        return failed

    def requeue(self, name: str, sender: str, frames: Frame) -> None:
        """Put a popped-but-unprocessed message back on ``name``'s inbox.

        Host-local restoration, not a network event: no fault plan, no
        traffic counters — the message was already accepted (and
        counted) when it was first delivered. Used by the router when a
        crash interrupts a drain mid-message, so the untouched tail of
        the inbox survives the enclave's death.

        The message goes back at the *front* of the inbox: it was
        popped first, so it drains first, even if later traffic
        arrived while it was out. (Appending it at the tail — the old
        behaviour — silently reordered a crash-interrupted message
        behind everything that arrived during the outage; the
        regression is pinned in ``tests/network/test_requeue_order``.)
        Callers restoring *several* popped messages must requeue them
        in reverse pop order. Tail-append injection is :meth:`inject`.
        """
        mailbox = self._mailboxes.get(name)
        if mailbox is None:
            raise NetworkError(f"no endpoint named {name!r}")
        mailbox.inbox.appendleft((sender, [bytes(f) for f in frames]))

    def inject(self, name: str, sender: str, frames: Frame) -> None:
        """Append a host-local message at the *tail* of ``name``'s inbox.

        Same non-network semantics as :meth:`requeue` (no fault plan,
        no traffic counters), but for *new* host-local traffic that
        must queue behind what is already pending — overlay nodes use
        it to move frames from link buses into their router's inbox in
        arrival order.
        """
        mailbox = self._mailboxes.get(name)
        if mailbox is None:
            raise NetworkError(f"no endpoint named {name!r}")
        mailbox.inbox.append((sender, [bytes(f) for f in frames]))

    def pop(self, name: str) -> Optional[Tuple[str, Frame]]:
        mailbox = self._mailboxes.get(name)
        if mailbox is None:
            raise NetworkError(f"no endpoint named {name!r}")
        if not mailbox.inbox:
            return None
        return mailbox.inbox.popleft()

    def pop_all(self, name: str) -> List[Tuple[str, Frame]]:
        """Take everything pending on ``name``'s inbox, oldest first."""
        mailbox = self._mailboxes.get(name)
        if mailbox is None:
            raise NetworkError(f"no endpoint named {name!r}")
        messages = list(mailbox.inbox)
        mailbox.inbox.clear()
        return messages

    def pending(self, name: str) -> int:
        mailbox = self._mailboxes.get(name)
        if mailbox is None:
            raise NetworkError(f"no endpoint named {name!r}")
        return len(mailbox.inbox)

    def stats(self, name: str) -> Tuple[int, int]:
        """(messages, bytes) received by an endpoint so far."""
        mailbox = self._mailboxes.get(name)
        if mailbox is None:
            raise NetworkError(f"no endpoint named {name!r}")
        return mailbox.received_messages, mailbox.received_bytes
