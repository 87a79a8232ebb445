"""The router: untrusted host process around the routing enclave.

Runs in the infrastructure provider's cloud (Fig. 3) and is trusted by
nobody. It hosts the enclave, relays provider traffic into ecalls, and
forwards matched payloads to clients — seeing only ciphertext and the
client identities the protocol deliberately exposes for routing.

Because everyone depends on it, the router is built to *degrade*
rather than fail:

* :meth:`Router.pump` processes each inbound frame under an error
  boundary — a poison frame is quarantined in the dead-letter queue
  with its cause, and the drain continues;
* failed deliveries are retried with capped exponential backoff,
  driven by the router's own tick (one tick per :meth:`pump`), so the
  schedule is deterministic and simulator-reproducible; only after the
  :class:`RetryPolicy` is exhausted is the subscriber declared dead
  and the payload dead-lettered;
* every outcome is counted in a :class:`~repro.obs.metrics.MetricsRegistry`
  (shared with the bus by default), so the conservation property
  *accepted = served + quarantined* is checkable at any moment via
  :meth:`Router.stats`.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.deadletter import DeadLetterQueue
from repro.core.engine import LINK_PREFIX, ScbrEnclaveLibrary
from repro.core.protocol import (MSG_OVERLAY_PUBLISH, MSG_PUBLISH,
                                 MSG_REGISTER, MSG_SUMMARY,
                                 MSG_SUMMARY_DELTA, MSG_UNREGISTER,
                                 build_deliver, message_type,
                                 parse_overlay_publish, parse_publish,
                                 parse_register, parse_summary,
                                 parse_summary_delta, parse_unregister)
from repro.crypto.rsa import RsaPrivateKey
from repro.errors import (CryptoError, EnclaveError, MatchingError,
                          NetworkError, RoutingError)
from repro.network.bus import Endpoint, MessageBus
from repro.obs.metrics import MetricsRegistry
from repro.sgx.platform import SgxPlatform
from repro.sgx.sdk import load_enclave

__all__ = ["Router", "RetryPolicy"]

#: Message-scoped failures the pump boundary absorbs. Platform-scoped
#: SGX errors (memory lock, rollback, attestation) still propagate:
#: they poison the *enclave*, not one frame.
_FRAME_FAULTS = (RoutingError, CryptoError, MatchingError,
                 EnclaveError, NetworkError)

#: Dead-letter reason slugs.
REASON_POISON = "poison-frame"
REASON_UNEXPECTED = "unexpected-type"
REASON_EXHAUSTED = "retries-exhausted"
REASON_LINK_DOWN = "link-down"


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic capped-exponential delivery retry schedule.

    A delivery is attempted up to ``max_attempts`` times in total; the
    wait before retry ``n`` (counting the first retry as ``n = 1``) is
    ``min(base_delay_ticks * 2**(n-1), max_delay_ticks)`` router ticks.
    Ticks advance once per :meth:`Router.pump`, keeping the schedule
    reproducible under simulation.

    ``jitter_ticks`` adds ``0..jitter_ticks`` extra ticks to each wait,
    drawn from the router's own seeded RNG. Without it every subscriber
    failed by one shared fault retries on the *same* future tick — a
    synchronized retry storm that re-overloads whatever just failed;
    with it the storm de-correlates while the run stays seed-exact.
    """

    max_attempts: int = 4
    base_delay_ticks: int = 1
    max_delay_ticks: int = 8
    jitter_ticks: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay_ticks < 1 or self.max_delay_ticks < 1:
            raise ValueError("retry delays must be positive")
        if self.jitter_ticks < 0:
            raise ValueError("jitter_ticks must be non-negative")

    def delay_for(self, retry_number: int) -> int:
        """Base ticks to wait before retry ``retry_number`` (1-based),
        before jitter."""
        return min(self.base_delay_ticks << (retry_number - 1),
                   self.max_delay_ticks)


@dataclass
class _PendingDelivery:
    """One delivery waiting for its backoff to elapse."""

    client_id: str
    frame: bytes
    attempts: int       # attempts made so far
    due_tick: int


class Router:
    """Enclave-hosting CBR router with per-frame fault isolation."""

    def __init__(self, bus: MessageBus, platform: SgxPlatform,
                 enclave_signing_key: RsaPrivateKey,
                 name: str = "router", rsa_bits: int = 768,
                 retry_policy: Optional[RetryPolicy] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 dead_letter_capacity: int = 1024,
                 wal=None,
                 retry_seed: Optional[int] = None,
                 matcher_backend: str = "forest") -> None:
        self.name = name
        self.platform = platform
        self.endpoint: Endpoint = bus.endpoint(name)
        self._signing_key = enclave_signing_key
        self._rsa_bits = rsa_bits
        self._matcher_backend = matcher_backend
        self.enclave = load_enclave(platform, ScbrEnclaveLibrary,
                                    enclave_signing_key,
                                    rsa_bits=rsa_bits,
                                    matcher_backend=matcher_backend)
        #: optional :class:`repro.recovery.WriteAheadLog`; when present,
        #: every REG/UNREG frame is journalled *before* its ecall.
        self.wal = wal
        self.retry_policy = retry_policy if retry_policy is not None \
            else RetryPolicy()
        # Backoff jitter source: seeded per router (by name unless an
        # explicit seed is given), so two routers that fail together
        # draw different jitter, yet any seeded run replays exactly.
        if retry_seed is None:
            retry_seed = zlib.crc32(name.encode("utf-8"))
        self._retry_rng = random.Random(retry_seed)
        self.dead_letters = DeadLetterQueue(
            capacity=dead_letter_capacity)
        #: Router tick count; advanced once per :meth:`pump`.
        self.tick = 0
        self._retries: List[_PendingDelivery] = []
        #: (sender, kind, frame) being processed right now — survives a
        #: mid-ecall enclave loss so the supervisor can resume it.
        self._in_flight: Optional[Tuple[str, str, bytes]] = None
        #: Optional overlay forwarding state
        #: (:class:`repro.overlay.forwarding.OverlayLinks`); when set,
        #: matched ``link:<broker>`` sentinels become hop-by-hop
        #: forwards instead of client deliveries.
        self.overlay = None
        #: True once :meth:`close` has torn the router down.
        self.closed = False

        # Legacy scalar counters, kept in lockstep with the registry.
        self.registrations = 0
        self.publications = 0
        self.deliveries = 0
        #: deliveries abandoned after the retry schedule was exhausted
        #: (clients may disconnect while their subscription is live).
        self.dropped = 0

        # By default the router shares the bus registry, so one
        # snapshot shows the whole fabric.
        self.metrics = metrics if metrics is not None else bus.metrics
        m = self.metrics
        self._m_frames = m.counter(
            "router.frames_total", "inbound frames drained, by kind")
        # Hot-path children are bound once here: pump() increments them
        # with plain integer adds, never re-deriving label keys.
        self._m_frames_by_kind = {
            kind: self._m_frames.child(kind=kind)
            for kind in (MSG_REGISTER, MSG_UNREGISTER, MSG_PUBLISH,
                         MSG_SUMMARY, MSG_OVERLAY_PUBLISH,
                         MSG_SUMMARY_DELTA)}
        self._m_frames_unparseable = self._m_frames.child(
            kind="unparseable")
        self._m_poisoned = m.counter(
            "router.frames_poisoned_total",
            "frames dead-lettered at the pump boundary, by reason")
        self._m_publications = m.counter(
            "router.publications_total",
            "publications matched by the enclave")
        self._m_registrations = m.counter(
            "router.registrations_total", "subscriptions registered")
        self._m_unregistrations = m.counter(
            "router.unregistrations_total",
            "subscriptions withdrawn")
        self._m_summaries = m.counter(
            "router.summaries_installed_total",
            "neighbour summary adverts installed into the enclave")
        self._m_summary_deltas = m.counter(
            "router.summary_deltas_installed_total",
            "delta summary adverts applied into the enclave")
        self._m_delta_mismatches = m.counter(
            "router.summary_delta_mismatches_total",
            "delta adverts rejected for a stale base digest (a DIG "
            "reconciliation is requested instead)")
        self._m_link_down_letters = m.counter(
            "router.link_down_dead_letters_total",
            "overlay forwards dead-lettered because the link was "
            "down, by link")
        self._m_overlay_publications = m.counter(
            "router.overlay_publications_total",
            "publications received over broker links and matched")
        self._m_attempts = m.counter(
            "router.delivery_attempts_total",
            "delivery attempts, including retries")
        self._m_deliveries = m.counter(
            "router.deliveries_total", "payloads delivered to clients")
        self._m_retries = m.counter(
            "router.delivery_retries_total",
            "deliveries re-queued with backoff")
        self._m_exhausted = m.counter(
            "router.deliveries_dead_lettered_total",
            "deliveries abandoned after the retry schedule")
        self._m_fanout = m.histogram(
            "router.match_fanout", "subscribers matched per publication")
        self._m_requeued = m.counter(
            "router.dead_letters_requeued_total",
            "dead letters re-injected by an operator or supervisor")
        #: Callback gauges close over this router (and its platform's
        #: EPC); :meth:`close` freezes them so the registry — often the
        #: bus's — neither pins a closed router nor forms a cycle.
        self._gauges = [
            m.gauge("router.pending_retries",
                    "deliveries currently awaiting a retry tick",
                    fn=lambda: len(self._retries)),
            m.gauge("router.dead_letters_held",
                    "entries currently held in the dead-letter queue",
                    fn=lambda: len(self.dead_letters)),
            m.gauge("router.tick", "router pump tick",
                    fn=lambda: self.tick),
            *platform.memory.epc.attach_metrics(m)]

    # -- enclave lifecycle ---------------------------------------------------------

    def reload_enclave(self) -> None:
        """Load a fresh enclave instance after the previous one died.

        The replacement runs the same measured code on the same
        platform (so its monotonic counters are reachable) but has a
        brand-new ephemeral key pair and an empty index: the caller —
        normally :class:`repro.recovery.RouterSupervisor` — must
        re-attest, re-provision SK and restore state before traffic
        resumes.
        """
        self.enclave = load_enclave(self.platform, ScbrEnclaveLibrary,
                                    self._signing_key,
                                    rsa_bits=self._rsa_bits,
                                    matcher_backend=self._matcher_backend)

    def close(self) -> None:
        """Tear the router down; safe to call twice or on a corpse.

        Destroys the hosted enclave (EREMOVE of its pages) unless a
        crash already did, and marks the router closed. Overlay
        topology teardown closes every node unconditionally, so this
        must never raise for lifecycle reasons — a second close, or a
        close after an injected enclave death, is a no-op.
        """
        if self.closed:
            return
        self.closed = True
        for gauge in self._gauges:
            gauge.freeze()
        enclave = self.enclave
        if enclave is not None \
                and not getattr(enclave, "_destroyed", True):
            try:
                enclave.destroy()
            except EnclaveError:
                pass  # died between the liveness check and the destroy

    def attach_overlay(self, links) -> None:
        """Install the overlay forwarding state for this router."""
        self.overlay = links
        # Forwards that fail because a link is down are quarantined
        # here (store-and-forward): they are requeued on heal, not lost.
        links.on_send_failure = self._dead_letter_link_frame

    def _dead_letter_link_frame(self, neighbour: str, frame: bytes,
                                error: Exception) -> None:
        """Quarantine one OPUB owed to a currently unreachable link.

        The ``link:<neighbour>`` client id records the destination, so
        :meth:`requeue_dead_letters` can re-send the exact frame once
        the link heals; the receiver's (origin, sequence) dedup keeps
        the publication exactly-once even when a redundant path already
        delivered it meanwhile.
        """
        self._m_link_down_letters.inc(link=neighbour)
        self.dead_letters.add(
            frame, sender=self.name, reason=REASON_LINK_DOWN,
            detail=f"to {neighbour}: {error}", tick=self.tick,
            client_id=LINK_PREFIX + neighbour)

    def take_in_flight(self) -> Optional[Tuple[str, str, bytes]]:
        """Pop the frame that was mid-processing when the enclave died.

        Returns ``(sender, kind, frame)`` or None. A frame is in flight
        from dispatch until it either completes or is quarantined, so
        after a crash this is exactly the one message whose effects are
        uncertain.
        """
        in_flight = self._in_flight
        self._in_flight = None
        return in_flight

    # -- enclave pass-throughs used by the provider's provisioning -----------------

    @property
    def mr_enclave(self) -> bytes:
        return self.enclave.mr_enclave

    def attestation_report(self, target_mr_enclave: bytes):
        return self.enclave.ecall("attestation_report",
                                  target_mr_enclave)

    def provision(self, secrets_blob: bytes) -> bool:
        return self.enclave.ecall("provision", secrets_blob)

    # -- message handling ---------------------------------------------------------------

    def handle_register(self, frame: bytes) -> str:
        """REG frame -> ecall; returns the registered client id."""
        envelope, signature = parse_register(frame)
        client_id = self.enclave.ecall("register_subscription",
                                       envelope, signature)
        self.registrations += 1
        self._m_registrations.inc()
        return client_id

    def handle_unregister(self, frame: bytes) -> bool:
        envelope, signature = parse_unregister(frame)
        removed = self.enclave.ecall("unregister_subscription",
                                     envelope, signature)
        self._m_unregistrations.inc()
        return removed

    def _split_matched(self,
                       matched: List[str]) -> Tuple[List[str],
                                                    List[str]]:
        """Partition matched ids into (local clients, overlay links).

        Without an attached overlay every id is a client — the reserved
        ``link:`` prefix can only enter the enclave through
        ``install_link_advert``, which only overlay nodes issue — so a
        plain router's behaviour is unchanged byte-for-byte.
        """
        if self.overlay is None:
            return list(matched), []
        local_clients: List[str] = []
        links: List[str] = []
        for client_id in matched:
            if client_id.startswith(LINK_PREFIX):
                links.append(client_id)
            else:
                local_clients.append(client_id)
        return local_clients, links

    def _fan_out(self, matched: List[str], payload_envelope: bytes,
                 publish_frame: bytes,
                 incoming_link: Optional[str] = None,
                 **opub_identity) -> None:
        """Deliver one matched publication and forward it onward.

        Local clients get the payload envelope byte-for-byte; with an
        overlay attached, matched ``link:`` sentinels fan the PUB
        frame out to the neighbour brokers whose advertised covering
        set it satisfies. ``opub_identity`` is the parsed
        ``origin``/``sequence``/``ttl`` of a transit publication.
        """
        self._m_fanout.observe(len(matched))
        local_clients, links = self._split_matched(matched)
        self._deliver(local_clients, build_deliver(payload_envelope),
                      attempts_made=0)
        if self.overlay is not None:
            self.overlay.forward_publication(
                publish_frame, links, incoming_link=incoming_link,
                **opub_identity)

    def handle_publish(self, frame: bytes) -> List[str]:
        """PUB frame -> match ecall -> forward payload to subscribers.

        The payload envelope is forwarded byte-for-byte: the router
        cannot read it (group key) nor the header (SK).
        """
        header_envelope, payload_envelope = parse_publish(frame)
        matched = self.enclave.ecall("match_publication",
                                     header_envelope)
        self.publications += 1
        self._m_publications.inc()
        self._fan_out(matched, payload_envelope, frame)
        return matched

    def handle_publish_batch(self, frames: List[bytes],
                             senders: Optional[List[str]] = None,
                             progress: Optional[List[int]] = None
                             ) -> List[Optional[List[str]]]:
        """Many PUB frames -> one ``match_publications`` ecall.

        The batched counterpart of :meth:`handle_publish`, fed by the
        ingress tier's coalescer: every parseable PUB header rides a
        single enclave transition (one batched CMAC verify + CTR pass
        via ``SecureChannel.open_many``), then deliveries fan out per
        frame exactly as the per-frame path would — same counters,
        same retry schedule, same overlay forwarding — so a batch of
        *n* is observationally identical to *n* sequential
        :meth:`handle_publish` calls.

        Fault containment: a frame that cannot take the batch path
        (unparseable, or not a PUB at all) detours through the
        ordinary per-frame boundary — quarantined or handled there —
        ahead of the batched survivors. If the batched ecall itself
        rejects the set (one poison envelope fails ``open_many``
        before anything is returned), the whole batch falls back to
        per-frame processing so only the poison frame is quarantined.
        A platform-scoped failure (lost enclave) propagates, as ever.

        ``progress``, when given, accumulates the index of every frame
        whose processing *completed* (delivered or quarantined), so a
        caller interrupted by an escaping platform fault knows exactly
        which frames to re-dispatch after recovery — the ingress tier
        uses this for its exactly-once put-back. Returns the matched
        id list per frame, ``None`` for frames that took a per-frame
        detour.
        """
        if senders is None:
            senders = ["ingress"] * len(frames)
        if len(senders) != len(frames):
            raise ValueError("senders must parallel frames")
        if progress is None:
            progress = []
        results: List[Optional[List[str]]] = [None] * len(frames)
        headers: List[bytes] = []
        payloads: List[bytes] = []
        slots: List[int] = []
        for index, frame in enumerate(frames):
            try:
                kind = message_type(frame)
                if kind != MSG_PUBLISH:
                    raise RoutingError(
                        f"publish batch got {kind} frame")
                header_envelope, payload_envelope = parse_publish(frame)
            except _FRAME_FAULTS:
                self._process_frame(senders[index], frame)
                progress.append(index)
                continue
            headers.append(header_envelope)
            payloads.append(payload_envelope)
            slots.append(index)
        if not slots:
            return results
        try:
            matched_lists = self.enclave.ecall("match_publications",
                                               headers)
        except _FRAME_FAULTS:
            # The batched ecall verifies every envelope before
            # returning anything, so one poison header poisons the
            # call with zero effects applied; isolate it per frame.
            for index in slots:
                self._process_frame(senders[index], frames[index])
                progress.append(index)
            return results
        pub_bound = self._m_frames_by_kind[MSG_PUBLISH]
        for position, index in enumerate(slots):
            matched = matched_lists[position]
            pub_bound.inc()
            self.publications += 1
            self._m_publications.inc()
            self._fan_out(matched, payloads[position], frames[index])
            results[index] = matched
            progress.append(index)
        return results

    def handle_summary(self, frame: bytes) -> int:
        """SUM frame -> install the neighbour's advert in the enclave.

        Journalled like a registration (the WAL write happens in
        :meth:`_process_frame` before this runs), because remote
        interest is part of the routing state a recovered enclave must
        rebuild. Returns the number of advert entries installed.
        """
        origin, _digest, blob = parse_summary(frame)
        if self.overlay is not None \
                and not self.overlay.is_neighbour(origin):
            raise RoutingError(
                f"summary advert from non-neighbour {origin!r}")
        installed = self.enclave.ecall("install_link_advert", origin,
                                       blob)
        self._m_summaries.inc()
        if self.overlay is not None:
            # Our own adverts to *other* links may now cover more (or
            # less); the owning node re-exports on its next pump.
            self.overlay.note_interest_change()
        return installed

    def handle_summary_delta(self, frame: bytes) -> bool:
        """SUMD frame -> apply the neighbour's delta advert.

        Journalled like a full ``SUM`` (remote interest is routing
        state a recovered enclave must rebuild); the in-enclave base
        digest guard makes replaying the record idempotent. A base
        mismatch — this broker missed an advert the sender believes it
        has — is answered by queueing a ``DIG`` probe so the peers
        reconcile, and is *not* an error: the frame did its job of
        exposing the divergence. Returns True when applied.
        """
        origin, _base, _new, blob = parse_summary_delta(frame)
        if self.overlay is None:
            raise RoutingError(
                "delta advert at a router with no overlay attached")
        if not self.overlay.is_neighbour(origin):
            raise RoutingError(
                f"delta advert from non-neighbour {origin!r}")
        applied, installed_digest = self.enclave.ecall(
            "apply_link_advert_delta", origin,
            LINK_PREFIX + self.name, blob)
        if applied:
            self._m_summary_deltas.inc()
            self.overlay.note_interest_change()
        else:
            self._m_delta_mismatches.inc()
            self.overlay.note_reconcile_needed(origin,
                                               installed_digest)
        return applied

    def handle_overlay_publish(self, sender: str,
                               frame: bytes) -> List[str]:
        """OPUB frame -> dedup -> match -> deliver locally + forward.

        The ``(origin, sequence)`` pair is marked seen only *after*
        processing completes, so a crash mid-match resumes by
        reprocessing rather than silently dropping the publication;
        duplicate-marking an unprocessed frame would turn the resume
        path into a message loss.
        """
        if self.overlay is None:
            raise RoutingError(
                "overlay publication at a router with no overlay "
                "attached")
        overlay = self.overlay
        origin, sequence, ttl, publish_frame = \
            parse_overlay_publish(frame)
        if overlay.already_seen(origin, sequence):
            overlay.note_duplicate()
            return []
        header_envelope, payload_envelope = \
            parse_publish(publish_frame)
        matched = self.enclave.ecall("match_publication",
                                     header_envelope)
        self._m_overlay_publications.inc()
        self._fan_out(matched, payload_envelope, publish_frame,
                      incoming_link=sender, origin=origin,
                      sequence=sequence, ttl=ttl)
        overlay.mark_seen(origin, sequence)
        return matched

    # -- delivery with retry/backoff ---------------------------------------------------

    def _deliver(self, recipients: List[str], frame: bytes,
                 attempts_made: int) -> None:
        """One multicast of ``frame``; each recipient it fails for is
        scheduled for a retry or given up on, in recipient order."""
        if not recipients:
            return
        failed = self.endpoint.send_many(recipients, [frame])
        self._m_attempts.inc(len(recipients))
        delivered = len(recipients) - len(failed)
        if delivered:
            self.deliveries += delivered
            self._m_deliveries.inc(delivered)
        for client_id, error in failed:
            self._delivery_failed(client_id, frame, attempts_made + 1,
                                  error)

    def _delivery_failed(self, client_id: str, frame: bytes,
                         attempts_made: int,
                         error: NetworkError) -> None:
        policy = self.retry_policy
        if attempts_made >= policy.max_attempts:
            self.dropped += 1
            self._m_exhausted.inc()
            self.dead_letters.add(
                frame, sender=self.name, reason=REASON_EXHAUSTED,
                detail=f"to {client_id} after {attempts_made} "
                       f"attempts: {error}",
                tick=self.tick, client_id=client_id)
            return
        delay = policy.delay_for(attempts_made)
        if policy.jitter_ticks:
            delay += self._retry_rng.randrange(
                policy.jitter_ticks + 1)
        self._m_retries.inc()
        self._retries.append(_PendingDelivery(
            client_id=client_id, frame=frame,
            attempts=attempts_made, due_tick=self.tick + delay))

    def _run_due_retries(self) -> int:
        """Re-attempt every delivery whose backoff has elapsed."""
        if not self._retries:
            return 0
        due = [p for p in self._retries if p.due_tick <= self.tick]
        if not due:
            return 0
        self._retries = [p for p in self._retries
                         if p.due_tick > self.tick]
        for pending in due:
            self._deliver([pending.client_id], pending.frame,
                          attempts_made=pending.attempts)
        return len(due)

    # -- the drain loop ------------------------------------------------------------------

    def _process_frame(self, sender: str, frame: bytes) -> None:
        """Dispatch one frame under the per-frame error boundary."""
        try:
            kind = message_type(frame)
        except _FRAME_FAULTS as exc:
            self._m_frames_unparseable.inc()
            self._quarantine(frame, sender, REASON_POISON, exc)
            return
        bound = self._m_frames_by_kind.get(kind)
        if bound is not None:
            bound.inc()
        else:
            self._m_frames.inc(kind=kind)
        # Write-ahead: a registration is journalled before the ecall
        # that applies it, so an enclave death at *any* later point
        # leaves the frame recoverable from checkpoint + WAL replay.
        if self.wal is not None and kind in (MSG_REGISTER,
                                             MSG_UNREGISTER,
                                             MSG_SUMMARY,
                                             MSG_SUMMARY_DELTA):
            self.wal.append(kind, frame)
        self._in_flight = (sender, kind, frame)
        try:
            if kind == MSG_REGISTER:
                self.handle_register(frame)
            elif kind == MSG_UNREGISTER:
                self.handle_unregister(frame)
            elif kind == MSG_PUBLISH:
                self.handle_publish(frame)
            elif kind == MSG_SUMMARY:
                self.handle_summary(frame)
            elif kind == MSG_SUMMARY_DELTA:
                self.handle_summary_delta(frame)
            elif kind == MSG_OVERLAY_PUBLISH:
                self.handle_overlay_publish(sender, frame)
            else:
                self._quarantine(
                    frame, sender, REASON_UNEXPECTED,
                    RoutingError(f"router got unexpected {kind} frame"))
        except _FRAME_FAULTS as exc:
            self._quarantine(frame, sender, REASON_POISON, exc)
        # Completed or quarantined either way; only an escaping
        # platform-scoped error (a lost enclave) leaves this set.
        self._in_flight = None

    def _quarantine(self, frame: bytes, sender: str, reason: str,
                    error: Exception) -> None:
        self._m_poisoned.inc(reason=reason)
        self.dead_letters.add(frame, sender=sender, reason=reason,
                              detail=f"{type(error).__name__}: {error}",
                              tick=self.tick)

    def ingest_frame(self, sender: str, frame: bytes) -> None:
        """Process one host-local frame under the per-frame boundary.

        The public entry the ingress tier uses for traffic that never
        touched the bus: same dispatch, counters and quarantine as a
        frame drained by :meth:`pump`, minus the inbox round-trip.
        Platform-scoped failures (a lost enclave) propagate, exactly
        as they do from the drain loop.
        """
        self._process_frame(sender, frame)

    def pump(self) -> int:
        """Advance one tick and drain the inbox; returns frames seen.

        Each frame is processed under an error boundary: a poison frame
        is dead-lettered with its cause and the drain continues, so one
        malformed message can no longer discard the rest of the queue.
        Due delivery retries run before new traffic, preserving
        best-effort ordering for recovered subscribers.
        """
        self.tick += 1
        self._run_due_retries()
        processed = 0
        while True:
            message = self.endpoint.recv()
            if message is None:
                return processed
            sender, frames = message
            for index, frame in enumerate(frames):
                try:
                    self._process_frame(sender, frame)
                except BaseException:
                    # A platform-scoped failure (lost enclave) escaped
                    # the frame boundary: give the unprocessed tail of
                    # this message back to the inbox so only the
                    # in-flight frame is in doubt.
                    if index + 1 < len(frames):
                        self.endpoint.requeue(sender, frames[index + 1:])
                    raise
                processed += 1

    def requeue_dead_letters(self, reason: Optional[str] = None,
                             limit: Optional[int] = None) -> int:
        """Re-inject quarantined messages; returns how many were tried.

        Undeliverable payloads (which recorded their destination) get a
        fresh delivery attempt with a full retry schedule; overlay
        forwards held back by a down link (``link:<broker>`` client
        ids) are re-sent on the link directly — re-dispatching them
        through the inbox would hit this node's own dedup window and
        silently drop them; inbound frames go back through the normal
        dispatch boundary. Every path may legitimately dead-letter the
        message *again* — the point is that after the failure cause is
        fixed (the enclave recovered, the subscriber reconnected, the
        link healed) nothing is stranded in quarantine.
        """
        def _reinject(letter) -> None:
            if letter.client_id is not None \
                    and letter.client_id.startswith(LINK_PREFIX) \
                    and self.overlay is not None:
                neighbour = letter.client_id[len(LINK_PREFIX):]
                try:
                    self.overlay.send_to(neighbour, letter.frame)
                except (NetworkError, RoutingError) as exc:
                    # Still down (or the neighbour left): back into
                    # quarantine, to be retried on the next heal.
                    self._dead_letter_link_frame(neighbour,
                                                 letter.frame, exc)
                else:
                    self.overlay.note_forward_requeued(neighbour)
            elif letter.client_id is not None:
                self._deliver([letter.client_id], letter.frame,
                              attempts_made=0)
            else:
                self._process_frame(letter.sender, letter.frame)

        requeued = self.dead_letters.requeue(_reinject, reason=reason,
                                             limit=limit)
        if requeued:
            self._m_requeued.inc(requeued)
        return requeued

    @property
    def pending_retries(self) -> int:
        """Deliveries currently waiting for a retry tick."""
        return len(self._retries)

    def drain_retries(self, max_ticks: int = 64) -> int:
        """Pump until no retries are pending (bounded); returns ticks.

        Convenience for tests and shutdown paths that need the retry
        schedule to reach a terminal state (delivered or dead-lettered).
        """
        ticks = 0
        while self._retries and ticks < max_ticks:
            self.pump()
            ticks += 1
        return ticks

    # -- persistence --------------------------------------------------------------------

    def seal(self, policy: str = "mrenclave",
             app_data: bytes = b"") -> Tuple[bytes, bytes]:
        """Seal engine state; returns (sealed_bytes, counter_id).

        ``policy="mrsigner"`` produces a blob a newer enclave version
        from the same vendor can restore (upgrade path). ``app_data``
        rides inside the seal (the recovery subsystem stores the WAL
        position there).
        """
        return self.enclave.ecall("seal_state", policy, app_data)

    def restore(self, sealed_bytes: bytes, counter_id: bytes) -> int:
        """Restore engine state into this router's enclave."""
        return self.enclave.ecall("restore_state", sealed_bytes,
                                  counter_id)

    def restored_app_data(self) -> bytes:
        """App data sealed into the last restored snapshot."""
        return self.enclave.ecall("restored_app_data")

    # -- observability -------------------------------------------------------------------

    def engine_stats(self) -> Tuple[int, int, int]:
        """(subscriptions, index nodes, modelled index bytes)."""
        return self.enclave.ecall("engine_stats")

    def stats(self) -> Dict[str, object]:
        """Structured snapshot of the router and its enclave.

        Returns a dict with the engine's index shape, the fabric's
        health (tick, pending retries, dead letters by reason) and a
        ``metrics`` sub-dict merging this router's registry with the
        enclave's own counters (``engine.*``).
        """
        subscriptions, nodes, index_bytes = self.engine_stats()
        metrics = self.metrics.snapshot()
        metrics.update(self.enclave.ecall("engine_metrics"))
        return {
            "subscriptions": subscriptions,
            "index_nodes": nodes,
            "index_bytes": index_bytes,
            "tick": self.tick,
            "pending_retries": len(self._retries),
            "dead_letters": len(self.dead_letters),
            "dead_letters_by_reason": dict(
                self.dead_letters.counts_by_reason),
            "metrics": metrics,
        }
