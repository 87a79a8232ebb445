"""The SCBR routing engine: the trusted code loaded into the enclave.

This is the paper's core artefact — "a CBR engine in a secure enclave".
The library holds the containment index in protected memory, receives
SK through the attestation-based provisioning protocol, and exposes the
registration/matching entry points the untrusted router calls:

* :meth:`attestation_report` — step 0: bind an ephemeral key pair
  generated *inside* the enclave to an attestation report;
* :meth:`provision` — receive SK and the provider's public key over
  the attested channel (only this enclave can decrypt them);
* :meth:`register_subscription` — Fig. 4 step 3: verify the provider's
  signature, decrypt {s}_SK, insert into the poset;
* :meth:`match_publication` — step 5: decrypt the header of {m}_SK
  inside the enclave, match, return the subscriber list (the payload
  never enters the enclave);
* :meth:`seal_state` / :meth:`restore_state` — persist the engine
  across restarts without a fresh remote attestation, with monotonic-
  counter rollback protection (paper §2, last paragraph).

The index itself is a :class:`repro.matching.MatchingEngine` built on
the enclave's arena — the same engine, with the same match loop and
cycle charges, that the cluster slices and the Fig. 5-7 sweeps build
on theirs, which is what makes the paper's in/out comparison valid.
This library adds what only the enclave has: the SK channel and its
AES charges, the ecall surface, and the sorted client-id wire form.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.core.messages import (SecureChannel, decode_header,
                                 decode_headers, decode_public_key,
                                 decode_subscription, encode_public_key,
                                 encode_subscription, hybrid_decrypt)
from repro.crypto.encoding import pack_fields, unpack_fields
from repro.crypto.rsa import RsaPublicKey, _generate_keypair_unchecked
from repro.errors import EnclaveError, RoutingError
from repro.matching.matcher import MatchingEngine
from repro.matching.summaries import covering_antichain
from repro.obs.metrics import MetricsRegistry
from repro.sgx.platform import KeyPolicy
from repro.sgx.sdk import EnclaveLibrary, ecall
from repro.sgx.sealing import SealedBlob, seal, unseal

__all__ = ["ScbrEnclaveLibrary", "PROVISION_AAD", "LINK_PREFIX",
           "ADVERT_AAD_PREFIX", "ADVERT_DELTA_AAD_PREFIX",
           "advert_digest"]

PROVISION_AAD = b"scbr-provision-v1"

#: Reserved subscriber-id prefix for remote interest installed from a
#: neighbour broker's summary advert. ``link:<broker>`` entries live in
#: the containment forest beside real client ids, so one match ecall
#: yields both local deliveries and outgoing overlay links; the
#: untrusted router splits on this prefix. Client ids starting with it
#: are rejected at registration.
LINK_PREFIX = "link:"

#: AAD context binding an advert blob to the broker that exported it.
ADVERT_AAD_PREFIX = b"scbr-advert:"

#: Distinct AAD context for *delta* advert blobs, so a delta can never
#: be replayed (or confused) as a full advert and vice versa.
ADVERT_DELTA_AAD_PREFIX = b"scbr-advert-delta:"

#: Exported covering sets remembered per link for delta computation;
#: bounded, oldest-first eviction — a baseline that ages out simply
#: forces one full re-advert.
ADVERT_HISTORY_DEPTH = 8


def advert_digest(exclude_link: str, entries: List[bytes]) -> bytes:
    """Deterministic fingerprint of one neighbour-facing advert.

    Hashes the *sorted* encoded covering set together with the
    split-horizon exclusion it was computed against, so two engines
    holding the same logical interest produce byte-identical digests
    regardless of registration order. Exposed at module level (not an
    ecall) because the digest is not secret — the untrusted host uses
    it to suppress re-advertisements, and knows the empty-advert value
    without an enclave round trip.
    """
    digest = hashlib.sha256()
    digest.update(b"scbr-advert-digest|")
    digest.update(exclude_link.encode())
    digest.update(b"|")
    for entry in sorted(entries):
        digest.update(entry)
    return digest.digest()


class ScbrEnclaveLibrary(EnclaveLibrary):
    """Trusted routing engine (the enclave 'shared library')."""

    def __init__(self, runtime, rsa_bits: int = 768,
                 memo_capacity: int = 0,
                 matcher_backend: str = "forest") -> None:
        super().__init__(runtime)
        # The engine keeps its own registry (trusted code must not
        # hold references to untrusted mutable state); the untrusted
        # host reads it through the engine_metrics ecall.
        self.metrics = MetricsRegistry()
        # Covering antichains, sealing and digests all read the
        # engine's forest, whichever backend evaluates matches, so
        # adverts, seal blobs and registration digests are backend-
        # independent by construction.
        self._engine = MatchingEngine(
            arena=runtime.arena, memo_capacity=memo_capacity,
            backend=matcher_backend, metrics=self.metrics)
        # Ephemeral key pair generated inside the enclave; its hash is
        # bound into the attestation report so the provider knows the
        # matching private key lives behind the measurement it checked.
        self._ephemeral = _generate_keypair_unchecked(rsa_bits, 65537)
        self._sk_channel: Optional[SecureChannel] = None
        self._provider_pk: Optional[RsaPublicKey] = None
        self._sk: Optional[bytes] = None
        # This enclave's header-name memo (core.messages): no other
        # enclave, nor the host, reads or fills it.
        self._names: Optional[Dict[bytes, str]] = {}
        # Created lazily at first seal; a restarted instance adopts the
        # counter id stored (in plaintext) beside the sealed blob, as
        # real SGX applications do.
        self._counter_id: Optional[bytes] = None
        self._restored_app_data = b""
        # Per-link memory of recently exported covering sets, keyed by
        # their digest: the baselines delta adverts diff against. Not
        # sealed — a recovered enclave starts with no baselines and
        # falls back to full adverts, which is always correct.
        self._advert_history: Dict[
            str, "OrderedDict[bytes, List[bytes]]"] = {}
        m = self.metrics
        self._m_registers = m.counter(
            "engine.register_total", "subscriptions registered")
        self._m_unregisters = m.counter(
            "engine.unregister_total", "withdrawals processed")
        self._m_advert_exports = m.counter(
            "engine.advert_exports_total",
            "neighbour-facing summary adverts computed")
        self._m_advert_installs = m.counter(
            "engine.advert_installs_total",
            "neighbour adverts installed (remote interest replaced)")
        self._m_delta_exports = m.counter(
            "engine.advert_delta_exports_total",
            "delta adverts computed against a remembered baseline")
        self._m_delta_installs = m.counter(
            "engine.advert_delta_installs_total",
            "delta adverts applied to remote interest")
        self._m_delta_rejects = m.counter(
            "engine.advert_delta_rejects_total",
            "delta adverts rejected because the installed set no "
            "longer matched the stated base digest")
        self._m_link_subscriptions = m.gauge(
            "engine.link_subscriptions",
            "remote-interest entries installed from neighbour "
            "adverts", fn=self._count_link_subscriptions)

    # -- internal helpers -------------------------------------------------------

    def _charge_aes(self, n_bytes: int) -> None:
        """Charge AES-CTR work over ``n_bytes`` (SDK crypto cost)."""
        costs = self.runtime.costs
        blocks = (n_bytes + 15) // 16
        self.runtime.memory.charge(costs.aes_setup_cycles
                                   + blocks * costs.aes_block_cycles)

    def _require_provisioned(self) -> SecureChannel:
        if self._sk_channel is None:
            raise EnclaveError("engine not provisioned with SK yet")
        return self._sk_channel

    def _registration_entries(self) -> List[bytes]:
        """One packed (subscription blob, client) pair per registration."""
        entries: List[bytes] = []
        for node in self._engine.forest.iter_nodes():
            blob = encode_subscription(node.subscription)
            for client in sorted(str(c) for c in node.subscribers):
                entries.append(pack_fields([blob, client.encode()]))
        return entries

    def _count_link_subscriptions(self) -> int:
        return sum(
            1 for node in self._engine.forest.iter_nodes()
            for subscriber in node.subscribers
            if str(subscriber).startswith(LINK_PREFIX))

    # -- provisioning -------------------------------------------------------------

    @ecall
    def attestation_report(self, target_mr_enclave: bytes):
        """Report binding the in-enclave ephemeral public key.

        Returns ``(report, public_key_blob)``; the report's
        ``report_data`` is the SHA-256 of the key blob, so a verifier
        of the quote also authenticates the key.
        """
        blob = encode_public_key(self._ephemeral.public_key)
        report = self.runtime.ereport(target_mr_enclave,
                                      hashlib.sha256(blob).digest())
        return report, blob

    @ecall
    def provision(self, secrets_blob: bytes) -> bool:
        """Install SK and the provider identity (attested channel).

        ``secrets_blob`` is hybrid-encrypted under the ephemeral key
        whose hash was attested; only this enclave instance can open it.
        """
        plaintext, aad = hybrid_decrypt(self._ephemeral, secrets_blob)
        if aad != PROVISION_AAD:
            raise RoutingError("unexpected provisioning context")
        fields = unpack_fields(plaintext)
        if len(fields) != 2:
            raise RoutingError("malformed provisioning payload")
        sk, provider_pk_blob = fields
        self._sk = sk
        self._sk_channel = SecureChannel(sk)
        self._provider_pk = decode_public_key(provider_pk_blob)
        return True

    # -- registration (Fig. 4, step 3) -----------------------------------------------

    @ecall
    def register_subscription(self, envelope: bytes,
                              signature: bytes) -> str:
        """Validate, decrypt and index one {s}_SK subscription.

        The envelope's authenticated associated data carries the client
        identity in the clear (the paper: "subscriptions also embed
        information about the clients that is visible to the code
        running outside the enclave"), so the untrusted router can
        route deliveries; the constraints themselves stay sealed.
        """
        channel = self._require_provisioned()
        if self._provider_pk is None:
            raise EnclaveError("provider key missing")
        self._provider_pk.verify(envelope, signature)
        plaintext, aad = channel.open(envelope)
        self._charge_aes(len(envelope))
        subscription = decode_subscription(plaintext)
        client_id = aad.decode("utf-8")
        if not client_id:
            raise RoutingError("subscription without client identity")
        if client_id.startswith(LINK_PREFIX):
            raise RoutingError(
                f"client id {client_id!r} uses the reserved overlay "
                f"link prefix")
        self._engine.register(subscription, client_id)
        self._m_registers.inc()
        return client_id

    @ecall
    def unregister_subscription(self, envelope: bytes,
                                signature: bytes) -> bool:
        """Withdraw a previously registered subscription."""
        channel = self._require_provisioned()
        self._provider_pk.verify(envelope, signature)
        plaintext, aad = channel.open(envelope)
        subscription = decode_subscription(plaintext)
        self._m_unregisters.inc()
        return self._engine.unregister(subscription,
                                       aad.decode("utf-8"))

    # -- matching (Fig. 4, step 5) ------------------------------------------------------

    def _match_decoded(self, events) -> List[List[str]]:
        """Match decrypted headers (events, or a decoded batch's
        columns); one sorted client list per header.

        The sort is the ecall's wire form, applied to memo hits and
        misses alike, so a hit is byte-identical to a miss outside.
        Every subscriber is a ``str``: a client id or a link sentinel.
        """
        return [sorted(result.subscribers)
                for result in self._engine.match_batch(events)]

    @ecall
    def match_publication(self, header_envelope: bytes) -> List[str]:
        """Decrypt a publication header and match it in the enclave."""
        channel = self._require_provisioned()
        plaintext, _aad = channel.open(header_envelope)
        self._charge_aes(len(header_envelope))
        event = decode_header(plaintext, names=self._names)
        return self._match_decoded([event])[0]

    @ecall
    def match_publications(self, header_envelopes: List[bytes]
                           ) -> List[List[str]]:
        """Batched matching: one enclave transition for many headers.

        Implements the paper's §6 proposal of "using message batching"
        to reduce the frequency of enclave enters/exits; the
        ``ext_batching`` benchmark quantifies the amortisation. Returns
        one subscriber list per header, in order.

        The batch is processed in two phases — decrypt/parse *every*
        envelope first, then match the decoded headers back to back.
        The parse is one pass over the plaintexts that writes the
        batch straight into one value column per attribute
        (:func:`~repro.core.messages.decode_headers`), the form the
        columnar plane evaluates; :class:`Event` objects are built
        from the columns only where the forest walk or the match memo
        takes them. A header the parse rejects fails the whole batch
        with what :func:`~repro.core.messages.decode_header` raises for
        it, before anything is matched.
        """
        channel = self._require_provisioned()
        # open_many checks every envelope's CMAC, in batch order, and
        # then decrypts them all through one CTR pass.
        opened = channel.open_many(header_envelopes)
        plaintexts = [plaintext for plaintext, _aad in opened]
        try:
            batch = decode_headers(plaintexts, self._names)
        except Exception:
            # A rejected batch is charged as an envelope-by-envelope
            # decode charges it: the AES of each envelope up to and
            # including the first bad header, which raises again here.
            for envelope, plaintext in zip(header_envelopes,
                                           plaintexts):
                self._charge_aes(len(envelope))
                decode_header(plaintext, names=self._names)
            raise
        for envelope in header_envelopes:
            self._charge_aes(len(envelope))
        return self._match_decoded(batch)

    # -- persistence -----------------------------------------------------------------

    @ecall
    def seal_state(self,
                   policy: str = KeyPolicy.MRENCLAVE,
                   app_data: bytes = b"") -> Tuple[bytes, bytes]:
        """Seal SK + the registered subscriptions for restart.

        Returns ``(sealed_bytes, counter_id)``; the counter id is not
        secret and is stored beside the blob so a restarted enclave can
        check freshness.

        ``policy`` selects the seal-key binding: the default
        ``MRENCLAVE`` restricts restore to byte-identical code, while
        ``MRSIGNER`` lets a *newer version from the same vendor* pick
        the state up — the standard SGX enclave-upgrade path.

        ``app_data`` is an opaque blob sealed (and therefore
        authenticated and rollback-protected) together with the state.
        The recovery subsystem stores the write-ahead-log position the
        snapshot covers there, so an untrusted store cannot shift the
        replay window of a recovering enclave.
        """
        self._require_provisioned()
        if self._counter_id is None:
            self._counter_id = self.runtime.create_monotonic_counter()
        payload = pack_fields([
            self._sk,
            encode_public_key(self._provider_pk),
            pack_fields(self._registration_entries()),
            app_data,
        ])
        sealed = seal(self.runtime, payload, policy=policy,
                      counter_id=self._counter_id)
        return sealed.to_bytes(), self._counter_id

    @ecall
    def restore_state(self, sealed_bytes: bytes,
                      counter_id: bytes) -> int:
        """Rebuild the engine from sealed state; returns #subscriptions.

        Raises :class:`repro.errors.RollbackError` when handed a stale
        blob (monotonic counter mismatch). The ``app_data`` sealed with
        the snapshot is kept and readable through
        :meth:`restored_app_data` once this call has succeeded.
        """
        blob = SealedBlob.from_bytes(sealed_bytes)
        payload = unseal(self.runtime, blob, counter_id=counter_id)
        self._counter_id = counter_id
        fields = unpack_fields(payload)
        if len(fields) != 4:
            raise RoutingError("malformed sealed state")
        sk, provider_pk_blob, entries_blob, app_data = fields
        self._sk = sk
        self._sk_channel = SecureChannel(sk)
        self._provider_pk = decode_public_key(provider_pk_blob)
        # A restored engine starts cold: whatever this instance indexed
        # or memoised before the restore is dropped.
        self._engine.reset(
            (decode_subscription(sub_blob), client.decode("utf-8"))
            for sub_blob, client in map(unpack_fields,
                                        unpack_fields(entries_blob)))
        self._restored_app_data = app_data
        return self._engine.n_subscriptions

    @ecall
    def restored_app_data(self) -> bytes:
        """App data carried by the last successfully restored snapshot.

        Empty until a :meth:`restore_state` succeeds; authenticated by
        the seal, so a recovering supervisor can trust what it reads
        here (unlike anything the untrusted checkpoint store says).
        """
        return self._restored_app_data

    # -- introspection ------------------------------------------------------------------

    @ecall
    def engine_stats(self) -> Tuple[int, int, int]:
        """(subscriptions, index nodes, modelled index bytes)."""
        engine = self._engine
        return (engine.n_subscriptions, engine.n_nodes,
                engine.index_bytes)

    def on_destroy(self) -> None:
        """EREMOVE took the heap: drop the index, the name memo and
        every callback that would keep this instance reachable from
        its registry."""
        self._m_link_subscriptions.freeze()
        self._engine.close()
        self._names = None

    @ecall
    def engine_metrics(self) -> Dict[str, float]:
        """Flat snapshot of the in-enclave metrics registry.

        Counts only — no plaintext ever crosses this boundary, so the
        untrusted host can scrape memo/matching telemetry without
        widening the attack surface.
        """
        return self.metrics.snapshot()

    @ecall
    def registration_digest(self) -> bytes:
        """Canonical SHA-256 over every (subscription, client) pair.

        Order-independent with respect to insertion history: the pairs
        are serialised sorted, so two engines that went through
        different crash/replay schedules but hold the same logical
        state produce byte-identical digests — the check the
        determinism tests pin recovery on.
        """
        digest = hashlib.sha256()
        for entry in sorted(self._registration_entries()):
            digest.update(entry)
        return digest.digest()

    @ecall
    def verify_invariants(self) -> bool:
        """Run the containment index's structural self-check in place.

        Raises :class:`repro.errors.MatchingError` on any violation;
        recovery tests call this after every crash/replay cycle to
        prove the restored poset is not merely the right size but
        structurally sound.
        """
        self._engine.forest.check_invariants()
        return True

    # -- overlay: neighbour summary adverts ---------------------------------------------

    @ecall
    def export_link_advert(self, origin: str,
                           exclude_link: str) -> Tuple[bytes, bytes]:
        """Compute the summary advert for one neighbour link.

        Returns ``(digest, blob)``: ``digest`` is the deterministic
        fingerprint of the advert's covering set (safe to expose — it
        reveals only whether the set changed over time), ``blob`` is
        the sorted encoded covering antichain sealed under SK with the
        advert context bound to ``origin``, so only a provisioned peer
        enclave can open it and it cannot be replayed as another
        broker's advert.

        ``exclude_link`` is the sentinel of the link being advertised
        *to* (split horizon): interest learned from that neighbour is
        left out, while interest learned from every other link is
        included — which is what makes propagation transitive across
        the overlay.
        """
        self._require_provisioned()
        digest, entries = self._export_entries(exclude_link)
        return digest, self._full_advert_blob(origin, entries)

    def _export_entries(self, exclude_link: str
                        ) -> Tuple[bytes, List[bytes]]:
        """``(digest, entries)`` of one link's current advert.

        The entries are the sorted encoded covering antichain; the set
        is remembered in a bounded per-link history so the next change
        on this link can go out as a delta against it.
        """
        antichain = covering_antichain(self._engine.forest,
                                       exclude=(exclude_link,))
        entries = sorted(encode_subscription(subscription)
                         for subscription in antichain)
        digest = advert_digest(exclude_link, entries)
        history = self._advert_history.setdefault(exclude_link,
                                                  OrderedDict())
        if digest in history:
            history.move_to_end(digest)
        history[digest] = list(entries)
        while len(history) > ADVERT_HISTORY_DEPTH:
            history.popitem(last=False)
        return digest, entries

    def _full_advert_blob(self, origin: str,
                          entries: List[bytes]) -> bytes:
        """Seal a full advert under SK, bound to ``origin``."""
        canonical = pack_fields(entries)
        self._charge_aes(len(canonical))
        self._m_advert_exports.inc()
        return self._require_provisioned().protect(
            canonical, aad=ADVERT_AAD_PREFIX + origin.encode())

    @ecall
    def export_link_advert_delta(self, origin: str, exclude_link: str,
                                 base_digest: bytes
                                 ) -> Tuple[str, bytes, bytes]:
        """Compute one link's advert as a delta when a baseline allows.

        Returns ``(mode, digest, blob)``:

        * ``("noop", digest, b"")`` — the current covering set already
          digests to ``base_digest``; nothing needs to travel;
        * ``("delta", digest, blob)`` — ``base_digest`` names a
          remembered baseline; ``blob`` is the sealed adds/removals
          relative to it (plus the expected result digest, verified by
          the receiver *before* mutating);
        * ``("full", digest, blob)`` — no baseline (first contact, or
          a recovered enclave whose history died with it): ``blob`` is
          a full advert, byte-compatible with
          :meth:`export_link_advert`'s.

        Either way the current set is remembered, so the next change
        on this link can go out as a delta.
        """
        channel = self._require_provisioned()
        digest, entries = self._export_entries(exclude_link)
        if digest == base_digest:
            return "noop", digest, b""
        baseline = self._advert_history.get(exclude_link,
                                            {}).get(base_digest)
        if baseline is None:
            return "full", digest, self._full_advert_blob(origin,
                                                          entries)
        base_set = set(baseline)
        current_set = set(entries)
        adds = sorted(current_set - base_set)
        removals = sorted(base_set - current_set)
        canonical = pack_fields([base_digest, digest,
                                 pack_fields(adds),
                                 pack_fields(removals)])
        self._charge_aes(len(canonical))
        blob = channel.protect(
            canonical,
            aad=ADVERT_DELTA_AAD_PREFIX + origin.encode())
        self._m_delta_exports.inc()
        return "delta", digest, blob

    @ecall
    def install_link_advert(self, from_broker: str,
                            blob: bytes) -> int:
        """Replace one neighbour's remote interest with a fresh advert.

        Authenticates the blob against the claimed origin (the AAD the
        exporting enclave bound), withdraws every subscription the
        ``link:<from_broker>`` sentinel currently holds, and inserts
        the advertised covering set under that sentinel. Last-wins
        replacement makes WAL replay of ``SUM`` records idempotent:
        re-installing any prefix of the advert history converges to
        the newest advert. Returns the number of stored entries.
        """
        channel = self._require_provisioned()
        plaintext, aad = channel.open(blob)
        self._charge_aes(len(blob))
        if aad != ADVERT_AAD_PREFIX + from_broker.encode():
            raise RoutingError(
                "summary advert bound to a different broker")
        sentinel = LINK_PREFIX + from_broker
        engine = self._engine
        stale = [node.subscription
                 for node in engine.forest.iter_nodes()
                 if sentinel in node.subscribers]
        for subscription in stale:
            engine.unregister(subscription, sentinel)
        entries = unpack_fields(plaintext)
        for entry in entries:
            engine.register(decode_subscription(entry), sentinel)
        self._m_advert_installs.inc()
        return len(entries)

    def _installed_entries(self, sentinel: str) -> List[bytes]:
        """Sorted encoded subscriptions held under one link sentinel."""
        return sorted(
            encode_subscription(node.subscription)
            for node in self._engine.forest.iter_nodes()
            if sentinel in node.subscribers)

    @ecall
    def installed_advert_digest(self, from_broker: str,
                                exclude_link: str) -> bytes:
        """Digest of the advert set currently held from a neighbour.

        ``exclude_link`` must be the sentinel the *sender* computed the
        advert against — ``link:<this broker's name>`` — so the value
        here is comparable with the digests the neighbour exports.
        Rebuilt from the forest (not host-tracked), so it stays right
        across crash recovery, checkpoint restore and WAL replay.
        """
        sentinel = LINK_PREFIX + from_broker
        return advert_digest(exclude_link,
                             self._installed_entries(sentinel))

    @ecall
    def apply_link_advert_delta(self, from_broker: str,
                                exclude_link: str,
                                blob: bytes) -> Tuple[bool, bytes]:
        """Apply a delta advert if the installed set matches its base.

        Returns ``(applied, installed_digest)`` where the digest is the
        post-call state either way. A base mismatch — the deltas sender
        diffed against a set this enclave no longer holds (a dropped
        advert, an out-of-order replay) — rejects the delta without
        touching the forest; the caller answers with a ``DIG`` probe so
        the peers reconverge instead of diverging silently. The guard
        also makes WAL replay of delta records idempotent: re-applying
        an already-applied delta finds base != installed and no-ops.
        """
        channel = self._require_provisioned()
        plaintext, aad = channel.open(blob)
        self._charge_aes(len(blob))
        if aad != ADVERT_DELTA_AAD_PREFIX + from_broker.encode():
            raise RoutingError(
                "delta advert bound to a different broker")
        fields = unpack_fields(plaintext)
        if len(fields) != 4:
            raise RoutingError("malformed delta advert payload")
        base_digest, new_digest, adds_blob, removals_blob = fields
        sentinel = LINK_PREFIX + from_broker
        installed = self._installed_entries(sentinel)
        current = advert_digest(exclude_link, installed)
        if current != base_digest:
            self._m_delta_rejects.inc()
            return False, current
        adds = unpack_fields(adds_blob)
        removals = unpack_fields(removals_blob)
        # Verify the sealed result digest *before* mutating: applying
        # the delta must land exactly on the set the sender exported.
        result = sorted((set(installed) - set(removals)) | set(adds))
        if advert_digest(exclude_link, result) != new_digest:
            raise RoutingError(
                "delta advert does not reproduce its stated digest")
        for entry in removals:
            self._engine.unregister(decode_subscription(entry),
                                    sentinel)
        for entry in adds:
            self._engine.register(decode_subscription(entry), sentinel)
        self._m_delta_installs.inc()
        return True, new_digest
