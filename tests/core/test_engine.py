"""Enclave routing-engine tests (the trusted ScbrEnclaveLibrary)."""

import hashlib

import pytest

from repro.core.engine import PROVISION_AAD, ScbrEnclaveLibrary
from repro.core.keys import ProviderKeyChain
from repro.core.messages import (NAME_MEMO_LIMIT, decode_public_key,
                                 encode_header, encode_public_key,
                                 encode_subscription, hybrid_encrypt)
from repro.core.protocol import build_register, build_unregister
from repro.core.router import Router
from repro.crypto.encoding import pack_fields
from repro.crypto.rsa import _generate_keypair_unchecked
from repro.errors import (AuthenticationError, CryptoError, EnclaveError,
                          MatchingError, NetworkError, RollbackError,
                          RoutingError)
from repro.matching.events import Event
from repro.matching.subscriptions import Subscription
from repro.network.bus import MessageBus
from repro.sgx.platform import SgxPlatform
from repro.sgx.sdk import load_enclave


@pytest.fixture(scope="module")
def vendor_key():
    return _generate_keypair_unchecked(768, 65537)


@pytest.fixture()
def setup(vendor_key):
    platform = SgxPlatform(attestation_key_bits=768)
    enclave = load_enclave(platform, ScbrEnclaveLibrary, vendor_key,
                           rsa_bits=768)
    keys = ProviderKeyChain(rsa_bits=768)
    return platform, enclave, keys


def provision(enclave, keys):
    _report, pubkey_blob = enclave.ecall("attestation_report",
                                         b"\x00" * 32)
    enclave_pk = decode_public_key(pubkey_blob)
    payload = pack_fields([keys.sk,
                           encode_public_key(keys.public_key)])
    blob = hybrid_encrypt(enclave_pk, payload, aad=PROVISION_AAD)
    assert enclave.ecall("provision", blob)


def register(enclave, keys, spec, client):
    sub = Subscription.parse(spec)
    envelope = keys.channel().protect(encode_subscription(sub),
                                      aad=client.encode())
    signature = keys.rsa.sign(envelope)
    return enclave.ecall("register_subscription", envelope, signature)


def publish(enclave, keys, header):
    envelope = keys.channel().protect(encode_header(Event(header)))
    return enclave.ecall("match_publication", envelope)


class TestProvisioning:

    def test_report_binds_key(self, setup):
        _platform, enclave, _keys = setup
        report, pubkey_blob = enclave.ecall("attestation_report",
                                            b"\x00" * 32)
        assert report.report_data == \
            hashlib.sha256(pubkey_blob).digest()

    def test_operations_require_provisioning(self, setup):
        _platform, enclave, keys = setup
        with pytest.raises(EnclaveError):
            publish(enclave, keys, {"x": 1})
        with pytest.raises(EnclaveError):
            register(enclave, keys, {"x": 1}, "alice")

    def test_wrong_aad_rejected(self, setup):
        _platform, enclave, keys = setup
        _r, pubkey_blob = enclave.ecall("attestation_report",
                                        b"\x00" * 32)
        enclave_pk = decode_public_key(pubkey_blob)
        payload = pack_fields([keys.sk,
                               encode_public_key(keys.public_key)])
        blob = hybrid_encrypt(enclave_pk, payload, aad=b"wrong")
        with pytest.raises(RoutingError):
            enclave.ecall("provision", blob)

    def test_a_failed_provision_installs_nothing(self, vendor_key):
        """An authenticated payload whose provider-key field does not
        decode leaves the engine unprovisioned: REG and UNREG frames
        are then poison frames, and the pump keeps going."""
        bus = MessageBus()
        router = Router(bus, SgxPlatform(attestation_key_bits=768),
                        vendor_key, rsa_bits=768)
        keys = ProviderKeyChain(rsa_bits=768)
        _report, pubkey_blob = router.attestation_report(b"\x00" * 32)
        payload = pack_fields([keys.sk,
                               encode_public_key(keys.public_key)[:-1]])
        with pytest.raises(NetworkError, match="truncated field body"):
            router.provision(hybrid_encrypt(
                decode_public_key(pubkey_blob), payload,
                aad=PROVISION_AAD))
        envelope = keys.channel().protect(
            encode_subscription(Subscription.parse({"x": 1})),
            aad=b"alice")
        signature = keys.rsa.sign(envelope)
        frames = [build_register(envelope, signature),
                  build_unregister(envelope, signature)]
        bus.endpoint("provider").send("router", frames)
        assert router.pump() == 2
        assert [(letter.frame, letter.reason)
                for letter in router.dead_letters] == [
            (frame, "poison-frame") for frame in frames]
        router.close()

    def test_a_reprovision_with_a_bad_sk_keeps_the_first_pair(
            self, setup, vendor_key):
        """SK is keyed before anything is installed: an SK of no AES
        key size fails the re-provision and leaves the first SK, its
        channel and the first provider key in place, sealed state
        included."""
        platform, enclave, keys = setup
        provision(enclave, keys)
        other = ProviderKeyChain(rsa_bits=768)
        _report, pubkey_blob = enclave.ecall("attestation_report",
                                             b"\x00" * 32)
        payload = pack_fields([b"short",
                               encode_public_key(other.public_key)])
        with pytest.raises(CryptoError, match="AES key size"):
            enclave.ecall("provision", hybrid_encrypt(
                decode_public_key(pubkey_blob), payload,
                aad=PROVISION_AAD))
        assert register(enclave, keys, {"x": 1}, "alice") == "alice"
        sealed, counter_id = enclave.ecall("seal_state")
        enclave.destroy()
        fresh = load_enclave(platform, ScbrEnclaveLibrary, vendor_key,
                             rsa_bits=768)
        assert fresh.ecall("restore_state", sealed, counter_id) == 1
        assert publish(fresh, keys, {"x": 1}) == ["alice"]


class TestRegistrationAndMatching:

    def test_full_flow(self, setup):
        _platform, enclave, keys = setup
        provision(enclave, keys)
        assert register(enclave, keys,
                        {"symbol": "HAL", "price": ("<", 50)},
                        "alice") == "alice"
        register(enclave, keys, {"symbol": "IBM"}, "bob")
        assert publish(enclave, keys,
                       {"symbol": "HAL", "price": 48.0}) == ["alice"]
        assert publish(enclave, keys,
                       {"symbol": "IBM", "price": 10.0}) == ["bob"]
        assert publish(enclave, keys,
                       {"symbol": "XOM", "price": 1.0}) == []

    def test_forged_signature_rejected(self, setup):
        _platform, enclave, keys = setup
        provision(enclave, keys)
        rogue = ProviderKeyChain(rsa_bits=768)
        sub = Subscription.parse({"x": 1})
        envelope = keys.channel().protect(encode_subscription(sub),
                                          aad=b"mallory")
        bad_signature = rogue.rsa.sign(envelope)
        with pytest.raises(AuthenticationError):
            enclave.ecall("register_subscription", envelope,
                          bad_signature)

    def test_wrong_sk_rejected(self, setup):
        _platform, enclave, keys = setup
        provision(enclave, keys)
        rogue = ProviderKeyChain(rsa_bits=768)
        sub = Subscription.parse({"x": 1})
        envelope = rogue.channel().protect(encode_subscription(sub),
                                           aad=b"alice")
        signature = keys.rsa.sign(envelope)  # valid signature, wrong SK
        with pytest.raises(AuthenticationError):
            enclave.ecall("register_subscription", envelope, signature)

    def test_empty_client_id_rejected(self, setup):
        _platform, enclave, keys = setup
        provision(enclave, keys)
        sub = Subscription.parse({"x": 1})
        envelope = keys.channel().protect(encode_subscription(sub),
                                          aad=b"")
        signature = keys.rsa.sign(envelope)
        with pytest.raises(RoutingError):
            enclave.ecall("register_subscription", envelope, signature)

    def test_unregister(self, setup):
        _platform, enclave, keys = setup
        provision(enclave, keys)
        register(enclave, keys, {"symbol": "HAL"}, "alice")
        sub = Subscription.parse({"symbol": "HAL"})
        envelope = keys.channel().protect(encode_subscription(sub),
                                          aad=b"alice")
        signature = keys.rsa.sign(envelope)
        assert enclave.ecall("unregister_subscription", envelope,
                             signature)
        assert publish(enclave, keys, {"symbol": "HAL"}) == []

    def test_batched_matching_agrees_with_single(self, setup):
        _platform, enclave, keys = setup
        provision(enclave, keys)
        register(enclave, keys, {"symbol": "HAL"}, "alice")
        register(enclave, keys, {"symbol": "IBM"}, "bob")
        headers = [{"symbol": "HAL"}, {"symbol": "IBM"},
                   {"symbol": "XOM"}]
        envelopes = [keys.channel().protect(
            encode_header(Event(h))) for h in headers]
        batched = enclave.ecall("match_publications", envelopes)
        singles = [enclave.ecall("match_publication", e)
                   for e in envelopes]
        assert batched == singles == [["alice"], ["bob"], []]

    def test_batching_amortises_transitions(self, setup):
        _platform, enclave, keys = setup
        provision(enclave, keys)
        register(enclave, keys, {"symbol": "HAL"}, "alice")
        envelopes = [keys.channel().protect(
            encode_header(Event({"symbol": "HAL", "price": float(i)})))
            for i in range(8)]
        ecalls_before = enclave.ecalls
        enclave.ecall("match_publications", envelopes)
        assert enclave.ecalls == ecalls_before + 1  # one transition

    def test_stats(self, setup):
        _platform, enclave, keys = setup
        provision(enclave, keys)
        register(enclave, keys, {"symbol": "HAL"}, "alice")
        subs, nodes, size = enclave.ecall("engine_stats")
        assert subs == 1 and nodes == 1 and size > 0


class TestNameMemo:
    """The header-name memo is the enclave's own: a name that fails
    validation is never stored, and the memo is bounded."""

    @pytest.mark.parametrize("name", ["a|b", "a\nb", "a\x00b", ""])
    def test_forbidden_name_rejected_on_every_arrival(self, setup, name):
        _platform, enclave, keys = setup
        provision(enclave, keys)
        blob = pack_fields([name.encode(), b"i" + bytes(8)])
        good = encode_header(Event({"x": 1}))
        for _ in range(3):
            with pytest.raises(MatchingError):
                enclave.ecall("match_publication",
                              keys.channel().protect(blob))
            with pytest.raises(MatchingError):
                enclave.ecall("match_publications", [
                    keys.channel().protect(good),
                    keys.channel().protect(blob)])
        assert name.encode() not in enclave._library._names

    def test_name_memo_is_bounded(self, setup):
        _platform, enclave, keys = setup
        provision(enclave, keys)
        names = enclave._library._names
        limit = NAME_MEMO_LIMIT
        for first in range(0, limit + 50, 1000):
            header = pack_fields([
                field for i in range(first, min(first + 1000,
                                                limit + 50))
                for field in (b"n%d" % i, b"i" + bytes(8))])
            assert enclave.ecall("match_publications", [
                keys.channel().protect(header)]) == [[]]
            assert len(names) <= limit
        # it started over, and still answers
        assert len(names) < limit
        assert publish(enclave, keys, {"n0": 0}) == []
        assert names[b"n0"] == "n0"


class TestSealRestore:

    def test_state_survives_restart(self, setup, vendor_key):
        platform, enclave, keys = setup
        provision(enclave, keys)
        register(enclave, keys, {"symbol": "HAL"}, "alice")
        sealed, counter_id = enclave.ecall("seal_state")
        enclave.destroy()

        fresh = load_enclave(platform, ScbrEnclaveLibrary, vendor_key,
                             rsa_bits=768)
        assert fresh.ecall("restore_state", sealed, counter_id) == 1
        assert publish(fresh, keys, {"symbol": "HAL"}) == ["alice"]

    def test_rollback_detected(self, setup, vendor_key):
        platform, enclave, keys = setup
        provision(enclave, keys)
        register(enclave, keys, {"symbol": "HAL"}, "alice")
        stale, counter_id = enclave.ecall("seal_state")
        register(enclave, keys, {"symbol": "IBM"}, "bob")
        _fresh_blob, counter_id2 = enclave.ecall("seal_state")
        assert counter_id == counter_id2
        fresh = load_enclave(platform, ScbrEnclaveLibrary, vendor_key,
                             rsa_bits=768)
        with pytest.raises(RollbackError):
            fresh.ecall("restore_state", stale, counter_id)

    def test_seal_requires_provisioning(self, setup):
        _platform, enclave, _keys = setup
        with pytest.raises(EnclaveError):
            enclave.ecall("seal_state")


class ScbrEnclaveLibraryV2(ScbrEnclaveLibrary):
    """An 'upgraded' engine: same vendor, new code, one extra ecall."""

    from repro.sgx.sdk import ecall as _ecall

    @_ecall
    def version(self) -> int:
        return 2


class TestEnclaveUpgrade:

    def test_mrsigner_seal_survives_upgrade(self, setup, vendor_key):
        """The standard SGX upgrade path: MRSIGNER-policy sealing."""
        platform, enclave, keys = setup
        provision(enclave, keys)
        register(enclave, keys, {"symbol": "HAL"}, "alice")
        sealed, counter_id = enclave.ecall("seal_state", "mrsigner")

        upgraded = load_enclave(platform, ScbrEnclaveLibraryV2,
                                vendor_key, rsa_bits=768)
        assert upgraded.mr_enclave != enclave.mr_enclave  # new code
        assert upgraded.mr_signer == enclave.mr_signer    # same vendor
        assert upgraded.ecall("restore_state", sealed, counter_id) == 1
        assert upgraded.ecall("version") == 2
        assert publish(upgraded, keys, {"symbol": "HAL"}) == ["alice"]

    def test_mrenclave_seal_blocks_upgrade(self, setup, vendor_key):
        platform, enclave, keys = setup
        provision(enclave, keys)
        register(enclave, keys, {"symbol": "HAL"}, "alice")
        sealed, counter_id = enclave.ecall("seal_state")  # MRENCLAVE
        upgraded = load_enclave(platform, ScbrEnclaveLibraryV2,
                                vendor_key, rsa_bits=768)
        with pytest.raises(AuthenticationError):
            upgraded.ecall("restore_state", sealed, counter_id)

    def test_other_vendor_blocked_even_with_mrsigner(self, setup):
        platform, enclave, keys = setup
        provision(enclave, keys)
        register(enclave, keys, {"symbol": "HAL"}, "alice")
        sealed, counter_id = enclave.ecall("seal_state", "mrsigner")
        rogue_vendor = _generate_keypair_unchecked(768, 65537)
        rogue = load_enclave(platform, ScbrEnclaveLibraryV2,
                             rogue_vendor, rsa_bits=768)
        with pytest.raises(AuthenticationError):
            rogue.ecall("restore_state", sealed, counter_id)
