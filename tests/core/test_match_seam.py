"""One match loop, three hosts: the In == Out-code property.

The paper's in/out comparison (§4) holds only if "the same filtering
code" runs in every configuration. Here the same subscriptions and
events go through a bare :class:`MatchingEngine` on an enclave arena,
through :class:`ScbrEnclaveLibrary` ecalls and through a
:class:`MatcherSlice`; once each host's own charges are subtracted —
EENTER/EEXIT and argument marshalling at the boundary, AES over the
envelope — what remains (index touches + per-test compute) must be the
same number of simulated cycles, event for event.
"""

import pytest

from repro.core.cluster import MatcherSlice
from repro.core.engine import PROVISION_AAD, ScbrEnclaveLibrary
from repro.core.keys import ProviderKeyChain
from repro.core.messages import (decode_public_key, encode_header,
                                 encode_public_key, encode_subscription,
                                 hybrid_encrypt)
from repro.crypto.encoding import pack_fields
from repro.crypto.rsa import _generate_keypair_unchecked
from repro.matching.matcher import MatchingEngine
from repro.sgx.cpu import SKYLAKE_I7_6700
from repro.sgx.platform import SgxPlatform
from repro.sgx.sdk import load_enclave
from repro.workloads.datasets import build_dataset

COSTS = SKYLAKE_I7_6700.costs


@pytest.fixture(scope="module")
def vendor_key():
    return _generate_keypair_unchecked(768, 65537)


@pytest.fixture(scope="module")
def dataset():
    return build_dataset("e80a2", 60, 16)


class BareHost:
    """The engine alone: every cycle it spends is the engine's."""

    def __init__(self, backend, memo_capacity):
        self.memory = SgxPlatform().memory
        self.engine = MatchingEngine(
            arena=self.memory.new_arena(enclave=True),
            backend=backend, memo_capacity=memo_capacity)

    def register(self, subscription, client):
        self.engine.register(subscription, client)

    def match(self, event):
        return self.engine.match(event).subscribers, 0

    def match_batch(self, events):
        return [r.subscribers
                for r in self.engine.match_batch(events)], 0


class EnclaveHost:
    """The routing enclave, driven through its ecalls."""

    def __init__(self, backend, memo_capacity, vendor_key):
        platform = SgxPlatform(attestation_key_bits=768)
        self.memory = platform.memory
        self.enclave = load_enclave(
            platform, ScbrEnclaveLibrary, vendor_key, rsa_bits=768,
            memo_capacity=memo_capacity, matcher_backend=backend)
        self.keys = ProviderKeyChain(rsa_bits=768)
        _report, pubkey_blob = self.enclave.ecall("attestation_report",
                                                  b"\x00" * 32)
        secrets = pack_fields([self.keys.sk,
                               encode_public_key(self.keys.public_key)])
        assert self.enclave.ecall("provision", hybrid_encrypt(
            decode_public_key(pubkey_blob), secrets, aad=PROVISION_AAD))

    def register(self, subscription, client):
        envelope = self.keys.channel().protect(
            encode_subscription(subscription), aad=client.encode())
        self.enclave.ecall("register_subscription", envelope,
                           self.keys.rsa.sign(envelope))

    @staticmethod
    def _own_cycles(envelopes, marshalled_bytes):
        """EENTER + boundary copy + AES per envelope + EEXIT."""
        aes = sum(COSTS.aes_setup_cycles
                  + (len(e) + 15) // 16 * COSTS.aes_block_cycles
                  for e in envelopes)
        return (COSTS.eenter_cycles + COSTS.eexit_cycles + aes
                + marshalled_bytes * COSTS.boundary_copy_cycles_per_byte)

    def match(self, event):
        envelope = self.keys.channel().protect(encode_header(event))
        return (self.enclave.ecall("match_publication", envelope),
                self._own_cycles([envelope], len(envelope)))

    def match_batch(self, events):
        envelopes = [self.keys.channel().protect(encode_header(event))
                     for event in events]
        # the simulator marshals bytes arguments only, not a list
        return (self.enclave.ecall("match_publications", envelopes),
                self._own_cycles(envelopes, 0))


class SliceHost:
    """One cluster slice: untraced registration, then prefault."""

    def __init__(self, backend):
        self.slice = MatcherSlice(0, SKYLAKE_I7_6700,
                                  matcher_backend=backend)
        self.memory = self.slice.platform.memory

    def register(self, subscription, client):
        self.slice.register(subscription, client)

    def match(self, event):
        matched, _us = self.slice.match(event)
        return matched, COSTS.eenter_cycles + COSTS.eexit_cycles


def _pass(host, events):
    """Per event: (sorted client ids, cycles left after the host's own)."""
    out = []
    for event in events:
        before = host.memory.cycles
        matched, own_cycles = host.match(event)
        out.append((sorted(str(c) for c in matched),
                    host.memory.cycles - before - own_cycles))
    return out


@pytest.mark.parametrize("memo_capacity", [0, 64],
                         ids=["memo-off", "memo-on"])
@pytest.mark.parametrize("backend", ["forest", "columnar"])
def test_three_hosts_one_engine(backend, memo_capacity, vendor_key,
                                dataset):
    bare = BareHost(backend, memo_capacity)
    enclave = EnclaveHost(backend, memo_capacity, vendor_key)
    sliced = SliceHost(backend)
    for index, subscription in enumerate(dataset.subscriptions):
        for host in (bare, enclave, sliced):
            host.register(subscription, f"c{index:03d}")
    sliced.slice.warm()

    # Repeats inside the stream: with the memo on they are hits.
    stream = list(dataset.publications[:10]) + \
        list(dataset.publications[:4])
    first = {name: _pass(host, stream) for name, host in
             (("bare", bare), ("enclave", enclave), ("slice", sliced))}
    assert any(clients for clients, _cycles in first["bare"])
    # Bare and enclave both traced their registrations, so they agree
    # from the first event on — hits (zero engine cycles) included.
    assert first["enclave"] == first["bare"]
    assert [c for c, _ in first["slice"]] == [c for c, _ in first["bare"]]
    if memo_capacity:
        assert all(cycles == 0 for _c, cycles in first["bare"][10:])
        assert enclave.enclave.ecall("engine_metrics")[
            "engine.memo_hits_total"] == 4

    # Second pass: every host's index is cache-resident by now, so the
    # slice (which registered untraced and has no memo) joins in.
    second = {name: _pass(host, stream) for name, host in
              (("bare", bare), ("enclave", enclave), ("slice", sliced))}
    assert second["enclave"] == second["bare"]
    if not memo_capacity:
        assert second["slice"] == second["bare"]
        assert all(cycles > 0 for _c, cycles in second["bare"])

    # One batch of fresh events: match_batch vs the batched ecall.
    fresh = list(dataset.publications[10:])
    totals = []
    for host in (bare, enclave):
        before = host.memory.cycles
        matched, own_cycles = host.match_batch(fresh)
        totals.append(([sorted(str(c) for c in m) for m in matched],
                       host.memory.cycles - before - own_cycles))
    assert totals[0] == totals[1]
    assert totals[0][1] > 0
