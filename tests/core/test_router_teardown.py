"""A closed router must die by reference counting, not by the cyclic GC.

``Router.close()`` leaves the router, its enclave library, the forest,
the metrics registries and the platform's cache model unreachable; if
they are unreachable only *through cycles* (callback gauges closing
over their owner, ``Enclave <-> TrustedRuntime``) they stay allocated
until a generation-2 collection happens to run, and a process that
builds one fabric after another peaks at several fabrics' worth of
memory.
"""

import gc
import sys

import pytest

from repro.core.engine import ScbrEnclaveLibrary
from repro.core.provider import ServiceProvider
from repro.core.publisher import Publisher
from repro.core.router import Router
from repro.core.subscriber import Client
from repro.crypto.rsa import _generate_keypair_unchecked
from repro.matching.poset import PosetNode
from repro.network.bus import MessageBus
from repro.obs.metrics import MetricsRegistry
from repro.sgx.attestation import AttestationService
from repro.sgx.cache import CacheModel
from repro.sgx.enclave import EnclaveBuilder
from repro.sgx.platform import SgxPlatform


def _live(kind):
    return [obj for obj in gc.get_objects() if type(obj) is kind]


@pytest.mark.parametrize("backend", ["forest", "columnar"])
def test_closed_router_is_freed_without_the_cyclic_collector(backend):
    vendor_key = _generate_keypair_unchecked(768, 65537)
    bus = MessageBus()
    ias = AttestationService(signing_key_bits=768)
    gc.collect()
    nodes_before = len(_live(PosetNode))
    caches_before = len(_live(CacheModel))
    gc.disable()
    try:
        platform = SgxPlatform(attestation_key_bits=768)
        ias.register_platform(platform)
        expected = EnclaveBuilder(platform, ScbrEnclaveLibrary).measure()
        router = Router(bus, platform, vendor_key, rsa_bits=768,
                        metrics=MetricsRegistry(),
                        matcher_backend=backend)
        provider = ServiceProvider(bus, rsa_bits=768,
                                   attestation_service=ias,
                                   expected_mr_enclave=expected)
        provider.provision_router(router)
        client = Client(bus, "alice", provider.keys.public_key)
        client.process_admission(provider.admit_client("alice"))
        for symbol in ("HAL", "IBM", "XOM"):
            client.subscribe("provider", {"symbol": symbol})
        provider.pump(router.name)
        router.pump()
        assert len(_live(PosetNode)) == nodes_before + 3

        snapshot = router.metrics.snapshot()
        router.close()
        # the registry outlives the router: its gauges keep their last
        # reading instead of a callback into the corpse
        assert router.metrics.snapshot() == snapshot
        del router, platform, expected, provider, client
        assert len(_live(PosetNode)) == nodes_before
        assert len(_live(CacheModel)) == caches_before
    finally:
        gc.enable()


def test_routers_share_no_names_and_a_destroyed_memo_dies_by_refcount():
    """Each enclave decodes header names into its own memo: what one
    router decoded is not in another's, and closing a router drops
    its enclave's memo — even while the library object itself is
    still referenced, the memo is held by nothing but this test, so
    reference counting frees it with the cyclic collector off."""
    vendor_key = _generate_keypair_unchecked(768, 65537)
    bus = MessageBus()
    ias = AttestationService(signing_key_bits=768)
    platform = SgxPlatform(attestation_key_bits=768)
    ias.register_platform(platform)
    provider = ServiceProvider(
        bus, rsa_bits=768, attestation_service=ias,
        expected_mr_enclave=EnclaveBuilder(
            platform, ScbrEnclaveLibrary).measure())
    publisher = Publisher(bus, provider.keys, provider.group)
    routers = [Router(bus, platform, vendor_key, name=name,
                      rsa_bits=768, metrics=MetricsRegistry(),
                      matcher_backend=backend)
               for name, backend in (("r1", "forest"),
                                     ("r2", "columnar"))]
    for router in routers:
        provider.provision_router(router)
    first, second = routers
    first.handle_publish(publisher.make_publication(
        {"symbol": "HAL", "price": 1.5}, b"p"))
    second.handle_publish_batch([publisher.make_publication(
        {"symbol": "IBM", "volume": 7}, b"p")] * 2)
    memos = [router.enclave._library._names for router in routers]
    assert memos[0] == {b"symbol": "symbol", b"price": "price"}
    assert memos[1] == {b"symbol": "symbol", b"volume": "volume"}

    gc.collect()
    gc.disable()
    try:
        memo = memos.pop(0)
        library = first.enclave._library
        first.close()
        assert library._names is None
        assert sys.getrefcount(memo) == 2   # this name, the argument
        # the other router's enclave keeps its own
        second.handle_publish(publisher.make_publication(
            {"symbol": "XOM", "price": 2.0}, b"p"))
        assert b"price" in memos[0] and b"volume" in memos[0]
    finally:
        gc.enable()
        second.close()
