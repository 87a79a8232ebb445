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

import pytest

from repro.core.engine import ScbrEnclaveLibrary
from repro.core.provider import ServiceProvider
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
