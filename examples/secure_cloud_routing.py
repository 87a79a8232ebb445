#!/usr/bin/env python
"""Secure cloud routing: the full trust story, attack by attack.

Walks through what the SGX mechanisms buy SCBR, demonstrating each
security property with an actual (simulated) attack:

1. remote attestation rejects a tampered routing engine;
2. the infrastructure never sees plaintext (we grep its traffic);
3. a curious router cannot forge subscriptions into the enclave;
4. sealed state survives a restart, but replaying a *stale* sealed
   state is caught by the monotonic counter;
5. tampering with protected memory in DRAM locks the memory controller
   (MEE integrity tree).

Run with:  python examples/secure_cloud_routing.py
"""

from repro import MessageBus, SgxPlatform
from repro.core import (Client, Publisher, Router, ScbrEnclaveLibrary,
                        ServiceProvider)
from repro.core.messages import encode_subscription
from repro.core.keys import ProviderKeyChain
from repro.crypto.rsa import generate_keypair
from repro.errors import (AttestationError, AuthenticationError,
                          MemoryLockError, RollbackError)
from repro.matching.subscriptions import Subscription
from repro.sgx import (AttestationService, EnclaveBuilder,
                       MemoryEncryptionEngine)
from repro.sgx.sdk import EnclaveLibrary, ecall


class TamperedEngine(ScbrEnclaveLibrary):
    """A routing engine with a backdoor: leaks every subscription."""

    @ecall
    def leak(self):  # pragma: no cover - never reached
        return [node.subscription for node in
                self._engine.forest.iter_nodes()]


def main() -> None:
    bus = MessageBus()
    platform = SgxPlatform()
    attestation_service = AttestationService()
    attestation_service.register_platform(platform)
    vendor_key = generate_keypair(bits=1024)
    genuine = EnclaveBuilder(platform, ScbrEnclaveLibrary).measure()

    # -- attack 1: swapped-in backdoored engine ---------------------------
    print("1. attestation vs a backdoored engine")
    evil_router = Router.__new__(Router)  # build manually with bad code
    evil_router.platform = platform
    evil_router.endpoint = bus.endpoint("evil-router")
    from repro.sgx.sdk import load_enclave
    evil_router.enclave = load_enclave(platform, TamperedEngine,
                                       vendor_key)
    evil_router.name = "evil-router"
    provider = ServiceProvider(bus, rsa_bits=1024,
                               attestation_service=attestation_service,
                               expected_mr_enclave=genuine)
    try:
        provider.provision_router(evil_router)
        raise SystemExit("backdoored engine was provisioned!")
    except AttestationError as exc:
        print(f"   rejected: {exc}")

    # -- the honest router ---------------------------------------------------
    router = Router(bus, platform, vendor_key)
    provider.provision_router(router)
    publisher = Publisher(bus, provider.keys, provider.group)
    alice = Client(bus, "alice", provider.keys.public_key)
    alice.process_admission(provider.admit_client("alice"))

    # -- attack 2: the infrastructure inspects all traffic --------------------
    print("2. traffic inspection by the infrastructure")
    secret_symbol = "TOPSECRETCORP"
    alice.subscribe("provider", {"symbol": secret_symbol})
    # Capture the wire bytes before they are consumed.
    sender, frames = bus.endpoint("provider").recv()
    assert all(secret_symbol.encode() not in f for f in frames)
    register_frame = provider.handle_subscription_request(frames[0])
    assert secret_symbol.encode() not in register_frame
    router.handle_register(register_frame)
    publisher.publish("router", {"symbol": secret_symbol},
                      b"confidential payload")
    sender, frames = bus.endpoint("router").recv()
    assert all(secret_symbol.encode() not in f for f in frames)
    assert all(b"confidential payload" not in f for f in frames)
    matched = router.handle_publish(frames[0])
    print(f"   plaintext never on the wire; enclave still matched "
          f"{matched}")
    alice.pump()
    assert alice.received == [b"confidential payload"]

    # -- attack 3: the router forges a subscription ---------------------------
    print("3. router forges a subscription for itself")
    rogue_keys = ProviderKeyChain(rsa_bits=1024)
    forged = rogue_keys.channel().protect(
        encode_subscription(Subscription.parse({"symbol": "HAL"})),
        aad=b"router-spy")
    try:
        router.enclave.ecall("register_subscription", forged,
                             rogue_keys.rsa.sign(forged))
        raise SystemExit("forged subscription accepted!")
    except AuthenticationError as exc:
        print(f"   rejected: {exc}")

    # -- attack 4: restart + stale-state replay ---------------------------------
    print("4. sealed restart and rollback protection")
    stale, counter_id = router.seal()
    alice.subscribe("provider", {"symbol": "NEWSUB"})
    provider.pump("router")
    router.pump()
    fresh, _counter = router.seal()
    restarted = Router(bus, platform, vendor_key, name="router-2")
    count = restarted.restore(fresh, counter_id)
    print(f"   fresh state restored: {count} subscriptions")
    restarted_again = Router(bus, platform, vendor_key, name="router-3")
    try:
        restarted_again.restore(stale, counter_id)
        raise SystemExit("stale sealed state accepted!")
    except RollbackError as exc:
        print(f"   stale state rejected: {exc}")

    # -- attack 5: DRAM tampering behind the MEE ---------------------------------
    print("5. physical DRAM tampering vs the MEE integrity tree")
    mee = MemoryEncryptionEngine(b"\x42" * 16, n_blocks=16)
    mee.write_block(3, b"enclave page with the subscription index")
    assert b"subscription" not in mee.dram[3]  # encrypted at rest
    mee.dram[3] = bytes(len(mee.dram[3]))     # attacker wipes the page
    try:
        mee.read_block(3)
        raise SystemExit("tampered page went unnoticed!")
    except MemoryLockError as exc:
        print(f"   detected, memory controller locked: {exc}")

    print("all five properties hold.")


if __name__ == "__main__":
    main()
