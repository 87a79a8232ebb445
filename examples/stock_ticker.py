#!/usr/bin/env python
"""Stock ticker: the paper's financial-market motivating scenario.

A stock exchange (service provider) streams synthetic quotes to paying
clients with confidential portfolios. Demonstrates:

* realistic quote workload (the Table 1 generator);
* multiple clients with range/equality subscriptions (portfolios);
* a client who stops paying: revocation drops their subscriptions at
  the router and rotates the payload group key, so even replayed
  deliveries are useless to them;
* routing statistics from the enclave's containment index.

Run with:  python examples/stock_ticker.py
"""

import json

from repro import MessageBus, SgxPlatform
from repro.core import (Client, Publisher, Router, ScbrEnclaveLibrary,
                        ServiceProvider)
from repro.crypto.rsa import generate_keypair
from repro.matching.stats import forest_stats
from repro.sgx import AttestationService, EnclaveBuilder
from repro.workloads import generate_quotes


def main() -> None:
    bus = MessageBus()
    platform = SgxPlatform()
    attestation_service = AttestationService()
    attestation_service.register_platform(platform)
    vendor_key = generate_keypair(bits=1024)
    expected = EnclaveBuilder(platform, ScbrEnclaveLibrary).measure()

    router = Router(bus, platform, vendor_key)
    exchange = ServiceProvider(bus, name="exchange", rsa_bits=1024,
                               attestation_service=attestation_service,
                               expected_mr_enclave=expected)
    exchange.provision_router(router)
    feed = Publisher(bus, exchange.keys, exchange.group,
                     name="quote-feed")

    # -- three clients with confidential portfolios ----------------------
    portfolios = {
        "hedge-fund": [
            {"symbol": "HAL", "close": ("<", 60.0)},
            {"symbol": "XOM", "volume": (">", 1e5)},
        ],
        "pension-fund": [
            {"symbol": "IBM"},
            {"symbol": "GE", "change_pct": ("<", 0.0)},  # drops only
        ],
        "day-trader": [
            {"change_pct": (">", 1.5)},  # any big mover
        ],
    }
    clients = {}
    for name, subscriptions in portfolios.items():
        client = Client(bus, name, exchange.keys.public_key)
        client.process_admission(exchange.admit_client(name))
        for spec in subscriptions:
            client.subscribe("exchange", spec)
        clients[name] = client
    exchange.pump("router")
    router.pump()
    print(f"registered {router.registrations} subscriptions from "
          f"{len(clients)} clients")

    # -- stream a day of synthetic quotes ---------------------------------
    collection = generate_quotes(400, n_symbols=40, seed=99)
    for event in collection.events():
        payload = json.dumps(event.header).encode()
        feed.publish("router", event, payload)
    router.pump()
    for client in clients.values():
        client.pump()
    for name, client in clients.items():
        print(f"  {name:13s} received {len(client.received):4d} quotes")
    assert any(client.received for client in clients.values())

    # -- the day-trader stops paying ---------------------------------------
    print("revoking day-trader (subscription invalidation + "
          "group-key rotation)...")
    for frame in exchange.revoke_client("day-trader"):
        exchange.endpoint.send("router", [frame])
    router.pump()
    for name in ("hedge-fund", "pension-fund"):
        clients[name].pump()  # they receive the rotated key

    before = {name: len(client.received)
              for name, client in clients.items()}
    for event in generate_quotes(150, n_symbols=40, seed=100).events():
        feed.publish("router", event, json.dumps(event.header).encode())
    router.pump()
    for client in clients.values():
        client.pump()
    for name, client in clients.items():
        delta = len(client.received) - before[name]
        print(f"  {name:13s} +{delta} quotes after revocation "
              f"(undecryptable: {client.undecryptable})")
    assert len(clients["day-trader"].received) == before["day-trader"]

    # -- index shape: why containment matters ------------------------------
    stats = forest_stats(router.enclave._library._engine.forest)
    print(f"enclave index shape: {stats.describe()}")
    print(f"simulated platform time: {platform.simulated_us():,.0f} us")


if __name__ == "__main__":
    main()
