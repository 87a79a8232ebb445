"""Fan-out is one multicast: constant Python calls, same seeded output.

Counts beat clocks on this box: what "52 deliveries are no longer 52
trips through Router -> Endpoint -> MessageBus" means is that the
number of Python-level calls one fan-out makes does not depend on how
many subscribers matched. What "nothing else changed" means is that
the seeded demos print, byte for byte, what the commit before the
multicast printed (``fixtures/``, recorded from that commit).
"""

import gc
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.protocol import build_deliver
from repro.core.router import RetryPolicy, Router
from repro.crypto.rsa import _generate_keypair_unchecked
from repro.network.bus import MessageBus
from repro.sgx.platform import SgxPlatform

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def vendor_key():
    return _generate_keypair_unchecked(768, 65537)


@pytest.fixture()
def fabric(vendor_key):
    bus = MessageBus()
    router = Router(bus, SgxPlatform(attestation_key_bits=768),
                    vendor_key, rsa_bits=768,
                    retry_policy=RetryPolicy(max_attempts=2))
    clients = [f"c{index:02d}" for index in range(64)]
    for client_id in clients:
        bus.endpoint(client_id)
    yield bus, router, clients
    router.close()


def python_calls(function, *args):
    """Python-level ``call`` events (C calls are ``c_call``) of one
    invocation, ``function``'s own frame included. The cyclic collector
    is off meanwhile: a collection would count the finalizers of
    whatever earlier tests left behind."""
    calls = 0

    def profiler(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profiler)
    try:
        function(*args)
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()
    return calls


class TestOneMulticastPerPublication:

    def test_python_calls_do_not_grow_with_the_fan_out(self, fabric):
        bus, router, clients = fabric
        few = python_calls(router._fan_out, clients[:8], b"envelope",
                           b"PUB")
        many = python_calls(router._fan_out, clients, b"envelope",
                            b"PUB")
        assert few == many
        assert router.deliveries == 8 + 64
        snapshot = router.metrics.snapshot()
        assert snapshot["router.delivery_attempts_total"] == 72
        assert snapshot["router.deliveries_total"] == 72
        assert snapshot["bus.messages_total"] == 72
        assert bus.endpoint(clients[0]).recv_all() \
            == [(router.name, [build_deliver(b"envelope")])] * 2
        assert bus.endpoint(clients[8]).pending == 1

    def test_failed_recipients_take_the_retry_schedule_in_order(
            self, fabric):
        bus, router, clients = fabric
        matched = ["ghost-b", clients[0], "ghost-a", clients[1]]
        router._fan_out(matched, b"envelope", b"PUB")
        assert router.deliveries == 2
        assert [p.client_id for p in router._retries] \
            == ["ghost-b", "ghost-a"]
        snapshot = router.metrics.snapshot()
        assert snapshot["router.delivery_attempts_total"] == 4
        assert snapshot["router.delivery_retries_total"] == 2
        router.drain_retries()
        assert [(letter.client_id, letter.detail)
                for letter in router.dead_letters] == [
            ("ghost-b", "to ghost-b after 2 attempts: "
                        "no endpoint named 'ghost-b'"),
            ("ghost-a", "to ghost-a after 2 attempts: "
                        "no endpoint named 'ghost-a'")]
        assert router.metrics.snapshot()[
            "router.delivery_attempts_total"] == 6

    def test_an_empty_match_touches_no_delivery_counter(self, fabric):
        _bus, router, _clients = fabric
        before = router.metrics.snapshot()
        router._fan_out([], b"envelope", b"PUB")
        after = router.metrics.snapshot()
        changed = {name for name in after
                   if after[name] != before.get(name)}
        assert changed == {"router.match_fanout.count"}


class TestSeededOutputIsTheParents:

    @pytest.mark.parametrize("argv, fixture", [
        (["metrics", "--publications", "10", "--seed", "7"],
         "metrics_publications10_seed7.txt"),
        (["dlq"], "dlq_default.txt"),
        # Both include the enclave's code-page faults, so its loaded
        # size reaches them; recorded before that size was declared
        # rather than read off the engine's source text.
        (["demo"], "demo_default.txt"),
        (["recover", "--publications", "20", "--mean-interval", "6",
          "--sizes"], "recover_publications20_interval6_sizes.txt"),
    ])
    def test_byte_for_byte(self, argv, fixture, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out \
            == (FIXTURES / fixture).read_text()
