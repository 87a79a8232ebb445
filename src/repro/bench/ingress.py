"""Open-loop ingress load bench: offered rate, overload, tail latency.

Every other wall-clock bench in this repository is *closed-loop*: the
driver publishes, waits for the batch to finish, publishes again — so
the system is never offered more than it can serve and the measured
"latency" silently excludes all queueing. Real overload does not work
like that, and closed-loop numbers suffer *coordinated omission*: the
moments the broker stalls are exactly the moments the driver stops
timing.

This bench is **open-loop**: arrivals are pre-scheduled from an
offered *rate* (the client population does not slow down because the
broker is busy), and each envelope's latency is measured from its
*scheduled arrival* to its completion — queueing delay and shed
decisions included. The methodology follows the wave-shaped Locust
harnesses used by the muBench replication studies (ROADMAP item 1) and
the open-loop discipline of Göttel et al.'s memory-protection
trade-off papers (PAPERS.md):

1. estimate the broker's capacity with a short closed-loop drain;
2. replay Poisson / ramp / burst arrival schedules at 1x, 2x and 5x
   that capacity through the :class:`~repro.ingress.tier.IngressTier`;
3. report sustained envelopes/s, p50/p99/p999 completion latency, the
   shed accounting (exact: ``offered == accepted + shed`` at every
   point) and peak queue depth.

Under 1x the bounded inbox stays shallow and p99 stays bounded; under
2x/5x the inbox fills, admission control sheds the excess with a
reason, and the latency of what *is* served stays capped by the queue
bound — the backpressure story DESIGN.md §12 documents, measured.

Results land in ``BENCH_ingress.json`` via
:func:`~repro.bench.export.record_bench`; CI's ``ingress-smoke`` job
runs the reduced suite and fails on any conservation violation, any
lost accepted envelope, or an unbounded p99 at 1x offered load.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from repro.bench.export import record_bench
from repro.core.engine import ScbrEnclaveLibrary
from repro.core.provider import ServiceProvider
from repro.core.publisher import Publisher
from repro.core.router import Router
from repro.core.subscriber import Client
from repro.crypto.rsa import _generate_keypair_unchecked
from repro.ingress import IngressConfig, IngressTier
from repro.network.bus import MessageBus
from repro.obs.metrics import MetricsRegistry
from repro.sgx.attestation import AttestationService
from repro.sgx.enclave import EnclaveBuilder
from repro.sgx.platform import SgxPlatform

__all__ = ["run_ingress_bench", "build_world", "poisson_arrivals",
           "ramp_arrivals", "burst_arrivals", "BENCH_NAME"]

BENCH_NAME = "ingress"

#: Deterministic seed for world construction and arrival schedules.
_SEED = 20260808

_SYMBOLS = ("HAL", "IBM", "APL", "MSF", "ORC", "SUN")


class _World:
    """A provisioned router world the bench reuses across load points."""

    def __init__(self, router: Router, publisher: Publisher,
                 clients: List[Client], frame_pool: List[bytes]) -> None:
        self.router = router
        self.publisher = publisher
        self.clients = clients
        self.frame_pool = frame_pool


def build_world(n_subscribers: int, pool_size: int,
                rsa_bits: int = 768,
                matcher_backend: str = "columnar",
                seed: int = _SEED) -> _World:
    """Build one attested, provisioned router with live subscribers.

    Subscriptions and the pre-encrypted publication pool are drawn
    from a seeded RNG, so every run offers the identical byte
    sequence; fan-out is moderate (each publication matches the
    symbol's subscriber slice).
    """
    rng = np.random.default_rng(seed)
    registry = MetricsRegistry()
    bus = MessageBus(metrics=registry)
    platform = SgxPlatform(attestation_key_bits=768)
    attestation = AttestationService()
    attestation.register_platform(platform)
    vendor_key = _generate_keypair_unchecked(rsa_bits, 65537)
    expected = EnclaveBuilder(platform, ScbrEnclaveLibrary).measure()
    router = Router(bus, platform, vendor_key, rsa_bits=rsa_bits,
                    metrics=registry, matcher_backend=matcher_backend)
    provider = ServiceProvider(
        bus, rsa_bits=rsa_bits, attestation_service=attestation,
        expected_mr_enclave=expected)
    provider.provision_router(router)
    publisher = Publisher(bus, provider.keys, provider.group)

    clients: List[Client] = []
    for index in range(n_subscribers):
        name = f"sub{index:03d}"
        client = Client(bus, name, provider.keys.public_key)
        client.process_admission(provider.admit_client(name))
        symbol = _SYMBOLS[index % len(_SYMBOLS)]
        cutoff = float(rng.integers(40, 90))
        client.subscribe("provider",
                         {"symbol": symbol, "price": ("<", cutoff)})
        provider.pump("router")
        router.pump()
        clients.append(client)

    frame_pool = [
        publisher.make_publication(
            {"symbol": _SYMBOLS[int(rng.integers(len(_SYMBOLS)))],
             "price": float(rng.integers(20, 100))},
            b"payload-%06d" % index)
        for index in range(pool_size)]
    return _World(router, publisher, clients, frame_pool)


# -- arrival schedules ---------------------------------------------------------------


def poisson_arrivals(rate_eps: float, duration_s: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Sorted arrival times (s) of a Poisson process at ``rate_eps``."""
    n_draws = max(16, int(rate_eps * duration_s * 2))
    gaps = rng.exponential(1.0 / rate_eps, size=n_draws)
    times = np.cumsum(gaps)
    while times[-1] < duration_s:
        more = rng.exponential(1.0 / rate_eps, size=n_draws)
        times = np.concatenate([times, times[-1] + np.cumsum(more)])
    return times[times < duration_s]


def _piecewise_arrivals(segment_rates: List[float], duration_s: float,
                        rng: np.random.Generator) -> np.ndarray:
    """Poisson arrivals with a different rate per equal-length segment."""
    seg_len = duration_s / len(segment_rates)
    pieces = []
    for index, rate in enumerate(segment_rates):
        if rate <= 0:
            continue
        piece = poisson_arrivals(rate, seg_len, rng)
        pieces.append(piece + index * seg_len)
    return np.concatenate(pieces) if pieces else np.empty(0)


def ramp_arrivals(rate_eps: float, duration_s: float,
                  rng: np.random.Generator) -> np.ndarray:
    """Linear ramp from 0.25x to 1.75x the mean rate (8 segments)."""
    factors = np.linspace(0.25, 1.75, 8)
    return _piecewise_arrivals([rate_eps * f for f in factors],
                               duration_s, rng)


def burst_arrivals(rate_eps: float, duration_s: float,
                   rng: np.random.Generator) -> np.ndarray:
    """Square wave alternating 0.4x / 1.6x around the mean rate."""
    factors = [0.4, 1.6] * 3
    return _piecewise_arrivals([rate_eps * f for f in factors],
                               duration_s, rng)


_SCHEDULES = {
    "poisson": poisson_arrivals,
    "ramp": ramp_arrivals,
    "burst": burst_arrivals,
}


# -- measurement ---------------------------------------------------------------------


def _estimate_capacity(world: _World, batch_size: int,
                       n_probe: int) -> float:
    """Closed-loop service rate (envelopes/s): the 1x reference."""
    tier = IngressTier(world.router,
                       IngressConfig(inbox_capacity=n_probe,
                                     batch_size=batch_size),
                       metrics=MetricsRegistry())
    connection = tier.connect("probe")
    pool = world.frame_pool
    # Untimed warm-up pays first-touch faults and plane compilation.
    for index in range(min(batch_size, n_probe)):
        connection.submit(pool[index % len(pool)])
    tier.drain()
    for index in range(n_probe):
        connection.submit(pool[index % len(pool)])
    start = time.perf_counter()
    tier.drain()
    elapsed = time.perf_counter() - start
    _drain_clients(world)
    return n_probe / elapsed if elapsed > 0 else float(n_probe)


def _drain_clients(world: _World) -> None:
    for client in world.clients:
        client.pump()


def _run_point(world: _World, config: IngressConfig, schedule: str,
               multiplier: float, offered_rate: float,
               arrivals: np.ndarray,
               n_connections: int) -> Dict[str, object]:
    """Replay one arrival schedule open-loop; returns the point record."""
    tier = IngressTier(world.router, config,
                       metrics=MetricsRegistry())
    connections = [tier.connect(f"pub{i:02d}")
                   for i in range(n_connections)]
    pool = world.frame_pool
    n_arrivals = len(arrivals)

    latencies: List[float] = []
    completed_tokens: List[int] = []
    shed_count = [0]

    start = time.perf_counter()

    def on_complete(entry) -> None:
        token = entry.token
        latencies.append((time.perf_counter() - start)
                         - arrivals[token])
        completed_tokens.append(token)

    def on_shed(entry, reason) -> None:
        shed_count[0] += 1

    tier.on_complete = on_complete
    tier.on_shed = on_shed

    index = 0
    deliveries_before = world.router.deliveries
    while index < n_arrivals or tier.backlog:
        now = time.perf_counter() - start
        while index < n_arrivals and arrivals[index] <= now:
            connections[index % n_connections].submit(
                pool[index % len(pool)], token=index)
            index += 1
        if tier.backlog:
            tier.pump()
        elif index < n_arrivals:
            wait = arrivals[index] - (time.perf_counter() - start)
            if wait > 0:
                time.sleep(min(wait, 0.001))
    elapsed = time.perf_counter() - start
    world.router.drain_retries()
    _drain_clients(world)

    lat_ms = np.asarray(latencies) * 1e3
    offered = tier.offered
    accepted = tier.accepted
    shed = tier.shed
    conserved = (offered == accepted + shed and tier.backlog == 0
                 and shed == shed_count[0]
                 and shed == sum(tier.shed_by_reason.values()))
    lost = accepted - len(completed_tokens)
    duplicated = len(completed_tokens) - len(set(completed_tokens))
    return {
        "schedule": schedule,
        "multiplier": multiplier,
        "offered_rate_eps": round(offered_rate, 1),
        "duration_s": round(elapsed, 3),
        "offered": offered,
        "accepted": accepted,
        "shed": shed,
        "shed_by_reason": dict(tier.shed_by_reason),
        "conserved": conserved,
        "lost": lost,
        "duplicated": duplicated,
        "sustained_eps": round(accepted / elapsed, 1)
        if elapsed > 0 else 0.0,
        "accepted_fraction": round(accepted / offered, 4)
        if offered else 1.0,
        "p50_ms": round(float(np.percentile(lat_ms, 50)), 3)
        if len(lat_ms) else 0.0,
        "p99_ms": round(float(np.percentile(lat_ms, 99)), 3)
        if len(lat_ms) else 0.0,
        "p999_ms": round(float(np.percentile(lat_ms, 99.9)), 3)
        if len(lat_ms) else 0.0,
        "peak_queue_depth": tier.peak_queue_depth,
        "batches": tier.batches,
        "deliveries": world.router.deliveries - deliveries_before,
    }


def run_ingress_bench(reduced: bool = False,
                      matcher_backend: str = "columnar",
                      seed: int = _SEED) -> Dict[str, object]:
    """Run the full open-loop suite; returns the record dict."""
    if reduced:
        n_subscribers, pool_size, n_probe = 12, 64, 240
        duration_s, n_connections = 0.8, 4
        config = IngressConfig(inbox_capacity=256, batch_size=16)
    else:
        n_subscribers, pool_size, n_probe = 36, 128, 1200
        duration_s, n_connections = 3.0, 8
        config = IngressConfig(inbox_capacity=1024, batch_size=32)

    world = build_world(n_subscribers, pool_size,
                        matcher_backend=matcher_backend, seed=seed)
    capacity = _estimate_capacity(world, config.batch_size, n_probe)

    points: List[Dict[str, object]] = []
    plan = [("poisson", 1.0), ("poisson", 2.0), ("poisson", 5.0),
            ("ramp", 2.0), ("burst", 2.0)]
    rng = np.random.default_rng(seed + 1)
    for schedule, multiplier in plan:
        offered_rate = capacity * multiplier
        arrivals = np.sort(_SCHEDULES[schedule](offered_rate,
                                                duration_s, rng))
        points.append(_run_point(world, config, schedule, multiplier,
                                 offered_rate, arrivals,
                                 n_connections))

    record: Dict[str, object] = {
        "capacity_eps": round(capacity, 1),
        "matcher_backend": matcher_backend,
        "n_subscribers": n_subscribers,
        "config": {
            "inbox_capacity": config.inbox_capacity,
            "batch_size": config.batch_size,
            "shed_policy": config.shed_policy,
        },
        "reduced": reduced,
        "seed": seed,
        "points": points,
        "all_conserved": all(p["conserved"] for p in points),
        "zero_lost": all(p["lost"] == 0 and p["duplicated"] == 0
                         for p in points),
    }
    return record


def _print_record(record: Dict[str, object]) -> None:
    print(f"closed-loop capacity: {record['capacity_eps']:,.0f} "
          f"envelopes/s  (backend={record['matcher_backend']}, "
          f"{record['n_subscribers']} subscribers)")
    header = (f"  {'schedule':8s} {'load':>5s} {'offered':>8s} "
              f"{'accepted':>8s} {'shed':>7s} {'sust eps':>9s} "
              f"{'p50 ms':>8s} {'p99 ms':>8s} {'p999 ms':>9s} "
              f"{'depth':>6s}")
    print(header)
    for p in record["points"]:
        print(f"  {p['schedule']:8s} {p['multiplier']:>4.0f}x "
              f"{p['offered']:>8,d} {p['accepted']:>8,d} "
              f"{p['shed']:>7,d} {p['sustained_eps']:>9,.0f} "
              f"{p['p50_ms']:>8.2f} {p['p99_ms']:>8.2f} "
              f"{p['p999_ms']:>9.2f} {p['peak_queue_depth']:>6,d}")
    print(f"  conservation exact at every point: "
          f"{record['all_conserved']}; zero lost/duplicated: "
          f"{record['zero_lost']}")


def build_parser() -> argparse.ArgumentParser:
    """The suite's options (``repro ingress`` takes them as a parent)."""
    parser = argparse.ArgumentParser(
        prog="repro.bench.ingress",
        description="open-loop ingress load bench (offered-rate "
                    "driven, 1x/2x/5x overload)")
    parser.add_argument("--reduced", action="store_true",
                        help="smaller sizes for CI smoke runs")
    parser.add_argument("--record", action="store_true",
                        help="write BENCH_ingress.json")
    parser.add_argument("--out", default=".",
                        help="directory for BENCH_ingress.json")
    parser.add_argument("--matcher-backend",
                        choices=("forest", "columnar"),
                        default="columnar")
    parser.add_argument("--seed", type=int, default=_SEED)
    return parser


def run(args: argparse.Namespace) -> int:
    """Run the suite with parsed options; the exit status."""
    record = run_ingress_bench(reduced=args.reduced,
                               matcher_backend=args.matcher_backend,
                               seed=args.seed)
    _print_record(record)
    if args.record:
        written = record_bench(BENCH_NAME, record, directory=args.out)
        print(f"recorded {written}")

    failures = []
    if not record["all_conserved"]:
        failures.append("shed accounting did not conserve "
                        "(offered != accepted + shed at some point)")
    if not record["zero_lost"]:
        failures.append("an accepted envelope was lost or duplicated")
    for point in record["points"]:
        if point["schedule"] == "poisson" \
                and point["multiplier"] == 1.0:
            # At 1x offered load the queue must not grow without
            # bound: p99 bounded by half the run duration is a loose,
            # runner-speed-tolerant stability floor.
            limit_ms = point["duration_s"] * 1e3 / 2
            if point["p99_ms"] > limit_ms:
                failures.append(
                    f"p99 at 1x offered load is {point['p99_ms']:.0f} "
                    f"ms (> {limit_ms:.0f} ms): queue is unstable at "
                    f"nominal capacity")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
