"""Command-line interface: run the paper's experiments from a shell.

``python -m repro <command>`` regenerates a single table/figure or runs
the demo, without going through pytest. Useful for quick looks and for
scripting sweeps with custom sizes.

Commands::

    demo                     the quickstart pub/sub flow
    table1                   workload recipes and generated statistics
    fig5 [--sizes ...]       encryption + enclave overhead (e100a1)
    fig6 [--sizes ...]       all nine workloads, plaintext
    fig7 [--sizes ...]       SCBR vs ASPE per workload
    fig8 [--subs N]          the EPC paging cliff
    ablations                containment + Bloom pre-filter ablations
    workloads                shape statistics of the nine datasets
    metrics                  fault-injected run + router metrics dump
    recover                  crash-recovery soak + latency sweep
    dlq                      dead-letter quarantine + requeue demo
    bench [--record|--list]  serial vs process cluster wall-clock run
    overlay [--record]       multi-broker overlay vs the flat router
    churn [--record]         membership chaos: partitions, churn, crashes
    hotpath [--record]       crypto/envelope/matcher wall-clock suite
    ingress [--record]       open-loop ingress load suite (overload)
    sharding [--record]      EPC cliff vs EPC-aware sharded cluster
    profile [--top N]        cProfile the seeded hot-path workload
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench import hotpath, ingress, sharding
from repro.bench.experiments import (default_subscription_sizes,
                                     run_containment_ablation, run_fig5,
                                     run_fig6, run_fig7, run_fig8,
                                     run_prefilter_ablation)
from repro.bench.report import format_series_chart, format_table

__all__ = ["main"]


def _sizes_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=None,
        help="subscription counts to sweep (default: "
             f"{default_subscription_sizes()})")


def _publications_argument(parser: argparse.ArgumentParser,
                           default: int) -> None:
    parser.add_argument("--publications", type=int, default=default,
                        help="publications per measurement")


def _csv_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--csv", default=None, metavar="PATH",
                        help="also write raw measurements as CSV")


def _maybe_export(rows, path) -> None:
    if path:
        from repro.bench.export import write_measurements
        write_measurements(rows, path)
        print(f"wrote {path}")


def _provisioned_world(bus, **router_kwargs):
    """One attested, provisioned router on ``bus``: platform,
    attestation service, vendor key, enclave measurement, router,
    service provider, provisioning, publisher — in that order.
    Returns ``(platform, router, provider, publisher)``."""
    from repro import SgxPlatform
    from repro.core import (Publisher, Router, ScbrEnclaveLibrary,
                            ServiceProvider)
    from repro.crypto.rsa import generate_keypair
    from repro.sgx import AttestationService, EnclaveBuilder

    platform = SgxPlatform()
    service = AttestationService()
    service.register_platform(platform)
    vendor = generate_keypair(bits=1024)
    expected = EnclaveBuilder(platform, ScbrEnclaveLibrary).measure()
    router = Router(bus, platform, vendor, **router_kwargs)
    provider = ServiceProvider(bus, rsa_bits=1024,
                               attestation_service=service,
                               expected_mr_enclave=expected)
    provider.provision_router(router)
    publisher = Publisher(bus, provider.keys, provider.group)
    return platform, router, provider, publisher


def _subscribe_without_endpoint(provider, name: str):
    """Admit ``name`` and file its ``symbol == HAL`` subscription
    through the provider, without opening a bus endpoint: every
    delivery to it exhausts its retry schedule and is dead-lettered.
    Returns the admission, for a later connect."""
    from repro.core.messages import encode_subscription, hybrid_encrypt
    from repro.core.protocol import build_subscription_request
    from repro.matching.subscriptions import Subscription
    admission = provider.admit_client(name)
    blob = encode_subscription(Subscription.parse({"symbol": "HAL"}))
    provider.endpoint.send("provider", [build_subscription_request(
        name, hybrid_encrypt(provider.keys.public_key, blob,
                             aad=name.encode()))])
    return admission


def _run_demo(_args: argparse.Namespace) -> int:
    # Local import: keeps CLI startup fast for the other commands.
    from repro import MessageBus
    from repro.core import Client

    bus = MessageBus()
    platform, router, provider, publisher = _provisioned_world(bus)
    alice = Client(bus, "alice", provider.keys.public_key)
    alice.process_admission(provider.admit_client("alice"))
    alice.subscribe("provider", {"symbol": "HAL", "price": ("<", 50.0)})
    provider.pump("router")
    router.pump()
    publisher.publish("router", {"symbol": "HAL", "price": 48.5},
                      b"HAL below 50")
    router.pump()
    alice.pump()
    print(f"alice received: {alice.received}")
    print(f"simulated platform time: {platform.simulated_us():.1f} us")
    return 0


def _run_metrics(args: argparse.Namespace) -> int:
    """Robustness demo: seeded faults, retries, DLQ, metrics dump."""
    from repro import FaultPlan, LinkFaults, MessageBus, MetricsRegistry
    from repro.bench.report import format_metrics
    from repro.core import Client, RetryPolicy
    from repro.core.protocol import build_deliver

    registry = MetricsRegistry()
    plan = FaultPlan(seed=args.seed).on_link(
        "publisher", "router", LinkFaults(drop=args.drop))
    bus = MessageBus(fault_plan=plan, metrics=registry)
    _, router, provider, publisher = _provisioned_world(
        bus, metrics=registry, retry_policy=RetryPolicy(max_attempts=3))

    alice = Client(bus, "alice", provider.keys.public_key)
    alice.process_admission(provider.admit_client("alice"))
    alice.subscribe("provider", {"symbol": "HAL"})
    _subscribe_without_endpoint(provider, "ghost")
    provider.pump("router")
    router.pump()

    # Hostile traffic: a frame the router cannot parse, and one of a
    # type it never expects — both must be quarantined, not fatal.
    mallory = bus.endpoint("mallory")
    mallory.send("router", [b"PUB:!!this is not base64!!"])
    mallory.send("router", [build_deliver(b"misdirected")])

    for index in range(args.publications):
        publisher.publish("router", {"symbol": "HAL", "price": 40.0
                                     + index}, b"tick %d" % index)
        router.pump()
        alice.pump()
    router.pump()  # drain mallory's frames even with 0 publications
    router.drain_retries()

    stats = router.stats()
    print(f"publications sent: {args.publications}  "
          f"(link drop rate {args.drop:.0%}, seed {args.seed})")
    print(f"arrived at router: {router.publications}   "
          f"dropped on the wire: {bus.dropped_messages}")
    print(f"delivered to alice: {len(alice.received)}   "
          f"dead-lettered: {stats['dead_letters_by_reason']}")
    print()
    print(format_metrics(stats["metrics"],
                         title="fabric metrics (seeded run)"))
    return 0


def _run_recover(args: argparse.Namespace) -> int:
    """Crash-recovery demo: seeded enclave deaths under live traffic,
    then the recovery-latency sweep."""
    from repro import (CrashSchedule, MessageBus, MetricsRegistry,
                       RouterSupervisor)
    from repro.bench.experiments import run_recovery_latency
    from repro.bench.report import format_metrics
    from repro.core import Client, RetryPolicy

    registry = MetricsRegistry()
    bus = MessageBus(metrics=registry)
    _, router, provider, publisher = _provisioned_world(
        bus, metrics=registry, retry_policy=RetryPolicy(max_attempts=3))
    supervisor = RouterSupervisor(
        router, provider.provision_router,
        schedule=CrashSchedule(seed=args.seed,
                               mean_interval=args.mean_interval),
        checkpoint_interval=args.checkpoint_interval)
    alice = Client(bus, "alice", provider.keys.public_key)
    alice.process_admission(provider.admit_client("alice"))
    alice.subscribe("provider", {"symbol": "HAL"})
    provider.pump("router")
    supervisor.pump()
    for index in range(args.publications):
        publisher.publish("router", {"symbol": "HAL",
                                     "price": 40.0 + index},
                          b"tick %d" % index)
        supervisor.pump()
        alice.pump()
    supervisor.run(8)
    alice.pump()

    metrics = router.metrics.snapshot()
    crashes = metrics["recovery.crashes_total"]
    print(f"publications sent: {args.publications}  (crash seed "
          f"{args.seed}, mean interval {args.mean_interval} ecalls)")
    print(f"enclave deaths: {crashes}   recoveries: "
          f"{metrics['recovery.recoveries_total']}   delivered to "
          f"alice: {len(alice.received)}")
    print()
    recovery = {name: value for name, value in metrics.items()
                if name.startswith("recovery.")}
    print(format_metrics(recovery, title="recovery metrics"))

    if args.sizes != []:
        print()
        points = run_recovery_latency(sizes=args.sizes)
        print(format_table(
            ["subs", "sealed", "replayed", "blob KiB", "recovery us"],
            [[p.n_subscriptions, p.checkpointed, p.wal_replayed,
              round(p.checkpoint_bytes / 1024, 1),
              round(p.recovery_us, 1)] for p in points],
            title="recovery latency vs subscription count"))
    return 0


def _run_dlq(args: argparse.Namespace) -> int:
    """Dead-letter demo: quarantine deliveries to an absent subscriber,
    then requeue them once it connects."""
    from repro import MessageBus, MetricsRegistry
    from repro.core import Client, RetryPolicy

    registry = MetricsRegistry()
    bus = MessageBus(metrics=registry)
    _, router, provider, publisher = _provisioned_world(
        bus, metrics=registry, retry_policy=RetryPolicy(max_attempts=2))

    # bob subscribes but has no endpoint yet: every delivery to him is
    # quarantined with its destination recorded.
    admission = _subscribe_without_endpoint(provider, "bob")
    provider.pump("router")
    router.pump()
    for index in range(args.publications):
        publisher.publish("router", {"symbol": "HAL",
                                     "price": 40.0 + index},
                          b"tick %d" % index)
        router.pump()
    router.drain_retries()
    held = len(router.dead_letters)
    print(f"bob offline: {held} deliveries quarantined "
          f"({dict(router.dead_letters.counts_by_reason)})")

    # Now bob connects (the endpoint exists) and the operator requeues.
    bob = Client(bus, "bob", provider.keys.public_key)
    bob.process_admission(admission)
    requeued = router.requeue_dead_letters()
    bob.pump()
    print(f"bob connected: requeued {requeued}, bob received "
          f"{len(bob.received)}, dead letters now "
          f"{len(router.dead_letters)}")
    return 0


def _run_bench(args: argparse.Namespace) -> int:
    """Serial vs process cluster backends, wall-clock trajectory."""
    if args.list:
        from repro.bench.export import list_benches
        records = list_benches(args.out)
        if not records:
            print(f"no BENCH_*.json records under {args.out!r}")
            return 0
        rows = []
        for entry in records:
            rows.append([entry["name"],
                         entry.get("python") or "-",
                         entry.get("cpu_count") or "-",
                         (entry.get("git_sha") or "-")[:12],
                         entry.get("error", "")])
        print(format_table(
            ["bench", "python", "cpus", "git sha", ""], rows,
            title=f"recorded benches in {args.out}"))
        return 0
    from repro.bench.parallel import run_parallel_bench
    result = run_parallel_bench(
        name=args.name, workload=args.workload,
        n_subscriptions=args.subs, n_events=args.events,
        n_slices=args.slices, batch_size=args.batch,
        assignment=args.assignment)
    table = [[run.backend, run.n_events,
              run.throughput_eps, run.p50_wall_us, run.p99_wall_us,
              run.simulated_mean_us] for run in result.runs]
    print(format_table(
        ["backend", "events", "events/s", "p50 us", "p99 us",
         "sim us"], table,
        title=f"cluster backends — {args.workload}, "
              f"{result.n_subscriptions} subs, {args.slices} slices"))
    print(f"cpu cores available: {result.cpu_cores}   "
          f"speedup (process/serial): {result.speedup}x")
    print(f"match sets identical: {result.match_sets_identical}   "
          f"simulated latencies identical: "
          f"{result.simulated_latencies_identical}")
    if args.record:
        from repro.bench.export import record_bench
        path = record_bench(result.name, result, directory=args.out)
        print(f"wrote {path}")
    if not (result.match_sets_identical
            and result.simulated_latencies_identical):
        return 1
    return 0


def _run_overlay(args: argparse.Namespace) -> int:
    """Overlay routing: flat-oracle equivalence + traffic savings."""
    from repro.bench.overlay import run_overlay_bench
    result = run_overlay_bench(name=args.name, seed=args.seed,
                               n_clients=args.clients,
                               n_publications=args.publications)
    table = [[run.shape, run.n_brokers, run.n_links,
              run.publications_forwarded, run.publications_suppressed,
              run.adverts_sent, run.adverts_suppressed,
              run.deliveries,
              "yes" if run.equivalent_to_flat else "NO"]
             for run in result.runs]
    print(format_table(
        ["topology", "brokers", "links", "fwd", "fwd-saved",
         "adverts", "adv-saved", "delivered", "=flat"], table,
        title=f"overlay routing — seed {result.seed}, "
              f"{result.n_clients} clients, "
              f"{result.n_publications} publications"))
    print(f"cpu cores available: {result.cpu_cores}   "
          f"python: {result.python_version}")
    print(f"all topologies byte-equal to the flat router: "
          f"{result.all_equivalent}   "
          f"covering gate saved traffic: {result.suppression_observed}")
    if args.record:
        from repro.bench.export import record_bench
        path = record_bench(result.name, result, directory=args.out)
        print(f"wrote {path}")
    return 0 if result.all_equivalent else 1


def _run_churn(args: argparse.Namespace) -> int:
    """Membership chaos: oracle equivalence + delta reconciliation."""
    from repro.bench.churn import run_churn_bench
    result = run_churn_bench(name=args.name, seed=args.seed,
                             n_clients=args.clients,
                             n_publications=args.publications)
    table = [[run.shape, run.mode, run.n_brokers,
              run.events["sever"], run.events["join"],
              run.events["leave"], run.events["crash"],
              run.heal_convergence_rounds, run.advert_bytes,
              run.link_down_dead_letters, run.dead_letters_requeued,
              run.deliveries, run.deliveries_lost,
              run.deliveries_duplicated,
              "yes" if run.equivalent else "NO"]
             for run in result.runs]
    print(format_table(
        ["topology", "mode", "brokers", "severs", "joins", "leaves",
         "crashes", "heal-rounds", "adv-bytes", "dlq'd", "requeued",
         "delivered", "lost", "dup", "=flat"], table,
        title=f"membership chaos — seed {result.seed}, "
              f"{result.n_clients} clients, "
              f"{result.n_publications} publications"))
    print(f"zero lost: {result.zero_lost}   "
          f"zero duplicated: {result.zero_duplicated}   "
          f"delta reconciliation beat full reflood: "
          f"{result.delta_saves_bytes}")
    if args.record:
        from repro.bench.export import record_bench
        path = record_bench(result.name, result, directory=args.out)
        print(f"wrote {path}")
    ok = (result.zero_lost and result.zero_duplicated
          and result.delta_saves_bytes)
    return 0 if ok else 1


def _run_profile(args: argparse.Namespace) -> int:
    """cProfile the seeded hot-path workload; top-N cumulative table.

    The separation matters for interpreting the output: *simulated*
    cycles (the paper-faithful numbers) are unaffected by anything
    here — this profile shows where real CPU time goes, which is what
    the wall-clock optimisation work targets.
    """
    import cProfile
    import pstats

    from repro.bench.hotpath import run_hotpath_bench

    profiler = cProfile.Profile()
    profiler.enable()
    measurements = run_hotpath_bench(
        reduced=not args.full, matcher_backend=args.matcher_backend)
    profiler.disable()

    print(f"seeded workload: {measurements['envelopes_per_s']:,.0f} "
          f"envelopes/s end-to-end, "
          f"{measurements['aes_ctr_mbps']:.2f} MB/s AES-CTR, "
          f"{measurements['matcher_events_per_s']:,.0f} matcher "
          f"events/s ({args.matcher_backend})")
    print()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    return 0


def _run_table1(_args: argparse.Namespace) -> int:
    from repro.workloads.datasets import (build_dataset,
                                          dataset_statistics)
    from repro.workloads.spec import WORKLOADS, workload_names
    rows = []
    for name in workload_names():
        dataset = build_dataset(name, 1500, 10)
        stats = dataset_statistics(dataset)
        spec = WORKLOADS[name]
        rows.append([name,
                     " ".join(f"{int(100 * p)}%:{k}eq" for k, p in
                              sorted(spec.equality_mix.items())),
                     f"{stats['min_pub_attributes']}-"
                     f"{stats['max_pub_attributes']}",
                     spec.distribution,
                     stats["distinct_subscriptions"]])
    print(format_table(
        ["workload", "equality mix", "pub attrs", "distribution",
         "distinct"], rows, title="Table 1 workload recipes"))
    return 0


def _run_fig5(args: argparse.Namespace) -> int:
    rows = run_fig5(sizes=args.sizes, n_publications=args.publications)
    _maybe_export(rows, args.csv)
    by_size = {}
    for m in rows:
        by_size.setdefault(m.n_subscriptions, {})[m.configuration] = m
    table = []
    for size in sorted(by_size):
        cfgs = by_size[size]
        table.append([size] + [round(cfgs[c].mean_us, 1) for c in
                               ("in-aes", "in-plain", "out-aes",
                                "out-plain")]
                     + [f"{cfgs['out-aes'].llc_miss_rate * 100:.0f}%"])
    print(format_table(["subs", "in-aes", "in-plain", "out-aes",
                        "out-plain", "miss"], table,
                       title="Figure 5 (simulated us/match)"))
    return 0


def _run_fig6(args: argparse.Namespace) -> int:
    rows = run_fig6(sizes=args.sizes, n_publications=args.publications)
    _maybe_export(rows, args.csv)
    series = {}
    for m in rows:
        series.setdefault(m.workload, {})[m.n_subscriptions] = m.mean_us
    sizes = sorted({m.n_subscriptions for m in rows})
    table = [[name] + [round(series[name][s], 1) for s in sizes]
             for name in series]
    print(format_table(["workload"] + [str(s) for s in sizes], table,
                       title="Figure 6 (simulated us/match)"))
    print()
    print(format_series_chart(series, title="Figure 6 (log-log)"))
    return 0


def _run_fig7(args: argparse.Namespace) -> int:
    rows = run_fig7(sizes=args.sizes, n_publications=args.publications)
    _maybe_export(rows, args.csv)
    data = {}
    for m in rows:
        data.setdefault(m.workload, {}).setdefault(
            m.configuration, {})[m.n_subscriptions] = m
    for name, series in data.items():
        sizes = sorted(series["out-aes"])
        table = [[s, round(series["out-aspe"][s].mean_us, 1),
                  round(series["in-aes"][s].mean_us, 1),
                  round(series["out-aes"][s].mean_us, 1)]
                 for s in sizes]
        print(format_table(["subs", "out-aspe", "in-aes", "out-aes"],
                           table, title=f"Figure 7 — {name}"))
        print()
    return 0


def _run_fig8(args: argparse.Namespace) -> int:
    points = run_fig8(n_subscriptions=args.subs)
    table = [[round(p.db_bytes / 2 ** 20, 2),
              round(p.time_ratio_in_out, 1),
              round(p.fault_ratio_in_out, 1)] for p in points]
    print(format_table(["DB MiB", "time in/out", "faults in/out"],
                       table, title="Figure 8 ratios"))
    return 0


def _run_ablations(args: argparse.Namespace) -> int:
    rows = run_containment_ablation(sizes=args.sizes)
    print(format_table(
        ["subs", "poset us", "naive us"],
        [[s, round(p, 1), round(n, 1)] for s, p, n in rows],
        title="Containment ablation"))
    print()
    rows = run_prefilter_ablation(sizes=args.sizes)
    print(format_table(
        ["subs", "aspe us", "aspe+bloom us"],
        [[s, round(p, 1), round(b, 1)] for s, p, b in rows],
        title="ASPE Bloom pre-filter ablation"))
    return 0


def _run_workloads(_args: argparse.Namespace) -> int:
    from repro.matching.poset import ContainmentForest
    from repro.matching.stats import forest_stats
    from repro.workloads.datasets import build_dataset
    from repro.workloads.spec import workload_names
    rows = []
    for name in workload_names():
        dataset = build_dataset(name, 2000, 5)
        forest = ContainmentForest()
        for index, subscription in enumerate(dataset.subscriptions):
            forest.insert(subscription, index)
        stats = forest_stats(forest)
        rows.append([name, stats.n_roots,
                     f"{stats.max_depth}/{stats.mean_depth:.2f}",
                     f"{stats.containment_ratio:.3f}",
                     stats.index_bytes // 1024])
    print(format_table(
        ["workload", "roots", "depth max/mean", "containment",
         "index KiB"], rows,
        title="Index shapes at 2000 subscriptions"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SCBR reproduction — regenerate the paper's "
                    "tables and figures")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="quickstart pub/sub flow") \
        .set_defaults(func=_run_demo)
    sub.add_parser("table1", help="Table 1 workload recipes") \
        .set_defaults(func=_run_table1)

    p5 = sub.add_parser("fig5", help="encryption + enclave overhead")
    _sizes_argument(p5)
    _publications_argument(p5, 25)
    _csv_argument(p5)
    p5.set_defaults(func=_run_fig5)

    p6 = sub.add_parser("fig6", help="workload comparison (plaintext)")
    _sizes_argument(p6)
    _publications_argument(p6, 20)
    _csv_argument(p6)
    p6.set_defaults(func=_run_fig6)

    p7 = sub.add_parser("fig7", help="SCBR vs ASPE")
    _sizes_argument(p7)
    _publications_argument(p7, 12)
    _csv_argument(p7)
    p7.set_defaults(func=_run_fig7)

    p8 = sub.add_parser("fig8", help="EPC paging cliff")
    p8.add_argument("--subs", type=int, default=None,
                    help="subscriptions to register")
    p8.set_defaults(func=_run_fig8)

    pa = sub.add_parser("ablations", help="design-choice ablations")
    _sizes_argument(pa)
    pa.set_defaults(func=_run_ablations)

    sub.add_parser("workloads", help="index shapes per workload") \
        .set_defaults(func=_run_workloads)

    pm = sub.add_parser(
        "metrics", help="fault-injected run + router metrics dump")
    _publications_argument(pm, 20)
    pm.add_argument("--seed", type=int, default=7,
                    help="fault-plan RNG seed")
    pm.add_argument("--drop", type=float, default=0.25,
                    help="publisher->router drop probability")
    pm.set_defaults(func=_run_metrics)

    pr = sub.add_parser(
        "recover", help="crash-recovery soak + latency sweep")
    _publications_argument(pr, 30)
    pr.add_argument("--seed", type=int, default=11,
                    help="crash-schedule RNG seed")
    pr.add_argument("--mean-interval", type=int, default=8,
                    help="mean ecalls between enclave deaths")
    pr.add_argument("--checkpoint-interval", type=int, default=4,
                    help="WAL records between sealed checkpoints")
    pr.add_argument("--sizes", type=int, nargs="*", default=None,
                    metavar="N",
                    help="recovery-latency sweep sizes (pass no "
                         "values to skip the sweep)")
    pr.set_defaults(func=_run_recover)

    pd = sub.add_parser(
        "dlq", help="dead-letter quarantine + requeue demo")
    _publications_argument(pd, 8)
    pd.set_defaults(func=_run_dlq)

    pb = sub.add_parser(
        "bench", help="serial vs process cluster wall-clock run")
    pb.add_argument("--name", default="parallel_cluster",
                    help="record name (BENCH_<name>.json)")
    pb.add_argument("--workload", default="e80a1",
                    help="workload recipe (Table 1 name)")
    pb.add_argument("--subs", type=int, default=2000,
                    help="subscriptions to register")
    pb.add_argument("--events", type=int, default=600,
                    help="publications to match")
    pb.add_argument("--slices", type=int, default=4,
                    help="matcher slices in the cluster")
    pb.add_argument("--batch", type=int, default=50,
                    help="publications per fan-out batch")
    pb.add_argument("--assignment", default="round-robin",
                    choices=("round-robin", "symbol-hash"),
                    help="slice assignment policy")
    pb.add_argument("--record", action="store_true",
                    help="write BENCH_<name>.json")
    pb.add_argument("--out", default=".", metavar="DIR",
                    help="directory for the recorded JSON")
    pb.add_argument("--list", action="store_true",
                    help="enumerate recorded BENCH_*.json and exit")
    pb.set_defaults(func=_run_bench)

    po = sub.add_parser(
        "overlay", help="multi-broker overlay vs the flat router")
    po.add_argument("--name", default="overlay",
                    help="record name (BENCH_<name>.json)")
    po.add_argument("--seed", type=int, default=2016,
                    help="workload + topology seed")
    po.add_argument("--clients", type=int, default=6,
                    help="subscribing clients per topology")
    po.add_argument("--publications", type=int, default=20,
                    help="publications per topology")
    po.add_argument("--record", action="store_true",
                    help="write BENCH_<name>.json")
    po.add_argument("--out", default=".", metavar="DIR",
                    help="directory for the recorded JSON")
    po.set_defaults(func=_run_overlay)

    pc = sub.add_parser(
        "churn", help="membership chaos: partitions, churn, crashes")
    pc.add_argument("--name", default="churn",
                    help="record name (BENCH_<name>.json)")
    pc.add_argument("--seed", type=int, default=2016,
                    help="workload + churn-schedule seed")
    pc.add_argument("--clients", type=int, default=8,
                    help="initial subscribing clients per topology")
    pc.add_argument("--publications", type=int, default=30,
                    help="publications per topology")
    pc.add_argument("--record", action="store_true",
                    help="write BENCH_<name>.json")
    pc.add_argument("--out", default=".", metavar="DIR",
                    help="directory for the recorded JSON")
    pc.set_defaults(func=_run_churn)

    # Suites runnable on their own (``python -m repro.bench.<name>``)
    # lend the verb their parser, so the two never drift apart.
    for verb, module, summary in (
            ("hotpath", hotpath,
             "crypto/envelope/matcher wall-clock suite"),
            ("ingress", ingress,
             "open-loop ingress load suite (1x/2x/5x overload)"),
            ("sharding", sharding,
             "EPC-exhaustion cliff vs EPC-aware sharded cluster with "
             "live migration")):
        sub.add_parser(verb, parents=[module.build_parser()],
                       add_help=False, help=summary) \
            .set_defaults(func=module.run)

    pp = sub.add_parser(
        "profile", help="cProfile the seeded hot-path workload")
    pp.add_argument("--top", type=int, default=25,
                    help="rows of the pstats table to print")
    pp.add_argument("--sort", default="cumulative",
                    choices=("cumulative", "tottime", "ncalls"),
                    help="pstats sort key")
    pp.add_argument("--full", action="store_true",
                    help="profile the full-size workload (slower)")
    pp.add_argument("--matcher-backend", default="both",
                    choices=("forest", "columnar", "both"),
                    help="matcher leg(s) to include in the profiled "
                         "workload")
    pp.set_defaults(func=_run_profile)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
