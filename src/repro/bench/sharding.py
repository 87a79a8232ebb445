"""The Fig. 8 cliff vs EPC-aware sharding: flat latency at 1M subs.

The paper's headline result is the EPC-exhaustion cliff: once the
matching structures outgrow usable EPC (~90 MB on the paper's
machine), every event's index walk thrashes pages through EWB/ELD and
per-event latency inflects by an order of magnitude (Fig. 8 measures
~18x). This bench reproduces the cliff *and* the production answer in
one sweep:

* the **unsharded arm** is a single :class:`MatcherSlice` growing past
  the cliff: per-event p50/p99 and the EPC fault rate climb together
  once its index outgrows the (scaled) usable EPC;
* the **sharded arm** is a :class:`MatcherCluster` under an EPC-aware
  :class:`ShardingPolicy`: placement is least-loaded, the autoscaler
  splits/grows before any slice's working set crosses the threshold,
  and splits run as live migrations (sealed checkpoint + WAL-suffix
  replay + atomic routing flip). Its per-event latency stays flat to
  a million subscriptions because no slice ever crosses the cliff.

Both arms register the *same* lazily-generated subscription stream
(``SubscriptionGenerator.generate_many`` — the million-entry workload
is never materialised), and while the unsharded arm is still within
its cap the two arms' match sets are compared event-for-event — which
also proves every live migration along the way preserved them.

EPC geometry is scaled (``scaled_spec``) so the cliff lands inside a
Python-sized sweep, exactly like the fig8 experiment: curve *shapes*
are preserved, absolute sizes shrink. ``SCBR_SHARDING_SUBS`` bounds
the sweep for CI smoke runs; all geometry derives from the bound so
the reduced run crosses the same cliff.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from repro.bench.export import record_bench
from repro.bench.report import format_metrics, format_table
from repro.core.cluster import MatcherCluster, MatcherSlice
from repro.core.sharding import ShardingPolicy
from repro.obs.metrics import MetricsRegistry
from repro.sgx.cpu import scaled_spec
from repro.workloads.datasets import _quotes_cached
from repro.workloads.spec import get_workload
from repro.workloads.subscriptions_gen import (SubscriptionGenerator,
                                               merged_events)

__all__ = ["run_sharding_bench", "main", "BENCH_NAME"]

BENCH_NAME = "sharding"
_SEED = 2016
#: modelled index bytes per e80a1 subscription (measured ~390; the
#: geometry only needs the right order of magnitude — the cliff
#: position is read off the sweep, not assumed).
_BYTES_PER_SUB = 400


def _percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile (no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def _default_points(max_subs: int) -> List[int]:
    """Six geometric measurement sizes ending at ``max_subs``, placed
    so the unsharded arm's cliff (~max_subs/16 with the derived EPC
    geometry) falls between the first two points."""
    points = [max_subs // 32, max_subs // 16, max_subs // 8,
              max_subs // 4, max_subs // 2, max_subs]
    return [max(point, 64) for point in points]


def run_sharding_bench(max_subs: int = 1_000_000,
                       points: Optional[List[int]] = None,
                       unsharded_max: Optional[int] = None,
                       probes: int = 24,
                       chunk: Optional[int] = None,
                       seed: int = _SEED,
                       workload: str = "e80a1",
                       matcher_backend: str = "forest",
                       flat_ratio: float = 1.5,
                       cliff_ratio: float = 3.0,
                       progress: bool = False) -> Dict[str, object]:
    """Run the cliff-vs-flat sweep; returns the recordable dict."""
    if points is None:
        points = _default_points(max_subs)
    points = sorted(set(points))
    if unsharded_max is None:
        unsharded_max = max(points[0], max_subs // 4)
    if chunk is None:
        chunk = max(1_000, max_subs // 64)

    # EPC geometry scaled so the unsharded index crosses usable EPC
    # around points[1]; the split threshold is half of usable, so
    # slices stay well clear of the cliff.
    epc_usable = max(64 * 1024, _BYTES_PER_SUB * (max_subs // 16))
    epc_reserved = epc_usable // 4
    spec = scaled_spec(llc_bytes=256 * 1024,
                       epc_bytes=epc_usable + epc_reserved,
                       epc_reserved_bytes=epc_reserved)
    threshold = epc_usable // 2
    policy = ShardingPolicy(split_threshold_bytes=threshold,
                            grow_fill=0.75,
                            min_split_subscriptions=32,
                            max_slices=max(64, 4 * max_subs *
                                           _BYTES_PER_SUB
                                           // max(threshold, 1) + 8))

    workload_spec = get_workload(workload)
    collection = _quotes_cached(20000, 100, seed)
    generator = SubscriptionGenerator(collection, workload_spec,
                                      seed=seed + 11)
    rng = np.random.default_rng(seed + 7)
    probe_events = merged_events(
        collection, workload_spec.attribute_multiplier, probes, rng)

    metrics = MetricsRegistry()
    cluster = MatcherCluster(1, spec=spec, assignment="epc-aware",
                             matcher_backend=matcher_backend,
                             policy=policy, metrics=metrics)
    unsharded = MatcherSlice(0, spec, matcher_backend=matcher_backend)
    unsharded_faults_seen = 0

    def say(message: str) -> None:
        if progress:
            print(message, file=sys.stderr, flush=True)

    started = time.perf_counter()
    rows: List[Dict[str, object]] = []
    registered = 0
    stream = generator.generate_many(points[-1])
    for point in points:
        while registered < point:
            batch = min(chunk, point - registered)
            for _ in range(batch):
                subscription = next(stream)
                cluster.register(subscription, f"c{registered}")
                if registered < unsharded_max:
                    unsharded.register(subscription, f"c{registered}")
                registered += 1
            cluster.autoscale()

        # -- probe the sharded arm ----------------------------------
        cluster.warm()
        faults_before = sum(s.epc_faults
                            for s in cluster.slice_samples(refresh=True))
        cluster_results = cluster.match_batch(probe_events)
        samples = cluster.slice_samples(refresh=True)
        cluster_faults = sum(s.epc_faults for s in samples) \
            - faults_before
        cluster_lat = [r.latency_us for r in cluster_results]
        row: Dict[str, object] = {
            "subs": registered,
            "cluster": {
                "p50_us": _percentile(cluster_lat, 0.50),
                "p99_us": _percentile(cluster_lat, 0.99),
                "slices": cluster.n_slices,
                "epc_faults_per_event": cluster_faults / probes,
                "max_slice_bytes": max(s.working_set_bytes
                                       for s in samples),
                "migrations_completed": cluster.migrations_completed,
                "migrated_subscriptions":
                    cluster.migrated_subscriptions,
                "splits": cluster.splits,
                "grows": cluster.grows,
            },
            "unsharded": None,
            "match_sets_equal": None,
        }

        # -- probe the unsharded arm (while it is still growing) ----
        if registered <= unsharded_max:
            unsharded.warm()
            epc = unsharded.platform.memory.epc
            faults_before = epc.faults
            unsharded_sets = []
            unsharded_lat = []
            for event in probe_events:
                matched, elapsed = unsharded.match(event)
                unsharded_sets.append(matched)
                unsharded_lat.append(elapsed)
            unsharded_faults_seen = epc.faults - faults_before
            row["unsharded"] = {
                "p50_us": _percentile(unsharded_lat, 0.50),
                "p99_us": _percentile(unsharded_lat, 0.99),
                "epc_faults_per_event":
                    unsharded_faults_seen / probes,
                "index_bytes": unsharded.engine.index_bytes,
            }
            row["match_sets_equal"] = all(
                result.subscribers == expected
                for result, expected in zip(cluster_results,
                                            unsharded_sets))
        rows.append(row)
        say(f"  {registered:>9,d} subs: "
            f"cluster p50 {row['cluster']['p50_us']:.0f} us "
            f"({cluster.n_slices} slices)"
            + (f", unsharded p50 {row['unsharded']['p50_us']:.0f} us"
               if row["unsharded"] else ""))

    # -- gates ------------------------------------------------------
    unsharded_rows = [r for r in rows if r["unsharded"]]
    first_u, last_u = unsharded_rows[0], unsharded_rows[-1]
    cliff_latency_ratio = last_u["unsharded"]["p50_us"] \
        / max(first_u["unsharded"]["p50_us"], 1e-9)
    faults_first = first_u["unsharded"]["epc_faults_per_event"]
    faults_last = last_u["unsharded"]["epc_faults_per_event"]
    cliff_shown = cliff_latency_ratio >= cliff_ratio \
        and faults_last >= 20.0 * (faults_first + 1.0)

    # "Small-scale latency" is the second point: by then the cluster
    # has sharded at least once and slice occupancy is in its steady
    # band (the very first point can catch freshly-split half-full
    # slices, which would flatter the ratio).
    flat_reference = rows[min(1, len(rows) - 1)]["cluster"]["p50_us"]
    flat_max = max(r["cluster"]["p50_us"] for r in rows[1:]) \
        if len(rows) > 1 else flat_reference
    cluster_flat_ratio = flat_max / max(flat_reference, 1e-9)
    cluster_flat = cluster_flat_ratio <= flat_ratio

    equivalence_checked = [r for r in rows
                          if r["match_sets_equal"] is not None]
    match_sets_equal = bool(equivalence_checked) and all(
        r["match_sets_equal"] for r in equivalence_checked)

    record = {
        "config": {
            "max_subs": max_subs,
            "points": points,
            "unsharded_max": unsharded_max,
            "probes": probes,
            "chunk": chunk,
            "seed": seed,
            "workload": workload,
            "matcher_backend": matcher_backend,
            "epc_usable_bytes": epc_usable,
            "split_threshold_bytes": threshold,
            "flat_ratio_limit": flat_ratio,
            "cliff_ratio_limit": cliff_ratio,
        },
        "points": rows,
        "cluster_metrics": metrics.snapshot(),
        "gates": {
            "cliff_latency_ratio": cliff_latency_ratio,
            "cliff_shown": cliff_shown,
            "cluster_flat_ratio": cluster_flat_ratio,
            "cluster_flat": cluster_flat,
            "match_sets_equal": match_sets_equal,
            "equivalence_points": len(equivalence_checked),
        },
        "migrations": {
            "staged": cluster.migrations_staged,
            "completed": cluster.migrations_completed,
            "subscriptions_moved": cluster.migrated_subscriptions,
            "bytes_moved": cluster.migrated_bytes,
            "splits": cluster.splits,
            "grows": cluster.grows,
            "final_slices": cluster.n_slices,
        },
        "wall_seconds": round(time.perf_counter() - started, 1),
    }
    cluster.close()
    return record


def _print_record(record: Dict[str, object]) -> None:
    rows = []
    for point in record["points"]:
        c = point["cluster"]
        u = point["unsharded"]
        rows.append([
            point["subs"],
            f"{u['p50_us']:.0f}" if u else "-",
            f"{u['p99_us']:.0f}" if u else "-",
            f"{u['epc_faults_per_event']:.0f}" if u else "-",
            f"{c['p50_us']:.0f}", f"{c['p99_us']:.0f}",
            f"{c['epc_faults_per_event']:.0f}",
            c["slices"], c["migrations_completed"],
            {True: "yes", False: "NO", None: "-"}[
                point["match_sets_equal"]],
        ])
    print(format_table(
        ["subs", "flat p50us", "flat p99us", "flat flt/ev",
         "shard p50us", "shard p99us", "shard flt/ev", "slices",
         "migs", "sets=="],
        rows, title="EPC cliff (unsharded) vs EPC-aware sharding"))
    gates = record["gates"]
    migrations = record["migrations"]
    print(f"  unsharded latency inflection: "
          f"{gates['cliff_latency_ratio']:.1f}x "
          f"(cliff shown: {gates['cliff_shown']})")
    print(f"  sharded flatness: {gates['cluster_flat_ratio']:.2f}x of "
          f"small-scale latency (flat: {gates['cluster_flat']})")
    print(f"  match sets equal to unsharded engine at "
          f"{gates['equivalence_points']} shared points across "
          f"{migrations['completed']} live migrations "
          f"({migrations['subscriptions_moved']:,d} subscriptions "
          f"moved): {gates['match_sets_equal']}")
    print(f"  final topology: {migrations['final_slices']} slices "
          f"({migrations['splits']} splits, {migrations['grows']} "
          f"grows); wall {record['wall_seconds']}s")


def build_parser() -> argparse.ArgumentParser:
    """The sweep's options (``repro sharding`` takes them as a parent)."""
    parser = argparse.ArgumentParser(
        prog="repro.bench.sharding",
        description="EPC-exhaustion cliff vs EPC-aware sharded "
                    "cluster (Fig. 8 at scale)")
    parser.add_argument("--subs", type=int, default=1_000_000,
                        help="sweep ceiling (subscriptions)")
    parser.add_argument("--reduced", action="store_true",
                        help="small sweep for CI smoke runs "
                             "(SCBR_SHARDING_SUBS overrides the size)")
    parser.add_argument("--unsharded-max", type=int, default=None,
                        help="cap for the unsharded arm "
                             "(default: subs/4)")
    parser.add_argument("--probes", type=int, default=24,
                        help="probe events per measurement point")
    parser.add_argument("--seed", type=int, default=_SEED)
    parser.add_argument("--workload", default="e80a1")
    parser.add_argument("--matcher-backend",
                        choices=("forest", "columnar"),
                        default="forest")
    parser.add_argument("--record", action="store_true",
                        help="write BENCH_sharding.json")
    parser.add_argument("--out", default=".",
                        help="directory for BENCH_sharding.json")
    parser.add_argument("--require-flat", action="store_true",
                        help="exit non-zero unless the unsharded arm "
                             "shows the cliff, the cluster stays flat "
                             "and match sets stay equal")
    parser.add_argument("--flat-ratio", type=float, default=1.5)
    parser.add_argument("--cliff-ratio", type=float, default=3.0)
    parser.add_argument("--metrics", action="store_true",
                        help="also dump the cluster's gauge snapshot "
                             "(per-slice occupancy, migration counts)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-point progress")
    return parser


def run(args: argparse.Namespace) -> int:
    """Run the sweep with parsed options; the exit status."""
    max_subs = args.subs
    if args.reduced:
        max_subs = min(max_subs, 8_000)
    env_cap = os.environ.get("SCBR_SHARDING_SUBS")
    if env_cap:
        max_subs = int(env_cap)

    record = run_sharding_bench(
        max_subs=max_subs, unsharded_max=args.unsharded_max,
        probes=args.probes, seed=args.seed, workload=args.workload,
        matcher_backend=args.matcher_backend,
        flat_ratio=args.flat_ratio, cliff_ratio=args.cliff_ratio,
        progress=not args.quiet)
    _print_record(record)
    if args.metrics:
        print(format_metrics(record["cluster_metrics"],
                             title="cluster gauges at end of sweep",
                             prefix="cluster."))
    if args.record:
        written = record_bench(BENCH_NAME, record, directory=args.out)
        print(f"recorded {written}")

    failures = []
    gates = record["gates"]
    if not gates["match_sets_equal"]:
        failures.append("cluster match sets diverged from the "
                        "unsharded engine")
    if args.require_flat:
        if not gates["cliff_shown"]:
            failures.append(
                f"unsharded arm did not show the EPC cliff (latency "
                f"ratio {gates['cliff_latency_ratio']:.1f}x)")
        if not gates["cluster_flat"]:
            failures.append(
                f"sharded arm was not flat "
                f"({gates['cluster_flat_ratio']:.2f}x > "
                f"{args.flat_ratio}x of small-scale latency)")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
