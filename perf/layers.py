"""The per-layer ledger: trace nodes + work counters -> named metrics.

Every layer reports ``<layer>.calls``, ``<layer>.self_ms`` and
``<layer>.share`` (of the traced wall of the publication replay), plus
the work counters that say how much it did and how much of it was
waste. The names and units are those ``BENCHMARK.json`` lists under
``per_layer``; ``perf/README.md`` says which end-to-end metric each
one should move, and on which workload.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from perf.trace import DRIVER, LAYERS, layer_of, ledger

__all__ = ["layer_metrics", "SETUP_LAYERS"]

#: layers whose self time in the traced *set-up* is reported too:
#: the ones the REG path (verify -> open -> decode -> insert) runs.
SETUP_LAYERS = ("crypto.rsa", "matching.poset", "core.messages",
                "crypto.cmac", "matching.columnar", "recovery.wal")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _by_layer(rows: Dict[str, Dict[str, int]]
              ) -> Dict[str, Dict[str, int]]:
    layers: Dict[str, Dict[str, int]] = {}
    for name, row in rows.items():
        total = layers.setdefault(layer_of(name),
                                  {"calls": 0, "self_ns": 0})
        total["calls"] += row["calls"]
        total["self_ns"] += row["self_ns"]
    return layers


def layer_metrics(nodes: List[dict], run, replay,
                  counters: Dict[str, float],
                  gen_s: float, provision_s: float) -> Dict[str, float]:
    """``run`` is the untraced pass, ``replay`` the traced one;
    ``counters`` holds the system's own counters' growth over the
    replay."""
    rows = ledger(nodes, "chunk")
    empty = {"calls": 0, "self_ns": 0, "total_ns": 0, "weight": 0}
    root = rows.get(f"{DRIVER}:chunk", empty)
    wall_ns = root["total_ns"]
    layers = _by_layer(rows)
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        row = layers.get(layer, empty)
        metrics[f"{layer}.calls"] = row["calls"]
        metrics[f"{layer}.self_ms"] = row["self_ns"] / 1e6
        metrics[f"{layer}.share"] = _ratio(row["self_ns"], wall_ns)

    def call(name: str) -> Dict[str, int]:
        return rows.get(name, empty)

    tier = replay.tier_stats
    compiled = call("matching.columnar:ColumnarMatchPlane.ensure_compiled")
    metrics.update({
        "ingress.batch_size_mean": _ratio(tier.get("batched", 0),
                                          tier.get("batches", 0)),
        "ingress.queue_depth_peak": tier.get("queue_depth_peak", 0),
        "ingress.shed": replay.shed,
        "core.router.deliveries": counters["router.deliveries_total"],
        "core.router.dead_letters": counters["dead_letters"],
        "core.router.retries": counters["router.delivery_retries_total"],
        "core.protocol.bytes": sum(
            row["weight"] for name, row in rows.items()
            if layer_of(name) == "core.protocol"),
        "crypto.cmac.bytes": call("crypto.cmac:AesCmac.verify")["weight"],
        "crypto.ctr.bytes": call("crypto.ctr:AesCtr.process")["weight"]
        + call("crypto.ctr:AesCtr.process_many")["weight"],
        "sgx.enclave.ecalls": counters["ecalls"],
        "core.engine.memo_hit_ratio": _ratio(
            counters["engine.memo_hits_total"],
            counters["engine.match_total"]),
        "matching.poset.visited_mean": _ratio(
            counters["engine.match_visited.sum"],
            counters["engine.match_visited.count"]),
        "matching.poset.insert_ms": call(
            "matching.poset:ContainmentForest.insert")["total_ns"] / 1e6,
        "matching.columnar.compiles": compiled["weight"],
        "matching.columnar.compile_ms": compiled["total_ns"] / 1e6,
        "matching.columnar.matches_per_pub": _ratio(
            counters["router.match_fanout.sum"],
            counters["router.match_fanout.count"]),
        "sgx.memory.sim_cycles": counters["sim_cycles"],
        "sgx.memory.llc_miss_rate": _ratio(
            counters["llc_misses"],
            counters["llc_hits"] + counters["llc_misses"]),
        "sgx.memory.epc_faults": counters["epc_faults"],
        "network.bus.sends": counters["bus.messages_total"],
        "network.bus.bytes": counters["bus.bytes_total"],
        "recovery.wal.appends": call(
            "recovery.wal:WriteAheadLog.append")["calls"],
        "driver.self_ms": root["self_ns"] / 1e6,
        "gen.lag_ms_p99": float(np.percentile(run.lag_ms, 99))
        if run.lag_ms else 0.0,
        "gen_s": gen_s,
        "provision_s": provision_s,
        "p99_ms": float(np.percentile(run.latencies_ms, 99)),
    })
    # Traced over untraced time for the same work: per chunk in a
    # closed loop, per publication of busy time in the open one.
    if replay.chunk_times:
        same = run.chunk_times[:len(replay.chunk_times)]
        metrics["trace.overhead_ratio"] = _ratio(
            float(np.median(replay.chunk_times)), float(np.median(same)))
    else:
        metrics["trace.overhead_ratio"] = _ratio(
            replay.busy_s / replay.publications,
            run.busy_s / run.publications)

    setup = _by_layer(ledger(nodes, "setup"))
    for layer in SETUP_LAYERS:
        metrics[f"setup.{layer}.self_ms"] = \
            setup.get(layer, empty)["self_ns"] / 1e6
    return metrics
