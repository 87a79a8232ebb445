"""Wall-clock hot-path microbenchmarks: crypto + end-to-end + matcher.

Every simulated-cycles benchmark in this repository is deliberately
wall-clock-agnostic (DESIGN.md §2). This module is the opposite: it
measures the *real* throughput of the three wall-clock hot paths the
perf overhaul targets —

* ``aes_ctr_mbps`` — AES-CTR keystream+XOR throughput of the
  production :class:`repro.crypto.ctr.AesCtr`;
* ``reference_aes_ctr_mbps`` — the same workload through the pinned
  pure-loop :class:`repro.crypto.reference.ReferenceAesCtr`, so the
  speedup of the OpenSSL binding is measured in-process and cannot
  drift with hardware;
* ``cmac_mbps`` — AES-CMAC tag throughput, one message at a time (what
  ``open`` / ``open_many`` / ``tag`` / ``verify`` run);
* ``envelopes_per_s`` — end-to-end batched publications through a
  provisioned :class:`~repro.core.engine.ScbrEnclaveLibrary`
  (``match_publications`` ecall: CMAC verify, CTR decrypt, header
  decode, traced matching);
* ``matcher_events_per_s`` — arena-traced matching over a generated
  workload (the memory-model accounting path). Two legs share one
  forest: the per-event
  :meth:`~repro.matching.poset.ContainmentForest.match_traced` walk
  (``matcher_events_per_s_forest``) and the columnar batch plane
  (``matcher_events_per_s_columnar``, bursts of ``_MATCHER_BATCH``
  events); the headline key follows the columnar leg when it runs,
  and ``matcher_columnar_vs_forest`` records the in-process ratio;
* ``llc_batch_ns_per_line`` / ``llc_line_ns_per_line`` — the LLC
  model's cost per resident line through the batch entry point
  (:meth:`~repro.sgx.cache.CacheModel.access_lines`) given a list, and
  through one ``access_line`` call each; ``llc_batch_vs_line`` is
  their in-process ratio, ``llc_array_batch_ns_per_line`` the batch
  entry point given the same lines as an int64 array (what a poset
  walk hands over), and ``llc_thrash_ns_per_line`` the batch entry
  point's cost when every line misses and evicts (the per-line loop);
  ``llc_thrash_vs_reference`` divides that by
  ``llc_ref_thrash_ns_per_line``, the same sweep through the
  per-line ``OrderedDict`` LRU the model replaced
  (``tests/sgx/reference_lru.py`` pins it).

Results land in ``BENCH_hotpath.json`` in two phases so the speedup
claim is recorded against a baseline captured *on the same machine, in
the same file*:

* ``--phase baseline`` (run once, on the pre-optimisation tree)
  records the ``baseline`` section;
* ``--phase current`` (the default) records the ``current`` section,
  preserves any existing ``baseline``, and computes the ``speedup``
  ratios between them.

CI's ``hotpath-smoke`` job runs the reduced suite with
``--require-aes-vs-reference`` as an absolute in-process gate: the
production CTR path must beat the pinned reference regardless of what
the committed record says. ``--require-llc-batch-vs-line`` gates the
cache model's all-hit batch path against per-line calls the same way,
and ``--require-llc-thrash-vs-reference`` its miss path against the
per-line ``OrderedDict`` LRU.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.bench.export import bench_metadata, record_bench
from repro.core.engine import PROVISION_AAD, ScbrEnclaveLibrary
from repro.core.keys import ProviderKeyChain
from repro.core.messages import (decode_public_key, encode_header,
                                 encode_public_key, encode_subscription,
                                 hybrid_encrypt)
from repro.crypto.cmac import AesCmac
from repro.crypto.ctr import AesCtr
from repro.crypto.encoding import pack_fields
from repro.crypto.reference import ReferenceAesCmac, ReferenceAesCtr
from repro.crypto.rsa import _generate_keypair_unchecked
from repro.matching.columnar import ColumnarMatchPlane
from repro.matching.poset import ContainmentForest
from repro.sgx.cache import CacheModel
from repro.sgx.cpu import scaled_spec
from repro.sgx.platform import SgxPlatform
from repro.sgx.sdk import load_enclave
from repro.workloads.datasets import build_dataset

__all__ = ["run_hotpath_bench", "merge_phase", "compute_speedups",
           "BENCH_NAME"]

BENCH_NAME = "hotpath"

#: Seed for every deterministic choice in the suite (key material,
#: workload generation) so phases are comparable run to run.
_KEY = bytes(range(16))
_NONCE = bytes(range(16, 32))

#: LLC geometry for the matcher leg — same scaled shape as the other
#: benches so cache behaviour is comparable across records.
_MATCHER_LLC_BYTES = 256 * 1024


def _mbps(n_bytes: int, seconds: float) -> float:
    if seconds <= 0:
        return 0.0
    return round(n_bytes / seconds / 1e6, 3)


def _bench_ctr(total_bytes: int, chunk_bytes: int = 16 * 1024,
               reference: bool = False) -> float:
    """MB/s of AES-CTR over ``total_bytes`` in envelope-sized chunks."""
    ctr = (ReferenceAesCtr if reference else AesCtr)(_KEY)
    chunk = bytes(range(256)) * (chunk_bytes // 256)
    n_chunks = max(1, total_bytes // len(chunk))
    # One untimed chunk pays the key schedule / table warm-up.
    ctr.process(_NONCE, chunk)
    start = time.perf_counter()
    for _ in range(n_chunks):
        ctr.process(_NONCE, chunk)
    elapsed = time.perf_counter() - start
    return _mbps(n_chunks * len(chunk), elapsed)


def _bench_cmac(total_bytes: int, chunk_bytes: int = 4 * 1024,
                reference: bool = False) -> float:
    """MB/s of AES-CMAC tags over ``total_bytes``."""
    mac = (ReferenceAesCmac if reference else AesCmac)(_KEY)
    chunk = bytes(range(256)) * (chunk_bytes // 256)
    n_chunks = max(1, total_bytes // len(chunk))
    mac.tag(chunk)
    start = time.perf_counter()
    for _ in range(n_chunks):
        mac.tag(chunk)
    elapsed = time.perf_counter() - start
    return _mbps(n_chunks * len(chunk), elapsed)


def _bench_envelopes(n_subscriptions: int, n_envelopes: int,
                     batch_size: int) -> Dict[str, float]:
    """End-to-end envelopes/s through a provisioned enclave."""
    vendor_key = _generate_keypair_unchecked(768, 65537)
    platform = SgxPlatform(attestation_key_bits=768)
    enclave = load_enclave(platform, ScbrEnclaveLibrary, vendor_key,
                           rsa_bits=768)
    keys = ProviderKeyChain(rsa_bits=768)
    _report, pubkey_blob = enclave.ecall("attestation_report",
                                         b"\x00" * 32)
    enclave_pk = decode_public_key(pubkey_blob)
    payload = pack_fields([keys.sk,
                           encode_public_key(keys.public_key)])
    enclave.ecall("provision",
                  hybrid_encrypt(enclave_pk, payload,
                                 aad=PROVISION_AAD))

    dataset = build_dataset("e80a1", n_subscriptions,
                            max(n_envelopes, 1))
    channel = keys.channel()
    for index, subscription in enumerate(dataset.subscriptions):
        envelope = channel.protect(encode_subscription(subscription),
                                   aad=f"client-{index}".encode())
        enclave.ecall("register_subscription", envelope,
                      keys.rsa.sign(envelope))

    events = list(dataset.publications)
    while len(events) < n_envelopes:
        events.extend(dataset.publications[:n_envelopes - len(events)])
    wire = [channel.protect(encode_header(event))
            for event in events[:n_envelopes]]
    batches = [wire[i:i + batch_size]
               for i in range(0, len(wire), batch_size)]

    # Warm-up batch: first-touch faults and interning costs stay out
    # of the timed region (it still advances simulated state, which is
    # irrelevant here — only wall-clock is reported).
    enclave.ecall("match_publications", batches[0])
    start = time.perf_counter()
    total = 0
    for batch in batches[1:]:
        enclave.ecall("match_publications", batch)
        total += len(batch)
    elapsed = time.perf_counter() - start
    return {
        "envelopes_per_s": round(total / elapsed, 1)
        if elapsed > 0 else 0.0,
        "n_envelopes": float(total),
        "n_subscriptions": float(n_subscriptions),
    }


#: Batch size for the columnar matcher leg — large enough to amortise
#: the per-batch column passes, small enough to stay a realistic
#: publication burst (one ``match_publications`` ecall's worth).
_MATCHER_BATCH = 64


def _bench_matcher(n_subscriptions: int, n_events: int,
                   backend: str = "both") -> Dict[str, float]:
    """Arena-traced matcher walks/s (the memory-accounting path).

    Runs the requested backend leg(s) over the *same* forest, dataset
    and arena: the forest leg walks ``match_traced`` per event, the
    columnar leg drives ``match_batch_traced`` in bursts of
    ``_MATCHER_BATCH``. The headline ``matcher_events_per_s`` follows
    the columnar number when that leg runs (it is the production
    batch path); per-backend keys keep both visible side by side.
    """
    spec = scaled_spec(llc_bytes=_MATCHER_LLC_BYTES)
    platform = SgxPlatform(spec=spec)
    arena = platform.memory.new_arena(enclave=True)
    forest = ContainmentForest(arena=arena, trace_inserts=False)
    dataset = build_dataset("e80a1", n_subscriptions,
                            max(n_events, 1))
    for index, subscription in enumerate(dataset.subscriptions):
        forest.insert(subscription, index)
    platform.memory.prefault(arena.base, arena.allocated_bytes,
                             enclave=True)
    events = list(dataset.publications)
    while len(events) < n_events:
        events.extend(dataset.publications[:n_events - len(events)])
    events = events[:n_events]
    out: Dict[str, float] = {
        "matcher_events": float(n_events),
        "matcher_subscriptions": float(n_subscriptions),
    }
    if backend in ("forest", "both"):
        for event in events[:max(1, n_events // 10)]:  # warm-up
            forest.match_traced(event)
        start = time.perf_counter()
        for event in events:
            forest.match_traced(event)
        elapsed = time.perf_counter() - start
        out["matcher_events_per_s_forest"] = round(
            n_events / elapsed, 1) if elapsed > 0 else 0.0
    if backend in ("columnar", "both"):
        plane = ColumnarMatchPlane(forest, arena=arena)
        plane.ensure_compiled()
        # The compile allocated the column blocks after the first
        # prefault; fault them in too so neither leg pays simulated
        # first-touch handling inside the timed region.
        platform.memory.prefault(arena.base, arena.allocated_bytes,
                                 enclave=True)
        batches = [events[i:i + _MATCHER_BATCH]
                   for i in range(0, n_events, _MATCHER_BATCH)]
        plane.match_batch_traced(batches[0])  # warm-up
        start = time.perf_counter()
        for batch in batches:
            plane.match_batch_traced(batch)
        elapsed = time.perf_counter() - start
        out["matcher_events_per_s_columnar"] = round(
            n_events / elapsed, 1) if elapsed > 0 else 0.0
    forest_rate = out.get("matcher_events_per_s_forest", 0.0)
    columnar_rate = out.get("matcher_events_per_s_columnar", 0.0)
    if forest_rate and columnar_rate:
        out["matcher_columnar_vs_forest"] = round(
            columnar_rate / forest_rate, 3)
    out["matcher_events_per_s"] = columnar_rate or forest_rate
    return out


#: Lines per LLC-model batch: one ``paper_path`` walk (~2,900 line
#: touches per publication).
_LLC_LINES = 3000


def _best_ns(fn, per_call_items: int, repeats: int = 5) -> float:
    """Fastest of ``repeats`` timings of ``fn()``, in ns per item."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return round(best * 1e9 / per_call_items, 1)


def _reference_lru(size_bytes: int, ways: int = 16
                   ) -> Callable[[int], bool]:
    """``access_line`` of the LLC model :class:`CacheModel` replaced:
    one ``OrderedDict`` per set, front = LRU, one call per line."""
    n_sets = size_bytes // (64 * ways)
    sets = [OrderedDict() for _ in range(n_sets)]
    mask = n_sets - 1

    def access_line(line: int) -> bool:
        cache_set = sets[line & mask]
        if line in cache_set:
            cache_set.move_to_end(line)
            return True
        cache_set[line] = None
        if len(cache_set) > ways:
            cache_set.popitem(last=False)
        return False

    return access_line


def _bench_llc() -> Dict[str, float]:
    """ns per line of the cache model, resident and thrashing."""
    first = 1 << 30
    resident = CacheModel(8 * 1024 * 1024)
    lines = list(range(first, first + _LLC_LINES))
    resident.access_lines(lines)
    array = np.array(lines, dtype=np.int64)

    def line_by_line() -> None:
        access_line = resident.access_line
        for line in lines:
            access_line(line)

    batch_ns = _best_ns(lambda: resident.access_lines(lines),
                        _LLC_LINES)
    line_ns = _best_ns(line_by_line, _LLC_LINES)
    array_ns = _best_ns(lambda: resident.access_lines(array),
                        _LLC_LINES)
    # A cyclic sweep over 4x the capacity: LRU misses on every access.
    thrashed = CacheModel(64 * 1024)
    sweep = list(range(first, first + 4 * 1024))
    thrashed.access_lines(sweep)
    thrash_ns = _best_ns(lambda: thrashed.access_lines(sweep), len(sweep))
    reference = _reference_lru(64 * 1024)

    def thrash_reference() -> None:
        for line in sweep:
            reference(line)

    thrash_reference()
    reference_ns = _best_ns(thrash_reference, len(sweep))
    return {
        "llc_batch_ns_per_line": batch_ns,
        "llc_line_ns_per_line": line_ns,
        "llc_batch_vs_line": round(line_ns / batch_ns, 3)
        if batch_ns > 0 else 0.0,
        "llc_array_batch_ns_per_line": array_ns,
        "llc_thrash_ns_per_line": thrash_ns,
        "llc_ref_thrash_ns_per_line": reference_ns,
        "llc_thrash_vs_reference": round(thrash_ns / reference_ns, 3)
        if reference_ns > 0 else 0.0,
    }


def run_hotpath_bench(reduced: bool = False,
                      matcher_backend: str = "both"
                      ) -> Dict[str, float]:
    """Run the full suite; returns a flat measurement dict."""
    if reduced:
        ctr_bytes, ref_bytes, cmac_bytes = 96 * 1024, 8 * 1024, 16 * 1024
        n_subs, n_env, batch = 40, 60, 20
        m_subs, m_events = 250, 120
    else:
        ctr_bytes, ref_bytes, cmac_bytes = 512 * 1024, 32 * 1024, 64 * 1024
        n_subs, n_env, batch = 150, 300, 50
        m_subs, m_events = 1000, 400

    measurements: Dict[str, float] = {
        "aes_ctr_mbps": _bench_ctr(ctr_bytes),
        "reference_aes_ctr_mbps": _bench_ctr(ref_bytes,
                                             reference=True),
        "cmac_mbps": _bench_cmac(cmac_bytes),
    }
    measurements.update(_bench_envelopes(n_subs, n_env, batch))
    measurements.update(_bench_matcher(m_subs, m_events,
                                       backend=matcher_backend))
    measurements.update(_bench_llc())
    measurements["aes_vs_reference"] = round(
        measurements["aes_ctr_mbps"]
        / measurements["reference_aes_ctr_mbps"], 3) \
        if measurements["reference_aes_ctr_mbps"] > 0 else 0.0
    return measurements


# -- record assembly -----------------------------------------------------------------

_SPEEDUP_KEYS = {
    "aes_ctr": "aes_ctr_mbps",
    "cmac": "cmac_mbps",
    "envelopes": "envelopes_per_s",
    "matcher": "matcher_events_per_s",
}


def compute_speedups(baseline: Dict[str, float],
                     current: Dict[str, float]) -> Dict[str, float]:
    """``current/baseline`` ratio for each headline measurement."""
    speedups: Dict[str, float] = {}
    for label, key in _SPEEDUP_KEYS.items():
        base = baseline.get(key, 0.0)
        now = current.get(key, 0.0)
        if base and now:
            speedups[label] = round(now / base, 3)
    return speedups


def merge_phase(existing: Optional[dict], phase: str,
                measurements: Dict[str, float],
                reduced: bool) -> dict:
    """Fold one phase's measurements into the two-phase record.

    ``baseline`` runs replace the baseline section; ``current`` runs
    replace the current section and refresh the speedup ratios while
    preserving the recorded baseline — so the committed file always
    compares against the pre-optimisation numbers captured on this
    machine.
    """
    record = dict(existing) if existing else {}
    record[phase] = {"measurements": measurements,
                     "reduced": reduced,
                     "meta": bench_metadata()}
    baseline = record.get("baseline", {}).get("measurements")
    current = record.get("current", {}).get("measurements")
    if baseline and current:
        record["speedup"] = compute_speedups(baseline, current)
    # Top-level meta reflects the most recent write.
    record["meta"] = bench_metadata()
    return record


def build_parser() -> argparse.ArgumentParser:
    """The suite's options (``repro hotpath`` takes them as a parent)."""
    parser = argparse.ArgumentParser(
        prog="repro.bench.hotpath",
        description="wall-clock hot-path microbenchmarks")
    parser.add_argument("--reduced", action="store_true",
                        help="smaller sizes for CI smoke runs")
    parser.add_argument("--record", action="store_true",
                        help="write/merge BENCH_hotpath.json")
    parser.add_argument("--phase", choices=("baseline", "current"),
                        default="current",
                        help="which section of the record to write")
    parser.add_argument("--out", default=".",
                        help="directory for BENCH_hotpath.json")
    parser.add_argument("--matcher-backend",
                        choices=("forest", "columnar", "both"),
                        default="both",
                        help="which matcher leg(s) to run; 'both' "
                             "reports the backends side by side")
    parser.add_argument("--require-matcher-speedup", type=float,
                        default=0.0, metavar="X",
                        help="fail unless the columnar matcher is at "
                             "least X times faster than the forest "
                             "walk (in-process gate, CI; needs "
                             "--matcher-backend both)")
    parser.add_argument("--require-aes-vs-reference", type=float,
                        default=0.0, metavar="X",
                        help="fail unless AesCtr is at least X times "
                             "faster than the pinned reference "
                             "(in-process gate, CI)")
    parser.add_argument("--require-llc-batch-vs-line", type=float,
                        default=0.0, metavar="R",
                        help="fail unless the cache model's batch "
                             "entry point is at least R times cheaper "
                             "per resident line than one access_line "
                             "call each (in-process gate, CI)")
    parser.add_argument("--require-llc-thrash-vs-reference", type=float,
                        default=0.0, metavar="R",
                        help="fail unless a batch that misses on every "
                             "line costs at most R times per line what "
                             "the per-line OrderedDict LRU the cache "
                             "model replaced costs (in-process gate, "
                             "CI)")
    parser.add_argument("--require-aes-speedup", type=float,
                        default=0.0, metavar="X",
                        help="fail unless recorded aes_ctr speedup "
                             "vs baseline is at least X")
    parser.add_argument("--require-e2e-speedup", type=float,
                        default=0.0, metavar="X",
                        help="fail unless recorded envelopes/s "
                             "speedup vs baseline is at least X")
    return parser


def run(args: argparse.Namespace) -> int:
    """Run the suite with parsed options; the exit status."""
    measurements = run_hotpath_bench(
        reduced=args.reduced, matcher_backend=args.matcher_backend)
    for key in sorted(measurements):
        print(f"  {key:28s} {measurements[key]:>12,.3f}")

    record = None
    path = os.path.join(args.out, f"BENCH_{BENCH_NAME}.json")
    existing = None
    if os.path.exists(path):
        with open(path) as fh:
            existing = json.load(fh)
    record = merge_phase(existing, args.phase, measurements,
                         args.reduced)
    speedup = record.get("speedup", {})
    for label in sorted(speedup):
        print(f"  speedup:{label:20s} {speedup[label]:>12,.3f}x")
    if args.record:
        written = record_bench(BENCH_NAME, record, directory=args.out)
        print(f"recorded {written}")

    failures = []
    ratio = measurements.get("aes_vs_reference", 0.0)
    if args.require_aes_vs_reference and \
            ratio < args.require_aes_vs_reference:
        failures.append(
            f"AesCtr is only {ratio:.2f}x the pinned reference "
            f"(required {args.require_aes_vs_reference:.2f}x)")
    llc_ratio = measurements.get("llc_batch_vs_line", 0.0)
    if args.require_llc_batch_vs_line and \
            llc_ratio < args.require_llc_batch_vs_line:
        failures.append(
            f"batched LLC accounting is only {llc_ratio:.2f}x "
            f"per-line calls (required "
            f"{args.require_llc_batch_vs_line:.2f}x)")
    thrash_ratio = measurements.get("llc_thrash_vs_reference", 0.0)
    if args.require_llc_thrash_vs_reference and \
            thrash_ratio > args.require_llc_thrash_vs_reference:
        failures.append(
            f"a thrashing LLC batch costs {thrash_ratio:.2f}x the "
            f"per-line OrderedDict LRU (allowed "
            f"{args.require_llc_thrash_vs_reference:.2f}x)")
    matcher_ratio = measurements.get("matcher_columnar_vs_forest", 0.0)
    if args.require_matcher_speedup and \
            matcher_ratio < args.require_matcher_speedup:
        failures.append(
            f"columnar matcher is only {matcher_ratio:.2f}x the "
            f"forest walk (required "
            f"{args.require_matcher_speedup:.2f}x)")
    if args.require_aes_speedup and \
            speedup.get("aes_ctr", 0.0) < args.require_aes_speedup:
        failures.append(
            f"aes_ctr speedup {speedup.get('aes_ctr', 0.0):.2f}x "
            f"below required {args.require_aes_speedup:.2f}x")
    if args.require_e2e_speedup and \
            speedup.get("envelopes", 0.0) < args.require_e2e_speedup:
        failures.append(
            f"envelopes speedup {speedup.get('envelopes', 0.0):.2f}x "
            f"below required {args.require_e2e_speedup:.2f}x")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
