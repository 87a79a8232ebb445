"""Golden simulated numbers: one small seeded case per memory regime.

Every other equivalence test in the suite compares two code paths of
the *current* tree, so a change that moves both moves neither. These
literals were recorded from commit 772868f (the parent of the
stamp-ordered LRU change) and pin the model's outputs across
rewrites: the counters of the registration phase, the counters of the
matching phase, and the summed ``simulated_us`` / work of the matches.

A legitimate change to the cost model or the touch model re-records
them — deliberately, in the same commit, with the reason.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.matching.matcher import MatchingEngine
from repro.sgx.cpu import scaled_spec
from repro.sgx.memory import MemoryCounters
from repro.sgx.platform import SgxPlatform
from repro.workloads.datasets import build_dataset

KIB = 1024

#: name -> (workload, subscriptions, publications, spec overrides,
#:          enclave arena?, backend, one batch?)
CASES = {
    # index fits the 8 MiB LLC: the matching phase never misses
    "fits_in_llc": ("e100a1", 600, 30, {}, True, "forest", False),
    # 16 KiB LLC under a ~240 KiB index, untrusted arena: every line
    # of every walk misses, pages pay minor faults once
    "llc_thrash": ("e80a1", 800, 30, {"llc_bytes": 16 * KIB}, False,
                   "forest", False),
    # 64 usable EPC pages under a ~110-page index: registration and
    # matching both page (the Fig. 8 shape)
    "epc_paging": ("e80a1", 1500, 10,
                   {"llc_bytes": 64 * KIB, "epc_bytes": 512 * KIB,
                    "epc_reserved_bytes": 256 * KIB}, True, "forest",
                   False),
    # one 32-event batch through the columnar plane
    "columnar_batch": ("e80a4", 500, 32, {"llc_bytes": 64 * KIB}, True,
                       "columnar", True),
}

#: name -> (registration counters, matching counters, sum of
#: simulated_us, nodes visited, subscribers matched); counters in
#: ``MemoryCounters`` field order.
GOLDEN = {
    "fits_in_llc": (
        (12897000.0, 1004481, 4002, 63, 0, 0),
        (665290.0, 35596, 0, 0, 0, 0),
        195.67352941176472, 15144, 104),
    "llc_thrash": (
        (155989056.0, 9466, 777464, 0, 0, 82),
        (7777306.0, 0, 36211, 0, 0, 0),
        2287.4429411764704, 15077, 711),
    "epc_paging": (
        (6207119810.0, 294808, 1366280, 48072, 48008, 0),
        (547224538.0, 215, 20490, 4503, 4503, 0),
        160948.39352941178, 8483, 450),
    "columnar_batch": (
        (176024210.0, 108443, 529124, 52, 0, 0),
        (1435344.0, 248, 312, 7, 0, 0),
        422.1599999999999, 8944, 450),
}

_ZERO = MemoryCounters(0.0, 0, 0, 0, 0, 0)


def _run(name):
    workload, n_subs, n_pubs, overrides, enclave, backend, batch = \
        CASES[name]
    dataset = build_dataset(workload, n_subs, n_pubs)
    platform = SgxPlatform(spec=scaled_spec(**overrides))
    engine = MatchingEngine(platform, enclave=enclave, backend=backend)
    for index, subscription in enumerate(dataset.subscriptions):
        engine.register(subscription, index)
    memory = platform.memory
    registered = memory.snapshot()
    if batch:
        results = engine.match_batch(dataset.publications)
    else:
        results = [engine.match(event)
                   for event in dataset.publications]
    return (dataclasses.astuple(registered.delta(_ZERO)),
            dataclasses.astuple(memory.snapshot().delta(registered)),
            sum(result.simulated_us for result in results),
            sum(result.nodes_visited for result in results),
            sum(len(result.subscribers) for result in results))


@pytest.mark.parametrize("name", sorted(CASES))
def test_simulated_numbers_are_the_recorded_ones(name):
    assert _run(name) == GOLDEN[name]
