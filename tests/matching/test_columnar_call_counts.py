"""Clock-free guards on the columnar plane's batch pass and writes.

The plane meets a batch with one pass over every bound row of every
table, where it used to make one pass per attribute table (``probe``,
the column's ``encoded``, numpy's reduction wrappers: a fixed price
per table); and a registration edits the store in place. Under
``sys.setprofile`` (``call`` events, the cyclic collector off) these
tests count the Python-level calls, so a per-table step or a rebuild
after a write shows up as a count that grows with the plane, on any
machine and at any load.
"""

import gc
import sys
from collections import Counter

from repro.matching.columnar import ColumnarMatchPlane
from repro.matching.events import EventColumns
from repro.matching.poset import ContainmentForest
from repro.matching.subscriptions import Subscription
from repro.sgx.cpu import scaled_spec
from repro.sgx.memory import MemorySubsystem
from repro.workloads.datasets import build_dataset


def calls(function):
    """``Counter`` of the code objects entered while ``function()``
    runs, with the cyclic collector off (a collection would count the
    finalizers of whatever earlier tests left behind)."""
    counts = Counter()

    def profile(frame, event, _arg):
        if event == "call":
            counts[frame.f_code] += 1

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        function()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return counts


def compiled_plane(recipe, n_subscriptions, traced):
    dataset = build_dataset(recipe, n_subscriptions, 4)
    arena = None
    if traced:
        memory = MemorySubsystem(scaled_spec(llc_bytes=8 * 1024 * 1024))
        arena = memory.new_arena(enclave=True, name="counts")
    forest = ContainmentForest(arena=arena)
    for subscriber, subscription in enumerate(dataset.subscriptions):
        forest.insert(subscription, subscriber)
    plane = ColumnarMatchPlane(forest, arena=arena)
    plane.ensure_compiled()
    return forest, plane, dataset.publications


def test_a_traced_pass_makes_no_call_per_table():
    """From the 8 tables of the fanout world to the 32 of the
    crypto-bound one, a traced batch grows by at most one call per
    table (the pin tables' per-event scan is the only per-table
    step)."""
    totals = []
    for recipe, n_subscriptions, n_tables in (("e80a1", 2000, 8),
                                              ("e80a4", 1000, 32)):
        _forest, plane, publications = compiled_plane(
            recipe, n_subscriptions, traced=True)
        assert plane.n_attributes == n_tables
        batch = EventColumns.of(publications)
        plane.match_batch_traced(batch)     # the blocks are resident
        totals.append(sum(calls(
            lambda: plane.match_batch_traced(batch)).values()))
    assert totals[1] - totals[0] <= 32 - 8, totals


def test_a_write_costs_the_same_calls_at_2000_and_4000_nodes():
    """One registration, caught up in place, and its withdrawal: no
    step per node or per row of the plane."""
    written = Subscription.parse({"low": (1.25, 2.5), "volume": (">=", 7),
                                  "close": ("<", 3.5), "symbol": "ZZZZ"})
    counts = []
    for n_subscriptions in (2000, 4000):
        forest, plane, _publications = compiled_plane(
            "e80a1", n_subscriptions, traced=False)
        assert forest.n_nodes == n_subscriptions
        forest.insert(written, "written")
        inserted = calls(plane.ensure_compiled)
        forest.remove_subscriber(written, "written")
        removed = calls(plane.ensure_compiled)
        assert (plane.rebuilds, plane.delta_nodes) == (1, 2)
        plane.check_invariants()
        counts.append((inserted, removed))
    assert counts[0] == counts[1]
