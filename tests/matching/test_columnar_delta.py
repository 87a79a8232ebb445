"""An edited plane reads like a rebuilt one — as counts, not timings.

The plane absorbs registration churn in place (forest change log ->
``ColumnarMatchPlane._catch_up``). What that must never buy is a
dearer read: removed entries are deleted rather than tombstoned, so
the match path of a plane that has been edited hundreds of times does
*exactly* the work of one compiled fresh from the same forest. Wall
clock cannot resolve that on a shared box; three things that repeat
exactly can — the Python-level call count (``sys.setprofile``), the
memory model's counters, and the plane's own rebuild counter. One
call-count ratio covers the write side: a caught-up write must stay an
order of magnitude cheaper than the recompile it replaces.
"""

import sys

from repro.matching.columnar import ColumnarMatchPlane
from repro.matching.matcher import MatchingEngine
from repro.matching.poset import ContainmentForest
from repro.sgx.cpu import scaled_spec
from repro.sgx.memory import MemorySubsystem
from repro.sgx.platform import SgxPlatform
from repro.workloads.datasets import build_dataset

#: the benchmark's churn workload: 80 % equality, one attribute set
RECIPE = "e80a1"


def traced_world(n_base, n_spares, n_events=64):
    """A traced plane over ``n_base`` subscriptions, compiled; the
    spares are what the churn registers and withdraws."""
    dataset = build_dataset(RECIPE, n_base + n_spares, n_events)
    memory = MemorySubsystem(scaled_spec(llc_bytes=8 * 1024 * 1024))
    arena = memory.new_arena(enclave=True, name="delta")
    forest = ContainmentForest(arena=arena)
    plane = ColumnarMatchPlane(forest, arena=arena)
    for index, subscription in enumerate(dataset.subscriptions[:n_base]):
        forest.insert(subscription, index)
    plane.ensure_compiled()
    spares = list(enumerate(dataset.subscriptions[n_base:], n_base))
    return memory, arena, forest, plane, spares, dataset.publications


def count_calls(function):
    """Calls of the plane's code, and C calls made from it, while
    ``function()`` runs. The memory model's own calls are left
    out: how many it makes depends on how many pages the blocks
    straddle — on addresses, which its counters already compare."""
    calls = 0
    plane_code = sys.modules[ColumnarMatchPlane.__module__].__file__

    def profiler(frame, event, _arg):
        # "call": the callee's frame; "c_call": the caller's
        nonlocal calls
        if event in ("call", "c_call") \
                and frame.f_code.co_filename == plane_code:
            calls += 1

    sys.setprofile(profiler)
    try:
        function()
    finally:
        sys.setprofile(None)
    return calls


def read_cost(memory, plane, batches):
    """``(calls, memory-model counters)`` of matching the batches on
    a warm cache: the second of two identical passes."""
    def sweep():
        for batch in batches:
            plane.match_batch_traced(batch)
    sweep()
    before = memory.snapshot()
    calls = count_calls(sweep)
    return calls, memory.snapshot().delta(before)


def test_read_path_carries_no_garbage():
    memory, arena, forest, plane, spares, events = traced_world(500, 200)
    batches = [events[:32], events[32:64]]
    lifetime = 4                # as in churn_mix: REG g, UNREG g - 4
    for turn, (subscriber, subscription) in enumerate(spares):
        forest.insert(subscription, subscriber)
        if turn >= lifetime:
            gone, withdrawn = spares[turn - lifetime]
            assert forest.remove_subscriber(withdrawn, gone)
        plane.match_batch_traced(batches[turn % 2])
        assert plane.rebuilds == 1
    assert plane.delta_nodes > 300      # the writes did reach the plane
    assert plane.compilations == 1 + len(spares)    # one pass a turn
    plane.check_invariants()

    fresh = ColumnarMatchPlane(forest, arena=arena)
    fresh._compile()    # not ensure_compiled: the log stays the plane's
    assert plane.match_batch_traced(events[:64]) \
        == fresh.match_batch_traced(events[:64])
    edited_calls, edited_model = read_cost(memory, plane, batches)
    fresh_calls, fresh_model = read_cost(memory, fresh, batches)
    assert edited_calls == fresh_calls
    assert edited_model == fresh_model
    assert edited_model.llc_misses == 0 and edited_model.llc_hits > 0
    assert plane.rebuilds == 1


def test_catch_up_is_an_order_of_magnitude_cheaper_than_a_compile():
    _memory, _arena, forest, plane, spares, _events = \
        traced_world(2000, 12)
    compile_calls = count_calls(plane._compile)
    rebuilds = plane.rebuilds
    catch_up_calls = []
    for turn, (subscriber, subscription) in enumerate(spares):
        forest.insert(subscription, subscriber)
        if turn:
            gone, withdrawn = spares[turn - 1]
            assert forest.remove_subscriber(withdrawn, gone)
        catch_up_calls.append(count_calls(plane.ensure_compiled))
    assert plane.rebuilds == rebuilds
    assert plane.delta_nodes >= len(spares)
    # the first turn is one write (an insert), every other one two
    assert compile_calls >= 10 * max(catch_up_calls), \
        (compile_calls, catch_up_calls)


def test_engine_tells_absorbed_writes_from_recompiles():
    """``engine.plane_rebuilds`` / ``engine.plane_delta_nodes``: read
    off the plane when a snapshot is taken, frozen by ``close()``."""
    dataset = build_dataset(RECIPE, 41, 4)
    engine = MatchingEngine(
        SgxPlatform(spec=scaled_spec(llc_bytes=256 * 1024)),
        enclave=True, backend="columnar")
    for index, subscription in enumerate(dataset.subscriptions[:40]):
        engine.register(subscription, index)
    snapshot = engine.metrics.snapshot()
    assert snapshot["engine.plane_rebuilds"] == 0
    engine.match_batch(dataset.publications)
    engine.register(dataset.subscriptions[40], 40)
    engine.match_batch(dataset.publications)
    engine.unregister(dataset.subscriptions[40], 40)
    engine.match_batch(dataset.publications)
    snapshot = engine.metrics.snapshot()
    assert snapshot["engine.plane_rebuilds"] == 1
    assert snapshot["engine.plane_delta_nodes"] == 2
    engine.close()
    assert engine.metrics.snapshot()["engine.plane_delta_nodes"] == 2

    forest_engine = MatchingEngine(
        SgxPlatform(spec=scaled_spec(llc_bytes=256 * 1024)),
        enclave=True)
    snapshot = forest_engine.metrics.snapshot()
    assert snapshot["engine.plane_rebuilds"] == 0
    assert snapshot["engine.plane_delta_nodes"] == 0
