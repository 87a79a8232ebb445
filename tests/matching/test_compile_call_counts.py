"""Clock-free guards on the vectorised matchers' compiles and on the
forest's writes.

The columnar plane's bulk compile and the forest's root-scan compile
read each constraint's :class:`~repro.matching.predicates.ConstraintForm`
instead of classifying it on the spot, and an insert meets the roots in
one compare against the forest's root table instead of one
``Subscription.covers`` call per root. What must not come back is a
dearer compile or write: these tests count the Python-level calls one
makes (``sys.setprofile``, ``call`` + ``c_call`` events, the cyclic
collector off) on the benchmark geometries and hold them to literals
recorded at the last revision that classified at compile time, or that
inserted through the loop, on CPython 3.11 with numpy 2.4 (other
versions count a few calls differently; the margins below are wide).
"""

import gc
import sys

from repro.matching.columnar import ColumnarMatchPlane
from repro.matching.poset import ContainmentForest, _RootScan
from repro.sgx.cpu import scaled_spec
from repro.sgx.memory import MemorySubsystem
from repro.workloads.datasets import build_dataset

#: ``plane._compile()`` over ``e80a1`` x 2,000 nodes (the churn_mix
#: world), the second of two compiles.
RECORDED_PLANE_COMPILE = 59_926
#: ``_RootScan(...)`` over ``e100a1`` x 1,200 subscriptions (871
#: roots, the paper_path world), the first, which packs every root.
RECORDED_SCAN_COMPILE = 38_463
#: 200 inserts into that world's forest, from 1,000 subscriptions (761
#: roots) to 1,200 (871), through the per-root ``covers`` loop.
RECORDED_INSERTS = 887_375
#: One ``remove_subscriber`` that empties a root of the 1,200 forest,
#: through the same loop.
RECORDED_ROOT_REMOVAL = 2_012


def count_calls(function):
    calls = 0

    def profiler(_frame, event, _arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    gc.disable()
    sys.setprofile(profiler)
    try:
        function()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


def traced_forest(recipe, n_subscriptions, **dataset_options):
    memory = MemorySubsystem(scaled_spec(llc_bytes=8 * 1024 * 1024))
    arena = memory.new_arena(enclave=True, name="counts")
    forest = ContainmentForest(arena=arena)
    dataset = build_dataset(recipe, n_subscriptions, 1, **dataset_options)
    for subscriber, subscription in enumerate(dataset.subscriptions):
        forest.insert(subscription, subscriber)
    return forest, arena


def test_a_plane_compile_is_no_dearer_than_before():
    forest, arena = traced_forest("e80a1", 2000)
    assert forest.n_nodes == 2000
    plane = ColumnarMatchPlane(forest, arena=arena)
    plane._compile()
    calls = count_calls(plane._compile)
    assert calls <= RECORDED_PLANE_COMPILE, calls


def test_a_root_scan_compile_is_no_dearer_than_before():
    forest, _arena = traced_forest("e100a1", 1200, seed=2016)
    assert len(forest.roots) == 871
    calls = count_calls(lambda: _RootScan(forest.roots, forest.generation))
    assert calls <= RECORDED_SCAN_COMPILE, calls


def paper_path_forest(inserted):
    """The first ``inserted`` of the paper_path world's 1,200
    subscriptions in a traced forest, and the rest."""
    memory = MemorySubsystem(scaled_spec(llc_bytes=8 * 1024 * 1024))
    forest = ContainmentForest(
        arena=memory.new_arena(enclave=True, name="counts"))
    subscriptions = build_dataset("e100a1", 1200, 1,
                                  seed=2016).subscriptions
    for subscriber, subscription in enumerate(
            subscriptions[:inserted]):
        forest.insert(subscription, subscriber)
    return forest, list(enumerate(subscriptions))[inserted:]


def test_inserts_make_an_eighth_of_the_calls_the_loop_made():
    forest, rest = paper_path_forest(1000)
    assert len(forest.roots) == 761
    calls = count_calls(lambda: [forest.insert(subscription, subscriber)
                                 for subscriber, subscription in rest])
    assert len(forest.roots) == 871
    assert calls <= RECORDED_INSERTS // 8, calls


def test_removing_a_root_is_no_dearer_than_the_loop():
    forest, _rest = paper_path_forest(1200)
    root = next(root for root in forest.roots[len(forest.roots) // 2:]
                if len(root.subscribers) == 1)
    subscriber, = root.subscribers
    calls = count_calls(
        lambda: forest.remove_subscriber(root.subscription, subscriber))
    assert root not in forest.roots
    assert calls <= RECORDED_ROOT_REMOVAL, calls
