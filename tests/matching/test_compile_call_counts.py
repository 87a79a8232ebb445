"""Clock-free guards on the two vectorised matchers' compiles.

The columnar plane's bulk compile and the forest's root-scan compile
read each constraint's :class:`~repro.matching.predicates.ConstraintForm`
instead of classifying it on the spot. What must not come back is a
dearer compile: these tests count the Python-level calls one compile
makes (``sys.setprofile``, ``call`` + ``c_call`` events, the cyclic
collector off) on the benchmark geometries and hold them to literals
recorded at the last revision that classified at compile time, on
CPython 3.11 with numpy 2.4 (other versions count a few calls
differently; the margins below are wide).
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
