"""``MemoryArena.touch_runs`` is the runs' spans, expanded as arrays.

The columnar plane and the naive and hybrid matchers hand the memory
model their traces as ``(address, n_bytes)`` runs. ``touch_runs``
expands them into line and page numbers with array arithmetic; the
reference is ``reference_spans.spans``, the per-run loop over
``MemorySubsystem.span`` it replaced. Hypothesis draws runs of zero
bytes, runs that straddle a line or a page, in both address spaces,
and holds both the numbers handed to ``touch_many`` and the model's
state afterwards — the LLC stamps, the EPC residency order and
versions, the order the policy would evict in, every counter — to the
reference. The last test is a clock-free guard: the expansion makes
no Python call per run.
"""

import copy
import gc
import sys
from collections import Counter

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sgx.cpu import scaled_spec
from repro.sgx.memory import MemorySubsystem
from repro.sgx.paging import POLICY_NAMES

from .reference_spans import spans

PAGE = 4096


class RecordingMemory(MemorySubsystem):
    """Keeps the ``(lines, pages)`` of every ``touch_many``."""

    def __init__(self, spec) -> None:
        super().__init__(spec)
        self.batches = []

    def touch_many(self, lines, pages, enclave) -> None:
        self.batches.append((lines, pages))
        super().touch_many(lines, pages, enclave)


def tiny_spec(policy):
    return scaled_spec(llc_bytes=2048, epc_bytes=5 * PAGE,
                       epc_reserved_bytes=PAGE, epc_policy=policy)


#: Addresses near line and page edges, lengths from 0 past a page.
addresses = st.one_of(
    st.integers(0, 3 * PAGE),
    st.builds(lambda page, offset: page * PAGE + offset,
              st.integers(0, 12), st.sampled_from((-64, -1, 0, 1, 63, 64))
              ).filter(lambda address: address >= 0))
lengths = st.one_of(st.sampled_from((0, 1, 63, 64, 65, PAGE - 1, PAGE,
                                     PAGE + 1)),
                    st.integers(0, 3 * PAGE))
batches = st.lists(st.lists(st.tuples(addresses, lengths), max_size=12),
                   min_size=1, max_size=6)


def state(memory):
    epc = memory.epc
    policy = copy.deepcopy(epc.policy)
    return (memory.snapshot(), memory.cache._stamps.tolist(),
            memory.cache._tick, list(epc._resident), dict(epc._versions),
            (epc.faults, epc.evictions, epc.loads),
            [policy.evict() for _ in range(len(policy))],
            sorted(memory._untrusted_pages))


@settings(max_examples=150, deadline=None)
@given(batches, st.sampled_from(POLICY_NAMES),
       st.lists(st.booleans(), min_size=6, max_size=6))
def test_touch_runs_equals_the_spans_loop(batches, policy, enclaves):
    arrays = RecordingMemory(tiny_spec(policy))
    lists = MemorySubsystem(tiny_spec(policy))
    arenas = {flag: arrays.new_arena(enclave=flag) for flag in (True, False)}
    bases = {flag: lists.new_arena(enclave=flag).base
             for flag in (True, False)}
    for runs, enclave in zip(batches, enclaves):
        runs = [(arenas[enclave].base + address, n_bytes)
                for address, n_bytes in runs]
        arenas[enclave].touch_runs(runs)
        lines, pages = arrays.batches[-1]
        assert lines.dtype == pages.dtype == np.int64
        assert (lines.tolist(), pages.tolist()) == spans(arrays, runs)
        assert bases[enclave] == arenas[enclave].base
        lists.touch_many(*spans(lists, runs), enclave)
        assert state(arrays) == state(lists)


def calls(function):
    """``Counter`` of the code objects entered while ``function()``
    runs, with the cyclic collector off."""
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


def test_touch_runs_makes_no_call_per_run():
    """9 runs and 90, all resident: the same Python calls."""
    memory = MemorySubsystem(scaled_spec(llc_bytes=1024 * 1024))
    arena = memory.new_arena(enclave=True)
    counts = []
    for n_runs in (9, 90):
        runs = [(arena.base + 40 * index, 100) for index in range(n_runs)]
        arena.touch_runs(runs)        # everything resident from here
        counts.append(calls(lambda: arena.touch_runs(runs)))
    assert sum(counts[0].values()) > 0
    assert counts[0] == counts[1]
