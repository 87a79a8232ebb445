"""Batched memory-trace accounting: equivalence and residency edges.

The batched entry points (``CacheModel.access_lines``,
``EpcManager.access_pages``, ``MemorySubsystem.touch_many``) must agree
access-for-access — identical hit/miss/fault/minor-fault counters and
identical cycles — with a loop of single accesses, and the residency
edges (flush, first-touch faults) must behave as before. Both sides
here are the current model; ``test_lru_differential.py`` holds it
against the pinned reference implementation.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sgx.cache import CacheModel
from repro.sgx.cpu import scaled_spec
from repro.sgx.epc import EpcManager
from repro.sgx.memory import MemorySubsystem

from .reference_spans import spans


def tiny_spec(epc_pages: int = 4, llc_bytes: int = 4 * 1024):
    return scaled_spec(llc_bytes=llc_bytes,
                       epc_bytes=(epc_pages + 1) * 4096,
                       epc_reserved_bytes=4096)


class TestGeometryError:

    def test_misaligned_size_message_names_the_way_size(self):
        """The error must say why the geometry cannot be built."""
        with pytest.raises(ValueError) as excinfo:
            CacheModel(size_bytes=1000, line_bytes=64, associativity=2)
        message = str(excinfo.value)
        assert "1000" in message
        assert "128" in message          # the way size it is not a multiple of
        assert "line_bytes" in message
        assert "associativity" in message

    def test_aligned_size_accepted(self):
        cache = CacheModel(size_bytes=64 * 2 * 4, line_bytes=64,
                           associativity=2)
        assert cache.n_sets == 4


class TestCacheAccessRun:

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=40),
                              st.integers(min_value=0, max_value=6)),
                    min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_run_equals_line_loop(self, runs):
        """access_run == the same lines accessed one at a time."""
        batched = CacheModel(size_bytes=8 * 64 * 2, line_bytes=64,
                             associativity=2)
        looped = CacheModel(size_bytes=8 * 64 * 2, line_bytes=64,
                            associativity=2)
        for first, extent in runs:
            last = first + extent
            hits, misses = batched.access_run(first, last)
            loop_hits = loop_misses = 0
            for line in range(first, last + 1):
                if looped.access_line(line):
                    loop_hits += 1
                else:
                    loop_misses += 1
            assert (hits, misses) == (loop_hits, loop_misses)
        assert (batched.hits, batched.misses) == \
            (looped.hits, looped.misses)
        # Residual LRU state must agree too: drain both with one more
        # sweep and compare outcomes line by line.
        for line in range(48):
            assert batched.access_line(line) == looped.access_line(line)


class TestEpcAccessRun:

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=10),
                              st.integers(min_value=0, max_value=3)),
                    min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_run_equals_page_loop(self, runs):
        batched = EpcManager(tiny_spec(epc_pages=4))
        looped = EpcManager(tiny_spec(epc_pages=4))
        for first, extent in runs:
            last = first + extent
            faults = batched.access_run(first, last)
            loop_faults = sum(looped.access(page)
                              for page in range(first, last + 1))
            assert faults == loop_faults
        assert batched.faults == looped.faults
        assert batched.evictions == looped.evictions
        assert batched.loads == looped.loads
        for page in range(12):
            assert batched.is_resident(page) == looped.is_resident(page)


class TestFlushResidency:

    def test_flush_clears_lines_but_preserves_counters(self):
        memory = MemorySubsystem(tiny_spec())
        memory.touch(0, 256, enclave=True)
        hits, misses = memory.cache.hits, memory.cache.misses
        memory.cache.flush()
        assert (memory.cache.hits, memory.cache.misses) == (hits, misses)
        # Every line re-misses after the flush.
        before = memory.snapshot()
        memory.touch(0, 256, enclave=True)
        delta = memory.snapshot().delta(before)
        assert delta.llc_hits == 0
        assert delta.llc_misses == 4
        # But the EPC residency survived: no new faults.
        assert delta.epc_faults == 0

    def test_untrusted_first_touch_minor_fault_only_once(self):
        memory = MemorySubsystem(tiny_spec())
        memory.touch_many(*spans(memory, [(0, 8), (8, 8), (4096, 8)]),
                          enclave=False)
        assert memory.minor_faults == 2  # two distinct pages
        memory.touch_many(*spans(memory, [(16, 8), (4100, 8)]),
                          enclave=False)
        assert memory.minor_faults == 2  # no re-fault

    def test_enclave_first_touch_epc_fault_only_once(self):
        memory = MemorySubsystem(tiny_spec(epc_pages=8))
        memory.touch_many(*spans(memory, [(0, 64), (64, 64)]),
                          enclave=True)
        assert memory.epc.faults == 1
        memory.touch_many(*memory.span(128, 64), enclave=True)
        assert memory.epc.faults == 1


class TestTouchManyEquivalence:

    @staticmethod
    def _runs(seed, n):
        rng = random.Random(seed)
        runs = []
        for _ in range(n):
            address = rng.randrange(0, 64 * 1024)
            n_bytes = rng.randrange(1, 600)
            runs.append((address, n_bytes))
        return runs

    @pytest.mark.parametrize("enclave", [True, False])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_batch_equals_touch_loop(self, enclave, seed):
        """touch_many == loop of touch: counters AND cycles identical."""
        spec = tiny_spec(epc_pages=6, llc_bytes=8 * 1024)
        batched = MemorySubsystem(spec)
        looped = MemorySubsystem(spec)
        runs = self._runs(seed, 120)
        batched.touch_many(*spans(batched, runs), enclave=enclave)
        for address, n_bytes in runs:
            looped.touch(address, n_bytes, enclave=enclave)
        assert batched.snapshot() == looped.snapshot()

    @given(st.lists(st.tuples(st.integers(min_value=0,
                                          max_value=32 * 1024),
                              st.integers(min_value=1, max_value=300)),
                    min_size=1, max_size=50),
           st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_batch_equals_touch_loop_property(self, runs, enclave):
        spec = tiny_spec(epc_pages=3, llc_bytes=4 * 1024)
        batched = MemorySubsystem(spec)
        looped = MemorySubsystem(spec)
        batched.touch_many(*spans(batched, runs), enclave=enclave)
        for address, n_bytes in runs:
            looped.touch(address, n_bytes, enclave=enclave)
        assert batched.snapshot() == looped.snapshot()
        assert batched.epc.evictions == looped.epc.evictions

    def test_arena_touch_many_routes_to_owner_space(self):
        memory = MemorySubsystem(tiny_spec())
        arena = memory.new_arena(enclave=True)
        address = arena.alloc(256)
        arena.touch_many(*memory.span(address, 256))
        arena.touch_runs([(address + 4096, 256)])
        assert memory.epc.faults == 2
        assert memory.minor_faults == 0
