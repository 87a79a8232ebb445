"""The memory model against its pinned reference, op for op.

``test_memory_batching.py`` compares the batched entry points with
per-access loops *of the same model*; here the other side is
``reference_lru.py``, the pre-rewrite ``OrderedDict`` LRU and per-page
EPC loop kept under ``tests/``. Tiny geometries keep every regime in
reach of a short op list: all-hit batches, batches with misses and
evictions, duplicates inside a batch, flushes, EREMOVE, prefault, and
each paging policy. Every batch goes in twice over, as the Python
sequences ``reference_spans.spans`` builds and as the int64 arrays a
poset walk hands over (whose pages reach the EPC with consecutive
repeats collapsed); the stamp store behind the cache is exercised
where its addressing could go wrong — lines of several chunks and
regions in one batch, the array regrowing under set entries filed
before, addresses far beyond the lines touched.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sgx.cache import CacheModel
from repro.sgx.cpu import scaled_spec
from repro.sgx.epc import EpcManager
from repro.sgx.memory import MemoryCounters, MemorySubsystem
from repro.sgx.paging import POLICY_NAMES

from .reference_lru import ReferenceEpc, ReferenceLru, ReferenceMemory
from .reference_spans import spans

SPACE_BYTES = 32 * 1024     # 512 lines, 8 pages


def tiny_spec(policy, epc_pages=3, llc_bytes=1024, ways=2):
    spec = scaled_spec(llc_bytes=llc_bytes,
                       epc_bytes=(epc_pages + 1) * 4096,
                       epc_reserved_bytes=4096, epc_policy=policy)
    return dataclasses.replace(spec, llc_associativity=ways)


runs = st.lists(st.tuples(st.integers(0, SPACE_BYTES - 1),
                          st.integers(1, 700)),
                min_size=1, max_size=12)
span = st.tuples(st.integers(0, SPACE_BYTES - 1), st.integers(1, 9000))
ops = st.lists(st.one_of(
    st.tuples(st.just("batch"), runs, st.booleans()),
    st.tuples(st.just("touch"), span, st.booleans()),
    st.tuples(st.just("flush")),
    st.tuples(st.just("eremove"), span),
    st.tuples(st.just("prefault"), span, st.booleans()),
), min_size=1, max_size=25)


def _apply(memory, reference, op, as_arrays):
    kind = op[0]
    if kind == "batch":
        _kind, batch, enclave = op
        lines, pages = spans(memory, batch)
        if as_arrays:
            lines, pages = (np.array(part, dtype=np.int64)
                            for part in (lines, pages))
        memory.touch_many(lines, pages, enclave)
        for address, n_bytes in batch:
            reference.touch(address, n_bytes, enclave)
    elif kind == "touch":
        _kind, (address, n_bytes), enclave = op
        memory.touch(address, n_bytes, enclave)
        reference.touch(address, n_bytes, enclave)
    elif kind == "flush":
        memory.cache.flush()
        reference.cache.flush()
    elif kind == "eremove":
        _kind, (address, n_bytes) = op
        assert memory.eremove_range(address, n_bytes) == \
            reference.eremove_range(address, n_bytes)
    else:
        _kind, (address, n_bytes), enclave = op
        memory.prefault(address, n_bytes, enclave)
        reference.prefault(address, n_bytes, enclave)


def _counters(memory):
    return (memory.cycles, memory.cache.hits, memory.cache.misses,
            memory.epc.faults, memory.epc.evictions, memory.epc.loads,
            memory.minor_faults)


def assert_python_counters(memory):
    """Every :class:`MemoryCounters` field is a Python number —
    ``cycles`` a float, the rest ints — whatever the batches were."""
    snapshot = memory.snapshot()
    for field in dataclasses.fields(MemoryCounters):
        value = getattr(snapshot, field.name)
        assert type(value) is (float if field.name == "cycles" else int), \
            (field.name, type(value))


@pytest.mark.parametrize("as_arrays", [False, True],
                         ids=["sequences", "arrays"])
@pytest.mark.parametrize("policy", POLICY_NAMES)
@given(ops=ops)
@settings(max_examples=120, deadline=None)
def test_model_equals_reference(policy, as_arrays, ops):
    spec = tiny_spec(policy)
    memory = MemorySubsystem(spec)
    reference = ReferenceMemory(spec)
    for op in ops:
        _apply(memory, reference, op, as_arrays)
        assert _counters(memory) == _counters(reference)
    assert_python_counters(memory)
    pages = range((SPACE_BYTES + 9000) // 4096 + 1)
    for page in pages:
        assert memory.epc.is_resident(page) == \
            reference.epc.is_resident(page)
        assert memory.epc.version_of(page) == \
            reference.epc.version_of(page)
    # Residual state: drain both, one access at a time. The sweeps
    # evict, so they expose the replacement order, not only residency.
    for _sweep in range(2):
        for page in pages:
            assert memory.epc.access(page) == reference.epc.access(page)
        for line in range((SPACE_BYTES + 9000) // 64 + 1):
            assert memory.cache.access_line(line) == \
                reference.cache.access_line(line)
    assert _counters(memory)[1:] == _counters(reference)[1:]


#: Line numbers near the starts of chunks and regions of a tiny
#: cache's store (chunks of 2**12 lines, regions of 2**24), and of
#: arenas (``MemoryArena.ARENA_SPAN`` is 2**30 lines of 64 bytes).
FAR = (0, 1 << 12, 3 << 12, 1 << 24, (1 << 24) + (1 << 12), 1 << 30,
       1 << 34)
near = st.integers(0, 40)
far = st.builds(int.__add__, st.sampled_from(FAR), st.integers(0, 12))


@pytest.mark.parametrize("as_array", [False, True],
                         ids=["list", "array"])
@given(batches=st.lists(st.lists(near | far, min_size=1, max_size=30),
                        min_size=1, max_size=30),
       ways=st.sampled_from([1, 2, 4]))
@settings(max_examples=150, deadline=None)
def test_line_batches_with_duplicates(as_array, batches, ways):
    """Arbitrary (non-contiguous, repeating) line batches, some of
    them spanning chunks and regions of the store."""
    cache = CacheModel(size_bytes=4 * 64 * ways, line_bytes=64,
                       associativity=ways)
    reference = ReferenceLru(size_bytes=4 * 64 * ways, line_bytes=64,
                             associativity=ways)
    for batch in batches:
        misses = cache.access_lines(
            np.array(batch, dtype=np.int64) if as_array else batch)
        assert type(misses) is int
        assert misses == sum(not reference.access_line(line)
                             for line in batch)
    assert (cache.hits, cache.misses) == \
        (reference.hits, reference.misses)
    assert type(cache.hits) is type(cache.misses) is int
    for line in [*range(48), *(base + offset for base in FAR
                               for offset in range(13))]:
        assert cache.access_line(line) == reference.access_line(line)


@pytest.mark.parametrize("policy", POLICY_NAMES)
@given(batches=st.lists(st.lists(st.integers(0, 6), min_size=1,
                                 max_size=12),
                        min_size=1, max_size=30))
@settings(max_examples=150, deadline=None)
def test_page_batches_with_duplicates(policy, batches):
    """Arbitrary page batches: resident ones reorder, others fault."""
    epc = EpcManager(tiny_spec(policy, epc_pages=4))
    reference = ReferenceEpc(4, policy)
    for batch in batches:
        assert epc.access_pages(batch) == sum(
            reference.access(page) for page in batch)
    for _sweep in range(2):
        for page in range(9):
            assert epc.access(page) == reference.access(page)
            assert epc.version_of(page) == reference.version_of(page)
    assert (epc.faults, epc.evictions, epc.loads) == \
        (reference.faults, reference.evictions, reference.loads)


def test_all_hit_batch_takes_the_last_occurrence():
    """[a, b, a] leaves b least recent, exactly as in-order accesses."""
    cache = CacheModel(size_bytes=2 * 64, line_bytes=64, associativity=2)
    cache.access_lines([0, 1])
    assert cache.access_lines([0, 1, 0]) == 0
    cache.access_line(2)                  # evicts the LRU: line 1
    assert cache.access_line(0) is True
    assert cache.access_line(1) is False


def test_all_hit_array_batch_keeps_each_lines_last_occurrence():
    """An all-resident int64 batch with lines repeated out of order
    leaves the recency order of in-order accesses: the scatter of
    ticks must keep each line's last one, not any one."""
    cache = CacheModel(size_bytes=4 * 64, line_bytes=64, associativity=4)
    reference = ReferenceLru(size_bytes=4 * 64, line_bytes=64,
                             associativity=4)
    warm = [0, 1, 2, 3]
    batch = [3, 0, 2, 1, 3, 0, 0, 2, 3, 1, 2, 0, 1, 3, 3, 2] * 40
    for lines in (warm, batch):
        assert cache.access_lines(np.array(lines, dtype=np.int64)) == \
            sum(not reference.access_line(line) for line in lines)
    assert cache.hits == len(batch) and cache.misses == len(warm)
    # one new line at a time evicts in LRU order: 1, 3, 2, 0
    for line in range(4, 12):
        assert cache.access_line(line) == reference.access_line(line)
        for old in warm:
            assert cache.access_line(old) == reference.access_line(old)


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_array_batch_spanning_two_arenas(policy):
    """One walk-sized batch over two arenas' lines (2**30 lines apart,
    so in two regions of the store): misses, then all hits, then
    evictions, each as the reference counts them."""
    spec = tiny_spec(policy, epc_pages=6, llc_bytes=4096, ways=4)
    memory = MemorySubsystem(spec)
    reference = ReferenceMemory(spec)
    span = 1 << 36          # MemoryArena.ARENA_SPAN, in bytes
    runs = [(span + 64 * k, 64) for k in range(0, 48, 3)] + \
        [(2 * span + 64 * k, 64) for k in range(0, 48, 5)]
    for batch in (runs, runs[::-1], runs + runs[:7]):
        lines, pages = spans(memory, batch)
        memory.touch_many(np.array(lines, dtype=np.int64),
                          np.array(pages, dtype=np.int64), True)
        for address, n_bytes in batch:
            reference.touch(address, n_bytes, True)
        assert _counters(memory) == _counters(reference)
    assert memory.cache.misses > 0 and memory.cache.hits > 0
    assert_python_counters(memory)


def test_store_regrows_under_older_set_entries():
    """Every new chunk of lines grows the stamp array; set entries filed
    before a regrowth must still find their lines' stamps after it (a
    set entry that held a view of the old array would read stale
    stamps and evict the wrong line)."""
    cache = CacheModel(size_bytes=4 * 64 * 2, line_bytes=64,
                       associativity=2)
    reference = ReferenceLru(size_bytes=4 * 64 * 2, line_bytes=64,
                             associativity=2)
    grown = []
    for chunk in range(1, 40):
        # chunk 0's lines filed first, then a fresh chunk per batch,
        # all in set 0, with chunk 0's lines refreshed in between
        batch = np.array([0, 4, chunk << 12, 8, chunk << 12, 0],
                         dtype=np.int64)
        assert cache.access_lines(batch) == sum(
            not reference.access_line(line) for line in batch.tolist())
        grown.append(len(cache._stamps))
    assert grown[-1] > grown[0]         # the array did regrow
    for line in (0, 4, 8, 12, 39 << 12, 38 << 12):
        assert cache.access_line(line) == reference.access_line(line)
    assert (cache.hits, cache.misses) == \
        (reference.hits, reference.misses)


def test_far_addresses_keep_the_store_small():
    """The store grows with the lines touched, not with their
    addresses: touching 64 bytes at 2**35 (and at 2**50) allocates
    kilobytes, not a stamp per line below them."""
    # the first batch with a miss imports what numpy loads lazily
    MemorySubsystem(scaled_spec()).touch_many(
        np.array([0], dtype=np.int64), [0], True)
    memory = MemorySubsystem(scaled_spec(epc_policy="lru"))
    tracemalloc.start()
    try:
        memory.touch(1 << 35, 64, enclave=True)
        memory.touch(1 << 50, 64, enclave=False)
        memory.touch_many(np.array([1 << 29, (1 << 44) + 3],
                                   dtype=np.int64),
                          np.array([1 << 23], dtype=np.int64), True)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert (memory.cache.hits, memory.cache.misses) == (1, 3)


@pytest.mark.parametrize("policy", POLICY_NAMES)
@given(batches=st.lists(
    st.lists(st.tuples(st.integers(0, 8), st.integers(1, 4)),
             min_size=1, max_size=12),
    min_size=1, max_size=30))
@settings(max_examples=150, deadline=None)
def test_collapsed_page_repeats_change_nothing(policy, batches):
    """``touch_many`` collapses consecutive repeats in an array of
    pages before the EPC: faults, evictions, loads, versions and the
    order of the victims the policy picks are those of every page
    touched one at a time by the reference."""
    memory = MemorySubsystem(tiny_spec(policy, epc_pages=4))
    epc = memory.epc
    reference = ReferenceEpc(4, policy)
    victims = ([], [])
    for policy_object, evicted in zip((epc.policy, reference.policy),
                                      victims):
        def logged(evict=policy_object.evict, evicted=evicted):
            page = evict()
            evicted.append(page)
            return page
        policy_object.evict = logged
    no_lines = np.zeros(0, dtype=np.int64)
    for runs in batches:
        pages = [page for page, repeats in runs for _ in range(repeats)]
        memory.touch_many(no_lines, np.array(pages, dtype=np.int64), True)
        for page in pages:
            reference.access(page)
        assert (epc.faults, epc.evictions, epc.loads) == \
            (reference.faults, reference.evictions, reference.loads)
        assert victims[0] == victims[1]
    for _sweep in range(2):
        for page in range(10):
            assert epc.access(page) == reference.access(page)
            assert epc.version_of(page) == reference.version_of(page)
    assert victims[0] == victims[1]
