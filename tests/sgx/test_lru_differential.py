"""The memory model against its pinned reference, op for op.

``test_memory_batching.py`` compares the batched entry points with
per-access loops *of the same model*; here the other side is
``reference_lru.py``, the pre-rewrite ``OrderedDict`` LRU and per-page
EPC loop kept under ``tests/``. Tiny geometries keep every regime in
reach of a short op list: all-hit batches, batches with misses and
evictions, duplicates inside a batch, flushes, EREMOVE, prefault, and
each paging policy.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.sgx.cache import CacheModel
from repro.sgx.cpu import scaled_spec
from repro.sgx.epc import EpcManager
from repro.sgx.memory import MemorySubsystem
from repro.sgx.paging import POLICY_NAMES

from .reference_lru import ReferenceEpc, ReferenceLru, ReferenceMemory

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


def _apply(memory, reference, op):
    kind = op[0]
    if kind == "batch":
        _kind, batch, enclave = op
        memory.touch_many(*memory.spans(batch), enclave)
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


@pytest.mark.parametrize("policy", POLICY_NAMES)
@given(ops=ops)
@settings(max_examples=120, deadline=None)
def test_model_equals_reference(policy, ops):
    spec = tiny_spec(policy)
    memory = MemorySubsystem(spec)
    reference = ReferenceMemory(spec)
    for op in ops:
        _apply(memory, reference, op)
        assert _counters(memory) == _counters(reference)
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


@given(batches=st.lists(st.lists(st.integers(0, 40), min_size=1,
                                 max_size=30),
                        min_size=1, max_size=30),
       ways=st.sampled_from([1, 2, 4]))
@settings(max_examples=150, deadline=None)
def test_line_batches_with_duplicates(batches, ways):
    """Arbitrary (non-contiguous, repeating) line batches."""
    cache = CacheModel(size_bytes=4 * 64 * ways, line_bytes=64,
                       associativity=ways)
    reference = ReferenceLru(size_bytes=4 * 64 * ways, line_bytes=64,
                             associativity=ways)
    for batch in batches:
        misses = cache.access_lines(batch)
        assert misses == sum(not reference.access_line(line)
                             for line in batch)
    assert (cache.hits, cache.misses) == \
        (reference.hits, reference.misses)
    for line in range(48):
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
