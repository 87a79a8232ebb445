"""Arena addresses are a property of the platform, not of the process.

Each :class:`MemorySubsystem` lays out its own arenas: the first of each
space at that space's base, the next ``ARENA_SPAN`` further on. No
address depends on how many platforms or arenas were built earlier, so
two identical runs in one process pay identical counters.
"""

from __future__ import annotations

from repro.bench.experiments import CONFIGURATIONS, FilterSweep
from repro.sgx.cpu import scaled_spec
from repro.sgx.memory import (ENCLAVE_BASE, UNTRUSTED_BASE, MemoryArena,
                              MemorySubsystem)
from repro.sgx.platform import SgxPlatform
from repro.workloads.datasets import build_dataset


def _throwaway_arenas():
    for _ in range(3):
        memory = SgxPlatform().memory
        for enclave in (True, False, True):
            memory.new_arena(enclave=enclave).alloc(64)


def test_a_fresh_platform_starts_at_the_space_bases():
    _throwaway_arenas()
    memory = SgxPlatform().memory
    enclave = memory.new_arena(enclave=True)
    untrusted = memory.new_arena(enclave=False)
    assert (enclave.base, untrusted.base) == (ENCLAVE_BASE, UNTRUSTED_BASE)
    assert enclave.alloc(8) == ENCLAVE_BASE
    assert memory.new_arena(enclave=True).base == \
        ENCLAVE_BASE + MemoryArena.ARENA_SPAN
    assert memory.new_arena(enclave=False).base == \
        UNTRUSTED_BASE + MemoryArena.ARENA_SPAN


def test_bases_keep_lines_in_their_sets_and_pages_whole():
    spec = scaled_spec(llc_bytes=16 * 1024)
    set_span = spec.llc_bytes // spec.llc_associativity
    memory = MemorySubsystem(spec)
    for enclave in (True, False, True, False):
        base = memory.new_arena(enclave=enclave).base
        assert base % set_span == 0 and base % spec.page_bytes == 0


def test_identical_sweeps_in_one_process_pay_identical_counters():
    dataset = build_dataset("e80a1", 300, 4)
    spec = scaled_spec(llc_bytes=16 * 1024)

    def run():
        rows = FilterSweep(dataset, CONFIGURATIONS, spec).measure_at(300)
        for row in rows:
            row.wall_us = 0.0
        return rows

    first = run()
    _throwaway_arenas()
    assert run() == first
