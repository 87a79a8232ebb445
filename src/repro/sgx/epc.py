"""Enclave page cache (EPC) residency model.

Enclave code and data live in the EPC, a region of physical memory
(128 MB on the paper's machine, ~90 MB usable) that the CPU encrypts and
authenticates. When an enclave's working set exceeds the usable EPC, the
SGX kernel driver evicts pages (EWB: encrypt, MAC, version) to untrusted
memory and reloads them on demand (ELD: decrypt, verify freshness) — the
mechanism behind the paging cliff of Figure 8.

This module tracks *residency* and *versions*; the cost of each fault is
charged by :class:`repro.sgx.memory.MemorySubsystem`, and the actual
page-content cryptography for functional demonstrations lives in
:class:`repro.sgx.mee.MemoryEncryptionEngine`.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.errors import EpcError
from repro.sgx.cpu import PlatformSpec
from repro.sgx.paging import make_policy

__all__ = ["EpcManager"]


class EpcManager:
    """Residency tracking for enclave pages.

    Pages are identified by virtual page number (address >> page shift).
    A version counter per evicted page models SGX's version array, which
    is what defeats replay of stale evicted pages. Victim selection is
    delegated to the driver's replacement policy
    (:mod:`repro.sgx.paging`; chosen via ``spec.epc_policy``).
    """

    __slots__ = ("capacity_pages", "page_bytes", "_resident",
                 "_versions", "faults", "evictions", "loads", "policy")

    def __init__(self, spec: PlatformSpec) -> None:
        self.capacity_pages = spec.epc_usable_pages
        self.page_bytes = spec.page_bytes
        if self.capacity_pages <= 0:
            raise EpcError("EPC has no usable pages")
        self._resident: Dict[int, bool] = {}
        self._versions: Dict[int, int] = {}
        self.policy = make_policy(spec.epc_policy)
        self.faults = 0
        self.evictions = 0
        self.loads = 0

    @property
    def resident_pages(self) -> int:
        """Number of pages currently resident in the EPC."""
        return len(self._resident)

    @property
    def resident_bytes(self) -> int:
        """Bytes currently resident in the EPC — the residency leg of
        the sharding working-set tracker."""
        return len(self._resident) * self.page_bytes

    @property
    def utilization(self) -> float:
        """Resident fraction of usable EPC capacity (0.0–1.0)."""
        return len(self._resident) / self.capacity_pages

    def is_resident(self, page: int) -> bool:
        return page in self._resident

    def version_of(self, page: int) -> int:
        """Eviction count of ``page`` (0 if never evicted)."""
        return self._versions.get(page, 0)

    def access(self, page: int) -> bool:
        """Touch ``page``; returns True if it faulted (was not resident).

        A fault loads the page, evicting the policy's victim if the EPC
        is full.
        """
        return bool(self.access_pages((page,)))

    def access_run(self, first_page: int, last_page: int) -> int:
        """Touch the inclusive page run; returns the fault count."""
        return self.access_pages(range(first_page, last_page + 1))

    def access_pages(self, pages: Sequence[int]) -> int:
        """Touch ``pages`` in order; returns the fault count.

        The one residency entry point: a batch of resident pages is a
        C-level membership test plus one policy notification for the
        batch; a batch containing a fault takes the per-page loop
        (same policy notifications, same eviction sequence as touching
        each page by itself).
        """
        resident = self._resident
        policy = self.policy
        if all(map(resident.__contains__, pages)):
            policy.accessed_many(pages)
            return 0
        versions = self._versions
        capacity = self.capacity_pages
        faults = 0
        for page in pages:
            if page in resident:
                policy.accessed(page)
                continue
            faults += 1
            if len(resident) >= capacity:
                victim = policy.evict()
                del resident[victim]
                self.evictions += 1
                versions[victim] = versions.get(victim, 0) + 1
            resident[page] = True
            policy.loaded(page)
        self.faults += faults
        self.loads += faults
        return faults

    def remove(self, page: int) -> None:
        """EREMOVE: drop a page from the EPC (enclave teardown)."""
        if self._resident.pop(page, None) is not None:
            self.policy.removed(page)

    def reset_counters(self) -> None:
        """Zero fault/eviction/load counters (keeps residency state)."""
        self.faults = 0
        self.evictions = 0
        self.loads = 0

    def attach_metrics(self, registry) -> list:
        """Expose residency state as callback gauges on ``registry``.

        Callback-backed gauges read this manager's counters at snapshot
        time, so the per-access hot path pays nothing for observability.
        ``registry`` is a :class:`repro.obs.metrics.MetricsRegistry`
        (duck-typed here to keep the SGX layer import-light). Returns
        the gauges, for the caller to freeze at its own teardown.
        """
        return [
            registry.gauge("epc.faults", "cumulative EPC page faults",
                           fn=lambda: self.faults),
            registry.gauge("epc.evictions", "cumulative EWB evictions",
                           fn=lambda: self.evictions),
            registry.gauge("epc.loads", "cumulative ELD page loads",
                           fn=lambda: self.loads),
            registry.gauge("epc.resident_pages",
                           "pages currently resident in the EPC",
                           fn=lambda: self.resident_pages)]
