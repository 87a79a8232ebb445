"""Platform specification and cycle-cost model for the SGX simulator.

The paper's testbed is an Intel Skylake i7-6700 (3.4 GHz, 8 MB LLC,
8 GB RAM) with the maximum 128 MB EPC. We model the components its
evaluation exercises — last-level cache, EPC paging and the memory
encryption engine (MEE) — as a deterministic cycle-cost model.

All costs are expressed in CPU cycles and collected into
:class:`CostModel`. Defaults are calibrated from published SGX
micro-benchmarks and the shapes in the paper:

* an LLC miss costs a DRAM round trip (~200 cycles at 3.4 GHz);
* inside an enclave the MEE additionally decrypts and integrity-checks
  the cache line, and maintains the counter tree on write-back — SGX1
  measurements put protected-memory miss cost at roughly 2-6x an
  ordinary miss (Gueron 2016); the in/out gap of Fig. 5 (~40 % at
  100 k subscriptions) pins the multiplier;
* an EPC page fault runs the SGX driver plus EWB/ELD (page re-encryption
  and integrity verification) — tens of microseconds, versus a minor
  fault outside (~1-2 us); Fig. 8's 18x registration-time ratio pins
  the ratio between the two;
* enclave transitions (EENTER/EEXIT) cost several thousand cycles
  (~8 000 measured on Skylake).

The spec is fully configurable so experiments can be scaled down (e.g.
benchmarks shrink the LLC and EPC to hit the paper's knees with
Python-sized workloads) without touching the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = ["CostModel", "PlatformSpec", "SKYLAKE_I7_6700", "scaled_spec"]

KIB = 1024
MIB = 1024 * 1024


@dataclass(frozen=True)
class CostModel:
    """Cycle costs of the micro-events the simulator charges for."""

    #: L1/L2-resident access (charged per touched cache line on LLC hit).
    llc_hit_cycles: int = 4
    #: DRAM access on LLC miss, outside any enclave.
    llc_miss_cycles: int = 200
    #: Extra cost of an LLC miss to protected memory: MEE decrypt +
    #: integrity-tree walk on fill, counter update on write-back.
    #: Calibrated so the in/out matching-time gap at high miss rates
    #: approaches the paper's ~40% (Fig. 5 at 100 k subscriptions).
    mee_line_cycles: int = 120
    #: Minor page fault serviced by the OS (first touch, outside enclave).
    minor_fault_cycles: int = 5_000
    #: EPC page fault: driver entry, victim EWB (encrypt + MAC), ELD of
    #: the faulting page (decrypt + verify), TLB shootdown.
    epc_fault_cycles: int = 120_000
    #: EENTER or ERESUME transition into an enclave.
    eenter_cycles: int = 8_000
    #: EEXIT transition out of an enclave.
    eexit_cycles: int = 8_000
    #: Marshalling cost per byte copied across the enclave boundary.
    boundary_copy_cycles_per_byte: float = 0.25
    #: Evaluating one predicate against an event header.
    predicate_eval_cycles: int = 18
    #: Fixed overhead of visiting one index node (pointer chase, loop).
    node_visit_cycles: int = 10
    #: AES-NI-style cost per 16-byte block of AES-CTR (SGX SDK crypto).
    aes_block_cycles: int = 40
    #: Fixed per-message cost of setting up an AES-CTR operation.
    aes_setup_cycles: int = 1_200
    #: One multiply-accumulate in the ASPE scalar-product matcher.
    aspe_mac_cycles: int = 3
    #: Fixed per-subscription overhead of the ASPE matcher (loop setup,
    #: per-row pointer chasing in the matrix store).
    aspe_sub_overhead_cycles: int = 60


@dataclass(frozen=True)
class PlatformSpec:
    """Geometry of the simulated machine."""

    name: str = "skylake-i7-6700"
    clock_hz: float = 3.4e9
    cache_line_bytes: int = 64
    llc_bytes: int = 8 * MIB
    llc_associativity: int = 16
    page_bytes: int = 4096
    #: Total EPC carved out of RAM at boot (BIOS PRM size).
    epc_bytes: int = 128 * MIB
    #: Fraction of the EPC consumed by SGX metadata (EPCM, version
    #: arrays); the paper observes ~90 MB of 128 MB usable.
    epc_reserved_bytes: int = 38 * MIB
    #: Page-replacement policy of the simulated SGX driver
    #: ("lru", "clock" or "fifo"; see repro.sgx.paging).
    epc_policy: str = "lru"
    costs: CostModel = field(default_factory=CostModel)

    @property
    def epc_usable_bytes(self) -> int:
        """EPC bytes available to enclave application pages."""
        return self.epc_bytes - self.epc_reserved_bytes

    @property
    def epc_usable_pages(self) -> int:
        return self.epc_usable_bytes // self.page_bytes

    def cycles_to_us(self, cycles: float) -> float:
        """Convert a cycle count to microseconds on this platform."""
        return cycles / self.clock_hz * 1e6


#: The paper's testbed.
SKYLAKE_I7_6700 = PlatformSpec()


def scaled_spec(llc_bytes: int = None, epc_bytes: int = None,
                epc_reserved_bytes: int = None,
                epc_policy: str = None,
                base: PlatformSpec = SKYLAKE_I7_6700) -> PlatformSpec:
    """A spec with shrunken cache/EPC for scaled-down experiments.

    The benchmarks use this to reproduce the paper's knees (cache
    exhaustion at ~10 k subscriptions, EPC exhaustion at ~90 MB) with
    index sizes a Python matcher can sweep in reasonable time. Scaling
    the geometry, not the cost model, preserves curve shapes.
    """
    kwargs = {}
    if llc_bytes is not None:
        kwargs["llc_bytes"] = llc_bytes
    if epc_bytes is not None:
        kwargs["epc_bytes"] = epc_bytes
    if epc_reserved_bytes is not None:
        kwargs["epc_reserved_bytes"] = epc_reserved_bytes
    if epc_policy is not None:
        kwargs["epc_policy"] = epc_policy
    spec = replace(base, **kwargs)
    if spec.epc_usable_bytes <= 0:
        raise ValueError("EPC reservation exceeds EPC size")
    return spec
