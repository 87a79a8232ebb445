"""Simulated Intel SGX platform.

Functional + cost-model simulation of the SGX mechanisms the paper's
evaluation exercises: enclave lifecycle and measurement, EPC paging,
the memory encryption engine and its integrity tree, sealing with
monotonic counters, and remote attestation. See DESIGN.md section 2 for
the substitution rationale (no SGX silicon is available here).
"""

from repro.sgx.attestation import (AttestationService,
                                   AttestationVerificationReport,
                                   Quote, QuotingEnclave, verify_avr)
from repro.sgx.cache import CacheModel
from repro.sgx.counters import MonotonicCounterService
from repro.sgx.cpu import (CostModel, PlatformSpec, SKYLAKE_I7_6700,
                           scaled_spec)
from repro.sgx.enclave import (Enclave, EnclaveBuilder, Report, Sigstruct,
                               TrustedRuntime, mr_signer_of)
from repro.sgx.epc import EpcManager
from repro.sgx.integrity_tree import IntegrityTree
from repro.sgx.measurement import MeasurementLog
from repro.sgx.mee import MemoryEncryptionEngine
from repro.sgx.memory import MemoryArena, MemoryCounters, MemorySubsystem
from repro.sgx.perfcounters import (PerfCounterSession, RusageSnapshot,
                                    read_counters)
from repro.sgx.platform import KeyPolicy, SgxPlatform
from repro.sgx.sdk import EnclaveLibrary, ecall, load_enclave, make_proxy
from repro.sgx.sealing import SealedBlob, seal, unseal

__all__ = [
    "AttestationService", "AttestationVerificationReport", "Quote",
    "QuotingEnclave", "verify_avr",
    "CacheModel", "MonotonicCounterService",
    "CostModel", "PlatformSpec", "SKYLAKE_I7_6700", "scaled_spec",
    "Enclave", "EnclaveBuilder", "Report", "Sigstruct", "TrustedRuntime",
    "mr_signer_of",
    "EpcManager", "IntegrityTree", "MeasurementLog",
    "MemoryEncryptionEngine", "MemoryArena", "MemoryCounters",
    "MemorySubsystem",
    "PerfCounterSession", "RusageSnapshot", "read_counters",
    "KeyPolicy", "SgxPlatform",
    "EnclaveLibrary", "ecall", "load_enclave", "make_proxy",
    "SealedBlob", "seal", "unseal",
]
