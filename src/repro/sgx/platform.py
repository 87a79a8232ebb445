"""The simulated SGX-capable machine.

An :class:`SgxPlatform` bundles everything one physical host provides:

* the traced memory subsystem (LLC + EPC models, cycle account);
* the processor's fused secrets, from which per-enclave sealing and
  report keys are derived (EGETKEY semantics);
* launch control (which enclave signers may run);
* the monotonic-counter service used for rollback protection;
* the platform attestation key that the quoting enclave uses to sign
  quotes for remote attestation.

Key derivations follow SGX's structure — keys are bound to the
*platform* and to the requesting enclave's MRENCLAVE or MRSIGNER — but
use HKDF-SHA-256 instead of the hardware's AES-CMAC KDF tree.
"""

from __future__ import annotations

import secrets
from typing import Optional, Set

from repro.crypto.hkdf import hkdf
from repro.crypto.rsa import RsaPrivateKey, _generate_keypair_unchecked
from repro.errors import SgxError
from repro.sgx.counters import MonotonicCounterService
from repro.sgx.cpu import PlatformSpec, SKYLAKE_I7_6700
from repro.sgx.memory import MemorySubsystem

__all__ = ["SgxPlatform", "KeyPolicy"]


class KeyPolicy:
    """EGETKEY binding policy: seal to the code identity or the signer."""

    MRENCLAVE = "mrenclave"
    MRSIGNER = "mrsigner"


class SgxPlatform:
    """One SGX machine: memory model, fused keys, launch control.

    ``attestation_key_bits`` is configurable because RSA key generation
    in pure Python is slow; tests use small keys, examples use 2048.
    """

    def __init__(self, spec: PlatformSpec = SKYLAKE_I7_6700,
                 attestation_key_bits: int = 1024,
                 seed: Optional[bytes] = None) -> None:
        self.spec = spec
        self.memory = MemorySubsystem(spec)
        self.counters = MonotonicCounterService()
        # Fused root secret (unique per CPU, burnt at manufacturing).
        self._root_key = seed if seed is not None else secrets.token_bytes(32)
        # Platform attestation key, certified by "Intel" (the simulated
        # attestation service learns the public half at registration).
        # Generated lazily: benchmarks create many platforms and never
        # attest them; RSA keygen in pure Python is the dominant cost.
        self._attestation_key_bits = attestation_key_bits
        self._attestation_key: Optional[RsaPrivateKey] = None
        #: Signers allowed by launch control; empty set = allow all.
        self.allowed_signers: Set[bytes] = set()
        self._enclave_counter = 0
        #: The enclave currently executing (set by EENTER/EEXIT).
        self.current_enclave = None

    @property
    def attestation_key(self) -> RsaPrivateKey:
        """The platform attestation private key (lazily generated)."""
        if self._attestation_key is None:
            self._attestation_key = _generate_keypair_unchecked(
                self._attestation_key_bits, 65537)
        return self._attestation_key

    # -- enclave bookkeeping -------------------------------------------------

    def next_enclave_id(self) -> int:
        """Allocate the next enclave id on this platform."""
        self._enclave_counter += 1
        return self._enclave_counter

    def launch_allowed(self, mr_signer: bytes) -> bool:
        """Launch-control check applied at EINIT."""
        return not self.allowed_signers or mr_signer in self.allowed_signers

    # -- key derivation (EGETKEY) ---------------------------------------------

    def derive_seal_key(self, mr_enclave: bytes, mr_signer: bytes,
                        policy: str, key_id: bytes = b"") -> bytes:
        """Seal key bound to this platform and the enclave identity.

        With ``KeyPolicy.MRENCLAVE`` only the exact same code on the
        same machine re-derives the key; with ``KeyPolicy.MRSIGNER`` any
        enclave from the same vendor can (enabling upgrades).
        """
        if policy == KeyPolicy.MRENCLAVE:
            identity = b"enclave:" + mr_enclave
        elif policy == KeyPolicy.MRSIGNER:
            identity = b"signer:" + mr_signer
        else:
            raise SgxError(f"unknown key policy: {policy!r}")
        return hkdf(self._root_key, salt=b"seal",
                    info=identity + b"|" + key_id, length=16)

    def derive_report_key(self, target_mr_enclave: bytes) -> bytes:
        """Report key of a *target* enclave on this platform.

        Only the target enclave (via EGETKEY) and the CPU (via EREPORT)
        can derive it, which is what makes local attestation work.
        """
        return hkdf(self._root_key, salt=b"report",
                    info=target_mr_enclave, length=16)

    # -- convenience ---------------------------------------------------------

    def simulated_us(self) -> float:
        """Total simulated microseconds elapsed on this platform."""
        return self.memory.elapsed_us()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SgxPlatform(spec={self.spec.name!r}, "
                f"cycles={self.memory.cycles:.0f})")
