"""Memory encryption engine (MEE): confidentiality of protected memory.

Between the CPU package and DRAM, SGX's MEE encrypts every protected
cache line, authenticates it, and defends against replay with the
counter tree (Gueron 2016). The *cost* of this machinery is charged by
the performance model (:class:`repro.sgx.memory.MemorySubsystem`); this
module provides the *functional* half used by security tests and the
paging path: actual encryption of protected blocks keyed by the
platform, with freshness enforced by :class:`IntegrityTree`.

A snooping attacker (reading DRAM or the bus) sees only ciphertext;
modifying or replaying blocks trips the integrity tree, which locks the
memory controller.
"""

from __future__ import annotations

from typing import Dict

from repro.crypto.ctr import AesCtr
from repro.errors import MemoryLockError
from repro.sgx.integrity_tree import IntegrityTree

__all__ = ["MemoryEncryptionEngine"]


class MemoryEncryptionEngine:
    """Encrypt/verify protected blocks on their way to untrusted DRAM."""

    def __init__(self, key: bytes, n_blocks: int,
                 block_bytes: int = 4096) -> None:
        self._ctr = AesCtr(key)
        self.block_bytes = block_bytes
        self.tree = IntegrityTree(key, n_blocks)
        #: Untrusted DRAM: what an attacker can read and overwrite.
        self.dram: Dict[int, bytes] = {}

    def _nonce(self, block: int, version: int) -> bytes:
        return block.to_bytes(8, "big") + version.to_bytes(8, "big")

    def write_block(self, block: int, plaintext: bytes) -> None:
        """Encrypt ``plaintext`` out to DRAM and authenticate it."""
        if len(plaintext) > self.block_bytes:
            raise ValueError("plaintext exceeds block size")
        padded = plaintext.ljust(self.block_bytes, b"\x00")
        self.tree.write(block, padded)
        version = self.tree.nonces[0][block]
        self.dram[block] = self._ctr.process(self._nonce(block, version),
                                             padded)

    def read_block(self, block: int) -> bytes:
        """Fetch, decrypt and verify a block from DRAM.

        Raises :class:`MemoryLockError` if the ciphertext was tampered
        with or replaced by a stale version.
        """
        ciphertext = self.dram.get(block)
        if ciphertext is None:
            raise MemoryLockError(f"block {block} missing from DRAM")
        version = self.tree.nonces[0][block]
        plaintext = self._ctr.process(self._nonce(block, version),
                                      ciphertext)
        self.tree.verify(block, plaintext)
        return plaintext
