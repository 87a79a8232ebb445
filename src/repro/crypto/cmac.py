"""AES-CMAC (RFC 4493), used to authenticate encrypted headers and blobs.

SGX itself derives 128-bit CMAC-based report keys; our simulated
attestation (:mod:`repro.sgx.attestation`) and sealing use this
implementation, as does the authenticated envelope in
:mod:`repro.core.messages`.
"""

from __future__ import annotations

import hmac
from typing import Tuple

from repro.crypto.aes import BLOCK_SIZE, EvpCipher, xor_bytes
from repro.errors import AuthenticationError, CryptoError

__all__ = ["AesCmac", "cmac", "cmac_verify"]

_RB = 0x87  # constant for 128-bit block size subkey derivation

_ZERO_BLOCK = bytes(BLOCK_SIZE)


def _left_shift_one(block: bytes) -> bytes:
    """Shift a 16-byte string left by one bit."""
    as_int = int.from_bytes(block, "big")
    shifted = (as_int << 1) & ((1 << 128) - 1)
    return shifted.to_bytes(16, "big")


class AesCmac:
    """CMAC tag generation/verification bound to one AES key."""

    def __init__(self, key: bytes) -> None:
        self._cbc = EvpCipher("cbc", key)
        # One CBC block under a zero IV is the block cipher itself.
        zero = self._cbc.run(_ZERO_BLOCK, _ZERO_BLOCK)
        k1 = _left_shift_one(zero)
        if zero[0] & 0x80:
            k1 = k1[:-1] + bytes([k1[-1] ^ _RB])
        k2 = _left_shift_one(k1)
        if k1[0] & 0x80:
            k2 = k2[:-1] + bytes([k2[-1] ^ _RB])
        self._k1 = k1
        self._k2 = k2

    def _split_last(self, message: bytes) -> Tuple[int, bytes]:
        """``(full_blocks, last)``: how many leading blocks enter the
        chain as they are, and the RFC 4493 final block."""
        n_blocks, remainder = divmod(len(message), BLOCK_SIZE)
        if n_blocks == 0 or remainder:
            # Incomplete (or empty) final block: pad with 10* and use K2.
            padded = message[n_blocks * BLOCK_SIZE:] + b"\x80"
            padded += bytes(BLOCK_SIZE - len(padded))
            return n_blocks, xor_bytes(padded, self._k2)
        return n_blocks - 1, xor_bytes(message[-BLOCK_SIZE:], self._k1)

    def tag(self, message: bytes) -> bytes:
        """Compute the 16-byte CMAC tag of ``message``.

        The CBC-MAC chain is one AES-CBC run under a zero IV over the
        leading full blocks and the final block; the tag is its last
        ciphertext block.
        """
        full_blocks, last = self._split_last(message)
        return self._cbc.run(
            _ZERO_BLOCK,
            message[:full_blocks * BLOCK_SIZE] + last)[-BLOCK_SIZE:]

    def verify(self, message: bytes, tag: bytes) -> None:
        """Raise :class:`AuthenticationError` unless ``tag`` is valid."""
        if len(tag) != BLOCK_SIZE:
            raise CryptoError(f"CMAC tag must be 16 bytes, got {len(tag)}")
        if not hmac.compare_digest(self.tag(message), tag):
            raise AuthenticationError("CMAC verification failed")


def cmac(key: bytes, message: bytes) -> bytes:
    """One-shot AES-CMAC tag (cached transform per key)."""
    from repro.crypto.provider import cmac_for_key
    return cmac_for_key(key).tag(message)


def cmac_verify(key: bytes, message: bytes, tag: bytes) -> None:
    """One-shot AES-CMAC verification; raises on mismatch."""
    from repro.crypto.provider import cmac_for_key
    cmac_for_key(key).verify(message, tag)
