"""AES-CMAC (RFC 4493), used to authenticate encrypted headers and blobs.

SGX itself derives 128-bit CMAC-based report keys; our simulated
attestation (:mod:`repro.sgx.attestation`) and sealing use this
implementation, as does the authenticated envelope in
:mod:`repro.core.messages`.
"""

from __future__ import annotations

import hmac
from struct import Struct
from typing import Dict, List, Sequence, Tuple

from repro.crypto.aes import (AES, BLOCK_SIZE, MAX_LANES, _pack_lanes,
                              _unpack_lanes, xor_bytes)
from repro.errors import AuthenticationError, CryptoError

__all__ = ["AesCmac", "cmac", "cmac_verify"]

_RB = 0x87  # constant for 128-bit block size subkey derivation

_PACK4 = Struct(">4I")


def _left_shift_one(block: bytes) -> bytes:
    """Shift a 16-byte string left by one bit."""
    as_int = int.from_bytes(block, "big")
    shifted = (as_int << 1) & ((1 << 128) - 1)
    return shifted.to_bytes(16, "big")


class AesCmac:
    """CMAC tag generation/verification bound to one AES key."""

    def __init__(self, key: bytes) -> None:
        self._aes = AES(key)
        zero = self._aes.encrypt_block(bytes(BLOCK_SIZE))
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
        """Compute the 16-byte CMAC tag of ``message``."""
        full_blocks, last = self._split_last(message)

        # The CBC-MAC chain stays in 32-bit words end to end: one
        # unpack per message block, no intermediate bytes objects.
        encrypt = self._aes._encrypt_words
        unpack_from = _PACK4.unpack_from
        s0 = s1 = s2 = s3 = 0
        for i in range(full_blocks):
            b0, b1, b2, b3 = unpack_from(message, i * BLOCK_SIZE)
            s0, s1, s2, s3 = encrypt(s0 ^ b0, s1 ^ b1,
                                     s2 ^ b2, s3 ^ b3)
        b0, b1, b2, b3 = _PACK4.unpack(last)
        return _PACK4.pack(*encrypt(s0 ^ b0, s1 ^ b1,
                                    s2 ^ b2, s3 ^ b3))

    def tag_many(self, messages: Sequence[bytes]) -> List[bytes]:
        """The tags of many messages, ``[tag(m) for m in messages]``.

        A CBC-MAC chain is sequential within a message, but the chains
        of different messages are independent, so two or more run side
        by side: message *j* is lane *j* of the AES batch kernel
        (:meth:`~repro.crypto.aes.AES._encrypt_lanes`), step *i* XORs
        block *i* of every lane into the batch state and encrypts all
        lanes in one kernel call. A lane's RFC 4493 final block sits at
        that lane's own last step and its tag is read there; the lane
        then idles (its later blocks are zero and its state is never
        read again) so the batch keeps one width for its longest
        message. A single message — where the kernel is slower than the
        word loop — goes through :meth:`tag`.
        """
        tags: List[bytes] = []
        for start in range(0, len(messages), MAX_LANES):
            window = messages[start:start + MAX_LANES]
            if len(window) < 2:
                tags.extend(self.tag(message) for message in window)
            else:
                tags.extend(self._tag_lanes(window))
        return tags

    def _tag_lanes(self, messages: Sequence[bytes]) -> List[bytes]:
        n = len(messages)
        lanes: List[bytes] = []
        finishing: Dict[int, List[int]] = {}
        for lane, message in enumerate(messages):
            full_blocks, last = self._split_last(message)
            lanes.append(message[:full_blocks * BLOCK_SIZE] + last)
            finishing.setdefault(full_blocks, []).append(lane)
        stride = (max(finishing) + 1) * BLOCK_SIZE
        buffer = b"".join([lane.ljust(stride, b"\x00") for lane in lanes])

        encrypt = self._aes._encrypt_lanes
        tags: List[bytes] = [b""] * n
        state = 0
        for offset in range(0, stride, BLOCK_SIZE):
            state = encrypt(state ^ _pack_lanes(buffer, offset, stride), n)
            finished = finishing.get(offset // BLOCK_SIZE)
            if finished:
                blocks = _unpack_lanes(state, n)
                for lane in finished:
                    tags[lane] = blocks[lane * BLOCK_SIZE:
                                        (lane + 1) * BLOCK_SIZE]
        return tags

    @staticmethod
    def _check(expected: bytes, tag: bytes) -> None:
        if len(tag) != BLOCK_SIZE:
            raise CryptoError(f"CMAC tag must be 16 bytes, got {len(tag)}")
        if not hmac.compare_digest(expected, tag):
            raise AuthenticationError("CMAC verification failed")

    def verify(self, message: bytes, tag: bytes) -> None:
        """Raise :class:`AuthenticationError` unless ``tag`` is valid."""
        self._check(self.tag(message), tag)

    def verify_many(self, messages: Sequence[bytes],
                    tags: Sequence[bytes]) -> None:
        """:meth:`verify` every ``(message, tag)`` pair, in order.

        Raises what a loop of :meth:`verify` would have raised — the
        first failing pair decides, a mis-sized tag as
        :class:`CryptoError`, a wrong one as
        :class:`AuthenticationError` — but computes the tags through
        :meth:`tag_many`.
        """
        if len(messages) != len(tags):
            raise CryptoError("verify_many needs one tag per message")
        for expected, tag in zip(self.tag_many(messages), tags):
            self._check(expected, tag)


def cmac(key: bytes, message: bytes) -> bytes:
    """One-shot AES-CMAC tag (cached transform per key)."""
    from repro.crypto.provider import cmac_for_key
    return cmac_for_key(key).tag(message)


def cmac_verify(key: bytes, message: bytes, tag: bytes) -> None:
    """One-shot AES-CMAC verification; raises on mismatch."""
    from repro.crypto.provider import cmac_for_key
    cmac_for_key(key).verify(message, tag)
