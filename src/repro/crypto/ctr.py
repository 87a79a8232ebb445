"""AES-CTR mode, the symmetric cipher used throughout SCBR (paper §3.5).

Publications and subscriptions are encrypted by the producer under the
shared key SK and decrypted inside the enclave with the same keystream.
CTR turns the AES block cipher into a stream cipher, so encryption and
decryption are the same operation and no padding is needed.

The nonce handling mirrors common practice (and the Intel SDK's
``sgx_aes_ctr_encrypt``): a 16-byte initial counter block, incremented
per block as one big-endian 128-bit integer that wraps mod 2^128. A
call is one IV reset and one update of an OpenSSL CTR context
(:class:`~repro.crypto.aes.EvpCipher`).
"""

from __future__ import annotations

import secrets
from typing import List, Sequence, Tuple

from repro.crypto.aes import EvpCipher
from repro.errors import CryptoError

__all__ = ["AesCtr", "ctr_encrypt", "ctr_decrypt"]

NONCE_SIZE = 16


class AesCtr:
    """Stateless AES-CTR transform bound to a key.

    >>> key = bytes(range(16))
    >>> ctr = AesCtr(key)
    >>> nonce = bytes(16)
    >>> ctr.process(nonce, ctr.process(nonce, b"attack at dawn"))
    b'attack at dawn'
    """

    __slots__ = ("_cipher",)

    def __init__(self, key: bytes) -> None:
        self._cipher = EvpCipher("ctr", key)

    def process(self, nonce: bytes, data: bytes) -> bytes:
        """Encrypt or decrypt ``data`` under the given initial counter."""
        return self._cipher.run(nonce, data)

    def process_many(self, pairs: Sequence[Tuple[bytes, bytes]]
                     ) -> List[bytes]:
        """Apply :meth:`process` to many ``(nonce, data)`` pairs.

        The batched entry point the engine's envelope path uses.
        """
        run = self._cipher.run
        return [run(nonce, data) for nonce, data in pairs]

    def encrypt_with_fresh_nonce(self, data: bytes) -> bytes:
        """Encrypt under a random nonce; returns ``nonce || ciphertext``."""
        nonce = secrets.token_bytes(NONCE_SIZE)
        return nonce + self.process(nonce, data)

    def decrypt_with_prefixed_nonce(self, blob: bytes) -> bytes:
        """Invert :meth:`encrypt_with_fresh_nonce`."""
        if len(blob) < NONCE_SIZE:
            raise CryptoError("ciphertext shorter than its nonce prefix")
        return self.process(blob[:NONCE_SIZE], blob[NONCE_SIZE:])


def ctr_encrypt(key: bytes, nonce: bytes, plaintext: bytes) -> bytes:
    """One-shot AES-CTR encryption (cached transform per key)."""
    from repro.crypto.provider import ctr_for_key
    return ctr_for_key(key).process(nonce, plaintext)


def ctr_decrypt(key: bytes, nonce: bytes, ciphertext: bytes) -> bytes:
    """One-shot AES-CTR decryption (identical to encryption)."""
    from repro.crypto.provider import ctr_for_key
    return ctr_for_key(key).process(nonce, ciphertext)
