"""AES (FIPS-197) through the libcrypto CPython already loads.

The paper's SCBR prototype runs AES natively: Intel SDK crypto inside
the enclave, Crypto++ outside. Here the block cipher is OpenSSL's,
bound with :mod:`ctypes` to the ``libcrypto`` that ``hashlib``,
``hmac`` and ``ssl`` already map, so binding it costs no new library.
Only a handful of EVP calls are used: one cipher context per keyed
transform, keyed once; a call resets the IV (the key schedule stays)
and pushes the whole input through one update. Padding is off, so an
update returns exactly as many bytes as it is given. The modes on top
are :mod:`repro.crypto.ctr` (AES-CTR) and :mod:`repro.crypto.cmac`
(CMAC over one AES-CBC run); the pinned pure-Python cipher in
:mod:`repro.crypto.reference` is the oracle every test compares with.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import weakref
from typing import Optional

from repro.errors import CryptoError

__all__ = ["AES", "BLOCK_SIZE", "xor_bytes"]

BLOCK_SIZE = 16

_KEY_BITS = {16: 128, 24: 192, 32: 256}


def _load_libcrypto() -> ctypes.CDLL:
    path = ctypes.util.find_library("crypto")
    if path is None:
        raise ImportError("libcrypto (OpenSSL) not found")
    lib = ctypes.CDLL(path)
    ptr, buf, c_int = ctypes.c_void_p, ctypes.c_char_p, ctypes.c_int
    signatures = {
        "EVP_CIPHER_CTX_new": ((), ptr),
        "EVP_CIPHER_CTX_free": ((ptr,), None),
        "EVP_CIPHER_CTX_set_padding": ((ptr, c_int), c_int),
    }
    for direction in ("Encrypt", "Decrypt"):
        signatures[f"EVP_{direction}Init_ex"] = (
            (ptr, ptr, ptr, buf, buf), c_int)
        signatures[f"EVP_{direction}Update"] = (
            (ptr, buf, ctypes.POINTER(c_int), buf, c_int), c_int)
    for bits in _KEY_BITS.values():
        for mode in ("ecb", "cbc", "ctr"):
            signatures[f"EVP_aes_{bits}_{mode}"] = ((), ptr)
    for name, (argtypes, restype) in signatures.items():
        function = getattr(lib, name)
        function.argtypes, function.restype = argtypes, restype
    return lib


_lib = _load_libcrypto()


class EvpCipher:
    """One OpenSSL cipher context: an AES mode and direction, keyed once.

    ``run(iv, data)`` resets the IV (``None`` keeps the state, which is
    what ECB wants), then transforms ``data`` in one update. The
    context is freed by a finalizer when this object goes.
    """

    __slots__ = ("_ctx", "_init", "_update", "_outl", "_free",
                 "__weakref__")

    def __init__(self, mode: str, key: bytes, encrypt: bool = True) -> None:
        bits = _KEY_BITS.get(len(key))
        if bits is None:
            raise CryptoError(
                f"AES key must be 16, 24 or 32 bytes, got {len(key)}")
        ctx = _lib.EVP_CIPHER_CTX_new()
        if not ctx:
            raise CryptoError("EVP_CIPHER_CTX_new failed")
        self._free = weakref.finalize(self, _lib.EVP_CIPHER_CTX_free, ctx)
        self._ctx = ctx
        if encrypt:
            self._init, self._update = (_lib.EVP_EncryptInit_ex,
                                        _lib.EVP_EncryptUpdate)
        else:
            self._init, self._update = (_lib.EVP_DecryptInit_ex,
                                        _lib.EVP_DecryptUpdate)
        cipher = getattr(_lib, f"EVP_aes_{bits}_{mode}")()
        if not (self._init(ctx, cipher, None, bytes(key), None)
                and _lib.EVP_CIPHER_CTX_set_padding(ctx, 0)):
            raise CryptoError(f"cannot key AES-{bits}-{mode.upper()}")
        self._outl = ctypes.c_int()

    def run(self, iv: Optional[bytes], data: bytes) -> bytes:
        """``data`` through the cipher, after resetting the IV to ``iv``."""
        ctx = self._ctx
        if iv is not None:
            # OpenSSL reads a whole block from the IV pointer.
            if len(iv) != BLOCK_SIZE:
                raise CryptoError(
                    f"IV must be {BLOCK_SIZE} bytes, got {len(iv)}")
            if not self._init(ctx, None, None, None, bytes(iv)):
                raise CryptoError("cannot reset the AES IV")
        n = len(data)
        out = ctypes.create_string_buffer(n)
        outl = self._outl
        if not self._update(ctx, out, ctypes.byref(outl), bytes(data), n) \
                or outl.value != n:
            raise CryptoError("AES update failed")
        return out.raw


class AES:
    """AES-128/192/256 block cipher over 16-byte blocks.

    >>> cipher = AES(bytes(16))
    >>> len(cipher.encrypt_block(bytes(16)))
    16
    """

    _ROUNDS_BY_KEYLEN = {16: 10, 24: 12, 32: 14}

    __slots__ = ("_rounds", "_encrypt", "_decrypt")

    def __init__(self, key: bytes) -> None:
        self._encrypt = EvpCipher("ecb", key)
        self._decrypt = EvpCipher("ecb", key, encrypt=False)
        self._rounds = self._ROUNDS_BY_KEYLEN[len(key)]

    @property
    def rounds(self) -> int:
        """Number of AES rounds for this key size (10, 12 or 14)."""
        return self._rounds

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise CryptoError(f"block must be 16 bytes, got {len(block)}")
        return self._encrypt.run(None, block)

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt exactly one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise CryptoError(f"block must be 16 bytes, got {len(block)}")
        return self._decrypt.run(None, block)


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    if len(a) != len(b):
        raise CryptoError("xor_bytes requires equal-length inputs")
    return (int.from_bytes(a, "big")
            ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")
