"""Cryptographic substrate for SCBR.

The paper (s3.5) uses AES-CTR for symmetric encryption (Crypto++ outside
the enclave, Intel SDK crypto inside) and RSA for the client-to-provider
registration path. This package provides those primitives plus the MACs
and KDFs the simulated SGX platform needs: AES runs in OpenSSL's
libcrypto (:mod:`repro.crypto.aes`), RSA is implemented from scratch.
"""

from repro.crypto.aes import AES, BLOCK_SIZE, xor_bytes
from repro.crypto.cmac import AesCmac, cmac, cmac_verify
from repro.crypto.ctr import AesCtr, ctr_decrypt, ctr_encrypt
from repro.crypto.drbg import HmacDrbg
from repro.crypto.encoding import (b64decode, b64encode, pack_fields,
                                   unpack_fields)
from repro.crypto.hkdf import hkdf, hkdf_expand, hkdf_extract
from repro.crypto.primes import generate_prime, is_probable_prime
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey, generate_keypair

__all__ = [
    "AES", "BLOCK_SIZE", "xor_bytes",
    "AesCtr", "ctr_encrypt", "ctr_decrypt",
    "AesCmac", "cmac", "cmac_verify",
    "HmacDrbg",
    "b64encode", "b64decode", "pack_fields", "unpack_fields",
    "hkdf", "hkdf_extract", "hkdf_expand",
    "generate_prime", "is_probable_prime",
    "RsaPublicKey", "RsaPrivateKey", "generate_keypair",
]
