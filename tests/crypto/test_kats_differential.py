"""Extended KATs and differential tests against the pinned reference.

The OpenSSL-backed modes (ECB blocks, CTR, CMAC over one CBC run) must
be byte-for-byte the same functions as the pure-Python reference
implementations in :mod:`repro.crypto.reference`. This module holds the
two gates:

* NIST known-answer vectors beyond the basics already in
  ``test_aes.py`` / ``test_ctr.py`` / ``test_cmac.py``: FIPS-197
  decrypt for 192/256-bit keys, SP 800-38A CTR-AES192/256 (F.5.3,
  F.5.5) and SP 800-38B CMAC examples for AES-192/256.
* Seeded differential tests driving the production and reference
  implementations through identical inputs — all key sizes, every CTR
  length up to 1,100 bytes, counters that wrap past 2^128, and CMAC on
  empty, whole-block and partial-block messages.
"""

import random

import pytest

from repro.crypto.aes import AES, BLOCK_SIZE
from repro.crypto.cmac import AesCmac
from repro.crypto.ctr import AesCtr
from repro.crypto.reference import (ReferenceAES, ReferenceAesCmac,
                                    ReferenceAesCtr)

KEY_128 = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
KEY_192 = bytes.fromhex(
    "8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b")
KEY_256 = bytes.fromhex("603deb1015ca71be2b73aef0857d7781"
                        "1f352c073b6108d72d9810a30914dff4")
CTR_IV = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
NIST_PLAINTEXT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710")


class TestFips197Decrypt:
    """Appendix C inverse-cipher vectors for the larger key sizes."""

    PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")

    def test_aes192_decrypt(self):
        key = bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f1011121314151617")
        ciphertext = bytes.fromhex("dda97ca4864cdfe06eaf70a0ec0d7191")
        assert AES(key).decrypt_block(ciphertext) == self.PLAINTEXT

    def test_aes256_decrypt(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f"
                            "101112131415161718191a1b1c1d1e1f")
        ciphertext = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")
        assert AES(key).decrypt_block(ciphertext) == self.PLAINTEXT


class TestCtrLargerKeys:
    """SP 800-38A F.5.3 (CTR-AES192) and F.5.5 (CTR-AES256)."""

    CIPHERTEXT_192 = bytes.fromhex(
        "1abc932417521ca24f2b0459fe7e6e0b"
        "090339ec0aa6faefd5ccc2c6f4ce8e94"
        "1e36b26bd1ebc670d1bd1d665620abf7"
        "4f78a7f6d29809585a97daec58c6b050")
    CIPHERTEXT_256 = bytes.fromhex(
        "601ec313775789a5b7a7f504bbf3d228"
        "f443e3ca4d62b59aca84e990cacaf5c5"
        "2b0930daa23de94ce87017ba2d84988d"
        "dfc9c58db67aada613c2dd08457941a6")

    def test_ctr_aes192_encrypt(self):
        assert AesCtr(KEY_192).process(
            CTR_IV, NIST_PLAINTEXT) == self.CIPHERTEXT_192

    def test_ctr_aes192_decrypt(self):
        assert AesCtr(KEY_192).process(
            CTR_IV, self.CIPHERTEXT_192) == NIST_PLAINTEXT

    def test_ctr_aes256_encrypt(self):
        assert AesCtr(KEY_256).process(
            CTR_IV, NIST_PLAINTEXT) == self.CIPHERTEXT_256

    def test_ctr_aes256_decrypt(self):
        assert AesCtr(KEY_256).process(
            CTR_IV, self.CIPHERTEXT_256) == NIST_PLAINTEXT


class TestCmacLargerKeys:
    """SP 800-38B CMAC examples for AES-192 and AES-256."""

    @pytest.mark.parametrize("n_bytes,expected", [
        (0, "d17ddf46adaacde531cac483de7a9367"),
        (16, "9e99a7bf31e710900662f65e617c5184"),
        (40, "8a1de5be2eb31aad089a82e6ee908b0e"),
        (64, "a1d5df0eed790f794d77589659f39a11"),
    ])
    def test_cmac_aes192(self, n_bytes, expected):
        tag = AesCmac(KEY_192).tag(NIST_PLAINTEXT[:n_bytes])
        assert tag.hex() == expected

    @pytest.mark.parametrize("n_bytes,expected", [
        (0, "028962f61b7bf89efc6b551f4667d983"),
        (16, "28a7023f452e8f82bd4bf28d8c37c35c"),
        (40, "aaf3d8f1de5640c232f5b169b9c911e6"),
        (64, "e1992190549f6ed5696a2c056c315410"),
    ])
    def test_cmac_aes256(self, n_bytes, expected):
        tag = AesCmac(KEY_256).tag(NIST_PLAINTEXT[:n_bytes])
        assert tag.hex() == expected


class TestDifferentialFuzz:
    """Equivalence with the reference over >=1000 seeded random cases.

    The reference classes are the pinned per-byte implementations; any
    divergence here means the production path is not AES/CTR/CMAC any
    more.
    """

    def test_block_cipher_differential(self):
        rng = random.Random(0xA51)
        for _case in range(450):  # x2 directions = 900 comparisons
            key = rng.randbytes(rng.choice([16, 24, 32]))
            block = rng.randbytes(BLOCK_SIZE)
            fast, slow = AES(key), ReferenceAES(key)
            ct_fast = fast.encrypt_block(block)
            assert ct_fast == slow.encrypt_block(block)
            assert fast.decrypt_block(ct_fast) == block
            assert slow.decrypt_block(ct_fast) == block

    def test_ctr_counter_wrap(self):
        """Nonces at 2^128 - k: the counter wraps to zero mid-stream."""
        rng = random.Random(0x88F)
        for key_len in (16, 24, 32):
            for blocks_past in (1, 2, 3, 7):
                key = rng.randbytes(key_len)
                nonce = ((1 << 128) - blocks_past).to_bytes(16, "big")
                data = rng.randbytes((blocks_past + 3) * BLOCK_SIZE + 5)
                assert AesCtr(key).process(nonce, data) == \
                    ReferenceAesCtr(key).process(nonce, data)

    def test_cmac_differential(self):
        rng = random.Random(0x3AC)
        for _case in range(150):
            key = rng.randbytes(rng.choice([16, 24, 32]))
            message = rng.randbytes(rng.randrange(0, 200))
            assert AesCmac(key).tag(message) == \
                ReferenceAesCmac(key).tag(message)


KEY_LENGTHS = (16, 24, 32)


class TestEvpAgainstReference:
    """The OpenSSL-backed modes against the pinned pure-Python ones.

    CTR is compared at every length from 0 to ``MAX_CTR`` bytes (the
    keystream of a prefix is the prefix of the keystream, so one
    reference run covers them all), and CMAC on the message shapes
    RFC 4493 treats apart: whole blocks (K1), and an empty or partial
    last block (padded, K2).
    """

    MAX_CTR = 1100

    @pytest.mark.parametrize("key_len", KEY_LENGTHS)
    def test_ctr_every_length(self, key_len):
        rng = random.Random(0xC72 + key_len)
        key, nonce = rng.randbytes(key_len), rng.randbytes(16)
        data = rng.randbytes(self.MAX_CTR)
        expected = ReferenceAesCtr(key).process(nonce, data)
        fast = AesCtr(key)
        for n in range(self.MAX_CTR + 1):
            assert fast.process(nonce, data[:n]) == expected[:n], n

    @pytest.mark.parametrize("key_len", KEY_LENGTHS)
    def test_process_many_equals_process(self, key_len):
        rng = random.Random(0x9A1 + key_len)
        ctr = AesCtr(rng.randbytes(key_len))
        pairs = [(rng.randbytes(16), rng.randbytes(n))
                 for n in (0, 1, 16, 17, 242, 1100)]
        assert ctr.process_many(pairs) == \
            [ctr.process(nonce, data) for nonce, data in pairs]

    @pytest.mark.parametrize("key_len", KEY_LENGTHS)
    @pytest.mark.parametrize("n_bytes", [16, 32, 64, 1024,         # K1
                                         0, 1, 15, 17, 33, 1023])  # K2
    def test_cmac_message_shapes(self, key_len, n_bytes):
        rng = random.Random(0x3AC + 7 * key_len + n_bytes)
        key, message = rng.randbytes(key_len), rng.randbytes(n_bytes)
        mac = AesCmac(key)
        expected = ReferenceAesCmac(key).tag(message)
        assert mac.tag(message) == expected
        mac.verify(message, expected)
