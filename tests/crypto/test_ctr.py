"""AES-CTR mode tests, including the NIST SP 800-38A vectors."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.ctr import AesCtr, ctr_decrypt, ctr_encrypt
from repro.errors import CryptoError


class TestSp800_38aVectors:
    """NIST SP 800-38A F.5.1 CTR-AES128.Encrypt."""

    KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    COUNTER = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
    PLAINTEXT = bytes.fromhex(
        "6bc1bee22e409f96e93d7e117393172a"
        "ae2d8a571e03ac9c9eb76fac45af8e51"
        "30c81c46a35ce411e5fbc1191a0a52ef"
        "f69f2445df4f9b17ad2b417be66c3710")
    CIPHERTEXT = bytes.fromhex(
        "874d6191b620e3261bef6864990db6ce"
        "9806f66b7970fdff8617187bb9fffdff"
        "5ae4df3edbd5d35e5b4f09020db03eab"
        "1e031dda2fbe03d1792170a0f3009cee")

    def test_encrypt(self):
        assert ctr_encrypt(self.KEY, self.COUNTER,
                           self.PLAINTEXT) == self.CIPHERTEXT

    def test_decrypt(self):
        assert ctr_decrypt(self.KEY, self.COUNTER,
                           self.CIPHERTEXT) == self.PLAINTEXT

    def test_partial_block(self):
        """CTR is a stream: prefixes encrypt identically."""
        partial = ctr_encrypt(self.KEY, self.COUNTER, self.PLAINTEXT[:7])
        assert partial == self.CIPHERTEXT[:7]


class TestProperties:

    @given(st.binary(max_size=200))
    def test_roundtrip(self, data):
        ctr = AesCtr(b"k" * 16)
        nonce = b"n" * 16
        assert ctr.process(nonce, ctr.process(nonce, data)) == data

    @given(st.binary(min_size=1, max_size=64))
    def test_different_nonces_differ(self, data):
        ctr = AesCtr(b"k" * 16)
        a = ctr.process(b"\x00" * 16, data)
        b = ctr.process(b"\x01" * 16, data)
        assert a != b

    def test_fresh_nonce_roundtrip(self):
        ctr = AesCtr(b"k" * 16)
        blob = ctr.encrypt_with_fresh_nonce(b"hello")
        assert ctr.decrypt_with_prefixed_nonce(blob) == b"hello"
        # A second encryption uses a different nonce.
        assert ctr.encrypt_with_fresh_nonce(b"hello") != blob

    def test_counter_wraps_across_blocks(self):
        """The counter increments per block (checked via overlap)."""
        ctr = AesCtr(b"k" * 16)
        nonce = b"\xff" * 16  # wraps to zero after first block
        two_blocks = ctr.process(nonce, bytes(32))
        assert two_blocks[16:] == ctr.process(bytes(16), bytes(16))


class TestErrors:

    def test_bad_nonce_length(self):
        with pytest.raises(CryptoError):
            AesCtr(b"k" * 16).process(b"short", b"data")
        with pytest.raises(CryptoError):
            AesCtr(b"k" * 16).process_many([(bytes(16), b"a"),
                                            (bytes(17), b"")])

    def test_truncated_prefixed_blob(self):
        with pytest.raises(CryptoError):
            AesCtr(b"k" * 16).decrypt_with_prefixed_nonce(b"tiny")
