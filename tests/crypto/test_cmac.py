"""AES-CMAC tests against the RFC 4493 vectors."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.cmac import AesCmac, cmac, cmac_verify
from repro.errors import AuthenticationError, CryptoError

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
MSG = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710")


class TestRfc4493Vectors:

    def test_empty_message(self):
        assert cmac(KEY, b"").hex() == \
            "bb1d6929e95937287fa37d129b756746"

    def test_one_block(self):
        assert cmac(KEY, MSG[:16]).hex() == \
            "070a16b46b4d4144f79bdd9dd04a287c"

    def test_20_bytes(self):
        assert cmac(KEY, MSG[:20]).hex() == \
            "7d85449ea6ea19c823a7bf78837dfade"

    def test_full_64_bytes(self):
        assert cmac(KEY, MSG).hex() == \
            "51f0bebf7e3b9d92fc49741779363cfe"


class TestVerify:

    def test_roundtrip(self):
        tag = cmac(KEY, b"message")
        cmac_verify(KEY, b"message", tag)  # should not raise

    def test_tampered_message(self):
        tag = cmac(KEY, b"message")
        with pytest.raises(AuthenticationError):
            cmac_verify(KEY, b"messagX", tag)

    def test_tampered_tag(self):
        tag = bytearray(cmac(KEY, b"message"))
        tag[0] ^= 1
        with pytest.raises(AuthenticationError):
            cmac_verify(KEY, b"message", bytes(tag))

    def test_wrong_key(self):
        tag = cmac(KEY, b"message")
        with pytest.raises(AuthenticationError):
            cmac_verify(b"x" * 16, b"message", tag)

    def test_wrong_tag_length(self):
        with pytest.raises(CryptoError):
            cmac_verify(KEY, b"message", b"short")

    @given(st.binary(max_size=100))
    def test_verify_accepts_own_tags(self, message):
        mac = AesCmac(KEY)
        mac.verify(message, mac.tag(message))

    @given(st.binary(max_size=64), st.binary(max_size=64))
    def test_distinct_messages_distinct_tags(self, a, b):
        if a == b:
            return
        assert cmac(KEY, a) != cmac(KEY, b)
