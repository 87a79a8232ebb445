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

    def test_all_four_as_one_batch(self):
        """One lane per vector: each finishes at its own step."""
        tags = AesCmac(KEY).tag_many([b"", MSG[:16], MSG[:20], MSG])
        assert [tag.hex() for tag in tags] == [
            "bb1d6929e95937287fa37d129b756746",
            "070a16b46b4d4144f79bdd9dd04a287c",
            "7d85449ea6ea19c823a7bf78837dfade",
            "51f0bebf7e3b9d92fc49741779363cfe"]


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


class TestVerifyMany:
    """``verify_many`` raises what a loop of ``verify`` would."""

    MESSAGES = [b"", b"a" * 16, b"b" * 40, MSG]

    def test_accepts_own_tags(self):
        mac = AesCmac(KEY)
        mac.verify_many(self.MESSAGES, mac.tag_many(self.MESSAGES))
        mac.verify_many([], [])

    @pytest.mark.parametrize("lane", range(4))
    def test_one_bad_lane_fails(self, lane):
        mac = AesCmac(KEY)
        tags = mac.tag_many(self.MESSAGES)
        tags[lane] = bytes([tags[lane][0] ^ 1]) + tags[lane][1:]
        with pytest.raises(AuthenticationError):
            mac.verify_many(self.MESSAGES, tags)

    def test_first_failure_in_order_decides(self):
        mac = AesCmac(KEY)
        tags = mac.tag_many(self.MESSAGES)
        wrong, short = bytes(16), tags[2][:15]
        with pytest.raises(CryptoError) as caught:
            mac.verify_many(self.MESSAGES,
                            [tags[0], short, wrong, tags[3]])
        assert not isinstance(caught.value, AuthenticationError)
        with pytest.raises(AuthenticationError):
            mac.verify_many(self.MESSAGES,
                            [tags[0], wrong, short, tags[3]])

    def test_needs_one_tag_per_message(self):
        with pytest.raises(CryptoError):
            AesCmac(KEY).verify_many(self.MESSAGES, [bytes(16)] * 3)
