"""RSA-OAEP / RSA-PSS tests (small keys for speed)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.rsa import (RsaPrivateKey, RsaPublicKey,
                              _generate_keypair_unchecked,
                              generate_keypair)
from repro.errors import AuthenticationError, CryptoError


@pytest.fixture(scope="module")
def keypair():
    return _generate_keypair_unchecked(768, 65537)


class TestKeyGeneration:

    def test_modulus_bit_length(self, keypair):
        assert keypair.n.bit_length() == 768

    def test_public_key_matches(self, keypair):
        assert keypair.public_key.n == keypair.n
        assert keypair.public_key.e == keypair.e

    def test_ed_inverse(self, keypair):
        message = 0x1234567890ABCDEF
        assert pow(pow(message, keypair.e, keypair.n), keypair.d,
                   keypair.n) == message

    def test_refuses_tiny_keys(self):
        with pytest.raises(CryptoError):
            generate_keypair(bits=256)


class TestOaep:

    def test_roundtrip(self, keypair):
        ciphertext = keypair.public_key.encrypt(b"secret")
        assert keypair.decrypt(ciphertext) == b"secret"

    def test_randomised(self, keypair):
        a = keypair.public_key.encrypt(b"secret")
        b = keypair.public_key.encrypt(b"secret")
        assert a != b  # fresh seed per encryption

    def test_label_binding(self, keypair):
        ciphertext = keypair.public_key.encrypt(b"secret", label=b"ctx")
        assert keypair.decrypt(ciphertext, label=b"ctx") == b"secret"
        with pytest.raises(CryptoError):
            keypair.decrypt(ciphertext, label=b"other")

    def test_empty_message(self, keypair):
        assert keypair.decrypt(keypair.public_key.encrypt(b"")) == b""

    def test_max_length(self, keypair):
        limit = keypair.public_key.max_message_length
        message = b"x" * limit
        assert keypair.decrypt(keypair.public_key.encrypt(message)) \
            == message
        with pytest.raises(CryptoError):
            keypair.public_key.encrypt(b"x" * (limit + 1))

    def test_tampered_ciphertext(self, keypair):
        ciphertext = bytearray(keypair.public_key.encrypt(b"secret"))
        ciphertext[-1] ^= 1
        with pytest.raises(CryptoError):
            keypair.decrypt(bytes(ciphertext))

    @settings(max_examples=10, deadline=None)
    @given(st.data())
    def test_roundtrip_property(self, keypair, data):
        message = data.draw(st.binary(
            max_size=keypair.public_key.max_message_length))
        assert keypair.decrypt(
            keypair.public_key.encrypt(message)) == message


class TestPss:

    def test_sign_verify(self, keypair):
        signature = keypair.sign(b"message")
        keypair.public_key.verify(b"message", signature)

    def test_signature_randomised_but_both_valid(self, keypair):
        s1 = keypair.sign(b"m")
        s2 = keypair.sign(b"m")
        assert s1 != s2  # salted
        keypair.public_key.verify(b"m", s1)
        keypair.public_key.verify(b"m", s2)

    def test_wrong_message(self, keypair):
        signature = keypair.sign(b"message")
        with pytest.raises(AuthenticationError):
            keypair.public_key.verify(b"other", signature)

    def test_tampered_signature(self, keypair):
        signature = bytearray(keypair.sign(b"message"))
        signature[0] ^= 1
        with pytest.raises(AuthenticationError):
            keypair.public_key.verify(b"message", bytes(signature))

    def test_wrong_key(self, keypair):
        other = _generate_keypair_unchecked(768, 65537)
        signature = keypair.sign(b"message")
        with pytest.raises(AuthenticationError):
            other.public_key.verify(b"message", signature)

    def test_signature_length_check(self, keypair):
        with pytest.raises(AuthenticationError):
            keypair.public_key.verify(b"message", b"short")
