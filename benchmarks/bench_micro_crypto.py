"""Micro-benchmarks A3: primitive costs (real wall-clock).

pytest-benchmark timings of the crypto (§3.5's building blocks: AES
through OpenSSL, RSA from scratch) and of the simulated enclave
transition. These are the only
benchmarks whose absolute numbers are meant as real wall-clock — they
characterise this reproduction's substrate, not the paper's hardware.
"""

import pytest

from repro.core.messages import SecureChannel, encode_header
from repro.crypto.aes import AES
from repro.crypto.cmac import AesCmac
from repro.crypto.ctr import AesCtr
from repro.crypto.rsa import _generate_keypair_unchecked
from repro.matching.events import Event
from repro.sgx.platform import SgxPlatform
from repro.sgx.sdk import EnclaveLibrary, ecall, load_enclave

KEY = bytes(range(16))
HEADER = Event({"symbol": "HAL", "open": 47.9, "high": 48.6,
                "low": 47.1, "close": 48.2, "volume": 1.2e6,
                "change_pct": 0.63, "avg_volume": 1.1e6})


@pytest.fixture(scope="module")
def rsa_key():
    return _generate_keypair_unchecked(1024, 65537)


@pytest.mark.benchmark(group="micro-crypto")
def test_aes_block_encrypt(benchmark):
    cipher = AES(KEY)
    block = bytes(16)
    benchmark(cipher.encrypt_block, block)


@pytest.mark.benchmark(group="micro-crypto")
def test_aes_ctr_header(benchmark):
    """AES-CTR over one typical publication header."""
    ctr = AesCtr(KEY)
    nonce = bytes(16)
    blob = encode_header(HEADER)
    benchmark(ctr.process, nonce, blob)


@pytest.mark.benchmark(group="micro-crypto")
def test_cmac_header(benchmark):
    mac = AesCmac(KEY)
    blob = encode_header(HEADER)
    benchmark(mac.tag, blob)


@pytest.mark.benchmark(group="micro-crypto")
def test_secure_channel_roundtrip(benchmark):
    channel = SecureChannel(KEY)
    blob = encode_header(HEADER)

    def roundtrip():
        return channel.open(channel.protect(blob))

    benchmark(roundtrip)


@pytest.mark.benchmark(group="micro-crypto")
def test_rsa_sign(benchmark, rsa_key):
    benchmark(rsa_key.sign, b"subscription envelope")


@pytest.mark.benchmark(group="micro-crypto")
def test_rsa_verify(benchmark, rsa_key):
    signature = rsa_key.sign(b"subscription envelope")
    benchmark(rsa_key.public_key.verify, b"subscription envelope",
              signature)


class _NoopEnclave(EnclaveLibrary):

    @ecall
    def noop(self):
        return None


@pytest.mark.benchmark(group="micro-sgx")
def test_ecall_roundtrip(benchmark, rsa_key):
    platform = SgxPlatform(attestation_key_bits=768)
    enclave = load_enclave(platform, _NoopEnclave, rsa_key)
    benchmark(enclave.ecall, "noop")
