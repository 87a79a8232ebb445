"""The AES binding: the libcrypto Python already maps, checked calls,
and contexts that go away quietly."""

import ctypes
import os
import ssl
import subprocess
import sys

import pytest

import repro
from repro.crypto import aes
from repro.crypto.aes import EvpCipher
from repro.errors import CryptoError


def test_binds_the_libcrypto_python_already_loaded():
    """Same version as the one ``ssl`` reports: no second libcrypto."""
    version = aes._lib.OpenSSL_version_num
    version.restype = ctypes.c_ulong
    assert version() == ssl.OPENSSL_VERSION_NUMBER


@pytest.mark.parametrize("key_len", [0, 15, 17, 33])
def test_bad_key_length_is_a_crypto_error(key_len):
    with pytest.raises(CryptoError):
        EvpCipher("ctr", bytes(key_len))


def test_failed_calls_raise_crypto_error():
    cipher = EvpCipher("ctr", bytes(16))
    assert len(cipher.run(bytes(16), b"abc")) == 3
    cipher._update = lambda *args: 0
    with pytest.raises(CryptoError, match="update"):
        cipher.run(bytes(16), b"abc")
    cipher._init = lambda *args: 0
    with pytest.raises(CryptoError, match="IV"):
        cipher.run(bytes(16), b"abc")


def test_interpreter_exit_is_silent():
    """Contexts still alive at shutdown — cached, module-global, in a
    reference cycle — and a construction that failed half-way are
    cleaned up without a word on stdout or stderr."""
    code = "\n".join([
        "from repro.crypto.aes import AES",
        "from repro.crypto.provider import cmac_for_key, ctr_for_key",
        "from repro.crypto.ctr import AesCtr",
        "from repro.errors import CryptoError",
        "try:",
        "    AesCtr(bytes(15))",
        "except CryptoError:",
        "    pass",
        "ctr = ctr_for_key(bytes(16))",
        "tag = cmac_for_key(bytes(24)).tag(b'x')",
        "block = AES(bytes(32))",
        "class Cycle: pass",
        "cycle = Cycle()",
        "cycle.self, cycle.ctr = cycle, AesCtr(bytes(16))",
    ])
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
