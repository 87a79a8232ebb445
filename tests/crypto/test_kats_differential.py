"""Extended KATs and old-vs-new differential fuzzing.

The optimized data plane (T-table AES, the whole-state batch kernel
under CTR and lane-parallel CMAC, word-state CMAC) must be byte-for-byte the same function as the pinned pre-PR
reference implementations in :mod:`repro.crypto.reference`. This module
holds the two gates:

* NIST known-answer vectors beyond the basics already in
  ``test_aes.py`` / ``test_ctr.py`` / ``test_cmac.py``: FIPS-197
  decrypt for 192/256-bit keys, SP 800-38A CTR-AES192/256 (F.5.3,
  F.5.5) and SP 800-38B CMAC examples for AES-192/256.
* A seeded differential fuzz (1000+ cases) driving the optimized and
  reference implementations through identical inputs — all key sizes,
  CTR lengths straddling the batch-kernel threshold, a counter-wrap
  case near 2^128, the kernel lane by lane against ``encrypt_block``
  and ``tag_many`` over ragged batches.
"""

import random

import pytest

from repro.crypto.aes import (AES, BLOCK_SIZE, MAX_LANES,
                              _SLICE_THRESHOLD, _pack_lanes,
                              _unpack_lanes)
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
    """Old-vs-new equivalence over >=1000 seeded random cases.

    The reference classes are the pinned pre-optimization per-byte
    implementations; any divergence here means the fast path is not
    AES/CTR/CMAC any more and fails the PR's byte-exactness gate.
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

    def test_ctr_differential_both_paths(self):
        rng = random.Random(0xC72)
        # Lengths straddle the batch-kernel threshold so both keystream
        # code paths (per-block word loop and batch kernel) are
        # exercised against the reference.
        word_loop_max = (_SLICE_THRESHOLD - 1) * BLOCK_SIZE
        lengths = [0, 1, 15, 16, 17, word_loop_max,
                   word_loop_max + 1, _SLICE_THRESHOLD * BLOCK_SIZE,
                   1000, 4096]
        for _case in range(40):
            key = rng.randbytes(rng.choice([16, 24, 32]))
            fast, slow = AesCtr(key), ReferenceAesCtr(key)
            for n in lengths:  # 40 x 10 = 400 cases
                nonce = rng.randbytes(16)
                data = rng.randbytes(n)
                assert fast.process(nonce, data) == \
                    slow.process(nonce, data)

    def test_ctr_counter_wrap(self):
        """Keystreams that wrap the 128-bit counter past zero."""
        rng = random.Random(0x88F)
        for _case in range(20):
            key = rng.randbytes(rng.choice([16, 24, 32]))
            blocks_past = rng.randrange(1, 2 * _SLICE_THRESHOLD)
            start = ((1 << 128) - blocks_past) << 0
            nonce = start.to_bytes(16, "big")
            data = rng.randbytes(
                (blocks_past + _SLICE_THRESHOLD) * BLOCK_SIZE)
            assert AesCtr(key).process(nonce, data) == \
                ReferenceAesCtr(key).process(nonce, data)

    def test_cmac_differential(self):
        rng = random.Random(0x3AC)
        for _case in range(150):
            key = rng.randbytes(rng.choice([16, 24, 32]))
            message = rng.randbytes(rng.randrange(0, 200))
            assert AesCmac(key).tag(message) == \
                ReferenceAesCmac(key).tag(message)

    def test_sliced_keystream_matches_word_loop(self):
        """The two internal CTR paths agree block-for-block."""
        rng = random.Random(0x51C)
        for _case in range(30):
            key = rng.randbytes(rng.choice([16, 24, 32]))
            aes = AES(key)
            counter = rng.getrandbits(128)
            n_blocks = rng.randrange(_SLICE_THRESHOLD, 2 * MAX_LANES)
            sliced = aes._ctr_keystream_sliced(counter, n_blocks)
            per_block = b"".join(
                aes.encrypt_block(
                    ((counter + i) & ((1 << 128) - 1)).to_bytes(
                        16, "big"))
                for i in range(n_blocks))
            assert sliced == per_block

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 31, 32, 33, 200])
    def test_kernel_matches_encrypt_block_lane_by_lane(self, n):
        rng = random.Random(0x1A9E + n)
        for key_len in (16, 24, 32):
            aes = AES(rng.randbytes(key_len))
            blocks = rng.randbytes(BLOCK_SIZE * n)
            state = _pack_lanes(blocks, 0, BLOCK_SIZE)
            assert _unpack_lanes(state, n) == blocks
            assert _unpack_lanes(aes._encrypt_lanes(state, n), n) \
                == b"".join(
                    aes.encrypt_block(blocks[i:i + BLOCK_SIZE])
                    for i in range(0, len(blocks), BLOCK_SIZE))

    def test_lane_round_keys_are_bounded_and_per_object(self):
        rng = random.Random(0xB0D)
        aes = AES(rng.randbytes(16))
        aes.encrypt_block(bytes(16))
        aes.ctr_keystream(7, _SLICE_THRESHOLD - 1)
        assert not aes._lane_keys and not aes._wide_keys[1]
        for n in list(range(1, 130)) + [1, 200, 64, 2]:
            aes._encrypt_lanes(0, n)
        assert sorted(aes._lane_keys) == list(range(2, MAX_LANES + 1))
        assert aes._wide_keys[0] == 200
        # A fresh object of another key at the same widths shares none.
        other = AES(rng.randbytes(16))
        for n in (2, 64, 200):
            assert other._encrypt_lanes(0, n) != aes._encrypt_lanes(0, n)

    LANE_LENGTHS = (0, 1, 15, 16, 17, 31, 32, 33, 1022, 1024)

    @pytest.mark.parametrize("key_len", [16, 24, 32])
    def test_tag_many_differential(self, key_len):
        rng = random.Random(0x7A6 + key_len)
        key = rng.randbytes(key_len)
        fast, slow = AesCmac(key), ReferenceAesCmac(key)
        lengths = list(self.LANE_LENGTHS)
        batches = [
            [],
            [b""],
            [b"", rng.randbytes(1024)],           # empty beside long
            [rng.randbytes(n) for n in lengths],  # every finishing step
            [rng.randbytes(n) for n in reversed(lengths)],
            [rng.randbytes(33)] * 3 + [b"", b""],  # duplicates
            [rng.randbytes(rng.choice(lengths[:8]))
             for _ in range(2 * MAX_LANES + 1)],  # windows of lanes + 1
        ]
        for _case in range(12):
            batches.append([rng.randbytes(rng.choice(lengths))
                            for _ in range(rng.randrange(2, 40))])
        for batch in batches:
            expected = [slow.tag(message) for message in batch]
            assert fast.tag_many(batch) == expected
            fast.verify_many(batch, expected)
