"""AES block cipher (FIPS-197), 32-bit T-table implementation.

The paper's SCBR prototype uses AES-CTR both inside the enclave (Intel SDK
crypto) and outside (Crypto++). This module provides the block primitive;
:mod:`repro.crypto.ctr` and :mod:`repro.crypto.cmac` build the modes on top.

The S-box and round constants are *derived* (GF(2^8) inversion + affine
transform) rather than transcribed, and the SubBytes/ShiftRows/MixColumns
round is collapsed into four 256-entry 32-bit lookup tables (the classic
"T-table" formulation every optimised software AES uses): one round of a
column becomes four table lookups and four XORs on machine words instead
of sixteen byte operations. Decryption uses the equivalent inverse cipher
with four TD tables and an InvMixColumns-transformed key schedule, so it
runs the same word-oriented round. Many independent blocks at once —
a CTR keystream, or one CBC-MAC step of every message in a batch — go
through one *batch kernel* instead (:meth:`AES._encrypt_lanes`): the
whole batch is a single big integer and a round is a couple of dozen
C-level operations whatever the batch width. Everything is verified
against the FIPS-197 / NIST test vectors and differentially fuzzed
against the pinned per-byte implementation in
:mod:`repro.crypto.reference`.

This is a clean-room educational implementation: it favours clarity and
speed over side-channel resistance (table lookups are not constant time),
which is acceptable for a simulator whose threat model is explicitly
*modelled*, not enforced, in software.
"""

from __future__ import annotations

from struct import Struct
from typing import Dict, List, Tuple

from repro.errors import CryptoError

__all__ = ["AES", "BLOCK_SIZE", "MAX_LANES", "xor_bytes"]

BLOCK_SIZE = 16

_PACK4 = Struct(">4I")
_WORD_MASK = 0xFFFFFFFF
_COUNTER_MASK = (1 << 128) - 1


def _xtime(value: int) -> int:
    """Multiply by x in GF(2^8) modulo the AES polynomial x^8+x^4+x^3+x+1."""
    value <<= 1
    if value & 0x100:
        value ^= 0x11B
    return value & 0xFF


def _gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8) (Russian-peasant style)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _build_sbox() -> Tuple[bytes, bytes]:
    """Derive the AES S-box and its inverse from first principles."""
    # Multiplicative inverses via exponentiation by the group order - 1.
    inverse = [0] * 256
    for x in range(1, 256):
        y = x
        # x^254 == x^-1 in GF(2^8)*
        acc = 1
        exponent = 254
        while exponent:
            if exponent & 1:
                acc = _gf_mul(acc, y)
            y = _gf_mul(y, y)
            exponent >>= 1
        inverse[x] = acc

    def _affine(value: int) -> int:
        result = 0x63
        for shift in (0, 1, 2, 3, 4):
            rotated = ((value << shift) | (value >> (8 - shift))) & 0xFF
            result ^= rotated
        return result

    sbox = bytes(_affine(inverse[x]) for x in range(256))
    inv_sbox = bytearray(256)
    for i, s in enumerate(sbox):
        inv_sbox[s] = i
    return sbox, bytes(inv_sbox)


_SBOX, _INV_SBOX = _build_sbox()

# Round constants: rcon[i] = x^(i-1) in GF(2^8).
_RCON = [0] * 11
_value = 1
for _i in range(1, 11):
    _RCON[_i] = _value
    _value = _xtime(_value)


def _build_t_tables() -> Tuple[List[int], ...]:
    """Derive the encrypt (T) and decrypt (TD) round tables.

    ``T0[x]`` is the MixColumns contribution of state byte ``S[x]``
    placed in row 0 of a column, packed big-endian: ``(2s, s, s, 3s)``.
    ``T1..T3`` are byte rotations of ``T0`` — the same contribution
    landing in rows 1..3. ``TD*`` are the InvMixColumns analogues over
    the inverse S-box: ``TD0[x] = (14i, 9i, 13i, 11i)`` with
    ``i = S^-1[x]``. One round of one column is then four lookups and
    four XORs on 32-bit words.
    """
    t0, t1, t2, t3 = [0] * 256, [0] * 256, [0] * 256, [0] * 256
    d0, d1, d2, d3 = [0] * 256, [0] * 256, [0] * 256, [0] * 256
    for x in range(256):
        s = _SBOX[x]
        word = ((_gf_mul(s, 2) << 24) | (s << 16) | (s << 8)
                | _gf_mul(s, 3))
        t0[x] = word
        word = ((word >> 8) | (word << 24)) & _WORD_MASK
        t1[x] = word
        word = ((word >> 8) | (word << 24)) & _WORD_MASK
        t2[x] = word
        word = ((word >> 8) | (word << 24)) & _WORD_MASK
        t3[x] = word

        i = _INV_SBOX[x]
        word = ((_gf_mul(i, 14) << 24) | (_gf_mul(i, 9) << 16)
                | (_gf_mul(i, 13) << 8) | _gf_mul(i, 11))
        d0[x] = word
        word = ((word >> 8) | (word << 24)) & _WORD_MASK
        d1[x] = word
        word = ((word >> 8) | (word << 24)) & _WORD_MASK
        d2[x] = word
        word = ((word >> 8) | (word << 24)) & _WORD_MASK
        d3[x] = word
    return t0, t1, t2, t3, d0, d1, d2, d3


_T0, _T1, _T2, _T3, _TD0, _TD1, _TD2, _TD3 = _build_t_tables()

# Translation tables for the batch kernel: SubBytes alone and SubBytes
# fused with the MixColumns doubling, applied with bytes.translate
# across every byte of a whole batch at once.
_TR_S = bytes(_SBOX)
_TR_S2 = bytes(_gf_mul(s, 2) for s in _SBOX)

#: Batch-state layout. A batch of ``n`` blocks is one ``16*n``-byte
#: integer of sixteen ``n``-byte chunks; chunk ``4*row + col`` holds
#: state byte (row, col) — byte ``4*col + row`` of a block — of every
#: lane, lane 0 first. Entry ``k`` is the block byte chunk ``k`` holds
#: (a 4x4 transpose, so the table is its own inverse).
_CHUNK_ORDER = tuple(4 * (k % 4) + k // 4 for k in range(16))

#: Widest batch whose repeated round keys an :class:`AES` keeps; what
#: bounds the lane count of :meth:`repro.crypto.cmac.AesCmac.tag_many`.
MAX_LANES = 64

#: From this many blocks on, CTR runs the batch kernel. One block costs
#: the word loop ~10 us and the kernel ~19 us (its fixed per-round cost
#: plus the layout transposes either side); at two they are within 10 %
#: of each other, at three the kernel is 1.5x ahead.
_SLICE_THRESHOLD = 3


def _pack_lanes(buffer: bytes, offset: int, stride: int) -> int:
    """Gather one block per lane into a batch-state integer.

    Lane ``j``'s block is ``buffer[offset + j*stride:][:16]``; the
    lane count is however many strides fit.
    """
    return int.from_bytes(
        b"".join([buffer[offset + q::stride] for q in _CHUNK_ORDER]),
        "big")


def _unpack_lanes(state: int, n: int) -> bytes:
    """Invert :func:`_pack_lanes`: the ``n`` blocks, lane 0 first."""
    chunks = state.to_bytes(BLOCK_SIZE * n, "big")
    out = bytearray(BLOCK_SIZE * n)
    for k, q in enumerate(_CHUNK_ORDER):
        out[q::BLOCK_SIZE] = chunks[k * n:(k + 1) * n]
    return bytes(out)


class AES:
    """AES-128/192/256 block cipher over 16-byte blocks.

    >>> cipher = AES(bytes(16))
    >>> len(cipher.encrypt_block(bytes(16)))
    16
    """

    _ROUNDS_BY_KEYLEN = {16: 10, 24: 12, 32: 14}

    __slots__ = ("_rounds", "_ek", "_dk", "_lane_keys", "_wide_keys")

    def __init__(self, key: bytes) -> None:
        if len(key) not in self._ROUNDS_BY_KEYLEN:
            raise CryptoError(
                f"AES key must be 16, 24 or 32 bytes, got {len(key)}"
            )
        self._rounds = self._ROUNDS_BY_KEYLEN[len(key)]
        self._ek = self._expand_key(key)
        self._dk = self._invert_key_schedule(self._ek)
        # Round keys repeated across a batch's lanes, built on first
        # use of a width by :meth:`_lane_round_keys`: one entry per
        # width 2..MAX_LANES, one slot for the last other width. A key
        # that only ever sees single blocks allocates none.
        self._lane_keys: Dict[int, List[int]] = {}
        self._wide_keys: Tuple[int, List[int]] = (0, [])

    @property
    def rounds(self) -> int:
        """Number of AES rounds for this key size (10, 12 or 14)."""
        return self._rounds

    # -- key schedule -----------------------------------------------------

    def _expand_key(self, key: bytes) -> List[int]:
        """FIPS-197 key expansion as big-endian 32-bit column words."""
        key_words = len(key) // 4
        words = [list(key[4 * i:4 * i + 4]) for i in range(key_words)]
        total_words = 4 * (self._rounds + 1)
        for i in range(key_words, total_words):
            temp = list(words[i - 1])
            if i % key_words == 0:
                temp = temp[1:] + temp[:1]  # RotWord
                temp = [_SBOX[b] for b in temp]  # SubWord
                temp[0] ^= _RCON[i // key_words]
            elif key_words == 8 and i % key_words == 4:
                temp = [_SBOX[b] for b in temp]
            words.append([t ^ w for t, w in zip(temp, words[i - key_words])])
        return [(w[0] << 24) | (w[1] << 16) | (w[2] << 8) | w[3]
                for w in words]

    def _invert_key_schedule(self, ek: List[int]) -> List[int]:
        """Round keys for the equivalent inverse cipher.

        Reverse the round-key order and run every *inner* round key
        through InvMixColumns, so decryption can apply the same
        table-lookup round shape as encryption. InvMixColumns of a
        word is ``TD0[S[b0]] ^ TD1[S[b1]] ^ ...``: the TD tables
        already compose ``InvSubBytes`` then ``InvMixColumns``, so
        feeding them *forward*-substituted bytes leaves pure
        InvMixColumns.
        """
        rounds = self._rounds
        dk = list(ek[4 * rounds:4 * rounds + 4])
        sbox = _SBOX
        for r in range(1, rounds):
            for word in ek[4 * (rounds - r):4 * (rounds - r) + 4]:
                dk.append(_TD0[sbox[word >> 24]]
                          ^ _TD1[sbox[(word >> 16) & 0xFF]]
                          ^ _TD2[sbox[(word >> 8) & 0xFF]]
                          ^ _TD3[sbox[word & 0xFF]])
        dk.extend(ek[0:4])
        return dk

    # -- word-oriented block transforms -----------------------------------

    def _encrypt_words(self, s0: int, s1: int, s2: int,
                       s3: int) -> Tuple[int, int, int, int]:
        """One block through the cipher; state is four 32-bit words."""
        ek = self._ek
        t0_, t1_, t2_, t3_ = _T0, _T1, _T2, _T3
        s0 ^= ek[0]
        s1 ^= ek[1]
        s2 ^= ek[2]
        s3 ^= ek[3]
        i = 4
        for _ in range(self._rounds - 1):
            u0 = (t0_[s0 >> 24] ^ t1_[(s1 >> 16) & 0xFF]
                  ^ t2_[(s2 >> 8) & 0xFF] ^ t3_[s3 & 0xFF] ^ ek[i])
            u1 = (t0_[s1 >> 24] ^ t1_[(s2 >> 16) & 0xFF]
                  ^ t2_[(s3 >> 8) & 0xFF] ^ t3_[s0 & 0xFF] ^ ek[i + 1])
            u2 = (t0_[s2 >> 24] ^ t1_[(s3 >> 16) & 0xFF]
                  ^ t2_[(s0 >> 8) & 0xFF] ^ t3_[s1 & 0xFF] ^ ek[i + 2])
            u3 = (t0_[s3 >> 24] ^ t1_[(s0 >> 16) & 0xFF]
                  ^ t2_[(s1 >> 8) & 0xFF] ^ t3_[s2 & 0xFF] ^ ek[i + 3])
            s0, s1, s2, s3 = u0, u1, u2, u3
            i += 4
        # Final round: SubBytes + ShiftRows only (no MixColumns).
        sbox = _SBOX
        u0 = ((sbox[s0 >> 24] << 24) | (sbox[(s1 >> 16) & 0xFF] << 16)
              | (sbox[(s2 >> 8) & 0xFF] << 8) | sbox[s3 & 0xFF]) ^ ek[i]
        u1 = ((sbox[s1 >> 24] << 24) | (sbox[(s2 >> 16) & 0xFF] << 16)
              | (sbox[(s3 >> 8) & 0xFF] << 8) | sbox[s0 & 0xFF]) \
            ^ ek[i + 1]
        u2 = ((sbox[s2 >> 24] << 24) | (sbox[(s3 >> 16) & 0xFF] << 16)
              | (sbox[(s0 >> 8) & 0xFF] << 8) | sbox[s1 & 0xFF]) \
            ^ ek[i + 2]
        u3 = ((sbox[s3 >> 24] << 24) | (sbox[(s0 >> 16) & 0xFF] << 16)
              | (sbox[(s1 >> 8) & 0xFF] << 8) | sbox[s2 & 0xFF]) \
            ^ ek[i + 3]
        return u0, u1, u2, u3

    def _decrypt_words(self, s0: int, s1: int, s2: int,
                       s3: int) -> Tuple[int, int, int, int]:
        """Equivalent inverse cipher over the transformed schedule."""
        dk = self._dk
        d0_, d1_, d2_, d3_ = _TD0, _TD1, _TD2, _TD3
        s0 ^= dk[0]
        s1 ^= dk[1]
        s2 ^= dk[2]
        s3 ^= dk[3]
        i = 4
        for _ in range(self._rounds - 1):
            u0 = (d0_[s0 >> 24] ^ d1_[(s3 >> 16) & 0xFF]
                  ^ d2_[(s2 >> 8) & 0xFF] ^ d3_[s1 & 0xFF] ^ dk[i])
            u1 = (d0_[s1 >> 24] ^ d1_[(s0 >> 16) & 0xFF]
                  ^ d2_[(s3 >> 8) & 0xFF] ^ d3_[s2 & 0xFF] ^ dk[i + 1])
            u2 = (d0_[s2 >> 24] ^ d1_[(s1 >> 16) & 0xFF]
                  ^ d2_[(s0 >> 8) & 0xFF] ^ d3_[s3 & 0xFF] ^ dk[i + 2])
            u3 = (d0_[s3 >> 24] ^ d1_[(s2 >> 16) & 0xFF]
                  ^ d2_[(s1 >> 8) & 0xFF] ^ d3_[s0 & 0xFF] ^ dk[i + 3])
            s0, s1, s2, s3 = u0, u1, u2, u3
            i += 4
        # Final round: InvSubBytes + InvShiftRows only.
        inv = _INV_SBOX
        u0 = ((inv[s0 >> 24] << 24) | (inv[(s3 >> 16) & 0xFF] << 16)
              | (inv[(s2 >> 8) & 0xFF] << 8) | inv[s1 & 0xFF]) ^ dk[i]
        u1 = ((inv[s1 >> 24] << 24) | (inv[(s0 >> 16) & 0xFF] << 16)
              | (inv[(s3 >> 8) & 0xFF] << 8) | inv[s2 & 0xFF]) \
            ^ dk[i + 1]
        u2 = ((inv[s2 >> 24] << 24) | (inv[(s1 >> 16) & 0xFF] << 16)
              | (inv[(s0 >> 8) & 0xFF] << 8) | inv[s3 & 0xFF]) \
            ^ dk[i + 2]
        u3 = ((inv[s3 >> 24] << 24) | (inv[(s2 >> 16) & 0xFF] << 16)
              | (inv[(s1 >> 8) & 0xFF] << 8) | inv[s0 & 0xFF]) \
            ^ dk[i + 3]
        return u0, u1, u2, u3

    # -- public API --------------------------------------------------------

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise CryptoError(f"block must be 16 bytes, got {len(block)}")
        return _PACK4.pack(*self._encrypt_words(*_PACK4.unpack(block)))

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt exactly one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise CryptoError(f"block must be 16 bytes, got {len(block)}")
        return _PACK4.pack(*self._decrypt_words(*_PACK4.unpack(block)))

    def ctr_keystream(self, counter: int, n_blocks: int) -> bytes:
        """``E_K(c) || E_K(c+1) || ...`` for a 128-bit integer counter.

        The CTR mode's whole keystream in one call: counter arithmetic
        is plain integer addition (mod 2^128). The smallest batches run
        the word-oriented core per block; from
        :data:`_SLICE_THRESHOLD` blocks on, the batch kernel carries
        every block through each round in a couple of dozen C-level
        operations.
        """
        if n_blocks >= _SLICE_THRESHOLD:
            return self._ctr_keystream_sliced(counter, n_blocks)
        out = bytearray(n_blocks * BLOCK_SIZE)
        pack_into = _PACK4.pack_into
        encrypt = self._encrypt_words
        for i in range(n_blocks):
            c = (counter + i) & _COUNTER_MASK
            pack_into(out, i * BLOCK_SIZE,
                      *encrypt(c >> 96, (c >> 64) & _WORD_MASK,
                               (c >> 32) & _WORD_MASK, c & _WORD_MASK))
        return bytes(out)

    def _ctr_keystream_sliced(self, counter: int,
                              n_blocks: int) -> bytes:
        """``n_blocks`` counter blocks through the batch kernel."""
        blocks = b"".join([((counter + i) & _COUNTER_MASK)
                           .to_bytes(BLOCK_SIZE, "big")
                           for i in range(n_blocks)])
        return _unpack_lanes(
            self._encrypt_lanes(_pack_lanes(blocks, 0, BLOCK_SIZE),
                                n_blocks),
            n_blocks)

    # -- batch kernel ------------------------------------------------------

    def _lane_round_keys(self, n: int) -> List[int]:
        """Each round key with every byte repeated ``n`` times, in the
        batch-state layout, so AddRoundKey is one XOR for all lanes."""
        keys = self._lane_keys.get(n)
        if keys is not None:
            return keys
        if self._wide_keys[0] == n:
            return self._wide_keys[1]
        ek = self._ek
        keys = []
        for r in range(self._rounds + 1):
            key = _PACK4.pack(*ek[4 * r:4 * r + 4])
            keys.append(int.from_bytes(
                b"".join([key[q:q + 1] * n for q in _CHUNK_ORDER]),
                "big"))
        if 2 <= n <= MAX_LANES:
            self._lane_keys[n] = keys
        else:
            self._wide_keys = (n, keys)
        return keys

    def _encrypt_lanes(self, state: int, n: int) -> int:
        """Encrypt ``n`` blocks held as one batch-state integer.

        The whole batch is one ``16*n``-byte integer in the layout of
        :data:`_CHUNK_ORDER`, in and out, so a mode that chains (CMAC
        across lanes) XORs its next input straight into the result. A
        round is: ``to_bytes``; ShiftRows as a re-join of seven slices
        (row ``r`` is ``4*n`` contiguous bytes, rotated by ``r``
        chunks); SubBytes — alone and fused with the MixColumns
        doubling — as two ``bytes.translate`` over every byte of the
        batch; MixColumns as rotations of those two integers by whole
        rows (``3s = 2s ^ s``), since row ``r+1`` of every column sits
        exactly one row further along; AddRoundKey as one XOR.
        """
        width = BLOCK_SIZE * n
        rot1, rot2, rot3 = 32 * n, 64 * n, 96 * n
        mask = (1 << 128 * n) - 1
        n4, n5, n8, n10, n12, n15 = (4 * n, 5 * n, 8 * n, 10 * n,
                                     12 * n, 15 * n)
        keys = self._lane_round_keys(n)
        from_b = int.from_bytes
        join = b"".join
        tr_s, tr_s2 = _TR_S, _TR_S2
        state ^= keys[0]
        for r in range(1, self._rounds):
            b = state.to_bytes(width, "big")
            b = join((b[:n4], b[n5:n8], b[n4:n5], b[n10:n12],
                      b[n8:n10], b[n15:], b[n12:n15]))
            s1 = from_b(b.translate(tr_s), "big")
            s2 = from_b(b.translate(tr_s2), "big")
            s3 = s1 ^ s2
            # out[row r] = 2*S[r] ^ 3*S[r+1] ^ S[r+2] ^ S[r+3]
            state = (s2 ^ ((s3 << rot1) | (s3 >> rot3))
                     ^ ((s1 << rot2) | (s1 >> rot2))
                     ^ ((s1 << rot3) | (s1 >> rot1))) & mask ^ keys[r]
        # Final round: SubBytes + ShiftRows, no MixColumns.
        b = state.to_bytes(width, "big").translate(tr_s)
        return from_b(join((b[:n4], b[n5:n8], b[n4:n5], b[n10:n12],
                            b[n8:n10], b[n15:], b[n12:n15])),
                      "big") ^ keys[self._rounds]


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    if len(a) != len(b):
        raise CryptoError("xor_bytes requires equal-length inputs")
    return (int.from_bytes(a, "big")
            ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")
