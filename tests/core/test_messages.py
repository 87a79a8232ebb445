"""Wire-format tests: headers, subscriptions, envelopes, hybrid RSA."""

import math
import random
import struct
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import messages
from repro.core.messages import (SecureChannel, decode_header,
                                 decode_public_key, decode_subscription,
                                 encode_header, encode_public_key,
                                 encode_subscription, from_wire,
                                 hybrid_decrypt, hybrid_encrypt, to_wire)
from repro.crypto.encoding import pack_fields, unpack_fields
from repro.crypto.rsa import _generate_keypair_unchecked
from repro.errors import (AuthenticationError, CryptoError,
                          MatchingError, RoutingError)
from repro.matching.events import Event
from repro.matching.predicates import Op, Predicate
from repro.matching.subscriptions import Subscription


@pytest.fixture(scope="module")
def rsa_key():
    return _generate_keypair_unchecked(768, 65537)


class TestHeaderCodec:

    def test_roundtrip(self):
        event = Event({"symbol": "HAL", "price": 48.25, "volume": 1000})
        decoded = decode_header(encode_header(event))
        assert decoded.header == event.header

    def test_type_preservation(self):
        event = Event({"i": 42, "f": 42.0, "s": "42"})
        decoded = decode_header(encode_header(event))
        assert isinstance(decoded["i"], int)
        assert isinstance(decoded["f"], float)
        assert isinstance(decoded["s"], str)

    def test_canonical_encoding_order_independent(self):
        a = encode_header(Event({"a": 1, "b": 2}))
        b = encode_header(Event({"b": 2, "a": 1}))
        assert a == b

    def test_negative_and_unicode(self):
        event = Event({"delta": -12, "name": "héllo™"})
        assert decode_header(encode_header(event)).header == event.header

    def test_malformed_rejected(self):
        with pytest.raises(Exception):
            decode_header(b"garbage")

    @given(st.dictionaries(
        st.text(alphabet="abcdefgh", min_size=1, max_size=6),
        st.one_of(st.integers(-10**9, 10**9),
                  st.floats(allow_nan=False, allow_infinity=False),
                  st.text(max_size=12)),
        min_size=1, max_size=6))
    def test_roundtrip_property(self, header):
        event = Event(header)
        assert decode_header(encode_header(event)).header == header

    def test_decoded_event_is_what_the_constructor_builds(self):
        """Names validated by the decoder's memo, values by the
        decoder: the event equals one that went through
        ``Event.__post_init__``, with interned names."""
        event = Event({"symbol": "HAL", "price": 48.25, "volume": 1000})
        for _ in range(2):              # a first and a repeated arrival
            decoded = decode_header(encode_header(event), event_id=7)
            assert decoded == Event(event.header, event_id=7)
            assert decoded.canonical() == event.canonical()
            assert all(name is sys.intern(name)
                       for name in decoded.header)

    def test_names_go_into_the_callers_memo_and_nowhere_else(self):
        """The module keeps no memo: a caller without one decodes each
        name afresh, a caller with one finds the names it decoded
        there (the enclave's own memo: ``tests/core/test_engine.py``
        ``TestNameMemo``)."""
        blob = encode_header(Event({"symbol": "HAL", "price": 1.5}))
        assert not [name for name in vars(messages)
                    if "MEMO" in name and name != "NAME_MEMO_LIMIT"]
        names = {}
        for _ in range(2):
            assert decode_header(blob, names=names) \
                == decode_header(blob)
        assert names == {b"symbol": "symbol", b"price": "price"}

    def test_invalid_values_and_empty_header_still_rejected(self):
        nan = pack_fields([b"x", b"f" + struct.pack(">d", math.nan)])
        for _ in range(2):
            with pytest.raises(MatchingError, match="NaN"):
                decode_header(nan)
        with pytest.raises(RoutingError):
            decode_header(pack_fields([b"x", b"b\x01"]))   # no such tag
        with pytest.raises(MatchingError, match="must not be empty"):
            decode_header(pack_fields([]))
        for value in (True, math.nan, None, (1, 2)):
            with pytest.raises(MatchingError):
                Event({"x": value})


class TestSubscriptionCodec:

    def _roundtrip(self, sub):
        return decode_subscription(encode_subscription(sub))

    def test_simple(self):
        sub = Subscription.parse({"symbol": "HAL", "price": ("<", 50)})
        assert self._roundtrip(sub).key() == sub.key()

    def test_all_operator_kinds(self):
        sub = Subscription.of(
            Predicate("a", Op.EQ, "pin"),
            Predicate("b", Op.RANGE, (1.5, 2.5)),
            Predicate("c", Op.GT, 0),
            Predicate("c", Op.LE, 10),
            Predicate("d", Op.NE, 7),
            Predicate("e", Op.EXISTS),
        )
        assert self._roundtrip(sub).key() == sub.key()

    def test_string_exclusions(self):
        sub = Subscription.of(Predicate("s", Op.NE, "bad"),
                              Predicate("s", Op.NE, "worse"))
        assert self._roundtrip(sub).key() == sub.key()

    def test_open_bounds_preserved(self):
        sub = Subscription.of(Predicate("x", Op.GT, 1),
                              Predicate("x", Op.LT, 2))
        decoded = self._roundtrip(sub)
        constraint = dict(decoded.items)["x"]
        assert constraint.lo_open and constraint.hi_open

    def test_semantics_preserved(self):
        sub = Subscription.parse({"symbol": "HAL", "price": (10, 20)})
        decoded = self._roundtrip(sub)
        for price, expected in ((15.0, True), (25.0, False)):
            event = Event({"symbol": "HAL", "price": price})
            assert decoded.matches(event) is expected


class TestSecureChannel:

    def test_roundtrip_with_aad(self):
        channel = SecureChannel(b"k" * 16)
        blob = channel.protect(b"payload", aad=b"client-7")
        plaintext, aad = channel.open(blob)
        assert plaintext == b"payload" and aad == b"client-7"

    def test_tampered_ciphertext_rejected(self):
        channel = SecureChannel(b"k" * 16)
        blob = bytearray(channel.protect(b"payload"))
        blob[-10] ^= 1
        with pytest.raises(AuthenticationError):
            channel.open(bytes(blob))

    def test_aad_is_authenticated(self):
        channel = SecureChannel(b"k" * 16)
        blob = channel.protect(b"payload", aad=b"alice")
        # Splice in a different aad by re-packing the fields.
        nonce, ciphertext, tag, _aad = unpack_fields(blob)
        forged = pack_fields([nonce, ciphertext, tag, b"mallory"])
        with pytest.raises(AuthenticationError):
            channel.open(forged)

    def test_wrong_key_rejected(self):
        blob = SecureChannel(b"k" * 16).protect(b"payload")
        with pytest.raises(AuthenticationError):
            SecureChannel(b"x" * 16).open(blob)

    def test_nonces_fresh(self):
        channel = SecureChannel(b"k" * 16)
        assert channel.protect(b"same") != channel.protect(b"same")

    def test_bad_key_size(self):
        with pytest.raises(CryptoError):
            SecureChannel(b"short")

    @given(st.binary(max_size=300), st.binary(max_size=40))
    def test_roundtrip_property(self, payload, aad):
        channel = SecureChannel(b"k" * 16)
        plaintext, got_aad = channel.open(channel.protect(payload, aad))
        assert plaintext == payload and got_aad == aad


class TestOpenMany:
    """``open_many`` is a loop of ``open``: same results, and the same
    exception from the first envelope, in batch order, that fails."""

    FIELDS = {"nonce": 0, "ciphertext": 1, "tag": 2, "aad": 3}

    @staticmethod
    def _batch(channel, rng, width):
        return [channel.protect(
                    rng.randbytes(rng.choice((0, 1, 15, 16, 17, 200,
                                              1000, 4096))),
                    aad=rng.choice((b"", b"client-%d" % lane)))
                for lane in range(width)]

    @staticmethod
    def _flip(blob, field):
        fields = unpack_fields(blob)
        damaged = bytearray(fields[field])
        damaged[len(damaged) // 2] ^= 0x10
        fields[field] = bytes(damaged)
        return pack_fields(fields)

    def test_equals_a_loop_of_open_over_ragged_batches(self):
        channel = SecureChannel(b"k" * 16)
        rng = random.Random(14)
        assert channel.open_many([]) == []
        for width in (1, 2, 3, 7, 32, 40):
            blobs = self._batch(channel, rng, width)
            assert channel.open_many(blobs) \
                == [channel.open(blob) for blob in blobs]

    @pytest.mark.parametrize("field", sorted(FIELDS))
    @pytest.mark.parametrize("width,lane", [(2, 0), (2, 1), (9, 4),
                                            (33, 32)])
    def test_one_flipped_bit_in_any_lane_fails_the_batch(self, field,
                                                         width, lane):
        channel = SecureChannel(b"k" * 16)
        blobs = [channel.protect(b"payload-%d" % i * 9, aad=b"a%d" % i)
                 for i in range(width)]
        blobs[lane] = self._flip(blobs[lane], self.FIELDS[field])
        with pytest.raises(AuthenticationError):
            channel.open_many(blobs)

    def test_first_failing_envelope_decides(self):
        channel = SecureChannel(b"k" * 16)
        good = [channel.protect(b"payload", aad=b"x") for _ in range(5)]
        bad_tag = self._flip(good[0], self.FIELDS["tag"])
        malformed = good[0][:-3]
        short_tag = unpack_fields(good[0])
        short_tag[2] = short_tag[2][:15]
        short_tag = pack_fields(short_tag)

        def raised(blobs):
            with pytest.raises(CryptoError) as caught:
                channel.open_many(blobs)
            with pytest.raises(type(caught.value)):
                for blob in blobs:
                    channel.open(blob)
            return type(caught.value)

        assert raised(good[:2] + [bad_tag, malformed]) \
            is AuthenticationError
        assert raised(good[:2] + [malformed, bad_tag]) is CryptoError
        assert raised([good[0], short_tag, bad_tag]) is CryptoError
        assert raised([good[0], bad_tag, short_tag]) \
            is AuthenticationError
        assert raised([malformed]) is CryptoError
        assert raised([good[0], pack_fields(unpack_fields(good[1])[:3])]) \
            is CryptoError


class TestHybrid:

    def test_roundtrip(self, rsa_key):
        blob = hybrid_encrypt(rsa_key.public_key, b"x" * 500,
                              aad=b"ctx")
        plaintext, aad = hybrid_decrypt(rsa_key, blob)
        assert plaintext == b"x" * 500 and aad == b"ctx"

    def test_large_payload_beyond_rsa_block(self, rsa_key):
        big = b"y" * 10_000
        assert big == hybrid_decrypt(
            rsa_key, hybrid_encrypt(rsa_key.public_key, big))[0]

    def test_wrong_key_rejected(self, rsa_key):
        other = _generate_keypair_unchecked(768, 65537)
        blob = hybrid_encrypt(rsa_key.public_key, b"secret")
        with pytest.raises((CryptoError, AuthenticationError)):
            hybrid_decrypt(other, blob)

    def test_malformed_envelope(self, rsa_key):
        with pytest.raises(CryptoError):
            hybrid_decrypt(rsa_key, b"\x00\x01" + b"junk" * 4)


class TestPublicKeyCodec:

    def test_roundtrip(self, rsa_key):
        decoded = decode_public_key(
            encode_public_key(rsa_key.public_key))
        assert decoded == rsa_key.public_key

    def test_malformed(self):
        with pytest.raises(Exception):
            decode_public_key(b"junk")


class TestWireFraming:

    def test_roundtrip(self):
        frame = to_wire("PUB", b"\x00\x01binary\xff")
        assert from_wire(frame) == ("PUB", b"\x00\x01binary\xff")

    def test_malformed_frames(self):
        with pytest.raises(RoutingError):
            from_wire(b"no-separator")
        with pytest.raises(Exception):
            from_wire(b"TYPE:###not-base64###")
        with pytest.raises(RoutingError):
            from_wire(b"\xff\xfe")


class TestTamperResistanceFuzz:
    """Randomised tampering must never produce a valid envelope."""

    @given(st.binary(min_size=1, max_size=120),
           st.data())
    def test_any_single_byte_flip_is_rejected(self, payload, data):
        from repro.errors import AuthenticationError, CryptoError
        channel = SecureChannel(b"k" * 16)
        blob = bytearray(channel.protect(payload, aad=b"ctx"))
        position = data.draw(st.integers(0, len(blob) - 1))
        bit = data.draw(st.integers(0, 7))
        blob[position] ^= 1 << bit
        try:
            plaintext, aad = channel.open(bytes(blob))
        except (AuthenticationError, CryptoError):
            return  # rejected: good
        # The only acceptable "success" is a flip inside the packing
        # metadata that still reproduces the identical envelope --
        # impossible for a single-bit flip, so reaching here with the
        # original content means the MAC failed at its job.
        raise AssertionError("tampered envelope accepted")


class TestSubscriptionCodecFuzz:
    """Hypothesis-random subscriptions roundtrip exactly."""

    values = st.floats(min_value=-1000, max_value=1000,
                       allow_nan=False)
    symbols = st.sampled_from(["HAL", "IBM", "GE", "XOM"])

    @st.composite
    def random_subscription(draw):
        predicates = []
        for attr in draw(st.sets(st.sampled_from("abcd"), min_size=1,
                                 max_size=3)):
            kind = draw(st.sampled_from(["range", "eq_str", "ne",
                                         "open"]))
            if kind == "range":
                lo = draw(TestSubscriptionCodecFuzz.values)
                hi = draw(TestSubscriptionCodecFuzz.values)
                if lo > hi:
                    lo, hi = hi, lo
                predicates.append(Predicate(attr, Op.RANGE, (lo, hi)))
            elif kind == "eq_str":
                predicates.append(Predicate(
                    attr, Op.EQ,
                    draw(TestSubscriptionCodecFuzz.symbols)))
            elif kind == "ne":
                predicates.append(Predicate(
                    attr, Op.NE,
                    draw(st.integers(-100, 100))))
            else:
                predicates.append(Predicate(
                    attr, Op.GT, draw(TestSubscriptionCodecFuzz.values)))
        return Subscription(predicates)

    @settings(max_examples=80, deadline=None)
    @given(random_subscription())
    def test_wire_roundtrip_is_exact(self, subscription):
        decoded = decode_subscription(encode_subscription(subscription))
        assert decoded.key() == subscription.key()

    @settings(max_examples=40, deadline=None)
    @given(random_subscription(),
           st.dictionaries(st.sampled_from("abcd"),
                           st.one_of(values, symbols),
                           min_size=1, max_size=4))
    def test_wire_roundtrip_preserves_matching(self, subscription,
                                               header):
        decoded = decode_subscription(encode_subscription(subscription))
        event = Event(header)
        assert decoded.matches(event) == subscription.matches(event)
