"""The batch header decoder against the field-by-field decode it
replaced.

:func:`~repro.core.messages.decode_headers` writes a batch of headers
straight into one value column per attribute, in one pass per blob
with no call per field. What it must keep, checked here against
``reference_decode_header`` (the decoder as it was: unpack every
field, then decode and check them pair by pair):

* every column holds, per blob, the value the reference decodes —
  same type, same bits (``-0.0``, ``±inf``, ints past ``±2**53``) —
  and None where the blob lacks the attribute; a repeated name keeps
  its last value;
* the float64 pair the plane reads (``EventColumns.encoded``) is
  :func:`~repro.matching.predicates.encode_values` of the column;
* a malformed blob anywhere in a batch raises what the reference
  raises for the first bad blob, class and message;
* in the router, one poison header inside an ingress batch is
  quarantined with the reason and detail it always had, and the
  rejected batch is charged the AES of the envelopes up to it.
"""

import math
import struct

import pytest
from hypothesis import given, strategies as st

from repro.core.engine import ScbrEnclaveLibrary
from repro.core.messages import (_encode_value, decode_header,
                                 decode_headers)
from repro.core.protocol import build_publish, parse_publish
from repro.core.provider import ServiceProvider
from repro.core.publisher import Publisher
from repro.core.router import Router
from repro.core.subscriber import Client
from repro.crypto.encoding import pack_fields, unpack_fields
from repro.crypto.rsa import _generate_keypair_unchecked
from repro.errors import MatchingError, RoutingError
from repro.matching.attributes import (validate_attribute_name,
                                       validate_value)
from repro.matching.events import Event, EventColumns
from repro.matching.predicates import encode_values
from repro.network.bus import MessageBus
from repro.sgx.attestation import AttestationService
from repro.sgx.enclave import EnclaveBuilder
from repro.sgx.platform import SgxPlatform


def _reference_value(blob):
    if not blob:
        raise RoutingError("empty value field")
    tag, body = blob[:1], blob[1:]
    if tag == b"i":
        return int.from_bytes(body, "big", signed=True)
    if tag == b"f":
        return struct.unpack(">d", body)[0]
    if tag == b"s":
        return body.decode("utf-8")
    raise RoutingError(f"unknown value tag {tag!r}")


def reference_decode_header(blob):
    """The header decode before the column decoder, without its memo;
    a field that does not decode is a RoutingError, so that the router
    quarantines the frame (the decoder it replaced let ``struct.error``
    and ``UnicodeDecodeError`` through)."""
    fields = unpack_fields(blob)
    if len(fields) % 2:
        raise RoutingError("odd field count in header")
    header = {}
    try:
        for i in range(0, len(fields), 2):
            header[validate_attribute_name(fields[i].decode("utf-8"))] = \
                validate_value(_reference_value(fields[i + 1]))
    except (struct.error, UnicodeDecodeError) as exc:
        raise RoutingError(f"malformed header field: {exc}") from exc
    return Event.validated(header)


def _outcome(fn, *args):
    """``(result, None)``, or ``(None, (class, message))`` if it raised."""
    try:
        return fn(*args), None
    except Exception as exc:            # noqa: BLE001 - compared below
        return None, (type(exc), str(exc))


def _same(a, b):
    """Equal, and of one type with one repr: ``-0.0`` is not ``0.0``,
    ``1`` is not ``1.0``."""
    return type(a) is type(b) and repr(a) == repr(b) and \
        (a == b or a != a)


def _pack(fields):
    return pack_fields([part for name, value in fields
                        for part in (name, value)])


# -- strategies --------------------------------------------------------------------

NAMES = st.one_of(
    st.sampled_from(["price", "symbol", "q0_open", "é", "x"]),
    st.text(st.characters(blacklist_characters="\x00\n|",
                          blacklist_categories=("Cs",)),
            min_size=1, max_size=5))
VALUES = st.one_of(
    st.integers(-2 ** 63, 2 ** 63 - 1),
    st.sampled_from([2 ** 53, 2 ** 53 + 1, -2 ** 53 - 1, 2 ** 63 - 1,
                     -2 ** 63, 0, -0.0, math.inf, -math.inf]),
    st.floats(allow_nan=False),
    st.text(max_size=6))
#: One header's fields in wire order; names may repeat.
FIELDS = st.lists(st.tuples(NAMES, VALUES), min_size=1, max_size=7).map(
    lambda fields: [(name.encode(), _encode_value(value))
                    for name, value in fields])
BLOBS = st.lists(FIELDS.map(_pack), min_size=1, max_size=10)

NAN_BITS = (struct.pack(">d", math.nan),
            struct.pack(">Q", 0x7FF0000000000001),
            struct.pack(">Q", 0xFFF8000000000000))


@st.composite
def bad_blobs(draw):
    """A header that the reference rejects, one way or another."""
    fields = draw(FIELDS)
    at = draw(st.integers(0, len(fields) - 1))
    name, value = fields[at]
    kind = draw(st.sampled_from([
        "odd", "empty", "nan", "tag", "name", "truncated", "trailing",
        "short-float", "empty-value", "utf8-name", "utf8-value"]))
    if kind == "odd":
        return pack_fields([part for pair in fields for part in pair]
                           + [name])
    if kind == "empty":
        return pack_fields([])
    if kind == "nan":
        fields[at] = (name, b"f" + draw(st.sampled_from(NAN_BITS)))
    elif kind == "tag":
        fields[at] = (name, draw(st.sampled_from([b"b\x01", b"F",
                                                  b"\xff" * 9])))
    elif kind == "name":
        fields[at] = (draw(st.sampled_from([b"a|b", b"\n", b"x\x00",
                                            b""])), value)
    elif kind == "short-float":
        fields[at] = (name, b"f" + bytes(draw(st.sampled_from(
            [0, 3, 7, 9]))))
    elif kind == "empty-value":
        fields[at] = (name, b"")
    elif kind == "utf8-name":
        fields[at] = (b"ok\xff", value)
    elif kind == "utf8-value":
        fields[at] = (name, b"s\xc3")
    blob = _pack(fields)
    if kind == "truncated":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    if kind == "trailing":
        return blob + draw(st.binary(min_size=1, max_size=5))
    return blob


# -- the columns -------------------------------------------------------------------

def _check_columns(batch, expected):
    assert len(batch) == len(expected)
    assert set(batch.columns) == set().union(
        *(event.header for event in expected))
    for name, column in batch.columns.items():
        assert len(column) == len(expected)
        for event, value in zip(expected, column):
            assert _same(value, event.header.get(name))
        down, up = batch.encoded(name)
        reference_down, reference_up = encode_values(column)
        assert down.tobytes() == reference_down.tobytes()
        assert up.tobytes() == reference_up.tobytes()


@given(BLOBS)
def test_columns_are_the_reference_decode_per_blob(blobs):
    expected = [reference_decode_header(blob) for blob in blobs]
    names = {}
    for _ in range(2):                  # a cold, then a warm memo
        batch = decode_headers(blobs, names)
        _check_columns(batch, expected)
        events = batch.events()
        assert events == expected
        for got, want in zip(events, expected):
            assert all(_same(got[name], want[name])
                       for name in want.header)
    for blob, want in zip(blobs, expected):
        got = decode_header(blob, names=names)
        assert got == want
        assert list(got.header) == list(want.header)
        assert all(_same(got[name], want[name]) for name in want.header)
    # a batch made from events transposes into the same columns
    _check_columns(EventColumns.of(expected), expected)


def test_a_repeated_name_keeps_its_last_value():
    blob = _pack([(b"x", _encode_value(1)), (b"y", _encode_value("a")),
                  (b"x", _encode_value(2.5))])
    batch = decode_headers([blob, _pack([(b"y", _encode_value(3))])])
    assert batch.columns == {"x": [2.5, None], "y": ["a", 3]}
    assert decode_header(blob).header == {"x": 2.5, "y": "a"}


def test_wide_ints_keep_their_bracket():
    wide = 2 ** 53 + 1
    batch = decode_headers([_pack([(b"n", _encode_value(wide))]),
                            _pack([(b"n", _encode_value(1.5))])])
    down, up = batch.encoded("n")
    assert int(down[0]) < wide < int(up[0])
    assert down[1] == up[1] == 1.5


# -- the errors --------------------------------------------------------------------

@given(bad_blobs())
def test_a_bad_blob_raises_what_the_reference_raises(blob):
    _result, expected = _outcome(reference_decode_header, blob)
    assert expected is not None
    assert _outcome(decode_header, blob)[1] == expected
    assert _outcome(decode_headers, [blob])[1] == expected


@given(BLOBS, st.lists(st.tuples(st.integers(0, 10), bad_blobs()),
                       min_size=1, max_size=3))
def test_the_first_bad_blob_of_a_batch_decides(good, bad):
    blobs = list(good)
    for at, blob in bad:
        blobs.insert(at, blob)
    first = next(error for error in (
        _outcome(reference_decode_header, blob)[1] for blob in blobs)
        if error is not None)
    assert _outcome(decode_headers, blobs, {})[1] == first


# -- the router ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def vendor_key():
    return _generate_keypair_unchecked(768, 65537)


@pytest.fixture()
def world(vendor_key):
    bus = MessageBus()
    platform = SgxPlatform(attestation_key_bits=768)
    ias = AttestationService(signing_key_bits=768)
    ias.register_platform(platform)
    router = Router(bus, platform, vendor_key, rsa_bits=768,
                    matcher_backend="columnar")
    provider = ServiceProvider(
        bus, rsa_bits=768, attestation_service=ias,
        expected_mr_enclave=EnclaveBuilder(
            platform, ScbrEnclaveLibrary).measure())
    provider.provision_router(router)
    publisher = Publisher(bus, provider.keys, provider.group)
    alice = Client(bus, "alice", provider.keys.public_key)
    alice.process_admission(provider.admit_client("alice"))
    alice.subscribe("provider", {"symbol": "HAL"})
    provider.pump("router")
    router.pump()
    return router, provider, publisher, alice


#: What a poison header's dead letter says, as recorded before the
#: column decoder: ``(plaintext header, detail)``.
POISON = [
    (_pack([(b"symbol", b"sHAL"),
            (b"price", b"f" + struct.pack(">d", math.nan))]),
     "MatchingError: NaN attribute values are not comparable"),
    (_pack([(b"a|b", b"sHAL")]),
     "MatchingError: attribute name contains forbidden char: 'a|b'"),
    (pack_fields([b"symbol", b"sHAL", b"price"]),
     "RoutingError: odd field count in header"),
    (pack_fields([]),
     "MatchingError: publication header must not be empty"),
    (_pack([(b"symbol", b"sHAL"), (b"price", b"b\x01")]),
     "RoutingError: unknown value tag b'b'"),
    (_pack([(b"symbol", b"sHAL")])[:-2],
     "NetworkError: truncated field body"),
    (_pack([(b"symbol", b"sHAL")]) + b"\x00",
     "NetworkError: trailing bytes after packed fields"),
    # fields that do not decode: a short float, invalid UTF-8
    (_pack([(b"symbol", b"sHAL"), (b"price", b"f\x00\x00\x00")]),
     "RoutingError: malformed header field: "
     "unpack requires a buffer of 8 bytes"),
    (_pack([(b"symbol", b"s\xc3")]),
     "RoutingError: malformed header field: 'utf-8' codec can't decode "
     "byte 0xc3 in position 0: unexpected end of data"),
    (_pack([(b"sym\xffbol", b"sHAL")]),
     "RoutingError: malformed header field: 'utf-8' codec can't decode "
     "byte 0xff in position 3: invalid start byte"),
]


@pytest.mark.parametrize("plaintext,detail", POISON)
def test_a_poison_header_in_a_batch_is_quarantined_as_before(
        world, plaintext, detail):
    router, provider, publisher, alice = world
    frames = [publisher.make_publication(
        {"symbol": "HAL", "price": float(i)}, b"p%d" % i)
        for i in range(4)]
    poison = build_publish(provider.keys.channel().protect(plaintext),
                           parse_publish(frames[0])[1])
    frames.insert(2, poison)
    router.handle_publish_batch(frames)
    alice.pump()
    assert alice.received == [b"p0", b"p1", b"p2", b"p3"]
    letters = list(router.dead_letters)
    assert [(letter.frame, letter.reason, letter.detail)
            for letter in letters] == [(poison, "poison-frame", detail)]


@pytest.mark.parametrize("plaintext,detail", POISON)
def test_a_poison_header_frame_is_quarantined_by_the_pump(
        world, plaintext, detail):
    router, provider, publisher, alice = world
    good = publisher.make_publication({"symbol": "HAL"}, b"ok")
    poison = build_publish(provider.keys.channel().protect(plaintext),
                           parse_publish(good)[1])
    publisher.endpoint.send("router", [poison, good])
    assert router.pump() == 2
    alice.pump()
    assert alice.received == [b"ok"]
    assert [(letter.frame, letter.reason, letter.detail)
            for letter in router.dead_letters] == \
        [(poison, "poison-frame", detail)]


def test_a_rejected_batch_is_charged_up_to_its_first_bad_header(world):
    router, provider, _publisher, _alice = world
    channel = provider.keys.channel()
    good = [_pack([(b"symbol", b"sHAL")] + [
        (b"a%d" % i, _encode_value(float(i))) for i in range(width)])
        for width in (1, 9, 40, 3)]
    bad = POISON[0][0]
    envelopes = [channel.protect(blob)
                 for blob in good[:3] + [bad, good[3], bad]]
    library = router.enclave._library
    memory = library.runtime.memory
    costs = memory.costs
    expected = memory.cycles
    for envelope in envelopes[:4]:
        expected += costs.aes_setup_cycles \
            + (len(envelope) + 15) // 16 * costs.aes_block_cycles
    with pytest.raises(MatchingError, match="NaN"):
        library.match_publications(envelopes)
    assert memory.cycles == expected
