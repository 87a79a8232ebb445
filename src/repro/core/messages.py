"""Wire formats: headers, subscriptions, authenticated envelopes.

Everything that crosses a trust boundary in SCBR is serialised here:

* publication headers (attribute/value maps) and subscriptions
  (normalised constraints) get canonical binary encodings;
* the :class:`SecureChannel` implements the paper's symmetric path —
  AES-CTR with an encrypt-then-MAC envelope under keys derived from SK
  (the Intel SDK's crypto equivalent);
* :func:`hybrid_encrypt`/:func:`hybrid_decrypt` implement the
  client-to-provider path: RSA-OAEP for a fresh content key plus the
  symmetric envelope for the body (subscriptions can exceed what a
  single RSA block carries);
* Base64 text framing (§3.5) wraps every message put on the bus.
"""

from __future__ import annotations

import math
import secrets
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.crypto.encoding import (b64decode, b64encode, pack_fields,
                                   unpack_fields)
from repro.crypto.hkdf import hkdf
from repro.crypto.provider import cmac_for_key, ctr_for_key
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey
from repro.errors import (CryptoError, MatchingError, NetworkError,
                          RoutingError)
from repro.matching.attributes import validate_attribute_name
from repro.matching.events import Event, EventColumns
from repro.matching.predicates import (EXACT_INTS, Constraint, Op,
                                       Predicate)
from repro.matching.subscriptions import Subscription

__all__ = [
    "encode_header", "decode_header", "decode_headers",
    "NAME_MEMO_LIMIT",
    "encode_subscription", "decode_subscription",
    "SecureChannel", "hybrid_encrypt", "hybrid_decrypt",
    "encode_public_key", "decode_public_key",
    "to_wire", "from_wire",
]

_NONCE = 16


# -- attribute values ---------------------------------------------------------

def _encode_value(value) -> bytes:
    if isinstance(value, bool):
        raise RoutingError("boolean attribute values are unsupported")
    if isinstance(value, int):
        return b"i" + value.to_bytes(8, "big", signed=True)
    if isinstance(value, float):
        return b"f" + struct.pack(">d", value)
    if isinstance(value, str):
        return b"s" + value.encode("utf-8")
    raise RoutingError(f"unsupported value type {type(value).__name__}")


def _decode_value(blob: bytes):
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


# -- publication headers ---------------------------------------------------------

def encode_header(event: Event) -> bytes:
    """Canonical binary encoding of a publication header."""
    fields: List[bytes] = []
    for name, value in event.canonical():
        fields.append(name.encode("utf-8"))
        fields.append(_encode_value(value))
    return pack_fields(fields)


#: ``struct`` readers of a field length and of an ``f`` value's body,
#: and the value tags as ``blob[i]`` reads them.
_U32 = struct.Struct(">I").unpack_from
_F64 = struct.Struct(">d").unpack_from
_TAG_F, _TAG_I, _TAG_S = b"fis"

#: A name memo maps the bytes of an attribute name as they arrive to
#: the validated, interned name. A stream repeats a few dozen names on
#: every frame; the memo spares each repeat its decode, validation and
#: interning. A name that fails validation is never stored, so it fails
#: again on every arrival. Names come from outside the program: past
#: ``NAME_MEMO_LIMIT`` entries a memo starts over. The routing enclave
#: owns one (and drops it when destroyed); a caller that passes none
#: decodes every name afresh.
NAME_MEMO_LIMIT = 4096


def _scatter(blob: bytes, names: Dict[bytes, str], row: int, n: int,
             columns: Dict[str, list], irregular: Set[str]) -> None:
    """Decode one header into row ``row`` of ``columns`` (each column
    ``n`` long, made on first sight); a repeated name keeps its last
    value. ``irregular`` collects the names of string values and of
    ints past ``±2**53`` (see :class:`~repro.matching.events.
    EventColumns`).

    One pass over the fields, with no call per field: name through
    ``names``, value by its tag, NaN refused. Errors are those of
    unpacking the fields and then decoding them one by one, in that
    order: a bad layout (:func:`~repro.crypto.encoding.unpack_fields`)
    outranks an odd field count, which outranks a bad name or value
    (the first, name before value), which outranks an empty header. A
    field that does not decode — invalid UTF-8, an ``f`` body that is
    not 8 bytes — is a :class:`RoutingError`, like every other fault
    of an authenticated header, so the router quarantines its frame.
    """
    count = int.from_bytes(blob[:2], "big")
    if not count or count & 1:
        unpack_fields(blob)
        if count:
            raise RoutingError("odd field count in header")
        raise MatchingError("publication header must not be empty")
    end = 2
    try:
        for _ in range(count >> 1):
            start = end + 4
            end = start + _U32(blob, end)[0]
            raw = blob[start:end]
            name = names.get(raw)
            if name is None:
                name = validate_attribute_name(raw.decode("utf-8"))
                if len(names) >= NAME_MEMO_LIMIT:
                    names.clear()
                names[raw] = name
            start = end + 4
            end = start + _U32(blob, end)[0]
            if end - start == 9 and blob[start] == _TAG_F:
                value = _F64(blob, start + 1)[0]
                if value != value:
                    raise MatchingError(
                        "NaN attribute values are not comparable")
            elif start == end:
                raise RoutingError("empty value field")
            else:
                tag = blob[start]
                body = blob[start + 1:end]
                if tag == _TAG_I:
                    value = int.from_bytes(body, "big", signed=True)
                    if not -EXACT_INTS <= value <= EXACT_INTS:
                        irregular.add(name)
                elif tag == _TAG_S:
                    value = body.decode("utf-8")
                    irregular.add(name)
                elif tag == _TAG_F:
                    struct.unpack(">d", body)   # not 8 bytes: raises
                else:
                    raise RoutingError(
                        f"unknown value tag {blob[start:start + 1]!r}")
            column = columns.get(name)
            if column is None:
                column = columns[name] = [None] * n
            column[row] = value
    except Exception as exc:
        unpack_fields(blob)     # a bad layout outranks a bad field
        if isinstance(exc, (struct.error, UnicodeDecodeError)):
            raise RoutingError(f"malformed header field: {exc}") from exc
        raise
    if end != len(blob):
        unpack_fields(blob)     # raises: truncated, or trailing bytes


def decode_header(blob: bytes, event_id: int = 0,
                  names: Optional[Dict[bytes, str]] = None) -> Event:
    """Invert :func:`encode_header`: one header as an :class:`Event`.

    Names and values are validated here, once, and the event is built
    from them as they are (:meth:`Event.validated`). ``names`` is the
    caller's name memo, if it keeps one.
    """
    columns: Dict[str, list] = {}
    _scatter(blob, {} if names is None else names, 0, 1, columns, set())
    return Event.validated(
        {name: column[0] for name, column in columns.items()}, event_id)


def decode_headers(blobs: Sequence[bytes],
                   names: Optional[Dict[bytes, str]] = None
                   ) -> EventColumns:
    """Invert :func:`encode_header` over a batch, straight into one
    value column per attribute — no dict and no :class:`Event` per
    header. Raises what :func:`decode_header` raises for the first
    blob, in batch order, that it rejects."""
    n = len(blobs)
    columns: Dict[str, list] = {}
    irregular: Set[str] = set()
    if names is None:
        names = {}
    for row, blob in enumerate(blobs):
        _scatter(blob, names, row, n, columns, irregular)
    return EventColumns(n, columns, irregular)


# -- subscriptions -----------------------------------------------------------------

_FLAG_STRING = 1
_FLAG_LO_OPEN = 2
_FLAG_HI_OPEN = 4
_FLAG_HAS_EQUALS = 8


def _encode_constraint(attribute: str, constraint: Constraint) -> bytes:
    flags = 0
    if constraint.is_string:
        flags |= _FLAG_STRING
    if constraint.lo_open:
        flags |= _FLAG_LO_OPEN
    if constraint.hi_open:
        flags |= _FLAG_HI_OPEN
    if constraint.equals is not None:
        flags |= _FLAG_HAS_EQUALS
    fields = [
        attribute.encode("utf-8"),
        bytes([flags]),
        struct.pack(">d", constraint.lo),
        struct.pack(">d", constraint.hi),
        (constraint.equals or "").encode("utf-8"),
        pack_fields([_encode_value(v)
                     for v in sorted(constraint.excluded, key=repr)]),
    ]
    return pack_fields(fields)


def encode_subscription(subscription: Subscription) -> bytes:
    """Canonical binary encoding of a normalised subscription."""
    return pack_fields([_encode_constraint(attribute, constraint)
                        for attribute, constraint in subscription.items])


def decode_subscription(blob: bytes) -> Subscription:
    """Invert :func:`encode_subscription`.

    The subscription is rebuilt through predicates, so the decoded
    object re-normalises to exactly the encoded constraints.
    """
    predicates: List[Predicate] = []
    for constraint_blob in unpack_fields(blob):
        fields = unpack_fields(constraint_blob)
        if len(fields) != 6:
            raise RoutingError("malformed constraint block")
        attribute = fields[0].decode("utf-8")
        flags = fields[1][0]
        lo = struct.unpack(">d", fields[2])[0]
        hi = struct.unpack(">d", fields[3])[0]
        equals = fields[4].decode("utf-8")
        excluded = [_decode_value(v) for v in unpack_fields(fields[5])]
        if flags & _FLAG_STRING:
            if flags & _FLAG_HAS_EQUALS:
                predicates.append(Predicate(attribute, Op.EQ, equals))
            elif not excluded:
                # String-typed constraint with neither pin nor
                # exclusions cannot be expressed; treat as exists.
                predicates.append(Predicate(attribute, Op.EXISTS))
        else:
            if not math.isinf(lo):
                predicates.append(Predicate(
                    attribute, Op.GT if flags & _FLAG_LO_OPEN else Op.GE,
                    lo))
            if not math.isinf(hi):
                predicates.append(Predicate(
                    attribute, Op.LT if flags & _FLAG_HI_OPEN else Op.LE,
                    hi))
            if math.isinf(lo) and math.isinf(hi) and not excluded:
                predicates.append(Predicate(attribute, Op.EXISTS))
        for value in excluded:
            predicates.append(Predicate(attribute, Op.NE, value))
    return Subscription(predicates)


# -- symmetric envelope --------------------------------------------------------------

class SecureChannel:
    """AES-CTR + CMAC envelope under keys derived from a master key.

    The publisher <-> enclave channel of the paper: both ends hold SK;
    encryption and MAC keys are derived with HKDF so the raw SK is
    never used directly for either purpose.
    """

    def __init__(self, master_key: bytes) -> None:
        if len(master_key) not in (16, 24, 32):
            raise CryptoError("master key must be an AES key size")
        # Both derived transforms come from the per-key cache: every
        # SecureChannel over the same master key (the provisioned SK,
        # re-derived per ecall) shares one expanded key schedule.
        self._ctr = ctr_for_key(hkdf(master_key, info=b"scbr-enc",
                                     length=16))
        self._mac = cmac_for_key(hkdf(master_key, info=b"scbr-mac",
                                      length=16))

    def protect(self, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt-then-MAC; ``aad`` is authenticated, not encrypted."""
        nonce = secrets.token_bytes(_NONCE)
        ciphertext = self._ctr.process(nonce, plaintext)
        tag = self._mac.tag(nonce + aad + ciphertext)
        return pack_fields([nonce, ciphertext, tag, aad])

    @staticmethod
    def _fields(blob: bytes) -> List[bytes]:
        """``[nonce, ciphertext, tag, aad]`` of one envelope."""
        try:
            fields = unpack_fields(blob)
        except NetworkError as exc:
            raise CryptoError(f"malformed secure envelope: {exc}")
        if len(fields) != 4:
            raise CryptoError("malformed secure envelope")
        return fields

    def open(self, blob: bytes) -> Tuple[bytes, bytes]:
        """Verify and decrypt; returns ``(plaintext, aad)``."""
        nonce, ciphertext, tag, aad = self._fields(blob)
        self._mac.verify(nonce + aad + ciphertext, tag)
        return self._ctr.process(nonce, ciphertext), aad

    def open_many(self, blobs: Sequence[bytes]
                  ) -> List[Tuple[bytes, bytes]]:
        """Verify and decrypt a batch; returns ``(plaintext, aad)`` pairs.

        Semantically a loop of :meth:`open`: the first envelope, in
        batch order, that is malformed or fails its tag raises what
        :meth:`open` would have raised for it, before anything is
        returned. The work is laid out by stage: every envelope is
        parsed and its tag checked, in batch order, and only then do
        the CTR decryptions run, through one
        :meth:`~repro.crypto.ctr.AesCtr.process_many`. This is what
        the engine's ``match_publications`` ecall rides.
        """
        verify = self._mac.verify
        pairs: List[Tuple[bytes, bytes]] = []
        aads: List[bytes] = []
        for blob in blobs:
            nonce, ciphertext, tag, aad = self._fields(blob)
            verify(nonce + aad + ciphertext, tag)
            pairs.append((nonce, ciphertext))
            aads.append(aad)
        return list(zip(self._ctr.process_many(pairs), aads))


# -- hybrid asymmetric envelope ---------------------------------------------------------

def hybrid_encrypt(public_key: RsaPublicKey, plaintext: bytes,
                   aad: bytes = b"") -> bytes:
    """RSA-OAEP a fresh content key; protect the body symmetrically."""
    content_key = secrets.token_bytes(16)
    wrapped = public_key.encrypt(content_key, label=b"scbr-hybrid")
    body = SecureChannel(content_key).protect(plaintext, aad)
    return pack_fields([wrapped, body])


def hybrid_decrypt(private_key: RsaPrivateKey,
                   blob: bytes) -> Tuple[bytes, bytes]:
    """Invert :func:`hybrid_encrypt`; returns ``(plaintext, aad)``."""
    try:
        fields = unpack_fields(blob)
    except NetworkError as exc:
        raise CryptoError(f"malformed hybrid envelope: {exc}")
    if len(fields) != 2:
        raise CryptoError("malformed hybrid envelope")
    wrapped, body = fields
    content_key = private_key.decrypt(wrapped, label=b"scbr-hybrid")
    return SecureChannel(content_key).open(body)


# -- keys on the wire -----------------------------------------------------------------

def encode_public_key(public_key: RsaPublicKey) -> bytes:
    n_bytes = public_key.n.to_bytes(
        (public_key.n.bit_length() + 7) // 8, "big")
    e_bytes = public_key.e.to_bytes(8, "big")
    return pack_fields([n_bytes, e_bytes])


def decode_public_key(blob: bytes) -> RsaPublicKey:
    fields = unpack_fields(blob)
    if len(fields) != 2:
        raise CryptoError("malformed public key blob")
    return RsaPublicKey(int.from_bytes(fields[0], "big"),
                        int.from_bytes(fields[1], "big"))


# -- Base64 text framing (paper §3.5) ---------------------------------------------------

def to_wire(message_type: str, blob: bytes) -> bytes:
    """Frame a binary message as ``type:base64`` text bytes."""
    return f"{message_type}:{b64encode(blob)}".encode("ascii")


def from_wire(frame: bytes) -> Tuple[str, bytes]:
    """Invert :func:`to_wire`."""
    try:
        text = frame.decode("ascii")
        message_type, encoded = text.split(":", 1)
    except (UnicodeDecodeError, ValueError):
        raise RoutingError("malformed wire frame")
    return message_type, b64decode(encoded)
