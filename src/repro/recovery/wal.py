"""Registration write-ahead log on untrusted stable storage.

Every ``REG``/``UNREG`` frame the router accepts is appended here
*before* the ecall that applies it to the in-enclave index. A crash at
any point then leaves the union of (last sealed checkpoint, WAL suffix)
covering every accepted registration, and recovery is: unseal, replay.

Records are chained with AES-CMAC — each tag covers the previous tag —
so the log is tamper-evident and a torn tail (the host died mid-append)
is detectable and cleanly truncated. Two honest limits, stated rather
than hidden:

* the chain key lives beside the log on the same untrusted host, so
  the chain defends against *corruption and torn writes*, not a
  malicious host forging entries — forged entries are caught anyway,
  because replay re-executes the registration ecall and the enclave
  re-verifies the provider's signature on every frame;
* an attacker who discards the WAL tail loses registrations made after
  the last checkpoint. That window is bounded by the checkpoint
  cadence and closable only with hardware the paper does not assume
  (per-append monotonic counters); DESIGN.md §7 discusses the
  trade-off.
"""

from __future__ import annotations

import hmac
import secrets
import struct
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.crypto.cmac import cmac
from repro.crypto.provider import cmac_for_key
from repro.errors import WalError

__all__ = ["WalRecord", "WriteAheadLog"]

_MAGIC = b"SCBRWAL1"
_TAG = 16
#: record framing: u64 seq | u16 kind length | u32 frame length
_HEADER = struct.Struct(">QHI")
_GENESIS = b"\x00" * _TAG


@dataclass(frozen=True)
class WalRecord:
    """One journalled registration frame."""

    seq: int
    kind: str
    frame: bytes
    tag: bytes

    def encode(self) -> bytes:
        kind = self.kind.encode()
        return (_HEADER.pack(self.seq, len(kind), len(self.frame))
                + kind + self.frame + self.tag)


class WriteAheadLog:
    """Append-only CMAC-chained journal of registration frames.

    ``chain_key`` may be supplied for reproducible logs (the
    determinism tests do); by default a fresh random key is generated
    and serialised with the log — see the module docstring for what
    the chain does and does not defend.
    """

    def __init__(self, chain_key: Optional[bytes] = None) -> None:
        self.chain_key = chain_key if chain_key is not None \
            else secrets.token_bytes(16)
        self._records: List[WalRecord] = []
        self._next_seq = 1
        self._last_tag = _GENESIS
        #: chain tag the first retained record links from — GENESIS for
        #: a virgin log, the last pruned record's tag after pruning.
        self._anchor_tag = _GENESIS
        #: sequence numbers discarded by checkpoint-driven pruning
        #: (records ``<= pruned_through`` are covered by a seal).
        self.pruned_through = 0
        #: torn-tail truncations observed by :meth:`from_bytes`.
        self.torn_tail_drops = 0

    # -- append path ---------------------------------------------------------

    @staticmethod
    def _chain_body(prev_tag: bytes, seq: int, kind: str,
                    frame: bytes) -> bytes:
        """What a record's tag covers: the previous tag, then itself."""
        return (prev_tag + seq.to_bytes(8, "big") + kind.encode()
                + b"|" + frame)

    def _chain_tag(self, prev_tag: bytes, seq: int, kind: str,
                   frame: bytes) -> bytes:
        return cmac(self.chain_key,
                    self._chain_body(prev_tag, seq, kind, frame))

    def seal_payload(self, payload: bytes) -> bytes:
        """Tag an out-of-band blob with this log's chain key.

        Slice migration seals its checkpoint image with the same key
        that chains the window's WAL suffix, so one key decision covers
        both artefacts that cross machines; :meth:`open_payload`
        verifies and strips the tag. Same honest limits as the chain
        itself (module docstring): tamper-evidence, not secrecy.
        """
        payload = bytes(payload)
        return payload + cmac(self.chain_key, payload)

    def open_payload(self, blob: bytes) -> bytes:
        """Verify a :meth:`seal_payload` blob; returns the payload.

        Raises :class:`~repro.errors.WalError` on a damaged or forged
        tag.
        """
        if len(blob) < _TAG:
            raise WalError("sealed payload shorter than its tag")
        payload, tag = bytes(blob[:-_TAG]), bytes(blob[-_TAG:])
        if not hmac.compare_digest(cmac(self.chain_key, payload), tag):
            raise WalError("sealed payload failed verification")
        return payload

    def append(self, kind: str, frame: bytes) -> int:
        """Journal one frame; returns its sequence number.

        Must be called before the corresponding ecall — that ordering
        is the whole "write-ahead" guarantee.
        """
        if not kind or len(kind.encode()) > 0xFFFF:
            raise WalError("record kind must be a short non-empty slug")
        seq = self._next_seq
        tag = self._chain_tag(self._last_tag, seq, kind, bytes(frame))
        self._records.append(WalRecord(seq, kind, bytes(frame), tag))
        self._next_seq = seq + 1
        self._last_tag = tag
        return seq

    # -- read path ---------------------------------------------------------------

    @property
    def last_seq(self) -> int:
        """Highest sequence number ever appended (0 when empty)."""
        return self._next_seq - 1

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[WalRecord]:
        return iter(self._records)

    def records_after(self, seq: int) -> List[WalRecord]:
        """Records with a sequence number strictly greater than ``seq``.

        The recovery replay set: ``seq`` is the WAL position the
        restored checkpoint covers (its sealed ``app_data``).
        """
        return [r for r in self._records if r.seq > seq]

    def prune_through(self, seq: int) -> int:
        """Drop records covered by a checkpoint; returns how many.

        Retention, not rollback: pruned registrations are exactly the
        ones a sealed snapshot already holds, so recovery never needs
        them again. The tag of the last pruned record becomes the chain
        anchor the serialised image carries, so the retained suffix
        still verifies end to end.
        """
        dropped = 0
        while self._records and self._records[0].seq <= seq:
            self._anchor_tag = self._records[0].tag
            self._records.pop(0)
            dropped += 1
        if seq > self.pruned_through:
            self.pruned_through = min(seq, self.last_seq)
        return dropped

    # -- persistence ----------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialise the log image as it would sit on stable storage."""
        parts = [_MAGIC, self.pruned_through.to_bytes(8, "big"),
                 self.chain_key, self._anchor_tag]
        parts.extend(record.encode() for record in self._records)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "WriteAheadLog":
        """Rebuild a log from storage, truncating a torn tail.

        A record that is cut short (the host crashed mid-write) or
        whose chain tag does not verify is treated as the torn tail:
        it and everything after it are dropped and counted in
        ``torn_tail_drops``. A corrupt *prefix* (bad magic, garbled
        header) is not recoverable and raises :class:`WalError`.
        """
        if len(data) < len(_MAGIC) + 8 + 16 + _TAG:
            raise WalError("WAL image shorter than its header")
        if data[:len(_MAGIC)] != _MAGIC:
            raise WalError("WAL image has the wrong magic")
        offset = len(_MAGIC)
        pruned_through = int.from_bytes(data[offset:offset + 8], "big")
        offset += 8
        chain_key = data[offset:offset + 16]
        offset += 16
        anchor_tag = data[offset:offset + _TAG]
        offset += _TAG

        log = cls(chain_key=chain_key)
        log.pruned_through = pruned_through
        log._anchor_tag = anchor_tag
        prev_tag = anchor_tag
        expected_seq = pruned_through + 1
        mac = cmac_for_key(chain_key)
        while offset < len(data):
            parsed = cls._parse_record(data, offset)
            if parsed is None:
                # Torn tail: drop the partial record and stop.
                log.torn_tail_drops += 1
                break
            record, offset = parsed
            if record.seq != expected_seq:
                raise WalError(
                    f"WAL sequence gap: expected {expected_seq}, "
                    f"found {record.seq}")
            expected = mac.tag(cls._chain_body(prev_tag, record.seq,
                                               record.kind, record.frame))
            if not hmac.compare_digest(expected, record.tag):
                # A record whose body or tag was damaged in place: the
                # chain is broken here, so nothing after it can be
                # trusted either — same treatment as a torn tail.
                log.torn_tail_drops += 1
                break
            log._records.append(record)
            prev_tag = record.tag
            expected_seq += 1
        log._next_seq = expected_seq
        log._last_tag = prev_tag
        return log

    @staticmethod
    def _parse_record(data: bytes, offset: int
                      ) -> Optional[Tuple[WalRecord, int]]:
        """Parse one record at ``offset``; None if it is cut short."""
        if offset + _HEADER.size > len(data):
            return None
        seq, kind_len, frame_len = _HEADER.unpack_from(data, offset)
        offset += _HEADER.size
        end = offset + kind_len + frame_len + _TAG
        if end > len(data):
            return None
        try:
            kind = data[offset:offset + kind_len].decode()
        except UnicodeDecodeError:
            return None
        offset += kind_len
        frame = data[offset:offset + frame_len]
        offset += frame_len
        tag = data[offset:offset + _TAG]
        return WalRecord(seq, kind, frame, tag), end
