"""WAL replay of a long log: same truncation, same errors, anywhere.

``from_bytes`` verifies every record's chain link as it parses; what it
keeps, drops and raises must not depend on where in a long log the
damage sits: the first record, the last, or one in the middle.
"""

import pytest

from repro.errors import WalError
from repro.recovery.wal import WalRecord, WriteAheadLog

KEY = b"\x2a" * 16
STRIDE = 64
N = 2 * STRIDE + 22


@pytest.fixture(scope="module")
def log():
    log = WriteAheadLog(chain_key=KEY)
    for index in range(N):
        log.append("REG" if index % 3 else "UNREG",
                   b"frame-%d-" % index * (1 + index % 7))
    return log


def _image(records, log):
    header = log.to_bytes()[:len(b"SCBRWAL1") + 8 + 16 + 16]
    return header + b"".join(record.encode() for record in records)


def _damaged(record):
    return WalRecord(record.seq, record.kind, record.frame,
                     bytes([record.tag[0] ^ 1]) + record.tag[1:])


def test_long_log_roundtrips(log):
    copy = WriteAheadLog.from_bytes(log.to_bytes())
    assert list(copy) == list(log)
    assert copy.torn_tail_drops == 0
    assert copy.append("REG", b"next") == N + 1


@pytest.mark.parametrize("at", [0, 1, STRIDE - 1, STRIDE,
                                STRIDE + 1, N - 1])
def test_broken_link_truncates_exactly_there(log, at):
    records = list(log)
    records[at] = _damaged(records[at])
    copy = WriteAheadLog.from_bytes(_image(records, log))
    assert [r.seq for r in copy] == list(range(1, at + 1))
    assert copy.torn_tail_drops == 1
    assert copy.append("REG", b"fresh") == at + 1


@pytest.mark.parametrize("at", [3, STRIDE, N - 1])
def test_cut_short_record_drops_only_the_tail(log, at):
    records = list(log)
    image = _image(records[:at], log) + records[at].encode()[:-5]
    copy = WriteAheadLog.from_bytes(image)
    assert [r.seq for r in copy] == list(range(1, at + 1))
    assert copy.torn_tail_drops == 1


def test_gap_raises_only_if_every_earlier_link_holds(log):
    records = list(log)
    gapped = records[:70] + records[71:]
    with pytest.raises(WalError, match="expected 71, found 72"):
        WriteAheadLog.from_bytes(_image(gapped, log))
    # A broken link ahead of the gap is the torn tail: replay stops
    # there and never gets to the gap.
    gapped[66] = _damaged(gapped[66])
    copy = WriteAheadLog.from_bytes(_image(gapped, log))
    assert copy.last_seq == 66 and copy.torn_tail_drops == 1
