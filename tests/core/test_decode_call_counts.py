"""Decoding a batch of headers costs one Python call per header.

A clock-free guard on the enclave's batch decode, in the manner of
``test_open_call_counts.py``: under ``sys.setprofile``, with the cyclic
collector off and a warm name memo, the Python-level calls of
:func:`~repro.core.messages.decode_headers` are counted. They may grow
by one per header and by one per distinct attribute, never by one per
field; a decoder that calls a helper per name or per value fails.

Field by field, through one ``decode_header`` per blob (its
``unpack_fields``, ``Event.validated`` and, per field, a name lookup,
a value decode and a value check), the headers below cost
``3 + 3 * width`` calls each: 27 at width 8 and 117 at width 38 (866
and 3,746 calls for 32 headers, 1,730 and 7,490 for 64, counted on
CPython 3.11 with the same ``_calls``).
"""

from repro.core.messages import decode_headers, encode_header
from repro.matching.events import Event

from tests.core.test_open_call_counts import _calls


def _blobs(n_headers, width):
    """``n_headers`` encoded headers of ``width`` attributes: one
    string (a symbol), the rest floats — the shape of a quote."""
    blobs = []
    for i in range(n_headers):
        header = {"a%02d" % j: float(i * 100 + j)
                  for j in range(width - 1)}
        header["symbol"] = "S%d" % (i % 7)
        blobs.append(encode_header(Event(header)))
    return blobs


def _decode_calls(n_headers, width, names):
    blobs = _blobs(n_headers, width)
    decode_headers(blobs, names)            # warm the memo
    return sum(_calls(decode_headers, blobs, names).values())


def test_decode_grows_by_one_call_per_header():
    names = {}
    for width in (8, 38):
        grown = _decode_calls(64, width, names) \
            - _decode_calls(32, width, names)
        assert 0 < grown <= 32


def test_decode_grows_by_at_most_one_call_per_attribute():
    names = {}
    for n_headers in (32, 64):
        grown = _decode_calls(n_headers, 38, names) \
            - _decode_calls(n_headers, 8, names)
        assert grown <= 38 - 8


def test_encoding_the_columns_makes_no_call_per_value():
    """The plane's float64 form of the columns
    (``EventColumns.encoded_rows``) is a fixed number of calls for the
    whole batch — one more for the column of strings — whatever the
    number of rows or columns."""
    names = {}
    counts = []
    for n_headers, width in ((32, 38), (64, 38), (64, 8)):
        batch = decode_headers(_blobs(n_headers, width), names)
        columns = list(batch.columns)
        assert len(columns) == width
        counts.append(sum(_calls(batch.encoded_rows, columns).values()))
    # encoded_rows, its list comprehension, the columns property and
    # encode_values for the symbols
    assert counts == [4, 4, 4]
