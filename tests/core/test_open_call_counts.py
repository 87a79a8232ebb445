"""Opening an envelope costs the same Python calls whatever its size.

A clock-free guard on the crypto path: under ``sys.setprofile`` the
Python-level calls of one ``SecureChannel.open`` are counted, so any
per-block loop left in Python (a pure-Python cipher makes one call per
AES block) shows up as a count that grows with the payload, on any
machine and at any load.
"""

import gc
import sys
from collections import Counter

from repro.core.messages import SecureChannel
from repro.crypto.cmac import AesCmac


def _calls(fn, *args):
    """``Counter`` of the code objects entered while ``fn(*args)``
    runs, with the cyclic collector off (a collection would count the
    finalizers of whatever earlier tests left behind)."""
    counts = Counter()

    def profile(frame, event, _arg):
        if event == "call":
            counts[frame.f_code] += 1

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return counts


def test_open_of_4_kib_makes_the_calls_of_64_b():
    channel = SecureChannel(b"k" * 16)
    small = channel.protect(bytes(64), aad=b"client")
    large = channel.protect(bytes(4096), aad=b"client")
    channel.open(small)
    small_calls = _calls(channel.open, small)
    large_calls = _calls(channel.open, large)
    assert sum(small_calls.values()) > 0
    assert large_calls == small_calls


def test_open_many_verifies_each_envelope_through_verify():
    channel = SecureChannel(b"k" * 16)
    blobs = [channel.protect(b"payload-%d" % i * 7) for i in range(32)]
    calls = _calls(channel.open_many, blobs)
    assert calls[AesCmac.verify.__code__] == 32
