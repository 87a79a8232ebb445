"""Per-key cached crypto transforms shared by all hot paths.

Constructing :class:`~repro.crypto.ctr.AesCtr` or
:class:`~repro.crypto.cmac.AesCmac` allocates and keys an OpenSSL
cipher context (the key expansion), and the CMAC additionally derives
its two subkeys. The engine's envelope path, sealing, the recovery WAL's
record chaining and the overlay advert channel all re-key with the
*same* long-lived keys over and over — the SK provisioned once per
enclave, the platform's sealing and report keys, a checkpoint chain
key. This module memoises the keyed transform per key so that cost is
paid once per key instead of once per call.

The cache is a bounded LRU keyed by the raw key bytes. Boundedness
matters because hybrid encryption creates a fresh random content key
per message — those single-use keys must not grow the cache without
limit, and evicting them is free (re-keying is always correct, only
slower). Keys are held as dict keys (plain ``bytes``); this simulator
makes no secrecy claims about process memory (DESIGN.md threat model —
modelled, not enforced).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, TypeVar

from repro.crypto.cmac import AesCmac
from repro.crypto.ctr import AesCtr

__all__ = ["ctr_for_key", "cmac_for_key",
           "clear_key_cache", "CACHE_CAPACITY"]

#: Per-transform cache bound. Generous for long-lived keys (one SK per
#: provider, a handful of platform keys) while keeping the worst case —
#: a stream of single-use hybrid content keys — at a few hundred small
#: objects. An evicted transform's cipher context is freed with it.
CACHE_CAPACITY = 256

_T = TypeVar("_T")

_ctr_cache: "OrderedDict[bytes, AesCtr]" = OrderedDict()
_cmac_cache: "OrderedDict[bytes, AesCmac]" = OrderedDict()


def _lookup(cache: "OrderedDict[bytes, _T]", key: bytes,
            factory: Callable[[bytes], _T]) -> _T:
    key = bytes(key)
    entry = cache.get(key)
    if entry is not None:
        cache.move_to_end(key)
        return entry
    entry = factory(key)  # key validation happens in the constructor
    cache[key] = entry
    if len(cache) > CACHE_CAPACITY:
        cache.popitem(last=False)
    return entry


def ctr_for_key(key: bytes) -> AesCtr:
    """The cached CTR transform for ``key``."""
    return _lookup(_ctr_cache, key, AesCtr)


def cmac_for_key(key: bytes) -> AesCmac:
    """The cached CMAC (schedule + subkeys derived once) for ``key``."""
    return _lookup(_cmac_cache, key, AesCmac)


def clear_key_cache() -> None:
    """Drop every cached transform (tests; never required for safety)."""
    _ctr_cache.clear()
    _cmac_cache.clear()
