"""Per-key cipher provider: caching semantics and bounds."""

from repro.crypto.provider import (CACHE_CAPACITY, clear_key_cache,
                                   cmac_for_key, ctr_for_key)


class TestKeyCache:

    def setup_method(self):
        clear_key_cache()

    def test_same_key_returns_same_object(self):
        key = b"k" * 16
        assert ctr_for_key(key) is ctr_for_key(key)
        assert cmac_for_key(key) is cmac_for_key(key)

    def test_distinct_keys_distinct_objects(self):
        assert ctr_for_key(b"a" * 16) is not ctr_for_key(b"b" * 16)
        assert cmac_for_key(b"a" * 16) is not cmac_for_key(b"b" * 16)

    def test_cached_objects_compute_correctly(self):
        key = b"k" * 16
        nonce = b"n" * 16
        ctr = ctr_for_key(key)
        assert ctr.process(nonce, ctr.process(nonce, b"data")) == b"data"
        mac = cmac_for_key(key)
        mac.verify(b"msg", mac.tag(b"msg"))

    def test_capacity_bounded_lru(self):
        first_key = (0).to_bytes(16, "big")
        first = ctr_for_key(first_key)
        for i in range(1, CACHE_CAPACITY + 1):
            ctr_for_key(i.to_bytes(16, "big"))
        # first_key was least recently used and fell out: a fresh
        # instance is built for it.
        assert ctr_for_key(first_key) is not first

    def test_lru_refresh_on_hit(self):
        first_key = (0).to_bytes(16, "big")
        first = ctr_for_key(first_key)
        for i in range(1, CACHE_CAPACITY):
            ctr_for_key(i.to_bytes(16, "big"))
        ctr_for_key(first_key)  # refresh
        ctr_for_key((CACHE_CAPACITY).to_bytes(16, "big"))  # evicts key 1
        assert ctr_for_key(first_key) is first

    def test_clear(self):
        key = b"k" * 16
        before = ctr_for_key(key)
        clear_key_cache()
        assert ctr_for_key(key) is not before

    def test_evicted_transforms_free_their_cipher_contexts(self):
        """Each cached transform owns one OpenSSL context, freed by a
        finalizer when the LRU drops it: pushing twice the capacity
        through leaves at most ``CACHE_CAPACITY`` of each kind alive."""
        ctr_contexts, cmac_contexts = [], []
        for i in range(2 * CACHE_CAPACITY):
            key = i.to_bytes(16, "big")
            ctr_contexts.append(ctr_for_key(key)._cipher._free)
            cmac_contexts.append(cmac_for_key(key)._cbc._free)
        assert sum(f.alive for f in ctr_contexts) <= CACHE_CAPACITY
        assert sum(f.alive for f in cmac_contexts) <= CACHE_CAPACITY
        assert all(f.alive for f in ctr_contexts[-CACHE_CAPACITY:])
        clear_key_cache()
        assert not any(f.alive for f in ctr_contexts + cmac_contexts)
