"""Event validation, MatchingEngine accounting, forest statistics."""

import pytest

from repro.errors import MatchingError
from repro.matching.events import Event
from repro.matching.matcher import MatchingEngine
from repro.matching.naive import NaiveMatcher
from repro.matching.stats import forest_stats
from repro.matching.subscriptions import Subscription
from repro.sgx.cpu import scaled_spec
from repro.sgx.platform import SgxPlatform


class TestEvent:

    def test_accessors(self):
        event = Event({"symbol": "HAL", "price": 48.2})
        assert event["price"] == 48.2
        assert event.get("nope") is None
        assert "symbol" in event
        assert len(event) == 2
        assert dict(event.items()) == {"symbol": "HAL", "price": 48.2}

    def test_canonical_sorted(self):
        event = Event({"b": 1, "a": 2})
        assert event.canonical() == (("a", 2), ("b", 1))

    def test_empty_header_rejected(self):
        with pytest.raises(MatchingError):
            Event({})

    def test_bad_values_rejected(self):
        with pytest.raises(MatchingError):
            Event({"x": [1, 2]})
        with pytest.raises(MatchingError):
            Event({"x": float("nan")})
        with pytest.raises(MatchingError):
            Event({"": 1})


class TestMatchingEngine:

    def _engine(self, enclave):
        platform = SgxPlatform(spec=scaled_spec(llc_bytes=256 * 1024))
        return MatchingEngine(platform, enclave=enclave)

    def test_register_and_match(self):
        engine = self._engine(enclave=True)
        engine.register(Subscription.parse({"x": (0, 10)}), "alice")
        engine.register(Subscription.parse({"x": (2, 8)}), "bob")
        result = engine.match(Event({"x": 5}))
        assert result.subscribers == {"alice", "bob"}
        assert result.nodes_visited == 2
        assert result.simulated_us > 0

    def test_register_returns_positive_time(self):
        engine = self._engine(enclave=True)
        assert engine.register(Subscription.parse({"x": 1}), "a") > 0

    def test_unregister(self):
        engine = self._engine(enclave=False)
        sub = Subscription.parse({"x": (0, 10)})
        engine.register(sub, "alice")
        assert engine.unregister(sub, "alice")
        assert engine.match(Event({"x": 5})).subscribers == set()

    def test_enclave_costs_more_when_missing(self):
        """With a cache-busting index, in-enclave matching is slower."""
        # 800 root nodes x 2 cache lines overflow a 64 KiB LLC.
        subs = [Subscription.parse({"x": (i, i + 1000)})
                for i in range(800)]
        event = Event({"x": 999999})  # matches nothing, scans all roots
        times = {}
        for enclave in (False, True):
            # Registration is not what this measures: untraced inserts
            # plus a prefault, the slices' and sweeps' set-up.
            platform = SgxPlatform(spec=scaled_spec(llc_bytes=64 * 1024))
            engine = MatchingEngine(platform, enclave=enclave,
                                    trace_inserts=False)
            for index, sub in enumerate(subs):
                engine.register(sub, index)
            platform.memory.prefault(engine.arena.base,
                                     engine.arena.allocated_bytes,
                                     enclave)
            # warm, then measure
            engine.match(event)
            times[enclave] = engine.match(event).simulated_us
        assert times[True] > times[False]

    def test_stats_properties(self):
        engine = self._engine(enclave=False)
        engine.register(Subscription.parse({"x": (0, 10)}), "a")
        engine.register(Subscription.parse({"x": (0, 10)}), "b")
        assert engine.n_subscriptions == 2
        assert engine.n_nodes == 1
        assert engine.index_bytes > 0


class TestForestStats:

    def test_empty_forest(self):
        from repro.matching.poset import ContainmentForest
        stats = forest_stats(ContainmentForest())
        assert stats.n_nodes == 0
        assert stats.max_depth == 0
        assert stats.containment_ratio == 0.0

    def test_chain_depth(self):
        from repro.matching.poset import ContainmentForest
        forest = ContainmentForest()
        for i in range(5):
            forest.insert(
                Subscription.parse({"x": (i, 100 - i)}), i)
        stats = forest_stats(forest)
        assert stats.n_roots == 1
        assert stats.max_depth == 5
        assert "roots=1" in stats.describe()

    def test_containment_ratio_dedup(self):
        from repro.matching.poset import ContainmentForest
        forest = ContainmentForest()
        for subscriber in range(4):
            forest.insert(Subscription.parse({"x": (0, 10)}),
                          subscriber)
        stats = forest_stats(forest)
        assert stats.containment_ratio == 0.25


class TestNaiveMatcher:

    def test_dedup(self):
        naive = NaiveMatcher()
        naive.insert(Subscription.parse({"x": 1}), "a")
        naive.insert(Subscription.parse({"x": 1}), "b")
        assert naive.n_entries == 1
        assert naive.match(Event({"x": 1})) == {"a", "b"}

    def test_traced_counts_every_entry(self):
        platform = SgxPlatform(spec=scaled_spec(llc_bytes=256 * 1024))
        arena = platform.memory.new_arena(enclave=False)
        naive = NaiveMatcher(arena=arena)
        for i in range(10):
            naive.insert(Subscription.parse({"x": (i, i + 1)}), i)
        _matched, visited, _evals = naive.match_traced(Event({"x": 0}))
        assert visited == 10
