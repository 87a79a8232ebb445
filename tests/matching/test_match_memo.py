"""Match memo + hot-path work reduction: correctness and savings.

Covers the generation-stamped :class:`MatchMemo` (churn safety, FIFO
eviction, lazy stale drop), the engine-level wiring (hits skip the
traversal entirely, counters/metrics account for it), and the headline
work-reduction claim: on the Zipf-skewed ``e100a1zz100`` workload the
memo plus the per-root attribute gate cut predicate evaluations by at
least 20% versus the ungated, memo-less baseline — measured with the
same :class:`MatchCounters` both engines carry.
"""

import numpy as np
import pytest

from repro.matching.events import Event
from repro.matching.matcher import MatchingEngine, MatchMemo
from repro.matching.subscriptions import Subscription
from repro.sgx.cpu import scaled_spec
from repro.sgx.platform import SgxPlatform
from repro.workloads.datasets import build_dataset
from repro.workloads.zipf import ZipfSampler

SPEC = scaled_spec(llc_bytes=256 * 1024)


def _engine(**kwargs):
    platform = SgxPlatform(spec=SPEC)
    return MatchingEngine(platform, enclave=True, **kwargs)


class TestMatchMemoUnit:

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            MatchMemo(0)

    def test_fifo_eviction(self):
        memo = MatchMemo(2)
        memo.store(("a",), frozenset({"x"}))
        memo.store(("b",), frozenset({"y"}))
        memo.store(("c",), frozenset({"z"}))  # evicts ("a",)
        assert memo.evictions == 1
        assert memo.lookup(("a",)) is None
        assert memo.lookup(("b",)) == frozenset({"y"})
        assert len(memo) == 2

    def test_bump_invalidates_lazily(self):
        memo = MatchMemo(4)
        memo.store(("a",), frozenset({"x"}))
        memo.bump()
        assert memo.lookup(("a",)) is None   # stale, dropped on touch
        assert len(memo) == 0
        assert memo.invalidation_bumps == 1

    def test_restore_overwrites_stale_entry(self):
        memo = MatchMemo(4)
        memo.store(("a",), frozenset({"x"}))
        memo.bump()
        memo.store(("a",), frozenset({"y"}))
        assert memo.lookup(("a",)) == frozenset({"y"})


class TestEngineMemo:

    def test_hit_skips_traversal(self):
        engine = _engine(memo_capacity=16)
        engine.register(Subscription.parse({"x": (0, 10)}), "alice")
        event = Event({"x": 5})
        first = engine.match(event)
        second = engine.match(event)
        assert first.subscribers == second.subscribers == {"alice"}
        assert second.nodes_visited == 0
        assert second.predicates_evaluated == 0
        assert second.simulated_us == 0.0
        assert engine.counters.memo_hits == 1
        assert engine.metrics.get(
            "engine.memo_hits_total").value == 1

    def test_churn_never_serves_stale_sets(self):
        """register -> match (memoised) -> unregister -> match."""
        engine = _engine(memo_capacity=16)
        sub = Subscription.parse({"symbol": "HAL"})
        engine.register(sub, "alice")
        event = Event({"symbol": "HAL"})
        assert engine.match(event).subscribers == {"alice"}
        assert engine.match(event).subscribers == {"alice"}  # hit
        assert engine.unregister(sub, "alice")
        assert engine.match(event).subscribers == set()
        engine.register(sub, "bob")
        assert engine.match(event).subscribers == {"bob"}

    def test_failed_removal_does_not_invalidate(self):
        """The memo twin of the plane's test of the same name: only a
        removal that happened may cost the cached answers."""
        engine = _engine(memo_capacity=16)
        sub = Subscription.parse({"symbol": "HAL"})
        engine.register(sub, "alice")
        event = Event({"symbol": "HAL"})
        engine.match(event)
        bumps = engine.memo.invalidation_bumps
        assert not engine.unregister(sub, "ghost")
        assert not engine.unregister(
            Subscription.parse({"symbol": "IBM"}), "alice")
        assert engine.memo.invalidation_bumps == bumps
        assert engine.match(event).nodes_visited == 0       # still a hit
        assert engine.unregister(sub, "alice")
        assert engine.memo.invalidation_bumps == bumps + 1
        assert engine.match(event).subscribers == set()

    def test_eviction_bounds_memory(self):
        engine = _engine(memo_capacity=4)
        engine.register(Subscription.parse({"x": (0, 100)}), "a")
        for value in range(10):
            engine.match(Event({"x": value}))
        assert len(engine.memo) == 4
        assert engine.memo.evictions == 6

    def test_memo_off_by_default(self):
        engine = _engine()
        assert engine.memo is None
        engine.register(Subscription.parse({"x": 1}), "a")
        event = Event({"x": 1})
        first = engine.match(event)
        second = engine.match(event)
        # No memo: both matches traverse and charge simulated time.
        assert second.nodes_visited == first.nodes_visited > 0


class TestWorkReduction:

    def test_zipf_workload_cuts_predicate_evaluations(self):
        """Memo + root gates save >=20% evaluations on e100a1zz100."""
        dataset = build_dataset("e100a1zz100", 1500, 200)
        # Zipf-skew the *event stream*: popular headers repeat, which
        # is the regime the paper's workload tables model (zz100) and
        # the regime the memo exploits.
        sampler = ZipfSampler(len(dataset.publications), exponent=1.0,
                              rng=np.random.default_rng(42))
        stream = [dataset.publications[sampler.sample_index()]
                  for _ in range(600)]

        baseline = _engine(root_gate=False)          # no gate, no memo
        optimised = _engine(memo_capacity=256)       # gate + memo
        for index, subscription in enumerate(dataset.subscriptions):
            baseline.register(subscription, index)
            optimised.register(subscription, index)

        for event in stream:
            a = baseline.match(event)
            b = optimised.match(event)
            assert a.subscribers == b.subscribers

        evals_baseline = baseline.counters.predicates_evaluated
        evals_optimised = optimised.counters.predicates_evaluated
        assert evals_baseline > 0
        saving = 1.0 - evals_optimised / evals_baseline
        assert saving >= 0.20, (
            f"only {saving:.1%} predicate evaluations saved "
            f"({evals_optimised} vs {evals_baseline})")
        # On this workload the memo is the working mechanism (its
        # 1-attribute equality subscriptions constrain attributes the
        # quotes nearly always carry, so the gate rarely fires).
        assert optimised.counters.memo_hits > 0

    def test_root_gate_fires_on_extended_subscriptions(self):
        """extsub subscriptions add attributes events often lack; the
        per-root gate skips those trees and saves evaluations."""
        dataset = build_dataset("extsub4", 400, 60)
        gated = _engine(root_gate=True)
        ungated = _engine(root_gate=False)
        for index, subscription in enumerate(dataset.subscriptions):
            gated.register(subscription, index)
            ungated.register(subscription, index)
        for event in dataset.publications:
            assert gated.match(event).subscribers == \
                ungated.match(event).subscribers
        assert gated.counters.roots_gated > 0
        assert gated.counters.predicates_evaluated < \
            ungated.counters.predicates_evaluated

    def test_root_gate_alone_is_exact(self):
        """Gating changes work counters, never the match set."""
        dataset = build_dataset("e80a2", 400, 60)
        gated = _engine(root_gate=True)
        ungated = _engine(root_gate=False)
        for index, subscription in enumerate(dataset.subscriptions):
            gated.register(subscription, index)
            ungated.register(subscription, index)
        for event in dataset.publications:
            assert gated.match(event).subscribers == \
                ungated.match(event).subscribers
        assert gated.counters.predicates_evaluated <= \
            ungated.counters.predicates_evaluated
